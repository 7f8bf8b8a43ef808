"""Benchmark for the subelliptic library: one command, three workloads.

    python3 perfbench/run.py --workload balls --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  Each run starts fresh interpreters
(worker.py) with ``src`` on the path and one BLAS/OpenMP thread, so module
caches start empty, set-up includes every calibration, and the one client
runs on one core.  It prints the environment and every metric by name with
its unit, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Workload
parameters and records are in workloads.json; metric definitions in
README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "subelliptic"
OUT_DIR = ROOT / ".perfbench_out"
RUN_BUDGET_S = 170.0
# One thread, below the cap of one per usable core: the library's BLAS calls
# are matrix-vector products that gain nothing from a second thread, and one
# would tie every call to the load on a second, shared core.
BLAS_THREADS = 1


def unit(name: str) -> str:
    """Units follow from metric names: *_s seconds, *_per_s and
    throughput_qps a rate, *_frac a fraction, *_mb megabytes, else a count."""
    if name.endswith("_per_s") or name == "throughput_qps":
        return "1/s"
    for suffix, u in (("_s", "s"), ("_frac", "frac"), ("_mb", "MB")):
        if name.endswith(suffix):
            return u
    return "count"


def parse_args(argv):
    workloads = json.loads((HERE / "workloads.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[k for k in workloads if not k.startswith("_")])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small grids and a single set-up, for tests")
    ap.add_argument("--inject-bad-every", type=int, default=0,
                    help="balls only: every k-th query also asks for a "
                         "ball that reaches the box edge")
    ap.add_argument("--record-reference", action="store_true",
                    help="write this run's per-query values to "
                         "reference.json (default seed, full size)")
    args = ap.parse_args(argv)
    if args.inject_bad_every and args.workload != "balls":
        ap.error("--inject-bad-every applies to the balls workload only")
    if args.record_reference and (args.smoke or args.seed != DEFAULT_SEED):
        ap.error(f"references are recorded at full size for seed "
                 f"{DEFAULT_SEED}")
    return args, workloads[args.workload]


def environment(nproc: int) -> dict:
    """What the figures depend on: cores, thread cap, versions, caches."""
    env = {"nproc": nproc, "blas_threads": BLAS_THREADS}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = "missing"
    env["cpu"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return env


def worker(args, extra, env, deadline):
    """Run worker.py once; return its JSON result or raise RuntimeError."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)] + extra
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget used up before the run started")
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args, cfg = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no library source at {PACKAGE.relative_to(ROOT)}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    # byte-compile first, so no run pays for compilation inside set-up
    compileall.compile_dir(str(PACKAGE), quiet=1)
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["PYTHONHASHSEED"] = "0"

    extra = []
    if args.inject_bad_every:
        extra += ["--inject-bad-every", str(args.inject_bad_every)]
    if args.record_reference:
        extra.append("--record")
    spans_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        extra += ["--spans-out", str(spans_path)]
    repeats = 1 if args.smoke else cfg["setup_repeats"]
    try:
        setups = [worker(args, ["--setup-only"], env, deadline)
                  for _ in range(repeats - 1)]
        res = worker(args, extra, env, deadline)
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res)

    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}"
          + (" smoke" if args.smoke else ""))
    print("# load: closed loop, one client, one process")
    print("# env " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}"
                              for k, v in environment(nproc).items()))
    failed_frac = res["failed"] / res["attempted"]
    if args.trace:
        metrics = dict(res["layers"], failed_frac=failed_frac)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "throughput_qps": res["throughput_qps"],
            "latency_p50_s": res["latency_p50_s"],
            "latency_tail_s": res["latency_tail_s"],
            "peak_rss_mb": max(s["peak_rss_mb"] for s in setups)}
        print(f"# setup_s samples {[s['setup_s'] for s in setups]}")
        print(f"# latency_tail_s is the p{res['tail_percentile']:.1f} of "
              f"{res['samples']} query latencies ({res['tail_beyond']} "
              "beyond it)")
        print(f"# failed_frac {failed_frac} ({res['failed']} of "
              f"{res['attempted']} queries)")
    for name, value in metrics.items():
        print(f"{name} {value} {unit(name)}")

    if args.record_reference:
        ref_path = HERE / "reference.json"
        doc = json.loads(ref_path.read_text())
        doc["workloads"][args.workload] = {
            str(i): v for i, v in res["values"]}
        ref_path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"# recorded {len(res['values'])} reference queries")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
