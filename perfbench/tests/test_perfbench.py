"""Smoke-size tests of the benchmark itself (not of the library).

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path.insert(0, str(PERF))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((PERF / "workloads.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected(trace: int) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in BENCH[key]}


@pytest.mark.parametrize("workload,trace", [
    ("balls", 0), ("balls", 1), ("realanalysis", 0), ("realanalysis", 1),
    ("singular", 1)])
def test_every_metric_is_printed(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.5", "--trace", str(trace), "--smoke")
    res = last_json(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = expected(trace)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    lines = proc.stdout.splitlines()
    for name, unit in want.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert all(np.isfinite(v["value"]) for v in res["metrics"].values())
    if trace:
        assert "trace.overhead_frac" in res["metrics"]
    else:
        assert "latency_tail_s is the p" in proc.stdout
        assert "# env nproc=" in proc.stdout


def test_benchmark_json_lists_workloads_and_metrics():
    names = {w["name"] for w in BENCH["workloads"]}
    assert names == {"balls", "realanalysis", "singular"} == \
        {k for k in CONFIG if not k.startswith("_")}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert {"setup_s", "throughput_qps", "latency_p50_s", "latency_tail_s",
            "peak_rss_mb"} == e2e
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def fingerprint(block):
    out = []
    for q in block:
        for key in sorted(q):
            v = q[key]
            if hasattr(v, "values"):          # GridFunction
                v = v.values
            out.append((key, np.asarray(v).tobytes()
                        if isinstance(v, np.ndarray) else str(v)))
    return out


@pytest.mark.parametrize("name", ["balls", "realanalysis", "singular"])
def test_same_seed_gives_same_inputs(name):
    def blocks(seed):
        wl = workloads.WORKLOADS[name](CONFIG[name], spans.Tracer(),
                                       smoke=True)
        rng = np.random.default_rng(seed)
        return [fingerprint(wl.make_block(rng)) for _ in range(6)]

    assert blocks(7) == blocks(7)
    assert blocks(7) != blocks(8)


def test_balls_revisit_share_is_exact():
    cfg = CONFIG["balls"]
    wl = workloads.Balls(cfg, spans.Tracer(), smoke=True)
    rng = np.random.default_rng(1)
    queries = [q for _ in range(25) for q in wl.make_block(rng)]
    revisits = [q for q in queries if q["kind"] == "revisit"]
    assert len(revisits) / len(queries) == cfg["revisit_share"]
    seen = {}
    for q in queries:
        key = tuple(q["center"])
        if q["kind"] == "revisit":
            assert q["index"] - seen[key] <= cfg["revisit_window"]
        else:
            assert key not in seen
            seen[key] = q["index"]


def test_injected_bad_query_is_counted():
    proc = run_bench("--workload", "balls", "--seed", "2", "--seconds",
                     "0.5", "--trace", "1", "--smoke",
                     "--inject-bad-every", "4")
    res = last_json(proc)
    m = res["metrics"]
    assert res["failed"] > 0 and not res["correct"]
    assert m["failed_frac"]["value"] == res["failed"] / res["attempted"]
    assert m["geometry.failed"]["value"] >= 1
    assert "ClippedBallError" in proc.stderr


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = worker.tail(list(range(40)))
    assert (value, beyond) == (29, 10) and pct == 75.0
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_children():
    S = spans.Span
    tree = [S(0, "query", "bench", 0.0, 10.0, None, 0, "loop"),
            S(1, "maximal.a", "maximal", 1.0, 4.0, 0, 0, "loop"),
            S(2, "maximal.b", "maximal", 3.0, 6.0, 0, 0, "loop"),
            S(3, "kernels.c", "kernels", 3.5, 4.5, 2, 0, "loop")]
    st = spans.self_times(tree)
    assert st == {0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0}
    totals = spans.layer_totals(tree, "loop")
    assert totals["maximal"] == {"busy_s": 5.0, "calls": 2}
    assert totals["kernels"] == {"busy_s": 1.0, "calls": 1}


def test_working_set_records_match_sizes():
    f8 = 8
    moves = 5 ** 2 - 1                      # control levels ^ fields - 1
    balls = CONFIG["balls"]
    P = int(np.prod(balls["grid"]))
    ws = balls["working_set_computed"]
    assert ws["bytes_per_distance_field"] == P * f8
    assert ws["bytes_field_cache_full"] == \
        balls["library_field_cache"] * P * f8
    assert ws["bytes_metric_moves"] == moves * P * (4 * 8 + 4 * 8 + 1)
    ra = CONFIG["realanalysis"]
    P = int(np.prod(ra["grid"]))
    stride = ra["family"]["stride"]
    centers = len(range(0, ra["grid"][0], stride)) + 1   # plus the last node
    ws = ra["working_set_computed"]
    assert ws["bytes_per_distance_field"] == P * f8
    assert ws["bytes_ball_family"] == centers ** 2 * P * f8
    assert ws["bytes_metric_moves"] == moves * P * (4 * 8 + 4 * 8 + 1)
    ws = CONFIG["singular"]["working_set_computed"]
    assert ws["bytes_normalization_cubature"] == \
        ws["normalization_cubature_nodes"] * (3 + 1) * f8
    P3 = 41 ** 3                            # calibrate_equivalence default
    assert ws["bytes_equivalence_distance_field"] == P3 * f8
    assert ws["bytes_equivalence_moves"] == moves * P3 * (8 * 8 + 8 * 8 + 1)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench("--workload", "balls", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
