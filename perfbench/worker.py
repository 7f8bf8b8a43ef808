"""One run of one workload, in a fresh interpreter started by run.py.

The set-up clock starts just before ``import subelliptic``, so ``setup_s``
covers imports, calibrations, metric construction and family building, all
with the library's module caches empty.  The timed loop then runs whole
blocks of queries, at least two, until ``--seconds`` have passed.  In a traced run odd
blocks are traced and even blocks are not, so the run compares traced with
untraced throughput itself; end-to-end figures come from untraced runs
only.  The result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import LAYERS, LayerCallError, Tracer, layer_totals

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
REFERENCE_QUERIES = 64
MAX_LOGGED_FAILURES = 5
MIN_BLOCKS = 2          # a traced run needs one untraced and one traced block


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-bad-every", type=int, default=0)
    ap.add_argument("--record", action="store_true",
                    help="return per-query values without checking them")
    ap.add_argument("--spans-out")
    return ap.parse_args(argv)


def tail(latencies):
    """Highest order statistic with at least ten samples above it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no such statistic exists and the maximum is returned with 0 beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def references(workload: str, args):
    """Recorded per-query values for the default seed at full size."""
    if args.record or args.smoke or args.inject_bad_every \
            or args.seed != DEFAULT_SEED:
        return None, 0.0, 0.0
    doc = json.loads((HERE / "reference.json").read_text())
    refs = doc["workloads"].get(workload, {})
    return {int(k): v for k, v in refs.items()}, doc["rtol"], doc["atol"]


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = json.loads((HERE / "workloads.json").read_text())[args.workload]
    tracer = Tracer()
    tracer.enabled = bool(args.trace)

    t0 = time.perf_counter()
    import subelliptic  # noqa: F401  (set-up time starts with this import)
    import numpy as np
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    kw = {"inject_every": args.inject_bad_every} \
        if args.inject_bad_every else {}
    wl = cls(cfg, tracer, smoke=args.smoke, **kw)
    try:
        wl.setup()
    except LayerCallError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        traceback.print_exception(exc.exc, file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out))
        return 0

    refs, rtol, atol = references(args.workload, args)
    rng = np.random.default_rng(args.seed)
    tracer.phase = "loop"
    lat = {False: [], True: []}          # successful query latencies
    loop_s = {False: 0.0, True: 0.0}
    work: Counter = Counter()            # traced blocks only
    attempted = failed = 0
    values_out = []
    start = time.perf_counter()
    block_no = 0
    while True:
        traced = bool(args.trace) and block_no % 2 == 1
        block = wl.make_block(rng)
        tracer.enabled = traced
        tb = time.perf_counter()
        for q in block:
            attempted += 1
            tracer.query = q["index"]
            sid = tracer.open("query") if traced else None
            t = time.perf_counter()
            try:
                values, qwork = wl.run(q)
                dt = time.perf_counter() - t
            except (LayerCallError, workloads.CheckFailed) as exc:
                failed += 1
                if failed <= MAX_LOGGED_FAILURES:
                    print(f"query {q['index']} failed: {exc}",
                          file=sys.stderr)
                continue
            except Exception:
                # a result the checks could not even handle is a failure too
                failed += 1
                if failed <= MAX_LOGGED_FAILURES:
                    traceback.print_exc()
                continue
            finally:
                if sid is not None:
                    tracer.close(sid)
            ref = refs.get(q["index"]) if refs else None
            if ref is not None and not np.allclose(values, ref, rtol=rtol,
                                                   atol=atol):
                failed += 1
                if failed <= MAX_LOGGED_FAILURES:
                    print(f"query {q['index']} differs from its reference: "
                          f"{values} vs {ref}", file=sys.stderr)
                continue
            lat[traced].append(dt)
            if traced:
                work.update(qwork)
                work["queries"] += 1
            if q["index"] < REFERENCE_QUERIES:
                values_out.append((q["index"], [float(v) for v in values]))
        loop_s[traced] += time.perf_counter() - tb
        block_no += 1
        if block_no >= MIN_BLOCKS and \
                time.perf_counter() - start >= args.seconds:
            break

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(peak_rss_mb=rss, attempted=attempted, failed=failed,
               values=values_out)
    if args.trace:
        out["layers"] = per_layer(tracer, work, lat, loop_s, wl)
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        # with no query answered correctly, the client waited the whole loop
        ok = lat[False] or [loop_s[False]]
        value, pct, beyond = tail(ok)
        out.update(
            throughput_qps=len(lat[False]) / loop_s[False],
            latency_p50_s=statistics.median(ok), latency_tail_s=value,
            tail_percentile=pct, tail_beyond=beyond,
            samples=len(lat[False]))
    print(json.dumps(out))
    return 0


def _per_s(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer(tracer, work, lat, loop_s, wl) -> dict:
    """The per-layer metrics of a traced run, keyed by metric name."""
    loop = layer_totals(tracer.spans, "loop")
    setup = layer_totals(tracer.spans, "setup")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = loop[layer]["busy_s"]
        m[f"{layer}.calls"] = loop[layer]["calls"]
        m[f"{layer}.setup_s"] = setup[layer]["busy_s"]
        m[f"{layer}.failed"] = tracer.failed[layer]
    points = wl.dom.num_points
    built = work["geometry.fields_built"]
    m["geometry.fields_built"] = built
    m["geometry.field_points_per_s"] = _per_s(
        built * points, loop["geometry"]["busy_s"])
    m["geometry.revisit_frac"] = _per_s(work["geometry.revisits"],
                                        work["queries"])
    m["kernels.output_points"] = work["kernels.output_points"]
    m["kernels.points_per_s"] = _per_s(work["kernels.output_points"],
                                       loop["kernels"]["busy_s"])
    m["maximal.ball_points"] = work["maximal.ball_points"]
    m["maximal.ball_points_per_s"] = _per_s(work["maximal.ball_points"],
                                            loop["maximal"]["busy_s"])
    m["maximal.records_used_frac"] = _per_s(
        work["maximal.records_used"], work["maximal.records_attempted"])
    m["estimates.grid_points_per_s"] = _per_s(work["estimates.grid_points"],
                                              loop["estimates"]["busy_s"])
    untraced = _per_s(len(lat[False]), loop_s[False])
    traced = _per_s(len(lat[True]), loop_s[True])
    m["trace.overhead_frac"] = 1.0 - traced / untraced if untraced else 0.0
    return m


if __name__ == "__main__":
    sys.exit(main())
