"""One workload in one process: set up, run the batch in a closed loop, check.

Started by run.py.  It imports cubefam from the checkout's ``src``,
writes the seeded input files, prints ``READY`` (the end of set-up), then
sends the batch's queries to ``cubefam.cli.main(argv)`` one after the
other -- one client, no threads -- pass after pass while the next pass is
expected to end within ``--seconds``, and until at least three passes ran
and, unless ``--small``, at least 100 queries were timed.  With
``--trace 1`` passes alternate untraced and traced, so the tracing
overhead is the difference of their batch times.  Every answer is
checked once by checks.py, and every repeat of a query must return the
same report bytes.  The last stdout line is a JSON summary for run.py.

Times are reported at reference speed.  On a shared machine the speed of
a core drifts by up to 2x for minutes at a time (the process is not
descheduled: its CPU time equals its wall time), so a raw wall time
measures the neighbours as much as cubefam.  Between two queries the
worker therefore times a probe, a fixed piece of work that never touches
cubefam, and scales the query's wall time by ``PROBE_REFERENCE_S / probe
time`` (the faster of the probes before and after it).  A change to
cubefam moves the scaled time exactly as it moves the wall time; a slower
core moves both the query and the probe.  Interpreted code and numpy
kernels do not slow down alike, so each workload names the probe that
matches its work (``workloads.PROBES``).  Raw wall and CPU times stay in
the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_QUERIES = 100
# Either probe on an idle core of the 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4) the benchmark was tuned on; it only sets the scale of the
# reported times.
PROBE_REFERENCE_S = 0.0035


def interpreter_probe() -> float:
    """Seconds taken by a fixed loop of integer, bit and dict operations."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(15000):
        m = (i * 2654435761) & 0xFFFFF
        acc += (m & (m >> 3)).bit_count()
        table[m & 1023] = acc
    return time.perf_counter() - t0


def numpy_probe() -> float:
    """Seconds taken by fixed int32 row shuffles, the Monte-Carlo sampler's kernel."""
    import numpy as np

    t0 = time.perf_counter()
    mat = np.tile(np.arange(400, dtype=np.int32), (200, 1))
    np.random.Generator(np.random.Philox(key=0)).permuted(mat, axis=1, out=mat)
    int((mat[:, :200] < 100).sum())
    return time.perf_counter() - t0


PROBES = {"interpreter": interpreter_probe, "numpy": numpy_probe}


def import_cubefam():
    sys.path.insert(0, SRC)
    import cubefam
    import cubefam.cli

    if not os.path.abspath(cubefam.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cubefam was imported from {cubefam.__file__}, not {SRC}")
    return cubefam.cli


def call(main, argv):
    """One timed CLI call: (seconds, CPU seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:          # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
            error = "SystemExit"
        except Exception:
            code = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        cpu = time.thread_time() - c0
    return elapsed, cpu, code, out.getvalue(), error or err.getvalue()


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(args) -> dict:
    main = import_cubefam().main
    import checks
    import tracing
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}")
    wl = workloads.build(args.workload, args.seed, workdir, small=args.small)
    print("READY", flush=True)
    print(f"PROBE {min(interpreter_probe() for _ in range(3))!r}", flush=True)  # scales set-up
    if args.setup_only:
        return {}

    tracer = tracing.Tracer() if args.trace else None
    probe = PROBES[workloads.PROBES[args.workload]]
    plain_batches, traced_batches, layer_runs = [], [], []   # seconds spent in main()
    durations = []                     # whole passes, probes included
    per_query = []                     # per untraced batch: (wall, cpu, scaled) of each query
    traced_scaled = []                 # per traced batch: scaled seconds of each query
    outcomes = {}                      # qid -> (digest, verdict)
    failures = []
    mapped = 0                         # distinct queries whose answer holds a map
    check_s = 0.0                      # time spent in the independent checks
    attempted = failed = unknown = 0
    min_batches = 4 if args.trace else 3
    start = time.perf_counter()
    batch = 0
    # Start another batch while it is expected to end within --seconds, and
    # until the minimum batch and query counts are met.
    while (batch < min_batches or (not args.small and attempted < MIN_QUERIES)
           or time.perf_counter() - start + statistics.median(durations)
           <= args.seconds):
        traced = bool(args.trace) and batch % 2 == 1
        results = []
        if traced:
            tracer.reset()
            tracer.install()
        factors = []                   # reference speed / speed, per query
        t0 = time.perf_counter()
        before = probe()
        for q in wl.queries:
            if traced:
                with tracer.query_span(q.qid):
                    results.append(call(main, q.argv))
            else:
                results.append(call(main, q.argv))
            after = probe()
            factors.append(PROBE_REFERENCE_S / min(before, after))
            before = after
        durations.append(time.perf_counter() - t0)
        scaled = [r[0] * f for r, f in zip(results, factors)]
        in_main_s = sum(r[0] for r in results)
        if traced:
            tracer.uninstall()
            traced_batches.append(in_main_s)
            traced_scaled.append(scaled)
            scale = {q.qid: f for q, f in zip(wl.queries, factors)}
            layer_runs.append((tracer.layer_metrics(scale), tracer.spans))
        else:
            plain_batches.append(in_main_s)
            per_query.append([(r[0], r[1], x) for r, x in zip(results, scaled)])
        for q, (_, _, code, stdout, error) in zip(wl.queries, results):
            attempted += 1
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if q.qid not in outcomes:
                if code not in (0, 4):            # raised, or exit 2/3/5
                    verdict = checks.wrong(f"exit {code}: {error.strip()[-300:]}")
                else:
                    try:
                        report = json.loads(stdout) if stdout.strip() else None
                        c0 = time.perf_counter()
                        verdict = checks.check(wl, q, code, report)
                        check_s += time.perf_counter() - c0
                        mapped += report["results"].get("map") is not None
                    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
                        verdict = checks.wrong(f"malformed report: {exc!r}")
                outcomes[q.qid] = (digest, verdict)
            first_digest, verdict = outcomes[q.qid]
            if digest != first_digest:
                verdict = checks.wrong("report bytes differ from the first run of this query")
            if not verdict.ok:
                failed += 1
                failures.append({"qid": q.qid, "argv": q.argv, "reason": verdict.reason})
            elif not verdict.definite:
                unknown += 1
        batch += 1

    # A query's latency is the median of its scaled repeats; the raw wall
    # and CPU figures are kept beside it.
    repeats = list(zip(*per_query))
    latency = sorted(statistics.median(x for _, _, x in r) for r in repeats)
    pooled = sorted(x for batch_times in per_query for _, _, x in batch_times)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "unknown": unknown,
        "failures": failures[:20],
        "batches": batch,
        "queries_per_batch": len(wl.queries),
        "probe": workloads.PROBES[args.workload],
        "batch_s": sum(latency),
        "query_p50_ms": 1e3 * statistics.median(latency),
        "query_p90_ms": 1e3 * nearest_rank(latency, 0.9),
        "timed_queries": len(pooled),
        "pooled_p50_ms": 1e3 * statistics.median(pooled),
        "pooled_p90_ms": 1e3 * nearest_rank(pooled, 0.9),
        "wall_batch_s": sum(statistics.median(w for w, _, _ in r) for r in repeats),
        "cpu_batch_s": sum(statistics.median(c for _, c, _ in r) for r in repeats),
        "check_s": check_s,
        "pass_times": plain_batches,
        "traced_pass_times": traced_batches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_times": {q.qid: {"wall": [b[i][0] for b in per_query],
                                "cpu": [b[i][1] for b in per_query],
                                "scaled": [b[i][2] for b in per_query]}
                        for i, q in enumerate(wl.queries)},
        "digests": {qid: d for qid, (d, _) in sorted(outcomes.items())},
    }
    if args.trace:
        keys = layer_runs[0][0]
        layers = {k: statistics.median(m[k] for m, _ in layer_runs) for k in keys}
        layers["trace.overhead_s"] = (
            sum(statistics.median(r) for r in zip(*traced_scaled)) - summary["batch_s"])
        summary["layers"] = layers
        summary["trace_warnings"] = [f"trace target not found: {t}" for t in tracer.missing]
        if mapped and not layers["posets.verify_s"]:
            summary["trace_warnings"].append(
                f"posets.verify_s is 0 although {mapped} answers returned a map")
        summary["counters"] = [{k: m[k] for k in tracing.COUNTERS} for m, _ in layer_runs]
        summary["trace_file"] = os.path.join(workdir, "spans.json")
        with open(summary["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "query", "name", "start", "end"],
                       "batches": [spans for _, spans in layer_runs]}, fh)
    return summary


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true",
                   help="small inputs and no query minimum (for the self-test)")
    return p.parse_args(argv)


if __name__ == "__main__":
    summary = run(parse_args())
    if summary:
        print(json.dumps(summary))
