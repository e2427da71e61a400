"""cubefam benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Runs from the root of a cubefam checkout and exercises ``src/cubefam``.
Set-up is timed in separate processes started the same way as the
measured one, scaled to reference speed like the queries (worker.py),
and its median is reported.  The measured process runs the
workload (see worker.py) and the last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  A wrong answer sets "correct" to false and the exit code to 1.
The run record (metadata, worker summary) goes to
``.perfbench_work/<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import PROBE_REFERENCE_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

DEFAULT_SEED = 1
HELD_OUT_SEED = 104729        # claims must also hold on this seed
SETUP_REPEATS = 6             # set-up-only processes, plus the measured one
TIMEOUT_S = 170

END_TO_END_UNITS = {
    "batch_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MiB", "correct_ratio": "ratio", "definite_ratio": "ratio",
}


LAYER_UNITS = {
    "extremal.us_per_node": "us", "concentration.trials_per_s": "1/s",
    "concentration.bytes_computed": "bytes", "embeddings.random_route_share": "ratio",
    "cli.report_bytes": "bytes",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, extra):
    """Start a worker; return (process, seconds from start to READY, probe seconds)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    speed = proc.stdout.readline().split()
    if line.strip() != "READY" or len(speed) != 2 or speed[0] != "PROBE":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready, float(speed[1])


def finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def metadata(args) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "clients": 1, "loop": "closed",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cubefam CLI benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cubefam", "cli.py")):
        print(f"no cubefam sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []                     # (wall seconds, probe seconds)
        for _ in range(SETUP_REPEATS):
            proc, ready, speed = start_worker(args, ["--setup-only"])
            finish(proc, deadline)
            setups.append((ready, speed))
        proc, ready, speed = start_worker(args, [])
        setups.append((ready, speed))
        summary = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed = summary["attempted"], summary["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in summary["layers"].items()}
    else:
        values = {
            "batch_s": summary["batch_s"],
            "query_p50_ms": summary["query_p50_ms"],
            "query_p90_ms": summary["query_p90_ms"],
            "setup_s": statistics.median(w * PROBE_REFERENCE_S / p for w, p in setups),
            "peak_rss_mb": summary["peak_rss_mb"],
            "correct_ratio": (attempted - failed) / attempted,
            "definite_ratio": (attempted - failed - summary["unknown"]) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"meta": metadata(args),
              "setup": [{"wall_s": w, "probe_s": p} for w, p in setups],
              "summary": summary, "result": result}
    path = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for warning in summary.get("trace_warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    for failure in summary["failures"]:
        print(f"wrong answer {failure['qid']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps({"meta": record["meta"]}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
