"""Self-tests of the benchmark: determinism, stored optima, wrong-answer checks.

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import checks
import optima
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_small_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1", "--small"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_is_deterministic(workload):
    first = traced_small_run(workload, 5)
    second = traced_small_run(workload, 5)
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"] + second["failures"]
    # every traced batch of both runs did identical work...
    counters = first["counters"] + second["counters"]
    assert all(c == counters[0] for c in counters)
    # ...and every query printed the same report, byte for byte
    assert first["digests"] == second["digests"]


def test_stored_optima_match_exhaustive_enumeration():
    assert optima.main() == 0


def test_checks_reject_wrong_answers(tmp_path):
    wl = workloads.build("search", 3, str(tmp_path), small=True)
    literal = workloads.subset_literal
    q = next(q for q in wl.queries if q.argv[0] == "embed" and q.meta["pattern"] == "V2")
    fam = wl.families[q.meta["family"]]
    upside_down = [max(fam.members), min(fam.members), fam.members[1]]
    bad_map = {"results": {"status": "found", "map": {
        "mode": q.meta["mode"], "images": [literal(m) for m in upside_down]}}}
    assert not checks.check(wl, q, 0, bad_map).ok

    wl_embed = wl
    wl = workloads.build("extremal", 3, str(tmp_path), small=True)
    q = next(q for q in wl.queries if q.argv[0] == "extremal" and q.meta["pattern"] == "P2"
             and q.meta["n"] == 4 and q.meta["objective"] == "cardinality")
    antichain = [m for m in range(16) if m.bit_count() == 2][:5]
    report = {"results": {"value": 5, "exact": True, "nodes": 1,
                          "family": [literal(m) for m in antichain]}}
    assert not checks.check(wl, q, 0, report).ok        # Sperner: the optimum is 6
    report["results"]["exact"] = False
    assert checks.check(wl, q, 4, report) == checks.UNKNOWN

    # a budget stop that says so (exit 4) is unknown, not wrong
    q = next(q for q in wl_embed.queries if q.argv[0] == "embed" and q.meta["mode"] == "induced")
    stopped = {"results": {"status": "unknown", "map": None}}
    assert checks.check(wl_embed, q, 4, stopped) == checks.UNKNOWN
    stopped["results"]["status"] = "absent"
    assert checks.check(wl_embed, q, 4, stopped) == checks.UNKNOWN
    stopped["results"]["status"] = "unknown"
    assert not checks.check(wl_embed, q, 0, stopped).ok     # unknown must exit 4
    assert not checks.check(wl_embed, q, 4, bad_map).ok     # exit 4 carries no map

    # an exact value with no stored optimum stands or falls with its witness
    q = next(q for q in wl.queries if q.argv[0] == "extremal" and q.meta["pattern"] == "V2"
             and q.meta["n"] == 5)
    assert (q.meta["pattern"], q.meta["mode"], 5) not in optima.OPTIMA
    middle = [m for m in range(32) if m.bit_count() == 2]
    report = {"results": {"value": len(middle), "exact": True, "nodes": 1,
                          "family": [literal(m) for m in middle]}}
    assert checks.check(wl, q, 0, report) == checks.OK
    report["results"]["family"].append(literal(0))     # the empty set under two: a V2
    report["results"]["value"] += 1
    assert not checks.check(wl, q, 0, report).ok


def test_printed_units_match_manifest():
    import run
    import tracing
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    layers = list(tracing.Tracer().layer_metrics()) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {
        name: run.layer_unit(name) for name in layers}
