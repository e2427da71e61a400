"""Spans around cubefam's public functions, installed only for traced batches.

A wrapper replaces a function on every cubefam module that holds it (the
CLI and the layers import functions by name), records one span per call
(id, parent span, query id, name, start, end) in memory, and updates the
layer counters from the call's arguments, result or exception.  Targets
that a later version of cubefam no longer has are skipped and listed in
``Tracer.missing`` (the run names them on stderr), so the untraced
benchmark never depends on them.

A span's self time is its duration minus the durations of its direct
child spans; every ``*_s`` layer metric is a sum of self times, each
scaled by its query's reference-speed factor when the worker gives one.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []          # [id, parent, query, name, start, end]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.query = None
        self.missing: list = []        # TARGETS entries not found at install
        self._installed: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, on_enter=None, on_exit=None, on_error=None):
        tracer = self

        def traced(*args, **kwargs):
            rec = [len(tracer.spans), tracer.stack[-1][0] if tracer.stack else None,
                   tracer.query, name, 0.0, 0.0]
            tracer.spans.append(rec)
            if on_enter:
                on_enter(tracer, rec, args, kwargs)
            tracer.stack.append(rec)
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = time.perf_counter()
                tracer.stack.pop()
                if on_error:
                    on_error(tracer, rec, exc)
                raise
            rec[5] = time.perf_counter()
            tracer.stack.pop()
            if on_exit:
                on_exit(tracer, rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def query_span(self, query):
        """The benchmark's own root span around one CLI call."""
        self.query = query
        rec = [len(self.spans), None, query, "query", time.perf_counter(), 0.0]
        self.spans.append(rec)
        self.stack.append(rec)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self.stack.pop()
            self.query = None

    def inside(self, prefix: str) -> bool:
        return any(rec[3].startswith(prefix) for rec in self.stack)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cubefam" or name.startswith("cubefam."))]
        self.missing = []
        for module_name, attr, span_name, hooks in TARGETS:
            home = sys.modules.get(module_name)
            orig = getattr(home, attr, None) if home is not None else None
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(span_name, orig, *hooks)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, orig))

    def uninstall(self):
        for module, key, orig in reversed(self._installed):
            setattr(module, key, orig)
        self._installed.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()

    # -- per-layer metrics ---------------------------------------------------

    def self_times(self, scale) -> dict:
        child = defaultdict(float)
        for rec in self.spans:
            if rec[1] is not None:
                child[rec[1]] += rec[5] - rec[4]
        out = defaultdict(float)
        for rec in self.spans:
            out[rec[3]] += (rec[5] - rec[4] - child[rec[0]]) * scale.get(rec[2], 1.0)
        return out

    def layer_metrics(self, scale=None) -> dict:
        """Per-layer metrics of the spans and counters recorded so far.

        ``scale`` maps a query id to the factor its span times are scaled by.
        """
        scale = scale or {}
        st = self.self_times(scale)
        c = self.counts
        total = defaultdict(float)
        calls = Counter()
        for rec in self.spans:
            total[rec[3]] += (rec[5] - rec[4]) * scale.get(rec[2], 1.0)
            calls[rec[3]] += 1
        nodes = c["extremal.chain_nodes"] + c["extremal.pattern_nodes"]
        mc_time = total["concentration.tail"] + total["concentration.trace"]
        route_calls = calls["embeddings.route"]
        values = {
            "families.parse_s": st["families.parse"],
            "families.parse_lines": c["families.parse_lines"],
            "families.mass_s": st["families.mass"],
            "posets.host_build_s": st["posets.host_build"],
            "posets.host_pairs": c["posets.host_pairs"],
            "posets.search_s": st["posets.search"],
            "posets.search_calls": calls["posets.search"],
            "posets.budget_stops": c["posets.budget_stops"],
            "posets.budget_nodes": c["posets.budget_nodes"],
            "posets.verify_s": st["posets.verify"],
            "embeddings.route_s": st["embeddings.route"],
            "embeddings.cube_s": st["embeddings.cube"],
            "embeddings.cube_attempts": c["embeddings.cube_attempts"],
            "embeddings.random_route_share":
                c["embeddings.random_routes"] / route_calls if route_calls else 0.0,
            "extraction.pipeline_s": st["extraction.pipeline"],
            "extraction.sequences_s": st["extraction.sequences"],
            "extraction.steps": c["extraction.steps"],
            "extraction.witness_s": st["extraction.witness"],
            "extraction.witness_pairs": c["extraction.witness_pairs"],
            "extraction.maps_emitted": c["extraction.maps_emitted"],
            "pivots.flex_s": st["pivots.flex"],
            "pivots.flex_calls": calls["pivots.flex"],
            "pivots.enum_s": st["pivots.enum"],
            "pivots.enum_calls": calls["pivots.enum"],
            "pivots.fat_s": st["pivots.fat"],
            "pivots.fat_calls": calls["pivots.fat"],
            "extremal.chain_s": st["extremal.chain"],
            "extremal.chain_nodes": c["extremal.chain_nodes"],
            "extremal.pattern_s": st["extremal.pattern"],
            "extremal.pattern_nodes": c["extremal.pattern_nodes"],
            "extremal.us_per_node":
                1e6 * (total["extremal.chain"] + total["extremal.pattern"]) / nodes if nodes else 0.0,
            "extremal.oracle_calls": c["extremal.oracle_calls"],
            "extremal.middle_layers_s": st["extremal.middle_layers"],
            "concentration.sample_s": st["concentration.sample"],
            "concentration.tail_s": st["concentration.tail"],
            "concentration.trace_s": st["concentration.trace"],
            "concentration.trials": c["concentration.trials"],
            "concentration.trials_per_s": c["concentration.trials"] / mc_time if mc_time else 0.0,
            "concentration.bytes_computed": c["concentration.bytes_computed"],
            "cli.run_self_s": st["cli.run"],
            "cli.report_s": st["cli.report"],
            "cli.report_bytes": c["cli.report_bytes"],
        }
        return values


# Deterministic counters: identical for identical inputs, whatever the timing.
COUNTERS = (
    "families.parse_lines", "posets.host_pairs", "posets.search_calls",
    "posets.budget_stops", "posets.budget_nodes", "embeddings.cube_attempts",
    "extraction.steps", "extraction.witness_pairs", "extraction.maps_emitted",
    "pivots.flex_calls", "pivots.enum_calls", "pivots.fat_calls",
    "extremal.chain_nodes", "extremal.pattern_nodes", "extremal.oracle_calls",
    "concentration.trials", "concentration.bytes_computed", "cli.report_bytes",
)


# ---------------------------------------------------------------------------
# Hooks: (on_enter, on_exit, on_error), each optional.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _parsed(tracer, rec, args, kwargs, fam):
    tracer.counts["families.parse_lines"] += len(fam) + 1     # header + one line per member


def _host_built(tracer, rec, args, kwargs, host):
    tracer.counts["posets.host_pairs"] += sum(row.bit_count() for row in host.above)


def _search_enter(tracer, rec, args, kwargs):
    if tracer.inside("extremal."):
        tracer.counts["extremal.oracle_calls"] += 1


def _search_error(tracer, rec, exc):
    if type(exc).__name__ == "SearchBudgetExceeded":
        tracer.counts["posets.budget_stops"] += 1
        tracer.counts["posets.budget_nodes"] += getattr(exc, "nodes", None) or 0


def _cube_done(tracer, rec, args, kwargs, res):
    tracer.counts["embeddings.cube_attempts"] += res.attempts_used
    if res.mask is not None and tracer.inside("embeddings.route"):
        tracer.counts["embeddings.random_routes"] += 1


def _sequences_done(tracer, rec, args, kwargs, trace):
    tracer.counts["extraction.steps"] += len(trace.steps)


def _witness_done(tracer, rec, args, kwargs, assembly):
    tracer.counts["extraction.witness_pairs"] += math.comb(len(assembly.psi), 2)


def _extract_done(tracer, rec, args, kwargs, res):
    tracer.counts["extraction.maps_emitted"] += res.map is not None


def _extremal_enter(tracer, rec, args, kwargs):
    rec[3] = "extremal.chain" if _arg(args, kwargs, 1, "pattern").is_chain() else "extremal.pattern"


def _extremal_done(tracer, rec, args, kwargs, res):
    tracer.counts[rec[3] + "_nodes"] += res.nodes


def _sampled(tracer, rec, args, kwargs, out):
    n = _arg(args, kwargs, 0, "n")
    tracer.counts["concentration.bytes_computed"] += out.shape[0] * (4 * n + 4 * out.shape[1])


def _tail_done(tracer, rec, args, kwargs, rep):
    tracer.counts["concentration.trials"] += rep.trials


def _trace_done(tracer, rec, args, kwargs, rep):
    tracer.counts["concentration.trials"] += rep.trials
    if rep.verdict in ("pass", "fail"):
        # int32 tile, bool membership row and the gathered T-incidence, per trial
        p = rep.params
        tracer.counts["concentration.bytes_computed"] += rep.trials * (
            4 * p["n"] + p["n"] + p["T_size"] * p["r"])


def _reported(tracer, rec, args, kwargs, data):
    tracer.counts["cli.report_bytes"] += len(data)


TARGETS = (
    ("cubefam.families", "read_family", "families.parse", (None, _parsed)),
    ("cubefam.families", "lubell_mass", "families.mass", ()),
    ("cubefam.families", "relative_lubell", "families.mass", ()),
    ("cubefam.posets", "family_as_poset", "posets.host_build", (None, _host_built)),
    ("cubefam.posets", "contains_subposet", "posets.search", (_search_enter, None, _search_error)),
    ("cubefam.posets", "verify_embedding_indices", "posets.verify", ()),
    ("cubefam.posets", "verify_embedding_masks", "posets.verify", ()),
    ("cubefam.embeddings", "find_pattern_via_universality", "embeddings.route", ()),
    ("cubefam.embeddings", "randomized_cube_embed", "embeddings.cube", (None, _cube_done)),
    ("cubefam.extraction", "extract_induced_copy", "extraction.pipeline", (None, _extract_done)),
    ("cubefam.extraction", "build_sequences", "extraction.sequences", (None, _sequences_done)),
    ("cubefam.extraction", "assemble_witnesses", "extraction.witness", (None, _witness_done)),
    ("cubefam.pivots", "flexible_in_universe", "pivots.flex", ()),
    ("cubefam.pivots", "enumerate_pivots", "pivots.enum", ()),
    ("cubefam.pivots", "enumerate_anti_pivots", "pivots.enum", ()),
    ("cubefam.pivots", "pivots_in_universe", "pivots.enum", ()),
    ("cubefam.pivots", "is_fat", "pivots.fat", ()),
    ("cubefam.extremal", "extremal_search", "extremal.search", (_extremal_enter, _extremal_done)),
    ("cubefam.extremal", "middle_layers_number", "extremal.middle_layers", ()),
    ("cubefam.concentration", "sample_uniform_subsets", "concentration.sample", (None, _sampled)),
    ("cubefam.concentration", "verify_tail_bound", "concentration.tail", (None, _tail_done)),
    ("cubefam.concentration", "verify_trace_probability", "concentration.trace", (None, _trace_done)),
    ("cubefam.cli", "run", "cli.run", ()),
    ("cubefam.cli", "emit_report", "cli.report", (None, _reported)),
)
