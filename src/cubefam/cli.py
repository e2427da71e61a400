"""Command-line front door: batch subcommands over family and poset files.

Every run emits a single JSON report (``extremal`` also CSV) with the
configuration echoed back, so the exact invocation can be replayed from
its output.
Randomized subcommands demand an explicit --seed unless --ephemeral is
passed; either way the seed used lands in the report.

Exit codes: 0 success (including honest "absent"/"insufficient"
outcomes), 2 parse error or an --output that cannot be written,
3 precondition violation, 4 budget exhausted, 5 certification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

from . import __version__
from .errors import (
    CertificationError,
    ParseError,
    PreconditionError,
    SearchBudgetExceeded,
    open_text,
)

if TYPE_CHECKING:
    from .posets import FinitePoset

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_CERTIFICATION = 5

_RANDOMIZED = {"embed", "extract"}
_MP_PRINT_DPS = 30


def builtin_pattern(name: str) -> FinitePoset:
    """P2: two-chain; V2: one bottom under two tops; D2: its dual;
    Q2: the four subsets of a two-set."""
    from .posets import make_chain, make_cube, make_v

    table: dict[str, Callable[[], FinitePoset]] = {
        "P2": lambda: make_chain(2),
        "P3": lambda: make_chain(3),
        "P4": lambda: make_chain(4),
        "V2": make_v,
        "D2": lambda: make_v().dual(),
        "Q2": lambda: make_cube(2),
    }
    if name not in table:
        raise ParseError(
            f"unknown builtin pattern {name!r} (have {', '.join(sorted(table))})"
        )
    return table[name]()


def load_pattern(spec: str) -> FinitePoset:
    if spec.startswith("builtin:"):
        return builtin_pattern(spec.split(":", 1)[1])
    from .posets import read_poset

    return read_poset(spec)


def _fraction_arg(text: str) -> Fraction:
    """A rational flag value; the config keeps the string, so echoes stay as
    typed.  A value that a report could not print is refused here."""
    try:
        value = Fraction(text)
        _jsonable(value)
    except PreconditionError:
        raise ParseError(f"rational {text!r} has too many digits to print") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc
    return value


def _count_arg(cfg: RunConfig, key: str, default: int) -> int:
    """An integer flag; only an absent flag takes the default (0 is a count)."""
    value = cfg.params.get(key)
    return default if value is None else value


def _jsonable(x):
    """Exact values only: rationals as "p/q" strings, big reals via mpmath.

    Python prints no integer of more than ``sys.get_int_max_str_digits()``
    digits, so a rational with such a part is a PreconditionError that
    names its order of magnitude.
    """
    if isinstance(x, Fraction):
        try:
            return f"{x.numerator}/{x.denominator}"
        except ValueError:
            exponent = math.log10(abs(x.numerator)) - math.log10(x.denominator)
            raise PreconditionError(
                f"a derived rational near {'-' if x < 0 else ''}1e{exponent:.0f}"
                " has too many digits to print"
            ) from None
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = list(x)
        if isinstance(x, (set, frozenset)):
            items = sorted(items, key=str)
        return [_jsonable(v) for v in items]
    mp = sys.modules.get("mpmath")  # an mpf exists only once mpmath is loaded
    if mp is not None and isinstance(x, mp.mpf):
        with mp.workdps(_MP_PRINT_DPS):
            return mp.nstr(x, 20)
    return str(x)


@dataclass
class RunConfig:
    subcommand: str
    params: dict
    seed: Optional[int] = None
    ephemeral: bool = False
    with_timings: bool = False
    output: Optional[str] = None
    fmt: str = "json"

    def to_payload(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
            "ephemeral": self.ephemeral,
            "with_timings": self.with_timings,
            "output": self.output,
            "format": self.fmt,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunConfig":
        try:
            return cls(
                subcommand=payload["subcommand"],
                params=dict(payload.get("params", {})),
                seed=payload.get("seed"),
                ephemeral=payload.get("ephemeral", False),
                with_timings=payload.get("with_timings", False),
                output=payload.get("output"),
                fmt=payload.get("format", "json"),
            )
        except KeyError as exc:
            raise ParseError(f"config file missing key: {exc}") from exc


@dataclass
class Report:
    config: RunConfig
    results: dict
    certifications: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    exit_code: int = EXIT_OK

    def payload(self) -> dict:
        out = {
            "config": self.config.to_payload(),
            "results": self.results,
            "certifications": self.certifications,
            "versions": {"cubefam": __version__},
            "threads": 1,
        }
        if self.config.with_timings:
            out["timings"] = self.timings
        return out


def emit_report(rep: Report) -> bytes:
    fmt = rep.config.fmt
    if fmt == "json":
        text = json.dumps(
            _jsonable(rep.payload()), sort_keys=True, indent=2, separators=(",", ": ")
        )
        return (text + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rep.results["csv_header"])
        for row in rep.results["csv_rows"]:
            writer.writerow([_jsonable(v) if not isinstance(v, str) else v for v in row])
        return buf.getvalue().encode("utf-8")
    raise ParseError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (results, certifications, exit_code).


def _embedding_payload(images: tuple, mode: str, n: int) -> dict:
    """A copy as member masks of a family on [n] (every map the CLI prints
    is one), as JSON."""
    from .families import format_subset

    return {
        "kind": "masks",
        "mode": mode,
        "target_n": n,
        "images": [format_subset(m) for m in images],
    }


def _handle_lubell(cfg: RunConfig):
    from .families import (
        format_subset,
        lubell_mass,
        parse_subset_literal,
        read_family,
        relative_lubell,
    )

    fam = read_family(cfg.params["family"])
    results = {"n": fam.n, "size": len(fam), "mass": lubell_mass(fam)}
    if cfg.params.get("bottom") is not None or cfg.params.get("top") is not None:
        bottom = parse_subset_literal(cfg.params.get("bottom") or "-", fam.n)
        top_text = cfg.params.get("top")
        top = (
            fam.full_mask
            if top_text is None
            else parse_subset_literal(top_text, fam.n)
        )
        results["interval"] = {
            "bottom": format_subset(bottom),
            "top": format_subset(top),
            "relative_mass": relative_lubell(fam, bottom, top),
        }
    return results, [], EXIT_OK


def _handle_pivots(cfg: RunConfig):
    from .families import format_subset, parse_subset_literal, read_family
    from .pivots import flexible_in_universe, pivots_in_universe

    fam = read_family(cfg.params["family"])
    base = parse_subset_literal(cfg.params["base"], fam.n)
    r = cfg.params["r"]
    anti = bool(cfg.params.get("anti"))
    ps = pivots_in_universe(fam.member_set, fam.full_mask, base, r, anti=anti)
    results = {
        "n": fam.n,
        "base": format_subset(base),
        "r": r,
        "kind": ps.kind,
        "count": len(ps.pivots),
        "pivots": [
            {"moved": format_subset(x), "witness": format_subset(ps.witness_of[x])}
            for x in ps.pivots
        ],
    }
    if cfg.params.get("gamma") is not None:
        gamma = _fraction_arg(cfg.params["gamma"])
        results["gamma"] = gamma
        results["flexible"] = flexible_in_universe(
            fam.member_set, fam.full_mask, base, gamma, r, anti=anti
        )
    return results, [], EXIT_OK


def _handle_embed(cfg: RunConfig):
    from .families import read_family
    from .posets import contains_subposet, family_as_poset

    fam = read_family(cfg.params["family"])
    pattern = load_pattern(cfg.params["pattern"])
    mode = cfg.params["mode"]
    stats = {"attempts_used": 0}
    status, code = "found", EXIT_OK
    if mode == "weak":
        emb = contains_subposet(family_as_poset(fam), pattern, "weak")
        if emb is not None:
            emb = tuple(fam.members[i] for i in emb)
    else:
        from .embeddings import DEFAULT_EMBED_ATTEMPTS, find_pattern_via_universality

        attempts = _count_arg(cfg, "attempts", DEFAULT_EMBED_ATTEMPTS)
        try:
            emb = find_pattern_via_universality(
                fam, pattern, seed=cfg.seed, attempts=attempts, stats=stats
            )
        except SearchBudgetExceeded:
            emb, status, code = None, "unknown", EXIT_BUDGET
    certs = []
    if emb is not None:
        check = "order-preserving pairwise" if mode == "weak" else "induced pairwise"
        certs.append({"object": "embedding", "check": check, "passed": True})
    elif code == EXIT_OK:
        status = "absent"
    results = {
        "status": status,
        "map": None if emb is None else _embedding_payload(emb, mode, fam.n),
        "seed": cfg.seed,
        "attempts_used": stats["attempts_used"],
    }
    return results, certs, code


def _trace_payload(trace) -> dict:
    from .families import format_subset

    return {
        "mode": trace.mode,
        "m": trace.m,
        "n": trace.n,
        "status": trace.status,
        "branch": trace.branch,
        "t": trace.t,
        "initial_mass": trace.initial_mass,
        "threshold": trace.threshold,
        "warnings": list(trace.warnings),
        "steps": [
            {
                "index": s.index,
                "case": s.case,
                "a": s.a,
                "b": s.b,
                "A": format_subset(s.A),
                "B": format_subset(s.B),
                "family_size": s.family_size,
                "stratum_r": s.stratum_r,
                "stratum_size": len(s.stratum_witness),
                "mass": s.step_mass,
                "mass_floor_ok": s.cond5_ok,
                "fallback": s.fallback,
            }
            for s in trace.steps
        ],
    }


def _handle_extract(cfg: RunConfig):
    from .embeddings import DEFAULT_EMBED_ATTEMPTS
    from .extraction import STATUS_EXHAUSTED, extract_induced_copy
    from .families import read_family

    fam = read_family(cfg.params["family"])
    pattern = load_pattern(cfg.params["pattern"])
    mode = cfg.params["mode"]
    if mode == "override":
        if cfg.params.get("q") is None or cfg.params.get("p") is None:
            raise PreconditionError("override mode needs --q and --p")
        overrides = {key: _fraction_arg(cfg.params[key]) for key in ("q", "p")}
        if cfg.params.get("eps") is not None:
            overrides["eps"] = _fraction_arg(cfg.params["eps"])
    else:
        if any(cfg.params.get(key) is not None for key in ("q", "p", "eps")):
            raise PreconditionError("constant overrides are only legal with --mode override")
        overrides = None
    attempts = _count_arg(cfg, "attempts", DEFAULT_EMBED_ATTEMPTS)
    res = extract_induced_copy(
        fam, pattern, overrides, seed=cfg.seed, attempts=attempts
    )
    certs = []
    results = {
        "status": res.status,
        "mode": res.mode,
        "seed": cfg.seed,
        "map": None,
        "trace": _trace_payload(res.trace) if res.trace else None,
    }
    if res.embed is not None:
        results["cube"] = {
            "status": "exhausted" if res.embed.mask is None else "ok",
            "attempts_used": res.embed.attempts_used,
        }
    if res.map is not None:
        results["map"] = _embedding_payload(res.map, "induced", fam.n)
        certs.append({"object": "trace", "check": "per-step structural claims", "passed": True})
        certs.append({"object": "witnesses", "check": "pairwise order against strata", "passed": True})
        certs.append({"object": "embedding", "check": "induced pairwise", "passed": True})
    code = EXIT_OK if res.status != STATUS_EXHAUSTED else EXIT_BUDGET
    return results, certs, code


def _handle_extremal(cfg: RunConfig):
    from .extremal import extremal_search
    from .families import format_subset

    pattern = load_pattern(cfg.params["pattern"])
    res = extremal_search(
        cfg.params["n"],
        pattern,
        cfg.params["mode"],
        cfg.params["objective"],
        budget=cfg.params.get("budget_nodes"),
    )
    certs = [
        {"object": "family", "check": "pattern-free re-verified", "passed": True},
        {"object": "value", "check": "matches certificate objective", "passed": True},
    ]
    wall = round(res.wall_time, 6) if cfg.with_timings else ""
    results = {
        "n": res.n,
        "pattern": cfg.params["pattern"],
        "mode": res.mode,
        "objective": res.objective,
        "value": res.value,
        "exact": res.exact,
        "nodes": res.nodes,
        "family": [format_subset(m) for m in res.family.members],
        "csv_header": ["n", "value", "nodes", "time"],
        "csv_rows": [[res.n, res.value, res.nodes, wall]],
    }
    if cfg.with_timings:
        results["wall_time"] = res.wall_time
    return results, certs, EXIT_OK if res.exact else EXIT_BUDGET


def _handle_middle_layers(cfg: RunConfig):
    from .extremal import middle_layers_number

    pattern = load_pattern(cfg.params["pattern"])
    value = middle_layers_number(pattern, cfg.params["n"])
    return (
        {"n": cfg.params["n"], "pattern": cfg.params["pattern"], "middle_layers": value},
        [],
        EXIT_OK,
    )


def _monte_carlo_payload(lemma: str, rep) -> dict:
    return {
        "lemma": lemma,
        "params": dict(rep.params),
        "trials": rep.trials,
        "drawn": rep.drawn,
        "seed": rep.seed,
        "empirical": rep.empirical,
        "bound": rep.bound,
        "margin": rep.margin,
        "verdict": rep.verdict,
    }


def _mass_bound_payload(lemma: str, params: dict, rep) -> dict:
    return {
        "lemma": lemma,
        "params": params,
        "hypothesis_ok": rep.hypothesis_ok,
        "detail": rep.detail,
        "empirical": rep.mass,
        "bound": rep.bound,
        "verdict": "pass" if rep.satisfied else (
            "hypothesis-failed" if not rep.hypothesis_ok else "fail"
        ),
    }


_LEMMA_FLAGS = {
    "tail": ("-m", "-k", "--n", "-t"),
    "trace": ("--n", "-m", "-r", "--eps"),
    "flexbound": ("--family", "--gamma", "-r"),
    "fatbound": ("--family", "--sset", "--eps"),
}


def _handle_verify_lemma(cfg: RunConfig):
    from .concentration import verify_tail_bound, verify_trace_probability
    from .families import read_family

    lemma = cfg.params["lemma"]
    if lemma not in _LEMMA_FLAGS:
        raise ParseError(f"unknown lemma {lemma!r}")
    missing = [f for f in _LEMMA_FLAGS[lemma] if cfg.params.get(f.lstrip("-")) is None]
    if missing:
        raise ParseError(f"--lemma {lemma} needs {', '.join(missing)}")
    trials = _count_arg(cfg, "trials", 100_000)
    if lemma == "tail":
        rep = verify_tail_bound(
            cfg.params["m"], cfg.params["k"], cfg.params["n"],
            _fraction_arg(cfg.params["t"]), trials, cfg.seed,
        )
        return _monte_carlo_payload(lemma, rep), [], EXIT_OK
    if lemma == "trace":
        tset_path = cfg.params.get("tset")
        if tset_path:
            tfam = read_family(tset_path)
            tset = set(tfam.members)
        else:
            tset = set()
        rep = verify_trace_probability(
            cfg.params["n"], cfg.params["m"], cfg.params["r"],
            _fraction_arg(cfg.params["eps"]), tset, trials, cfg.seed,
        )
        return _monte_carlo_payload(lemma, rep), [], EXIT_OK
    from .pivots import verify_fat_mass_bound, verify_flexibility_bound

    fam = read_family(cfg.params["family"])
    if lemma == "flexbound":
        gamma = _fraction_arg(cfg.params["gamma"])
        rep = verify_flexibility_bound(fam, gamma, cfg.params["r"])
        params = {"gamma": gamma, "r": cfg.params["r"]}
        return _mass_bound_payload(lemma, params, rep), [], EXIT_OK
    sset = set(read_family(cfg.params["sset"]).members)
    eps = _fraction_arg(cfg.params["eps"])
    rep = verify_fat_mass_bound(fam, sset, eps)
    return _mass_bound_payload(lemma, {"eps": eps}, rep), [], EXIT_OK


def _handle_cascade(cfg: RunConfig):
    from .extraction import compute_cascade

    cascade = compute_cascade(cfg.params["m"], _fraction_arg(cfg.params["eps"]))
    results = {
        "m": cascade.m,
        "mode": cascade.mode,
        "eps_levels": list(cascade.eps_j),
        "q": cascade.q,
        "p": cascade.p,
        "threshold": cascade.threshold,
    }
    return results, [], EXIT_OK


def _handle_report(cfg: RunConfig):
    with open_text(cfg.params["config"], "utf-8", "config file") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config is not valid JSON: {exc}") from exc
    if isinstance(payload, dict) and "config" in payload:
        payload = payload["config"]
    if not (isinstance(payload, dict) and isinstance(payload.get("params", {}), dict)):
        raise ParseError("config must be a JSON object whose params are an object")
    inner = RunConfig.from_payload(payload)
    if inner.subcommand == "report":
        raise PreconditionError("a report config cannot nest another report")
    _check_replayed_config(inner)
    _check_seed_policy(inner)
    handler = _HANDLERS[inner.subcommand]
    results, certs, code = handler(inner)
    return {"replayed": inner.subcommand, "results": results}, certs, code


def _check_flag_value(name: str, spec: dict, value) -> None:
    """``value``, read from a config file for ``name``, must have the
    flag's type and be one of its choices, if it has any."""
    want = bool if spec.get("action") == "store_true" else spec.get("type", str)
    if type(value) is not want or value not in spec.get("choices", (value,)):
        what = (f"one of {', '.join(spec['choices'])}" if "choices" in spec
                else {int: "an integer", bool: "a boolean", str: "a string"}[want])
        raise ParseError(f"{name} must be {what}, got {value!r}")


def _dest(flag: str, spec: dict) -> str:
    """The attribute argparse stores ``flag``'s value under."""
    return spec.get("dest", flag.lstrip("-").replace("-", "_"))


def _check_replayed_config(cfg: RunConfig) -> None:
    """A config file is outside input: each param must name a flag of
    ``_SUBCOMMANDS`` and have its type and choices, and no required flag
    may be absent.  The global and seed flags are keys of the config
    itself, checked the same way, so params may not hold the seed flags;
    such a key may be null only where the parser's default is null."""
    entry = _SUBCOMMANDS.get(cfg.subcommand) if isinstance(cfg.subcommand, str) else None
    if entry is None:
        raise ParseError(f"unknown subcommand {cfg.subcommand!r}")
    for flag, spec in _GLOBAL_FLAGS + _SEED_FLAGS:
        value = getattr(cfg, _dest(flag, spec))
        if value is not None or spec.get("action") == "store_true" or "default" in spec:
            _check_flag_value(flag.lstrip("-").replace("-", "_"), spec, value)
    dests = [_dest(flag, spec) for flag, spec in entry[1]]
    unknown = sorted(set(cfg.params) - set(dests))
    if unknown:
        raise ParseError(f"{cfg.subcommand} config has no flag for param {unknown[0]!r}")
    for flag, _ in _SEED_FLAGS:     # read from the top level only, never from params
        if flag.lstrip("-") in cfg.params:
            raise ParseError(f"{flag} belongs at the config's top level, not in params")
    for dest, (flag, spec) in zip(dests, entry[1]):
        value = cfg.params.get(dest)
        if value is None and spec.get("required"):
            raise ParseError(f"{cfg.subcommand} config needs {flag}")
        if value is not None:
            _check_flag_value(flag, spec, value)


_HANDLERS: dict = {
    "lubell": _handle_lubell,
    "pivots": _handle_pivots,
    "embed": _handle_embed,
    "extract": _handle_extract,
    "extremal": _handle_extremal,
    "middle-layers": _handle_middle_layers,
    "verify-lemma": _handle_verify_lemma,
    "cascade": _handle_cascade,
    "report": _handle_report,
}


def _check_seed_policy(cfg: RunConfig) -> None:
    if cfg.subcommand in _RANDOMIZED or (
        cfg.subcommand == "verify-lemma"
        and cfg.params.get("lemma") in ("tail", "trace")
    ):
        if cfg.seed is None and not cfg.ephemeral:
            raise PreconditionError(
                f"{cfg.subcommand!r} is randomized: pass --seed or --ephemeral"
            )
        if cfg.seed is None:
            import secrets

            cfg.seed = secrets.randbits(64)
        if not 0 <= cfg.seed < 1 << 64:
            raise PreconditionError("seed must fit in 64 bits")


def run(cfg: RunConfig) -> Report:
    """Dispatch a parsed configuration and assemble the report."""
    if cfg.fmt == "csv" and cfg.subcommand != "extremal":
        raise ParseError(f"--format csv: {cfg.subcommand} has no table (only extremal has one)")
    _check_seed_policy(cfg)
    if cfg.subcommand not in _HANDLERS:
        raise ParseError(f"unknown subcommand {cfg.subcommand!r}")
    t0 = time.perf_counter()
    results, certs, code = _HANDLERS[cfg.subcommand](cfg)
    elapsed = time.perf_counter() - t0
    rep = Report(cfg, results, certs, {"wall_s": round(elapsed, 6)}, code)
    return rep


# Every flag, as (flag, add_argument keywords), in help order.  The
# parsers and the replay check of ``report --config`` all read these.
_GLOBAL_FLAGS = (
    ("--output", {"help": "write the report here instead of stdout"}),
    ("--format", {"choices": ("json", "csv"), "default": "json", "dest": "fmt"}),
    ("--with-timings", {"action": "store_true"}),
)
_SEED_FLAGS = (
    ("--seed", {"type": int}),
    ("--ephemeral", {"action": "store_true"}),
)
_SUBCOMMANDS = {
    "lubell": ("exact mass of a family file", (
        ("--family", {"required": True}),
        ("--bottom", {"help": "interval bottom, subset literal"}),
        ("--top", {"help": "interval top, subset literal"}),
    )),
    "pivots": ("enumerate pivots of a member", (
        ("--family", {"required": True}),
        ("--base", {"required": True, "help": 'subset literal, e.g. "1,3,4"'}),
        ("-r", {"type": int, "required": True}),
        ("--anti", {"action": "store_true"}),
        ("--gamma", {"help": "also report flexibility at this tolerance"}),
    )),
    "embed": ("find a pattern copy inside a family", (
        ("--family", {"required": True}),
        ("--pattern", {"required": True}),
        ("--mode", {"choices": ("weak", "induced"), "default": "induced"}),
        ("--attempts", {"type": int}),
        *_SEED_FLAGS,
    )),
    "extract": ("run the full extraction pipeline", (
        ("--family", {"required": True}),
        ("--pattern", {"required": True}),
        ("--mode", {"choices": ("paper", "override"), "default": "paper"}),
        ("--q", {}),
        ("--p", {}),
        ("--eps", {}),
        ("--attempts", {"type": int}),
        *_SEED_FLAGS,
    )),
    "extremal": ("exact pattern-avoiding optimum", (
        ("--n", {"type": int, "required": True}),
        ("--pattern", {"required": True, "help": "poset file or builtin:P2|V2|D2|Q2"}),
        ("--mode", {"choices": ("weak", "induced"), "default": "weak"}),
        ("--objective", {"choices": ("cardinality", "lubell"), "default": "cardinality"}),
        ("--budget-nodes", {"type": int}),
    )),
    "middle-layers": ("widest pattern-free middle band", (
        ("--n", {"type": int, "required": True}),
        ("--pattern", {"required": True}),
    )),
    "verify-lemma": ("statistical and exact bound checks", (
        ("--lemma", {"choices": ("tail", "trace", "flexbound", "fatbound"), "required": True}),
        ("-m", {"type": int}),
        ("-k", {"type": int}),
        ("--n", {"type": int}),
        ("-r", {"type": int}),
        ("-t", {}),
        ("--eps", {}),
        ("--gamma", {}),
        ("--family", {}),
        ("--sset", {"help": "family file holding the r-subset collection"}),
        ("--tset", {"help": "family file holding the trace collection"}),
        ("--trials", {"type": int}),
        *_SEED_FLAGS,
    )),
    "cascade": ("exact constants for a pattern size", (
        ("-m", {"type": int, "required": True}),
        ("--eps", {"required": True}),
    )),
    "report": ("replay a saved run configuration", (
        ("--config", {"required": True}),
    )),
}


def _add_flags(parser: argparse.ArgumentParser, flags: tuple) -> None:
    for flag, spec in flags:
        parser.add_argument(flag, **spec)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser: every subcommand, or the subcommand ``only``.

    Both trees come from ``_SUBCOMMANDS``, so a subcommand's help and
    errors read the same in either.
    """
    parser = argparse.ArgumentParser(
        prog="cubefam",
        description="Set families in the subset lattice: masses, pivots, "
        "embeddings, extraction, exact extremal search.",
    )
    _add_flags(parser, _GLOBAL_FLAGS)
    # The usage line of a top-level error lists every subcommand, even in
    # a tree that holds one.
    shown = {} if only is None else {"metavar": "{" + ",".join(_SUBCOMMANDS) + "}"}
    sub = parser.add_subparsers(dest="subcommand", required=True, **shown)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        if only in (None, name):
            _add_flags(sub.add_parser(name, help=help_text), flags)
    return parser


class _ArgvReader(argparse.ArgumentParser):
    """Raises instead of printing and exiting, so that every complaint,
    worded as the user sees it, comes from the full tree."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _named_subcommand(argv: list) -> Optional[str]:
    """The subcommand ``argv`` names, read as the full tree reads it.

    None when the full tree is needed to answer: top-level help, no
    subcommand or an unknown one, a bad or unknown global flag.
    """
    reader = _ArgvReader(add_help=False)
    _add_flags(reader, _GLOBAL_FLAGS)
    reader.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        args, unknown = reader.parse_known_args(argv)
    except argparse.ArgumentError:
        return None
    if unknown or not args.rest or args.rest[0] not in _SUBCOMMANDS:
        return None
    return args.rest[0]


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    skip = {"subcommand"} | {_dest(flag, spec) for flag, spec in _GLOBAL_FLAGS + _SEED_FLAGS}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    return RunConfig(
        subcommand=args.subcommand,
        params=params,
        seed=getattr(args, "seed", None),
        ephemeral=getattr(args, "ephemeral", False),
        with_timings=args.with_timings,
        output=args.output,
        fmt=args.fmt,
    )


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_named_subcommand(argv)).parse_args(argv)
    cfg = _config_from_args(args)
    try:
        rep = run(cfg)
        data = emit_report(rep)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    if cfg.output:
        try:
            with open(cfg.output, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"output error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(data.decode("utf-8"))
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
