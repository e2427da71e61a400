"""Seeded inputs and query batches for the two benchmark workloads.

Every input file is generated here from the workload seed and written in
the formats the cubefam README documents; the program under test sees
only those files and the argv lists built below.  The *shape* of each
batch (ground sizes, densities, patterns, query counts) is fixed; the
seed picks the random members, relabels the pattern files, draws the
per-query seeds and shuffles the query order.  Fixing the shape keeps the
cost of a batch nearly independent of the seed, which is what lets runs
under different seeds be compared.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from functools import cached_property

# ---------------------------------------------------------------------------
# Patterns, kept as (k, strict relation) so the checks never ask the
# program under test what a pattern means.


def _closure(k: int, pairs) -> frozenset:
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), list(rel)):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return frozenset(rel)


@dataclass(frozen=True)
class Pattern:
    spec: str             # what goes after --pattern
    k: int
    lt: frozenset         # strict order pairs (i, j): i < j, transitively closed

    @property
    def is_chain(self) -> bool:
        return len(self.lt) == self.k * (self.k - 1) // 2

    @property
    def height(self) -> int:
        best = [1] * self.k
        for _ in range(self.k):
            for i, j in self.lt:
                best[j] = max(best[j], best[i] + 1)
        return max(best, default=0)


def _chain(k: int) -> frozenset:
    return frozenset((i, j) for i in range(k) for j in range(i + 1, k))


# Element numbering matches cubefam's builtins: V2 is 0 < 1, 0 < 2; D2 is
# its dual; Q2 numbers the subsets of a 2-set by their masks.
BUILTIN_RELATIONS = {
    "P2": (2, _chain(2)),
    "P3": (3, _chain(3)),
    "P4": (4, _chain(4)),
    "V2": (3, frozenset({(0, 1), (0, 2)})),
    "D2": (3, frozenset({(1, 0), (2, 0)})),
    "Q2": (4, frozenset({(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)})),
}
# A fixed 5-element poset of height 3 (an N with a top over one side).
FIVE = (5, _closure(5, [(0, 2), (1, 2), (1, 3), (2, 4)]))


def builtin(name: str) -> Pattern:
    k, lt = BUILTIN_RELATIONS[name]
    return Pattern(f"builtin:{name}", k, lt)


def write_relabeled_poset(path: str, k: int, lt, rng: random.Random) -> Pattern:
    """Write an isomorphic copy of (k, lt) under a seeded relabeling."""
    perm = list(range(k))
    rng.shuffle(perm)
    rel = frozenset((perm[i], perm[j]) for i, j in lt)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"k={k}\n")
        fh.writelines(f"{i} < {j}\n" for i, j in sorted(rel))
    return Pattern(path, k, rel)


# ---------------------------------------------------------------------------
# Families.


def _chunk_tables(n: int) -> list:
    """Per 8-bit chunk, the 1-based element strings of every chunk value."""
    tables = []
    for base in range(0, n, 8):
        width = min(8, n - base)
        tables.append([
            [str(base + i + 1) for i in range(width) if v >> i & 1]
            for v in range(1 << width)
        ])
    return tables


def write_family_file(path: str, n: int, members) -> None:
    """Header "n=<n>", then one sorted 1-based subset per line ("-" = empty)."""
    tables = _chunk_tables(n)
    lines = [f"n={n}\n"]
    for mask in members:
        parts = []
        for c, table in enumerate(tables):
            parts += table[mask >> (8 * c) & 0xFF]
        lines.append(",".join(parts) + "\n" if parts else "-\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


@dataclass
class Family:
    path: str
    n: int
    members: tuple        # ascending masks

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)


def _random_family(rng, n, density):
    """Exactly round(density * 2^n) members: host build cost grows with the count."""
    return sorted(rng.sample(range(1 << n), round(density * (1 << n))))


def _layered(rng, n, lo, hi, drop):
    return [m for m in range(1 << n) if lo <= m.bit_count() <= hi and rng.random() >= drop]


def _truncated(rng, n, k, extra):
    """Every subset of size <= k, plus ``extra`` random larger members."""
    small = [
        sum(1 << e for e in combo)
        for size in range(k + 1)
        for combo in itertools.combinations(range(n), size)
    ]
    big = set()
    while len(big) < extra:
        m = rng.getrandbits(n)
        if m.bit_count() > k:
            big.add(m)
    return sorted(small + list(big))


# ---------------------------------------------------------------------------
# Queries.


@dataclass
class Query:
    qid: str
    argv: list
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    seed: int
    families: dict
    queries: list


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def subset_literal(mask: int) -> str:
    elems = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return ",".join(elems) if elems else "-"


def build(name: str, seed: int, workdir: str, small: bool = False) -> Workload:
    """Write the workload's files under ``workdir`` and return its batch."""
    if name not in _GROUPS:
        raise ValueError(f"unknown workload {name!r} (have {', '.join(_GROUPS)})")
    os.makedirs(workdir, exist_ok=True)
    wl = Workload(seed, {}, [])
    _GROUPS[name](wl, workdir, small)
    _rng(seed, name, "order").shuffle(wl.queries)
    return wl


def _add_family(wl, workdir, key, n, members):
    path = os.path.join(workdir, f"{key}.txt")
    write_family_file(path, n, members)
    wl.families[key] = Family(path, n, tuple(members))


def _query(wl, argv, **meta):
    wl.queries.append(Query(f"q{len(wl.queries):03d}", argv, meta))


def _embed_group(wl, workdir, small):
    """embed (weak, induced) and middle-layers.

    Random hosts go through posets (host build + containment search);
    dense truncated hosts take the randomized cube route in embeddings;
    the induced Q2/P4 queries on r10/r11a run the induced cube search into
    its 2M-node budget.  Other induced searches on the large random hosts
    (r11a V2 took 0.2-1.0 s depending on the seed), and the weak F5 search
    on r12b/r12c, are left out: their cost swings up to tenfold with the
    seed.
    """
    seed = wl.seed
    pats = {p: builtin(p) for p in ("V2", "D2", "Q2", "P3", "P4")}
    pats["F5"] = write_relabeled_poset(
        os.path.join(workdir, "five.poset"), *FIVE, _rng(seed, "search", "five")
    )
    randoms = {"r9": (9, 0.05), "r10": (10, 0.3), "r11a": (11, 0.2), "r11b": (11, 0.2),
               "r12a": (12, 0.05), "r12b": (12, 0.3), "r12c": (12, 0.3)}
    dense = {"t14": (14, 5), "t16": (16, 4), "t18": (18, 4), "t20": (20, 3)}
    if small:
        randoms = {"r9": (8, 0.05), "r10": (8, 0.3)}
        dense = {"t14": (10, 5)}
    for key, (n, d) in randoms.items():
        _add_family(wl, workdir, key, n, _random_family(_rng(seed, "search", key), n, d))
    for key, (n, k) in dense.items():
        _add_family(wl, workdir, key, n, _truncated(_rng(seed, "search", key), n, k, 40))
    qrng = _rng(seed, "search", "query-seeds")

    def embed(fam, pat, mode):
        _query(wl, ["embed", "--family", wl.families[fam].path, "--pattern",
                    pats[pat].spec, "--mode", mode, "--seed", str(qrng.getrandbits(32))],
               family=fam, pattern=pat, pat=pats[pat], mode=mode)

    weak = {"r9": "V2 Q2 P4 F5", "r10": "V2 Q2 P4 F5", "r11a": "V2 Q2 P4 F5",
            "r11b": "V2 Q2 P4 F5", "r12a": "V2 Q2 P4 F5", "r12b": "V2 Q2 P4",
            "r12c": "V2 Q2 P4"}
    induced = {"r9": "V2 D2 P3 Q2 P4 F5", "r10": "Q2", "r11a": "P4",
               "t14": "F5 Q2 P4 V2 D2 P3", "t16": "Q2 V2 P4", "t18": "Q2 D2 V2 P3",
               "t20": "V2 D2 P3"}
    for mode, table in (("weak", weak), ("induced", induced)):
        for fam, chosen in table.items():
            if fam in wl.families:
                for pat in chosen.split():
                    embed(fam, pat, mode)
    for n in ((6,) if small else (8, 9, 10)):
        for pat in ("V2", "Q2", "F5"):
            _query(wl, ["middle-layers", "--n", str(n), "--pattern", pats[pat].spec],
                   n=n, pattern=pat, pat=pats[pat])
    _query(wl, ["middle-layers", "--n", "10", "--pattern", pats["P3"].spec],
           n=10, pattern="P3", pat=pats["P3"])


def _extremal_group(wl, workdir, small):
    """Branch-and-bound queries: chains (no posets use), tiny non-chain
    optima run to completion, and n = 5 non-chain runs cut by a node budget."""
    rng = _rng(wl.seed, "extremal", "relabel")
    pats = {p: builtin(p) for p in ("P2", "P3", "P4")}
    for p in ("V2", "D2", "Q2"):
        k, lt = BUILTIN_RELATIONS[p]
        pats[p] = write_relabeled_poset(os.path.join(workdir, f"{p}.poset"), k, lt, rng)

    def ext(n, pat, mode="weak", objective="cardinality", budget=None):
        argv = ["extremal", "--n", str(n), "--pattern", pats[pat].spec, "--mode", mode,
                "--objective", objective]
        if budget is not None:
            argv += ["--budget-nodes", str(budget)]
        _query(wl, argv, n=n, pattern=pat, pat=pats[pat], mode=mode, objective=objective,
               budget=budget)

    top_p2, top_p3, top_nc = (9, 8, 3) if small else (13, 10, 4)
    for n in range(1, top_p2 + 1):
        ext(n, "P2")
    for n in range(1, top_p3 + 1):
        ext(n, "P3")
    for n in range(1, 7):
        ext(n, "P4")
        ext(n, "P2", objective="lubell")
        ext(n, "P3", objective="lubell")
    for n in range(2, top_nc + 1):
        for p in ("V2", "D2", "Q2"):
            for mode in ("weak", "induced"):
                ext(n, p, mode)
    for p in ("V2", "D2", "Q2"):
        for mode in ("weak", "induced"):
            ext(5, p, mode, budget=200 if small else 2000)


def _extract_group(wl, workdir, small):
    """extract (override constants), pivots and lubell on near-full power
    sets and layered families: extraction, pivots and families dominate."""
    seed = wl.seed
    rng = _rng(seed, "extract", "patterns")
    pats = {p: builtin(p) for p in ("P2", "V2")}
    pats["P1"] = write_relabeled_poset(os.path.join(workdir, "one.poset"), 1, frozenset(), rng)
    specs = {
        "nf12": (12, "near-full", 0.02), "lay12": (12, "layered", 0.01),
        "nf14": (14, "near-full", 0.02), "lay14": (14, "layered", 0.01),
        "nf16": (16, "near-full", 0.03),
    }
    if small:
        specs = {"nf12": (9, "near-full", 0.02), "lay12": (9, "layered", 0.01)}
    for key, (n, kind, drop) in specs.items():
        frng = _rng(seed, "extract", key)
        if kind == "near-full":
            members = [m for m in range(1 << n) if frng.random() >= drop]
        else:
            members = _layered(frng, n, n // 6, n - n // 6, drop)
        _add_family(wl, workdir, key, n, members)
    qrng = _rng(seed, "extract", "queries")

    def extract(fam, pat, const):
        _query(wl, ["extract", "--family", wl.families[fam].path, "--pattern",
                    pats[pat].spec, "--mode", "override", "--q", const, "--p", const,
                    "--seed", str(qrng.getrandbits(32))],
               family=fam, pattern=pat, pat=pats[pat])

    def pivots(fam, r, anti=False):
        n = wl.families[fam].n
        base = sum(1 << e for e in qrng.sample(range(n), 5))
        argv = ["pivots", "--family", wl.families[fam].path, "--base",
                subset_literal(base), "-r", str(r), "--gamma", "1/2"]
        if anti:
            argv.append("--anti")
        _query(wl, argv, family=fam, base=base, r=r, anti=anti, gamma="1/2")

    def lubell(fam, interval):
        n = wl.families[fam].n
        argv = ["lubell", "--family", wl.families[fam].path]
        bottom, top = 0, (1 << n) - 1
        if interval:
            elems = qrng.sample(range(n), 3)
            bottom, top = 1 << elems[0], top & ~(1 << elems[1]) & ~(1 << elems[2])
            argv += ["--bottom", subset_literal(bottom), "--top", subset_literal(top)]
        _query(wl, argv, family=fam, bottom=bottom, top=top, interval=interval)

    twelve = [k for k in ("nf12", "lay12") if k in wl.families]
    for fam in twelve:
        for pat in ("P1", "P2", "V2"):
            for const in ("1/2", "0"):
                extract(fam, pat, const)
        pivots(fam, 1)
        pivots(fam, 2)
        pivots(fam, 2, anti=True)
        pivots(fam, 1, anti=True)
        lubell(fam, False)
        lubell(fam, True)
    if not small:
        # An n = 16 extraction (1.2-1.5 s) is left out: one query that long
        # per pass leaves too few passes in a run to give steady figures.
        for fam, runs in (("nf14", (("P1", "1/2"), ("V2", "0"), ("P2", "1/2"))),
                          ("lay14", (("P1", "0"), ("P2", "1/2"), ("V2", "1/2")))):
            for pat, const in runs:
                extract(fam, pat, const)
        pivots("nf14", 2)
        lubell("lay14", True)
        pivots("lay14", 2, anti=True)
        lubell("nf16", True)
        pivots("nf16", 2)


def _montecarlo_group(wl, workdir, small):
    """verify-lemma tail and trace: numpy batches of 16384 shuffled rows."""
    seed = wl.seed
    trng = _rng(seed, "montecarlo", "T")
    pairs = set()
    while len(pairs) < 1200:
        a, b = trng.sample(range(64), 2)
        pairs.add(1 << a | 1 << b)
    _add_family(wl, workdir, "T2", 64, sorted(pairs))
    _add_family(wl, workdir, "T1", 64, sorted(1 << e for e in trng.sample(range(64), 24)))
    qrng = _rng(seed, "montecarlo", "queries")
    scale = 8 if small else 1

    def tail(m, k, n, t, trials):
        _query(wl, ["verify-lemma", "--lemma", "tail", "-m", str(m), "-k", str(k),
                    "--n", str(n), "-t", str(t), "--trials", str(trials // scale),
                    "--seed", str(qrng.getrandbits(32))],
               lemma="tail", m=m, k=k, n=n, t=t, trials=trials // scale)

    def trace(n, m, r, eps, tset, trials):
        _query(wl, ["verify-lemma", "--lemma", "trace", "--n", str(n), "-m", str(m),
                    "-r", str(r), "--eps", eps, "--tset", wl.families[tset].path,
                    "--trials", str(trials // scale), "--seed", str(qrng.getrandbits(32))],
               lemma="trace", n=n, m=m, r=r, eps=eps, tset=tset, trials=trials // scale)

    for _ in range(3):
        tail(20, 50, 100, 6, 20000)
        tail(40, 100, 400, 8, 20000)
        trace(100, 50, 1, "1/2", "T1", 16384)
        trace(400, 390, 2, "1/2", "T2", 16384)
    for _ in range(4):
        trace(400, 390, 2, "1/2", "T2", 4000)


_GROUPS = {
    "search": _embed_group,
    "extremal": _extremal_group,
    "extract": _extract_group,
    "montecarlo": _montecarlo_group,
}
WORKLOADS = tuple(_GROUPS)
# The probe each workload's query times are scaled by (see worker.py).
# montecarlo spends its time in numpy kernels, whose speed does not follow
# the interpreter probe's: scaled by it, its times spread more across runs
# than the raw ones.
PROBES = {"search": "interpreter", "extremal": "interpreter",
          "extract": "interpreter", "montecarlo": "numpy"}
