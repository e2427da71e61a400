"""Independent checks of every CLI answer the benchmark receives.

Nothing here calls cubefam: patterns, families and the expected answers
come from the benchmark's own data (workloads.py) and from the small
containment search below, so a wrong answer cannot vouch for itself.

``check`` returns a Verdict: ``ok`` is False for a wrong answer; ``definite``
is False for an honest non-answer (exit 4, ``"exact": false``, an embed
``"unknown"``, or an induced ``"absent"`` that the search here cannot
confirm).  An exact extremal value with no closed form or stored optimum
is accepted once its witness family checks out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from optima import OPTIMA

EXTRACT_STATUSES = frozenset({
    "ok", "insufficient mass", "constants too aggressive", "no branch",
    "X too small", "not dense enough", "embed exhausted",
})
CONFIRM_NODE_CAP = 200_000


@dataclass(frozen=True)
class Verdict:
    ok: bool
    definite: bool
    reason: str = ""


def wrong(reason: str) -> Verdict:
    return Verdict(False, False, reason)


OK = Verdict(True, True)
UNKNOWN = Verdict(True, False)


class CapReached(Exception):
    pass


# ---------------------------------------------------------------------------
# Containment oracle over masks (bitset rows indexed by host position).


def proper_subset(a: int, b: int) -> bool:
    return a != b and a & b == a


def find_copy(masks, k: int, lt, mode: str, node_cap=None):
    """A weak or induced copy of the pattern (k, lt) among ``masks``.

    Returns the tuple of images (indexed by pattern element) or None when
    no copy exists; raises CapReached after ``node_cap`` candidate tries.
    """
    masks = list(masks)
    h = len(masks)
    if k > h:
        return None
    up = [0] * h
    down = [0] * h
    order_by_size = sorted(range(h), key=lambda i: masks[i].bit_count())
    for x, i in enumerate(order_by_size):
        a = masks[i]
        for j in order_by_size[x + 1:]:
            if a & masks[j] == a and a != masks[j]:
                up[i] |= 1 << j
                down[j] |= 1 << i
    above = [{j for i2, j in lt if i2 == i} for i in range(k)]
    below = [{i for i, j2 in lt if j2 == j} for j in range(k)]
    order = sorted(range(k), key=lambda v: -(len(above[v]) + len(below[v])))
    everyone = (1 << h) - 1
    image = [None] * k
    nodes = 0

    def extend(depth: int, used: int) -> bool:
        nonlocal nodes
        if depth == k:
            return True
        v = order[depth]
        cand = everyone & ~used
        for u in order[:depth]:
            hu = image[u]
            if u in below[v]:
                cand &= up[hu]
            elif u in above[v]:
                cand &= down[hu]
            elif mode == "induced":
                cand &= ~(up[hu] | down[hu])
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                raise CapReached
            image[v] = low.bit_length() - 1
            if extend(depth + 1, used | low):
                return True
        return False

    if not extend(0, 0):
        return None
    return tuple(masks[i] for i in image)


def map_is_copy(images, k: int, lt, mode: str, members: frozenset) -> bool:
    """Pairwise definitional check of a mask map against the family."""
    if len(images) != k or len(set(images)) != k:
        return False
    if any(img not in members for img in images):
        return False
    for x in range(k):
        for y in range(k):
            if x == y:
                continue
            sub = proper_subset(images[x], images[y])
            if (x, y) in lt and not sub:
                return False
            if mode == "induced" and (x, y) not in lt and sub:
                return False
    return True


def longest_chain(masks) -> int:
    order = sorted(masks, key=int.bit_count)
    best = []
    for i, a in enumerate(order):
        size = a.bit_count()
        best.append(1 + max(
            (best[j] for j in range(i) if order[j].bit_count() < size and order[j] & a == order[j]),
            default=0,
        ))
    return max(best, default=0)


def pattern_free(masks, pattern, mode: str) -> bool:
    if pattern.is_chain:     # a weak or induced k-chain is just a k-chain
        return longest_chain(masks) < pattern.k
    return find_copy(masks, pattern.k, pattern.lt, mode) is None


# ---------------------------------------------------------------------------
# Closed forms and expected values.


def middle_layer_sizes(n: int) -> list:
    return sorted(range(n + 1), key=lambda s: (abs(2 * s - n), s))


def chain_free_optimum(n: int, k: int) -> int:
    """Erdős: the k-1 largest layers (Sperner for k = 2)."""
    return sum(sorted((math.comb(n, s) for s in range(n + 1)), reverse=True)[: k - 1])


@cache
def middle_layers_expected(n: int, pattern) -> int:
    """First m whose m middle layers contain the pattern weakly, minus one.

    Fewer than height(P) layers hold no chain long enough for a weak copy,
    so the scan starts at the height.
    """
    order = middle_layer_sizes(n)
    for m in range(max(1, pattern.height), n + 2):
        sizes = set(order[:m])
        host = [x for x in range(1 << n) if x.bit_count() in sizes]
        if find_copy(host, pattern.k, pattern.lt, "weak") is not None:
            return m - 1
    return n + 1


def parse_subset(text: str) -> int:
    if text == "-":
        return 0
    return sum(1 << (int(e) - 1) for e in text.split(","))


# ---------------------------------------------------------------------------
# Per-subcommand checks.  ``report`` is the parsed JSON report.


def check(wl, query, code: int, report) -> Verdict:
    cmd = query.argv[0]
    if report is None:
        return wrong(f"exit {code} without a report")
    return _CHECKS[cmd](wl, query.meta, code, report["results"])


def _check_embed(wl, meta, code, res):
    fam = wl.families[meta["family"]]
    pat = meta["pat"]
    mode = meta["mode"]
    if code == 4 or res["status"] == "unknown":
        # a search stopped by its budget: an honest non-answer, if it says so
        if code != 4 or res["status"] not in ("unknown", "absent") or res["map"] is not None:
            return wrong(f"status {res['status']!r} with exit {code}")
        return UNKNOWN
    if code != 0:
        return wrong(f"embed exited {code}")
    if res["status"] == "found":
        images = tuple(parse_subset(s) for s in res["map"]["images"])
        if res["map"]["mode"] != mode or not map_is_copy(images, pat.k, pat.lt, mode, fam.member_set):
            return wrong("returned map is not a copy of the pattern")
        return OK
    if res["status"] != "absent":
        return wrong(f"unknown embed status {res['status']!r}")
    try:
        copy = find_copy(fam.members, pat.k, pat.lt, mode, CONFIRM_NODE_CAP)
    except CapReached:
        return UNKNOWN
    if copy is None:
        return OK
    # A weak search has no budget, so "absent" there is a wrong answer;
    # an induced "absent" only claims nothing was found within budgets.
    return UNKNOWN if mode == "induced" else wrong("weak copy exists but reported absent")


def _check_middle_layers(wl, meta, code, res):
    if code != 0:
        return wrong(f"middle-layers exited {code}")
    want = middle_layers_expected(meta["n"], meta["pat"])
    if res["middle_layers"] != want:
        return wrong(f"middle layers {res['middle_layers']} != {want}")
    return OK


def _check_extremal(wl, meta, code, res):
    n, pat, mode = meta["n"], meta["pat"], meta["mode"]
    family = [parse_subset(s) for s in res["family"]]
    if len(set(family)) != len(family) or any(m >> n for m in family):
        return wrong("witness family is not a family on [n]")
    if not pattern_free(family, pat, mode):
        return wrong("witness family contains the pattern")
    if meta["objective"] == "lubell":
        value = Fraction(res["value"])
        if value != sum((Fraction(1, math.comb(n, m.bit_count())) for m in family), Fraction(0)):
            return wrong("value is not the witness family's mass")
        optimum = Fraction(min(pat.k - 1, n + 1)) if pat.is_chain else None
    else:
        value = res["value"]
        if value != len(family):
            return wrong("value is not the witness family's size")
        if pat.is_chain:
            optimum = chain_free_optimum(n, pat.k)
        else:
            optimum = OPTIMA.get((meta["pattern"], mode, n))
    if meta["budget"] is not None and res["nodes"] > meta["budget"] + 1:
        return wrong("node count exceeds the budget")
    if optimum is not None and value > optimum:
        return wrong(f"value {value} beats the optimum {optimum}")
    if (code == 0) != bool(res["exact"]) or code not in (0, 4):
        return wrong(f"exit {code} disagrees with exact={res['exact']}")
    if not res["exact"]:
        return UNKNOWN
    # Without a stored optimum only the witness can be checked (done above).
    if optimum is not None and value != optimum:
        return wrong(f"exact value {value} != optimum {optimum}")
    return OK


def _check_extract(wl, meta, code, res):
    status = res["status"]
    if status not in EXTRACT_STATUSES:
        return wrong(f"undocumented extract status {status!r}")
    if code != (4 if status == "embed exhausted" else 0):
        return wrong(f"exit {code} for status {status!r}")
    if res["map"] is not None:
        pat = meta["pat"]
        images = tuple(parse_subset(s) for s in res["map"]["images"])
        members = wl.families[meta["family"]].member_set
        if status != "ok" or not map_is_copy(images, pat.k, pat.lt, "induced", members):
            return wrong("extracted map is not an induced copy")
    elif status == "ok":
        return wrong("status ok without a map")
    return OK if code == 0 else UNKNOWN


def _check_pivots(wl, meta, code, res):
    if code != 0:
        return wrong(f"pivots exited {code}")
    fam = wl.families[meta["family"]]
    members, base, r, anti = fam.member_set, meta["base"], meta["r"], meta["anti"]
    full = (1 << fam.n) - 1
    moved_pool = [i for i in range(fam.n) if (full & ~base if anti else base) >> i & 1]
    other_pool = [i for i in range(fam.n) if (base if anti else full & ~base) >> i & 1]
    expected = set()
    for moved in _r_subsets(moved_pool, r):
        for other in _r_subsets(other_pool, r):
            out, inn = (other, moved) if anti else (moved, other)
            if (base & ~out) | inn in members:
                expected.add(moved)
                break
    got = {parse_subset(p["moved"]): parse_subset(p["witness"]) for p in res["pivots"]}
    if set(got) != expected or res["count"] != len(expected):
        return wrong("pivot set differs from the recount")
    for moved, w in got.items():
        out, inn = base & ~w, w & ~base
        if w not in members or (inn if anti else out) != moved or out.bit_count() != r or inn.bit_count() != r:
            return wrong("pivot witness is not an r-swap of the base")
    pool = len(moved_pool)
    need = max(Fraction(1), (1 - Fraction(meta["gamma"])) * math.comb(pool, r))
    if res["flexible"] != (len(expected) >= need):
        return wrong("flexibility verdict disagrees with the count")
    return OK


def _r_subsets(positions, r):
    for combo in combinations(positions, r):
        yield sum(1 << i for i in combo)


def _check_lubell(wl, meta, code, res):
    if code != 0:
        return wrong(f"lubell exited {code}")
    fam = wl.families[meta["family"]]
    n = fam.n
    counts: dict = {}
    for m in fam.members:
        counts[m.bit_count()] = counts.get(m.bit_count(), 0) + 1
    mass = sum((Fraction(c, math.comb(n, s)) for s, c in counts.items()), Fraction(0))
    if Fraction(res["mass"]) != mass or res["size"] != len(fam.members):
        return wrong("mass or size differs from the recount")
    if meta["interval"]:
        bottom, top = meta["bottom"], meta["top"]
        width = (top & ~bottom).bit_count()
        rel = sum(
            (Fraction(1, math.comb(width, (m & ~bottom).bit_count()))
             for m in fam.members if m & bottom == bottom and not m & ~top),
            Fraction(0),
        )
        if Fraction(res["interval"]["relative_mass"]) != rel:
            return wrong("relative mass differs from the recount")
    return OK


def _check_verify_lemma(wl, meta, code, res):
    if code != 0:
        return wrong(f"verify-lemma exited {code}")
    if res["trials"] != meta["trials"] or res["verdict"] != "pass":
        return wrong(f"verdict {res['verdict']!r} over {res['trials']} trials")
    empirical, bound, margin = (float(res[k]) for k in ("empirical", "bound", "margin"))
    if meta["lemma"] == "tail":
        want = math.exp(-2 * meta["t"] ** 2 / meta["m"])
    else:
        # c(eps, 1) = eps^2/2 and c(eps, 2) = c(eps/2, 1)/2 = eps^2/16.
        eps = Fraction(meta["eps"])
        c = eps * eps / 2 if meta["r"] == 1 else eps * eps / 16
        want = math.exp(-float(c) * meta["m"])
        if res["params"]["T_size"] != len(wl.families[meta["tset"]].members):
            return wrong("trace lemma saw a different T")
    if not math.isclose(bound, want, rel_tol=1e-9):
        return wrong(f"bound {bound} != {want}")
    want_margin = 3 * math.sqrt(max(want * (1 - want), 0.0) / meta["trials"])
    if not math.isclose(margin, want_margin, rel_tol=1e-9):
        return wrong(f"margin {margin} != {want_margin}")
    if not 0 <= empirical <= bound + margin:
        return wrong(f"empirical {empirical} above bound + margin")
    return OK


_CHECKS = {
    "embed": _check_embed,
    "middle-layers": _check_middle_layers,
    "extremal": _check_extremal,
    "extract": _check_extract,
    "pivots": _check_pivots,
    "lubell": _check_lubell,
    "verify-lemma": _check_verify_lemma,
}

