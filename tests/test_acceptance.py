"""Acceptance gate: ten concrete, independently checkable guarantees.

Each test prints one pass/fail line (visible with -s; the pytest verdict
line carries the same information either way).  Tolerances are stated
inline; wherever a value is exact the comparison is exact.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from mpmath import mp

from cubefam import (
    DenseTruncatedFamily,
    SetFamily,
    centred_element,
    compute_cascade,
    contains_subposet,
    downset_embedding,
    enumerate_posets,
    extract_induced_copy,
    extremal_search,
    family_as_poset,
    flexibility_mass_bound,
    lubell_mass,
    make_chain,
    max_flexfree_mass,
    observation_check,
    randomized_cube_embed,
    relative_lubell,
    universality_epsilon,
    verify_flexibility_bound,
    verify_tail_bound,
)
from cubefam.pivots import flexible_in_universe, pivots_in_universe
from cubefam.posets import verify_embedding_masks

from conftest import nonempty_random_family, random_poset


def _announce(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {text}")


def test_criterion_01_antichain_optima():
    # Largest families with no 2-chain, n = 1..8; exact integers, < 60 s.
    expected = [1, 2, 3, 6, 10, 20, 35, 70]
    t0 = time.perf_counter()
    got = [
        extremal_search(n, make_chain(2), "weak", "cardinality").value
        for n in range(1, 9)
    ]
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 60
    _announce(1, ok, f"2-chain-free optima n=1..8 {got} in {elapsed:.2f}s")
    assert got == expected
    assert elapsed < 60


def test_criterion_02_two_layer_optima():
    # Largest families with no 3-chain, n = 2..7: the two fattest layers.
    expected = {
        n: sum(sorted(math.comb(n, k) for k in range(n + 1))[-2:])
        for n in range(2, 8)
    }
    got = {
        n: extremal_search(n, make_chain(3), "weak", "cardinality").value
        for n in range(2, 8)
    }
    ok = got == expected
    _announce(2, ok, f"3-chain-free optima n=2..7 {sorted(got.values())}")
    assert got == expected


def test_criterion_03_mass_optima():
    # Exhaustive mass maxima, exact rationals: 1 without a 2-chain,
    # 2 without a 3-chain, every ground size up to 5.
    results = {}
    for n in range(1, 6):
        results[(n, 2)] = extremal_search(n, make_chain(2), "weak", "lubell").value
        results[(n, 3)] = extremal_search(n, make_chain(3), "weak", "lubell").value
    ok = all(results[(n, 2)] == 1 for n in range(1, 6)) and all(
        results[(n, 3)] == 2 for n in range(2, 6)
    ) and results[(1, 3)] == 2
    _announce(3, ok, "mass maxima: 2-chain-free = 1, 3-chain-free = 2, n <= 5")
    assert ok


def test_criterion_04_centred_element_dominates():
    # 1000 random nonempty families, n <= 12: the centred member's
    # relative mass below it reaches the family mass.  Exact; zero failures.
    rng = random.Random(2026)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        fam = nonempty_random_family(rng, n, density=rng.uniform(0.02, 0.5))
        c = centred_element(fam)
        if relative_lubell(fam, 0, c) < lubell_mass(fam):
            failures += 1
    ok = failures == 0
    _announce(4, ok, f"1000 centred-element dominance checks, {failures} failures")
    assert failures == 0


def test_criterion_05_pivot_records_hold():
    # 1000 structurally valid swap records: the comparability observation
    # holds for every one.  Zero failures.
    rng = random.Random(55_001)
    checked = failures = 0
    while checked < 1000:
        n = rng.randint(3, 8)
        fam = nonempty_random_family(rng, n, density=rng.uniform(0.2, 0.5))
        base = rng.choice(fam.members)
        r = rng.randint(0, 2)
        anti = rng.random() < 0.5
        ps = pivots_in_universe(fam.member_set, fam.full_mask, base, r, anti=anti)
        for rec in ps.records():
            if checked == 1000:
                break
            checked += 1
            if not observation_check(fam, rec):
                failures += 1
    ok = failures == 0
    _announce(5, ok, f"1000 pivot-record observation checks, {failures} failures")
    assert failures == 0


def test_criterion_06_flexibility_mass_bound():
    # Families of small sets with no flexible member stay below
    # r + 2 r^2 / gamma.  Exhaustively on n = 5, 6 for (gamma, r) in
    # {(1, 1), (1/2, 1)}; then 500 random pruned instances, n <= 14.
    cases = [(Fraction(1), 1), (Fraction(1, 2), 1)]
    exhaustive_ok = True
    maxima = []
    for gamma, r in cases:
        bound = flexibility_mass_bound(gamma, r)
        for n in (5, 6):
            mass, _ = max_flexfree_mass(n, gamma, r)
            maxima.append(str(mass))
            if mass > bound:
                exhaustive_ok = False

    rng = random.Random(66_002)
    random_failures = 0
    for _ in range(500):
        n = rng.randint(5, 14)
        gamma, r = cases[rng.randrange(2)]
        pool = [m for m in range(1 << n) if 2 * m.bit_count() <= n]
        members = rng.sample(pool, min(len(pool), rng.randint(5, 120)))
        fam = SetFamily(n, members)
        while True:
            flexible = [
                a for a in fam.members
                if flexible_in_universe(fam.member_set, fam.full_mask, a, gamma, r)
            ]
            if not flexible:
                break
            keep = [a for a in fam.members if a not in set(flexible)]
            fam = SetFamily(n, keep)
        rep = verify_flexibility_bound(fam, gamma, r)
        if not (rep.hypothesis_ok and (rep.satisfied or len(fam) == 0)):
            random_failures += 1
    ok = exhaustive_ok and random_failures == 0
    _announce(
        6, ok,
        f"flex-free mass maxima {maxima} within bounds; "
        f"500 random instances, {random_failures} failures",
    )
    assert exhaustive_ok
    assert random_failures == 0


def test_criterion_07_tail_bound_monte_carlo():
    # Hypergeometric overlap tails at (m,k,n,t) = (20,50,100,6) and
    # (40,100,400,8): empirical frequency <= exp(-2 t^2/m) + 3 sigma,
    # hits within 4 sigma + 1 of trials * p for the exact tail p, and
    # p <= exp(-2 t^2/m); 100000 pinned-seed trials each, under 30 s.
    t0 = time.perf_counter()
    reports = [
        verify_tail_bound(20, 50, 100, 6, 100_000, seed=20260814),
        verify_tail_bound(40, 100, 400, 8, 100_000, seed=20260815),
    ]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30
    for rep in reports:
        m, k, n, t = (rep.params[key] for key in ("m", "k", "n", "t"))
        assert abs(rep.bound - math.exp(-2 * t * t / m)) < 1e-15
        sigma3 = 3 * math.sqrt(rep.bound * (1 - rep.bound) / rep.trials)
        assert abs(rep.margin - sigma3) < 1e-15
        z_min = math.ceil(Fraction(k * m, n) + Fraction(t))
        assert rep.exact_p == sum(
            Fraction(math.comb(k, z) * math.comb(n - k, m - z), math.comb(n, m))
            for z in range(z_min, m + 1)
        )
        p = float(rep.exact_p)
        near_p = abs(rep.hits - rep.trials * p) <= 4 * math.sqrt(rep.trials * p * (1 - p)) + 1
        if not (rep.verdict == "pass" and rep.empirical <= rep.bound + rep.margin
                and near_p and rep.exact_holds and p <= rep.bound):
            ok = False
    _announce(
        7, ok,
        f"tail bounds: empirical {[round(r.empirical, 6) for r in reports]} vs "
        f"exact {[round(float(r.exact_p), 6) for r in reports]} and "
        f"capped {[round(r.bound + r.margin, 6) for r in reports]} in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_08_downset_embedding_universal():
    # Every poset on at most 5 elements embeds into the subsets of its
    # own ground by down-sets; each image re-verified pairwise, induced.
    total = 0
    for k in range(6):
        for p in enumerate_posets(k):
            emb = downset_embedding(p)
            assert len(emb) == k
            assert len(set(emb)) == k
            assert all(0 <= img < (1 << k) for img in emb)
            assert verify_embedding_masks(p, emb, "induced")
            total += 1
    ok = total == 88
    _announce(8, ok, f"down-set embedding verified on all {total} posets, k <= 5")
    assert total == 88


def test_criterion_09_randomized_cube_location():
    # 100 random dense truncated families on 16 points at m = 2,
    # tolerance 1/64: at least 95 located cubes within 200 attempts,
    # every success independently re-verified.
    n, m = 16, 2
    eps = universality_epsilon(m)
    assert eps == Fraction(1, 64)
    successes = 0
    for trial in range(100):
        rng = random.Random(9_000_000 + trial)
        present = set()
        for k in range(m + 1):
            layer = [
                sum(1 << b for b in c) for c in itertools.combinations(range(n), k)
            ]
            cap = int(eps * math.comb(n, k))
            drop = set(rng.sample(layer, rng.randint(0, cap))) if cap else set()
            present |= set(layer) - drop
        dtf = DenseTruncatedFamily(n, m, frozenset(present))
        res = randomized_cube_embed(dtf, seed=9_000_000 + trial, max_attempts=200)
        if res.mask is None:
            continue
        bits = [b for b in range(n) if res.mask >> b & 1]
        assert len(bits) == m
        for size in range(m + 1):
            for combo in itertools.combinations(bits, size):
                assert sum(1 << b for b in combo) in present
        successes += 1
    ok = successes >= 95
    _announce(9, ok, f"cube location: {successes}/100 certified successes")
    assert successes >= 95


def test_criterion_10_extraction_soundness():
    # 50 random surrogate-constant runs (patterns up to 4 elements,
    # grounds up to 8): every emitted map passes the independent induced
    # verifier, lands inside the family, and the oracle agrees the
    # pattern is present.  The exact constant tower stays finite m <= 3.
    rng = random.Random(77_003)
    emitted = unsound = 0
    overrides = {"q": Fraction(1, 2), "p": Fraction(1, 2), "eps": Fraction(1, 8)}
    for _ in range(50):
        n = rng.randint(4, 8)
        fam = nonempty_random_family(rng, n, density=rng.uniform(0.3, 0.95))
        pattern = random_poset(rng, rng.randint(1, 4))
        res = extract_induced_copy(
            fam, pattern, overrides, seed=rng.randrange(2**32)
        )
        if res.status != "ok" or pattern.k == 0:
            continue
        emitted += 1
        sound = (
            len(set(res.map)) == pattern.k
            and all(img in fam.member_set for img in res.map)
            and verify_embedding_masks(pattern, res.map, "induced")
            and contains_subposet(family_as_poset(fam), pattern, "induced")
            is not None
        )
        if not sound:
            unsound += 1

    finite = True
    for m in (1, 2, 3):
        cascade = compute_cascade(m, universality_epsilon(m))
        with mp.workdps(40):
            if not (mp.isfinite(cascade.threshold) and cascade.threshold > 0):
                finite = False
    ok = unsound == 0 and finite
    _announce(
        10, ok,
        f"extraction: {emitted} maps emitted, {unsound} unsound; "
        "constant tower finite for m <= 3",
    )
    assert unsound == 0
    assert finite
