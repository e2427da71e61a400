import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cubefam import concentration
from cubefam.errors import PreconditionError
from cubefam.concentration import (
    concentration_constants,
    fat_mass_bound,
    tail_bound,
    verify_tail_bound,
    verify_trace_probability,
)


def _subsets(n: int, m: int, trials: int, seed: int) -> np.ndarray:
    """(trials, n) membership rows of the uniform m-subsets X the trace
    lemma counts in: its urn, on its batches, walked over every element."""
    rows = []
    for size, gen in concentration._batches(trials, seed, concentration._TRACE_ROWS):
        picked = np.empty((n, size), dtype=bool)
        concentration._urn(gen, n, m, n, size, picked)
        rows.append(picked.T)
    return np.concatenate(rows)


def _tail_draws(m: int, k: int, n: int, trials: int, seed: int) -> np.ndarray:
    """Every Z the tail lemma draws, in one array."""
    return np.concatenate(list(concentration._tail_counts(m, k, n, trials, seed)))


def _trace_draws(n: int, m: int, cols: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Every count |X^{(r)} cap T| the trace lemma draws, in one array."""
    return np.concatenate(list(concentration._trace_counts(n, m, cols, trials, seed)))


def _trace_hits(n: int, m: int, cols: np.ndarray, count_min: int, trials: int, seed: int) -> int:
    """Draws of the trace lemma with at least ``count_min`` members of T in X."""
    return int((_trace_draws(n, m, cols, trials, seed) >= count_min).sum())


def test_sample_uniform_subsets_shape_and_range():
    """A walk over all n elements puts exactly m of them in X: every one
    of the urn's rows hits m of its n draws."""
    subs = _subsets(30, 7, 500, seed=2)
    assert subs.shape == (500, 30)
    assert (subs.sum(axis=1) == 7).all()
    gen = np.random.Generator(np.random.Philox(key=2))
    picked = np.zeros((30, 500), dtype=bool)
    assert concentration._urn(gen, 30, 7, 30, 500, picked) is None
    assert (picked.sum(axis=0) == 7).all()


def test_sample_uniform_subsets_deterministic():
    a = _subsets(20, 5, 100, seed=17)
    b = _subsets(20, 5, 100, seed=17)
    assert np.array_equal(a, b)
    c = _subsets(20, 5, 100, seed=18)
    assert not np.array_equal(a, c)


def test_sample_uniform_subsets_pinned_across_batches():
    """Three batches of rows (1024, 1024, 952), each on its own jumped stream."""
    subs = _subsets(20, 5, 3000, seed=7)
    assert subs.shape == (3000, 20)
    assert np.flatnonzero(subs[0]).tolist() == [0, 2, 6, 7, 8]
    assert np.flatnonzero(subs[1023]).tolist() == [1, 2, 5, 16, 17]
    assert np.flatnonzero(subs[1024]).tolist() == [0, 5, 13, 14, 19]
    assert np.flatnonzero(subs[2048]).tolist() == [5, 8, 11, 12, 16]
    assert np.flatnonzero(subs[2999]).tolist() == [5, 6, 15, 18, 19]
    digest = hashlib.sha256(subs.tobytes()).hexdigest()
    assert digest == "a82203555b28bbcfcc5b42d475987d48ec86757ca5a8f25ca0ffe4e635ce0996"


def test_uniform_subsets_hit_a_block_hypergeometrically():
    """The tail lemma's Z = |X cap {0..k-1}| is hypergeometric: its
    support, and its mean inside a 5-sigma band of mk/n (the variance in
    closed form), on both sides of 2m = n."""
    k, n, trials = 40, 100, 4000
    for m in (25, 75):
        z = _tail_draws(m, k, n, trials, seed=1009)
        assert len(z) == trials
        assert z.min() >= max(0, m + k - n) and z.max() <= min(m, k)
        var = m * (k / n) * (1 - k / n) * (n - m) / (n - 1)
        assert abs(z.mean() - m * k / n) < 5 * math.sqrt(var / trials)


def _hypergeometric_pmf(m: int, k: int, n: int) -> list[Fraction]:
    """P(Z = z) for z = 0..m: C(k, z) C(n - k, m - z) / C(n, m)."""
    return [
        Fraction(math.comb(k, z) * math.comb(n - k, m - z), math.comb(n, m))
        for z in range(m + 1)
    ]


@pytest.mark.parametrize("n", range(9))
def test_hypergeometric_pmf_counts_every_subset(n):
    """The closed form equals a count over every m-subset of {0..n-1}."""
    for m in range(n + 1):
        subsets = list(itertools.combinations(range(n), m))
        for k in range(n + 1):
            seen = [0] * (m + 1)
            for x in subsets:
                seen[sum(e < k for e in x)] += 1
            assert _hypergeometric_pmf(m, k, n) == [Fraction(c, len(subsets)) for c in seen]


@pytest.mark.parametrize("n", range(13))
def test_hypergeometric_tail_counts_every_subset(n):
    """The exact tail equals the share of the m-subsets X of {0..n-1} with
    |X cap {0..k-1}| >= z_min, for every m, k and z_min (below, inside and
    above the count's range)."""
    counts = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for x in range(1 << n):
        for k in range(n + 1):
            counts[x.bit_count()][k][(x & ((1 << k) - 1)).bit_count()] += 1
    for m in range(n + 1):
        for k in range(n + 1):
            for z_min in range(-1, m + 2):
                reached = sum(counts[m][k][max(z_min, 0):])
                want = Fraction(reached, math.comb(n, m))
                assert concentration.hypergeometric_tail(m, k, n, z_min) == want


@pytest.mark.parametrize("m,k,n", [(1200, 1600, 3600), (2000, 3700, 4000)])
def test_hypergeometric_tail_sums_either_side_exactly(m, k, n):
    """At a large (m, k, n), from the bottom of Z's range to its top, the
    tail equals the defining sum, and one minus the upper tail of Z' =
    |X minus K| = m - Z at m - z + 1.  Of the two, one is summed over K's
    count and the other over its complement's."""
    lo, hi = max(0, m - (n - k)), min(k, m)
    terms = {z: math.comb(k, z) * math.comb(n - k, m - z) for z in range(lo, hi + 1)}
    mid = (lo + hi) // 2
    for z_min in (lo + 1, lo + 2, mid - 1, mid, mid + 1, hi - 1, hi):
        p = concentration.hypergeometric_tail(m, k, n, z_min)
        reached = sum(terms[z] for z in range(z_min, hi + 1))
        assert p == Fraction(reached, math.comb(n, m)), z_min
        assert p == 1 - concentration.hypergeometric_tail(m, n - k, n, m - z_min + 1), z_min


@pytest.mark.parametrize("m,k,n", [
    (3, 5, 8), (4, 4, 8), (6, 3, 8),       # below, at and above 2m = n
    (5, 0, 8), (2, 8, 8), (7, 8, 8),       # k = 0 and k = n
    (7, 9, 20), (15, 12, 20), (8, 0, 20),
    (40, 100, 400), (360, 100, 400),
])
def test_urn_draws_the_hypergeometric_law(m, k, n):
    """Each cell of the histogram of Z lies within 5 sigma of the exact
    pmf, and a cell of probability 0 stays empty: Z drawn by the tail
    lemma, and |X cap T| drawn by the trace lemma at r = 1 with T the k
    singletons {0}, ..., {k-1}, which has the same law."""
    trials, seed = 40_000, m + 31 * k + n
    singletons = _columns({1 << i for i in range(k)}, 1)
    for draws in (_tail_draws(m, k, n, trials, seed), _trace_draws(n, m, singletons, trials, seed)):
        counts = np.bincount(draws, minlength=m + 1)
        assert len(counts) == m + 1
        for z, p in enumerate(_hypergeometric_pmf(m, k, n)):
            mean = trials * p
            sigma = math.sqrt(trials * p * (1 - p))
            assert abs(counts[z] - mean) <= 5 * sigma, (z, counts[z], float(mean))


@pytest.mark.parametrize("pair", [(0, 1), (3, 17), (18, 19)])
def test_trace_draws_hold_a_pair_at_its_rate(pair):
    """At r = 2, X holds a given pair with probability m(m-1) / (n(n-1));
    the count of a whole layer [n]^(2) is C(m, 2) on every draw."""
    n, m, trials = 20, 6, 40_000
    a, b = pair
    got = _trace_hits(n, m, _columns({(1 << a) | (1 << b)}, 2), 1, trials, seed=a + b)
    p = m * (m - 1) / (n * (n - 1))
    assert abs(got - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))
    layer = {(1 << i) | (1 << j) for i, j in itertools.combinations(range(n), 2)}
    assert (_trace_draws(n, m, _columns(layer, 2), 2000, seed=a) == math.comb(m, 2)).all()


def test_tail_bound_formula():
    assert tail_bound(20, Fraction(6)) == pytest.approx(math.exp(-2 * 36 / 20))
    assert tail_bound(8, 0) == 1.0


def test_tail_offset_beyond_binary64_is_refused_without_its_digits():
    """An offset of 5001 digits has no binary64 form; Python could not
    print it, so the message does not try to."""
    with pytest.raises(PreconditionError, match=r"^tail offset exceeds binary64$"):
        verify_tail_bound(20, 50, 100, Fraction(10**5000), 10, seed=1)


def test_verify_tail_bound_passes_easily():
    rep = verify_tail_bound(10, 20, 50, Fraction(4), 20_000, seed=5)
    assert rep.verdict == "pass"
    assert rep.trials == 20_000
    assert 0.0 <= rep.empirical <= 1.0
    assert rep.params["m"] == 10


def test_verify_tail_bound_zero_trials_inconclusive():
    rep = verify_tail_bound(10, 20, 50, Fraction(2), 0, seed=5)
    assert rep.verdict == "inconclusive"


@pytest.mark.parametrize("m,k,n,trials", [
    (5, -3, 10, 0), (5, -3, 10, 100),      # k < 0
    (5, 50, 10, 0), (5, 50, 10, 100),      # k > n
    (12, 5, 10, 0), (12, 5, 10, 100),      # m > n
    (10, 20, 50, -5),                      # negative trial count
])
def test_verify_tail_bound_rejects_ill_posed_parameters(m, k, n, trials):
    with pytest.raises(PreconditionError):
        verify_tail_bound(m, k, n, Fraction(1), trials, seed=1)


def test_verify_tail_bound_accepts_k_at_the_ends():
    for k in (0, 50):
        assert verify_tail_bound(10, k, 50, Fraction(2), 100, seed=5).verdict == "pass"


class TestConstantsRecursion:
    def test_base_cases(self):
        c0 = concentration_constants(Fraction(1, 4), 0)
        assert (c0.eta, c0.c, c0.m0) == (Fraction(1, 2), Fraction(1), 0)
        c1 = concentration_constants(Fraction(1, 4), 1)
        assert c1.eta == Fraction(1, 8)
        assert c1.c == Fraction(1, 32)       # eps^2 / 2
        assert c1.m0 == 1

    def test_r2_is_finite_and_positive(self):
        c2 = concentration_constants(Fraction(1, 4), 2)
        assert c2.eta > 0 and c2.c > 0 and c2.m0 >= 1
        # deeper tolerance gives no larger eta
        tighter = concentration_constants(Fraction(1, 8), 2)
        assert tighter.eta <= c2.eta

    def test_eta_never_exceeds_half(self):
        for r in range(3):
            for eps in (Fraction(1, 2), Fraction(1, 5), Fraction(1, 64)):
                assert concentration_constants(eps, r).eta <= Fraction(1, 2)

    # m0 for r >= 2, recorded before the dominance search lost its
    # walk-down branch (which no r >= 2 start ever took).
    M0 = {
        "1": (71, 869, 9367, 93791),
        "3/4": (144, 1694, 17821, 175896),
        "1/2": (383, 4284, 43776, 424643),
        "1/3": (997, 10690, 106704, 1020057),
        "1/4": (1941, 20317, 199986, 1894584),
        "1/5": (3235, 33328, 324899, 3058361),
        "2/7": (1426, 15089, 149462, 1421728),
        "1/10": (15433, 152794, 1452968, 13446542),
        "3/37": (24610, 241314, 2280328, 21009772),
    }

    @pytest.mark.parametrize("eps", sorted(M0))
    def test_pinned_thresholds(self, eps):
        got = tuple(concentration_constants(Fraction(eps), r).m0 for r in (2, 3, 4, 5))
        assert got == self.M0[eps]

    def test_deep_order_needs_no_recursion(self, monkeypatch):
        """r far above the recursion limit; m* is stubbed to 1, since its
        search takes minutes at large r, so m0 is the order itself.  With
        eta and c in closed form the rest takes milliseconds."""
        import time

        monkeypatch.setattr(concentration, "_level_threshold", lambda e, k: 1)
        start = time.perf_counter()
        assert concentration_constants(Fraction(1, 2), 3000).m0 == 3000
        assert time.perf_counter() - start < 1.0

    def test_rejects_bad_eps(self):
        with pytest.raises(PreconditionError):
            concentration_constants(Fraction(0), 1)
        with pytest.raises(PreconditionError):
            concentration_constants(Fraction(3, 2), 1)


def test_fat_mass_bound_monotone_in_r():
    import mpmath as mp

    vals = [fat_mass_bound(Fraction(1, 64), r) for r in range(3)]
    assert all(mp.isfinite(v) and v > 0 for v in vals)
    # deeper orders demand weaker (larger) mass bounds
    assert vals[0] < vals[1] < vals[2]


def test_verify_trace_probability_pass_and_hypothesis_failure():
    n, m, r = 40, 12, 1
    eps = Fraction(1, 4)
    consts = concentration_constants(eps, r)
    cap = int(consts.eta * n)           # |T| <= eta * C(n,1)
    T = {1 << i for i in range(cap)}
    rep = verify_trace_probability(n, m, r, eps, T, 20_000, seed=99)
    assert rep.verdict == "pass"
    # oversized T trips the hypothesis check rather than erroring
    big = {1 << i for i in range(n)}
    rep2 = verify_trace_probability(n, m, r, eps, big, 1000, seed=99)
    assert rep2.verdict == "hypothesis-failed"


def test_trace_probability_pinned_hits():
    # 40,000 trials span 40 batches; at least 3 of the 5 singletons
    # must land in the 10-subset (more than eps * C(10, 1) = 2.5).
    T = {1 << i for i in range(5)}
    rep = verify_trace_probability(40, 10, 1, Fraction(1, 4), T, 40_000, seed=11)
    assert rep.hits == 3544 and rep.verdict == "pass"


def test_tail_pinned_hits():
    """40,000 trials span three batches; Z >= z_min = 16 has exact
    p = 87654517/34785102294 = 0.0025199, and 88 hits are z = -1.28 from
    the expected 100.8 (sigma 10.03)."""
    rep = verify_tail_bound(20, 50, 100, Fraction(6), 40_000, seed=11)
    assert rep.hits == 88 and rep.drawn == 40_000 and rep.verdict == "pass"
    assert rep.exact_p == Fraction(87654517, 34785102294) and rep.exact_holds
    assert verify_tail_bound(20, 50, 100, Fraction(6), 40_000, seed=11) == rep


def test_trace_probability_empty_t_never_hits():
    rep = verify_trace_probability(30, 10, 1, Fraction(1, 4), set(), 2000, seed=3)
    assert rep.hits == 0 and rep.verdict == "pass"


@pytest.mark.parametrize("n,m,trials,T", [
    (40, 12, -5, set()),
    (40, 12, -5, {1 << i for i in range(40)}),   # also fails the |T| hypothesis
    (-5, 12, 10, set()),
    (40, -3, 10, set()),
])
def test_trace_probability_rejects_negative_counts(n, m, trials, T):
    with pytest.raises(PreconditionError):
        verify_trace_probability(n, m, 1, Fraction(1, 4), T, trials, seed=3)


def test_trace_probability_zero_trials_inconclusive():
    rep = verify_trace_probability(40, 12, 1, Fraction(1, 4), set(), 0, seed=3)
    assert rep.verdict == "inconclusive" and rep.trials == 0


def test_trace_probability_small_m_fails_hypothesis():
    # r=2 at eps=1/4 demands m >= m0 = 1941; m=10 is hopeless
    rep = verify_trace_probability(30, 10, 2, Fraction(1, 4), set(), 100, seed=3)
    assert rep.verdict == "hypothesis-failed"


def test_monte_carlo_reports_are_reproducible():
    r1 = verify_tail_bound(12, 30, 80, Fraction(3), 5000, seed=42)
    r2 = verify_tail_bound(12, 30, 80, Fraction(3), 5000, seed=42)
    assert (r1.hits, r1.empirical) == (r2.hits, r2.empirical)


def _t2_pairs() -> set:
    """1200 two-element members of T on a ground of 400: the shape of the
    largest trace query of the benchmark."""
    rng = np.random.default_rng(400)
    pairs = set()
    while len(pairs) < 1200:
        a, b = rng.choice(400, 2, replace=False).tolist()
        pairs.add((1 << a) | (1 << b))
    return pairs


def _columns(members, r: int) -> np.ndarray:
    """``cols`` of ``_trace_counts``: row j holds the j-th smallest
    element, from 0, of every member."""
    t_list = sorted(members)
    cols = np.array([concentration.mask_elements(mask) for mask in t_list], dtype=np.intp)
    return cols.reshape(len(t_list), r).T - 1


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("n,m", [(20, 6), (20, 10), (12, 8), (9, 9)])
@pytest.mark.parametrize("size", [0, 1, 30])
def test_members_inside_matches_full_gather(r, n, m, size):
    """Row by row, across a batch boundary, the count from a walk that
    stops at T's largest element equals the (rows x |T| x r) gather of
    the X that the same urn draws when it walks all n elements; with
    count_min 1, T nonempty hits."""
    rng = np.random.default_rng(1000 * r + n + m)
    members = {
        sum(1 << int(e) for e in rng.choice(n, r, replace=False)) for _ in range(size)
    }
    t_idx = _columns(members, r).T
    trials, seed = concentration._TRACE_ROWS + 100, r + size
    new = _trace_draws(n, m, t_idx.T, trials, seed)
    old = _subsets(n, m, trials, seed)[:, t_idx].all(axis=2).sum(axis=1)
    assert np.array_equal(new, old)
    assert ((new >= 1).sum() > 0) == bool(members)


def test_t2_trace_memory_is_a_few_mib():
    """Drawing the benchmark's largest trace shape (n 400, m 390, r 2,
    1200 pairs, 16,384 trials) keeps one 1024-row batch of membership
    rows alive: numpy reports its buffers to tracemalloc.  A whole
    16,384-row batch of shuffled rows of [n] alone would be 26 MB."""
    import tracemalloc

    cols = _columns(_t2_pairs(), 2)
    tracemalloc.start()
    try:
        hits = _trace_hits(400, 390, cols, 37928, 16384, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == 0
    assert peak < 8 * 2**20


def test_drawn_trace_stops_at_the_largest_element_of_t():
    """n = 10^6 with 25 singletons at the bottom: the event (6 of them in
    X) is possible, so all 16,384 trials are drawn, but each walk stops
    after 25 elements.  Rows of [n] would take 8 GB per 1024-row batch."""
    import time

    T = {1 << i for i in range(25)}
    verify_trace_probability(10**6, 10, 1, Fraction(1, 2), T, 0, seed=1)  # loads mpmath
    start = time.perf_counter()
    rep = verify_trace_probability(10**6, 10, 1, Fraction(1, 2), T, 16384, seed=1)
    assert time.perf_counter() - start < 1.0
    assert rep.drawn == 16384 and rep.verdict == "pass"


def test_tail_memory_is_a_few_mib():
    """A drawn tail query at (40, 100, 400) keeps one count vector per
    batch alive, whatever the trial count: storing its 200,000 subsets
    would take 32 MB of int32."""
    import tracemalloc

    tracemalloc.start()
    try:
        rep = verify_tail_bound(40, 100, 400, Fraction(8), 200_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.drawn == 200_000 and rep.verdict == "pass"
    assert peak < 2 * 2**20


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(2, 7), Fraction(1, 10)])
def test_trace_rates_are_the_constants(eps):
    for r in range(6):
        consts = concentration_constants(eps, r)
        assert concentration._trace_rates(eps, r) == (consts.eta, consts.c)


def _no_search(e, k):
    raise AssertionError(f"m* of level ({e}, {k}) was searched")


def test_trace_order_above_m_fails_without_m0(monkeypatch):
    """m0 >= r, so m < r fails the hypothesis before the m* search."""
    import time

    verify_trace_probability(100, 10, 1, Fraction(1, 2), set(), 0, seed=1)  # loads mpmath
    monkeypatch.setattr(concentration, "_level_threshold", _no_search)
    start = time.perf_counter()
    rep = verify_trace_probability(100, 10, 150, Fraction(1, 2), set(), 0, seed=1)
    assert time.perf_counter() - start < 0.5
    assert rep.verdict == "hypothesis-failed" and rep.bound == 1.0


def test_trace_order_above_m_report_matches_full_constants():
    import mpmath as mp

    n, m, r, eps = 30, 2, 3, Fraction(1, 2)
    consts = concentration_constants(eps, r)
    assert m < consts.m0
    with mp.workdps(60):
        bound = float(mp.exp(-mp.mpf(consts.c.numerator) / consts.c.denominator * m))
    params = {"n": n, "m": m, "r": r, "eps": "1/2", "T_size": 1}
    want = concentration.MonteCarloReport(
        params, 100, 0, 4, 0, 0.0, bound, 0.0, "hypothesis-failed"
    )
    assert verify_trace_probability(n, m, r, eps, {0b111}, 100, seed=4) == want


@pytest.mark.parametrize("n,m,verdict,combs", [
    (71, 71, "inconclusive", [(71, 2)]),
    (80, 20, "hypothesis-failed", [(80, 2)]),
], ids=["n-equals-m", "hypothesis-fails"])
def test_trace_computes_each_binomial_once(monkeypatch, n, m, verdict, combs):
    """C(m, r) stands in for C(n, r) when n == m and caps the count at
    min(|T|, C(m, r)); from r = 2 on, a failed hypothesis forms no
    count_min.  At eps = 1 and r = 2, m0 = 71."""
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda a, b: calls.append((a, b)) or comb(a, b))
    rep = verify_trace_probability(n, m, 2, Fraction(1), {0b11}, 0, seed=1)
    assert rep.verdict == verdict
    assert calls == combs


def test_trace_member_error_comes_before_the_hypothesis():
    with pytest.raises(PreconditionError, match="not an r-subset"):
        verify_trace_probability(100, 10, 150, Fraction(1, 2), {0b11}, 0, seed=1)


def _recursive_trace_rates(eps: Fraction, r: int) -> tuple[Fraction, Fraction]:
    """(eta, c) by walking the recursion up the chain (eps/2^(r-1), 1), ...,
    (eps, r): each level gains a factor e/4 in eta and takes min(e^2/8, c)/2."""
    if r == 0:
        return Fraction(1, 2), Fraction(1)
    e = eps / 2 ** (r - 1)
    eta, c = e / 2, e * e / 2
    for _ in range(r - 1):
        e *= 2
        eta, c = eta * e / 4, min(e * e / 8, c) / 2
    return eta, c


@pytest.mark.parametrize(
    "eps", [Fraction(1), Fraction(1, 2), Fraction(2, 7), Fraction(1, 10), Fraction(5, 9)]
)
def test_trace_rates_closed_form_matches_recursion(eps):
    for r in range(61):
        assert concentration._trace_rates(eps, r) == _recursive_trace_rates(eps, r)


def _chained_m0(eps: Fraction, r: int, m_star) -> int:
    """m0 by walking the recursion up the chain (eps/2^(r-1), 1), ...,
    (eps, r): m0(., 0) = 0, m0(., 1) = 1, and each level k >= 2 takes
    max(1, m0(e/2, k-1) + 1, m_star(e, k))."""
    if r == 0:
        return 0
    m0 = 1
    for k in range(2, r + 1):
        m0 = max(1, m0 + 1, m_star(eps / 2 ** (r - k), k))
    return m0


@pytest.mark.parametrize(
    "eps", [Fraction(1), Fraction(1, 2), Fraction(2, 7), Fraction(1, 10), Fraction(5, 9)]
)
def test_m0_unrolled_matches_recursion(eps):
    """The recursion, walked on the real m*, gives the one-search m0, and
    each level's m* passes the one below it on its chain by at least one
    (the claim that lets the top level alone set m0)."""
    m_star = concentration._level_threshold
    for r in range(21):
        assert concentration_constants(eps, r).m0 == _chained_m0(eps, r, m_star)
        chain = [m_star(eps / 2 ** (r - k), k) for k in range(2, r + 1)]
        assert all(upper >= lower + 1 for lower, upper in zip(chain, chain[1:]))


def test_m0_is_one_search():
    """From r = 2 on m0 costs the one m* search of the top level; below
    that it costs none."""
    search = concentration._level_threshold
    search.cache_clear()
    for r in (0, 1):
        concentration_constants(Fraction(1, 3), r)
        assert search.cache_info().misses == 0
    for r in (2, 3, 9):
        search.cache_clear()
        concentration_constants(Fraction(1, 3), r)
        assert search.cache_info().misses == 1


def test_m0_at_order_400_pinned():
    """m0 at (1/2, 400), as the per-level recursion gave it."""
    digits = (
        "14437836923072152718911848701032217160349724744563417294091866"
        "72593257208729362188505158148401887418914422749383573474068118"
        "07358573739545147417137553254638132193306959344541027395351161"
        "69746886891561763976452491410411857964457731524005093296199603"
        "97520919984821110388923507290051632748527697030903218142055377"
        "0549126257092126019952181499387170118588261643749163008"
    )
    assert concentration_constants(Fraction(1, 2), 400).m0 == int(digits)


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(2, 7)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_m0_clears_the_m_dec_floor(monkeypatch, eps, r):
    """From r = 2 on, m0 > m_dec = floor(1/c) + 1, so m = m_dec fails the
    hypothesis, with the report m0 would give, before m0 is computed."""
    import mpmath as mp

    consts = concentration_constants(eps, r)
    m_dec = int(1 / consts.c) + 1
    assert consts.m0 > m_dec
    with mp.workdps(60):
        bound = float(mp.exp(-mp.mpf(consts.c.numerator) / consts.c.denominator * m_dec))
    params = {"n": m_dec, "m": m_dec, "r": r, "eps": str(eps), "T_size": 0}
    want = concentration.MonteCarloReport(
        params, 10, 0, 2, 0, 0.0, bound, 0.0, "hypothesis-failed"
    )
    monkeypatch.setattr(concentration, "_level_threshold", _no_search)
    assert verify_trace_probability(m_dec, m_dec, r, eps, set(), 10, seed=2) == want


def _drawing(rep, hits: int):
    """The report ``rep`` would be with its ``hits`` drawn: every one of
    its trials drawn, and the same verdict rule applied."""
    return concentration._monte_carlo_report(
        rep.params, rep.trials, rep.seed, hits, rep.bound, rep.trials,
        rep.exact_p, rep.exact_holds,
    )


@pytest.mark.parametrize("seed", [1, 2, 104729])
@pytest.mark.parametrize("shape", ["T1", "T2"])
def test_impossible_trace_event_is_decided_as_drawn(shape, seed):
    """The benchmark's trace shapes ask for more members of T inside X than
    T has: T1 (n 100, m 50, r 1, 24 singletons) needs 26, T2 (n 400, m 390,
    r 2, 1200 pairs) 37,928.  The draws miss on every seed, and the report
    that skips them equals the drawn one in every field but ``drawn``."""
    if shape == "T1":
        n, m, r, T, trials = 100, 50, 1, {1 << i for i in range(24)}, 16384
    else:
        n, m, r, T, trials = 400, 390, 2, _t2_pairs(), 3000
    eps = Fraction(1, 2)
    count_min = math.floor(eps * math.comb(m, r)) + 1
    assert len(T) < count_min
    hits = _trace_hits(n, m, _columns(T, r), count_min, trials, seed)
    assert hits == 0
    exact = verify_trace_probability(n, m, r, eps, T, trials, seed)
    assert exact.drawn == 0 and exact.trials == trials and exact.verdict == "pass"
    assert exact.exact_p == (0 if r == 1 else None)
    assert dataclasses.replace(exact, drawn=trials) == _drawing(exact, hits)


@pytest.mark.parametrize("m,k,n,t,hits", [
    (10, 4, 10, Fraction(0), 30),    # X is the ground: Z = k = z_min on every draw
    (6, 10, 10, Fraction(0), 30),    # every element is below k: Z = m = z_min
    (5, 2, 10, Fraction(2), 0),      # z_min 3 above min(k, m) = 2
    (3, 10, 10, Fraction(1, 2), 0),  # z_min 4 above m = 3
    (9, 8, 10, Fraction(0), None),   # z_min 8 inside Z's range [7, 8]: drawn
])
def test_decided_tail_matches_the_draws(m, k, n, t, hits):
    """Z lies in [max(0, m - (n - k)), min(k, m)]; a z_min outside it
    makes p 0 or 1, which decides every draw, and the report equals the
    one the draws on the same seed give but for ``drawn``."""
    exact = verify_tail_bound(m, k, n, t, 30, seed=4)
    assert exact.drawn == (30 if hits is None else 0)
    if hits is not None:
        assert exact.hits == hits and exact.exact_p == Fraction(hits, 30)
    z_min = math.ceil(Fraction(k * m, n) + t)
    drawn = int((_tail_draws(m, k, n, 30, seed=4) >= z_min).sum())
    assert dataclasses.replace(exact, drawn=30) == _drawing(exact, drawn)


@pytest.mark.parametrize("n", [1, 3, 6, 8, 10])
def test_supports_hold_over_every_subset(n):
    """Over every m-subset X of an n-set: the tail's p is 0 or 1 exactly
    when every X agrees on the event, and the trace's count never passes
    min(|T|, C(m, r)) (reached when T is empty or a whole layer), so an
    event above it is one that no X reaches."""
    by_m = [
        [sum(1 << e for e in c) for c in itertools.combinations(range(n), m)]
        for m in range(n + 1)
    ]
    for m, xs in enumerate(by_m):
        for k in range(n + 1):
            zs = [(x & ((1 << k) - 1)).bit_count() for x in xs]
            for least in range(-1, m + 3):
                decided = len({z >= least for z in zs}) == 1
                p = concentration.hypergeometric_tail(m, k, n, least)
                assert (p.denominator == 1) == decided
    rng = np.random.default_rng(n)
    for r in range(4):
        layer = [sum(1 << e for e in c) for c in itertools.combinations(range(n), r)]
        part = [t for t in layer if rng.random() < 0.3]
        for T, reached in ((layer, True), ([], True), (part, False), (layer[:2], False)):
            for m, xs in enumerate(by_m):
                counts = [sum(t & x == t for t in T) for x in xs]
                top = min(len(T), math.comb(m, r))
                assert max(counts) <= top
                if reached:
                    assert max(counts) == top


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
def test_singleton_trace_draws_exactly_when_possible(eps):
    """At r = 1 the count reaches min(|T|, m), so a query draws rows iff
    its event can happen: count_min = floor(eps m) + 1 <= min(|T|, m)."""
    n = 10
    for size in range(int(eps / 2 * n) + 1):
        T = {1 << i for i in range(size)}
        for m in range(1, n + 1):
            rep = verify_trace_probability(n, m, 1, eps, T, 4, seed=m)
            possible = math.floor(eps * m) + 1 <= min(size, m)
            assert rep.verdict == "pass" and rep.drawn == (4 if possible else 0)
            if not possible:
                assert rep.hits == 0


def test_biased_tail_sampler_fails_two_sided(monkeypatch):
    """Z >= 10 at (20, 50, 100) has p = 0.598; a sampler that marks 49 of
    the 50 elements expects 22,362 of 40,000 hits, not 23,937, 16 sigma
    low.  The one-sided rule cannot see it (the bound is 1 at t = 0); the
    two-sided one fails it, and passes the true sampler's draws."""
    honest = verify_tail_bound(20, 50, 100, Fraction(0), 40_000, seed=8)
    assert honest.verdict == "pass" and honest.bound == 1.0
    assert honest.exact_p == Fraction(62449931611, 104355306882)
    draw = concentration._tail_counts
    monkeypatch.setattr(
        concentration, "_tail_counts", lambda m, k, n, trials, seed: draw(m, k - 1, n, trials, seed)
    )
    biased = verify_tail_bound(20, 50, 100, Fraction(0), 40_000, seed=8)
    assert biased.empirical <= biased.bound + biased.margin
    assert biased.verdict == "fail"
    assert dataclasses.replace(biased, hits=honest.hits, empirical=honest.empirical,
                               verdict="pass") == honest


def test_biased_urn_fails_the_r1_trace_check(monkeypatch):
    """At r = 1 with T five singletons of [40], m = 10 and eps 1/4, the
    event (3 of them in X) has p = 816/9139; an urn that marks one element
    too few draws 9-subsets, whose p = 63/962 sits 17 sigma lower over
    40,000 trials, far inside the bound 0.73 the one-sided rule checks."""
    T = {1 << i for i in range(5)}
    honest = verify_trace_probability(40, 10, 1, Fraction(1, 4), T, 40_000, seed=11)
    assert honest.verdict == "pass" and honest.exact_p == Fraction(816, 9139)
    urn = concentration._urn
    monkeypatch.setattr(
        concentration, "_urn",
        lambda gen, n, room, steps, rows, out: urn(gen, n, room - 1, steps, rows, out),
    )
    biased = verify_trace_probability(40, 10, 1, Fraction(1, 4), T, 40_000, seed=11)
    assert biased.empirical <= biased.bound + biased.margin
    assert biased.drawn == 40_000 and biased.verdict == "fail"


@pytest.mark.parametrize("hits,verdict", [(0, "pass"), (1, "pass"), (2, "fail")])
def test_two_sided_rule_spares_one_stray_hit(hits, verdict):
    """trials * p = 0.01: one hit strays 9.9 sigma, yet a correct sampler
    draws it once in a hundred queries; the + 1 spares it, and two hits
    (about 5e-5 of such queries) fail."""
    rep = concentration._monte_carlo_report(
        {}, 40_000, 1, hits, 0.5, 40_000, Fraction(1, 4_000_000), True
    )
    assert rep.verdict == verdict


@pytest.mark.parametrize("k,n", [(10**9, 15 * 10**8), (5 * 10**8, 15 * 10**8)])
def test_tail_past_the_draw_limit_is_refused_before_drawing(monkeypatch, k, n):
    """numpy draws a hypergeometric count only with fewer than 10^9 marked
    and 10^9 unmarked elements; past that a query that must draw is
    refused, while one that p decides still gets its report."""
    monkeypatch.setattr(concentration, "_tail_counts", _no_draw)
    with pytest.raises(PreconditionError, match=(
        rf"^a tail draw needs k and n - k below 1000000000, got k={k}, n - k={n - k}$"
    )):
        verify_tail_bound(5, k, n, Fraction(1), 100, seed=1)
    decided = verify_tail_bound(5, k, n, Fraction(10), 100, seed=1)
    assert decided.exact_p == 0 and decided.drawn == 0 and decided.verdict == "pass"


def _no_draw(*args):
    raise AssertionError("drew")


_FIVE = {1 << i for i in range(5)}


@pytest.mark.parametrize("r,T,trials,verdict,drawn,p", [
    (1, _FIVE, 200, "pass", 200, Fraction(816, 9139)),
    (1, _FIVE, 0, "inconclusive", 0, Fraction(816, 9139)),
    (1, set(), 200, "pass", 0, Fraction(0)),
    (0, set(), 200, "pass", 0, Fraction(0)),
    # every 10-subset of [40] lies in the union of all 40 singletons
    (1, {1 << i for i in range(40)}, 200, "hypothesis-failed", 0, Fraction(1)),
    (2, {0b11}, 200, "hypothesis-failed", 0, None),
], ids=["drawn", "zero-trials", "impossible", "r0", "hypothesis-failed", "r2"])
def test_trace_reports_carry_p_up_to_r1(r, T, trials, verdict, drawn, p):
    """p is exact at r <= 1 on every route, drawn or not, and absent from
    r = 2 on; ``exact_holds`` compares it with the bound."""
    rep = verify_trace_probability(40, 10, r, Fraction(1, 4), T, trials, seed=2)
    assert (rep.verdict, rep.drawn, rep.exact_p) == (verdict, drawn, p)
    assert rep.exact_holds == (None if p is None else p <= rep.bound)
