"""Hypergeometric concentration: sampling, tail bounds, recursive constants.

Numerics policy: probability inequalities are checked in binary64 with an
explicit 3-sigma margin (Monte-Carlo cannot refute a true bound, only
flag suspicion), while the recursive constants eta and c stay exact
rationals and the threshold sizes m0 are exact integers.  The quantities
that overflow binary64 -- mass bounds of order exp(1/c) and threshold
indices of order 1/c -- go through mpmath, whose exponent range is
unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import PreconditionError
from .families import check_tolerance, mask_elements

if TYPE_CHECKING:
    import mpmath as mp
    import numpy as np

_BATCH_ROWS = 16384
# Rows shuffled at a time inside a batch: 3.3 MB of intp at n = 400.
_CHUNK_ROWS = 1024
_MP_DPS = 60
# Comparisons against 1 in the m* search get this one-sided slack, so a
# value within guard of the boundary is treated as failing the inequality
# and m* only ever moves up (a larger threshold is still a valid one).
_GUARD = "1e-30"


def _mpf(x) -> mp.mpf:
    import mpmath as mp

    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def at_most(a, b) -> bool:
    """a <= b, each side an exact rational or an mpmath value.

    The one comparison of an exact mass with a bound that may have no
    binary64 form: two rationals compare exactly, anything else in mpmath
    at ``_MP_DPS`` digits (mpmath is loaded only then).
    """
    if isinstance(a, (Fraction, int)) and isinstance(b, (Fraction, int)):
        return a <= b
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        return _mpf(a) <= _mpf(b)


def _shuffled_batches(n: int, trials: int, seed: int):
    """(first row, chunk): ``trials`` rows of independently shuffled 0..n-1.

    Batch j holds at most ``_BATCH_ROWS`` rows, shuffled on the
    counter-based stream jumped j times off ``seed``, so every row depends
    only on (n, its index, seed).  A batch is filled and shuffled in
    chunks of at most ``_CHUNK_ROWS`` rows; ``Generator.permuted`` draws
    row after row from its stream, so the chunks hold the very rows a
    whole batch would.  The rows are ``intp``, the item size numpy's
    fast swap loop takes; the permutation depends only on the draws, so
    they equal ``int32`` rows shuffled the same way.

    Every chunk is a view of one buffer that the next chunk overwrites:
    consume it before asking for the next.
    """
    import numpy as np

    base = np.random.Philox(key=seed)
    identity = np.arange(n, dtype=np.intp)
    buf = np.empty((min(_CHUNK_ROWS, trials), n), dtype=np.intp)
    for start in range(0, trials, _BATCH_ROWS):
        rows = min(_BATCH_ROWS, trials - start)
        gen = np.random.Generator(base.jumped(start // _BATCH_ROWS))
        for first in range(start, start + rows, _CHUNK_ROWS):
            mat = buf[: min(_CHUNK_ROWS, start + rows - first)]
            mat[:] = identity
            gen.permuted(mat, axis=1, out=mat)
            yield first, mat


def sample_uniform_subsets(n: int, m: int, trials: int, seed: int) -> np.ndarray:
    """(trials, m) array of uniform m-subsets of {0..n-1}; rows are not sorted.

    Each row is the prefix of an independently shuffled 0..n-1
    (``_shuffled_batches``), so output depends only on (n, m, trials, seed).
    """
    import numpy as np

    if not 0 <= m <= n:
        raise PreconditionError(f"need 0 <= m <= n, got m={m}, n={n}")
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    out = np.empty((trials, m), dtype=np.int32)
    for start, mat in _shuffled_batches(n, trials, seed):
        out[start : start + len(mat)] = mat[:, :m]
    return out


def tail_bound(m: int, t) -> float:
    """Upper bound exp(-2 t^2 / m) for the upper tail at offset t."""
    if m < 1:
        raise PreconditionError("need m >= 1")
    if t < 0:
        raise PreconditionError("tail offset must be nonnegative")
    return math.exp(-2 * float(t) ** 2 / m)


@dataclass(frozen=True)
class MonteCarloReport:
    """Outcome of an empirical check of a probability inequality.

    verdict is "pass" / "fail" / "inconclusive" (plus "hypothesis-failed"
    where the inequality's own hypotheses were not met); "fail" only
    flags suspicion -- empirical frequency above bound + 3 sigma.

    ``trials`` is the number of seeded draws the verdict covers, as asked
    for; ``drawn`` is the number of rows actually shuffled.  The two agree
    when the draws decide ``hits``.  ``drawn`` is 0 when the support of
    the count decides every draw alike (``_forced_hits``), so that the
    verdict over ``trials`` draws needs none of them, and on the
    "inconclusive" and "hypothesis-failed" routes, which draw nothing.
    """

    params: dict
    trials: int
    drawn: int
    seed: int
    hits: int
    empirical: float
    bound: float
    margin: float
    verdict: str


def _monte_carlo_report(
    params: dict, trials: int, seed: int, hits: int, bound: float, drawn: int
) -> MonteCarloReport:
    """The verdict on ``hits`` in ``trials``: "inconclusive" with no
    trials, else "pass" when the empirical rate is at most the bound plus
    3 sigma of a Bernoulli(bound) mean over ``trials``, and "fail" above."""
    if trials == 0:
        return MonteCarloReport(params, 0, 0, seed, 0, 0.0, bound, 0.0, "inconclusive")
    empirical = hits / trials
    margin = 3.0 * math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)
    verdict = "pass" if empirical <= bound + margin else "fail"
    return MonteCarloReport(
        params, trials, drawn, seed, hits, empirical, bound, margin, verdict
    )


def _tail_support(m: int, k: int, n: int) -> tuple[int, int]:
    """[lo, hi] holding |X cap {0..k-1}| for every m-subset X of {0..n-1}:
    X has at most k elements below k and at most n - k at or above it."""
    return max(0, m - (n - k)), min(k, m)


def _trace_support(m: int, r: int, t_size: int) -> tuple[int, int]:
    """[lo, hi] holding |X^{(r)} cap T| for every m-set X: X^{(r)} has
    C(m, r) members and T has ``t_size``."""
    return 0, min(t_size, math.comb(m, r))


def _forced_hits(lo: int, hi: int, least: int, trials: int) -> int | None:
    """Hits of the event "count >= least" in ``trials`` draws of an integer
    count that always lies in [lo, hi], when that range decides them: 0
    when ``least`` is above ``hi``, since no draw can reach it, and
    ``trials`` when ``least`` is at most ``lo``, since every draw does.
    None when draws on both sides are possible, as far as [lo, hi] tells.

    Exact, not a shortcut: on a decided event every seed gives these hits.
    """
    if least > hi:
        return 0
    if least <= lo:
        return trials
    return None


def verify_tail_bound(
    m: int, k: int, n: int, t, trials: int, seed: int
) -> MonteCarloReport:
    """Estimate P(Z >= km/n + t) and compare with exp(-2 t^2 / m).

    Z = |X cap {0..k-1}| for X uniform in the m-subsets of {0..n-1} is
    hypergeometric on [max(0, m - (n - k)), min(k, m)] (``_tail_support``).
    When the least integer z_min >= km/n + t lies above that range, every
    draw misses whatever the seed; at or below its bottom (say m = n with
    t = 0), every draw hits.  Either way the report is built without
    drawing a row (``drawn`` 0); otherwise the rows are drawn.

    The threshold comparison is exact (integer Z against a rational
    threshold); only the frequency-vs-bound comparison is floating.
    Parameters are checked before the zero-trial shortcut, so an
    "inconclusive" report always describes a well-posed question.
    """
    bound = tail_bound(m, t)
    if not (m <= n and 0 <= k <= n):
        raise PreconditionError(
            f"need m <= n and 0 <= k <= n, got m={m}, k={k}, n={n}"
        )
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    params = {"m": m, "k": k, "n": n, "t": float(t)}
    if trials == 0:
        return _monte_carlo_report(params, 0, seed, 0, bound, 0)
    z_min = math.ceil(Fraction(k * m, n) + Fraction(t))
    hits = _forced_hits(*_tail_support(m, k, n), z_min, trials)
    if hits is not None:
        return _monte_carlo_report(params, trials, seed, hits, bound, 0)
    subs = sample_uniform_subsets(n, m, trials, seed)
    z = (subs < k).sum(axis=1)
    hits = int((z >= z_min).sum())
    return _monte_carlo_report(params, trials, seed, hits, bound, trials)


@dataclass(frozen=True)
class ConcentrationConstants:
    """The (eta, c, m0) triple attached to a trace tolerance (eps, r)."""

    eta: Fraction
    c: Fraction
    m0: int


_constants_cache: dict = {}


def concentration_constants(eps, r: int) -> ConcentrationConstants:
    """Constants (eta, c, m0) by the recursion on r.

    Base cases: r=0 gives (1/2, 1, 0) and r=1 gives (eps/2, eps^2/2, 1).
    For r >= 2 the tolerance halves, eta multiplies, c halves the
    smaller branch, and m0 additionally clears m*, the least threshold
    past which exp(-c1 m) + m exp(-c2 (m-1)) stays below exp(-c m).
    eta and c are exact rationals; m0 is an exact integer (it can be
    enormous for small eps -- the search is logarithmic in its value).

    (eps, r) is built from (eps/2, 1) and (eps/2, r-1), so it tops the
    chain (eps/2^(r-1), 1), ..., (eps/2, r-1), (eps, r), which is walked
    upward in a loop from its highest cached link: the depth of Python
    calls does not grow with r.
    """
    eps = check_tolerance(eps)
    if r < 0:
        raise PreconditionError("order r must be nonnegative")
    links = []
    while r > 1 and (eps, r) not in _constants_cache:
        links.append((eps, r))
        eps, r = eps / 2, r - 1
    lower = _constants_cache[(eps, r)] if r > 1 else _base_constants(eps, r)
    for eps, r in reversed(links):
        single = _base_constants(eps / 2, 1)
        c = min(single.c, lower.c) / 2
        m_star = _dominance_threshold(single.c, lower.c, c)
        m0 = max(single.m0, lower.m0 + 1, m_star)
        lower = ConcentrationConstants(lower.eta * single.eta, c, m0)
        _constants_cache[(eps, r)] = lower
    return lower


def _base_constants(eps: Fraction, r: int) -> ConcentrationConstants:
    """The constants at r = 0 or r = 1, entered in the cache."""
    key = (eps, r)
    hit = _constants_cache.get(key)
    if hit is None:
        if r == 0:
            hit = ConcentrationConstants(Fraction(1, 2), Fraction(1), 0)
        else:
            hit = ConcentrationConstants(eps / 2, eps * eps / 2, 1)
        _constants_cache[key] = hit
    return hit


def _dominance_threshold(c1: Fraction, c2: Fraction, c: Fraction) -> int:
    """Least m with exp(-c1 m') + m' exp(-c2 (m'-1)) <= exp(-c m') for all m' >= m.

    Divide through by exp(-c m): the ratio R(m) = exp(-(c1-c) m)
    + m exp(c2) exp(-(c2-c) m) must stay <= 1.  Both exponent gaps are
    positive (c is half the smaller constant), so R(m) -> 0, and its
    derivative is negative once m >= 1/(c2-c): past that point R is
    strictly decreasing, which is the dominance certificate that lets a
    doubling-plus-bisection search stand in for an infinite scan.

    The search starts above m_dec = floor(1/g2) + 1, which always fails:
    only r >= 2 gets here, so c2 <= (eps/2)^2 / 2 <= 1/8, and with
    g2 m_dec <= 1 + g2 and g2 = c2 - c,
    R(m_dec) >= m_dec e^(c2) e^(-g2 m_dec) >= (1/g2) e^(c - 1) >= 8/e > 1.
    """
    import mpmath as mp

    g1 = c1 - c
    g2 = c2 - c
    if g1 <= 0 or g2 <= 0:
        raise PreconditionError("dominance certificate needs positive exponent gaps")
    m_dec = int(Fraction(1) / g2) + 1
    with mp.workdps(_MP_DPS):
        guard = mp.mpf(_GUARD)
        gg1, gg2, cc2 = _mpf(g1), _mpf(g2), _mpf(c2)

        def ok(m: int) -> bool:
            mm = mp.mpf(m)
            ratio = mp.exp(-gg1 * mm) + mm * mp.exp(cc2) * mp.exp(-gg2 * mm)
            return ratio <= 1 - guard

        lo, hi = m_dec, 2 * m_dec
        while not ok(hi):
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return hi


def fat_mass_bound(eps, r: int) -> mp.mpf:
    """The mass bound m0 + 1/(1 - exp(-c)) attached to (eps, r).

    Returned as an mpmath float: c can be small enough that the result
    has no binary64 representation.
    """
    import mpmath as mp

    consts = concentration_constants(eps, r)
    with mp.workdps(_MP_DPS):
        return mp.mpf(consts.m0) + 1 / (-mp.expm1(-_mpf(consts.c)))


def _trace_rates(eps, r: int) -> tuple[Fraction, Fraction]:
    """(eta, c) of ``concentration_constants(eps, r)``, without m0.

    Level (e, k) of the recursion combines the single (e/2, 1), whose
    constants are (e/4, e^2/8), with the level (e/2, k-1) below it: eta
    gains a factor e/4 and c becomes min(e^2/8, c)/2, the lower branch's
    c from k = 2 on.  Up the chain from (eps/2^(r-1), 1) this unrolls to
    eta = eps^r / 2^((r^2 + 3r - 2)/2) and c = eps^2 / 2^(3r - 2) for
    r >= 1: one power each, not r products of growing rationals.  No m*
    search, no mpmath.
    """
    eps = check_tolerance(eps)
    if r < 0:
        raise PreconditionError("order r must be nonnegative")
    if r == 0:
        return Fraction(1, 2), Fraction(1)
    return eps**r / 2 ** ((r * r + 3 * r - 2) // 2), eps * eps / 2 ** (3 * r - 2)


def verify_trace_probability(
    n: int,
    m: int,
    r: int,
    eps,
    T: Iterable[int],
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Estimate P(|X^{(r)} cap T| > eps C(m,r)) for X uniform in [n]^{(m)}.

    T is given as bitmasks over positions 0..n-1 (n may exceed the
    family modules' 64-element cap; masks are plain integers here).
    Hypotheses |T| <= eta(eps, r) C(n, r) and m >= m0(eps, r) and n >= m
    are checked first; a violation yields a "hypothesis-failed" report
    rather than an error, since the caller may be probing the boundary.
    m0 = r at r <= 1.  From r = 2 on, m0 is at least the top level's m*,
    whose search starts above m_dec = floor(1/g2) + 1, where g2 = c (the
    lower branch has the smaller constant 2c); so m <= floor(1/c) + 1
    fails without the m* search behind m0.
    A negative n, m or trial count, or a member of T that is not an
    r-subset of [n], is an error, raised before the zero-trial shortcut so
    that an "inconclusive" report always describes a well-posed question.

    The event needs count_min = floor(eps C(m, r)) + 1 members of T inside
    X, but X^{(r)} has C(m, r) members and T has |T|: the count is at most
    min(|T|, C(m, r)).  When count_min is above that, the event is
    impossible, every draw misses whatever the seed, and the report is
    built without drawing a row or loading numpy (``drawn`` 0).
    Otherwise the rows are drawn and counted (``_sampled_hits``).
    """
    import mpmath as mp

    if min(n, m, trials) < 0:
        raise PreconditionError(
            f"need n, m, trials >= 0, got n={n}, m={m}, trials={trials}"
        )
    eps = Fraction(eps)
    eta, c = _trace_rates(eps, r)
    t_list = sorted(set(T))
    for mask in t_list:
        if mask.bit_count() != r:
            raise PreconditionError(f"member {mask:#x} of T is not an r-subset")
        if mask >> n:
            raise PreconditionError(f"member {mask:#x} of T leaves the ground of size {n}")
    with mp.workdps(_MP_DPS):
        bound_mp = mp.exp(-_mpf(c) * m)
        bound = float(bound_mp) if bound_mp > mp.mpf("1e-300") else 0.0
    params = {"n": n, "m": m, "r": r, "eps": str(eps), "T_size": len(t_list)}
    m0_floor = r if r <= 1 else int(1 / c) + 2
    hypothesis_ok = (
        Fraction(len(t_list)) <= eta * math.comb(n, r)
        and n >= m >= m0_floor
        and m >= concentration_constants(eps, r).m0
    )
    if not hypothesis_ok:
        return MonteCarloReport(
            params, trials, 0, seed, 0, 0.0, bound, 0.0, "hypothesis-failed"
        )
    if trials == 0:
        return _monte_carlo_report(params, 0, seed, 0, bound, 0)

    count_min = math.floor(eps * math.comb(m, r)) + 1  # least integer > eps C(m, r)
    hits = _forced_hits(*_trace_support(m, r, len(t_list)), count_min, trials)
    if hits is not None:
        return _monte_carlo_report(params, trials, seed, hits, bound, 0)

    import numpy as np

    # row j: the j-th smallest element of every member of T, counted from 0
    cols = np.array([mask_elements(mask) for mask in t_list], dtype=np.intp)
    cols = cols.reshape(len(t_list), r).T - 1
    hits = _sampled_hits(n, m, cols, count_min, trials, seed)
    return _monte_carlo_report(params, trials, seed, hits, bound, trials)


def _sampled_hits(
    n: int, m: int, cols: np.ndarray, count_min: int, trials: int, seed: int
) -> int:
    """How many of ``trials`` seeded rows have at least ``count_min``
    members of T inside X, the row's first m entries; ``cols`` as in
    ``_members_inside``.  The rows are counted one chunk at a time."""
    hits = 0
    for _, mat in _shuffled_batches(n, trials, seed):
        hits += int((_members_inside(mat, m, cols) >= count_min).sum())
    return hits


def _members_inside(mat: np.ndarray, m: int, cols: np.ndarray) -> np.ndarray:
    """For each shuffled row of ``mat``, how many members of T lie in X,
    the row's first m entries.

    ``cols[j]`` holds the j-th smallest element of every member.  X is
    marked from the shorter side of the shuffle in ``picked``, which has
    one row per element, so that the gather at a member's elements copies
    whole rows; a member counts when the marks at all its elements are set.
    """
    import numpy as np

    rows, n = mat.shape
    which = np.arange(rows)[:, None]
    if 2 * m <= n:
        picked = np.zeros((n, rows), dtype=bool)
        picked[mat[:, :m], which] = True
    else:
        picked = np.ones((n, rows), dtype=bool)
        picked[mat[:, m:], which] = False
    # at r = 0 the one possible member, the empty set, lies in every X
    inside = np.ones((cols.shape[1], rows), dtype=bool)
    for col in cols:
        inside &= picked[col]
    return np.count_nonzero(inside, axis=0)
