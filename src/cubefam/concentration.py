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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import PreconditionError
from .families import check_tolerance, mask_elements

if TYPE_CHECKING:
    import mpmath as mp
    import numpy as np

# Rows per batch: 16384 for the tail lemma, whose urn keeps one count per
# row, and 1024 for the trace lemma, whose urn keeps one membership row per
# element it walks.
_BATCH_ROWS = 16384
_TRACE_ROWS = 1024
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


def _batches(trials: int, seed: int, size: int):
    """(rows, generator) for each batch of ``trials`` seeded rows.

    Batch j holds at most ``size`` rows and draws them on the
    counter-based stream jumped j times off ``seed``, so no batch's draws
    depend on another's.
    """
    import numpy as np

    base = np.random.Philox(key=seed)
    for j, start in enumerate(range(0, trials, size)):
        yield min(size, trials - start), np.random.Generator(base.jumped(j))


def _urn(gen, n: int, room: int, steps: int, rows: int, out=None):
    """``rows`` independent walks of ``steps`` draws without replacement
    from an urn of n elements, ``room`` of them marked; the marked ones
    left in each row's urn after the walk.

    Draw j picks uniformly among the n - j elements not yet drawn, so it
    hits a marked one exactly when it falls below the marked count left,
    which then drops by one.  Row j of ``out``, if given, records which
    rows draw j hit.  One draw, one compare and one in-place subtract per
    step, for every row at once.
    """
    import numpy as np

    left = np.full(rows, room, dtype=np.intp)
    for j in range(steps):
        left -= np.less(gen.integers(0, n - j, size=rows), left,
                        out=None if out is None else out[j])
    return left


def _urn_counts(m: int, k: int, n: int, trials: int, seed: int):
    """Z = |X cap {0..k-1}| for ``trials`` seeded uniform m-subsets X of
    {0..n-1}, the tail lemma's draws: one count vector per batch of
    ``_BATCH_ROWS`` rows.

    Z depends only on which elements X holds, so X is drawn from an urn
    one element at a time and never stored: the k marked elements are
    K = {0..k-1}, and each draw that hits puts one of them in X.  The urn
    draws the shorter side: X itself when 2m <= n, else its complement,
    whose n - m draws leave Z elements of K undrawn.  Each step draws for
    every row of a batch at once, so a row's Z depends on its batch's size.
    """
    inside = 2 * m <= n
    for rows, gen in _batches(trials, seed, _BATCH_ROWS):
        left = _urn(gen, n, k, m if inside else n - m, rows)
        yield k - left if inside else left


def tail_bound(m: int, t) -> float:
    """Upper bound exp(-2 t^2 / m) for the upper tail at offset t.

    An offset whose square overflows binary64 gives the bound 0.0; an
    offset with no binary64 form at all is refused.
    """
    if m < 1:
        raise PreconditionError("need m >= 1")
    if t < 0:
        raise PreconditionError("tail offset must be nonnegative")
    try:
        tf = float(t)
    except OverflowError:
        raise PreconditionError("tail offset exceeds binary64") from None
    return math.exp(-2 * (tf * tf) / m)


@dataclass(frozen=True)
class MonteCarloReport:
    """Outcome of an empirical check of a probability inequality.

    verdict is "pass" / "fail" / "inconclusive" (plus "hypothesis-failed"
    where the inequality's own hypotheses were not met); "fail" only
    flags suspicion -- empirical frequency above bound + 3 sigma.

    ``trials`` is the number of seeded draws the verdict covers, as asked
    for; ``drawn`` is the number of subsets X actually drawn from an urn
    (``_urn``: ``_urn_counts`` for the tail lemma, ``_trace_counts`` for
    the trace lemma).  The two agree when the draws decide ``hits``.
    ``drawn`` is 0 when the support of the count decides every draw alike
    (``_forced_hits``), so that the verdict over ``trials`` draws needs
    none of them, and on the "inconclusive" and "hypothesis-failed"
    routes, which draw nothing.
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
    drawing (``drawn`` 0); otherwise each of the ``trials`` subsets is
    drawn from an urn (``_urn_counts``), which gives Z its exact
    distribution in min(m, n - m) steps and O(batch) memory.

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
    hits = sum(int((z >= z_min).sum()) for z in _urn_counts(m, k, n, trials, seed))
    return _monte_carlo_report(params, trials, seed, hits, bound, trials)


@dataclass(frozen=True)
class ConcentrationConstants:
    """The (eta, c, m0) triple attached to a trace tolerance (eps, r)."""

    eta: Fraction
    c: Fraction
    m0: int


def concentration_constants(eps, r: int) -> ConcentrationConstants:
    """Constants (eta, c, m0) of the trace lemma at tolerance eps and order r.

    eta and c are the closed forms of ``_trace_rates``.  m0 is the
    recursion on r: m0(., 0) = 0, m0(., 1) = 1, and from k = 2 on
    m0(e, k) = max(1, m0(e/2, k-1) + 1, m*_k), where m*_k is the least
    threshold past which level (e, k)'s two branches stay below exp(-c m)
    (``_level_threshold``).  Down the chain from (eps, r), level k has
    tolerance eps/2^(r-k), so the recursion unrolls to

        m0 = max(r, max over k = 2..r of m*_k + r - k):

    each step up adds one, so the base m0(., 1) = 1 arrives as r (which
    also covers every max(1, ...) term), and level k's m*_k arrives
    r - k steps later as m*_k + r - k.  Each m*_k is searched once and
    cached; the search is logarithmic in m*_k, which is enormous for small
    eps.  eta and c are exact rationals; m0 is an exact integer.
    """
    eta, c = _trace_rates(eps, r)
    eps = Fraction(eps)
    levels = [_level_threshold(eps / 2 ** (r - k), k) + r - k for k in range(2, r + 1)]
    return ConcentrationConstants(eta, c, max([r] + levels))


@functools.cache
def _level_threshold(e: Fraction, k: int) -> int:
    """m*_k of level (e, k), k >= 2: the least m with
    exp(-c1 m') + m' exp(-c2 (m'-1)) <= exp(-c m') for all m' >= m.

    Level (e, k) joins the single (e/2, 1), with c1 = e^2/8, to the level
    (e/2, k-1) below it, with c2 = 2c, where c = e^2/2^(3k-2) is the
    level's own constant (``_trace_rates``).  Divide through by
    exp(-c m): the ratio R(m) = exp(-g1 m) + m exp(c2) exp(-g2 m) must
    stay <= 1, with exponent gaps g1 = c1 - c = c (2^(3k-5) - 1) >= c
    and g2 = c2 - c = c, both positive for every k >= 2.  So R(m) -> 0,
    and its derivative is negative once m >= 1/g2: past that point R is
    strictly decreasing, which is the dominance certificate that lets a
    doubling-plus-bisection search stand in for an infinite scan.

    The search starts above m_dec = floor(1/g2) + 1, which always fails:
    c2 <= (e/2)^2 / 2 <= 1/8, and with g2 m_dec <= 1 + g2,
    R(m_dec) >= m_dec e^(c2) e^(-g2 m_dec) >= (1/g2) e^(c - 1) >= 8/e > 1.
    """
    import mpmath as mp

    c = _trace_rates(e, k)[1]
    g1 = _trace_rates(e / 2, 1)[1] - c      # c1 - c; g2 = c
    m_dec = int(1 / c) + 1
    with mp.workdps(_MP_DPS):
        guard = mp.mpf(_GUARD)
        gg1, gg2, cc2 = _mpf(g1), _mpf(c), _mpf(2 * c)

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
    """(eta, c) of the trace lemma at (eps, r): the one source of both,
    which ``concentration_constants`` completes with m0.

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
    built without drawing or loading numpy (``drawn`` 0).  Otherwise each
    X is drawn element by element up to T's largest element and counted
    (``_trace_counts``), in time and memory that do not grow with n.
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
    hits = sum(int((c >= count_min).sum()) for c in _trace_counts(n, m, cols, trials, seed))
    return _monte_carlo_report(params, trials, seed, hits, bound, trials)


def _trace_counts(n: int, m: int, cols: np.ndarray, trials: int, seed: int):
    """|X^{(r)} cap T| for ``trials`` seeded uniform m-subsets X of
    {0..n-1}, the trace lemma's draws: one count vector per batch of
    ``_TRACE_ROWS`` rows.  ``cols[j]`` holds the j-th smallest element of
    every member of T.

    X is picked by selection sampling: the urn walks the elements 0, 1, ...
    in order with m of the n marked, and element j joins X when draw j
    hits.  Only X's elements in T's members matter, so the walk stops
    after top = T's largest element + 1 steps, and its ``(top, rows)``
    membership rows are the whole of X the count needs; a member counts
    when the rows at all its elements are set.
    """
    import numpy as np

    top = int(cols.max(initial=-1)) + 1
    for rows, gen in _batches(trials, seed, _TRACE_ROWS):
        picked = np.empty((top, rows), dtype=bool)
        _urn(gen, n, m, top, rows, picked)
        # at r = 0 the one possible member, the empty set, lies in every X
        inside = np.ones((cols.shape[1], rows), dtype=bool)
        for col in cols:
            inside &= picked[col]
        yield np.count_nonzero(inside, axis=0)
