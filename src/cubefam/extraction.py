"""The extraction pipeline: from a massive family to an induced pattern copy.

One step of the iteration halves the family by size, discards the
members that are inflexible or miss the accumulated pivot strata, and
takes a centred element of what survives; repeating at most 2m+1 times
drives either the flexibility order a or the anti-flexibility order b up
to m.  The pivot strata collected along the way, restricted to the final
gap X, form a dense truncated poset whose witnesses live in the original
family; locating a cube in it and composing with the down-set embedding
yields a certified induced copy of the pattern.

Two modes: "paper" uses the exact constant cascade, whose mass threshold
exceeds the Lubell mass of every family on at most 64 points, so a paper
run reports its honest constants and stops at the threshold check in
``build_sequences``; "override" accepts surrogate constants so the rest
of the pipeline runs at desk scale, on exact rationals throughout.
Every emitted embedding is verified pairwise; constants change what is
attempted, never what is accepted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .concentration import _MP_DPS, _mpf, _trace_rates, at_most, fat_mass_bound
from .embeddings import (
    DEFAULT_EMBED_ATTEMPTS,
    CubeEmbedResult,
    DenseTruncatedFamily,
    dense_class_check,
    downset_embedding,
    randomized_cube_embed,
    universality_epsilon,
)
from .errors import CertificationError, PreconditionError
from .families import (
    SetFamily,
    check_tolerance,
    compress_mask,
    expand_mask,
    lubell_mass,
    lubell_weights,
    mask_elements,
    mass_of_sizes,
)
from .pivots import (
    PivotSet,
    flex_need,
    flexibility_mass_bound,
    flexible_in_universe,
    is_fat,
    pivots_in_universe,
)
from .posets import FinitePoset, family_as_poset, verify_embedding_masks

_SOS_BIT_CAP = 20          # ground sizes up to this use the subset-sum tables

STATUS_OK = "ok"
STATUS_NO_MASS = "insufficient mass"
STATUS_AGGRESSIVE = "constants too aggressive"
STATUS_SMALL_X = "X too small"
STATUS_NOT_DENSE = "not dense enough"
STATUS_EXHAUSTED = "embed exhausted"

CASE_FLEX = "up"           # a-increment: new top boundary, pivot stratum
CASE_ANTI = "down"         # b-increment: new bottom boundary, anti-pivot stratum


# ---------------------------------------------------------------------------
# Centred elements.


def _centred(shifted: Sequence[int], universe: int) -> tuple:
    """A member whose relative mass below it covers the whole family's.

    Existence: a uniform maximal chain hits the family l(F) times in
    expectation, and conditioning on the highest hit only concentrates
    the count -- so some member must carry at least the average.
    Deterministic tie-break: smallest size, then smallest mask.

    A set A of size a has relative mass num / L below it, with (L, w) =
    ``lubell_weights(a)`` and num = sum_s cnt_s(A) w[s] an integer,
    cnt_s(A) counting the members of size s inside A, so candidates of
    one size class share the test num >= ceil(l(F) L).  Grounds of at
    most ``_SOS_BIT_CAP`` points take cnt_s from count tables in int64,
    one row per size s the members have, filled by a subset-sum
    transform.  num <= (a+1) L =
    lcm(1..a+1) <= lcm(1..21) = 232,792,560 < 2^28.  Larger grounds scan
    the family per candidate in Python ints.
    """
    import numpy as np

    members = sorted(set(shifted))
    members.sort(key=int.bit_count)  # stable: ascending mask within a size
    if not members:
        raise PreconditionError("centred element of an empty family")
    u = universe.bit_count()
    sizes = [f.bit_count() for f in members]
    total = mass_of_sizes(sizes, u)
    if u <= _SOS_BIT_CAP:
        row_sizes = sorted(set(sizes))
        row_of = {s: r for r, s in enumerate(row_sizes)}
        # compress onto u low bits: gather the universe's bits (uint64, as
        # a mask on 64 points may use bit 63)
        wide = np.array(members, dtype=np.uint64)
        comp = np.zeros(len(members), dtype=np.int64)
        for i, e in enumerate(mask_elements(universe)):
            comp |= ((wide >> np.uint64(e - 1)) & np.uint64(1)).astype(np.int64) << i
        tables = np.zeros((len(row_sizes), 1 << u), dtype=np.int64)
        tables[[row_of[s] for s in sizes], comp] = 1
        for i in range(u):
            view = tables.reshape(len(tables), -1, 2, 1 << i)
            view[:, :, 1, :] += view[:, :, 0, :]
    start = 0
    for a, group in itertools.groupby(sizes):
        stop = start + sum(1 for _ in group)
        lcm, w = lubell_weights(a)
        need = math.ceil(total * lcm)
        if u <= _SOS_BIT_CAP:
            weights = np.array([w[s] if s <= a else 0 for s in row_sizes], dtype=np.int64)
            nums = weights @ tables[:, comp[start:stop]]
            hits = np.flatnonzero(nums >= need)
            if hits.size:
                return members[start + hits[0]], Fraction(int(nums[hits[0]]), lcm)
        else:
            for k in range(start, stop):
                num = sum(w[s] for f, s in zip(members, sizes) if f & ~members[k] == 0)
                if num >= need:
                    return members[k], Fraction(num, lcm)
        start = stop
    raise CertificationError("no centred element found; the averaging argument failed")


def centred_element(fam: SetFamily) -> int:
    """Member A with mass below it >= l(F)."""
    mask, _ = _centred(fam.members, fam.full_mask)
    return mask


# ---------------------------------------------------------------------------
# The constant cascade.


@dataclass(frozen=True)
class ConstantCascade:
    """The tower of tolerances and mass constants driving the iteration.

    eps_j decreases through the 2m+1 possible steps; q dominates every
    fat-stratum mass, p every inflexible-stratum mass.  In paper mode q
    and the threshold are mpmath values (they exceed binary64); override
    mode carries exact rationals.  Only the threshold is ever compared in
    paper mode (see ``build_sequences``), so ``step_floor`` and
    ``step_demand`` take the override cascade's rationals.
    """

    m: int
    mode: str                  # "paper" | "override"
    eps_j: tuple               # Fractions, entry j-1 holds eps_j
    q: object
    p: Fraction
    threshold: object

    def eps_level(self, j: int) -> Fraction:
        if not 1 <= j <= 2 * self.m + 1:
            raise PreconditionError(f"tolerance level {j} out of range")
        return self.eps_j[j - 1]

    def step_floor(self, d: int):
        """Mass that must survive after step d (telescopes by halving)."""
        m = self.m
        qp = 2 * m * self.q + self.p
        k = 2 * m - d
        return (1 << k) * (2 * m + 1) + sum((1 << i) * qp for i in range(1, k + 1))

    def step_demand(self):
        """Mass a single step consumes: the dichotomy needs > 4mq + 2p."""
        return 4 * self.m * self.q + 2 * self.p


def _threshold_formula(m: int, q, p):
    """Exact for Fraction q and p; compute_cascade passes both as mpmath."""
    demand = 4 * m * q + 2 * p
    return (1 << (2 * m + 1)) * (2 * m + 1) + sum(
        (1 << i) * demand for i in range(1, 2 * m + 2)
    )


def compute_cascade(m: int, eps) -> ConstantCascade:
    """Exact cascade: eta shrinks the tolerance, h and f cap the strata.

    eps_(j+1) = eta(eps_j, m), the least of eps_j and eta(eps_j, i) over
    orders i <= m: eta(e, i+1) / eta(e, i) = e / 2^(i+2) <= 1 for i >= 1,
    eta(e, 1) = e/2 <= eta(e, 0) = 1/2, and eta(e, m) <= e/2 < e.
    All eps_j and p are exact rationals; q and the threshold are mpmath
    (finite for every m, but far beyond binary64 already at m = 2).

    q is the largest fat_mass_bound(eps_j, i) over j <= 2m and orders
    i <= m, and p the largest flexibility_mass_bound(eps_j, i) over
    j <= 2m+1 and i <= m.  Both bounds grow as the tolerance falls and as
    the order rises, and eps_j falls with j, so each maximum sits at its
    corner, (eps_2m, m) for q and (eps_(2m+1), m) for p, one call each:

    - p = i + 2 i^2 / eps rises with i and as eps falls.
    - fat_mass_bound(eps, i) = m0 + 1/(1 - e^-c), with c = 1 at i = 0 and
      c = eps^2/2^(3i-2) <= 1/2 from i = 1 on, so c falls as eps falls and
      as i rises, and 1/(1 - e^-c) rises.  m0 = i at i <= 1, and
      m0 = max(i, m*_i) from i = 2 on (``concentration_constants``).
    - m*_i rises as c falls.  R(m) of level (e, i) depends on e only
      through c, and for m > 2 both of its terms, exp(-g1 m) with
      g1 = c (2^(3i-5) - 1) and m e^(-c(m-2)), fall as c rises.  So if
      c' < c, the m*(c) - 1 >= m_dec(c) > 2 that fails at c fails at c';
      as in the chain argument of ``concentration_constants``, that puts
      m*(c') >= m*(c).  Hence m0 rises as eps falls.
    - m0 rises with i: m0(eps, 0) = 0 < 1 < 2 <= m0(eps, 2), and from
      i = 2 on m*_(i+1) at eps is at least m*_i at eps/2, plus one (the
      chain claim), which is at least m*_i at eps.
    """
    return cascade_of_levels(m, cascade_levels(m, eps))


def cascade_levels(m: int, eps) -> tuple:
    """The tolerances eps_0 = eps, .., eps_2m of ``compute_cascade``, with
    eps_(j+1) = eta(eps_j, m): exact rationals, found without the m*
    search behind q and p."""
    if m < 1:
        raise PreconditionError("pattern size m must be at least 1")
    eps_j = [check_tolerance(eps)]
    for _ in range(2, 2 * m + 2):
        eps_j.append(_trace_rates(eps_j[-1], m)[0])
    return tuple(eps_j)


def cascade_of_levels(m: int, eps_j: tuple) -> ConstantCascade:
    """The cascade of ``compute_cascade`` on the levels ``eps_j`` that
    ``cascade_levels(m, eps)`` gave: q, p and the threshold, by the m*
    search."""
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        q = fat_mass_bound(eps_j[2 * m - 1], m)
        p = flexibility_mass_bound(eps_j[2 * m], m)
        threshold = _threshold_formula(m, q, _mpf(p))
    return ConstantCascade(m, "paper", eps_j, q, p, threshold)


def override_cascade(m: int, q, p, eps=None) -> ConstantCascade:
    """Surrogate cascade with user constants, for desk-scale runs."""
    if m < 1:
        raise PreconditionError("pattern size m must be at least 1")
    q, p = Fraction(q), Fraction(p)
    if q < 0 or p < 0:
        raise PreconditionError("surrogate constants must be nonnegative")
    eps = universality_epsilon(m) if eps is None else check_tolerance(eps)
    eps_j = (eps,) * (2 * m + 1)
    return ConstantCascade(m, "override", eps_j, q, p, _threshold_formula(m, q, p))


# ---------------------------------------------------------------------------
# One step of the iteration.


@dataclass(frozen=True)
class StepOutcome:
    """Result of the one-step dichotomy on an interval family."""

    status: str                      # STATUS_OK / STATUS_NO_MASS / STATUS_AGGRESSIVE
    case: Optional[str]              # CASE_FLEX | CASE_ANTI
    element: Optional[int]           # Y: new boundary part, within the universe
    stratum: Optional[PivotSet]      # pivots (case up) / anti-pivots (case down)
    mass: Optional[Fraction]         # one-sided mass at the centred element
    fallback: bool = False


def _prune_and_centre(
    member_set: frozenset,
    universe: int,
    eps: Fraction,
    r: int,
    fats: Sequence[tuple],
) -> Optional[tuple]:
    """Case worker: keep the small half, drop inflexible and slim members,
    centre what remains.  Returns (Y, mass) or None if nothing survives."""
    u = universe.bit_count()
    lower = [f for f in member_set if 2 * f.bit_count() <= u]
    if r > 0:  # at r = 0 each member is its own 0-landing, hence flexible
        lower_set = frozenset(lower)
        lower = [f for f in lower if flexible_in_universe(lower_set, universe, f, eps, r)]
    if fats:  # the first step has no strata to be fat against
        lower = [
            f for f in lower if all(is_fat(f, s_masks, eps, s_r) for s_r, s_masks in fats)
        ]
    if not lower:
        return None
    return _centred(lower, universe)


def _step(
    member_set: frozenset,
    universe: int,
    d: int,
    a: int,
    b: int,
    fats: list,
    cascade: ConstantCascade,
) -> StepOutcome:
    m = cascade.m
    if not 0 <= d <= 2 * m:
        raise PreconditionError(f"step index d={d} out of range [0, {2 * m}]")
    if len(fats) != d:
        raise PreconditionError(f"expected {d} pivot strata, got {len(fats)}")
    u = universe.bit_count()
    sizes = [f.bit_count() for f in member_set]
    mass = mass_of_sizes(sizes, u)
    if mass <= cascade.step_demand():
        return StepOutcome(STATUS_NO_MASS, None, None, None, None)
    eps = cascade.eps_level(2 * m + 1 - d)

    lower_mass = mass_of_sizes((s for s in sizes if 2 * s <= u), u)
    order = (CASE_FLEX, CASE_ANTI) if lower_mass >= mass / 2 else (CASE_ANTI, CASE_FLEX)
    for which, case in enumerate(order):
        # The anti case runs the same worker on the family of complements,
        # then un-complements: a swap-out of the complement is a swap-in of
        # the original, so the stratum transfers verbatim.
        anti = case == CASE_ANTI
        r = b if anti else a
        pool = frozenset(universe ^ f for f in member_set) if anti else member_set
        got = _prune_and_centre(pool, universe, eps, r, fats)
        if got is None:
            continue
        y, y_mass = got
        element = universe ^ y if anti else y
        stratum = pivots_in_universe(member_set, universe, element, r, anti=anti)
        if len(stratum.pivots) < flex_need(eps, y.bit_count(), r):
            raise CertificationError(
                "stratum count contradicts the flexibility that selected it"
            )
        return StepOutcome(STATUS_OK, case, element, stratum, y_mass, which > 0)
    return StepOutcome(STATUS_AGGRESSIVE, None, None, None, None)


# ---------------------------------------------------------------------------
# The full sequence builder.


@dataclass(frozen=True)
class TraceStep:
    index: int
    case: str
    a: int
    b: int
    A: int
    B: int
    family_size: int
    stratum_r: int
    stratum_witness: dict                # moved mask -> witness, original coordinates
    step_mass: Fraction
    cond5_ok: Optional[bool]
    fallback: bool


@dataclass(frozen=True)
class ExtractionTrace:
    mode: str
    m: int
    n: int
    status: str
    steps: tuple
    t: int                               # final step index (-1 if none)
    branch: Optional[str]                # CASE_FLEX (a hit m) | CASE_ANTI (b hit m)
    warnings: tuple
    initial_mass: Fraction
    threshold: object


def build_sequences(fam: SetFamily, m: int, cascade: ConstantCascade) -> ExtractionTrace:
    """Iterate the dichotomy until the flexibility order reaches m.

    The threshold check on the initial mass is where a paper-mode run
    ends.  The threshold is 2^(2m+1) (2m+1) + sum_{i=1}^{2m+1} 2^i (4mq + 2p),
    with q > 1 (``fat_mass_bound`` is m0 + 1/(1 - e^-c)) and p >= 0, so
    it is above 80 for m = 1 and at least 160 for m >= 2; the Lubell mass
    of a family on n points is at most n + 1 <= MAX_GROUND + 1.  Past the
    check only override cascades run, on exact rationals, and an unmet
    threshold or per-step mass floor is recorded as a warning.

    An override run then stops before the first step, at ``STATUS_SMALL_X``
    with no steps, when n >> (m+1) < 2m: no completed branch could leave
    the 2m points in X that the strata need.  Each step's new gap is the
    centred member y of the small half of the old gap (in the anti case,
    of its complements), so |y| <= floor(u/2) for a gap of u points; and
    a branch completes only when a or b, both starting at -1, reaches m,
    which takes at least m+1 steps.  Halving m+1 times leaves
    |X| <= n >> (m+1).  Within ``MAX_GROUND`` = 64 points this leaves
    1-element patterns at n >= 8 and 2-element patterns at n >= 32, and
    no pattern of 3 or more elements.

    Structural claims of every step -- boundary membership, nesting, the
    halving of the gap, stratum witnesses, fatness of the running gap --
    are re-verified before the step is accepted.
    """
    if cascade.m != m:
        raise PreconditionError(f"cascade built for m={cascade.m}, asked for m={m}")
    n = fam.n
    warnings: list = []
    mass0 = lubell_mass(fam)
    if not at_most(cascade.threshold, mass0):
        if cascade.mode == "paper":
            return ExtractionTrace(
                cascade.mode, m, n, STATUS_NO_MASS, (), -1, None, (), mass0,
                cascade.threshold,
            )
        warnings.append("initial mass below the configured threshold")
    if n >> (m + 1) < 2 * m:
        warnings.append(
            f"every completed branch has |X| <= n >> (m+1) = {n >> (m + 1)} < 2m = {2 * m}"
        )
        return ExtractionTrace(
            cascade.mode, m, n, STATUS_SMALL_X, (), -1, None, tuple(warnings), mass0,
            cascade.threshold,
        )

    members = frozenset(fam.members)
    A, B = fam.full_mask, 0
    a = b = -1
    steps: list = []
    strata: list = []          # (r_i, frozenset moved masks) in original coordinates
    status = STATUS_OK

    for d in range(2 * m + 1):
        if a == m or b == m:
            break
        universe = A & ~B
        shifted = frozenset(f & universe for f in members)
        # The fatness hypothesis for this step: the strata restricted to
        # the current universe, which the end of step d-1 verified fat in it.
        fats = [
            (r_i, frozenset(s for s in masks if s & ~universe == 0))
            for r_i, masks in strata
        ]
        out = _step(shifted, universe, d, a + 1, b + 1, fats, cascade)
        if out.status != STATUS_OK:
            status = out.status
            break
        if out.fallback:
            warnings.append(f"step {d}: preferred half failed, fell back")

        if out.case == CASE_FLEX:
            a += 1
            new_A, new_B = B | out.element, B
            base = new_A
        else:
            b += 1
            new_A, new_B = A, B | out.element
            base = new_B
        witness_orig = {x: w | B for x, w in out.stratum.witness_of.items()}
        new_members = frozenset(
            f for f in members if new_B & ~f == 0 and f & ~new_A == 0
        )

        # --- structural re-verification ---
        if (B & ~new_B) or (new_A & ~A) or (new_B & ~new_A):
            raise CertificationError(f"step {d}: boundary nesting broken")
        if base not in members:
            raise CertificationError(f"step {d}: new boundary not a family member")
        gap = new_A & ~new_B
        if gap.bit_count() > universe.bit_count() // 2:
            raise CertificationError(f"step {d}: gap not halved")
        r_d = a if out.case == CASE_FLEX else b
        for x, w in witness_orig.items():
            if w not in members:
                raise CertificationError(f"step {d}: stratum witness left the family")
            moved_out, moved_in = base & ~w, w & ~base
            expected = moved_out if out.case == CASE_FLEX else moved_in
            if (
                moved_out.bit_count() != r_d
                or moved_in.bit_count() != r_d
                or x != expected
            ):
                raise CertificationError(f"step {d}: witness for {x:#x} malformed")
        eps_step = cascade.eps_level(2 * m + 1 - d)
        for r_i, masks in fats + [(r_d, frozenset(out.stratum.pivots))]:
            if not is_fat(gap, masks, eps_step, r_i):
                raise CertificationError(f"step {d}: new gap not fat for order {r_i}")

        step_mass = mass_of_sizes(
            ((f & gap).bit_count() for f in new_members), gap.bit_count()
        )
        # The centred element was chosen inside the pruned survivor family,
        # a subfamily of the interval: its one-sided mass is a lower bound.
        if step_mass < out.mass:
            raise CertificationError(
                f"step {d}: interval mass fell below the centred mass"
            )
        cond5 = step_mass >= cascade.step_floor(d)
        if not cond5:
            warnings.append(f"step {d}: mass floor not met (override mode)")

        steps.append(
            TraceStep(
                d, out.case, a, b, new_A, new_B,
                len(new_members), r_d, witness_orig,
                step_mass, cond5, out.fallback,
            )
        )
        strata.append((r_d, frozenset(out.stratum.pivots)))
        members, A, B = new_members, new_A, new_B

    # 2m+1 completed steps raise a + b from -2 to 2m-1, so when every step
    # succeeds one of the orders has reached m.
    branch = CASE_FLEX if a == m else CASE_ANTI if b == m else None
    t = steps[-1].index if steps else -1
    return ExtractionTrace(
        cascade.mode, m, n, status, tuple(steps), t, branch, tuple(warnings),
        mass0, cascade.threshold,
    )


# ---------------------------------------------------------------------------
# Witness assembly.


@dataclass(frozen=True)
class WitnessAssembly:
    """The pivot strata on the final gap X and their witness family."""

    status: str
    branch: Optional[str]
    X: int
    psi: dict                        # stratum member within X -> witness mask


def assemble_witnesses(trace: ExtractionTrace, fam: SetFamily) -> WitnessAssembly:
    """Restrict the strata to X = A_t \\ B_t and certify the witness map.

    The map sends each stratum member x to its recorded witness w_x.
    Certification is definitional: the map must be an induced copy of
    the strata -- ordered by reverse inclusion on the a-branch, by
    inclusion on the b-branch -- among the witnesses under strict
    inclusion.  Density on X is ``extract_induced_copy``'s check, not
    this one's.
    """
    if trace.status != STATUS_OK or trace.branch is None:
        raise PreconditionError(f"trace did not complete (status {trace.status!r})")
    m = trace.m
    last = trace.steps[-1]
    X = last.A & ~last.B
    case = trace.branch
    picked = [s for s in trace.steps if s.case == case]
    if [s.a if case == CASE_FLEX else s.b for s in picked] != list(range(m + 1)):
        raise CertificationError("branch steps do not carry orders 0..m")
    if X.bit_count() < 2 * m:
        return WitnessAssembly(STATUS_SMALL_X, case, X, {})

    psi: dict = {}
    member_set = fam.member_set
    for s in picked:
        for x in sorted(x for x in s.stratum_witness if x & ~X == 0):
            w = s.stratum_witness[x]
            if w not in member_set:
                raise CertificationError(f"witness {w:#x} is not in the family")
            if x in psi:
                raise CertificationError(f"stratum member {x:#x} appears twice")
            psi[x] = w

    # Every step at least halves the gap (re-verified in build_sequences),
    # so |X| <= n >> (m+1) and psi stays small.
    strata = family_as_poset(psi)
    if case == CASE_FLEX:
        strata = strata.dual()
    if not verify_embedding_masks(strata, list(psi.values()), "induced"):
        raise CertificationError("order mismatch between the strata and their witnesses")
    return WitnessAssembly(STATUS_OK, case, X, psi)


# ---------------------------------------------------------------------------
# End-to-end extraction.


@dataclass(frozen=True)
class ExtractionResult:
    """``map`` is the certified copy, a tuple of member masks indexed by
    pattern element, or None; the empty pattern's copy is ``()``."""

    status: str
    mode: str
    map: Optional[tuple]
    trace: Optional[ExtractionTrace]
    assembly: Optional[WitnessAssembly]
    embed: Optional[CubeEmbedResult]


def extract_induced_copy(
    fam: SetFamily,
    pattern: FinitePoset,
    overrides: Optional[dict] = None,
    *,
    seed: int = 0,
    attempts: int = DEFAULT_EMBED_ATTEMPTS,
) -> ExtractionResult:
    """Full pipeline; every stage feeds the next, any stage may stop it.

    With ``overrides`` (dict with q, p and optionally eps) the run is in
    override mode; otherwise the exact cascade is used, which stops at
    the mass threshold (see ``build_sequences``).  An override run with
    n >> (m+1) < 2m stops before the first step, at ``STATUS_SMALL_X``
    with an empty trace and no assembly: no completed branch could leave
    the 2m points in X that the strata need.  A returned map is always
    certified induced against the pattern.  ``attempts`` is the cube
    location's draw limit, at least 1.

    The density check before cube location, at min(eps_1,
    ``universality_epsilon(m)``), can only fail ("not dense enough") when
    eps_1 exceeds ``universality_epsilon(m)``: at or below it, the last
    step's fatness check on X at a tolerance of at most eps_1 already
    implies the density of every stratum.
    """
    if attempts < 1:
        raise PreconditionError("need at least one attempt")
    m = pattern.k
    if m == 0:
        return ExtractionResult(
            STATUS_OK, "override" if overrides else "paper", (), None, None, None
        )
    if overrides is not None:
        cascade = override_cascade(m, **overrides)
    else:
        cascade = compute_cascade(m, universality_epsilon(m))

    trace = build_sequences(fam, m, cascade)
    if trace.status != STATUS_OK:
        return ExtractionResult(trace.status, cascade.mode, None, trace, None, None)
    assembly = assemble_witnesses(trace, fam)
    if assembly.status != STATUS_OK:
        return ExtractionResult(assembly.status, cascade.mode, None, trace, assembly, None)

    X = assembly.X
    u = X.bit_count()
    present = frozenset(compress_mask(x, X) for x in assembly.psi)
    dtf = DenseTruncatedFamily(u, m, present)
    embed_eps = min(cascade.eps_level(1), universality_epsilon(m))
    if not dense_class_check(dtf, embed_eps):
        return ExtractionResult(STATUS_NOT_DENSE, cascade.mode, None, trace, assembly, None)
    res = randomized_cube_embed(dtf, seed, attempts)
    if res.mask is None:
        return ExtractionResult(STATUS_EXHAUSTED, cascade.mode, None, trace, assembly, res)

    psi_ds = downset_embedding(pattern)
    x_prime = res.mask
    images = []
    for e in range(m):
        s = expand_mask(psi_ds[e], x_prime)
        if assembly.branch == CASE_FLEX:
            s = x_prime ^ s           # complement within the located cube
        v = expand_mask(s, X)
        w = assembly.psi.get(v)
        if w is None:
            raise CertificationError("located cube left the certified strata")
        images.append(w)
    images = tuple(images)
    if not verify_embedding_masks(pattern, images, "induced"):
        raise CertificationError("composed extraction map failed the induced check")
    return ExtractionResult(STATUS_OK, cascade.mode, images, trace, assembly, res)
