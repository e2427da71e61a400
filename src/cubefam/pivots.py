"""Pivots, anti-pivots, flexibility, fatness, and their mass bounds.

An r-pivot of a base set A records that swapping some r-subset X out of
A (for an equal-sized Y from outside) lands in the family; the landing
set is the witness.  Anti-pivots move a set in instead of out.  Witness
existence depends only on members of the family of size |A|, a fact the
exhaustive bound search below exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .concentration import at_most, concentration_constants, fat_mass_bound
from .errors import PreconditionError
from .families import (
    SetFamily,
    check_tolerance,
    dense_need,
    lubell_mass,
    submasks_of_size,
)


@dataclass(frozen=True)
class PivotRecord:
    base: int
    moved: int       # X (subset of base) for pivots, Y (outside base) for anti-pivots
    witness: int     # member of the family, equal in size to base
    kind: str        # "pivot" | "anti-pivot"
    r: int


@dataclass(frozen=True)
class PivotSet:
    """All r-(anti-)pivots of one base set, each with one chosen witness."""

    base: int
    r: int
    kind: str
    pivots: tuple                 # moved-set masks, ascending
    witness_of: dict = field(compare=False)

    def __len__(self):
        return len(self.pivots)

    def records(self) -> list:
        return [
            PivotRecord(self.base, x, self.witness_of[x], self.kind, self.r)
            for x in self.pivots
        ]


def _landings(member_set, universe: int, A: int, r: int, anti: bool):
    """The one swap scanner: (moved, landing) for each moved r-set.

    Moved sets come in ``submasks_of_size`` order; the landing is the
    lex-least (by ``mask_elements``) family member the swap reaches, or
    None.  Two landings of one moved set differ exactly where the scanned
    parts differ -- Y for pivots, the kept part A \\ X for anti-pivots --
    and equal-sized sets compare lexicographically by the least element
    of their symmetric difference, so the first hit is the lex-least one.
    """
    outside = universe & ~A
    if anti:
        keep = A.bit_count() - r         # below 0: no X to swap out, no landing
        kept = list(submasks_of_size(A, keep)) if keep >= 0 else []
        for y in submasks_of_size(outside, r):
            yield y, next((k | y for k in kept if k | y in member_set), None)
    else:
        ins = list(submasks_of_size(outside, r))
        for x in submasks_of_size(A, r):
            k = A & ~x
            yield x, next((k | y for y in ins if k | y in member_set), None)


def pivots_in_universe(member_set, universe: int, A: int, r: int, anti: bool = False) -> PivotSet:
    """The r-pivots of A (r-anti-pivots with ``anti``) within ``universe``.

    Pivots are the r-subsets X of A swappable for some Y outside A into
    the family; anti-pivots the outside r-sets Y swappable into A.  A
    itself need not belong to the family (only the witness must), except
    in the r=0 convention where A is its own witness.  r > |A| yields an
    empty result, not an error.  The extraction pipeline passes interval
    sub-universes in original coordinates, the CLI a family's ground set.
    """
    if A & ~universe:
        raise PreconditionError("base set leaves the universe")
    if r < 0:
        raise PreconditionError("order r must be nonnegative")
    scan = _landings(member_set, universe, A, r, anti)
    found = {moved: w for moved, w in scan if w is not None}
    pivots = tuple(sorted(found))
    kind = "anti-pivot" if anti else "pivot"
    return PivotSet(A, r, kind, pivots, {x: found[x] for x in pivots})


def validate_record(fam: SetFamily, rec: PivotRecord) -> None:
    """Raise unless ``rec`` satisfies the structural pivot invariants."""
    if rec.kind not in ("pivot", "anti-pivot"):
        raise PreconditionError(f"bad record kind {rec.kind!r}")
    if rec.r < 0:
        raise PreconditionError("record order must be nonnegative")
    if rec.witness not in fam.member_set:
        raise PreconditionError("witness is not a family member")
    full = fam.full_mask
    if (rec.base | rec.moved | rec.witness) & ~full:
        raise PreconditionError("record leaves the ground set")
    if rec.r == 0:
        if rec.moved != 0 or rec.witness != rec.base:
            raise PreconditionError("0-swap records must move nothing and witness the base")
        return
    if rec.moved.bit_count() != rec.r:
        raise PreconditionError("moved set has the wrong size")
    x = rec.base & ~rec.witness       # what left the base
    y = rec.witness & ~rec.base       # what came in
    if x.bit_count() != rec.r or y.bit_count() != rec.r:
        raise PreconditionError("witness is not an r-swap of the base")
    expected = x if rec.kind == "pivot" else y
    if rec.moved != expected:
        raise PreconditionError("moved set does not match the witness decomposition")


def observation_check(fam: SetFamily, rec: PivotRecord) -> bool:
    """Test oracle: comparabilities with the witness factor through the swap.

    For a pivot record, every family member F below the base satisfies
    F below witness iff F misses X.  For an anti-pivot record, every F
    above the base satisfies witness below F iff F covers Y.  Always
    true for structurally valid records; anything else is a bug.
    """
    validate_record(fam, rec)
    b, w = rec.base, rec.witness
    if rec.kind == "pivot":
        for f in fam.members:
            if f & ~b:
                continue
            if (f & ~w == 0) != (f & rec.moved == 0):
                return False
    else:
        for f in fam.members:
            if b & ~f:
                continue
            if (w & ~f == 0) != (rec.moved & ~f == 0):
                return False
    return True


def flex_need(gamma, pool: int, r: int) -> int:
    """Pivots a base needs to be flexible: a (1-gamma) share of the
    C(pool, r) moved sets, and never vacuous (at least one swap must exist
    even when the proportional demand rounds to zero)."""
    return max(1, dense_need(gamma, pool, r))


def flexible_in_universe(
    member_set, universe: int, A: int, gamma, r: int, *, anti: bool = False
) -> bool:
    """Does A have at least max(1, (1-gamma) C(pool, r)) r-(anti-)pivots
    within ``universe``?

    The threshold is compared in exact rational arithmetic; the pool is
    A itself for pivots and its complement in ``universe`` for
    anti-pivots.
    """
    gamma = check_tolerance(gamma, "gamma")
    if A & ~universe:
        raise PreconditionError("base set leaves the universe")
    pool = (universe & ~A).bit_count() if anti else A.bit_count()
    need = flex_need(gamma, pool, r)
    # Scan until the count is decided: reached, or out of reach of the
    # moved sets not yet scanned.
    count, left = 0, math.comb(pool, r)
    scan = _landings(member_set, universe, A, r, anti)
    while count < need <= count + left:
        count += next(scan)[1] is not None
        left -= 1
    return count >= need


def is_fat(X: int, S, eps, r: int) -> bool:
    """Is at least a (1-eps) share of X's r-subsets inside S?

    S is a set of r-subset masks; its members outside X are ignored.
    """
    eps = check_tolerance(eps, "fatness tolerance")
    width = X.bit_count()
    if len(S) < math.comb(width, r):
        count = sum(1 for s in S if s & ~X == 0)
    else:
        count = sum(1 for t in submasks_of_size(X, r) if t in S)
    return count >= dense_need(eps, width, r)


@dataclass(frozen=True)
class MassBoundReport:
    """Outcome of checking a mass bound against its hypotheses.

    ``satisfied`` is None when the hypotheses failed (the bound then
    says nothing); the bound itself may exceed binary64 range, hence
    the loose type.
    """

    hypothesis_ok: bool
    detail: str
    mass: Fraction
    bound: object
    satisfied: Optional[bool]


def flexibility_mass_bound(gamma, r: int) -> Fraction:
    """The bound r + 2 r^2 / gamma on the mass of flexibility-free families."""
    gamma = check_tolerance(gamma, "gamma")
    if r < 0:
        raise PreconditionError("order r must be nonnegative")
    return r + Fraction(2 * r * r) / gamma


def verify_flexibility_bound(fam: SetFamily, gamma, r: int) -> MassBoundReport:
    """Check: no flexible member and small members force small mass."""
    gamma = Fraction(gamma)
    bound = flexibility_mass_bound(gamma, r)
    mass = lubell_mass(fam)
    n = fam.n
    oversized = [a for a in fam.members if 2 * a.bit_count() > n]
    if oversized:
        return MassBoundReport(
            False,
            f"{len(oversized)} members exceed half the ground size",
            mass, bound, None,
        )
    flexible = [
        a for a in fam.members
        if flexible_in_universe(fam.member_set, fam.full_mask, a, gamma, r)
    ]
    if flexible:
        return MassBoundReport(
            False, f"{len(flexible)} members are flexible", mass, bound, None
        )
    return MassBoundReport(True, "hypothesis holds", mass, bound, mass <= bound)


def verify_fat_mass_bound(fam: SetFamily, S: Iterable[int], eps) -> MassBoundReport:
    """Check: an almost-complete S with no fat member forces small mass.

    S is a nonempty set of r-subsets, one r for all; the bound is the
    mpmath value of m0 + 1/(1 - exp(-c)), compared by ``at_most``.
    """
    eps = Fraction(eps)
    s_set = frozenset(S)
    sizes = sorted({s.bit_count() for s in s_set})
    if len(sizes) > 1:
        raise PreconditionError(f"S mixes subset sizes {sizes}")
    if not sizes:
        raise PreconditionError("empty S has no order r")
    r = sizes[0]
    n = fam.n
    consts = concentration_constants(eps, r)
    bound = fat_mass_bound(eps, r)
    mass = lubell_mass(fam)
    if len(s_set) < dense_need(consts.eta, n, r):
        return MassBoundReport(
            False,
            f"S keeps less than a (1 - {consts.eta}) fraction of the r-sets",
            mass, bound, None,
        )
    fat = [a for a in fam.members if is_fat(a, s_set, eps, r)]
    if fat:
        return MassBoundReport(
            False, f"{len(fat)} members are fat", mass, bound, None
        )
    return MassBoundReport(True, "hypothesis holds", mass, bound, at_most(mass, bound))


# ---------------------------------------------------------------------------
# Search for the worst case of the flexibility bound.  Witnesses share the
# base's size, so flexibility decomposes layer by layer and the global
# maximum is a sum of independent per-layer maxima.


def max_flexfree_layer(n: int, k: int, gamma, r: int) -> tuple:
    """Exhaustive max count of a k-layer family with no flexible member.

    Depth-first over the C(n,k) masks, maintaining the distinct pivot
    swap-sets of every chosen member; counts only grow when members are
    added, so a threshold hit prunes the whole include-branch.
    """
    gamma = check_tolerance(gamma, "gamma")
    if r == 0:
        # Every member 0-witnesses itself, so only the empty family
        # avoids flexibility (matching the bound's value of 0).
        return 0, ()
    limit = flex_need(gamma, k, r)    # forbidden count
    masks = list(submasks_of_size((1 << n) - 1, k))
    chosen: list = []
    swaps: list = []                                  # parallel: sets of pivot X-masks
    best_count = 0
    best_masks: tuple = ()

    def grow(c: int) -> Optional[tuple]:
        # The swap-sets c would add to chosen members, and c's own; None
        # if some count would reach the forbidden threshold.
        additions = []
        c_swaps = set()
        for a, a_swaps in zip(chosen, swaps):
            x = a & ~c
            if x.bit_count() != r:
                continue
            if x not in a_swaps:
                if len(a_swaps) + 1 >= limit:
                    return None
                additions.append((a_swaps, x))
            c_swaps.add(c & ~a)
        if len(c_swaps) >= limit:
            return None
        return additions, c_swaps

    taken: list = []      # per decided mask: what choosing it grew, None if left out
    while True:
        idx = len(taken)
        if len(chosen) + (len(masks) - idx) > best_count:
            if idx == len(masks):
                best_count, best_masks = len(chosen), tuple(chosen)
            else:
                grown = grow(masks[idx])
                if grown is not None:
                    for a_swaps, x in grown[0]:
                        a_swaps.add(x)
                    chosen.append(masks[idx])
                    swaps.append(grown[1])
                taken.append(grown)
                continue
        # Back up to the deepest chosen mask and leave it out instead.
        while taken and taken[-1] is None:
            taken.pop()
        if not taken:
            return best_count, best_masks
        for a_swaps, x in taken.pop()[0]:
            a_swaps.discard(x)
        chosen.pop()
        swaps.pop()
        taken.append(None)


def max_flexfree_mass(n: int, gamma, r: int) -> tuple:
    """Exact maximum mass over families with no flexible member, sizes <= n/2.

    Returns (mass, masks).  Exhaustive -- intended for small n; the
    per-layer searches are independent, which is what makes it feasible.
    """
    total = Fraction(0)
    family: list = []
    for k in range(n // 2 + 1):
        count, masks = max_flexfree_layer(n, k, gamma, r)
        total += Fraction(count, math.comb(n, k))
        family.extend(masks)
    return total, tuple(sorted(family))
