"""Down-set embeddings and randomized cube location in dense truncated families.

Two routes into a host family are provided.  The deterministic one maps a
poset injectively onto down-sets, so any induced copy of a (truncated)
cube pulls back to an induced copy of the poset.  The randomized one
locates an m-dimensional cube inside a family containing almost all of
the nonempty small subsets of [n]: sample a Bernoulli vertex set, delete
one vertex from every missing subset it contains, and shrink.  A copy of
a pattern is a plain tuple of masks indexed by the pattern's elements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CertificationError, PreconditionError
from .families import (
    MAX_GROUND,
    SetFamily,
    check_tolerance,
    dense_need,
    expand_mask,
    submasks_of_size,
)
from .posets import (
    DEFAULT_ORACLE_BUDGET,
    FinitePoset,
    contains_subposet,
    family_as_poset,
    verify_embedding_masks,
)

DEFAULT_EMBED_ATTEMPTS = 200


@dataclass(frozen=True)
class DenseTruncatedFamily:
    """Subsets of [n] of size <= m, with gaps.

    ``present`` holds the member masks; a co-small host is complemented
    by the caller first.  The class-membership test at tolerance eps is
    ``dense_class_check``: every layer within the truncation must retain
    a (1-eps) fraction of its binomial count.
    """

    n: int
    m: int
    present: frozenset

    def __post_init__(self):
        if not 0 <= self.m <= self.n <= MAX_GROUND:
            raise PreconditionError(
                f"need 0 <= m <= n <= {MAX_GROUND}, got m={self.m}, n={self.n}"
            )
        full = (1 << self.n) - 1
        for mask in self.present:
            if mask & ~full:
                raise PreconditionError(f"mask {mask:#x} leaves the ground set")
            size = mask.bit_count()
            if size > self.m:
                raise PreconditionError(f"mask of size {size} above truncation {self.m}")


def dense_class_check(fam: DenseTruncatedFamily, eps) -> bool:
    """True iff every truncation layer keeps at least a (1-eps) fraction."""
    eps = check_tolerance(eps)
    counts = Counter(mask.bit_count() for mask in fam.present)
    return all(counts[i] >= dense_need(eps, fam.n, i) for i in range(fam.m + 1))


def universality_epsilon(m: int) -> Fraction:
    """Density tolerance 1/(2m)^(m+1) under which cube location succeeds."""
    if m < 1:
        raise PreconditionError("tolerance formula needs m >= 1")
    return Fraction(1, (2 * m) ** (m + 1))


def downset_embedding(p: FinitePoset) -> tuple:
    """The masks of the down-sets {z : z <= x}, one per element x.

    Always an induced embedding into the nonempty subsets of [p.k]:
    inclusion of down-sets reproduces the order, and the reflexive bit
    keeps incomparable elements on incomparable masks.
    """
    images = tuple((1 << x) | p.below[x] for x in range(p.k))
    if not verify_embedding_masks(p, images, "induced"):
        raise CertificationError("down-set map failed the induced check")
    return images


@dataclass(frozen=True)
class CubeEmbedResult:
    """Outcome of randomized cube location.

    ``mask`` is the certified m-subset of [n] (None iff exhausted).
    """

    mask: Optional[int]
    attempts_used: int


def _certify_cube_copy(fam: DenseTruncatedFamily, x_mask: int) -> None:
    for size in range(fam.m + 1):
        for sub in submasks_of_size(x_mask, size):
            if sub not in fam.present:
                raise CertificationError(
                    f"cube certificate broken: {sub:#x} missing from family"
                )


def randomized_cube_embed(
    fam: DenseTruncatedFamily,
    seed: int,
    max_attempts: int = DEFAULT_EMBED_ATTEMPTS,
) -> CubeEmbedResult:
    """Find an m-subset X of [n], m = ``fam.m``, all of whose small subsets
    lie in ``fam``.

    The guarantee is S in fam for every S subseteq X with |S| <= m.  Per
    attempt: draw each element with probability 2m/n, delete the smallest
    element of each missing subset still contained (missing subsets
    processed by size, then element order), then keep the m smallest
    surviving elements.  Attempts use independent counter-based streams
    jumped off ``seed``, so results are reproducible.

    Raises PreconditionError when the family is too sparse or n < 2m --
    deliberately distinct from running out of attempts, which returns an
    exhausted result instead.
    """
    import numpy as np

    m = fam.m
    if m < 1:
        raise PreconditionError(f"need truncation m >= 1, got m={m}")
    if fam.n < 2 * m:
        raise PreconditionError(f"need n >= 2m, got n={fam.n}, m={m}")
    if not dense_class_check(fam, universality_epsilon(m)):
        raise PreconditionError(
            f"family is not dense enough at tolerance {universality_epsilon(m)}"
        )
    if max_attempts < 1:
        raise PreconditionError("need at least one attempt")

    n = fam.n
    p = 2 * m / n
    base = np.random.Philox(key=seed)

    for attempt in range(max_attempts):
        rng = np.random.Generator(base.jumped(attempt))
        x_mask = sum(1 << int(pos) for pos in np.flatnonzero(rng.random(n) < p))
        bad = [
            sub
            for size in range(m + 1)
            for sub in submasks_of_size(x_mask, size)
            if sub not in fam.present
        ]
        for sub in bad:
            if sub & x_mask == sub:    # still intact; drop its smallest element
                x_mask ^= sub & -sub
        if x_mask.bit_count() < m:
            continue
        shrunk = next(submasks_of_size(x_mask, m))     # its m smallest elements
        _certify_cube_copy(fam, shrunk)
        return CubeEmbedResult(shrunk, attempt + 1)
    return CubeEmbedResult(None, max_attempts)


def find_pattern_via_universality(
    host_fam: SetFamily,
    pattern: FinitePoset,
    *,
    seed: int = 0x5EED,
    attempts: int = DEFAULT_EMBED_ATTEMPTS,
    node_budget: Optional[int] = DEFAULT_ORACLE_BUDGET,
    stats: Optional[dict] = None,
) -> Optional[tuple]:
    """Induced copy of ``pattern`` among the members of ``host_fam``, as
    a tuple of member masks indexed by pattern element.

    A pattern on k elements embeds into the nonempty subsets of [k] by
    down-sets, so one full k-cube inside the host yields the pattern.
    When the host is dense among the small subsets, or else among the
    co-small ones (the host complemented, the dual pattern located and
    its copy flipped back), the cube comes from randomized location;
    otherwise a complete backtracking search looks for the pattern
    itself (a cube copy would contain one).
    The map is re-verified pairwise.  None means no copy exists (test it
    with ``is None``: the empty pattern's copy is ``()``); a budget stop
    raises SearchBudgetExceeded (the answer is unknown).

    When ``stats`` is a dict, "attempts_used" is written into it: the
    number of randomized draws consumed (0 for purely oracle routes).
    ``attempts`` is the draw limit of each orientation, at least 1.
    """
    if attempts < 1:
        raise PreconditionError("need at least one attempt")
    k = pattern.k
    n = host_fam.n
    if stats is not None:
        stats["attempts_used"] = 0
    if k == 0:
        return ()
    if k > len(host_fam):
        return None
    members = host_fam.members
    member_set = host_fam.member_set
    full = (1 << n) - 1

    def certified(images: tuple) -> tuple:
        if any(img not in member_set for img in images):
            raise CertificationError("composed image left the host family")
        if not verify_embedding_masks(pattern, images, "induced"):
            raise CertificationError("composed map failed the induced check")
        return images

    # Randomized route: host dense among small subsets, or among co-small
    # subsets (then locate the dual pattern in the complement and flip).
    if n >= 2 * k:
        for flip, oriented in ((0, pattern), (full, pattern.dual())):
            small = frozenset(flip ^ a for a in members if (flip ^ a).bit_count() <= k)
            dtf = DenseTruncatedFamily(n, k, small)
            if dense_class_check(dtf, universality_epsilon(k)):
                res = randomized_cube_embed(dtf, seed, attempts)
                if stats is not None:
                    stats["attempts_used"] += res.attempts_used
                if res.mask is not None:
                    psi = downset_embedding(oriented)
                    return certified(tuple(flip ^ expand_mask(s, res.mask) for s in psi))

    # Oracle route: search for the pattern itself.  A budget stop
    # propagates, since "not found" would read as absent.
    found = contains_subposet(family_as_poset(host_fam), pattern, "induced", node_budget)
    if found is None:
        return None
    return certified(tuple(members[i] for i in found))
