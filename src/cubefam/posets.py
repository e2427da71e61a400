"""Finite posets, standard constructions and containment testing.

The strict order of a poset on k elements is stored as k bitmask rows:
``above[i]`` has bit j set iff i < j.  This keeps the transitivity and
duality checks cheap, and lets the containment search work on whole sets
of host elements at once (the bit-vector method of Ullmann, "Bit-vector
algorithms for binary constraint satisfaction and subgraph isomorphism",
2010): the candidates for each pattern element are one int, the AND of
the chain-room mask, the unused elements and the rows of the images
already chosen.  Inclusion hosts are built the same way, from one column
bitset per ground element; the row helpers (``toggle_bits``,
``rows_from_columns``, ``peel``) also keep the extremal search's
incremental host.

``contains_subposet`` is the independent oracle the rest of the package
uses to validate every embedding it produces, so it re-verifies its own
output before returning it.  A copy is a plain tuple of images indexed by
the pattern's elements: host indices here, member masks in ``embeddings``
and ``extraction``.  It is a pattern-side plan (assignment
order, row rules, chain-room levels) run by one bitset loop; the same
loop with depth 0 pinned to one host element is ``AnchoredSearch``,
which finds the copies through a chosen element of a host that changes
in place (the extremal search's feasibility oracle).  It returns the
bare images; its caller certifies them against the sets they stand for.
The node budget counts one node per unused host element a depth's scan
passes over, in index order, whether or not it is a candidate.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    CertificationError,
    ParseError,
    PreconditionError,
    SearchBudgetExceeded,
    open_text,
)
from .families import mask_elements, parse_decimal, parse_header

CUBE_DIM_CAP = 5
# The node budget of the CLI's containment searches, weak and induced.
DEFAULT_ORACLE_BUDGET = 2_000_000


class FinitePoset:
    __slots__ = ("k", "above", "below")

    def __init__(self, k: int, pairs: Iterable[tuple[int, int]] = (), *, close: bool = False):
        """Poset on elements 0..k-1 with strict relation given by ``pairs``.

        With ``close=True`` the transitive closure of ``pairs`` is taken;
        otherwise the relation must already be transitive.  Irreflexivity
        and antisymmetry are always enforced.
        """
        if k < 0:
            raise PreconditionError("element count must be nonnegative")
        above = [0] * k
        for i, j in pairs:
            if not (0 <= i < k and 0 <= j < k):
                raise PreconditionError(f"relation ({i},{j}) outside 0..{k - 1}")
            if i == j:
                raise PreconditionError(f"reflexive relation ({i},{i})")
            above[i] |= 1 << j
        if close:
            _transitive_close(above)
        for i in range(k):
            if above[i] & (1 << i):
                raise PreconditionError(f"cycle through element {i}")
            for j in mask_elements(above[i]):
                if above[j - 1] & (1 << i):
                    raise PreconditionError(f"antisymmetry violated on ({i},{j - 1})")
                if above[j - 1] & ~above[i]:
                    raise PreconditionError(
                        f"relation not transitive at ({i},{j - 1}); pass close=True"
                    )
        below = [0] * k
        for i in range(k):
            toggle_bits(below, above[i], 1 << i)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "above", tuple(above))
        object.__setattr__(self, "below", tuple(below))

    def __setattr__(self, *_):
        raise AttributeError("FinitePoset is immutable")

    def lt(self, i: int, j: int) -> bool:
        return bool(self.above[i] & (1 << j))

    def comparable(self, i: int, j: int) -> bool:
        return i == j or self.lt(i, j) or self.lt(j, i)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j - 1) for i in range(self.k) for j in mask_elements(self.above[i])]

    def dual(self) -> "FinitePoset":
        return _from_rows(self.below, self.above)

    def is_chain(self) -> bool:
        return all(self.comparable(i, j) for i in range(self.k) for j in range(i + 1, self.k))

    def canonical_key(self) -> tuple:
        """Minimum relabeling of the relation; equal keys <=> isomorphic.

        Brute force over permutations -- only sensible for small k.
        """
        if self.k > 8:
            raise PreconditionError("canonical form is brute-force, k <= 8 only")
        best = None
        for perm in itertools.permutations(range(self.k)):
            rel = tuple(
                sorted((perm[i], perm[j]) for i, j in self.pairs())
            )
            if best is None or rel < best:
                best = rel
        return (self.k, best)

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.k == other.k and self.above == other.above

    def __hash__(self):
        return hash((self.k, self.above))

    def __repr__(self):
        return f"FinitePoset(k={self.k}, relations={sum(a.bit_count() for a in self.above)})"


def _from_rows(above: Sequence[int], below: Sequence[int]) -> FinitePoset:
    """A poset from rows already known to form a strict order; no validation."""
    p = object.__new__(FinitePoset)
    object.__setattr__(p, "k", len(above))
    object.__setattr__(p, "above", tuple(above))
    object.__setattr__(p, "below", tuple(below))
    return p


def _transitive_close(above: list[int]) -> None:
    k = len(above)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            acc = above[i]
            for j in mask_elements(above[i]):
                acc |= above[j - 1]
            if acc != above[i]:
                above[i] = acc
                changed = True


def make_chain(k: int) -> FinitePoset:
    """Total order on k elements, 0 < 1 < ... < k-1."""
    if k < 1:
        raise PreconditionError("a chain has at least one element")
    full = (1 << k) - 1
    return _from_rows(
        [full ^ ((2 << i) - 1) for i in range(k)], [(1 << i) - 1 for i in range(k)]
    )


def make_v() -> FinitePoset:
    """One bottom element below two incomparable tops (a < b, a < c)."""
    return FinitePoset(3, [(0, 1), (0, 2)])


def make_cube(m: int) -> FinitePoset:
    """The 2^m subsets of an m-set ordered by inclusion.

    Element index s stands for the subset with mask s, so s < t iff s is
    a proper subset of t.
    """
    if not 0 <= m <= CUBE_DIM_CAP:
        raise PreconditionError(f"cube dimension must be in [0, {CUBE_DIM_CAP}], got {m}")
    return family_as_poset(range(1 << m))


def family_as_poset(masks: Iterable[int]) -> FinitePoset:
    """Distinct masks ordered by strict inclusion; element i is the i-th mask.

    A ``SetFamily`` iterates its members in ascending order.  The rows are
    built from one column bitset per ground element (the members holding
    it) by ``rows_from_columns``.  Inclusion is transitive by
    construction, so ``FinitePoset``'s validation is skipped.
    """
    masks = list(masks)
    if masks and min(masks) < 0:
        raise PreconditionError("masks must be nonnegative")
    cols = [0] * max(masks, default=0).bit_length()
    bit = 1
    for a in masks:
        toggle_bits(cols, a, bit)
        bit <<= 1
    everyone = (1 << len(masks)) - 1
    above = []
    below = []
    bit = 1
    for a in masks:
        sup, sub = rows_from_columns(cols, a, everyone)
        above.append(sup ^ bit)
        below.append(sub ^ bit)
        bit <<= 1
    return _from_rows(above, below)


def toggle_bits(rows: list, where: int, bit: int) -> None:
    """rows[i] ^= bit for every i in the bitset ``where``."""
    while where:
        low = where & -where
        rows[low.bit_length() - 1] ^= bit
        where ^= low


def rows_from_columns(cols: Sequence[int], a: int, everyone: int) -> tuple:
    """(sup, sub): the members holding every point of ``a``, and those
    holding no point outside it.

    ``cols[p]`` is the bitset of members holding ground point p and
    ``everyone`` the set of all members; a member equal to ``a`` is in
    both.
    """
    sup = everyone
    out = 0                  # members holding a point outside a
    for col in cols:
        if a & 1:
            sup &= col
        else:
            out |= col
        a >>= 1
    return sup, everyone ^ out


def peel(rel: Sequence[int], rest: int, stop: int = 0) -> list[int]:
    """rooms[r]: the elements of ``rest`` with a chain of at least r
    elements of ``rest`` strictly below them, where ``rel[i]`` is the set
    of elements below i (pass the ``above`` rows to count chains above).

    Found by peeling off the minimal elements round by round, so
    ``len(rooms)`` is the height of ``rest``.  With ``stop`` > 0 the
    peeling ends once ``stop`` rooms are listed: ``len(rooms)`` is then
    min(height, stop), and a stop of 1 costs no round at all.
    """
    rooms = []
    while rest:
        rooms.append(rest)
        if len(rooms) == stop:
            break
        layer = 0
        scan = rest
        while scan:
            low = scan & -scan
            scan ^= low
            if not rel[low.bit_length() - 1] & rest:
                layer |= low
        rest ^= layer
    return rooms


def height(p: FinitePoset) -> int:
    """Size of the largest chain (counted in elements)."""
    return len(peel(p.below, (1 << p.k) - 1))


def verify_embedding_indices(
    host: FinitePoset, pattern: FinitePoset, images: Sequence[int], mode: str
) -> bool:
    """Pairwise check of an index embedding.  h < h' in the host exactly
    when the down-set of h lies strictly inside that of h', so the images'
    down-sets go through the mask check."""
    if any(not 0 <= h < host.k for h in images):
        return False
    return verify_embedding_masks(pattern, [host.below[h] | 1 << h for h in images], mode)


def verify_embedding_masks(pattern: FinitePoset, images: Sequence[int], mode: str) -> bool:
    """Is ``images`` an injective weak (or induced) copy of ``pattern``
    under strict inclusion?

    One row per pattern element x: the bitset of the y whose image
    strictly contains images[x].  It must contain ``pattern.above[x]``,
    and in induced mode equal it.
    """
    if len(images) != pattern.k or len(set(images)) != len(images):
        return False
    for x, want in enumerate(pattern.above):
        a = images[x]
        row = 0
        for y, b in enumerate(images):
            if a & ~b == 0:
                row |= 1 << y
        row ^= 1 << x  # images[x] contains itself, not strictly
        if (row if mode == "induced" else row & want) != want:
            return False
    return True


def contains_subposet(
    host: FinitePoset,
    pattern: FinitePoset,
    mode: str = "induced",
    node_budget: Optional[int] = None,
) -> Optional[tuple]:
    """Backtracking search for a weak or induced copy of ``pattern`` in ``host``.

    Returns the copy as a tuple of host indices, one per pattern element,
    re-verified pair by pair against ``host``; or None if no copy exists.
    If the node budget runs out first, raises SearchBudgetExceeded -- an
    explicit third outcome, distinct from absence.

    Pattern elements are assigned in decreasing comparability degree
    (``_search_plan``).  The candidates for the element at each depth
    form one bitset (``_search_loop``): the host elements with enough
    chain room (an element with a chain of length a below it needs an
    image with at least that much room below, and likewise above), minus
    the images in use, intersected with the ``above`` or ``below`` row of
    each image already assigned, and in induced mode with the complement
    of both rows for each incomparable pair.  Candidates are tried in
    ascending index order, so the first copy found is the first in
    lexicographic order of the images.

    A node is one unused host element passed over by the scan of a
    depth, feasible or not: each visit to a depth charges the unused
    elements up to and including each candidate tried, and the rest when
    the depth is exhausted.  The search stops as soon as more than
    ``node_budget`` nodes are charged, with ``exc.nodes ==
    node_budget + 1``.
    """
    if mode not in ("weak", "induced"):
        raise PreconditionError(f"bad mode {mode!r}")
    if pattern.k > host.k:
        return None
    if pattern.k == 0:
        return ()
    plan = _search_plan(pattern, mode)
    everyone = (1 << host.k) - 1
    # Rooms past the deepest level the plan reads are never indexed.
    stop = 1 + max(map(max, plan.levels))
    h_down = peel(host.below, everyone, stop)
    h_up = peel(host.above, everyone, stop)
    # room[d]: host elements with enough chain room for the element at depth d.
    room = [
        h_down[down] & h_up[up] if down < len(h_down) and up < len(h_up) else 0
        for down, up in plan.levels
    ]
    rules = _bind(plan, host_rows(host, mode))
    image = _search_loop(rules, room, everyone, None, node_budget)
    if image is None:
        return None
    images = tuple(image[plan.order.index(v)] for v in range(pattern.k))
    if not verify_embedding_indices(host, pattern, images, mode):
        raise CertificationError("search returned a map that fails re-verification")
    return images


def host_rows(host: FinitePoset, mode: str) -> tuple:
    """(above, below, apart): the rows the containment search reads.

    ``apart[i]`` is ``~(above[i] | below[i])``, the elements incomparable
    to i (and i itself); only induced mode reads it, so weak mode gets None.
    """
    apart = None
    if mode == "induced":
        apart = [~(a | b) for a, b in zip(host.above, host.below)]
    return host.above, host.below, apart


class AnchoredSearch:
    """Copies of ``pattern`` through one chosen element of a changing host.

    The host is given by its ``host_rows`` lists, which the owner may
    grow, shrink and edit in place between calls.  ``copy_through(anchor)``
    returns the images of a copy that uses the host element ``anchor``,
    indexed by pattern element, or None.  The images are not certified:
    the owner checks them against whatever the host elements stand for.
    When the host minus the anchor holds no copy, that settles whether
    the host does.

    The anchor's relations are read from its own rows only, since it is
    pinned at depth 0 and every later depth skips it as used.  So an
    owner may append a probe element's rows and call ``copy_through`` on
    it without entering it in the other elements' rows; those rows must
    form a strict order among themselves, and the anchor's rows must be
    its true relations to them.

    There is one search plan per orbit of Aut(pattern), pinning the
    orbit's first element to the anchor: a copy that sends w there,
    composed with an automorphism taking v to w, is a copy (weak or
    induced alike) that sends v there.  The orbits come from the same
    search: u is in v's orbit exactly when ``pattern`` has an induced copy
    in itself with v pinned to u, which, being a bijection, is an
    automorphism.  The later elements extend over the host with the
    candidate rule of ``contains_subposet``; the anchor's rows confine
    the candidates, so there is no chain-room pruning.
    """

    def __init__(self, pattern: FinitePoset, mode: str, rows: tuple):
        if mode not in ("weak", "induced"):
            raise PreconditionError(f"bad mode {mode!r}")
        self.pattern = pattern
        self.rows = rows
        self.plans = []
        everyone = (1 << pattern.k) - 1
        own_rows = host_rows(pattern, "induced")
        covered = 0
        for v in range(pattern.k):
            if covered >> v & 1:
                continue
            plan = _search_plan(pattern, mode, v)
            depth_of = tuple(plan.order.index(u) for u in range(pattern.k))
            self.plans.append((depth_of, _bind(plan, rows)))
            onto = _bind(_search_plan(pattern, "induced", v), own_rows)
            for u in range(v, pattern.k):
                if _search_loop(onto, [everyone] * pattern.k, everyone, u) is not None:
                    covered |= 1 << u

    def copy_through(self, anchor: int) -> Optional[tuple]:
        everyone = (1 << len(self.rows[0])) - 1
        everywhere = [everyone] * self.pattern.k
        for depth_of, rules in self.plans:
            image = _search_loop(rules, everywhere, everyone, anchor)
            if image is not None:
                return tuple(image[d] for d in depth_of)
        return None


class _Plan(NamedTuple):
    """The pattern side of the containment search (see ``_search_plan``)."""

    order: tuple
    rules: tuple
    levels: tuple


def _search_plan(pattern: FinitePoset, mode: str, anchor: Optional[int] = None) -> _Plan:
    """The assignment order, row rules and pattern room levels of a search.

    ``order`` lists the pattern elements by depth: decreasing
    comparability degree, or, with an anchor, the anchor first and then
    each time the element comparable to the most placed ones (ties by
    degree).  Remaining ties go to the lower index.  ``rules[d]`` holds
    pairs (e, kind) for earlier depths e: the candidates at depth d are
    ANDed with row ``kind`` of ``host_rows`` (0 above, 1 below, 2 apart)
    at the image of order[e].  ``levels[d]`` is (down, up), the number
    of elements on the longest chain strictly below and strictly above
    order[d] in the pattern.
    """
    k = pattern.k
    related = [a | b for a, b in zip(pattern.above, pattern.below)]
    degree = [r.bit_count() for r in related]
    if anchor is None:
        order = sorted(range(k), key=lambda v: (-degree[v], v))
    else:
        order = [anchor]
        placed = 1 << anchor
        while len(order) < k:
            v = min(
                (v for v in range(k) if not placed >> v & 1),
                key=lambda v: (-(related[v] & placed).bit_count(), -degree[v], v),
            )
            order.append(v)
            placed |= 1 << v
    everyone = (1 << k) - 1
    p_down = peel(pattern.below, everyone)
    p_up = peel(pattern.above, everyone)
    rules = []
    levels = []
    for d, v in enumerate(order):
        rule = []
        for e, u in enumerate(order[:d]):
            if pattern.above[u] >> v & 1:
                rule.append((e, 0))
            elif pattern.below[u] >> v & 1:
                rule.append((e, 1))
            elif mode == "induced":
                rule.append((e, 2))
        rules.append(tuple(rule))
        levels.append((sum(m >> v & 1 for m in p_down) - 1, sum(m >> v & 1 for m in p_up) - 1))
    return _Plan(tuple(order), tuple(rules), tuple(levels))


def _bind(plan: _Plan, rows: tuple) -> list:
    """A plan's rules with each row kind replaced by that row list of ``rows``."""
    return [[(e, rows[kind]) for e, kind in rule] for rule in plan.rules]


def _search_loop(
    rules: list,
    room: Sequence[int],
    everyone: int,
    anchor: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> Optional[list]:
    """The bitset backtracking of ``contains_subposet``: images by depth, or None.

    ``rules`` is a plan bound to the host rows (``_bind``), ``everyone``
    the set of host elements and ``room[d]`` a bound on the candidates at
    depth d; with an anchor, depth 0 is confined to that one element.
    Nodes are charged, and the budget enforced, as ``contains_subposet``
    describes.
    """
    k = len(rules)
    image = [0] * k      # image of order[d]
    cand = [0] * k       # candidates at depth d not yet tried
    rest = [0] * k       # unused elements the scan at depth d has not passed
    cand[0] = room[0] if anchor is None else room[0] & (1 << anchor)
    rest[0] = everyone
    used = 0
    nodes = 0
    d = 0
    while True:
        c = cand[d]
        if c:
            low = c & -c
            cand[d] = c ^ low
            passed = rest[d] & ((low << 1) - 1)    # the scan reaches the candidate
        else:
            passed = rest[d]                       # the scan runs to the end
        rest[d] ^= passed
        nodes += passed.bit_count()
        if node_budget is not None and nodes > node_budget:
            raise SearchBudgetExceeded(
                f"subposet search exceeded {node_budget} nodes", nodes=node_budget + 1
            )
        if not c:
            d -= 1
            if d < 0:
                return None
            used ^= 1 << image[d]
            continue
        image[d] = low.bit_length() - 1
        if d + 1 == k:
            return image
        used |= low
        d += 1
        free = everyone ^ used
        c = room[d] & free
        for e, row in rules[d]:
            c &= row[image[e]]
        cand[d] = c
        rest[d] = free


def enumerate_posets(k: int) -> list[FinitePoset]:
    """All posets on k elements, one per isomorphism class.

    Every finite poset has a linear extension, so it suffices to scan
    relations contained in the upper triangle and deduplicate by
    canonical key.  Counts for k = 1..5: 1, 2, 5, 16, 63.
    """
    if not 0 <= k <= 5:
        raise PreconditionError("exhaustive poset enumeration supported for k <= 5")
    slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
    seen: dict[tuple, FinitePoset] = {}
    for choice in range(1 << len(slots)):
        pairs = [slots[b] for b in range(len(slots)) if choice & (1 << b)]
        try:
            p = FinitePoset(k, pairs)
        except PreconditionError:        # upper-triangle pairs fail only on transitivity
            continue
        seen.setdefault(p.canonical_key(), p)
    return [seen[key] for key in sorted(seen)]


# ---------------------------------------------------------------------------
# Poset file format: "k=<int>" header, then relation lines "<i> < <j>"
# (0-based).  The transitive closure is taken on load.


def parse_poset(lines: Iterable[str]) -> FinitePoset:
    it = iter(lines)
    k = parse_header(it, "k", "poset", "element count")
    pairs = []
    for lineno, raw in enumerate(it, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("<")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<i> < <j>', got {line!r}")
        try:
            i, j = parse_decimal(parts[0]), parse_decimal(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad cover relation {line!r}") from None
        pairs.append((i, j))
    try:
        return FinitePoset(k, pairs, close=True)
    except PreconditionError as exc:
        raise ParseError(f"relation list is not a poset: {exc}") from None


def read_poset(path) -> FinitePoset:
    with open_text(path, "ascii", "poset file") as fh:
        return parse_poset(fh)
