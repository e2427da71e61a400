"""Exact desk-scale optima: largest families avoiding a pattern.

Branch and bound over the 2^n candidate masks, middle layers first.
Feasibility is incremental: the chosen members keep their inclusion rows
on a stack, and since they are pattern-free, a candidate x is feasible
unless some copy uses x.  For a chain pattern that is the longest chain
through x (peeled from x's rows); otherwise ``posets.AnchoredSearch``
looks only for copies through x.  The upper bound comes from a symmetric
chain decomposition of the cube: a family that avoids a k-element
pattern weakly can keep at most k-1 members of any chain, since a chain
absorbs every poset of its size order-preservingly.  A run stops as
soon as its best family meets the root bound, which proves it optimal.

Symmetric copies are rejected by an orbit rule (the lex-leader half of
McKay's isomorph rejection, "Isomorph-free exhaustive generation", 1998).
The chosen members cut [n] into cells: points that lie in the same
members.  A mask is taken only if, in every cell, its points are that
cell's lowest points.  Sound: among the relabelings of a family, let F
be the one whose sorted search positions are lexicographically least,
with members x_1, x_2, ... in search order.  Say x_j fails the rule in
cell C, with a point p of C missing from x_j below a point q of x_j.
Swapping p and q fixes x_1..x_(j-1), which treat the points of C alike,
and maps x_j to a lower mask of its size, so an earlier position; the
swapped family's sorted positions are then lexicographically smaller,
against the choice of F.  So F passes the rule at every member, and the
search, which takes members in search order, reaches F unless its bound
already shows F cannot win.  Weights and pattern-freeness do not see
relabelings, so F scores as the family does.

Certificates are never trusted.  Each copy the oracle finds is mapped to
the member masks and re-checked against set inclusion
(``verify_embedding_masks``) once, when it is found, and a candidate is
rejected only on a re-checked copy whose members are all chosen.  The
reported family is re-checked by the independent containment searcher
before the result is returned.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import CertificationError, PreconditionError
from .families import SetFamily, lubell_mass, lubell_weights
from .posets import (
    AnchoredSearch,
    FinitePoset,
    contains_subposet,
    family_as_poset,
    height,
    make_chain,
    peel,
    toggle_bits,
    verify_embedding_masks,
)

_MIDDLE_LAYERS_CAP = 10
# The search lists all 2^n candidate masks before any node is charged,
# so larger grounds are refused up front.
_EXTREMAL_CAP = 16
# ``_Feasibility.probe`` when no rows are kept: no mask is negative.
_NO_PROBE = (-1, 0, 0)


def middle_layer_order(n: int) -> list:
    """Layer sizes from the middle outward, lower layer first on ties."""
    return sorted(range(n + 1), key=lambda k: (abs(2 * k - n), k))


def symmetric_chain_decomposition(n: int) -> dict:
    """mask -> chain id, for a partition of P[n] into symmetric chains.

    Bracket matching: scanning positions upward, each 0 closes the most
    recent unmatched 1.  Positions left unmatched form the chain's free
    run; its members are exactly the fills of that run by a final block
    of 1s, so clearing the free positions is a canonical chain id.  The
    free 1s of all masks come from one recurrence over the positions:
    position j either joins them (bit j set) or closes the highest one.
    """
    free = [0]                   # free 1s of each mask over positions < j
    for j in range(n):
        free = [f ^ (1 << f.bit_length() >> 1) for f in free] + [f | 1 << j for f in free]
    return {mask: mask ^ f for mask, f in enumerate(free)}


class _Feasibility:
    """May a mask join the chosen members?  Incremental, one stack deep.

    ``masks`` are the chosen members, in the order ``_Search`` took them:
    ``push`` on a take, ``pop`` on its undo.  ``cols[p]`` marks the
    members holding ground point p, and ``above``/``below``/``apart`` are
    the members' ``host_rows`` among themselves, indexed by member
    position, so a candidate's own rows cost O(n) big-int operations.
    The members are always pattern-free, so a copy in members + x must
    use x: chain patterns settle it by the chain lengths through x, other
    patterns search only the copies through x.  A probe appends x's own
    rows and pops them; ``AnchoredSearch`` reads the anchor's relations
    from its own rows only, so x is never entered in the members' rows.

    ``copies[x]`` keeps the other members of the last copy through x that
    passed ``verify_embedding_masks``, and ``chosen`` the members as a
    set.  A copy (weak or induced) depends only on its own masks, so while
    all of them stay chosen it is still a copy, and ``ok`` rejects x
    without a search.  The DFS asks about the same candidate again after
    every backtrack above it, so most rejections re-find a stored copy.
    Each copy is re-checked once, when found; the memo lives as long as
    the search.
    """

    def __init__(self, n: int, pattern: FinitePoset, mode: str):
        self.pattern = pattern
        self.mode = mode
        self.chain_k = pattern.k if pattern.is_chain() else None
        self.masks: list = []
        self.chosen: set = set()
        self.copies: dict = {}
        self.cols = [0] * n
        self.probe = _NO_PROBE
        self.above: list = []
        self.below: list = []
        self.apart = [] if mode == "induced" and self.chain_k is None else None
        if self.chain_k is None:
            self.through = AnchoredSearch(pattern, mode, (self.above, self.below, self.apart))

    def _rows_of(self, x: int) -> tuple:
        """(up, down): the members strictly above and strictly below x.

        ``up`` is the AND of the columns of x's points and ``down`` the
        members holding no point outside x (a member equal to x would be
        in both).  The last rows found are kept in ``probe`` until a push
        or pop changes the columns, so ``push(x)`` after ``ok(x)`` reuses
        them.
        """
        if self.probe[0] != x:
            everyone = (1 << len(self.masks)) - 1
            up = everyone
            out = 0                  # members holding a point outside x
            a = x
            for col in self.cols:
                if a & 1:
                    up &= col
                else:
                    out |= col
                a >>= 1
            self.probe = (x, up, everyone ^ out)
        return self.probe[1:]

    def ok(self, x: int) -> bool:
        if self.chain_k is not None:
            # The longest chain through x: one below it, x, one above it.
            # Each height is peeled only up to spare + 1, so P2 costs O(1).
            up, down = self._rows_of(x)
            spare = self.chain_k - 2
            spare -= len(peel(self.below, down, spare + 1))
            return spare >= 0 and len(peel(self.below, up, spare + 1)) <= spare
        known = self.copies.get(x)
        if known is not None and self.chosen.issuperset(known):
            return False
        self._append(x, *self._rows_of(x))
        image = self.through.copy_through(len(self.masks) - 1)
        copy = None if image is None else [self.masks[i] for i in image]
        self._drop()
        if copy is None:
            return True
        if not verify_embedding_masks(self.pattern, copy, self.mode):
            raise CertificationError("oracle returned a map that fails re-verification")
        self.copies[x] = tuple(m for m in copy if m != x)
        return False

    def push(self, x: int) -> None:
        up, down = self._rows_of(x)
        bit = 1 << len(self.masks)
        self._flip(x, bit)
        self._append(x, up, down)
        self._relink(up, down, bit)
        self.chosen.add(x)

    def pop(self, x: int) -> None:
        up, down = self.above[-1], self.below[-1]
        self._drop()
        bit = 1 << len(self.masks)
        self._relink(up, down, bit)
        self._flip(x, bit)
        self.chosen.remove(x)

    def _flip(self, x: int, bit: int) -> None:
        """Enter (or remove) the member at ``bit`` in the columns of x's
        points; the rows kept in ``probe`` go stale."""
        toggle_bits(self.cols, x, bit)
        self.probe = _NO_PROBE

    def _append(self, x: int, up: int, down: int) -> None:
        """Give x the rows of a new last member, in its own rows only."""
        self.masks.append(x)
        self.above.append(up)
        self.below.append(down)
        if self.apart is not None:
            self.apart.append(~(up | down))

    def _drop(self) -> None:
        self.masks.pop()
        self.above.pop()
        self.below.pop()
        if self.apart is not None:
            self.apart.pop()

    def _relink(self, up: int, down: int, bit: int) -> None:
        """Enter (or remove) the member at ``bit`` in its relatives' rows."""
        if up | down:
            toggle_bits(self.below, up, bit)
            toggle_bits(self.above, down, bit)
            if self.apart is not None:
                toggle_bits(self.apart, up | down, bit)

    def certify_free(self, members: list) -> None:
        found = contains_subposet(family_as_poset(members), self.pattern, self.mode)
        if found is not None:
            raise CertificationError(
                "search returned a family containing the pattern"
            )


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    mode: str
    objective: str
    value: Union[int, Fraction]
    family: SetFamily
    nodes: int
    wall_time: float
    exact: bool


class _Search:
    def __init__(self, n, pattern, mode, objective, budget):
        self.feas = _Feasibility(n, pattern, mode)
        self.budget = budget
        self.nodes = 0
        # Integer weights: 1 for cardinality, the integer Lubell weights
        # for the mass objective, so the bound arithmetic stays exact.
        if objective == "cardinality":
            self.scale = 1
            weight = [1] * (n + 1)
        else:
            self.scale, weight = lubell_weights(n)
        layers = [[] for _ in range(n + 1)]
        for m in range(1 << n):
            layers[m.bit_count()].append(m)
        self.cands = [m for s in middle_layer_order(n) for m in layers[s]]
        self.weights = [weight[m.bit_count()] for m in self.cands]
        if pattern.is_chain() or mode == "weak":
            cap = pattern.k - 1
            # Height <= k-1 splits the family into k-1 antichains, and an
            # antichain's mass never exceeds 1: a global cap on the value.
            self.mass_cap = cap * self.scale if objective == "lubell" else None
        else:
            cap = 1 << n        # induced non-chain: chains say nothing
            self.mass_cap = None
        # Chain bound: a chain keeps at most cap members.  Each chain is
        # decided middle-out and C(n, s) shrinks away from the middle, so
        # its undecided masks are a suffix of its search order with
        # non-decreasing weights, and the best r of them are the last r:
        # suffix[c][t] sums the weights of chain c from its t-th mask on.
        chain_of = symmetric_chain_decomposition(n)
        index: dict = {}
        self.chain_ids = [index.setdefault(chain_of[m], len(index)) for m in self.cands]
        chain_weights = [[] for _ in index]
        for c, w in zip(self.chain_ids, self.weights):
            chain_weights[c].append(w)
        self.suffix = [
            list(itertools.accumulate(reversed(ws), initial=0))[::-1]
            for ws in chain_weights
        ]
        self.cap = [min(cap, len(ws)) for ws in chain_weights]
        self.off = [len(ws) - c for ws, c in zip(chain_weights, self.cap)]
        self.decided = [0] * len(index)
        self.chosen_n = [0] * len(index)
        # The bound sums each chain's chosen weight and its best
        # undecided weight within cap (see ``_decide``); at the root
        # nothing is chosen or decided.
        self.bound = sum(s[o] for s, o in zip(self.suffix, self.off))
        # The chosen members cut [n] into cells: points in the same
        # members.  cells[-1] lists the cells of two or more points; a
        # take splits each of them (see ``_may_take``).
        self.cells = [[(1 << n) - 1] if n >= 2 else []]
        self.value = 0
        self.best = 0            # the empty family is always feasible
        self.best_members: tuple = ()

    def _decide(self, i: int, take: bool, sign: int) -> None:
        """Apply (sign 1) or undo (sign -1) the decision on position i.

        Chain c's best undecided weight within cap starts at index
        max(decided, off + chosen_n) of ``suffix[c]``; the bound moves
        by the chosen weight's change plus the change of that suffix.
        """
        c = self.chain_ids[i]
        suffix = self.suffix[c]
        off = self.off[c]
        before = suffix[max(self.decided[c], off + self.chosen_n[c])]
        self.decided[c] += sign
        if take:
            delta = sign * self.weights[i]
            self.chosen_n[c] += sign
            self.value += delta
            self.bound += delta
            # Undos come last in, first out: the last member is cands[i].
            x = self.cands[i]
            if sign > 0:
                self.feas.push(x)
                cells = self.cells[-1]
                if cells:        # deep in the search every cell is a point
                    cells = [
                        part
                        for cell in cells
                        for part in (cell & x, cell & ~x)
                        if part & (part - 1)
                    ]
                self.cells.append(cells)
            else:
                self.feas.pop(x)
                self.cells.pop()
        self.bound += suffix[max(self.decided[c], off + self.chosen_n[c])] - before

    def _may_take(self, i: int) -> bool:
        x = self.cands[i]
        c = self.chain_ids[i]
        # Orbit rule: in every cell, x's points are that cell's lowest.
        for cell in self.cells[-1]:
            y = x & cell
            if cell & ~y & ((1 << y.bit_length()) - 1):
                return False
        return self.chosen_n[c] < self.cap[c] and self.feas.ok(x)

    def run(self) -> tuple:
        """Depth-first, include before exclude; one node per visited position."""
        t0 = time.perf_counter()
        exact = True
        # A family that meets the root bound is optimal: stop there.
        top = self.bound if self.mass_cap is None else min(self.bound, self.mass_cap)
        taken: list = []         # the decision on each position so far
        while True:
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                exact = False
                break
            bound = self.bound
            if self.mass_cap is not None and self.mass_cap < bound:
                bound = self.mass_cap
            i = len(taken)
            if bound > self.best and i < len(self.cands):
                take = self._may_take(i)
                self._decide(i, take, 1)
                taken.append(take)
                if self.value > self.best:
                    self.best = self.value
                    self.best_members = tuple(self.feas.masks)
                    if self.best >= top:
                        break
                continue
            # Back up to the deepest include and exclude that position instead.
            while taken and not taken[-1]:
                taken.pop()
                self._decide(len(taken), False, -1)
            if not taken:
                break
            taken.pop()
            i = len(taken)
            self._decide(i, True, -1)
            self._decide(i, False, 1)
            taken.append(False)
        return self.best, self.best_members, self.nodes, time.perf_counter() - t0, exact


def extremal_search(
    n: int,
    pattern: FinitePoset,
    mode: str = "weak",
    objective: str = "cardinality",
    budget: Optional[int] = None,
) -> ExtremalResult:
    """Maximum size (or mass) of a pattern-avoiding family on [n].

    Exhaustive unless the node budget runs out first; a budget stop
    yields a best-found result with ``exact`` cleared, never a silent
    partial answer.
    """
    if n < 0 or n > _EXTREMAL_CAP:
        raise PreconditionError(f"ground size must be in [0, {_EXTREMAL_CAP}]")
    if budget is not None and budget < 0:
        raise PreconditionError(f"node budget must be nonnegative, got {budget}")
    if pattern.k == 0:
        raise PreconditionError("the empty pattern embeds in every family")
    if mode not in ("weak", "induced"):
        raise PreconditionError(f"mode must be weak|induced, got {mode!r}")
    if objective not in ("cardinality", "lubell"):
        raise PreconditionError(f"objective must be cardinality|lubell, got {objective!r}")
    search = _Search(n, pattern, mode, objective, budget)
    best, members, nodes, wall, exact = search.run()
    fam = SetFamily(n, members)
    search.feas.certify_free(list(members))
    if objective == "cardinality":
        value: Union[int, Fraction] = len(fam)
        if value != best:
            raise CertificationError("optimum does not match its certificate family")
    else:
        value = lubell_mass(fam)
        if value != Fraction(best, search.scale):
            raise CertificationError("optimum does not match its certificate family")
    return ExtremalResult(n, mode, objective, value, fam, nodes, wall, exact)


def middle_layers_number(pattern: FinitePoset, n: int) -> int:
    """Largest count of middle layers of P[n] with no weak pattern copy."""
    if n < 0 or n > _MIDDLE_LAYERS_CAP:
        raise PreconditionError(f"ground size must be in [0, {_MIDDLE_LAYERS_CAP}]")
    if pattern.k == 0:
        return 0
    if pattern.is_chain():
        # m consecutive layers have chains of exactly m members, and a
        # chain hosts any poset of its size, so the answer is k-1.
        return min(pattern.k - 1, n + 1)
    order = middle_layer_order(n)
    first_try = max(1, height(pattern))
    for m in range(first_try, n + 2):
        sizes = set(order[:m])
        host = family_as_poset(x for x in range(1 << n) if x.bit_count() in sizes)
        if contains_subposet(host, pattern, "weak") is not None:
            return m - 1
    return n + 1


def chain_mass_bound_check(n: int, k: int) -> dict:
    """Exhaustively confirm: mass of a k-chain-free family never beats k-1."""
    if n > 6 or k > 4:
        raise PreconditionError("exhaustive mass check is limited to n <= 6, k <= 4")
    if k < 1:
        raise PreconditionError("chain length must be positive")
    result = extremal_search(n, make_chain(k), "weak", "lubell")
    expected = Fraction(min(k - 1, n + 1))
    sizes = set(middle_layer_order(n)[: k - 1])
    layer_members = [x for x in range(1 << n) if x.bit_count() in sizes]
    layers_mass = lubell_mass(SetFamily(n, layer_members))
    if result.value != expected:
        raise CertificationError(
            f"mass optimum {result.value} differs from the expected {expected}"
        )
    return {
        "n": n,
        "k": k,
        "maximum": result.value,
        "expected": expected,
        "middle_layers_achieve": layers_mass == expected,
        "nodes": result.nodes,
        "ok": True,
    }
