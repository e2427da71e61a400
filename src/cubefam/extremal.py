"""Exact desk-scale optima: largest families avoiding a pattern.

Branch and bound over the 2^n candidate masks, middle layers first.
Feasibility is maintained incrementally (a cheap longest-chain update
for chain patterns, the generic searcher otherwise) and the upper bound
comes from a symmetric chain decomposition of the cube: a family that
avoids a k-element pattern weakly can keep at most k-1 members of any
chain, since a chain absorbs every poset of its size order-preservingly.

Certificates are never trusted: the reported family is re-checked by the
independent containment searcher before the result is returned.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import CertificationError, PreconditionError
from .families import SetFamily, lubell_mass, mask_size
from .posets import FinitePoset, contains_subposet, family_as_poset, height, make_chain

_MIDDLE_LAYERS_CAP = 10


def middle_layer_order(n: int) -> list:
    """Layer sizes from the middle outward, lower layer first on ties."""
    return sorted(range(n + 1), key=lambda k: (abs(2 * k - n), k))


def symmetric_chain_decomposition(n: int) -> dict:
    """mask -> chain id, for a partition of P[n] into symmetric chains.

    Bracket matching: scanning positions upward, each 0 closes the most
    recent unmatched 1.  Positions left unmatched form the chain's free
    run; its members are exactly the fills of that run by a final block
    of 1s, so clearing the free positions is a canonical chain id.
    """
    chain_of = {}
    for mask in range(1 << n):
        stack = []
        free_ones = 0
        for i in range(n):
            if mask >> i & 1:
                stack.append(i)
            elif stack:
                stack.pop()
        for i in stack:
            free_ones |= 1 << i
        chain_of[mask] = mask ^ free_ones
    return chain_of


class _Feasibility:
    """Incremental "may this mask join the family" oracle."""

    def __init__(self, pattern: FinitePoset, mode: str):
        self.pattern = pattern
        self.mode = mode
        self.chain_k = pattern.k if pattern.is_chain() else None

    def ok(self, members: list, x: int) -> bool:
        if self.chain_k is not None:
            return not self._makes_chain(members, x, self.chain_k)
        host = family_as_poset(members + [x])
        return contains_subposet(host, self.pattern, self.mode) is None

    @staticmethod
    def _makes_chain(members: list, x: int, k: int) -> bool:
        below = [y for y in members if y != x and y & ~x == 0]
        above = [y for y in members if y != x and x & ~y == 0]
        need = k - 1
        d = _longest_nested(below, need)
        if d >= need:
            return True
        return d + _longest_nested(above, need - d) >= need

    def certify_free(self, members: list) -> None:
        found = contains_subposet(family_as_poset(members), self.pattern, self.mode)
        if found is not None:
            raise CertificationError(
                "search returned a family containing the pattern"
            )


def _longest_nested(masks: list, stop_at: int) -> int:
    """Longest chain under inclusion among ``masks``; early exit at stop_at."""
    if stop_at <= 0:
        return 0
    order = sorted(masks, key=mask_size)
    best = [1] * len(order)
    overall = 1 if order else 0
    for i, a in enumerate(order):
        for j in range(i):
            if order[j] & ~a == 0 and order[j] != a and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
        if best[i] > overall:
            overall = best[i]
            if overall >= stop_at:
                return overall
    return overall


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    pattern_id: str
    mode: str
    objective: str
    value: Union[int, Fraction]
    family: SetFamily
    nodes: int
    wall_time: float
    exact: bool


class _Search:
    def __init__(self, n, pattern, mode, objective, budget):
        self.feas = _Feasibility(pattern, mode)
        self.budget = budget
        self.nodes = 0
        # Integer weights: 1 for cardinality, lcm-scaled layer weights
        # for the mass objective, so the bound arithmetic stays exact.
        if objective == "cardinality":
            self.scale = 1
            weight = [1] * (n + 1)
        else:
            self.scale = math.lcm(*(math.comb(n, s) for s in range(n + 1)))
            weight = [self.scale // math.comb(n, s) for s in range(n + 1)]
        self.cands = sorted(
            range(1 << n), key=lambda m: (abs(2 * mask_size(m) - n), mask_size(m), m)
        )
        self.weights = [weight[mask_size(m)] for m in self.cands]
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
        self.chosen_w = [0] * len(index)
        self.bound = sum(self._contrib(c) for c in range(len(index)))
        self.value = 0
        self.members: list = []
        self.best = 0            # the empty family is always feasible
        self.best_members: tuple = ()

    def _contrib(self, c: int) -> int:
        """Chain c's chosen weight plus its best undecided weight within cap."""
        best_from = max(self.decided[c], self.off[c] + self.chosen_n[c])
        return self.chosen_w[c] + self.suffix[c][best_from]

    def _decide(self, i: int, take: bool, sign: int) -> None:
        """Apply (sign 1) or undo (sign -1) the decision on position i."""
        c = self.chain_ids[i]
        before = self._contrib(c)
        self.decided[c] += sign
        if take:
            w = self.weights[i]
            self.chosen_n[c] += sign
            self.chosen_w[c] += sign * w
            self.value += sign * w
            if sign > 0:
                self.members.append(self.cands[i])
            else:
                self.members.pop()
        self.bound += self._contrib(c) - before

    def _may_take(self, i: int) -> bool:
        x = self.cands[i]
        c = self.chain_ids[i]
        # Any family can be relabeled so that its first chosen mask (in
        # search order) is the smallest of its size, so other first
        # picks need not be explored.
        may_start = self.members or x == (1 << mask_size(x)) - 1
        return (
            may_start and self.chosen_n[c] < self.cap[c] and self.feas.ok(self.members, x)
        )

    def run(self) -> tuple:
        """Depth-first, include before exclude; one node per visited position."""
        t0 = time.perf_counter()
        exact = True
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
                    self.best_members = tuple(self.members)
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
    pattern_id: str = "pattern",
) -> ExtremalResult:
    """Maximum size (or mass) of a pattern-avoiding family on [n].

    Exhaustive unless the node budget runs out first; a budget stop
    yields a best-found result with ``exact`` cleared, never a silent
    partial answer.
    """
    if n < 0:
        raise PreconditionError("ground size must be nonnegative")
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
    return ExtremalResult(n, pattern_id, mode, objective, value, fam, nodes, wall, exact)


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
        host = family_as_poset(x for x in range(1 << n) if mask_size(x) in sizes)
        if contains_subposet(host, pattern, "weak") is not None:
            return m - 1
    return n + 1


def chain_mass_bound_check(n: int, k: int) -> dict:
    """Exhaustively confirm: mass of a k-chain-free family never beats k-1."""
    if n > 6 or k > 4:
        raise PreconditionError("exhaustive mass check is limited to n <= 6, k <= 4")
    if k < 1:
        raise PreconditionError("chain length must be positive")
    result = extremal_search(n, make_chain(k), "weak", "lubell", pattern_id=f"P{k}")
    expected = Fraction(min(k - 1, n + 1))
    layer_members = [
        x for x in range(1 << n) if mask_size(x) in set(middle_layer_order(n)[: k - 1])
    ]
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
