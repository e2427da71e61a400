"""Shared seeded generators for the test suite.

No property-testing frameworks: every randomized test draws from an
explicit random.Random with a fixed seed, so failures replay exactly.
"""

import math
import random
from fractions import Fraction

import numpy as np

from cubefam.families import (
    SetFamily,
    compress_mask,
    mask_elements,
    mass_of_sizes,
    submasks_of_size,
)
from cubefam.posets import FinitePoset, contains_subposet, family_as_poset


def random_family(rng: random.Random, n: int, density: float = 0.3) -> SetFamily:
    """A family over [n] keeping each subset independently."""
    members = [m for m in range(1 << n) if rng.random() < density]
    return SetFamily(n, members)


def nonempty_random_family(rng: random.Random, n: int, density: float = 0.3) -> SetFamily:
    fam = random_family(rng, n, density)
    if len(fam) == 0:
        fam = SetFamily(n, [rng.randrange(1 << n)])
    return fam


def reference_pivot_scan(member_set, universe: int, A: int, r: int, anti: bool) -> dict:
    """The all-hits scan ``pivots_in_universe`` is checked against.

    Every swap of every moved r-set is tried; a moved set's witness is
    the lex-least (by element tuple) of all the members it reaches.
    Returns moved mask -> witness for the moved sets with a hit.
    """
    outside = universe & ~A
    moved_pool, other_pool = (outside, A) if anti else (A, outside)
    found = {}
    for moved in submasks_of_size(moved_pool, r):
        hits = []
        for other in submasks_of_size(other_pool, r):
            x, y = (other, moved) if anti else (moved, other)
            landing = (A & ~x) | y
            if landing in member_set:
                hits.append(landing)
        if hits:
            found[moved] = min(hits, key=mask_elements)
    return found


def reference_centred(shifted, universe: int) -> tuple:
    """The per-candidate ``Fraction`` search ``_centred`` is checked against.

    Each candidate's relative mass below it is one exact ``Fraction``,
    from subset-count tables (one per size the members have) on
    grounds of at most 20 points and from a scan of the family above that; candidates are tried by (size,
    mask).  Returns (member, mass) of the first one whose mass covers the
    family's, or None.
    """
    members = sorted(set(shifted), key=lambda f: (f.bit_count(), f))
    u = universe.bit_count()
    total = mass_of_sizes((f.bit_count() for f in members), u)
    tables = None
    if u <= 20:
        tables = {}
        for s in {f.bit_count() for f in members}:
            arr = np.zeros(1 << u, dtype=np.int64)
            for f in members:
                if f.bit_count() == s:
                    arr[compress_mask(f, universe)] += 1
            for i in range(u):
                view = arr.reshape(-1, 2, 1 << i)
                view[:, 1, :] += view[:, 0, :]
            tables[s] = arr
    for A in members:
        a = A.bit_count()
        if tables is not None:
            c = compress_mask(A, universe)
            mass = sum(
                (Fraction(int(t[c]), math.comb(a, s)) for s, t in tables.items() if s <= a),
                Fraction(0),
            )
        else:
            mass = mass_of_sizes((g.bit_count() for g in members if g & ~A == 0), a)
        if mass >= total:
            return A, mass
    return None


def random_poset(rng: random.Random, k: int, edge_prob: float = 0.3) -> FinitePoset:
    """Random poset on k elements: random relations on a shuffled order,
    then transitive closure.  Always acyclic by construction."""
    order = list(range(k))
    rng.shuffle(order)
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < edge_prob:
                pairs.append((order[i], order[j]))
    return FinitePoset(k, pairs, close=True)


def brute_force_copies(host: FinitePoset, pattern: FinitePoset, mode: str):
    """Every weak or induced copy of ``pattern`` in ``host``, as image tuples.

    Tries every injection (small sizes only).
    """
    from itertools import permutations

    for images in permutations(range(host.k), pattern.k):
        if all(
            host.lt(images[x], images[y]) == pattern.lt(x, y)
            if mode == "induced"
            else host.lt(images[x], images[y]) or not pattern.lt(x, y)
            for x in range(pattern.k)
            for y in range(pattern.k)
            if x != y
        ):
            yield images


def reference_subposet_scan(host: FinitePoset, pattern: FinitePoset, mode: str):
    """The per-candidate scan ``contains_subposet`` is checked against.

    Same static order and chain-room pruning, but every unused host
    element is tested one by one against a dict of assignments.  Returns
    ``(images, nodes)``: the first copy found (None if there is none) and
    the number of unused host elements the scan passed over, one node each.
    """

    def chain_room(p, use_below):
        rel = p.below if use_below else p.above
        room = [0] * p.k
        for i in sorted(range(p.k), key=lambda i: rel[i].bit_count()):
            room[i] = max((room[j] + 1 for j in range(p.k) if rel[i] >> j & 1), default=0)
        return room

    if pattern.k > host.k:
        return None, 0
    degree = [(pattern.above[v] | pattern.below[v]).bit_count() for v in range(pattern.k)]
    order = sorted(range(pattern.k), key=lambda v: (-degree[v], v))
    p_down, p_up = chain_room(pattern, True), chain_room(pattern, False)
    h_down, h_up = chain_room(host, True), chain_room(host, False)
    assignment: dict = {}
    used: set = set()
    nodes = 0

    def feasible(v, h):
        if h_down[h] < p_down[v] or h_up[h] < p_up[v]:
            return False
        for u, hu in assignment.items():
            if pattern.lt(u, v):
                if not host.lt(hu, h):
                    return False
            elif pattern.lt(v, u):
                if not host.lt(h, hu):
                    return False
            elif mode == "induced" and (host.lt(hu, h) or host.lt(h, hu)):
                return False
        return True

    def search(depth):
        nonlocal nodes
        if depth == pattern.k:
            return True
        v = order[depth]
        for h in range(host.k):
            if h in used:
                continue
            nodes += 1
            if feasible(v, h):
                assignment[v] = h
                used.add(h)
                if search(depth + 1):
                    return True
                del assignment[v]
                used.remove(h)
        return False

    if not search(0):
        return None, nodes
    return tuple(assignment[v] for v in range(pattern.k)), nodes


def reference_chain_ids(n: int) -> dict:
    """The bracket-matching loop ``symmetric_chain_decomposition`` is checked against.

    Scans each mask's positions upward; each 0 closes the most recent
    unmatched 1, and the chain id clears the 1s left unmatched.
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


def reference_feasible(members: list, x: int, pattern: FinitePoset, mode: str) -> bool:
    """The rebuild-the-host oracle the incremental extremal one is checked against.

    True when members + [x] holds no copy of ``pattern``, found by a full
    containment search of a freshly built inclusion host.
    """
    return contains_subposet(family_as_poset(members + [x]), pattern, mode) is None
