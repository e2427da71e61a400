"""The n <= 4 table of extremal optima, derived by exhaustive enumeration.

For every poset on 1-4 elements, both modes and n = 0..4, the table holds
the largest size and the largest Lubell mass of a family on [n] with no
weak (or induced) copy of the poset, found by listing every pattern-free
family (``free_families``).  ``test_extremal.py`` checks
``extremal_search`` against every row; pytest does not collect this file.

Re-derive the table from the root of a checkout (about half a minute):

    PYTHONPATH=src python3 tests/small_optima.py

It rewrites ``tests/small_optima.json``, one row per line:
``[k, pairs, mode, n, cardinality, lubell]``, where ``(k, pairs)`` is the
poset's ``canonical_key`` and ``lubell`` a rational string.
"""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

from cubefam.posets import FinitePoset, enumerate_posets

from conftest import brute_force_copies

TABLE = Path(__file__).with_name("small_optima.json")


def free_families(n: int, pattern: FinitePoset, mode: str) -> list:
    """Every family on [n] with no weak (or induced) copy of ``pattern``.

    A family holds a copy exactly when some k of its members, as an
    inclusion poset built pair by pair, do; those k-sets are found with
    ``brute_force_copies``.  Subfamilies of a free family are free, so a
    depth-first walk adds masks in increasing order and stops at the
    first one that completes a copy.
    """
    masks = range(1 << n)
    copies = []
    for group in itertools.combinations(masks, pattern.k):
        pairs = [(i, j) for i, a in enumerate(group) for j, b in enumerate(group)
                 if a != b and a & ~b == 0]
        host = FinitePoset(pattern.k, pairs)
        if next(brute_force_copies(host, pattern, mode), None) is not None:
            copies.append(set(group))
    found = []

    def walk(family: list, start: int) -> None:
        found.append(list(family))
        for x in masks[start:]:
            family.append(x)
            if not any(copy <= set(family) for copy in copies):
                walk(family, x + 1)
            family.pop()

    walk([], 0)
    return found


def derive() -> list:
    """Every row of the table, by ``free_families``."""
    rows = []
    for k in range(1, 5):
        for pattern in enumerate_posets(k):
            key_k, pairs = pattern.canonical_key()
            for mode in ("weak", "induced"):
                for n in range(5):
                    families = free_families(n, pattern, mode)
                    size = max(map(len, families))
                    mass = max(
                        sum(Fraction(1, math.comb(n, x.bit_count())) for x in f)
                        for f in families
                    )
                    rows.append([key_k, [list(p) for p in pairs], mode, n, size, str(mass)])
    return rows


def load() -> dict:
    """{(canonical key, mode, objective, n): optimum} from the committed table."""
    optima = {}
    for k, pairs, mode, n, size, mass in json.loads(TABLE.read_text()):
        key = (k, tuple(map(tuple, pairs)))
        optima[key, mode, "cardinality", n] = size
        optima[key, mode, "lubell", n] = Fraction(mass)
    return optima


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(row) for row in derive())
    TABLE.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {TABLE}")
