"""Stored optima of the small non-chain extremal queries, and their proof.

OPTIMA[(pattern, mode, n)] is the largest size of a family of subsets of
[n] with no weak (or induced) copy of the pattern.  The values were found
by exhaustive enumeration with the benchmark's own containment search and
are re-derived by ``python3 perfbench/optima.py``, which exits nonzero if
any stored value disagrees.
"""

from __future__ import annotations

import itertools
import sys

OPTIMA = {
    ("V2", "weak", 2): 3, ("V2", "induced", 2): 3,
    ("D2", "weak", 2): 3, ("D2", "induced", 2): 3,
    ("Q2", "weak", 2): 3, ("Q2", "induced", 2): 3,
    ("V2", "weak", 3): 4, ("V2", "induced", 3): 5,
    ("D2", "weak", 3): 4, ("D2", "induced", 3): 5,
    ("Q2", "weak", 3): 6, ("Q2", "induced", 3): 6,
    ("V2", "weak", 4): 7, ("V2", "induced", 4): 8,
    ("D2", "weak", 4): 7, ("D2", "induced", 4): 8,
    ("Q2", "weak", 4): 10, ("Q2", "induced", 4): 10,
}


def exhaustive_optimum(pattern: str, mode: str, n: int) -> int:
    """Largest pattern-free family on [n], scanning sizes from the top."""
    from checks import find_copy
    from workloads import BUILTIN_RELATIONS

    k, lt = BUILTIN_RELATIONS[pattern]
    universe = range(1 << n)
    for size in range(1 << n, -1, -1):
        for fam in itertools.combinations(universe, size):
            if find_copy(fam, k, lt, mode) is None:
                return size
    raise AssertionError("the empty family is always pattern-free")


def main() -> int:
    bad = 0
    for (pattern, mode, n), stored in sorted(OPTIMA.items()):
        got = exhaustive_optimum(pattern, mode, n)
        print(f"{pattern} {mode:7s} n={n}: stored {stored}, enumerated {got}")
        bad += got != stored
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
