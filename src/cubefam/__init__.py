"""Set families in the subset lattice: mass, pivots, embeddings, extraction.

The package is organized bottom-up:

- families: bitmask subsets, immutable families, Lubell mass, file format
- posets: finite posets, weak/induced subposet search, poset file format
- embeddings: down-set maps, randomized cube location in dense families
- concentration: sampling tail checks and the (eta, c, m0) recursion
- pivots: swap-out/swap-in structure, flexibility, fatness
- extraction: the constant cascade and the step-by-step copy extractor
- extremal: exact branch-and-bound for pattern-avoiding optima
- cli: batch subcommands with reproducible reports

``import cubefam`` loads ``errors`` alone.  Every other export resolves
on first access (PEP 562): the package imports the name's home module
then, and keeps the name, so a process compiles only the layers its
queries reach.
"""

import importlib

from .errors import (
    CertificationError,
    CubefamError,
    ParseError,
    PreconditionError,
    SearchBudgetExceeded,
)

__version__ = "0.1.0"

# Each lazily exported name, by the module that defines it.
_HOMES = {
    "families": (
        "SetFamily", "full_power_set", "lubell_mass", "parse_family",
        "read_family", "relative_lubell", "write_family",
    ),
    "posets": (
        "FinitePoset", "contains_subposet", "enumerate_posets", "family_as_poset",
        "make_chain", "make_cube", "make_v", "parse_poset", "read_poset",
    ),
    "embeddings": (
        "DenseTruncatedFamily", "downset_embedding", "find_pattern_via_universality",
        "randomized_cube_embed", "universality_epsilon",
    ),
    "concentration": (
        "concentration_constants", "fat_mass_bound", "verify_tail_bound",
        "verify_trace_probability",
    ),
    "pivots": (
        "MassBoundReport", "PivotRecord", "PivotSet", "flexibility_mass_bound",
        "is_fat", "max_flexfree_mass", "observation_check", "validate_record",
        "verify_fat_mass_bound", "verify_flexibility_bound",
    ),
    "extraction": (
        "centred_element", "compute_cascade", "extract_induced_copy", "override_cascade",
    ),
    "extremal": ("extremal_search", "middle_layers_number"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CertificationError",
    "CubefamError",
    "DenseTruncatedFamily",
    "FinitePoset",
    "MassBoundReport",
    "ParseError",
    "PivotRecord",
    "PivotSet",
    "PreconditionError",
    "SearchBudgetExceeded",
    "SetFamily",
    "centred_element",
    "compute_cascade",
    "concentration_constants",
    "contains_subposet",
    "downset_embedding",
    "enumerate_posets",
    "extract_induced_copy",
    "extremal_search",
    "family_as_poset",
    "fat_mass_bound",
    "find_pattern_via_universality",
    "flexibility_mass_bound",
    "full_power_set",
    "is_fat",
    "lubell_mass",
    "max_flexfree_mass",
    "make_chain",
    "make_cube",
    "make_v",
    "middle_layers_number",
    "observation_check",
    "override_cascade",
    "parse_family",
    "parse_poset",
    "randomized_cube_embed",
    "read_family",
    "read_poset",
    "relative_lubell",
    "universality_epsilon",
    "validate_record",
    "verify_fat_mass_bound",
    "verify_flexibility_bound",
    "verify_tail_bound",
    "verify_trace_probability",
    "write_family",
    "__version__",
]
