"""Shapley-value attribution of database inconsistency under FDs.

The package measures how much each tuple of an inconsistent database
contributes to its overall inconsistency, for five measures (drastic
flag, violating-pair count, problematic-fact count, cardinality-repair
cost, repair count), with exact algorithms where the FD structure allows
them, a sampling estimator with explicit error contracts, and a
brute-force oracle for verification.

Every public name loads on first use: ``import incshap`` imports no
submodule, and ``incshap.Game`` (or ``from incshap import Game``)
imports ``incshap.exact`` and whatever it imports, and no other module.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name.
_SUBMODULE_NAMES = {
    "approx": (
        "ApproxParams",
        "Estimate",
        "Guarantee",
        "Mode",
        "estimate_all",
        "estimate_shapley",
        "sample_count",
    ),
    "block_tree": ("BlockTree", "build_tree"),
    "errors": (
        "BudgetExceededError",
        "IncshapError",
        "InputError",
        "IntractableExactError",
        "OracleLimitError",
        "ParseError",
        "SchemaError",
        "UnsupportedModeError",
    ),
    "exact": (
        "Game",
        "SizeIndexedTable",
        "drastic_tables",
        "mc_tables",
        "measure",
        "multi_relation_combine",
        "r_tables",
        "shapley_all",
        "shapley_drastic",
        "shapley_exact",
        "shapley_mi",
    ),
    "fd_analysis": (
        "TractabilityClass",
        "TractabilityKind",
        "attribute_closure",
        "classify",
        "classify_relation",
        "lhs_chain_order",
        "minimal_cover",
        "simplify_step",
    ),
    "io": (
        "Manifest",
        "database_to_csv",
        "load_database",
        "load_fds",
        "load_instance",
        "load_manifest",
        "parse_fd_file",
    ),
    "measures": (
        "CoalitionEvaluator",
        "MeasureKind",
        "RepairEnumeration",
        "enumerate_repairs",
    ),
    "oracle": (
        "OracleLimits",
        "shapley_bruteforce_all",
        "shapley_bruteforce_subsets",
    ),
    "relational": (
        "FD",
        "ConflictGraph",
        "Database",
        "Fact",
        "FDSet",
        "Schema",
        "build_conflict_graph",
        "is_consistent",
        "violates",
    ),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    """Import the submodule that defines `name` and keep the name here."""
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
