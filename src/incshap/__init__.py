"""Shapley-value attribution of database inconsistency under FDs.

The package measures how much each tuple of an inconsistent database
contributes to its overall inconsistency, for five measures (drastic
flag, violating-pair count, problematic-fact count, cardinality-repair
cost, repair count), with exact algorithms where the FD structure allows
them, a sampling estimator with explicit error contracts, and a
brute-force oracle for verification.
"""

from .approx import ApproxParams, Estimate, Guarantee, Mode, estimate_shapley, sample_count
from .block_tree import BlockTree, build_tree
from .errors import (
    BudgetExceededError,
    IncshapError,
    InputError,
    IntractableExactError,
    OracleLimitError,
    ParseError,
    SchemaError,
    UnsupportedModeError,
)
from .exact import (
    SizeIndexedTable,
    drastic_tables,
    mc_tables,
    multi_relation_combine,
    r_tables,
    shapley_drastic,
    shapley_eq1_combine,
    shapley_exact,
    shapley_mc,
    shapley_mi,
    shapley_p,
    shapley_r,
)
from .fd_analysis import (
    TractabilityClass,
    TractabilityKind,
    attribute_closure,
    classify,
    classify_relation,
    lhs_chain_order,
    minimal_cover,
    simplify_step,
)
from .io import (
    Manifest,
    database_to_csv,
    load_database,
    load_fds,
    load_instance,
    load_manifest,
    parse_fd_file,
)
from .measures import (
    CoalitionEvaluator,
    MeasureKind,
    RepairEnumeration,
    enumerate_repairs,
    measure,
)
from .oracle import (
    OracleLimits,
    shapley_bruteforce_perms,
    shapley_bruteforce_subsets,
)
from .relational import (
    FD,
    ConflictGraph,
    Database,
    Fact,
    FDSet,
    Schema,
    build_conflict_graph,
    is_consistent,
    violates,
)

__version__ = "0.1.0"
