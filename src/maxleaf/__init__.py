"""Exact solvers and win/win machinery for directed maximum-leaf problems.

The package decides whether a digraph has an out-branching (or out-tree)
with at least k leaves.  The structural engine either produces a k-leaf
out-tree witness or a path decomposition of the underlying graph with
width at most k^3, and the solvers run a pathwidth dynamic program or a
branch and bound search on top of that dichotomy.
"""

from .bounds import (
    BoundReport,
    check_bounds,
    lemma_order_bound,
    multipartite_bound,
    reduce_in_degree_two,
    required_leaves,
    theorem_main_bound,
    tournament_bound,
    write_bound_csv,
)
from .decompose import (
    DecomposeOutcome,
    ForwardArc,
    decompose,
    find_out_branching,
    path_cover_from_out_branching,
)
from .digraph import (
    Digraph,
    UndirectedGraph,
    has_out_branching,
    in_L_exact,
    in_L_sufficient,
    parse_digraph,
    strongly_connected_components,
    underlying_undirected,
    write_digraph,
)
from .errors import (
    ContractError,
    GenerationError,
    InvariantError,
    MaxleafError,
    NoOutBranchingError,
    OverBudgetError,
    ParseError,
)
from .generators import FAMILIES, GenSpec, generate, instance_id
from .oracle import ORACLE_MAX_N, brute_force_out_branching, brute_force_out_tree
from .pathdecomp import (
    PathCover,
    PathDecomposition,
    min_frontier_ordering,
    ordering_to_path_decomposition,
    vertex_separation,
)
from .solver import (
    DEFAULT_BNB_BUDGET,
    DEFAULT_DP_BUDGET,
    DEFAULT_WIDTH_BUDGET,
    DpConfig,
    SolveResult,
    branch_and_bound,
    dp_pathwidth,
    solve_dmlob,
    solve_dmlot,
)
from .witness import OutTree, OutTreeValidation, validate_out_tree

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ContractError",
    "DEFAULT_BNB_BUDGET",
    "DEFAULT_DP_BUDGET",
    "DEFAULT_WIDTH_BUDGET",
    "DecomposeOutcome",
    "Digraph",
    "DpConfig",
    "FAMILIES",
    "ForwardArc",
    "GenSpec",
    "GenerationError",
    "InvariantError",
    "MaxleafError",
    "NoOutBranchingError",
    "ORACLE_MAX_N",
    "OutTree",
    "OutTreeValidation",
    "OverBudgetError",
    "ParseError",
    "PathCover",
    "PathDecomposition",
    "SolveResult",
    "UndirectedGraph",
    "branch_and_bound",
    "brute_force_out_branching",
    "brute_force_out_tree",
    "check_bounds",
    "decompose",
    "dp_pathwidth",
    "find_out_branching",
    "generate",
    "has_out_branching",
    "in_L_exact",
    "in_L_sufficient",
    "instance_id",
    "lemma_order_bound",
    "min_frontier_ordering",
    "multipartite_bound",
    "ordering_to_path_decomposition",
    "parse_digraph",
    "path_cover_from_out_branching",
    "reduce_in_degree_two",
    "required_leaves",
    "solve_dmlob",
    "solve_dmlot",
    "strongly_connected_components",
    "theorem_main_bound",
    "tournament_bound",
    "underlying_undirected",
    "validate_out_tree",
    "vertex_separation",
    "write_bound_csv",
    "write_digraph",
    "__version__",
]
