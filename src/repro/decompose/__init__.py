"""Functional decomposition core: partitions, compatible classes,
don't-care assignment, bound-set selection, the chart encoder (paper
Figure 3) and the recursive Roth-Karp driver."""

from .chart import EncodingChart, pack_chart
from .compatible import (
    Column,
    CompatibleClasses,
    compute_classes,
    count_classes,
    enumerate_columns,
)
from .cost import CostModel, parse_cost_model
from .dontcare import assign_dontcares, clique_partition, compatibility_graph
from .encoding import (
    ColumnSetResult,
    EncodingResult,
    build_image_function,
    canonical_codes,
    combine_column_sets,
    combine_row_sets,
    encode_classes,
    row_merge_benefit,
)
from .matching import (
    WeightedEdge,
    greedy_matching,
    max_weight_b_matching,
    max_weight_matching,
)
from .partition import (
    Partition,
    conjunction,
    contains,
    disjunction,
    psc_key,
    same_content_position_groups,
)
from .nondisjoint import (
    NondisjointStep,
    decompose_step_nondisjoint,
    nondisjoint_gain,
)
from .recursive import DecompositionTrace, decompose_to_network
from .rothkarp import DecompositionOptions, DecompositionStep, decompose_step
from .varpart import VariablePartition, select_bound_set

__all__ = [
    "CostModel",
    "parse_cost_model",
    "Partition",
    "conjunction",
    "disjunction",
    "contains",
    "same_content_position_groups",
    "psc_key",
    "Column",
    "CompatibleClasses",
    "enumerate_columns",
    "compute_classes",
    "count_classes",
    "clique_partition",
    "assign_dontcares",
    "compatibility_graph",
    "WeightedEdge",
    "max_weight_matching",
    "max_weight_b_matching",
    "greedy_matching",
    "VariablePartition",
    "select_bound_set",
    "EncodingChart",
    "pack_chart",
    "EncodingResult",
    "ColumnSetResult",
    "encode_classes",
    "canonical_codes",
    "build_image_function",
    "combine_column_sets",
    "combine_row_sets",
    "row_merge_benefit",
    "DecompositionOptions",
    "DecompositionStep",
    "decompose_step",
    "DecompositionTrace",
    "decompose_to_network",
    "NondisjointStep",
    "decompose_step_nondisjoint",
    "nondisjoint_gain",
]
