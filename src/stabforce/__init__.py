"""Exact engine for stability systems, derived tree orders, and their forcing poset."""

import types as _types

from .errors import (
    BadTargetError,
    BoundTooLargeError,
    BudgetExhaustedError,
    EmptySetError,
    InvalidConditionError,
    InvalidIntermediateError,
    NonCanonicalError,
    NotDescendingError,
    OrdinalSyntaxError,
    OutOfBoundsError,
    OutOfRangeError,
    TargetNotReachableError,
)
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    IntervalSet,
    Ordinal,
    OrdinalInterval,
    format_ordinal,
    parse_ordinal,
)
from .stability import (
    CheckReport,
    StabilitySystem,
    ValidationReport,
    Violation,
    check_predecessor_laws,
    check_tree_properties,
    dom_f,
    f_eval,
    is_k_lim2,
    is_k_limit,
    le_k,
    lt_k,
    pred_set,
    probe_points,
    system_from_dict,
    system_from_json,
    system_to_dict,
    system_to_json,
    validate,
)
from .poset import (
    ChainPresentation,
    DenseSet,
    PosetParams,
    canonical_extend,
    chain_from_trace,
    chain_infimum,
    chain_from_dict,
    chain_to_dict,
    extend_to_chain_limit,
    extend_with_top_exception,
    extends,
    in_poset,
    meet_dense,
    taller_than,
    top_chain_limit,
)
from .simulate import (
    MinimalityReport,
    PatternPoint,
    PointFate,
    PointOutcome,
    SimulationResult,
    StabilityPattern,
    TraceStep,
    check_stable_pairs,
    check_requirements,
    derive_assignments,
    minimality_report,
    pattern_from_dict,
    pattern_to_dict,
    result_to_dict,
    run_construction,
    validate_pattern,
)
from .oracle import BruteEvaluator
from .dot import export_dot

# every public name imported above, and no submodule
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
