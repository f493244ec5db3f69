"""Exact mutation calculus for log data on an oriented rank-2 lattice.

Everything is integer or rational arithmetic: no floats anywhere in the
mathematical core, so every verdict and certificate is exact.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ClosureViolation,
    DuplicateDirection,
    FactorTooLarge,
    IllegalMutation,
    InvalidDatum,
    LogMutError,
    NotRankOne,
    NotRankTwo,
    PartitionSumMismatch,
    ShapeMismatch,
    SubordinationRequired,
    TooFewEdges,
    WallSynthesisError,
    ZeroVector,
)
from .lattice import (
    UnimodularMap,
    Vec,
    primitive_split,
    sform,
    shear_map,
    sort_ccw,
    to_east,
)
from .logdatum import (
    ComponentReport,
    ComponentType,
    Edge,
    FanPresentation,
    LogDatum,
    Partition,
    Rank,
    an_datum,
    apply_to_datum,
    component_types,
    datum_from_obj,
    datum_to_obj,
    dual_polygon,
    fan_presentation,
    is_irreducible,
    is_zero_mutable_rank_one,
    jerry_datum,
    named,
    partitions_of,
    polygon,
    rank,
    tom_datum,
    validate,
)
from .mutation import (
    MutationIndex,
    legal_mutations,
    mutate,
    mutate_by_value,
    mutate_with_trace,
)
from .decider import (
    CertStep,
    Certificate,
    Verdict,
    canonical_rep,
    canonical_tuple,
    canonicalize,
    enumerate_zero_mutable,
    is_zero_mutable,
    replay,
    verify_certificate,
)
from .wallfn import (
    BiPoly,
    CheckReport,
    WallAssignment,
    bipoly_from_obj,
    bipoly_to_obj,
    format_bipoly,
    generic_wall_assignment,
    is_generic,
    is_smooth_curve,
    is_subordinate,
    joint_compatible,
    kinks,
    parse_bipoly,
)
from .render import RenderSpec, render_svg

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
