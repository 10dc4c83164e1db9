"""Compiler passes: decomposition, layout, routing, optimisation and scheduling."""

from .base import (
    AnalysisPass,
    BasePass,
    FixedPoint,
    PassManager,
    PropertySet,
    Stage,
    TransformationPass,
)
from .synthesis import zyz_angles, u3_from_matrix, matrix_is_identity
from .layout import (
    Layout,
    TrivialLayoutPass,
    FixedLayoutPass,
    GreedyInteractionLayoutPass,
    NoiseAwareLayoutPass,
    apply_layout,
)
from .decompose import DecomposeToBasisPass, DEFAULT_BASIS
from .toffoli import (
    toffoli_6cnot,
    toffoli_8cnot_line,
    ccz_6cnot,
    ccz_8cnot_line,
    ToffoliDecomposePass,
    MappingAwareToffoliDecomposePass,
)
from .routing import GreedySwapRouter, LegalizationRouter
from .trios_routing import TriosRouter
from .optimization import (
    DecomposeSwapsPass,
    CancelAdjacentInversesPass,
    Consolidate1qRunsPass,
    RemoveIdentitiesPass,
    is_inverse_pair,
)
from .commutation import (
    CommutationAnalysisPass,
    CommutationSets,
    CommutativeCancellationPass,
    clear_commutation_cache,
    commutation_cache_size,
    gates_commute,
    instructions_commute,
)
from .scheduling import Schedule, ScheduledInstruction, asap_schedule, ASAPSchedulePass

__all__ = [
    "AnalysisPass",
    "BasePass",
    "FixedPoint",
    "PassManager",
    "PropertySet",
    "Stage",
    "TransformationPass",
    "zyz_angles",
    "u3_from_matrix",
    "matrix_is_identity",
    "Layout",
    "TrivialLayoutPass",
    "FixedLayoutPass",
    "GreedyInteractionLayoutPass",
    "NoiseAwareLayoutPass",
    "apply_layout",
    "DecomposeToBasisPass",
    "DEFAULT_BASIS",
    "toffoli_6cnot",
    "toffoli_8cnot_line",
    "ccz_6cnot",
    "ccz_8cnot_line",
    "ToffoliDecomposePass",
    "MappingAwareToffoliDecomposePass",
    "GreedySwapRouter",
    "LegalizationRouter",
    "TriosRouter",
    "DecomposeSwapsPass",
    "CancelAdjacentInversesPass",
    "Consolidate1qRunsPass",
    "RemoveIdentitiesPass",
    "is_inverse_pair",
    "CommutationAnalysisPass",
    "CommutationSets",
    "CommutativeCancellationPass",
    "clear_commutation_cache",
    "commutation_cache_size",
    "gates_commute",
    "instructions_commute",
    "Schedule",
    "ScheduledInstruction",
    "asap_schedule",
    "ASAPSchedulePass",
]
