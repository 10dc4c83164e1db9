"""End-to-end compilation pipelines (baseline and Orchestrated Trios)."""

from .pipeline import (
    DEFAULT_SEED_TRIALS,
    PIPELINES,
    STAGE_BUILDERS,
    TranspileOptions,
    build_pass_manager,
    compile_baseline,
    compile_trios,
    transpile,
)
from ..hardware.target import Target
from .result import CompilationResult, gate_reduction, check_connectivity

__all__ = [
    "DEFAULT_SEED_TRIALS",
    "PIPELINES",
    "STAGE_BUILDERS",
    "TranspileOptions",
    "build_pass_manager",
    "Target",
    "compile_baseline",
    "compile_trios",
    "transpile",
    "CompilationResult",
    "gate_reduction",
    "check_connectivity",
]
