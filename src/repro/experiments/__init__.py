"""Experiment harnesses regenerating every table and figure of the paper."""

from .stats import geometric_mean, percent_change, percent_reduction
from .toffoli import (
    CONFIGURATIONS,
    TripletResult,
    ToffoliExperimentResult,
    toffoli_test_circuit,
    compile_configuration,
    random_triplets,
    run_toffoli_experiment,
    single_case,
)
from .benchmarks import (
    BenchmarkComparison,
    BenchmarkExperimentResult,
    RunConfig,
    compare_benchmark,
    run_benchmark_experiment,
)
from .sensitivity import (
    SensitivityCurve,
    SensitivityResult,
    default_factors,
    run_sensitivity_experiment,
)
from . import report

__all__ = [
    "geometric_mean",
    "percent_change",
    "percent_reduction",
    "CONFIGURATIONS",
    "TripletResult",
    "ToffoliExperimentResult",
    "toffoli_test_circuit",
    "compile_configuration",
    "random_triplets",
    "run_toffoli_experiment",
    "single_case",
    "BenchmarkComparison",
    "BenchmarkExperimentResult",
    "RunConfig",
    "compare_benchmark",
    "run_benchmark_experiment",
    "SensitivityCurve",
    "SensitivityResult",
    "default_factors",
    "run_sensitivity_experiment",
    "report",
]
