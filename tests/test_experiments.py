"""Tests for the experiment harnesses (Figures 6-12, Table 1)."""

import dataclasses
import math
from unittest import mock

import pytest

from repro.bench_circuits import all_benchmark_statistics
from repro.exceptions import ExecutionError, ReproError
from repro.experiments import (
    CONFIGURATIONS,
    compile_configuration,
    default_factors,
    geometric_mean,
    percent_change,
    percent_reduction,
    random_triplets,
    run_benchmark_experiment,
    run_sensitivity_experiment,
    run_toffoli_experiment,
    single_case,
    toffoli_test_circuit,
)
from repro.experiments.report import (
    format_benchmark_normalized,
    format_benchmark_reduction,
    format_benchmark_success,
    format_sensitivity,
    format_table1,
    format_toffoli_gate_counts,
    format_toffoli_normalized,
    format_toffoli_success,
)
from repro.hardware import johannesburg


class TestStatsHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([5]) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_clamps_zero(self):
        assert geometric_mean([0.0, 1.0]) > 0.0

    def test_percent_helpers(self):
        assert percent_change(2.0, 3.0) == pytest.approx(0.5)
        assert percent_reduction(10, 6) == pytest.approx(0.4)
        assert percent_change(0.0, 1.0) == math.inf


class TestToffoliExperiment:
    def test_test_circuit_prepares_110(self):
        circuit = toffoli_test_circuit()
        names = [inst.name for inst in circuit.instructions]
        assert names.count("x") == 2
        assert names.count("ccx") == 1
        assert names.count("measure") == 3

    def test_random_triplets_are_distinct_qubits(self):
        for triplet in random_triplets(johannesburg(), 10, seed=1):
            assert len(set(triplet)) == 3

    def test_all_configurations_compile(self, johannesburg_map):
        placement = {0: 0, 1: 9, 2: 16}
        for configuration in CONFIGURATIONS:
            result = compile_configuration(configuration, johannesburg_map, placement, seed=0)
            assert result.two_qubit_gate_count > 0

    def test_small_run_reproduces_headline_shape(self):
        result = run_toffoli_experiment(num_triplets=6, shots=256, seed=4)
        assert len(result.rows) == 6
        # Trios (8-CNOT) uses fewer CNOTs than the Qiskit baseline on average.
        assert result.geomean_cnots("Trios (8-CNOT Toffoli)") < result.geomean_cnots(
            "Qiskit (baseline)"
        )
        assert result.gate_reduction() > 0.1
        # And its measured success rate is at least as good.
        assert result.geomean_improvement() > 1.0
        for row in result.rows:
            for configuration in CONFIGURATIONS:
                assert 0.0 <= row.success_rates[configuration] <= 1.0

    def test_single_case_walkthrough(self):
        summary = single_case()
        assert summary["Trios (8-CNOT Toffoli)"]["swaps"] < summary["Qiskit (baseline)"]["swaps"]

    def test_reports_render(self):
        result = run_toffoli_experiment(num_triplets=3, shots=64, seed=2)
        for formatter in (format_toffoli_gate_counts, format_toffoli_success,
                          format_toffoli_normalized):
            text = formatter(result)
            assert "geo-mean" in text


class TestBenchmarkExperiment:
    @pytest.fixture(scope="class")
    def small_result(self):
        return run_benchmark_experiment(
            benchmarks=["cnx_dirty-11", "cuccaro_adder-20", "bv-20"]
        )

    def test_covers_all_four_topologies(self, small_result):
        assert sorted(small_result.topologies()) == sorted(
            ["ibmq-johannesburg", "full-grid-5x4", "line-20", "clusters-5x4"]
        )

    def test_toffoli_benchmarks_improve(self, small_result):
        for topology in small_result.topologies():
            row = small_result.row(topology, "cnx_dirty-11")
            assert row.cnot_reduction > 0.0
            assert row.success_ratio >= 1.0

    def test_toffoli_free_benchmarks_are_unchanged(self, small_result):
        for topology in small_result.topologies():
            row = small_result.row(topology, "bv-20")
            assert row.cnot_reduction == pytest.approx(0.0)
            assert row.success_ratio == pytest.approx(1.0)

    def test_geomeans_positive(self, small_result):
        for topology in small_result.topologies():
            assert small_result.geomean_cnot_reduction(topology) > 0.0
            assert small_result.geomean_success_ratio(topology) >= 1.0
            assert 0 < small_result.geomean_success(topology, "trios") <= 1.0

    def test_reports_render(self, small_result):
        for formatter in (format_benchmark_success, format_benchmark_reduction,
                          format_benchmark_normalized):
            assert "cnx_dirty-11" in formatter(small_result)


class TestSensitivityExperiment:
    def test_ratio_decreases_as_errors_improve(self):
        result = run_sensitivity_experiment(
            benchmarks=["cnx_dirty-11"], factors=[1.0, 20.0, 100.0]
        )
        curve = result.curves["cnx_dirty-11"]
        assert curve.ratios[0] >= curve.ratios[-1]
        assert curve.ratios[-1] >= 1.0
        assert curve.ratio_at(20.0) == curve.ratios[1]

    def test_default_factors_are_log_spaced(self):
        factors = default_factors(5, maximum=100.0)
        assert factors[0] == pytest.approx(1.0)
        assert factors[-1] == pytest.approx(100.0)
        assert len(factors) == 5

    def test_report_renders(self):
        result = run_sensitivity_experiment(
            benchmarks=["cnx_dirty-11"], factors=[1.0, 10.0]
        )
        assert "cnx_dirty-11" in format_sensitivity(result)


class TestTable1Report:
    def test_table1_lists_all_benchmarks(self):
        text = format_table1(all_benchmark_statistics())
        for name in ("cnx_dirty-11", "grovers-9", "bv-20"):
            assert name in text


# ----------------------------------------------------------------------
# Run settings are checked before anything is built
# ----------------------------------------------------------------------
TINY_SWEEP = dict(topologies={"ibmq-johannesburg": johannesburg},
                  benchmarks=["cnx_inplace-4"])
TINY_CURVE = dict(benchmarks=["cnx_inplace-4"], factors=[1.0, 10.0])
REGISTERED = "failure, trajectory, density, ptm, ideal"


class TestRunSettingsValidation:
    @pytest.mark.parametrize("run, kwargs", [
        (run_benchmark_experiment, TINY_SWEEP),
        (run_sensitivity_experiment, TINY_CURVE),
    ])
    def test_unknown_backend_is_rejected(self, run, kwargs):
        with pytest.raises(ReproError, match=f"'densty'.*{REGISTERED}"):
            run(backend="densty", **kwargs)

    @pytest.mark.parametrize("sampler", ["analytic", "densty"])
    def test_toffoli_rejects_a_sampler_it_cannot_run(self, sampler):
        with pytest.raises(ReproError, match=f"{sampler!r}.*{REGISTERED}"):
            run_toffoli_experiment(triplets=[(0, 1, 2)], sampler=sampler)

    @pytest.mark.parametrize("shots", [0, -8])
    @pytest.mark.parametrize("run, kwargs", [
        (run_benchmark_experiment, dict(backend="failure", **TINY_SWEEP)),
        (run_sensitivity_experiment, dict(backend="failure", **TINY_CURVE)),
        (run_toffoli_experiment, dict(triplets=[(0, 1, 2)])),
    ])
    def test_non_positive_shots_are_rejected(self, run, kwargs, shots):
        with pytest.raises(ReproError, match="shots must be >= 1"):
            run(shots=shots, **kwargs)

    @pytest.mark.parametrize("bad", [
        dict(on_error="bogus"), dict(retries=-1), dict(jobs=-1), dict(timeout=0),
    ])
    @pytest.mark.parametrize("run, builder", [
        (run_benchmark_experiment, "repro.experiments.benchmarks.get_benchmark"),
        (run_sensitivity_experiment, "repro.experiments.sensitivity.get_benchmark"),
        (run_toffoli_experiment, "repro.experiments.toffoli.johannesburg"),
    ])
    def test_policy_errors_come_before_any_circuit_is_built(self, run, builder, bad):
        with mock.patch(builder, side_effect=AssertionError("built before validating")):
            with pytest.raises(ExecutionError):
                run(**bad)


class TestRunConfig:
    def test_holds_exactly_the_eight_execution_settings(self):
        from repro.experiments import RunConfig

        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "backend", "shots", "exact", "jobs", "timeout", "retries",
            "on_error", "faults",
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().jobs = 2

    def test_every_row_type_keeps_one_flat_pass_span_list(self):
        toffoli = run_toffoli_experiment(triplets=[(0, 1, 2)], shots=16, seed=1)
        sweep = run_benchmark_experiment(**TINY_SWEEP)
        curves = run_sensitivity_experiment(**TINY_CURVE)
        rows = [toffoli.rows[0], sweep.row("ibmq-johannesburg", "cnx_inplace-4"),
                curves.curves["cnx_inplace-4"]]
        for result, row in zip((toffoli, sweep, curves), rows):
            assert isinstance(row.pass_spans, list) and row.pass_spans
            assert result.all_pass_spans() == row.pass_spans
