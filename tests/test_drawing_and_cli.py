"""Tests for the text circuit drawer and the command-line interface."""

import argparse
import contextlib
from unittest import mock

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.drawing import draw
from repro.experiments.cli import main


class TestDrawing:
    def test_every_qubit_gets_a_line(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).ccx(0, 1, 2)
        text = draw(circuit)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("q0")
        assert lines[2].startswith("q2")

    def test_gate_symbols_appear(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).ccx(0, 1, 2).measure(2, 0)
        text = draw(circuit)
        assert "h" in text
        assert "o" in text  # control dots
        assert "X" in text  # CNOT / Toffoli target
        assert "M" in text  # measurement

    def test_two_qubit_span_is_marked_on_intermediate_wires(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        text = draw(circuit)
        middle_line = text.splitlines()[1]
        assert "|" in middle_line

    def test_swap_symbols(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        text = draw(circuit)
        assert text.count("x") >= 2

    def test_long_circuit_is_truncated(self):
        circuit = QuantumCircuit(1)
        for _ in range(50):
            circuit.x(0)
        text = draw(circuit, max_columns=10)
        assert text.endswith("...")

    def test_parametric_gate_label(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.25, 0)
        assert "rz(0.25)" in draw(circuit)


class TestCli:
    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "cnx_dirty-11" in output
        assert "grovers-9" in output

    def test_toffoli_command_small(self, capsys):
        assert main(["toffoli", "--triplets", "3", "--shots", "64", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "[Figure 7]" in output
        assert "[Figure 6]" in output
        assert "[Figure 8]" in output
        assert "Geomean gate reduction" in output

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "--factors", "1", "20"]) == 0
        output = capsys.readouterr().out
        assert "[Figure 12]" in output
        assert "cnx_dirty-11" in output

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["figure42"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_list_backends(self, capsys):
        assert main(["--list-backends"]) == 0
        output = capsys.readouterr().out
        for name in ("failure", "trajectory", "density", "ideal"):
            assert name in output

    def test_compile_command_with_pipeline(self, capsys):
        assert main(["compile", "cnx_inplace-4", "--pipeline", "baseline",
                     "--topology", "line-20", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "'baseline' pipeline" in output
        assert "CNOTs" in output
        assert "analytic success" in output

    def test_compile_command_rejects_unknown_pipeline(self):
        with pytest.raises(SystemExit):
            main(["compile", "cnx_inplace-4", "--pipeline", "nonesuch"])

    def test_toffoli_exact_density(self, capsys):
        assert main(["toffoli", "--triplets", "2", "--seed", "2", "--exact"]) == 0
        output = capsys.readouterr().out
        assert "exact probabilities, zero shot variance" in output
        assert "[Figure 6]" in output
        # The default 'failure' sampler cannot serve --exact; the CLI must
        # say so rather than silently switching engines.
        assert "using the 'density' backend" in output

    def test_density_backend_rejected_nowhere(self):
        # "density" must be a valid choice for every experiment subcommand.
        with pytest.raises(SystemExit):
            main(["toffoli", "--sampler", "nonesuch"])
        with pytest.raises(SystemExit):
            main(["benchmarks", "--backend", "nonesuch"])

    def test_profile_passes_table_is_pinned(self, capsys):
        # Rows, stages, calls and gate delta of the --profile-passes table
        # for a one-benchmark sweep; seconds (and the row order they drive)
        # vary run to run and are not pinned.
        assert main(["benchmarks", "--benchmarks", "cnx_inplace-4",
                     "--profile-passes"]) == 0
        output = capsys.readouterr().out
        section = output.split("[Pass profile]", 1)[1].splitlines()
        _caption, header, rule, *rows = [line for line in section if line.strip()]
        assert header.split() == ["pass", "stage", "calls", "total", "ms",
                                  "gate", "delta"]
        assert set(rule) <= {"-", " "}
        pinned = sorted(
            (name, stage, int(calls), delta)
            for name, stage, calls, _ms, delta in (row.split() for row in rows)
        )
        assert pinned == [
            ("CancelAdjacentInversesPass", "optimize", 16, "+0"),
            ("Consolidate1qRunsPass", "optimize", 16, "-87"),
            ("DecomposeSwapsPass", "optimize", 8, "+72"),
            ("DecomposeToBasisPass", "decompose", 8, "+272"),
            ("GreedyInteractionLayoutPass", "layout", 8, "+0"),
            ("GreedySwapRouter", "routing", 4, "+22"),
            ("LegalizationRouter", "legalize", 4, "+0"),
            ("MappingAwareToffoliDecomposePass", "second_decompose", 4, "+124"),
            ("RemoveIdentitiesPass", "optimize", 16, "+0"),
            ("TriosRouter", "routing", 4, "+14"),
        ]


# ----------------------------------------------------------------------
# The experiment subcommands' flag surface, pinned flag by flag
# ----------------------------------------------------------------------
BACKENDS = ["failure", "trajectory", "density", "ptm", "ideal"]
ON_ERROR = ["fail", "skip", "serial"]

#: (option strings, default, choices, type, nargs) per dest.
RUN_FLAGS = {
    "shots": (("--shots",), 2048, None, int, None),
    "exact": (("--exact",), False, None, None, 0),
    "jobs": (("--jobs",), 1, None, int, None),
    "profile_passes": (("--profile-passes",), False, None, None, 0),
    "timeout": (("--timeout",), None, None, float, None),
    "retries": (("--retries",), 2, None, int, None),
    "on_error": (("--on-error",), "skip", ON_ERROR, None, None),
    "trace": (("--trace",), None, None, None, None),
}

EXPERIMENT_FLAGS = {
    "toffoli": {
        "triplets": (("--triplets",), 35, None, int, None),
        "seed": (("--seed",), 0, None, int, None),
        "sampler": (("--sampler",), "failure", BACKENDS, None, None),
        **RUN_FLAGS,
    },
    "benchmarks": {
        "seed": (("--seed",), 11, None, int, None),
        "backend": (("--backend",), "analytic", ["analytic", *BACKENDS], None, None),
        "benchmarks": (("--benchmarks",), None, None, None, "+"),
        **RUN_FLAGS,
    },
    "sensitivity": {
        "factors": (("--factors",), [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
                    None, float, "+"),
        "backend": (("--backend",), "analytic", ["analytic", *BACKENDS], None, None),
        **RUN_FLAGS,
    },
}


class TestCliSurface:
    @pytest.mark.parametrize("command", sorted(EXPERIMENT_FLAGS))
    def test_experiment_flags_are_pinned(self, command):
        from repro.experiments.cli import _build_parser

        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
        flags = {
            action.dest: (tuple(action.option_strings), action.default,
                          action.choices, action.type, action.nargs)
            for action in subparsers.choices[command]._actions
            if action.dest != "help"
        }
        assert flags == EXPERIMENT_FLAGS[command]

    def test_all_runs_the_drivers_with_the_paper_settings(self, capsys):
        from repro.experiments import cli

        calls = {}

        def driver(name):
            def record(**kwargs):
                calls[name] = kwargs
                result = mock.MagicMock(failures=[])
                result.gate_reduction.return_value = 0.35
                result.geomean_improvement.return_value = 1.23
                return result
            return record

        formatters = [name for name in dir(cli) if name.startswith("format_")]
        with contextlib.ExitStack() as stack:
            for name in formatters:
                stack.enter_context(mock.patch.object(cli, name, lambda *a: ""))
            stack.enter_context(mock.patch.object(cli, "all_benchmark_statistics",
                                                  lambda: []))
            for name in ("run_toffoli_experiment", "run_benchmark_experiment",
                         "run_sensitivity_experiment"):
                stack.enter_context(mock.patch.object(cli, name, driver(name)))
            assert main(["all"]) == 0
        run = dict(exact=False, jobs=1, timeout=None, retries=2, on_error="skip")
        assert calls == {
            "run_toffoli_experiment": dict(
                num_triplets=20, shots=1024, seed=0, sampler="failure", **run),
            "run_benchmark_experiment": dict(
                seed=11, backend="analytic", shots=2048, benchmarks=None, **run),
            "run_sensitivity_experiment": dict(
                factors=[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
                backend="analytic", shots=2048, **run),
        }
