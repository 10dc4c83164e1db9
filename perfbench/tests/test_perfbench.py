"""Self-test of the end-to-end benchmark at tiny sizes.

Each workload runs as its own process (the benchmark clears ``REPRO_*``
variables in its process, which must not leak into this pytest process) and
must report exactly the metrics ``BENCHMARK.json`` lists, each with its
unit.  The output checker must count a planted defect exactly once.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_tiny(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in expected
    }
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert {m["name"] for m in expected} <= printed
    assert {"failed_ops_ratio", "output_mismatches"} <= printed
    # Every pass class a workload runs is listed in BENCHMARK.json.
    assert "not in BENCHMARK.json" not in done.stdout


@pytest.fixture(scope="module")
def bench_modules():
    paths = [str(HERE), str(ROOT / "src")]
    sys.path[:0] = paths
    try:
        import workloads
        from run import load_file
    finally:
        for path in paths:
            sys.path.remove(path)
    freeze = load_file("freeze_fig9_10_reference",
                       ROOT / "benchmarks" / "freeze_fig9_10_reference.py")
    reference = json.loads(
        (ROOT / "tests" / "data" / "fig9_10_compiled_sha256.json").read_text())["hashes"]
    return workloads, freeze.canonical_bytes, reference


def drop_one_cx(compiled):
    """A copy of ``compiled`` with its last CNOT removed.

    (The first CNOT can be the half of a routing SWAP controlled by an
    ancilla still in |0>, whose removal changes nothing the circuit is used
    for.)
    """
    circuit = compiled.circuit
    index = max(i for i, inst in enumerate(circuit.instructions) if inst.name == "cx")
    broken = circuit.copy_empty()
    broken.extend(circuit.instructions[:index] + circuit.instructions[index + 1:])
    return dataclasses.replace(compiled, circuit=broken, _bare=None)


@pytest.mark.parametrize("seed", [11, 5])
def test_checker_counts_a_dropped_gate_once(bench_modules, seed):
    """Seed 11 is caught by the frozen hashes (and the simulation), any other
    seed by the simulation alone."""
    workloads, canonical_bytes, reference = bench_modules
    reference = reference if seed == workloads.PAPER_SEED else None
    cells = workloads.Sweep(seed, True, reference, canonical_bytes).compiled_cells(seed)
    assert workloads.check_compiled(cells, reference, canonical_bytes) == []
    label = sorted(cells)[0]
    logical, compiled = cells[label]
    cells[label] = (logical, drop_one_cx(compiled))
    problems = workloads.check_compiled(cells, reference, canonical_bytes)
    assert len(problems) == 1 and problems[0].startswith(label)
