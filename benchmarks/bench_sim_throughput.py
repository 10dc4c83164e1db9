"""Shots-per-second of the noisy samplers, before and after batching.

"Before" is the seed repository's per-shot Python loop (frozen in
``_legacy_samplers.py``); "after" is the batched engine that groups shots by
Pauli-error pattern and vectorizes everything else.  The workload is the
ISSUE's acceptance case: a decomposed Toffoli on 4 qubits at 1024 shots under
the 2020-08-19 Johannesburg calibration.

A second section times the statevector gate kernel on a wide state: the
batched failure sampler on the Figure 8 baseline Toffoli routed across
Johannesburg triplet (0, 9, 15), which activates 16 qubits, once on the
current slice kernel and once on the seed's ``tensordot`` kernel (frozen in
``_legacy_samplers.py``).  It prints the ratio and asserts only that both
kernels sample identical counts, since the ratio depends on the BLAS build
and its threading.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sim_throughput.py -q -s

or standalone (prints a small table, asserts the >=10x speedup)::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _legacy_samplers import LegacyGateFailureSampler, LegacyTrajectorySampler, tensordot_kernel

from repro.circuits import QuantumCircuit
from repro.experiments.toffoli import compile_configuration
from repro.hardware import johannesburg, johannesburg_aug19_2020
from repro.sim import GateFailureSampler, PauliTrajectorySampler

SHOTS = 1024
CALIBRATION = johannesburg_aug19_2020()


def toffoli_workload() -> QuantumCircuit:
    """Decomposed |110⟩-input Toffoli plus a spectator CNOT (4 qubits)."""
    circuit = QuantumCircuit(4)
    circuit.x(0).x(1)
    circuit.h(2).cx(1, 2).tdg(2).cx(0, 2).t(2).cx(1, 2).tdg(2).cx(0, 2)
    circuit.t(1).t(2).h(2).cx(0, 1).t(0).tdg(1).cx(0, 1)
    circuit.cx(2, 3)
    return circuit


def wide_toffoli_workload():
    """The baseline-compiled Toffoli on triplet (0, 9, 15): 16 active qubits."""
    compiled = compile_configuration(
        "Qiskit (baseline)", johannesburg(), {0: 0, 1: 9, 2: 15}, seed=1
    )
    circuit = compiled.circuit.without(["measure"])
    assert len(circuit.active_qubits()) >= 14
    return circuit, compiled.physical_qubits_of([0, 1, 2])


def shots_per_second(sampler, circuit, repeats: int = 3, measured_qubits=None) -> float:
    """Best-of-``repeats`` throughput of ``sampler.run`` on ``circuit``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = sampler.run(circuit, shots=SHOTS, measured_qubits=measured_qubits)
        best = min(best, time.perf_counter() - start)
        assert sum(result.counts.values()) == SHOTS
    return SHOTS / best


def measure_wide_kernels():
    """Failure-sampler throughput on the wide Toffoli under each gate kernel.

    Both runs use the same seed, so they must sample identical counts.
    """
    circuit, measured = wide_toffoli_workload()

    def run():
        counts = GateFailureSampler(CALIBRATION, seed=0).run(
            circuit, shots=SHOTS, measured_qubits=measured
        ).counts
        rate = shots_per_second(
            GateFailureSampler(CALIBRATION, seed=0), circuit, measured_qubits=measured
        )
        return rate, counts

    with tensordot_kernel():
        tensordot_rate, tensordot_counts = run()
    slice_rate, slice_counts = run()
    assert slice_counts == tensordot_counts
    return {
        "failure 16q (tensordot)": tensordot_rate,
        "failure 16q (slices)": slice_rate,
    }


def measure_all():
    """Throughput of every sampler variant on the Toffoli workload."""
    circuit = toffoli_workload()
    return {
        "trajectory (per-shot)": shots_per_second(
            LegacyTrajectorySampler(CALIBRATION, seed=0), circuit
        ),
        "trajectory (batched)": shots_per_second(
            PauliTrajectorySampler(CALIBRATION, seed=0), circuit
        ),
        "failure (per-shot)": shots_per_second(
            LegacyGateFailureSampler(CALIBRATION, seed=0), circuit
        ),
        "failure (batched)": shots_per_second(
            GateFailureSampler(CALIBRATION, seed=0), circuit
        ),
        **measure_wide_kernels(),
    }


def report(rates) -> str:
    lines = [f"{SHOTS}-shot Toffoli workload, Johannesburg 2020-08-19 calibration"]
    for label, rate in rates.items():
        lines.append(f"  {label:24s} {rate:>12,.0f} shots/s")
    lines.append(
        "  speedup: trajectory {:.1f}x, failure {:.1f}x".format(
            rates["trajectory (batched)"] / rates["trajectory (per-shot)"],
            rates["failure (batched)"] / rates["failure (per-shot)"],
        )
    )
    lines.append(
        "  slice kernel vs tensordot kernel on 16 active qubits: {:.2f}x".format(
            rates["failure 16q (slices)"] / rates["failure 16q (tensordot)"]
        )
    )
    return "\n".join(lines)


def test_trajectory_sampler_throughput():
    rates = measure_all()
    print("\n" + report(rates))
    # The ISSUE's acceptance bar: >=10x shots/second for the trajectory
    # sampler on the 4-qubit, 1024-shot Toffoli workload.
    assert rates["trajectory (batched)"] >= 10 * rates["trajectory (per-shot)"]
    # The failure sampler's loop was lighter, so the bar is lower.
    assert rates["failure (batched)"] >= 3 * rates["failure (per-shot)"]


if __name__ == "__main__":
    test_trajectory_sampler_throughput()
    print("ok")
