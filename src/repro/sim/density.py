"""Exact open-system simulation on a dense density matrix.

Where the shot samplers in :mod:`repro.sim.noise` *estimate* the paper's
success probabilities by Monte Carlo, :class:`DensityMatrixSimulator`
computes them *exactly*: the circuit's noise — the same per-gate Pauli
channels, decoherence and readout confusion the trajectory sampler draws
from, all supplied by :mod:`repro.sim.channels` — is applied as superoperators
to a ``2^n x 2^n`` density matrix, and the outcome distribution is read off
the diagonal.  ``run_probabilities`` returns that analytic distribution
(a capability beyond the :class:`~repro.sim.SimulationBackend` protocol);
``run_counts`` draws a multinomial sample from it, so the backend also slots
into every shot-counting experiment driver under the name ``"density"``.

Implementation notes
--------------------
The density matrix is stored as a flat vector over ``2n`` wires (``n`` row
wires, then ``n`` column wires, row-major), which lets the whole evolution
reuse :func:`repro.sim.statevector.apply_matrix` unchanged:

* a unitary ``U`` on qubits ``q`` is two applications — ``U`` on the row
  wires ``q`` and ``U.conj()`` on the column wires ``n + q``;
* a noise channel is **one** application of its cached ``4^k x 4^k``
  superoperator across the row *and* column wires together (cheaper than
  iterating Kraus operators: one contraction instead of two per operator).

Memory is the limiting factor — ``4^n`` complex amplitudes — so the default
``max_active_qubits`` is 11 (≈64 MiB per density matrix); circuits are first
restricted to their active qubits like every other backend.

Two decoherence modes are offered:

* ``"global"`` (default): the paper's whole-register failure — with
  probability ``1 - e^{-(Δ/T1+Δ/T2)}`` the outcome is uniformly random.  This
  matches the shot samplers' model *exactly*, so ``"density"`` and
  ``"trajectory"`` agree to within shot noise.
* ``"damping"``: per-qubit amplitude+phase damping channels applied for each
  gate's duration on the qubits it acts on — a CPTP, per-qubit alternative
  for studies where the global scramble is too coarse.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..circuits.circuit import QuantumCircuit
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration
from .channels import NoiseModel
from .estimator import circuit_duration
from .result import NoisyResult
from .statevector import (
    apply_matrix,
    marginal_distribution,
    reduce_for_measurement,
)


def zero_density(num_qubits: int) -> np.ndarray:
    """``|0...0><0...0|`` as a flat row-major vector of length ``4**num_qubits``."""
    if num_qubits < 1:
        raise SimulationError("need at least one qubit")
    rho = np.zeros(4**num_qubits, dtype=complex)
    rho[0] = 1.0
    return rho


def apply_unitary_to_density(
    rho: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """``rho -> U rho U†`` on a flat density vector, via two statevector applies."""
    rows = tuple(qubits)
    cols = tuple(num_qubits + q for q in qubits)
    rho = apply_matrix(rho, matrix, rows, 2 * num_qubits)
    return apply_matrix(rho, matrix.conj(), cols, 2 * num_qubits)


def apply_channel_to_density(
    rho: np.ndarray, channel, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a :class:`~repro.sim.channels.QuantumChannel` in one contraction.

    The channel's cached ``4^k x 4^k`` superoperator acts jointly on the row
    wires ``qubits`` and the column wires ``num_qubits + qubits`` (row wires
    most significant, matching the row-major superoperator convention).
    """
    wires = tuple(qubits) + tuple(num_qubits + q for q in qubits)
    return apply_matrix(rho, channel.superoperator(), wires, 2 * num_qubits)


def density_diagonal(rho: np.ndarray, num_qubits: int) -> np.ndarray:
    """The outcome distribution on the diagonal, clipped and renormalized."""
    diagonal = rho.reshape(2**num_qubits, 2**num_qubits).diagonal().real
    probabilities = np.clip(diagonal, 0.0, None)
    total = probabilities.sum()
    if total <= 0:
        raise SimulationError("density matrix has no probability mass")
    return probabilities / total


class DensityMatrixSimulator:
    """Exact open-system simulator: noise as channels, no shot sampling.

    Args:
        calibration: Device error model compiled into channels via
            :class:`~repro.sim.channels.NoiseModel`; ``None`` simulates
            noiselessly (then equal to the statevector distribution).
        seed: Seed for the multinomial generator behind :meth:`run_counts`
            (:meth:`run_probabilities` consumes no randomness).
        include_gate_errors / include_decoherence / include_readout_error:
            Toggles for the three noise contributions, mirroring the samplers.
        decoherence: ``"global"`` (the samplers' whole-register failure,
            default) or ``"damping"`` (per-qubit amplitude+phase damping per
            gate duration).
        max_active_qubits: Dense-density size limit; ``4**n`` amplitudes.
    """

    def __init__(
        self,
        calibration: Optional[DeviceCalibration] = None,
        seed: Optional[int] = None,
        include_gate_errors: bool = True,
        include_decoherence: bool = True,
        include_readout_error: bool = True,
        decoherence: str = "global",
        max_active_qubits: int = 11,
    ) -> None:
        if decoherence not in ("global", "damping"):
            raise SimulationError(
                f"unknown decoherence mode {decoherence!r}; "
                "expected 'global' or 'damping'"
            )
        self.calibration = calibration
        self.noise_model = NoiseModel(calibration) if calibration is not None else None
        self.rng = np.random.default_rng(seed)
        self.include_gate_errors = include_gate_errors
        self.include_decoherence = include_decoherence
        self.include_readout_error = include_readout_error
        self.decoherence = decoherence
        self.max_active_qubits = max_active_qubits

    # ------------------------------------------------------------------
    def evolve(self, circuit: QuantumCircuit) -> np.ndarray:
        """The final ``2^n x 2^n`` density matrix of ``circuit``.

        Applies every unitary instruction followed by its calibrated noise
        channel (and, in ``"damping"`` mode, idle damping on the acted
        qubits).  Global decoherence and readout are classical post-processing
        on the outcome distribution and are *not* part of this matrix.
        """
        if circuit.num_qubits > self.max_active_qubits:
            raise SimulationError(
                f"{circuit.num_qubits} qubits exceeds the density-matrix "
                f"simulator limit ({self.max_active_qubits}); restrict to "
                "active qubits first"
            )
        num_qubits = circuit.num_qubits
        rho = zero_density(num_qubits)
        noisy = self.noise_model is not None
        damping = noisy and self.include_decoherence and self.decoherence == "damping"
        unitaries = 0
        channels = 0
        for instruction in circuit.instructions:
            if not instruction.gate.is_unitary:
                continue
            rho = apply_unitary_to_density(
                rho, instruction.gate.matrix(), instruction.qubits, num_qubits
            )
            unitaries += 1
            if noisy and self.include_gate_errors:
                channel = self.noise_model.gate_channel(instruction)
                if channel is not None:
                    rho = apply_channel_to_density(
                        rho, channel, instruction.qubits, num_qubits
                    )
                    channels += 1
            if damping:
                duration = self.calibration.gate_duration(
                    instruction.name, instruction.qubits
                )
                idle = self.noise_model.idle_channel(duration)
                if idle is not None:
                    for qubit in instruction.qubits:
                        rho = apply_channel_to_density(rho, idle, (qubit,), num_qubits)
                        channels += 1
        if obs.is_enabled():
            obs.counter("sim.density.gate_applications").inc(unitaries)
            obs.counter("sim.density.channel_applications").inc(channels)
            obs.histogram("sim.density.peak_bytes").observe(float(rho.nbytes))
            obs.add_attrs(
                gate_applications=unitaries,
                channel_applications=channels,
                peak_bytes=rho.nbytes,
            )
        return rho.reshape(2**num_qubits, 2**num_qubits)

    def _exact_distribution(
        self,
        circuit: QuantumCircuit,
        measured_qubits: Optional[Sequence[int]],
    ) -> Tuple[np.ndarray, List[int]]:
        """The exact outcome distribution over the measured qubits, in order."""
        reduced, measured_qubits, compact_measured = reduce_for_measurement(
            circuit, measured_qubits
        )
        if reduced.num_qubits > self.max_active_qubits:
            raise SimulationError(
                f"{reduced.num_qubits} active qubits exceeds the density-matrix "
                f"simulator limit ({self.max_active_qubits})"
            )
        # evolve() skips non-unitary instructions itself, so the reduced
        # circuit needs no measure-stripping copy.
        with obs.span(
            "density.run", category="sim", source=circuit.name,
            qubits=reduced.num_qubits,
        ):
            rho = self.evolve(reduced)
            probabilities = density_diagonal(rho.reshape(-1), reduced.num_qubits)
            distribution = marginal_distribution(
                probabilities, reduced.num_qubits, compact_measured
            )
            distribution = finish_exact_distribution(
                distribution, circuit, self, len(measured_qubits)
            )
        return distribution, measured_qubits

    # ------------------------------------------------------------------
    def run_probabilities(
        self,
        circuit: QuantumCircuit,
        measured_qubits: Optional[Sequence[int]] = None,
    ) -> Dict[str, float]:
        """The exact outcome distribution — the shot-free figure of merit.

        Args:
            circuit: Compiled circuit (one- and two-qubit gates; SWAPs allowed
                and modelled as three noisy CNOTs).
            measured_qubits: Original qubit indices to report, in order;
                defaults to the circuit's ``measure`` instructions, or all
                active qubits.

        Returns:
            ``{bitstring: probability}`` with every non-negligible outcome
            (the leftmost character is the first measured qubit), summing to
            one.  The same ``1e-15`` floor as
            :func:`~repro.sim.statevector.marginal_probabilities` keeps
            numerically-zero outcomes out of the noiseless distribution.
        """
        distribution, measured_qubits = self._exact_distribution(
            circuit, measured_qubits
        )
        width = len(measured_qubits)
        if width == 0:
            return {"": 1.0}
        return {
            format(index, f"0{width}b"): float(probability)
            for index, probability in enumerate(distribution)
            if probability > 1e-15
        }

    def success_probability(
        self,
        circuit: QuantumCircuit,
        expected: str,
        measured_qubits: Optional[Sequence[int]] = None,
    ) -> float:
        """Exact probability of reading ``expected`` — zero shot variance."""
        return self.run_probabilities(circuit, measured_qubits).get(expected, 0.0)

    def run_counts(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        measured_qubits: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> NoisyResult:
        """:class:`~repro.sim.SimulationBackend` entry point.

        Draws one multinomial sample of size ``shots`` from the exact
        distribution — statistically identical to hardware-style shot counts
        but without evolving anything per shot.  A non-``None`` ``seed``
        reseeds the generator so repeated calls are reproducible.
        """
        if shots < 1:
            raise SimulationError("shots must be positive")
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        distribution, measured_qubits = self._exact_distribution(
            circuit, measured_qubits
        )
        width = len(measured_qubits)
        if width == 0:
            return NoisyResult(counts={"": shots}, shots=shots, measured_qubits=())
        draws = self.rng.multinomial(shots, distribution / distribution.sum())
        counts = {
            format(index, f"0{width}b"): int(tally)
            for index, tally in enumerate(draws)
            if tally
        }
        return NoisyResult(
            counts=counts, shots=shots, measured_qubits=tuple(measured_qubits)
        )


def apply_confusion(
    distribution: np.ndarray, width: int, confusion: np.ndarray
) -> np.ndarray:
    """Apply the per-bit readout confusion matrix to an outcome distribution."""
    for bit in range(width):
        distribution = apply_matrix(distribution, confusion, (bit,), width)
    return distribution


def finish_exact_distribution(
    distribution: np.ndarray,
    circuit: QuantumCircuit,
    simulator,
    num_measured: int,
) -> np.ndarray:
    """The classical noise tail shared by the exact backends.

    Applies the paper's whole-register decoherence scramble (``"global"``
    mode) and the per-bit readout confusion to a marginal outcome
    distribution.  ``simulator`` is any engine with the density-style noise
    attributes (``noise_model``, ``calibration``, ``include_decoherence``,
    ``decoherence``, ``include_readout_error``) — the density and PTM
    backends both delegate here, so their post-quantum processing can never
    drift apart.
    """
    noisy = simulator.noise_model is not None
    if noisy and simulator.include_decoherence and simulator.decoherence == "global":
        duration = circuit_duration(
            circuit.without(["barrier"]), simulator.calibration
        )
        failure = simulator.noise_model.decoherence_failure_probability(duration)
        distribution = (1.0 - failure) * distribution + failure / distribution.size
    if (
        noisy
        and simulator.include_readout_error
        and simulator.calibration.readout_error > 0
        and num_measured
    ):
        distribution = apply_confusion(
            distribution, num_measured, simulator.noise_model.readout_confusion()
        )
    return distribution
