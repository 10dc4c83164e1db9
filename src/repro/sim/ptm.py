"""Exact open-system simulation in the Pauli transfer matrix picture.

Where the density backend (:mod:`repro.sim.density`) evolves the full complex
``2^n x 2^n`` density matrix, :class:`PauliTransferMatrixSimulator` stores the
*same* state as its real-valued coefficient vector in the normalized Pauli
basis: ``r[alpha] = Tr(P_alpha rho) / sqrt(2^n)`` over the ``4^n`` Pauli
strings ``alpha`` (quantumsim-style).  Hermiticity of ``rho`` makes every
coefficient real, so the state costs ``4^n`` float64 values — **half** the
memory of the flat complex density vector — and every operation becomes one
real matrix contraction:

* a unitary ``U`` on ``k`` qubits is its real ``4^k x 4^k`` PTM
  (:func:`~repro.sim.channels.unitary_ptm`), one contraction instead of the
  density backend's two complex applies;
* a noise channel is its cached PTM
  (:meth:`~repro.sim.channels.QuantumChannel.ptm`), derived once per
  calibration from the cached superoperator by the Pauli basis change;
* composition is matrix product, so the **fusion layer**
  (:func:`fuse_ptm_ops`) collapses runs of same-wire one-qubit
  gates/channels into one 4x4 PTM and absorbs pending 1q PTMs plus each
  gate's own noise channel into a single ``4^k x 4^k`` contraction —
  typically several fewer state-sized sweeps per gate.

Implementation notes
--------------------
The Pauli vector is indexed by ``n`` base-4 digits (I=0, X=1, Y=2, Z=3;
qubit 0 most significant, matching the statevector convention).  Because a
base-4 digit is exactly two bits, applying a ``4^k x 4^k`` PTM over ``k``
base-4 wires *is* applying it over ``2k`` base-2 wires of a ``2n``-wire
tensor — so the whole evolution reuses
:func:`repro.sim.statevector.apply_matrix` unchanged, mirroring how
``sim/density.py`` reuses the same kernel over ``2n`` wires (see
:func:`apply_ptm`).

Outcome probabilities live entirely in the I/Z subspace: a projector
``|b><b|`` is a tensor product of ``(I ± Z)/2``, so ``p(b)`` is a per-qubit
Hadamard transform of the ``2^n`` coefficients whose digits are all I or Z
(:func:`pauli_probabilities`).  X/Y components never enter the readout,
which is what makes optional truncation of near-zero Pauli components
(``truncate_atol``) safe for effectively-sparse states.

Noise semantics are identical to the density backend — the same per-gate
channels from :class:`~repro.sim.channels.NoiseModel`, the same
``"global"``/``"damping"`` decoherence modes, and the very same classical
tail (:func:`repro.sim.density.finish_exact_distribution`) — so ``"ptm"``
and ``"density"`` agree to floating-point accuracy and the experiment
drivers treat them interchangeably.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..circuits.circuit import QuantumCircuit
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration
from .channels import NoiseModel, unitary_ptm
from .density import finish_exact_distribution
from .result import NoisyResult
from .statevector import (
    apply_matrix,
    marginal_distribution,
    reduce_for_measurement,
)

#: Identity PTM on one qubit — the fusion accumulator's seed.
_IDENTITY_PTM = np.eye(4)
_IDENTITY_PTM.setflags(write=False)

#: One-qubit Hadamard-transform factor taking (c_I, c_Z) to (p_0, p_1).
_IZ_TO_PROB = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_IZ_TO_PROB.setflags(write=False)

#: A fused operation: target qubits plus the real PTM acting on them.
PtmOp = Tuple[Tuple[int, ...], np.ndarray]


def _fast_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` for small 2-D arrays without its shape-juggling overhead.

    The fusion layer krons 4x4 blocks on every multi-qubit absorption, where
    ``np.kron``'s generality costs more than the product itself.
    """
    rows_a, cols_a = a.shape
    rows_b, cols_b = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        rows_a * rows_b, cols_a * cols_b
    )


_ZERO_STATE_CACHE: Dict[int, np.ndarray] = {}


def zero_pauli_state(num_qubits: int) -> np.ndarray:
    """``|0...0><0...0|`` as a flat real Pauli vector of length ``4**num_qubits``.

    ``|0><0| = (I + Z)/2``, so per qubit the normalized coefficients are
    ``(1/sqrt(2), 0, 0, 1/sqrt(2))`` on (I, X, Y, Z).
    """
    if num_qubits < 1:
        raise SimulationError("need at least one qubit")
    cached = _ZERO_STATE_CACHE.get(num_qubits)
    if cached is None:
        single = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        cached = single
        for _ in range(num_qubits - 1):
            cached = np.kron(cached, single)
        cached.setflags(write=False)
        _ZERO_STATE_CACHE[num_qubits] = cached
    return cached.copy()


def ptm_wires(qubits: Sequence[int]) -> Tuple[int, ...]:
    """The base-2 wires of the given base-4 Pauli digits.

    Digit ``q`` of the ``(4,)*n`` Pauli tensor occupies bits ``2q`` (high)
    and ``2q + 1`` (low) of the ``(2,)*2n`` view, in that order — the same
    trick the density backend uses to reuse the statevector kernel.
    """
    return tuple(bit for q in qubits for bit in (2 * q, 2 * q + 1))


def apply_ptm(
    state: np.ndarray, ptm: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a ``4^k x 4^k`` PTM to the given qubits of a Pauli vector.

    One real :func:`~repro.sim.statevector.apply_matrix` call over the
    ``2k`` base-2 wires backing the ``k`` base-4 digits.
    """
    k = len(qubits)
    if ptm.shape != (4**k, 4**k):
        raise SimulationError(
            f"PTM of shape {ptm.shape} does not act on {k} qubits"
        )
    return apply_matrix(state, ptm, ptm_wires(qubits), 2 * num_qubits)


#: Kron-powers of the one-qubit I/Z→probability transform, cached per qubit
#: count.  At most ``2^10 x 2^10`` (8 MB); larger registers fall back to the
#: per-qubit sweep.
_IZ_TRANSFORM_CACHE: Dict[int, np.ndarray] = {}
_IZ_TRANSFORM_MAX_QUBITS = 10


def _iz_transform(num_qubits: int) -> np.ndarray:
    cached = _IZ_TRANSFORM_CACHE.get(num_qubits)
    if cached is None:
        cached = _IZ_TO_PROB
        for _ in range(num_qubits - 1):
            cached = _fast_kron(cached, _IZ_TO_PROB)
        cached = np.ascontiguousarray(cached)
        cached.setflags(write=False)
        _IZ_TRANSFORM_CACHE[num_qubits] = cached
    return cached


def pauli_probabilities(state: np.ndarray, num_qubits: int) -> np.ndarray:
    """The outcome distribution read off the I/Z-subspace components.

    ``|b><b|`` is a tensor product of ``(I + (-1)^{b_q} Z)/2``, so the
    probability vector is a per-qubit Hadamard transform of the ``2^n``
    coefficients whose base-4 digits are all I (0) or Z (3).  Clipped and
    renormalized exactly like the density backend's diagonal.
    """
    tensor = state.reshape((4,) * num_qubits)
    for axis in range(num_qubits):
        tensor = np.take(tensor, (0, 3), axis=axis)
    flat = tensor.reshape(-1)
    if num_qubits <= _IZ_TRANSFORM_MAX_QUBITS:
        flat = _iz_transform(num_qubits) @ flat
    else:
        for qubit in range(num_qubits):
            flat = apply_matrix(flat, _IZ_TO_PROB, (qubit,), num_qubits)
    probabilities = np.clip(flat.real if np.iscomplexobj(flat) else flat, 0.0, None)
    total = probabilities.sum()
    if total <= 0:
        raise SimulationError("Pauli vector has no probability mass")
    return probabilities / total


def fuse_ptm_ops(ops: Sequence[PtmOp]) -> List[PtmOp]:
    """Collapse a PTM op stream into fewer, larger contractions.

    Three fusions, all exact (PTM composition is matrix product):

    * consecutive one-qubit ops on the same wire accumulate into one 4x4
      PTM (a gate's unitary PTM and its noise PTM always fuse, as do whole
      1q runs such as the Toffoli decompositions' ``t``/``h`` chains);
    * a pending 1q PTM on a wire entering a multi-qubit op is absorbed into
      that op's PTM (one kron, zero extra state sweeps);
    * consecutive multi-qubit ops on the *same* qubit tuple — a CNOT and
      its depolarizing channel, back-to-back CNOT pairs — multiply into one
      ``4^k x 4^k`` PTM.

    Returns the fused op list in application order.
    """
    fused: List[PtmOp] = []
    pending: Dict[int, np.ndarray] = {}
    for qubits, ptm in ops:
        if len(qubits) == 1:
            qubit = qubits[0]
            held = pending.get(qubit)
            pending[qubit] = ptm if held is None else ptm @ held
            continue
        if any(q in pending for q in qubits):
            absorbed = pending.pop(qubits[0], _IDENTITY_PTM)
            for qubit in qubits[1:]:
                absorbed = _fast_kron(absorbed, pending.pop(qubit, _IDENTITY_PTM))
            ptm = ptm @ absorbed
        if fused and fused[-1][0] == qubits:
            fused[-1] = (qubits, ptm @ fused[-1][1])
        else:
            fused.append((qubits, ptm))
    fused.extend(((qubit,), ptm) for qubit, ptm in pending.items())
    return fused


class PauliTransferMatrixSimulator:
    """Exact open-system simulator evolving a real ``4^n`` Pauli vector.

    A drop-in peer of :class:`~repro.sim.density.DensityMatrixSimulator`
    (registered as backend ``"ptm"``): the same noise model, the same
    ``run_probabilities``/``run_counts`` surface, the same decoherence
    modes — but half the state memory and one real contraction per (fused)
    operation instead of multiple complex ones, which is what makes it the
    fast exact path on the Fig 6-8 noisy workloads
    (``benchmarks/bench_ptm.py``).

    Args:
        calibration: Device error model compiled into channels via
            :class:`~repro.sim.channels.NoiseModel`; ``None`` simulates
            noiselessly.
        seed: Seed for the multinomial generator behind :meth:`run_counts`.
        include_gate_errors / include_decoherence / include_readout_error:
            Toggles for the three noise contributions, mirroring the other
            backends.
        decoherence: ``"global"`` (the samplers' whole-register failure,
            default) or ``"damping"`` (per-qubit amplitude+phase damping per
            gate duration) — identical semantics to the density backend.
        max_active_qubits: Size limit; ``4**n`` *real* values, so the
            default 12 costs the same memory as the density backend's
            default 11 (the Pauli vector halves the bytes per qubit count).
        fuse: Run the channel-fusion layer (:func:`fuse_ptm_ops`) before
            contracting (default on; exact either way).
        truncate_atol: When positive, zero Pauli components with magnitude
            below this after every contraction — a lossy sparsity knob for
            effectively-sparse states (default ``0.0`` = exact).
    """

    def __init__(
        self,
        calibration: Optional[DeviceCalibration] = None,
        seed: Optional[int] = None,
        include_gate_errors: bool = True,
        include_decoherence: bool = True,
        include_readout_error: bool = True,
        decoherence: str = "global",
        max_active_qubits: int = 12,
        fuse: bool = True,
        truncate_atol: float = 0.0,
    ) -> None:
        if decoherence not in ("global", "damping"):
            raise SimulationError(
                f"unknown decoherence mode {decoherence!r}; "
                "expected 'global' or 'damping'"
            )
        if truncate_atol < 0:
            raise SimulationError(
                f"truncate_atol must be non-negative, got {truncate_atol}"
            )
        self.calibration = calibration
        self.noise_model = NoiseModel(calibration) if calibration is not None else None
        self.rng = np.random.default_rng(seed)
        self.include_gate_errors = include_gate_errors
        self.include_decoherence = include_decoherence
        self.include_readout_error = include_readout_error
        self.decoherence = decoherence
        self.max_active_qubits = max_active_qubits
        self.fuse = fuse
        self.truncate_atol = truncate_atol

    # ------------------------------------------------------------------
    def circuit_ops(self, circuit: QuantumCircuit) -> List[PtmOp]:
        """The raw PTM op stream of ``circuit``: gates plus noise channels.

        One op per unitary instruction (its cached
        :func:`~repro.sim.channels.unitary_ptm`), followed by its calibrated
        gate-error channel's PTM and, in ``"damping"`` mode, per-qubit idle
        damping PTMs — the exact operation sequence the density backend
        applies, expressed as real matrices.
        """
        ops: List[PtmOp] = []
        noisy = self.noise_model is not None
        damping = noisy and self.include_decoherence and self.decoherence == "damping"
        for instruction in circuit.instructions:
            if not instruction.gate.is_unitary:
                continue
            qubits = tuple(instruction.qubits)
            ops.append((qubits, unitary_ptm(instruction.gate.matrix())))
            if noisy and self.include_gate_errors:
                channel = self.noise_model.gate_channel(instruction)
                if channel is not None:
                    ops.append((qubits, channel.ptm()))
            if damping:
                duration = self.calibration.gate_duration(
                    instruction.name, instruction.qubits
                )
                idle = self.noise_model.idle_channel(duration)
                if idle is not None:
                    idle_ptm = idle.ptm()
                    ops.extend(((qubit,), idle_ptm) for qubit in qubits)
        return ops

    def evolve(self, circuit: QuantumCircuit) -> np.ndarray:
        """The final real ``4^n`` Pauli vector of ``circuit``.

        Global decoherence and readout are classical post-processing on the
        outcome distribution (shared with the density backend) and are *not*
        part of this vector.
        """
        if circuit.num_qubits > self.max_active_qubits:
            raise SimulationError(
                f"{circuit.num_qubits} qubits exceeds the PTM simulator "
                f"limit ({self.max_active_qubits}); restrict to active "
                "qubits first"
            )
        num_qubits = circuit.num_qubits
        ops = self.circuit_ops(circuit)
        raw_ops = len(ops)
        if self.fuse:
            ops = fuse_ptm_ops(ops)
        state = zero_pauli_state(num_qubits)
        truncate = self.truncate_atol
        for qubits, ptm in ops:
            state = apply_ptm(state, ptm, qubits, num_qubits)
            if truncate > 0.0:
                state[np.abs(state) < truncate] = 0.0
        if obs.is_enabled():
            obs.counter("sim.ptm.op_applications").inc(len(ops))
            obs.counter("sim.ptm.fused_ops_saved").inc(raw_ops - len(ops))
            obs.histogram("sim.ptm.peak_bytes").observe(float(state.nbytes))
            obs.add_attrs(
                op_applications=len(ops),
                raw_ops=raw_ops,
                fused_ops_saved=raw_ops - len(ops),
                peak_bytes=state.nbytes,
            )
        return state

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
                f"{reduced.num_qubits} active qubits exceeds the PTM "
                f"simulator limit ({self.max_active_qubits})"
            )
        with obs.span(
            "ptm.run", category="sim", source=circuit.name,
            qubits=reduced.num_qubits, fuse=self.fuse,
        ):
            state = self.evolve(reduced)
            probabilities = pauli_probabilities(state, reduced.num_qubits)
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

        Same contract as
        :meth:`~repro.sim.density.DensityMatrixSimulator.run_probabilities`
        (the two backends agree to floating-point accuracy): a ``{bitstring:
        probability}`` mapping over the measured qubits with the shared
        ``1e-15`` floor, leftmost character = first measured qubit.
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

        One multinomial draw from the exact distribution, like the density
        backend; a non-``None`` ``seed`` reseeds the generator so repeated
        calls are reproducible.
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
