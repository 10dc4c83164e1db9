"""The formal equivalence-checking harness.

Every rewrite the compiler performs — decomposition, routing, cancellation,
commutation-aware optimisation — is only trusted because it can be machine
checked.  This module is the single place that knows how to do that checking,
and it is consumed from three directions:

* the optimisation passes' debug mode
  (:class:`repro.passes.commutation.CommutativeCancellationPass` with
  ``verify=True``) re-checks every rewritten circuit;
* the test suite's property tests assert that each pass preserves semantics on
  randomized circuits;
* the benchmark harnesses (``benchmarks/bench_opt_levels.py``) verify that the
  level-3 optimizer's output is equivalent to the level-2 output cell by cell.

Two checking methods are provided and selected automatically by size:

* **unitary** — build both ``2^n x 2^n`` unitaries with
  :func:`repro.sim.unitary.circuit_unitary` and compare them exactly (up to
  global phase, and up to the wire permutation routing introduces).  Complete,
  but exponential: used up to :data:`MAX_UNITARY_QUBITS` qubits.
* **statevector** — run both circuits on a handful of random product states
  and compare the output states.  A randomized check (complete only with
  probability 1), but it scales to every circuit the statevector simulator
  can hold, which covers the full 20-qubit benchmark suite.

:func:`routed_circuits_equivalent` extends the check across a *compilation*:
it understands the initial/final layouts a pipeline produces, prepares inputs
on the initial wires, and demands the outputs appear on the final wires with
every ancilla wire returned to |0⟩.
"""

from __future__ import annotations

import numpy as np

from typing import Dict, Mapping, Optional

from ..circuits.circuit import QuantumCircuit
from ..exceptions import EquivalenceError, SimulationError
from .statevector import StatevectorSimulator, statevector_fidelity
from .unitary import (
    UNITARY_ATOL,
    UNITARY_RTOL,
    circuit_unitary,
    equal_up_to_global_phase,
    permutation_unitary,
    phase_aligned_distance,
)

#: Largest circuit compared via its full unitary when ``method="auto"``.
MAX_UNITARY_QUBITS = 10

#: Largest circuit compared via random statevectors when ``method="auto"``.
MAX_STATEVECTOR_QUBITS = 20

#: Smallest per-amplitude tolerance of the statevector method's exact
#: (phase-sensitive) comparison: simulating a 20-qubit circuit accumulates
#: rounding well above the unitary method's ``atol``.
STATEVECTOR_MIN_ATOL = 1e-7

#: The statevector method's phase-insensitive comparison demands fidelity at
#: least ``1 - FIDELITY_SLACK * max(atol, FIDELITY_MIN_ATOL)``: a random
#: input spreads any operator difference across all amplitudes, so the bound
#: is on the overlap, not per entry.
FIDELITY_SLACK = 10
FIDELITY_MIN_ATOL = 1e-10

#: Default fidelity a compiled circuit must reach against its logical source
#: in :func:`routed_circuits_equivalent` / :func:`assert_routed_equivalent`.
ROUTED_FIDELITY_FLOOR = 1.0 - 1e-7


def _strippable(circuit: QuantumCircuit) -> QuantumCircuit:
    """A measurement- and barrier-free copy (what both methods compare)."""
    if any(inst.name in ("measure", "barrier") for inst in circuit.instructions):
        return circuit.without(["measure", "barrier"])
    return circuit


def unpermute_statevector(
    state: np.ndarray, permutation: Mapping[int, int], num_qubits: int
) -> np.ndarray:
    """Undo a wire relabelling on a statevector.

    If routing moved logical qubit ``q``'s data to wire ``permutation[q]``,
    this returns the state re-expressed on the logical labels — the
    statevector analogue of composing with
    :func:`~repro.sim.unitary.permutation_unitary` transposed, but in
    O(2^n) instead of O(4^n).
    """
    axes = [permutation.get(q, q) for q in range(num_qubits)]
    if sorted(axes) != list(range(num_qubits)):
        raise SimulationError(f"permutation {dict(permutation)!r} is not a bijection")
    tensor = np.asarray(state).reshape((2,) * num_qubits)
    return tensor.transpose(axes).reshape(-1)


def _random_product_prep(num_qubits: int, rng: np.random.Generator) -> QuantumCircuit:
    """A circuit preparing an independent random single-qubit state per wire."""
    prep = QuantumCircuit(num_qubits, "prep")
    for qubit in range(num_qubits):
        theta, phi, lam = rng.uniform(0.0, 2.0 * np.pi, size=3)
        prep.u3(theta, phi, lam, qubit)
    return prep


def _unitary_equivalent(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    final_permutation: Optional[Mapping[int, int]],
    up_to_global_phase: bool,
    atol: float,
) -> bool:
    unitary_a = circuit_unitary(circuit_a, max_qubits=circuit_a.num_qubits)
    unitary_b = circuit_unitary(circuit_b, max_qubits=circuit_b.num_qubits)
    if final_permutation:
        perm = permutation_unitary(dict(final_permutation), circuit_b.num_qubits)
        unitary_b = perm.conj().T @ unitary_b
    if up_to_global_phase:
        return equal_up_to_global_phase(unitary_a, unitary_b, atol=atol)
    return bool(np.allclose(unitary_a, unitary_b, rtol=UNITARY_RTOL, atol=atol))


def _statevector_equivalent(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    final_permutation: Optional[Mapping[int, int]],
    up_to_global_phase: bool,
    atol: float,
    trials: int,
    seed: int,
) -> bool:
    num_qubits = circuit_a.num_qubits
    rng = np.random.default_rng(seed)
    simulator = StatevectorSimulator(num_qubits_limit=num_qubits + 1)
    fidelity_floor = 1.0 - max(atol, FIDELITY_MIN_ATOL) * FIDELITY_SLACK
    for _ in range(trials):
        prep = _random_product_prep(num_qubits, rng)
        state_a = simulator.run(prep.copy().extend(circuit_a.instructions))
        state_b = simulator.run(prep.copy().extend(circuit_b.instructions))
        if final_permutation:
            state_b = unpermute_statevector(state_b, final_permutation, num_qubits)
        if up_to_global_phase:
            if statevector_fidelity(state_a, state_b) < fidelity_floor:
                return False
        elif not np.allclose(state_a, state_b, rtol=UNITARY_RTOL,
                             atol=max(atol, STATEVECTOR_MIN_ATOL)):
            return False
    return True


def circuits_equivalent(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    final_permutation: Optional[Dict[int, int]] = None,
    *,
    up_to_global_phase: bool = True,
    atol: float = UNITARY_ATOL,
    method: str = "auto",
    trials: int = 4,
    seed: int = 20260730,
) -> bool:
    """Whether two measurement-free circuits implement the same operation.

    Args:
        circuit_a: Reference circuit.
        circuit_b: Candidate circuit (e.g. after an optimisation pass).
        final_permutation: If routing moved logical qubit ``q``'s data to wire
            ``final_permutation[q]``, pass that map so the comparison undoes
            it before comparing.
        up_to_global_phase: Treat circuits differing only by an overall
            complex phase as equivalent (the physically meaningful notion,
            and the default).  Note the ``"statevector"`` method cannot
            distinguish a *global* phase on entangled outputs either way.
        atol: Numerical tolerance.
        method: ``"unitary"`` for the exact ``2^n x 2^n`` comparison,
            ``"statevector"`` for the randomized product-state check, or
            ``"auto"`` (default) to pick by circuit size
            (:data:`MAX_UNITARY_QUBITS` / :data:`MAX_STATEVECTOR_QUBITS`).
        trials: Random input states for the ``"statevector"`` method.
        seed: Seed for those random inputs (the check is deterministic).

    Raises:
        SimulationError: Unknown method, mismatched widths are reported as
            ``False`` — but a circuit too large even for the statevector
            method raises.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        return False
    circuit_a = _strippable(circuit_a)
    circuit_b = _strippable(circuit_b)
    num_qubits = circuit_a.num_qubits
    if method == "auto":
        method = "unitary" if num_qubits <= MAX_UNITARY_QUBITS else "statevector"
    if method == "unitary":
        return _unitary_equivalent(
            circuit_a, circuit_b, final_permutation, up_to_global_phase, atol
        )
    if method == "statevector":
        if num_qubits > MAX_STATEVECTOR_QUBITS:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the statevector equivalence "
                f"limit ({MAX_STATEVECTOR_QUBITS})"
            )
        return _statevector_equivalent(
            circuit_a, circuit_b, final_permutation, up_to_global_phase,
            atol, trials, seed,
        )
    raise SimulationError(
        f"unknown equivalence method {method!r}; use 'auto', 'unitary' or "
        f"'statevector'"
    )


def assert_unitary_equivalent(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    final_permutation: Optional[Dict[int, int]] = None,
    *,
    up_to_global_phase: bool = True,
    atol: float = UNITARY_ATOL,
    max_qubits: int = 12,
    context: str = "",
) -> None:
    """Assert two circuits have the same unitary, with a diagnostic message.

    The exact (non-randomized) check: both full unitaries are built and
    compared.  On failure an :class:`~repro.exceptions.EquivalenceError` —
    which is also an :class:`AssertionError` — reports the phase-aligned
    operator deviation and both gate histograms, so a failing pass test or a
    tripped pass debug mode is immediately actionable.

    Args:
        circuit_a: Reference circuit.
        circuit_b: Candidate circuit.
        final_permutation: Wire relabelling introduced by routing, undone
            before comparison.
        up_to_global_phase: Ignore an overall complex phase (default).
        atol: Numerical tolerance.
        max_qubits: Refuse (with an error) to build larger unitaries.
        context: Optional prefix naming what was being verified.
    """
    prefix = f"{context}: " if context else ""
    if circuit_a.num_qubits != circuit_b.num_qubits:
        raise EquivalenceError(
            f"{prefix}circuits have different widths "
            f"({circuit_a.num_qubits} vs {circuit_b.num_qubits} qubits)"
        )
    stripped_a = _strippable(circuit_a)
    stripped_b = _strippable(circuit_b)
    unitary_a = circuit_unitary(stripped_a, max_qubits=max_qubits)
    unitary_b = circuit_unitary(stripped_b, max_qubits=max_qubits)
    if final_permutation:
        perm = permutation_unitary(dict(final_permutation), circuit_b.num_qubits)
        unitary_b = perm.conj().T @ unitary_b
    if up_to_global_phase:
        equal = equal_up_to_global_phase(unitary_a, unitary_b, atol=atol)
    else:
        equal = bool(np.allclose(unitary_a, unitary_b, rtol=UNITARY_RTOL, atol=atol))
    if equal:
        return
    deviation = phase_aligned_distance(unitary_a, unitary_b)
    raise EquivalenceError(
        f"{prefix}circuits {circuit_a.name!r} and {circuit_b.name!r} are not "
        f"unitarily equivalent (phase-aligned max deviation {deviation:.3e}, "
        f"atol {atol:g}); gate counts {stripped_a.count_ops()} vs "
        f"{stripped_b.count_ops()}"
    )


def routed_circuits_equivalent(
    logical: QuantumCircuit,
    compiled: QuantumCircuit,
    initial_layout: Mapping[int, int],
    final_layout: Mapping[int, int],
    *,
    trials: int = 3,
    seed: int = 7,
    max_active: int = 14,
    fidelity_floor: float = ROUTED_FIDELITY_FLOOR,
) -> float:
    """Check a compiled circuit against its logical source, layouts included.

    The logical circuit's qubit ``q`` starts on device wire
    ``initial_layout[q]`` and its data must end on wire ``final_layout[q]``;
    every other wire the compiled circuit touches starts in |0⟩ and must end
    in |0⟩ (routing SWAP chains only move those zeros around).  The check
    prepares random single-qubit product states on the logical inputs, runs
    both circuits, and compares the full output states.

    Returns:
        The worst fidelity observed across the ``trials`` random inputs
        (1.0 means indistinguishable).  Callers asserting equivalence should
        compare it against ``fidelity_floor`` — or use
        :func:`assert_routed_equivalent`, which does and raises.

    Raises:
        SimulationError: When more than ``max_active`` device wires are
            involved (the dense simulation would not fit).
    """
    rng = np.random.default_rng(seed)
    simulator = StatevectorSimulator(num_qubits_limit=max_active + 2)
    compiled = compiled.without(["measure", "barrier"])
    logical = logical.without(["measure", "barrier"])
    initial = dict(initial_layout)
    final = dict(final_layout)
    active = sorted(
        compiled.active_qubits() | set(initial.values()) | set(final.values())
    )
    if len(active) > max_active:
        raise SimulationError(
            f"{len(active)} active wires is too many for an equivalence "
            f"check (limit {max_active})"
        )
    compact = {wire: index for index, wire in enumerate(active)}
    mapping = {w: compact[w] for w in compiled.active_qubits()}
    compiled_small = compiled.remap_qubits(mapping, num_qubits=len(active))
    num_wires = len(active)
    num_logical = logical.num_qubits

    worst = 1.0
    for _ in range(trials):
        angles = rng.uniform(0, 2 * np.pi, size=(num_logical, 3))
        # Reference: preparation + logical circuit on the logical register.
        reference = QuantumCircuit(num_logical)
        for qubit in range(num_logical):
            reference.u3(*angles[qubit], qubit)
        reference.extend(logical.instructions)
        expected_small = simulator.run(reference)
        # Compiled: the same preparation applied on the initial wires.
        prep = QuantumCircuit(num_wires)
        for qubit in range(num_logical):
            prep.u3(*angles[qubit], compact[initial[qubit]])
        prep.extend(compiled_small.instructions)
        actual = simulator.run(prep)
        # Build the expected full state: logical output amplitudes live on the
        # final wires, every other wire is |0⟩.
        expected = np.zeros(2**num_wires, dtype=complex)
        for index in range(2**num_logical):
            wire_index = 0
            for qubit in range(num_logical):
                bit = (index >> (num_logical - 1 - qubit)) & 1
                if bit:
                    wire_index |= 1 << (num_wires - 1 - compact[final[qubit]])
            expected[wire_index] = expected_small[index]
        worst = min(worst, statevector_fidelity(actual, expected))
        if worst < fidelity_floor:
            break
    return worst


def assert_routed_equivalent(
    logical: QuantumCircuit,
    compiled: QuantumCircuit,
    initial_layout: Mapping[int, int],
    final_layout: Mapping[int, int],
    *,
    trials: int = 3,
    seed: int = 7,
    max_active: int = 14,
    fidelity_floor: float = ROUTED_FIDELITY_FLOOR,
    context: str = "",
) -> None:
    """Assert a compilation preserved semantics; raise with the fidelity if not."""
    fidelity = routed_circuits_equivalent(
        logical, compiled, initial_layout, final_layout,
        trials=trials, seed=seed, max_active=max_active,
        fidelity_floor=fidelity_floor,
    )
    if fidelity < fidelity_floor:
        prefix = f"{context}: " if context else ""
        raise EquivalenceError(
            f"{prefix}compiled circuit for {logical.name!r} deviates from the "
            f"original (fidelity {fidelity:.6f} < {fidelity_floor})"
        )
