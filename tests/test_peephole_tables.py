"""The 1q peephole's lookup tables return exactly what the computation would.

``synthesis.word_to_u3`` memoizes the product-and-resynthesis of each distinct
1q gate word, and ``Gate.is_identity`` memoizes its default-tolerance verdict.
Both are keyed by ``gate.exact_key`` (name plus parameter bits), so the tests
here hold every lookup, cold or warm, to the uncached steps bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits import gate as gate_module
from repro.circuits.gate import IDENTITY_TOL, Gate, exact_key, identity_up_to_phase
from repro.passes import Consolidate1qRunsPass, PropertySet
from repro.passes import synthesis
from repro.passes.synthesis import (
    matrix_is_identity,
    synthesize_word,
    u3_from_matrix,
    word_to_u3,
)

#: The witness: the two words differ only in the sign of two zero angles,
#: which ``Gate`` equality ignores, and they synthesize to different bits.
PLUS_ZERO = [Gate("u3", 1, (0.0, 0.0, -math.pi)), Gate("u1", 1, (math.pi,)), Gate("y", 1)]
MINUS_ZERO = [Gate("u3", 1, (-0.0, -0.0, -math.pi)), Gate("u1", 1, (math.pi,)), Gate("y", 1)]


def uncached(word):
    """The historical consolidation of one run: product, identity test, ZYZ."""
    matrix = np.eye(2, dtype=complex)
    for gate in word:
        matrix = gate.matrix() @ matrix
    if matrix_is_identity(matrix):
        return None
    return u3_from_matrix(matrix)


def bits(gate):
    """A gate's name and parameters as hex, so ``-0.0`` differs from ``0.0``."""
    if gate is None:
        return None
    return gate.name, tuple(float(p).hex() for p in gate.params)


def consolidate(word):
    """Run ``Consolidate1qRunsPass`` on one wire holding ``word``."""
    circuit = QuantumCircuit(1)
    for gate in word:
        circuit.append(gate, (0,))
    out = Consolidate1qRunsPass().run(circuit, PropertySet())
    assert len(out.instructions) <= 1
    return out.instructions[0].gate if out.instructions else None


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty lookup tables for one test, restored afterwards."""
    monkeypatch.setattr(synthesis, "_WORDS", {})
    monkeypatch.setattr(gate_module, "_IDENTITY_VERDICTS", {})


class TestSignedZeroKeys:
    def test_witness_words_synthesize_differently(self):
        assert PLUS_ZERO == MINUS_ZERO  # Gate equality cannot tell them apart
        assert bits(uncached(PLUS_ZERO)) != bits(uncached(MINUS_ZERO))
        assert bits(uncached(PLUS_ZERO)) == ("u3", (math.pi.hex(), (2 * math.pi).hex(), "0x0.0p+0"))

    @pytest.mark.parametrize("order", [(PLUS_ZERO, MINUS_ZERO), (MINUS_ZERO, PLUS_ZERO)])
    def test_both_words_in_one_process_match_their_cold_results(self, cold_tables, order):
        for word in order + order:  # cold, then warm
            assert bits(consolidate(word)) == bits(uncached(word))

    def test_exact_key_separates_signed_zeros_and_matches_nan(self):
        assert exact_key(Gate("rz", 1, (0.0,))) != exact_key(Gate("rz", 1, (-0.0,)))
        assert exact_key(Gate("rz", 1, (math.nan,))) == exact_key(Gate("rz", 1, (math.nan,)))
        assert exact_key(Gate("h", 1)) == "h"
        many = Gate("u3", 1, (1.0, 2.0, 3.0))
        object.__setattr__(many, "params", (1.0, 2.0, 3.0, 4.0))
        assert exact_key(many) != exact_key(Gate("u3", 1, (1.0, 2.0, 3.0)))


# ----------------------------------------------------------------------
# Table ≡ no table
# ----------------------------------------------------------------------
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, math.pi / 4]),
    st.floats(min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False),
)
FIXED = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg"]
ARITY = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "p": 1, "u2": 2, "u3": 3}


@st.composite
def library_1q_gates(draw):
    name = draw(st.sampled_from(FIXED + sorted(ARITY)))
    params = tuple(draw(ANGLES) for _ in range(ARITY.get(name, 0)))
    return Gate(name, 1, params)


class TestTableMatchesComputation:
    @given(st.lists(library_1q_gates(), min_size=1, max_size=4))
    def test_word_lookup_is_bit_identical_cold_and_warm(self, word):
        expected = bits(uncached(word))
        for _ in range(2):  # a miss or an earlier example's entry, then a hit
            gate, _ = word_to_u3(word)
            assert bits(gate) == expected
        assert bits(synthesize_word(word)) == expected

    @given(
        library_1q_gates(),
        st.sampled_from([IDENTITY_TOL, 1e-10, 1e-6, 1e-3, 0.5, 0.0]),
    )
    def test_identity_verdict_matches_uncached_check(self, gate, tol):
        expected = identity_up_to_phase(gate.matrix(), tol)
        assert gate.is_identity(tol) == expected
        assert gate.is_identity(tol) == expected
        assert gate.is_identity() == identity_up_to_phase(gate.matrix(), IDENTITY_TOL)

    def test_a_hit_skips_the_synthesis(self, cold_tables):
        word = [Gate("h", 1), Gate("t", 1)]
        first, synthesized = word_to_u3(word)
        assert synthesized
        again, synthesized = word_to_u3(list(word))
        assert not synthesized and again is first

    def test_identity_words_are_dropped(self, cold_tables):
        word = [Gate("t", 1), Gate("tdg", 1)]
        assert word_to_u3(word) == (None, True)
        assert word_to_u3(word) == (None, False)
        assert consolidate(word) is None

    def test_tables_are_bounded(self, monkeypatch, cold_tables):
        monkeypatch.setattr(synthesis, "_WORD_LIMIT", 3)
        monkeypatch.setattr(gate_module, "_IDENTITY_VERDICT_LIMIT", 3)
        for angle in range(10):
            word_to_u3([Gate("rz", 1, (float(angle),))])
            Gate("rz", 1, (float(angle),)).is_identity()
            assert len(synthesis._WORDS) <= 3
            assert len(gate_module._IDENTITY_VERDICTS) <= 3
