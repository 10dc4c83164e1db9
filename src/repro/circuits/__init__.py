"""Circuit intermediate representation: gates, circuits, DAGs and OpenQASM I/O."""

from .gate import Gate, gate_matrix, KNOWN_GATE_NAMES
from .circuit import Instruction, QuantumCircuit, circuit_layers
from .dag import DagCircuit, DagNode
from .qasm import to_qasm, from_qasm
from .drawing import draw
from . import library

__all__ = [
    "draw",
    "Gate",
    "gate_matrix",
    "KNOWN_GATE_NAMES",
    "Instruction",
    "QuantumCircuit",
    "DagCircuit",
    "DagNode",
    "circuit_layers",
    "to_qasm",
    "from_qasm",
    "library",
]
