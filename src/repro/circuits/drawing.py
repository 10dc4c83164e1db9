"""Plain-text circuit drawing.

A small renderer producing the familiar one-wire-per-qubit ASCII picture, used
by the examples and handy when debugging routing output.  The columns are the
greedy ASAP layers ``circuit_layers(circuit, ignore=())``: barriers get a
column, and instructions sharing a clbit are ordered, so the column count can
exceed :meth:`QuantumCircuit.depth`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .circuit import Instruction, QuantumCircuit, circuit_layers

#: Maximum number of columns rendered before the drawing is elided.
_DEFAULT_MAX_COLUMNS = 120


def _gate_label(instruction: Instruction) -> str:
    name = instruction.name
    if instruction.gate.params:
        first = instruction.gate.params[0]
        return f"{name}({first:.2g})" if len(instruction.gate.params) == 1 else f"{name}(..)"
    return name


def _column_symbols(instruction: Instruction) -> Dict[int, str]:
    """Per-qubit cell text for one instruction."""
    name = instruction.name
    qubits = instruction.qubits
    if name == "measure":
        return {qubits[0]: "M"}
    if name == "barrier":
        return {qubit: "|" for qubit in qubits}
    if name in ("cx", "cz", "cp", "crz", "cy", "ch") and len(qubits) == 2:
        target_symbol = "x" if name == "cx" else _gate_label(instruction)[1:] or "z"
        return {qubits[0]: "o", qubits[1]: target_symbol.upper() if name == "cx" else target_symbol}
    if name == "swap":
        return {qubits[0]: "x", qubits[1]: "x"}
    if name in ("ccx", "ccz") and len(qubits) == 3:
        target = "X" if name == "ccx" else "Z"
        return {qubits[0]: "o", qubits[1]: "o", qubits[2]: target}
    if name == "cswap":
        return {qubits[0]: "o", qubits[1]: "x", qubits[2]: "x"}
    label = _gate_label(instruction)
    return {qubit: label for qubit in qubits}


def draw(circuit: QuantumCircuit, max_columns: Optional[int] = None) -> str:
    """Render ``circuit`` as an ASCII diagram, one line per qubit.

    Args:
        circuit: The circuit to draw.
        max_columns: Maximum number of time steps to render; longer circuits
            are truncated with an ellipsis.  Defaults to 120.
    """
    max_columns = max_columns or _DEFAULT_MAX_COLUMNS
    layers = circuit_layers(circuit, ignore=())
    truncated = False
    if len(layers) > max_columns:
        layers = layers[:max_columns]
        truncated = True

    columns: List[Dict[int, str]] = []
    spans: List[Dict[int, bool]] = []
    for layer in layers:
        cells: Dict[int, str] = {}
        in_span: Dict[int, bool] = {}
        for instruction in layer:
            cells.update(_column_symbols(instruction))
            qubits = instruction.qubits
            if len(qubits) > 1 and instruction.name != "barrier":
                low, high = min(qubits), max(qubits)
                for wire in range(low, high + 1):
                    in_span[wire] = True
        columns.append(cells)
        spans.append(in_span)

    widths = [
        max((len(text) for text in cells.values()), default=1) for cells in columns
    ]
    lines: List[str] = []
    for qubit in range(circuit.num_qubits):
        parts = [f"q{qubit:<3d}: "]
        for cells, in_span, width in zip(columns, spans, widths):
            if qubit in cells:
                text = cells[qubit].center(width, "-")
            elif in_span.get(qubit):
                text = "|".center(width, "-")
            else:
                text = "-" * width
            parts.append("-" + text + "-")
        if truncated:
            parts.append(" ...")
        lines.append("".join(parts))
    return "\n".join(lines)
