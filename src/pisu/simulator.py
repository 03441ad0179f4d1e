"""Dense unitary evaluation of circuits and tolerance-aware comparisons.

The unitary is kept as one C-contiguous ``(2,)*n + (2^n,)`` tensor and each
gate is applied to its qubit axes in place of a full 2^n x 2^n embedding:
CNOT swaps two index slices, S and S-dagger scale one slice by +-i, and H and
the rotations are one batched 2x2 matmul.  Slice permutations and scalings by
+-i only move or re-sign entries, so whole-basis verification stays exact and
fast up to the qubit cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .pauli import check_qubit_cap
from .synthesis import Circuit, Gate


class UnboundParameterError(ValueError):
    """A rotation gate references a parameter with no bound value."""


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1.0 + 0j, 1j])
_SDG = np.diag([1.0 + 0j, -1j])
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """2x2 (or 4x4 for CNOT) matrix of a gate kind; rotations need an angle."""
    if kind == "H":
        return _H.copy()
    if kind == "S":
        return _S.copy()
    if kind == "Sdg":
        return _SDG.copy()
    if kind == "CNOT":
        return _CNOT.copy()
    if angle is None:
        raise UnboundParameterError(f"{kind} needs an angle")
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    raise ValueError(f"unknown gate kind {kind!r}")


def _gate_angle(gate: Gate, params: Mapping[str, float]) -> float | None:
    if gate.param is None:
        return None
    if gate.param not in params:
        raise UnboundParameterError(f"parameter {gate.param!r} has no bound value")
    return params[gate.param]


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Ordered product of gate matrices; the leftmost gate acts first.

    Row indices are tensor-structured with qubit 1 as the most significant
    bit.  CNOT exchanges the ``[ctrl=1, tgt=0]`` and ``[ctrl=1, tgt=1]``
    slices and S/Sdg multiply the ``[q=1]`` slice by +-i, both in place; the
    other kinds are a 2x2 matmul over the qubit's axis, batched over the
    more significant qubits.
    """
    check_qubit_cap(c.n)
    dim = 2**c.n
    t = np.eye(dim, dtype=complex).reshape((2,) * c.n + (dim,))
    whole = (slice(None),) * c.n
    for gate in c.gates:
        q = gate.qubits[0] - 1
        if gate.kind == "CNOT":
            tgt = gate.qubits[1] - 1
            flip = list(whole)
            flip[q] = 1
            flip[tgt] = 0
            low = tuple(flip)
            flip[tgt] = 1
            high = tuple(flip)
            kept = t[low].copy()
            t[low] = t[high]
            t[high] = kept
        elif gate.kind in ("S", "Sdg"):
            t[whole[:q] + (1,)] *= 1j if gate.kind == "S" else -1j
        else:
            m = gate_matrix(gate.kind, _gate_angle(gate, c.params))
            t = np.matmul(m, t.reshape(2**q, 2, -1)).reshape(t.shape)
    return t.reshape(dim, dim)


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I|; near zero for any matrix labeled unitary."""
    dim = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(dim)).max())


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of an up-to-global-phase matrix comparison."""

    max_abs_diff: float
    global_phase: complex
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_abs_diff": self.max_abs_diff,
            "global_phase": [self.global_phase.real, self.global_phase.imag],
            "pass": self.passed,
        }


def equal_up_to_global_phase(
    u: np.ndarray, v: np.ndarray, tol: float = 1e-10
) -> ComparisonResult:
    """Compare U against phase * V with the phase aligned via trace(V^dag U).

    When the trace vanishes (orthogonal-ish unitaries) the phase falls back
    to the entry pair at V's largest-magnitude position.
    """
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    overlap = np.trace(v.conj().T @ u)
    if abs(overlap) > 1e-12 * u.shape[0]:
        phase = overlap / abs(overlap)
    else:
        idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
        ratio = u[idx] / v[idx]
        phase = ratio / abs(ratio) if abs(ratio) > 0 else 1.0 + 0j
    diff = float(np.abs(u - phase * v).max())
    return ComparisonResult(max_abs_diff=diff, global_phase=complex(phase), passed=diff < tol)
