"""Dense unitary evaluation of circuits and tolerance-aware comparisons.

Each column of a circuit's unitary evolves on its own, so the columns are
split into blocks and every block runs the whole gate list on its own
C-contiguous ``(2,)*n + (width,)`` tensor and one spare buffer.  With
``min(CPUs, 2^n // 256)`` blocks (one for circuits under 16 gates), the
extra blocks run on worker threads while numpy releases the GIL; the blocks
are joined side by side at the end.

Gates act on their qubit axes in place of a full 2^n x 2^n embedding: CNOT
swaps two index slices and S and S-dagger scale one slice by +-i, both in
place; H and the rotations are one batched 2x2 matmul into the spare buffer.
Each matmul batch item is a 2 x 2 @ 2 x C zgemm with C <= 8192 columns.
From 2 x 16384 columns on, OpenBLAS hands a zgemm to its own thread pool,
and while the other core is busy (as it is with a second block) such a call
stalls for milliseconds: on a 2-core host, 2 x 2 @ 2 x 16384 took a median
12 ms against 73 us with OpenBLAS held to one thread.  Slice permutations
and scalings by +-i only move or re-sign entries, and every entry sees the
same zgemm arithmetic whatever the blocking, so whole-basis verification
stays exact and fast up to the qubit cap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .pauli import check_qubit_cap
from .synthesis import Circuit, Gate, _per_distinct_gate


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


# columns per block when the unitary is split across threads
_BLOCK_COLUMNS = 256
# circuits this short finish before a worker thread would start
_MIN_THREADED_GATES = 16
# most columns per 2x2 zgemm: 2 x 2 x 8192 stays under OpenBLAS's threading threshold
_ZGEMM_COLUMNS = 8192


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _gate_ops(c: Circuit) -> list[tuple]:
    """Each gate as ``(kind, a, b)``, every distinct gate resolved once.

    ``("swap", low, high)`` exchanges two index slices (CNOT), ``("scale",
    index, factor)`` multiplies one slice (S, Sdg) and ``("matmul", q, m)``
    applies the 2x2 ``m`` to qubit axis ``q``.
    """
    whole = (slice(None),) * c.n

    def op(gate: Gate) -> tuple:
        q = gate.qubits[0] - 1
        if gate.kind == "CNOT":
            flip = list(whole)
            flip[q] = 1
            flip[gate.qubits[1] - 1] = 0
            low = tuple(flip)
            flip[gate.qubits[1] - 1] = 1
            return ("swap", low, tuple(flip))
        if gate.kind in ("S", "Sdg"):
            return ("scale", whole[:q] + (1,), 1j if gate.kind == "S" else -1j)
        return ("matmul", q, gate_matrix(gate.kind, _gate_angle(gate, c.params)))

    return _per_distinct_gate(c.gates, op)


def _evolve_columns(n: int, ops: list[tuple], start: int, stop: int) -> np.ndarray:
    """Columns ``start:stop`` of the circuit's unitary, as a (2^n, width) array."""
    dim = 2**n
    width = stop - start
    t = np.eye(dim, width, -start, dtype=complex).reshape((2,) * n + (width,))
    spare = np.empty_like(t)
    for kind, a, b in ops:
        if kind == "swap":
            kept = spare[a]
            kept[...] = t[a]
            t[a] = t[b]
            t[b] = kept
        elif kind == "scale":
            t[a] *= b
        else:
            # (2^q, 2, rest) as batches of 2 x C column panels
            rest = t.size >> (a + 1)
            cols = math.gcd(rest, _ZGEMM_COLUMNS)
            shape = (2**a, 2, rest // cols, cols)
            np.matmul(
                b,
                t.reshape(shape).transpose(0, 2, 1, 3),
                out=spare.reshape(shape).transpose(0, 2, 1, 3),
            )
            t, spare = spare, t
    return t.reshape(dim, width)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Ordered product of gate matrices; the leftmost gate acts first.

    Row indices are tensor-structured with qubit 1 as the most significant
    bit.  CNOT exchanges the ``[ctrl=1, tgt=0]`` and ``[ctrl=1, tgt=1]``
    slices and S/Sdg multiply the ``[q=1]`` slice by +-i, both in place; the
    other kinds are a 2x2 matmul over the qubit's axis, batched over the more
    significant qubits and over panels of at most 8192 columns, so that no
    zgemm is large enough for OpenBLAS to thread it.  The columns are split
    into ``min(CPUs, 2^n // 256)`` blocks of whole 256-column units (one block
    under 16 gates); blocks past the first run on worker threads, and an
    exception raised in one is re-raised here.
    """
    check_qubit_cap(c.n)
    dim = 2**c.n
    ops = _gate_ops(c)
    parts = min(_cpu_count(), dim // _BLOCK_COLUMNS) if len(ops) >= _MIN_THREADED_GATES else 1
    if parts <= 1:
        return _evolve_columns(c.n, ops, 0, dim)
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import

    edges = [_BLOCK_COLUMNS * (dim // _BLOCK_COLUMNS * k // parts) for k in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:
        rest = pool.map(lambda a, b: _evolve_columns(c.n, ops, a, b), edges[1:-1], edges[2:])
        blocks = [_evolve_columns(c.n, ops, 0, edges[1]), *rest]
    return np.concatenate(blocks, axis=1)


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


def equal_up_to_global_phase(
    u: np.ndarray, v: np.ndarray, tol: float = 1e-10
) -> ComparisonResult:
    """Compare U against phase * V with the phase aligned via trace(V^dag U).

    When the trace vanishes (orthogonal-ish unitaries) the phase falls back
    to the entry pair at V's largest-magnitude position.
    """
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    overlap = np.vdot(v, u)  # trace(V^dag U)
    if abs(overlap) > 1e-12 * u.shape[0]:
        phase = overlap / abs(overlap)
    else:
        idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
        ratio = u[idx] / v[idx]
        phase = ratio / abs(ratio) if abs(ratio) > 0 else 1.0 + 0j
    diff = float(np.abs(u - phase * v).max())
    return ComparisonResult(max_abs_diff=diff, global_phase=complex(phase), passed=diff < tol)
