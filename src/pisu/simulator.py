"""Dense unitary evaluation of circuits and tolerance-aware comparisons.

Panels.  Each column of a circuit's unitary evolves on its own, so the
columns are cut into panels of ``2^16 // 2^n`` columns, at least 4, and all
2^n of them for n <= 8.  A panel is a C-contiguous ``(2,)*n + (width,)``
tensor of at most 2^16 complex entries, 1 MiB, so it and its spare buffer
stay in a 2 MiB per-core L2 cache while the whole gate list runs on them.
Workers take the panels round-robin: the calling thread and
``min(CPUs, panels) - 1`` pool threads (the calling thread alone for
circuits under 16 gates), which run while numpy releases the GIL.  Each
worker binds the op list to views of its two buffers once, reuses them for
every panel it runs, and copies each finished panel into its columns of the
one preallocated result, so memory beyond the result is two panel buffers
per worker.

Gates.  Gates act on their qubit axes in place of a full 2^n x 2^n
embedding, and each distinct op is resolved once.  A run of CNOTs that
share a control and have distinct targets (the fan of a phase gadget) flips
all its targets in the control=1 half: one swap of the first target's two
quarters, each read with the other target axes reversed, so three quarter
copies whatever the run's length.  S and S-dagger scale one slice by +-i in
place.  H and the rotations are one batched 2x2 matmul into the spare
buffer: a matrix with no imaginary part (H, RY, or a rotation whose angle
makes it real, such as RX(0)) multiplies the float64 view of the state, and
RX and complex RZ keep the complex product.  Each batch item is a
2 x 2 @ 2 x C product with C <= 8192 columns, which OpenBLAS runs on the
calling thread; from 2 x 16384 columns on it hands the product to its own
thread pool, which stalls while the other workers hold the cores.

Bit-identity.  No step changes a bit of the result.  Swaps, reversed reads
and scalings by +-i only move or re-sign entries.  A real 2x2 matrix gives
each output the same two-term sum, in the same order, as the complex
product, which only adds exact +-0 terms for the zero imaginary part.  A
gemm of 4 or more columns gives each column the same bits whatever its
width, so every entry sees the same arithmetic whatever the panelling and
the number of workers.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .pauli import check_qubit_cap
from .synthesis import Circuit, Gate, _angle, _per_distinct_gate


class UnboundParameterError(ValueError):
    """A rotation gate references a parameter with no bound value."""


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1.0 + 0j, 1j])
_SDG = np.diag([1.0 + 0j, -1j])
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """2x2 (or 4x4 for CNOT) matrix of a gate kind; rotations need a finite angle."""
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
    angle = _angle("angle", angle)
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


# complex entries per column panel: 2^16 x 16 bytes is 1 MiB, so a panel and
# its spare buffer fill a 2 MiB per-core L2 cache; a power of two, so every
# panel has the same width
_PANEL_ENTRIES = 2**16
# fewest columns per panel: OpenBLAS computes a 2x2 @ 2x1 or 2x2 @ 2x2 complex
# product (and a 2x2 @ 2x1 real one) with other kernels than wider ones, and
# their low bits differ, so a narrower panel would change the result
_MIN_PANEL_COLUMNS = 4
# circuits this short finish before a worker thread would start
_MIN_THREADED_GATES = 16
# most columns per 2x2 gemm (float64 columns on the real path): 2 x 2 x 8192 stays
# under OpenBLAS's threading threshold
_ZGEMM_COLUMNS = 8192


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _gate_ops(c: Circuit) -> list[tuple]:
    """The circuit as a list of ops, every distinct op resolved once.

    ``("scale", index, factor)`` multiplies one slice (S, Sdg), ``("real",
    q, m)`` applies the real 2x2 ``m`` to qubit axis ``q`` (H, RY and any
    rotation whose matrix is real) and ``("matmul", q, m)`` the complex one.
    Rotations are keyed on their kind, qubit and bound angle, so gates whose
    parameters differ in name but not in value share one op object.  Each
    run of consecutive CNOTs that share a control and have distinct targets
    is one ``("fan", low, high, low_flipped, high_flipped)``: in the
    control=1 half, ``low``/``high`` are the first target's 0/1 quarters and
    the ``_flipped`` forms read them with every other target axis reversed.
    """
    whole = (slice(None),) * c.n
    by_angle: dict = {}

    def op(gate: Gate) -> tuple:
        q = gate.qubits[0] - 1
        if gate.kind == "CNOT":
            return ("cnot", q, gate.qubits[1] - 1)
        if gate.kind in ("S", "Sdg"):
            return ("scale", whole[:q] + (1,), 1j if gate.kind == "S" else -1j)
        angle = _gate_angle(gate, c.params)
        if angle is not None:
            angle = _angle("angle", angle)
        key = (gate.kind, q, None if angle is None else angle.hex())  # hex keeps -0.0 apart from 0.0
        resolved = by_angle.get(key)
        if resolved is None:
            m = gate_matrix(gate.kind, angle)
            resolved = by_angle[key] = (
                ("matmul", q, m) if m.imag.any() else ("real", q, np.ascontiguousarray(m.real))
            )
        return resolved

    @functools.cache
    def fan(run: tuple) -> tuple:
        ctrl, first, *others = run
        index = list(whole)
        index[ctrl] = 1
        index[first] = 0
        low = tuple(index)
        index[first] = 1
        high = tuple(index)
        for q in others:
            index[q] = slice(None, None, -1)
        high_flipped = tuple(index)
        index[first] = 0
        return ("fan", low, high, tuple(index), high_flipped)

    ops = []
    run: list = []  # control, then targets, of the open CNOT run
    for g in _per_distinct_gate(c.gates, op):
        if g[0] == "cnot" and run[:1] == [g[1]] and g[2] not in run:
            run.append(g[2])
            continue
        if run:
            ops.append(fan(tuple(run)))
        run = list(g[1:]) if g[0] == "cnot" else []
        if not run:
            ops.append(g)
    if run:
        ops.append(fan(tuple(run)))
    return ops


def _views(op: tuple, t: np.ndarray, spare: np.ndarray) -> tuple:
    """The arrays that ``op`` reads and writes when ``t`` holds the state."""
    kind, a, b = op[:3]
    if kind == "fan":
        return (t[a], t[b], t[op[4]], spare[a], spare[op[3]])
    if kind == "scale":
        return t[a]
    if kind == "real":
        t, spare = t.view(np.float64), spare.view(np.float64)
    # (2^q, 2, rest) as batches of 2 x C column panels
    rest = t.size >> (a + 1)
    cols = math.gcd(rest, _ZGEMM_COLUMNS)
    shape = (2**a, 2, rest // cols, cols)
    return (t.reshape(shape).transpose(0, 2, 1, 3), spare.reshape(shape).transpose(0, 2, 1, 3))


def _evolve_panels(ops: list[tuple], u: np.ndarray, width: int, starts: range) -> None:
    """Write columns ``s:s + width`` of the circuit's unitary into ``u``, for each ``s`` in ``starts``.

    Allocates its own two panel buffers, so calls may run on separate threads.
    """
    dim = u.shape[0]
    shape = (2,) * (dim.bit_length() - 1) + (width,)
    buffers = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
    views: dict = {}
    bound = []
    parity = 0  # buffers[parity] holds the state
    for op in ops:
        key = (id(op), parity)
        v = views.get(key)
        if v is None:
            v = views[key] = _views(op, buffers[parity], buffers[1 - parity])
        bound.append((op[0], op[2], v))
        if op[0] in ("real", "matmul"):
            parity = 1 - parity
    state, result = buffers[0].reshape(dim, width), buffers[parity].reshape(dim, width)
    for start in starts:
        state.fill(0)
        np.fill_diagonal(state[start : start + width], 1)
        for kind, arg, v in bound:
            if kind == "fan":
                low, high, high_flipped, kept, kept_flipped = v
                np.copyto(kept, low)
                np.copyto(low, high_flipped)
                np.copyto(high, kept_flipped)
            elif kind == "scale":
                v *= arg
            else:
                np.matmul(arg, v[0], out=v[1])
        u[:, start : start + width] = result


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Ordered product of gate matrices; the leftmost gate acts first.

    Row indices are tensor-structured with qubit 1 as the most significant
    bit.  The result equals the gate-by-gate complex product bit for bit
    whatever the CPU count, and memory beyond it is two panel buffers of at
    most 2^16 entries per worker thread.  ``c.n`` is held to the qubit cap
    (``QubitLimitError``), an unbound parameter is an
    ``UnboundParameterError``, and an exception raised on a pool thread is
    re-raised here.
    """
    check_qubit_cap(c.n)
    dim = 2**c.n
    ops = _gate_ops(c)
    width = min(dim, max(_MIN_PANEL_COLUMNS, _PANEL_ENTRIES // dim))
    workers = min(_cpu_count(), dim // width) if len(c.gates) >= _MIN_THREADED_GATES else 1
    shares = [range(k * width, dim, workers * width) for k in range(workers)]
    u = np.empty((dim, dim), dtype=complex)
    if workers == 1:
        _evolve_panels(ops, u, width, shares[0])
        return u
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import

    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(_evolve_panels, ops, u, width, share) for share in shares[1:]]
        _evolve_panels(ops, u, width, shares[0])
        for future in rest:
            future.result()
    return u


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I|; near zero for any matrix labeled unitary."""
    gram = u.conj().T @ u
    gram.flat[:: u.shape[0] + 1] -= 1  # subtract I from the diagonal alone
    return float(np.abs(gram).max())


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
