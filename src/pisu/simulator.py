"""Dense unitary evaluation of circuits and tolerance-aware comparisons.

Panels.  Each column of a circuit's unitary evolves on its own, so the
columns are cut into panels of ``2^16 // 2^n`` columns, at least 4, and all
2^n of them for n <= 8.  A panel is a C-contiguous ``(2,)*n + (width,)``
tensor of at most 2^16 complex entries, 1 MiB.  It and its spare buffer
together fill a 2 MiB per-core L2 cache, so a gate's pass partly streams
from the next level: on a 2 MiB-L2 Xeon a real 2x2 gemm ran at 23 GB/s over
a 1 MiB panel and at 35 GB/s over a 512 KiB one.
Workers take the panels round-robin: the caller and ``min(CPUs, panels) -
1`` forked children, which unlike threads never wait on each other for the
GIL.  A circuit splits only on Linux and only when gates x 4^n reaches
2^24; at n <= 8 a split halves the panel width, so there are two panels.
Each worker binds every distinct op, once for each of its two buffers that
can hold the state when the op runs, to numpy calls on views of those
buffers.  A panel then runs the calls in order and is copied into its
columns of the one result, an anonymous shared mapping when children write
to it, so memory beyond the result is two panel buffers per worker.  A
child that fails has its share recomputed by the caller.  From Python 3.12
on, ``os.fork`` warns when the process runs other threads, as numpy's
OpenBLAS pool does; pisu leaves that warning as it is.

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
import mmap
import numbers
import os
import signal
import sys
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
# fewest gates x 4^n for which forked workers beat one worker
_MIN_FORKED_WORK = 2**24
# most columns per 2x2 gemm (float64 columns on the real path): 2 x 2 x 8192 stays
# under OpenBLAS's threading threshold
_ZGEMM_COLUMNS = 8192


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
        angle = _gate_angle(gate, c.params)  # a checked float: Circuit stores no other
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


def _bind(op: tuple, t: np.ndarray, spare: np.ndarray) -> tuple[tuple, bool]:
    """The numpy calls that apply ``op`` to the state in ``t``, and whether they leave it in ``spare``."""
    kind, a, b = op[:3]
    if kind == "fan":  # (destination, source): keep low, move the flipped high down, the flipped kept up
        low = t[a]
        copies = (spare[a], low), (low, t[op[4]]), (t[b], spare[op[3]])
        return tuple(functools.partial(np.copyto, dst, src) for dst, src in copies), False
    if kind == "scale":
        return (functools.partial(np.multiply, t[a], b, t[a]),), False
    if kind == "real":
        t, spare = t.view(np.float64), spare.view(np.float64)
    # (2^q, 2, rest) as batches of 2 x C column panels
    rest = t.size >> (a + 1)
    cols = math.gcd(rest, _ZGEMM_COLUMNS)
    shape = (2**a, 2, rest // cols, cols)
    batches = t.reshape(shape).transpose(0, 2, 1, 3), spare.reshape(shape).transpose(0, 2, 1, 3)
    return (functools.partial(np.matmul, b, *batches),), True


def _evolve_panels(ops: list[tuple], u: np.ndarray, width: int, starts: range) -> None:
    """Write columns ``s:s + width`` of the circuit's unitary into ``u``, for each ``s`` in ``starts``.

    Allocates its own two panel buffers, so each worker process calls it once.
    """
    dim = u.shape[0]
    shape = (2,) * (dim.bit_length() - 1) + (width,)
    buffers = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
    bound: dict = {}
    calls = []
    parity = 0  # buffers[parity] holds the state
    for op in ops:
        key = (id(op), parity)
        if key not in bound:
            bound[key] = _bind(op, buffers[parity], buffers[1 - parity])
        op_calls, moved = bound[key]
        calls.extend(op_calls)
        parity ^= moved
    state, result = buffers[0].reshape(dim, width), buffers[parity].reshape(dim, width)
    for start in starts:
        state.fill(0)
        np.fill_diagonal(state[start : start + width], 1)
        for call in calls:
            call()
        u[:, start : start + width] = result


def _evolve_in_child(ops: list[tuple], u: np.ndarray, width: int, starts: range) -> None:
    """Run one share in a forked child and end the child: exit 0 once its columns are written, 1 otherwise."""
    code = 1
    try:
        _evolve_panels(ops, u, width, starts)
        code = 0
    finally:
        os._exit(code)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Ordered product of gate matrices; the leftmost gate acts first.

    Row indices are tensor-structured with qubit 1 as the most significant
    bit.  The result equals the gate-by-gate complex product bit for bit
    whatever the CPU count.  Memory beyond it is two panel buffers of at
    most 2^16 entries per worker process; a split run returns the shared
    mapping its workers wrote, with no copy.  ``c.n`` is held to the qubit
    cap (``QubitLimitError``) and an unbound parameter is an
    ``UnboundParameterError``, both before any child starts.  An exception
    in the caller's own share is re-raised once every child is killed and
    reaped, and no call leaves a child process behind.
    """
    check_qubit_cap(c.n)
    dim = 2**c.n
    ops = _gate_ops(c)
    width = min(dim, max(_MIN_PANEL_COLUMNS, _PANEL_ENTRIES // dim))
    workers = 1
    if sys.platform == "linux" and len(c.gates) << 2 * c.n >= _MIN_FORKED_WORK:
        width = max(_MIN_PANEL_COLUMNS, min(width, dim // 2))
        workers = min(len(os.sched_getaffinity(0)), dim // width)
    if workers == 1:
        u = np.empty((dim, dim), dtype=complex)
        _evolve_panels(ops, u, width, range(0, dim, width))
        return u
    shares = [range(k * width, dim, workers * width) for k in range(workers)]
    u = np.frombuffer(mmap.mmap(-1, 16 * dim * dim), dtype=complex).reshape(dim, dim)
    own, children = shares[:1], {}
    try:
        for share in shares[1:]:
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller runs this share too
                own.append(share)
                continue
            if pid == 0:
                _evolve_in_child(ops, u, width, share)
            children[pid] = share
        for share in own:
            _evolve_panels(ops, u, width, share)
        for pid, share in list(children.items()):
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:  # the child failed: its columns are not trusted
                _evolve_panels(ops, u, width, share)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)
        raise
    return u


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I|; near zero for any matrix labeled unitary.

    A ``u`` that is not a 2-D square array, or is empty, is a ``ValueError``.
    """
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"u must be a square matrix, got shape {u.shape}")
    if not u.size:
        raise ValueError(f"u must not be empty, got shape {u.shape}")
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
    to the entry pair at V's largest-magnitude position.  ``tol`` must be a
    real number, finite and > 0, not a bool, and ``u`` and ``v`` arrays of
    one shape, not empty; anything else is a ``ValueError``.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a real number, finite and > 0, got {tol!r}")
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if not u.size:
        raise ValueError(f"u and v must not be empty, got shape {u.shape}")
    overlap = np.vdot(v, u)  # trace(V^dag U)
    if abs(overlap) > 1e-12 * u.shape[0]:
        phase = overlap / abs(overlap)
    else:
        idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
        ratio = u[idx] / v[idx]
        phase = ratio / abs(ratio) if abs(ratio) > 0 else 1.0 + 0j
    diff = float(np.abs(u - phase * v).max())
    return ComparisonResult(max_abs_diff=diff, global_phase=complex(phase), passed=diff < tol)
