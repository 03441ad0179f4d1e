"""Dense circuit evaluation against a naive Kronecker-embedding oracle."""

import functools
import mmap
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisu import (
    BlockStructure,
    Circuit,
    Gate,
    SymmetrizationChoice,
    UnboundParameterError,
    base_variational_circuit,
    circuit_unitary,
    equal_up_to_global_phase,
    gate_matrix,
    invariance_defect,
    swap_invariance_defect,
    swap_matrix,
    symmetrize_by_extension,
    symmetrize_fully,
    unitarity_defect,
)
from pisu import simulator
from pisu.synthesis import GATE_KINDS, circuit_from_json, circuit_from_qasm, circuit_to_json, circuit_to_qasm

import oracles


def _random_circuit(rng, n, depth):
    gates = []
    params = {}
    for k in range(depth):
        roll = rng.integers(0, 5)
        if roll == 0 and n >= 2:
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(Gate("CNOT", (int(a), int(b))))
        elif roll == 1:
            gates.append(Gate("H", (int(rng.integers(1, n + 1)),)))
        elif roll == 2:
            gates.append(Gate("S" if rng.integers(2) else "Sdg", (int(rng.integers(1, n + 1)),)))
        else:
            kind = ["RX", "RY", "RZ"][int(rng.integers(3))]
            name = f"p{k}"
            params[name] = float(rng.uniform(0, 2 * np.pi))
            gates.append(Gate(kind, (int(rng.integers(1, n + 1)),), name))
    return Circuit(n, tuple(gates), params)


def test_empty_circuit_is_identity():
    assert np.array_equal(circuit_unitary(Circuit(2)), np.eye(4))


def test_cnot_control_first_qubit():
    # control on qubit 1 (most significant bit): the standard textbook matrix
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    u = circuit_unitary(Circuit(2, (Gate("CNOT", (1, 2)),)))
    assert np.array_equal(u, expected)


def test_cnot_control_second_qubit():
    # the reversed gate swaps basis states 2 and 4 (1-based)
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    u = circuit_unitary(Circuit(2, (Gate("CNOT", (2, 1)),)))
    assert np.array_equal(u, expected)


def test_gate_matrices_frozen():
    assert np.abs(gate_matrix("H") - oracles.H).max() < 1e-15
    assert np.abs(gate_matrix("S") - oracles.S).max() < 1e-15
    assert np.abs(gate_matrix("Sdg") - oracles.SDG).max() < 1e-15
    theta = 0.71
    for kind in ("RX", "RY", "RZ"):
        assert np.abs(gate_matrix(kind, theta) - oracles.rotation(kind, theta)).max() < 1e-15
    with pytest.raises(UnboundParameterError):
        gate_matrix("RX")


def test_sliced_application_matches_naive_embedding():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        c = _random_circuit(rng, n, int(rng.integers(1, 12)))
        assert np.abs(circuit_unitary(c) - oracles.naive_circuit_unitary(c)).max() < 1e-12


def test_concatenation_is_matrix_product():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        c1 = _random_circuit(rng, n, 5)
        c2 = _random_circuit(rng, n, 5)
        c2 = Circuit(n, tuple(Gate(g.kind, g.qubits, g.param and "q" + g.param) for g in c2.gates),
                     {"q" + k: v for k, v in c2.params.items()})
        whole = circuit_unitary(c1.concat(c2))
        parts = circuit_unitary(c2) @ circuit_unitary(c1)
        assert np.abs(whole - parts).max() < 1e-12


def test_circuits_evaluate_to_unitaries():
    rng = np.random.default_rng(47)
    for _ in range(10):
        c = _random_circuit(rng, int(rng.integers(1, 6)), 20)
        assert unitarity_defect(circuit_unitary(c)) < 1e-10


def test_unbound_parameter_raises():
    c = Circuit(1, (Gate("RX", (1,), "free"),))
    with pytest.raises(UnboundParameterError):
        circuit_unitary(c)


def test_equal_up_to_global_phase_identical():
    u = oracles.cnot_full(1, 2, 2)
    result = equal_up_to_global_phase(u, u)
    assert result.passed
    assert abs(result.global_phase - 1) < 1e-12


def test_equal_up_to_global_phase_i_factor():
    u = oracles.word_matrix("XZ")
    result = equal_up_to_global_phase(1j * u, u)
    assert result.passed
    assert abs(result.global_phase - 1j) < 1e-12
    assert abs(abs(result.global_phase) - 1.0) < 1e-12


def test_equal_up_to_global_phase_distinct():
    assert not equal_up_to_global_phase(oracles.cnot_full(1, 2, 2), np.eye(4)).passed


def test_equal_up_to_global_phase_zero_trace_fallback():
    # trace(Z X) = 0 exercises the entry-pair fallback; they still differ
    u = oracles.word_matrix("X")
    v = oracles.word_matrix("Z")
    assert not equal_up_to_global_phase(u, v).passed


def test_equal_up_to_global_phase_shape_mismatch():
    with pytest.raises(ValueError):
        equal_up_to_global_phase(np.eye(2), np.eye(4))


def test_yy_generator_circuit_at_fixed_angle():
    from pisu import SymmetrizedGenerator, TypeVector, dense_exponential, synth_generator

    tv = TypeVector(0, 2, 0, 0)
    gen = SymmetrizedGenerator(tv, tv.label)
    u = circuit_unitary(synth_generator(gen, 0.7))
    assert np.abs(u - dense_exponential(gen, 0.7)).max() < 1e-10


def test_moderate_width_circuit():
    # a 10-qubit ladder exponential evaluates quickly and correctly
    from pisu import PauliString, synth_string

    word = "XXXXXXXXXX"
    theta = 0.31
    u = circuit_unitary(synth_string(PauliString.from_letters(word), theta))
    want = np.cos(theta / 2) * np.eye(2**10) - 1j * np.sin(theta / 2) * oracles.word_matrix(word)
    assert np.abs(u - want).max() < 1e-10


# circuit_unitary permutes and re-signs slices in place and batches 2x2
# matmuls; the old tensordot + moveaxis evaluation must agree bit for bit


def _one_gate(kind, n, qubit, other, angle):
    if kind == "CNOT":
        return Circuit(n, (Gate(kind, (qubit, other)),))
    if kind in ("RX", "RY", "RZ"):
        return Circuit(n, (Gate(kind, (qubit,), "a"),), {"a": angle})
    return Circuit(n, (Gate(kind, (qubit,)),))


def test_every_gate_kind_on_every_qubit_bit_identical():
    rng = np.random.default_rng(53)
    for n in range(1, 7):
        for kind in GATE_KINDS:
            for qubit in range(1, n + 1):
                for other in range(1, n + 1):
                    if (kind == "CNOT") == (other == qubit):
                        continue
                    # one gate on the identity, then on a dense random unitary
                    c = _one_gate(kind, n, qubit, other, float(rng.uniform(-7, 7)))
                    assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))
                    mixed = _random_circuit(rng, n, 12).concat(c)
                    assert np.array_equal(
                        circuit_unitary(mixed), oracles.tensordot_circuit_unitary(mixed)
                    ), (kind, n, qubit, other)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 6))
    gates = []
    params = {}
    for k in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from([k for k in GATE_KINDS if n > 1 or k != "CNOT"]))
        qubit = draw(st.integers(1, n))
        if kind == "CNOT":
            target = draw(st.integers(1, n).filter(lambda q: q != qubit))
            gates.append(Gate(kind, (qubit, target)))
        elif kind in ("RX", "RY", "RZ"):
            params[f"p{k}"] = draw(st.floats(-20.0, 20.0, allow_nan=False))
            gates.append(Gate(kind, (qubit,), f"p{k}"))
        else:
            gates.append(Gate(kind, (qubit,)))
    return Circuit(n, tuple(gates), params)


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_random_circuits_bit_identical_to_tensordot(c):
    assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))


# circuit_unitary evolves the columns in panels of 2^16 // 2^n columns (two
# panels at n <= 8 when it splits), dealt round-robin to the caller and to
# min(CPUs, panels) - 1 forked children; the panelling must not change a bit


def _cpus(monkeypatch, count):
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _spy_workers(monkeypatch, tmp_path):
    """Log (pid, panel width, panel start columns) for every worker's share, forked children included.

    A list filled by the spy would only see the caller's share, so every
    worker appends one line to a file.  The returned function reads the
    lines logged since its last call.
    """
    log = tmp_path / "shares.log"
    log.write_text("")
    evolve = simulator._evolve_panels

    def spy(ops, u, width, starts):
        with open(log, "a") as f:
            f.write(" ".join(map(str, (os.getpid(), width, *starts))) + "\n")
        return evolve(ops, u, width, starts)

    def seen():
        rows = [[int(v) for v in line.split()] for line in log.read_text().splitlines()]
        log.write_text("")
        return [(pid, width, tuple(starts)) for pid, width, *starts in rows]

    monkeypatch.setattr(simulator, "_evolve_panels", spy)
    return seen


def _shares(rows):
    """The (width, starts) of the logged shares in order, once checked that the caller ran the first and a distinct child each other."""
    rows = sorted(rows, key=lambda row: row[2])
    pids = [pid for pid, _, _ in rows]
    assert pids[0] == os.getpid() and len(set(pids)) == len(pids), rows
    return [(width, starts) for _, width, starts in rows]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify_circuits():
    # the four n=9 circuits of the benchmark's verify workload
    from pisu import SymmetrizedGenerator, SynthesisPlan, TypeVector, synth_generator

    yield symmetrize_fully(base_variational_circuit(9, seed=11), angle=1.3)
    yield symmetrize_by_extension(
        base_variational_circuit(3, seed=12), 3, SymmetrizationChoice("couple", "couple")
    )
    for tv, theta in ((TypeVector(2, 0, 0, 7), 0.9), (TypeVector(0, 0, 3, 6), -2.2)):
        gen = SymmetrizedGenerator(tv, tv.label)
        yield synth_generator(gen, theta, SynthesisPlan("exact-product"))


def test_verify_sized_circuits_bit_identical_to_tensordot(monkeypatch, tmp_path):
    # n=9: four panels of 128 columns, the caller's share first
    workers = {
        1: [(128, (0, 128, 256, 384))],
        2: [(128, (0, 256)), (128, (128, 384))],
        3: [(128, (0, 384)), (128, (128,)), (128, (256,))],
        4: [(128, (0,)), (128, (128,)), (128, (256,)), (128, (384,))],
    }
    for c in _verify_circuits():
        want = oracles.tensordot_circuit_unitary(c)
        for cpus, shares in workers.items():
            _cpus(monkeypatch, cpus)
            seen = _spy_workers(monkeypatch, tmp_path)
            u = circuit_unitary(c)
            rows = seen()
            monkeypatch.undo()
            assert _shares(rows) == shares, (cpus, rows)
            assert u.flags.c_contiguous and np.array_equal(u, want), (cpus, len(c.gates))
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_cli_sized_circuit_bit_identical_in_two_panels(monkeypatch, tmp_path, cpus):
    # n=7 trotter:4 XYZ: a split halves the 128 columns into two panels;
    # one CPU keeps one full-width panel
    c = _cli_circuit()
    _cpus(monkeypatch, cpus)
    seen = _spy_workers(monkeypatch, tmp_path)
    u = circuit_unitary(c)
    assert _shares(seen()) == ([(64, (0,)), (64, (64,))] if cpus > 1 else [(128, (0,))])
    assert np.array_equal(u, _cli_unitary())
    _assert_no_child_left()


def test_verify_sized_defects_equal_the_dense_oracles():
    # the benchmark's transposition and block-exchange checks on its four unitaries
    layout = BlockStructure.for_extension(3, 3)
    exchanges = []
    for a, b in ((1, 2), (1, 3), (2, 3)):
        s = np.eye(512, dtype=complex)
        for i, j in layout.exchange_pairs(a, b):
            s = s @ swap_matrix(i, j, 9)
        exchanges.append(s)
    for c in _verify_circuits():
        u = circuit_unitary(c)
        assert swap_invariance_defect(u, 9) == oracles.dense_swap_invariance_defect(u, 9), len(c.gates)
        for s in exchanges:
            assert invariance_defect(u, s) == oracles.dense_invariance_defect(u, s), len(c.gates)


def test_verify_sized_unitarity_defect_equals_the_eye_oracle():
    for c in _verify_circuits():
        u = circuit_unitary(c)
        assert unitarity_defect(u) == oracles.eye_unitarity_defect(u), len(c.gates)


def test_unitarity_defect_equals_the_eye_oracle_on_random_matrices():
    rng = np.random.default_rng(53)
    for dim in (1, 2, 5, 16, 64):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
        for u in (q, z, q.real.copy()):
            assert unitarity_defect(u) == oracles.eye_unitarity_defect(u), dim


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_random_width_ten_circuit_bit_identical_in_panels(monkeypatch, tmp_path, cpus):
    # n=10: sixteen panels of 64 columns, dealt round-robin (unevenly to 3 workers)
    c = _random_circuit(np.random.default_rng(59), 10, 40)
    _cpus(monkeypatch, cpus)
    seen = _spy_workers(monkeypatch, tmp_path)
    u = circuit_unitary(c)
    assert _shares(seen()) == [(64, tuple(range(64 * k, 1024, 64 * cpus))) for k in range(cpus)]
    assert np.array_equal(u, oracles.tensordot_circuit_unitary(c))
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_small_panels_bit_identical(monkeypatch, tmp_path, cpus):
    # shrunk panel and gemm widths put the panel edges and the gemm column
    # slices of every matmul inside small circuits, with panel counts that
    # do not split evenly across three workers; panels asked to be 1, 2 or 4
    # columns wide take the 4-column floor, and with the work rule lifted
    # every circuit splits, into two panels or more, when a second CPU is usable
    monkeypatch.setattr(simulator, "_ZGEMM_COLUMNS", 8)
    monkeypatch.setattr(simulator, "_MIN_FORKED_WORK", 0)
    _cpus(monkeypatch, cpus)
    rng = np.random.default_rng(61 + cpus)
    seen = _spy_workers(monkeypatch, tmp_path)
    uneven = 0
    for k in range(32):
        n = int(rng.integers(2, 8))
        asked = 1 << k % 4
        monkeypatch.setattr(simulator, "_PANEL_ENTRIES", asked << n)
        c = _random_circuit(rng, n, int(rng.integers(16, 40)))
        assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))
        shares = _shares(seen())
        width = max(4, min(asked, 2**n // 2 if cpus > 1 else 2**n))
        assert {w for w, _ in shares} == {width}, (n, asked, shares)
        assert sorted(start for _, starts in shares for start in starts) == list(range(0, 2**n, width))
        assert len(shares) == min(cpus, 2**n // width)
        uneven += len({len(starts) for _, starts in shares}) > 1
    assert uneven >= (4 if cpus == 3 else 0)
    _assert_no_child_left()


def _count_forks(monkeypatch):
    """Make every ``os.fork`` fail with ``OSError``, and count the calls."""
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no fork")

    monkeypatch.setattr(simulator.os, "fork", fork)
    return forks


@pytest.mark.parametrize(
    "n, gates",
    [
        pytest.param(9, 2, id="verify-warm-up"),
        pytest.param(8, 2, id="cli-warm-up"),
    ],
)
def test_circuits_under_the_work_rule_fork_nothing(monkeypatch, tmp_path, n, gates):
    # the benchmark's warm-ups, gates x 4^n below 2^24: the caller runs every panel itself
    _cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    seen = _spy_workers(monkeypatch, tmp_path)
    c = Circuit(n, tuple(Gate("H", (1 + k % n,)) for k in range(gates)))
    u = circuit_unitary(c)
    width = min(2**n, 2**16 // 2**n)
    assert seen() == [(os.getpid(), width, tuple(range(0, 2**n, width)))]
    assert forks == []
    assert np.array_equal(u, oracles.tensordot_circuit_unitary(c))


@pytest.mark.parametrize("n", [7, 9])
def test_an_eligible_circuit_at_one_cpu_forks_nothing_in_full_width_panels(monkeypatch, tmp_path, n):
    # gates x 4^n over 2^24, but no second CPU: one worker, and its panels
    # keep their full width, all 2^n columns at n <= 8
    _cpus(monkeypatch, 1)
    forks = _count_forks(monkeypatch)
    seen = _spy_workers(monkeypatch, tmp_path)
    c = _random_circuit(np.random.default_rng(97), n, 2 * simulator._MIN_FORKED_WORK >> 2 * n)
    u = circuit_unitary(c)
    width = min(2**n, 2**16 // 2**n)
    assert seen() == [(os.getpid(), width, tuple(range(0, 2**n, width)))]
    assert forks == []
    assert np.array_equal(u, oracles.tensordot_circuit_unitary(c))
    assert u.base is None  # a private array, not a view of a shared mapping


def test_work_rule_splits_from_two_to_the_24_on_linux(monkeypatch):
    _cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    for n, gates, children in ((10, 16, 3), (9, 64, 3), (8, 256, 1), (7, 1024, 1)):
        assert gates << 2 * n == simulator._MIN_FORKED_WORK
        for count, want in ((gates - 1, 0), (gates, children)):
            forks.clear()
            circuit_unitary(Circuit(n, (Gate("H", (1,)),) * count))
            assert len(forks) == want, (n, count)
    monkeypatch.setattr(simulator.sys, "platform", "darwin")
    forks.clear()
    c = Circuit(9, (Gate("H", (1,)), Gate("RY", (2,), "a")) * 40, {"a": 0.3})
    assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))
    assert forks == []


def test_a_failed_fork_runs_that_share_in_the_caller(monkeypatch, tmp_path):
    c = _random_circuit(np.random.default_rng(67), 9, 80)
    _cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    seen = _spy_workers(monkeypatch, tmp_path)
    u = circuit_unitary(c)
    assert len(forks) == 3
    assert sorted(seen()) == [(os.getpid(), 128, (k,)) for k in (0, 128, 256, 384)]
    assert np.array_equal(u, oracles.tensordot_circuit_unitary(c))


@pytest.mark.parametrize("failure", ["exit-3", "raise"])
def test_a_failed_child_has_its_share_recomputed(monkeypatch, failure):
    # each child writes garbage over its columns, then exits with status 3 or raises
    _cpus(monkeypatch, 3)
    caller = os.getpid()
    evolve = simulator._evolve_panels

    def failing(ops, u, width, starts):
        if os.getpid() != caller:
            for start in starts:
                u[:, start : start + width] = np.nan
            if failure == "exit-3":
                os._exit(3)
            raise RuntimeError("child failed")
        return evolve(ops, u, width, starts)

    monkeypatch.setattr(simulator, "_evolve_panels", failing)
    c = _random_circuit(np.random.default_rng(71), 9, 80)
    assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))
    _assert_no_child_left()


def test_worker_exception_reaches_the_caller(monkeypatch):
    # the caller's share raises while the children still run: they are
    # killed and reaped before the exception leaves circuit_unitary
    _cpus(monkeypatch, 4)
    caller = os.getpid()
    evolve = simulator._evolve_panels

    def failing(ops, u, width, starts):
        if os.getpid() == caller:
            raise RuntimeError(f"panels {tuple(starts)} failed")
        time.sleep(60)
        return evolve(ops, u, width, starts)

    monkeypatch.setattr(simulator, "_evolve_panels", failing)
    c = _random_circuit(np.random.default_rng(67), 9, 80)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"panels \(0,\) failed"):
        circuit_unitary(c)
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_unbound_parameter_raises_before_any_panel(monkeypatch, tmp_path):
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    seen = _spy_workers(monkeypatch, tmp_path)
    gates = (Gate("H", (1,)),) * 80 + (Gate("RX", (2,), "free"),)
    with pytest.raises(UnboundParameterError, match="free"):
        circuit_unitary(Circuit(9, gates))
    assert seen() == [] and forks == []


def test_memory_beyond_the_result_is_two_panel_buffers_per_worker(monkeypatch, tmp_path):
    # each worker, caller and children alike, logs its traced peak over its
    # share; the result is a shared mapping outside numpy's allocator
    _cpus(monkeypatch, 2)
    log = tmp_path / "peaks.log"
    evolve = simulator._evolve_panels

    def measured(ops, u, width, starts):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        evolve(ops, u, width, starts)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {tracemalloc.get_traced_memory()[1] - before}\n")

    monkeypatch.setattr(simulator, "_evolve_panels", measured)
    c = _random_circuit(np.random.default_rng(73), 10, 40)
    circuit_unitary(c)  # warm numpy's caches
    log.write_text("")
    tracemalloc.start()
    try:
        u = circuit_unitary(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffers = 2 * 16 * simulator._PANEL_ENTRIES
    peaks = dict(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert len(peaks) == 2 and os.getpid() in peaks, peaks
    for worker_peak in peaks.values():
        assert buffers <= worker_peak <= buffers + 2**20, peaks
    assert buffers <= peak <= buffers + 2**20, peak
    while isinstance(u, np.ndarray):
        u = u.base
    mapping = getattr(u, "obj", u)  # numpy may keep a memoryview of the mapping
    assert isinstance(mapping, mmap.mmap) and len(mapping) == 16 * 4**10


@pytest.mark.parametrize("kind", ["T", "rx", "cx", "X", pytest.param(["H"], id="unhashable")])
def test_gate_matrix_rejects_an_unknown_kind(kind):
    with pytest.raises(ValueError) as info:
        gate_matrix(kind, 0.5)
    assert str(info.value) == f"unknown gate kind {kind!r}"
    with pytest.raises(ValueError) as info:  # the kind is checked before the missing angle
        gate_matrix(kind)
    assert not isinstance(info.value, UnboundParameterError)
    assert str(info.value) == f"unknown gate kind {kind!r}"


# CNOTs that share a control run as one fan op, and real 2x2 matrices take a
# float64 matmul; neither may change a single bit against the tensordot oracle


def _fan(n, ctrl, targets):
    return Circuit(n, tuple(Gate("CNOT", (ctrl, t)) for t in targets))


def test_cnot_runs_sharing_a_control_bit_identical_as_one_fan():
    # 2 to n-1 targets in random order, so most runs have targets on both sides
    rng = np.random.default_rng(71)
    both_sides = 0
    for n in range(3, 8):
        for ctrl in range(1, n + 1):
            others = [q for q in range(1, n + 1) if q != ctrl]
            for k in range(2, n):
                targets = [int(q) for q in rng.permutation(others)[:k]]
                both_sides += min(targets) < ctrl < max(targets)
                run = _fan(n, ctrl, targets)
                assert [op[0] for op in simulator._gate_ops(run)] == ["fan"], (n, ctrl, targets)
                assert np.array_equal(circuit_unitary(run), oracles.tensordot_circuit_unitary(run))
                mixed = _random_circuit(rng, n, 10).concat(run)
                assert np.array_equal(
                    circuit_unitary(mixed), oracles.tensordot_circuit_unitary(mixed)
                ), (n, ctrl, targets)
    assert both_sides >= 40


def test_repeated_target_closes_the_fan():
    # CNOT(1,2) twice is the identity on its own; the run splits at the repeat
    rng = np.random.default_rng(79)
    for targets, fans in (([2, 3, 2, 4], 2), ([2, 2], 2), ([3, 4, 5, 3, 4], 2), ([2, 3, 4, 2, 3, 4, 2], 3)):
        c = _fan(5, 1, targets)
        assert [op[0] for op in simulator._gate_ops(c)] == ["fan"] * fans, targets
        for whole in (c, _random_circuit(rng, 5, 10).concat(c)):
            assert np.array_equal(circuit_unitary(whole), oracles.tensordot_circuit_unitary(whole)), targets


def test_fans_break_at_other_gates_and_other_controls():
    c = Circuit(4, (Gate("CNOT", (1, 2)), Gate("H", (3,)), Gate("CNOT", (1, 3)), Gate("CNOT", (2, 4)),
                    Gate("CNOT", (2, 1)), Gate("CNOT", (2, 3))))
    assert [op[0] for op in simulator._gate_ops(c)] == ["fan", "real", "fan", "fan"]
    assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))


def _fan_circuit(rng, n, runs):
    """A random prefix, then runs of CNOTs that share a control (targets may repeat), each followed by an H."""
    c = _random_circuit(rng, n, 4)
    for _ in range(runs):
        ctrl = int(rng.integers(1, n + 1))
        others = [q for q in range(1, n + 1) if q != ctrl]
        targets = [int(q) for q in rng.choice(others, size=int(rng.integers(1, n)))]
        c = c.concat(_fan(n, ctrl, targets)).concat(Circuit(n, (Gate("H", (int(rng.integers(1, n + 1)),)),)))
    return c


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_fans_across_small_panels_bit_identical(monkeypatch, cpus):
    # with the work rule lifted, every circuit splits
    monkeypatch.setattr(simulator, "_MIN_FORKED_WORK", 0)
    monkeypatch.setattr(simulator, "_PANEL_ENTRIES", 2**9)
    monkeypatch.setattr(simulator, "_ZGEMM_COLUMNS", 8)
    _cpus(monkeypatch, cpus)
    rng = np.random.default_rng(83 + cpus)
    for _ in range(20):
        c = _fan_circuit(rng, int(rng.integers(3, 8)), int(rng.integers(6, 12)))
        assert "fan" in {op[0] for op in simulator._gate_ops(c)}
        assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))


def _spy_matmul_dtypes(monkeypatch):
    """Record the dtype of the state operand of every matmul the simulator runs."""
    seen = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(m, state, out):
            seen.append(state.dtype)
            return np.matmul(m, state, out=out)

    monkeypatch.setattr(simulator, "np", Numpy())
    return seen


def test_real_gates_on_every_qubit_take_the_float64_path(monkeypatch):
    rng = np.random.default_rng(89)
    seen = _spy_matmul_dtypes(monkeypatch)
    for n in range(1, 7):
        for kind, angle in (("H", None), ("RY", float(rng.uniform(-7, 7))), ("RX", 0.0), ("RZ", 0.0)):
            for qubit in range(1, n + 1):
                c = _one_gate(kind, n, qubit, None, angle)
                seen.clear()
                assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))
                assert seen == [np.float64], (kind, n, qubit)
                mixed = _random_circuit(rng, n, 12).concat(c)
                assert np.array_equal(circuit_unitary(mixed), oracles.tensordot_circuit_unitary(mixed))


def test_complex_rotations_keep_the_complex_path(monkeypatch):
    seen = _spy_matmul_dtypes(monkeypatch)
    for kind in ("RX", "RZ"):
        c = _one_gate(kind, 3, 2, None, 0.4)
        assert np.array_equal(circuit_unitary(c), oracles.tensordot_circuit_unitary(c))
    assert seen == [np.complex128, np.complex128]


def _cli_circuit():
    # the n=7 trotter:4 circuit that the benchmark's cli workload verifies twice
    from pisu import SymmetrizedGenerator, SynthesisPlan, TypeVector, synth_generator

    tv = TypeVector(1, 1, 1, 4)
    return synth_generator(SymmetrizedGenerator(tv, tv.label), 0.4, SynthesisPlan("trotter", steps=4))


@functools.cache
def _cli_unitary():
    return oracles.tensordot_circuit_unitary(_cli_circuit())


def test_cli_sized_circuit_bit_identical_with_fans_and_real_gates(monkeypatch):
    c = _cli_circuit()
    ops = simulator._gate_ops(c)
    assert (len(c.gates), len(ops)) == (7560, 5880)
    kinds = [g.kind for g in c.gates]
    seen = _spy_matmul_dtypes(monkeypatch)
    u = circuit_unitary(c)
    monkeypatch.undo()
    assert seen.count(np.float64) == kinds.count("H") + kinds.count("RY") == 1680
    assert seen.count(np.complex128) == kinds.count("RX") + kinds.count("RZ")
    assert np.array_equal(u, _cli_unitary())


def test_qasm_and_json_forms_share_one_op_per_angle(monkeypatch):
    # QASM names every rotation p0, p1, ...; ops are keyed on the bound angle,
    # so both forms resolve the same distinct ops and give the same bytes
    c = _cli_circuit()
    forms = [circuit_from_json(circuit_to_json(c)), circuit_from_qasm(circuit_to_qasm(c))]
    assert len(forms[0].params) == 1 and len(forms[1].params) == 840
    calls = []
    matrix = simulator.gate_matrix
    monkeypatch.setattr(simulator, "gate_matrix", lambda kind, angle=None: calls.append(kind) or matrix(kind, angle))
    distinct = []
    for form in forms:
        calls.clear()
        distinct.append((len({id(op) for op in simulator._gate_ops(form)}), len(calls)))
    assert distinct[0] == distinct[1]
    assert distinct[0][1] == len({(g.kind, g.qubits) for g in c.gates if g.kind not in ("CNOT", "S", "Sdg")})
    assert np.array_equal(circuit_unitary(forms[0]), circuit_unitary(forms[1]))


@pytest.mark.parametrize(
    "u",
    [
        pytest.param(np.eye(3, 2), id="isometry-3x2"),
        pytest.param(np.ones(4), id="1-D"),
        pytest.param(np.ones((2, 2, 2)), id="3-D"),
        pytest.param(np.eye(2, 3), id="2x3"),
    ],
)
def test_unitarity_defect_takes_only_square_matrices(u):
    with pytest.raises(ValueError) as info:
        unitarity_defect(u)
    assert str(info.value) == f"u must be a square matrix, got shape {u.shape}"


def test_unitarity_defect_refuses_an_empty_matrix():
    # numpy's max of no entries would raise "zero-size array to reduction operation ..."
    with pytest.raises(ValueError) as info:
        unitarity_defect(np.zeros((0, 0), dtype=complex))
    assert str(info.value) == "u must not be empty, got shape (0, 0)"


@pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
def test_equal_up_to_global_phase_refuses_empty_matrices(shape):
    # numpy's argmax of no entries would raise "attempt to get argmax of an empty sequence"
    with pytest.raises(ValueError) as info:
        equal_up_to_global_phase(np.zeros(shape), np.zeros(shape))
    assert str(info.value) == f"u and v must not be empty, got shape {shape}"


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0, True, "1e-10", 1e-10j])
def test_equal_up_to_global_phase_refuses_a_bad_tolerance(tol):
    with pytest.raises(ValueError) as info:
        equal_up_to_global_phase(np.eye(2), np.eye(2), tol)
    assert str(info.value) == f"tol must be a real number, finite and > 0, got {tol!r}"
