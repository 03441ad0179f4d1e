"""The four benchmark workloads, each driving pisu's public functions.

Every workload runs a pass as a list of items.  An item is one user-level
operation followed by the checks on its output; an exception or a failed
check counts the item as failed, and the pass goes on with the next item.
Spans are opened here, around each call into a pisu layer, so that the
traced run can split a pass by layer without changing the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
from pathlib import Path
from time import perf_counter

import numpy as np

TOL = 1e-10


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


_PROBE_ARRAY = np.ones(1 << 20)
_PROBE_OUT = np.empty(1 << 20)


def speed_probe() -> float:
    """Time a fixed task that no change to pisu can speed up.

    Other tenants of the host slow this machine by up to ~1.5x in phases of
    seconds to minutes, through the CPU and through memory bandwidth.  The
    probe does interpreter work like pisu's (dict updates on tuple keys,
    complex sums, bit counts) and streams 8 MiB arrays, so that run times
    can be scaled to one reference speed.
    """
    start = perf_counter()
    acc: dict[tuple[int, int], complex] = {}
    for i in range(6000):
        key = ((i * 7919) & 4095, (i ^ (i >> 3)).bit_count())
        acc[key] = acc.get(key, 0j) + complex(i & 3, i & 1)
    sorted(acc)
    for _ in range(4):
        np.add(_PROBE_ARRAY, _PROBE_ARRAY, out=_PROBE_OUT)
    return perf_counter() - start


class Log:
    """Attempts, failures, item latencies per pass, and the run's speed probes."""

    def __init__(self) -> None:
        self.passes: list[list[float]] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, rec, label: str, fn):
        """Run one item under an ``item`` span; return fn's value, or None if it failed."""
        rec.item = f"{label}#{self.attempted}"
        self.attempted += 1
        start = perf_counter()
        try:
            with rec.span("item"):
                return fn()
        except Exception as exc:  # a failed item is counted and the run goes on
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.passes[-1].append(perf_counter() - start)


class Facts(dict):
    """Work counts and worst numerics of one pass, keyed by per-layer metric name."""

    def add(self, key: str, value) -> None:
        self[key] = self.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self[key] = max(self.get(key, 0), value)


def basis_size(n: int) -> int:
    """(n+3)(n+2)(n+1)/6 - 1, the number of symmetrized generators."""
    return (n + 3) * (n + 2) * (n + 1) // 6 - 1


def orbit_size(tv) -> int:
    return math.factorial(tv.n) // (
        math.factorial(tv.n_x)
        * math.factorial(tv.n_y)
        * math.factorial(tv.n_z)
        * math.factorial(tv.n_i)
    )


def ladder_totals(tv) -> tuple[int, int]:
    """Closed-form (CNOTs, gates) of one CNOT-ladder pass over a whole orbit.

    Each orbit string of weight w costs 2(w-1) CNOTs and
    2(n_y + n_z) + 2(w-1) + 1 gates.
    """
    w = tv.n - tv.n_i
    strings = orbit_size(tv)
    return strings * 2 * (w - 1), strings * (2 * (tv.n_y + tv.n_z) + 2 * (w - 1) + 1)


def _gate_rows(c):
    return [(g.kind, g.qubits, g.param) for g in c.gates]


def _angles(c):
    return [None if g.param is None else c.params[g.param] for g in c.gates]


class Closure:
    """``verify_closure(n)``: every pairwise bracket of the basis, projected back.

    The traced pass re-drives verify_closure's public pieces instead
    (enumerate_basis, then commutator and project_onto_basis per pair) and
    must reproduce the untraced report's pairs and max_residual exactly.
    """

    sample_items = False
    scale_to_reference = True

    def __init__(self, p, rng, *, n: int = 5) -> None:
        self.p = p
        self.n = n
        self.pairs = math.comb(basis_size(n), 2)
        self.reference = None
        self.basis = None

    def warm_up(self) -> None:
        self.p.verify_closure(3)

    def run_pass(self, rec, log: Log, facts: Facts, traced: bool) -> None:
        if traced:
            log.run(rec, "brackets", lambda: self._decomposition(rec, facts))
        else:
            log.run(rec, "verify_closure", self._verify)

    def _verify(self) -> None:
        report = self.p.verify_closure(self.n)
        check(report.pairs == self.pairs, f"pairs {report.pairs} != {self.pairs}")
        check(report.max_residual == 0.0, f"max_residual {report.max_residual!r} != 0.0")
        check(report.passed, "report did not pass")
        self.reference = report

    def _decomposition(self, rec, facts: Facts) -> None:
        p = self.p
        with rec.span("symmetry.enumerate_basis"):
            basis = p.enumerate_basis(self.n)
            sums = [g.as_sum for g in basis]
        pairs = 0
        worst = 0.0
        for a, b in itertools.combinations(sums, 2):
            with rec.span("pauli.commutator"):
                bracket = p.commutator(a, b)
            with rec.span("symmetry.project"):
                _, residual = p.project_onto_basis(bracket, basis)
            pairs += 1
            worst = max(worst, residual)
            facts.add("pauli.bracket_terms", bracket.num_terms())
        self.basis = basis
        facts["symmetry.orbit_strings"] = sum(len(g.orbit) for g in basis)
        facts["symmetry.max_residual"] = worst
        check(pairs == self.pairs, f"pairs {pairs} != {self.pairs}")
        check(worst == 0.0, f"max_residual {worst!r} != 0.0")
        ref = self.reference
        check(ref is not None, "no verify_closure report to cross-check against")
        check(
            (pairs, worst) == (ref.pairs, ref.max_residual),
            f"decomposition gives {(pairs, worst)}, verify_closure "
            f"gives {(ref.pairs, ref.max_residual)}",
        )

    def untimed_facts(self, facts: Facts) -> None:
        """Term pairs and string products of the traced pass, counted with numpy.

        commutator multiplies a pair of terms only when the two strings
        anticommute, so the products are the anticommuting term pairs.
        """
        if self.basis is None:
            return
        sizes = [len(g.orbit) for g in self.basis]
        x = np.array([s.x for g in self.basis for s in g.orbit], dtype=np.uint64)
        z = np.array([s.z for g in self.basis for s in g.orbit], dtype=np.uint64)
        gen = np.repeat(np.arange(len(sizes)), sizes)
        products = 0
        for lo in range(0, len(x), 512):
            xs, zs = x[lo : lo + 512, None], z[lo : lo + 512, None]
            anti = (np.bitwise_count(xs & z) + np.bitwise_count(zs & x)) & 1
            products += int(np.count_nonzero(anti.astype(bool) & (gen[lo : lo + 512, None] < gen)))
        total = sum(sizes)
        term_pairs = (total * total - sum(s * s for s in sizes)) // 2
        facts["pauli.term_pairs"] = term_pairs
        facts["pauli.products"] = products
        facts["pauli.anticommuting_ratio"] = products / term_pairs


class Synth:
    """The whole basis as circuits, planned as ``count-cnots`` plans them.

    Commuting orbits use exact-product and the rest one product-formula
    step; angles and pivots come from the seed.  Each circuit makes a round
    trip through JSON and QASM.
    """

    sample_items = True
    scale_to_reference = True

    def __init__(self, p, rng, *, n: int = 6) -> None:
        self.p = p
        self.n = n
        count = basis_size(n)
        self.thetas = [float(t) for t in rng.uniform(-np.pi, np.pi, size=count)]
        self.pivots = [int(q) for q in rng.integers(1, n + 1, size=count)]

    def warm_up(self) -> None:
        p = self.p
        for g in p.enumerate_basis(3):
            c = p.synth_generator(g, 0.3, p.SynthesisPlan("trotter", steps=1))
            p.circuit_from_json(p.circuit_to_json(c))
            p.circuit_from_qasm(p.circuit_to_qasm(c))

    def run_pass(self, rec, log: Log, facts: Facts, traced: bool) -> None:
        basis = log.run(rec, "basis", lambda: self._basis(rec, facts))
        for k, g in enumerate(basis or ()):
            log.run(rec, g.label, lambda: self._item(rec, facts, g, k))

    def _basis(self, rec, facts: Facts):
        with rec.span("symmetry.enumerate_basis"):
            basis = self.p.enumerate_basis(self.n)
            strings = sum(len(g.orbit) for g in basis)
        facts["symmetry.orbit_strings"] = strings
        check(len(basis) == basis_size(self.n), f"{len(basis)} generators")
        return basis

    def _item(self, rec, facts: Facts, g, k: int) -> None:
        p = self.p
        with rec.span("synthesis.commuting_orbit"):
            commuting = p.commuting_orbit(g)
        mode = "exact-product" if commuting else "trotter"
        plan = p.SynthesisPlan(mode, steps=1, pivot=self.pivots[k])
        with rec.span("synthesis.synth_generator"):
            c = p.synth_generator(g, self.thetas[k], plan)
        with rec.span("synthesis.to_json"):
            text_json = p.circuit_to_json(c)
        with rec.span("synthesis.from_json"):
            from_json = p.circuit_from_json(text_json)
        with rec.span("synthesis.to_qasm"):
            text_qasm = p.circuit_to_qasm(c)
        with rec.span("synthesis.from_qasm"):
            from_qasm = p.circuit_from_qasm(text_qasm)

        cnots = p.cnot_count(c)
        facts.add("synthesis.cnots_out", cnots)
        facts.add("synthesis.gates_out", len(c.gates))
        facts.add("synthesis.bytes_serialized", len(text_json) + len(text_qasm))
        want = ladder_totals(g.type_vector)
        check((cnots, len(c.gates)) == want, f"(cnots, gates) {(cnots, len(c.gates))} != {want}")
        check(from_json.n == c.n and _gate_rows(from_json) == _gate_rows(c), "JSON gates differ")
        check(from_json.params == c.params, "JSON angles differ")
        rows = [(kind, qubits) for kind, qubits, _ in _gate_rows(c)]
        check(from_qasm.n == c.n, "QASM qubit count differs")
        check([(g.kind, g.qubits) for g in from_qasm.gates] == rows, "QASM gates differ")
        check(_angles(from_qasm) == _angles(c), "QASM angles differ")


class Verify:
    """Dense checks: ansatz invariance and exact products against dense exponentials.

    Items: symmetrize_fully (tie) with its transposition defect;
    symmetrize_by_extension (couple) with its block-exchange defect; and the
    exact-product circuits of XX and ZZZ against dense_exponential.
    """

    sample_items = False
    # BLAS work barely slows when other tenants load the host, while the
    # probe does; scaling would only add the probe's noise
    scale_to_reference = False

    def __init__(self, p, rng, *, n: int = 9, block_base: int = 3, blocks: int = 3) -> None:
        self.p = p
        self.n = n
        self.block_base = block_base
        self.blocks = blocks
        self.full_seed = int(rng.integers(2**31))
        self.gamma = float(rng.uniform(0.0, 2 * np.pi))
        self.block_seed = int(rng.integers(2**31))
        self.thetas = [float(t) for t in rng.uniform(-np.pi, np.pi, size=2)]
        self.types = [p.TypeVector(2, 0, 0, n - 2), p.TypeVector(0, 0, 3, n - 3)]

    def warm_up(self) -> None:
        p = self.p
        a = np.full((256, 256), 0.5 + 0.5j)
        a @ a
        np.linalg.eigh(a[:64, :64] + a[:64, :64].conj().T)
        p.circuit_unitary(p.Circuit(self.n, (p.Gate("H", (1,)), p.Gate("CNOT", (1, 2)))))

    def run_pass(self, rec, log: Log, facts: Facts, traced: bool) -> None:
        log.run(rec, "full", lambda: self._full(rec, facts))
        log.run(rec, "blocks", lambda: self._blocks(rec, facts))
        for tv, theta in zip(self.types, self.thetas):
            log.run(rec, tv.label, lambda: self._exact(rec, facts, tv, theta))

    def _unitary(self, rec, facts: Facts, c):
        with rec.span("simulator.circuit_unitary"):
            u = self.p.circuit_unitary(c)
        dim = 2**c.n
        facts.add("simulator.gates_applied", len(c.gates))
        facts.peak("simulator.dense_dim_max", dim)
        # each gate reads and rewrites the whole (2,)*2n tensor of complex128
        facts.add("simulator.bytes_moved_computed", 2 * 16 * dim * dim * len(c.gates))
        return u

    def _full(self, rec, facts: Facts) -> None:
        p = self.p
        with rec.span("ansatz.symmetrize"):
            base = p.base_variational_circuit(self.n, seed=self.full_seed)
            c = p.symmetrize_fully(base, angle=self.gamma)
        facts.add("ansatz.gates_out", len(c.gates))
        u = self._unitary(rec, facts, c)
        with rec.span("symmetry.swap_defect"):
            defect = p.swap_invariance_defect(u, self.n)
        facts.add("symmetry.transpositions", len(p.transpositions(self.n)))
        facts.peak("symmetry.max_defect", defect)
        check(defect < TOL, f"transposition defect {defect!r}")

    def _blocks(self, rec, facts: Facts) -> None:
        p = self.p
        choice = p.SymmetrizationChoice("couple", "couple")
        with rec.span("ansatz.symmetrize"):
            base = p.base_variational_circuit(self.block_base, seed=self.block_seed)
            c = p.symmetrize_by_extension(base, self.blocks, choice)
        facts.add("ansatz.gates_out", len(c.gates))
        u = self._unitary(rec, facts, c)
        layout = p.BlockStructure.for_extension(self.block_base, self.blocks)
        worst = 0.0
        with rec.span("symmetry.block_defect"):
            for a, b in itertools.combinations(range(1, self.blocks + 1), 2):
                s = np.eye(2**layout.n, dtype=complex)
                for i, j in layout.exchange_pairs(a, b):
                    s = s @ p.swap_matrix(i, j, layout.n)
                worst = max(worst, p.invariance_defect(u, s))
        facts.add("symmetry.transpositions", len(layout.swap_pairs))
        facts.peak("symmetry.max_defect", worst)
        check(worst < TOL, f"block-exchange defect {worst!r}")

    def _exact(self, rec, facts: Facts, tv, theta: float) -> None:
        p = self.p
        g = p.SymmetrizedGenerator(tv, tv.label)
        with rec.span("synthesis.synth_generator"):
            c = p.synth_generator(g, theta, p.SynthesisPlan("exact-product"))
        facts.add("synthesis.gates_out", len(c.gates))
        facts.add("synthesis.cnots_out", p.cnot_count(c))
        u = self._unitary(rec, facts, c)
        with rec.span("synthesis.dense_exponential"):
            v = p.dense_exponential(g, theta)
        with rec.span("simulator.compare"):
            result = p.equal_up_to_global_phase(u, v, TOL)
        with rec.span("simulator.unitarity"):
            unitarity = p.unitarity_defect(u)
        facts.peak("simulator.max_phase_diff", result.max_abs_diff)
        check(result.passed and result.max_abs_diff < TOL, f"phase diff {result.max_abs_diff!r}")
        check(unitarity < TOL, f"unitarity defect {unitarity!r}")


# argv, file in the work directory that receives stdout, exit code, sha256 of
# stdout.  Exit codes and digests were pinned from pisu 0.1.0.  The two
# `verify` steps exit 1 by design: a product-formula circuit is not exactly
# swap invariant (see the README), so its defect misses 1e-10.
CLI_STEPS = (
    (('dim', '--table', '10'), None, 0,
     "d76fd27b9fb6decc56d3dfdf868051c216aef1a6a52386b12132b68122879e9d"),
    (('basis', '--qubits', '6', '--format', 'json'), None, 0,
     "b61e11ae6c4ce8eb747c59fb4c9e7ab5828f09d38e7b2610315f5c82f8fd9106"),
    (('closure', '--qubits', '4'), None, 0,
     "ae9d5a6ad40621eee4ab87c1da74bbeb719ed18d37572d6a1902c863cbe05de2"),
    (('count-cnots', '--qubits', '6'), None, 0,
     "c9fabb97a7ffe2915de37345c35cded2529e87c6bf914a16fca4d9cb48aaa374"),
    (('ansatz', '--qubits', '4', '--mode', 'blocks:2'), None, 0,
     "453c6522ff70a166b74f4484f623d2d6aa86670957ccff6c2a594a1d67bf25c3"),
    (('ansatz', '--qubits', '8', '--mode', 'full', '--out', 'qasm'), None, 0,
     "8a7f5cba6c0bc330bbd33032cd1276131db1e40628d921746580ef8490bdefd0"),
    (('synth', '--qubits', '7', '--type', 'x:1,y:1,z:1', '--theta', '0.4', '--mode', 'trotter:4', '--out', 'json'), 'xyz.json', 0,
     "7b4e87704805525d5ae8b1f612a762c69a6d3a70e6e27ae07559574155dcce6a"),
    (('verify', '--circuit', '{dir}/xyz.json'), None, 1,
     "4fddc55cb230dfcafb4fc45eb62be3769cfbeab20e51c12cd4713cec4d11bda3"),
    (('export', '--circuit', '{dir}/xyz.json', '--out', 'qasm'), 'xyz.qasm', 0,
     "3284c70dcb30d6b7bbb1f820fdee0d41ea2c92d595dac33dc65e81532f4a704c"),
    (('verify', '--circuit', '{dir}/xyz.qasm'), None, 1,
     "4fddc55cb230dfcafb4fc45eb62be3769cfbeab20e51c12cd4713cec4d11bda3"),
)


class Cli:
    """``pisu.cli.main`` in-process, stdout captured, one item per command.

    The arguments are fixed, not drawn from the seed, because every stdout
    is compared against a digest pinned in CLI_STEPS.
    """

    sample_items = False
    scale_to_reference = True

    def __init__(self, p, rng, *, workdir: Path, steps=CLI_STEPS) -> None:
        self.p = p
        self.workdir = Path(workdir)
        self.steps = steps
        self.main = p.cli.main

    def warm_up(self) -> None:
        p = self.p
        a = np.full((256, 256), 0.5 + 0.5j)
        a @ a
        p.circuit_unitary(p.Circuit(8, (p.Gate("H", (1,)), p.Gate("CNOT", (1, 2)))))
        self._call(("dim", "--qubits", "2"))

    def _call(self, argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, rec, log: Log, facts: Facts, traced: bool) -> None:
        for argv, save_as, code, digest in self.steps:
            argv = tuple(a.replace("{dir}", str(self.workdir)) for a in argv)
            log.run(rec, argv[0], lambda: self._item(rec, facts, argv, save_as, code, digest))

    def _item(self, rec, facts: Facts, argv, save_as, want_code: int, want_digest: str) -> None:
        with rec.span("cli.main"):
            code, out, err = self._call(argv)
        facts.add("cli.stdout_bytes", len(out.encode()))
        if save_as is not None:
            (self.workdir / save_as).write_text(out)
        check(code == want_code, f"{' '.join(argv)}: exit {code}, want {want_code}; {err.strip()}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        check(digest == want_digest, f"{' '.join(argv)}: stdout sha256 {digest}")


WORKLOADS = {"closure": Closure, "synth": Synth, "verify": Verify, "cli": Cli}
