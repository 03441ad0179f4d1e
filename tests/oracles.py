"""Independent reference implementations used to cross-check the package.

Everything here is deliberately built on a different path than the code
under test: full Kronecker embeddings instead of sliced application,
scipy's Pade-based expm instead of eigendecomposition, and hand-frozen
gate matrices instead of the package's tables.  ``closure_by_objects`` is
the object-level bracket-and-project loop that the closure kernel replaces,
and ``closure_by_pair_grids`` (with ``bracket_masks`` and ``orbit_masks``)
is the earlier mask kernel that sorts one full term-pair grid per generator
pair; the batched kernel must equal it exactly.
``tensordot_circuit_unitary``, ``kron_pauli_sum_matrix``,
``dense_invariance_defect`` and ``dense_swap_invariance_defect`` are the
dense-arithmetic versions of ``circuit_unitary``, ``PauliSum.matrix``,
``invariance_defect`` and ``swap_invariance_defect`` that the index kernels
replace; the kernels must equal them bit for bit.  ``eigh_exponential`` is
``dense_exponential`` by the eigensolver alone, before diagonal types got
their own path.  ``per_gate_circuit_to_json``, ``per_gate_circuit_from_json``,
``per_gate_circuit_to_qasm`` and ``per_gate_circuit_from_qasm`` build,
encode or parse every gate on its own, as the interchange functions did
before they kept a per-call memo of distinct gates; the writers must match
them byte for byte and the readers gate for gate.
``per_line_circuit_from_qasm`` is ``circuit_from_qasm`` as it was before
the process-wide line cache: a memo of one text's lines, every gate and the
circuit checked; the reader's outcome must equal it, error messages
included.  ``letter_matrix`` and
``string_matrix`` realize a string by Kronecker products, and
``commuting_orbit_by_pairs`` runs the symplectic check ``commutes`` on every
pair of orbit strings, where ``commuting_orbit`` reads the answer off the
type vector.  ``commutator_by_strings`` is ``commutator`` as it was before
the mask-level product rule: a ``PauliString`` per term and a ``multiply``
per anticommuting pair; ``project_by_orbits`` projects by looking up every
orbit string, where ``project_onto_basis`` groups ``v``'s terms by type.
``conjugate_by_swap`` exchanges the letters of a string at two
qubits, the symbolic form of conjugating it by a SWAP; the package itself
only checks invariance densely.  ``_arrangements`` (each orbit word by
recursion) and ``_string_gates`` (one string's ladder as a Python gate
list) are the per-string builders that ``SymmetrizedGenerator.orbit`` and
``_ladder_gates`` replace with whole-orbit letter and gate-id arrays; the
orbit and every circuit must equal theirs, order and Gate objects included.
``basis_by_strings`` prints ``pisu basis`` from each orbit string's
``paper_notation`` or ``letters``, as the command did before it rendered the
orbit letter arrays, and ``transposed_permutation_defect`` is
``permutation_defect`` as one transposed difference of the whole unitary.
"""

import functools
import itertools
import json
import math
import re
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg import expm

from pisu import (
    Circuit,
    Gate,
    PauliString,
    PauliSum,
    commutator,
    enumerate_basis,
    gate_matrix,
    multiply,
    project_onto_basis,
    swap_matrix,
    transpositions,
)
from pisu.pauli import PRUNE_EPS
from pisu.synthesis import (
    _QASM_GATE_RE as _LINE_GATE_RE,
    _QASM_INDEX_RE,
    _QASM_QREG_RE,
    _WRAPPERS,
    _gate,
    _qasm_angle,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = np.array([[1, 0], [0, -1j]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_chain(*mats):
    return functools.reduce(np.kron, mats)


def word_matrix(word, coeff=1.0):
    """Dense matrix of a letter word, qubit 1 leftmost."""
    return coeff * kron_chain(*[PAULI[c] for c in word])


def letter_matrix(letter):
    """Standard 2x2 computational-basis matrix of a single Pauli letter."""
    return PAULI[letter].copy()


def string_matrix(s):
    """Dense 2^n x 2^n realization of a string: coeff times the Kronecker product of letters."""
    return word_matrix(s.letters, s.coeff)


def commutes(a: PauliString, b: PauliString) -> bool:
    """Symplectic criterion: even number of positions with distinct non-identity letters."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def commutator_by_strings(a: PauliSum, b: PauliSum) -> PauliSum:
    """``commutator`` as one ``multiply`` of two PauliStrings per anticommuting term pair."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    acc: dict[tuple[int, int], complex] = {}
    for (ax, az), ac in a.terms.items():
        sa = PauliString(a.n, ax, az, ac)
        for (bx, bz), bc in b.terms.items():
            sb = PauliString(b.n, bx, bz, bc)
            if commutes(sa, sb):
                continue
            prod = multiply(sa, sb)
            key = (prod.x, prod.z)
            acc[key] = acc.get(key, 0j) + 2 * prod.coeff
    return PauliSum(a.n, {k: v for k, v in acc.items() if abs(v) >= PRUNE_EPS})


def project_by_orbits(v: PauliSum, basis) -> tuple[list[complex], float]:
    """``project_onto_basis`` by looking up every orbit string of every generator in ``v``.

    Each coefficient is the mean of ``v`` over the orbit's strings; the
    residual is the norm of what is left of ``v`` after subtracting each
    coefficient from its orbit's strings.
    """
    coeffs = []
    rest = dict(v.terms)
    for gen in basis:
        keys = [(s.x, s.z) for s in gen.orbit]
        c = sum(v.terms.get(key, 0j) for key in keys) / len(keys)
        coeffs.append(c)
        for key in keys:
            rest[key] = rest.get(key, 0j) - c
    return coeffs, math.sqrt(sum(abs(r) ** 2 for r in rest.values()))


def _swap_bits(value: int, a: int, b: int) -> int:
    va = (value >> a) & 1
    vb = (value >> b) & 1
    if va != vb:
        value ^= (1 << a) | (1 << b)
    return value


def conjugate_by_swap(s: PauliString, i: int, j: int) -> PauliString:
    """SWAP conjugation of a string: letters at qubits i and j exchanged.

    Exact at the symbolic level (coefficient unchanged), equal to S @ M @ S
    at the matrix level.
    """
    if not (1 <= i <= s.n and 1 <= j <= s.n):
        raise ValueError(f"qubit indices ({i}, {j}) out of range 1..{s.n}")
    if i == j:
        return s
    a, b = i - 1, j - 1
    return PauliString(s.n, _swap_bits(s.x, a, b), _swap_bits(s.z, a, b), s.coeff)


def commuting_orbit_by_pairs(gen):
    """True iff every pair of orbit strings commutes, by the symplectic check on each pair."""
    return all(commutes(a, b) for a, b in itertools.combinations(gen.orbit, 2))


def rotation(kind, theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)
    raise ValueError(kind)


def embed_single(gate2, qubit, n):
    """Full 2^n embedding of a one-qubit gate (1-based index, qubit 1 leftmost)."""
    mats = [I2] * n
    mats[qubit - 1] = gate2
    return kron_chain(*mats)


def cnot_full(control, target, n):
    """CNOT as an explicit basis-state permutation (qubit 1 = most significant bit)."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    cb = n - control
    tb = n - target
    for b in range(dim):
        b2 = b ^ (1 << tb) if (b >> cb) & 1 else b
        out[b2, b] = 1.0
    return out


def naive_circuit_unitary(circuit):
    """Ordered product of full Kronecker-embedded gate matrices."""
    dim = 2**circuit.n
    u = np.eye(dim, dtype=complex)
    fixed = {"H": H, "S": S, "Sdg": SDG}
    for gate in circuit.gates:
        if gate.kind == "CNOT":
            g = cnot_full(gate.qubits[0], gate.qubits[1], circuit.n)
        elif gate.kind in fixed:
            g = embed_single(fixed[gate.kind], gate.qubits[0], circuit.n)
        else:
            g = embed_single(
                rotation(gate.kind, circuit.params[gate.param]), gate.qubits[0], circuit.n
            )
        u = g @ u
    return u


def expm_oracle(hermitian, theta):
    """Scaling-and-squaring exponential exp(-i theta/2 M)."""
    return expm(-0.5j * theta * np.asarray(hermitian))


def swap_via_pauli(i, j, n):
    """SWAP_{i,j} from the two-qubit identity (1/2)(II + XX + YY + ZZ)."""
    if i == j:
        return np.eye(2**n, dtype=complex)
    total = np.zeros((2**n, 2**n), dtype=complex)
    for letter in "IXYZ":
        word = ["I"] * n
        word[i - 1] = letter
        word[j - 1] = letter
        total += word_matrix("".join(word))
    return total / 2


def closure_by_objects(n, basis):
    """Pair count and worst residual of verify_closure, one PauliSum bracket at a time."""
    pairs = 0
    worst = 0.0
    for g1, g2 in itertools.combinations(basis, 2):
        pairs += 1
        _, residual = project_onto_basis(commutator(g1.as_sum, g2.as_sum), basis)
        worst = max(worst, residual)
    return pairs, worst


def bracket_masks(ax, az, bx, bz, n):
    """Bracket of two unit-coefficient string sums given as int64 (x, z) mask arrays.

    The vectorized form of ``commutator`` on the full term-pair grid: each
    anticommuting pair contributes ``2 i^k`` to its product string, with the
    i-power ``k`` computed as in ``multiply``.  Coefficients are accumulated
    as exact Gaussian integers.  Returns ``(x, z, re, im)`` of the nonzero
    terms, ordered by the packed key ``x << n | z``.
    """
    ax, az = ax[:, None], az[:, None]
    px = ax ^ bx
    pz = az ^ bz
    anti = (np.bitwise_count((ax & bz) ^ (az & bx)) & 1).astype(bool)
    k = (
        np.bitwise_count(ax & az).astype(np.int64)
        + np.bitwise_count(bx & bz)
        + 2 * np.bitwise_count(az & bx)
        - np.bitwise_count(px & pz)
    )
    # one sort over (product string, i-power) codes counts each phase per string
    codes, counts = np.unique(((((px << n) | pz) << 2) | (k & 3))[anti], return_counts=True)
    keys = codes >> 2
    phase = codes & 3
    value = 2 * (1 - (phase & 2)) * counts  # i^phase = +-1 or +-i
    real = (phase & 1) == 0
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
    re = np.add.reduceat(np.where(real, value, 0), starts)
    im = np.add.reduceat(np.where(real, 0, value), starts)
    nonzero = (re != 0) | (im != 0)
    keys = keys[starts][nonzero]
    return keys >> n, keys & ((1 << n) - 1), re[nonzero], im[nonzero]


def orbit_masks(gen):
    """The orbit's x and z masks as int64 arrays, in orbit order."""
    return (
        np.array([s.x for s in gen.orbit], dtype=np.int64),
        np.array([s.z for s in gen.orbit], dtype=np.int64),
    )


def closure_by_pair_grids(n, basis):
    """Pair count and worst residual of verify_closure, one sorted pair grid at a time."""
    side = n + 1
    generator_of_type = np.full(side**3, -1, dtype=np.int64)
    for idx, gen in enumerate(basis):
        tv = gen.type_vector
        generator_of_type[(tv.n_x * side + tv.n_y) * side + tv.n_z] = idx
    sizes = [gen.orbit_size() for gen in basis]
    worst = Fraction(0)
    for (ax, az), (bx, bz) in itertools.combinations(map(orbit_masks, basis), 2):
        x, z, re, im = bracket_masks(ax, az, bx, bz, n)
        n_y = np.bitwise_count(x & z).astype(np.int64)
        n_x = np.bitwise_count(x) - n_y
        n_z = np.bitwise_count(z) - n_y
        gen = generator_of_type[(n_x * side + n_y) * side + n_z]
        order = np.argsort(gen, kind="stable")
        gen = gen[order]
        starts = np.flatnonzero(np.diff(gen, prepend=-2))  # generator indices are >= -1
        re, im = re[order], im[order]
        # per-type sums stay far below int64 range; the squares below are Python ints
        norm_sq = np.add.reduceat(re * re + im * im, starts).tolist()
        sum_re = np.add.reduceat(re, starts).tolist()
        sum_im = np.add.reduceat(im, starts).tolist()
        residual_sq = Fraction(0)
        for g, sq, r, i in zip(gen[starts].tolist(), norm_sq, sum_re, sum_im):
            if g < 0:  # no basis element of this type (e.g. an identity component)
                residual_sq += sq
            elif numerator := sizes[g] * sq - r * r - i * i:
                residual_sq += Fraction(numerator, sizes[g])
        worst = max(worst, residual_sq)
    return math.comb(len(basis), 2), math.sqrt(worst)


def tensordot_circuit_unitary(c):
    """circuit_unitary by one tensordot plus moveaxis per gate."""
    dim = 2**c.n
    t = np.eye(dim, dtype=complex).reshape((2,) * c.n + (dim,))
    for gate in c.gates:
        m = gate_matrix(gate.kind, None if gate.param is None else c.params[gate.param])
        if gate.kind == "CNOT":
            ctrl, tgt = gate.qubits[0] - 1, gate.qubits[1] - 1
            t = np.tensordot(m.reshape(2, 2, 2, 2), t, axes=([2, 3], [ctrl, tgt]))
            t = np.moveaxis(t, [0, 1], [ctrl, tgt])
        else:
            q = gate.qubits[0] - 1
            t = np.tensordot(m, t, axes=([1], [q]))
            t = np.moveaxis(t, 0, q)
    return t.reshape(dim, dim)


def eye_unitarity_defect(u):
    """unitarity_defect as max |U^dag U - I| with the identity built by np.eye."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def kron_pauli_sum_matrix(v):
    """PauliSum.matrix as the sum of every term's Kronecker realization."""
    dim = 2**v.n
    out = np.zeros((dim, dim), dtype=complex)
    for s in v.strings():
        out += string_matrix(s)
    return out


def dense_invariance_defect(u, s):
    """invariance_defect by two dense matrix products, whatever ``s`` is."""
    return float(np.abs(s @ u @ s.conj().T - u).max())


def dense_swap_invariance_defect(u, n):
    """swap_invariance_defect by conjugating with every dense transposition SWAP."""
    worst = 0.0
    for i, j in transpositions(n):
        worst = max(worst, dense_invariance_defect(u, swap_matrix(i, j, n)))
    return worst


def eigh_exponential(g, theta):
    """dense_exponential by the eigensolver for every type, diagonal ones included."""
    m = g.matrix()
    if not m.imag.any():
        m = m.real
    eigenvalues, vectors = np.linalg.eigh(m)
    return (vectors * np.exp(-0.5j * theta * eigenvalues)) @ vectors.conj().T


_QASM_NAMES = {"H": "h", "S": "s", "Sdg": "sdg", "CNOT": "cx", "RX": "rx", "RY": "ry", "RZ": "rz"}
_QASM_KINDS = {v: k for k, v in _QASM_NAMES.items()}
_QASM_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)(?:\((?P<angle>[^)]+)\))?\s+(?P<args>q\[\d+\](?:,q\[\d+\])*);$"
)


def per_gate_circuit_to_json(c):
    """circuit_to_json by one json.dumps of the whole gate list."""
    gates = [
        {"kind": g.kind, "qubits": list(g.qubits), "param": g.param} for g in c.gates
    ]
    params = {name: float(value) for name, value in sorted(c.params.items())}
    return json.dumps({"n": c.n, "gates": gates, "params": params})


def per_gate_circuit_from_json(text):
    """circuit_from_json with one Gate built per gate entry."""
    data = json.loads(text)
    gates = tuple(
        Gate(g["kind"], tuple(g["qubits"]), g.get("param")) for g in data["gates"]
    )
    return Circuit(int(data["n"]), gates, dict(data.get("params", {})))


def per_gate_circuit_to_qasm(c):
    """circuit_to_qasm with one formatted line per gate."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.n}];"]
    for g in c.gates:
        name = _QASM_NAMES[g.kind]
        args = ",".join(f"q[{q - 1}]" for q in g.qubits)
        if g.param is not None:
            if g.param not in c.params:
                raise ValueError(f"parameter {g.param!r} is unbound; cannot export")
            lines.append(f"{name}({c.params[g.param]!r}) {args};")
        else:
            lines.append(f"{name} {args};")
    return "\n".join(lines) + "\n"


def per_gate_circuit_from_qasm(text):
    """circuit_from_qasm with every line matched and every Gate built; float angles only."""
    n = None
    gates = []
    params = {}
    counter = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("OPENQASM", "include", "//")):
            continue
        m = re.match(r"^qreg\s+q\[(\d+)\];$", line)
        if m:
            n = int(m.group(1))
            continue
        m = _QASM_GATE_RE.match(line)
        if m is None:
            raise ValueError(f"cannot parse QASM line: {line!r}")
        kind = _QASM_KINDS.get(m.group("name"))
        if kind is None:
            raise ValueError(f"unsupported QASM gate {m.group('name')!r}")
        qubits = tuple(int(q) + 1 for q in re.findall(r"q\[(\d+)\]", m.group("args")))
        if m.group("angle") is not None:
            name = f"p{counter}"
            counter += 1
            params[name] = float(m.group("angle"))
            gates.append(Gate(kind, qubits, name))
        else:
            gates.append(Gate(kind, qubits))
    if n is None:
        raise ValueError("QASM text declares no qreg")
    return Circuit(n, tuple(gates), params)


def per_line_circuit_from_qasm(text):
    """circuit_from_qasm with a memo of the text's own lines, no cache across calls, and a checked Circuit.

    The line grammar (patterns and angles) is the package's own; every gate
    and the circuit are built and checked here, in the order of the messages.
    """
    n = None
    gates = []
    params = {}
    # stripped gate line -> its Gate, or (kind, qubits, angle) for a rotation
    memo = {}
    for raw in text.splitlines():
        line = raw.strip()
        seen = memo.get(line)
        if seen is None:
            if not line or line.startswith(("OPENQASM", "include", "//")):
                continue
            if line.startswith("qreg") and (m := _QASM_QREG_RE.fullmatch(line)):
                if n is not None:
                    raise ValueError(f"second qreg in line {line!r}; only one qreg is supported")
                n = int(m.group(1))
                continue
            m = _LINE_GATE_RE.fullmatch(line)
            if m is None:
                raise ValueError(f"cannot parse QASM line: {line!r}")
            gate_name, angle, first, second, rest = m.groups()
            qubits = (int(first) + 1,) if second is None else (int(first) + 1, int(second) + 1)
            if rest:
                qubits += tuple(int(q) + 1 for q in _QASM_INDEX_RE.findall(rest))
            if n is None:
                raise ValueError(f"gate line {line!r} comes before the qreg declaration")
            kind = _QASM_KINDS.get(gate_name)
            if kind is None:
                raise ValueError(f"unsupported QASM gate {gate_name!r} in line {line!r}")
            angle = None if angle is None else _qasm_angle(angle, line)
            try:
                for q in qubits:
                    if q > n:
                        raise ValueError(f"gate qubit {q} out of range 1..{n}")
                seen = _gate(kind, qubits, None) if angle is None else Gate(kind, qubits, f"p{len(params)}")
            except ValueError as exc:
                raise ValueError(f"{exc} in line {line!r}") from None
            if angle is not None:
                memo[line] = (kind, qubits, angle)
                params[seen.param] = angle
                gates.append(seen)
                continue
            memo[line] = seen
        if type(seen) is Gate:
            gates.append(seen)
        else:
            kind, qubits, angle = seen
            name = f"p{len(params)}"
            params[name] = angle
            gates.append(Gate(kind, qubits, name))
    if n is None:
        raise ValueError("QASM text declares no qreg")
    return Circuit(n, gates, params)


def _arrangements(counts: Sequence[int]) -> Iterator[str]:
    """Distinct letter words of the multiset, lexicographic in X < Y < Z < I."""
    letters = "XYZI"
    remaining = list(counts)

    def rec(prefix: list[str], left: int) -> Iterator[str]:
        if left == 0:
            yield "".join(prefix)
            return
        for idx, letter in enumerate(letters):
            if remaining[idx] == 0:
                continue
            remaining[idx] -= 1
            prefix.append(letter)
            yield from rec(prefix, left - 1)
            prefix.pop()
            remaining[idx] += 1

    yield from rec([], sum(counts))


def _string_gates(s: PauliString, pivot: int | None, param_name: str) -> list[Gate]:
    """The gates of ``synth_string``, validated the same way, through ``_gate``."""
    if s.coeff != 1:
        raise ValueError(f"string coefficient must be 1, got {s.coeff}")
    support = s.support()
    if not support:
        raise ValueError("cannot exponentiate the all-identity string")
    if pivot is None:
        pivot = support[0]
    if not 1 <= pivot <= s.n:
        raise ValueError(f"pivot {pivot} out of range 1..{s.n}")
    if s.letter(pivot) == "I":
        raise ValueError(f"pivot qubit {pivot} carries an identity letter")

    targets = [q for q in support if q != pivot]
    opening: list[Gate] = []
    closing: list[Gate] = []
    for q in support:
        wrap = _WRAPPERS[s.letter(q)]
        if wrap is not None:
            first, last = wrap
            opening.append(_gate(first, (q,), None))
            closing.append(_gate(last, (q,), None))

    fan = [_gate("CNOT", (pivot, t), None) for t in targets]
    return opening + fan + [_gate("RX", (pivot,), param_name)] + fan[::-1] + closing[::-1]


def paper_notation(s: PauliString) -> str:
    """Subscripted rendering, e.g. ``"x2 y1"`` for Y on qubit 1, X on qubit 2."""
    parts = sorted((s.letter(q).lower(), q) for q in s.support())
    if not parts:
        return "1"
    return " ".join(f"{letter}{q}" for letter, q in parts)


def basis_by_strings(n: int, fmt: str) -> str:
    """The stdout of ``pisu basis --qubits n --format fmt``, one orbit string at a time."""
    basis = enumerate_basis(n)
    if fmt == "text":
        lines = [
            f"{idx}: {gen.label} = {' + '.join(paper_notation(s) for s in gen.orbit)}"
            for idx, gen in enumerate(basis, start=1)
        ]
        return "".join(line + "\n" for line in lines)
    generators = [
        {
            "index": idx,
            "label": gen.label,
            "type": [gen.type_vector.n_x, gen.type_vector.n_y, gen.type_vector.n_z, gen.type_vector.n_i],
            "orbit": [s.letters for s in gen.orbit],
        }
        for idx, gen in enumerate(basis, start=1)
    ]
    return json.dumps({"n": n, "generators": generators}, sort_keys=True) + "\n"


def transposed_permutation_defect(u, perm):
    """max |P U P^dag - U| from the whole transposed ``(2,)*2n`` tensor of ``u``."""
    n = len(perm)
    t = u.reshape((2,) * (2 * n))
    return float(np.abs(t.transpose([*perm, *(n + k for k in perm)]) - t).max())
