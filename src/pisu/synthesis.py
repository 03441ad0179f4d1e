"""Gate-level synthesis of Pauli-string and symmetrized-generator exponentials.

Ladders.  A single string exponential exp(-i theta/2 P) is realized on an
all-X backbone: basis changes open the string (Sdg for Y, H for Z), CNOTs fan
out from a pivot qubit over the rest of its support, a central RX sits on
the pivot, and the fan and the basis changes are mirrored.  Identity letters
skip their qubit.  A whole orbit is synthesized at once from its letter
array: each string's ladder is one row of an ``(S, G)`` matrix of integer
gate ids, and each distinct id becomes a ``Gate`` once, through the bounded
gate cache ``_gate`` that the readers share.

Generators.  The orbit's string exponentials multiply to the generator's
exponential when the orbit commutes pairwise; otherwise a first-order
product formula over k steps approximates it.  ``dense_exponential`` is the
exact reference.  A type of one letter takes closed forms in Krawtchouk
numbers ``K[a][b] = sum_j (-1)^j C(a, j) C(n - a, b - j)``, with no
eigensolver.  A type of k Z letters is diagonal, with ``K[|c|][k]`` at basis
state ``c``, so its exponential is the diagonal of phases.  A type of k X
letters is that diagonal conjugated by H on every qubit: its entry at
``(r, c)`` is ``f(|r ^ c|)`` with ``f(d) = 2^-n sum_w K[d][w] exp(-i theta/2
K[w][k])``.  A type of k Y letters is the X form conjugated by S on every
qubit, which multiplies that entry by ``i^(|r| - |c|)``.  Every other type
takes the Hermitian eigendecomposition of ``g.matrix()``, the real symmetric
one when the matrix is real (an even number of Y letters).

Interchange.  The writers encode each distinct gate once.  The JSON reader
first tries text in the writer's layout, ``{"n": N, "gates": [{F}, {F},
...], "params": P}`` with perhaps JSON whitespace around it.  It cuts the
text at the first ``, "gates": [``, the last ``], "params": `` and every
``}, {`` between them; every piece must parse on its own, a gate piece as
``{F}``, and each distinct gate piece is parsed once.  This is sound: if
every piece parses, the text is these values joined by the cuts, so it is
valid JSON and means what ``json.loads`` makes of it, and a cut inside a
string literal leaves an unterminated string in a piece, which fails to
parse.  Text whose pieces do not all parse (another spacing or envelope key
order, duplicate envelope keys, a parameter name holding ``}, {``, invalid
gates) takes ``json.loads``, which gives the same circuit and every error
message.  The QASM reader accepts the subset the writer emits:
``OPENQASM``, ``include`` and ``//`` lines (skipped), one ``qreg q[n];``
before any gate, and one ``h``, ``s``, ``sdg``, ``cx``, ``rx``, ``ry`` or
``rz`` gate per line on ``q[i]`` arguments.  An angle is a float literal
(an optional sign, ASCII digits, an optional fraction and exponent; no
``_``, ``inf`` or ``nan``) or ``pi``, ``-pi``, ``pi/<int>``, ``<float>*pi``
or ``<float>*pi/<int>``.  A line seen before in the same text is not
parsed again.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .pauli import PauliString, _integer, check_qubit_cap
from .symmetry import _LETTERS, SymmetrizedGenerator

GATE_KINDS = ("H", "S", "Sdg", "CNOT", "RX", "RY", "RZ")
ROTATION_KINDS = ("RX", "RY", "RZ")

DEFAULT_TROTTER_STEPS = 4


class NonCommutingOrbitError(ValueError):
    """Exact-product synthesis was requested for a non-commuting orbit."""


@dataclass(frozen=True)
class Gate:
    """One gate: kind, 1-based qubit indices, optional parameter name."""

    kind: str
    qubits: tuple[int, ...]
    param: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(_integer(q, "qubit indices must be integers", self.qubits) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if self.kind == "CNOT":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("CNOT needs two distinct qubit indices")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")
        if self.kind in ROTATION_KINDS:
            if not (isinstance(self.param, str) and self.param):
                raise ValueError(f"{self.kind} requires a parameter name, got {self.param!r}")
        elif self.param is not None:
            raise ValueError(f"{self.kind} carries no parameter")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over n qubits; leftmost gate is applied first.

    ``n`` is any integer >= 1, stored as an ``int``, as a gate's qubits are.
    ``params`` binds parameter names to float angles (radians) in a
    read-only mapping; ``_angle`` says which values are accepted.  Circuits
    are immutable and hashable; ``bind`` returns a rebound copy.
    ``circuit_to_json`` is the supported serialization; ``dataclasses.asdict``
    is not (it cannot copy the read-only ``params``).
    """

    n: int
    gates: tuple[Gate, ...] = ()
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "n must be an integer"))
        if self.n < 1:
            raise ValueError("a circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        # each distinct qubit tuple once, in order of first appearance
        for qubits in dict.fromkeys(map(attrgetter("qubits"), self.gates)):
            for q in qubits:
                if not 1 <= q <= self.n:
                    raise ValueError(f"gate qubit {q} out of range 1..{self.n}")
        params = {name: _angle(name, value) for name, value in self.params.items()}
        object.__setattr__(self, "params", MappingProxyType(params))

    def __hash__(self) -> int:
        return hash((self.n, self.gates, tuple(sorted(self.params.items()))))

    def __reduce__(self):
        # a mappingproxy cannot be pickled; rebuild from a plain dict
        return (Circuit, (self.n, self.gates, dict(self.params)))

    @property
    def param_names(self) -> tuple[str, ...]:
        """Parameter names in order of first appearance."""
        return tuple(dict.fromkeys(g.param for g in self.gates if g.param is not None))

    def bind(self, values: Mapping[str, float]) -> "Circuit":
        unknown = set(values) - set(self.param_names) - set(self.params)
        if unknown:
            raise ValueError(f"unknown parameters: {sorted(unknown)}")
        return Circuit(self.n, self.gates, {**self.params, **values})

    def concat(self, other: "Circuit") -> "Circuit":
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} != {other.n}")
        merged = dict(self.params)
        for k, v in other.params.items():
            if k in merged and merged[k] != v:
                raise ValueError(f"conflicting values for parameter {k!r}")
            merged[k] = v
        return Circuit(self.n, self.gates + other.gates, merged)


def _angle(name: str, value) -> float:
    """``value`` as a float angle, if it is a real number, not a boolean, and finite as a float."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"parameter {name!r} must be a finite angle, got {value!r}")


@dataclass(frozen=True)
class SynthesisPlan:
    """How to turn a generator into gates.

    ``exact-product`` multiplies the orbit's string exponentials once (valid
    only for pairwise-commuting orbits, and only with ``steps=1``);
    ``trotter`` repeats the orbit product over ``steps`` slices.  ``pivot``
    (1..n, else ``synth_generator`` raises) pins the central-rotation qubit
    of each string not idle on it.  Both are plain ints (not booleans);
    ``pivot`` may also be None.
    """

    mode: str = "exact-product"
    steps: int = 1
    pivot: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exact-product", "trotter"):
            raise ValueError(f"unknown synthesis mode {self.mode!r}")
        if type(self.steps) is not int:  # bool is a subclass of int
            raise ValueError(f"steps must be an int, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("trotter steps must be >= 1")
        if self.mode == "exact-product" and self.steps != 1:
            raise ValueError(f"exact-product takes steps=1, got steps={self.steps}")
        if self.pivot is not None and type(self.pivot) is not int:
            raise ValueError(f"pivot must be an int or None, got {self.pivot!r}")


# Basis-change wrappers: letter -> (first gate kind, last gate kind) so the
# circuit realizes G RX G^dag with G X G^dag = letter.  The tests check this
# numerically against the simulator's gate matrices.
_WRAPPERS = {"X": None, "Y": ("Sdg", "S"), "Z": ("H", "H")}


# _gate(kind, qubits, param) is Gate(kind, qubits, param), built and validated
# once per process for each distinct triple; synthesis and the JSON and QASM
# readers call it with all three fields positionally, so each triple has one
# key.  It is bounded because a file may hold any number of parameter names.
# Keys compare as tuples, where 1.0 == True == 1: check outside qubits first.
_gate = functools.lru_cache(maxsize=4096)(Gate)


def synth_string(
    s: PauliString,
    theta: float,
    pivot: int | None = None,
    *,
    param_name: str = "theta",
) -> Circuit:
    """Circuit realizing exp(-i theta/2 M) for a single coefficient-1 string.

    The string takes the ladder of a one-string orbit in ``synth_generator``.

    Args:
        s: target string; must have coefficient 1 and at least one
            non-identity letter.
        theta: rotation angle bound to ``param_name``.
        pivot: 1-based qubit carrying the central RX; defaults to the
            lowest-index non-identity qubit.  Must sit on a non-identity
            letter.
    """
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
    letters = np.array([[_LETTERS.index(letter) for letter in s.letters]], dtype=np.uint8)
    gates = _ladder_gates(letters, np.array([pivot - 1]), param_name)
    return Circuit(s.n, tuple(gates), {param_name: theta})


# A ladder gate is an integer id: _ONE_QUBIT[k] on 0-based qubit q is k*n + q,
# and CNOT(p, t) is 4n + p*n + t.  _WRAP_IDS[0 or 1, code] is the k of the
# opening or closing basis change of letter code Y or Z (X takes none).
_ONE_QUBIT = ("Sdg", "S", "H", "RX")
_WRAP_IDS = np.array(
    [[_ONE_QUBIT.index(_WRAPPERS[c][end]) if _WRAPPERS[c] else -1 for c in _LETTERS[:3]] for end in (0, 1)]
)


def _ladder_gates(letters: np.ndarray, pivots: np.ndarray, name: str) -> list[Gate]:
    """The gates of one string exponential per row of ``letters``, in row order.

    ``letters`` is an ``(S, n)`` array of letter codes (``_LETTERS``) whose
    rows share their numbers of identity and of Y-or-Z letters, as one
    orbit's strings do; ``pivots`` holds each row's 0-based pivot, a qubit
    off the identity.  Every RX takes the parameter ``name``.
    """
    rows, n = letters.shape
    wrap = (letters == 1) | (letters == 2)
    shape = (rows, np.count_nonzero(wrap[0]))
    # each row's Y/Z qubits, ascending, and the ids of their opening and closing gates
    wrapped = wrap.nonzero()[1].reshape(shape)
    ends = _WRAP_IDS[:, letters[wrap].reshape(shape)] * n + wrapped
    support = letters != 3
    support[np.arange(rows), pivots] = False
    targets = support.nonzero()[1].reshape(rows, np.count_nonzero(support[0]))
    fan = (4 + pivots[:, None]) * n + targets
    ids = np.concatenate([ends[0], fan, (3 * n + pivots)[:, None], fan[:, ::-1], ends[1][:, ::-1]], axis=1)
    used = np.zeros((4 + n) * n, dtype=bool)
    used[ids] = True
    table = np.empty(len(used), dtype=object)
    for i in used.nonzero()[0].tolist():
        if i >= 4 * n:
            table[i] = _gate("CNOT", (i // n - 3, i % n + 1), None)
        else:
            kind = _ONE_QUBIT[i // n]
            table[i] = _gate(kind, (i % n + 1,), name if kind == "RX" else None)
    return table[ids].ravel().tolist()


def commuting_orbit(g: SymmetrizedGenerator) -> bool:
    """True iff every pair of orbit strings commutes, read from the type vector.

    The orbit commutes iff it uses at most one distinct letter, or exactly
    two and no identity.  Two strings commute iff the positions where both
    carry distinct non-identity letters are even in number.  With one letter
    there are none.  With two letters P, Q and no identity, two arrangements
    of one multiset differ only in P-over-Q and Q-over-P positions, and as
    both hold the same number of P these two counts are equal, so their sum
    is even.  A third letter gives the pair ``PQR...`` and ``QRP...`` (rest
    equal) with three such positions, and an identity beside two letters
    gives ``PQI...`` and ``IPQ...`` with one: both counts are odd.
    """
    tv = g.type_vector
    return tv.distinct_letters() <= 1 or (tv.n_i == 0 and tv.distinct_letters() == 2)


def synth_generator(
    g: SymmetrizedGenerator,
    theta: float,
    plan: SynthesisPlan | None = None,
    *,
    param_name: str = "theta",
) -> Circuit:
    """Synthesize exp(-i theta/2 M) for a symmetrized generator as a Circuit.

    With no plan, exact-product is used when the orbit commutes and a
    first-order product formula otherwise; ``dense_exponential`` gives the
    exact matrix.

    Trotterized circuits bind the per-step angle under the name
    ``<param_name>_step`` (= theta / steps); rebinding it scales every slice.
    """
    theta = _angle(param_name, theta)  # before a trotter plan divides it
    commuting = commuting_orbit(g)
    if plan is None:
        plan = SynthesisPlan() if commuting else SynthesisPlan("trotter", DEFAULT_TROTTER_STEPS)
    if plan.pivot is not None and not 1 <= plan.pivot <= g.n:
        raise ValueError(f"pivot {plan.pivot} out of range 1..{g.n}")

    if plan.mode == "exact-product":
        if not commuting:
            raise NonCommutingOrbitError(
                f"orbit of {g.label} does not pairwise commute; "
                f"exact-product order would matter"
            )
        angle, name = theta, param_name
    else:
        # first-order product formula: k passes over the orbit at theta / k
        angle, name = theta / plan.steps, f"{param_name}_step"
    letters = g._letters
    pivots = (letters != 3).argmax(axis=1)  # each string's lowest support qubit
    if plan.pivot:  # or the plan's pivot, where the string is not idle on it
        pivots[letters[:, plan.pivot - 1] != 3] = plan.pivot - 1
    one_pass = _ladder_gates(letters, pivots, name)
    return Circuit(g.n, tuple(one_pass) * plan.steps, {name: angle})


def dense_exponential(g: SymmetrizedGenerator, theta: float) -> np.ndarray:
    """exp(-i theta/2 M) for the generator sum M, the reference for synthesized circuits.

    Float, within rounding of ``scipy.linalg.expm``; a type of Z letters only
    gives the eigensolver's bits.  ``theta`` must be a finite real number and
    not a boolean (``ValueError``), and ``g.n`` is held to the qubit cap.
    """
    theta = _angle("theta", theta)
    check_qubit_cap(g.n)
    tv = g.type_vector
    n, k = g.n, max(tv.n_x, tv.n_y, tv.n_z)
    if k == n - tv.n_i:  # one letter kind, or none
        kraw = np.array(
            [[sum((-1) ** j * math.comb(a, j) * math.comb(n - a, b - j) for j in range(b + 1)) for b in range(n + 1)]
             for a in range(n + 1)],
            dtype=float,
        )
        index = np.arange(2**n, dtype=np.min_scalar_type(2**n - 1))
        weight = np.bitwise_count(index)
        if tv.n_x == tv.n_y == 0:
            return np.diag(np.exp(-0.5j * theta * kraw[:, k][weight]))
        f = kraw @ np.exp(-0.5j * theta * kraw[:, k]) / 2**n
        distance = np.bitwise_count(index[:, None] ^ index)
        if tv.n_y == 0:
            return f[distance]
        turn = (weight[:, None] - weight.astype(np.int8)) & 3
        return (f[:, None] * np.array([1, 1j, -1, -1j]))[distance, turn]
    m = g.matrix()
    if not m.imag.any():
        m = m.real
    eigenvalues, vectors = np.linalg.eigh(m)
    phases = np.exp(-0.5j * theta * eigenvalues)
    return (vectors * phases) @ vectors.conj().T


def cnot_count(c: Circuit) -> int:
    return [g.kind for g in c.gates].count("CNOT")  # list.count runs in C


def naive_cnot_budget(n: int) -> int:
    """Reference curve 2n * sum_{k=1}^{n} (n-k)^3 for whole-group construction."""
    return 2 * n * sum((n - k) ** 3 for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# interchange formats


def _per_distinct_gate(gates, render) -> list:
    """``[render(g) for g in gates]``, with ``render`` called once per distinct gate.

    The memo keys on plain ``(kind, qubits, param)`` tuples; keying on the
    dataclass would run its slow generated ``__hash__``/``__eq__`` per gate.
    """
    memo: dict = {}
    out = []
    for g in gates:
        key = (g.kind, g.qubits, g.param)
        value = memo.get(key)
        if value is None:
            value = memo[key] = render(g)
        out.append(value)
    return out


def circuit_to_json(c: Circuit) -> str:
    """``json.dumps({"n", "gates", "params"})`` of the circuit, byte for byte."""
    parts = _per_distinct_gate(
        c.gates, lambda g: json.dumps({"kind": g.kind, "qubits": list(g.qubits), "param": g.param})
    )
    params = json.dumps(dict(sorted(c.params.items())))
    return f'{{"n": {json.dumps(c.n)}, "gates": [{", ".join(parts)}], "params": {params}}}'


def circuit_from_json(text: str) -> Circuit:
    """Inverse of ``circuit_to_json``, for the same value in any JSON layout.

    Text that is not such an object is a ``ValueError``, and so is a
    malformed gate, named by its index and field.
    """
    read = _writer_layout(text)
    if read is not None:
        return Circuit(*read)
    data = json.loads(text)
    if not (
        isinstance(data, dict)
        and type(data.get("n")) is int  # not bool, which is an int
        and isinstance(data.get("gates"), list)
        and isinstance(data.get("params", {}), dict)
    ):
        raise ValueError(
            'circuit JSON must be an object with an integer "n", a "gates" list '
            'and an optional "params" object'
        )
    gates = []
    for k, g in enumerate(data["gates"]):
        try:
            gates.append(_json_gate(g))
        except ValueError as exc:
            raise ValueError(f"gate {k}: {exc}") from None
    return Circuit(data["n"], gates, data.get("params", {}))


def _json_gate(g) -> Gate:
    """The gate of one parsed JSON gate object, through ``_gate``; any fault is a ValueError."""
    if not isinstance(g, dict):
        raise ValueError(f'expected an object with "kind" and "qubits", got {g!r}')
    for name in ("kind", "qubits"):
        if name not in g:
            raise ValueError(f"missing field {name!r}")
    if not isinstance(g["qubits"], list):
        raise ValueError(f"field 'qubits' must be a list of qubit indices, got {g['qubits']!r}")
    qubits = tuple(g["qubits"])
    # 1.0 == 1 and True == 1 would find the cached gate of an integer index.
    # A valid gate has one or two qubits, so its two ends are all of them;
    # a longer list is never cached and Gate rejects it.
    if qubits and not type(qubits[0]) is type(qubits[-1]) is int:
        raise ValueError(f"qubit indices must be integers, got {qubits!r}")
    try:
        return _gate(g["kind"], qubits, g.get("param"))
    except TypeError:  # an unhashable field: let Gate report it
        return Gate(g["kind"], qubits, g.get("param"))


def _writer_layout(text: str) -> tuple | None:
    """``(n, gates, params)`` of text laid out as ``circuit_to_json`` writes it, else None.

    None whenever a cut piece does not parse or the envelope or a gate is not
    valid; the caller then reads the text with ``json.loads``.
    """
    text = text.strip(" \t\n\r")  # the whitespace json.loads allows around a value
    if not (text.startswith('{"n": ') and text.endswith("}")):
        return None
    n_text, cut, rest = text[6:-1].partition(', "gates": [')
    body, cut2, params_text = rest.rpartition('], "params": ')
    if not (cut and cut2) or body and not (body[0] == "{" and body[-1] == "}"):
        return None
    seen: dict[str, Gate] = {}
    gates = []
    try:
        n, params = json.loads(n_text), json.loads(params_text)
        if type(n) is not int or not isinstance(params, dict):
            return None
        for piece in body[1:-1].split("}, {") if body else ():
            gate = seen.get(piece)
            if gate is None:
                gate = seen[piece] = _json_gate(json.loads("{" + piece + "}"))
            gates.append(gate)
    except ValueError:  # a JSONDecodeError is a ValueError
        return None
    return n, gates, params


_QASM_NAMES = {"H": "h", "S": "s", "Sdg": "sdg", "CNOT": "cx", "RX": "rx", "RY": "ry", "RZ": "rz"}
_QASM_KINDS = {v: k for k, v in _QASM_NAMES.items()}


def circuit_to_qasm(c: Circuit) -> str:
    """OPENQASM 2.0 text with literal angles; an unbound parameter is a ``ValueError``."""

    def line(g: Gate) -> str:
        name = _QASM_NAMES[g.kind]
        args = ",".join(f"q[{q - 1}]" for q in g.qubits)
        if g.param is None:
            return f"{name} {args};"
        if g.param not in c.params:
            raise ValueError(f"parameter {g.param!r} is unbound; cannot export")
        return f"{name}({c.params[g.param]!r}) {args};"

    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.n}];"]
    return "\n".join(lines + _per_distinct_gate(c.gates, line)) + "\n"


# [0-9], not \d: \d also matches other scripts' digits, which int and float read
_QASM_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)(?:\((?P<angle>[^)]+)\))?\s+(?P<args>q\[[0-9]+\](?:,q\[[0-9]+\])*);$"
)
_QASM_FLOAT = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_QASM_FLOAT_RE = re.compile(rf"[+-]?{_QASM_FLOAT}")
_QASM_PI_RE = re.compile(
    rf"(?P<sign>-)?(?:(?P<coeff>{_QASM_FLOAT})\*)?pi(?:/(?P<denom>[1-9][0-9]*))?"
)


def _qasm_angle(angle: str, line: str) -> float:
    """A QASM angle: a float literal or ``sign * coeff * pi / denom``."""
    if _QASM_FLOAT_RE.fullmatch(angle):
        return float(angle)
    m = _QASM_PI_RE.fullmatch(angle)
    if m is None:
        raise ValueError(
            f"unsupported QASM angle {angle!r} in line {line!r}; expected a float literal, "
            "pi, -pi, pi/<int>, <float>*pi or <float>*pi/<int>"
        )
    sign = -1.0 if m.group("sign") else 1.0
    coeff = float(m.group("coeff") or 1.0)
    return sign * coeff * math.pi / int(m.group("denom") or 1)


def circuit_from_qasm(text: str) -> Circuit:
    """Parse the QASM 2.0 subset that ``circuit_to_qasm`` writes (see the module docstring).

    Rotation angles become fresh parameters ``p0``, ``p1``, ... in gate
    order.  Any other text is a ``ValueError`` naming the line.
    """
    n = None
    gates: list[Gate] = []
    params: dict[str, float] = {}
    # stripped gate line -> its Gate, or (kind, qubits, angle) for a rotation
    memo: dict[str, Gate | tuple] = {}
    for raw in text.splitlines():
        line = raw.strip()
        seen = memo.get(line)
        if seen is None:
            if not line or line.startswith(("OPENQASM", "include", "//")):
                continue
            m = re.match(r"^qreg\s+q\[([0-9]+)\];$", line)
            if m:
                if n is not None:
                    raise ValueError(f"second qreg in line {line!r}; only one qreg is supported")
                n = int(m.group(1))
                continue
            m = _QASM_GATE_RE.match(line)
            if m is None:
                raise ValueError(f"cannot parse QASM line: {line!r}")
            if n is None:
                raise ValueError(f"gate line {line!r} comes before the qreg declaration")
            kind = _QASM_KINDS.get(m.group("name"))
            if kind is None:
                raise ValueError(f"unsupported QASM gate {m.group('name')!r}")
            qubits = tuple(int(q) + 1 for q in re.findall(r"q\[([0-9]+)\]", m.group("args")))
            if m.group("angle") is None:
                seen = memo[line] = _gate(kind, qubits, None)
            else:
                seen = memo[line] = (kind, qubits, _qasm_angle(m.group("angle"), line))
        if type(seen) is Gate:
            gates.append(seen)
        else:
            kind, qubits, angle = seen
            name = f"p{len(params)}"
            params[name] = angle
            gates.append(Gate(kind, qubits, name))  # a fresh name would only evict cached gates
    if n is None:
        raise ValueError("QASM text declares no qreg")
    return Circuit(n, gates, params)
