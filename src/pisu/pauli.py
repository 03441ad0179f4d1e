"""Exact algebra of Pauli strings and their dense matrix realizations.

A string over n qubits is stored as two bitmasks (x-bits, z-bits) with the
encoding (x, z) = (0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z, so that
multiplication and commutation checks are O(1) bit operations.  Group phases
are tracked as integer powers of i and folded into the complex coefficient
only when the product string is formed, which keeps sums of integer-weighted
strings exact.

``PauliSum.matrix`` realizes a sum, and through ``as_sum`` every generator,
by a dense scatter, one term at a time in ``strings()`` order: with the
term's masks bit-reversed into basis-index order, it adds ``coeff * i^{#Y} *
(-1)^{popcount(c & z)}`` at row ``c ^ x`` of each column ``c``.

Convention used throughout the package: qubit 1 is the leftmost tensor
factor of the dense realization; bit q-1 of a mask belongs to qubit q.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from operator import index
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

DEFAULT_MAX_QUBITS = 12
PRUNE_EPS = 1e-14

_LETTERS = "IXZY"  # the letter of a qubit whose x bit is b and z bit is c: _LETTERS[b + 2 * c]
_LETTER_BITS = {letter: (code & 1, code >> 1) for code, letter in enumerate(_LETTERS)}
_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


class QubitLimitError(ValueError):
    """A dense realization or a closure check would exceed the configured qubit cap."""


def max_qubits() -> int:
    """Dense-matrix qubit cap; override with the PISU_MAX_QUBITS env var.

    Read on every call, from ASCII text without ``_`` as CLI numbers are.  A
    value that is not a positive integer raises ValueError naming the
    variable.
    """
    raw = os.environ.get("PISU_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        cap = int(raw) if raw.isascii() and "_" not in raw else 0
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"PISU_MAX_QUBITS must be a positive integer, got {raw!r}")
    return cap


def _integer(value, rule: str, shown=None) -> int:
    """``value`` as a plain int by ``operator.index``: a bool or numpy integer passes, a float or str does not.

    Anything else is a ``ValueError`` reading ``"<rule>, got <shown!r>"``,
    where ``shown`` defaults to ``value``.
    """
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{rule}, got {value if shown is None else shown!r}") from None


def _number(value, rule: str):
    """``value`` if it is a complex, real or integer number other than a bool, else a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{rule}, got {value!r}")
    return value


def check_qubit_cap(n: int) -> None:
    """Raise ``QubitLimitError`` if ``n`` exceeds ``max_qubits()``."""
    cap = max_qubits()
    if n > cap:
        raise QubitLimitError(f"n={n} qubits exceeds the cap of {cap} (set PISU_MAX_QUBITS to raise it)")


@dataclass(frozen=True)
class PauliString:
    """One tensor product of Pauli letters with a complex coefficient.

    ``n`` and the masks are any integers, stored as ``int``s; a coefficient
    that is not a number (a bool included) is a ``ValueError``.
    """

    n: int
    x: int
    z: int
    coeff: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "n must be an integer"))
        if self.n < 1:
            raise ValueError("a Pauli string needs at least one qubit")
        if type(self.x) is not int or type(self.z) is not int:
            object.__setattr__(self, "x", _integer(self.x, "x must be an integer"))
            object.__setattr__(self, "z", _integer(self.z, "z must be an integer"))
        if type(self.coeff) is not complex:
            _number(self.coeff, "coeff must be a number")
        if (self.x | self.z) >> self.n:
            raise ValueError("x/z bits fall outside the qubit range")

    @classmethod
    def from_letters(cls, letters: Iterable[str], coeff: complex = 1.0 + 0j) -> "PauliString":
        """Build from a letter sequence such as ``"XYI"`` (index 0 = qubit 1)."""
        letters = list(letters)
        unknown = [letter for letter in letters if letter not in _LETTER_BITS]
        if unknown:
            raise ValueError(f"unknown Pauli letter {unknown[0]!r}")
        x, z = (sum(_LETTER_BITS[letter][b] << q for q, letter in enumerate(letters)) for b in (0, 1))
        return cls(len(letters), x, z, complex(coeff))

    @property
    def letters(self) -> str:
        """Dense letter word, e.g. ``"XYI"``; index 0 is qubit 1."""
        return _word(self.n, self.x, self.z)

    def letter(self, qubit: int) -> str:
        """Letter acting on the given 1-based qubit."""
        qubit = _integer(qubit, "qubit must be an integer")
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit index {qubit} out of range 1..{self.n}")
        return _word(1, self.x >> qubit - 1, self.z >> qubit - 1)

    def support(self) -> tuple[int, ...]:
        """1-based qubits carrying a non-identity letter."""
        occ = self.x | self.z
        return tuple(q + 1 for q in range(self.n) if (occ >> q) & 1)

    def __repr__(self) -> str:
        return f"PauliString({self.coeff:+g}, {self.letters!r})"


def _word(n: int, x: int, z: int) -> str:
    """The letter word of masks ``x``, ``z`` on n qubits, qubit 1 first; it sorts in I < X < Y < Z order."""
    return "".join(_LETTERS[(x >> q & 1) + 2 * (z >> q & 1)] for q in range(n))


def _product(ax: int, az: int, bx: int, bz: int) -> tuple[int, int, int]:
    """Masks and i-power mod 4 of the product of strings (ax, az) and (bx, bz), coefficients 1.

    The string (x, z) is ``i^{#Y}`` times its X part times its Z part, so
    moving the Z part of a past the X part of b costs ``(-1)^{|az & bx|}``.
    """
    x, z = ax ^ bx, az ^ bz
    k = (ax & az).bit_count() + (bx & bz).bit_count() + 2 * (az & bx).bit_count() - (x & z).bit_count()
    return x, z, k % 4


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact Pauli-group product: the matrix of ``a`` times that of ``b``, the i-power in the coefficient."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    x, z, k = _product(a.x, a.z, b.x, b.z)
    return PauliString(a.n, x, z, a.coeff * b.coeff * _I_POW[k])


@dataclass(frozen=True)
class PauliSum:
    """Formal complex-linear combination of Pauli strings over n >= 1 qubits, ``n`` stored as an ``int``.

    ``terms`` maps (x, z) pairs of integer masks, stored as ``int``s, to numbers (not bools) as a
    read-only mapping; any other key or value is a ``ValueError``.  The constructor keeps every
    term it is given; ``from_strings`` and ``commutator`` drop coefficients below ``PRUNE_EPS``.
    Sums are immutable and hashable.
    """

    n: int
    terms: Mapping[tuple[int, int], complex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "n must be an integer"))
        if self.n < 1:
            raise ValueError("a Pauli sum needs at least one qubit")
        terms = dict(self.terms)
        if not all(type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int
                   and type(c) is complex for key, c in terms.items()):
            terms = {_pair(key): _number(c, "terms values must be numbers") for key, c in terms.items()}
        if any((x | z) >> self.n for x, z in terms):
            raise ValueError("x/z bits fall outside the qubit range")
        object.__setattr__(self, "terms", MappingProxyType(terms))

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __reduce__(self):
        # a mappingproxy cannot be pickled; rebuild from a plain dict
        return (PauliSum, (self.n, dict(self.terms)))

    @classmethod
    def from_strings(cls, strings: Iterable[PauliString]) -> "PauliSum":
        strings = list(strings)
        if not strings:
            raise ValueError("cannot infer qubit count from an empty iterable")
        n, acc = strings[0].n, {}
        for s in strings:
            if s.n != n:
                raise ValueError(f"qubit counts differ: {s.n} != {n}")
            acc[s.x, s.z] = acc.get((s.x, s.z), 0j) + s.coeff
        return cls(n, _pruned(acc))

    def strings(self) -> Iterator[PauliString]:
        """Terms as PauliStrings, sorted by letter word for determinism."""
        return (PauliString(self.n, x, z, coeff) for (x, z), coeff in self._sorted_terms())

    def _sorted_terms(self) -> list:
        """``terms`` items in ``strings()`` order: by letter word."""
        return sorted(self.terms.items(), key=lambda item: _word(self.n, *item[0]))

    def num_terms(self) -> int:
        return len(self.terms)

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n realization: the sum of coeff times the Kronecker product of letters.

        Terms are added in ``strings()`` order, so every entry equals the
        Kronecker sum's bit for bit.  Held to the qubit cap.
        """
        n = self.n
        check_qubit_cap(n)
        items = self._sorted_terms()
        masks = np.array([key for key, _ in items], dtype=np.int64).reshape(-1, 2, 1)
        flips = (masks >> np.arange(n) & 1) @ (1 << np.arange(n - 1, -1, -1))  # bit q-1 -> index bit n-q
        dim = 2**n
        out = np.zeros(dim * dim, dtype=complex)
        cols = np.arange(dim)
        for (row, sign), ((x, z), coeff) in zip(flips.tolist(), items):
            signs = 1.0 - 2.0 * (np.bitwise_count(cols & sign) & 1)
            # flat indices gather faster than (row, column) pairs
            out[(row ^ cols) * dim + cols] += coeff * _I_POW[(x & z).bit_count() % 4] * signs
        return out.reshape(dim, dim)


def _pair(key) -> tuple[int, int]:
    """A ``PauliSum`` key as a pair of ``int`` masks."""
    if not (isinstance(key, tuple) and len(key) == 2):
        raise ValueError(f"terms keys must be (x, z) pairs, got {key!r}")
    return _integer(key[0], "x must be an integer"), _integer(key[1], "z must be an integer")


def _pruned(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if abs(v) >= PRUNE_EPS}


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Lie bracket ab - ba in canonical form.

    Term pairs that commute contribute nothing; anticommuting pairs
    contribute 2ab, so each surviving pair costs one mask product.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    acc: dict[tuple[int, int], complex] = {}
    for (ax, az), ac in a.terms.items():
        for (bx, bz), bc in b.terms.items():
            if ((ax & bz).bit_count() + (az & bx).bit_count()) % 2 == 0:
                continue
            x, z, k = _product(ax, az, bx, bz)
            acc[x, z] = acc.get((x, z), 0j) + 2 * (ac * bc * _I_POW[k])
    return PauliSum(a.n, _pruned(acc))
