"""Exact algebra of Pauli strings and their dense matrix realizations.

A string over n qubits is stored as two bitmasks (x-bits, z-bits) with the
encoding (x, z) = (0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z, so that
multiplication and commutation checks are O(1) bit operations.  Group phases
are tracked as integer powers of i and folded into the complex coefficient
only when the product string is formed, which keeps sums of integer-weighted
strings exact.

One dense scatter realizes every Pauli sum and generator matrix: it
bit-reverses the terms' masks into basis-index order once, and term k adds
``values[k] * (-1)^{popcount(c & z[k])}`` at row ``c ^ x[k]`` of each column
``c``, term by term in the caller's order, where ``values[k]`` is the
coefficient times ``i^{#Y}``.

Convention used throughout the package: qubit 1 is the leftmost tensor
factor of the dense realization; bit q-1 of a mask belongs to qubit q.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import index
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

DEFAULT_MAX_QUBITS = 12
PRUNE_EPS = 1e-14

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}
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


def check_qubit_cap(n: int) -> None:
    """Raise ``QubitLimitError`` if ``n`` exceeds ``max_qubits()``."""
    cap = max_qubits()
    if n > cap:
        raise QubitLimitError(
            f"n={n} qubits exceeds the cap of {cap} (set PISU_MAX_QUBITS to raise it)"
        )


@dataclass(frozen=True)
class PauliString:
    """One tensor product of Pauli letters with a complex coefficient; ``n`` is any integer, stored as an ``int``."""

    n: int
    x: int
    z: int
    coeff: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "n must be an integer"))
        if self.n < 1:
            raise ValueError("a Pauli string needs at least one qubit")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits fall outside the qubit range")

    @classmethod
    def from_letters(cls, letters: Iterable[str], coeff: complex = 1.0 + 0j) -> "PauliString":
        """Build from a letter sequence such as ``"XYI"`` (index 0 = qubit 1)."""
        x = z = 0
        count = 0
        for q, letter in enumerate(letters):
            try:
                xb, zb = _LETTER_BITS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            x |= xb << q
            z |= zb << q
            count += 1
        return cls(count, x, z, complex(coeff))

    @property
    def letters(self) -> str:
        """Dense letter word, e.g. ``"XYI"``; index 0 is qubit 1."""
        return "".join(
            _BITS_LETTER[(self.x >> q) & 1, (self.z >> q) & 1] for q in range(self.n)
        )

    def letter(self, qubit: int) -> str:
        """Letter acting on the given 1-based qubit."""
        qubit = _integer(qubit, "qubit must be an integer")
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit index {qubit} out of range 1..{self.n}")
        q = qubit - 1
        return _BITS_LETTER[(self.x >> q) & 1, (self.z >> q) & 1]

    def support(self) -> tuple[int, ...]:
        """1-based qubits carrying a non-identity letter."""
        occ = self.x | self.z
        return tuple(q + 1 for q in range(self.n) if (occ >> q) & 1)

    def __repr__(self) -> str:
        return f"PauliString({self.coeff:+g}, {self.letters!r})"


def _y_count(x: int, z: int) -> int:
    return (x & z).bit_count()


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact Pauli-group product: the matrix of ``a`` times the matrix of ``b``.

    The i-power from reordering X against Z is computed as an integer
    exponent mod 4 and folded into the coefficient.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    x = a.x ^ b.x
    z = a.z ^ b.z
    k = (
        _y_count(a.x, a.z)
        + _y_count(b.x, b.z)
        + 2 * (a.z & b.x).bit_count()
        - _y_count(x, z)
    ) % 4
    return PauliString(a.n, x, z, a.coeff * b.coeff * _I_POW[k])


@dataclass(frozen=True)
class PauliSum:
    """Formal complex-linear combination of Pauli strings over n qubits.

    ``terms`` maps (x, z) bitmask pairs to coefficients as a read-only
    mapping.  Canonical form stores no coefficient of magnitude below the
    pruning epsilon.  Sums are immutable and hashable; ``commutator`` returns
    a new sum.
    """

    n: int
    terms: Mapping[tuple[int, int], complex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __reduce__(self):
        # a mappingproxy cannot be pickled; rebuild from a plain dict
        return (PauliSum, (self.n, dict(self.terms)))

    @classmethod
    def from_strings(cls, strings: Iterable[PauliString]) -> "PauliSum":
        n = None
        acc: dict[tuple[int, int], complex] = {}
        for s in strings:
            if n is None:
                n = s.n
            elif s.n != n:
                raise ValueError(f"qubit counts differ: {s.n} != {n}")
            key = (s.x, s.z)
            acc[key] = acc.get(key, 0j) + s.coeff
        if n is None:
            raise ValueError("cannot infer qubit count from an empty iterable")
        return cls(n, _pruned(acc))

    def strings(self) -> Iterator[PauliString]:
        """Terms as PauliStrings, sorted by letter word for determinism."""
        for (x, z), coeff in self._sorted_terms():
            yield PauliString(self.n, x, z, coeff)

    def _sorted_terms(self) -> list:
        """``terms`` items in ``strings()`` order, sorted straight from the masks.

        A qubit's letter I, X, Y, Z has the code ``2z + (x ^ z)`` = 0, 1, 2, 3,
        which sorts like the letter.  Reading a mask's bits with qubit 1 first
        as base-4 digits puts those codes side by side, so the word ``2 *
        spread(z) + spread(x ^ z)`` sorts like the letter word, for masks of
        any width.
        """
        n = self.n

        def word(item) -> int:
            x, z = item[0]
            return 2 * int(format(z, f"0{n}b")[::-1], 4) + int(format(x ^ z, f"0{n}b")[::-1], 4)

        return sorted(self.terms.items(), key=word)

    def num_terms(self) -> int:
        return len(self.terms)

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n realization: the sum of coeff times the Kronecker product of letters.

        Terms are added in ``strings()`` order, so every entry equals the
        Kronecker sum's bit for bit.
        """
        items = self._sorted_terms()
        values = [coeff * _I_POW[_y_count(x, z) % 4] for (x, z), coeff in items]
        return _dense_sum(self.n, [x for (x, _), _ in items], [z for (_, z), _ in items], values)


def _dense_sum(n: int, x, z, values) -> np.ndarray:
    """The dense 2^n x 2^n sum of Pauli terms, added one at a time in the order given.

    Term k has masks ``x[k]``, ``z[k]`` in ``PauliString`` bit order and the
    value ``values[k]``, its coefficient times ``i^{#Y}``.  Held to the qubit cap.
    """
    check_qubit_cap(n)
    dim = 2**n
    reverse = 1 << np.arange(n - 1, -1, -1)  # bit q-1 of a mask -> bit n-q of an index
    x, z = ((np.asarray(m, dtype=np.int64)[:, None] >> np.arange(n) & 1) @ reverse for m in (x, z))
    out = np.zeros(dim * dim, dtype=complex)
    cols = np.arange(dim)
    for xk, zk, value in zip(x.tolist(), z.tolist(), values):
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & zk) & 1)
        out[(cols ^ xk) * dim + cols] += value * signs  # flat indices gather faster than (row, column) pairs
    return out.reshape(dim, dim)


def _pruned(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if abs(v) >= PRUNE_EPS}


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Lie bracket ab - ba in canonical form.

    Term pairs that commute contribute nothing; anticommuting pairs
    contribute 2ab, so each surviving pair costs one string product.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    acc: dict[tuple[int, int], complex] = {}
    for (ax, az), ac in a.terms.items():
        sa = PauliString(a.n, ax, az, ac)
        for (bx, bz), bc in b.terms.items():
            if ((ax & bz).bit_count() + (az & bx).bit_count()) % 2 == 0:
                continue
            prod = multiply(sa, PauliString(b.n, bx, bz, bc))
            key = (prod.x, prod.z)
            acc[key] = acc.get(key, 0j) + 2 * prod.coeff
    return PauliSum(a.n, _pruned(acc))
