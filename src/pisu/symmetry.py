"""SWAP-group machinery and the symmetrized Pauli-string basis.

The basis of the permutation-invariant subalgebra has one element per type
vector (letter-count signature); each element is the sum of all distinct
letter arrangements of that type, its orbit.

Orbits.  A generator builds its orbit once, as a read-only ``(S, n)`` uint8
array of letter codes X=0, Y=1, Z=2, I=3 (``_LETTERS``): X, Y and Z in turn
are placed on every combination of each row's still-free positions, and one
sort puts the rows in lexicographic X < Y < Z < I order.  The generator
caches one pair of (x, z) mask arrays taken from it, which ``orbit``,
``as_sum`` and ``matrix()`` all read; only ``orbit`` builds ``PauliString``
objects.

Closure.  A bracket lies in the basis span iff its coefficients are
constant on each basis orbit and zero off them, as distinct Pauli strings
are trace-orthogonal.  Its coefficients are ``2i`` times integer counts, one
per product string, keyed ``x << n | z``; every orbit string's masks come
from one enumeration of the 4^n keys, grouped by type.  Each generator is
bracketed against windows of later orbits, as many as fit ``_PIECE`` count
bins (at least one).  A window's bins are allocated once, and its grid of
term pairs is cut into pieces of at most ``_PIECE`` pairs, which work in
three reused buffers and add the signs of their anticommuting products into
the bins by one unbuffered ``np.add.at``.  So no temporary grows with the
largest orbit squared; what grows with n is the key enumeration, the masks
of all 4^n - 1 orbit strings and one window's 4^n bins per generator.  The
constancy test of a window is one gather and one comparison: each key's
count must equal the count at its orbit's lead (first) key.  A key of no
basis type takes the identity key 0 as its lead, which no bracket reaches,
as distinct strings never multiply to I; one more test, that column 0
counts zero, keeps hand-made windows, which can hold a count at the
identity key, exact.  Only a bracket that fails gets its squared residual,
``4 sum d^2`` less ``4 (sum d)^2 / s`` per basis orbit of size ``s``, in
Python ints and ``Fraction``.  Each orbit adds 0 or at least ``4 / M`` (M
the largest orbit), so a nonzero residual is at least ``2 / sqrt(M)``.

Invariance defects.  ``max |S U S^dag - U|`` for a qubit permutation S
needs no product: every entry of ``S U S^dag`` is one product ``1 * u`` plus
exact zeros, so moving entries of ``u`` gives the same float.  One kernel
compares the ``(2,)*2n`` view of ``u`` with its row and column axes
transposed by the permutation, ``2**_SLICE_BITS`` entries at a time.
``permutation_defect`` is given the permutation; ``invariance_defect`` reads
it off the rows of S's single-qubit basis states, confirms S exactly against
``_index_map``'s ones (which also place ``swap_matrix``'s), and multiplies
out any other S.  ``swap_invariance_defect`` views ``u`` as ``(2^(i-1), 2,
2^(j-i-1), 2, 2^(n-j))`` for rows and again for columns: the SWAP of i < j
maps the sub-block of bits ``(r_i, r_j, c_i, c_j)`` onto ``(r_j, r_i, c_j,
c_i)``, the 4 blocks with ``r_i == r_j`` and ``c_i == c_j`` are fixed, and
the other 12 form 6 pairs whose differences are exact negatives, so 6/16 of
the view's differences hold every nonzero magnitude.  All three scan for
non-finite entries a slice at a time, so no temporary holds all of ``u``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .pauli import _I_POW, PauliString, PauliSum, _check_tolerance, _dense_sum, _integer, check_qubit_cap


def transpositions(n: int) -> tuple[tuple[int, int], ...]:
    """All 1-based qubit index pairs (i, j) with i < j; they generate S_n."""
    n = _integer(n, "n must be an integer")
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def swap_matrix(i: int, j: int, n: int) -> np.ndarray:
    """Permutation matrix exchanging tensor factors i and j (1-based).

    ``i == j`` returns the identity.  Qubit 1 is the most significant bit
    of the basis-state index, matching the dense Kronecker convention.
    """
    i, j, n = (_integer(v, name + " must be an integer") for v, name in zip((i, j, n), "ijn"))
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"qubit indices ({i}, {j}) out of range 1..{n}")
    check_qubit_cap(n)
    perm = list(range(n))
    perm[i - 1], perm[j - 1] = j - 1, i - 1
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[np.arange(2**n), _index_map(perm)] = 1.0
    return out


def _index_map(perm: Sequence[int]) -> np.ndarray:
    """The ``p`` with ``P[r, p[r]] = 1`` for the P that moves tensor factor ``perm[k]`` to position k."""
    return np.arange(2 ** len(perm)).reshape((2,) * len(perm)).transpose(perm).ravel()


@dataclass(frozen=True)
class TypeVector:
    """Letter-count signature (n_x, n_y, n_z, n_i) of a symmetrized generator.

    The counts are any integers, stored as ``int``s; anything else, a
    negative count and an all-zero vector are each a ``ValueError``.
    """

    n_x: int
    n_y: int
    n_z: int
    n_i: int

    def __post_init__(self) -> None:
        for name in ("n_x", "n_y", "n_z", "n_i"):
            object.__setattr__(self, name, _integer(getattr(self, name), name + " must be an integer"))
        counts = (self.n_x, self.n_y, self.n_z, self.n_i)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative letter count in {counts}")
        if sum(counts) < 1:
            raise ValueError("type vector must cover at least one qubit")

    @property
    def n(self) -> int:
        return self.n_x + self.n_y + self.n_z + self.n_i

    @property
    def is_identity(self) -> bool:
        return self.n_i == self.n

    @property
    def label(self) -> str:
        """Canonical name: the sorted letter word, e.g. ``"XYI"``."""
        return "X" * self.n_x + "Y" * self.n_y + "Z" * self.n_z + "I" * self.n_i

    def orbit_size(self) -> int:
        """Multinomial count of distinct letter arrangements."""
        return math.factorial(self.n) // (
            math.factorial(self.n_x)
            * math.factorial(self.n_y)
            * math.factorial(self.n_z)
            * math.factorial(self.n_i)
        )

    def distinct_letters(self) -> int:
        """How many of X, Y, Z appear at least once."""
        return sum(1 for c in (self.n_x, self.n_y, self.n_z) if c > 0)


_LETTERS = "XYZI"  # code k of an orbit letter array is the letter _LETTERS[k]


@dataclass(frozen=True, eq=False)
class SymmetrizedGenerator:
    """One basis element: a type vector plus its expanded permutation orbit.

    The orbit is expanded lazily and cached; ``orbit_size()`` is available
    without expansion.  Fields are read-only; instances compare by identity.
    A ``label`` that is not the type vector's label is a ``ValueError``.
    """

    type_vector: TypeVector
    label: str

    def __post_init__(self) -> None:
        if self.label != self.type_vector.label:
            raise ValueError(f"label {self.label!r} is not the type's label {self.type_vector.label!r}")

    @property
    def n(self) -> int:
        return self.type_vector.n

    @cached_property
    def _letters(self) -> np.ndarray:
        """The orbit as a read-only ``(S, n)`` uint8 array of letter codes (``_LETTERS``).

        Rows ascend as base-4 numbers with qubit 1 the most significant
        digit, which is lexicographic order in X < Y < Z < I.
        """
        tv = self.type_vector
        words = np.full((1, tv.n), 3, dtype=np.uint8)
        for code, count in enumerate((tv.n_x, tv.n_y, tv.n_z)):
            if count:
                free = (words == 3).nonzero()[1].reshape(len(words), -1)  # each row's, ascending
                combos = np.array(list(itertools.combinations(range(free.shape[1]), count)))
                words = words.repeat(len(combos), axis=0)
                words[np.arange(len(words))[:, None], free[:, combos].reshape(len(words), count)] = code
        words = words[np.lexsort(words.T[::-1])]  # the last key, column 0, sorts first
        words.flags.writeable = False
        return words

    @cached_property
    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Each orbit string's (x, z) masks in ``PauliString`` bit order, rows as in ``_letters``."""
        letters, n = self._letters, self.n
        weights = np.array([1 << q for q in range(n)], dtype=np.int64 if n < 63 else object)
        return (letters < 2) @ weights, ((letters == 1) | (letters == 2)) @ weights  # X or Y; Y or Z

    @cached_property
    def orbit(self) -> tuple[PauliString, ...]:
        """The orbit strings, coefficient 1, in the row order of ``_letters``."""
        x, z = self._masks
        return tuple(PauliString(self.n, xk, zk) for xk, zk in zip(x.tolist(), z.tolist()))

    def orbit_size(self) -> int:
        return self.type_vector.orbit_size()

    @cached_property
    def as_sum(self) -> PauliSum:
        """The orbit sum, every coefficient 1, with its terms in the order of ``orbit``."""
        x, z = self._masks
        return PauliSum(self.n, dict.fromkeys(zip(x.tolist(), z.tolist()), 1.0 + 0j))

    def matrix(self) -> np.ndarray:
        """The dense orbit sum, bit for bit ``as_sum.matrix()``; held to the qubit cap.

        The entries are exact integer sums whose zeros are +0.0, so the
        orbit's term order gives the bits of ``strings()`` order.
        """
        check_qubit_cap(self.n)  # before the orbit is expanded
        x, z = self._masks
        return _dense_sum(self.n, x, z, [_I_POW[self.type_vector.n_y % 4]] * len(x))

    def __repr__(self) -> str:
        return f"SymmetrizedGenerator({self.label!r})"


def type_vectors(n: int) -> Iterator[TypeVector]:
    """All non-identity type vectors, descending lexicographic on (n_x, n_y, n_z), one at a time.

    For two qubits this yields XX, XY, XZ, XI, YY, YZ, YI, ZZ, ZI.
    """
    for n_x in range(n, -1, -1):
        for n_y in range(n - n_x, -1, -1):
            for n_z in range(n - n_x - n_y, -1, -1):
                tv = TypeVector(n_x, n_y, n_z, n - n_x - n_y - n_z)
                if not tv.is_identity:
                    yield tv


def enumerate_basis(n: int) -> list[SymmetrizedGenerator]:
    """The symmetrized-string basis of the permutation-invariant algebra; ``n`` is an integer >= 1."""
    n = _integer(n, "n must be an integer")
    if n < 1:
        raise ValueError("need at least one qubit")
    return [SymmetrizedGenerator(tv, tv.label) for tv in type_vectors(n)]


def dim_pisu(n: int) -> int:
    """Dimension formula (n+3)(n+2)(n+1)/6 - 1 for an integer ``n`` >= 1; equals the basis count."""
    n = _integer(n, "n must be an integer")
    if n < 1:
        raise ValueError("need at least one qubit")
    return (n + 3) * (n + 2) * (n + 1) // 6 - 1


def scaling_table(max_n: int) -> list[tuple[int, int, int]]:
    """Rows (n, invariant dimension, full su(2^n) dimension 4^n - 1)."""
    max_n = _integer(max_n, "max_n must be an integer")
    return [(n, dim_pisu(n), 4**n - 1) for n in range(1, max_n + 1)]


def _check_finite(**arrays: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first non-finite entry, in row-major order, of any 2-D argument.

    A NaN would otherwise read as invariant (``max(0.0, nan)`` is ``0.0``),
    and ``0 * inf`` inside a product is NaN where an index move keeps ``inf``.
    """
    for name, a in arrays.items():
        rows = max(1, (1 << _SLICE_BITS) // a.shape[1])
        for r in range(0, len(a), rows):
            finite = np.isfinite(a[r : r + rows])
            if not finite.all():
                i, j = np.argwhere(~finite)[0] + (r, 0)  # argwhere is row-major
                raise ValueError(f"{name} has a non-finite entry {a[i, j].item()!r} at {(int(i), int(j))}")


_SLICE_BITS = 18  # the defects and their finiteness scans take 2^18 entries at a time: one slice up to n = 9


def _qubit_permutation_of(s: np.ndarray) -> list[int] | None:
    """The ``perm`` whose ``permutation_defect`` matrix is exactly ``s``, else None."""
    n = (len(s) - 1).bit_length()
    if len(s) != 1 << n:
        return None
    # P sends qubit k+1's basis state, row 2^(n-1-k), to column 2^(n-1-perm[k])
    perm = [n - int(np.argmax(s[1 << (n - 1 - k)] != 0)).bit_length() for k in range(n)]
    if sorted(perm) != list(range(n)) or np.count_nonzero(s) != len(s):
        return None
    return perm if (s[np.arange(len(s)), _index_map(perm)] == 1).all() else None


def _qubit_permutation_defect(u: np.ndarray, perm: Sequence[int], dtype) -> float:
    """max |P U P^dag - U| for the qubit permutation ``perm``, each difference in ``dtype``, for a finite ``u``."""
    n = len(perm)
    t = u.reshape((2,) * (2 * n))
    moved = t.transpose([*perm, *(n + k for k in perm)])  # a view
    slices = itertools.product((0, 1), repeat=max(0, 2 * n - _SLICE_BITS))
    return max(float(np.abs(np.subtract(moved[b], t[b], dtype=dtype)).max()) for b in slices)


def invariance_defect(u: np.ndarray, s: np.ndarray) -> float:
    """max |S U S^dag - U|: zero iff U commutes with the unitary S.

    Equal to the float of the two matrix products exactly.  Arrays that are
    not square of one shape, and a non-finite entry of either, are each a
    ``ValueError``.
    """
    if u.ndim != 2 or u.shape != s.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"u and s must be square matrices of one shape, got {u.shape} and {s.shape}")
    _check_finite(u=u, s=s)
    perm = _qubit_permutation_of(s)
    if perm is None:
        return float(np.abs(s @ u @ s.conj().T - u).max())
    return _qubit_permutation_defect(u, perm, np.result_type(u, s))  # in the products' dtype


def permutation_defect(u: np.ndarray, perm: Sequence[int]) -> float:
    """max |P U P^dag - U| for the qubit permutation P given by ``perm``.

    ``perm`` lists 0-based qubit indices, a permutation of ``range(n)``; P
    moves tensor factor ``perm[k]`` to position ``k``.  Equal to
    ``invariance_defect(u, P)`` exactly.  A ``u`` that is not ``(2^n, 2^n)``,
    a ``perm`` that is not a permutation and a non-finite entry are each a
    ``ValueError``.
    """
    perm = [_integer(k, "perm entries must be integers", perm) for k in perm]
    n = len(perm)
    if u.shape != (2**n, 2**n):
        raise ValueError(f"matrix shape {u.shape} does not match n={n}")
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of range({n})")
    _check_finite(u=u)
    return _qubit_permutation_defect(u, perm, u.dtype)


# (r_i, r_j, c_i, c_j) bit values of one SWAP-moved sub-block per +- pair
_MOVED_BLOCKS = [k for k in itertools.product((0, 1), repeat=4) if k < (k[1], k[0], k[3], k[2])]


def _transposition_defect(u: np.ndarray, n: int, i: int, j: int) -> float:
    """``permutation_defect`` of the SWAP of qubits i < j (1-based), exactly, for a finite ``u``."""
    shape = (2 ** (i - 1), 2, 2 ** (j - i - 1), 2, 2 ** (n - j))
    t = u.reshape(shape + shape)
    everything = slice(None)
    worst = 0.0
    for ri, rj, ci, cj in _MOVED_BLOCKS:
        a = t[everything, ri, everything, rj, everything, everything, ci, everything, cj]
        b = t[everything, rj, everything, ri, everything, everything, cj, everything, ci]
        worst = max(worst, float(np.abs(a - b).max()))
    return worst


def swap_invariance_defect(u: np.ndarray, n: int) -> float:
    """Worst conjugation defect over all transposition SWAPs.

    Equal to the largest ``permutation_defect`` over the transpositions
    exactly.  A ``u`` that is not ``(2^n, 2^n)`` and a non-finite entry are
    each a ``ValueError``.
    """
    n = _integer(n, "n must be an integer")
    if u.shape != (2**n, 2**n):
        raise ValueError(f"matrix shape {u.shape} does not match n={n}")
    _check_finite(u=u)
    return max((_transposition_defect(u, n, i, j) for i, j in transpositions(n)), default=0.0)


def _type_of(n: int, x: int, z: int) -> TypeVector:
    n_y = (x & z).bit_count()
    n_x = x.bit_count() - n_y
    n_z = z.bit_count() - n_y
    return TypeVector(n_x, n_y, n_z, n - n_x - n_y - n_z)


def project_onto_basis(
    v: PauliSum, basis: Sequence[SymmetrizedGenerator]
) -> tuple[list[complex], float]:
    """Exact projection onto symmetrized generators via trace orthogonality.

    Each generator coefficient is the mean of ``v``'s coefficients over the
    generator's orbit (absent orbit members count as zero); the residual is
    the l2 norm of ``v`` minus the reconstruction.  A nonzero residual means
    ``v`` does not lie in the symmetrized span.
    """
    if basis and v.n != basis[0].n:
        raise ValueError(f"qubit counts differ: {v.n} != {basis[0].n}")
    by_type: dict[TypeVector, list[complex]] = {}
    for (x, z), coeff in v.terms.items():
        by_type.setdefault(_type_of(v.n, x, z), []).append(coeff)

    basis_types = set()
    coeffs: list[complex] = []
    residual_sq = 0.0
    for gen in basis:
        tv = gen.type_vector
        basis_types.add(tv)
        present = by_type.get(tv, [])
        size = tv.orbit_size()
        c = sum(present) / size if present else 0j
        coeffs.append(c)
        residual_sq += sum(abs(value - c) ** 2 for value in present)
        residual_sq += (size - len(present)) * abs(c) ** 2
    # terms of v whose type has no basis element (e.g. an identity component)
    for tv, values in by_type.items():
        if tv not in basis_types:
            residual_sq += sum(abs(value) ** 2 for value in values)
    return coeffs, float(math.sqrt(residual_sq))


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of exhaustive pairwise-bracket verification."""

    n: int
    pairs: int
    max_residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pairs": self.pairs,
            "max_residual": self.max_residual,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def verify_closure(n: int, tol: float = 1e-12) -> ClosureReport:
    """Check that every pairwise commutator of the ``n``-qubit basis lies in its span.

    Exact: the worst projection residual is computed in rational
    arithmetic, so a closed algebra reports exactly 0.0 and a nonzero
    residual is at least ``2 / sqrt(M)`` (M the largest orbit); any positive
    ``tol`` below that gives the exact verdict.  ``n`` is any integer, stored
    as an ``int``, and ``tol`` a real number, finite and > 0, not a bool;
    anything else is a ``ValueError`` before any work.  Working memory grows
    as 4^n, so ``n`` is held to the qubit cap (``QubitLimitError``).
    """
    n = _integer(n, "n must be an int")
    _check_tolerance(tol)
    check_qubit_cap(n)
    pairs, worst = _closure_residual(n, enumerate_basis(n))
    return ClosureReport(n=n, pairs=pairs, max_residual=worst, passed=bool(worst < tol))


_PIECE = 1 << 16  # term pairs per counted piece, and bins per window unless one generator has more
_SIGN = np.tile([0.0, 1.0, 0.0, -1.0], 64)  # i^k / i for odd k < 256 (a uint8); even k (commuting) is 0


def _type_codes(n: int, basis: Sequence[SymmetrizedGenerator]) -> tuple[np.ndarray, list[int]]:
    """Type codes of all 4^n keys ``x << n | z``, from one enumeration, and of each generator."""
    side = n + 1
    x, z = np.indices((1 << n, 1 << n)).reshape(2, -1)
    n_y = np.bitwise_count(x & z).astype(np.int64)
    n_x, n_z = np.bitwise_count(x) - n_y, np.bitwise_count(z) - n_y
    tvs = [gen.type_vector for gen in basis]
    return (n_x * side + n_y) * side + n_z, [(tv.n_x * side + tv.n_y) * side + tv.n_z for tv in tvs]


def _bracket_counts(
    n: int, basis: Sequence[SymmetrizedGenerator], codes: np.ndarray, basis_codes: list[int]
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Brackets of every generator with all later ones, as signed counts per product string.

    ``codes, basis_codes`` are ``_type_codes(n, basis)``.  Yields
    ``(a, b0, d)``, one per window: the bracket of ``basis[a]`` with
    ``basis[b0 + j]`` is ``sum 2i * d[j, key] * P_key`` over keys
    ``x << n | z``.  ``d`` holds exact integers, and an orbit's strings are
    the keys of its type, ascending.
    """
    keys = 1 << 2 * n
    key = np.concatenate([np.flatnonzero(codes == code) for code in basis_codes])
    x, z = key >> n, key & (1 << n) - 1
    n_y = np.bitwise_count(x & z)
    sizes = [gen.orbit_size() for gen in basis]
    ends = list(itertools.accumulate(sizes))
    offset = np.repeat(np.arange(len(basis)) * keys, sizes)  # first bin of each string's generator
    width = max(1, _PIECE // keys)
    # a piece's int64 and float arrays live in these buffers (its other temporaries are uint8),
    # so no piece allocates bins and page faults do not hang on glibc's thresholds
    p_buf, t_buf = np.empty((2, _PIECE), dtype=np.int64)
    w_buf = np.empty(_PIECE)
    for a, end in enumerate(ends):
        for b0 in range(a + 1, len(basis), width):
            b1 = min(b0 + width, len(basis))
            c0, c1 = ends[b0 - 1], ends[b1 - 1]
            cols = min(c1 - c0, _PIECE)
            rows = _PIECE // cols
            bins = offset[c0:c1] - b0 * keys  # each column's first bin in d
            d = np.zeros((b1 - b0) * keys)
            for r in range(end - sizes[a], end, rows):
                rs = slice(r, min(r + rows, end))
                ka, za, ya = key[rs, None], z[rs, None], n_y[rs, None]
                for c in range(c0, c1, cols):
                    cs = slice(c, min(c + cols, c1))
                    shape = (rs.stop - rs.start, cs.stop - cs.start)
                    p, t, w = (b[: shape[0] * shape[1]].reshape(shape) for b in (p_buf, t_buf, w_buf))
                    # the product's i-power mod 4 (uint8 wraps at 256, a multiple of 4)
                    k = ya + n_y[cs] + 2 * np.bitwise_count(np.bitwise_and(za, x[cs], out=t))
                    np.bitwise_xor(ka, key[cs], out=p)
                    k -= np.bitwise_count(np.bitwise_and(p, np.right_shift(p, n, out=t), out=t))
                    p += bins[c - c0 : cs.stop - c0]  # product key -> bin in d
                    np.copyto(t, k)  # as intp in a buffer: np.take would allocate the cast
                    np.add.at(d, p.ravel(), np.take(_SIGN, t, out=w, mode="wrap").ravel())
            yield a, b0, d.reshape(b1 - b0, keys)


def _closure_residual(n: int, basis: Sequence[SymmetrizedGenerator]) -> tuple[int, float]:
    """Pair count and worst projection residual over all pairwise brackets of ``basis``.

    Equal to looping ``commutator`` and ``project_onto_basis`` over the
    pairs, with the residual computed exactly before its square root.
    """
    codes, basis_codes = _type_codes(n, basis)
    _, first, type_of_key = np.unique(codes, return_index=True, return_inverse=True)
    # the first key of each key's type; a key of no basis type must count 0, as the identity key 0 does
    lead = np.where(np.isin(codes, basis_codes), first[type_of_key], 0)
    size = {code: gen.orbit_size() for code, gen in zip(basis_codes, basis)}
    worst = Fraction(0)
    for _, _, d in _bracket_counts(n, basis, codes, basis_codes):
        for row in d[(np.take(d, lead, axis=1) != d).any(axis=1) | (d[:, 0] != 0)]:
            nonzero = np.flatnonzero(row)
            counts = row[nonzero].astype(np.int64).tolist()
            total: dict[int, int] = {}  # sum d per type
            for code, c in zip(codes[nonzero].tolist(), counts):
                total[code] = total.get(code, 0) + c
            projected = sum(Fraction(4 * t * t, size[code]) for code, t in total.items() if code in size)
            worst = max(worst, 4 * sum(c * c for c in counts) - projected)
    return math.comb(len(basis), 2), math.sqrt(worst)
