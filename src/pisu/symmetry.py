"""SWAP-group machinery and the symmetrized Pauli-string basis.

The basis of the permutation-invariant subalgebra has one element per type
vector (letter-count signature); each element is the symmetric sum over all
distinct letter arrangements of that type.  A pairwise commutator lies in
the basis span iff its coefficients are constant on each basis orbit and zero
off them, as distinct Pauli strings are trace-orthogonal; closure is checked
that way in integer arithmetic on (x, z) mask arrays: bracket coefficients
are Gaussian integers and each squared residual is a rational, so a closed
algebra reports a residual of exactly zero.  Invariance of a dense unitary
under a permutation is measured by moving or comparing its entries (axes of
its ``(2,)*2n`` tensor, slices of it, or an index gather), which gives the
same float as conjugating by the permutation matrix.
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

from .pauli import _I_POW, PauliString, PauliSum, _dense_sum, check_qubit_cap


def transpositions(n: int) -> tuple[tuple[int, int], ...]:
    """All 1-based qubit index pairs (i, j) with i < j; they generate S_n."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def swap_matrix(i: int, j: int, n: int) -> np.ndarray:
    """Permutation matrix exchanging tensor factors i and j (1-based).

    ``i == j`` returns the identity.  Qubit 1 is the most significant bit
    of the basis-state index, matching the dense Kronecker convention.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"qubit indices ({i}, {j}) out of range 1..{n}")
    check_qubit_cap(n)
    dim = 2**n
    if i == j:
        return np.eye(dim, dtype=complex)
    bi = n - i  # bit positions within the state index
    bj = n - j
    idx = np.arange(dim)
    vi = (idx >> bi) & 1
    vj = (idx >> bj) & 1
    swapped = idx ^ (((vi ^ vj) << bi) | ((vi ^ vj) << bj))
    out = np.zeros((dim, dim), dtype=complex)
    out[swapped, idx] = 1.0
    return out


@dataclass(frozen=True)
class TypeVector:
    """Letter-count signature (n_x, n_y, n_z, n_i) of a symmetrized generator."""

    n_x: int
    n_y: int
    n_z: int
    n_i: int

    def __post_init__(self) -> None:
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
        digit, which is lexicographic order in X < Y < Z < I.  X, Y and Z in
        turn are placed on every combination of each row's free (identity)
        positions, and one sort puts the rows in order.
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
        """The dense orbit sum, bit for bit ``as_sum.matrix()``, with no string objects.

        Each term's value is ``i^n_y``, and the entries are exact integer sums
        whose zeros are +0.0, so the orbit order gives the bits of ``strings()`` order.
        """
        check_qubit_cap(self.n)  # before the orbit is expanded
        x, z = self._masks
        return _dense_sum(self.n, x, z, [_I_POW[self.type_vector.n_y % 4]] * len(x))

    def __repr__(self) -> str:
        return f"SymmetrizedGenerator({self.label!r})"


def type_vectors(n: int) -> list[TypeVector]:
    """All non-identity type vectors, descending lexicographic on (n_x, n_y, n_z).

    For two qubits this yields XX, XY, XZ, XI, YY, YZ, YI, ZZ, ZI.
    """
    out = []
    for n_x in range(n, -1, -1):
        for n_y in range(n - n_x, -1, -1):
            for n_z in range(n - n_x - n_y, -1, -1):
                tv = TypeVector(n_x, n_y, n_z, n - n_x - n_y - n_z)
                if not tv.is_identity:
                    out.append(tv)
    return out


def enumerate_basis(n: int) -> list[SymmetrizedGenerator]:
    """The symmetrized-string basis of the permutation-invariant algebra."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return [SymmetrizedGenerator(tv, tv.label) for tv in type_vectors(n)]


def dim_pisu(n: int) -> int:
    """Dimension formula (n+3)(n+2)(n+1)/6 - 1; equals the basis count."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return (n + 3) * (n + 2) * (n + 1) // 6 - 1


def scaling_table(max_n: int) -> list[tuple[int, int, int]]:
    """Rows (n, invariant dimension, full su(2^n) dimension 4^n - 1)."""
    return [(n, dim_pisu(n), 4**n - 1) for n in range(1, max_n + 1)]


def _check_finite(**arrays: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first non-finite entry of any 2-D argument.

    A NaN would otherwise read as invariant (``max(0.0, nan)`` is ``0.0``),
    and ``0 * inf`` inside a product is NaN where an index move keeps ``inf``.
    Rows are scanned a slice of at most ``2**_SLICE_BITS`` entries at a time,
    so no mask holds a whole argument; "first" is in row-major order.
    """
    for name, a in arrays.items():
        rows = max(1, (1 << _SLICE_BITS) // a.shape[1])
        for r in range(0, len(a), rows):
            finite = np.isfinite(a[r : r + rows])
            if not finite.all():
                i, j = np.argwhere(~finite)[0] + (r, 0)  # argwhere is row-major
                raise ValueError(f"{name} has a non-finite entry {a[i, j].item()!r} at {(int(i), int(j))}")


def _permutation_of(s: np.ndarray) -> np.ndarray | None:
    """Each row's column if ``s`` is a permutation matrix, else None.

    A permutation matrix has one nonzero per row and per column, each exactly 1.
    """
    dim = len(s)
    if np.count_nonzero(s) != dim:
        return None
    rows, cols = s.nonzero()  # row-major, so rows ascend
    if (s[rows, cols] != 1).any() or (np.bincount(rows, minlength=dim) != 1).any():
        return None
    if (np.bincount(cols, minlength=dim) != 1).any():
        return None
    return cols


_SLICE_BITS = 18  # the defects and their finiteness scans take 2^18 entries at a time: one slice up to n = 9


def invariance_defect(u: np.ndarray, s: np.ndarray) -> float:
    """max |S U S^dag - U|: zero iff U commutes with the unitary S.

    When ``s`` is a permutation matrix with ``s[r, p[r]] == 1``, this is
    ``max |u[p][:, p] - u|``: every entry of the two products is one product
    ``1 * u`` plus exact zeros, so moving entries gives the same float.  The
    rows are compared a slice of at most ``2**_SLICE_BITS`` entries at a time,
    so no temporary holds all of ``u``.  Any other ``s`` is multiplied out.
    Non-finite entries are a ``ValueError``.
    """
    if u.shape != s.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {s.shape}")
    _check_finite(u=u, s=s)
    p = _permutation_of(s)
    if p is None:
        return float(np.abs(s @ u @ s.conj().T - u).max())
    dtype = np.result_type(u, s)  # the products' dtype
    rows = max(1, (1 << _SLICE_BITS) // len(u))
    return max(
        float(np.abs(np.subtract(u[np.ix_(p[r : r + rows], p)], u[r : r + rows], dtype=dtype)).max())
        for r in range(0, len(u), rows)
    )


def permutation_defect(u: np.ndarray, perm: Sequence[int]) -> float:
    """max |P U P^dag - U| for the qubit permutation P given by ``perm``.

    ``perm`` lists 0-based qubit indices, a permutation of ``range(n)``; P
    moves tensor factor ``perm[k]`` to position ``k``.  Conjugating by a
    permutation matrix only moves entries, so P U P^dag is ``u`` with its
    ``(2,)*2n`` row and column axes transposed by ``perm``, and the result
    equals ``invariance_defect(u, P)`` exactly.  The two are compared a
    slice of at most ``2**_SLICE_BITS`` entries at a time, over the leading
    row axes, so no temporary holds all of ``u``.  Non-finite entries are a
    ``ValueError``.
    """
    n = len(perm)
    if u.shape != (2**n, 2**n):
        raise ValueError(f"matrix shape {u.shape} does not match n={n}")
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{list(perm)} is not a permutation of range({n})")
    _check_finite(u=u)
    t = u.reshape((2,) * (2 * n))
    moved = t.transpose([*perm, *(n + k for k in perm)])  # a view
    slices = itertools.product((0, 1), repeat=max(0, 2 * n - _SLICE_BITS))
    return max(float(np.abs(moved[b] - t[b]).max()) for b in slices)


# (r_i, r_j, c_i, c_j) bit values of one SWAP-moved sub-block per +- pair
_MOVED_BLOCKS = [k for k in itertools.product((0, 1), repeat=4) if k < (k[1], k[0], k[3], k[2])]


def _transposition_defect(u: np.ndarray, n: int, i: int, j: int) -> float:
    """``permutation_defect`` of the SWAP of qubits i < j (1-based), by slicing.

    With ``u`` viewed as ``(2^(i-1), 2, 2^(j-i-1), 2, 2^(n-j))`` for rows
    and again for columns, the SWAP maps the sub-block of bits
    ``(r_i, r_j, c_i, c_j)`` onto ``(r_j, r_i, c_j, c_i)``.  The 4 blocks
    with ``r_i == r_j`` and ``c_i == c_j`` are fixed (difference exactly 0);
    the other 12 form 6 pairs whose differences are exact negatives, so the
    6 differences below hold every nonzero magnitude of the full one.
    """
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

    Equals the largest ``permutation_defect`` over the transpositions
    exactly, and reads each SWAP-moved entry once without a transposed copy
    of ``u`` (see ``_transposition_defect``).  Non-finite entries are a
    ``ValueError``.
    """
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
    """Check that every pairwise commutator of the basis lies in its span.

    A bracket does iff its integer coefficients are constant on each basis
    orbit and zero off them; only a bracket that fails gets its projection
    residual, an exact rational.  So a closed algebra reports exactly zero,
    and a nonzero residual is at least ``2 / sqrt(M)`` (M the largest
    orbit): any positive ``tol`` below that gives the exact verdict.  Orbit
    masks come from one enumeration of the 4^n keys (no ``PauliString`` is
    built), and each generator meets all later orbits in pieces of at most
    2^14 term pairs; the keys and one window's 4^n count bins hold ``n`` to
    the qubit cap.
    """
    check_qubit_cap(n)
    pairs, worst = _closure_residual(n, enumerate_basis(n))
    return ClosureReport(n=n, pairs=pairs, max_residual=worst, passed=worst < tol)


_PIECE = 1 << 14  # term pairs per counted piece, and bins per window unless one generator has more
_SIGN = np.array([0.0, 1.0, 0.0, -1.0])  # i^k / i for odd k; even k (commuting) is 0


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
    ``(a, b0, d)``: the bracket of ``basis[a]`` with ``basis[b0 + j]``
    is ``sum 2i * d[j, key] * P_key`` over keys ``x << n | z``; ``d`` holds
    exact integers, and an orbit's strings are the keys of its type, ascending.
    The grid of ``a``'s orbit against a window of later orbits is cut into
    pieces of at most ``_PIECE`` term pairs, splitting rows and columns where
    one orbit is larger, and each piece is counted by one ``np.bincount``
    weighted by the sign of the product's i-power (odd on anticommuting pairs).
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
    # so only np.bincount allocates per piece and page faults do not hang on glibc's thresholds
    p_buf, t_buf = np.empty((2, _PIECE), dtype=np.int64)
    w_buf = np.empty(_PIECE)
    for a, end in enumerate(ends):
        for b0 in range(a + 1, len(basis), width):
            b1 = min(b0 + width, len(basis))
            c0, c1 = ends[b0 - 1], ends[b1 - 1]
            cols = min(c1 - c0, _PIECE)
            rows = _PIECE // cols
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
                    p += offset[cs]  # product key -> bin in d
                    p -= b0 * keys
                    d += np.bincount(p.ravel(), np.take(_SIGN, k & 3, out=w).ravel(), d.size)
            yield a, b0, d.reshape(b1 - b0, keys)


def _closure_residual(n: int, basis: Sequence[SymmetrizedGenerator]) -> tuple[int, float]:
    """Pair count and worst projection residual over all pairwise brackets of ``basis``.

    Equal to looping ``commutator`` and ``project_onto_basis`` over the
    pairs.  A bracket ``sum 2i * d[key] * P_key`` is in the span iff each
    key's count equals the count at its orbit's lead (first) key, or is 0
    for a key of no basis type; one comparison tests a whole window.  A row
    that fails gets its exact squared residual, ``4 sum d^2`` less
    ``4 (sum d)^2 / s`` per basis orbit of size ``s``, in Python ints.  Each
    orbit adds 0 or at least ``4 / M`` (M the largest orbit), so a nonzero
    residual is at least ``2 / sqrt(M)``.
    """
    codes, basis_codes = _type_codes(n, basis)
    _, first, type_of_key = np.unique(codes, return_index=True, return_inverse=True)
    lead = first[type_of_key]  # the first key of each key's type
    in_basis = np.isin(codes, basis_codes).astype(float)  # 0: the key's count must be 0
    size = {code: gen.orbit_size() for code, gen in zip(basis_codes, basis)}
    worst = Fraction(0)
    for _, _, d in _bracket_counts(n, basis, codes, basis_codes):
        for row in d[(np.take(d, lead, axis=1) * in_basis != d).any(axis=1)]:
            nonzero = np.flatnonzero(row)
            counts = row[nonzero].astype(np.int64).tolist()
            total: dict[int, int] = {}  # sum d per type
            for code, c in zip(codes[nonzero].tolist(), counts):
                total[code] = total.get(code, 0) + c
            projected = sum(Fraction(4 * t * t, size[code]) for code, t in total.items() if code in size)
            worst = max(worst, 4 * sum(c * c for c in counts) - projected)
    return math.comb(len(basis), 2), math.sqrt(worst)
