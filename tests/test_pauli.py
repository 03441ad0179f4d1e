"""Pauli string algebra: exact products, commutation, dense realizations."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisu import (
    PauliString,
    PauliSum,
    QubitLimitError,
    commutator,
    enumerate_basis,
    max_qubits,
    multiply,
    project_onto_basis,
)

import oracles
from oracles import commutes, letter_matrix, string_matrix


def test_letter_matrices():
    assert np.array_equal(letter_matrix("I"), np.eye(2))
    assert np.array_equal(letter_matrix("X"), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(letter_matrix("Y"), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(letter_matrix("Z"), np.array([[1, 0], [0, -1]]))


def test_letters_traceless_and_self_inverse():
    for letter in "XYZ":
        m = letter_matrix(letter)
        assert abs(np.trace(m)) == 0
        assert np.abs(m @ m - np.eye(2)).max() < 1e-15


def test_string_matrix_single_x():
    s = PauliString.from_letters("X")
    assert np.array_equal(string_matrix(s), np.array([[0, 1], [1, 0]]))


def test_string_matrix_xy_hand_expansion():
    # kron(X, Y) expanded by hand
    expected = np.array(
        [
            [0, 0, 0, -1j],
            [0, 0, 1j, 0],
            [0, -1j, 0, 0],
            [1j, 0, 0, 0],
        ]
    )
    assert np.abs(string_matrix(PauliString.from_letters("XY")) - expected).max() == 0


def test_string_matrix_identity_pair():
    assert np.array_equal(string_matrix(PauliString.from_letters("II")), np.eye(4))


def test_qubit_one_is_leftmost_factor():
    # X on qubit 1 of two must be kron(X, I), not kron(I, X)
    got = string_matrix(PauliString.from_letters("XI"))
    assert np.array_equal(got, np.kron(oracles.X, oracles.I2))


def test_string_matrix_respects_qubit_cap(monkeypatch):
    monkeypatch.setenv("PISU_MAX_QUBITS", "3")
    with pytest.raises(QubitLimitError, match=r"^n=4 qubits exceeds the cap of 3 \("):
        PauliSum.from_strings([PauliString.from_letters("XXXX")]).matrix()
    PauliSum.from_strings([PauliString.from_letters("XXX")]).matrix()  # at the cap is fine


def test_max_qubits_reads_the_environment_each_call(monkeypatch):
    monkeypatch.delenv("PISU_MAX_QUBITS", raising=False)
    assert max_qubits() == 12
    monkeypatch.setenv("PISU_MAX_QUBITS", "5")
    assert max_qubits() == 5
    monkeypatch.setenv("PISU_MAX_QUBITS", "14")
    assert max_qubits() == 14


@pytest.mark.parametrize("raw", ["abc", "", "2.5", "0", "-3"])
def test_max_qubits_rejects_malformed_values(monkeypatch, raw):
    monkeypatch.setenv("PISU_MAX_QUBITS", raw)
    with pytest.raises(ValueError, match=f"PISU_MAX_QUBITS must be a positive integer, got {raw!r}"):
        max_qubits()
    with pytest.raises(ValueError, match="PISU_MAX_QUBITS"):
        PauliSum.from_strings([PauliString.from_letters("X")]).matrix()


def test_multiply_single_qubit_identities():
    x = PauliString.from_letters("X")
    y = PauliString.from_letters("Y")
    z = PauliString.from_letters("Z")
    assert multiply(x, y) == PauliString.from_letters("Z", 1j)
    assert multiply(y, x) == PauliString.from_letters("Z", -1j)
    assert multiply(z, x) == PauliString.from_letters("Y", 1j)
    assert multiply(y, z) == PauliString.from_letters("X", 1j)


def test_multiply_disjoint_supports():
    a = PauliString.from_letters("XI")
    b = PauliString.from_letters("IY")
    assert multiply(a, b) == PauliString.from_letters("XY", 1)
    assert multiply(b, a) == PauliString.from_letters("XY", 1)


def test_multiply_all_single_qubit_pairs_match_matrices():
    for la in "IXYZ":
        for lb in "IXYZ":
            a = PauliString.from_letters(la)
            b = PauliString.from_letters(lb)
            got = string_matrix(multiply(a, b))
            want = string_matrix(a) @ string_matrix(b)
            assert np.abs(got - want).max() < 1e-15, (la, lb)


def test_multiply_matches_matrices_random():
    rng = np.random.default_rng(7)
    coeffs = [1, -1, 1j, -1j, 0.5 + 0.25j]
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = _random_string(rng, n, coeffs)
        b = _random_string(rng, n, coeffs)
        got = string_matrix(multiply(a, b))
        want = string_matrix(a) @ string_matrix(b)
        assert np.abs(got - want).max() < 1e-12


def _random_string(rng, n, coeffs=(1,)):
    word = "".join(rng.choice(list("IXYZ"), size=n))
    return PauliString.from_letters(word, coeffs[int(rng.integers(len(coeffs)))])


def test_multiply_mismatched_lengths():
    with pytest.raises(ValueError):
        multiply(PauliString.from_letters("X"), PauliString.from_letters("XX"))


def test_strings_involutory_up_to_phase():
    rng = np.random.default_rng(11)
    for coeff in (1, -1, 1j, -1j):
        s = _random_string(rng, 3)
        s = PauliString(s.n, s.x, s.z, coeff)
        m = string_matrix(s)
        assert np.abs(m @ m - coeff**2 * np.eye(8)).max() < 1e-14


def test_commutes_examples():
    xx = PauliString.from_letters("XX")
    yy = PauliString.from_letters("YY")
    assert commutes(xx, yy)  # two anticommuting positions
    assert not commutes(PauliString.from_letters("XI"), PauliString.from_letters("ZI"))
    xy = PauliString.from_letters("XY")
    assert commutes(xy, xy)


def test_commutes_matches_matrix_commutator():
    rng = np.random.default_rng(13)
    for _ in range(80):
        n = int(rng.integers(1, 6))
        a = _random_string(rng, n)
        b = _random_string(rng, n)
        ma, mb = string_matrix(a), string_matrix(b)
        vanishes = np.abs(ma @ mb - mb @ ma).max() < 1e-12
        assert commutes(a, b) == vanishes


def test_commutator_symmetrized_identity():
    # [X(x)1 + 1(x)X, Y(x)1 + 1(x)Y] = 2i (Z(x)1 + 1(x)Z)
    a = PauliSum.from_strings([PauliString.from_letters("XI"), PauliString.from_letters("IX")])
    b = PauliSum.from_strings([PauliString.from_letters("YI"), PauliString.from_letters("IY")])
    want = PauliSum.from_strings(
        [PauliString.from_letters("ZI", 2j), PauliString.from_letters("IZ", 2j)]
    )
    got = commutator(a, b)
    assert got.terms == want.terms


def test_commutator_self_vanishes():
    a = PauliSum.from_strings([PauliString.from_letters("XX")])
    assert commutator(a, a).num_terms() == 0


def test_commutator_matches_dense_matrices():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        a = PauliSum.from_strings(
            [_random_string(rng, n, (1, -1, 0.5, 2j)) for _ in range(int(rng.integers(1, 4)))]
        )
        b = PauliSum.from_strings(
            [_random_string(rng, n, (1, -1, 0.5, 2j)) for _ in range(int(rng.integers(1, 4)))]
        )
        ma, mb = a.matrix(), b.matrix()
        assert np.abs(commutator(a, b).matrix() - (ma @ mb - mb @ ma)).max() < 1e-12


def test_commutator_single_pair_matches_matrix():
    a = PauliSum.from_strings([PauliString.from_letters("XY")])
    b = PauliSum.from_strings([PauliString.from_letters("ZI")])
    ma, mb = a.matrix(), b.matrix()
    assert np.abs(commutator(a, b).matrix() - (ma @ mb - mb @ ma)).max() < 1e-12


def test_real_coefficient_sums_are_hermitian():
    rng = np.random.default_rng(19)
    for _ in range(10):
        strings = [
            PauliString(3, s.x, s.z, float(rng.normal()))
            for s in (_random_string(rng, 3) for _ in range(5))
        ]
        m = PauliSum.from_strings(strings).matrix()
        assert np.abs(m - m.conj().T).max() < 1e-14


def test_sum_canonical_pruning():
    s = PauliString.from_letters("XZ")
    total = PauliSum.from_strings([s, PauliString(s.n, s.x, s.z, -1.0)])
    assert total.num_terms() == 0
    tiny = PauliSum.from_strings([PauliString(s.n, s.x, s.z, 1e-16)])
    assert tiny.num_terms() == 0


def test_paper_notation():
    # Y on qubit 1, X on qubit 2: letters sorted alphabetically, qubits subscripted
    assert oracles.paper_notation(PauliString.from_letters("YX")) == "x2 y1"
    assert oracles.paper_notation(PauliString.from_letters("XY")) == "x1 y2"
    assert oracles.paper_notation(PauliString.from_letters("II")) == "1"
    assert PauliString.from_letters("YX").letters == "YX"


def test_string_accessors():
    s = PauliString.from_letters("XIZ")
    assert s.support() == (1, 3)
    assert s.letter(1) == "X" and s.letter(2) == "I" and s.letter(3) == "Z"
    with pytest.raises(ValueError):
        s.letter(4)


def _same_bits(a, b):
    """Equal entries and equal signs of zero, so nothing downstream can tell them apart."""
    return np.array_equal(a, b) and all(
        np.array_equal(np.signbit(p(a)), np.signbit(p(b))) for p in (np.real, np.imag)
    )


def test_sum_matrix_bit_identical_to_kronecker_on_every_generator():
    from pisu import enumerate_basis

    for n in range(1, 6):
        for gen in enumerate_basis(n):
            assert _same_bits(gen.matrix(), oracles.kron_pauli_sum_matrix(gen.as_sum)), gen


def test_sum_matrix_bit_identical_at_verify_width():
    from pisu import SymmetrizedGenerator, TypeVector

    # the two generators whose exponentials the benchmark's verify workload checks
    for tv in (TypeVector(2, 0, 0, 7), TypeVector(0, 0, 3, 6)):
        gen = SymmetrizedGenerator(tv, tv.label)
        assert _same_bits(gen.matrix(), oracles.kron_pauli_sum_matrix(gen.as_sum)), tv


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 6))
    masks = st.integers(0, 2**n - 1)
    parts = st.floats(-4.0, 4.0, allow_nan=False)
    strings = [
        PauliString(n, draw(masks), draw(masks), complex(draw(parts), draw(parts)))
        for _ in range(draw(st.integers(1, 12)))
    ]
    return PauliSum.from_strings(strings)


@settings(max_examples=150, deadline=None)
@given(pauli_sums())
def test_random_sum_matrix_bit_identical_to_kronecker(v):
    # several terms may share an x mask, so entries are real sums in strings() order
    assert _same_bits(v.matrix(), oracles.kron_pauli_sum_matrix(v))


@pytest.mark.parametrize("n", [1, 3, 9, 62, 63, 64, 100])
def test_strings_sorted_by_letter_word(n):
    # the order comes from the masks; above 62 qubits they are Python ints
    rng = np.random.default_rng(n)
    for _ in range(20):
        terms = {}
        for _ in range(int(rng.integers(1, 40))):
            x, z = (int.from_bytes(rng.bytes(13), "little") % (1 << n) for _ in range(2))
            terms[(x, z)] = complex(rng.normal(), 1.0)
        v = PauliSum(n, terms)
        words = [s.letters for s in v.strings()]
        assert words == sorted(PauliString(n, x, z).letters for x, z in terms)
        assert [(s.x, s.z, s.coeff) for s in v.strings()] == [
            (x, z, terms[x, z]) for x, z in sorted(terms, key=lambda k: PauliString(n, *k).letters)
        ]


def test_sum_terms_read_only_and_sum_hashable():
    s = PauliSum.from_strings([PauliString.from_letters("XY"), PauliString.from_letters("ZI", 2.0)])
    with pytest.raises(TypeError):
        s.terms[(1, 1)] = 5
    with pytest.raises(TypeError):
        del s.terms[next(iter(s.terms))]
    # the caller's dict is copied, not kept
    raw = {(1, 0): 1.0 + 0j}
    kept = PauliSum(1, raw)
    raw[(1, 0)] = 9.0
    assert kept.terms == {(1, 0): 1.0 + 0j}
    same = PauliSum(s.n, dict(reversed(list(s.terms.items()))))
    assert same == s and hash(same) == hash(s)
    doubled = PauliSum(s.n, {k: 2.0 * v for k, v in s.terms.items()})
    assert len({s, same, doubled, PauliSum(2, {})}) == 3
    xzi = PauliString.from_letters("XZI")
    cancelled = PauliSum.from_strings([xzi, PauliString(3, xzi.x, xzi.z, -1.0)])
    assert hash(cancelled) == hash(PauliSum(3, {}))
    for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert back == s and hash(back) == hash(s)
        with pytest.raises(TypeError):
            back.terms[(1, 1)] = 5


# Pauli algebra against dense products: with Gaussian-integer coefficients
# every matrix entry is exact in {0, +-1, +-i} * coeff, so equality is exact


@st.composite
def gaussian_strings(draw, n):
    mask = st.integers(0, 2**n - 1)
    coeff = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
    return PauliString(n, draw(mask), draw(mask), draw(coeff))


@st.composite
def string_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(gaussian_strings(n)), draw(gaussian_strings(n))


@st.composite
def sum_pairs(draw):
    n = draw(st.integers(1, 5))
    terms = st.lists(gaussian_strings(n), min_size=1, max_size=8)
    return PauliSum.from_strings(draw(terms)), PauliSum.from_strings(draw(terms))


@settings(max_examples=200, deadline=None)
@given(string_pairs())
def test_multiply_is_the_matrix_product(pair):
    a, b = pair
    ma, mb = string_matrix(a), string_matrix(b)
    assert np.array_equal(string_matrix(multiply(a, b)), ma @ mb)
    assert commutes(a, b) == np.array_equal(ma @ mb, mb @ ma)


@settings(max_examples=200, deadline=None)
@given(sum_pairs())
def test_commutator_is_the_matrix_bracket(pair):
    a, b = pair
    ma, mb = a.matrix(), b.matrix()
    assert np.array_equal(commutator(a, b).matrix(), ma @ mb - mb @ ma)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: PauliString(0, 0, 0), "a Pauli string needs at least one qubit", id="empty"),
        pytest.param(lambda: PauliString(1, 2, 0), "x/z bits fall outside the qubit range", id="bits"),
        pytest.param(lambda: PauliString.from_letters("XQ"), "unknown Pauli letter 'Q'", id="letter"),
        pytest.param(lambda: PauliSum.from_strings([PauliString.from_letters(w) for w in ("X", "XX")]),
                     "qubit counts differ: 2 != 1", id="sum-sizes"),
        pytest.param(lambda: PauliSum.from_strings([]),
                     "cannot infer qubit count from an empty iterable", id="sum-empty"),
        pytest.param(lambda: commutator(*(PauliSum.from_strings([PauliString.from_letters(w)])
                                          for w in ("X", "XX"))),
                     "qubit counts differ: 1 != 2", id="commutator"),
        pytest.param(lambda: PauliSum(1, {(4, 0): 1.0}), "x/z bits fall outside the qubit range", id="sum-x-bits"),
        pytest.param(lambda: PauliSum(2, {(1, 0): 1.0, (0, 4): 1.0}), "x/z bits fall outside the qubit range",
                     id="sum-z-bits"),
        pytest.param(lambda: PauliSum(3, {(-1, 0): 1.0}), "x/z bits fall outside the qubit range",
                     id="sum-negative-mask"),
        pytest.param(lambda: PauliSum(0, {}), "a Pauli sum needs at least one qubit", id="sum-zero"),
        pytest.param(lambda: PauliSum(False, {}), "a Pauli sum needs at least one qubit", id="sum-false"),
        pytest.param(lambda: PauliSum(2.0, {}), "n must be an integer, got 2.0", id="sum-float"),
        pytest.param(lambda: PauliSum("3", {}), "n must be an integer, got '3'", id="sum-str"),
        pytest.param(lambda: PauliSum(None, {}), "n must be an integer, got None", id="sum-none"),
        pytest.param(lambda: PauliString.from_letters(["X", ""]), "unknown Pauli letter ''", id="letter-empty"),
        pytest.param(lambda: PauliString.from_letters(["XY"]), "unknown Pauli letter 'XY'", id="letter-word"),
        pytest.param(lambda: PauliString(2, 0, -1), "x/z bits fall outside the qubit range", id="negative-bits"),
        pytest.param(lambda: PauliString(2, 1.0, 0), "x must be an integer, got 1.0", id="x-float"),
        pytest.param(lambda: PauliString(2, 0, "1"), "z must be an integer, got '1'", id="z-str"),
        pytest.param(lambda: PauliString(2, 1, 0, "a"), "coeff must be a number, got 'a'", id="coeff-str"),
        pytest.param(lambda: PauliString(2, 1, 0, True), "coeff must be a number, got True", id="coeff-bool"),
        pytest.param(lambda: PauliString(2, 1, 0, None), "coeff must be a number, got None", id="coeff-none"),
        pytest.param(lambda: PauliSum(2, {(1.0, 0): 1.0}), "x must be an integer, got 1.0", id="sum-x-float"),
        pytest.param(lambda: PauliSum(2, {(1, 0.5): 1.0}), "z must be an integer, got 0.5", id="sum-z-float"),
        pytest.param(lambda: PauliSum(2, {(1,): 1.0}), "terms keys must be (x, z) pairs, got (1,)", id="sum-short-key"),
        pytest.param(lambda: PauliSum(2, {(1, 0, 0): 1.0}), "terms keys must be (x, z) pairs, got (1, 0, 0)",
                     id="sum-long-key"),
        pytest.param(lambda: PauliSum(2, {3: 1.0}), "terms keys must be (x, z) pairs, got 3", id="sum-int-key"),
        pytest.param(lambda: PauliSum(2, {(1, 0): "a"}), "terms values must be numbers, got 'a'", id="sum-str-value"),
        pytest.param(lambda: PauliSum(2, {(1, 0): 1j, (0, 1): False}), "terms values must be numbers, got False",
                     id="sum-bool-value"),
    ],
)
def test_pauli_types_reject_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_masks_are_stored_as_ints_and_numbers_kept():
    s = PauliString(np.int64(2), np.int64(1), np.uint8(2), np.float64(0.5))
    assert (type(s.x), type(s.z), s.coeff) == (int, int, 0.5) and s == PauliString(2, 1, 2, 0.5)
    assert type(PauliString(1, True, False).x) is int
    v = PauliSum(2, {(np.int64(1), np.int32(3)): np.complex64(2j), (True, 0): Fraction(1, 2), (2, 2): 3})
    assert [tuple(map(type, key)) for key in v.terms] == [(int, int)] * 3
    assert v == PauliSum(2, {(1, 3): 2j, (1, 0): 0.5, (2, 2): 3})
    assert v.terms[(1, 3)] == 2j and type(v.terms[(1, 3)]) is np.complex64


def test_pauli_sum_stores_n_as_an_int():
    for n, want in ((np.int64(2), 2), (True, 1)):
        s = PauliSum(n, {(1, 0): 1.0})
        assert type(s.n) is int and s == PauliSum(want, {(1, 0): 1.0})
    assert np.array_equal(PauliSum(True, {(1, 0): 1.0}).matrix(), [[0, 1], [1, 0]])


@pytest.mark.parametrize("n, ok", [(True, True), (np.int64(2), True), (2.0, False), (2.5, False), ("3", False)])
def test_pauli_string_n_takes_any_integer(n, ok):
    if ok:
        s = PauliString(n, 1, 0)
        assert type(s.n) is int and s == PauliString(int(n), 1, 0)
    else:
        with pytest.raises(ValueError, match="n must be an integer"):
            PauliString(n, 1, 0)


@st.composite
def float_sum_pairs(draw):
    """Two sums on one n, coefficients with float parts of either sign of zero."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, 2**n - 1)
    parts = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
    terms = st.dictionaries(st.tuples(masks, masks), st.builds(complex, parts, parts), min_size=1, max_size=12)
    return PauliSum(n, draw(terms)), PauliSum(n, draw(terms))


def _float_bits(c):
    return [(p, math.copysign(1.0, p)) for p in (c.real, c.imag)]


@settings(max_examples=300, deadline=None)
@given(float_sum_pairs(), st.data())
def test_commutator_and_projection_equal_their_oracles(pair, data):
    a, b = pair
    got, want = commutator(a, b), oracles.commutator_by_strings(a, b)
    assert list(got.terms) == list(want.terms)  # key for key, in insertion order
    assert [_float_bits(c) for c in got.terms.values()] == [_float_bits(c) for c in want.terms.values()]
    basis = enumerate_basis(a.n)
    partial = data.draw(st.lists(st.sampled_from(basis), unique=True, max_size=len(basis)), label="basis")
    identity = data.draw(st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)), label="identity")
    for v in (got, a, PauliSum(a.n, {**got.terms, (0, 0): identity})):
        coeffs, residual = project_onto_basis(v, partial)
        want_coeffs, want_residual = oracles.project_by_orbits(v, partial)
        assert coeffs == pytest.approx(want_coeffs, rel=1e-12, abs=1e-9)
        assert residual == pytest.approx(want_residual, rel=1e-12, abs=1e-9)
