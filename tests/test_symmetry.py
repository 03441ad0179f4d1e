"""SWAP machinery, basis enumeration, projection, and Lie-closure checks."""

import copy
import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisu import (
    BlockStructure,
    PauliString,
    PauliSum,
    TypeVector,
    base_variational_circuit,
    commutator,
    dense_exponential,
    dim_pisu,
    enumerate_basis,
    invariance_defect,
    naive_cnot_budget,
    permutation_defect,
    project_onto_basis,
    scaling_table,
    swap_invariance_defect,
    swap_matrix,
    symmetrize_by_extension,
    synth_string,
    transpositions,
    verify_closure,
)
from pisu import symmetry
from pisu.symmetry import _bracket_counts, _closure_residual, _type_codes

import oracles
from oracles import conjugate_by_swap


def test_swap_matrix_two_qubit_display():
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(swap_matrix(1, 2, 2), expected)


def test_swap_same_index_is_identity():
    assert np.array_equal(swap_matrix(1, 1, 3), np.eye(8))


def test_swap_13_decomposes_into_transpositions():
    product = swap_matrix(1, 2, 3) @ swap_matrix(2, 3, 3) @ swap_matrix(1, 2, 3)
    assert np.abs(swap_matrix(1, 3, 3) - product).max() < 1e-15


def test_swap_self_inverse():
    for n in range(2, 5):
        for i, j in transpositions(n):
            s = swap_matrix(i, j, n)
            assert np.abs(s @ s - np.eye(2**n)).max() < 1e-15


def test_swap_matches_pauli_construction():
    for n in (2, 3, 4):
        for i, j in transpositions(n):
            assert np.abs(swap_matrix(i, j, n) - oracles.swap_via_pauli(i, j, n)).max() < 1e-12


def test_conjugate_by_swap_exchanges_letters():
    s = PauliString.from_letters("XY")
    assert conjugate_by_swap(s, 1, 2).letters == "YX"
    same = PauliString.from_letters("ZZ")
    assert conjugate_by_swap(same, 1, 2) == same


def test_conjugate_by_swap_matches_matrix():
    rng = np.random.default_rng(23)
    for _ in range(30):
        word = "".join(rng.choice(list("IXYZ"), size=4))
        s = PauliString.from_letters(word)
        i, j = sorted(rng.choice(np.arange(1, 5), size=2, replace=False))
        conjugated = conjugate_by_swap(s, int(i), int(j))
        sw = swap_matrix(int(i), int(j), 4)
        want = sw @ oracles.string_matrix(s) @ sw
        assert np.abs(oracles.string_matrix(conjugated) - want).max() < 1e-14


def test_conjugate_by_swap_bad_index():
    with pytest.raises(ValueError):
        conjugate_by_swap(PauliString.from_letters("XY"), 1, 3)


def test_basis_single_qubit():
    assert [g.label for g in enumerate_basis(1)] == ["X", "Y", "Z"]


def test_basis_two_qubits_reference_table():
    # the nine symmetrized two-qubit generators, in canonical order
    expected_orbits = [
        ["XX"],
        ["XY", "YX"],
        ["XZ", "ZX"],
        ["XI", "IX"],
        ["YY"],
        ["YZ", "ZY"],
        ["YI", "IY"],
        ["ZZ"],
        ["ZI", "IZ"],
    ]
    basis = enumerate_basis(2)
    assert [[s.letters for s in g.orbit] for g in basis] == expected_orbits
    assert all(s.coeff == 1 for g in basis for s in g.orbit)


def test_basis_three_qubits_count():
    assert len(enumerate_basis(3)) == 19


def test_dimension_formula_examples():
    assert dim_pisu(2) == 9
    assert dim_pisu(1) == 3
    assert dim_pisu(6) == 83


def test_dimension_matches_enumeration():
    for n in range(1, 9):
        assert dim_pisu(n) == len(enumerate_basis(n))


def test_orbit_sizes_are_multinomials():
    for n in range(1, 6):
        for gen in enumerate_basis(n):
            assert len(gen.orbit) == gen.orbit_size()
            assert len({s.letters for s in gen.orbit}) == len(gen.orbit)


def test_orbit_equals_the_recursive_oracle():
    # order included: the letter-array builder lists each orbit as the recursion does
    for n in range(1, 8):
        for gen in enumerate_basis(n):
            tv = gen.type_vector
            words = oracles._arrangements((tv.n_x, tv.n_y, tv.n_z, tv.n_i))
            assert gen.orbit == tuple(map(PauliString.from_letters, words)), gen
            assert gen._letters.shape == (gen.orbit_size(), n) and not gen._letters.flags.writeable


def test_orbit_masks_beyond_64_qubits():
    # qubit 64 and up do not fit an int64 mask; the masks are Python ints
    tv = TypeVector(1, 0, 1, 68)
    gen = symmetry.SymmetrizedGenerator(tv, tv.label)
    assert gen.orbit == tuple(map(PauliString.from_letters, oracles._arrangements((1, 0, 1, 68))))


def test_orbit_sizes_sum_to_full_basis():
    for n in range(1, 9):
        assert sum(g.orbit_size() for g in enumerate_basis(n)) == 4**n - 1


def test_generators_swap_invariant_symbolically():
    for n in range(1, 6):
        for gen in enumerate_basis(n):
            words = sorted(s.letters for s in gen.orbit)
            for i, j in transpositions(n):
                conjugated = sorted(conjugate_by_swap(s, i, j).letters for s in gen.orbit)
                assert conjugated == words


def test_generators_swap_invariant_numerically():
    for n in range(2, 6):
        for gen in enumerate_basis(n):
            m = gen.matrix()
            for i, j in transpositions(n):
                sw = swap_matrix(i, j, n)
                assert np.abs(sw @ m @ sw - m).max() < 1e-12


def test_is_invariant_under_identity():
    assert invariance_defect(np.eye(4), swap_matrix(1, 2, 2)) < 1e-10


def test_is_invariant_under_generator_exponential():
    sigma2 = enumerate_basis(2)[1]  # symmetrized XY
    u = oracles.expm_oracle(sigma2.matrix(), 1.0)
    assert invariance_defect(u, swap_matrix(1, 2, 2)) < 1e-10


def test_cnot_is_not_swap_invariant():
    cnot = oracles.cnot_full(1, 2, 2)
    assert invariance_defect(cnot, swap_matrix(1, 2, 2)) >= 1e-10
    assert swap_invariance_defect(cnot, 2) >= 1e-10


def test_is_invariant_dimension_mismatch():
    with pytest.raises(ValueError):
        invariance_defect(np.eye(4), np.eye(8))


def test_project_basis_element():
    basis = enumerate_basis(2)
    coeffs, residual = project_onto_basis(basis[1].as_sum, basis)
    assert residual == 0.0
    assert coeffs[1] == 1.0
    assert all(c == 0 for k, c in enumerate(coeffs) if k != 1)


def test_project_bracket_of_x_and_y_type():
    basis = enumerate_basis(2)
    labels = [g.label for g in basis]
    bracket = commutator(basis[labels.index("XI")].as_sum, basis[labels.index("YI")].as_sum)
    coeffs, residual = project_onto_basis(bracket, basis)
    assert residual < 1e-12
    assert coeffs[labels.index("ZI")] == 2j
    assert sum(1 for c in coeffs if c != 0) == 1


def test_project_nonsymmetric_leaves_residual():
    basis = enumerate_basis(2)
    lone = PauliSum.from_strings([PauliString.from_letters("XI")])
    coeffs, residual = project_onto_basis(lone, basis)
    assert residual > 0.5
    assert abs(residual - np.sqrt(0.5)) < 1e-14


def test_project_identity_component_is_residual():
    basis = enumerate_basis(2)
    ident = PauliSum.from_strings([PauliString.from_letters("II", 3.0)])
    _, residual = project_onto_basis(ident, basis)
    assert abs(residual - 3.0) < 1e-14


def test_closure_small_n():
    for n in (1, 2, 3, 4):
        report = verify_closure(n, tol=1e-12)
        assert report.passed, f"closure failed at n={n}"
        assert report.max_residual == 0.0
    assert verify_closure(2).pairs == 36


def test_closure_report_json():
    report = verify_closure(1)
    assert report.to_dict() == {"n": 1, "pairs": 3, "max_residual": 0.0, "pass": True}


def test_group_closed_under_product_and_inverse():
    rng = np.random.default_rng(29)
    for n in (3, 4):
        basis = enumerate_basis(n)
        for _ in range(10):
            picks = rng.integers(0, len(basis), size=3)
            u = np.eye(2**n, dtype=complex)
            v = np.eye(2**n, dtype=complex)
            for p in picks:
                u = dense_exponential(basis[int(p)], float(rng.uniform(0, 2 * np.pi))) @ u
                v = dense_exponential(basis[int(p)], float(rng.uniform(0, 2 * np.pi))) @ v
            assert swap_invariance_defect(u @ v, n) < 1e-10
            assert swap_invariance_defect(np.linalg.inv(u), n) < 1e-10


def test_scaling_table():
    table = scaling_table(4)
    assert table[0] == (1, 3, 3)
    assert table[1] == (2, 9, 15)
    assert table[3] == (4, 34, 255)


def test_type_vector_validation():
    with pytest.raises(ValueError):
        TypeVector(-1, 0, 0, 2)
    tv = TypeVector(1, 1, 0, 1)
    assert tv.n == 3
    assert tv.orbit_size() == 6
    assert tv.label == "XYI"
    assert TypeVector(0, 0, 0, 2).is_identity


def test_generator_repr_and_sum():
    gen = enumerate_basis(2)[0]
    assert "XX" in repr(gen)
    assert gen.as_sum.num_terms() == 1


def _kernel_terms(n, basis):
    """Every pair's bracket terms, decoded from the batched kernel's signed counts."""
    out = {}
    for a, b0, d in _bracket_counts(n, basis, *_type_codes(n, basis)):
        for j, row in enumerate(d):
            keys = np.flatnonzero(row).tolist()
            out[a, b0 + j] = {
                (key >> n, key & ((1 << n) - 1)): complex(0, 2 * row[key]) for key in keys
            }
    return out


def test_bracket_kernel_matches_commutator():
    for n in (1, 2, 3, 4):
        basis = enumerate_basis(n)
        terms = _kernel_terms(n, basis)
        assert len(terms) == len(basis) * (len(basis) - 1) // 2
        for (i, g1), (j, g2) in itertools.combinations(enumerate(basis), 2):
            expected = commutator(g1.as_sum, g2.as_sum).terms
            assert terms[i, j] == expected, (n, g1.label, g2.label)


def test_closure_matches_object_oracle():
    for n in (1, 2, 3, 4, 5):
        report = verify_closure(n)
        assert (report.pairs, report.max_residual) == oracles.closure_by_objects(
            n, enumerate_basis(n)
        )


def test_closure_matches_pair_grid_oracle_exactly():
    for n in range(1, 7):
        basis = enumerate_basis(n)
        assert _closure_residual(n, basis) == oracles.closure_by_pair_grids(n, basis)


def test_closure_detects_a_missing_generator():
    for n in (3, 4):
        basis = enumerate_basis(n)
        for drop in range(len(basis)):
            reduced = basis[:drop] + basis[drop + 1 :]
            pairs, worst = _closure_residual(n, reduced)
            expected_pairs, expected = oracles.closure_by_objects(n, reduced)
            assert pairs == expected_pairs
            assert worst > 0.0, (n, basis[drop].label)
            assert abs(worst - expected) < 1e-12
            assert (pairs, worst) == oracles.closure_by_pair_grids(n, reduced)


def test_closure_of_every_two_generator_basis_matches_pair_grid_oracle():
    # one pair per basis, so each pair's residual (summed over all the
    # types its bracket reaches) is the reported worst
    for n in (2, 3, 4):
        for pair in itertools.combinations(enumerate_basis(n), 2):
            assert _closure_residual(n, pair) == oracles.closure_by_pair_grids(n, pair), pair
    xi, yz = (g for g in enumerate_basis(2) if g.label in ("XI", "YZ"))
    # [XI + IX, YZ + ZY] = 4i (ZZ - YY): two types outside this basis
    assert _closure_residual(2, [xi, yz]) == (1, 32**0.5)


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_closure_is_independent_of_the_piece_budget(budget):
    # budgets this small split every orbit larger than one piece mid-row and
    # mid-column; 64 also puts several column generators into one window
    # from n=2 on (16 keys each)
    cases = []
    for n in (1, 2, 3, 4):
        basis = enumerate_basis(n)
        cases.append((n, basis))
        cases.append((n, basis[1:-1]))  # without X...X and ZI...I: nonzero residuals
    for n, basis in cases:
        if budget == 1 and n == 4:
            continue  # 32k one-pair pieces; n <= 3 already splits everything
        expected = _closure_residual(n, basis), _kernel_terms(n, basis)
        with mock.patch.object(symmetry, "_PIECE", budget):
            assert (_closure_residual(n, basis), _kernel_terms(n, basis)) == expected, n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_of_random_sub_bases_matches_pair_grid_oracle(data):
    n = data.draw(st.integers(1, 4), label="n")
    basis = enumerate_basis(n)
    picks = data.draw(
        st.lists(st.integers(0, len(basis) - 1), min_size=2, max_size=len(basis), unique=True),
        label="picks",
    )
    budget = data.draw(st.sampled_from([5, 64, 1 << 14]), label="budget")
    sub = [basis[k] for k in picks]
    with mock.patch.object(symmetry, "_PIECE", budget):
        assert _closure_residual(n, sub) == oracles.closure_by_pair_grids(n, sub)


def _residual_of_rows(n, basis, *rows):
    """``_closure_residual`` when the kernel yields one window of hand-made counts.

    Each row maps letter words to their count ``d``; every other key counts 0.
    """
    d = np.zeros((len(rows), 1 << 2 * n))
    for j, row in enumerate(rows):
        for word, count in row.items():
            s = PauliString.from_letters(word)
            d[j, s.x << n | s.z] = count
    with mock.patch.object(symmetry, "_bracket_counts", lambda *args: iter([(0, 1, d)])):
        return _closure_residual(n, basis)[1]


def test_closure_residual_within_an_orbit():
    # a bracket of two invariant sums is invariant, so no real bracket has
    # counts that differ inside one orbit; these hand-made windows do
    basis = enumerate_basis(2)
    assert _residual_of_rows(2, basis, {"XI": 1}) == math.sqrt(2)  # 4 (2 * 1 - 1^2) / 2
    assert _residual_of_rows(2, basis, {"IX": 1}) == math.sqrt(2)  # the orbit's lead key counts 0
    assert _residual_of_rows(2, basis, {"XI": 1, "IX": 3}) == math.sqrt(8)
    assert _residual_of_rows(2, basis, {"XI": 1, "IX": 1, "XY": 2, "YX": 2}) == 0.0
    assert _residual_of_rows(2, basis, {"XI": 1, "IX": 1}, {"YI": -1}, {"ZZ": 5}) == math.sqrt(2)
    # a count on a key of no basis type adds 4 d^2
    assert _residual_of_rows(2, basis, {"II": 3}) == 6.0
    assert _residual_of_rows(2, basis[1:], {"XX": 3, "XY": 1, "YX": 1}) == 6.0
    assert _residual_of_rows(2, basis[1:], {"XX": 3, "XI": 1}) == math.sqrt(36 + 2)
    # an orbit of 3: 4 (3 * 1 - 1^2) / 3, exactly
    assert _residual_of_rows(3, enumerate_basis(3), {"IIZ": 1}) == math.sqrt(Fraction(8, 3))


def test_nonzero_closure_residual_is_at_least_two_over_root_of_largest_orbit():
    n = 3
    basis = enumerate_basis(n)
    bound = 2 / math.sqrt(max(gen.orbit_size() for gen in basis))
    residuals = {
        _residual_of_rows(n, basis, {"".join(word): count})
        for word in itertools.product("IXYZ", repeat=n)
        for count in (1, -2)
    }
    assert 0.0 in residuals  # a count on XXX, an orbit of one, is in the span
    assert min(residuals - {0.0}) >= bound


def test_closure_builds_no_orbit_objects():
    expected = {n: verify_closure(n) for n in range(1, 6)}
    orbit = property(lambda gen: pytest.fail(f"{gen!r}.orbit expanded"))
    with mock.patch.object(symmetry.SymmetrizedGenerator, "orbit", orbit):
        for n in range(1, 6):
            assert verify_closure(n) == expected[n]


def test_closure_of_reordered_and_repeated_bases_matches_pair_grid_oracle():
    for n in (2, 3, 4):
        basis = enumerate_basis(n)
        for reordered in (basis[::-1], [*basis, basis[n]], [basis[-1], *basis[1:], basis[-1]]):
            assert _closure_residual(n, reordered) == oracles.closure_by_pair_grids(n, reordered)


@pytest.mark.parametrize("piece", [symmetry._PIECE, 1 << 12])
def test_closure_working_memory_is_bounded_by_the_piece_budget(piece):
    # 8-byte entries: three piece buffers, one window of count bins and its
    # gathered copy (or, while the next window is counted, that window), and
    # 12 arrays over the 4^n keys (the type codes, the lead keys, each orbit
    # string's key, x, z and first bin, np.unique's outputs, with room for the
    # transients); 1-byte entries: the i-powers of a piece and their
    # temporaries, and the window's comparison
    n = 6
    basis = enumerate_basis(n)
    keys = 4**n
    window = max(piece // keys, 1) * keys
    bound = 8 * (3 * piece + 2 * window + 12 * keys) + 4 * piece + window
    with mock.patch.object(symmetry, "_PIECE", piece):
        expected = _closure_residual(n, basis)
        tracemalloc.start()
        try:
            assert _closure_residual(n, basis) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_closure_six_qubits():
    report = verify_closure(6)
    assert report.pairs == 3403
    assert report.max_residual == 0.0 and type(report.max_residual) is float
    assert report.passed


def _permutation_matrix(perm):
    """Dense P with P |b> = |b'>, b'_k = b_perm[k]; qubit 1 is the most significant bit."""
    n = len(perm)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        row = sum(bits[perm[k]] << (n - 1 - k) for k in range(n))
        out[row, col] = 1.0
    return out


def _random_matrix(rng, n):
    return rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))


def test_permutation_defect_equals_dense_conjugation_exactly():
    rng = np.random.default_rng(59)
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            u = _random_matrix(rng, n)
            want = oracles.dense_invariance_defect(u, _permutation_matrix(perm))
            assert permutation_defect(u, perm) == want, perm


def test_permutation_defect_of_swap_matches_swap_matrix():
    rng = np.random.default_rng(61)
    u = _random_matrix(rng, 4)
    for i, j in transpositions(4):
        perm = list(range(4))
        perm[i - 1], perm[j - 1] = j - 1, i - 1
        assert permutation_defect(u, perm) == oracles.dense_invariance_defect(u, swap_matrix(i, j, 4))


@pytest.mark.parametrize("bits", [0, 1, 3, 5])
def test_permutation_defect_slices_equal_the_whole_transposed_difference(monkeypatch, bits):
    rng = np.random.default_rng(83 + bits)
    monkeypatch.setattr(symmetry, "_SLICE_BITS", bits)
    for n in range(1, 7):
        u = _random_matrix(rng, n)
        for _ in range(4):
            perm = rng.permutation(n).tolist()
            assert permutation_defect(u, perm) == oracles.transposed_permutation_defect(u, perm), (n, perm)


def test_permutation_defect_is_one_slice_up_to_eight_qubits():
    assert 2 * 8 <= symmetry._SLICE_BITS  # the CLI's blocks check at n = 8 stays one comparison
    rng = np.random.default_rng(89)
    u = _random_matrix(rng, 8)
    for perm in ([1, 0, 3, 2, 5, 4, 7, 6], rng.permutation(8).tolist()):
        assert permutation_defect(u, perm) == oracles.transposed_permutation_defect(u, perm)


def test_permutation_defect_rejects_bad_input():
    with pytest.raises(ValueError, match="does not match n=3"):
        permutation_defect(np.eye(4), [0, 1, 2])
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_defect(np.eye(8), [0, 1, 1])
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_defect(np.eye(8), [1, 2, 3])


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (2, 3)], ids=["1-D", "3-D", "2x3"])
@pytest.mark.parametrize("bad", ["u", "s", "both"])
def test_invariance_defect_takes_only_square_matrices(shape, bad):
    # with both arguments of the same shape, only the square test can refuse them
    u = np.ones(shape) if bad in ("u", "both") else np.eye(shape[0])
    s = np.ones(shape) if bad in ("s", "both") else np.eye(shape[0])
    with pytest.raises(ValueError, match="must be square matrices of one shape"):
        invariance_defect(u, s)


def test_swap_invariance_defect_bit_identical_to_dense_swaps():
    rng = np.random.default_rng(67)
    for n in range(1, 7):
        for u in (_random_matrix(rng, n), np.eye(2**n, dtype=complex)):
            assert swap_invariance_defect(u, n) == oracles.dense_swap_invariance_defect(u, n)
    for n in (3, 4):
        for gen in enumerate_basis(n):
            u = dense_exponential(gen, 0.83)
            assert swap_invariance_defect(u, n) == oracles.dense_swap_invariance_defect(u, n)


def test_swap_invariance_defect_bit_identical_at_verify_width():
    from pisu import base_variational_circuit, circuit_unitary, symmetrize_fully

    u = circuit_unitary(symmetrize_fully(base_variational_circuit(9, seed=11), angle=1.3))
    defect = swap_invariance_defect(u, 9)
    assert 0 < defect < 1e-10
    assert defect == oracles.dense_swap_invariance_defect(u, 9)


def test_transposition_kernel_equals_dense_conjugation_exactly():
    rng = np.random.default_rng(73)
    for n in range(1, 7):
        u = _random_matrix(rng, n)
        each = []
        for i, j in transpositions(n):
            perm = list(range(n))
            perm[i - 1], perm[j - 1] = j - 1, i - 1
            s = swap_matrix(i, j, n)
            want = oracles.dense_invariance_defect(u, s)
            assert symmetry._transposition_defect(u, n, i, j) == want, (n, i, j)
            assert permutation_defect(u, perm) == want, (n, i, j)
            assert invariance_defect(u, s) == want, (n, i, j)
            each.append(want)
        assert swap_invariance_defect(u, n) == max(each, default=0.0)


def _basis_permutation(perm):
    """Dense S with S[perm[c], c] = 1: any permutation of basis states."""
    out = np.zeros((len(perm), len(perm)), dtype=complex)
    out[perm, np.arange(len(perm))] = 1.0
    return out


def test_invariance_defect_moves_entries_for_any_basis_permutation():
    rng = np.random.default_rng(79)
    for n in range(1, 7):
        for _ in range(4):
            u = _random_matrix(rng, n)
            i, j = sorted(int(q) for q in rng.choice(np.arange(1, n + 1), size=2))
            s = _basis_permutation(rng.permutation(2**n)) @ swap_matrix(i, j, n)
            # a real or boolean u compares in the dtype the products would have
            for a, b in ((u, s), (u.real, s), (u, s.real), (u.real > 0, s.real)):
                assert invariance_defect(a, b) == oracles.dense_invariance_defect(a, b), n


def _qubit_permutations(n):
    """Every transposition SWAP, products of SWAP factors, and each block exchange of every layout."""
    yield from (swap_matrix(i, j, n) for i, j in transpositions(n))
    pairs = transpositions(n)
    for k in range(0, len(pairs), 2):
        yield functools.reduce(np.matmul, (swap_matrix(i, j, n) for i, j in pairs[k:] + pairs[:k]))
    for size in range(1, n // 2 + 1):
        if n % size == 0:
            layout = BlockStructure(n, size, n // size)
            for a, b in itertools.combinations(range(1, layout.blocks + 1), 2):
                s = np.eye(2**n, dtype=complex)
                for i, j in layout.exchange_pairs(a, b):
                    s = s @ swap_matrix(i, j, n)
                yield s


@pytest.mark.parametrize("bits", [0, 1, 3, 5])
def test_invariance_defect_slices_equal_the_dense_oracle(monkeypatch, bits):
    # shrunk slices split the transposed view, and any other S is multiplied out
    rng = np.random.default_rng(97 + bits)
    monkeypatch.setattr(symmetry, "_SLICE_BITS", bits)
    for n in range(1, 6):
        u = _random_matrix(rng, n)
        for s in (_basis_permutation(rng.permutation(2**n)), *_qubit_permutations(n)):
            for a, b in ((u, s), (u.real, s), (u, s.real), (u.real > 0, s.real)):
                assert invariance_defect(a, b) == oracles.dense_invariance_defect(a, b), (n, bits)


def test_qubit_permutation_reader_names_every_permutation():
    for n in range(5):
        for perm in itertools.permutations(range(n)):
            s = _permutation_matrix(perm)
            assert symmetry._qubit_permutation_of(s) == list(perm)
            assert symmetry._qubit_permutation_of(s.real > 0) == list(perm)
        for s in _qubit_permutations(n):
            perm = symmetry._qubit_permutation_of(s)
            assert perm is not None and np.array_equal(_permutation_matrix(perm), s)


def _near_permutations(dim):
    """Matrices one entry away from a permutation matrix; each must be multiplied out."""
    rng = np.random.default_rng(83 + dim)
    for value in (-1, 1j, 0.5):
        s = _basis_permutation(rng.permutation(dim))
        s[rng.integers(dim), :] *= value
        yield s
    s = _basis_permutation(rng.permutation(dim))
    s[0, (s[0].nonzero()[0][0] + 1) % dim] = 1  # a row with two ones
    yield s
    s = _basis_permutation(rng.permutation(dim))
    s[0], s[1] = 0, s[0] + s[1]  # one row empty, the next with two ones
    yield s
    s = _basis_permutation(rng.permutation(dim))
    s[1] = s[0]  # two rows share a column
    yield s


def _near_qubit_permutations(n):
    """Matrices one entry away from a qubit permutation matrix; each must be multiplied out."""
    rng = np.random.default_rng(101 + n)
    perm = rng.permutation(n).tolist()
    for value in (-1, 1j, 0.5):
        s = _permutation_matrix(perm)
        s[rng.integers(2**n), :] *= value
        yield s
    s = _permutation_matrix(perm)
    s[0], s[1] = 0, s[0] + s[1]  # a row with two ones, beside an empty one: 2^n nonzeros
    yield s
    s = _permutation_matrix(perm)
    s[-1, 0] = 1e-300  # an extra nonzero beside every one of the permutation
    yield s


def test_invariance_defect_multiplies_out_near_permutations():
    rng = np.random.default_rng(89)
    for n in range(1, 6):
        u = _random_matrix(rng, n)
        for s in (*_near_permutations(2**n), *_near_qubit_permutations(n)):
            assert symmetry._qubit_permutation_of(s) is None
            assert invariance_defect(u, s) == oracles.dense_invariance_defect(u, s), n
    # a permutation matrix of a size that is no power of two
    s, u = _basis_permutation([2, 0, 1]), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert symmetry._qubit_permutation_of(s) is None
    assert invariance_defect(u, s) == oracles.dense_invariance_defect(u, s)


def _non_finite(value, where):
    u = np.eye(8, dtype=complex)
    u[where] = value
    return u


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)],
                         ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag"])
def test_defects_reject_non_finite_entries(value):
    u = _non_finite(value, (0, 1))
    message = f"u has a non-finite entry {complex(value)!r} at (0, 1)"
    for check in (
        lambda: swap_invariance_defect(u, 3),
        lambda: permutation_defect(u, [2, 0, 1]),
        lambda: invariance_defect(u, swap_matrix(1, 2, 3)),
        lambda: invariance_defect(u, np.eye(8) * 0.5),
    ):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        invariance_defect(np.eye(8, dtype=complex), _non_finite(value, (5, 2)))
    assert str(info.value) == f"s has a non-finite entry {complex(value)!r} at (5, 2)"


@pytest.mark.parametrize("bits", [0, 8, 10])
def test_non_finite_entry_found_in_a_late_slice(monkeypatch, bits):
    # slices of 1, 4 and 16 rows at n = 6; the first bad entry in row-major
    # order is named, not the one in the lowest column
    monkeypatch.setattr(symmetry, "_SLICE_BITS", bits)
    u = np.eye(64, dtype=complex)
    u[50, 7], u[52, 1], u[63, 63] = np.inf, np.nan, np.nan
    message = "has a non-finite entry (inf+0j) at (50, 7)"
    for check in (
        lambda: swap_invariance_defect(u, 6),
        lambda: permutation_defect(u, [1, 0, 2, 3, 4, 5]),
        lambda: invariance_defect(u, swap_matrix(1, 2, 6)),
    ):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == "u " + message
    with pytest.raises(ValueError) as info:
        invariance_defect(np.eye(64, dtype=complex), u)
    assert str(info.value) == "s " + message


def test_as_sum_equals_the_sum_of_the_orbit_strings():
    for n in range(1, 7):
        for gen in enumerate_basis(n):
            want = PauliSum.from_strings(gen.orbit)
            assert gen.as_sum == want and list(gen.as_sum.terms.items()) == list(want.terms.items()), gen


def test_as_sum_builds_no_string_objects():
    # the terms come straight from the orbit masks
    gen = next(g for g in enumerate_basis(5) if g.label == "XYZII")
    with mock.patch.object(PauliString, "__post_init__", side_effect=AssertionError(PauliString)):
        total = gen.as_sum
    assert total == PauliSum.from_strings(gen.orbit)


def test_is_invariant_under_thresholds_invariance_defect():
    u = oracles.cnot_full(1, 2, 2)
    s = swap_matrix(1, 2, 2)
    defect = invariance_defect(u, s)
    assert defect == 1.0


def test_symmetrized_generator_is_read_only_and_caches_its_orbit():
    gen = next(g for g in enumerate_basis(3) if g.label == "XYI")
    for name, value in (("label", "bogus"), ("type_vector", TypeVector(3, 0, 0, 0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gen, name, value)
    assert gen.label == "XYI" and gen.type_vector == TypeVector(1, 1, 0, 1)
    fresh = copy.deepcopy(gen)  # before anything is cached
    assert gen.orbit is gen.orbit and gen.as_sum is gen.as_sum
    cached = copy.deepcopy(gen)
    for clone in (fresh, cached):
        assert clone is not gen and clone.label == gen.label
        assert clone.orbit == gen.orbit and clone.as_sum == gen.as_sum
        assert clone.orbit is clone.orbit and clone.as_sum is clone.as_sum
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.label = "bogus"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: swap_matrix(1, 2, 2.0), "n must be an integer, got 2.0", id="swap_matrix-n"),
        pytest.param(lambda: swap_matrix(1.0, 2, 2), "i must be an integer, got 1.0", id="swap_matrix-i"),
        pytest.param(lambda: transpositions(2.5), "n must be an integer, got 2.5", id="transpositions"),
        pytest.param(lambda: scaling_table(2.5), "max_n must be an integer, got 2.5", id="scaling_table"),
        pytest.param(lambda: naive_cnot_budget(2.5), "n must be an integer, got 2.5", id="naive_cnot_budget"),
        pytest.param(lambda: base_variational_circuit(3.0), "n must be an integer, got 3.0", id="base_circuit"),
        pytest.param(lambda: swap_invariance_defect(np.eye(4), 2.0), "n must be an integer, got 2.0",
                     id="swap_invariance_defect"),
        pytest.param(lambda: synth_string(PauliString.from_letters("XX"), 0.1, pivot=1.0),
                     "pivot must be an integer, got 1.0", id="synth_string"),
        pytest.param(lambda: permutation_defect(np.eye(4), [0.0, 1.0]),
                     "perm entries must be integers, got [0.0, 1.0]", id="permutation_defect"),
        pytest.param(lambda: symmetrize_by_extension(base_variational_circuit(2), 2.0),
                     "blocks must be an integer, got 2.0", id="extension-blocks"),
    ],
)
def test_integer_arguments_name_the_field(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: base_variational_circuit(3, seed=2.5), "seed must be an integer, got 2.5", id="seed"),
        pytest.param(lambda: base_variational_circuit(3, seed=-1), "seed must be >= 0, got -1", id="seed-negative"),
        pytest.param(lambda: PauliString.from_letters("XY").letter(1.0), "qubit must be an integer, got 1.0",
                     id="letter"),
        pytest.param(lambda: BlockStructure.for_extension(2, 2).qubit(1.0, 2), "block must be an integer, got 1.0",
                     id="qubit-block"),
        pytest.param(lambda: BlockStructure.for_extension(2, 2).qubit(1, 2.0),
                     "position must be an integer, got 2.0", id="qubit-position"),
        pytest.param(lambda: BlockStructure.for_extension(2, 2).exchange_pairs(1.0, 2.0),
                     "block_a must be an integer, got 1.0", id="exchange-a"),
        pytest.param(lambda: BlockStructure.for_extension(2, 2).exchange_pairs(1, 2.0),
                     "block_b must be an integer, got 2.0", id="exchange-b"),
    ],
)
def test_seeds_letters_and_blocks_name_their_integer_argument(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_seeds_letters_and_blocks_take_any_integer():
    assert base_variational_circuit(3, seed=np.int64(7)) == base_variational_circuit(3, seed=7)
    assert PauliString.from_letters("XY").letter(np.int64(2)) == "Y"
    layout = BlockStructure.for_extension(2, 2)
    assert layout.exchange_pairs(True, np.int64(2)) == ((1, 3), (2, 4))
    assert type(layout.qubit(np.int64(2), np.int64(1))) is int


def test_integer_like_arguments_act_as_ints():
    u = np.arange(16.0).reshape(4, 4)
    assert permutation_defect(u, [True, False]) == permutation_defect(u, [1, 0]) > 0
    assert np.array_equal(swap_matrix(np.int64(1), True, np.int64(2)), np.eye(4))
    assert synth_string(PauliString.from_letters("XX"), 0.1, pivot=np.int64(2)) == synth_string(
        PauliString.from_letters("XX"), 0.1, pivot=2
    )
    assert symmetrize_by_extension(base_variational_circuit(np.int64(2)), np.int64(2)).n == 4


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: swap_matrix(0, 1, 2), "qubit indices (0, 1) out of range 1..2", id="swap"),
        pytest.param(lambda: swap_matrix(1, 3, 2), "qubit indices (1, 3) out of range 1..2", id="swap-high"),
        pytest.param(lambda: TypeVector(0, 0, 0, 0), "type vector must cover at least one qubit", id="type"),
        pytest.param(lambda: symmetry.SymmetrizedGenerator(TypeVector(2, 0, 0, 1), "ZZZ"),
                     "label 'ZZZ' is not the type's label 'XXI'", id="label"),
        pytest.param(lambda: enumerate_basis(0), "need at least one qubit", id="basis"),
        pytest.param(lambda: dim_pisu(0), "need at least one qubit", id="dim"),
        pytest.param(lambda: swap_invariance_defect(np.eye(4), 3), "matrix shape (4, 4) does not match n=3",
                     id="defect"),
        pytest.param(lambda: project_onto_basis(PauliSum.from_strings([PauliString.from_letters("X")]),
                                                enumerate_basis(2)),
                     "qubit counts differ: 1 != 2", id="project"),
    ],
)
def test_symmetry_rejects_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


_BAD_TOL = "tol must be a real number, finite and > 0, got "


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param((3, float("nan")), _BAD_TOL + "nan", id="tol-nan"),
        pytest.param((3, float("inf")), _BAD_TOL + "inf", id="tol-inf"),
        pytest.param((3, -1.0), _BAD_TOL + "-1.0", id="tol-negative"),
        pytest.param((3, 0), _BAD_TOL + "0", id="tol-zero"),
        pytest.param((3, True), _BAD_TOL + "True", id="tol-bool"),
        pytest.param((3, "1e-12"), _BAD_TOL + "'1e-12'", id="tol-str"),
        pytest.param((3, 1e-12 + 0j), _BAD_TOL + "(1e-12+0j)", id="tol-complex"),
        pytest.param((3.0, 1e-12), "n must be an int, got 3.0", id="n-float"),
        pytest.param(("3", 1e-12), "n must be an int, got '3'", id="n-str"),
        pytest.param((99, float("nan")), _BAD_TOL + "nan", id="tol-before-the-cap"),
    ],
)
def test_verify_closure_rejects_bad_arguments_before_any_work(args, message):
    work = mock.Mock(side_effect=AssertionError("work started"))
    with mock.patch.object(symmetry, "check_qubit_cap", work), mock.patch.object(
        symmetry, "_closure_residual", work
    ):
        with pytest.raises(ValueError) as info:
            verify_closure(*args)
    assert str(info.value) == message
    work.assert_not_called()


def test_verify_closure_takes_any_integer_n():
    assert verify_closure(np.int64(5)) == verify_closure(5)
    assert verify_closure(True) == verify_closure(1)
    assert type(verify_closure(np.int64(2)).n) is int


def test_verify_closure_takes_any_finite_positive_real_tolerance():
    for tol in (1, Fraction(1, 10**12), np.float64(1e-12), 10**400):
        report = verify_closure(2, tol=tol)
        assert report == verify_closure(2) and type(report.passed) is bool, tol


@pytest.mark.parametrize(
    "counts, error",
    [
        ((np.int64(1), True, 0, 0), None),
        ((1.5, 0, 0, 0.5), "n_x must be an integer, got 1.5"),
        ((1, 0, 0, 1.0), "n_i must be an integer, got 1.0"),
        (("1", 0, 0, 0), "n_x must be an integer, got '1'"),
    ],
)
def test_type_vector_counts_are_integers(counts, error):
    if error is None:
        tv = TypeVector(*counts)
        assert all(type(c) is int for c in (tv.n_x, tv.n_y, tv.n_z, tv.n_i)) and tv.label == "XY"
    else:
        with pytest.raises(ValueError) as info:
            TypeVector(*counts)
        assert str(info.value) == error


@pytest.mark.parametrize("n", [True, np.int64(3), 2.0, 2.5, "3"])
def test_basis_size_n_is_an_integer(n):
    if isinstance(n, (float, str)):
        for build in (dim_pisu, enumerate_basis):
            with pytest.raises(ValueError, match="n must be an integer"):
                build(n)
    else:
        assert dim_pisu(n) == len(enumerate_basis(n)) == dim_pisu(int(n))
