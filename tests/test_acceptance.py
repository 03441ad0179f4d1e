"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Two sub-claims are marked as strict expected failures because they
are mathematically unattainable as stated; the analysis lives in the
expectation reasons and the package README.
"""

import time

import numpy as np
import pytest

from pisu import (
    SymmetrizedGenerator,
    TypeVector,
    base_variational_circuit,
    circuit_unitary,
    commutator,
    commuting_orbit,
    dense_exponential,
    dim_pisu,
    enumerate_basis,
    equal_up_to_global_phase,
    invariance_defect,
    naive_full_augmentation,
    project_onto_basis,
    scaling_table,
    swap_invariance_defect,
    swap_matrix,
    symmetrize_by_extension,
    symmetrize_fully,
    synth_generator,
    verify_closure,
)
from pisu.ansatz import BlockStructure
from pisu.synthesis import SynthesisPlan

import oracles


def _verdict(number: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_dimension_formula():
    start = time.perf_counter()
    ok = all(len(enumerate_basis(n)) == dim_pisu(n) == (n + 3) * (n + 2) * (n + 1) // 6 - 1
             for n in range(1, 9))
    ok = ok and dim_pisu(2) == 9
    _verdict(1, ok, time.perf_counter() - start, 1.0,
             "basis size equals (n+3)(n+2)(n+1)/6 - 1 for n=1..8; n=2 gives 9")


def test_criterion_02_two_qubit_generator_table():
    start = time.perf_counter()
    reference = [
        {"XX"},
        {"XY", "YX"},
        {"XZ", "ZX"},
        {"XI", "IX"},
        {"YY"},
        {"YZ", "ZY"},
        {"YI", "IY"},
        {"ZZ"},
        {"ZI", "IZ"},
    ]
    basis = enumerate_basis(2)
    ok = [{s.letters for s in g.orbit} for g in basis] == reference
    ok = ok and all(s.coeff == 1 for g in basis for s in g.orbit)
    _verdict(2, ok, time.perf_counter() - start, 1.0,
             "the nine two-qubit generators match the reference symmetrized sets")


def test_criterion_03_two_qubit_circuit_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for gen in enumerate_basis(2):
        for _ in range(20):
            theta = float(rng.uniform(0, 2 * np.pi))
            circuit = synth_generator(gen, theta, SynthesisPlan("exact-product"))
            result = equal_up_to_global_phase(
                circuit_unitary(circuit), dense_exponential(gen, theta), 1e-10
            )
            worst = max(worst, result.max_abs_diff)
            if not result.passed:
                _verdict(3, False, time.perf_counter() - start, 5.0,
                         f"{gen.label} deviates by {result.max_abs_diff:.2e}")
    _verdict(3, worst < 1e-10, time.perf_counter() - start, 5.0,
             f"all 9 circuits match dense exponentials, worst {worst:.2e}")


def test_criterion_04_swap_invariance_of_synthesized_circuits():
    start = time.perf_counter()
    worst = 0.0
    circuits = unitaries = 0
    for n in range(2, 6):
        for gen in enumerate_basis(n):
            if commuting_orbit(gen):
                u = circuit_unitary(synth_generator(gen, 0.77, SynthesisPlan("exact-product")))
                circuits += 1
            else:
                u = dense_exponential(gen, 0.77)
                unitaries += 1
            worst = max(worst, swap_invariance_defect(u, n))
    _verdict(4, worst < 1e-10, time.perf_counter() - start, 30.0,
             f"{circuits} exact-product circuits and {unitaries} dense generator "
             f"unitaries (n=2..5) invariant under all transpositions, worst {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable sub-claim: a first-order product step over a "
    "non-commuting orbit cannot be exactly swap invariant under any factor "
    "ordering (exhaustive 720-ordering search at n=3); its defect scales as "
    "theta^2/steps, far above 1e-10",
)
def test_criterion_04_trotterized_circuits_at_tolerance():
    tv = TypeVector(1, 1, 1, 0)
    gen = SymmetrizedGenerator(tv, tv.label)
    u = circuit_unitary(synth_generator(gen, 0.77, SynthesisPlan("trotter", steps=16)))
    defect = swap_invariance_defect(u, 3)
    print(f"[FAIL expected] criterion 4 (product-formula circuits): defect {defect:.2e} > 1e-10")
    assert defect < 1e-10


def test_criterion_05_lie_closure():
    start = time.perf_counter()
    reports = [verify_closure(n) for n in range(1, 6)]
    ok = all(r.passed for r in reports)
    worst = max(r.max_residual for r in reports)
    pairs = sum(r.pairs for r in reports)
    _verdict(5, ok, time.perf_counter() - start, 60.0,
             f"exhaustive brackets closed for n=1..5 ({pairs} pairs, max residual {worst:.1e})")


def test_criterion_06_commutation_claim():
    start = time.perf_counter()
    # certified core: identity-free orbits with at most two distinct letters
    # commute, and the three-letter orbit at n=3 does not
    ok = True
    for n in range(2, 6):
        for gen in enumerate_basis(n):
            tv = gen.type_vector
            if tv.n_i == 0 and tv.distinct_letters() <= 2:
                ok = ok and oracles.commuting_orbit_by_pairs(gen)
    xyz = SymmetrizedGenerator(TypeVector(1, 1, 1, 0), "XYZ")
    ok = ok and not oracles.commuting_orbit_by_pairs(xyz)
    _verdict(6, ok, time.perf_counter() - start, 5.0,
             "identity-free two-letter orbits commute for n<=5; the n=3 "
             "three-letter orbit is certified non-commuting")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: orbits with two distinct letters plus "
    "identities are not pairwise commuting; [X(x)Y(x)1, 1(x)X(x)Y] != 0 "
    "(one overlapping anticommuting position), so the two-of-three "
    "condition only holds identity-free",
)
def test_criterion_06_two_letter_orbits_with_identities():
    for n in range(2, 6):
        for gen in enumerate_basis(n):
            if gen.type_vector.distinct_letters() <= 2:
                if not oracles.commuting_orbit_by_pairs(gen):
                    print(f"[FAIL expected] criterion 6: {gen.label} (n={n}) does not commute")
                assert oracles.commuting_orbit_by_pairs(gen), gen.label


def test_criterion_07_structure_constant_identity():
    start = time.perf_counter()
    basis = enumerate_basis(2)
    labels = [g.label for g in basis]
    single = {"x": "XI", "y": "YI", "z": "ZI"}
    epsilon = {("x", "y"): ("z", 1), ("y", "z"): ("x", 1), ("z", "x"): ("y", 1),
               ("y", "x"): ("z", -1), ("z", "y"): ("x", -1), ("x", "z"): ("y", -1)}
    worst = 0.0
    ok = True
    for (a, b), (c, sign) in epsilon.items():
        bracket = commutator(
            basis[labels.index(single[a])].as_sum, basis[labels.index(single[b])].as_sum
        )
        coeffs, residual = project_onto_basis(bracket, basis)
        worst = max(worst, residual)
        ok = ok and coeffs[labels.index(single[c])] == sign * 2j
        ok = ok and sum(1 for value in coeffs if value != 0) == 1
    _verdict(7, ok and worst < 1e-12, time.perf_counter() - start, 1.0,
             f"[sym(a), sym(b)] = 2i eps_abc sym(c) for all a != b, residual {worst:.1e}")


def test_criterion_08_group_closure_of_exponentials():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    n = 3
    basis = enumerate_basis(n)
    ok = True
    for _ in range(100):
        u = np.eye(2**n, dtype=complex)
        v = np.eye(2**n, dtype=complex)
        for _ in range(2):
            gu = basis[int(rng.integers(len(basis)))]
            gv = basis[int(rng.integers(len(basis)))]
            u = dense_exponential(gu, float(rng.uniform(0, 2 * np.pi))) @ u
            v = dense_exponential(gv, float(rng.uniform(0, 2 * np.pi))) @ v
        ok = ok and swap_invariance_defect(u @ v, n) < 1e-10
        ok = ok and swap_invariance_defect(np.linalg.inv(u), n) < 1e-10
    _verdict(8, ok, time.perf_counter() - start, 10.0,
             "products and inverses of 100 random generator exponentials stay invariant")


def test_criterion_09_trotter_convergence():
    start = time.perf_counter()
    gen = SymmetrizedGenerator(TypeVector(1, 1, 1, 0), "XYZ")
    theta = 0.9
    exact = dense_exponential(gen, theta)
    errors = []
    for k in (1, 2, 4, 8, 16):
        u = circuit_unitary(synth_generator(gen, theta, SynthesisPlan("trotter", steps=k)))
        errors.append(float(np.abs(u - exact).max()))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    _verdict(9, ok, time.perf_counter() - start, 10.0,
             f"error halves (+-25%) as steps double: ratios "
             f"{', '.join(f'{r:.2f}' for r in ratios)}")


def test_criterion_10_ansatz_extension():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    base = base_variational_circuit(3, seed=9)
    extended = symmetrize_by_extension(base, 2)
    bs = BlockStructure.for_extension(3, 2)
    composite = np.eye(2**6, dtype=complex)
    for i, j in bs.exchange_pairs(1, 2):
        composite = composite @ swap_matrix(i, j, 6)
    ok = len(extended.param_names) == 6
    for _ in range(3):
        bound = extended.bind(
            {name: float(rng.uniform(0, 2 * np.pi)) for name in extended.param_names}
        )
        u = circuit_unitary(bound)
        ok = ok and invariance_defect(u, composite) < 1e-10
        ok = ok and invariance_defect(u, swap_matrix(1, 2, 6)) >= 1e-10
    _verdict(10, ok, time.perf_counter() - start, 5.0,
             "6-qubit extension: block-exchange invariant, not SWAP(1,2) "
             "invariant, 6 parameters preserved")


def test_criterion_11_ansatz_full_symmetrization():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    base = base_variational_circuit(3, seed=9)
    full = symmetrize_fully(base)
    ok = True
    for _ in range(3):
        bound = full.bind({name: float(rng.uniform(0, 2 * np.pi)) for name in full.param_names})
        ok = ok and swap_invariance_defect(circuit_unitary(bound), 3) < 1e-10
    naive = naive_full_augmentation(base)
    ok = ok and swap_invariance_defect(circuit_unitary(naive), 3) >= 1e-10
    _verdict(11, ok, time.perf_counter() - start, 5.0,
             "fully symmetrized 3-qubit circuit invariant under all "
             "transpositions; naive CNOT augmentation certified to fail")


def test_criterion_12_scaling_table():
    start = time.perf_counter()
    rows = scaling_table(10)
    print("n  dim(invariant)  dim(full su)")
    for n, d_pi, d_su in rows:
        print(f"{n:2d}  {d_pi:14d}  {d_su:12d}")
    ok = rows[-1] == (10, (13 * 12 * 11) // 6 - 1, 4**10 - 1)
    ok = ok and all(d_pi == (n + 3) * (n + 2) * (n + 1) // 6 - 1 for n, d_pi, _ in rows)
    _verdict(12, ok, time.perf_counter() - start, 1.0,
             "cubic vs exponential parameter scaling tabulated for n=1..10")
