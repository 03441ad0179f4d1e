"""Circuit-modification recipes: block extension and full symmetrization."""

import numpy as np
import pytest

from pisu import (
    BlockStructure,
    Circuit,
    Gate,
    PauliString,
    SymmetrizationChoice,
    SymmetrizedGenerator,
    TypeVector,
    base_variational_circuit,
    circuit_unitary,
    cnot_count,
    invariance_defect,
    naive_full_augmentation,
    swap_invariance_defect,
    swap_matrix,
    symmetrize_by_extension,
    symmetrize_fully,
    synth_generator,
    synth_string,
    transpositions,
)
from pisu.ansatz import _rotation

import oracles


def _block_exchange_matrix(bs: BlockStructure, a: int, b: int) -> np.ndarray:
    s = np.eye(2**bs.n, dtype=complex)
    for i, j in bs.exchange_pairs(a, b):
        s = s @ swap_matrix(i, j, bs.n)
    return s


def _random_binding(circuit, rng):
    return circuit.bind({name: float(rng.uniform(0, 2 * np.pi)) for name in circuit.param_names})


def test_base_circuit_three_qubits():
    c = base_variational_circuit(3, seed=5)
    assert len(c.param_names) == 6
    assert cnot_count(c) == 3
    cnots = [g.qubits for g in c.gates if g.kind == "CNOT"]
    assert cnots == [(1, 2), (2, 3), (3, 1)]


def test_base_circuit_two_qubits():
    c = base_variational_circuit(2, seed=0)
    assert len(c.param_names) == 4
    assert cnot_count(c) == 2


def test_base_circuit_parameter_names_unique():
    c = base_variational_circuit(4)
    names = [g.param for g in c.gates if g.param is not None]
    assert len(names) == len(set(names))


def test_base_circuit_needs_two_qubits():
    with pytest.raises(ValueError):
        base_variational_circuit(1)


def test_block_structure_pairs():
    bs = BlockStructure.for_extension(3, 2)
    assert bs.swap_pairs == ((1, 4), (2, 5), (3, 6))
    assert bs.exchange_pairs(1, 2) == ((1, 4), (2, 5), (3, 6))
    with pytest.raises(ValueError):
        BlockStructure(5, 2, 2)


def test_extension_invariant_under_block_exchange():
    rng = np.random.default_rng(53)
    base = base_variational_circuit(3, seed=2)
    ext = symmetrize_by_extension(base, 2)
    bs = BlockStructure.for_extension(3, 2)
    composite = _block_exchange_matrix(bs, 1, 2)
    for _ in range(4):
        u = circuit_unitary(_random_binding(ext, rng))
        assert invariance_defect(u, composite) < 1e-10


def test_extension_not_invariant_within_block():
    base = base_variational_circuit(3, seed=2)
    ext = symmetrize_by_extension(base, 2)
    u = circuit_unitary(ext)
    assert invariance_defect(u, swap_matrix(1, 2, 6)) >= 1e-10


def test_extension_preserves_parameter_count():
    base = base_variational_circuit(3, seed=7)
    for blocks in (2, 3):
        ext = symmetrize_by_extension(base, blocks)
        assert len(ext.param_names) == len(base.param_names)


def test_extension_three_blocks_all_exchanges():
    rng = np.random.default_rng(59)
    base = base_variational_circuit(2, seed=3)
    ext = symmetrize_by_extension(base, 3)
    bs = BlockStructure.for_extension(2, 3)
    u = circuit_unitary(_random_binding(ext, rng))
    for a, b in ((1, 2), (1, 3), (2, 3)):
        assert invariance_defect(u, _block_exchange_matrix(bs, a, b)) < 1e-10


def test_coupled_rotation_equals_the_synth_string_ladder():
    for n in range(1, 7):
        for mask in range(1, 2**n):
            copies = tuple(q for q in range(1, n + 1) if mask >> (q - 1) & 1)
            for kind in ("RX", "RY"):
                word = "".join(kind[1] if q in copies else "I" for q in range(1, n + 1))
                want = synth_string(PauliString.from_letters(word), 0.0, param_name="a").gates
                assert _rotation(n, Gate(kind, (1,), "b"), copies, "couple", "a") == want, word


def test_extension_couple_mode():
    rng = np.random.default_rng(61)
    base = base_variational_circuit(3, seed=2)
    ext = symmetrize_by_extension(base, 2, SymmetrizationChoice("couple", "tie"))
    # coupled X rotations appear as cross-block CNOT conjugated rotations
    cross = [g for g in ext.gates if g.kind == "CNOT" and abs(g.qubits[0] - g.qubits[1]) == 3]
    assert cross, "expected cross-block ladder gates from the coupled layer"
    assert len(ext.param_names) == len(base.param_names)
    bs = BlockStructure.for_extension(3, 2)
    u = circuit_unitary(_random_binding(ext, rng))
    assert invariance_defect(u, _block_exchange_matrix(bs, 1, 2)) < 1e-10


def test_extension_entangler_gains_swap_images():
    base = base_variational_circuit(3, seed=2)
    ext = symmetrize_by_extension(base, 2)
    cnots = {g.qubits for g in ext.gates if g.kind == "CNOT"}
    # each base gate contributes its block copies plus the cross images
    assert {(1, 2), (4, 5), (1, 5), (4, 2)} <= cnots
    assert len(cnots) == 12


def test_extension_rejects_single_block():
    with pytest.raises(ValueError):
        symmetrize_by_extension(base_variational_circuit(3), 1)


def test_extension_rejects_non_base_circuit():
    from pisu import Circuit, Gate

    mangled = Circuit(2, (Gate("H", (1,)),))
    with pytest.raises(ValueError):
        symmetrize_by_extension(mangled, 2)


def test_cnot_commutation_rule_matches_matrices():
    pairs = [((1, 2), (3, 4)), ((1, 2), (1, 3)), ((1, 2), (3, 2)), ((1, 2), (2, 3)), ((1, 2), (2, 1)), ((1, 2), (3, 1))]
    for a, b in pairs:
        ma = oracles.cnot_full(*a, 4)
        mb = oracles.cnot_full(*b, 4)
        assert oracles.cnots_commute(a, b) == (np.abs(ma @ mb - mb @ ma).max() < 1e-14), (a, b)


def _entangler_groups(n, blocks):
    """The tied extension's CNOT layer, one group of blocks**2 gates per base CNOT."""
    gates = symmetrize_by_extension(base_variational_circuit(n), blocks).gates[2 * n * blocks :]
    assert all(g.kind == "CNOT" for g in gates)
    size = blocks**2
    return [[g.qubits for g in gates[k : k + size]] for k in range(0, len(gates), size)]


@pytest.mark.parametrize("blocks", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_extension_entangler_is_the_block_swap_closure(n, blocks):
    swaps = BlockStructure.for_extension(n, blocks).swap_pairs
    want = [oracles.cnot_closure((q, q % n + 1), swaps) for q in range(1, n + 1)]
    groups = _entangler_groups(n, blocks)
    assert groups == want
    for group in groups:  # so the group's order is immaterial and block exchanges fix it
        assert all(oracles.cnots_commute(a, b) for a in group for b in group)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_naive_entangler_is_the_transposition_closure(n):
    layer = [g.qubits for g in naive_full_augmentation(base_variational_circuit(n)).gates[2 * n :]]
    closures = (oracles.cnot_closure((q, q % n + 1), transpositions(n)) for q in range(1, n + 1))
    assert layer == sorted(set().union(*closures))
    # the obstruction: the layer is not abelian, so its order matters
    assert not all(oracles.cnots_commute(a, b) for a in layer for b in layer)


def test_fully_symmetrized_invariance():
    rng = np.random.default_rng(67)
    base = base_variational_circuit(3, seed=4)
    full = symmetrize_fully(base)
    assert full.param_names == ("alpha_1", "beta_1", "gamma")
    for _ in range(4):
        u = circuit_unitary(_random_binding(full, rng))
        assert swap_invariance_defect(u, 3) < 1e-10


def test_fully_symmetrized_all_x_replacement():
    rng = np.random.default_rng(71)
    base = base_variational_circuit(3, seed=4)
    tv = TypeVector(3, 0, 0, 0)
    full = symmetrize_fully(base, SymmetrizedGenerator(tv, tv.label))
    u = circuit_unitary(_random_binding(full, rng))
    assert swap_invariance_defect(u, 3) < 1e-10


def test_fully_symmetrized_coupled_layers():
    rng = np.random.default_rng(73)
    base = base_variational_circuit(3, seed=4)
    full = symmetrize_fully(base, choice=SymmetrizationChoice("couple", "tie"))
    u = circuit_unitary(_random_binding(full, rng))
    assert swap_invariance_defect(u, 3) < 1e-10


def test_tied_rotations_equal_symmetrized_exponential():
    # a tied RX layer is exactly exp(-i a/2 (X11 + 1X1 + 11X))
    base = base_variational_circuit(3, seed=4)
    full = symmetrize_fully(base)
    alpha = 1.234
    bound = full.bind({"alpha_1": alpha, "beta_1": 0.0, "gamma": 0.0})
    u = circuit_unitary(bound)
    generator = (
        oracles.word_matrix("XII") + oracles.word_matrix("IXI") + oracles.word_matrix("IIX")
    )
    assert np.abs(u - oracles.expm_oracle(generator, alpha)).max() < 1e-10


def test_replacement_size_mismatch():
    base = base_variational_circuit(3)
    tv = TypeVector(2, 0, 0, 0)
    with pytest.raises(ValueError):
        symmetrize_fully(base, SymmetrizedGenerator(tv, tv.label))


def test_noncommuting_replacement_warns_and_falls_back():
    base = base_variational_circuit(3, seed=4)
    tv = TypeVector(1, 1, 1, 0)
    with pytest.warns(UserWarning):
        full = symmetrize_fully(base, SymmetrizedGenerator(tv, tv.label), angle=0.4)
    assert "gamma_step" in full.param_names


def test_naive_augmentation_fails_invariance():
    base = base_variational_circuit(3, seed=4)
    naive = naive_full_augmentation(base)
    u = circuit_unitary(naive)
    assert swap_invariance_defect(u, 3) >= 1e-10
    assert swap_invariance_defect(u, 3) > 1e-2


def test_recipes_compose_with_generator_circuits():
    rng = np.random.default_rng(79)
    base = base_variational_circuit(3, seed=4)

    full = symmetrize_fully(base)
    tv = TypeVector(0, 0, 2, 1)
    extra = synth_generator(SymmetrizedGenerator(tv, tv.label), 0.8, param_name="delta")
    composed = full.concat(extra)
    u = circuit_unitary(_random_binding(composed, rng))
    assert swap_invariance_defect(u, 3) < 1e-10

    ext = symmetrize_by_extension(base, 2)
    tv6 = TypeVector(2, 0, 0, 4)
    extra6 = synth_generator(SymmetrizedGenerator(tv6, tv6.label), 0.8, param_name="delta")
    composed6 = ext.concat(extra6)
    bs = BlockStructure.for_extension(3, 2)
    u6 = circuit_unitary(_random_binding(composed6, rng))
    assert invariance_defect(u6, _block_exchange_matrix(bs, 1, 2)) < 1e-10


def _rotation_layers_unitary(n, layers, params):
    """Each (param, letter, mode, copies) in order: exp(-i a/2 P) with P the letter
    on all copies when coupled, or on each copy in turn when tied."""
    u = np.eye(2**n, dtype=complex)
    for param, letter, mode, copies in layers:
        for qubits in [copies] if mode == "couple" else [(q,) for q in copies]:
            word = "".join(letter if q in qubits else "I" for q in range(1, n + 1))
            rotation = oracles.string_matrix(PauliString.from_letters(word))
            u = oracles.expm_oracle(rotation, params[param]) @ u
    return u


@pytest.mark.parametrize(
    "x_layer, y_layer", [("couple", "couple"), ("tie", "couple"), ("couple", "tie")]
)
def test_rotation_layers_rotate_about_their_own_letter(x_layer, y_layer):
    base = base_variational_circuit(2, seed=5)
    choice = SymmetrizationChoice(x_layer, y_layer)
    entangler = cnot_count(symmetrize_by_extension(base, 2))  # tied layers add no CNOTs
    ext = symmetrize_by_extension(base, 2, choice)
    layers = [(f"{name}_{p}", letter, mode, (p, p + 2))
              for name, letter, mode in (("alpha", "X", x_layer), ("beta", "Y", y_layer))
              for p in (1, 2)]
    want = _rotation_layers_unitary(4, layers, ext.params)
    got = circuit_unitary(Circuit(4, ext.gates[:-entangler], ext.params))
    assert np.abs(got - want).max() < 1e-10

    base = base_variational_circuit(3, seed=5)
    full = symmetrize_fully(base, choice=choice, angle=0.6)
    entangler = len(symmetrize_fully(base, angle=0.6).gates) - 2 * 3
    layers = [("alpha_1", "X", x_layer, (1, 2, 3)), ("beta_1", "Y", y_layer, (1, 2, 3))]
    want = _rotation_layers_unitary(3, layers, full.params)
    got = circuit_unitary(Circuit(3, full.gates[:-entangler], full.params))
    assert np.abs(got - want).max() < 1e-10


def _unbound(n, *names):
    """The base circuit with ``names`` unbound, or every parameter if none is named."""
    c = base_variational_circuit(n)
    return Circuit(n, c.gates, {k: v for k, v in c.params.items() if names and k not in names})


def _rotation_layers_swapped(n):
    c = base_variational_circuit(n)
    return Circuit(n, c.gates[n : 2 * n] + c.gates[:n] + c.gates[2 * n :], c.params)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: BlockStructure(0, 0, 1), "block_size and blocks must be positive", id="size"),
        pytest.param(lambda: BlockStructure.for_extension(2, 2).qubit(3, 1),
                     "block 3 / position 1 out of range", id="block"),
        pytest.param(lambda: BlockStructure.for_extension(2, 2).qubit(1, 3),
                     "block 1 / position 3 out of range", id="position"),
        pytest.param(lambda: SymmetrizationChoice("tie", "braid"),
                     "choice must be 'tie' or 'couple', got 'braid'", id="choice"),
        pytest.param(lambda: symmetrize_by_extension(_rotation_layers_swapped(2), 2),
                     "not a base variational circuit (RX layer malformed)", id="layer"),
        pytest.param(lambda: symmetrize_by_extension(_unbound(3), 2),
                     "not a base variational circuit (parameter 'alpha_1' unbound)", id="unbound-extension"),
        pytest.param(lambda: symmetrize_fully(_unbound(3)),
                     "not a base variational circuit (parameter 'alpha_1' unbound)", id="unbound-fully"),
        pytest.param(lambda: naive_full_augmentation(_unbound(3)),
                     "not a base variational circuit (parameter 'alpha_1' unbound)", id="unbound-naive"),
        pytest.param(lambda: symmetrize_fully(_unbound(3, "beta_2")),
                     "not a base variational circuit (parameter 'beta_2' unbound)", id="unbound-beta"),
    ],
)
def test_recipes_reject_bad_structure(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: BlockStructure(np.int64(4), 2, np.int64(2)), (4, 2, 2)),
        (lambda: BlockStructure.for_extension(True, np.int64(3)), (3, 1, 3)),
        (lambda: BlockStructure(4, 2, 2.0), "blocks must be an integer, got 2.0"),
        (lambda: BlockStructure(4, "2", 2), "block_size must be an integer, got '2'"),
        (lambda: BlockStructure.for_extension(2, 2.0), "blocks must be an integer, got 2.0"),
        (lambda: BlockStructure.for_extension(2.5, 2), "base_n must be an integer, got 2.5"),
    ],
)
def test_block_structure_fields_are_integers(build, expected):
    if isinstance(expected, tuple):
        bs = build()
        assert all(type(v) is int for v in (bs.n, bs.block_size, bs.blocks))
        assert (bs.n, bs.block_size, bs.blocks) == expected
    else:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == expected
