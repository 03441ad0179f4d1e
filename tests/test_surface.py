"""The public names of pisu, and those the benchmark reaches through them."""

import re
from pathlib import Path

import pisu
import pisu.cli  # noqa: F401  (the benchmark drives the CLI as ``p.cli``)

PUBLIC = [
    "BlockStructure", "Circuit", "ClosureReport", "ComparisonResult", "Gate",
    "NonAbelianEntanglerError", "NonCommutingOrbitError", "PauliString", "PauliSum",
    "QubitLimitError", "SymmetrizationChoice", "SymmetrizedGenerator", "SynthesisPlan",
    "TypeVector", "UnboundParameterError", "__version__", "base_variational_circuit",
    "circuit_from_json", "circuit_from_qasm", "circuit_to_json", "circuit_to_qasm",
    "circuit_unitary", "cnot_count", "commutator", "commutes", "commuting_orbit",
    "conjugate_by_swap", "dense_exponential", "dim_pisu", "enumerate_basis",
    "equal_up_to_global_phase", "gate_matrix", "invariance_defect",
    "max_qubits", "multiply", "naive_cnot_budget", "naive_full_augmentation",
    "permutation_defect", "project_onto_basis", "scaling_table",
    "swap_invariance_defect", "swap_matrix", "symmetrize_by_extension", "symmetrize_fully",
    "synth_generator", "synth_string", "transpositions", "unitarity_defect", "verify_closure",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 49
    assert sorted(pisu.__all__) == PUBLIC
    assert all(hasattr(pisu, name) for name in PUBLIC)


def test_every_name_the_benchmark_uses_exists():
    # the workloads call the program as ``p.<name>`` with ``p`` the pisu package
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    used = set(re.findall(r"\bp\.(\w+)", text))
    assert {"synth_generator", "swap_matrix", "invariance_defect", "cli"} <= used
    assert sorted(name for name in used if not hasattr(pisu, name)) == []
