"""The public names of pisu, and those the benchmark reaches through them."""

import re
import subprocess
import sys
from pathlib import Path

import pisu
import pisu.cli  # noqa: F401  (the benchmark drives the CLI as ``p.cli``)

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "BlockStructure", "Circuit", "ClosureReport", "ComparisonResult", "Gate",
    "NonAbelianEntanglerError", "NonCommutingOrbitError", "PauliString", "PauliSum",
    "QubitLimitError", "SymmetrizationChoice", "SymmetrizedGenerator", "SynthesisPlan",
    "TypeVector", "UnboundParameterError", "__version__", "base_variational_circuit",
    "circuit_from_json", "circuit_from_qasm", "circuit_to_json", "circuit_to_qasm",
    "circuit_unitary", "cnot_count", "commutator", "commuting_orbit",
    "dense_exponential", "dim_pisu", "enumerate_basis",
    "equal_up_to_global_phase", "gate_matrix", "invariance_defect",
    "max_qubits", "multiply", "naive_cnot_budget", "naive_full_augmentation",
    "permutation_defect", "project_onto_basis", "scaling_table",
    "swap_invariance_defect", "swap_matrix", "symmetrize_by_extension", "symmetrize_fully",
    "synth_generator", "synth_string", "transpositions", "unitarity_defect", "verify_closure",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 47
    assert sorted(pisu.__all__) == PUBLIC
    assert all(hasattr(pisu, name) for name in PUBLIC)


def test_every_name_the_benchmark_uses_exists():
    # the workloads call the program as ``p.<name>`` with ``p`` the pisu package
    text = (ROOT / "perfbench" / "workloads.py").read_text()
    used = set(re.findall(r"\bp\.(\w+)", text))
    assert {"synth_generator", "swap_matrix", "invariance_defect", "cli"} <= used
    assert sorted(name for name in used if not hasattr(pisu, name)) == []


def test_benchmark_selftest_passes():
    # runs every workload at a tiny size, so it also reaches what the workloads
    # use beyond ``p.<name>``: generator orbits and sums, bracket sizes, block layouts
    run = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
