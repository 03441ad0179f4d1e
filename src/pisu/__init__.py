"""Permutation-invariant quantum circuits.

Enumerates the symmetrized Pauli-string basis of the permutation-invariant
subalgebra of su(2^n), verifies its Lie closure exactly, synthesizes the
corresponding gate circuits, and retrofits permutation symmetry onto
variational ansatzes, all validated by an internal dense-unitary simulator.

Each module is imported on first use of one of its names, so that
``import pisu`` and a CLI command load only what they run.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the module that defines them
_NAMES = {
    "pauli": ("PauliString", "PauliSum", "QubitLimitError", "commutator", "max_qubits", "multiply"),
    "symmetry": (
        "ClosureReport", "SymmetrizedGenerator", "TypeVector", "dim_pisu", "enumerate_basis",
        "invariance_defect", "permutation_defect", "project_onto_basis", "scaling_table",
        "swap_invariance_defect", "swap_matrix", "transpositions", "verify_closure",
    ),
    "synthesis": (
        "Circuit", "Gate", "NonCommutingOrbitError", "SynthesisPlan", "circuit_from_json",
        "circuit_from_qasm", "circuit_to_json", "circuit_to_qasm", "cnot_count", "commuting_orbit",
        "dense_exponential", "naive_cnot_budget", "synth_generator", "synth_string",
    ),
    "simulator": (
        "ComparisonResult", "UnboundParameterError", "circuit_unitary", "equal_up_to_global_phase",
        "gate_matrix", "unitarity_defect",
    ),
    "ansatz": (
        "BlockStructure", "SymmetrizationChoice", "base_variational_circuit",
        "naive_full_augmentation", "symmetrize_by_extension", "symmetrize_fully",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = (*_NAMES, "cli")

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """A public name or a submodule, imported on first use and kept in the package."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
