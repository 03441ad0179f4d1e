"""Permutation-invariant quantum circuits.

Enumerates the symmetrized Pauli-string basis of the permutation-invariant
subalgebra of su(2^n), verifies its Lie closure exactly, synthesizes the
corresponding gate circuits, and retrofits permutation symmetry onto
variational ansatzes, all validated by an internal dense-unitary simulator.
"""

from .pauli import (
    PauliString,
    PauliSum,
    QubitLimitError,
    commutator,
    max_qubits,
    multiply,
)
from .symmetry import (
    ClosureReport,
    SymmetrizedGenerator,
    TypeVector,
    dim_pisu,
    enumerate_basis,
    invariance_defect,
    permutation_defect,
    project_onto_basis,
    scaling_table,
    swap_invariance_defect,
    swap_matrix,
    transpositions,
    verify_closure,
)
from .synthesis import (
    Circuit,
    Gate,
    NonCommutingOrbitError,
    SynthesisPlan,
    circuit_from_json,
    circuit_from_qasm,
    circuit_to_json,
    circuit_to_qasm,
    cnot_count,
    commuting_orbit,
    dense_exponential,
    naive_cnot_budget,
    synth_generator,
    synth_string,
)
from .simulator import (
    ComparisonResult,
    UnboundParameterError,
    circuit_unitary,
    equal_up_to_global_phase,
    gate_matrix,
    unitarity_defect,
)
from .ansatz import (
    BlockStructure,
    NonAbelianEntanglerError,
    SymmetrizationChoice,
    base_variational_circuit,
    naive_full_augmentation,
    symmetrize_by_extension,
    symmetrize_fully,
)

__version__ = "0.1.0"

__all__ = [
    "PauliString",
    "PauliSum",
    "QubitLimitError",
    "commutator",
    "max_qubits",
    "multiply",
    "ClosureReport",
    "SymmetrizedGenerator",
    "TypeVector",
    "dim_pisu",
    "enumerate_basis",
    "invariance_defect",
    "permutation_defect",
    "project_onto_basis",
    "scaling_table",
    "swap_invariance_defect",
    "swap_matrix",
    "transpositions",
    "verify_closure",
    "Circuit",
    "Gate",
    "NonCommutingOrbitError",
    "SynthesisPlan",
    "circuit_from_json",
    "circuit_from_qasm",
    "circuit_to_json",
    "circuit_to_qasm",
    "cnot_count",
    "commuting_orbit",
    "dense_exponential",
    "naive_cnot_budget",
    "synth_generator",
    "synth_string",
    "ComparisonResult",
    "UnboundParameterError",
    "circuit_unitary",
    "equal_up_to_global_phase",
    "gate_matrix",
    "unitarity_defect",
    "BlockStructure",
    "NonAbelianEntanglerError",
    "SymmetrizationChoice",
    "base_variational_circuit",
    "naive_full_augmentation",
    "symmetrize_by_extension",
    "symmetrize_fully",
    "__version__",
]
