"""Recipes that retrofit permutation symmetry onto a variational circuit.

Two modifications of the standard rotation-rotation-entangler block are
provided: extension, which replicates the circuit across interchangeable
blocks of qubits and closes the entangling layer under block swaps, and full
symmetrization, which ties the rotation layers across all qubits and replaces
the strongly entangling layer (which cannot be made permutation invariant by
augmentation) with a synthesized invariant generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .pauli import _integer
from .symmetry import SymmetrizedGenerator, TypeVector, transpositions
from .synthesis import Circuit, Gate, SynthesisPlan, _ladder_gates, commuting_orbit, synth_generator

# product-formula steps of a non-commuting replacement entangler
REPLACEMENT_TROTTER_STEPS = 8


class NonAbelianEntanglerError(ValueError):
    """CNOT augmentation produced a non-commuting gate group.

    This is the obstruction that rules out naive augmentation when the
    required swaps act within the entangler's own qubit cycle.
    """


@dataclass(frozen=True)
class BlockStructure:
    """Qubit layout of a block-extended circuit.

    Block k (1-based) owns qubits (k-1)*block_size + 1 .. k*block_size;
    exchanging two whole blocks induces one qubit-swap pair per position.
    The fields are any integers, stored as ``int``s.
    """

    n: int
    block_size: int
    blocks: int

    def __post_init__(self) -> None:
        for name in ("n", "block_size", "blocks"):
            object.__setattr__(self, name, _integer(getattr(self, name), name + " must be an integer"))
        if self.block_size < 1 or self.blocks < 1:
            raise ValueError("block_size and blocks must be positive")
        if self.block_size * self.blocks != self.n:
            raise ValueError(
                f"{self.blocks} blocks of {self.block_size} do not cover n={self.n}"
            )

    @classmethod
    def for_extension(cls, base_n: int, blocks: int) -> "BlockStructure":
        base_n = _integer(base_n, "base_n must be an integer")
        blocks = _integer(blocks, "blocks must be an integer")
        return cls(base_n * blocks, base_n, blocks)

    def qubit(self, block: int, position: int) -> int:
        """Global 1-based index of a position within a block."""
        block = _integer(block, "block must be an integer")
        position = _integer(position, "position must be an integer")
        if not (1 <= block <= self.blocks and 1 <= position <= self.block_size):
            raise ValueError(f"block {block} / position {position} out of range")
        return (block - 1) * self.block_size + position

    def exchange_pairs(self, block_a: int, block_b: int) -> tuple[tuple[int, int], ...]:
        """Per-position qubit swaps whose product exchanges two blocks."""
        block_a = _integer(block_a, "block_a must be an integer")
        block_b = _integer(block_b, "block_b must be an integer")
        return tuple(
            (self.qubit(block_a, p), self.qubit(block_b, p))
            for p in range(1, self.block_size + 1)
        )

    @property
    def swap_pairs(self) -> tuple[tuple[int, int], ...]:
        """All per-position swap pairs over every pair of blocks."""
        out = []
        for a in range(1, self.blocks + 1):
            for b in range(a + 1, self.blocks + 1):
                out.extend(self.exchange_pairs(a, b))
        return tuple(out)


@dataclass(frozen=True)
class SymmetrizationChoice:
    """Per rotation layer: tie the block copies of a parameter, or couple
    the rotations into one multi-qubit generator.  The two are not
    equivalent and are never substituted for one another."""

    x_layer: str = "tie"
    y_layer: str = "tie"

    def __post_init__(self) -> None:
        for layer in (self.x_layer, self.y_layer):
            if layer not in ("tie", "couple"):
                raise ValueError(f"choice must be 'tie' or 'couple', got {layer!r}")


def base_variational_circuit(n: int, seed: int = 0) -> Circuit:
    """The starting ansatz block: RX layer, RY layer, cyclic CNOT layer.

    Parameters alpha_1..alpha_n and beta_1..beta_n are bound to angles drawn
    deterministically from the seed, an integer >= 0.
    """
    n, seed = _integer(n, "n must be an integer"), _integer(seed, "seed must be an integer")
    if n < 2:
        raise ValueError("the base circuit needs at least two qubits")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
    gates: list[Gate] = []
    params: dict[str, float] = {}
    for q in range(1, n + 1):
        name = f"alpha_{q}"
        gates.append(Gate("RX", (q,), name))
        params[name] = values[q - 1]
    for q in range(1, n + 1):
        name = f"beta_{q}"
        gates.append(Gate("RY", (q,), name))
        params[name] = values[n + q - 1]
    for q in range(1, n + 1):
        gates.append(Gate("CNOT", (q, q % n + 1)))
    return Circuit(n, tuple(gates), params)


def _parse_base(c: Circuit) -> tuple[tuple[Gate, ...], ...]:
    """The RX layer, RY layer and cyclic CNOT layer of a base circuit."""
    n = c.n
    if len(c.gates) != 3 * n:
        raise ValueError("not a base variational circuit (wrong gate count)")
    layers = (c.gates[:n], c.gates[n : 2 * n], c.gates[2 * n :])
    names = ("RX layer", "RY layer", "entangler")
    for layer, kind, what in zip(layers, ("RX", "RY", "CNOT"), names):
        width = 2 if kind == "CNOT" else 1
        for q, g in enumerate(layer, start=1):
            if g.kind != kind or g.qubits != (q, q % n + 1)[:width]:
                raise ValueError(f"not a base variational circuit ({what} malformed)")
    return layers


def cnots_commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Symbolic CNOT commutation: gates clash iff one's target is the other's control."""
    return a[1] != b[0] and b[1] != a[0]


def augment_entangler(
    cnots: list[tuple[int, int]],
    swaps: tuple[tuple[int, int], ...],
    *,
    require_abelian: bool = True,
) -> list[list[tuple[int, int]]]:
    """Close each CNOT under a set of qubit transpositions.

    Returns one group per input CNOT: the original plus every image under
    the group generated by the swaps, deterministically ordered.  With
    ``require_abelian`` the gates within each group must pairwise commute
    (then the group's internal order is irrelevant and conjugation by any
    generated swap fixes the group's product); a violation raises
    NonAbelianEntanglerError instead of silently emitting a broken layer.
    """

    def apply(pair: tuple[int, int], swap: tuple[int, int]) -> tuple[int, int]:
        i, j = swap
        relabel = {i: j, j: i}
        return (relabel.get(pair[0], pair[0]), relabel.get(pair[1], pair[1]))

    groups = []
    for base in cnots:
        group = {base}
        frontier = [base]
        while frontier:
            pair = frontier.pop()
            for swap in swaps:
                image = apply(pair, swap)
                if image not in group:
                    group.add(image)
                    frontier.append(image)
        ordered = sorted(group)
        if require_abelian:
            for idx, p in enumerate(ordered):
                for q in ordered[idx + 1 :]:
                    if not cnots_commute(p, q):
                        raise NonAbelianEntanglerError(
                            f"augmented CNOT group of {base} contains the "
                            f"non-commuting pair {p}, {q}"
                        )
        groups.append(ordered)
    return groups


def _rotation(
    n: int, base: Gate, copies: tuple[int, ...], mode: str, param: str
) -> tuple[Gate, ...]:
    """The base RX/RY rotation spread over its qubit copies under ``param``.

    ``tie`` puts one single-qubit rotation on each copy; ``couple`` emits
    one multi-qubit rotation about the X...X (or Y...Y) string on the copies,
    the ladder ``synth_string`` builds with its pivot on the lowest copy.
    """
    if mode == "tie":
        return tuple(Gate(base.kind, (q,), param) for q in copies)
    letters = np.full((1, n), ord("I"), dtype=np.uint8)
    letters[0, np.subtract(copies, 1)] = ord(base.kind[1])  # RX -> X, RY -> Y
    return tuple(_ladder_gates(letters, param))


def symmetrize_by_extension(
    c: Circuit, blocks: int, choice: SymmetrizationChoice | None = None
) -> Circuit:
    """Replicate a base circuit across interchangeable blocks.

    Rotation layers are tied (same parameter in every block copy) or coupled
    (one multi-qubit rotation across the copies) per the choice; the
    entangling layer gains every CNOT image under the block swaps so that
    exchanging whole blocks maps the circuit onto itself.  Tied layers keep
    the base circuit's parameter count regardless of the block count.
    """
    blocks = _integer(blocks, "blocks must be an integer")
    if blocks < 2:
        raise ValueError("extension needs at least two blocks")
    choice = choice or SymmetrizationChoice()
    rx, ry, ent = _parse_base(c)
    bs = BlockStructure.for_extension(c.n, blocks)
    gates: list[Gate] = []
    params: dict[str, float] = {}

    for layer, mode in ((rx, choice.x_layer), (ry, choice.y_layer)):
        for g in layer:
            copies = tuple(bs.qubit(k, g.qubits[0]) for k in range(1, blocks + 1))
            gates.extend(_rotation(bs.n, g, copies, mode, g.param))
            params[g.param] = c.params[g.param]

    # closing each base CNOT under the per-position block swaps reaches every
    # block copy plus the cross-block images
    base_cnots = [(g.qubits[0], g.qubits[1]) for g in ent]
    for group in augment_entangler(base_cnots, bs.swap_pairs):
        gates.extend(Gate("CNOT", pair) for pair in group)

    return Circuit(bs.n, tuple(gates), params)


def symmetrize_fully(
    c: Circuit,
    replacement: SymmetrizedGenerator | None = None,
    choice: SymmetrizationChoice | None = None,
    *,
    angle: float = 0.0,
) -> Circuit:
    """Make a base circuit invariant under every qubit transposition.

    Rotation layers are tied to a single parameter each (alpha_1, beta_1) or
    coupled into one all-qubit rotation per the choice.  The strongly
    entangling layer is not permutation invariant and cannot be fixed by
    augmentation, so it is replaced by the synthesized circuit of
    ``replacement`` (default: the symmetrized two-X generator) under the
    parameter ``gamma`` bound to ``angle``.
    """
    choice = choice or SymmetrizationChoice()
    rx, ry, _ = _parse_base(c)
    n = c.n
    gates: list[Gate] = []
    params: dict[str, float] = {}

    for layer, mode, tied_name in ((rx, choice.x_layer, "alpha_1"), (ry, choice.y_layer, "beta_1")):
        gates.extend(_rotation(n, layer[0], tuple(range(1, n + 1)), mode, tied_name))
        params[tied_name] = c.params[layer[0].param]

    if replacement is None:
        tv = TypeVector(2, 0, 0, n - 2)
        replacement = SymmetrizedGenerator(tv, tv.label)
    if replacement.n != n:
        raise ValueError(f"replacement generator spans {replacement.n} qubits, circuit has {n}")

    plan = None  # exact product
    if not commuting_orbit(replacement):
        warnings.warn(
            f"replacement orbit {replacement.label} does not commute; "
            f"falling back to a {REPLACEMENT_TROTTER_STEPS}-step product formula",
            stacklevel=2,
        )
        plan = SynthesisPlan("trotter", steps=REPLACEMENT_TROTTER_STEPS)
    entangler = synth_generator(replacement, angle, plan, param_name="gamma")
    gates.extend(entangler.gates)
    params.update(entangler.params)
    return Circuit(n, tuple(gates), params)


def naive_full_augmentation(c: Circuit) -> Circuit:
    """The counterexample circuit: tie the rotations but keep the cyclic
    entangler, augmented with its images under all qubit swaps.

    The augmented gate set is not abelian, so the result fails the
    transposition-invariance check; this is built guard-off on purpose to
    demonstrate the obstruction.
    """
    rx, ry, ent = _parse_base(c)
    n = c.n
    gates: list[Gate] = []
    params: dict[str, float] = {}
    for layer, tied_name in ((rx, "alpha_1"), (ry, "beta_1")):
        gates.extend(_rotation(n, layer[0], tuple(range(1, n + 1)), "tie", tied_name))
        params[tied_name] = c.params[layer[0].param]
    base_cnots = [(g.qubits[0], g.qubits[1]) for g in ent]
    groups = augment_entangler(base_cnots, transpositions(n), require_abelian=False)
    merged = sorted(set(pair for group in groups for pair in group))
    gates.extend(Gate("CNOT", pair) for pair in merged)
    return Circuit(n, tuple(gates), params)
