"""Command-line surface: deterministic, scriptable access to every module.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 usage error.  The PISU_MAX_QUBITS environment variable overrides the
dense-matrix qubit cap (default 12).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import ansatz as ansatz_mod
from . import simulator, symmetry, synthesis
from .pauli import check_qubit_cap
from .symmetry import TypeVector


def _number(kind, bound: str | None = None):
    """argparse type reading ``kind``, ``int`` or ``float``, from ASCII text without ``_``.

    Both also read other scripts' digits and spaces, and ``_`` between
    digits; on the rest of ASCII they read signed decimals (float also
    ``inf`` and ``nan``) with spaces around them.  ``bound``, ``"> 0"`` or
    ``">= 0"``, asks for a finite value on that side of 0.  Text that is not
    such a number keeps argparse's message, such as ``invalid int value: '٣'``.
    """

    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"not an ASCII number: {text!r}")
        value = kind(text)
        signed = value > 0 if bound == "> 0" else value >= 0  # false for nan
        if bound and not (signed and value < float("inf")):
            raise argparse.ArgumentTypeError(f"must be finite and {bound}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # the type argparse names in its message
    return parse


_int, _float = _number(int), _number(float)


def _json_out(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _cmd_dim(args) -> int:
    if args.table:
        print("n dim_pisu dim_su")
        for n, d_pi, d_su in symmetry.scaling_table(args.table):
            print(f"{n} {d_pi} {d_su}")
        return 0
    formula = symmetry.dim_pisu(args.qubits)
    enumerated = len(symmetry.enumerate_basis(args.qubits))
    print(f"formula: {formula}, enumerated: {enumerated}")
    return 0 if formula == enumerated else 1


def _cmd_basis(args) -> int:
    check_qubit_cap(args.qubits)  # all 4^n - 1 orbit strings are printed
    n = args.qubits
    basis = symmetry.enumerate_basis(n)
    if args.format == "text":
        # paper notation, "x2 y1" for YX: each row's tokens sorted by (letter, qubit); I sorts
        # before X in ASCII, so a row's identity tokens lead and are dropped
        tokens = np.array([f"{c}{q}" for c in "xyz" for q in range(1, n + 1)], dtype=object)
        for idx, gen in enumerate(basis, start=1):
            keys = np.sort(gen._letters * np.intp(n) + np.arange(n), axis=1)[:, gen.type_vector.n_i :]
            orbit = " + ".join(map(" ".join, tokens[keys - ord("X") * n].tolist()))
            print(f"{idx}: {gen.label} = {orbit}")
        return 0
    generators = []
    for idx, gen in enumerate(basis, start=1):
        tv = gen.type_vector
        words = gen._letters.view(f"S{n}").ravel().astype(str)  # one word per row
        generators.append(
            {"index": idx, "label": gen.label, "type": [tv.n_x, tv.n_y, tv.n_z, tv.n_i], "orbit": words.tolist()}
        )
    print(_json_out({"n": n, "generators": generators}))
    return 0


def _cmd_closure(args) -> int:
    report = symmetry.verify_closure(args.qubits)
    print(report.to_json())
    return 0 if report.passed else 1


def _parse_type(text: str, n: int) -> TypeVector:
    counts: dict[str, int] = {}
    if text:
        for part in text.split(","):
            key, _, value = part.partition(":")
            key = key.strip().lower()
            if key not in ("x", "y", "z") or not (value.isascii() and value.strip().isdigit()):
                raise ValueError(f"malformed type entry {part!r}; expected x:a,y:b,z:c")
            if key in counts:
                raise ValueError(f"letter {key!r} appears twice in type {text!r}")
            counts[key] = _int(value)
    n_x, n_y, n_z = (counts.get(key, 0) for key in "xyz")
    n_i = n - n_x - n_y - n_z
    if n_i < 0:
        raise ValueError(f"letter counts exceed {n} qubits")
    tv = TypeVector(n_x, n_y, n_z, n_i)
    if tv.is_identity:
        raise ValueError("the all-identity type has no generator")
    return tv


def _mode_count(text: str, form: str) -> int:
    """The integer after the colon of ``text``, a mode of the form ``form``."""
    try:
        return _int(text.split(":", 1)[1])
    except ValueError:
        message = f"malformed mode {text!r}; expected {form}, an integer after the colon"
        raise ValueError(message) from None


def _parse_mode(text: str) -> synthesis.SynthesisPlan:
    if text == "exact":
        return synthesis.SynthesisPlan("exact-product")
    if text.startswith("trotter:"):
        return synthesis.SynthesisPlan("trotter", steps=_mode_count(text, "trotter:<k>"))
    raise ValueError(f"unknown mode {text!r}; expected exact or trotter:<k>")


def _emit_circuit(c: synthesis.Circuit, fmt: str) -> None:
    if fmt == "qasm":
        sys.stdout.write(synthesis.circuit_to_qasm(c))
    else:
        print(synthesis.circuit_to_json(c))


def _cmd_synth(args) -> int:
    tv = _parse_type(args.type, args.qubits)
    gen = symmetry.SymmetrizedGenerator(tv, tv.label)
    plan = _parse_mode(args.mode)
    if args.pivot is not None:
        plan = synthesis.SynthesisPlan(plan.mode, plan.steps, args.pivot)
    circuit = synthesis.synth_generator(gen, args.theta, plan)
    _emit_circuit(circuit, args.out)
    return 0


def _load_circuit(path: str) -> synthesis.Circuit:
    text = Path(path).read_text()
    if path.endswith(".qasm"):
        return synthesis.circuit_from_qasm(text)
    return synthesis.circuit_from_json(text)


def _cmd_verify(args) -> int:
    circuit = _load_circuit(args.circuit)
    u = simulator.circuit_unitary(circuit)
    defect = symmetry.swap_invariance_defect(u, circuit.n)
    verdict = defect < args.tol
    print(
        _json_out(
            {
                "n": circuit.n,
                "max_defect": defect,
                "swap_invariant": verdict,
                "tol": args.tol,
            }
        )
    )
    return 0 if verdict else 1


def _cmd_ansatz(args) -> int:
    base = ansatz_mod.base_variational_circuit(args.qubits, seed=args.seed)
    choice = ansatz_mod.SymmetrizationChoice(args.choice, args.choice)
    rng = np.random.default_rng(args.seed + 1)
    if args.mode == "full":
        circuit = ansatz_mod.symmetrize_fully(
            base, choice=choice, angle=float(rng.uniform(0, 2 * np.pi))
        )
        u = simulator.circuit_unitary(circuit)
        defect = symmetry.swap_invariance_defect(u, circuit.n)
        report = {"mode": "full", "max_transposition_defect": defect, "invariant": defect < args.tol}
    elif args.mode.startswith("blocks:"):
        blocks = _mode_count(args.mode, "blocks:<b>")
        circuit = ansatz_mod.symmetrize_by_extension(base, blocks, choice)
        bs = ansatz_mod.BlockStructure.for_extension(args.qubits, blocks)
        u = simulator.circuit_unitary(circuit)
        defects = []
        for a in range(1, blocks + 1):
            for b in range(a + 1, blocks + 1):
                perm = list(range(bs.n))
                for i, j in bs.exchange_pairs(a, b):  # disjoint qubit pairs
                    perm[i - 1], perm[j - 1] = j - 1, i - 1
                defects.append(symmetry.permutation_defect(u, perm))
        worst = max(defects)
        report = {
            "mode": "blocks",
            "blocks": blocks,
            "max_block_exchange_defect": worst,
            "invariant": worst < args.tol,
        }
    else:
        raise ValueError(f"unknown ansatz mode {args.mode!r}; expected blocks:<b> or full")

    if args.out == "qasm":
        sys.stdout.write(synthesis.circuit_to_qasm(circuit))
        print(f"// invariance: {_json_out(report)}")
    else:
        print(_json_out({"circuit": json.loads(synthesis.circuit_to_json(circuit)), "invariance": report}))
    return 0 if report["invariant"] else 1


def _cmd_count_cnots(args) -> int:
    symmetry.dim_pisu(args.qubits)  # refuses n < 1 before any line is printed
    total = 0
    for tv in symmetry.type_vectors(args.qubits):  # one generator at a time, so memory does not grow with n
        gen = symmetry.SymmetrizedGenerator(tv, tv.label)
        # one ladder pass (exact product, or one product-formula step) of 2(w - 1) CNOTs per string
        count = tv.orbit_size() * 2 * (tv.n - tv.n_i - 1)
        suffix = "" if synthesis.commuting_orbit(gen) else " (per product-formula step)"
        total += count
        print(f"{gen.label}: {count}{suffix}")
    print(f"total: {total}")
    print(f"naive budget: {synthesis.naive_cnot_budget(args.qubits)}")
    return 0


def _cmd_export(args) -> int:
    circuit = _load_circuit(args.circuit)
    _emit_circuit(circuit, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisu",
        description="Permutation-invariant quantum circuit toolkit.",
        epilog="PISU_MAX_QUBITS overrides the dense-matrix qubit cap (default 12).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension formula vs. enumerated basis size")
    p.add_argument("--qubits", type=_int, default=2)
    p.add_argument("--table", type=_number(int, "> 0"), metavar="N", help="print the scaling table for n=1..N")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("basis", help="enumerate the symmetrized-string basis")
    p.add_argument("--qubits", type=_int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("closure", help="verify Lie closure by exhaustive brackets")
    p.add_argument("--qubits", type=_int, required=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("synth", help="synthesize a generator exponential")
    p.add_argument("--qubits", type=_int, required=True)
    p.add_argument("--type", required=True, help="letter counts, e.g. x:1,y:1 (rest identity)")
    p.add_argument("--theta", type=_float, required=True)
    p.add_argument("--mode", default="exact", help="exact or trotter:<k>")
    p.add_argument("--pivot", type=_int)
    p.add_argument("--out", choices=("qasm", "json"), default="qasm")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="check SWAP invariance of a circuit file")
    p.add_argument("--circuit", required=True, help="path to a .json or .qasm circuit")
    p.add_argument("--tol", type=_number(float, "> 0"), default=1e-10)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ansatz", help="symmetrize the base variational circuit")
    p.add_argument("--qubits", type=_int, required=True)
    p.add_argument("--mode", required=True, help="blocks:<b> or full")
    p.add_argument("--choice", choices=("tie", "couple"), default="tie")
    p.add_argument("--seed", type=_number(int, ">= 0"), default=0)
    p.add_argument("--tol", type=_number(float, "> 0"), default=1e-10)
    p.add_argument("--out", choices=("qasm", "json"), default="json")
    p.set_defaults(func=_cmd_ansatz)

    p = sub.add_parser("count-cnots", help="actual CNOT counts vs. the naive formula")
    p.add_argument("--qubits", type=_int, required=True)
    p.set_defaults(func=_cmd_count_cnots)

    p = sub.add_parser("export", help="convert a circuit file between formats")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", choices=("qasm", "json"), default="qasm")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes -1e-3 or -inf for a flag: pass --opt=-1e-3
        prev = argv[i - 1]  # every long option but --help takes one value
        long_option = prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
        if long_option and re.match(r"-(\.?[0-9]|inf|nan)", argv[i], re.I):
            argv[i - 1 : i + 1] = [f"{prev}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
