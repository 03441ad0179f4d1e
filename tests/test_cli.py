"""Command-line surface: outputs, exit codes, round trips, byte stability."""

import contextlib
import hashlib
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from pisu import (
    Circuit,
    PauliString,
    PauliSum,
    SymmetrizedGenerator,
    SynthesisPlan,
    TypeVector,
    circuit_from_json,
    circuit_from_qasm,
    circuit_to_json,
    circuit_unitary,
    cnot_count,
    commuting_orbit,
    dense_exponential,
    enumerate_basis,
    synth_generator,
)
from pisu import symmetry, synthesis
from pisu.cli import main

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_output(capsys):
    code, out, _ = run_cli(capsys, "dim", "--qubits", "2")
    assert code == 0
    assert out == "formula: 9, enumerated: 9\n"


def test_dim_table(capsys):
    code, out, _ = run_cli(capsys, "dim", "--table", "3")
    assert code == 0
    assert out.splitlines() == ["n dim_pisu dim_su", "1 3 3", "2 9 15", "3 19 63"]


def test_basis_text_golden(capsys):
    code, out, _ = run_cli(capsys, "basis", "--qubits", "2", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "1: XX = x1 x2",
        "2: XY = x1 y2 + x2 y1",
        "3: XZ = x1 z2 + x2 z1",
        "4: XI = x1 + x2",
        "5: YY = y1 y2",
        "6: YZ = y1 z2 + y2 z1",
        "7: YI = y1 + y2",
        "8: ZZ = z1 z2",
        "9: ZI = z1 + z2",
    ]


def test_basis_json(capsys):
    code, out, _ = run_cli(capsys, "basis", "--qubits", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1
    assert [g["label"] for g in data["generators"]] == ["X", "Y", "Z"]
    assert data["generators"][0]["orbit"] == ["X"]


def test_closure_pass(capsys):
    code, out, _ = run_cli(capsys, "closure", "--qubits", "2")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["pairs"] == 36
    assert data["max_residual"] == 0.0


def test_closure_fails_on_any_nonzero_residual(capsys):
    # no tolerance: the smallest positive float is a failed check, exit 1
    with mock.patch.object(symmetry, "_closure_residual", return_value=(36, 5e-324)):
        code, out, err = run_cli(capsys, "closure", "--qubits", "2")
    assert (code, err) == (1, "")
    assert out == '{"max_residual": 5e-324, "n": 2, "pairs": 36, "pass": false}\n'


@pytest.mark.parametrize(
    "tol", ["1e-12", "nan", "inf", "-inf", "0", "-1e-12", "1e-400", "-1E-12", "-Infinity", "-nan"]
)
def test_closure_takes_no_tolerance(capsys, tol):
    # the verdict is exact, so no value of --tol is read, in either form
    for argv in (("--tol", tol), (f"--tol={tol}",)):
        code, out, err = run_cli(capsys, "closure", "--qubits", "2", *argv)
        assert (code, out) == (2, "")
        assert "error: unrecognized arguments: --tol" in err


@pytest.mark.parametrize("pivot", ["5", "0", "-1"])
def test_synth_rejects_a_pivot_outside_the_register(capsys, pivot):
    code, out, err = run_cli(
        capsys, "synth", "--qubits", "3", "--type", "x:2", "--theta", "0.1", "--pivot", pivot
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: pivot {pivot} out of range 1..3"]


def test_synth_pivot_on_an_identity_letter_still_synthesizes(capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--qubits", "3", "--type", "x:2", "--theta", "0.1", "--pivot", "3"
    )
    assert code == 0 and out.startswith("OPENQASM 2.0;")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-12", "1e-400", "-1E-12", "-Infinity", "-nan"])
@pytest.mark.parametrize(
    "argv",
    [("verify", "--circuit", "unread.json"), ("ansatz", "--qubits", "2", "--mode", "full")],
)
def test_tolerance_must_be_finite_and_positive(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert f"argument --tol: must be finite and > 0, got '{tol}'" in err
    # argparse alone takes "-1e-12" and "-inf" for flags and reports a missing value
    assert run_cli(capsys, *argv, "--tol", tol) == (code, out, err)


@pytest.mark.parametrize("theta", ["-1e-3", "-2.5E+1", "-0.5", "-3", "1e-3"])
def test_spaced_negative_theta_reads_like_the_equals_form(capsys, theta):
    argv = ("synth", "--qubits", "2", "--type", "x:2")
    spaced = run_cli(capsys, *argv, "--theta", theta)
    assert spaced == run_cli(capsys, *argv, f"--theta={theta}")
    assert spaced[0] == 0 and spaced[1].startswith("OPENQASM 2.0;") and spaced[2] == ""
    assert run_cli(capsys, *argv, "--th", theta) == spaced  # an abbreviated option too


def test_spaced_negative_values_keep_every_other_reading(capsys):
    # a value that is not a number keeps the parse error of the equals form
    spaced = run_cli(capsys, "closure", "--qubits", "-1e3")
    assert spaced == run_cli(capsys, "closure", "--qubits=-1e3")
    assert spaced[0] == 2 and "argument --qubits: invalid int value: '-1e3'" in spaced[2]
    # --help takes no value, and a value after "--" or after --opt=value stays a stray argument
    assert run_cli(capsys, "closure", "--help", "-1e-3")[0] == 0
    assert run_cli(capsys, "closure", "-h", "-1e-3")[0] == 0
    code, _, err = run_cli(capsys, "closure", "--qubits=2", "-1e-3")
    assert code == 2 and "-1e-3" in err
    code, _, err = run_cli(capsys, "closure", "--qubits", "2", "--", "-1e-3")
    assert code == 2 and "unrecognized arguments: -- -1e-3" in err


def test_closure_respects_the_qubit_cap(capsys, monkeypatch):
    # the key enumeration and count bins hold 4^n entries, as a dense matrix does,
    # and the message names no dense matrix
    monkeypatch.setenv("PISU_MAX_QUBITS", "3")
    code, out, err = run_cli(capsys, "closure", "--qubits", "4")
    assert code == 2
    assert out == ""
    assert err == "error: n=4 qubits exceeds the cap of 3 (set PISU_MAX_QUBITS to raise it)\n"
    assert run_cli(capsys, "closure", "--qubits", "3")[0] == 0


@pytest.mark.parametrize("argv", [("basis", "--format", "json"), ("basis",)])
def test_orbit_expanding_commands_respect_the_qubit_cap(capsys, monkeypatch, argv):
    # basis prints all 4^n - 1 orbit strings; dim only counts types
    monkeypatch.setenv("PISU_MAX_QUBITS", "3")
    code, out, err = run_cli(capsys, *argv, "--qubits", "4")
    assert code == 2
    assert out == ""
    assert err == "error: n=4 qubits exceeds the cap of 3 (set PISU_MAX_QUBITS to raise it)\n"
    assert run_cli(capsys, *argv, "--qubits", "3")[0] == 0
    assert run_cli(capsys, "dim", "--qubits", "4") == (0, "formula: 34, enumerated: 34\n", "")


def test_count_cnots_is_a_closed_form_outside_the_qubit_cap(capsys, monkeypatch):
    # it counts orbit strings from type vectors, so the 4^n cap does not hold it
    monkeypatch.delenv("PISU_MAX_QUBITS", raising=False)
    code, out, err = run_cli(capsys, "count-cnots", "--qubits", "13")
    assert (code, err) == (0, "")
    assert out.endswith("total: 1174405122\nnaive budget: 158184\n")
    for command in ("basis", "closure"):
        assert run_cli(capsys, command, "--qubits", "13")[0] == 2
    monkeypatch.setenv("PISU_MAX_QUBITS", "3")
    code, out, err = run_cli(capsys, "count-cnots", "--qubits", "4")
    assert (code, err) == (0, "")
    assert out.endswith("total: 1026\nnaive budget: 288\n")


def test_count_cnots_holds_one_generator_at_a_time(capsys):
    # 39,710 generators at n = 60: the traced peak must not grow with their number
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(["count-cnots", "--qubits", "2"])  # first-call allocations (the parser's) are not counted
        tracemalloc.start()
        try:
            code = main(["count-cnots", "--qubits", "60"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 256 * 1024, peak
    assert run_cli(capsys, "count-cnots", "--qubits", "0") == (2, "", "error: need at least one qubit\n")


@pytest.mark.parametrize("table", ["0", "-3"])
def test_dim_table_must_be_positive(capsys, table):
    code, out, err = run_cli(capsys, "dim", f"--table={table}")
    assert code == 2
    assert out == ""
    assert f"argument --table: must be finite and > 0, got '{table}'" in err


@pytest.mark.parametrize("seed", ["-1", "-12"])
def test_ansatz_seed_must_be_non_negative(capsys, seed):
    argv = ("ansatz", "--qubits", "2", "--mode", "full")
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error" in line] == [
        f"pisu ansatz: error: argument --seed: must be finite and >= 0, got '{seed}'"
    ]
    assert run_cli(capsys, *argv, f"--seed={seed}") == (code, out, err)
    assert run_cli(capsys, *argv, "--seed", "0")[0] == 0


@pytest.mark.parametrize(
    "types, letter", [("x:1,x:1", "x"), ("y:1,x:1,Y:0", "y"), ("z:0, z:2", "z")]
)
def test_a_repeated_type_letter_is_rejected(capsys, types, letter):
    # the counts were added up: x:1,x:1 read as x:2
    code, out, err = run_cli(capsys, "synth", "--qubits", "3", "--type", types, "--theta", "0.1")
    assert (code, out) == (2, "")
    assert err == f"error: letter {letter!r} appears twice in type {types!r}\n"


def test_numeric_options_keep_their_parse_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--circuit", "unread.json", "--tol", "tiny")
    assert code == 2 and "argument --tol: invalid float value: 'tiny'" in err
    code, _, err = run_cli(capsys, "dim", "--table", "2.5")
    assert code == 2 and "argument --table: invalid int value: '2.5'" in err


def test_synth_qasm_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--qubits", "2", "--type", "x:1,y:1", "--theta", "0.5", "--out", "qasm"
    )
    assert code == 0
    circuit = circuit_from_qasm(out)
    tv = TypeVector(1, 1, 0, 0)
    want = dense_exponential(SymmetrizedGenerator(tv, tv.label), 0.5)
    assert np.abs(circuit_unitary(circuit) - want).max() < 1e-10


def test_synth_json_mode_trotter(capsys):
    code, out, _ = run_cli(
        capsys,
        "synth", "--qubits", "3", "--type", "x:1,y:1,z:1",
        "--theta", "0.4", "--mode", "trotter:2", "--out", "json",
    )
    assert code == 0
    circuit = circuit_from_json(out)
    assert circuit.n == 3
    assert "theta_step" in circuit.params


def test_synth_usage_errors(capsys):
    code, _, err = run_cli(capsys, "synth", "--qubits", "2", "--type", "x:3", "--theta", "0.1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "synth", "--qubits", "2", "--type", "", "--theta", "0.1")
    assert code == 2  # all-identity type
    code, _, err = run_cli(
        capsys, "synth", "--qubits", "2", "--type", "x:1,y:1", "--theta", "0.1", "--mode", "bogus"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "synth", "--qubits", "3", "--type", "x:1,y:1,z:1", "--theta", "0.1", "--mode", "exact"
    )
    assert code == 2 and "commute" in err


def test_verify_pass_and_fail(tmp_path, capsys):
    tv = TypeVector(2, 0, 0, 0)
    good = synth_generator(SymmetrizedGenerator(tv, tv.label), 0.7)
    good_path = tmp_path / "good.json"
    good_path.write_text(circuit_to_json(good))
    code, out, _ = run_cli(capsys, "verify", "--circuit", str(good_path))
    assert code == 0
    assert json.loads(out)["swap_invariant"] is True

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(
        json.dumps({"n": 2, "gates": [{"kind": "CNOT", "qubits": [1, 2], "param": None}], "params": {}})
    )
    code, out, _ = run_cli(capsys, "verify", "--circuit", str(bad_path))
    assert code == 1
    assert json.loads(out)["swap_invariant"] is False


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--circuit", "/nonexistent/x.json")
    assert code == 2 and "error" in err


def test_ansatz_blocks(capsys):
    code, out, _ = run_cli(capsys, "ansatz", "--qubits", "3", "--mode", "blocks:2")
    assert code == 0
    data = json.loads(out)
    assert data["invariance"]["invariant"] is True
    assert data["circuit"]["n"] == 6


def test_ansatz_full_qasm(capsys):
    code, out, _ = run_cli(capsys, "ansatz", "--qubits", "3", "--mode", "full", "--out", "qasm")
    assert code == 0
    assert out.startswith("OPENQASM 2.0;")
    assert "// invariance:" in out


def test_ansatz_bad_mode(capsys):
    code, _, err = run_cli(capsys, "ansatz", "--qubits", "3", "--mode", "spiral")
    assert code == 2


def test_count_cnots(capsys):
    code, out, _ = run_cli(capsys, "count-cnots", "--qubits", "2")
    assert code == 0
    lines = out.splitlines()
    assert "XX: 2" in lines
    assert lines[-2] == "total: 18"
    assert lines[-1] == "naive budget: 4"


@pytest.mark.parametrize("n", range(1, 8))
def test_count_cnots_equals_the_built_circuits(capsys, n):
    # each line is one ladder pass: exact product, or one trotter step
    code, out, _ = run_cli(capsys, "count-cnots", "--qubits", str(n))
    assert code == 0
    want, total = [], 0
    for gen in enumerate_basis(n):
        commuting = commuting_orbit(gen)
        plan = SynthesisPlan("exact-product") if commuting else SynthesisPlan("trotter", steps=1)
        count = cnot_count(synth_generator(gen, 0.0, plan))
        want.append(f"{gen.label}: {count}{'' if commuting else ' (per product-formula step)'}")
        total += count
    assert out.splitlines()[:-1] == [*want, f"total: {total}"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n", range(1, 7))
def test_basis_equals_the_per_string_renderers(capsys, n, fmt):
    assert run_cli(capsys, "basis", "--qubits", str(n), "--format", fmt) == (
        0, oracles.basis_by_strings(n, fmt), ""
    )


@pytest.mark.parametrize(
    "argv, built",
    [
        (("basis", "--qubits", "4"), (PauliString, PauliSum, Circuit)),
        (("basis", "--qubits", "4", "--format", "json"), (PauliString, PauliSum, Circuit)),
        (("count-cnots", "--qubits", "4"), (PauliString, PauliSum, Circuit)),
        (("ansatz", "--qubits", "3", "--mode", "blocks:2", "--choice", "couple"), (PauliString, PauliSum)),
        (("ansatz", "--qubits", "3", "--mode", "full", "--choice", "couple"), (PauliString, PauliSum)),
    ],
)
def test_orbit_commands_build_no_string_objects(capsys, argv, built):
    # they read the orbit letter arrays; building one of these objects raises,
    # with its checks or without
    def unchecked(cls, *values):
        if cls in built:
            raise AssertionError(cls)
        return real(cls, *values)

    real = synthesis._unchecked
    with contextlib.ExitStack() as stack:
        for cls in built:
            stack.enter_context(mock.patch.object(cls, "__post_init__", side_effect=AssertionError(cls)))
        stack.enter_context(mock.patch.object(synthesis, "_unchecked", unchecked))
        code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


def test_count_cnots_marks_product_formula(capsys):
    code, out, _ = run_cli(capsys, "count-cnots", "--qubits", "3")
    assert code == 0
    assert "(per product-formula step)" in out


def test_export_roundtrip(tmp_path, capsys):
    tv = TypeVector(1, 0, 1, 0)
    circuit = synth_generator(SymmetrizedGenerator(tv, tv.label), 0.9)
    src = tmp_path / "c.json"
    src.write_text(circuit_to_json(circuit))

    code, qasm_text, _ = run_cli(capsys, "export", "--circuit", str(src), "--out", "qasm")
    assert code == 0
    back = circuit_from_qasm(qasm_text)
    assert np.abs(circuit_unitary(back) - circuit_unitary(circuit)).max() < 1e-12

    qasm_path = tmp_path / "c.qasm"
    qasm_path.write_text(qasm_text)
    code, json_text, _ = run_cli(capsys, "export", "--circuit", str(qasm_path), "--out", "json")
    assert code == 0
    again = circuit_from_json(json_text)
    assert np.abs(circuit_unitary(again) - circuit_unitary(circuit)).max() < 1e-12


def test_outputs_byte_stable(capsys):
    for argv in (
        ["dim", "--qubits", "3"],
        ["basis", "--qubits", "3", "--format", "json"],
        ["closure", "--qubits", "2"],
        ["synth", "--qubits", "2", "--type", "y:2", "--theta", "0.25", "--out", "qasm"],
        ["ansatz", "--qubits", "2", "--mode", "blocks:2"],
        ["count-cnots", "--qubits", "2"],
    ):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, argv


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "basis")[0] == 2  # missing required flag
    assert run_cli(capsys)[0] == 2


def test_synth_non_finite_theta_exits_two(capsys):
    for theta in ("nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, "synth", "--qubits", "3", "--type", "x:1", f"--theta={theta}")
        assert code == 2
        assert out == ""
        assert "parameter 'theta' must be a finite angle" in err
        assert run_cli(capsys, "synth", "--qubits", "3", "--type", "x:1", "--theta", theta) == (code, out, err)


def test_verify_rejects_malformed_qubit_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(circuit_to_json(synth_generator(enumerate_basis(2)[0], 0.3)))
    for raw in ("abc", "0", "-1"):
        monkeypatch.setenv("PISU_MAX_QUBITS", raw)
        code, out, err = run_cli(capsys, "verify", "--circuit", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: PISU_MAX_QUBITS must be a positive integer, got {raw!r}\n"


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


# sha256 of stdout, pinned from pisu 0.1.0 before the dense kernels became
# index permutations; the defects are printed at full repr precision, so
# these also pin the simulator and the defect computation bit for bit.  The
# export and closure rows were pinned before the interchange functions kept
# per-call memos of distinct gates.
DENSE_GOLDENS = (
    (("ansatz", "--qubits", "4", "--mode", "full"), None, 0,
     "8304e7ef63bb9e89ec2e0704dd79e59bcda03d96f430d3541dd056340b1f1be8"),
    (("ansatz", "--qubits", "4", "--mode", "full", "--out", "qasm"), None, 0,
     "757dde5cec1aafaead038d5ed848d8474f1c07eef1075f90a7d6b160f3e1d5b6"),
    (("ansatz", "--qubits", "3", "--mode", "blocks:2"), None, 0,
     "abe34d97797b2caf9d64bf0c4a5d91c508b249ed3281260d704b8086b24e9f56"),
    (("synth", "--qubits", "4", "--type", "x:1,y:1,z:1", "--theta", "0.4",
      "--mode", "trotter:2", "--out", "json"), "c.json", 0,
     "47f1e05655e6a6f519ecb74c34383cefd4bbfc2528cbccf0f62d248ab348e405"),
    (("synth", "--qubits", "4", "--type", "x:1,y:1,z:1", "--theta", "0.4",
      "--mode", "trotter:2", "--out", "qasm"), "c.qasm", 0,
     "3722fc99a72845aebdfb9a6ecea8663642a86c9115cd096e41d4659ad9159e19"),
    (("verify", "--circuit", "{dir}/c.json"), None, 1,
     "e4fd4432ecefff07aa77599b16dfa61eed2e8e39f2f1296596888a104a5860ca"),
    (("verify", "--circuit", "{dir}/c.qasm"), None, 1,
     "e4fd4432ecefff07aa77599b16dfa61eed2e8e39f2f1296596888a104a5860ca"),
    (("export", "--circuit", "{dir}/c.json", "--out", "qasm"), None, 0,
     "3722fc99a72845aebdfb9a6ecea8663642a86c9115cd096e41d4659ad9159e19"),
    (("export", "--circuit", "{dir}/c.qasm", "--out", "json"), None, 0,
     "02f31b16a5b003c0bc78fa418bfc8d8a675c0fee2dec4eac87322bac907de448"),
    (("closure", "--qubits", "3"), None, 0,
     "b724dc6b6b57eb0bed145b13e8b79b53efd24ba52c47342476909899cfcf9b71"),
)


def test_dense_commands_golden_stdout(tmp_path, capsys):
    for argv, save_as, want_code, want_digest in DENSE_GOLDENS:
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        if save_as is not None:
            (tmp_path / save_as).write_text(out)
        assert code == want_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want_digest, argv


def test_export_reads_pi_angles_and_rejects_others(tmp_path, capsys):
    path = tmp_path / "pi.qasm"
    path.write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nrx(pi/2) q[0];\nrz(-0.5*pi) q[1];\n'
    )
    code, out, _ = run_cli(capsys, "export", "--circuit", str(path), "--out", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"p0": np.pi / 2, "p1": -0.5 * np.pi}

    path.write_text("OPENQASM 2.0;\nqreg q[1];\nrx(pi*2) q[0];\n")
    code, out, err = run_cli(capsys, "export", "--circuit", str(path), "--out", "json")
    assert code == 2
    assert out == ""
    assert "unsupported QASM angle 'pi*2' in line 'rx(pi*2) q[0];'" in err


@pytest.mark.parametrize(
    "circuit, message",
    [
        ({"n": 1, "gates": [{"qubits": [1]}]}, "error: gate 0: missing field 'kind'"),
        ({"n": 1, "gates": [{"kind": "H", "qubits": 1}]}, "error: gate 0: field 'qubits' must be a list"),
        ({"n": 1}, 'error: circuit JSON must be an object with an integer "n", a "gates" list'),
        ({"n": 1, "gates": [{"kind": "H", "qubits": [1.0]}, {"kind": "H", "qubits": [1]}]},
         "error: gate 0: qubit indices must be integers, got (1.0,)"),
        ({"n": 1, "gates": [{"kind": "H", "qubits": [1]}, {"kind": "H", "qubits": [1.0]}]},
         "error: gate 1: qubit indices must be integers, got (1.0,)"),
        ({"n": -3, "gates": []}, "error: a circuit needs at least one qubit"),
        ({"n": 0, "gates": []}, "error: a circuit needs at least one qubit"),
        ({"n": True, "gates": [{"kind": "H", "qubits": [1]}]},
         'error: circuit JSON must be an object with an integer "n", a "gates" list'),
        ({"n": 1, "gates": [{"kind": "RX", "qubits": [1], "param": [1]}]},
         "error: gate 0: RX requires a parameter name, got [1]\n"),
        ({"n": 1, "gates": [{"kind": "RX", "qubits": [1], "param": 7}]},
         "error: gate 0: RX requires a parameter name, got 7\n"),
        ({"n": 1, "gates": [{"kind": "RX", "qubits": [1], "param": "t"}], "params": {"t": True}},
         "error: parameter 't' must be a finite angle, got True\n"),
        ({"n": 1, "gates": [{"kind": "RX", "qubits": [1], "param": "t"}], "params": {"t": 10**400}},
         "error: parameter 't' must be a finite angle, got 1000"),
    ],
)
@pytest.mark.parametrize("command", ["export", "verify"])
def test_malformed_json_circuit_exits_two(tmp_path, capsys, circuit, message, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(circuit))
    argv = ("export", "--circuit", str(path), "--out", "qasm") if command == "export" else (
        "verify", "--circuit", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(message) and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["export", "verify"])
def test_a_second_qasm_register_exits_two(tmp_path, capsys, command):
    path = tmp_path / "two.qasm"
    path.write_text("qreg q[2];\nh q[0];\nqreg q[5];\n")
    code, out, err = run_cli(capsys, command, "--circuit", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: second qreg in line 'qreg q[5];'; only one qreg is supported"
    ]


@pytest.mark.parametrize("command", ["export", "verify"])
def test_a_qasm_gate_before_the_register_exits_two(tmp_path, capsys, command):
    path = tmp_path / "early.qasm"
    path.write_text("h q[3];\nqreg q[5];\n")
    code, out, err = run_cli(capsys, command, "--circuit", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: gate line 'h q[3];' comes before the qreg declaration"]


def test_verify_rejects_a_qasm_register_of_no_qubits(tmp_path, capsys):
    path = tmp_path / "empty.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[0];\n')
    code, out, err = run_cli(capsys, "verify", "--circuit", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: a circuit needs at least one qubit"]


@pytest.mark.parametrize(
    "argv, form",
    [
        (("synth", "--qubits", "2", "--type", "x:1,y:1", "--theta", "0.1", "--mode", "trotter:x"),
         "trotter:<k>"),
        (("synth", "--qubits", "2", "--type", "x:1,y:1", "--theta", "0.1", "--mode", "trotter:"),
         "trotter:<k>"),
        (("synth", "--qubits", "2", "--type", "x:1,y:1", "--theta", "0.1", "--mode", "trotter:1.5"),
         "trotter:<k>"),
        (("ansatz", "--qubits", "2", "--mode", "blocks:x"), "blocks:<b>"),
        (("ansatz", "--qubits", "2", "--mode", "blocks:"), "blocks:<b>"),
        # int reads these, but mode counts are ASCII digits
        (("synth", "--qubits", "3", "--type", "x:1,y:1,z:1", "--theta", "0.1", "--mode", "trotter:1_0"),
         "trotter:<k>"),
        (("synth", "--qubits", "3", "--type", "x:1,y:1,z:1", "--theta", "0.1", "--mode", "trotter:\u0662"),
         "trotter:<k>"),
        (("ansatz", "--qubits", "2", "--mode", "blocks:1_0"), "blocks:<b>"),
    ],
)
def test_a_malformed_mode_count_names_the_mode(capsys, argv, form):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: malformed mode {argv[-1]!r}; expected {form}, an integer after the colon"
    ]


@pytest.mark.parametrize("command", ["export", "verify"])
def test_synth_json_file_is_read_once_per_distinct_gate(tmp_path, capsys, monkeypatch, command):
    argv = ("synth", "--qubits", "3", "--type", "x:1,y:1", "--theta", "0.4", "--mode", "trotter:2",
            "--out", "json")
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0 and text.endswith("}\n")
    path = tmp_path / "c.json"
    path.write_text(text)
    real, seen = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: seen.append(s) or real(s, *a, **k))
    synthesis._json_piece.cache_clear()
    result = code, out, _ = run_cli(capsys, command, "--circuit", str(path))
    assert code in (0, 1) and out
    # "n", "params" and each distinct gate, never the whole file
    assert text not in seen and text.strip() not in seen
    assert 2 < len(seen) < text.count('"kind"')
    # the gate pieces stay parsed for the process: a second read parses "n" and "params" alone
    first, seen[:] = seen[:], []
    assert run_cli(capsys, command, "--circuit", str(path)) == result
    assert seen == first[:2]


@pytest.mark.parametrize(
    "argv, line",
    [
        (("synth", "--qubits", "\u0663", "--type", "x:1", "--theta", "0.1"),
         "argument --qubits: invalid int value: '\u0663'"),
        (("dim", "--table", "1_0"), "argument --table: invalid int value: '1_0'"),
        (("dim", "--qubits", "\uff13"), "argument --qubits: invalid int value: '\uff13'"),
        (("synth", "--qubits", "3", "--type", "x:1", "--theta", "1_0"),
         "argument --theta: invalid float value: '1_0'"),
        (("synth", "--qubits", "3", "--type", "x:1", "--theta", "\u0661.\u0665"),
         "argument --theta: invalid float value: '\u0661.\u0665'"),
        (("synth", "--qubits", "3", "--type", "x:1", "--theta", "-\u0661"),
         "argument --theta: invalid float value: '-\u0661'"),
        (("synth", "--qubits", "3", "--type", "x:1", "--theta", "0.1", "--pivot", "\u0661"),
         "argument --pivot: invalid int value: '\u0661'"),
        (("verify", "--circuit", "unread.json", "--tol", "\u0661e-3"),
         "argument --tol: invalid float value: '\u0661e-3'"),
        (("ansatz", "--qubits", "2", "--mode", "full", "--seed", "\u0663"),
         "argument --seed: invalid int value: '\u0663'"),
    ],
    ids=["qubits", "table", "fullwidth", "theta-separator", "theta", "negative-theta", "pivot", "tol",
         "seed"],
)
def test_cli_numbers_are_ascii(capsys, argv, line):
    # Python's int and float read other scripts' digits and "_" separators
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"error: {line}")
    # the spaced and the equals form agree
    assert run_cli(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}") == (code, out, err)


@pytest.mark.parametrize(
    "types, entry",
    [("x:\u00b2", "x:\u00b2"), ("x:\u0661,y:1", "x:\u0661"), ("x:1,y:1_0", "y:1_0"), ("w:1", "w:1"),
     ("x:-1", "x:-1"), ("x:+1", "x:+1"), ("x", "x"), ("x:1,,y:1", "")],
    ids=["superscript", "arabic", "separator", "letter", "minus", "plus", "no-count", "empty"],
)
def test_a_malformed_type_entry_is_named(capsys, types, entry):
    code, out, err = run_cli(capsys, "synth", "--qubits", "3", "--type", types, "--theta", "0.1")
    assert (code, out) == (2, "")
    assert err == f"error: malformed type entry {entry!r}; expected x:a,y:b,z:c\n"


def test_ascii_numbers_keep_their_readings(capsys, tmp_path):
    # signs, spaces and exponents that int and float read in ASCII still work
    plain = run_cli(capsys, "synth", "--qubits", "3", "--type", "x:1,y:1", "--theta", "0.1",
                    "--mode", "trotter:2", "--pivot", "2")
    assert plain[0] == 0 and plain[1].startswith("OPENQASM 2.0;")
    spaced = run_cli(capsys, "synth", "--qubits", " 3 ", "--type", " X: 1 ,y:01", "--theta", "+1E-1",
                     "--mode", "trotter: +2", "--pivot", "+2")
    assert spaced == plain
    assert run_cli(capsys, "dim", "--table", " +3\t") == run_cli(capsys, "dim", "--table", "3")
    path = tmp_path / "circuit.json"
    path.write_text(circuit_to_json(synth_generator(enumerate_basis(2)[1], 0.5)))
    spaced = run_cli(capsys, "verify", "--circuit", str(path), "--tol", " 1e-3 ")
    assert spaced == run_cli(capsys, "verify", "--circuit", str(path), "--tol", "1e-3")
    assert spaced[0] == 0 and json.loads(spaced[1])["tol"] == 1e-3


# sha256 of stdout, pinned before orbits and their ladder circuits were built
# from one letter array per orbit
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("basis", "--qubits", "5", "--format", "text"),
         "3bd2d53495a1fe641de0596cdeff36f7ab6ab961ebde50aca4dbd07173eb5a0a"),
        (("basis", "--qubits", "5", "--format", "json"),
         "a3b63befe37414db2e121729b34fa9cf41fa12fb3dd0025aaebdd0268d1b7d45"),
        (("count-cnots", "--qubits", "7"),
         "692797189e93d4ea958435f2b774ee1acfdc23f97f1e36245b7b48c4ad2459ef"),
    ],
    ids=["basis-text", "basis-json", "count-cnots"],
)
def test_orbit_commands_golden_stdout(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
