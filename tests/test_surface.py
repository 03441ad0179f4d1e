"""The public names of pisu, and those the benchmark reaches through them."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pisu
import pisu.cli  # noqa: F401  (the benchmark drives the CLI as ``p.cli``)

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "BlockStructure", "Circuit", "ClosureReport", "ComparisonResult", "Gate",
    "NonCommutingOrbitError", "PauliString", "PauliSum",
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
    assert len(PUBLIC) == 46
    assert sorted(pisu.__all__) == PUBLIC
    assert all(hasattr(pisu, name) for name in PUBLIC)


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports pisu from src; return its last line as JSON."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'pisu')))"


def test_import_pisu_loads_no_submodule_and_no_numpy():
    code = "import json, sys, pisu; print(json.dumps(sorted(m for m in sys.modules if m.startswith(('pisu.', 'numpy')))))"
    assert _fresh(code) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["closure", "--qubits", "3"], []),
        (["dim", "--qubits", "2"], []),
        (["basis", "--qubits", "2"], []),
        (["verify", "--circuit", "{dir}/c.json"], ["pisu.simulator", "pisu.synthesis"]),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    (tmp_path / "c.json").write_text(pisu.circuit_to_json(pisu.synth_generator(pisu.enumerate_basis(2)[0], 0.3)))
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    code = f"import pisu.cli; assert pisu.cli.main({argv!r}) == 0\n{LOADED}"
    assert _fresh(code) == sorted(["pisu", "pisu.cli", "pisu.pauli", "pisu.symmetry", *loaded])


def test_lazy_names_list_bind_and_refuse_like_eager_ones():
    code = """import json, pisu
listed = dir(pisu)
star = {}
exec("from pisu import *", star)
try:
    pisu.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
kept = [name for name in pisu.__all__ if name in vars(pisu)]
print(json.dumps({"dir": listed, "star": sorted(set(star) - {"__builtins__"}), "kept": kept, "missing": missing}))
"""
    got = _fresh(code)
    assert set(PUBLIC) | {"ansatz", "cli", "pauli", "simulator", "symmetry", "synthesis"} <= set(got["dir"])
    assert got["star"] == sorted(got["kept"]) == PUBLIC
    assert got["missing"] == "module 'pisu' has no attribute 'no_such_name'"
    assert not hasattr(pisu, "no_such_name")


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


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every line exits 0, and a comment that quotes the output is the whole output
    block = re.search(r"^```text\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    # an exact, invariant circuit for the lines that read circuit.json
    assert pisu.cli.main(["synth", "--qubits", "2", "--type", "x:1,y:1", "--theta", "0.5", "--out", "json"]) == 0
    (tmp_path / "circuit.json").write_text(capsys.readouterr().out)
    quoted = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = command.split()
        assert program == "pisu" and pisu.cli.main(argv) == 0, line
        out = capsys.readouterr().out
        if re.fullmatch(r' *".*"', comment):
            assert out == comment.strip()[1:-1] + "\n", line
            quoted.append(argv)
    assert quoted == [["dim", "--qubits", "2"]]


def _module_rows(text: str) -> dict[str, str]:
    """The contract cell of each ``pisu.*`` row of the README module table."""
    return dict(re.findall(r"^\| `(pisu\.\w+)` *\| (.*) \|$", text, re.M))


def test_readme_rows_state_short_contracts():
    text = (ROOT / "README.md").read_text()
    assert len(text.split()) <= 1260  # whitespace-separated words
    rows = _module_rows(text)
    assert sorted(rows) == [f"pisu.{m}" for m in ("ansatz", "cli", "pauli", "simulator", "symmetry", "synthesis")]
    host_figure = re.compile(r"\d\s*(?:ms|s|µs|MiB)\b")
    for module, contract in rows.items():
        sentences = [s for s in re.split(r"[.!?](?=\s|$)", contract) if s.strip()]
        assert len(sentences) <= 3, (module, sentences)
        assert not host_figure.search(contract), (module, host_figure.findall(contract))
