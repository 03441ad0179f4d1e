"""Smoke-size self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Every workload runs at a tiny size, untraced and traced, and must report no
failed item and exactly the metrics BENCHMARK.json names.  Then each
correctness gate is shown to fire: one program output at a time is made
wrong, and the run must count a failed item.  Last, the benchmark must exit
non-zero without a result line in a copy that holds no program source.
Takes about ten seconds; exits 1 on the first expectation that does not hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


TINY_CLI = (
    (("dim", "--table", "3"), None, 0, _sha("n dim_pisu dim_su\n1 3 3\n2 9 15\n3 19 63\n")),
    (("synth", "--qubits", "2", "--type", "x:1,y:1", "--theta", "0.5", "--out", "json"), "xy.json", 0,
     "78cec910cec4ddac8d9a4567859fff1641e9c05f0657a57c0d757cd14de65d89"),
    (("verify", "--circuit", "{dir}/xy.json"), None, 0,
     _sha('{"max_defect": 0.0, "n": 2, "swap_invariant": true, "tol": 1e-10}\n')),
)

TINY = {
    "closure": {"n": 3},
    "synth": {"n": 3},
    "verify": {"n": 4, "block_base": 2, "blocks": 2},
    "cli": {"steps": TINY_CLI},
}


def _wrap(obj, name, change):
    """Replace obj.<name> by a function that passes its result through change."""
    original = getattr(obj, name)
    setattr(obj, name, lambda *a, **k: change(original(*a, **k)))


def _extra_cnot(c):
    return dataclasses.replace(c, gates=c.gates + (type(c.gates[0])("CNOT", (1, 2)),))


def _shifted_angle(c):
    first = next(g.param for g in c.gates if g.param is not None)
    return c.bind({first: c.params[first] + 1e-9})


def _flipped_row(v):
    v = v.copy()
    v[0] *= -1
    return v


# (workload, traced, what is made wrong, patch applied to the imported program)
FAULTS = (
    ("closure", False, "verify_closure residual",
     lambda p: _wrap(p, "verify_closure", lambda r: dataclasses.replace(r, max_residual=1e-3))),
    ("closure", True, "projection residual in the traced decomposition",
     lambda p: _wrap(p, "project_onto_basis", lambda r: (r[0], r[1] + 1e-3))),
    ("synth", False, "one CNOT more than the closed form",
     lambda p: _wrap(p, "synth_generator", _extra_cnot)),
    ("synth", False, "QASM round-trip angle",
     lambda p: _wrap(p, "circuit_from_qasm", _shifted_angle)),
    ("verify", False, "transposition defect",
     lambda p: _wrap(p, "swap_invariance_defect", lambda d: d + 1e-6)),
    ("verify", False, "dense exponential",
     lambda p: _wrap(p, "dense_exponential", _flipped_row)),
    ("cli", False, "stdout of pisu dim",
     lambda p: _wrap(p.symmetry, "scaling_table", lambda rows: rows[:-1])),
)


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}")
        raise SystemExit(1)


def run_tiny(name: str, traced: bool, workdir: Path, patch=None):
    workload, setup_s = run.setup(name, seed=7, workdir=workdir, sizes=TINY[name])
    if patch is not None:
        patch(workload.p)
    metrics, record, _ = run.measure(name, workload, setup_s, seconds=0, trace=traced)
    return metrics, record


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        for name in run.WORKLOADS:
            for traced in (False, True):
                metrics, record = run_tiny(name, traced, workdir)
                expect(record["failed"] == 0, f"{name} trace={traced}: {record['errors']}")
                wanted = spec["per_layer" if traced else "end_to_end"]
                expect(sorted(metrics) == sorted(m["name"] for m in wanted),
                       f"{name} trace={traced}: metric names differ from BENCHMARK.json")
                expect(all(np.isfinite(v) for v in metrics.values()), f"{name}: non-finite metric")
            print(f"ok   {name}: tiny run passes, untraced and traced")

        for name, traced, what, patch in FAULTS:
            _, record = run_tiny(name, traced, workdir, patch)
            expect(record["failed"] > 0, f"{name}: a wrong {what} went unnoticed")
            print(f"ok   {name}: gate fires on a wrong {what} ({record['errors'][0][:70]}...)")

        bare = workdir / "bare"
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "synth", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without program source: exit {proc.returncode}, stdout {proc.stdout!r}")
        print("ok   without program source: exits", proc.returncode, "and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
