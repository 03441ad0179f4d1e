"""pisu benchmark: one workload per process, checked outputs, metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 10 --trace 0

The program is imported from ./src.  A run sets up several times and keeps
the median as ``setup_s``, then repeats whole passes of the workload until
``--seconds`` have elapsed (at least one pass).  Reported times are scaled
to a reference host speed measured by a fixed probe task; the record line
keeps the unscaled pass time and the probe time.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs
the untraced passes first and then traced ones, reports the per-layer
metrics, and writes the spans to perfbench/out/.  The last line of stdout is
the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from spans import NoSpans, Spans  # noqa: E402
from workloads import WORKLOADS, Facts, Log, speed_probe  # noqa: E402

SETUP_REPEATS = 9
# speed_probe's time at the reference host speed.  Every reported time is
# multiplied by PROBE_REF_S over the median probe time of its run.
PROBE_REF_S = 0.009
PROBES_PER_PASS = 3

# ROADMAP baseline rows that fall inside a workload: (row, low, high, unit).
BASELINES = {
    "closure": [("verify_closure n=5", 1.0, 1.7, "s")],
    "synth": [("count-cnots total n=6", 28674, 28674, "count")],
}


def import_program():
    """Import pisu afresh from ./src, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "pisu" or m.startswith("pisu.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pisu = importlib.import_module("pisu")
    importlib.import_module("pisu.cli")
    if not Path(pisu.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"pisu was imported from {pisu.__file__}, not from {src}")
    return pisu


def blas_info() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if core is not None:
                    core.restype = ctypes.c_char_p
                    info["core"] = core().decode()
    return info


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def run_passes(workload, seconds: float, rec, log: Log, traced: bool) -> list[Facts]:
    """Whole passes until ``seconds`` have elapsed, at least one; probes around each."""
    facts = []
    start = perf_counter()
    while True:
        log.probes.extend(speed_probe() for _ in range(PROBES_PER_PASS))
        log.passes.append([])
        facts.append(Facts())
        workload.run_pass(rec, log, facts[-1], traced)
        if perf_counter() - start >= seconds:
            log.probes.extend(speed_probe() for _ in range(PROBES_PER_PASS))
            return facts


def speed_scale(workload, log: Log) -> float:
    """PROBE_REF_S over the run's median probe, or 1 for an unscaled workload."""
    return PROBE_REF_S / statistics.median(log.probes) if workload.scale_to_reference else 1.0


def scaled_passes(workload, log: Log) -> tuple[list[float], list[float]]:
    """Pass times and item latencies scaled to the reference host speed.

    A run on a slowed host so reports what it would take at the reference
    speed.  A pass takes the sum of its item latencies.
    """
    scale = speed_scale(workload, log)
    walls = [sum(latencies) * scale for latencies in log.passes]
    items = [t * scale for latencies in log.passes for t in latencies]
    return walls, items


def layer_metrics(workload, spans: Spans, facts: Facts, log: Log, overhead: float) -> dict:
    """Per-layer metrics of the traced passes, each a per-pass value; times are scaled."""
    times = spans.self_times()
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    passes = len(log.passes)
    scale = speed_scale(workload, log)

    def calls(name):
        return times.get(name, empty)["calls"] / passes

    def self_s(name):
        return times.get(name, empty)["self_s"] / passes * scale

    def pct(name, q, unit):
        return percentile(times.get(name, empty)["durations"], q) * scale * unit

    def per_s(count, name):
        busy = self_s(name)
        return count / busy if busy > 0 else 0.0

    getattr(workload, "untimed_facts", lambda f: None)(facts)
    fact = lambda key: facts.get(key, 0)  # noqa: E731
    return {
        "pauli.commutator.calls": calls("pauli.commutator"),
        "pauli.commutator.self_s": self_s("pauli.commutator"),
        "pauli.commutator.p50_us": pct("pauli.commutator", 50, 1e6),
        "pauli.commutator.p99_us": pct("pauli.commutator", 99, 1e6),
        "pauli.term_pairs": fact("pauli.term_pairs"),
        "pauli.products": fact("pauli.products"),
        "pauli.anticommuting_ratio": fact("pauli.anticommuting_ratio"),
        "pauli.bracket_terms": fact("pauli.bracket_terms"),
        "symmetry.enumerate_basis.self_s": self_s("symmetry.enumerate_basis"),
        "symmetry.project.self_s": self_s("symmetry.project"),
        "symmetry.orbit_strings": fact("symmetry.orbit_strings"),
        "symmetry.project.calls": calls("symmetry.project"),
        "symmetry.max_residual": fact("symmetry.max_residual"),
        "symmetry.swap_defect.self_s": self_s("symmetry.swap_defect"),
        "symmetry.block_defect.self_s": self_s("symmetry.block_defect"),
        "symmetry.transpositions": fact("symmetry.transpositions"),
        "symmetry.max_defect": fact("symmetry.max_defect"),
        "synthesis.synth_generator.calls": calls("synthesis.synth_generator"),
        "synthesis.synth_generator.self_s": self_s("synthesis.synth_generator"),
        "synthesis.synth_generator.p90_ms": pct("synthesis.synth_generator", 90, 1e3),
        "synthesis.commuting_orbit.self_s": self_s("synthesis.commuting_orbit"),
        "synthesis.gates_out": fact("synthesis.gates_out"),
        "synthesis.cnots_out": fact("synthesis.cnots_out"),
        "synthesis.gates_per_s": per_s(fact("synthesis.gates_out"), "synthesis.synth_generator"),
        "synthesis.to_json.self_s": self_s("synthesis.to_json"),
        "synthesis.from_json.self_s": self_s("synthesis.from_json"),
        "synthesis.to_qasm.self_s": self_s("synthesis.to_qasm"),
        "synthesis.from_qasm.self_s": self_s("synthesis.from_qasm"),
        "synthesis.bytes_serialized": fact("synthesis.bytes_serialized"),
        "synthesis.dense_exponential.calls": calls("synthesis.dense_exponential"),
        "synthesis.dense_exponential.self_s": self_s("synthesis.dense_exponential"),
        "simulator.circuit_unitary.calls": calls("simulator.circuit_unitary"),
        "simulator.circuit_unitary.self_s": self_s("simulator.circuit_unitary"),
        "simulator.gates_applied": fact("simulator.gates_applied"),
        "simulator.gates_per_s": per_s(fact("simulator.gates_applied"), "simulator.circuit_unitary"),
        "simulator.dense_dim_max": fact("simulator.dense_dim_max"),
        "simulator.bytes_moved_computed": fact("simulator.bytes_moved_computed"),
        "simulator.compare.self_s": self_s("simulator.compare"),
        "simulator.unitarity.self_s": self_s("simulator.unitarity"),
        "simulator.max_phase_diff": fact("simulator.max_phase_diff"),
        "ansatz.symmetrize.calls": calls("ansatz.symmetrize"),
        "ansatz.symmetrize.self_s": self_s("ansatz.symmetrize"),
        "ansatz.gates_out": fact("ansatz.gates_out"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.p50_ms": pct("cli.main", 50, 1e3),
        "cli.stdout_bytes": fact("cli.stdout_bytes"),
        "trace.overhead_ratio": overhead,
    }


def baseline_rows(name: str, metrics: dict, unscaled_wall: float) -> list[dict]:
    """Figures of this run next to the ROADMAP baseline rows inside the workload.

    The ROADMAP times were taken unscaled, so the unscaled pass time is used.
    """
    measured = {"closure": [unscaled_wall], "synth": [metrics["synthesis.cnots_out"]]}
    return [
        {"row": row, "baseline": [low, high], "unit": unit, "measured": value,
         "ratio_to_baseline_mid": value / ((low + high) / 2)}
        for (row, low, high, unit), value in zip(BASELINES.get(name, []), measured.get(name, []))
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(name: str, seed: int, workdir: Path, sizes: dict | None = None):
    """Import, input generation and warm-up, repeated; returns (workload, median s).

    The median is scaled to the reference host speed by probes taken
    before each repeat.
    """
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(speed_probe())
        t0 = perf_counter()
        pisu = import_program()
        kwargs = dict(sizes or {})
        if name == "cli":
            kwargs["workdir"] = workdir
        workload = WORKLOADS[name](pisu, np.random.default_rng(seed), **kwargs)
        workload.warm_up()
        times.append(perf_counter() - t0)
    scale = PROBE_REF_S / statistics.median(probes) if workload.scale_to_reference else 1.0
    return workload, statistics.median(times) * scale


def measure(name: str, workload, setup_s: float, seconds: float, trace: bool) -> tuple[dict, dict, Spans | None]:
    """Run the passes; return (metrics, record, spans of the traced passes).

    A traced run splits ``seconds`` evenly between untraced and traced passes.
    """
    log = Log()
    facts = run_passes(workload, seconds / 2 if trace else seconds, NoSpans(), log, traced=False)
    walls, items = scaled_passes(workload, log)
    # only synth has enough items per pass for item percentiles; elsewhere a
    # latency sample is a whole pass
    samples = items if workload.sample_items else walls
    record = {
        "passes": len(walls),
        "latency_samples": len(samples),
        "unscaled_wall_s": statistics.median(sum(p) for p in log.passes),
        "probe_median_s": statistics.median(log.probes),
    }
    logs = [log]
    spans = None
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "item_p50_ms": percentile(samples, 50) * 1e3,
            "item_p90_ms": percentile(samples, 90) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["counts"] = {k: v for k, v in facts[-1].items() if k.endswith("_out")}
    else:
        spans = Spans()
        logs.append(Log())
        traced_facts = run_passes(workload, seconds / 2, spans, logs[1], traced=True)
        overhead = statistics.median(scaled_passes(workload, logs[1])[0]) / statistics.median(walls)
        metrics = layer_metrics(workload, spans, traced_facts[-1], logs[1], overhead)
        record["traced_passes"] = len(logs[1].passes)
        record["roadmap_baseline"] = baseline_rows(name, metrics, record["unscaled_wall_s"])
    record.update(
        attempted=sum(lg.attempted for lg in logs),
        failed=sum(lg.failed for lg in logs),
        errors=[e for lg in logs for e in lg.errors][:20],
    )
    return metrics, record, spans


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        try:
            workload, setup_s = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        metrics, record, spans = measure(args.workload, workload, setup_s, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for error in record["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    record = {"workload": args.workload, "environment": environment(args.seed), **record}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    if spans is not None:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"record": record, "result": result, "spans": spans.to_json_rows()}))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
