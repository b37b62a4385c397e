"""oneq benchmark: host cost of one workload, end to end or layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {ubqc_exact,cells_line,shipped_sweep}
                             --seed N --seconds S --trace {0,1}

One process, one thread, workloads run closed-loop: each scenario run
starts when the previous one has finished.  A *pass* is one sweep through
the workload's runs; passes repeat until ``--seconds`` have gone by (at
least three, or two traced ones under ``--trace 1``, so every run is
repeated and medians exist).

``--trace 0`` reports the end-to-end metrics, with no wrappers installed:

    wall_s       median host seconds of one pass (run_scenario plus the CSV
                 tables a ``--out`` run would write)
    setup_s      median, over fresh processes, of process start to the first
                 simulated event (import, load and validate or generate)
    peak_rss_mb  peak resident memory of this process (ru_maxrss)

``--trace 1`` alternates untraced passes with passes under ``layers.Tracer``
and reports the per-layer metrics (see ``LAYER_METRICS``).

Every run is checked (``checks.run_problems``), every pass must reproduce
the first pass byte for byte, a traced pass must reproduce the untraced
one, and the counts of two traced passes must agree.  ``failed_frac`` is
the share of scenario runs that failed; the last line of standard output
is the JSON result, and the exit code is 1 when anything failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    wall_s: float
    runs: int = 0
    failed_runs: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def parse_args(argv: list[str]) -> argparse.Namespace:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


# -- set-up ------------------------------------------------------------------

def _probe(workload: str, seed: int) -> dict:
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    stamps = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"import_s": stamps["import_done"] - start,
            "load_s": stamps["first_event"] - stamps["import_done"],
            "setup_s": stamps["first_event"] - start,
            "inputs": stamps["inputs"]}


def measure_setup(workload: str, seed: int) -> tuple[dict, set]:
    """Median set-up of fresh processes, and the input digests they built.

    Run it after this process has imported oneq, so bytecode is written.
    """
    probes = [_probe(workload, seed) for _ in range(SETUP_PROBES)]
    medians = {key: statistics.median(p[key] for p in probes)
               for key in ("import_s", "load_s", "setup_s")}
    return medians, {p["inputs"] for p in probes}


# -- passes ------------------------------------------------------------------

def _tally(stats: dict, scenario, artifacts) -> None:
    """Deterministic outputs of one run: sizes and simulated app results."""
    from oneq.apps.ubqc import ideal_chain_p_zero
    stats["events"] += artifacts.summary["events"]
    stats["trace_records"] += artifacts.summary["trace_records"]
    stats["trace_bytes"] += len(artifacts.trace_jsonl.encode("utf-8"))
    gauges = {row[2]: row[3] for row in artifacts.metrics_rows}
    specs = {spec.config.app_id: spec for spec in scenario.apps}
    for kind, app_id, _run, outcome, headline, _elapsed, resources in artifacts.app_rows:
        if kind == "qkd":
            stats["qkd_apps"] += 1
            stats["qkd_keys"] += outcome == "key"
            stats["qkd_key_bits"] += headline
        elif kind == "ubqc":
            stats["ubqc_shots"] += gauges.get(f"app.{app_id}.shots", 0.0)
            if outcome == "done":
                ideal = ideal_chain_p_zero(specs[app_id].config.phi_eighths)
                stats["ubqc_done"] += 1
                stats["ubqc_p_zero_err"] += abs(headline - ideal)
        elif kind == "sensing":
            stats["sensing_bits"] += resources


def run_pass(runs: list[tuple], capture, tracer=None) -> PassResult:
    import checks
    from oneq import runner
    result = PassResult(wall_s=0.0, stats=Counter())
    for label, scenario, seed in runs:
        capture.stacks.clear()
        start = perf_counter()
        try:
            artifacts = runner.run_scenario(scenario, seed=seed)
            texts = (artifacts.trace_jsonl, runner.metrics_csv(artifacts.metrics_rows),
                     runner.app_results_csv(artifacts.app_rows))
        except Exception:  # a run that raises is a failed run; keep measuring
            result.wall_s += perf_counter() - start
            result.runs += 1
            result.failed_runs += 1
            result.problems.append(f"{label} seed {seed} raised:\n{traceback.format_exc()}")
            result.digests.append(None)
            continue
        result.wall_s += perf_counter() - start
        result.runs += 1
        if tracer is not None:
            tracer.end_run()
        problems = checks.run_problems(artifacts, capture.stacks)
        if problems:
            result.failed_runs += 1
            result.problems.extend(f"{label} seed {seed}: {p}" for p in problems)
        result.digests.append(checks.digest(texts))
        _tally(result.stats, scenario, artifacts)
    return result


def _snapshot(tracer) -> dict:
    return {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "incl_s": dict(tracer.incl_s), "counts": dict(tracer.counts)}


def _compare_digests(runs, reference: PassResult, other: PassResult, what: str) -> list[str]:
    return [f"{label} seed {seed}: {what} differs from the first pass"
            for (label, _sc, seed), a, b in zip(runs, reference.digests, other.digests)
            if a != b]


# -- metrics -----------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYER_METRICS = (
    # name, unit, better
    ("engine.events", "count", "lower"),
    ("engine.events.attempt", "count", "lower"),
    ("engine.events.message", "count", "lower"),
    ("engine.events.timer", "count", "lower"),
    ("engine.events.app", "count", "lower"),
    ("engine.events.decoherence", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.us_per_event", "us", "lower"),
    ("engine.rng_streams", "count", "lower"),
    ("protocol.self_s", "s", "lower"),
    ("protocol.sessions", "count", "lower"),
    ("protocol.fulfilled_frac", "frac", "higher"),
    ("protocol.attempt_slots", "count", "lower"),
    ("protocol.slot_yield", "frac", "higher"),
    ("protocol.swaps", "count", "lower"),
    ("protocol.route_calls", "count", "lower"),
    ("protocol.route_s", "s", "lower"),
    ("protocol.msgs", "count", "lower"),
    ("protocol.msg_retry_frac", "frac", "lower"),
    ("protocol.msgs_failed", "count", "lower"),
    ("netmodel.self_s", "s", "lower"),
    ("netmodel.coverage_calls", "count", "lower"),
    ("netmodel.distance_calls", "count", "lower"),
    ("netmodel.distance_s", "s", "lower"),
    ("netmodel.path_calls", "count", "lower"),
    ("netmodel.sends", "count", "lower"),
    ("netmodel.send_loss_frac", "frac", "lower"),
    ("qcore.self_s", "s", "lower"),
    ("qcore.gates", "count", "lower"),
    ("qcore.measures", "count", "lower"),
    ("qcore.states", "count", "lower"),
    ("qcore.us_per_gate", "us", "lower"),
    ("apps.self_s", "s", "lower"),
    ("apps.qkd.key_frac", "frac", "higher"),
    ("apps.qkd.key_bits", "bit", "higher"),
    ("apps.ubqc.shots", "count", "higher"),
    ("apps.ubqc.p_zero_err", "prob", "lower"),
    ("apps.sensing.bits_used", "bit", "higher"),
    ("scenario.import_s", "s", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("runner.serialize_s", "s", "lower"),
    ("runner.trace_records", "count", "lower"),
    ("runner.trace_bytes", "bytes", "lower"),
    ("trace_overhead", "frac", "lower"),
)


def layer_values(untraced: list[PassResult], traced: list[PassResult], setup: dict) -> dict:
    from layers import SERIALIZERS
    first = traced[0].layers
    calls, counts, stats = first["calls"], first["counts"], traced[0].stats

    def med_self(layer: str) -> float:
        return statistics.median(p.layers["self_s"][layer] for p in traced)

    def med_incl(*names: str) -> float:
        return statistics.median(sum(p.layers["incl_s"].get(n, 0.0) for n in names)
                                 for p in traced)

    wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    gates = calls.get("oracle_apply", 0)
    values = {
        "engine.events": stats["events"],
        **{f"engine.events.{k}": counts.get(f"event.{k}", 0)
           for k in ("attempt", "message", "timer", "app", "decoherence")},
        "engine.self_s": med_self("engine"),
        "engine.us_per_event": _ratio(wall, stats["events"]) * 1e6,
        "engine.rng_streams": counts.get("rng_streams", 0),
        "protocol.self_s": med_self("protocol"),
        "protocol.sessions": counts.get("sessions", 0),
        "protocol.fulfilled_frac": _ratio(counts.get("sessions_fulfilled", 0),
                                          counts.get("sessions", 0)),
        "protocol.attempt_slots": counts.get("attempt_slots", 0),
        "protocol.slot_yield": _ratio(counts.get("pairs_delivered", 0),
                                      counts.get("attempt_slots", 0)),
        "protocol.swaps": calls.get("Stack.entanglement_swap", 0),
        "protocol.route_calls": calls.get("Stack.classical_route", 0),
        "protocol.route_s": med_incl("Stack.classical_route"),
        "protocol.msgs": calls.get("Stack.send_message", 0),
        "protocol.msg_retry_frac": _ratio(counts.get("msg_retries", 0),
                                          counts.get("msg_tx", 0)),
        "protocol.msgs_failed": counts.get("msgs_failed", 0),
        "netmodel.self_s": med_self("netmodel"),
        "netmodel.coverage_calls": calls.get("Topology.in_classical_coverage", 0)
        + calls.get("Topology.in_quantum_coverage", 0),
        "netmodel.distance_calls": calls.get("Topology.distance", 0),
        "netmodel.distance_s": med_incl("Topology.distance"),
        "netmodel.path_calls": calls.get("Topology.repeater_path", 0),
        "netmodel.sends": calls.get("classical_send", 0),
        "netmodel.send_loss_frac": _ratio(counts.get("sends_lost", 0),
                                          calls.get("classical_send", 0)),
        "qcore.self_s": med_self("qcore"),
        "qcore.gates": gates,
        "qcore.measures": calls.get("oracle_measure", 0),
        "qcore.states": calls.get("PureState.__init__", 0),
        "qcore.us_per_gate": _ratio(med_incl("oracle_apply"), gates) * 1e6,
        "apps.self_s": med_self("apps"),
        "apps.qkd.key_frac": _ratio(stats["qkd_keys"], stats["qkd_apps"]),
        "apps.qkd.key_bits": stats["qkd_key_bits"],
        "apps.ubqc.shots": stats["ubqc_shots"],
        "apps.ubqc.p_zero_err": _ratio(stats["ubqc_p_zero_err"], stats["ubqc_done"]),
        "apps.sensing.bits_used": stats["sensing_bits"],
        "scenario.import_s": setup["import_s"],
        "scenario.load_s": setup["load_s"],
        "runner.self_s": med_self("runner"),
        "runner.serialize_s": med_incl(*SERIALIZERS),
        "runner.trace_records": stats["trace_records"],
        "runner.trace_bytes": stats["trace_bytes"],
        "trace_overhead": traced_wall / wall - 1.0,
    }
    return {name: float(values[name]) for name, _unit, _better in LAYER_METRICS}


def count_mismatches(traced: list[PassResult]) -> list[str]:
    """Counts are deterministic: every traced pass must repeat the first."""
    problems = []
    ref = traced[0]
    for i, other in enumerate(traced[1:], start=2):
        for part in ("calls", "counts"):
            a, b = ref.layers[part], other.layers[part]
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    problems.append(f"traced pass {i}: {part} {key} = {b.get(key)}, "
                                    f"first traced pass {a.get(key)}")
        if ref.stats != other.stats:
            problems.append(f"traced pass {i}: run outputs differ from the first")
    return problems


# -- main --------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "oneq").is_dir() or not (ROOT / "scenarios").is_dir():
        print(f"perfbench: no oneq sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from checks import StackCapture
    from layers import LAYERS, Tracer

    args = parse_args(argv)
    problems: list[str] = []
    runs = workloads.load_runs(args.workload, args.seed, ROOT)
    setup, probe_inputs = measure_setup(args.workload, args.seed)
    if probe_inputs != {workloads.fingerprint(args.workload, args.seed, ROOT)}:
        problems.append("workload inputs differ between processes given the same seed")
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    with StackCapture() as capture:
        deadline = perf_counter() + args.seconds
        while True:
            untraced.append(run_pass(runs, capture))
            if args.trace:
                with Tracer() as tracer:
                    traced.append(run_pass(runs, capture, tracer))
                traced[-1].layers = _snapshot(tracer)
            enough = len(traced) >= MIN_TRACED_PASSES if args.trace \
                else len(untraced) >= MIN_PASSES
            if enough and perf_counter() >= deadline:
                break

    for p in untraced[1:]:
        problems += _compare_digests(runs, untraced[0], p, "rerun")
    for p in traced:
        problems += _compare_digests(runs, untraced[0], p, "traced run")
    if traced:
        problems += count_mismatches(traced)
    passes = untraced + traced
    attempted = sum(p.runs for p in passes)
    failed = sum(p.failed_runs for p in passes)
    for p in passes:
        problems += p.problems

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(runs)} scenario runs")
    if args.trace:
        values = layer_values(untraced, traced, setup)
        units = {name: unit for name, unit, _better in LAYER_METRICS}
        spans = [f"{layer}.self_s" for layer in LAYERS if f"{layer}.self_s" in values]
        total = sum(values[key] for key in spans)
        for key in spans + ["protocol.route_s"]:
            print(f"  {key:<26} {100 * _ratio(values[key], total):5.1f}% of traced self time")
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"  {name:<26} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':<26} {_ratio(failed, attempted):14.6g} frac "
          f"({failed} of {attempted} scenario runs)")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
