"""Executes scenarios and writes run artifacts.

A run is fully determined by (scenario, seed): the trace and the metrics
table are byte-identical across repeats.  Artifacts per run:

    metrics.csv      run_id,seed,metric,value,unit (rows sorted by metric)
    app_results.csv  one row per application instance
    trace.jsonl      canonical event log
    summary.json     headline numbers for quick inspection

Sweeps rerun the same document with one parameter overridden; replication
seeds are derived by hashing (base seed, parameter, value, replicate) so
each run is independent yet reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import records
from .engine import EventKind, Simulator
from .errors import InternalError, OneQError
from .protocol import Stack
from .scenario import Scenario, load_scenario

__all__ = ["RunArtifacts", "run_scenario", "write_artifacts", "run_sweep",
           "set_by_path", "derive_seed"]

APP_RESULT_COLUMNS = ("app_type", "app_id", "run_id", "outcome", "result",
                      "elapsed_s", "resources_consumed")


@dataclass
class RunArtifacts:
    """The outputs of one run, as write_artifacts writes them."""

    run_id: str
    seed: int
    summary: dict
    metrics_rows: list[tuple]
    app_rows: list[tuple]
    trace_jsonl: str


def _headline(kind: str, result) -> tuple[str, float, float]:
    """(outcome, headline number, resources) for the app results table."""
    if kind == "qkd":
        return result.outcome, float(result.key_bits), float(result.pairs_measured)
    if kind == "ubqc":
        return result.outcome, result.p_zero, float(result.pairs_consumed)
    return result.outcome, result.phi_est, float(result.bits_used)


def run_scenario(scenario: Scenario, seed: Optional[int] = None,
                 until: Optional[float] = None) -> RunArtifacts:
    """Run the scenario to its duration, or to until seconds if given.

    Raises ValueError when seed is negative, or when until is negative or
    not a finite number.
    """
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if until is not None and not (math.isfinite(until) and until >= 0.0):
        raise ValueError(f"until must be a finite nonnegative time, got {until}")
    run_seed = scenario.seed if seed is None else seed
    horizon = scenario.duration_s if until is None else until
    run_id = f"{scenario.name}-s{run_seed}"
    sim = Simulator(seed=run_seed)
    stack = Stack(sim, scenario.topology, scenario.defaults)
    results: dict[str, Any] = {}

    def startup():
        for a in scenario.attachments:
            ok = yield from stack.register(a.ue, a.bs)
            if not ok:
                records.warn_attachment_failed(sim.trace, sim.now, a.ue, bs=a.bs)
        stack.start_policy(scenario.policy)
        return True

    def launch(_started) -> None:
        for spec in scenario.apps:
            app = spec.app(spec.config)
            delay = max(spec.start_s - sim.now, 0.0)
            sim.spawn(app.run(stack), delay=delay,
                      on_done=lambda r, s=spec: results.__setitem__(s.config.app_id,
                                                                    (s.kind, r)))
        for op in scenario.ops:
            delay = max(op.at_s - sim.now, 0.0)
            sim.spawn(stack.handover(op.ue, op.to, op.mode), delay=delay,
                      kind=EventKind.TIMER)

    sim.spawn(startup(), on_done=launch)
    try:
        sim.run_until(horizon)
    except Exception as err:
        # A fault inside an event is the simulator's own; one raised before
        # any event ran (a caller stopping the loop) passes through as is.
        if isinstance(err, OneQError) or not sim.events_processed:
            raise
        raise InternalError(
            f"run {run_id}: internal error at t={sim.now!r} s: "
            f"{type(err).__name__}: {err}") from err
    stack.finalize()
    sim.drop_pending()

    app_rows: list[tuple] = []
    summary_apps: dict[str, dict] = {}
    for spec in scenario.apps:
        app_id = spec.config.app_id
        entry = results.get(app_id)
        if entry is None:
            app_rows.append((spec.kind, app_id, run_id, "unfinished", 0.0, 0.0, 0.0))
            summary_apps[app_id] = {"type": spec.kind, "outcome": "unfinished"}
            continue
        kind, result = entry
        outcome, headline, resources = _headline(kind, result)
        app_rows.append((kind, app_id, run_id, outcome, headline,
                         result.elapsed_s, resources))
        summary_apps[app_id] = {"type": kind, "outcome": outcome,
                                "result": headline,
                                "elapsed_s": result.elapsed_s}

    metrics_rows = sim.metrics.to_rows(run_id, run_seed)
    summary = {
        "run_id": run_id,
        "name": scenario.name,
        "seed": run_seed,
        "t_end": sim.now,
        "apps": summary_apps,
        "events": sim.events_processed,
        "events_by_kind": sim.events_by_kind,
        "trace_records": len(sim.trace),
    }
    return RunArtifacts(
        run_id=run_id, seed=run_seed, summary=summary,
        metrics_rows=metrics_rows, app_rows=app_rows,
        trace_jsonl=sim.trace.to_jsonl(),
    )


def _csv(header: tuple, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def metrics_csv(rows: list[tuple]) -> str:
    return _csv(("run_id", "seed", "metric", "value", "unit"), rows)


def app_results_csv(rows: list[tuple]) -> str:
    return _csv(APP_RESULT_COLUMNS, rows)


def write_artifacts(artifacts: RunArtifacts, out_dir: str) -> dict[str, str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": out / "metrics.csv",
        "apps": out / "app_results.csv",
        "trace": out / "trace.jsonl",
        "summary": out / "summary.json",
    }
    paths["metrics"].write_text(metrics_csv(artifacts.metrics_rows),
                                encoding="utf-8")
    paths["apps"].write_text(app_results_csv(artifacts.app_rows), encoding="utf-8")
    paths["trace"].write_text(artifacts.trace_jsonl, encoding="utf-8")
    paths["summary"].write_text(
        json.dumps(artifacts.summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


# -- sweeps -----------------------------------------------------------------

def _tokenize_path(path: str) -> list:
    import re
    tokens: list = []
    pos = 0
    for m in re.finditer(r"([A-Za-z_][A-Za-z0-9_]*)|\[(\d+)\]", path):
        if m.start() != pos:
            raise ValueError(f"cannot parse parameter path {path!r}")
        tokens.append(m.group(1) if m.group(1) is not None else int(m.group(2)))
        pos = m.end()
        if pos < len(path) and path[pos] == ".":
            pos += 1
            if pos == len(path):  # trailing separator, nothing follows
                raise ValueError(f"cannot parse parameter path {path!r}")
    if pos != len(path) or not tokens:
        raise ValueError(f"cannot parse parameter path {path!r}")
    return tokens


def set_by_path(document: dict, path: str, value: Any) -> dict:
    """Return a deep copy of the document with one field replaced.

    Paths look like "apps[0].n_pairs" or "quantum_links[1].q_attempt".
    """
    import copy
    doc = copy.deepcopy(document)
    tokens = _tokenize_path(path)
    target: Any = doc
    for token in tokens[:-1]:
        try:
            target = target[token]
        except (KeyError, IndexError, TypeError) as err:
            raise ValueError(f"path {path!r}: cannot descend at {token!r}") from err
    last = tokens[-1]
    try:
        target[last]
    except (KeyError, IndexError, TypeError) as err:
        raise ValueError(f"path {path!r}: no such field {last!r}") from err
    target[last] = value
    return doc


def derive_seed(base_seed: int, param: str, value: Any, replicate: int) -> int:
    digest = hashlib.sha256(
        f"{base_seed}|{param}={value!r}|rep{replicate}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 62)


def run_sweep(document: dict, param: str, values: list, replications: int = 1,
              strict: bool = False) -> list[dict]:
    """Run the scenario once per (value, replicate); returns headline rows."""
    import logging
    if replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    base_seed = document.get("seed", 0)
    rows: list[dict] = []
    for value in values:
        varied = set_by_path(document, param, value)
        scenario, warnings = load_scenario(varied, strict=strict)
        for warning in warnings:
            logging.getLogger("oneq.runner").warning("warning: %s", warning)
        for rep in range(replications):
            seed = derive_seed(base_seed, param, value, rep)
            artifacts = run_scenario(scenario, seed=seed)
            for app_type, app_id, _run, outcome, result, elapsed, res in \
                    artifacts.app_rows:
                rows.append({
                    "param": param, "value": value, "replicate": rep,
                    "seed": seed, "app_id": app_id, "app_type": app_type,
                    "outcome": outcome, "result": result,
                    "elapsed_s": elapsed, "resources_consumed": res,
                })
    return rows


def sweep_csv(rows: list[dict]) -> str:
    columns = ("param", "value", "replicate", "seed", "app_id", "app_type",
               "outcome", "result", "elapsed_s", "resources_consumed")
    return _csv(columns, (tuple(row[c] for c in columns) for row in rows))
