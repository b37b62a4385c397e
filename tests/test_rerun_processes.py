"""Byte-identical reruns across processes with different string-hash seeds.

Reruns inside one process share one ``PYTHONHASHSEED``, so they cannot see
output that depends on set iteration order.  Here every shipped scenario,
a soft handover that migrates buffered pairs over bridges, a GHZ sensing
run that distributes GHZ resources, and a generated line of cells whose
messages cross the backbone in one record each, is run by ``oneq run`` in
two fresh interpreters whose hash seeds differ.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((REPO / "scenarios").glob("*.json")) + [
    REPO / "tests" / "data" / "handover_migrates_buffer.json",
    REPO / "tests" / "data" / "sensing_ghz.json"]
ARTIFACTS = ("trace.jsonl", "metrics.csv", "app_results.csv")
HASH_SEEDS = ("0", "5")


def _start_run(scenario: Path, out: Path, hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "oneq.cli", "run", str(scenario), "--out", str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _assert_identical_runs(scenario: Path, tmp_path: Path) -> None:
    runs = [(_start_run(scenario, tmp_path / f"h{seed}", seed), seed)
            for seed in HASH_SEEDS]
    for proc, seed in runs:
        output, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: {output}"
    first, second = (tmp_path / f"h{seed}" for seed in HASH_SEEDS)
    for name in ARTIFACTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            f"{scenario.stem}: {name} depends on the string-hash seed"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_artifacts_identical_across_hash_seeds(scenario, tmp_path):
    _assert_identical_runs(scenario, tmp_path)


def _line_document(n_cells: int = 6) -> dict:
    """QBS0..QBS5 in a line, two QUEs per cell; QKD within a cell and end to end."""
    nodes, cells, clinks, qlinks, edges, attachments = [], [], [], [], [], []
    for i in range(n_cells):
        bs = f"QBS{i}"
        nodes.append({"id": bs, "kind": "QBS", "position": [3000.0 * i, 0.0, 12.0],
                      "t_coh_s": 0.1, "memory_slots": 64})
        cells.append({"bs": bs, "classical_radius": 2000.0, "quantum_radius": 1500.0})
        for j in range(2):
            ue = f"QUE{i}_{j}"
            nodes.append({"id": ue, "kind": "QUE",
                          "position": [3000.0 * i + 200.0 + 300.0 * j, 300.0, 0.0],
                          "t_coh_s": 0.05, "memory_slots": 16})
            clinks.append({"a": bs, "b": ue, "rate_bps": 1e8, "prop_delay_s": 1e-5,
                           "p_err_c": 0.02})
            qlinks.append({"a": bs, "b": ue, "q_attempt": 0.8,
                           "attempt_period_s": 1e-4, "w0": 0.97})
            attachments.append({"ue": ue, "bs": bs})
        if i + 1 < n_cells:
            nxt = f"QBS{i + 1}"
            clinks.append({"a": bs, "b": nxt, "rate_bps": 1e9, "prop_delay_s": 2e-5,
                           "p_err_c": 0.05})
            qlinks.append({"a": bs, "b": nxt, "q_attempt": 0.85,
                           "attempt_period_s": 1e-4, "w0": 0.97})
            edges.append([bs, nxt])
    last = n_cells - 1
    apps = [{"type": "qkd", "id": app_id, "alice": alice, "bob": bob, "n_pairs": 4,
             "rounds": 3, "min_fidelity": 0.8, "max_latency_s": 0.2,
             "sample_fraction": 0.0}
            for app_id, alice, bob in (("local", "QUE0_0", "QUE0_1"),
                                       ("line", "QUE0_1", f"QUE{last}_0"),
                                       ("back", f"QUE{last}_1", "QUE1_0"))]
    return {"schema_version": 1, "name": "line6", "seed": 17, "duration_s": 1.0,
            "defaults": {"f_min": 0.8}, "nodes": nodes, "cells": cells,
            "classical_links": clinks, "quantum_links": qlinks,
            "repeater_edges": edges, "attachments": attachments, "apps": apps}


def test_backbone_stretches_identical_across_hash_seeds(tmp_path):
    scenario = tmp_path / "line6.json"
    scenario.write_text(json.dumps(_line_document()), encoding="utf-8")
    _assert_identical_runs(scenario, tmp_path)
    trace = (tmp_path / f"h{HASH_SEEDS[0]}" / "trace.jsonl").read_text("utf-8")
    # the set-up request and the routed basis messages each cross every station
    assert '"route":"QBS0+QBS1+QBS2+QBS3+QBS4+QBS5"' in trace
    assert '"route":"QUE0_1+QBS0+QBS1+QBS2+QBS3+QBS4+QBS5+QUE5_0"' in trace
