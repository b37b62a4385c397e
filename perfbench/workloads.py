"""Benchmark workloads: which scenario documents run, under which seeds.

Every input is made from the workload seed.  The simulator only ever sees
the resulting documents and run seeds, through the public loader and runner.
This module imports ``oneq`` only inside ``load_runs``, so the set-up
probe can time importing the simulator separately from building the
workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("ubqc_exact", "cells_line", "shipped_sweep")

UBQC_FILE = "ubqc_chain.json"
SWEEP_FILES = (
    "metro_with_satellite.json",
    "qkd_baseline.json",
    "qkd_local_vs_swapped.json",
    "qkd_retry_sweetspot.json",
    "sensing_sql.json",
)
SWEEP_SEEDS = 20

CELLS = 16
UES_PER_CELL = 8
CELL_SPACING_M = 3000.0


def derive_seed(workload_seed: int, label: str, index: int) -> int:
    """A run seed that depends only on the workload seed, a label and an index."""
    digest = hashlib.sha256(f"{workload_seed}|{label}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 62)


def cells_line_document(seed: int, n_cells: int = CELLS) -> dict:
    """A line of QBS cells, 8 QUEs each, 4 QKD apps per cell.

    Neighbouring stations share a classical link, a quantum link and a
    repeater edge.  Per cell, two apps pair UEs of the same cell (dual
    downlink), one pairs a UE with the next cell (one swap) and one with
    the cell half a line away (an n_cells/2-hop swap chain).  Link
    qualities and UE positions are drawn from ``seed``.
    """
    if n_cells < 2:
        raise ValueError(f"a line needs at least 2 cells, got {n_cells}")
    rng = random.Random(seed)

    def draw(lo: float, hi: float, digits: int) -> float:
        return round(rng.uniform(lo, hi), digits)

    nodes, cells, clinks, qlinks, edges, attachments, apps = [], [], [], [], [], [], []
    bs_ids = [f"QBS{i:02d}" for i in range(n_cells)]

    def ue_id(cell: int, j: int) -> str:
        return f"QUE{cell:02d}_{j}"

    for i, bs in enumerate(bs_ids):
        x0 = i * CELL_SPACING_M
        nodes.append({"id": bs, "kind": "QBS", "position": [x0, 0.0, 12.0],
                      "t_coh_s": 0.1, "memory_slots": 256})
        cells.append({"bs": bs, "classical_radius": 2000.0, "quantum_radius": 1500.0})
        for j in range(UES_PER_CELL):
            ue = ue_id(i, j)
            # 200..850 m from the own station and at least 2.4 km from any
            # other, so every UE sits in exactly one cell.
            dx, dy = draw(-600.0, 600.0, 1), draw(200.0, 600.0, 1)
            nodes.append({"id": ue, "kind": "QUE", "position": [x0 + dx, dy, 0.0],
                          "t_coh_s": 0.05, "memory_slots": 32})
            clinks.append({"a": bs, "b": ue, "rate_bps": 1e8, "prop_delay_s": 1e-5,
                           "p_err_c": draw(0.001, 0.01, 4)})
            qlinks.append({"a": bs, "b": ue, "q_attempt": draw(0.6, 0.9, 3),
                           "attempt_period_s": 1e-4, "w0": draw(0.95, 0.98, 4)})
            attachments.append({"ue": ue, "bs": bs})
        if i + 1 < n_cells:
            nxt = bs_ids[i + 1]
            clinks.append({"a": bs, "b": nxt, "rate_bps": 1e9, "prop_delay_s": 2e-5,
                           "p_err_c": 0.001})
            qlinks.append({"a": bs, "b": nxt, "q_attempt": draw(0.7, 0.9, 3),
                           "attempt_period_s": 1e-4, "w0": draw(0.95, 0.98, 4)})
            edges.append([bs, nxt])

    for i in range(n_cells):
        neighbour = i + 1 if i + 1 < n_cells else i - 1
        far = (i + n_cells // 2) % n_cells
        for k, (alice, bob) in enumerate((
                (ue_id(i, 0), ue_id(i, 1)),
                (ue_id(i, 2), ue_id(i, 3)),
                (ue_id(i, 4), ue_id(neighbour, 5)),
                (ue_id(i, 6), ue_id(far, 7)))):
            apps.append({"type": "qkd", "id": f"qkd{i:02d}_{k}", "alice": alice,
                         "bob": bob, "n_pairs": 4, "rounds": 4, "min_fidelity": 0.8,
                         "max_latency_s": 0.2, "sample_fraction": 0.0})

    return {
        "schema_version": 1, "name": f"cells_line_b{n_cells}", "seed": seed,
        "duration_s": 2.5, "defaults": {"f_min": 0.8},
        "nodes": nodes, "cells": cells, "classical_links": clinks,
        "quantum_links": qlinks, "repeater_edges": edges,
        "attachments": attachments, "apps": apps,
    }


def sources(name: str, workload_seed: int, root: Path) -> list[tuple[str, object]]:
    """The workload's documents: (label, file path or generated document)."""
    scenarios = root / "scenarios"
    if name == "ubqc_exact":
        return [("ubqc_chain", scenarios / UBQC_FILE)]
    if name == "cells_line":
        return [("cells_line", cells_line_document(workload_seed))]
    if name == "shipped_sweep":
        return [(Path(f).stem, scenarios / f) for f in SWEEP_FILES]
    raise ValueError(f"unknown workload {name!r}")


def run_plan(name: str, workload_seed: int) -> list[tuple[int, int]]:
    """One pass of the workload: (index into sources, run seed) in run order."""
    if name == "shipped_sweep":
        return [(doc, derive_seed(workload_seed, SWEEP_FILES[doc], rep))
                for doc in range(len(SWEEP_FILES)) for rep in range(SWEEP_SEEDS)]
    return [(0, derive_seed(workload_seed, name, 0))]


def load_runs(name: str, workload_seed: int, root: Path) -> list[tuple]:
    """(label, Scenario, run seed) for one pass, validated in strict mode.

    Imports the simulator on first use, as a CLI run would.
    """
    from oneq.scenario import load_scenario, load_scenario_file
    labels, scenarios = [], []
    for label, src in sources(name, workload_seed, root):
        if isinstance(src, dict):
            scenario, warnings = load_scenario(src, strict=True)
        else:
            scenario, warnings = load_scenario_file(str(src), strict=True)
        if warnings:
            raise RuntimeError(f"{label}: loader warnings {warnings}")
        labels.append(label)
        scenarios.append(scenario)
    return [(labels[doc], scenarios[doc], run_seed)
            for doc, run_seed in run_plan(name, workload_seed)]


def fingerprint(name: str, workload_seed: int, root: Path) -> str:
    """Digest of every input of one pass, to show the inputs follow the seed."""
    parts = []
    for label, src in sources(name, workload_seed, root):
        doc = src if isinstance(src, dict) else json.loads(Path(src).read_text("utf-8"))
        parts.append(json.dumps([label, doc], sort_keys=True))
    parts.append(json.dumps(run_plan(name, workload_seed)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
