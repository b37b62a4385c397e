"""Pinned sha256 digests of the run artifacts.

Every shipped scenario, the handover fixture and the GHZ sensing fixture,
at seeds 0-3, must write the same ``trace.jsonl``, ``metrics.csv`` and
``app_results.csv`` bytes as when ``tests/data/artifact_digests.json`` was
recorded.  So must each row of VARIANTS: a shipped scenario with a few
edits, pinned because it reaches a path the shipped runs rarely take.  A
change that shifts a trace must say why in CHANGES.md and rewrite that
file with

    PYTHONPATH=src python tests/test_artifact_digests.py

Digests depend on numpy's random streams and float kernels, so the test
skips when the installed numpy's major.minor differs from the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import _edited
from oneq.runner import app_results_csv, metrics_csv, run_scenario
from oneq.scenario import load_scenario

REPO = Path(__file__).resolve().parent.parent
DIGESTS = REPO / "tests" / "data" / "artifact_digests.json"
SCENARIOS = sorted((REPO / "scenarios").glob("*.json")) + [
    REPO / "tests" / "data" / "handover_migrates_buffer.json",
    REPO / "tests" / "data" / "sensing_ghz.json"]
SEEDS = range(4)

# (name, shipped stem, edits, seeds)
VARIANTS = [
    # 15.15 attempt periods of 2e-4 s: sessions expire partway through a slot.
    ("qkd_baseline_deadline", "qkd_baseline", {"$.apps[0].max_latency_s": 0.00303}, SEEDS),
]


def _document(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


CASES = {path.stem: (_document(path), SEEDS) for path in SCENARIOS}
CASES.update({
    name: (_edited(_document(REPO / "scenarios" / f"{stem}.json"), edits), seeds)
    for name, stem, edits, seeds in VARIANTS})


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def artifact_digests(document: dict, seed: int) -> dict[str, str]:
    scenario, _ = load_scenario(document)
    art = run_scenario(scenario, seed=seed)
    texts = {
        "trace.jsonl": art.trace_jsonl,
        "metrics.csv": metrics_csv(art.metrics_rows),
        "app_results.csv": app_results_csv(art.app_rows),
    }
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in texts.items()}


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CASES)
def test_artifacts_match_pinned_digests(name):
    recorded = _recorded()
    if _major_minor(np.__version__) != _major_minor(recorded["numpy"]):
        pytest.skip(f"digests were recorded with numpy {recorded['numpy']}, "
                    f"this is numpy {np.__version__}")
    document, seeds = CASES[name]
    pinned = recorded["digests"][name]
    assert sorted(pinned) == [str(seed) for seed in seeds]
    for seed in seeds:
        assert artifact_digests(document, seed) == pinned[str(seed)], \
            f"{name} seed {seed}: artifacts differ from the pinned digests"


def main() -> int:
    document = {
        "numpy": np.__version__,
        "digests": {name: {str(seed): artifact_digests(document, seed) for seed in seeds}
                    for name, (document, seeds) in CASES.items()},
    }
    DIGESTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
