"""Pinned sha256 digests of the run artifacts.

Every shipped scenario, the handover fixture and the GHZ sensing fixture,
at seeds 0-3, must write the same ``trace.jsonl``, ``metrics.csv`` and
``app_results.csv`` bytes as when ``tests/data/artifact_digests.json`` was
recorded.  A change that
shifts a trace must say why in CHANGES.md and rewrite that file with

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

from oneq.runner import app_results_csv, metrics_csv, run_scenario
from oneq.scenario import load_scenario_file

REPO = Path(__file__).resolve().parent.parent
DIGESTS = REPO / "tests" / "data" / "artifact_digests.json"
SCENARIOS = sorted((REPO / "scenarios").glob("*.json")) + [
    REPO / "tests" / "data" / "handover_migrates_buffer.json",
    REPO / "tests" / "data" / "sensing_ghz.json"]
SEEDS = range(4)


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def artifact_digests(path: Path, seed: int) -> dict[str, str]:
    scenario, _ = load_scenario_file(str(path))
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


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_artifacts_match_pinned_digests(path):
    recorded = _recorded()
    if _major_minor(np.__version__) != _major_minor(recorded["numpy"]):
        pytest.skip(f"digests were recorded with numpy {recorded['numpy']}, "
                    f"this is numpy {np.__version__}")
    pinned = recorded["digests"][path.stem]
    assert sorted(pinned) == [str(seed) for seed in SEEDS]
    for seed in SEEDS:
        assert artifact_digests(path, seed) == pinned[str(seed)], \
            f"{path.stem} seed {seed}: artifacts differ from the pinned digests"


def main() -> int:
    document = {
        "numpy": np.__version__,
        "digests": {path.stem: {str(seed): artifact_digests(path, seed) for seed in SEEDS}
                    for path in SCENARIOS},
    }
    DIGESTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
