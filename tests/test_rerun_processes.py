"""Byte-identical reruns across processes with different string-hash seeds.

Reruns inside one process share one ``PYTHONHASHSEED``, so they cannot see
output that depends on set iteration order.  Here every shipped scenario is
run by ``oneq run`` in two fresh interpreters whose hash seeds differ.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((REPO / "scenarios").glob("*.json"))
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


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_artifacts_identical_across_hash_seeds(scenario, tmp_path):
    runs = [(_start_run(scenario, tmp_path / f"h{seed}", seed), seed)
            for seed in HASH_SEEDS]
    for proc, seed in runs:
        output, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: {output}"
    first, second = (tmp_path / f"h{seed}" for seed in HASH_SEEDS)
    for name in ARTIFACTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            f"{scenario.stem}: {name} depends on the string-hash seed"
