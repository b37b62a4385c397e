"""Pinned sha256 digests of the run artifacts.

Every shipped scenario, the handover fixture and the GHZ sensing fixture,
at seeds 0-3, must write the same ``trace.jsonl``, ``metrics.csv`` and
``app_results.csv`` bytes as when ``tests/data/artifact_digests.json`` was
recorded.  So must each row of VARIANTS: a shipped scenario with a few
edits, pinned because it reaches a path the shipped runs rarely take.  A
change that shifts a trace must say why in CHANGES.md and rewrite that
file with

    PYTHONPATH=src python tests/test_artifact_digests.py

The runs draw from the standard library alone, so the digests hold on
every supported Python.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

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

# (name, shipped stem, edits, seeds, the outcome its one app must reach or None)
VARIANTS = [
    # 15.15 attempt periods of 2e-4 s: sessions expire partway through a slot.
    ("qkd_baseline_deadline", "qkd_baseline", {"$.apps[0].max_latency_s": 0.00303},
     SEEDS, None),
    # One batch of 8 pairs almost never sifts the 8 bits k_target asks for.
    ("qkd_retry_one_round", "qkd_retry_sweetspot",
     {"$.apps[0].max_rounds": 1, "$.apps[0].n_pairs": 8}, SEEDS, "exhausted"),
    # Links at w0 0.6 swap to w 0.36, a QBER near 0.32 against qber_abort 0.11;
    # half the sifted bits are sampled, chosen by the sift stream's permutation.
    ("qkd_baseline_noisy", "qkd_baseline",
     {"$.quantum_links[0].w0": 0.6, "$.quantum_links[1].w0": 0.6,
      "$.apps[0].min_fidelity": 0.5, "$.apps[0].sample_fraction": 0.5},
     SEEDS, "aborted-qber"),
    # The provisioner screens the SAT1-QUE3 buffer at defaults.f_min, set at
    # that link's w0 0.9 (fresh fidelity 0.925), instead of the policy's own
    # floor: shipped runs never screen a pair at f_min.
    ("metro_f_min_at_w0", "metro_with_satellite",
     {"$.policy.min_fidelity": None, "$.defaults.f_min": 0.9}, SEEDS, None),
]


def _document(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


CASES = {path.stem: (_document(path), SEEDS) for path in SCENARIOS}
CASES.update({
    name: (_edited(_document(REPO / "scenarios" / f"{stem}.json"), edits), seeds)
    for name, stem, edits, seeds, _ in VARIANTS})


def _run(document: dict, seed: int):
    return run_scenario(load_scenario(document)[0], seed=seed)


def artifact_digests(document: dict, seed: int) -> dict[str, str]:
    art = _run(document, seed)
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
    document, seeds = CASES[name]
    pinned = _recorded()["digests"][name]
    assert sorted(pinned) == [str(seed) for seed in seeds]
    for seed in seeds:
        assert artifact_digests(document, seed) == pinned[str(seed)], \
            f"{name} seed {seed}: artifacts differ from the pinned digests"


@pytest.mark.parametrize("name, outcome", [(name, outcome) for name, _, _, _, outcome
                                            in VARIANTS if outcome is not None])
def test_variant_reaches_its_outcome(name, outcome):
    document, seeds = CASES[name]
    for seed in seeds:
        (app,) = _run(document, seed).summary["apps"].values()
        assert app["outcome"] == outcome, f"{name} seed {seed}"


def test_f_min_variant_discards_below_threshold():
    document, seeds = CASES["metro_f_min_at_w0"]
    for seed in seeds:
        gauges = {row[2]: row[3] for row in _run(document, seed).metrics_rows}
        assert gauges.get("pairs_discarded_below_threshold", 0) > 0, f"seed {seed}"


def main() -> int:
    document = {
        "digests": {name: {str(seed): artifact_digests(document, seed) for seed in seeds}
                    for name, (document, seeds) in CASES.items()},
    }
    DIGESTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
