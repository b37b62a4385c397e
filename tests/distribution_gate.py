"""Distribution gate: do the simulated outcomes keep their distributions?

Reruns every shipped scenario and both fixtures at the seeds in SEEDS and
compares each run's outcomes with ``tests/data/distribution_reference.json``.
Per run it records each app's outcome, headline result and ``elapsed_s``,
and the run's session outcome counts (the ``sessions_*`` counters).

- Fast path: a sample equal to the reference passes at once, so a change
  that keeps every byte passes without a statistical test.
- Otherwise every series that differs is tested against its reference
  series: a chi-square test on the counts of each app outcome, and a
  two-sample Kolmogorov-Smirnov test on each numeric series.  All tests
  share one family-wise ALPHA, split evenly among them (Bonferroni).

A change of how numbers are drawn must pass with the reference unchanged.
The reference is rewritten only when the model itself changes, and
CHANGES.md says why:

    PYTHONPATH=src python tests/distribution_gate.py            # check
    PYTHONPATH=src python tests/distribution_gate.py --write    # rewrite
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from scipy import stats

from oneq.runner import run_scenario
from oneq.scenario import load_scenario

REPO = Path(__file__).resolve().parent.parent
REFERENCE = REPO / "tests" / "data" / "distribution_reference.json"
DOCUMENTS = sorted((REPO / "scenarios").glob("*.json")) + [
    REPO / "tests" / "data" / "handover_migrates_buffer.json",
    REPO / "tests" / "data" / "sensing_ghz.json"]
# ubqc_chain runs 400 exact shots, about 80 ms a run.
SEEDS = {"ubqc_chain": range(50)}
DEFAULT_SEEDS = range(200)
ALPHA = 0.01
MIN_BIN = 10  # keeps chi-square cells away from tiny expected counts


def sample(path: Path) -> dict[str, list]:
    """Every series of one document over its seeds, by name.

    ``app.<id>.outcome`` holds strings; ``app.<id>.result``,
    ``app.<id>.elapsed_s`` and ``sessions_<outcome>`` hold numbers.  An app
    left unfinished has no result and no elapsed time.
    """
    scenario, _ = load_scenario(json.loads(path.read_text(encoding="utf-8")))
    seeds = SEEDS.get(path.stem, DEFAULT_SEEDS)
    runs = [run_scenario(scenario, seed=seed) for seed in seeds]
    series: dict[str, list] = {}
    for art in runs:
        for app_id, info in sorted(art.summary["apps"].items()):
            series.setdefault(f"app.{app_id}.outcome", []).append(info["outcome"])
            for key in ("result", "elapsed_s"):
                if key in info:
                    series.setdefault(f"app.{app_id}.{key}", []).append(info[key])
    sessions = sorted({row[2] for art in runs for row in art.metrics_rows
                       if row[2].startswith("sessions_")})
    for name in sessions:
        series[name] = [next((row[3] for row in art.metrics_rows if row[2] == name), 0.0)
                        for art in runs]
    return series


def p_value(reference: list, current: list) -> float:
    """Two-sample p-value of one series: chi-square for strings, KS otherwise.

    Outcomes seen fewer than MIN_BIN times in both samples together share
    one chi-square bin.
    """
    if not reference or not current:
        return 1.0 if not reference and not current else 0.0
    if isinstance((reference + current)[0], str):
        common = [k for k in sorted(set(reference) | set(current))
                  if reference.count(k) + current.count(k) >= MIN_BIN]

        def row(series: list) -> list[int]:
            counts = [series.count(k) for k in common]
            return counts + [len(series) - sum(counts)]

        columns = [col for col in zip(row(reference), row(current)) if any(col)]
        if len(columns) < 2:
            return 1.0
        return float(stats.chi2_contingency(list(zip(*columns)))[1])
    return float(stats.ks_2samp(reference, current, method="asymp").pvalue)


def compare(reference: dict[str, dict[str, list]],
            current: dict[str, dict[str, list]],
            alpha: float = ALPHA) -> list[str]:
    """What fails the gate; empty when every series holds its distribution.

    Series equal to their reference are not tested.  A series that exists
    on one side only fails.  The rest share alpha evenly.
    """
    problems: list[str] = []
    tests: list[tuple[str, list, list]] = []
    for doc in sorted(set(reference) | set(current)):
        ref, cur = reference.get(doc), current.get(doc)
        if ref is None or cur is None:
            problems.append(f"{doc}: in one sample only")
            continue
        for name in sorted(set(ref) | set(cur)):
            if ref.get(name) == cur.get(name):
                continue
            tests.append((f"{doc} {name}", ref.get(name, []), cur.get(name, [])))
    if not tests:
        return problems
    threshold = alpha / len(tests)
    p_values = {label: p_value(ref_series, cur_series)
                for label, ref_series, cur_series in tests}
    lowest = min(p_values, key=p_values.get)
    print(f"{len(tests)} series differ and are tested at p < {threshold:.3g}; "
          f"the lowest p is {p_values[lowest]:.3g} ({lowest})")
    return problems + [f"{label}: p = {p:.3g}" for label, p in p_values.items()
                       if p < threshold]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the reference from this code")
    args = parser.parse_args(argv)
    current = {path.stem: sample(path) for path in DOCUMENTS}
    if args.write:
        REFERENCE.write_text(json.dumps(current, sort_keys=True, separators=(",", ":"))
                             + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE}")
        return 0
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if current == reference:
        print("distribution gate: every series equals the reference")
        return 0
    problems = compare(reference, current)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"distribution gate: {'failed' if problems else 'passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
