"""The mutant table: small faults in src/ that named tests must catch.

Each row names a file under src/, an exact old text that occurs there once,
its replacement, the test ids that must fail once it is made, and the
CHANGES.md entry the mutant comes from.  Run the harness from anywhere:

    python tests/mutants.py

It first runs every row's tests on an unmutated copy of src/, where they
must pass.  Then, one row at a time, it copies src/ to a temporary
directory, makes the row's replacement and runs the row's tests in one
pytest subprocess with PYTHONPATH at the copy; every named test must fail.
Exits 1 when the clean copy fails a test or a mutant survives one.
tests/test_mutants.py checks, without running any mutant, that every old
text still occurs exactly once; a change that rewrites a mutated line
updates its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

DIGEST = "tests/test_artifact_digests.py::test_artifacts_match_pinned_digests"
DEADLINE = "tests/test_protocol.py::TestAttemptDeadline"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str  # occurs exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which the mutant must fail
    source: str  # the CHANGES.md entry the mutant comes from


MUTANTS = (
    Mutant(
        "last-slot-full-period", "oneq/protocol.py",
        "slot = min(period, max(deadline - sim.now, 1e-12))",
        "slot = period",
        (f"{DEADLINE}::test_last_slot_of_a_session_that_never_heralds_ends_at_the_deadline",
         f"{DIGEST}[qkd_baseline_deadline]"),
        "CHANGES.md, the qkd_baseline_deadline entry: mutant A"),
    Mutant(
        "doubled-session-budget", "oneq/protocol.py",
        "deadline = t_start + request.max_latency_s",
        "deadline = t_start + 2 * request.max_latency_s",
        (f"{DEADLINE}::test_no_herald_at_or_after_the_deadline[session]",
         f"{DEADLINE}::test_last_slot_of_a_session_that_never_heralds_ends_at_the_deadline",
         f"{DIGEST}[qkd_baseline_deadline]",
         "tests/test_ubqc.py::TestShotProvisioning::test_short_shot_discards_its_partial_pairs"),
        "CHANGES.md, the qkd_baseline_deadline entry: mutant B"),
    Mutant(
        "route-ues-touched-at-each-hop", "oneq/protocol.py",
        "            for ctx in hop.ends:",
        "            for ctx in (self.ues[n] for n in route if n in self.ues):",
        ("tests/test_protocol.py::TestRunTables::"
         "test_ue_ends_of_a_routed_message_take_their_hop_arrival_times",),
        "CHANGES.md, \"Look each name up once per run\": table mutants"),
    Mutant(
        "holder-table-on-the-topology", "oneq/protocol.py",
        "_Table(\n            partial(_new_holders, topo, self.ues))",
        "vars(topo).setdefault(\n"
        "            \"_holder_table\", _Table(partial(_new_holders, topo, self.ues)))",
        ("tests/test_protocol.py::TestRunTables::test_stacks_on_one_topology_share_no_entry",),
        "CHANGES.md, \"Look each name up once per run\": table mutants"),
    Mutant(
        "retry-cap-plus-one", "oneq/protocol.py",
        "for _ in range(self.defaults.retry_cap):",
        "for _ in range(self.defaults.retry_cap + 1):",
        ("tests/test_protocol.py::TestMessaging::test_dead_link_exhausts_retry_cap",
         f"{DIGEST}[qkd_swapped_lossy_backbone]"),
        "CHANGES.md, \"Per-event steps read per-run constants\""),
    Mutant(
        "herald-draws-on-a-full-memory", "oneq/protocol.py",
        "        if not self.ledger.can_store(seg.holders):\n            return None",
        "        if not self.ledger.can_store(seg.holders):\n"
        "            self._heralds[seg.source].random()\n            return None",
        (f"{DIGEST}[metro_que3_one_slot]",),
        "CHANGES.md, \"Per-event steps read per-run constants\""),
    Mutant(
        "failed-at-first-station", "oneq/protocol.py",
        "failed_at=src, reason=reason)",
        "failed_at=route[0], reason=reason)",
        (f"{DIGEST}[qkd_swapped_lossy_backbone]",
         "tests/test_artifact_digests.py::"
         "test_lossy_backbone_variant_fails_messages_on_retries_past_the_first_hop"),
        "CHANGES.md, \"Per-event steps read per-run constants\""),
    Mutant(
        "advance-jumps-ties", "oneq/engine.py",
        "t < self._heap[0][0]",
        "t <= self._heap[0][0]",
        ("tests/test_engine.py::TestAdvance::"
         "test_a_step_tied_with_a_queued_event_is_not_advanced_and_runs_after_it",
         f"{DIGEST}[qkd_local_vs_swapped]",
         f"{DIGEST}[qkd_swapped_lossy_backbone]"),
        "CHANGES.md, \"A step the queue would hand out next runs inside its process\""),
    Mutant(
        "one-segment-loop-stops-early", "oneq/protocol.py",
        "request.count - len(delivered) if len(plan) == 1 else 1",
        "request.count - len(delivered) - 1 if len(plan) == 1 else 1",
        ("tests/test_protocol.py::TestHeraldLoopRuns::"
         "test_one_segment_session_enters_the_loop_once_per_pass[4]",
         "tests/test_ubqc.py::TestShippedChain::test_one_session_per_shot_keeps_the_counts",
         "tests/test_qkd.py::TestAppOnEngine::test_ideal_pairs_give_identical_keys"),
        "CHANGES.md, \"A step the queue would hand out next runs inside its process\""),
)


def _copy_src(into: Path, mutant: Mutant | None = None) -> Path:
    """src/ copied under into, with mutant's replacement made when one is given."""
    copy = into / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = copy / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                             f"times in src/{mutant.file}, not once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return copy


def _failed(src: Path, tests: list[str]) -> tuple[int, set[str]]:
    """Run tests against the sources at src; pytest's exit code and the failed ids."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=REPO, env=env, capture_output=True, text=True)
    failed = {line.split(" ")[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({test for row in MUTANTS for test in row.tests})
        code, failed = _failed(_copy_src(Path(tmp) / "clean"), tests)
        print(f"unmutated: {'passes' if code == 0 else f'fails {sorted(failed)}'}")
        bad += code != 0
        for row in MUTANTS:
            _, failed = _failed(_copy_src(Path(tmp) / row.name, row), list(row.tests))
            survived = sorted(set(row.tests) - failed)
            print(f"{row.name}: {'killed' if not survived else f'survives {survived}'}")
            bad += bool(survived)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
