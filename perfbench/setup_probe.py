"""Set-up probe: one fresh process from start to the first simulated event.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports the simulator, builds or reads the workload's scenarios, validates
them, and starts the first run; it stops as the event loop is entered.  It
prints one JSON line with CLOCK_MONOTONIC readings (system-wide on Linux,
so the parent can subtract its own reading taken before the spawn) and the
digest of the workload's inputs as this process built them.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _FirstEvent(Exception):
    pass


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import oneq.runner
    import oneq.scenario
    t_import = _now()

    import workloads
    stamps: dict[str, float] = {}

    def stop_at_first_event(sim, t_end):
        stamps["first_event"] = _now()
        raise _FirstEvent

    oneq.engine.Simulator.run_until = stop_at_first_event
    _label, scenario, run_seed = workloads.load_runs(workload, seed, ROOT)[0]
    try:
        oneq.runner.run_scenario(scenario, seed=run_seed)
    except _FirstEvent:
        pass
    print(json.dumps({"import_done": t_import, "first_event": stamps["first_event"],
                      "inputs": workloads.fingerprint(workload, seed, ROOT)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
