"""Check that a run imports only the code it uses.

Usage: python -S tests/import_guard.py DIR

DIR is the directory that holds the ``oneq`` package: ``src`` in a
checkout, or site-packages for an installed copy.  Run it under ``-S``, so
that no site hook imports a module on the program's behalf.

It imports ``oneq.runner`` and ``oneq.scenario``, then loads
``scenarios/ubqc_chain.json`` and runs it to 0.2 s.  That run names no QKD
or sensing app and runs no sweep, so ``oneq.apps.qkd``,
``oneq.apps.sensing`` and ``logging`` must not be imported.  Loading
``scenarios/qkd_baseline.json`` must then import ``oneq.apps.qkd``, and
loading ``scenarios/sensing_sql.json`` ``oneq.apps.sensing``.  It prints
one line per fault and exits 1 if there is any.
"""

from __future__ import annotations

import sys
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NOT_IMPORTED = ("oneq.apps.qkd", "oneq.apps.sensing", "logging")


def faults(home: Path) -> list[str]:
    sys.path.insert(0, str(home))
    import oneq.runner
    import oneq.scenario
    found = []
    if not Path(oneq.__file__).resolve().is_relative_to(home.resolve()):
        found.append(f"oneq was imported from {oneq.__file__}, not from {home}")
    scenario, _ = oneq.scenario.load_scenario_file(str(SCENARIOS / "ubqc_chain.json"))
    oneq.runner.run_scenario(scenario, until=0.2)
    found.extend(f"a ubqc_chain run imported {name}"
                 for name in NOT_IMPORTED if name in sys.modules)
    for stem, module in (("qkd_baseline", "oneq.apps.qkd"),
                         ("sensing_sql", "oneq.apps.sensing")):
        oneq.scenario.load_scenario_file(str(SCENARIOS / f"{stem}.json"))
        if module not in sys.modules:
            found.append(f"loading {stem} did not import {module}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    found = faults(Path(argv[0]))
    for fault in found:
        print(fault)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
