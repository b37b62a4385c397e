"""One checker for the rules every run's trace obeys.

    python tests/tracecheck.py DIR [DIR ...]

reads trace.jsonl, summary.json and metrics.csv from each directory that
`oneq run --out DIR` wrote, prints every violation and exits 1 if there is
any.  Tests call violations() on a run's records, summary and metric rows,
and ends() where they register pairs straight into the ledger, so those
pairs have no creation record.  Nothing here imports the package under
test, so a fault there cannot hide here.

The rules:
- the trace has one line per record counted in summary.json trace_records
- summary.json events_by_kind, where present, sums to its events
- t never decreases
- every resource a record creates ends exactly once.  pair-created,
  ghz-created and a swap's out create one; pair-consumed, pair-discarded,
  pair-expired and each of a swap's ins end one
- a swap lists one more input than repeaters, and none of its inputs is
  the output of a swap at the same t
- a resource is consumed only while each of its UE holders is Entangled
- each node's state-transition leaves the node's last state (Idle at
  first) along an allowed edge
- metrics.csv counts each resource once when it is made and once when it
  ends
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

CREATED = ("pair-created", "ghz-created")
ENDED = ("pair-consumed", "pair-discarded", "pair-expired")
EDGES = {("Idle", "Connected"), ("Connected", "Inactive"), ("Connected", "Entangled"),
         ("Inactive", "Connected"), ("Entangled", "Connected")}
MADE = ("pairs_created", "ghz_created", "pairs_swapped")
RETIRED = ("pairs_consumed", "pairs_discarded", "pairs_expired")


def _ended_ids(record: dict) -> list[str]:
    if record["kind"] in ENDED:
        return [record["details"]["id"]]
    if record["kind"] == "swap":
        return record["details"]["ins"].split("+")
    return []


def _created_ids(record: dict) -> list[str]:
    if record["kind"] in CREATED:
        return [record["details"]["id"]]
    if record["kind"] == "swap":
        return [record["details"]["out"]]
    return []


def ends(records) -> dict:
    """The terminal record of each resource id; raises on an id that ends twice."""
    ended: dict = {}
    for record in records:
        for rid in _ended_ids(record):
            if rid in ended:
                raise ValueError(f"{rid} ends twice: {ended[rid]} and {record}")
            ended[rid] = record
    return ended


def violations(records, summary: dict | None = None,
               metrics_rows=None) -> list[str]:
    """One message per broken rule, naming its record by number (from 1).

    metrics_rows are (run_id, seed, metric, value, unit) rows, as a run
    returns them or as metrics.csv holds them below its header.
    """
    records = list(records)
    found: list[str] = []

    def report(n: int, message: str) -> None:
        r = records[n - 1]
        found.append(f"record {n} ({r['kind']} at {r['node']}, t={r['t']}): {message}")

    if summary is not None and len(records) != summary["trace_records"]:
        found.append(f"{len(records)} trace records, but summary.json counts "
                     f"{summary['trace_records']}")
    if summary is not None and "events_by_kind" in summary \
            and sum(summary["events_by_kind"].values()) != summary["events"]:
        found.append(f"summary.json events_by_kind sums to "
                     f"{sum(summary['events_by_kind'].values())}, but events is "
                     f"{summary['events']}")
    created: dict[str, int] = {}  # resource id -> number of its creating record
    ended: dict[str, int] = {}
    swap_outs: set = set()  # (t, out) of every swap so far
    state: dict[str, str] = {}  # node -> its last state
    t_last = -math.inf
    for n, r in enumerate(records, 1):
        kind, t, d = r["kind"], r["t"], r["details"]
        if t < t_last:
            report(n, f"t steps back from {t_last}")
        t_last = max(t, t_last)
        for rid in _ended_ids(r):
            if rid in ended:
                report(n, f"{rid} already ended at record {ended[rid]}")
            elif rid not in created:
                report(n, f"{rid} ends, but no earlier record creates it")
            ended.setdefault(rid, n)
        if kind == "swap":
            ins, at = d["ins"].split("+"), d["at"].split("+")
            if len(ins) != len(at) + 1:
                report(n, f"ins {d['ins']} for at {d['at']}: "
                          "not one more input than repeaters")
            if any((t, rid) in swap_outs for rid in ins):
                report(n, "an input is the output of a swap at the same t")
            swap_outs.add((t, d["out"]))
        for rid in _created_ids(r):
            created[rid] = n
        if kind == "pair-consumed" and d["holder_states"] != "bs-only" and not all(
                s.endswith(":Entangled") for s in d["holder_states"].split("+")):
            report(n, f"consumed while its holders are {d['holder_states']}")
        if kind == "state-transition":
            last = state.get(r["node"], "Idle")
            if d["frm"] != last:
                report(n, f"leaves {d['frm']}, but the node is {last}")
            if (d["frm"], d["to"]) not in EDGES:
                report(n, f"{d['frm']} -> {d['to']} is not an allowed edge")
            state[r["node"]] = d["to"]
    for rid, n in created.items():
        if rid not in ended:
            report(n, f"{rid} never ends")
    if metrics_rows is not None:
        counts = {row[2]: float(row[3]) for row in metrics_rows}
        made = sum(counts.get(name, 0.0) for name in MADE)
        retired = sum(counts.get(name, 0.0) for name in RETIRED)
        if made != retired:
            found.append(f"metrics: {made:g} resources made ({' + '.join(MADE)}), "
                         f"{retired:g} ended ({' + '.join(RETIRED)})")
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/tracecheck.py DIR [DIR ...]", file=sys.stderr)
        return 2
    failed = False
    for arg in argv:
        out = Path(arg)
        with open(out / "trace.jsonl", encoding="utf-8") as f:
            records = [json.loads(line) for line in f]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        with open(out / "metrics.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))[1:]
        found = violations(records, summary, rows)
        for message in found:
            print(f"{arg}: {message}")
        if not found:
            print(f"{arg}: ok")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
