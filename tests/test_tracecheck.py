"""The trace checker: every run obeys its rules, and each fault is reported.

Every record of the pinned runs also matches one row of the record
catalogue, and every row is written by a pinned run or a named test."""

import functools
import importlib
import inspect
import json
from pathlib import Path

import pytest

import tracecheck
from oneq import runner
from oneq.records import CATALOGUE
from oneq.runner import run_scenario, write_artifacts
from oneq.scenario import load_scenario_file

REPO = Path(__file__).resolve().parent.parent
HANDOVER = REPO / "tests" / "data" / "handover_migrates_buffer.json"
RUNS = sorted((REPO / "scenarios").glob("*.json")) + [
    HANDOVER, REPO / "tests" / "data" / "sensing_ghz.json"]


@functools.lru_cache(maxsize=None)
def _scenario(path):
    return load_scenario_file(str(path))[0]


def _records(art):
    return [json.loads(line) for line in art.trace_jsonl.splitlines()]


ROWS_OF_KIND = {kind: [row for row in CATALOGUE if row.kind == kind]
                for kind in {row.kind for row in CATALOGUE}}


def _rows_of(record) -> list[str]:
    """The catalogue rows whose kind, keys, fixed values and types the record has."""
    d = record["details"]
    return [row.name for row in ROWS_OF_KIND.get(record["kind"], ()) if set(row.keys) == set(d)
            and all(type(d[k]) is v if isinstance(v, type) else d[k] == v
                    for k, v in row.keys.items())]


@functools.lru_cache(maxsize=None)
def _checked(path, seed):
    """One pinned run: its trace-rule violations, its records that do not match
    exactly one catalogue row, and the rows its records match."""
    art = run_scenario(_scenario(path), seed=seed)
    records = _records(art)
    rows = [_rows_of(r) for r in records]
    return (tracecheck.violations(records, art.summary, art.metrics_rows),
            [r for r, names in zip(records, rows) if len(names) != 1][:5],
            {names[0] for names in rows if len(names) == 1})


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("path", RUNS, ids=lambda p: p.stem)
def test_every_run_obeys_the_trace_rules(path, seed):
    assert _checked(path, seed)[0] == []


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("path", RUNS, ids=lambda p: p.stem)
def test_every_record_matches_one_catalogue_row(path, seed):
    assert _checked(path, seed)[1] == []


# Rows that no pinned run writes, each with a test that writes and checks it.
WRITTEN_BY_TESTS = {
    "msg_no_route": "test_protocol.py::TestRoutedMessage::test_unattached_end_has_no_route",
    "registration_failed":
        "test_protocol.py::TestStateMachine::test_lost_registration_message_is_recorded",
    "warn_attachment_failed":
        "test_protocol.py::TestStateMachine::test_failed_attachment_warns_and_the_run_goes_on",
    "session_rejected": "test_protocol.py::TestFidelityAdmission::"
                        "test_just_below_the_threshold_is_rejected_without_a_draw",
    "teleport": "test_protocol.py::TestTeleport::"
                "test_perfect_pair_preserves_state_and_destroys_sender",
    "teleport_lost":
        "test_protocol.py::TestTeleport::test_destroyed_payload_cannot_be_teleported_again",
    "handover_rejected":
        "test_protocol.py::TestHandover::test_handover_that_cannot_start_is_rejected",
    "warn_soft_infeasible": "test_protocol.py::TestHandover::test_soft_falls_back_without_bridge",
    "warn_bridge_failed":
        "test_protocol.py::TestBridgeBound::test_bridge_that_never_heralds_times_out",
    "sensing_report_uncovered": "test_sensing.py::TestSeparableTimeline::"
                                "test_reports_outside_coverage_are_exactly_the_discards",
}


def test_every_catalogue_row_is_written():
    in_runs = set().union(*(_checked(path, seed)[2] for path in RUNS for seed in range(12)))
    assert in_runs.isdisjoint(WRITTEN_BY_TESTS)
    assert in_runs | set(WRITTEN_BY_TESTS) == {row.name for row in CATALOGUE}
    for row in CATALOGUE:
        if row.name in WRITTEN_BY_TESTS:
            # the test names the row by its distinguishing fixed text, else by its kind
            module, *path = WRITTEN_BY_TESTS[row.name].split("::")
            test = functools.reduce(getattr, path, importlib.import_module(module[:-3]))
            needles = [v for v in row.keys.values() if isinstance(v, str)] or [row.kind]
            assert all(f'"{n}"' in inspect.getsource(test) for n in needles), row.name


def test_ledger_kinds_match_the_catalogue_roles():
    kinds = {role: {row.kind for row in CATALOGUE if row.role == role}
             for role in ("creates", "ends", "swaps")}
    assert set(tracecheck.CREATED) == kinds["creates"]
    assert set(tracecheck.ENDED) == kinds["ends"]
    assert kinds["swaps"] == {"swap"}


# The terminal state the ledger keeps for a resource, by the kind of its ending record.
TERMINAL_OF = {"pair-consumed": "consumed", "swap": "consumed",
               "pair-discarded": "discarded", "pair-expired": "expired"}


def _run_keeping_stack(path, seed, monkeypatch, on_stack=lambda stack: None):
    """run_scenario at seed, and the one Stack it built, passed to on_stack first."""
    stacks = []

    class Kept(runner.Stack):
        def __init__(self, *args):
            super().__init__(*args)
            on_stack(self)
            stacks.append(self)

    monkeypatch.setattr(runner, "Stack", Kept)
    run_scenario(_scenario(path), seed=seed)
    (stack,) = stacks
    return stack


@pytest.mark.parametrize("path", RUNS, ids=lambda p: p.stem)
def test_the_closed_ledger_agrees_with_the_trace(path, monkeypatch):
    stack = _run_keeping_stack(path, 0, monkeypatch)
    ends = tracecheck.ends(stack.sim.trace)
    assert stack.ledger.resources == {}
    assert stack.ledger.state == {rid: TERMINAL_OF[r["kind"]] for rid, r in ends.items()}


def test_the_ledger_holds_exactly_its_live_resources(monkeypatch):
    calls = []

    def check_each_call(stack):
        ledger = stack.ledger

        def checked(method):
            def call(*args):
                out = method(*args)
                calls.append(method.__name__)
                assert ledger.resources.keys() == {
                    rid for rid, state in ledger.state.items() if state == "live"}
                return out
            return call

        ledger.register = checked(ledger.register)
        ledger.finish = checked(ledger.finish)

    stack = _run_keeping_stack(REPO / "scenarios" / "metro_with_satellite.json", 0,
                               monkeypatch, check_each_call)
    assert calls.count("register") == calls.count("finish") == len(stack.ledger.state) > 0


@functools.lru_cache(maxsize=None)
def _handover_run():
    # seed 0: swaps, bridge pairs, a soft handover's transitions, expiries
    return run_scenario(_scenario(HANDOVER), seed=0)


def _first(records, kind, **details):
    return next(i for i, r in enumerate(records) if r["kind"] == kind
                and all(r["details"][k] == v for k, v in details.items()))


def _duplicate_consume(records, rows):
    i = _first(records, "pair-consumed")
    records.insert(i + 1, records[i])


def _drop_swap_input(records, rows):
    d = records[_first(records, "swap")]["details"]
    d["ins"] = d["ins"].split("+", 1)[1]


def _consume_while_connected(records, rows):
    i = _first(records, "pair-consumed", holder_states="QUE1:Entangled+QUE2:Entangled")
    records[i]["details"]["holder_states"] = "QUE2:Connected"


def _idle_to_entangled(records, rows):
    records[_first(records, "state-transition")]["details"]["to"] = "Entangled"


def _drop_line(records, rows):
    del records[_first(records, "msg")]


def _exchange_times(records, rows):
    records[0]["t"], records[-1]["t"] = records[-1]["t"], records[0]["t"]


def _discard_one_more(records, rows):
    (i,) = [i for i, row in enumerate(rows) if row[2] == "pairs_discarded"]
    rows[i] = (*rows[i][:3], rows[i][3] + 1, rows[i][4])


FAULTS = [
    (_duplicate_consume, "already ended at record"),
    (_drop_swap_input, "ins p000144 for at QBS1"),
    (_consume_while_connected, "consumed while its holders are QUE2:Connected"),
    (_idle_to_entangled, "Idle -> Entangled is not an allowed edge"),
    (_drop_line, "1220 trace records, but summary.json counts 1221"),
    (_exchange_times, "t steps back"),
    (_discard_one_more, "metrics: 215 resources made"),
]


@pytest.mark.parametrize("fault, message", FAULTS,
                         ids=[fault.__name__.strip("_") for fault, _ in FAULTS])
def test_each_fault_is_reported(fault, message):
    art = _handover_run()
    records, rows = _records(art), list(art.metrics_rows)
    assert tracecheck.violations(records, art.summary, rows) == []
    fault(records, rows)
    found = tracecheck.violations(records, art.summary, rows)
    assert any(message in m for m in found), found


def test_ends_reports_an_id_that_ends_twice():
    records = _records(_handover_run())
    assert len(tracecheck.ends(records)) == 215
    _duplicate_consume(records, [])
    with pytest.raises(ValueError, match="ends twice"):
        tracecheck.ends(records)


def test_command_reads_a_run_directory(tmp_path, capsys):
    write_artifacts(_handover_run(), str(tmp_path))
    assert tracecheck.main([str(tmp_path)]) == 0
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(trace.read_text("utf-8").splitlines(True)[1:]), "utf-8")
    assert tracecheck.main([str(tmp_path)]) == 1
    assert "1220 trace records" in capsys.readouterr().out


def test_events_by_kind_must_sum_to_events():
    art = _handover_run()
    summary = dict(art.summary)
    assert sum(summary["events_by_kind"].values()) == summary["events"]
    summary["events_by_kind"] = {**summary["events_by_kind"], "timer": 1 + summary[
        "events_by_kind"]["timer"]}
    found = tracecheck.violations(_records(art), summary, art.metrics_rows)
    assert found == [f"summary.json events_by_kind sums to {summary['events'] + 1}, "
                     f"but events is {summary['events']}"]
