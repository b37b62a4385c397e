"""Scenario schema, runner artifacts, sweeps, and the command line."""

import copy
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import _DELETE, _edited, drive
from oneq.cli import main
from oneq.engine import Simulator
from oneq.errors import InternalError, OneQError, SchemaError
from oneq.protocol import MESSAGE_BITS, Stack
from oneq.runner import (
    derive_seed,
    run_scenario,
    run_sweep,
    set_by_path,
    sweep_csv,
    write_artifacts,
)
from oneq.scenario import load_scenario, load_scenario_file

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((REPO / "scenarios").glob("*.json"))
BASELINE = REPO / "scenarios" / "qkd_baseline.json"


def _baseline_doc():
    return json.loads(BASELINE.read_text(encoding="utf-8"))


_SHIPPED = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in SCENARIOS}


def _json_paths(node, path="$"):
    """(path, value) of every value under node: each key and each list element."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        inner = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"
        yield inner, value
        yield from _json_paths(value, inner)


_PATHS = {stem: list(_json_paths(doc)) for stem, doc in _SHIPPED.items()}

# Every kind of bad scenario: (name, shipped scenario, the edits that make
# it bad, the one violation load_scenario reports).  A new case is a row.
_METRO, _SENSING = "metro_with_satellite", "sensing_sql"
FAULTS = [
    ("app_duplicate_id", "qkd_local_vs_swapped", {"$.apps[1].id": "local"},
     "$.apps[1].id: duplicate app id 'local'"),
    ("app_not_object", "qkd_baseline", {"$.apps[0]": 3},
     "$.apps[0]: expected object, got int"),
    ("app_start_negative", _METRO, {"$.apps[0].start_s": -0.05},
     "$.apps[0]: start_s must be nonnegative, got -0.05"),
    ("app_unknown_node", "qkd_baseline", {"$.apps[0].bob": "NOPE"},
     "$.apps[0].bob: unknown node id 'NOPE'"),
    ("attachment_not_object", "qkd_baseline", {"$.attachments[0]": ["QUE1", "QBS1"]},
     "$.attachments[0]: expected object, got list"),
    ("attachment_ue_is_station", "qkd_baseline", {"$.attachments[0].ue": "QBS1"},
     "$.attachments[0].ue: 'QBS1' is not user equipment"),
    ("attachment_ue_twice", _METRO, {"$.attachments[2].ue": "QUE1"},
     "$.attachments[2].ue: 'QUE1' is already attached at $.attachments[0]"),
    ("cue_with_memory_slots", _METRO, {"$.nodes[7].memory_slots": 4},
     "$.nodes[7]: node CUE5: a CUE has no quantum memory slots"),
    ("defaults_f_min_above_one", "qkd_local_vs_swapped", {"$.defaults.f_min": 1.5},
     "$.defaults: f_min must lie in [0.25, 1], got 1.5"),
    ("defaults_message_bits_string", "qkd_baseline",
     {"$.defaults": {"message_bits": {"ack": "x"}}},
     "$.defaults.message_bits.ack: expected float, got str"),
    ("defaults_message_bits_negative", "qkd_baseline",
     {"$.defaults": {"message_bits": {"registration": -100}}},
     "$.defaults: message_bits.registration must be nonnegative, got -100.0"),
    ("defaults_message_bits_unknown_kind", "qkd_baseline",
     {"$.defaults": {"message_bits": {"ackk": 128}}},
     "$.defaults: message_bits.ackk: unknown message kind"),
    ("defaults_registration_messages_zero", "qkd_baseline",
     {"$.defaults": {"registration_messages": 0}},
     "$.defaults: registration_messages must be at least 1, got 0"),
    ("defaults_retry_cap_zero", "ubqc_chain", {"$.defaults.retry_cap": 0},
     "$.defaults: retry_cap must be at least 1, got 0"),
    ("defaults_timeout_negative", "ubqc_chain", {"$.defaults.inactivity_timeout_s": -1},
     "$.defaults: inactivity_timeout_s must be positive, got -1.0"),
    ("defaults_timeout_zero", "ubqc_chain", {"$.defaults.inactivity_timeout_s": 0},
     "$.defaults: inactivity_timeout_s must be positive, got 0.0"),
    # renaming a node would also leave its links without an end
    ("duplicate_node_id", "qkd_baseline",
     {"$.nodes[-]": {"id": "QUE1", "kind": "QUE", "position": [0, 0, 0], "memory_slots": 4}},
     "$.nodes[3].id: duplicate node id 'QUE1'"),
    ("empty_nodes", "qkd_baseline", {"$.nodes": []},
     "$.nodes: at least one node is required"),
    ("link_unknown_endpoint", "qkd_baseline", {"$.classical_links[0].b": "GHOST"},
     "$.classical_links[0].b: unknown node id 'GHOST'"),
    ("missing_schema_version", "qkd_baseline", {"$.schema_version": _DELETE},
     "$.schema_version: missing required field"),
    ("mobility_static_with_waypoints", _METRO, {"$.nodes[4].mobility.kind": "static"},
     "$.nodes[4].mobility: static mobility takes no waypoints"),
    ("mobility_waypoint_object", _METRO, {"$.nodes[4].mobility.waypoints[0][1]": {}},
     "$.nodes[4].mobility.waypoints[0][1]: expected list, got object"),
    ("mobility_waypoint_with_period", _METRO, {"$.nodes[4].mobility.period": 1.0},
     "$.nodes[4].mobility: waypoint mobility takes no pass_start, pass_duration "
     "or period"),
    ("negative_duration", "qkd_baseline", {"$.duration_s": -2.0},
     "$.duration_s: must be positive, got -2.0"),
    ("op_at_negative", _METRO, {"$.ops[0].at_s": -0.9},
     "$.ops[0]: at_s must be nonnegative, got -0.9"),
    ("op_to_is_ue", _METRO, {"$.ops[0].to": "QUE2"},
     "$.ops[0].to: 'QUE2' is not a base station"),
    ("op_ue_is_station", _METRO, {"$.ops[0].ue": "QBS1"},
     "$.ops[0].ue: 'QBS1' is not user equipment"),
    ("op_unknown", _METRO, {"$.ops[0].op": "teleport"}, "$.ops[0]: unknown op 'teleport'"),
    ("orbit_pass_longer_than_period", _METRO, {"$.nodes[2].mobility.pass_duration": 2.0},
     "$.nodes[2].mobility: pass_duration must lie in (0, period]"),
    ("policy_buffer_target_zero", _METRO, {"$.policy.buffer_target": 0},
     "$.policy: a proactive policy needs buffer_target >= 1, got 0"),
    ("policy_check_period_zero", _METRO, {"$.policy.check_period_s": 0},
     "$.policy: check_period_s must be positive, got 0.0"),
    ("policy_min_fidelity_low", _METRO, {"$.policy.min_fidelity": 0.2},
     "$.policy: min_fidelity must lie in [0.25, 1], got 0.2"),
    ("policy_proactive_without_targets", _METRO, {"$.policy.targets": []},
     "$.policy: a proactive policy needs at least one target"),
    ("policy_reactive_with_targets", _METRO, {"$.policy.mode": "reactive"},
     "$.policy: a reactive policy takes no targets"),
    ("policy_target_not_station", _METRO, {"$.policy.targets[0][0]": "QUE1"},
     "$.policy.targets[0][0]: 'QUE1' is not a base station"),
    ("policy_target_twice", _METRO, {"$.policy.targets[-]": ["SAT1", "QUE3"]},
     "$.policy.targets[1]: ['SAT1', 'QUE3'] is already listed at $.policy.targets[0]"),
    ("qkd_alice_base_station", "qkd_baseline", {"$.apps[0].alice": "QBS1"},
     "$.apps[0].alice: 'QBS1' is not user equipment"),
    ("qkd_alice_is_bob", "qkd_baseline", {"$.apps[0].bob": "QUE1"},
     "$.apps[0].bob: 'QUE1' is alice too; a pair needs two distinct holders"),
    ("qkd_alice_list", "qkd_baseline", {"$.apps[0].alice": []},
     "$.apps[0].alice: expected str, got list"),
    ("qkd_latency_negative", "qkd_baseline", {"$.apps[0].max_latency_s": -1},
     "$.apps[0]: max_latency_s must be positive, got -1.0"),
    ("qkd_max_rounds_zero", "qkd_retry_sweetspot", {"$.apps[0].max_rounds": 0},
     "$.apps[0]: max_rounds must be positive, got 0"),
    ("qkd_min_fidelity_above_one", "qkd_baseline", {"$.apps[0].min_fidelity": 2.0},
     "$.apps[0]: min_fidelity must lie in [0.25, 1], got 2.0"),
    ("qkd_min_fidelity_string", "qkd_baseline", {"$.apps[0].min_fidelity": "hi"},
     "$.apps[0].min_fidelity: expected float, got str"),
    ("qkd_n_pairs_exceeds_memory", "qkd_baseline", {"$.nodes[1].memory_slots": 8},
     "$.apps[0].n_pairs: alice 'QUE1' has 8 memory slots, a batch holds 24 pairs"),
    ("qkd_n_pairs_fractional", "qkd_baseline", {"$.apps[0].n_pairs": 2.5},
     "$.apps[0].n_pairs: expected int, got float"),
    ("qkd_qber_abort_negative", "qkd_baseline", {"$.apps[0].qber_abort": -0.1},
     "$.apps[0]: qber_abort out of range: -0.1"),
    ("quantum_link_on_classical_ue", _METRO, {"$.quantum_links[1].b": "CUE5"},
     "$.quantum_links[1].b: 'CUE5' has no quantum hardware"),
    ("quantum_radius_exceeds_classical", "qkd_baseline",
     {"$.cells[0].quantum_radius": 3000},
     "$.cells[0]: cell QBS1: quantum_radius 3000.0 exceeds classical_radius 2000.0"),
    # no shipped app is a GHZ one, and every GHZ app has two sensors or more
    ("sensing_ghz_sensor_no_quantum_link", _METRO,
     {"$.apps[0].mode": "ghz", "$.apps[0].sensors[1]": "CUE5"},
     "$.apps[0].sensors[1]: no quantum link to the fusion node 'QBS1'"),
    ("sensing_phi_nan", _SENSING, {"$.apps[0].phi_true": math.nan},
     "$.apps[0].phi_true: expected a finite number, got nan"),
    ("sensing_reinit_negative", _SENSING, {"$.apps[0].reinit_delay_s": -0.01},
     "$.apps[0]: reinit_delay_s must be nonnegative, got -0.01"),
    ("sensing_sensor_unlinked", _SENSING, {"$.classical_links[0]": _DELETE},
     "$.apps[0].sensors[0]: no classical link to the fusion node 'QBS1'"),
    ("sensing_sensors_string", _SENSING, {"$.apps[0].sensors": "S5"},
     "$.apps[0].sensors: expected list, got str"),
    ("sensing_shots_bool", _SENSING, {"$.apps[0].shots": True},
     "$.apps[0].shots: expected int, got bool"),
    ("sensing_shots_fractional", _SENSING, {"$.apps[0].shots": 2.5},
     "$.apps[0].shots: expected int, got float"),
    ("sensing_t2_nan", _SENSING, {"$.apps[0].t2_s": math.nan},
     "$.apps[0].t2_s: expected a finite number, got nan"),
    ("sensing_tau_infinite", _SENSING, {"$.apps[0].tau_interrogate_s": math.inf},
     "$.apps[0].tau_interrogate_s: expected a finite number, got inf"),
    ("ubqc_client_is_server", "ubqc_chain", {"$.apps[0].server": "QUE1"},
     "$.apps[0].server: 'QUE1' is client too; a pair needs two distinct holders"),
    ("ubqc_exact_int", "ubqc_chain", {"$.apps[0].exact": 0},
     "$.apps[0].exact: expected bool, got int"),
    ("ubqc_latency_zero", "ubqc_chain", {"$.apps[0].max_latency_s": 0},
     "$.apps[0]: max_latency_s must be positive, got 0.0"),
    ("ubqc_min_fidelity_low", "ubqc_chain", {"$.apps[0].min_fidelity": 0.1},
     "$.apps[0]: min_fidelity must lie in [0.25, 1], got 0.1"),
    ("ubqc_shot_exceeds_memory", "ubqc_chain", {"$.nodes[1].memory_slots": 2},
     "$.apps[0].phi_eighths: client 'QUE1' has 2 memory slots, a shot holds 4 pairs"),
    ("unknown_node_kind", "ubqc_chain", {"$.nodes[1].kind": "ROUTER"},
     "$.nodes[1].kind: expected one of 'CBS', 'QBS', 'CUE', 'QUE', 'SAT_QBS', "
     "got 'ROUTER'"),
    ("wrong_schema_version", "ubqc_chain", {"$.schema_version": 2},
     "$.schema_version: unsupported version 2, expected 1"),
]


_each_fault = pytest.mark.parametrize("name,stem,edits,violation", FAULTS,
                                      ids=[row[0] for row in FAULTS])


def _fault_file(tmp_path, name, stem, edits):
    """The row's edited scenario, written to tmp_path."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_edited(_SHIPPED[stem], edits)), encoding="utf-8")
    return path


# A fixed pool of bad values: arbitrary floats are valid input but can make a
# run take forever (attempt_period_s: 1e-300).
_POOL = ["x", True, None, [], {}, 0, -1, 2.5, math.nan, math.inf, -math.inf]


@st.composite
def _mutants(draw):
    """A shipped scenario with one value replaced from the pool, or deleted."""
    stem = draw(st.sampled_from(sorted(_SHIPPED)))
    path, _ = draw(st.sampled_from(_PATHS[stem]))
    return _edited(_SHIPPED[stem], {path: draw(st.sampled_from(_POOL + [_DELETE]))})


class TestLoadScenario:
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_scenarios_are_strictly_clean(self, path):
        scenario, warnings = load_scenario_file(str(path), strict=True)
        assert warnings == []
        assert scenario.duration_s > 0
        assert scenario.topology.nodes

    @_each_fault
    def test_fault_is_rejected_with_its_path(self, name, stem, edits, violation):
        with pytest.raises(SchemaError) as err:
            load_scenario(_edited(_SHIPPED[stem], edits))
        assert err.value.violations == [violation]

    def test_every_topology_fault_is_reported(self):
        doc = _baseline_doc()
        doc["nodes"].append(dict(doc["nodes"][1]))
        doc["classical_links"][1]["a"] = "GHOST"
        doc["repeater_edges"] = [["QBS1", "QUE1"]]
        with pytest.raises(SchemaError) as err:
            load_scenario(doc)
        assert err.value.violations == [
            "$.classical_links[1].a: unknown node id 'GHOST'",
            "$.nodes[3].id: duplicate node id 'QUE1'",
            "$.repeater_edges[0][1]: 'QUE1' is not a QBS",
        ]

    def test_unknown_key_warns_then_fails_strict(self):
        doc = _baseline_doc()
        doc["frobnicate"] = True
        # Deleted schema fields: old files still load, with a warning.
        doc["nodes"][0]["device_class"] = "handset"
        doc["quantum_links"][0]["requires_los"] = True
        scenario, warnings = load_scenario(doc)
        assert any("frobnicate" in w for w in warnings)
        assert "$.nodes[0].device_class: unknown key" in warnings
        assert "$.quantum_links[0].requires_los: unknown key" in warnings
        assert scenario.topology.nodes == load_scenario(_baseline_doc())[0].topology.nodes
        with pytest.raises(SchemaError) as err:
            load_scenario(doc, strict=True)
        assert len(err.value.violations) == 3

    def test_unknown_app_key_warns_then_fails_strict(self):
        doc = _baseline_doc()
        doc["apps"][0]["colour"] = "red"
        scenario, warnings = load_scenario(doc)
        assert warnings == ["$.apps[0].colour: unknown key"]
        assert scenario.apps[0].config == load_scenario(_baseline_doc())[0].apps[0].config
        with pytest.raises(SchemaError) as err:
            load_scenario(doc, strict=True)
        assert err.value.violations == ["$.apps[0].colour: unknown key"]

    def test_non_object_document_rejected(self):
        with pytest.raises(SchemaError):
            load_scenario([1, 2, 3])

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(SchemaError) as err:
            load_scenario_file(str(tmp_path / "nope.json"))
        assert "cannot read" in err.value.violations[0]
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_scenario_file(str(bad))
        assert "invalid JSON" in err.value.violations[0]

    def test_message_bits_override_sets_that_message_latency(self):
        # Same seed, so the same loss draws: only the registration size differs.
        doc = _baseline_doc()
        doc["defaults"] = {"message_bits": {"registration": 4096}}
        elapsed, tries = [], []
        for scenario in (load_scenario(_baseline_doc())[0], load_scenario(doc)[0]):
            sim = Simulator(seed=3)
            stack = Stack(sim, scenario.topology, scenario.defaults)
            assert drive(sim, stack.register("QUE1", "QBS1"))
            elapsed.append(sim.now)
            tries.append(sum(r["details"]["tx"] for r in sim.trace if r["kind"] == "msg"))
        assert stack.bits("registration") == 4096.0
        assert stack.bits("ack") == MESSAGE_BITS["ack"]
        assert tries[0] == tries[1]
        rate = scenario.topology.classical_link("QUE1", "QBS1").rate_bps
        assert elapsed[1] - elapsed[0] == pytest.approx(
            tries[1] * (4096 - MESSAGE_BITS["registration"]) / rate, rel=1e-9)

    def test_multiple_problems_all_reported(self):
        doc = _baseline_doc()
        doc["duration_s"] = -1.0
        doc["seed"] = -4
        with pytest.raises(SchemaError) as err:
            load_scenario(doc)
        joined = "\n".join(err.value.violations)
        assert "$.duration_s" in joined and "$.seed" in joined


def _fail_qkd_midway(monkeypatch):
    """Make every QKD app raise TypeError a quarter second into its run.

    Returns the list the simulated fault times are appended to.
    """
    faults = []

    class FaultyQkd:
        def __init__(self, config):
            pass

        def run(self, stack):
            yield 0.25
            faults.append(stack.sim.now)
            raise TypeError("unsupported operand in the key tally")

    monkeypatch.setattr("oneq.apps.qkd.QkdApp", FaultyQkd)
    return faults


class TestSingleGate:
    """load_scenario is the one gate: what it accepts runs without a bare error."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mutants())
    def test_bad_value_is_rejected_or_runs(self, doc):
        try:
            scenario, _ = load_scenario(doc)
        except SchemaError:
            return
        try:
            run_scenario(scenario, until=min(scenario.duration_s, 0.3))
        except InternalError:
            raise
        except OneQError:
            pass


    @pytest.mark.parametrize("stem", sorted(_SHIPPED))
    def test_node_id_substitution_is_rejected_or_runs(self, stem):
        # every value that names a node, replaced by each other node id of
        # the file: a wrong role, a UE attached twice, a handover op that
        # cannot start at run time
        doc = _SHIPPED[stem]
        ids = [node["id"] for node in doc["nodes"]]
        failures = []
        for path, value in _PATHS[stem]:
            if value not in ids:
                continue
            for other in ids:
                if other == value:
                    continue
                try:
                    scenario, _ = load_scenario(_edited(doc, {path: other}))
                except SchemaError:
                    continue
                try:
                    art = run_scenario(scenario)
                except OneQError as err:
                    failures.append(f"{path}={other}: {type(err).__name__}: {err}")
                    continue
                assert art.summary["t_end"] == pytest.approx(scenario.duration_s)
        assert failures == []


# Horizons a run must refuse.  Before run_scenario checked its horizon, nan
# ran no event, -1 raised a bare ValueError from the engine, and inf never
# returned on the metro scenario, whose provisioner wakes forever.
_BAD_HORIZONS = [("nan", "qkd_baseline"), ("-1", "qkd_baseline"),
                 ("inf", "metro_with_satellite")]

# Seeds a run must refuse, as the loader refuses them in a file.  Before
# run_scenario checked its seed, --seed -1 ran as qkd_baseline-s-1.
_BAD_SEEDS = [-1, -(2 ** 64)]


def _no_event_loop(monkeypatch):
    """Make entering the event loop fail the test, so no refused run can spin."""
    def refuse(sim, t_end):
        raise AssertionError(f"the event loop was entered with t_end={t_end}")
    monkeypatch.setattr(Simulator, "run_until", refuse)


class TestRunner:
    def test_baseline_run_produces_key_and_artifacts(self):
        scenario, _ = load_scenario_file(str(BASELINE))
        art = run_scenario(scenario)
        assert art.run_id == f"{scenario.name}-s{scenario.seed}"
        assert art.summary["t_end"] == pytest.approx(scenario.duration_s)
        qkd = art.summary["apps"]["qkd0"]
        assert qkd["outcome"] == "key"
        assert qkd["result"] > 0
        assert art.trace_jsonl.endswith("\n")
        assert len(art.metrics_rows) > 0
        names = [row[2] for row in art.metrics_rows]
        assert names == sorted(names)

    def test_same_seed_reproduces_artifacts(self):
        scenario, _ = load_scenario_file(str(BASELINE))
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.trace_jsonl == b.trace_jsonl
        assert a.metrics_rows == b.metrics_rows
        assert a.app_rows == b.app_rows

    def test_seed_override_changes_the_run(self):
        scenario, _ = load_scenario_file(str(BASELINE))
        a = run_scenario(scenario)
        c = run_scenario(scenario, seed=scenario.seed + 1)
        assert c.run_id != a.run_id
        assert c.trace_jsonl != a.trace_jsonl

    def test_short_horizon_leaves_apps_unfinished(self):
        scenario, _ = load_scenario_file(str(BASELINE))
        art = run_scenario(scenario, until=1e-4)
        assert art.summary["apps"]["qkd0"]["outcome"] == "unfinished"

    @pytest.mark.parametrize("until, stem", _BAD_HORIZONS)
    def test_horizon_must_be_finite_and_nonnegative(self, until, stem, monkeypatch):
        _no_event_loop(monkeypatch)
        scenario, _ = load_scenario_file(str(REPO / "scenarios" / f"{stem}.json"))
        with pytest.raises(ValueError, match="until must be a finite nonnegative time"):
            run_scenario(scenario, until=float(until))

    @pytest.mark.parametrize("seed", _BAD_SEEDS)
    def test_seed_must_be_nonnegative(self, seed, monkeypatch):
        _no_event_loop(monkeypatch)
        scenario, _ = load_scenario_file(str(BASELINE))
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            run_scenario(scenario, seed=seed)

    def test_finished_runs_leave_no_cycles(self):
        # Reference counting alone frees a finished run, so peak memory does
        # not depend on when the cyclic collector happens to run.
        scenarios = [load_scenario_file(str(path))[0] for path in SCENARIOS]
        for scenario in scenarios:  # first runs import modules lazily
            run_scenario(scenario, seed=0)
        gc.collect()
        gc.disable()
        try:
            for scenario in scenarios:
                run_scenario(scenario, seed=0)
                assert gc.collect() == 0, scenario.name
        finally:
            gc.enable()

    @staticmethod
    def _fresh_python(code: str) -> str:
        """stdout of ``code`` in a new interpreter, where nothing is imported yet."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_import_leaves_scipy_stats_out(self):
        # scipy is a test dependency only: with it blocked, a run and the
        # blindness statistic still work.
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import oneq.runner, oneq.cli\n"
            "from oneq.apps.ubqc import blindness_pvalue\n"
            "from oneq.scenario import load_scenario_file\n"
            "scenario = load_scenario_file('scenarios/ubqc_chain.json')[0]\n"
            "oneq.runner.run_scenario(scenario, until=0.2)\n"
            "print(blindness_pvalue(list(range(8))))\n"
        )
        assert self._fresh_python(code) == "1.0"

    def test_a_run_imports_only_the_apps_it_names(self):
        # -S: no site hook imports a module on the program's behalf.
        proc = subprocess.run(
            [sys.executable, "-S", str(REPO / "tests" / "import_guard.py"),
             str(REPO / "src")], cwd=REPO, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_runs_and_tables_need_no_numpy(self):
        # numpy is a test dependency only: with it blocked, the package and
        # its command import, runs of every app kind finish and the tables
        # are written.
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import oneq.runner, oneq.cli\n"
            "from oneq.scenario import load_scenario_file\n"
            "for stem in ('qkd_baseline', 'sensing_sql', 'ubqc_chain'):\n"
            "    scenario = load_scenario_file(f'scenarios/{stem}.json')[0]\n"
            "    until = 0.2 if stem == 'ubqc_chain' else None\n"
            "    art = oneq.runner.run_scenario(scenario, until=until)\n"
            "    oneq.runner.metrics_csv(art.metrics_rows)\n"
            "    oneq.runner.app_results_csv(art.app_rows)\n"
            "    print(stem, *(row[3] for row in art.app_rows))\n"
        )
        assert self._fresh_python(code).splitlines() == [
            "qkd_baseline key", "sensing_sql done done", "ubqc_chain done"]

    def test_fault_inside_a_run_names_the_run_and_the_time(self, monkeypatch):
        faults = _fail_qkd_midway(monkeypatch)
        scenario, _ = load_scenario_file(str(BASELINE))
        with pytest.raises(InternalError) as info:
            run_scenario(scenario)
        t_fault = faults[0]
        assert t_fault > 0.0
        assert str(info.value) == (
            f"run {scenario.name}-s{scenario.seed}: internal error at t={t_fault!r} s: "
            "TypeError: unsupported operand in the key tally")
        assert isinstance(info.value.__cause__, TypeError)

    def test_write_artifacts_layout(self, tmp_path):
        scenario, _ = load_scenario_file(str(BASELINE))
        art = run_scenario(scenario)
        paths = write_artifacts(art, str(tmp_path / "out"))
        metrics = Path(paths["metrics"]).read_text(encoding="utf-8")
        assert metrics.splitlines()[0] == "run_id,seed,metric,value,unit"
        apps = Path(paths["apps"]).read_text(encoding="utf-8")
        assert "qkd0" in apps
        assert Path(paths["trace"]).read_text(encoding="utf-8") == art.trace_jsonl
        summary = json.loads(Path(paths["summary"]).read_text(encoding="utf-8"))
        assert summary["run_id"] == art.run_id
        by_kind = summary["events_by_kind"]
        assert list(by_kind) == sorted(by_kind)
        assert sum(by_kind.values()) == summary["events"] > 0


class TestSweepPlumbing:
    def test_set_by_path_nested_list_field(self):
        doc = _baseline_doc()
        before = copy.deepcopy(doc)
        out = set_by_path(doc, "apps[0].n_pairs", 12)
        assert out["apps"][0]["n_pairs"] == 12
        assert doc == before  # original untouched

    def test_set_by_path_top_level(self):
        out = set_by_path({"seed": 1}, "seed", 9)
        assert out["seed"] == 9

    @pytest.mark.parametrize("path", [
        "apps[9].n_pairs", "apps[0].nonexistent", "no_such", "apps[0].",
        "..", "", "apps[x]",
    ])
    def test_bad_paths_raise(self, path):
        with pytest.raises(ValueError):
            set_by_path(_baseline_doc(), path, 1)

    def test_derive_seed_is_stable_and_spread(self):
        s1 = derive_seed(7, "apps[0].n_pairs", 10, 0)
        assert s1 == derive_seed(7, "apps[0].n_pairs", 10, 0)
        others = {
            derive_seed(7, "apps[0].n_pairs", 10, 1),
            derive_seed(7, "apps[0].n_pairs", 20, 0),
            derive_seed(8, "apps[0].n_pairs", 10, 0),
            derive_seed(7, "apps[0].rounds", 10, 0),
        }
        assert s1 not in others and len(others) == 4
        assert 0 <= s1 < (1 << 62)

    def test_run_sweep_rows(self):
        doc = _baseline_doc()
        rows = run_sweep(doc, "apps[0].n_pairs", [8, 16], replications=2)
        assert len(rows) == 4
        assert {r["value"] for r in rows} == {8, 16}
        assert {r["replicate"] for r in rows} == {0, 1}
        assert all(r["app_id"] == "qkd0" for r in rows)
        seeds = {r["seed"] for r in rows}
        assert len(seeds) == 4
        csv_text = sweep_csv(rows)
        assert csv_text.splitlines()[0].startswith("param,value,replicate,seed")
        assert len(csv_text.splitlines()) == 5

    def test_replications_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(_baseline_doc(), "seed", [1], replications=0)


PLAN_FAULTS = [
    ("--sequence", "0.2,0.1,abc", "--sequence: K must be an integer, got 'abc'"),
    ("--sequence", "2,0.1,3", "p_err_q must lie in [0, 1], got 2.0"),
    ("--sequence", "0.2,0.1,0", "--sequence: K must be at least 1, got 0"),
    ("--sequence", "0.2,0.1,2.5", "--sequence: K must be an integer, got 2.5"),
    ("--sequence", "0.2,x,3", "--sequence: c must be a number, got 'x'"),
    ("--sequence", "0.2,0.1", "--sequence expects three comma-separated numbers"),
    ("--match", "5,10,0.5", "k_target 10 exceeds n_pairs 5"),
    ("--match", "10.5,5,0.5", "--match: N must be an integer, got 10.5"),
    ("--match", "10,true,0.5", "--match: K must be an integer, got True"),
]


class TestCli:
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_validate_ok(self, path, capsys):
        assert main(["validate", str(path), "--strict"]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    @_each_fault
    def test_validate_rejects_fault(self, name, stem, edits, violation,
                                    tmp_path, capsys):
        path = _fault_file(tmp_path, name, stem, edits)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == (
            f"error: {violation}\ninvalid: {path} (1 problem(s))\n")

    @_each_fault
    def test_run_refuses_fault_before_starting(self, name, stem, edits, violation,
                                               tmp_path, capsys):
        path = _fault_file(tmp_path, name, stem, edits)
        out_dir = tmp_path / "artifacts"
        assert main(["run", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr() == ("", f"error: {violation}\n")
        assert not out_dir.exists()

    def test_validate_warns_loose_fails_strict(self, tmp_path, capsys):
        doc = _baseline_doc()
        doc["mystery"] = 1
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert "warning:" in capsys.readouterr().out
        assert main(["validate", str(path), "--strict"]) == 2

    def test_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["run", str(BASELINE), "--out", str(out_dir)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "app qkd0 [qkd]: key" in stdout
        for name in ("metrics.csv", "trace.jsonl", "app_results.csv",
                     "summary.json"):
            assert (out_dir / name).exists(), name

    def test_run_cut_short_reports_unfinished_and_exits_zero(self, capsys):
        assert main(["run", str(BASELINE), "--until", "1e-4"]) == 0
        assert "app qkd0 [qkd]: unfinished" in capsys.readouterr().out

    @pytest.mark.parametrize("until, stem", _BAD_HORIZONS)
    def test_run_rejects_a_bad_horizon(self, until, stem, monkeypatch, capsys):
        _no_event_loop(monkeypatch)
        path = REPO / "scenarios" / f"{stem}.json"
        assert main(["run", "--until", until, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: until must be a finite nonnegative time, got {float(until)}\n")

    @pytest.mark.parametrize("seed", _BAD_SEEDS)
    def test_run_rejects_a_negative_seed(self, seed, monkeypatch, capsys):
        _no_event_loop(monkeypatch)
        assert main(["run", "--seed", str(seed), str(BASELINE)]) == 2
        assert capsys.readouterr().err == f"error: seed must be nonnegative, got {seed}\n"

    def test_run_reports_an_internal_fault(self, monkeypatch, capsys):
        _fail_qkd_midway(monkeypatch)
        assert main(["run", str(BASELINE)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run qkd_baseline-s")
        assert "internal error at t=" in err
        assert err.rstrip().endswith("TypeError: unsupported operand in the key tally")

    def test_run_missing_scenario(self, capsys):
        assert main(["run", "/nonexistent/scenario.json"]) == 2

    def test_plan_sequence_table(self, capsys):
        assert main(["plan", "--sequence", "0.2,0.1,3"]) == 0
        out = capsys.readouterr().out
        assert "0.720000" in out  # per-block success
        assert "0.978048" in out  # three-block success

    def test_plan_match_table(self, capsys):
        assert main(["plan", "--match", "10,5,1.0"]) == 0
        assert "0.623046875" in capsys.readouterr().out

    def test_plan_without_arguments_fails(self, capsys):
        assert main(["plan"]) == 2

    @pytest.mark.parametrize("option,value,message", PLAN_FAULTS,
                             ids=[f"{option}={value}" for option, value, _ in PLAN_FAULTS])
    def test_plan_rejects_bad_numbers(self, option, value, message, capsys):
        assert main(["plan", option, value]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_sweep_command(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", str(BASELINE), "--param", "apps[0].n_pairs",
                     "--values", "8,16", "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("command", [
        ["run", "--until", "0.01"],
        ["sweep", "--param", "apps[0].n_pairs", "--values", "8"],
    ], ids=["run", "sweep"])
    def test_loader_warnings_reach_stderr(self, tmp_path, command):
        # a fresh interpreter, as the installed command runs, with no logging
        # configured: sweep's warnings come through the runner's logger
        doc = _baseline_doc()
        doc["bogus_key"] = 1
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "oneq.cli", command[0], str(path), *command[1:]],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["warning: $.bogus_key: unknown key"]

    def test_sweep_rejects_bad_param(self, capsys):
        assert main(["sweep", str(BASELINE), "--param", "apps[0].bogus",
                     "--values", "1"]) == 2

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "seed", "--values", "1"]],
                             ids=["run", "sweep"])
    def test_unreadable_file_prints_one_error_line(self, command, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main([command[0], str(missing), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: $: cannot read {missing}: ")
        assert err.count("\n") == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main([command[0], str(bad), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: $: invalid JSON: ")
        assert err.count("\n") == 1

    def test_sweep_refuses_a_bad_document(self, tmp_path, capsys):
        path = _fault_file(tmp_path, "v2", "qkd_baseline", {"$.schema_version": 2})
        assert main(["sweep", str(path), "--param", "seed", "--values", "1,2"]) == 2
        assert capsys.readouterr() == (
            "", "error: $.schema_version: unsupported version 2, expected 1\n")

    def test_sweep_with_no_values_fails(self, capsys):
        assert main(["sweep", str(BASELINE), "--param", "seed", "--values", ""]) == 2
        assert capsys.readouterr() == ("", "error: --values is empty\n")


class TestReadme:
    def test_scenario_files_example_runs(self):
        """The "Scenario files" example loads strictly and every app finishes.

        A strict load rejects unknown keys only: a known field that the
        example's other settings leave without effect passes unnoticed.
        """
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Scenario files", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        scenario, warnings = load_scenario(json.loads(block), strict=True)
        assert warnings == []
        art = run_scenario(scenario)
        outcomes = {row[1]: row[3] for row in art.app_rows}
        assert outcomes and "unfinished" not in outcomes.values(), outcomes

    def test_library_use_snippet_runs(self, tmp_path, monkeypatch, capsys):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library use", 1)[1]
        snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        (tmp_path / "scenarios").mkdir()
        shutil.copy(BASELINE, tmp_path / "scenarios" / BASELINE.name)
        monkeypatch.chdir(tmp_path)
        exec(compile(snippet, "README.md", "exec"), {"__name__": "readme"})
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "qkd_baseline-s7 key"
        assert len(printed) == 2
        for name in ("metrics.csv", "app_results.csv", "trace.jsonl",
                     "summary.json"):
            assert (tmp_path / "out" / name).exists(), name
