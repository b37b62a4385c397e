"""Distributed phase estimation: probe models, estimator, app runs."""

import copy
import json
import math
from pathlib import Path

import pytest
from scipy import stats

import oracles
import tracecheck
from conftest import drive, one_cell_topology
from oneq.apps.sensing import (
    SensingApp,
    SensingConfig,
    delta_method_se,
    estimate_phase,
    parity_probability,
    probe_probability,
)
from oneq.engine import Simulator
from oneq.errors import ConfigurationError
from oneq.protocol import Defaults
from oneq.runner import run_scenario
from oneq.scenario import load_scenario, load_scenario_file

REPO = Path(__file__).resolve().parent.parent
SENSING_SQL = REPO / "scenarios" / "sensing_sql.json"
METRO = REPO / "scenarios" / "metro_with_satellite.json"
GHZ_FIXTURE = REPO / "tests" / "data" / "sensing_ghz.json"


class TestProbeModels:
    @pytest.mark.parametrize("phi", [0.0, 0.4, 1.0, 2.2, math.pi])
    def test_single_probe_matches_interference_oracle(self, phi):
        for contrast in (1.0, 0.9, 0.5):
            assert probe_probability(phi, contrast) == pytest.approx(
                oracles.ramsey_p_zero(phi, contrast), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_parity_matches_oracle_with_scaled_fringe(self, n):
        phi, w, contrast = 0.3, 0.85, 0.95
        assert parity_probability(phi, n, w, contrast) == pytest.approx(
            oracles.parity_p_even(n, phi, w * contrast), abs=1e-12)

    def test_parity_oscillates_n_times_faster(self):
        # the n-sensor fringe at phi looks like the 1-sensor fringe at n*phi
        assert parity_probability(0.2, 5, 1.0, 1.0) == pytest.approx(
            probe_probability(1.0, 1.0), abs=1e-12)


class TestEstimator:
    @pytest.mark.parametrize("phi", [0.3, 1.0, 1.7, 2.8])
    def test_inversion_roundtrip(self, phi):
        c = 0.93
        p = probe_probability(phi, c)
        assert estimate_phase(p, c) == pytest.approx(phi, abs=1e-12)

    def test_scaled_inversion_roundtrip(self):
        n, phi, v = 4, 0.5, 0.88
        p = parity_probability(phi, n, 1.0, v)
        assert estimate_phase(p, v, scale=n) == pytest.approx(phi, abs=1e-12)

    def test_out_of_range_frequency_clamps_to_endpoint(self):
        assert estimate_phase(1.0, 0.9) == 0.0
        assert estimate_phase(0.0, 0.9) == pytest.approx(math.pi)

    def test_visibility_must_be_positive(self):
        with pytest.raises(ValueError):
            estimate_phase(0.5, 0.0)

    @pytest.mark.parametrize("phi,n_bits", [(0.7, 1000), (1.9, 5000)])
    def test_delta_method_matches_finite_difference(self, phi, n_bits):
        c = 0.9
        p = probe_probability(phi, c)
        got = delta_method_se(p, n_bits, c, phi)
        want = oracles.fisher_se(lambda x: probe_probability(x, c), phi, n_bits)
        assert got == pytest.approx(want, rel=1e-6)

    def test_delta_method_scaled_slope(self):
        n, phi, v, bits = 3, 0.4, 0.8, 2000
        p = parity_probability(phi, n, 1.0, v)
        got = delta_method_se(p, bits, v, phi, scale=n)
        want = oracles.fisher_se(
            lambda x: parity_probability(x, n, 1.0, v), phi, bits)
        assert got == pytest.approx(want, rel=1e-6)

    def test_degenerate_cases_are_infinite(self):
        assert delta_method_se(0.5, 0, 0.9, 1.0) == math.inf
        assert delta_method_se(1.0, 100, 0.9, 0.0) == math.inf  # slope zero

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SensingConfig("s", "QBS1", (), 1.0, 10)
        with pytest.raises(ValueError):
            SensingConfig("s", "QBS1", ("A", "A"), 1.0, 10)
        with pytest.raises(ValueError):
            SensingConfig("s", "QBS1", ("A",), 1.0, 10, mode="bell")
        with pytest.raises(ValueError):
            SensingConfig("s", "QBS1", ("A",), 1.0, 10, mode="ghz")
        with pytest.raises(ValueError):
            SensingConfig("s", "QBS1", ("A",), 1.0, 0)
        with pytest.raises(ValueError):
            SensingConfig("s", "QBS1", ("A",), 1.0, 10, t2_s=0.0)
        for bad in ({"phi_true": math.nan}, {"t2_s": math.nan},
                    {"tau_interrogate_s": math.inf}, {"reinit_delay_s": -0.01},
                    {"max_latency_s": 0.0}):
            with pytest.raises(ValueError):
                SensingConfig(**{"app_id": "s", "fusion": "QBS1", "sensors": ("A",),
                                 "phi_true": 1.0, "shots": 10, **bad})


def _run_app(make_stack, topo, config, seed=1):
    sim, stack = make_stack(topo, seed=seed)
    result = drive(sim, SensingApp(config).run(stack), until=1e7)
    return sim, stack, result


class TestSeparableOnEngine:
    def test_pooled_estimate_recovers_the_phase(self, make_stack):
        topo = one_cell_topology(n_ues=3)
        cfg = SensingConfig("sense0", "QBS1", ("QUE1", "QUE2", "QUE3"),
                            phi_true=1.0, shots=1500)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=41)
        assert res.outcome == "done"
        assert res.bits_used == 3 * 1500
        assert res.discarded == 0
        c = math.exp(-cfg.tau_interrogate_s / cfg.t2_s)
        assert res.visibility == pytest.approx(c)
        assert abs(res.phi_est - 1.0) <= 3 * res.phi_std
        # the reported uncertainty is the right scale for these many bits
        want_se = oracles.fisher_se(lambda x: probe_probability(x, c),
                                    1.0, res.bits_used)
        assert res.phi_std == pytest.approx(want_se, rel=0.2)
        assert res.phi_std_batch == pytest.approx(res.phi_std, rel=0.8)

    def test_pooling_more_sensors_tightens_the_estimate(self, make_stack):
        shots = 1200
        cfg1 = SensingConfig("one", "QBS1", ("QUE1",), phi_true=1.0, shots=shots)
        cfg9 = SensingConfig("nine", "QBS1",
                             tuple(f"QUE{i}" for i in range(1, 10)),
                             phi_true=1.0, shots=shots)
        _, _, res1 = _run_app(make_stack, one_cell_topology(n_ues=1), cfg1, seed=2)
        _, _, res9 = _run_app(make_stack, one_cell_topology(n_ues=9), cfg9, seed=2)
        ratio = res1.phi_std / res9.phi_std
        assert ratio == pytest.approx(3.0, rel=0.25)  # sqrt(9) fewer bits of noise

    def test_lossy_reports_are_discarded_not_imputed(self, make_stack):
        topo = one_cell_topology(n_ues=2, p_err_c=0.5)
        cfg = SensingConfig("sense0", "QBS1", ("QUE1", "QUE2"),
                            phi_true=1.0, shots=400)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=3)
        assert res.discarded > 0
        assert res.bits_used + res.discarded == 2 * 400
        assert abs(res.phi_est - 1.0) <= 4 * res.phi_std

    def test_total_loss_yields_no_data(self, make_stack):
        topo = one_cell_topology(p_err_c=1.0)
        cfg = SensingConfig("sense0", "QBS1", ("QUE1", "QUE2"),
                            phi_true=1.0, shots=20)
        sim, stack, res = _run_app(make_stack, topo, cfg)
        assert res.outcome == "no-data"
        assert res.discarded == 40

    def test_unlinked_sensor_is_a_configuration_error(self, make_stack):
        topo = one_cell_topology(n_ues=2)
        cfg = SensingConfig("sense0", "QUE1", ("QUE2",), phi_true=1.0, shots=5)
        sim, stack = make_stack(topo)
        with pytest.raises(ConfigurationError):
            drive(sim, SensingApp(cfg).run(stack))

    def test_report_tracing_and_metrics(self, make_stack):
        topo = one_cell_topology(n_ues=2)
        cfg = SensingConfig("sense0", "QBS1", ("QUE1", "QUE2"),
                            phi_true=1.0, shots=25, trace_reports=True)
        sim, stack, res = _run_app(make_stack, topo, cfg)
        reports = [r for r in sim.trace if r["kind"] == "sensing-report"]
        assert len(reports) == 50
        assert all(r["details"]["delivered"] is True for r in reports)
        assert sim.metrics.gauges["app.sense0.phi_est"] == pytest.approx(res.phi_est)
        assert sim.metrics.gauges["app.sense0.bits_used"] == 50.0


class TestGhzOnEngine:
    def test_entangled_probe_estimates_on_the_fast_fringe(self, make_stack):
        topo = one_cell_topology(n_ues=2, q_attempt=0.9, w0=1.0, t_coh_s=1e9)
        cfg = SensingConfig("ghz0", "QBS1", ("QUE1", "QUE2"), phi_true=0.5,
                            shots=600, mode="ghz", reinit_delay_s=1e-5)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=19)
        assert res.outcome == "done" and res.mode == "ghz"
        assert res.bits_used > 0
        assert res.mean_w == pytest.approx(1.0, abs=1e-6)
        assert abs(res.phi_est - 0.5) <= 3 * res.phi_std

    def test_delivered_mixture_sets_the_visibility(self, make_stack):
        topo = one_cell_topology(n_ues=2, q_attempt=0.9, w0=0.9, t_coh_s=1e9)
        cfg = SensingConfig("ghz0", "QBS1", ("QUE1", "QUE2"), phi_true=0.5,
                            shots=200, mode="ghz", reinit_delay_s=1e-5)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=23)
        # one heralded leg per sensor: w = 0.9 * 0.9
        assert res.mean_w == pytest.approx(0.81, abs=1e-6)
        c = math.exp(-cfg.tau_interrogate_s / cfg.t2_s)
        assert res.visibility == pytest.approx(0.81 * c, abs=1e-6)

    def test_ghz_needs_every_report(self, make_stack):
        topo = one_cell_topology(n_ues=2, q_attempt=0.9, w0=1.0,
                                 t_coh_s=1e9, p_err_c=0.3)
        cfg = SensingConfig("ghz0", "QBS1", ("QUE1", "QUE2"), phi_true=0.5,
                            shots=150, mode="ghz", reinit_delay_s=1e-5)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=29)
        assert res.discarded > 0
        assert res.bits_used + res.discarded == 150

    def test_sensor_leaving_coverage_discards_shots(self):
        # the shipped sensing scenario with one GHZ app whose first sensor
        # walks out of the quantum disk (radius 1500 m) at about t = 0.41 s
        doc = json.loads(SENSING_SQL.read_text(encoding="utf-8"))
        doc["quantum_links"] = [
            {"a": "QBS1", "b": s, "q_attempt": 0.9, "attempt_period_s": 1e-4, "w0": 0.97}
            for s in ("S1", "S2")]
        doc["nodes"][1]["mobility"] = {
            "kind": "waypoint", "waypoints": [[0.0, [100, 0, 0]], [0.5, [1800, 0, 0]]]}
        doc["apps"] = [{"type": "sensing", "id": "ghz2", "fusion": "QBS1",
                        "sensors": ["S1", "S2"], "phi_true": 0.5, "shots": 1000,
                        "mode": "ghz", "reinit_delay_s": 1e-4}]
        scenario, _ = load_scenario(doc, strict=True)
        artifacts = run_scenario(scenario)
        records = [json.loads(line) for line in artifacts.trace_jsonl.splitlines()]
        lost = [r for r in records if r["kind"] == "ghz-coverage-lost"]
        assert lost and all("S1" in r["details"]["detail"] for r in lost)
        assert artifacts.summary["apps"]["ghz2"]["outcome"] == "done"
        gauges = {name: value for _, _, name, value, _ in artifacts.metrics_rows}
        assert gauges["app.ghz2.discarded"] == len(lost)
        assert gauges["app.ghz2.bits_used"] + len(lost) == 1000


def _run_doc(doc, seed=None):
    scenario, _ = load_scenario(doc, strict=True)
    return scenario, run_scenario(scenario, seed=seed)


def _without_app(doc, app_id):
    cut = copy.deepcopy(doc)
    cut["apps"] = [a for a in doc["apps"] if a["id"] != app_id]
    return cut


def _not_about(app_id, artifacts):
    """Trace lines and metric rows of a run that do not concern one app."""
    tag = f'"app":"{app_id}"'
    lines = [line for line in artifacts.trace_jsonl.splitlines() if tag not in line]
    rows = [row for row in artifacts.metrics_rows
            if not row[2].startswith(f"app.{app_id}.")]
    return lines, rows


def _walking_doc(trace_reports=False, p_err_c=0.0, shots=1000, start_s=0.05):
    """sensing_sql.json with one app on S1-S3; S1 walks out of the classical
    disk (radius 2000 m) at about t = 0.65 s.  Each link has its own latency."""
    doc = json.loads(SENSING_SQL.read_text(encoding="utf-8"))
    doc["nodes"][1]["mobility"] = {
        "kind": "waypoint", "waypoints": [[0.0, [100, 0, 0]], [1.0, [3000, 0, 0]]]}
    for i, link in enumerate(doc["classical_links"]):
        link["prop_delay_s"] = (i + 1) * 1e-6
        link["p_err_c"] = p_err_c
    doc["apps"] = [{"type": "sensing", "id": "walk", "fusion": "QBS1",
                    "sensors": ["S1", "S2", "S3"], "phi_true": 1.0, "shots": shots,
                    "start_s": start_s, "trace_reports": trace_reports}]
    return doc


def _replay(scenario):
    """The per-shot timeline at p_err_c 0: (shot times, covered flags, end)."""
    cfg = scenario.apps[0].config
    topo = scenario.topology
    bits = Defaults().message_bits["report"]
    t = scenario.apps[0].start_s
    times, covered = [], []
    for _ in range(cfg.shots):
        t += cfg.reinit_delay_s + cfg.tau_interrogate_s
        cover = [topo.in_classical_coverage(s, cfg.fusion, t) for s in cfg.sensors]
        times.append(t)
        covered.append(cover)
        latency = max((topo.classical_link(s, cfg.fusion).latency(bits)
                       for s, c in zip(cfg.sensors, cover) if c), default=0.0)
        if latency > 0.0:
            t += latency
    return times, covered, t


class TestStreamOwnership:
    @pytest.mark.parametrize("seed", range(6))
    def test_removing_sense0_leaves_the_other_apps_alone(self, seed):
        doc = json.loads(METRO.read_text(encoding="utf-8"))
        _, full = _run_doc(doc, seed)
        _, cut = _run_doc(_without_app(doc, "sense0"), seed)
        assert [r for r in full.app_rows if r[1] != "sense0"] == cut.app_rows
        assert _not_about("sense0", full) == _not_about("sense0", cut)

    @pytest.mark.parametrize("seed", [41, 0, 1])
    @pytest.mark.parametrize("kept,removed", [("pooled9", "solo1"), ("solo1", "pooled9")])
    def test_apps_sharing_a_fusion_and_a_sensor_ignore_each_other(self, kept, removed,
                                                                   seed):
        doc = json.loads(SENSING_SQL.read_text(encoding="utf-8"))
        _, full = _run_doc(doc, seed)
        _, cut = _run_doc(_without_app(doc, removed), seed)
        assert [r for r in full.app_rows if r[1] == kept] == cut.app_rows
        assert _not_about(removed, full) == _not_about(removed, cut)


class TestSeparableTimeline:
    def test_static_elapsed_matches_the_per_shot_sum(self):
        doc = _walking_doc()
        doc["nodes"][1].pop("mobility")
        scenario, art = _run_doc(doc)
        times, covered, t_end = _replay(scenario)
        assert all(all(c) for c in covered)
        (row,) = art.app_rows
        assert row[3] == "done"
        assert row[5] == pytest.approx(t_end - 0.05, abs=1e-12)
        assert row[6] == 3 * 1000

    def test_reports_outside_coverage_are_exactly_the_discards(self):
        scenario, art = _run_doc(_walking_doc())
        times, covered, t_end = _replay(scenario)
        outside = [t for t, c in zip(times, covered) if not c[0]]
        assert 0 < len(outside) < len(times)
        assert not any(not c for cover in covered for c in cover[1:])
        gauges = {name: value for _, _, name, value, _ in art.metrics_rows}
        assert gauges["app.walk.discarded"] == len(outside)
        assert gauges["app.walk.bits_used"] == 3 * 1000 - len(outside)
        assert gauges["app.walk.elapsed_s"] == pytest.approx(t_end - 0.05, abs=1e-12)

        # stepping the engine for report records changes no result
        _, traced = _run_doc(_walking_doc(trace_reports=True))
        assert traced.app_rows == art.app_rows
        reports = [json.loads(line) for line in traced.trace_jsonl.splitlines()
                   if '"sensing-report"' in line]
        assert len(reports) == 3 * 1000
        assert [r["t"] for r in reports if r["details"].get("reason") == "no-coverage"] \
            == outside
        assert all(r["node"] == "S1" for r in reports
                   if r["details"].get("reason") == "no-coverage")
        assert [r["t"] for r in reports[::3]] == times

    @pytest.mark.parametrize("trace_reports", [False, True])
    def test_lossy_mobile_reports_are_all_accounted_for(self, trace_reports):
        _, art = _run_doc(_walking_doc(trace_reports=trace_reports, p_err_c=0.3))
        gauges = {name: value for _, _, name, value, _ in art.metrics_rows}
        assert gauges["app.walk.discarded"] > 0
        assert gauges["app.walk.bits_used"] + gauges["app.walk.discarded"] == 3 * 1000

    @pytest.mark.parametrize("trace_reports", [False, True])
    def test_shots_past_the_horizon_leave_the_app_unfinished(self, trace_reports):
        # 4000 shots of 1.1 ms each end after the 4 s horizon
        _, art = _run_doc(_walking_doc(trace_reports=trace_reports, shots=4000))
        assert art.summary["apps"]["walk"]["outcome"] == "unfinished"
        assert not any('"app-end"' in line for line in art.trace_jsonl.splitlines())


class TestSeparableAgainstReference:
    """Static, untraced runs against the shot-by-shot reference loop."""

    @pytest.mark.parametrize("shots", [1, 257, 1500])
    @pytest.mark.parametrize("p_err_c", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n_sensors", [1, 9])
    def test_result_and_end_time_equal_the_reference(self, make_stack, n_sensors,
                                                     p_err_c, shots):
        seed = 1000 * n_sensors + shots
        topo = one_cell_topology(n_ues=n_sensors, p_err_c=p_err_c)
        sensors = tuple(f"QUE{i}" for i in range(1, n_sensors + 1))
        cfg = SensingConfig("sense0", "QBS1", sensors, phi_true=1.0, shots=shots)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=seed)

        links = [topo.classical_link(s, "QBS1") for s in sensors]
        cover = [topo.in_classical_coverage(s, "QBS1", 0.0) for s in sensors]
        per_shot, t_end = oracles.separable_shots(
            Simulator(seed=seed).rng_stream("QBS1", "sensing/sense0"), shots,
            oracles.ramsey_p_zero(1.0, math.exp(-cfg.tau_interrogate_s / cfg.t2_s)),
            [link.p_err_c for link in links],
            [link.latency(stack.bits("report")) for link in links],
            cfg.reinit_delay_s + cfg.tau_interrogate_s, 0.0, lambda t: cover)
        want = SensingApp(cfg)._estimate(per_shot, 0.0)
        want.elapsed_s = t_end
        assert res == want
        assert sim.now == t_end
        assert res.outcome == ("no-data" if p_err_c == 1.0 else "done")


class TestSeparableZeroCounts:
    def test_counts_follow_the_binomial_of_the_reports_that_arrived(self, make_stack):
        # 4 sensors at p_err_c 0.3: g ~ Binomial(4, 0.7) reports arrive, and
        # given g the zero count is Binomial(g, p0).
        topo = one_cell_topology(n_ues=4, p_err_c=0.3)
        cfg = SensingConfig("sense0", "QBS1", ("QUE1", "QUE2", "QUE3", "QUE4"),
                            phi_true=1.0, shots=20_000)
        sim, stack = make_stack(topo, seed=77)
        app = SensingApp(cfg)
        per_shot = drive(sim, app._run_separable(stack), until=1e7)
        p0 = probe_probability(cfg.phi_true, app.contrast)
        cells = [(k, g) for g in range(5) for k in range(g + 1)]
        observed = [per_shot.count(cell) for cell in cells]
        expected = [cfg.shots * stats.binom.pmf(g, 4, 0.7) * stats.binom.pmf(k, g, p0)
                    for k, g in cells]
        assert sum(observed) == cfg.shots
        assert min(expected) >= 5.0
        assert stats.chisquare(observed, expected).pvalue > 1e-3


class TestChronologicalTraces:
    def test_report_records_of_a_mobile_sensor_stay_in_order(self):
        doc = _walking_doc(trace_reports=True, p_err_c=0.2)
        doc["apps"].append({"type": "sensing", "id": "ghz", "fusion": "QBS1",
                            "sensors": ["S4", "S5"], "phi_true": 0.5, "shots": 200,
                            "mode": "ghz", "start_s": 0.1, "trace_reports": True})
        doc["quantum_links"] = [
            {"a": "QBS1", "b": s, "q_attempt": 0.9, "attempt_period_s": 1e-4,
             "w0": 0.97} for s in ("S4", "S5")]
        _, art = _run_doc(doc)
        records = [json.loads(line) for line in art.trace_jsonl.splitlines()]
        kinds = {r["details"].get("app") for r in records if r["kind"] == "sensing-report"}
        assert kinds == {"walk", "ghz"}
        assert tracecheck.violations(records, art.summary, art.metrics_rows) == []


def test_ghz_fixture_distributes_and_counts_every_shot():
    # tests/data/sensing_ghz.json at its own seed 41: 337 GHZ resources,
    # 170 bits used and 430 shots discarded
    art = run_scenario(load_scenario_file(str(GHZ_FIXTURE))[0])
    assert '"kind":"ghz-created"' in art.trace_jsonl
    gauges = {name: value for _, _, name, value, _ in art.metrics_rows}
    assert gauges["app.ghz2.bits_used"] + gauges["app.ghz2.discarded"] == 600
