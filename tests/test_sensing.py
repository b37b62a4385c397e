"""Distributed phase estimation: probe models, estimator, app runs."""

import json
import math
from pathlib import Path

import pytest

import oracles
from conftest import drive, one_cell_topology
from oneq.apps.sensing import (
    SensingApp,
    SensingConfig,
    delta_method_se,
    estimate_phase,
    parity_probability,
    probe_probability,
)
from oneq.errors import ConfigurationError
from oneq.runner import run_scenario
from oneq.scenario import load_scenario

SENSING_SQL = Path(__file__).resolve().parent.parent / "scenarios" / "sensing_sql.json"


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
