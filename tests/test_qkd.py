"""Entanglement-based key distribution: helpers and the app on the engine."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import QUIET, drive, one_cell_topology
from oneq.apps.qkd import (
    QkdApp,
    QkdConfig,
    binary_entropy,
    key_length,
    qber_trial,
    random_basis,
    simulate_match_rate,
)
from oneq.qcore import Z_BASIS
from oneq.runner import run_scenario
from oneq.scenario import load_scenario

REPO = Path(__file__).resolve().parent.parent


class TestHelpers:
    def test_binary_entropy_anchors(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)
        with pytest.raises(ValueError):
            binary_entropy(1.2)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)

    def test_key_length_anchors(self):
        # 1000 sifted bits at 5% errors leave 427 after both corrections
        h = binary_entropy(0.05)
        assert key_length(1000, 0.05) == math.floor(1000 * (1 - 2 * h)) == 427
        assert key_length(100, 0.0) == 100
        assert key_length(100, 0.25) == 0  # rate goes negative, clamp to zero
        assert key_length(0, 0.05) == 0
        with pytest.raises(ValueError):
            key_length(-1, 0.05)

    def test_random_basis_is_fair(self):
        rng = np.random.default_rng(5)
        n = 10_000
        z = sum(random_basis(rng).kind == Z_BASIS.kind for _ in range(n))
        assert abs(z / n - 0.5) <= 3 * 0.5 / math.sqrt(n)

    def test_qber_trial_matches_born_rule(self):
        rng = np.random.default_rng(11)
        n = 20_000
        got = qber_trial(0.7, n, rng)
        want = oracles.qber_oracle(0.7)
        assert want == pytest.approx(0.15)
        sigma = math.sqrt(want * (1 - want) / n)
        assert abs(got - want) <= 3 * sigma

    def test_qber_trial_perfect_pairs_never_disagree(self):
        rng = np.random.default_rng(3)
        assert qber_trial(1.0, 500, rng) == 0.0

    def test_simulate_match_rate_certain_delivery(self):
        rng = np.random.default_rng(17)
        n = 20_000
        got = simulate_match_rate(10, 5, 1.0, n, rng)
        want = float(oracles.binom_tail_half(10, 5))  # 638/1024
        sigma = math.sqrt(want * (1 - want) / n)
        assert abs(got - want) <= 3 * sigma

    def test_simulate_match_rate_lossy_delivery(self):
        rng = np.random.default_rng(19)
        n = 20_000
        got = simulate_match_rate(6, 2, 0.8, n, rng)
        want = oracles.match_success(6, 2, 0.4)  # deliver then agree: 0.8 * 0.5
        sigma = math.sqrt(want * (1 - want) / n)
        assert abs(got - want) <= 3 * sigma

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QkdConfig("a", "QUE1", "QUE2", n_pairs=0)
        with pytest.raises(ValueError):
            QkdConfig("a", "QUE1", "QUE2", rounds=0)
        with pytest.raises(ValueError):
            QkdConfig("a", "QUE1", "QUE2", sample_fraction=1.5)
        with pytest.raises(ValueError):
            QkdConfig("a", "QUE1", "QUE2", k_target=-1)


def _run_app(make_stack, topo, config, seed=1):
    sim, stack = make_stack(topo, seed=seed)
    app = QkdApp(config)
    result = drive(sim, app.run(stack))
    return sim, stack, result


class TestAppOnEngine:
    def test_ideal_pairs_give_identical_keys(self, make_stack):
        topo = one_cell_topology(q_attempt=0.9, w0=1.0, t_coh_s=1e9)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=16, rounds=2,
                        sample_fraction=0.0)
        sim, stack, res = _run_app(make_stack, topo, cfg)
        assert res.outcome == "key"
        assert res.sessions == 2
        assert res.pairs_measured == 32
        assert res.disagreements == 0
        assert res.sampled_bits == 0 and res.qber_estimate == 0.0
        assert res.key_bits == res.sifted_bits > 0
        assert res.alice_key == res.bob_key
        assert len(res.alice_key) == res.key_bits

    def test_sift_keeps_about_half(self, make_stack):
        topo = one_cell_topology(q_attempt=0.9, w0=1.0, t_coh_s=1e9,
                                 memory_slots=512)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=256, rounds=1,
                        sample_fraction=0.0)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=9)
        assert res.pairs_measured == 256
        sigma = 0.5 / math.sqrt(256)
        assert abs(res.sift_discard_rate - 0.5) <= 3 * sigma

    def test_qber_estimate_tracks_pair_quality(self, make_stack):
        # two downlink legs at w0 = sqrt(0.9) leave the UE-UE pair at
        # w = 0.9, i.e. 5% same-basis disagreement; sample every sifted bit
        topo = one_cell_topology(q_attempt=0.9, w0=math.sqrt(0.9), t_coh_s=1e9,
                                 memory_slots=512)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=256, rounds=1,
                        sample_fraction=1.0)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=2)
        assert res.sampled_bits == res.sifted_bits
        sigma = math.sqrt(0.05 * 0.95 / res.sampled_bits)
        assert abs(res.qber_estimate - 0.05) <= 3 * sigma
        # everything sampled, nothing left to key
        assert res.key_bits == 0 and res.outcome == "no-key"

    def test_noisy_pairs_abort(self, make_stack):
        # w = 0.4 end to end: 30% disagreement, far over the abort line
        topo = one_cell_topology(q_attempt=0.9, w0=math.sqrt(0.4), t_coh_s=1e9,
                                 memory_slots=512)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=128, rounds=1,
                        min_fidelity=0.4, sample_fraction=1.0)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=4)
        assert res.outcome == "aborted-qber"
        assert res.qber_estimate > cfg.qber_abort
        assert res.key_bits == 0
        assert sim.metrics.gauges["app.qkd0.key_bits"] == 0.0

    def test_unreachable_peer_aborts_attach(self, make_stack):
        topo = one_cell_topology()
        topo.nodes["QUE2"].position = (9000.0, 0.0, 0.0)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=4, rounds=1)
        sim, stack, res = _run_app(make_stack, topo, cfg)
        assert res.outcome == "aborted-attach"
        assert res.key_bits == 0 and res.pairs_measured == 0

    def test_first_key_builds_from_single_batch(self, make_stack):
        topo = one_cell_topology(q_attempt=1.0, w0=1.0, t_coh_s=1e9)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=6, k_target=3, max_rounds=50,
                        sample_fraction=0.0)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=6)
        assert res.outcome == "key"
        assert res.key_bits == res.sifted_bits >= 3
        assert res.alice_key == res.bob_key
        assert res.sessions >= 1
        # a winning batch sifts from its own n_pairs alone
        assert res.key_bits <= cfg.n_pairs

    def test_retry_exhausts_round_budget(self, make_stack):
        # all six basis draws must match (1 in 64); two rounds rarely suffice
        topo = one_cell_topology(q_attempt=1.0, w0=1.0, t_coh_s=1e9)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=6, k_target=6, max_rounds=2,
                        sample_fraction=0.0)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=8)
        assert res.outcome == "exhausted"
        assert res.sessions == 2
        assert res.key_bits == 0

    def test_first_key_samples_and_aborts_noisy_batches(self, make_stack):
        # legs at w0 0.5 leave w = 0.25 end to end: 37.5% same-basis errors
        topo = one_cell_topology(q_attempt=1.0, w0=0.5, t_coh_s=1e9)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=40, min_fidelity=0.25,
                        k_target=24, max_rounds=50, sample_fraction=0.5)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=5)
        assert res.sessions > 1
        assert res.pairs_measured == cfg.n_pairs * res.sessions
        assert res.sifted_bits >= cfg.k_target
        assert res.sampled_bits == round(0.5 * res.sifted_bits)
        assert res.qber_estimate > cfg.qber_abort
        assert res.outcome == "aborted-qber" and res.key_bits == 0
        reports = [r for r in sim.trace if r["kind"] == "msg"
                   and r["details"]["msg"] == "report"]
        assert reports and reports[-1]["details"]["delivered"]

    def test_a_file_with_retry_until_key_warns_and_runs_the_same(self):
        # k_target >= 1 alone selects first-key mode; the flag that used to
        # select it is now an unknown key, so such a file still runs as before
        doc = json.loads((REPO / "scenarios" / "qkd_retry_sweetspot.json")
                         .read_text(encoding="utf-8"))
        old = json.loads(json.dumps(doc))
        old["apps"][0]["retry_until_key"] = True
        scenario, warnings = load_scenario(old)
        assert warnings == ["$.apps[0].retry_until_key: unknown key"]
        assert scenario.apps[0].config.k_target == 8
        ran, shipped = run_scenario(scenario), run_scenario(load_scenario(doc, strict=True)[0])
        assert ran.summary["apps"]["retry"]["outcome"] == "key"
        assert (ran.trace_jsonl, ran.metrics_rows, ran.app_rows) == \
            (shipped.trace_jsonl, shipped.metrics_rows, shipped.app_rows)

    def test_app_metrics_and_trace(self, make_stack):
        topo = one_cell_topology(q_attempt=0.9, w0=1.0, t_coh_s=1e9)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=8, rounds=1,
                        sample_fraction=0.0)
        sim, stack, res = _run_app(make_stack, topo, cfg)
        assert sim.metrics.gauges["app.qkd0.key_bits"] == float(res.key_bits)
        assert sim.metrics.gauges["app.qkd0.elapsed_s"] == pytest.approx(res.elapsed_s)
        kinds = [r["kind"] for r in sim.trace]
        assert kinds.count("app-start") == 1 and kinds.count("app-end") == 1

    def test_disagreements_gauge_counts_every_sifted_mismatch(self, make_stack):
        topo = one_cell_topology(q_attempt=0.9, w0=0.8, t_coh_s=1e9)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=64, rounds=1,
                        min_fidelity=0.5, sample_fraction=0.0)
        sim, stack, res = _run_app(make_stack, topo, cfg)
        assert res.disagreements > 0
        assert sim.metrics.gauges["app.qkd0.disagreements"] == float(res.disagreements)

    def test_same_seed_reproduces_keys(self, make_stack):
        topo = one_cell_topology(q_attempt=0.5, w0=0.95, t_coh_s=1e9)
        cfg = QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=24, rounds=2,
                        sample_fraction=0.1)
        _, _, res1 = _run_app(make_stack, one_cell_topology(
            q_attempt=0.5, w0=0.95, t_coh_s=1e9), cfg, seed=33)
        _, _, res2 = _run_app(make_stack, topo, cfg, seed=33)
        assert res1.alice_key == res2.alice_key
        assert res1.qber_estimate == res2.qber_estimate
        assert res1.elapsed_s == res2.elapsed_s
        _, _, res3 = _run_app(make_stack, one_cell_topology(
            q_attempt=0.5, w0=0.95, t_coh_s=1e9), cfg, seed=34)
        assert (res3.alice_key != res1.alice_key
                or res3.elapsed_s != res1.elapsed_s)


class TestEveryOutcomeInBothModes:
    """Each way a run ends, in rounds mode and in first-key mode.

    Links lose 10% of messages and a message gets one try, so runs end at
    every step: attachment, session admission, the basis announcement, the
    batch budget.  However it ends, a run counts every pair it measured.
    """

    CONFIGS = {
        "rounds": QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=4, rounds=4),
        "first-key": QkdConfig("qkd0", "QUE1", "QUE2", n_pairs=4, k_target=4,
                               max_rounds=6),
    }

    @pytest.mark.parametrize("mode, seed, outcome, sessions", [
        ("rounds", 1, "aborted-attach", 0),
        ("rounds", 0, "aborted-session", 1),
        ("rounds", 18, "aborted-classical", 4),
        ("rounds", 6, "key", 4),
        ("first-key", 1, "aborted-attach", 0),
        ("first-key", 10, "aborted-session", 2),
        ("first-key", 0, "aborted-classical", 1),
        ("first-key", 9, "exhausted", 6),
        ("first-key", 6, "key", 1),
    ])
    def test_outcome_counts_every_pair_measured(self, make_stack, mode, seed,
                                                outcome, sessions):
        cfg = self.CONFIGS[mode]
        topo = one_cell_topology(q_attempt=0.9, w0=1.0, t_coh_s=1e9, p_err_c=0.1)
        sim, stack = make_stack(topo, seed=seed,
                                defaults=dataclasses.replace(QUIET, retry_cap=1))
        res = drive(sim, QkdApp(cfg).run(stack))
        assert (res.outcome, res.sessions) == (outcome, sessions)
        measured = [r for r in sim.trace if r["kind"] == "pair-consumed"
                    and r["details"]["purpose"] == "measure"]
        # every accepted session here delivers all of its pairs
        assert res.pairs_measured == len(measured) == cfg.n_pairs * sessions
        assert (res.key_bits > 0) == (outcome == "key")

    def test_lost_sample_report_voids_the_key(self, make_stack):
        # seed 5: every batch and both basis announcements arrive, then
        # Bob's report of his sampled bits is lost
        topo = one_cell_topology(q_attempt=0.9, w0=1.0, t_coh_s=1e9, p_err_c=0.1)
        sim, stack = make_stack(topo, seed=5,
                                defaults=dataclasses.replace(QUIET, retry_cap=1))
        res = drive(sim, QkdApp(self.CONFIGS["rounds"]).run(stack))
        failed = [r["details"]["msg"] for r in sim.trace
                  if r["kind"] == "msg" and not r["details"]["delivered"]]
        assert failed == ["report"]
        assert (res.outcome, res.sessions) == ("aborted-classical", 4)
        assert res.sampled_bits > 0 and res.sifted_bits > res.sampled_bits
        assert res.key_bits == 0
        assert res.alice_key == res.bob_key == ""
