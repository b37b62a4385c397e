"""Delegated blind computation: chain semantics, blinding, app runs."""

import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import drive, one_cell_topology
from oneq import qcore
from oneq.apps.ubqc import (
    GRID,
    UbqcApp,
    UbqcConfig,
    blindness_pvalue,
    ideal_chain_p_zero,
    pattern_distinguishability_pvalue,
    rsp_collapse,
)
from oneq.runner import run_scenario
from oneq.scenario import load_scenario_file


REPO = Path(__file__).resolve().parents[1]

PATTERNS = [(0,), (3,), (2, 2), (1, 6, 3), (7, 5, 1, 4)]


class TestChainSemantics:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_direct_circuit_walk(self, pattern):
        phis = [e * math.pi / 4 for e in pattern]
        assert ideal_chain_p_zero(pattern) == pytest.approx(
            oracles.chain_p_zero(phis), abs=1e-12)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_measurement_pattern_enumeration(self, pattern):
        # independent route: explicit cluster state with adaptive branches
        phis = [e * math.pi / 4 for e in pattern]
        assert ideal_chain_p_zero(pattern) == pytest.approx(
            oracles.mbqc_chain_p_zero(phis), abs=1e-12)

    def test_three_step_anchor(self):
        assert ideal_chain_p_zero((1, 6, 3)) == pytest.approx(
            (2.0 - math.sqrt(2.0)) / 4.0, abs=1e-12)


class TestRsp:
    def test_perfect_pair_prepares_rotated_plus(self):
        rng = np.random.default_rng(0)
        for theta8 in range(GRID):
            m, server = rsp_collapse(1.0, theta8, rng)
            assert m in (0, 1)
            target = qcore.equatorial_state(-theta8 * math.pi / 4 + m * math.pi)
            assert qcore.state_fidelity(server, target) == pytest.approx(1.0)

    def test_outcome_is_fair(self):
        rng = np.random.default_rng(1)
        n = 4000
        ones = sum(rsp_collapse(1.0, 3, rng)[0] for _ in range(n))
        assert abs(ones / n - 0.5) <= 3 * 0.5 / math.sqrt(n)

    def test_noisy_pair_still_returns_equatorial_qubit(self):
        rng = np.random.default_rng(2)
        m, server = rsp_collapse(0.7, 5, rng)
        a0, a1 = server.amplitudes
        assert abs(a0) == pytest.approx(1 / math.sqrt(2))
        assert abs(a1) == pytest.approx(1 / math.sqrt(2))


class TestBlindnessStatistics:
    def test_uniform_transcript_accepted(self):
        rng = np.random.default_rng(7)
        deltas = rng.integers(0, GRID, size=4000)
        assert blindness_pvalue(deltas) > 0.01

    def test_constant_transcript_rejected(self):
        assert blindness_pvalue([3] * 400) < 1e-6

    def test_two_uniform_transcripts_indistinguishable(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, GRID, size=3000)
        b = rng.integers(0, GRID, size=3000)
        assert pattern_distinguishability_pvalue(a, b) > 0.01

    def test_skewed_transcript_distinguishable(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, GRID, size=3000)
        b = np.concatenate([rng.integers(0, 2, size=1500),
                            rng.integers(0, GRID, size=1500)])
        assert pattern_distinguishability_pvalue(a, b) < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UbqcConfig("u", "QUE1", "QBS1", phi_eighths=())
        with pytest.raises(ValueError):
            UbqcConfig("u", "QUE1", "QBS1", phi_eighths=(9,))
        with pytest.raises(ValueError):
            UbqcConfig("u", "QUE1", "QBS1", phi_eighths=(1,), shots=0)
        with pytest.raises(ValueError):
            UbqcConfig("u", "QUE1", "QBS1", phi_eighths=(1,), blinding="xor")


def _run_app(make_stack, topo, config, seed=1):
    sim, stack = make_stack(topo, seed=seed)
    result = drive(sim, UbqcApp(config).run(stack), until=1e7)
    return sim, stack, result


def _ideal_topology(q_attempt=0.9):
    return one_cell_topology(q_attempt=q_attempt, w0=1.0, t_coh_s=1e9,
                             memory_slots=64)


class TestAppOnEngine:
    def test_exact_blinded_run_matches_ideal_distribution(self, make_stack):
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(1, 6, 3),
                        shots=600, exact=True)
        sim, stack, res = _run_app(make_stack, _ideal_topology(), cfg, seed=31)
        assert res.outcome == "done"
        assert res.shots_done == 600
        assert res.mode == "exact"
        want = ideal_chain_p_zero((1, 6, 3))
        sigma = math.sqrt(want * (1 - want) / 600)
        assert abs(res.p_zero - want) <= 3 * sigma
        assert res.pairs_consumed == 600 * 4  # three angles plus readout

    def test_blinded_transcript_is_grid_uniform(self, make_stack):
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(3, 3, 3),
                        shots=500, exact=True, blinding="uniform")
        sim, stack, res = _run_app(make_stack, _ideal_topology(), cfg, seed=13)
        assert len(res.deltas_eighths) == 500 * 4
        assert blindness_pvalue(res.deltas_eighths) > 0.01

    def test_unblinded_transcript_leaks_the_pattern(self, make_stack):
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(3, 3, 3),
                        shots=200, exact=True, blinding="none")
        sim, stack, res = _run_app(make_stack, _ideal_topology(), cfg, seed=13)
        assert blindness_pvalue(res.deltas_eighths) < 1e-6

    def test_unblinded_exact_run_still_computes(self, make_stack):
        # sanity that the blinding machinery is what hides the angles,
        # not what makes the answer correct
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(1, 6, 3),
                        shots=400, exact=True, blinding="none")
        sim, stack, res = _run_app(make_stack, _ideal_topology(), cfg, seed=17)
        want = ideal_chain_p_zero((1, 6, 3))
        sigma = math.sqrt(want * (1 - want) / 400)
        assert abs(res.p_zero - want) <= 3 * sigma

    def test_parameterized_mode_returns_fair_bits(self, make_stack):
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(1, 6, 3),
                        shots=400, exact=False)
        sim, stack, res = _run_app(make_stack, _ideal_topology(), cfg, seed=5)
        assert res.mode == "parameterized"
        assert res.pairs_consumed == 400 * 4
        sigma = 0.5 / math.sqrt(400)
        assert abs(res.p_zero - 0.5) <= 3 * sigma

    def test_starved_when_no_pairs_arrive(self, make_stack):
        topo = one_cell_topology(q_attempt=0.0)
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(1,),
                        shots=5, max_latency_s=0.05)
        sim, stack, res = _run_app(make_stack, topo, cfg)
        assert res.outcome == "starved"
        assert res.shots_done == 0

    def test_metrics_and_determinism(self, make_stack):
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(2, 7),
                        shots=50, exact=True)
        sim1, _, res1 = _run_app(make_stack, _ideal_topology(), cfg, seed=21)
        assert sim1.metrics.gauges["app.blind0.p_zero"] == pytest.approx(res1.p_zero)
        assert sim1.metrics.gauges["app.blind0.shots"] == 50.0
        sim2, _, res2 = _run_app(make_stack, _ideal_topology(), cfg, seed=21)
        assert res2.deltas_eighths == res1.deltas_eighths
        assert res2.p_zero == res1.p_zero
        sim3, _, res3 = _run_app(make_stack, _ideal_topology(), cfg, seed=22)
        assert res3.deltas_eighths != res1.deltas_eighths


class TestShotProvisioning:
    """A shot gets all its pairs in one session and prepares them at once."""

    def test_short_shot_discards_its_partial_pairs(self, make_stack):
        # About 20 attempt slots at q 0.2 deliver 4 pairs only some of the
        # time: seed 2 finishes three shots, then the fourth gets 3 of 4.
        topo = one_cell_topology(q_attempt=0.2, w0=1.0, t_coh_s=1e9, memory_slots=4)
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(1, 6, 3),
                        shots=50, max_latency_s=4e-3)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=2)
        stack.finalize()
        ledger = stack.ledger
        assert res.outcome == "starved"
        assert res.shots_done == 3
        consumed = [rid for rid, st in ledger.state.items() if st == "consumed"]
        assert res.pairs_consumed == len(consumed) == 3 * 4
        assert all(st in ("consumed", "discarded", "expired")
                   for st in ledger.state.values())
        partial = [rid for rid, st in ledger.state.items() if st == "discarded"]
        assert 0 < len(partial) < 4
        assert {ledger.reason[rid] for rid in partial} == {"shot-starved"}
        for node_id in ("QUE1", "QBS1"):
            assert ledger.slots_free(node_id) == topo.nodes[node_id].memory_slots

    def test_prepared_pairs_decay_until_the_shot_starts(self, make_stack):
        # Every pair of a shot is consumed at one instant, so the earlier
        # heralded ones have aged longer in memory.
        topo = one_cell_topology(q_attempt=1.0, w0=1.0, t_coh_s=0.01)
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(1, 6, 3),
                        shots=1, max_latency_s=0.01)
        sim, stack, res = _run_app(make_stack, topo, cfg)
        assert res.outcome == "done"
        pairs = [stack.ledger.resources[rid] for rid in sorted(stack.ledger.state)]
        assert len(pairs) == 4
        assert all(stack.ledger.reason[p.id] == "rsp" for p in pairs)
        t_prepare = pairs[0].last_touched
        assert all(p.last_touched == t_prepare for p in pairs)
        t_coh = stack.effective_t_coh(("QUE1", "QBS1"))
        for p in pairs:
            assert p.w == pytest.approx(qcore.decay(1.0, t_prepare - p.created_at, t_coh),
                                        rel=1e-12)
        ws = [p.w for p in pairs]
        assert ws == sorted(ws) and ws[0] < ws[-1] < 1.0


class TestShippedChain:
    def test_one_session_per_shot_keeps_the_counts(self):
        scenario, _ = load_scenario_file(str(REPO / "scenarios" / "ubqc_chain.json"))
        art = run_scenario(scenario, seed=23)
        # 400 shots of 4 pairs: one request, one attempt slot per pair and
        # one ack per shot, then 4 angle and 4 outcome messages.
        assert art.summary["events"] == 5606
        assert art.summary["trace_records"] == 8807
        assert art.summary["apps"]["blind0"]["result"] == 0.165
        ends = [line for line in art.trace_jsonl.splitlines()
                if '"session-end"' in line]
        assert len(ends) == 400
        assert all('"outcome":"Fulfilled"' in line for line in ends)
