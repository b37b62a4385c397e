"""Delegated blind computation: chain semantics, blinding, app runs."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import oracles
import tracecheck
from conftest import drive, one_cell_topology
from oneq import qcore
from oneq.apps.ubqc import (
    GRID,
    UbqcApp,
    UbqcConfig,
    _ServerShot,
    blindness_pvalue,
    ideal_chain_p_zero,
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
            m, amps = rsp_collapse(1.0, theta8, rng)
            server = qcore.PureState(amps)
            assert m in (0, 1)
            phase = np.exp(1j * (-theta8 * math.pi / 4 + m * math.pi))
            target = qcore.PureState(np.array([1.0, phase]) / math.sqrt(2.0))
            assert qcore.state_fidelity(server, target) == pytest.approx(1.0)

    def test_outcome_is_fair(self):
        rng = np.random.default_rng(1)
        n = 4000
        ones = sum(rsp_collapse(1.0, 3, rng)[0] for _ in range(n))
        assert abs(ones / n - 0.5) <= 3 * 0.5 / math.sqrt(n)

    def test_noisy_pair_still_returns_equatorial_qubit(self):
        rng = np.random.default_rng(2)
        m, amps = rsp_collapse(0.7, 5, rng)
        a0, a1 = qcore.PureState(amps).amplitudes
        assert abs(a0) == pytest.approx(1 / math.sqrt(2))
        assert abs(a1) == pytest.approx(1 / math.sqrt(2))


class _Draws:
    """Stands in for a Generator: random() returns the given draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


# Draws that force outcome 0 and outcome 1 whenever 0 < P(0) < 1.
FORCE = (0.0, float(np.nextafter(1.0, 0.0)))


def _p_zero(amps, eighths):
    """P(0) of an equatorial measurement of qubit 0, from the explicit bra."""
    bra = np.array([1.0, np.exp(-1j * eighths * math.pi / 4)]) / math.sqrt(2.0)
    kept = bra @ np.asarray(amps, dtype=complex).reshape(2, -1)
    return float(np.vdot(kept, kept).real)


def _reference_measure(amps, eighths, u):
    """The outcome a draw u picks, and what is left, from tests/oracles.py."""
    amps = np.asarray(amps, dtype=complex)
    n = amps.size.bit_length() - 1
    theta = eighths * math.pi / 4
    outcome = int(u >= oracles._project_eq(amps, 0, theta, 0, n)[0])
    return outcome, oracles._project_eq(amps, 0, theta, outcome, n)[1]


def _random_qubit(rng):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return tuple(complex(a) for a in amps / np.linalg.norm(amps))


class TestServerKernel:
    """The complex-amplitude server register against the circuits of tests/oracles.py."""

    @pytest.mark.parametrize("label", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_rsp_matches_oracle_measurement(self, label):
        # At w = 0 every Bell label has weight 1/4; this draw picks ``label``.
        u_label = 0.125 + 0.25 * (2 * label[0] + label[1])
        shared = oracles.bell_vec(*label)
        for theta8 in range(GRID):
            p0 = _p_zero(shared, theta8)
            for want, u in enumerate(FORCE):
                m, amps = rsp_collapse(0.0, theta8, _Draws(u_label, u))
                ref_m, ref = _reference_measure(shared, theta8, u)
                assert m == ref_m == want
                np.testing.assert_allclose(amps, ref, rtol=0, atol=1e-12)
            for u, want in ((p0 - 1e-12, 0), (p0 + 1e-12, 1)):
                assert rsp_collapse(0.0, theta8, _Draws(u_label, u))[0] == want

    @pytest.mark.parametrize("seed", range(4))
    def test_push_and_measure_match_oracle_circuit(self, seed):
        rng = np.random.default_rng(seed)
        front, back = _random_qubit(rng), _random_qubit(rng)
        # CZ as H, CNOT, H on the pushed qubit
        linked = oracles.apply_cz(np.kron(front, back), 0, 1, 2)
        shot = _ServerShot(True, _Draws())
        shot.push(front)
        shot.push(back)
        np.testing.assert_allclose(shot.reg, linked, rtol=0, atol=1e-12)
        # A pushed register, and any normalized two-qubit register.
        entangled = rng.normal(size=4) + 1j * rng.normal(size=4)
        entangled /= np.linalg.norm(entangled)
        for reg in (linked, entangled):
            for delta8 in range(GRID):
                p0 = _p_zero(reg, delta8)
                for u in (*FORCE, p0 - 1e-12, p0 + 1e-12):
                    shot = _ServerShot(True, _Draws(u))
                    shot.reg = tuple(reg)
                    ref_s, ref = _reference_measure(reg, delta8, u)
                    assert shot.measure_front(delta8) == ref_s == int(u >= p0)
                    np.testing.assert_allclose(shot.reg, ref, rtol=0, atol=1e-12)
                    # The qubit left behind is measured alone and leaves no qubit.
                    last8 = (delta8 + 3) % GRID
                    p_last = _p_zero(ref, last8)
                    for draw in (*FORCE, p_last - 1e-12, p_last + 1e-12):
                        shot.rng = _Draws(draw)
                        shot.reg = tuple(ref)
                        assert shot.measure_front(last8) == _reference_measure(
                            ref, last8, draw)[0]
                        assert shot.reg == ()

    def test_guards_raise_like_the_oracle(self):
        s = 1 / math.sqrt(2.0)
        shot = _ServerShot(True, _Draws())
        shot.push((1.0 + 5e-8 + 0j, 0j))  # within the 1e-7 norm tolerance
        for bad in ((1.0 + 2e-7 + 0j, 0j), (complex(math.nan), 0j)):
            with pytest.raises(ValueError, match="not normalized"):
                _ServerShot(True, _Draws()).push(bad)
            with pytest.raises(ValueError, match="not normalized"):
                qcore.PureState(bad)
        # |-> measured along X has P(0) = 0; a draw below it picks that branch.
        minus = (s + 0j, -s + 0j)
        assert oracles._project_eq(np.array(minus), 0, 0.0, 0, 1)[0] == pytest.approx(
            0.0, abs=1e-15)
        shot = _ServerShot(True, _Draws(-1.0))
        shot.push(minus)
        with pytest.raises(ValueError, match="zero-probability"):
            shot.measure_front(0)
        shot = _ServerShot(True, _Draws())
        shot.push(minus)
        shot.push(minus)
        with pytest.raises(ValueError, match="at most two"):
            shot.push(minus)


class TestBlindnessStatistics:
    def test_uniform_transcript_accepted(self):
        rng = np.random.default_rng(7)
        deltas = rng.integers(0, GRID, size=4000)
        assert blindness_pvalue(deltas) > 0.01

    def test_constant_transcript_rejected(self):
        assert blindness_pvalue([3] * 400) < 1e-6

    def test_closed_form_matches_scipy_chisquare(self):
        # scipy is an independent reference for the closed-form chi-square tail.
        rng = np.random.default_rng(2009)
        transcripts = [list(range(GRID)) * 5, [-1, 8, 15, -9] * 3, [5], [3] * 7 + [4],
                       np.array([0, 0, 1, 7, 7, 7], dtype=np.int32)]
        for _ in range(300):
            low, high = int(rng.integers(-20, 1)), int(rng.integers(1, 30))
            deltas = rng.integers(low, high, size=int(rng.integers(1, 300)))
            transcripts += [deltas, deltas.tolist()]
        for deltas in transcripts:
            counts = np.bincount(np.asarray(deltas) % GRID, minlength=GRID)
            want = stats.chisquare(counts).pvalue
            assert math.isclose(blindness_pvalue(deltas), want, rel_tol=1e-12), deltas
        assert blindness_pvalue(list(range(GRID)) * 5) == 1.0
        assert blindness_pvalue([-3, 13, 5]) == blindness_pvalue([5, 5, 5])

    def test_empty_transcript_is_an_error(self):
        with pytest.raises(ValueError, match="no announced angles"):
            blindness_pvalue([])
        with pytest.raises(ValueError, match="no announced angles"):
            blindness_pvalue(np.array([], dtype=int))

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

    @pytest.mark.parametrize("kind, nth, shots_done", [
        ("angle", 4, 1),    # the first angle of shot 2
        ("outcome", 8, 2),  # the second outcome of shot 3
    ])
    def test_lost_message_starves_the_shot(self, make_stack, kind, nth, shots_done):
        # Pattern (1, 6): three pairs a shot, each with an angle and an outcome.
        # The lost shot has prepared, so consumed, all of its pairs.
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(1, 6), shots=5, exact=True)
        sim, stack = make_stack(_ideal_topology(), seed=3)
        send_routed, sent = stack.send_routed, []

        def lossy(src, dst, msg_kind, bits=None):
            sent.append(msg_kind)
            if msg_kind == kind and sent.count(kind) == nth:
                return False
            return (yield from send_routed(src, dst, msg_kind, bits))

        stack.send_routed = lossy
        res = drive(sim, UbqcApp(cfg).run(stack), until=1e7)
        assert res.outcome == "starved"
        assert res.shots_done == shots_done
        assert res.pairs_consumed == 3 * (shots_done + 1)
        assert sent[-1] == kind and sent.count(kind) == nth  # nothing is sent after the loss
        consumed = [rid for rid, st in stack.ledger.state.items() if st == "consumed"]
        assert len(consumed) == res.pairs_consumed

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
        # time: seed 1 finishes three shots, then the fourth gets 1 of 4.
        topo = one_cell_topology(q_attempt=0.2, w0=1.0, t_coh_s=1e9, memory_slots=4)
        cfg = UbqcConfig("blind0", "QUE1", "QBS1", phi_eighths=(1, 6, 3),
                        shots=50, max_latency_s=4e-3)
        sim, stack, res = _run_app(make_stack, topo, cfg, seed=1)
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
        ends = tracecheck.ends(sim.trace)
        assert {ends[rid]["details"]["reason"] for rid in partial} == {"shot-starved"}
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
        records = list(sim.trace)
        created = {r["details"]["id"]: r["t"] for r in records if r["kind"] == "pair-created"}
        ends = tracecheck.ends(records)
        assert len(ends) == 4 and list(ends) == sorted(created)
        assert {r["details"]["purpose"] for r in ends.values()} == {"rsp"}
        (t_prepare,) = {r["t"] for r in ends.values()}
        t_coh = stack.effective_t_coh(("QUE1", "QBS1"))
        # each pair's fidelity at consumption, in the order the pairs ended
        fs = sim.metrics.series["fidelity_at_consumption"]
        for rid, f in zip(ends, fs, strict=True):
            w = qcore.decay(1.0, t_prepare - created[rid], t_coh)
            assert f == pytest.approx(qcore.fidelity_of(w), rel=1e-12)
        assert fs == sorted(fs) and fs[0] < fs[-1] < 1.0


class TestShippedChain:
    def test_one_session_per_shot_keeps_the_counts(self):
        scenario, _ = load_scenario_file(str(REPO / "scenarios" / "ubqc_chain.json"))
        art = run_scenario(scenario, seed=23)
        # 400 shots of 4 pairs: one request, one attempt slot per pair and
        # one ack per shot, then 4 angle and 4 outcome messages.
        assert art.summary["events"] == 5606
        assert art.summary["events_by_kind"] == {
            "app-step": 2, "decoherence-check": 0, "entanglement-attempt": 1600,
            "message-delivery": 4004, "timer": 0}
        assert art.summary["trace_records"] == 8807
        assert art.summary["apps"]["blind0"]["result"] == 0.135
        ends = [line for line in art.trace_jsonl.splitlines()
                if '"session-end"' in line]
        assert len(ends) == 400
        assert all('"outcome":"Fulfilled"' in line for line in ends)
