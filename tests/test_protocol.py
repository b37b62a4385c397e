"""Unit tests for the control plane: RRC states, sessions, swaps, handover."""

import functools
import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import oracles
import tracecheck
from conftest import QUIET, drive, line_topology, one_cell_topology, two_cell_topology
from oneq.engine import Simulator
from oneq.errors import PermanentLossError, ProtocolError, ResourceError
from oneq.protocol import (
    Defaults,
    EntanglementRequest,
    HandoverMode,
    PolicyMode,
    PolicySpec,
    QueState,
    SessionOutcome,
    Stack,
    _teleport_exact,
)
from oneq.runner import run_scenario
from oneq.scenario import load_scenario
from oneq.qcore import (
    GhzResource,
    PureState,
    WernerPair,
    X_BASIS,
    Z_BASIS,
    fidelity_of,
    state_fidelity,
)

REPO = Path(__file__).resolve().parent.parent


def _request(peer="QUE2", requester="QUE1", count=2, max_latency_s=1.0,
             min_fidelity=0.8):
    return EntanglementRequest(
        requester=requester, target=peer,
        count=count, max_latency_s=max_latency_s, min_fidelity=min_fidelity,
    )


def _register_pair(stack, a, b, w, pid=None):
    pid = pid or stack.ledger.new_id()
    pair = WernerPair(id=pid, holders=(a, b), w=w,
                      created_at=stack.sim.now, last_touched=stack.sim.now)
    stack.ledger.register(pair)
    return pair


def _equatorial(theta):
    return PureState(np.array([1.0, np.exp(1j * theta)]) / math.sqrt(2.0))


class TestStateMachine:
    def test_registration_connects_and_counts_messages(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        assert stack.ue("QUE1").state == QueState.IDLE
        ok = drive(sim, stack.register("QUE1", "QBS1"))
        assert ok is True
        assert stack.ue("QUE1").state == QueState.CONNECTED
        assert stack.ue("QUE1").serving_bs == "QBS1"
        msgs = [r for r in sim.trace if r["kind"] == "msg"
                and r["details"].get("msg") == "registration"]
        assert len(msgs) == stack.defaults.registration_messages
        # alternating directions, UE-initiated
        assert msgs[0]["node"] == "QUE1" and msgs[1]["node"] == "QBS1"

    def test_lost_registration_message_is_recorded(self, make_stack):
        sim, stack = make_stack(one_cell_topology(p_err_c=1.0))
        assert drive(sim, stack.register("QUE1", "QBS1")) is False
        assert stack.ue("QUE1").state == QueState.IDLE
        (failed,) = [r for r in sim.trace if r["kind"] == "registration-failed"]
        assert failed["node"] == "QUE1"
        assert failed["details"] == {"bs": "QBS1", "at_message": 1}

    def test_failed_attachment_warns_and_the_run_goes_on(self):
        doc = json.loads((REPO / "scenarios" / "qkd_baseline.json").read_text(encoding="utf-8"))
        doc["classical_links"][1]["p_err_c"] = 1.0  # QBS1-QUE2 loses every message
        art = run_scenario(load_scenario(doc, strict=True)[0], until=0.1)
        records = [json.loads(line) for line in art.trace_jsonl.splitlines()]
        (warn,) = [r for r in records if r["kind"] == "warn"]
        assert warn["node"] == "QUE2"
        assert warn["details"] == {"msg": "attachment-failed", "bs": "QBS1"}
        assert art.summary["t_end"] == pytest.approx(0.1)

    @staticmethod
    def _alice_unattached(station=None, alice_x=200.0):
        """qkd_baseline with alice (QUE1) unattached and at alice_x.

        station, if given, is (id, x) of a second QBS 10 m up, whose cell
        and classical link cover alice as QBS1's do.
        """
        doc = json.loads((REPO / "scenarios" / "qkd_baseline.json").read_text("utf-8"))
        doc["nodes"][1]["position"] = [alice_x, 0, 0]
        del doc["attachments"][0]
        if station is not None:
            bs, x = station
            doc["nodes"].append({"id": bs, "kind": "QBS", "position": [x, 0, 10],
                                 "t_coh_s": 5.0, "memory_slots": 128})
            doc["cells"].append({"bs": bs, "classical_radius": 2000,
                                 "quantum_radius": 1500})
            doc["classical_links"].append({"a": bs, "b": "QUE1", "rate_bps": 1e8,
                                           "prop_delay_s": 1e-5, "p_err_c": 0.0})
        art = run_scenario(load_scenario(doc, strict=True)[0], until=0.05)
        records = [json.loads(line) for line in art.trace_jsonl.splitlines()]
        return art, [r["details"]["route"] for r in records
                     if r["kind"] == "msg" and r["node"] == "QUE1"
                     and r["details"]["msg"] == "registration"]

    @pytest.mark.parametrize("station, expected", [
        (("QBS2", 300.0), "QBS2"),  # 100.5 m away, QBS1 200.2 m
        (("QBS2", 100.0), "QBS2"),  # 100.5 m, on the other side
        (("QBS0", 400.0), "QBS0"),  # 200.2 m from both: the lower id
        (("QBS2", 400.0), "QBS1"),
        (("QBS2", 500.0), "QBS1"),
    ])
    def test_unattached_ue_registers_with_the_closest_station(self, station, expected):
        _, routes = self._alice_unattached(station)
        assert routes and set(routes) == {f"QUE1+{expected}"}

    def test_unattached_ue_out_of_every_cell_aborts_its_app(self):
        art, routes = self._alice_unattached(alice_x=5000.0)  # QBS1 reaches 2 km
        assert routes == []
        assert art.summary["apps"]["qkd0"]["outcome"] == "aborted-attach"

    def test_illegal_transition_raises(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        with pytest.raises(ProtocolError):
            stack._set_state(stack.ue("QUE1"), QueState.ENTANGLED, "test")

    def test_register_requires_idle_and_a_base_station(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        drive(sim, stack.register("QUE1", "QBS1"))
        with pytest.raises(ProtocolError):
            drive(sim, stack.register("QUE1", "QBS1"))
        with pytest.raises(ProtocolError):
            drive(sim, stack.register("QUE2", "QUE1"))

    def test_inactivity_timeout_then_resume(self, make_stack):
        sim, stack = make_stack(one_cell_topology(),
                                defaults=Defaults(inactivity_timeout_s=0.5))
        drive(sim, stack.register("QUE1", "QBS1"))
        sim.run_until(1.0)
        assert stack.ue("QUE1").state == QueState.INACTIVE
        ok = drive(sim, stack.resume("QUE1"), until=2.0)
        assert ok is True
        assert stack.ue("QUE1").state == QueState.CONNECTED

    def test_activity_defers_inactivity(self, make_stack):
        sim, stack = make_stack(one_cell_topology(),
                                defaults=Defaults(inactivity_timeout_s=0.5))
        drive(sim, stack.register("QUE1", "QBS1"))

        def chatter():
            for _ in range(8):
                yield 0.3
                ok = yield from stack.send_message(("QUE1", "QBS1"), "ack")
                assert ok

        drive(sim, chatter(), until=10.0)
        assert stack.ue("QUE1").state == QueState.CONNECTED
        sim.run_until(sim.now + 1.0)
        assert stack.ue("QUE1").state == QueState.INACTIVE

    def test_reentering_connected_keeps_one_timer(self, make_stack):
        # four Entangled -> Connected cycles within one timeout
        sim, stack = make_stack(one_cell_topology(q_attempt=1.0, t_coh_s=1e9),
                                defaults=Defaults(inactivity_timeout_s=0.5))
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS1"))
        ctx = stack.ue("QUE1")
        for _ in range(4):
            res = drive(sim, stack.entanglement_session(_request(count=1)))
            assert ctx.state == QueState.ENTANGLED
            stack.consume_pair(res.delivered[0], "test")
            assert ctx.state == QueState.CONNECTED
        assert sim.now < 0.5
        timers = [fn for _, _, _, fn in sim._heap
                  if getattr(fn, "func", None) == stack._check_inactivity
                  and fn.args[0] is ctx]
        assert len(timers) == 1
        t_last = ctx.last_activity
        sim.run_until(t_last + 1.0)
        (timeout,) = [r for r in sim.trace if r["node"] == "QUE1"
                      and r["details"].get("reason") == "inactivity-timeout"]
        assert timeout["t"] == pytest.approx(t_last + 0.5, abs=1e-12)

    def test_session_outlasting_the_timeout_keeps_its_ues_connected(self):
        # qkd_baseline with a slow QUE2 leg: one session runs up to 8 s
        # against the 5 s default timeout
        doc = json.loads((REPO / "scenarios" / "qkd_baseline.json").read_text("utf-8"))
        doc["duration_s"] = 30
        doc["quantum_links"][1]["q_attempt"] = 0.001
        doc["apps"][0].update(max_latency_s=8, rounds=1)
        scenario, _ = load_scenario(doc, strict=True)
        art = run_scenario(scenario, seed=0)
        records = [json.loads(line) for line in art.trace_jsonl.splitlines()]
        (end,) = [r for r in records if r["kind"] == "session-end"]
        assert end["t"] > 5.0 and end["details"]["delivered"] > 0
        assert art.app_rows[0][3] != "unfinished"
        assert not any(r["details"].get("reason") == "inactivity-timeout"
                       for r in records if r["t"] <= end["t"])

    def test_multi_hop_session_keeps_early_segment_holders_connected(self, make_stack):
        # the UE segments herald in the first slot; the backbone takes longer
        # than the timeout
        topo = _bs_line(4, p_err_c=0.0, ues=(("QUEA", 0), ("QUEB", 3)), q_attempt=0.002)
        sim, stack = make_stack(topo, seed=5, defaults=Defaults(inactivity_timeout_s=0.05))
        _attach(stack, "QUEA", "QBS0")
        _attach(stack, "QUEB", "QBS3")
        res = drive(sim, stack.entanglement_session(_request(
            peer="QUEB", requester="QUEA", count=1, max_latency_s=5.0,
            min_fidelity=0.25)))
        assert res.outcome == SessionOutcome.FULFILLED
        t_ue = [r["t"] for r in sim.trace if r["kind"] == "pair-created"
                and "QUE" in r["details"]["holders"]]
        assert len(t_ue) == 2 and max(t_ue) + 0.05 < sim.now
        assert stack.ue("QUEA").state == stack.ue("QUEB").state == QueState.ENTANGLED
        stack.consume_pair(res.delivered[0], "test")

    def test_session_toward_an_inactive_target_is_rejected(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9),
                                defaults=Defaults(inactivity_timeout_s=0.5))
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS1"))

        def ack_then_session():
            yield 0.4 - sim.now
            assert (yield from stack.send_message(("QUE1", "QBS1"), "ack"))
            yield 0.7 - sim.now
            return (yield from stack.entanglement_session(_request(count=1)))

        res = drive(sim, ack_then_session())
        assert stack.ue("QUE1").state == QueState.CONNECTED
        assert stack.ue("QUE2").state == QueState.INACTIVE
        assert res.outcome == SessionOutcome.REJECTED
        assert res.reason == "target-state-Inactive"
        assert sim.now == pytest.approx(0.7)
        # rejected before the request message and before any draw
        assert not any(r["kind"] == "pair-created" or r["details"].get("msg") == "request"
                       for r in sim.trace)
        assert ("QBS1", "entanglement") not in sim._streams

    def test_ensure_connected_covers_all_entry_states(self, make_stack):
        sim, stack = make_stack(one_cell_topology(),
                                defaults=Defaults(inactivity_timeout_s=0.5))
        drive(sim, stack.ensure_connected("QUE1"))  # from Idle, closest BS
        assert stack.ue("QUE1").state == QueState.CONNECTED
        sim.run_until(sim.now + 1.0)
        assert stack.ue("QUE1").state == QueState.INACTIVE
        drive(sim, stack.ensure_connected("QUE1"))  # from Inactive, resume
        assert stack.ue("QUE1").state == QueState.CONNECTED

    def test_ue_lookup_rejects_base_stations(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        with pytest.raises(ProtocolError):
            stack.ue("QBS1")


class TestMessaging:
    def test_lossless_link_one_attempt(self, make_stack):
        sim, stack = make_stack(one_cell_topology(p_err_c=0.0))
        drive(sim, stack.register("QUE1", "QBS1"))
        before = len([r for r in sim.trace if r["kind"] == "msg"])
        assert drive(sim, stack.send_message(("QUE1", "QBS1"), "ack")) is True
        (record,) = [r for r in sim.trace if r["kind"] == "msg"][before:]
        assert record["node"] == "QUE1"
        assert record["details"] == {"route": "QUE1+QBS1", "msg": "ack",
                                     "delivered": True, "tx": 1}

    def test_dead_link_exhausts_retry_cap(self, make_stack):
        topo = one_cell_topology(p_err_c=1.0)
        sim, stack = make_stack(topo, defaults=Defaults(
            inactivity_timeout_s=1e9, retry_cap=4))
        ok = drive(sim, stack.send_message(("QUE1", "QBS1"), "ack"))
        assert ok is False
        (record,) = list(sim.trace)
        assert record["details"]["delivered"] is False
        assert record["details"]["tx"] == 4
        assert record["details"]["reason"] == "retries"
        assert record["details"]["failed_at"] == "QUE1"
        # the four transmissions are one delivery event after the process start
        assert sim.events_processed == 2
        assert sim.now == pytest.approx(4 * (128.0 / 1e9 + 1e-6))

    def test_retry_cap_delivery_probability(self, make_stack):
        # P(delivered within cap attempts) = 1 - p^cap
        topo = one_cell_topology(p_err_c=0.5)
        sim, stack = make_stack(topo, defaults=Defaults(
            inactivity_timeout_s=1e9, retry_cap=3))

        def many(n):
            delivered = 0
            for _ in range(n):
                ok = yield from stack.send_message(("QUE1", "QBS1"), "ack")
                delivered += ok
            return delivered

        n = 20_000
        got = drive(sim, many(n), until=1e7)
        want = 1.0 - 0.5 ** 3
        sigma = math.sqrt(want * (1 - want) / n)
        assert abs(got / n - want) <= 3 * sigma

    def test_message_latency_uses_link_formula(self, make_stack):
        sim, stack = make_stack(one_cell_topology(rate_bps=1e6, prop_delay_s=1e-3))

        def one():
            t0 = sim.now
            yield from stack.send_message(("QUE1", "QBS1"), "registration")
            return sim.now - t0

        elapsed = drive(sim, one())
        assert elapsed == pytest.approx(1024.0 / 1e6 + 1e-3)

    def test_out_of_coverage_message_fails(self, make_stack):
        # link declared, but the UE sits beyond the classical radius
        topo = one_cell_topology()
        topo.nodes["QUE1"].position = (5000.0, 0.0, 0.0)
        sim, stack = make_stack(topo)
        ok = drive(sim, stack.send_message(("QUE1", "QBS1"), "ack"))
        assert ok is False
        (record,) = list(sim.trace)
        assert record["kind"] == "msg" and record["t"] == 0.0
        assert record["details"]["reason"] == "no-coverage"
        assert record["details"]["tx"] == 0
        assert sim.events_processed == 1  # no transmission, no delivery event

    def test_missing_link_is_reported(self, make_stack):
        sim, stack = make_stack(two_cell_topology())
        ok = drive(sim, stack.send_message(("QUE1", "QBS2"), "ack"))
        assert ok is False
        (record,) = list(sim.trace)
        assert record["kind"] == "msg"
        assert record["details"]["reason"] == "no-link"
        assert record["details"]["failed_at"] == "QUE1"
        assert record["details"]["tx"] == 0
        assert sim.events_processed == 1

    def test_one_station_route_is_delivered_at_once(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        assert drive(sim, stack.send_message(["QBS1"], "request")) is True
        assert len(sim.trace) == 0 and sim.now == 0.0

    def test_in_flight_message_keeps_its_ue_connected(self, make_stack):
        # the timer fires 0.1 s into a 0.3 s message; the UE's activity is
        # the message's arrival, so it goes Inactive only a timeout after it
        topo = one_cell_topology(prop_delay_s=0.3)
        sim, stack = make_stack(topo, defaults=Defaults(inactivity_timeout_s=0.5))
        drive(sim, stack.register("QUE1", "QBS1"))
        t_connected = sim.now

        def late_ack():
            yield t_connected + 0.4 - sim.now
            return (yield from stack.send_message(("QUE1", "QBS1"), "ack"))

        assert drive(sim, late_ack())
        t_arrival = sim.now
        assert t_arrival == pytest.approx(t_connected + 0.4 + 0.3, abs=1e-6)
        assert stack.ue("QUE1").state == QueState.CONNECTED
        sim.run_until(t_arrival + 0.45)
        assert stack.ue("QUE1").state == QueState.CONNECTED
        sim.run_until(t_arrival + 0.55)
        assert stack.ue("QUE1").state == QueState.INACTIVE
        (timeout,) = [r for r in sim.trace if r["kind"] == "state-transition"
                      and r["details"]["reason"] == "inactivity-timeout"]
        assert timeout["t"] == pytest.approx(t_arrival + 0.5, abs=1e-12)

    def test_routing_same_cell_and_cross_cell(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS1"))
        assert stack.classical_route("QUE1", "QUE2") == ["QUE1", "QBS1", "QUE2"]

        sim2, stack2 = make_stack(two_cell_topology())
        drive(sim2, stack2.register("QUE1", "QBS1"))
        drive(sim2, stack2.register("QUE2", "QBS2"))
        assert stack2.classical_route("QUE1", "QUE2") == [
            "QUE1", "QBS1", "QBS2", "QUE2"]
        assert drive(sim2, stack2.send_routed("QUE1", "QUE2", "basis", bits=100)) is True


class TestSessions:
    def _connect_both(self, sim, stack):
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS1"))

    def test_request_validation(self):
        with pytest.raises(ValueError):
            _request(count=0)
        with pytest.raises(ValueError):
            _request(max_latency_s=0.0)
        with pytest.raises(ValueError):
            _request(min_fidelity=0.1)

    def test_rejected_when_not_connected(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        res = drive(sim, stack.entanglement_session(_request()))
        assert res.outcome == SessionOutcome.REJECTED
        assert res.delivered == ()
        assert "Connected" in res.reason or "Idle" in res.reason

    def test_fulfilled_same_cell(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9, w0=0.97))
        self._connect_both(sim, stack)
        res = drive(sim, stack.entanglement_session(_request(count=3)))
        assert res.outcome == SessionOutcome.FULFILLED
        assert len(res.delivered) == 3
        for ue in ("QUE1", "QUE2"):
            assert stack.ue(ue).state == QueState.ENTANGLED
            assert stack.ue(ue).stored == set(res.delivered)
        for rid in res.delivered:
            pair = stack.ledger.live(rid)
            assert set(pair.holders) == {"QUE1", "QUE2"}
            assert pair.w <= 0.97 ** 2 + 1e-12

    def test_ue_to_bs_session(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9))
        drive(sim, stack.register("QUE1", "QBS1"))
        res = drive(sim, stack.entanglement_session(_request(peer="QBS1", count=2)))
        assert res.outcome == SessionOutcome.FULFILLED
        pair = stack.ledger.live(res.delivered[0])
        assert set(pair.holders) == {"QUE1", "QBS1"}

    def test_rejected_when_served_by_a_cbs(self, make_stack):
        # A CBS has no quantum cell: the session ends before any message or draw.
        from oneq.netmodel import CellSpec, ClassicalLinkSpec, NodeSpec, Topology
        topo = Topology(
            nodes=[NodeSpec(id="CBS1", kind="CBS", position=(0.0, 0.0, 10.0)),
                   NodeSpec(id="QUE1", kind="QUE", position=(100.0, 0.0, 0.0),
                            memory_slots=4),
                   NodeSpec(id="QUE2", kind="QUE", position=(120.0, 0.0, 0.0),
                            memory_slots=4)],
            cells=[CellSpec(bs_id="CBS1", classical_radius=2000.0)],
            classical_links=[ClassicalLinkSpec(a="CBS1", b=ue, rate_bps=1e9)
                             for ue in ("QUE1", "QUE2")],
        )
        sim, stack = make_stack(topo)
        assert drive(sim, stack.register("QUE1", "CBS1"))
        streams = [sim.rng_stream(node, purpose) for node in ("QUE1", "CBS1")
                   for purpose in ("entanglement", "classical")]
        before = [rng.getstate() for rng in streams]
        n_records, t_start = len(sim.trace), sim.now
        res = drive(sim, stack.entanglement_session(_request()))
        assert res.outcome == SessionOutcome.REJECTED
        assert res.reason == "serving-bs-not-quantum"
        assert [r["kind"] for r in list(sim.trace)[n_records:]] == ["session-rejected"]
        assert sim.now == t_start
        assert [rng.getstate() for rng in streams] == before
        assert stack.ue("QUE1").state == QueState.CONNECTED

    def test_infinite_coherence_never_decays(self, make_stack):
        # t_coh_s = inf at both holders: the summed dephasing rate is 0
        sim, stack = make_stack(one_cell_topology(t_coh_s=math.inf, q_attempt=1.0))
        drive(sim, stack.register("QUE1", "QBS1"))
        res = drive(sim, stack.entanglement_session(_request(peer="QBS1", count=1)))
        assert res.outcome == SessionOutcome.FULFILLED
        assert stack.effective_t_coh(("QUE1", "QBS1")) == math.inf
        sim.run_until(sim.now + 5.0)
        pair = stack.consume_pair(res.delivered[0], "test")
        assert pair.last_touched == sim.now
        assert pair.w == stack.topo.quantum_link("QBS1", "QUE1").w0

    def test_expired_when_deadline_too_tight(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.0))
        self._connect_both(sim, stack)
        res = drive(sim, stack.entanglement_session(
            _request(count=1, max_latency_s=0.02)))
        assert res.outcome == SessionOutcome.EXPIRED
        assert res.delivered == ()
        assert stack.ue("QUE1").state == QueState.CONNECTED

    def test_partial_fulfillment(self, make_stack):
        # enough time for some pairs but rarely all eight
        sim, stack = make_stack(one_cell_topology(q_attempt=0.25,
                                                  attempt_period_s=1e-3))
        self._connect_both(sim, stack)
        res = drive(sim, stack.entanglement_session(
            _request(count=8, max_latency_s=0.04)))
        assert res.outcome in (SessionOutcome.PARTIALLY_FULFILLED,
                               SessionOutcome.EXPIRED)
        if res.outcome == SessionOutcome.PARTIALLY_FULFILLED:
            assert 1 <= len(res.delivered) < 8

    def test_fidelity_screen_discards_stale_pairs(self, make_stack):
        # pairs are born at w0=0.9 (F=0.925) and the screen wants F>=0.92,
        # so any decay during the session window kills the early ones
        sim, stack = make_stack(one_cell_topology(
            q_attempt=0.3, attempt_period_s=1e-3, w0=0.9, t_coh_s=0.05))
        self._connect_both(sim, stack)
        res = drive(sim, stack.entanglement_session(
            _request(count=6, max_latency_s=0.2, min_fidelity=0.92)))
        discards = sim.metrics.counters.get("pairs_discarded_below_threshold", 0.0)
        assert discards == res.discarded_below_threshold
        for rid in res.delivered:
            pair = stack.ledger.live(rid)
            assert fidelity_of(pair.w) >= 0.92 - 1e-9

    def test_session_metrics_and_traces(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9))
        self._connect_both(sim, stack)
        drive(sim, stack.entanglement_session(_request(count=2)))
        assert sim.metrics.counters.get("sessions_Fulfilled", 0.0) == 1.0
        kinds = {r["kind"] for r in sim.trace}
        assert {"session-start", "session-end", "pair-created"} <= kinds


class TestRegeneration:
    """One regeneration round after a failed screen, on every chain shape.

    q_attempt = 1 and lossless classical links make every run below
    deterministic: each slot heralds, and the first screen drops the pair
    that waited one slot for its partner.
    """

    @staticmethod
    def _after_first_ack(sim):
        records = list(sim.trace)
        acks = [i for i, r in enumerate(records)
                if r["kind"] == "msg" and r["details"]["msg"] == "ack"]
        return len(acks), records[acks[0]:]

    def test_multi_hop_round_generates_and_swaps(self, make_stack):
        sim, stack = make_stack(two_cell_topology(q_attempt=1.0, t_coh_ue=0.01))
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS2"))
        res = drive(sim, stack.entanglement_session(
            _request(count=2, max_latency_s=0.01, min_fidelity=0.89)))
        n_acks, after = self._after_first_ack(sim)
        assert n_acks == 2
        # one slot refills all three segments and swaps them at both stations
        assert sum(r["kind"] == "pair-created" and r["details"]["via"] == "segment"
                   for r in after) == 3
        assert [r["details"]["at"] for r in after if r["kind"] == "swap"] == ["QBS1+QBS2"]
        assert res.outcome == SessionOutcome.PARTIALLY_FULFILLED
        assert res.attempts == 3
        assert res.discarded_below_threshold == 2
        (rid,) = res.delivered
        assert set(stack.ledger.live(rid).holders) == {"QUE1", "QUE2"}
        assert stack.ledger.live_ids() == [rid]

    def test_dual_downlink_round_rescreens_survivors(self, make_stack):
        sim, stack = make_stack(one_cell_topology(
            q_attempt=1.0, w0=0.97, t_coh_s=0.01, attempt_period_s=1e-3))
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS1"))
        res = drive(sim, stack.entanglement_session(
            _request(count=2, max_latency_s=0.01, min_fidelity=0.95)))
        n_acks, after = self._after_first_ack(sim)
        assert n_acks == 2
        assert [r["details"]["via"] for r in after if r["kind"] == "pair-created"] \
            == ["src:QBS1"]
        assert res.outcome == SessionOutcome.PARTIALLY_FULFILLED
        assert res.delivered == ("p000003",)
        assert res.attempts == 3
        assert res.discarded_below_threshold == 2
        assert res.elapsed_s == pytest.approx(0.003003768, abs=1e-9)


class TestLedger:
    def test_slot_accounting(self, make_stack):
        topo = one_cell_topology(memory_slots=2)
        sim, stack = make_stack(topo)
        assert stack.ledger.slots_free("QUE1") == 2
        _register_pair(stack, "QUE1", "QBS1", 0.9)
        assert stack.ledger.slots_free("QUE1") == 1
        assert stack.ledger.can_store(("QUE1", "QBS1"))

    def test_register_refuses_when_full(self, make_stack):
        topo = one_cell_topology(memory_slots=1)
        sim, stack = make_stack(topo)
        _register_pair(stack, "QUE1", "QBS1", 0.9)
        with pytest.raises(ResourceError):
            _register_pair(stack, "QUE1", "QBS1", 0.9)

    def test_terminal_states_are_final(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        pair = _register_pair(stack, "QUE1", "QBS1", 0.9)
        assert stack.ledger.finish(pair.id, "consumed", "test") is pair
        with pytest.raises(ResourceError):
            stack.ledger.live(pair.id)
        with pytest.raises(ResourceError):
            stack.ledger.finish(pair.id, "discarded", "again")
        with pytest.raises(ResourceError):
            stack.ledger.live("p999999")

    def test_consume_requires_entangled_holders(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9))
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS1"))
        res = drive(sim, stack.entanglement_session(_request(count=1)))
        rid = res.delivered[0]
        # demote one holder behind the ledger's back and watch consume refuse
        ctx = stack.ue("QUE2")
        ctx.stored.discard(rid)
        stack._set_state(ctx, QueState.CONNECTED, "test-demotion")
        with pytest.raises(ProtocolError):
            stack.consume_pair(rid, "test")
        stack.ue("QUE2").stored.add(rid)
        stack._set_state(ctx, QueState.ENTANGLED, "test-restore")
        stack.consume_pair(rid, "test")
        assert stack.ledger.state[rid] == "consumed"

    def test_finalize_expires_leftovers(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        pair = _register_pair(stack, "QUE1", "QBS1", 0.9)
        sim.run_until(2.0)
        stack.finalize()
        assert any(r["kind"] == "pair-expired" for r in sim.trace)
        with pytest.raises(ResourceError):
            stack.ledger.live(pair.id)

    def test_measure_stored_pair_frees_slot_and_state(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9))
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS1"))
        res = drive(sim, stack.entanglement_session(_request(count=1)))
        rid = res.delivered[0]
        free_before = stack.ledger.slots_free("QUE1")
        bits = stack.measure_stored_pair(rid, Z_BASIS, Z_BASIS)
        assert set(bits) <= {0, 1}
        assert stack.ledger.slots_free("QUE1") == free_before + 1
        assert stack.ue("QUE1").state == QueState.CONNECTED
        assert stack.ue("QUE1").stored == set()

    def test_effective_t_coh_is_harmonic(self, make_stack):
        topo = two_cell_topology(t_coh_ue=0.05, t_coh_bs=0.1)
        sim, stack = make_stack(topo)
        assert stack.effective_t_coh(("QUE1", "QUE2")) == pytest.approx(0.025)
        assert stack.effective_t_coh(("QUE1", "QBS1")) == pytest.approx(1 / 30.0)


class TestSwap:
    def test_swap_multiplies_w_and_blocks_until_correction(self, make_stack):
        topo = two_cell_topology(t_coh_ue=1e9, t_coh_bs=1e9)
        sim, stack = make_stack(topo)
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS2"))
        a = _register_pair(stack, "QUE1", "QBS1", 0.9)
        b = _register_pair(stack, "QBS1", "QUE2", 0.8)
        out = stack.entanglement_swap(a.id, b.id, "QBS1")
        assert set(out.holders) == {"QUE1", "QUE2"}
        assert out.w == pytest.approx(0.72)
        assert out.usable_at == math.inf
        stack.ue("QUE1").stored.add(out.id)
        stack.ue("QUE2").stored.add(out.id)
        stack._set_state(stack.ue("QUE1"), QueState.ENTANGLED, "test")
        stack._set_state(stack.ue("QUE2"), QueState.ENTANGLED, "test")
        with pytest.raises(ResourceError):
            stack.consume_pair(out.id, "test")
        stack.mark_correction_delivered(out)
        stack.consume_pair(out.id, "test")
        assert stack.ledger.state[out.id] == "consumed"

    def test_swap_requires_common_repeater(self, make_stack):
        topo = two_cell_topology()
        sim, stack = make_stack(topo)
        a = _register_pair(stack, "QUE1", "QBS1", 0.9)
        b = _register_pair(stack, "QBS2", "QUE2", 0.8)
        with pytest.raises(ResourceError):
            stack.entanglement_swap(a.id, b.id, "QBS1")

    def test_swap_chain_two_pairs_delivers(self, make_stack):
        topo = two_cell_topology(t_coh_ue=1e9, t_coh_bs=1e9, p_err_c=0.0)
        sim, stack = make_stack(topo)
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS2"))
        a = _register_pair(stack, "QUE1", "QBS1", 0.9)
        b = _register_pair(stack, "QBS1", "QBS2", 0.95)
        t_swap = sim.now
        out_id = drive(sim, stack._swap_chain((a.id, b.id), ("QUE1", "QBS1", "QBS2")))
        assert out_id is not None
        out = stack.ledger.live(out_id)
        assert t_swap < out.usable_at <= sim.now
        assert set(out.holders) == {"QUE1", "QBS2"}
        assert out.w == pytest.approx(0.9 * 0.95)
        assert [(r["node"], r["details"]["route"]) for r in sim.trace
                if r["details"].get("msg") == "correction"] == [("QBS1", "QBS1+QUE1")]

    def test_three_hop_w_is_order_independent(self, make_stack):
        topo = two_cell_topology(t_coh_ue=1e9, t_coh_bs=1e9)
        sim, stack = make_stack(topo)

        def chain_w(order):
            a = _register_pair(stack, "QUE1", "QBS1", 0.9)
            b = _register_pair(stack, "QBS1", "QBS2", 0.95)
            c = _register_pair(stack, "QBS2", "QUE2", 0.8)
            if order == "left":
                mid = stack.entanglement_swap(a.id, b.id, "QBS1")
                stack.mark_correction_delivered(mid)
                out = stack.entanglement_swap(mid.id, c.id, "QBS2")
            else:
                mid = stack.entanglement_swap(b.id, c.id, "QBS2")
                stack.mark_correction_delivered(mid)
                out = stack.entanglement_swap(a.id, mid.id, "QBS1")
            stack.mark_correction_delivered(out)
            w = out.w
            stack.discard_pair(out.id, "test-cleanup")
            return w

        w_left = chain_w("left")
        w_right = chain_w("right")
        assert w_left == pytest.approx(w_right, abs=1e-12)
        assert w_left == pytest.approx(0.9 * 0.95 * 0.8, abs=1e-12)

    @pytest.mark.parametrize("repeaters", [("QBS2", "QBS1"), ("QBS1", "QBS1"), ("QBS1",)])
    def test_chain_that_does_not_link_up_is_refused_whole(self, make_stack, repeaters):
        sim, stack = make_stack(two_cell_topology())
        ids = [_register_pair(stack, a, b, 0.9).id
               for a, b in [("QUE1", "QBS1"), ("QBS1", "QBS2"), ("QBS2", "QUE2")]]
        with pytest.raises(ResourceError):
            stack._measure_chain(ids, repeaters)
        assert stack.ledger.live_ids() == ids
        assert not any(r["kind"] == "swap" for r in sim.trace)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_chain_measures_once_as_chained_swaps_would(self, make_stack, k):
        # QUE1-QBS1-...-QBS<k-1>-QUE2, each segment heralded 1 ms after the
        # last, so every input is aged by a different span at the swap
        stations = ["QUE1", *(f"QBS{i}" for i in range(1, k)), "QUE2"]

        def build():
            sim, stack = make_stack(line_topology(n_bs=k - 1))
            ids = []
            for i in range(k):
                ids.append(_register_pair(stack, *stations[i:i + 2], 0.99 - 0.013 * i).id)
                sim.run_until(sim.now + 1e-3)
            return sim, stack, ids

        sim, stack, ids = build()
        out_id = drive(sim, stack._swap_chain(ids, stations))
        assert out_id is not None
        assert list(stack.ledger.resources) == [*ids, out_id]
        assert stack.ledger.resources[out_id].holders == ("QUE1", "QUE2")
        assert [(stack.ledger.state[p], stack.ledger.reason[p]) for p in ids] \
            == [("consumed", "swap")] * k
        assert tracecheck.ends(sim.trace).keys() == set(ids)
        assert sim.metrics.counters["swaps"] == k - 1
        (swap,) = [r for r in sim.trace if r["kind"] == "swap"]
        assert swap["node"] == "QBS1"
        assert swap["details"]["ins"] == "+".join(ids)
        assert swap["details"]["at"] == "+".join(stations[1:-1])
        assert swap["details"]["out"] == out_id

        # the same chain on an identical stack through chained two-pair
        # swaps, written as acceptance criterion 06 writes them
        _, ref, ref_ids = build()
        out = ref.entanglement_swap(ref_ids[0], ref_ids[1], stations[1])
        for pair_id, repeater in zip(ref_ids[2:], stations[2:]):
            ref.mark_correction_delivered(out)
            out = ref.entanglement_swap(out.id, pair_id, repeater)
        assert stack.ledger.resources[out_id].w == out.w


class TestCrossCellSession:
    def test_swapped_delivery_end_to_end(self, make_stack):
        topo = two_cell_topology(t_coh_ue=10.0, t_coh_bs=10.0)
        sim, stack = make_stack(topo)
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS2"))
        res = drive(sim, stack.entanglement_session(
            _request(count=2, max_latency_s=0.5, min_fidelity=0.8)))
        assert res.outcome == SessionOutcome.FULFILLED
        product = 0.96 * 0.94 * 0.96
        for rid in res.delivered:
            pair = stack.ledger.live(rid)
            assert set(pair.holders) == {"QUE1", "QUE2"}
            # slightly under the product because of storage decay
            assert pair.w <= product + 1e-12
            assert pair.w >= product * 0.98
        assert any(r["kind"] == "swap" for r in sim.trace)

    def test_lost_correction_leaves_no_segment_live(self, make_stack):
        # at this seed some collected corrections are lost; each loss discards
        # the whole end pair, and the next slot heralds every segment again
        sim, stack = make_stack(two_cell_topology(q_attempt=1.0, p_err_c=0.5), seed=0,
                                defaults=Defaults(inactivity_timeout_s=1e9, retry_cap=2))
        assert drive(sim, stack.register("QUE1", "QBS1"))
        assert drive(sim, stack.register("QUE2", "QBS2"))
        res = drive(sim, stack.entanglement_session(_request(count=1)))
        reasons = [r["details"]["reason"] for r in sim.trace if r["kind"] == "pair-discarded"]
        assert reasons and set(reasons) == {"correction-lost"}
        assert res.outcome == SessionOutcome.FULFILLED
        assert stack.ledger.live_ids() == list(res.delivered)

    def test_line_chain_swaps_at_once_and_sends_one_correction(self, make_stack):
        topo = line_topology()
        sim, stack = make_stack(topo)
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS3"))
        res = drive(sim, stack.entanglement_session(_request(count=1)))
        assert res.outcome == SessionOutcome.FULFILLED
        records = list(sim.trace)
        # every repeater measures at one instant: one record for the chain
        (swap,) = [r for r in records if r["kind"] == "swap"]
        assert swap["node"] == "QBS1"
        assert swap["details"]["at"] == "QBS1+QBS2+QBS3"
        assert len(swap["details"]["ins"].split("+")) == 4
        t_swap = swap["t"]
        (correction,) = [r for r in records if r["details"].get("msg") == "correction"]
        assert correction["node"] == "QBS3"
        assert correction["details"]["route"] == "QBS3+QBS2+QBS1+QUE1"
        assert correction["details"]["delivered"] is True
        assert correction["details"]["tx"] == 3
        t_landed = correction["t"]
        # one walk over the two backbone hops and the UE hop, lossless
        assert t_landed - t_swap == pytest.approx(
            2 * (64.0 / 1e9 + 2e-5) + 64.0 / 1e8 + 1e-5, abs=1e-12)

        # the end pair: the product of the four segments aged to the swap
        # instant, decayed over the one correction walk and then to the ACK
        segments = [r for r in records if r["kind"] == "pair-created"]
        assert len(segments) == 4
        w_swapped = math.prod(
            r["details"]["w"] * math.exp(-(t_swap - r["t"]) / stack.effective_t_coh(
                tuple(r["details"]["holders"].split("+"))))
            for r in segments)
        assert swap["details"]["w_out"] == pytest.approx(w_swapped, abs=1e-9)
        pair = stack.ledger.live(res.delivered[0])
        t_coh = stack.effective_t_coh(pair.holders)
        assert pair.usable_at == pytest.approx(t_landed, abs=1e-12)
        w_landed = w_swapped * math.exp(-(t_landed - t_swap) / t_coh)
        assert pair.w == pytest.approx(
            w_landed * math.exp(-(pair.last_touched - t_landed) / t_coh), rel=1e-9)


class TestTeleport:
    def _entangled_pair(self, sim, stack, w=1.0):
        drive(sim, stack.register("QUE1", "QBS1"))
        drive(sim, stack.register("QUE2", "QBS1"))
        pair = _register_pair(stack, "QUE1", "QUE2", w)
        for ue in ("QUE1", "QUE2"):
            stack.ue(ue).stored.add(pair.id)
            stack._set_state(stack.ue(ue), QueState.ENTANGLED, "test")
        return pair

    def test_perfect_pair_preserves_state_and_destroys_sender(self, make_stack):
        sim, stack = make_stack(one_cell_topology(t_coh_s=1e9))
        pair = self._entangled_pair(sim, stack, w=1.0)
        payload = stack.new_payload("QUE1", _equatorial(0.7))
        res = drive(sim, stack.teleport(payload, pair.id))
        assert res.delivered is True
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)
        (record,) = [r for r in sim.trace if r["kind"] == "teleport"]
        assert record["node"] == "QUE1"
        assert record["details"] == {"payload": payload.id, "pair": pair.id, "delivered": True,
                                     "fidelity": round(res.fidelity, 12)}
        assert payload.location == "QUE2"
        assert state_fidelity(payload.state, _equatorial(0.7)) == pytest.approx(1.0)
        with pytest.raises(ResourceError):
            stack.ledger.live(pair.id)

    def test_destroyed_payload_cannot_be_teleported_again(self, make_stack):
        # every classical transmission is lost, so the first teleport's
        # correction never arrives and the payload is gone for good
        sim, stack = make_stack(one_cell_topology(t_coh_s=1e9, p_err_c=1.0))
        pairs = [_register_pair(stack, "QUE1", "QUE2", 1.0) for _ in range(2)]
        for ue in ("QUE1", "QUE2"):
            _attach(stack, ue, "QBS1")
            stack.ue(ue).stored.update(pair.id for pair in pairs)
            stack._set_state(stack.ue(ue), QueState.ENTANGLED, "test")
        payload = stack.new_payload("QUE1", _equatorial(0.2))
        res = drive(sim, stack.teleport(payload, pairs[0].id))
        assert res.delivered is False and payload.destroyed and payload.state is None
        (record,) = [r for r in sim.trace if r["kind"] == "teleport"]
        assert record["details"] == {"payload": payload.id, "pair": pairs[0].id,
                                     "delivered": False}
        with pytest.raises(PermanentLossError):
            drive(sim, stack.teleport(payload, pairs[1].id))
        assert stack.ledger.live(pairs[1].id) is pairs[1]

    def test_pair_must_touch_payload_location(self, make_stack):
        sim, stack = make_stack(one_cell_topology(t_coh_s=1e9))
        pair = self._entangled_pair(sim, stack, w=1.0)
        with pytest.raises(ResourceError):
            drive(sim, stack.teleport(stack.new_payload("QBS1"), pair.id))

    def test_parameterized_payload_reports_werner_fidelity(self, make_stack):
        sim, stack = make_stack(one_cell_topology(t_coh_s=1e9))
        pair = self._entangled_pair(sim, stack, w=0.8)
        payload = stack.new_payload("QUE1")  # no tracked state
        res = drive(sim, stack.teleport(payload, pair.id))
        assert res.delivered is True
        assert res.fidelity == pytest.approx(fidelity_of(0.8))

    @staticmethod
    def _circuit(psi, w, rng):
        """The 3-qubit teleport circuit through a Bell state drawn from w.

        Qubits are (payload, sender half, receiver half).  One draw picks the
        Bell label from the Werner weights, one draw per Z measurement picks
        its outcome, and X^{m1} then Z^{m0} correct the receiver half.
        """
        u, acc = rng.random(), 0.0
        for label, p in oracles._werner_weights(w).items():
            acc += p
            if u < acc:
                break
        else:
            label = (1, 1)
        reg = np.kron(psi, oracles.bell_vec(*label))
        reg = oracles._apply_cnot(reg, 0, 1, 3)
        reg = oracles._apply_1q(reg, oracles.H, 0, 3)
        outcomes = []
        for n in (3, 2):
            p0, _ = oracles._project(reg, 0, 0, n)
            m = int(rng.random() >= p0)
            _, reg = oracles._project(reg, 0, m, n)
            outcomes.append(m)
        m0, m1 = outcomes
        if m1:
            reg = oracles.X @ reg
        if m0:
            reg = oracles.Z @ reg
        return reg

    def test_closed_form_matches_the_circuit(self):
        inputs = np.random.default_rng(1895)
        for _ in range(500):
            psi = inputs.normal(size=2) + 1j * inputs.normal(size=2)
            psi /= np.linalg.norm(psi)
            w, seed = float(inputs.random()), int(inputs.integers(2**32))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _teleport_exact(PureState(psi), w, rng).amplitudes
            ref = self._circuit(psi, w, ref_rng)
            assert abs(np.vdot(psi, got)) ** 2 == pytest.approx(
                abs(np.vdot(psi, ref)) ** 2, abs=1e-12)
            assert abs(np.vdot(ref, got)) == pytest.approx(1.0, abs=1e-12)
            # Both made the same draws: the label and two outcomes.
            assert rng.random() == ref_rng.random()


FIXTURE = REPO / "tests" / "data" / "handover_migrates_buffer.json"


@functools.lru_cache(maxsize=None)
def _fixture_records(at_s, seed):
    """The trace of the handover fixture with its handover moved to at_s."""
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    doc["ops"][0]["at_s"] = at_s
    art = run_scenario(load_scenario(doc, strict=True)[0], seed=seed)
    return tuple(json.loads(line) for line in art.trace_jsonl.splitlines())


def _handover_topology(w0_new=0.96, bridge_q_attempt=0.9):
    """Two overlapping cells with the UE in both quantum disks.

    w0_new is the w0 of the QBS2-QUE1 link, the cell a handover moves to;
    bridge_q_attempt is the q_attempt of the QBS1-QBS2 bridge link.
    """
    from oneq.netmodel import (
        CellSpec, ClassicalLinkSpec, NodeSpec, QuantumLinkSpec, Topology,
    )
    nodes = [
        NodeSpec(id="QBS1", kind="QBS", position=(0.0, 0.0, 10.0),
                 t_coh_s=10.0, memory_slots=32),
        NodeSpec(id="QBS2", kind="QBS", position=(2000.0, 0.0, 10.0),
                 t_coh_s=10.0, memory_slots=32),
        NodeSpec(id="QUE1", kind="QUE", position=(1000.0, 0.0, 0.0),
                 t_coh_s=10.0, memory_slots=8),
    ]
    clinks = [
        ClassicalLinkSpec(a="QBS1", b="QUE1", rate_bps=1e9,
                          prop_delay_s=1e-6, p_err_c=0.0),
        ClassicalLinkSpec(a="QBS2", b="QUE1", rate_bps=1e9,
                          prop_delay_s=1e-6, p_err_c=0.0),
        ClassicalLinkSpec(a="QBS1", b="QBS2", rate_bps=1e9,
                          prop_delay_s=1e-5, p_err_c=0.0),
    ]
    qlinks = [
        QuantumLinkSpec(a="QBS1", b="QUE1", q_attempt=0.9,
                        attempt_period_s=1e-4, w0=0.96),
        QuantumLinkSpec(a="QBS2", b="QUE1", q_attempt=0.9,
                        attempt_period_s=1e-4, w0=w0_new),
        QuantumLinkSpec(a="QBS1", b="QBS2", q_attempt=bridge_q_attempt,
                        attempt_period_s=1e-4, w0=0.94),
    ]
    return Topology(
        nodes=nodes,
        cells=[CellSpec(bs_id="QBS1", classical_radius=2000.0,
                        quantum_radius=1500.0),
               CellSpec(bs_id="QBS2", classical_radius=2000.0,
                        quantum_radius=1500.0)],
        classical_links=clinks,
        quantum_links=qlinks,
        repeater_edges=[("QBS1", "QBS2")],
    )


class TestHandover:
    def _stack_with_stored_pair(self, make_stack):
        sim, stack = make_stack(_handover_topology())
        drive(sim, stack.register("QUE1", "QBS1"))
        res = drive(sim, stack.entanglement_session(
            _request(peer="QBS1", count=1, max_latency_s=0.5)))
        assert res.outcome == SessionOutcome.FULFILLED
        return sim, stack, res.delivered[0]

    def test_soft_handover_migrates_pairs(self, make_stack):
        sim, stack, rid = self._stack_with_stored_pair(make_stack)
        res = drive(sim, stack.handover("QUE1", "QBS2", HandoverMode.SOFT))
        assert res.mode_used == HandoverMode.SOFT
        assert res.fell_back is False
        assert stack.ue("QUE1").serving_bs == "QBS2"
        assert len(res.migrated) == 1
        migrated = stack.ledger.live(res.migrated[0])
        assert set(migrated.holders) == {"QUE1", "QBS2"}
        with pytest.raises(ResourceError):
            stack.ledger.live(rid)  # old pair went into the bridge swap

    def test_hard_handover_discards_and_reprovisions(self, make_stack):
        sim, stack, rid = self._stack_with_stored_pair(make_stack)
        res = drive(sim, stack.handover("QUE1", "QBS2", HandoverMode.HARD))
        assert res.mode_used == HandoverMode.HARD
        assert res.downtime_s > 0.0
        assert any(r["kind"] == "pair-discarded"
                   and r["details"].get("reason") == "handover-released"
                   for r in sim.trace)
        assert stack.ue("QUE1").serving_bs == "QBS2"
        # replacements freshly provisioned against the new base station
        assert res.session is not None
        assert res.migrated == res.session.delivered
        for pid in res.migrated:
            assert set(stack.ledger.live(pid).holders) == {"QUE1", "QBS2"}
        with pytest.raises(ResourceError):
            stack.ledger.live(rid)

    # (mode, QBS1-QBS2 q_attempt, delay of the competing consumer): the
    # consumer acts during the handover messages, or, with the slow
    # bridge, while the first bridge is still heralding
    @pytest.mark.parametrize("mode, bridge_q, consume_at", [
        (HandoverMode.SOFT, 0.9, 1e-6),
        (HandoverMode.HARD, 0.9, 1e-6),
        (HandoverMode.SOFT, 0.001, 1e-3),
    ], ids=["soft", "hard", "soft-slow-bridge"])
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_consumed_during_the_handover(self, make_stack, mode, bridge_q,
                                               consume_at, seed):
        sim, stack = make_stack(_handover_topology(bridge_q_attempt=bridge_q), seed=seed)
        drive(sim, stack.register("QUE1", "QBS1"))
        res = drive(sim, stack.entanglement_session(
            _request(peer="QBS1", count=2, max_latency_s=0.5)))
        assert res.outcome == SessionOutcome.FULFILLED
        first, kept = sorted(res.delivered)
        used = []

        def consumer():
            taken, session = yield from stack.acquire_pairs(
                "QUE1", "QBS1", count=1, min_fidelity=0.8, max_latency_s=0.5)
            assert session is None
            used.append((sim.now, stack.consume_pair(taken[0], "test").id))

        t0 = sim.now
        sim.spawn(consumer(), delay=consume_at)
        ho = drive(sim, stack.handover("QUE1", "QBS2", mode))
        assert used == [(pytest.approx(t0 + consume_at), first)]
        records = list(sim.trace)
        bridges = [r for r in records if r["kind"] == "pair-created"
                   and r["details"]["via"] == "bridge"]
        if bridge_q < 0.5:
            handover_msgs = [r for r in records if r["kind"] == "msg"
                             and r["details"]["msg"] == "handover"]
            assert handover_msgs[-1]["t"] < used[0][0] < bridges[0]["t"]
        assert ho.mode_used == mode and ho.fell_back is False
        assert len(ho.migrated) == 1
        assert set(stack.ledger.live(ho.migrated[0]).holders) == {"QUE1", "QBS2"}
        assert stack.ue("QUE1").stored == set(ho.migrated)
        assert stack.ue("QUE1").state == QueState.ENTANGLED
        if mode == HandoverMode.SOFT:
            # the remaining pair is swapped onto the first bridge; the
            # buffer is then empty, so no second bridge is heralded
            assert stack.ledger.reason[kept] == "swap"
            assert [stack.ledger.reason[b["details"]["id"]] for b in bridges] == ["swap"]
        else:
            # the remaining pair is released and one replacement provisioned
            assert stack.ledger.reason[kept] == "handover-released"
            assert ho.session.delivered == ho.migrated
            (start,) = [r for r in records if r["kind"] == "session-start"
                        and r["details"]["target"] == "QBS2"]
            assert start["details"]["count"] == 1
        stack.finalize()
        assert tracecheck.violations(sim.trace) == []
        assert tracecheck.ends(sim.trace).keys() == stack.ledger.resources.keys()

    @pytest.mark.parametrize("seed", range(3))
    def test_bridge_whose_pair_is_consumed_meanwhile_is_discarded(self, make_stack, seed):
        # the one buffered pair is consumed while the slow bridge heralds
        sim, stack = make_stack(_handover_topology(bridge_q_attempt=0.001), seed=seed)
        drive(sim, stack.register("QUE1", "QBS1"))
        res = drive(sim, stack.entanglement_session(
            _request(peer="QBS1", count=1, max_latency_s=0.5)))
        (pair_id,) = res.delivered

        def consumer():
            taken, _ = yield from stack.acquire_pairs(
                "QUE1", "QBS1", count=1, min_fidelity=0.8, max_latency_s=0.5)
            stack.consume_pair(taken[0], "test")

        sim.spawn(consumer(), delay=1e-3)
        ho = drive(sim, stack.handover("QUE1", "QBS2", HandoverMode.SOFT))
        (bridge,) = [r["details"]["id"] for r in sim.trace if r["kind"] == "pair-created"
                     and r["details"]["via"] == "bridge"]
        assert stack.ledger.state[pair_id] == "consumed"
        assert stack.ledger.reason[bridge] == "segment-unused"
        assert ho.mode_used == HandoverMode.SOFT and ho.migrated == ()
        assert stack.ue("QUE1").serving_bs == "QBS2"

    # 97 is the fixture's own seed, the one `oneq run` uses
    @pytest.mark.parametrize("seed", [*range(6), 97])
    def test_handover_fixture_migrates_over_bridges(self, seed):
        # metro_with_satellite with a QBS1 buffer at QUE2 and the handover
        # at 0.415 s, while that buffer is still above f_min
        records = _fixture_records(0.415, seed)
        assert sum(r["kind"] == "pair-created" and r["details"]["via"] == "bridge"
                   for r in records) == 2
        (handover,) = [r["details"] for r in records if r["kind"] == "handover"]
        assert handover["mode"] == "soft" and handover["migrated"] == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_stale_buffer_is_discarded_and_not_bridged(self, seed):
        # at 0.45 s the QBS1 pairs QUE2 holds have decayed below f_min 0.8
        records = _fixture_records(0.45, seed)
        (handover,) = [r for r in records if r["kind"] == "handover"]
        ends = tracecheck.ends(records)
        buffered = [r["details"]["id"] for r in records if r["kind"] == "pair-created"
                    and set(r["details"]["holders"].split("+")) == {"QUE2", "QBS1"}
                    and r["t"] < 0.45 < ends[r["details"]["id"]]["t"]]
        assert len(buffered) == 2
        for pair_id in buffered:
            end = ends[pair_id]
            assert end["kind"] == "pair-discarded"
            assert end["details"]["reason"] == "below-threshold"
            assert 0.45 <= end["t"] <= handover["t"]
        assert not any(r["kind"] == "pair-created" and r["details"]["via"] == "bridge"
                       for r in records)
        assert handover["details"]["migrated"] == 0

    def test_bridged_pair_below_the_floor_is_not_handed_over(self):
        # at 0.42 s, seed 19, both buffered pairs pass the screen, but each
        # bridged pair is F 0.799 once swapped
        records = _fixture_records(0.42, 19)
        (handover,) = [r for r in records if r["kind"] == "handover"]
        bridges = {r["details"]["id"] for r in records if r["kind"] == "pair-created"
                   and r["details"]["via"] == "bridge"}
        outs = [r["details"]["out"] for r in records if r["kind"] == "swap"
                and bridges & set(r["details"]["ins"].split("+"))]
        assert len(outs) == 2
        ends = tracecheck.ends(records)
        dropped = [o for o in outs if ends[o]["kind"] == "pair-discarded"
                   and ends[o]["details"]["reason"] == "below-threshold"]
        assert dropped
        # screened when its correction arrives, before the handover ends
        assert all(ends[o]["t"] <= handover["t"] for o in dropped)
        assert handover["details"]["migrated"] == len(outs) - len(dropped)

    @pytest.mark.parametrize("at_s", [0.415, 0.45])
    @pytest.mark.parametrize("seed", [*range(12), 97])
    def test_provisioner_follows_the_serving_cell(self, at_s, seed):
        # the (QBS1, QUE2) provisioner waits once QBS2 serves QUE2
        records = _fixture_records(at_s, seed)
        (handover,) = [r for r in records if r["kind"] == "handover"]
        assert handover["details"]["to"] == "QBS2"
        assert not [r for r in records if r["kind"] == "session-start"
                    and r["node"] == "QUE2" and r["details"]["target"] == "QBS1"
                    and r["t"] >= handover["t"]]

    def test_swapped_pair_is_screened_before_the_ue_holds_it(self, make_stack):
        # F 0.8125 passes the 0.8 floor, but swapped onto the w0 0.94 bridge
        # it is F 0.779
        sim, stack = make_stack(_handover_topology())
        drive(sim, stack.register("QUE1", "QBS1"))
        pair = _register_pair(stack, "QUE1", "QBS1", 0.75)
        stack._hand_over(pair)
        ho = drive(sim, stack.handover("QUE1", "QBS2", HandoverMode.SOFT))
        (swap,) = [r["details"] for r in sim.trace if r["kind"] == "swap"]
        assert fidelity_of(swap["w_out"]) < 0.8
        assert stack.ledger.reason[swap["out"]] == "below-threshold"
        assert ho.mode_used == HandoverMode.SOFT and ho.migrated == ()
        assert stack.ue("QUE1").stored == set()
        assert stack.ue("QUE1").state == QueState.CONNECTED

    @pytest.mark.parametrize("seed", range(3))
    def test_soft_fallback_part_way_moves_each_pair_once(self, make_stack, seed):
        # the first bridge heralds; the second finds the budget spent, so
        # the handover falls back hard for the one pair still buffered
        sim, stack = make_stack(_handover_topology(), seed=seed)
        drive(sim, stack.register("QUE1", "QBS1"))
        res = drive(sim, stack.entanglement_session(
            _request(peer="QBS1", count=2, max_latency_s=0.5)))
        assert res.outcome == SessionOutcome.FULFILLED
        bridge, calls = stack._bridge, []

        def first_bridge_only(bs_old, bs_new, link, deadline):
            calls.append(sim.now)
            return (yield from bridge(bs_old, bs_new, link,
                                      deadline if len(calls) == 1 else sim.now))

        stack._bridge = first_bridge_only
        n_records = len(sim.trace)
        ho = drive(sim, stack.handover("QUE1", "QBS2", HandoverMode.SOFT))
        records = list(sim.trace)[n_records:]
        assert len(calls) == 2
        assert ho.mode_used == HandoverMode.HARD and ho.fell_back is True
        assert len(ho.migrated) == len(set(ho.migrated)) == 2
        for pid in ho.migrated:
            assert set(stack.ledger.live(pid).holders) == {"QUE1", "QBS2"}
        assert stack.ue("QUE1").stored == set(ho.migrated)
        # the top-up session asks only for the pair that was released
        (start,) = [r for r in records if r["kind"] == "session-start"]
        assert start["details"] == {"target": "QBS2", "count": 1, "chain": "QUE1+QBS2"}
        assert ho.session.delivered == ho.migrated[1:]
        # the UE holds the migrated pair throughout, so it stays Entangled
        assert not any(r["kind"] == "state-transition" for r in records)
        assert stack.ue("QUE1").state == QueState.ENTANGLED

    @pytest.mark.parametrize("reason", [
        "not-attached", "already-served", "outside-classical-coverage"])
    def test_handover_that_cannot_start_is_rejected(self, make_stack, reason):
        # QUE1 sits in both cells of the handover topology, and outside
        # QBS2's cell in the two-cell one
        far = reason == "outside-classical-coverage"
        sim, stack = make_stack(two_cell_topology() if far else _handover_topology())
        if reason != "not-attached":
            assert drive(sim, stack.register("QUE1", "QBS1"))
        bs_new = "QBS1" if reason == "already-served" else "QBS2"
        n_records = len(sim.trace)
        ho = drive(sim, stack.handover("QUE1", bs_new, HandoverMode.SOFT))
        assert ho is None
        bs_old = None if reason == "not-attached" else "QBS1"
        assert [(r["kind"], r["details"]) for r in list(sim.trace)[n_records:]] == [
            ("handover-rejected", {"frm": bs_old, "to": bs_new, "reason": reason})]
        assert sim.metrics.counters["handover_rejected"] == 1.0
        assert stack.ue("QUE1").serving_bs == bs_old

    def test_rejected_handover_op_does_not_stop_the_run(self):
        # QBS1 already serves QUE1; the run goes on to its duration
        doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
        doc["ops"][0].update(ue="QUE1", to="QBS1")
        art = run_scenario(load_scenario(doc, strict=True)[0])
        records = [json.loads(line) for line in art.trace_jsonl.splitlines()]
        (rejected,) = [r for r in records if r["kind"] == "handover-rejected"]
        assert rejected["details"]["reason"] == "already-served"
        assert not any(r["kind"] == "handover" for r in records)
        assert art.summary["t_end"] == pytest.approx(doc["duration_s"])
        assert {row[2]: row[3] for row in art.metrics_rows}["handover_rejected"] == 1.0

    def test_soft_falls_back_without_bridge(self, make_stack):
        topo = _handover_topology()
        topo.repeater_edges.clear()
        sim, stack = make_stack(topo)
        drive(sim, stack.register("QUE1", "QBS1"))
        res = drive(sim, stack.handover("QUE1", "QBS2", HandoverMode.SOFT))
        assert res.fell_back is True
        assert res.mode_used == HandoverMode.HARD
        assert any(r["details"].get("msg") ==
                   "soft-handover-infeasible-falling-back-hard"
                   for r in sim.trace if r["kind"] == "warn")


class TestGhz:
    def test_ghz_session_delivers_one_resource(self, make_stack):
        sim, stack = make_stack(one_cell_topology(n_ues=3, q_attempt=0.8,
                                                  t_coh_s=1e9))
        for ue in ("QUE1", "QUE2", "QUE3"):
            drive(sim, stack.register(ue, "QBS1"))
        ghz_id = drive(sim, stack.ghz_session(
            "QBS1", ("QUE1", "QUE2", "QUE3"), max_latency_s=1.0))
        assert ghz_id is not None
        ghz = stack.ledger.live(ghz_id)
        assert set(ghz.holders) == {"QUE1", "QUE2", "QUE3"}
        assert ghz.w == pytest.approx(0.97 ** 3)
        assert all(stack.ue(ue).state == QueState.ENTANGLED
                   for ue in ("QUE1", "QUE2", "QUE3"))

    def test_ghz_needs_two_parties(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        with pytest.raises(ProtocolError):
            drive(sim, stack.ghz_session("QBS1", ("QUE1",), max_latency_s=1.0))

    def test_reach_is_judged_when_the_shot_lands(self, make_stack):
        # QUE1 leaves the 1500 m quantum disk half-way through the first slot
        from oneq.netmodel import CellSpec, Mobility, NodeSpec, QuantumLinkSpec, Topology
        walk = Mobility(kind="waypoint", waypoints=((0.0, (100.0, 0.0, 0.0)),
                                                    (1e-4, (1800.0, 0.0, 0.0))))
        topo = Topology(
            nodes=[NodeSpec(id="QBS1", kind="QBS", position=(0.0, 0.0, 10.0),
                            memory_slots=4),
                   NodeSpec(id="QUE1", kind="QUE", position=(100.0, 0.0, 0.0),
                            memory_slots=4, mobility=walk),
                   NodeSpec(id="QUE2", kind="QUE", position=(0.0, 100.0, 0.0),
                            memory_slots=4)],
            cells=[CellSpec(bs_id="QBS1", classical_radius=2000.0, quantum_radius=1500.0)],
            quantum_links=[QuantumLinkSpec(a="QBS1", b=ue, q_attempt=1.0,
                                           attempt_period_s=2e-4, w0=0.97)
                           for ue in ("QUE1", "QUE2")])
        sim, stack = make_stack(topo)
        assert drive(sim, stack.ghz_session("QBS1", ("QUE1", "QUE2"),
                                            max_latency_s=1.0)) is None
        assert sim.now == pytest.approx(2e-4)
        (lost,) = [r for r in sim.trace if r["kind"] == "ghz-coverage-lost"]
        assert lost["t"] == pytest.approx(2e-4) and "QUE1" in lost["details"]["detail"]
        assert stack.ledger.live_ids() == []


def _deadline_session(stack, budget):
    for ue, bs in (("QUE1", "QBS1"), ("QUE2", "QBS2")):
        _attach(stack, ue, bs)
    return stack.entanglement_session(_request(count=1, max_latency_s=budget))


def _deadline_ghz(stack, budget):
    return stack.ghz_session("QBS1", ("QUE1", "QUE2"), max_latency_s=budget)


def _deadline_bridge(stack, budget):
    link = stack.topo.quantum_link("QBS1", "QBS2")
    return stack._bridge("QBS1", "QBS2", link, stack.sim.now + budget)


class TestAttemptDeadline:
    """Every attempt loop makes its last draw before its deadline."""

    PERIOD, BUDGET = 0.3, 1.0  # the budget is not a multiple of the period

    @pytest.mark.parametrize("topology, process", [
        (two_cell_topology, _deadline_session),
        (one_cell_topology, _deadline_ghz),
        (two_cell_topology, _deadline_bridge),
    ], ids=["session", "ghz", "bridge"])
    def test_no_herald_at_or_after_the_deadline(self, make_stack, topology, process):
        sim, stack = make_stack(topology(q_attempt=0.0, attempt_period_s=self.PERIOD))
        herald, draws = stack._herald, []

        def spy(*args):
            draws.append(sim.now)
            return herald(*args)

        stack._herald = spy
        deadline = sim.now + self.BUDGET
        drive(sim, process(stack, self.BUDGET))
        assert draws and max(draws) < deadline
        assert max(draws) > deadline - self.PERIOD  # the slots ran up to the deadline

    def test_last_slot_of_a_session_that_never_heralds_ends_at_the_deadline(self, make_stack):
        sim, stack = make_stack(two_cell_topology(q_attempt=0.0, attempt_period_s=self.PERIOD))
        loop, loop_ends = stack._attempt_loop, []

        def spy(*args):
            result = yield from loop(*args)
            loop_ends.append(sim.now)
            return result

        stack._attempt_loop = spy
        deadline = sim.now + self.BUDGET
        res = drive(sim, _deadline_session(stack, self.BUDGET))
        # the set-up messages take microseconds, so three full slots fit
        # before the deadline and a fourth, shortened one ends on it
        assert res.outcome == SessionOutcome.EXPIRED and res.attempts == 3
        assert loop_ends == [pytest.approx(deadline, abs=1e-12)]
        link = stack.topo.classical_link("QUE1", "QBS1")
        ack_s = stack.bits("ack") / link.rate_bps + link.prop_delay_s
        (end,) = [r for r in sim.trace if r["kind"] == "session-end"]
        assert end["t"] == pytest.approx(deadline + ack_s, abs=1e-12)


class TestAcquireAndPolicy:
    def test_acquire_uses_buffer_before_sessions(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9, t_coh_s=1e9))
        drive(sim, stack.register("QUE1", "QBS1"))
        ids1, session1 = drive(sim, stack.acquire_pairs(
            "QUE1", "QBS1", count=2, min_fidelity=0.8, max_latency_s=1.0))
        assert len(ids1) == 2 and session1 is not None
        # hand back nothing; the two pairs are still buffered, so a second
        # acquire must not open a new session
        ids2, session2 = drive(sim, stack.acquire_pairs(
            "QUE1", "QBS1", count=2, min_fidelity=0.8, max_latency_s=1.0))
        assert sorted(ids2) == sorted(ids1)
        assert session2 is None

    def test_proactive_policy_fills_buffer(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9, t_coh_s=1e9))
        stack.start_policy(PolicySpec(PolicyMode.PROACTIVE, targets=(("QBS1", "QUE1"),),
                                      buffer_target=2, check_period_s=0.05))
        sim.run_until(1.0)
        stored = stack.ue("QUE1").stored
        assert len(stored) >= 2
        assert all(set(stack.ledger.live(r).holders) == {"QUE1", "QBS1"}
                   for r in stored)
        assert any(r["kind"] == "provision" for r in sim.trace)

    def test_provisioner_and_acquire_share_the_fidelity_tolerance(self, make_stack):
        # a pair 5e-13 under the floor meets it within the 1e-12 tolerance;
        # memories that never decay keep its fidelity exactly where it is
        sim, stack = make_stack(one_cell_topology(t_coh_s=1e300))
        drive(sim, stack.register("QUE1", "QBS1"))
        pair = _register_pair(stack, "QUE1", "QBS1", oracles.w_for_fidelity(0.8 - 5e-13))
        assert 0.8 - 1e-12 <= fidelity_of(pair.w) < 0.8
        stack._hand_over(pair)
        stack.start_policy(PolicySpec(PolicyMode.PROACTIVE, targets=(("QBS1", "QUE1"),),
                                      buffer_target=1, check_period_s=0.05,
                                      min_fidelity=0.8))
        sim.run_until(sim.now + 0.2)
        assert stack.ledger.state[pair.id] == "live"
        assert not any(r["kind"] == "pair-discarded" for r in sim.trace)
        taken, session = drive(sim, stack.acquire_pairs(
            "QUE1", "QBS1", count=1, min_fidelity=0.8, max_latency_s=1.0))
        assert taken == [pair.id] and session is None

    def test_provisioner_starts_its_session_at_the_pass_start(self):
        # SAT1's pass k starts at 0.3 + 1.2 k; the provisioner sleeps until
        # the predicted start, and the satellite must be in view when it wakes
        doc = json.loads((REPO / "scenarios" / "metro_with_satellite.json")
                         .read_text(encoding="utf-8"))
        art = run_scenario(load_scenario(doc)[0], until=4.6)
        records = [json.loads(line) for line in art.trace_jsonl.splitlines()]
        wait = next(r for r in records if r["kind"] == "provision-wait-pass"
                    and r["details"]["pass_start"] == pytest.approx(3.9))
        first = next(r for r in records if r["kind"] == "session-start"
                     and r["details"]["target"] == "SAT1" and r["t"] >= wait["t"])
        # not one check period (0.05 s) late
        assert first["t"] == wait["details"]["pass_start"] == pytest.approx(3.9, abs=1e-9)

    def test_acquire_screens_only_the_pairs_it_hands_out(self, make_stack):
        # a stale pair behind the one taken is neither aged nor discarded
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9))
        drive(sim, stack.register("QUE1", "QBS1"))
        fresh = _register_pair(stack, "QUE1", "QBS1", 0.97)
        stale = _register_pair(stack, "QUE1", "QBS1", oracles.w_for_fidelity(0.7))
        stack._hand_over(fresh)
        stack._hand_over(stale)
        sim.run_until(sim.now + 0.01)
        taken, session = drive(sim, stack.acquire_pairs(
            "QUE1", "QBS1", count=1, min_fidelity=0.8, max_latency_s=1.0))
        assert taken == [fresh.id] and session is None
        assert fresh.last_touched == sim.now > stale.last_touched
        assert stack.ledger.state[stale.id] == "live"

    def test_acquire_discards_a_stale_buffer_and_tops_up(self, make_stack):
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9, t_coh_s=1e9))
        drive(sim, stack.register("QUE1", "QBS1"))
        stale = _register_pair(stack, "QUE1", "QBS1", oracles.w_for_fidelity(0.7))
        stack._hand_over(stale)
        taken, session = drive(sim, stack.acquire_pairs(
            "QUE1", "QBS1", count=1, min_fidelity=0.8, max_latency_s=1.0))
        assert stack.ledger.state[stale.id] == "discarded"
        assert stack.ledger.reason[stale.id] == "below-threshold"
        assert session is not None and taken == list(session.delivered) != []

    @pytest.mark.parametrize("seed", range(4))
    def test_provisioned_client_is_not_starved_by_its_stale_buffer(self, seed):
        # the provisioner keeps three QBS1 pairs at QUE4; with the 0.1 s
        # memories they age below the shot's floor between refreshes, and a
        # shot must then replace them instead of finding too few usable
        doc = json.loads((REPO / "scenarios" / "metro_with_satellite.json")
                         .read_text(encoding="utf-8"))
        doc["policy"]["targets"].append(["QBS1", "QUE4"])
        doc["policy"]["buffer_target"] = 3
        art = run_scenario(load_scenario(doc, strict=True)[0], seed=seed)
        metrics = {row[2]: row[3] for row in art.metrics_rows}
        assert art.summary["apps"]["blind0"]["outcome"] == "done"
        assert metrics["app.blind0.shots"] == 40.0

    def test_acquire_tops_up_a_partial_buffer(self, make_stack):
        # one fresh pair in the buffer, two asked for: the UE stays Entangled
        # and a session provisions the second
        sim, stack = make_stack(one_cell_topology(q_attempt=0.9, t_coh_s=1e9))
        drive(sim, stack.register("QUE1", "QBS1"))
        fresh = _register_pair(stack, "QUE1", "QBS1", 0.97)
        stack._hand_over(fresh)
        taken, session = drive(sim, stack.acquire_pairs(
            "QUE1", "QBS1", count=2, min_fidelity=0.8, max_latency_s=1.0))
        assert session is not None and session.outcome == SessionOutcome.FULFILLED
        assert taken == [fresh.id, *session.delivered] and len(taken) == 2
        assert stack.ue("QUE1").state == QueState.ENTANGLED
        assert stack.ue("QUE1").stored == set(taken)

    @pytest.mark.parametrize("seed", range(4))
    def test_provisioned_client_with_a_partial_buffer_is_topped_up(self, seed):
        # the provisioner keeps two QBS1 pairs at QUE4, fewer than a shot's
        # three; each shot takes the buffer and a session adds the rest
        doc = json.loads((REPO / "scenarios" / "metro_with_satellite.json")
                         .read_text(encoding="utf-8"))
        doc["policy"]["targets"].append(["QBS1", "QUE4"])
        doc["policy"]["buffer_target"] = 2
        art = run_scenario(load_scenario(doc, strict=True)[0], seed=seed)
        metrics = {row[2]: row[3] for row in art.metrics_rows}
        assert art.summary["apps"]["blind0"]["outcome"] == "done"
        assert metrics["app.blind0.shots"] == 40.0

    def test_reactive_policy_is_inert(self, make_stack):
        sim, stack = make_stack(one_cell_topology())
        stack.start_policy(PolicySpec(PolicyMode.REACTIVE))
        sim.run_until(0.5)
        assert stack.ue("QUE1").stored == set()
        assert stack.ue("QUE1").state == QueState.IDLE


def _bs_line(n, p_err_c=0.3, orbit=(), ues=(), q_attempt=None):
    """n stations QBS0..QBS<n-1> in a line, hop i with its own rate and delay.

    Stations whose index is in orbit are always-visible satellites; each
    entry (ue, i) of ues puts a QUE in the cell of station i.  With
    q_attempt set, each hop also gets a quantum link at that q_attempt and
    a repeater edge, and each UE a quantum link at q_attempt 1.
    """
    from oneq.netmodel import (
        CellSpec, ClassicalLinkSpec, Mobility, NodeSpec, QuantumLinkSpec, Topology,
    )
    always = Mobility(kind="orbit", pass_start=0.0, pass_duration=1.0, period=1.0)
    nodes, cells, clinks, qlinks = [], [], [], []

    def qlink(a, b, q):
        if q_attempt is not None:
            qlinks.append(QuantumLinkSpec(a=a, b=b, q_attempt=q, attempt_period_s=1e-4,
                                          w0=0.99))
    for i in range(n):
        nodes.append(NodeSpec(
            id=f"QBS{i}", kind="SAT_QBS" if i in orbit else "QBS",
            position=(3000.0 * i, 0.0, 10.0), memory_slots=4,
            mobility=always if i in orbit else Mobility()))
        cells.append(CellSpec(bs_id=f"QBS{i}", classical_radius=2000.0,
                              quantum_radius=1500.0))
        if i + 1 < n:
            p = p_err_c[i] if isinstance(p_err_c, (list, tuple)) else p_err_c
            clinks.append(ClassicalLinkSpec(
                a=f"QBS{i}", b=f"QBS{i + 1}", rate_bps=1e6 * (i + 1),
                prop_delay_s=1e-5 * (i + 2), p_err_c=p))
            qlink(f"QBS{i}", f"QBS{i + 1}", q_attempt)
    edges = [(link.a, link.b) for link in qlinks]
    for ue, i in ues:
        nodes.append(NodeSpec(id=ue, kind="QUE", position=(3000.0 * i + 300.0, 0.0, 0.0),
                              memory_slots=4))
        clinks.append(ClassicalLinkSpec(a=f"QBS{i}", b=ue, rate_bps=1e8,
                                        prop_delay_s=1e-5, p_err_c=0.0))
        qlink(f"QBS{i}", ue, 1.0)
    return Topology(nodes=nodes, cells=cells, classical_links=clinks,
                    quantum_links=qlinks, repeater_edges=edges)


def _attach(stack, ue, bs):
    """Serve ue from bs without the registration exchange and its draws."""
    ctx = stack.ue(ue)
    ctx.serving_bs = bs
    stack._set_state(ctx, QueState.CONNECTED, "attached")


def _replay_route(topo, seed, route, bits, retry_cap, t0=0.0):
    """Per-hop reference: each transmission stepped on its own, from time t0.

    Returns (delivered, tx, failed_at, reason, t): t is the time of delivery
    or failure, failed_at the source of the hop that failed and reason why.
    """
    from oneq.engine import Simulator
    sim = Simulator(seed=seed)
    t, tx = t0, 0
    for a, b in zip(route, route[1:]):
        link = topo.classical_link(a, b)
        if link is None:
            return False, tx, a, "no-link", t
        rng = sim.rng_stream(a, "classical")
        for _ in range(retry_cap):
            if not topo.classical_reachable(a, b, t):
                return False, tx, a, "no-coverage", t
            tx += 1
            t += bits / link.rate_bps + link.prop_delay_s
            if rng.random() >= link.p_err_c:
                break
        else:
            return False, tx, a, "retries", t
    return True, tx, None, None, t


def _route_case(case):
    """(topology, route) for one shape of route, every backbone hop lossy."""
    from oneq.netmodel import Mobility
    stations = [f"QBS{i}" for i in range(5)]
    if case == "backbone":
        return _bs_line(5, p_err_c=0.45), stations
    if case == "ue-hops":
        topo = _bs_line(5, p_err_c=0.45, ues=(("QUEA", 0), ("QUEB", 4)))
        return topo, ["QUEA"] + stations + ["QUEB"]
    if case == "orbit":
        # QBS2's pass ends at 2e-4 s, while a message may still need it
        topo = _bs_line(5, p_err_c=0.45, orbit=(2,))
        topo.nodes["QBS2"].mobility = Mobility(kind="orbit", pass_start=0.0,
                                               pass_duration=2e-4, period=1.0)
        return topo, stations
    if case == "ue-leaves":
        # QUEB crosses QBS4's 2 km edge at t = 4.25e-4 s
        topo = _bs_line(5, p_err_c=0.45, ues=(("QUEA", 0), ("QUEB", 4)))
        topo.nodes["QUEB"].mobility = Mobility(kind="waypoint", waypoints=(
            (0.0, (12300.0, 0.0, 0.0)), (1e-3, (16300.0, 0.0, 0.0))))
        return topo, ["QUEA"] + stations + ["QUEB"]
    # a gap: no QBS2-QBS4 link, so a message that gets that far fails there
    return _bs_line(5, p_err_c=0.45), ["QBS0", "QBS1", "QBS2", "QBS4"]


class TestRoutedMessage:
    """A message crosses its whole route in one event and writes one record."""

    HOPS = ["QBS0", "QBS1", "QBS2", "QBS3", "QBS4"]
    REASONS_SEEN = {
        "backbone": {None, "retries"},
        "ue-hops": {None, "retries"},
        "orbit": {None, "retries", "no-coverage"},
        "ue-leaves": {None, "retries", "no-coverage"},
        "gap": {"retries", "no-link"},
    }

    def _routed(self, make_stack, topo, seed, src, dst, retry_cap=3):
        sim, stack = make_stack(topo, seed=seed, defaults=Defaults(
            inactivity_timeout_s=1e9, retry_cap=retry_cap))
        ok = drive(sim, stack.send_routed(src, dst, "correction"))
        return sim, ok

    def test_unattached_end_has_no_route(self, make_stack):
        # no station serves QUE2, so nothing anchors a route to it
        sim, ok = self._routed(make_stack, one_cell_topology(), 0, "QUE1", "QUE2")
        assert ok is False
        assert list(sim.trace) == [{"t": 0.0, "node": "QUE1", "kind": "msg-no-route",
                                    "details": {"dst": "QUE2", "msg": "correction"}}]

    @pytest.mark.parametrize("case", ["backbone", "ue-hops", "orbit", "ue-leaves", "gap"])
    def test_one_record_matches_per_hop_reference(self, make_stack, case):
        reasons = set()
        for seed in range(40):
            topo, route = _route_case(case)
            sim, stack = make_stack(topo, seed=seed, defaults=Defaults(
                inactivity_timeout_s=1e9, retry_cap=2))
            ok = drive(sim, stack.send_message(route, "correction"))
            delivered, tx, failed_at, reason, t_ref = _replay_route(
                topo, seed, route, 64.0, retry_cap=2)
            (record,) = list(sim.trace)
            assert record["kind"] == "msg"
            assert record["node"] == route[0]
            details = record["details"]
            assert details["route"] == "+".join(route)
            assert details["msg"] == "correction"
            assert ok is details["delivered"] is delivered
            assert details["tx"] == tx
            assert details.get("failed_at") == failed_at
            assert details.get("reason") == reason
            assert abs(record["t"] - t_ref) <= 1e-12
            assert abs(sim.now - t_ref) <= 1e-12
            # the process start, and one delivery event once anything was sent
            assert sim.events_processed == (2 if tx else 1)
            reasons.add(reason)
        # None is a delivery; the gap route cannot deliver
        assert reasons == self.REASONS_SEEN[case]

    def test_failing_hop_fails_at_its_time(self, make_stack):
        topo = _bs_line(5, p_err_c=[0.0, 0.0, 1.0, 0.0])
        sim, ok = self._routed(make_stack, topo, 3, "QBS0", "QBS4", retry_cap=3)
        assert ok is False
        (record,) = list(sim.trace)
        assert record["details"]["failed_at"] == "QBS2"
        assert record["details"]["reason"] == "retries"
        assert record["details"]["tx"] == 1 + 1 + 3
        t_fail = (64.0 / 1e6 + 2e-5) + (64.0 / 2e6 + 3e-5) + 3 * (64.0 / 3e6 + 4e-5)
        assert abs(sim.now - t_fail) <= 1e-12

    def test_orbit_station_stays_in_one_record(self, make_stack):
        topo = _bs_line(6, p_err_c=0.0, orbit=(3,))
        sim, ok = self._routed(make_stack, topo, 0, "QBS0", "QBS5")
        assert ok is True
        (record,) = list(sim.trace)
        assert (record["kind"], record["node"]) == ("msg", "QBS0")
        assert record["details"]["route"] == "+".join(f"QBS{i}" for i in range(6))
        assert record["details"]["tx"] == 5

    def test_ue_hops_and_single_backbone_hop_are_one_record_each(self, make_stack):
        topo = _bs_line(5, p_err_c=0.0, ues=(("QUEA", 0), ("QUEB", 4)))
        sim, stack = make_stack(topo)
        assert drive(sim, stack.register("QUEA", "QBS0"))
        assert drive(sim, stack.register("QUEB", "QBS4"))
        n0 = len(sim.trace)
        assert drive(sim, stack.send_routed("QUEA", "QUEB", "basis"))
        assert [(r["kind"], r["node"], r["details"]["route"])
                for r in list(sim.trace)[n0:]] == [
            ("msg", "QUEA", "+".join(["QUEA"] + self.HOPS + ["QUEB"]))]
        n1 = len(sim.trace)
        assert drive(sim, stack.send_routed("QBS1", "QBS2", "basis"))
        assert [(r["kind"], r["details"]["route"]) for r in list(sim.trace)[n1:]] == [
            ("msg", "QBS1+QBS2")]


class TestSessionSetup:
    """The set-up request walks the station chain as one routed message."""

    HOPS = ["QBS0", "QBS1", "QBS2", "QBS3", "QBS4"]

    def _session(self, make_stack, topo, seed=0, retry_cap=3):
        sim, stack = make_stack(topo, seed=seed, defaults=Defaults(
            inactivity_timeout_s=1e9, retry_cap=retry_cap))
        _attach(stack, "QUEA", "QBS0")
        _attach(stack, "QUEB", "QBS4")
        res = drive(sim, stack.entanglement_session(_request(
            peer="QUEB", requester="QUEA", count=1, max_latency_s=0.5,
            min_fidelity=0.25)))
        setup = [r for r in sim.trace if r["details"].get("msg") == "request"]
        return sim, res, setup

    @staticmethod
    def _line(p_err_c):
        return _bs_line(5, p_err_c=p_err_c, ues=(("QUEA", 0), ("QUEB", 4)), q_attempt=1.0)

    def test_setup_crosses_the_backbone_in_one_record(self, make_stack):
        sim, res, setup = self._session(make_stack, self._line(0.0))
        assert res.outcome == SessionOutcome.FULFILLED
        assert [(r["kind"], r["node"]) for r in setup] == [
            ("msg", "QUEA"), ("msg", "QBS0")]
        assert setup[0]["details"]["route"] == "QUEA+QBS0"
        assert setup[1]["details"]["route"] == "+".join(self.HOPS)
        assert setup[1]["details"]["delivered"] is True

    def test_lost_setup_request_rejects_at_the_failing_hop(self, make_stack):
        sim, res, setup = self._session(make_stack, self._line([0.0, 0.0, 1.0, 0.0]))
        assert res.outcome == SessionOutcome.REJECTED
        assert res.reason == "setup-undeliverable"
        assert setup[1]["details"]["failed_at"] == "QBS2"
        assert setup[1]["details"]["reason"] == "retries"
        t_fail = (512.0 / 1e8 + 1e-5) + (512.0 / 1e6 + 2e-5) + (512.0 / 2e6 + 3e-5) \
            + 3 * (512.0 / 3e6 + 4e-5)
        (rejected,) = [r for r in sim.trace if r["kind"] == "session-rejected"]
        assert rejected["details"]["reason"] == "setup-undeliverable"
        assert abs(rejected["t"] - t_fail) <= 1e-12
        assert not any(r["kind"] == "pair-created" for r in sim.trace)

    def test_setup_matches_per_hop_reference(self, make_stack):
        outcomes = set()
        for seed in range(40):
            topo = self._line(0.45)
            sim, res, setup = self._session(make_stack, topo, seed=seed, retry_cap=2)
            first, route = setup[:2]
            delivered, tx, failed_at, reason, t_ref = _replay_route(
                topo, seed, self.HOPS, 512.0, retry_cap=2, t0=first["t"])
            assert first["kind"] == "msg" and first["details"]["delivered"] is True
            assert route["kind"] == "msg" and route["node"] == "QBS0"
            details = route["details"]
            assert details["delivered"] is delivered
            assert details["tx"] == tx
            assert details.get("failed_at") == failed_at
            assert details.get("reason") == reason
            assert abs(route["t"] - t_ref) <= 1e-12
            assert (res.reason == "setup-undeliverable") is not delivered
            outcomes.add(delivered)
        assert outcomes == {True, False}


def _bridge_topology(q_bridge, satellite=False):
    """QUE1 between QBS1 and a second station, bridge link at q_bridge.

    The second station is QBS2 at x=1500, or with satellite=True SAT1 overhead,
    visible 0-0.05 s of every second.
    """
    from oneq.netmodel import (
        CellSpec, ClassicalLinkSpec, Mobility, NodeSpec, QuantumLinkSpec, Topology,
    )
    if satellite:
        other = NodeSpec(id="SAT1", kind="SAT_QBS", position=(0.0, 0.0, 1000.0),
                         memory_slots=8, t_coh_s=10.0,
                         mobility=Mobility(kind="orbit", pass_start=0.0,
                                           pass_duration=0.05, period=1.0))
        cell = CellSpec(bs_id="SAT1", classical_radius=5000.0, quantum_radius=5000.0)
        ue_x = 300.0
    else:
        other = NodeSpec(id="QBS2", kind="QBS", position=(1500.0, 0.0, 10.0),
                         memory_slots=8, t_coh_s=10.0)
        cell = CellSpec(bs_id="QBS2", classical_radius=2000.0, quantum_radius=1500.0)
        ue_x = 750.0
    nodes = [NodeSpec(id="QBS1", kind="QBS", position=(0.0, 0.0, 10.0),
                      memory_slots=8, t_coh_s=10.0),
             other,
             NodeSpec(id="QUE1", kind="QUE", position=(ue_x, 0.0, 0.0),
                      memory_slots=8, t_coh_s=10.0)]
    clinks = [ClassicalLinkSpec(a=a, b=b, rate_bps=1e9, prop_delay_s=1e-6, p_err_c=0.0)
              for a, b in (("QBS1", "QUE1"), (other.id, "QUE1"), ("QBS1", other.id))]
    qlinks = [QuantumLinkSpec(a=a, b="QUE1", q_attempt=0.9, attempt_period_s=1e-4, w0=0.96)
              for a in ("QBS1", other.id)]
    qlinks.append(QuantumLinkSpec(a="QBS1", b=other.id, q_attempt=q_bridge,
                                  attempt_period_s=1e-3, w0=0.94))
    return Topology(nodes=nodes,
                    cells=[CellSpec(bs_id="QBS1", classical_radius=2000.0,
                                    quantum_radius=1500.0), cell],
                    classical_links=clinks, quantum_links=qlinks,
                    repeater_edges=[("QBS1", other.id)])


class TestBridgeBound:
    def _handover(self, make_stack, topo, bs_old, bs_new):
        sim, stack = make_stack(topo)
        assert drive(sim, stack.register("QUE1", bs_old))
        res = drive(sim, stack.entanglement_session(
            _request(peer=bs_old, count=1, max_latency_s=0.02)))
        (old_pair,) = res.delivered
        t0 = sim.now
        ho = drive(sim, stack.handover("QUE1", bs_new, HandoverMode.SOFT), until=30.0)
        warns = [r["details"] for r in sim.trace if r["kind"] == "warn"]
        return sim, stack, ho, old_pair, t0, warns

    def _assert_fell_back_hard(self, stack, ho, old_pair, bs_new):
        assert ho.mode_requested == HandoverMode.SOFT
        assert ho.mode_used == HandoverMode.HARD and ho.fell_back is True
        assert stack.ledger.state[old_pair] == "discarded"
        assert stack.ledger.reason[old_pair] == "handover-released"
        assert stack.ue("QUE1").serving_bs == bs_new
        assert ho.session is not None and ho.migrated == ho.session.delivered
        for pid in ho.migrated:
            assert set(stack.ledger.live(pid).holders) == {"QUE1", bs_new}

    def test_bridge_that_never_heralds_times_out(self, make_stack):
        sim, stack, ho, old_pair, t0, warns = self._handover(
            make_stack, _bridge_topology(q_bridge=0.0), "QBS1", "QBS2")
        self._assert_fell_back_hard(stack, ho, old_pair, "QBS2")
        assert [w["msg"] for w in warns] == ["soft-handover-bridge-failed-falling-back-hard"]
        assert warns[0]["pairs"] == 1
        assert "within 5.0 s" in warns[0]["detail"]
        # the last bridge slot ends by the 5 s budget, then the hard session runs
        assert 4.99 <= sim.now - t0 < 5.5

    def test_satellite_window_closing_mid_bridge_falls_back(self, make_stack):
        sim, stack, ho, old_pair, t0, warns = self._handover(
            make_stack, _bridge_topology(q_bridge=0.0, satellite=True), "SAT1", "QBS1")
        self._assert_fell_back_hard(stack, ho, old_pair, "QBS1")
        assert [w["msg"] for w in warns] == ["soft-handover-bridge-failed-falling-back-hard"]
        assert warns[0]["detail"].startswith("no quantum coverage between")
        assert sim.now < 1.0


class TestFidelityAdmission:
    """A session whose chain cannot reach min_fidelity is rejected at once."""

    W0_UE, F_REQ = 0.96, 0.85
    # the QBS1-QBS2 w0 at which the 3-link chain's best pair has F_REQ exactly
    W0_BS = (4 * F_REQ - 1) / 3 / W0_UE ** 2
    CHAIN = ("QUE1", "QBS1", "QBS2", "QUE2")

    def _session(self, make_stack, w0_bs):
        topo = two_cell_topology(w0_ue=self.W0_UE, w0_bs=w0_bs,
                                 t_coh_ue=1e9, t_coh_bs=1e9)
        sim, stack = make_stack(topo)
        assert drive(sim, stack.register("QUE1", "QBS1"))
        assert drive(sim, stack.register("QUE2", "QBS2"))
        streams = [sim.rng_stream(node, purpose) for node in self.CHAIN
                   for purpose in ("entanglement", "classical")]
        before = [rng.getstate() for rng in streams]
        n_records, t_start = len(sim.trace), sim.now
        res = drive(sim, stack.entanglement_session(_request(
            count=1, max_latency_s=0.5, min_fidelity=self.F_REQ)))
        after = [rng.getstate() for rng in streams]
        return sim, stack, res, list(sim.trace)[n_records:], t_start, before == after

    def test_just_above_the_threshold_is_served(self, make_stack):
        w0_bs = self.W0_BS * (1 + 1e-6)
        assert fidelity_of(self.W0_UE ** 2 * w0_bs) > self.F_REQ
        sim, stack, res, records, _, _ = self._session(make_stack, w0_bs)
        assert res.outcome == SessionOutcome.FULFILLED
        assert fidelity_of(stack.ledger.live(res.delivered[0]).w) >= self.F_REQ
        assert any(r["kind"] == "swap" for r in records)

    def test_just_below_the_threshold_is_rejected_without_a_draw(self, make_stack):
        w0_bs = self.W0_BS * (1 - 1e-6)
        assert fidelity_of(self.W0_UE ** 2 * w0_bs) + 1e-12 < self.F_REQ
        sim, stack, res, records, t_start, streams_unchanged = self._session(
            make_stack, w0_bs)
        assert res.outcome == SessionOutcome.REJECTED
        assert res.reason == "fidelity-unreachable"
        assert res.delivered == () and res.elapsed_s == 0.0
        assert sim.now == t_start
        assert [(r["kind"], r["details"]) for r in records] == [
            ("session-rejected", {"reason": "fidelity-unreachable"})]
        assert streams_unchanged
        assert stack.ledger.resources == {}

    def test_infeasible_provisioner_target_asks_once_per_check_period(self, make_stack):
        # one hop at w0 0.7 gives F 0.775 at best, under the 0.8 floor
        sim, stack = make_stack(one_cell_topology(w0=0.7))
        stack.start_policy(PolicySpec(PolicyMode.PROACTIVE, targets=(("QBS1", "QUE1"),),
                                      buffer_target=1, check_period_s=0.5,
                                      min_fidelity=0.8))
        sim.run_until(2.0)
        rejected = [r for r in sim.trace if r["kind"] == "session-rejected"]
        assert {r["details"]["reason"] for r in rejected} == {"fidelity-unreachable"}
        t_connected = next(r["t"] for r in sim.trace if r["kind"] == "state-transition"
                           and r["details"]["to"] == "Connected")
        assert 0.0 < t_connected < 0.01
        assert [r["t"] for r in rejected] == pytest.approx(
            [t_connected + 0.5 * k for k in range(4)], abs=1e-12)
        assert not any(r["kind"] in ("session-start", "pair-created") for r in sim.trace)
        assert ("QBS1", "entanglement") not in sim._streams

    def test_hard_handover_onto_an_unreachable_cell_migrates_nothing(self, make_stack):
        sim, stack = make_stack(_handover_topology(w0_new=0.7))
        drive(sim, stack.register("QUE1", "QBS1"))
        old = drive(sim, stack.entanglement_session(
            _request(peer="QBS1", count=1, max_latency_s=0.5)))
        assert old.outcome == SessionOutcome.FULFILLED

        def entanglement_states():
            return {key: rng.getstate() for key, rng in sim._streams.items()
                    if key[1] == "entanglement"}

        before = entanglement_states()
        attempt_loop, loops = stack._attempt_loop, []

        def spy(*args):
            loops.append(sim.now)
            return attempt_loop(*args)

        stack._attempt_loop = spy
        res = drive(sim, stack.handover("QUE1", "QBS2", HandoverMode.HARD))
        assert res.mode_used == HandoverMode.HARD
        assert res.migrated == ()
        assert res.session.outcome == SessionOutcome.REJECTED
        assert res.session.reason == "fidelity-unreachable"
        assert loops == []
        assert entanglement_states() == before
        assert stack.ue("QUE1").serving_bs == "QBS2"
        assert stack.ledger.state[old.delivered[0]] == "discarded"


def _chain_topology(w0s, q_attempts, t_cohs):
    """A UE-BS...BS-UE line with one quantum link per entry of w0s.

    One link is QUEA-QBS0; two are QUEA-QBS0-QUEB in one cell; more put a
    station per inner node, QUEB in the last cell.  Classical links are
    lossless; t_cohs gives each node of the chain its coherence time.
    """
    from oneq.netmodel import (
        CellSpec, ClassicalLinkSpec, NodeSpec, QuantumLinkSpec, Topology,
    )
    n_bs = max(len(w0s) - 1, 1)
    stations = [f"QBS{i}" for i in range(n_bs)]
    chain = ["QUEA"] + stations + (["QUEB"] if len(w0s) > 1 else [])
    nodes, cells = [], []
    for i, bs in enumerate(stations):
        nodes.append(NodeSpec(id=bs, kind="QBS", position=(3000.0 * i, 0.0, 10.0),
                              t_coh_s=t_cohs[chain.index(bs)], memory_slots=8))
        cells.append(CellSpec(bs_id=bs, classical_radius=2000.0, quantum_radius=1500.0))
    for ue, dx in (("QUEA", -300.0), ("QUEB", 300.0)):
        if ue in chain:
            x = 3000.0 * (0 if ue == "QUEA" else n_bs - 1) + dx
            nodes.append(NodeSpec(id=ue, kind="QUE", position=(x, 0.0, 0.0),
                                  t_coh_s=t_cohs[chain.index(ue)], memory_slots=4))
    hops = list(zip(chain, chain[1:]))
    clinks = [ClassicalLinkSpec(a=a, b=b, rate_bps=1e8, prop_delay_s=1e-5, p_err_c=0.0)
              for a, b in hops]
    qlinks = [QuantumLinkSpec(a=a, b=b, q_attempt=q, attempt_period_s=1e-4, w0=w0)
              for (a, b), q, w0 in zip(hops, q_attempts, w0s)]
    edges = [(a, b) for a, b in zip(stations, stations[1:])]
    topo = Topology(nodes=nodes, cells=cells, classical_links=clinks,
                    quantum_links=qlinks, repeater_edges=edges)
    return topo, chain


@st.composite
def _chains(draw):
    n = draw(st.integers(1, 4))
    w0s = draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))
    q_attempts = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    t_cohs = draw(st.lists(st.floats(1e-3, 10.0), min_size=n + 1, max_size=n + 1))
    # near the chain's best fidelity half the time, so both sides of the
    # admission threshold are drawn
    f_best = fidelity_of(math.prod(w0s))
    if draw(st.booleans()):
        min_fidelity = f_best + draw(st.floats(-1e-3, 1e-3))
    else:
        min_fidelity = draw(st.floats(0.25, 1.0))
    return dict(w0s=w0s, q_attempts=q_attempts, t_cohs=t_cohs,
                min_fidelity=min(max(min_fidelity, 0.25), 1.0),
                count=draw(st.integers(1, 3)),
                max_latency_s=draw(st.floats(1e-3, 2e-2)),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestChainProperties:
    """Random line chains: admission, the w bound it rests on, terminal states."""

    @settings(max_examples=150, deadline=None)
    @given(_chains())
    def test_admission_bound_and_terminal_states(self, case):
        topo, chain = _chain_topology(case["w0s"], case["q_attempts"], case["t_cohs"])
        sim = Simulator(seed=case["seed"])
        stack = Stack(sim, topo, QUIET)
        for ue in chain:
            if ue.startswith("QUE"):
                _attach(stack, ue, "QBS0" if ue == "QUEA" else chain[-2])
        res = drive(sim, stack.entanglement_session(_request(
            peer=chain[-1], requester="QUEA", count=case["count"],
            max_latency_s=case["max_latency_s"], min_fidelity=case["min_fidelity"])))
        stack.finalize()

        unreachable = (fidelity_of(math.prod(case["w0s"])) + 1e-12
                       < case["min_fidelity"])
        assert (res.outcome == SessionOutcome.REJECTED) == unreachable
        if unreachable:
            assert res.reason == "fidelity-unreachable"
            assert stack.ledger.resources == {}

        # every pair a herald or a swap makes stays under the product of the
        # w0 of the links it spans: the premise of the admission bound
        records = list(sim.trace)
        made = [(r["details"]["holders"].split("+"), r["details"]["w"])
                for r in records if r["kind"] == "pair-created"]
        made += [(stack.ledger.resources[r["details"]["out"]].holders, r["details"]["w_out"])
                 for r in records if r["kind"] == "swap"]
        for holders, w in made:
            i, j = sorted(chain.index(h) for h in holders)
            assert w <= math.prod(case["w0s"][i:j]) + 1e-9

        # exactly one terminal record per resource, matching the ledger
        assert tracecheck.violations(records) == []
        assert tracecheck.ends(records).keys() == stack.ledger.resources.keys()
        assert all(state in ("consumed", "discarded", "expired")
                   for state in stack.ledger.state.values())
        assert all(stack.ledger.slots_free(n.id) == n.memory_slots
                   for n in topo.nodes.values())


# k -> (w0s, q_attempts, t_cohs) of a k-segment chain: unequal q_attempt per
# leg, and coherence times of a few ms, so a segment held for a few 0.1 ms
# slots visibly decays before the swap
_WAITING_CHAINS = {
    3: ((0.97, 0.95, 0.96), (0.3, 0.6, 0.45), (4e-3, 2e-3, 3e-3, 5e-3)),
    4: ((0.98, 0.96, 0.97, 0.95), (0.5, 0.25, 0.7, 0.4), (3e-3, 6e-3, 2e-3, 4e-3, 5e-3)),
    5: ((0.99, 0.97, 0.96, 0.98, 0.95), (0.6, 0.35, 0.8, 0.5, 0.45),
        (5e-3, 3e-3, 4e-3, 2e-3, 6e-3, 3e-3)),
}


@functools.lru_cache(maxsize=None)
def _waiting_runs(k):
    """(attempts, swap w_out) of one count-1 session per seed 0-1999."""
    topo, chain = _chain_topology(*_WAITING_CHAINS[k])
    runs = []
    for seed in range(2000):
        sim = Simulator(seed=seed)
        stack = Stack(sim, topo, QUIET)
        _attach(stack, "QUEA", "QBS0")
        _attach(stack, "QUEB", chain[-2])
        res = drive(sim, stack.entanglement_session(_request(
            peer="QUEB", requester="QUEA", count=1, max_latency_s=10.0,
            min_fidelity=0.25)))
        (swap,) = [r["details"] for r in sim.trace if r["kind"] == "swap"]
        runs.append((res.attempts, swap["w_out"]))
    return runs


class TestWaitingTimeOracle:
    """A chain session's slot count and swapped w against the closed forms."""

    ALPHA = 1e-3

    @pytest.mark.parametrize("k", sorted(_WAITING_CHAINS))
    def test_slot_count_is_the_max_of_the_segment_geometrics(self, k):
        runs = _waiting_runs(k)
        pmf = oracles.chain_slot_pmf(list(_WAITING_CHAINS[k][1]))
        counts = [0] * len(pmf)
        for attempts, _ in runs:
            counts[min(attempts, len(pmf)) - 1] += 1
        # consecutive slot counts pooled until each bin expects at least 5
        bins = []
        for count, p in zip(counts, pmf):
            if not bins or bins[-1][1] >= 5:
                bins.append([0, 0.0])
            bins[-1][0] += count
            bins[-1][1] += len(runs) * p
        if bins[-1][1] < 5:
            count, expected = bins.pop()
            bins[-1][0] += count
            bins[-1][1] += expected
        observed, expected = zip(*bins)
        assert stats.chisquare(observed, expected).pvalue > self.ALPHA

    @pytest.mark.parametrize("k", sorted(_WAITING_CHAINS))
    def test_mean_swapped_w_matches_the_oracle(self, k):
        w0s, q_attempts, t_cohs = _WAITING_CHAINS[k]
        # each segment decays at the sum of its two holders' rates
        taus = [1.0 / (1.0 / a + 1.0 / b) for a, b in zip(t_cohs, t_cohs[1:])]
        want = oracles.chain_mean_w_out(list(w0s), list(q_attempts), 1e-4, taus)
        w = [w_out for _, w_out in _waiting_runs(k)]
        mean, se = statistics.fmean(w), statistics.stdev(w) / math.sqrt(len(w))
        assert abs(mean - want) < stats.norm.isf(self.ALPHA / 2) * se, \
            f"mean w_out {mean:.6f} +- {se:.6f}, oracle {want:.6f}"


_EXIT_OPS = ("create", "create", "ghz", "consume", "measure", "measure_ghz",
             "discard", "swap", "wait")
_PAIR_HOLDERS = (("QUE1", "QBS1"), ("QBS1", "QUE2"), ("QUE1", "QUE2"))


class TestResourceExitProperties:
    """Random lifecycles: every resource leaves through the one retire step."""

    @staticmethod
    def _check_invariants(stack, topo):
        for ctx in stack.ues.values():
            assert all(stack.ledger.state[rid] == "live" for rid in ctx.stored)
            if ctx.stored:
                assert ctx.state == QueState.ENTANGLED
        live = [stack.ledger.resources[rid] for rid in stack.ledger.live_ids()]
        for node in topo.nodes.values():
            held = sum(node.id in res.holders for res in live)
            assert 0 <= stack.ledger.slots_free(node.id) == node.memory_slots - held

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_EXIT_OPS), st.integers(0, 63)),
                    max_size=40))
    def test_every_resource_ends_once(self, steps):
        topo = one_cell_topology(memory_slots=3)
        sim = Simulator(seed=7)
        stack = Stack(sim, topo, QUIET)
        for ue in ("QUE1", "QUE2"):
            _attach(stack, ue, "QBS1")

        def live(kind):
            return [rid for rid in stack.ledger.live_ids()
                    if isinstance(stack.ledger.resources[rid], kind)]

        def hold(res):
            if stack.ledger.can_store(res.holders):
                stack.ledger.register(res)
                stack._hand_over(res)
            else:
                with pytest.raises(ResourceError):
                    stack.ledger.register(res)

        for op, k in steps:
            pairs, ghzs = live(WernerPair), live(GhzResource)
            both = pairs + ghzs
            if op == "create":
                hold(WernerPair(id=stack.ledger.new_id(), w=0.95,
                                holders=_PAIR_HOLDERS[k % 3],
                                created_at=sim.now, last_touched=sim.now))
            elif op == "ghz":
                hold(GhzResource(id=stack.ledger.new_id(), w=0.9,
                                 holders=("QBS1", "QUE1", "QUE2"), created_at=sim.now))
            elif op == "consume" and both:
                rid = both[k % len(both)]
                assert stack.consume_pair(rid, "test").id == rid
            elif op == "measure" and pairs:
                assert set(stack.measure_stored_pair(pairs[k % len(pairs)],
                                                     Z_BASIS, Z_BASIS)) <= {0, 1}
            elif op == "measure_ghz" and ghzs:
                rid = ghzs[k % len(ghzs)]
                with pytest.raises(ResourceError):
                    stack.measure_stored_pair(rid, Z_BASIS, Z_BASIS)
                assert stack.ledger.state[rid] == "live"
            elif op == "discard" and both:
                stack.discard_pair(both[k % len(both)], "test")
            elif op == "swap":
                ab = [r for r in pairs if stack.ledger.resources[r].holders[1] == "QBS1"]
                bc = [r for r in pairs if stack.ledger.resources[r].holders[0] == "QBS1"]
                if ab and bc:
                    out = stack.entanglement_swap(ab[k % len(ab)], bc[k % len(bc)], "QBS1")
                    stack.mark_correction_delivered(out)
                    stack._hand_over(out)
            elif op == "wait":
                sim.run_until(sim.now + k * 1e-3)
            self._check_invariants(stack, topo)

        stack.finalize()
        self._check_invariants(stack, topo)
        ended = sum(sim.metrics.counters.get(f"pairs_{terminal}", 0.0)
                    for terminal in ("consumed", "discarded", "expired"))
        assert ended == len(stack.ledger.state)
        assert set(stack.ledger.state.values()) <= {"consumed", "discarded", "expired"}
        assert all(ctx.stored == set() for ctx in stack.ues.values())


class TestRunTables:
    """The hop, holder and plan tables belong to one run and follow the stations."""

    def test_stacks_on_one_topology_share_no_entry(self, make_stack):
        topo = two_cell_topology()  # one topology, as a sweep's runs share it
        stacks = []
        for seed in (1, 2):
            sim, stack = make_stack(topo, seed=seed)
            for ue, bs in (("QUE1", "QBS1"), ("QUE2", "QBS2")):
                _attach(stack, ue, bs)
            res = drive(sim, stack.entanglement_session(_request(count=1)))
            assert res.outcome == SessionOutcome.FULFILLED
            stacks.append(stack)
            if seed == 1:
                first = [(ctx.last_activity, set(ctx.stored), ctx.state)
                         for ctx in stack.ues.values()]
        a, b = stacks
        # the second run left the first run's UEs as they were
        assert first == [(ctx.last_activity, set(ctx.stored), ctx.state)
                         for ctx in a.ues.values()]
        for stack in stacks:
            held = [ctx for hop in stack._hops.values() if hop for ctx in hop.ends]
            held += [ctx for entry in stack._holders.values() for ctx in entry.ues]
            assert held and all(stack.ues[ctx.node_id] is ctx for ctx in held)
            assert stack._plans
        for table in ("_hops", "_holders", "_plans"):
            ids_a = {id(entry) for entry in getattr(a, table).values()}
            ids_b = {id(entry) for entry in getattr(b, table).values()}
            assert not (ids_a & ids_b) - {id(None)}, table

    @pytest.mark.parametrize("mode", [HandoverMode.HARD, HandoverMode.SOFT])
    def test_next_session_after_a_handover_takes_the_fresh_chain(self, make_stack, mode):
        sim, stack = make_stack(_handover_topology())
        drive(sim, stack.register("QUE1", "QBS1"))
        for _ in range(2):
            res = drive(sim, stack.entanglement_session(
                _request(peer="QBS1", count=1, max_latency_s=0.5)))
            assert res.outcome == SessionOutcome.FULFILLED
        assert drive(sim, stack.handover("QUE1", "QBS2", mode)).mode_used == mode
        res = drive(sim, stack.entanglement_session(
            _request(peer="QBS1", count=1, max_latency_s=0.5)))
        assert res.outcome == SessionOutcome.FULFILLED
        fresh = stack._session_chain("QUE1", "QBS1")
        assert fresh == ["QUE1", "QBS2", "QBS1"]
        chains = [r["details"]["chain"] for r in sim.trace if r["kind"] == "session-start"]
        assert chains[:2] == ["QUE1+QBS1"] * 2 and chains[-1] == "+".join(fresh)

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_fixture_sessions_take_fresh_chains(self, monkeypatch, mode):
        doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
        doc["ops"][0]["mode"] = mode  # QUE2 moves from QBS1 to QBS2 at 0.415 s
        qkd = doc["apps"][2]  # QUE1 and QUE2 from 1.0 s; a copy runs before the handover
        doc["apps"].append({**qkd, "id": "qkd_early", "start_s": 0.1})
        plan, seen = Stack._plan, set()

        def spy(stack, requester, target, bs_a, target_ctx):
            got = plan(stack, requester, target, bs_a, target_ctx)
            fresh = stack._session_chain(requester, target)
            assert got.chain == (None if fresh is None else tuple(fresh))
            seen.add((requester, target, bs_a, target_ctx and target_ctx.serving_bs))
            return got

        monkeypatch.setattr(Stack, "_plan", spy)
        run_scenario(load_scenario(doc, strict=True)[0])
        # QUE2's buffer is topped up from QBS1 before the handover, and QKD
        # sessions reach QUE2 through QBS1 before it and through QBS2 after it
        assert ("QUE2", "QBS1", "QBS1", None) in seen
        assert {("QUE1", "QUE2", "QBS1", "QBS1"), ("QUE1", "QUE2", "QBS1", "QBS2")} <= seen

    def test_ue_ends_of_a_routed_message_take_their_hop_arrival_times(self, make_stack):
        topo, route = _route_case("ue-hops")  # lossless UE hops, lossy backbone
        first_hop = topo.classical_link("QUEA", "QBS0").latency(64.0)
        outcomes = set()
        for seed in range(20):
            sim, stack = make_stack(topo, seed=seed, defaults=Defaults(
                inactivity_timeout_s=1e9, retry_cap=2))
            ok = drive(sim, stack.send_message(route, "correction"))
            delivered, _, _, _, t_ref = _replay_route(topo, seed, route, 64.0, retry_cap=2)
            assert ok is delivered
            assert stack.ue("QUEA").last_activity == first_hop
            assert stack.ue("QUEB").last_activity == (
                pytest.approx(t_ref, abs=1e-12) if delivered else 0.0)
            outcomes.add(ok)
        assert outcomes == {True, False}
