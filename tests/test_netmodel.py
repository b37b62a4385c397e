"""Unit tests for topology, geometry, mobility, and the two link planes."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import QUIET
from oneq.engine import Simulator
from oneq.errors import ConfigurationError, CoverageError, SchemaError
from oneq.netmodel import (
    CellSpec,
    ClassicalLinkSpec,
    Mobility,
    NodeSpec,
    QuantumLinkSpec,
    Topology,
    classical_send,
    orbit_next_window,
)
from oneq.protocol import Stack
from oneq.qcore import WernerPair


def _node(nid, kind="QUE", pos=(0.0, 0.0, 0.0), slots=4, **kw):
    if kind == "CUE" or kind == "CBS":
        slots = 0
    return NodeSpec(id=nid, kind=kind, position=pos, memory_slots=slots, **kw)


class TestSpecValidation:
    def test_cue_cannot_have_memory(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(id="u", kind="CUE", position=(0, 0, 0), memory_slots=1)

    def test_quantum_node_needs_memory(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(id="u", kind="QUE", position=(0, 0, 0), memory_slots=0)

    def test_cell_radius_ordering(self):
        with pytest.raises(ConfigurationError):
            CellSpec(bs_id="b", classical_radius=100.0, quantum_radius=200.0)
        CellSpec(bs_id="b", classical_radius=100.0, quantum_radius=100.0)

    def test_link_parameter_ranges(self):
        with pytest.raises(ConfigurationError):
            ClassicalLinkSpec(a="x", b="x", rate_bps=1e6, prop_delay_s=0, p_err_c=0)
        with pytest.raises(ConfigurationError):
            ClassicalLinkSpec(a="x", b="y", rate_bps=1e6, prop_delay_s=0, p_err_c=1.5)
        with pytest.raises(ConfigurationError):
            QuantumLinkSpec(a="x", b="y", q_attempt=1.2, attempt_period_s=1e-3, w0=0.9)
        with pytest.raises(ConfigurationError):
            QuantumLinkSpec(a="x", b="y", q_attempt=0.5, attempt_period_s=0.0, w0=0.9)

    def test_mobility_validation(self):
        with pytest.raises(ConfigurationError):
            Mobility(kind="teleporting")
        with pytest.raises(ConfigurationError):
            Mobility(kind="waypoint", waypoints=())
        with pytest.raises(ConfigurationError):
            Mobility(kind="waypoint",
                     waypoints=((1.0, (0, 0, 0)), (1.0, (1, 0, 0))))
        with pytest.raises(ConfigurationError):
            Mobility(kind="orbit", pass_start=0.0, pass_duration=2.0, period=1.0)

    def test_topology_rejects_duplicates_and_dangling_refs(self):
        a = _node("a", "QBS")
        b = _node("b", "QUE")
        with pytest.raises(ConfigurationError):
            Topology(nodes=[a, a])
        with pytest.raises(ConfigurationError):
            Topology(nodes=[a], cells=[CellSpec("zz", 100.0, 50.0)])
        with pytest.raises(ConfigurationError):
            Topology(nodes=[a, b], classical_links=[
                ClassicalLinkSpec(a="a", b="ghost", rate_bps=1e6,
                                  prop_delay_s=0, p_err_c=0)])

    def test_topology_reports_every_fault_under_its_path(self):
        a, b, c = _node("a", "QBS"), _node("b", "QUE"), _node("c", "CBS")
        ghost = ClassicalLinkSpec(a="ghost", b="a", rate_bps=1e6, prop_delay_s=0, p_err_c=0)
        with pytest.raises(SchemaError) as err:
            Topology(nodes=[a, b, c, b],
                     cells=[CellSpec("b", 100.0, 50.0), CellSpec("c", 100.0, 50.0)],
                     classical_links=[ghost, ghost])
        assert err.value.violations == [
            "nodes[3].id: duplicate node id 'b'",
            "cells[0].bs: 'b' is not a base station",
            "cells[1].quantum_radius: a CBS cannot offer quantum coverage",
            "classical_links[0].a: unknown node id 'ghost'",
            "classical_links[1].a: unknown node id 'ghost'",
            "classical_links[1]: duplicate classical link ghost-a",
        ]

    def test_cell_must_sit_on_a_base_station(self):
        ue = _node("u", "QUE")
        with pytest.raises(ConfigurationError):
            Topology(nodes=[ue], cells=[CellSpec("u", 100.0, 50.0)])

    def test_cbs_cell_cannot_offer_quantum_coverage(self):
        cbs = _node("c", "CBS")
        with pytest.raises(ConfigurationError):
            Topology(nodes=[cbs], cells=[CellSpec("c", 100.0, 50.0)])
        Topology(nodes=[cbs], cells=[CellSpec("c", 100.0, 0.0)])

    def test_quantum_link_needs_quantum_endpoints(self):
        qbs = _node("q", "QBS")
        cue = _node("c", "CUE")
        with pytest.raises(ConfigurationError):
            Topology(nodes=[qbs, cue], quantum_links=[
                QuantumLinkSpec(a="q", b="c", q_attempt=0.5,
                                attempt_period_s=1e-3, w0=0.9)])

    def test_repeater_edges_are_qbs_only_and_backed_by_links(self):
        q1, q2 = _node("q1", "QBS"), _node("q2", "QBS")
        ue = _node("u", "QUE")
        link = QuantumLinkSpec(a="q1", b="q2", q_attempt=0.5,
                               attempt_period_s=1e-3, w0=0.9)
        Topology(nodes=[q1, q2], quantum_links=[link],
                 repeater_edges=[("q1", "q2")])
        with pytest.raises(ConfigurationError):
            Topology(nodes=[q1, q2], repeater_edges=[("q1", "q2")])
        ue_link = QuantumLinkSpec(a="q1", b="u", q_attempt=0.5,
                                  attempt_period_s=1e-3, w0=0.9)
        with pytest.raises(ConfigurationError):
            Topology(nodes=[q1, ue], quantum_links=[ue_link],
                     repeater_edges=[("q1", "u")])


class TestGeometryAndMobility:
    def test_waypoint_interpolation(self):
        mob = Mobility(kind="waypoint",
                       waypoints=((1.0, (0.0, 0.0, 0.0)), (3.0, (10.0, 0.0, 0.0))))
        node = NodeSpec(id="m", kind="QUE", position=(99.0, 99.0, 99.0),
                        memory_slots=1, mobility=mob)
        assert node.position_at(0.0) == pytest.approx([0.0, 0.0, 0.0])
        assert node.position_at(2.0) == pytest.approx([5.0, 0.0, 0.0])
        assert node.position_at(9.0) == pytest.approx([10.0, 0.0, 0.0])

    def test_orbit_availability_windows(self):
        mob = Mobility(kind="orbit", pass_start=0.3, pass_duration=0.5, period=1.2)
        node = NodeSpec(id="s", kind="SAT_QBS", position=(0, 0, 5e5),
                        memory_slots=4, mobility=mob)
        assert not node.available_at(0.0)
        assert node.available_at(0.3)
        assert node.available_at(0.79)
        assert not node.available_at(0.9)
        assert node.available_at(1.5)  # next pass

    def test_orbit_next_window(self):
        mob = Mobility(kind="orbit", pass_start=0.3, pass_duration=0.5, period=1.2)
        assert orbit_next_window(mob, 0.0) == pytest.approx((0.3, 0.8))
        assert orbit_next_window(mob, 0.4) == pytest.approx((0.3, 0.8))
        assert orbit_next_window(mob, 0.85) == pytest.approx((1.5, 2.0))
        with pytest.raises(ValueError):
            orbit_next_window(Mobility(), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(pass_start=st.floats(0.0, 100.0),
           period=st.floats(1e-3, 100.0),
           duty=st.floats(1e-3, 1.0),
           t=st.floats(0.0, 1e4),
           into=st.floats(0.0, 1.0))
    def test_node_is_in_view_exactly_inside_the_windows_returned(
            self, pass_start, period, duty, t, into):
        mob = Mobility(kind="orbit", pass_start=pass_start,
                       pass_duration=duty * period, period=period)
        node = NodeSpec(id="s", kind="SAT_QBS", position=(0, 0, 5e5),
                        memory_slots=1, mobility=mob)
        start, end = orbit_next_window(mob, t)
        assert start <= end and end > t
        assert end == start + mob.pass_duration
        # in view on [start, end), the window containing t if it has begun
        assert node.available_at(start)
        assert node.available_at(t) == (start <= t)
        inside = start + into * (end - start)
        if inside < end:
            assert node.available_at(inside)
        # out of view on [end, next start)
        next_start, _ = orbit_next_window(mob, end)
        assert next_start > start
        if end < next_start:
            assert not node.available_at(end)
            gap = end + into * (next_start - end)
            if gap < next_start:
                assert not node.available_at(gap)


def _coverage_topology():
    return Topology(
        nodes=[
            _node("QBS1", "QBS", (0.0, 0.0, 10.0), slots=8),
            _node("SAT1", "SAT_QBS", (0.0, 0.0, 1000.0), slots=8,
                  mobility=Mobility(kind="orbit", pass_start=1.0,
                                    pass_duration=1.0, period=4.0)),
            _node("near", "QUE", (100.0, 0.0, 0.0)),
            _node("edge", "QUE", (0.0, 400.0, 0.0)),
            _node("far", "QUE", (2000.0, 0.0, 0.0)),
            _node("mover", "QUE", (0.0, 0.0, 0.0),
                  mobility=Mobility(kind="waypoint",
                                    waypoints=((0.0, (100.0, 0.0, 0.0)),
                                               (10.0, (5000.0, 0.0, 0.0))))),
        ],
        cells=[
            CellSpec(bs_id="QBS1", classical_radius=1000.0, quantum_radius=300.0),
            CellSpec(bs_id="SAT1", classical_radius=5000.0, quantum_radius=3000.0),
        ],
    )


class TestCoverage:
    def test_disk_membership(self):
        topo = _coverage_topology()
        assert topo.in_classical_coverage("near", "QBS1", 0.0)
        assert topo.in_quantum_coverage("near", "QBS1", 0.0)
        assert topo.in_classical_coverage("edge", "QBS1", 0.0)
        assert not topo.in_quantum_coverage("edge", "QBS1", 0.0)
        assert not topo.in_classical_coverage("far", "QBS1", 0.0)

    def test_quantum_implies_classical(self):
        topo = _coverage_topology()
        rng = np.random.default_rng(3)
        ues = ["near", "edge", "far", "mover"]
        for _ in range(200):
            ue = ues[rng.integers(len(ues))]
            bs = ("QBS1", "SAT1")[rng.integers(2)]
            t = float(rng.uniform(0.0, 10.0))
            if topo.in_quantum_coverage(ue, bs, t):
                assert topo.in_classical_coverage(ue, bs, t)

    def test_mover_leaves_cell(self):
        topo = _coverage_topology()
        assert topo.in_quantum_coverage("mover", "QBS1", 0.0)
        assert not topo.in_quantum_coverage("mover", "QBS1", 2.0)
        assert not topo.in_classical_coverage("mover", "QBS1", 9.0)

    def test_satellite_gates_on_pass_window(self):
        topo = _coverage_topology()
        assert not topo.in_quantum_coverage("near", "SAT1", 0.5)
        assert topo.in_quantum_coverage("near", "SAT1", 1.5)
        assert not topo.in_quantum_coverage("near", "SAT1", 2.5)


_STATION_KINDS = ("QBS", "CBS", "SAT_QBS")
_UE_KINDS = ("QUE", "CUE")
_COORD = st.floats(-2000.0, 2000.0, width=32).map(float)
_QUERIES = ("in_classical_coverage", "in_quantum_coverage",
            "classical_reachable", "quantum_reachable")


def _crossings(p0, p1, t0, t1, centre, radius):
    """Times in [t0, t1] at which p0 -> p1 crosses the sphere |x - centre| = radius."""
    d = [b - a for a, b in zip(p0, p1)]
    f = [a - c for a, c in zip(p0, centre)]
    qa = sum(x * x for x in d)
    qb = 2.0 * sum(x * y for x, y in zip(d, f))
    qc = sum(x * x for x in f) - radius * radius
    disc = qb * qb - 4.0 * qa * qc
    if qa == 0.0 or disc < 0.0:
        return []
    roots = ((-qb - math.sqrt(disc)) / (2.0 * qa), (-qb + math.sqrt(disc)) / (2.0 * qa))
    return [t0 + s * (t1 - t0) for s in roots if 0.0 <= s <= 1.0]


@st.composite
def _mobility(draw, kinds=("static", "waypoint", "orbit")):
    kind = draw(st.sampled_from(kinds))
    if kind == "waypoint":
        times = sorted(draw(st.sets(st.floats(0.0, 10.0, width=32).map(float),
                                    min_size=2, max_size=3)))
        return {"kind": kind, "waypoints": [
            (t, (draw(_COORD), draw(_COORD), 0.0)) for t in times]}
    if kind == "orbit":
        period = draw(st.floats(0.5, 4.0))
        return {"kind": kind, "pass_start": draw(st.floats(0.0, 5.0)),
                "pass_duration": period * draw(st.floats(0.05, 1.0)), "period": period}
    return {"kind": kind}


@st.composite
def _worlds(draw):
    """Stations and UEs of every mobility, some stations with a cell.

    The first station is static with a cell and the first UE moves, so that
    every world has a disk edge that a moving UE can cross.
    """
    n_bs, n_ue = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    nodes, cells = {}, {}
    for i in range(n_bs + n_ue):
        station = i < n_bs
        nid = f"BS{i}" if station else f"UE{i}"
        nodes[nid] = {"kind": draw(st.sampled_from(_STATION_KINDS if station else _UE_KINDS)),
                      "position": (draw(_COORD), draw(_COORD), 10.0 if station else 0.0),
                      "mobility": draw(_mobility(("static",) if i == 0 else
                                                 ("waypoint",) if i == n_bs else
                                                 ("static", "waypoint", "orbit")))}
        if station and (i == 0 or draw(st.booleans())):
            classical = draw(st.floats(200.0, 2500.0))
            quantum = 0.0 if nodes[nid]["kind"] == "CBS" else \
                classical * draw(st.floats(0.0, 1.0))
            cells[nid] = (classical, quantum)
    return nodes, cells


def _turning_times(nodes, cells, a, b):
    """The times at which an answer about a and b can turn.

    They are the pass-window edges and waypoint times of both nodes, and the
    moments a waypoint node crosses the other, static node's disk edges.
    """
    times = [0.0]
    for one, other in ((a, b), (b, a)):
        mobility = nodes[one]["mobility"]
        if mobility["kind"] == "orbit":
            for k in range(4):
                opens = mobility["pass_start"] + k * mobility["period"]
                times += [opens, opens + mobility["pass_duration"]]
        if mobility["kind"] == "waypoint":
            points = mobility["waypoints"]
            times += [t for t, _ in points]
            if other in cells and nodes[other]["mobility"]["kind"] == "static":
                for (t0, p0), (t1, p1) in zip(points, points[1:]):
                    for radius in cells[other]:
                        times += _crossings(p0, p1, t0, t1, nodes[other]["position"],
                                            radius)
    return sorted(set(times))


def _topology(nodes, cells):
    specs = []
    for nid, node in nodes.items():
        mobility = dict(node["mobility"])
        mobility["waypoints"] = tuple(mobility.get("waypoints", ()))
        slots = 0 if node["kind"] in ("CBS", "CUE") else 4
        specs.append(NodeSpec(id=nid, kind=node["kind"], position=node["position"],
                              memory_slots=slots, mobility=Mobility(**mobility)))
    return Topology(nodes=specs, cells=[CellSpec(bs_id=bs, classical_radius=c,
                                                 quantum_radius=q)
                                        for bs, (c, q) in cells.items()])


def _expected(nodes, cells, query, a, b, t):
    quantum = "quantum" in query
    if query.endswith("coverage"):
        return oracles.in_disk(nodes, cells, a, b, t, quantum)
    return oracles.link_usable(nodes, cells, a, b, t, quantum)


class TestCoverageMemo:
    """Coverage and reachability answers kept for static pairs match geometry."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_answers_match_the_reference_in_any_query_order(self, data):
        nodes, cells = data.draw(_worlds())
        topo = _topology(nodes, cells)
        ids = sorted(nodes)
        ues, served = [n for n in ids if n.startswith("UE")], sorted(cells)
        asked = []
        for _ in range(data.draw(st.integers(1, 12))):
            query = data.draw(st.sampled_from(_QUERIES))
            # mostly a UE and a station with a cell, where disks matter
            a, b = data.draw(st.tuples(st.sampled_from(ues), st.sampled_from(served))
                             if served and data.draw(st.booleans())
                             else st.tuples(st.sampled_from(ids), st.sampled_from(ids)))
            t = data.draw(st.sampled_from(_turning_times(nodes, cells, a, b))
                          | st.floats(0.0, 12.0))
            # around the chosen time: a disk edge found by the quadratic may sit
            # a few ulps off the one the float geometry sees
            asked += [(query, a, b, x) for x in (t - 1e-6, math.nextafter(t, -math.inf), t,
                                                  math.nextafter(t, math.inf), t + 1e-6)]
        for query, a, b, t in asked + asked[::-1]:  # every query repeats
            assert getattr(topo, query)(a, b, t) == _expected(nodes, cells, query, a, b, t), \
                (query, a, b, t)
            with pytest.raises(ConfigurationError):
                getattr(topo, query)(a, "GHOST", t)

    def test_moving_pairs_answer_anew_on_each_side_of_a_boundary(self):
        topo = _coverage_topology()
        # "mover" leaves QBS1's 1000 m disk at t = 900 / 490 s
        inside, outside = 1.8, 1.9
        for query in ("in_classical_coverage", "classical_reachable"):
            ask = getattr(topo, query)
            assert [ask("mover", "QBS1", t) for t in (inside, outside, inside)] \
                == [True, False, True]
        # SAT1's first pass is [1, 2); "near" is static and in its disk
        for query in _QUERIES:
            ask = getattr(topo, query)
            assert [ask("near", "SAT1", t) for t in (1.5, 2.0, 1.5, 0.5)] \
                == [True, False, True, False]
        # two static nodes: the first answer is every later one
        assert [topo.in_quantum_coverage("near", "QBS1", t) for t in (0.0, 7.0)] \
            == [True, True]
        assert [topo.in_quantum_coverage("edge", "QBS1", t) for t in (0.0, 7.0)] \
            == [False, False]


class TestLinks:
    def test_latency_formula(self):
        link = ClassicalLinkSpec(a="a", b="b", rate_bps=1e6,
                                 prop_delay_s=0.002, p_err_c=0.0)
        assert link.latency(500.0) == pytest.approx(0.0025)

    def test_classical_send_statistics(self):
        link = ClassicalLinkSpec(a="a", b="b", rate_bps=1e6,
                                 prop_delay_s=0.0, p_err_c=0.2)
        rng = np.random.default_rng(8)
        n = 40_000
        lost = sum(1 for _ in range(n) if not classical_send(link, 64, rng)[0])
        assert abs(lost / n - 0.2) <= 3 * math.sqrt(0.2 * 0.8 / n)
        with pytest.raises(ValueError):
            classical_send(link, -1, rng)

    @staticmethod
    def _stack(topo):
        return Stack(Simulator(seed=9), topo, QUIET)

    def test_herald_statistics_and_payload(self):
        # one leg, then two legs that must herald in the same slot; "mover"
        # starts inside the quantum disk of QBS1 and the clock stays at 0
        stack = self._stack(_coverage_topology())
        n = 10_000
        for legs, parties, rate, w in (
                ((("near", 0.3, 0.91),), ("QBS1", "near"), 0.3, 0.91),
                ((("near", 0.6, 0.91), ("mover", 0.5, 0.93)), ("near", "mover"),
                 0.3, 0.91 * 0.93)):
            links = tuple(QuantumLinkSpec(a="QBS1", b=ue, q_attempt=q,
                                          attempt_period_s=1e-3, w0=w0)
                          for ue, q, w0 in legs)
            seg = stack._segment("QBS1", links, parties)
            made = [stack._herald(seg) for _ in range(n)]
            heralded = [x for x in made if x is not None]
            assert abs(len(heralded) / n - rate) <= 3 * math.sqrt(rate * (1 - rate) / n)
            assert set(heralded) == {w}

    def test_herald_requires_coverage(self):
        stack = self._stack(_coverage_topology())
        near = QuantumLinkSpec(a="QBS1", b="near", q_attempt=1.0,
                               attempt_period_s=1e-3, w0=0.91)
        far = QuantumLinkSpec(a="QBS1", b="far", q_attempt=1.0,
                              attempt_period_s=1e-3, w0=0.91)
        with pytest.raises(CoverageError):
            stack._herald(stack._segment("QBS1", (far,), ("QBS1", "far")))
        with pytest.raises(CoverageError):
            stack._herald(stack._segment("QBS1", (near, far), ("near", "far")))
        assert stack._herald(stack._segment("QBS1", (near,), ("QBS1", "near"))) == 0.91

    def test_herald_skips_full_memory_without_a_draw(self):
        stack = self._stack(_coverage_topology())
        link = QuantumLinkSpec(a="QBS1", b="near", q_attempt=1.0,
                               attempt_period_s=1e-3, w0=0.91)
        rng = stack.sim.rng_stream("QBS1", "entanglement")
        for _ in range(4):  # "near" has four memory slots
            stack.ledger.register(WernerPair(id=stack.ledger.new_id(),
                                             holders=("QBS1", "near"), w=0.9,
                                             created_at=0.0))
        seg = stack._segment("QBS1", (link,), ("QBS1", "near"))
        untouched = copy.deepcopy(rng)
        assert stack._herald(seg) is None
        assert rng.random() == untouched.random()
        stack.ledger.finish("p000001", "discarded")
        assert stack._herald(seg) == 0.91

    def test_repeater_path_bfs(self):
        def qbs(nid):
            return _node(nid, "QBS", slots=8)

        def qlink(a, b):
            return QuantumLinkSpec(a=a, b=b, q_attempt=0.5,
                                   attempt_period_s=1e-3, w0=0.9)

        topo = Topology(
            nodes=[qbs("b1"), qbs("b2"), qbs("b3"), qbs("b4")],
            quantum_links=[qlink("b1", "b2"), qlink("b2", "b3"),
                           qlink("b3", "b4"), qlink("b1", "b4")],
            repeater_edges=[("b1", "b2"), ("b2", "b3"), ("b3", "b4"),
                            ("b1", "b4")],
        )
        assert topo.repeater_path("b1", "b3") in (["b1", "b2", "b3"],
                                                  ["b1", "b4", "b3"])
        assert topo.repeater_path("b1", "b1") == ["b1"]
        lonely = Topology(nodes=[qbs("b1"), qbs("b2")])
        assert lonely.repeater_path("b1", "b2") is None
