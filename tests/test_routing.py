"""Routing over the prebuilt graphs, checked against a plain reference BFS.

The reference functions below search the raw link tables on every call, the
way routing worked before the graphs were built once at load.  They share no
code with ``oneq`` and define the expected hop lists, tie-breaks included.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from oneq.engine import Simulator
from oneq.netmodel import (
    BS_KINDS,
    ClassicalLinkSpec,
    NodeSpec,
    QuantumLinkSpec,
    Topology,
)
from oneq.protocol import Stack


def ref_bs_route(topo, a, b):
    if a == b:
        return [a]
    frontier = [a]
    parents = {a: a}
    bs_ids = {n.id for n in topo.nodes.values() if n.kind in BS_KINDS}
    while frontier:
        nxt = []
        for node in frontier:
            for key, _ in sorted(topo.classical_links.items(),
                                 key=lambda kv: sorted(kv[0])):
                if node in key:
                    (peer,) = key - {node}
                    if peer in bs_ids and peer not in parents:
                        parents[peer] = node
                        if peer == b:
                            path = [b]
                            while path[-1] != a:
                                path.append(parents[path[-1]])
                            return path[::-1]
                        nxt.append(peer)
        frontier = nxt
    return None


def ref_repeater_path(topo, a, b):
    if a == b:
        return [a]
    adjacency = {}
    for edge in topo.repeater_edges:
        x, y = sorted(edge)
        adjacency.setdefault(x, []).append(y)
        adjacency.setdefault(y, []).append(x)
    frontier = [a]
    parents = {a: a}
    while frontier:
        nxt = []
        for node in frontier:
            for peer in sorted(adjacency.get(node, ())):
                if peer not in parents:
                    parents[peer] = node
                    if peer == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(parents[path[-1]])
                        return path[::-1]
                    nxt.append(peer)
        frontier = nxt
    return None


def ref_classical_route(topo, serving, src, dst):
    if topo.classical_link(src, dst) is not None:
        return [src, dst]
    left = serving.get(src, src)
    right = serving.get(dst, dst)
    if left is None or right is None:
        return None
    mid = ref_bs_route(topo, left, right)
    if mid is None:
        return None
    hops = [src] + mid + [dst]
    return [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]


def ref_session_chain(topo, serving, requester, target):
    """Delivery chain of a session, case by case as a session reads it."""
    bs_a = serving[requester]
    if bs_a is None:
        return None
    if target == bs_a:
        return [requester, bs_a]
    if target in serving:
        bs_b = serving[target]
        if bs_b is None:
            return None
        if bs_b == bs_a:
            return [requester, bs_a, target]
        mid = ref_repeater_path(topo, bs_a, bs_b)
        return None if mid is None else [requester] + mid + [target]
    mid = ref_repeater_path(topo, bs_a, target)
    return None if mid is None else [requester] + mid


def random_topology(seed: int):
    """Random BS graph with UE leaves; ids are shuffled against insertion order.

    Returns the topology and the serving BS of each UE (None for some).
    """
    rng = random.Random(seed)
    n_bs = rng.randint(2, 9)
    labels = rng.sample(range(100), n_bs)
    bs_ids = [f"B{k:02d}" for k in labels]
    kinds = {bs: rng.choice(("QBS", "QBS", "CBS")) for bs in bs_ids}
    nodes = [NodeSpec(id=bs, kind=kinds[bs], position=(0.0, 0.0, 10.0),
                      memory_slots=4 if kinds[bs] == "QBS" else 0) for bs in bs_ids]
    clinks, qlinks, edges = [], [], []

    def clink(a, b):
        clinks.append(ClassicalLinkSpec(a=a, b=b, rate_bps=1e9,
                                        prop_delay_s=1e-6, p_err_c=0.0))

    p_edge = rng.uniform(0.15, 0.6)
    for i, a in enumerate(bs_ids):
        for b in bs_ids[i + 1:]:
            if rng.random() < p_edge:
                clink(*rng.sample((a, b), 2))
            if "CBS" not in (kinds[a], kinds[b]) and rng.random() < p_edge:
                qlinks.append(QuantumLinkSpec(a=a, b=b, q_attempt=0.5,
                                              attempt_period_s=1e-4, w0=0.95))
                edges.append(tuple(rng.sample((a, b), 2)))
    serving = {}
    for j in range(rng.randint(1, 6)):
        ue = f"U{j}"
        kind = rng.choice(("QUE", "CUE"))
        nodes.append(NodeSpec(id=ue, kind=kind, position=(0.0, 0.0, 0.0),
                              memory_slots=2 if kind == "QUE" else 0))
        for bs in rng.sample(bs_ids, rng.randint(1, min(2, n_bs))):
            clink(bs, ue)
        serving[ue] = rng.choice(bs_ids + [None])
    if rng.random() < 0.3 and len(serving) >= 2:
        clink("U0", "U1")
    rng.shuffle(nodes)
    topo = Topology(nodes=nodes, classical_links=clinks, quantum_links=qlinks,
                    repeater_edges=edges)
    return topo, serving


def make_stack(topo, serving):
    stack = Stack(Simulator(seed=1), topo)
    for ue, bs in serving.items():
        stack.ue(ue).serving_bs = bs
    return stack


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_bs_route_and_repeater_path_match_reference(seed):
    topo, _ = random_topology(seed)
    bs_ids = sorted(n for n, spec in topo.nodes.items() if spec.kind in BS_KINDS)
    for a in bs_ids:
        for b in bs_ids:
            assert topo.bs_route(a, b) == ref_bs_route(topo, a, b), (a, b)
            assert topo.repeater_path(a, b) == ref_repeater_path(topo, a, b), (a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_classical_route_matches_reference(seed):
    topo, serving = random_topology(seed)
    stack = make_stack(topo, serving)
    ids = sorted(topo.nodes)
    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            want = ref_classical_route(topo, serving, src, dst)
            assert stack.classical_route(src, dst) == want, (src, dst)


@pytest.mark.parametrize("seed", SEEDS)
def test_session_chain_matches_reference(seed):
    topo, serving = random_topology(seed)
    stack = make_stack(topo, serving)
    for requester in sorted(serving):
        for target in sorted(topo.nodes):
            want = ref_session_chain(topo, serving, requester, target)
            assert stack._session_chain(requester, target) == want, (requester, target)


def test_session_chains_cover_every_case():
    """Same cell, serving station, other station, cross-cell UE, unserved target."""
    cases = Counter()
    for seed in SEEDS:
        topo, serving = random_topology(seed)
        stack = make_stack(topo, serving)
        for requester, bs_a in serving.items():
            if bs_a is None:
                continue
            for target in topo.nodes:
                if target == requester:
                    continue
                chain = stack._session_chain(requester, target)
                if target not in serving:
                    kind = "serving" if target == bs_a else "other-bs"
                elif serving[target] is None:
                    kind = "unserved"
                else:
                    kind = "same-cell" if serving[target] == bs_a else "cross-cell"
                cases[kind, chain is not None and len(chain) > 3] += 1
    assert {kind for kind, _ in cases} == {
        "serving", "other-bs", "unserved", "same-cell", "cross-cell"}
    assert cases["other-bs", True] > 0 and cases["cross-cell", True] > 0


def test_generated_topologies_cover_every_case():
    """The random family reaches unreachable pairs, multi-hop and UE routes."""
    unreachable = multi_hop = ue_routes = 0
    for seed in SEEDS:
        topo, serving = random_topology(seed)
        stack = make_stack(topo, serving)
        bs_ids = [n for n, spec in topo.nodes.items() if spec.kind in BS_KINDS]
        for a in bs_ids:
            for b in bs_ids:
                path = topo.bs_route(a, b)
                unreachable += path is None
                multi_hop += path is not None and len(path) > 2
        for ue in serving:
            for bs in bs_ids:
                route = stack.classical_route(ue, bs)
                ue_routes += route is not None and len(route) > 2
    assert unreachable > 0 and multi_hop > 0 and ue_routes > 0


def test_disconnected_pairs_and_self_routes():
    nodes = [NodeSpec(id=q, kind="QBS", position=(0.0, 0.0, 0.0), memory_slots=1)
             for q in ("A", "B", "C", "D")]
    links = [ClassicalLinkSpec(a="A", b="B", rate_bps=1e9, prop_delay_s=0.0,
                               p_err_c=0.0),
             ClassicalLinkSpec(a="C", b="D", rate_bps=1e9, prop_delay_s=0.0,
                               p_err_c=0.0)]
    qlinks = [QuantumLinkSpec(a="A", b="B", q_attempt=0.5,
                              attempt_period_s=1e-4, w0=0.9)]
    topo = Topology(nodes=nodes, classical_links=links, quantum_links=qlinks,
                    repeater_edges=[("A", "B")])
    assert topo.bs_route("A", "C") is None
    assert topo.bs_route("B", "D") is None
    assert topo.repeater_path("A", "C") is None
    assert topo.repeater_path("C", "D") is None
    assert make_stack(topo, {}).classical_route("A", "D") is None
    for node in ("A", "B", "C", "D"):
        assert topo.bs_route(node, node) == [node]
        assert topo.repeater_path(node, node) == [node]


def test_returned_paths_are_fresh_lists():
    for seed in SEEDS:
        topo, serving = random_topology(seed)
        stack = make_stack(topo, serving)
        bs_ids = [n for n, spec in topo.nodes.items() if spec.kind in BS_KINDS]
        for a in bs_ids:
            for b in bs_ids:
                for route in (topo.bs_route, topo.repeater_path,
                              stack.classical_route):
                    first = route(a, b)
                    if first is None:
                        continue
                    first.append("tampered")
                    first[0] = "tampered"
                    assert "tampered" not in route(a, b)
