"""Shared topology builders, a tiny driver for generator protocols, and the
scenario edit helper."""

from __future__ import annotations

import copy
import os
import re

import pytest
from hypothesis import settings

from oneq.engine import Simulator
from oneq.netmodel import (
    CellSpec,
    ClassicalLinkSpec,
    NodeSpec,
    QuantumLinkSpec,
    Topology,
)
from oneq.protocol import Defaults, Stack

# Under CI, property tests draw the same examples on every run and print the
# blob that replays a failure, so a failing example reproduces locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

QUIET = Defaults(inactivity_timeout_s=1e9)

_DELETE = "<delete>"
_STEP = re.compile(r"\.(\w+)|\[(\d+|-)\]")


def _edited(doc, edits):
    """A copy of doc with edits made, each a "$.a[0].b" path and a value.

    The value replaces the one at the path, or is appended to the list when
    the path ends in [-]; the value _DELETE removes the key or element.
    """
    doc = copy.deepcopy(doc)
    for path, value in edits.items():
        *keys, last = [name or (index if index == "-" else int(index))
                       for name, index in _STEP.findall(path)]
        parent = doc
        for key in keys:
            parent = parent[key]
        if value is _DELETE:
            del parent[last]
        elif last == "-":
            parent.append(copy.deepcopy(value))
        else:
            parent[last] = copy.deepcopy(value)
    return doc


def one_cell_topology(
    n_ues: int = 2,
    q_attempt: float = 0.5,
    attempt_period_s: float = 2e-4,
    w0: float = 0.97,
    t_coh_s: float = 5.0,
    memory_slots: int = 64,
    p_err_c: float = 0.0,
    rate_bps: float = 1e9,
    prop_delay_s: float = 1e-6,
) -> Topology:
    """One QBS serving n QUEs spread inside its quantum disk."""
    nodes = [NodeSpec(id="QBS1", kind="QBS", position=(0.0, 0.0, 10.0),
                      t_coh_s=t_coh_s, memory_slots=max(memory_slots, 4 * n_ues))]
    clinks, qlinks = [], []
    for i in range(1, n_ues + 1):
        ue = f"QUE{i}"
        nodes.append(NodeSpec(id=ue, kind="QUE",
                              position=(100.0 + 10.0 * i, 0.0, 0.0),
                              t_coh_s=t_coh_s, memory_slots=memory_slots))
        clinks.append(ClassicalLinkSpec(a="QBS1", b=ue, rate_bps=rate_bps,
                                        prop_delay_s=prop_delay_s, p_err_c=p_err_c))
        qlinks.append(QuantumLinkSpec(a="QBS1", b=ue, q_attempt=q_attempt,
                                      attempt_period_s=attempt_period_s, w0=w0))
    return Topology(
        nodes=nodes,
        cells=[CellSpec(bs_id="QBS1", classical_radius=2000.0, quantum_radius=1500.0)],
        classical_links=clinks,
        quantum_links=qlinks,
    )


def two_cell_topology(
    w0_ue: float = 0.96,
    w0_bs: float = 0.94,
    q_attempt: float = 0.8,
    attempt_period_s: float = 1e-4,
    t_coh_ue: float = 0.05,
    t_coh_bs: float = 0.1,
    p_err_c: float = 0.0,
) -> Topology:
    """QUE1 under QBS1, QUE2 under QBS2, repeater edge between the stations."""
    nodes = [
        NodeSpec(id="QBS1", kind="QBS", position=(0.0, 0.0, 10.0),
                 t_coh_s=t_coh_bs, memory_slots=64),
        NodeSpec(id="QBS2", kind="QBS", position=(3000.0, 0.0, 10.0),
                 t_coh_s=t_coh_bs, memory_slots=64),
        NodeSpec(id="QUE1", kind="QUE", position=(300.0, 0.0, 0.0),
                 t_coh_s=t_coh_ue, memory_slots=16),
        NodeSpec(id="QUE2", kind="QUE", position=(3300.0, 0.0, 0.0),
                 t_coh_s=t_coh_ue, memory_slots=16),
    ]
    clinks = [
        ClassicalLinkSpec(a="QBS1", b="QUE1", rate_bps=1e8, prop_delay_s=1e-5,
                          p_err_c=p_err_c),
        ClassicalLinkSpec(a="QBS2", b="QUE2", rate_bps=1e8, prop_delay_s=1e-5,
                          p_err_c=p_err_c),
        ClassicalLinkSpec(a="QBS1", b="QBS2", rate_bps=1e9, prop_delay_s=2e-5,
                          p_err_c=p_err_c),
    ]
    qlinks = [
        QuantumLinkSpec(a="QBS1", b="QUE1", q_attempt=q_attempt,
                        attempt_period_s=attempt_period_s, w0=w0_ue),
        QuantumLinkSpec(a="QBS2", b="QUE2", q_attempt=q_attempt,
                        attempt_period_s=attempt_period_s, w0=w0_ue),
        QuantumLinkSpec(a="QBS1", b="QBS2", q_attempt=q_attempt,
                        attempt_period_s=attempt_period_s, w0=w0_bs),
    ]
    return Topology(
        nodes=nodes,
        cells=[
            CellSpec(bs_id="QBS1", classical_radius=2000.0, quantum_radius=1500.0),
            CellSpec(bs_id="QBS2", classical_radius=2000.0, quantum_radius=1500.0),
        ],
        classical_links=clinks,
        quantum_links=qlinks,
        repeater_edges=[("QBS1", "QBS2")],
    )


def line_topology(
    w0_ue: float = 0.96,
    w0_bs: float = 0.94,
    q_attempt: float = 1.0,
    attempt_period_s: float = 1e-4,
    t_coh_ue: float = 0.05,
    t_coh_bs: float = 0.1,
    p_err_c: float = 0.0,
    n_bs: int = 3,
) -> Topology:
    """QUE1-QBS1-...-QBS<n_bs>-QUE2: an (n_bs + 1)-segment chain, n_bs repeaters.

    Each station's classical and quantum links reach only its neighbours,
    and consecutive stations are joined by repeater edges.  The default is
    the four-segment chain QUE1-QBS1-QBS2-QBS3-QUE2.
    """
    bs_ids = [f"QBS{i + 1}" for i in range(n_bs)]
    nodes = [NodeSpec(id=bs, kind="QBS", position=(3000.0 * i, 0.0, 10.0),
                      t_coh_s=t_coh_bs, memory_slots=64) for i, bs in enumerate(bs_ids)]
    nodes += [
        NodeSpec(id="QUE1", kind="QUE", position=(300.0, 0.0, 0.0),
                 t_coh_s=t_coh_ue, memory_slots=16),
        NodeSpec(id="QUE2", kind="QUE", position=(3000.0 * (n_bs - 1) + 300.0, 0.0, 0.0),
                 t_coh_s=t_coh_ue, memory_slots=16),
    ]
    hops = [("QBS1", "QUE1", w0_ue, 1e8, 1e-5)]
    hops += [(a, b, w0_bs, 1e9, 2e-5) for a, b in zip(bs_ids, bs_ids[1:])]
    hops += [(bs_ids[-1], "QUE2", w0_ue, 1e8, 1e-5)]
    return Topology(
        nodes=nodes,
        cells=[CellSpec(bs_id=bs, classical_radius=2000.0, quantum_radius=1500.0)
               for bs in bs_ids],
        classical_links=[ClassicalLinkSpec(a=a, b=b, rate_bps=rate, prop_delay_s=delay,
                                           p_err_c=p_err_c)
                         for a, b, _, rate, delay in hops],
        quantum_links=[QuantumLinkSpec(a=a, b=b, q_attempt=q_attempt,
                                       attempt_period_s=attempt_period_s, w0=w0)
                       for a, b, w0, _, _ in hops],
        repeater_edges=list(zip(bs_ids, bs_ids[1:])),
    )


def drive(sim: Simulator, gen, until: float = 1e6):
    """Spawn a protocol generator and run it to completion; return its value.

    Steps event by event so the clock stops at the generator's finish time
    instead of jumping to the horizon.
    """
    box: dict = {}
    sim.spawn(gen, on_done=lambda r: box.setdefault("result", r))
    while "result" not in box and sim.pending_events:
        t_next = sim._heap[0][0]
        if t_next > until:
            break
        sim.run_until(t_next)
    if "result" not in box:
        raise AssertionError("generator did not finish before the horizon")
    return box["result"]


@pytest.fixture
def make_stack():
    def build(topo: Topology, seed: int = 1, defaults: Defaults | None = None):
        sim = Simulator(seed=seed)
        stack = Stack(sim, topo, defaults or QUIET)
        return sim, stack

    return build
