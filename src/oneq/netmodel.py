"""Static network model: nodes, cells, links, mobility, and coverage.

Base stations come in classical-only (CBS), quantum-capable (QBS), and
satellite (SAT_QBS) flavors; user equipment is classical (CUE) or quantum
(QUE).  Each base station serves a spherical classical disk and a smaller
concentric quantum disk.  Satellites are modeled as a repeating visibility
window rather than orbital mechanics: they are reachable only while a pass
is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import ConfigurationError, SchemaError

__all__ = [
    "NodeKind",
    "Mobility",
    "NodeSpec",
    "CellSpec",
    "ClassicalLinkSpec",
    "QuantumLinkSpec",
    "Topology",
    "classical_send",
    "orbit_next_window",
    "BS_KINDS",
    "UE_KINDS",
    "QUANTUM_KINDS",
]


class NodeKind(str, Enum):
    CBS = "CBS"
    QBS = "QBS"
    CUE = "CUE"
    QUE = "QUE"
    SAT_QBS = "SAT_QBS"


BS_KINDS = frozenset({NodeKind.CBS, NodeKind.QBS, NodeKind.SAT_QBS})
UE_KINDS = frozenset({NodeKind.CUE, NodeKind.QUE})
QUANTUM_KINDS = frozenset({NodeKind.QBS, NodeKind.QUE, NodeKind.SAT_QBS})


@dataclass(frozen=True)
class Mobility:
    """Static position, piecewise-linear waypoints, or a repeating pass window.

    kind "orbit" keeps the node at its base position but makes it reachable
    only inside windows [pass_start + k*period, pass_start + k*period +
    pass_duration) for k = 0, 1, ... (see orbit_next_window)
    """

    kind: str = "static"  # "static" | "waypoint" | "orbit"
    waypoints: tuple[tuple[float, tuple[float, float, float]], ...] = ()
    pass_start: float = 0.0
    pass_duration: float = 0.0
    period: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("static", "waypoint", "orbit"):
            raise ConfigurationError(f"unknown mobility kind {self.kind!r}")
        if self.kind == "waypoint":
            if len(self.waypoints) < 1:
                raise ConfigurationError("waypoint mobility needs at least one waypoint")
            times = [t for t, _ in self.waypoints]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ConfigurationError("waypoint times must be strictly increasing")
        if self.kind == "orbit":
            if self.period <= 0.0:
                raise ConfigurationError("orbit period must be positive")
            if not 0.0 < self.pass_duration <= self.period:
                raise ConfigurationError("pass_duration must lie in (0, period]")
            if self.pass_start < 0.0:
                raise ConfigurationError("pass_start must be nonnegative")
        if self.kind != "waypoint" and self.waypoints:
            raise ConfigurationError(f"{self.kind} mobility takes no waypoints")
        if self.kind != "orbit" and (self.pass_start or self.pass_duration or self.period):
            raise ConfigurationError(
                f"{self.kind} mobility takes no pass_start, pass_duration or period")


STATIC = Mobility()


def orbit_next_window(mobility: Mobility, t: float) -> tuple[float, float]:
    """Earliest pass window (start, end) whose end lies strictly after t.

    Window k starts at pass_start + k * period, computed as written, so
    every caller sees the same float for the same window.  A node is in
    view at t exactly when the window returned for t has started
    (NodeSpec.available_at).
    """
    if mobility.kind != "orbit":
        raise ValueError("orbit_next_window requires orbit mobility")
    start0, duration, period = mobility.pass_start, mobility.pass_duration, mobility.period
    k = max(math.floor((t - start0 - duration) / period) + 1, 0)
    # The floor is an estimate; rounding can leave it one window off.
    while start0 + k * period + duration <= t:
        k += 1
    while k > 0 and start0 + (k - 1) * period + duration > t:
        k -= 1
    start = start0 + k * period
    return (start, start + duration)


@dataclass
class NodeSpec:
    """A station or UE: its kind, position, memory and mobility."""

    id: str
    kind: NodeKind
    position: tuple[float, float, float]
    t_coh_s: float = 1.0
    memory_slots: int = 0
    mobility: Mobility = STATIC

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("node id must be a nonempty string")
        if len(self.position) != 3:
            raise ConfigurationError(f"node {self.id}: position must have 3 coordinates")
        if self.t_coh_s <= 0.0:
            raise ConfigurationError(f"node {self.id}: t_coh_s must be positive")
        if self.memory_slots < 0:
            raise ConfigurationError(f"node {self.id}: memory_slots must be nonnegative")
        if self.kind == NodeKind.CUE and self.memory_slots != 0:
            raise ConfigurationError(f"node {self.id}: a CUE has no quantum memory slots")
        if self.kind in QUANTUM_KINDS and self.memory_slots < 1:
            raise ConfigurationError(f"node {self.id}: quantum nodes need at least 1 memory slot")

    def position_at(self, t: float) -> tuple[float, ...]:
        if self.mobility.kind == "waypoint":
            pts = self.mobility.waypoints
            if t <= pts[0][0]:
                return pts[0][1]
            if t >= pts[-1][0]:
                return pts[-1][1]
            for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
                if t0 <= t <= t1:
                    frac = (t - t0) / (t1 - t0)
                    return tuple(a + frac * (b - a) for a, b in zip(p0, p1))
        return self.position

    def available_at(self, t: float) -> bool:
        """False only while an orbit node is outside its pass window."""
        if self.mobility.kind != "orbit":
            return True
        return orbit_next_window(self.mobility, t)[0] <= t


@dataclass(frozen=True)
class CellSpec:
    """A base station's classical and quantum coverage radii."""

    bs_id: str = field(metadata={"key": "bs"})
    classical_radius: float
    quantum_radius: float = 0.0

    def __post_init__(self) -> None:
        if self.classical_radius <= 0.0:
            raise ConfigurationError(f"cell {self.bs_id}: classical_radius must be positive")
        if self.quantum_radius < 0.0:
            raise ConfigurationError(f"cell {self.bs_id}: quantum_radius must be nonnegative")
        if self.quantum_radius > self.classical_radius:
            raise ConfigurationError(
                f"cell {self.bs_id}: quantum_radius {self.quantum_radius} exceeds "
                f"classical_radius {self.classical_radius}"
            )


@dataclass(frozen=True)
class ClassicalLinkSpec:
    """An undirected classical link: rate, propagation delay and loss."""

    a: str
    b: str
    rate_bps: float
    prop_delay_s: float = 0.0
    p_err_c: float = 0.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigurationError(f"classical link endpoints must differ, got {self.a}")
        if self.rate_bps <= 0.0:
            raise ConfigurationError(f"link {self.a}-{self.b}: rate_bps must be positive")
        if self.prop_delay_s < 0.0:
            raise ConfigurationError(f"link {self.a}-{self.b}: prop_delay_s must be nonnegative")
        if not 0.0 <= self.p_err_c <= 1.0:
            raise ConfigurationError(f"link {self.a}-{self.b}: p_err_c must lie in [0, 1]")

    def latency(self, size_bits: float) -> float:
        if size_bits < 0:
            raise ValueError(f"message size must be nonnegative, got {size_bits}")
        return size_bits / self.rate_bps + self.prop_delay_s

    def delivered(self, draw: float) -> bool:
        """Whether a transmission whose uniform loss draw is ``draw`` arrives."""
        return draw >= self.p_err_c


@dataclass(frozen=True)
class QuantumLinkSpec:
    """An undirected heralded link: success per attempt, period and w0."""

    a: str
    b: str
    q_attempt: float
    attempt_period_s: float
    w0: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigurationError(f"quantum link endpoints must differ, got {self.a}")
        if not 0.0 <= self.q_attempt <= 1.0:
            raise ConfigurationError(f"link {self.a}-{self.b}: q_attempt must lie in [0, 1]")
        if self.attempt_period_s <= 0.0:
            raise ConfigurationError(f"link {self.a}-{self.b}: attempt_period_s must be positive")
        if not 0.0 <= self.w0 <= 1.0:
            raise ConfigurationError(f"link {self.a}-{self.b}: w0 must lie in [0, 1]")


def classical_send(
    link: ClassicalLinkSpec,
    size_bits: float,
    rng,
) -> tuple[bool, float]:
    """One transmission attempt: (delivered, latency).

    Latency is deterministic (size/rate + propagation); delivery fails with
    probability p_err_c.  Retransmission is the caller's business.
    """
    latency = link.latency(size_bits)  # a negative size raises before the draw
    return link.delivered(rng.random()), latency


def _adjacency(edges: Iterable[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
    """Undirected adjacency; each node's peers in ascending id order."""
    peers: dict[str, list[str]] = {}
    for x, y in edges:
        peers.setdefault(x, []).append(y)
        peers.setdefault(y, []).append(x)
    return {node: tuple(sorted(p)) for node, p in peers.items()}


def _bfs_path(adjacency: dict, a: str, b: str) -> Optional[list[str]]:
    """Shortest hop path a..b, endpoints included; ties go to lower ids."""
    if a == b:
        return [a]
    frontier = [a]
    parents: dict[str, str] = {a: a}
    while frontier:
        nxt: list[str] = []
        for node in frontier:
            for peer in adjacency.get(node, ()):
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


class Topology:
    """Immutable scenario topology with geometry and link lookups.

    Construction checks every cross-reference and raises one SchemaError
    listing each fault as "<collection>[i].<field>: message".
    """

    def __init__(
        self,
        nodes: Iterable[NodeSpec],
        cells: Iterable[CellSpec] = (),
        classical_links: Iterable[ClassicalLinkSpec] = (),
        quantum_links: Iterable[QuantumLinkSpec] = (),
        repeater_edges: Iterable[tuple[str, str]] = (),
    ):
        faults: list[str] = []
        self.nodes: dict[str, NodeSpec] = {}
        for i, node in enumerate(nodes):
            if node.id in self.nodes:
                faults.append(f"nodes[{i}].id: duplicate node id {node.id!r}")
            self.nodes.setdefault(node.id, node)

        def ends(path: str, ids: dict[str, str], kinds=None, what: str = "") -> None:
            """Report each id at path + key that is unknown or not of kinds."""
            for key, node_id in ids.items():
                node = self.nodes.get(node_id)
                if node is None:
                    faults.append(f"{path}{key}: unknown node id {node_id!r}")
                elif kinds is not None and node.kind not in kinds:
                    faults.append(f"{path}{key}: {node_id!r} {what}")

        def add(table: dict, key, path: str, label: str, item) -> None:
            if key in table:
                faults.append(f"{path}: duplicate {label}")
            table[key] = item

        self.cells: dict[str, CellSpec] = {}
        for i, cell in enumerate(cells):
            path = f"cells[{i}]"
            ends(path, {".bs": cell.bs_id}, BS_KINDS, "is not a base station")
            node = self.nodes.get(cell.bs_id)
            if node is not None and node.kind == NodeKind.CBS and cell.quantum_radius > 0:
                faults.append(f"{path}.quantum_radius: a CBS cannot offer quantum coverage")
            add(self.cells, cell.bs_id, f"{path}.bs", f"cell for {cell.bs_id!r}", cell)
        self.classical_links: dict[frozenset, ClassicalLinkSpec] = {}
        for i, link in enumerate(classical_links):
            path = f"classical_links[{i}]"
            ends(path, {".a": link.a, ".b": link.b})
            add(self.classical_links, frozenset((link.a, link.b)), path,
                f"classical link {link.a}-{link.b}", link)
        self.quantum_links: dict[frozenset, QuantumLinkSpec] = {}
        for i, link in enumerate(quantum_links):
            path = f"quantum_links[{i}]"
            ends(path, {".a": link.a, ".b": link.b}, QUANTUM_KINDS, "has no quantum hardware")
            add(self.quantum_links, frozenset((link.a, link.b)), path,
                f"quantum link {link.a}-{link.b}", link)
        self.repeater_edges: set[frozenset] = set()
        for i, (a, b) in enumerate(repeater_edges):
            path = f"repeater_edges[{i}]"
            ends(path, {"[0]": a, "[1]": b}, (NodeKind.QBS, NodeKind.SAT_QBS), "is not a QBS")
            if frozenset((a, b)) not in self.quantum_links:
                faults.append(f"{path}: repeater edge {a}-{b} has no quantum link")
            self.repeater_edges.add(frozenset((a, b)))
        if faults:
            raise SchemaError(faults)
        # The topology never changes after load, so both routing graphs are
        # built here.
        self._graphs = {
            "bs": _adjacency((link.a, link.b) for link in self.classical_links.values()
                             if {self.nodes[link.a].kind, self.nodes[link.b].kind} <= BS_KINDS),
            "repeater": _adjacency(tuple(edge) for edge in self.repeater_edges),
        }
        # Coverage and reachability between two static nodes are the same at
        # every t, so each such answer is kept from its first use, keyed by
        # (node, node, quantum).
        self._disks: dict[tuple[str, str, bool], bool] = {}
        self._links: dict[tuple[str, str, bool], bool] = {}

    def _require(self, node_id: str) -> NodeSpec:
        if node_id not in self.nodes:
            raise ConfigurationError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    # -- geometry ----------------------------------------------------------

    def _coords(self, node_id: str, t: float) -> Sequence[float]:
        return self._require(node_id).position_at(t)

    def distance(self, a: str, b: str, t: float) -> float:
        return math.dist(self._coords(a, t), self._coords(b, t))

    def _in_disk(self, ue_id: str, bs_id: str, t: float, quantum: bool) -> bool:
        """Whether the UE lies in bs_id's classical or quantum disk at t.

        Both ends must be in view; a station with no cell, or a zero radius,
        covers nothing.
        """
        key = (ue_id, bs_id, quantum)
        known = self._disks.get(key)
        if known is not None:
            return known
        bs = self._require(bs_id)
        ue = self._require(ue_id)
        cell = self.cells.get(bs_id)
        radius = 0.0 if cell is None else (
            cell.quantum_radius if quantum else cell.classical_radius)
        inside = (radius > 0.0 and bs.available_at(t) and ue.available_at(t)
                  and self.distance(ue_id, bs_id, t) <= radius)
        if bs.mobility.kind == ue.mobility.kind == "static":
            self._disks[key] = inside
        return inside

    def in_classical_coverage(self, ue_id: str, bs_id: str, t: float) -> bool:
        return self._in_disk(ue_id, bs_id, t, quantum=False)

    def in_quantum_coverage(self, ue_id: str, bs_id: str, t: float) -> bool:
        return self._in_disk(ue_id, bs_id, t, quantum=True)

    # -- link lookups ------------------------------------------------------

    def classical_link(self, a: str, b: str) -> Optional[ClassicalLinkSpec]:
        return self.classical_links.get(frozenset((a, b)))

    def quantum_link(self, a: str, b: str) -> Optional[QuantumLinkSpec]:
        return self.quantum_links.get(frozenset((a, b)))

    def _reachable(self, a: str, b: str, t: float, quantum: bool) -> bool:
        """Whether the a-b link is usable at t; a UE end must lie in the station's disk.

        Engineered BS-to-BS links are range-validated at deployment, not per use.
        """
        key = (a, b, quantum)
        known = self._links.get(key)
        if known is not None:
            return known
        na, nb = self._require(a), self._require(b)
        if na.kind in UE_KINDS and nb.kind in BS_KINDS:
            usable = self._in_disk(a, b, t, quantum)
        elif nb.kind in UE_KINDS and na.kind in BS_KINDS:
            usable = self._in_disk(b, a, t, quantum)
        else:
            usable = na.available_at(t) and nb.available_at(t)
        if na.mobility.kind == nb.mobility.kind == "static":
            self._links[key] = usable
        return usable

    def fixed_reach(self, a: str, b: str, quantum: bool) -> Optional[bool]:
        """_reachable's verdict for a-b if it holds at every t (both ends static), else None."""
        self._reachable(a, b, 0.0, quantum)
        return self._links.get((a, b, quantum))

    def classical_reachable(self, a: str, b: str, t: float) -> bool:
        """True when a and b can exchange a message over their link at time t."""
        return self._reachable(a, b, t, quantum=False)

    def quantum_reachable(self, a: str, b: str, t: float) -> bool:
        """True when a and b can herald over their quantum link at time t."""
        return self._reachable(a, b, t, quantum=True)

    def bs_route(self, a: str, b: str) -> Optional[list[str]]:
        """Shortest hop path over BS-to-BS classical links, endpoints included."""
        return _bfs_path(self._graphs["bs"], a, b)

    def repeater_path(self, a: str, b: str) -> Optional[list[str]]:
        """Shortest hop path over repeater edges, endpoints included."""
        return _bfs_path(self._graphs["repeater"], a, b)
