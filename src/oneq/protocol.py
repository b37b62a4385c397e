"""Control-plane protocol: UE state machine, sessions, and resource lifecycle.

User equipment moves through Idle, Connected, Inactive, and Entangled,
mirroring a cellular RRC machine extended with one quantum state.  Quantum
resources may be consumed only while every UE holder is Entangled, and every
created resource ends in exactly one terminal state (consumed, discarded,
or expired at run end); the ledger enforces both.

All protocol steps are generator processes driven by the event engine.  A
yielded float is the simulated delay until the step resumes.  Every
classical transmission is one Stack.transmit over the lossy channel model.
A message crosses its whole hop list in one yield, each hop retrying within
a bounded budget, and writes one msg record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import qcore, records
from .engine import EventKind, Simulator
from .errors import CoverageError, PermanentLossError, ProtocolError, ResourceError
from .netmodel import (
    BS_KINDS,
    ClassicalLinkSpec,
    NodeKind,
    QuantumLinkSpec,
    Topology,
    UE_KINDS,
    classical_send,
    orbit_next_window,
)
from .qcore import GhzResource, PureState, WernerPair, fidelity_of

__all__ = [
    "QueState",
    "SessionOutcome",
    "HandoverMode",
    "PolicyMode",
    "PolicySpec",
    "EntanglementRequest",
    "check_fidelity",
    "check_request_bounds",
    "SessionResult",
    "HandoverResult",
    "TeleportResult",
    "QubitToken",
    "Defaults",
    "ResourceLedger",
    "QueContext",
    "Stack",
]


class QueState(str, Enum):
    IDLE = "Idle"
    CONNECTED = "Connected"
    INACTIVE = "Inactive"
    ENTANGLED = "Entangled"


# Legal state-machine edges.  Everything else raises ProtocolError.
_ALLOWED_TRANSITIONS = {
    QueState.IDLE: {QueState.CONNECTED},
    QueState.CONNECTED: {QueState.INACTIVE, QueState.ENTANGLED},
    QueState.INACTIVE: {QueState.CONNECTED},
    QueState.ENTANGLED: {QueState.CONNECTED},
}


class SessionOutcome(str, Enum):
    FULFILLED = "Fulfilled"
    PARTIALLY_FULFILLED = "PartiallyFulfilled"
    EXPIRED = "Expired"
    REJECTED = "Rejected"


class HandoverMode(str, Enum):
    SOFT = "soft"
    HARD = "hard"


class PolicyMode(str, Enum):
    REACTIVE = "reactive"
    PROACTIVE = "proactive"


def check_fidelity(name: str, value: float) -> None:
    """Raise ValueError unless value is a fidelity a request may ask for."""
    if not 0.25 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0.25, 1], got {value}")


@dataclass(frozen=True)
class PolicySpec:
    """The provisioning policy: reactive, or proactive with buffer targets."""

    mode: PolicyMode = PolicyMode.REACTIVE
    targets: tuple[tuple[str, str], ...] = ()
    buffer_target: int = 1
    check_period_s: float = 0.5
    min_fidelity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.check_period_s <= 0.0:
            raise ValueError(f"check_period_s must be positive, got {self.check_period_s}")
        if self.min_fidelity is not None:
            check_fidelity("min_fidelity", self.min_fidelity)
        if self.mode == PolicyMode.PROACTIVE:
            if not self.targets:
                raise ValueError("a proactive policy needs at least one target")
            if self.buffer_target < 1:
                raise ValueError(
                    f"a proactive policy needs buffer_target >= 1, got {self.buffer_target}")
        elif self.targets:
            raise ValueError("a reactive policy takes no targets")


def _meets_fidelity(w: float, f: float) -> bool:
    """Whether a Werner parameter w meets the fidelity floor f, within 1e-12."""
    return fidelity_of(w) + 1e-12 >= f


def check_request_bounds(max_latency_s: float, min_fidelity: float) -> None:
    """The bounds every EntanglementRequest checks; app configs check them at load."""
    if max_latency_s <= 0.0:
        raise ValueError(f"max_latency_s must be positive, got {max_latency_s}")
    check_fidelity("min_fidelity", min_fidelity)


@dataclass(frozen=True)
class EntanglementRequest:
    """What a session asks for: a pair count, a deadline and a fidelity floor."""

    requester: str
    target: str
    count: int
    max_latency_s: float
    min_fidelity: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        check_request_bounds(self.max_latency_s, self.min_fidelity)


@dataclass
class SessionResult:
    """How a session ended and the pairs it delivered."""

    outcome: SessionOutcome
    delivered: tuple[str, ...]
    elapsed_s: float
    discarded_below_threshold: int = 0
    attempts: int = 0
    reason: str = ""


@dataclass
class HandoverResult:
    """How a handover went: the mode used, downtime and pairs migrated."""

    mode_requested: HandoverMode
    mode_used: HandoverMode
    fell_back: bool
    downtime_s: float
    migrated: tuple[str, ...]
    session: Optional[SessionResult] = None


@dataclass
class TeleportResult:
    """Whether a teleported qubit arrived, and at what fidelity."""

    delivered: bool
    fidelity: float
    elapsed_s: float
    pair_id: str


@dataclass
class QubitToken:
    """Application payload qubit.  state is None in the parameterized model."""

    id: str
    location: str
    state: Optional[PureState] = None
    destroyed: bool = False


MESSAGE_BITS = {
    "request": 512.0,
    "ack": 128.0,
    "correction": 64.0,
    "registration": 1024.0,
    "resume": 256.0,
    "angle": 64.0,
    "outcome": 64.0,
    "basis": 1.0,
    "report": 128.0,
    "handover": 256.0,
}


@dataclass(frozen=True)
class Defaults:
    """Protocol constants; scenarios may override any of them."""

    f_min: float = 0.8
    inactivity_timeout_s: float = 5.0
    retry_cap: int = 10
    registration_messages: int = 4
    # Bits per message kind; a scenario's entries override these one by one.
    message_bits: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fidelity("f_min", self.f_min)
        if self.inactivity_timeout_s <= 0.0:
            raise ValueError(
                f"inactivity_timeout_s must be positive, got {self.inactivity_timeout_s}")
        if self.retry_cap < 1:
            raise ValueError(f"retry_cap must be at least 1, got {self.retry_cap}")
        if self.registration_messages < 1:
            raise ValueError(
                f"registration_messages must be at least 1, got {self.registration_messages}")
        for kind, bits in self.message_bits.items():
            if kind not in MESSAGE_BITS:
                raise ValueError(f"message_bits.{kind}: unknown message kind")
            if not bits >= 0.0:
                raise ValueError(f"message_bits.{kind} must be nonnegative, got {bits}")
        object.__setattr__(self, "message_bits", {**MESSAGE_BITS, **self.message_bits})


# Simulated seconds a handover may spend provisioning entanglement at the
# new station: the soft bridge must herald within it, and a hard handover's
# replacement session has it as its latency budget.
HANDOVER_BUDGET_S = 5.0


class ResourceLedger:
    """Lifecycle and memory-slot accounting for every entangled resource."""

    def __init__(self, topo: Topology):
        self.resources: dict[str, WernerPair | GhzResource] = {}
        self.state: dict[str, str] = {}
        self.reason: dict[str, str] = {}
        self._free = {node_id: node.memory_slots  # free memory slots per node
                      for node_id, node in topo.nodes.items()}
        self._counter = 0

    def new_id(self) -> str:
        self._counter += 1
        return f"p{self._counter:06d}"

    def slots_free(self, node_id: str) -> int:
        return self._free[node_id]

    def can_store(self, holders: Iterable[str]) -> bool:
        free = self._free
        for h in holders:
            if free[h] < 1:
                return False
        return True

    def register(self, resource: WernerPair | GhzResource) -> None:
        if resource.id in self.resources:
            raise ResourceError(f"duplicate resource id {resource.id}")
        if not self.can_store(resource.holders):
            raise ResourceError(f"no free memory slot for {resource.id} at {resource.holders}")
        for h in resource.holders:
            self._free[h] -= 1
        self.resources[resource.id] = resource
        self.state[resource.id] = "live"

    def live(self, resource_id: str) -> WernerPair | GhzResource:
        res = self.resources.get(resource_id)
        if res is None:
            raise ResourceError(f"unknown resource {resource_id}")
        if self.state[resource_id] != "live":
            raise ResourceError(
                f"resource {resource_id} is {self.state[resource_id]}, not live"
            )
        return res

    def finish(self, resource_id: str, terminal: str, reason: str) -> WernerPair | GhzResource:
        """End a live resource as consumed, discarded or expired; its slots free now."""
        res = self.live(resource_id)
        self.state[resource_id] = terminal
        self.reason[resource_id] = reason
        for h in res.holders:
            self._free[h] += 1
        return res

    def live_ids(self) -> list[str]:
        return [rid for rid, st in self.state.items() if st == "live"]


@dataclass
class QueContext:
    """A UE's control-plane state, serving station and stored pairs."""

    node_id: str
    state: QueState = QueState.IDLE
    serving_bs: Optional[str] = None
    stored: set = field(default_factory=set)
    last_activity: float = 0.0
    timer_queued: bool = False  # an inactivity check is queued for this UE


class _Segment(NamedTuple):
    """One resource a process heralds: every leg from source in the same slot.

    p and w, the products of the legs' q_attempt and w0, are fixed for the
    segment, so Stack._segment computes them once for all its slots.
    """

    source: str
    legs: tuple[QuantumLinkSpec, ...]
    holders: tuple[str, ...]
    via: str
    p: float
    w: float


class _Hop:
    """A classical link as its sender uses it, resolved once per run (Stack._hop)."""

    __slots__ = ("src", "link", "ends", "route", "rng")

    def __init__(self, src: str, link: ClassicalLinkSpec, ends: tuple[QueContext, ...],
                 route: str):
        self.src, self.link, self.ends, self.route = src, link, ends, route
        self.rng = None  # src's classical stream, fetched at the first draw


class _Holders(NamedTuple):
    """What a resource's holders tuple fixes for a run (Stack._holder)."""

    t_coh: float  # effective_t_coh(holders)
    ues: tuple[QueContext, ...]  # the UE holders' contexts, in holder order
    created: tuple[str, ...]  # their pairs_created.<ue> metric names


class _Plan(NamedTuple):
    """A session's chain, the segments it heralds and what they fix (Stack._plan)."""

    chain: Optional[tuple[str, ...]]  # None: no delivery chain
    segments: Optional[tuple[_Segment, ...]] = None  # None: a quantum link is missing
    setup: tuple[str, ...] = ()  # the chain's stations, which the request crosses
    period: float = 0.0  # the slowest leg's attempt period
    w_max: float = 0.0  # the product of every leg's w0 (see entanglement_session)


class Stack:
    """Protocol engine tying the topology, the event kernel, and the ledger."""

    def __init__(self, sim: Simulator, topo: Topology, defaults: Optional[Defaults] = None):
        self.sim = sim
        self.topo = topo
        self.defaults = defaults or Defaults()
        self.ledger = ResourceLedger(topo)
        self.ues: dict[str, QueContext] = {
            node.id: QueContext(node_id=node.id)
            for node in topo.nodes.values()
            if node.kind in UE_KINDS
        }
        self._payload_counter = 0
        # Per-run lookups by name, each resolved at its first use: the UE
        # contexts they hold belong to this run.
        self._hops: dict[tuple[str, str], Optional[_Hop]] = {}
        self._holders: dict[tuple[str, ...], _Holders] = {}
        self._plans: dict[tuple, _Plan] = {}

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def ue(self, node_id: str) -> QueContext:
        ctx = self.ues.get(node_id)
        if ctx is None:
            raise ProtocolError(f"{node_id} is not user equipment")
        return ctx

    def _ue_contexts(self, node_ids: Iterable[str]) -> tuple[QueContext, ...]:
        return tuple(self.ues[n] for n in node_ids if n in self.ues)

    def _set_state(self, ctx: QueContext, new_state: QueState, reason: str) -> None:
        if new_state == ctx.state:
            return
        if new_state not in _ALLOWED_TRANSITIONS[ctx.state]:
            raise ProtocolError(
                f"{ctx.node_id}: illegal transition {ctx.state.value} -> {new_state.value}"
            )
        old = ctx.state
        ctx.state = new_state
        records.state_transition(self.sim.trace, self.sim.now, ctx.node_id,
                                 frm=old.value, to=new_state.value, reason=reason)
        if new_state == QueState.CONNECTED:
            ctx.last_activity = max(ctx.last_activity, self.sim.now)
            if not ctx.timer_queued:
                self._arm_inactivity(ctx, self.defaults.inactivity_timeout_s)

    def _arm_inactivity(self, ctx: QueContext, delay: float) -> None:
        ctx.timer_queued = True
        self.sim.schedule_call(delay, partial(self._check_inactivity, ctx), EventKind.TIMER)

    def _check_inactivity(self, ctx: QueContext) -> None:
        ctx.timer_queued = False
        if ctx.state is not QueState.CONNECTED:
            return
        remaining = ctx.last_activity + self.defaults.inactivity_timeout_s - self.sim.now
        if remaining <= 1e-12:
            self._set_state(ctx, QueState.INACTIVE, "inactivity-timeout")
        else:
            self._arm_inactivity(ctx, remaining)

    def _maybe_exit_entangled(self, ctx: QueContext) -> None:
        if ctx.state == QueState.ENTANGLED and not ctx.stored:
            self._set_state(ctx, QueState.CONNECTED, "resources-exhausted")

    # ------------------------------------------------------------------
    # Classical messaging
    # ------------------------------------------------------------------

    def bits(self, msg_kind: str) -> float:
        """Size of a message of this kind, from the scenario's defaults."""
        return float(self.defaults.message_bits[msg_kind])

    def _hop(self, src: str, dst: str) -> Optional[_Hop]:
        """The src-dst classical link with its UE ends, for src to send on; None if none."""
        try:
            return self._hops[src, dst]
        except KeyError:
            link = self.topo.classical_link(src, dst)
            hop = self._hops[src, dst] = None if link is None else _Hop(
                src, link, self._ue_contexts((src, dst)), f"{src}+{dst}")
            return hop

    def _send(self, hop: _Hop, bits: float) -> tuple[bool, float]:
        """classical_send over hop: the one loss draw, from the sender's classical stream."""
        if hop.rng is None:
            hop.rng = self.sim.rng_stream(hop.src, "classical")
        return classical_send(hop.link, bits, hop.rng)

    def transmit(self, src: str, dst: str, msg_kind: str,
                 bits: Optional[float] = None) -> tuple[bool, float]:
        """One transmission over the direct src-dst link: (delivered, latency).

        Makes the one loss draw from src's classical stream.  No retry, no
        event and no trace record: the caller decides what a loss means and
        when the latency elapses.
        """
        hop = self._hop(src, dst)
        if hop is None:
            raise ProtocolError(f"no classical link {src}-{dst}")
        return self._send(hop, self.bits(msg_kind) if bits is None else bits)

    def send_message(self, route: Sequence[str], msg_kind: str,
                     bits: Optional[float] = None):
        """Generator: carry one message along a hop list; returns delivered bool.

        Each hop in turn makes up to retry_cap transmissions, each only
        while its ends are in classical reach at the time it starts.  The
        summed latency is one MESSAGE_DELIVERY event, after which one msg
        record at route[0] states the outcome: route, msg, delivered, tx
        (transmissions over all hops) and, on failure, failed_at (the hop's
        source) and reason (no-link, no-coverage or retries).  A message
        that fails before its first transmission makes no event; a route of
        one station is delivered at once, with no record.  Each UE end of a
        delivered hop takes the hop's arrival time as its last activity.
        """
        if len(route) < 2:
            return True
        if bits is None:
            bits = self.bits(msg_kind)
        t0 = self.sim.now
        latency, tx, reason = 0.0, 0, ""
        for src, dst in zip(route, route[1:]):
            hop = self._hop(src, dst)
            if hop is None:
                reason = "no-link"
                break
            for _ in range(self.defaults.retry_cap):
                if not self.topo.classical_reachable(src, dst, t0 + latency):
                    reason = "no-coverage"
                    break
                delivered, hop_latency = self._send(hop, bits)
                latency += hop_latency
                tx += 1
                if delivered:
                    break
            else:
                reason = "retries"
            if reason:
                break
            for ctx in hop.ends:
                ctx.last_activity = max(ctx.last_activity, t0 + latency)
        if tx:
            yield (latency, EventKind.MESSAGE_DELIVERY)
        joined = hop.route if hop is not None and len(route) == 2 else "+".join(route)
        if reason:
            records.msg_failed(self.sim.trace, self.sim.now, route[0], route=joined,
                               msg=msg_kind, tx=tx, failed_at=src, reason=reason)
        else:
            records.msg(self.sim.trace, self.sim.now, route[0], route=joined,
                        msg=msg_kind, tx=tx)
        return not reason

    def _anchored(self, src: str, dst: str,
                  join: Callable[[str, str], Optional[list[str]]]) -> Optional[list[str]]:
        """Hop list src..dst through the ends' anchor stations, or None.

        A base station is its own anchor and a UE's is its serving station;
        join(left, right) gives the stations between two distinct anchors.
        None when an end has no anchor or join finds no path.
        """
        left = self.ue(src).serving_bs if self.topo.nodes[src].kind in UE_KINDS else src
        right = self.ue(dst).serving_bs if self.topo.nodes[dst].kind in UE_KINDS else dst
        if left is None or right is None:
            return None
        mid = [left] if left == right else join(left, right)
        if mid is None:
            return None
        return ([src] if left != src else []) + mid + ([dst] if right != dst else [])

    def classical_route(self, src: str, dst: str) -> Optional[list[str]]:
        """Hop list src..dst: the direct link if present, else over the backbone."""
        if self._hop(src, dst) is not None:
            return [src, dst]
        return self._anchored(src, dst, self.topo.bs_route)

    def send_routed(self, src: str, dst: str, msg_kind: str,
                    bits: Optional[float] = None):
        """Generator: deliver src to dst over classical_route; see send_message."""
        route = self.classical_route(src, dst)
        if route is None:
            records.msg_no_route(self.sim.trace, self.sim.now, src, dst=dst, msg=msg_kind)
            return False
        return (yield from self.send_message(route, msg_kind, bits))

    # ------------------------------------------------------------------
    # Registration and connection management
    # ------------------------------------------------------------------

    def register(self, ue_id: str, bs_id: str):
        """Generator: Idle -> Connected via the k-message exchange."""
        ctx = self.ue(ue_id)
        if ctx.state != QueState.IDLE:
            raise ProtocolError(f"{ue_id} cannot register while {ctx.state.value}")
        if self.topo.nodes[bs_id].kind not in BS_KINDS:
            raise ProtocolError(f"{bs_id} is not a base station")
        k = self.defaults.registration_messages
        for i in range(k):
            src, dst = (ue_id, bs_id) if i % 2 == 0 else (bs_id, ue_id)
            ok = yield from self.send_message((src, dst), "registration")
            if not ok:
                records.registration_failed(self.sim.trace, self.sim.now, ue_id,
                                            bs=bs_id, at_message=i + 1)
                return False
        ctx.serving_bs = bs_id
        self._set_state(ctx, QueState.CONNECTED, "registered")
        return True

    def resume(self, ue_id: str):
        """Generator: Inactive -> Connected with the short two-message exchange."""
        ctx = self.ue(ue_id)
        if ctx.state != QueState.INACTIVE:
            raise ProtocolError(f"{ue_id} cannot resume while {ctx.state.value}")
        bs = ctx.serving_bs
        if bs is None:
            raise ProtocolError(f"{ue_id} has no serving base station")
        ok = yield from self.send_message((ue_id, bs), "resume")
        if ok:
            ok = yield from self.send_message((bs, ue_id), "resume")
        if not ok:
            return False
        self._set_state(ctx, QueState.CONNECTED, "resumed")
        return True

    def ensure_connected(self, ue_id: str, bs_id: Optional[str] = None):
        """Generator: bring the UE to Connected, registering or resuming."""
        ctx = self.ue(ue_id)
        if ctx.state in (QueState.CONNECTED, QueState.ENTANGLED):
            return True
        if ctx.state == QueState.INACTIVE:
            ok = yield from self.resume(ue_id)
            return ok
        target = bs_id or ctx.serving_bs or self._closest_bs(ue_id)
        if target is None:
            return False
        ok = yield from self.register(ue_id, target)
        return ok

    def _closest_bs(self, ue_id: str) -> Optional[str]:
        t = self.sim.now
        candidates = [
            (self.topo.distance(ue_id, bs_id, t), bs_id)
            for bs_id in sorted(self.topo.cells)
            if self.topo.in_classical_coverage(ue_id, bs_id, t)
        ]
        return min(candidates)[1] if candidates else None

    # ------------------------------------------------------------------
    # Pair aging helpers
    # ------------------------------------------------------------------

    def effective_t_coh(self, holders: Sequence[str]) -> float:
        """Both memories dephase independently; rates add."""
        rate = sum(1.0 / self.topo.nodes[h].t_coh_s for h in holders)
        return 1.0 / rate if rate else math.inf

    def _holder(self, holders: tuple[str, ...]) -> _Holders:
        """The per-run constants of a resource held by holders."""
        entry = self._holders.get(holders)
        if entry is None:
            ues = self._ue_contexts(holders)
            entry = self._holders[holders] = _Holders(
                self.effective_t_coh(holders), ues,
                tuple(f"pairs_created.{ctx.node_id}" for ctx in ues))
        return entry

    def age_pair(self, pair: WernerPair | GhzResource) -> float:
        return qcore.touch(pair, self.sim.now, self._holder(pair.holders).t_coh)

    # ------------------------------------------------------------------
    # Resource creation and consumption
    # ------------------------------------------------------------------

    def _segment(self, source: str, legs: Sequence[QuantumLinkSpec],
                 holders: Sequence[str], via: str = "") -> _Segment:
        return _Segment(source, tuple(legs), tuple(holders), via,
                        math.prod(link.q_attempt for link in legs),
                        math.prod(link.w0 for link in legs))

    def _herald(self, seg: _Segment) -> Optional[float]:
        """One heralded attempt slot at seg.source; the delivered w, or None.

        Every leg must herald in the same slot, so the success probability
        is the product of the leg q_attempts and the delivered Werner
        parameter the product of the leg w0s.  A holder without a free
        memory slot skips the slot without a draw; a leg out of quantum
        reach raises CoverageError.  The source's entanglement stream is
        opened at its first draw, so a process that never draws opens none.
        """
        if not self.ledger.can_store(seg.holders):
            return None
        t = self.sim.now
        for link in seg.legs:
            if not self.topo.quantum_reachable(link.a, link.b, t):
                raise CoverageError(
                    f"no quantum coverage between {link.a} and {link.b} at t={t}")
        if self.sim.rng_stream(seg.source, "entanglement").random() >= seg.p:
            return None
        return seg.w

    def _register_pair(self, seg: _Segment, w: float) -> WernerPair:
        """The pair seg heralded with w: registered, counted and recorded via seg.via."""
        t = self.sim.now
        pair = WernerPair(id=self.ledger.new_id(), holders=seg.holders, w=w,
                          created_at=t, last_touched=t)
        self.ledger.register(pair)
        self.sim.metrics.incr("pairs_created")
        for name in self._holder(seg.holders).created:
            self.sim.metrics.incr(name)
        records.pair_created(self.sim.trace, t, seg.holders[0], id=pair.id,
                             holders="+".join(seg.holders), w=round(w, 9), via=seg.via)
        return pair

    def _hand_over(self, resource: WernerPair | GhzResource) -> None:
        """Store the resource at each UE holder; a Connected holder turns Entangled."""
        for ctx in self._holder(resource.holders).ues:
            ctx.stored.add(resource.id)
            if ctx.state == QueState.CONNECTED:
                self._set_state(ctx, QueState.ENTANGLED, "session-delivered")

    def _retire(self, resource_id: str, terminal: str,
                reason: str) -> WernerPair | GhzResource:
        """The one exit of a live resource: ledger, pairs_<terminal>, UE buffers.

        The caller writes the resource's ending record, if it has one.
        """
        res = self.ledger.finish(resource_id, terminal, reason)
        self.sim.metrics.incr(f"pairs_{terminal}")
        for ctx in self._holder(res.holders).ues:
            ctx.stored.discard(resource_id)
        return res

    def discard_pair(self, resource_id: str, reason: str) -> None:
        res = self._retire(resource_id, "discarded", reason)
        records.pair_discarded(self.sim.trace, self.sim.now, res.holders[0], id=resource_id,
                               reason=reason)
        ues = self._holder(res.holders).ues
        if reason == "below-threshold":
            self.sim.metrics.incr("pairs_discarded_below_threshold")
            for ctx in ues:
                self.sim.metrics.incr(f"pairs_discarded_below_threshold.{ctx.node_id}")
        for ctx in ues:
            self._maybe_exit_entangled(ctx)

    def _corrected(self, pair: WernerPair) -> bool:
        """Whether the pair's correction has arrived, within 1e-12 s."""
        return self.sim.now + 1e-12 >= pair.usable_at

    def consume_pair(self, resource_id: str, purpose: str) -> WernerPair | GhzResource:
        """Terminal consumption; legal only while all UE holders are Entangled."""
        res = self.ledger.live(resource_id)
        if isinstance(res, WernerPair) and not self._corrected(res):
            raise ResourceError(f"pair {res.id} is not usable before its correction arrives")
        ues = self._holder(res.holders).ues
        for ctx in ues:
            if ctx.state != QueState.ENTANGLED:
                raise ProtocolError(
                    f"cannot consume {res.id}: holder {ctx.node_id} is {ctx.state.value}")
        holder_states = "+".join([f"{ctx.node_id}:{ctx.state.value}" for ctx in ues])
        if isinstance(res, WernerPair):
            self.age_pair(res)
            self.sim.metrics.observe("fidelity_at_consumption", fidelity_of(res.w))
        self._retire(resource_id, "consumed", purpose)
        records.pair_consumed(self.sim.trace, self.sim.now, res.holders[0], id=resource_id,
                              purpose=purpose, holder_states=holder_states or "bs-only")
        for ctx in ues:
            self._maybe_exit_entangled(ctx)
        return res

    def measure_stored_pair(self, pair_id: str, basis_a: qcore.MeasurementBasis,
                            basis_b: qcore.MeasurementBasis) -> tuple[int, int]:
        """Consume a stored pair, then measure both halves.

        The correlated outcome sampling keys off the first holder's stream
        so a fixed seed reproduces the bit pair exactly.
        """
        if not isinstance(self.ledger.live(pair_id), WernerPair):
            raise ResourceError(f"{pair_id} is not a bipartite pair")
        pair = self.consume_pair(pair_id, "measure")
        rng = self.sim.rng_stream(pair.holders[0], "measurement")
        return qcore.measure_pair(pair, basis_a, basis_b, rng)

    def finalize(self) -> None:
        """Expire whatever is still live; call once at end of run."""
        for rid in self.ledger.live_ids():
            res = self._retire(rid, "expired", "run-end")
            records.pair_expired(self.sim.trace, self.sim.now, res.holders[0], id=rid)

    # ------------------------------------------------------------------
    # Entanglement swapping
    # ------------------------------------------------------------------

    def entanglement_swap(self, pair_ab_id: str, pair_bc_id: str, repeater: str) -> WernerPair:
        """Bell-state measurement at the repeater: _measure_chain for two pairs."""
        return self._measure_chain((pair_ab_id, pair_bc_id), (repeater,))

    def _measure_chain(self, pair_ids: Sequence[str], repeaters: Sequence[str]) -> WernerPair:
        """Bell-state measurements at every repeater at this instant; the end pair.

        Pair i and pair i+1 meet at repeaters[i].  Each outcome is a
        Pauli-frame update at the end node, so the end pair's w is the
        product of the aged inputs' w, left to right.  The inputs are
        consumed; the end pair is unusable until its classical correction
        is marked delivered (see _swap_chain).
        """
        pairs = [self.ledger.live(p) for p in pair_ids]
        if (not repeaters or len(pairs) != len(repeaters) + 1
                or not all(isinstance(p, WernerPair) for p in pairs)
                or any(r == s for r, s in zip(repeaters, repeaters[1:]))):
            raise ResourceError("a swap needs one more bipartite pair than repeaters, "
                                "and no repeater twice in a row")
        for a, b, r in zip(pairs, pairs[1:], repeaters):
            if r not in a.holders or r not in b.holders:
                raise ResourceError(f"repeater {r} does not hold both of {a.id}, {b.id}")
        for p in pairs:
            if not self._corrected(p):
                raise ResourceError(f"pair {p.id} awaits its correction; cannot swap")
        (left,) = [h for h in pairs[0].holders if h != repeaters[0]]
        (right,) = [h for h in pairs[-1].holders if h != repeaters[-1]]
        if left == right:
            raise ResourceError("swap would produce a pair with identical holders")
        w = math.prod(self.age_pair(p) for p in pairs)
        for p in pairs:
            self._retire(p.id, "consumed", "swap")
        t = self.sim.now
        out = WernerPair(id=self.ledger.new_id(), holders=(left, right), w=w,
                         created_at=t, last_touched=t, usable_at=math.inf)
        self.ledger.register(out)
        self.sim.metrics.incr("pairs_swapped")
        self.sim.metrics.incr("swaps", len(repeaters))
        records.swap(self.sim.trace, t, repeaters[0], ins="+".join(pair_ids),
                     at="+".join(repeaters), out=out.id, w_out=round(w, 9))
        return out

    def mark_correction_delivered(self, pair: WernerPair) -> None:
        pair.usable_at = self.sim.now

    def _swap_chain(self, pair_ids: Sequence[str], stations: Sequence[str]):
        """Generator: swap a chain into one end pair; its id, or None.

        Pair i is held by stations[i] and stations[i+1].  Every inner
        station measures at this instant (_measure_chain); one correction
        then walks back from the last repeater to stations[0], collecting
        every outcome.  A lost correction discards the end pair.  A
        one-pair chain is returned as is.
        """
        if len(pair_ids) == 1:
            return pair_ids[0]
        out = self._measure_chain(pair_ids, stations[1:-1])
        ok = yield from self.send_message(stations[-2::-1], "correction")
        if not ok:
            self.discard_pair(out.id, "correction-lost")
            return None
        self.mark_correction_delivered(out)
        return out.id

    # ------------------------------------------------------------------
    # Entanglement sessions
    # ------------------------------------------------------------------

    def _session_chain(self, requester: str, target: str) -> Optional[list[str]]:
        """Delivery chain [requester, bs..., target] over repeater edges; None when unservable."""
        return self._anchored(requester, target, self.topo.repeater_path)

    def _session_plan(self, chain: Sequence[str]) -> _Plan:
        """The segments a session heralds on chain; segments None when a quantum link is missing.

        Same-cell UE-to-UE delivery is one dual downlink from the shared
        station; any other chain is one segment per link, sourced at its
        base-station end, swapped together once all are held.
        """
        links = [self.topo.quantum_link(a, b) for a, b in zip(chain, chain[1:])]
        if None in links:
            return _Plan(tuple(chain))
        kinds = [self.topo.nodes[n].kind for n in chain]
        if len(chain) == 3 and kinds[1] in BS_KINDS and kinds[2] in UE_KINDS:
            segments = (self._segment(chain[1], links, (chain[0], chain[2]), f"src:{chain[1]}"),)
        else:
            via = "direct" if len(links) == 1 else "segment"
            segments = tuple(self._segment(a if kind in BS_KINDS else b, (link,), (a, b), via)
                             for a, b, kind, link in zip(chain, chain[1:], kinds, links))
        return _Plan(tuple(chain), segments,
                     tuple(n for n, kind in zip(chain, kinds) if kind in BS_KINDS),
                     max(link.attempt_period_s for link in links),
                     math.prod(seg.w for seg in segments))

    def _plan(self, requester: str, target: str, bs_a: str,
              target_ctx: Optional[QueContext]) -> _Plan:
        """_session_chain and _session_plan, once per run for these ends and stations.

        Both depend only on the two ends, the stations serving them and the
        static graphs, so the serving stations are part of the key.
        """
        key = (requester, target, bs_a, None if target_ctx is None else target_ctx.serving_bs)
        plan = self._plans.get(key)
        if plan is None:
            chain = self._session_chain(requester, target)
            plan = self._plans[key] = _Plan(None) if chain is None else self._session_plan(chain)
        return plan

    def _attempt_loop(self, period: float, deadline: float, plan: Sequence[_Segment],
                      held: dict, on_herald: Callable[[_Segment, float], object]):
        """Generator: herald plan's segments by deadline; (slots run, CoverageError or None).

        The one herald loop, of sessions, GHZ resources and bridges.  A slot
        lasts min(period, deadline - now), so the last one ends at the
        deadline, and no attempt is made once now >= deadline.  Each slot is
        activity for the UEs among the holders, then calls _herald once per
        segment missing from held, in plan order; segment i heralding w sets
        held[i] = on_herald(segment, w).  The caller's held keeps what was
        heralded when the loop ends at the deadline or on a CoverageError,
        which is returned so that the slot count survives it.
        """
        served = [ctx for seg in plan for ctx in self._holder(seg.holders).ues]
        slots = 0
        while len(held) < len(plan) and self.sim.now < deadline:
            yield (min(period, max(deadline - self.sim.now, 1e-12)),
                   EventKind.ENTANGLEMENT_ATTEMPT)
            now = self.sim.now
            if now >= deadline:
                break
            slots += 1
            for ctx in served:
                ctx.last_activity = max(ctx.last_activity, now)
            for i, seg in enumerate(plan):
                if i not in held:
                    try:
                        w = self._herald(seg)
                    except CoverageError as lost:
                        return slots, lost
                    if w is not None:
                        held[i] = on_herald(seg, w)
        return slots, None

    def entanglement_session(self, request: EntanglementRequest):
        """Generator returning a SessionResult.

        Step 1 is the classical request, step 2 repeats generation attempts
        every attempt period, step 3 is the classical ACK.  Pairs must meet
        request.min_fidelity at ACK time or they are discarded.  When too
        few survive and the latency budget is not spent, one regeneration
        round repeats steps 2 and 3 with the survivors kept.  A session whose
        chain cannot reach request.min_fidelity even with no storage time is
        rejected before step 1, with no message and no draw.
        """
        t_start = self.sim.now
        requester = request.requester
        target = request.target
        ctx = self.ue(requester)

        def reject(reason: str) -> SessionResult:
            records.session_rejected(self.sim.trace, self.sim.now, requester, reason=reason)
            self.sim.metrics.incr("sessions_rejected")
            return SessionResult(
                outcome=SessionOutcome.REJECTED, delivered=(),
                elapsed_s=self.sim.now - t_start, reason=reason,
            )

        if ctx.state not in (QueState.CONNECTED, QueState.ENTANGLED):
            return reject(f"requester-state-{ctx.state.value}")
        target_ctx = self.ues.get(target)
        if target_ctx is not None and target_ctx.state == QueState.INACTIVE:
            return reject("target-state-Inactive")
        bs_a = ctx.serving_bs
        if bs_a is None or self.topo.nodes[bs_a].kind not in (NodeKind.QBS, NodeKind.SAT_QBS):
            return reject("serving-bs-not-quantum")
        chain, plan, setup, period, w_max = self._plan(requester, target, bs_a, target_ctx)
        if chain is None:
            return reject("no-delivery-chain")
        if plan is None:
            return reject("missing-quantum-link")
        if not self.topo.in_quantum_coverage(requester, bs_a, self.sim.now):
            return reject("requester-outside-quantum-cell")
        # A herald delivers the product of its legs' w0, a swap multiplies
        # its inputs' w and storage only lowers it: no pair of this chain
        # can beat the product over every leg.
        if not _meets_fidelity(w_max, request.min_fidelity):
            return reject("fidelity-unreachable")

        records.session_start(self.sim.trace, self.sim.now, requester, target=target,
                              count=request.count, chain="+".join(chain))
        ok = yield from self.send_message((requester, bs_a), "request")
        if not ok:
            return reject("request-undeliverable")
        ok = yield from self.send_message(setup, "request")
        if not ok:
            return reject("setup-undeliverable")

        deadline = t_start + request.max_latency_s

        survivors: list[WernerPair] = []
        held: dict[int, WernerPair] = {}  # segment pairs by plan index
        attempts = 0
        discarded_below = 0
        aborted = ""

        # The first pass, then at most one regeneration round that keeps the
        # survivors of the first screen and generates against the same deadline.
        for _ in range(2):
            delivered = survivors
            while len(delivered) < request.count:
                slots, lost = yield from self._attempt_loop(period, deadline, plan, held,
                                                            self._register_pair)
                attempts += slots
                if lost is not None:
                    aborted = "coverage-lost"
                    records.session_coverage_lost(self.sim.trace, self.sim.now, requester,
                                                  detail=str(lost))
                if len(held) < len(plan):
                    break
                pair_id = yield from self._swap_chain(
                    [held.pop(i).id for i in range(len(plan))], chain)
                if pair_id is not None:
                    delivered.append(self.ledger.resources[pair_id])

            # Step 3: ACK, then the freshness screen at ACK time.
            yield from self.send_message((requester, bs_a), "ack")
            survivors = list(self._screen(delivered, request.min_fidelity))
            discarded_below += len(delivered) - len(survivors)
            for leftover in held.values():
                self.discard_pair(leftover.id, "segment-unused")
            held.clear()
            if aborted or len(survivors) >= request.count or self.sim.now >= deadline:
                break

        if survivors and not self.topo.in_classical_coverage(
                requester, bs_a, self.sim.now):
            # the confirmation was in flight when coverage lapsed (orbit
            # windows can close mid-message), so nothing was handed over
            records.session_coverage_lost(self.sim.trace, self.sim.now, requester,
                                          detail=f"ack finished outside {bs_a} coverage")
            for pair in survivors:
                self.discard_pair(pair.id, "coverage-lost-at-ack")
            survivors = []
            aborted = aborted or "coverage-lost-at-ack"

        for pair in survivors:
            self._hand_over(pair)

        elapsed = self.sim.now - t_start
        if len(survivors) >= request.count:
            outcome = SessionOutcome.FULFILLED
        elif survivors:
            outcome = SessionOutcome.PARTIALLY_FULFILLED
        else:
            outcome = SessionOutcome.EXPIRED
        result = SessionResult(
            outcome=outcome,
            delivered=tuple(p.id for p in survivors),
            elapsed_s=elapsed,
            discarded_below_threshold=discarded_below,
            attempts=attempts,
            reason=aborted,
        )
        self.sim.metrics.incr(f"sessions_{outcome.value}")
        self.sim.metrics.observe("session_latency_s", elapsed, unit="s")
        records.session_end(self.sim.trace, self.sim.now, requester, outcome=outcome.value,
                            delivered=len(survivors), requested=request.count,
                            discarded=discarded_below, elapsed=round(elapsed, 9))
        return result

    # ------------------------------------------------------------------
    # GHZ distribution
    # ------------------------------------------------------------------

    def ghz_session(self, bs_id: str, holders: Sequence[str], max_latency_s: float):
        """Generator: distribute one GHZ resource from bs_id to the holders.

        Each attempt slot of _attempt_loop is one joint heralding over every
        leg (see _herald).  Returns the resource id, or None when the latency
        budget runs out or a holder leaves quantum coverage.
        """
        holders = tuple(holders)
        if len(holders) < 2:
            raise ProtocolError("a GHZ resource needs at least two parties")
        legs = []
        for h in holders:
            link = self.topo.quantum_link(bs_id, h)
            if link is None:
                raise ProtocolError(f"no quantum link {bs_id}-{h}")
            legs.append(link)
        period = max(l.attempt_period_s for l in legs)
        held: dict[int, GhzResource] = {}
        _, lost = yield from self._attempt_loop(
            period, self.sim.now + max_latency_s, (self._segment(bs_id, legs, holders),),
            held, self._register_ghz)
        if lost is not None:
            records.ghz_coverage_lost(self.sim.trace, self.sim.now, bs_id, detail=str(lost))
        return held[0].id if held else None

    def _register_ghz(self, seg: _Segment, w: float) -> GhzResource:
        """The GHZ resource seg heralded with w, handed over to its holders."""
        ghz = GhzResource(id=self.ledger.new_id(), holders=seg.holders, w=w,
                          created_at=self.sim.now)
        self.ledger.register(ghz)
        self._hand_over(ghz)
        self.sim.metrics.incr("ghz_created")
        records.ghz_created(self.sim.trace, self.sim.now, seg.source, id=ghz.id,
                            holders="+".join(seg.holders), w=round(w, 9))
        return ghz

    # ------------------------------------------------------------------
    # Teleportation
    # ------------------------------------------------------------------

    def new_payload(self, location: str, state: Optional[PureState] = None) -> QubitToken:
        self._payload_counter += 1
        return QubitToken(id=f"q{self._payload_counter:04d}", location=location, state=state)

    def teleport(self, payload: QubitToken, pair_id: str):
        """Generator: consume the pair, then deliver the 2-bit correction.

        The sender's copy is destroyed by the Bell measurement no matter
        what happens to the classical message afterwards.  With the exact
        payload model the output state is computed by teleporting through a
        Bell state sampled from the pair's Werner mixture.
        """
        if payload.destroyed:
            raise PermanentLossError(f"payload {payload.id} was already destroyed")
        pair = self.ledger.live(pair_id)
        if not isinstance(pair, WernerPair):
            raise ResourceError("teleport needs a bipartite pair")
        if payload.location not in pair.holders:
            raise ResourceError(
                f"payload at {payload.location} but pair spans {pair.holders}"
            )
        t0 = self.sim.now
        sender = payload.location
        (receiver,) = [h for h in pair.holders if h != sender]
        consumed = self.consume_pair(pair_id, "teleport")
        w_use = consumed.w
        rng = self.sim.rng_stream(sender, "measurement")
        input_state = payload.state
        out_state: Optional[PureState] = None
        if input_state is not None:
            out_state = _teleport_exact(input_state, w_use, rng)
        payload.state = None
        payload.destroyed = True  # Bell measurement eats the sender copy.
        ok = yield from self.send_routed(sender, receiver, "correction")
        elapsed = self.sim.now - t0
        if not ok:
            records.teleport_lost(self.sim.trace, self.sim.now, sender, payload=payload.id,
                                  pair=pair_id)
            self.sim.metrics.incr("teleport_lost")
            return TeleportResult(delivered=False, fidelity=0.0,
                                  elapsed_s=elapsed, pair_id=pair_id)
        if out_state is not None:
            fidelity = qcore.state_fidelity(input_state, out_state)
            new_token_state: Optional[PureState] = out_state
        else:
            fidelity = fidelity_of(w_use)
            new_token_state = None
        payload.destroyed = False
        payload.location = receiver
        payload.state = new_token_state
        records.teleport(self.sim.trace, self.sim.now, sender, payload=payload.id,
                         pair=pair_id, fidelity=round(fidelity, 12))
        self.sim.metrics.incr("teleport_ok")
        return TeleportResult(delivered=True, fidelity=fidelity,
                              elapsed_s=elapsed, pair_id=pair_id)

    # ------------------------------------------------------------------
    # Handover
    # ------------------------------------------------------------------

    def handover(self, ue_id: str, bs_new: str, mode: HandoverMode):
        """Generator: move the UE to bs_new, migrating its buffered pairs.

        The pairs migrated are the UE's buffered pairs with bs_old (see
        _buffered), read through _screen at f_min at each use, since they
        decay and another process may consume them meanwhile.  Soft mode
        heralds at most one bs_old-bs_new bridge per pair buffered when the
        handover starts, and none once no pair passes the screen; each
        bridge is swapped at bs_old with the first pair still buffered, so
        end-to-end entanglement survives, and is discarded unused when that
        pair was consumed while the bridge heralded.  The swapped pair is
        screened before the UE holds it.  Hard mode discards the pairs still
        buffered and tops up at bs_new with acquire_pairs for every pair the
        handover moves, migrated so far or released.  Both get
        HANDOVER_BUDGET_S: every bridge must herald by its end, and it is
        the top-up session's latency budget.  Soft falls back to hard, with
        a trace warning, when the bridge link does not exist, and for the
        pairs not yet bridged when the budget runs out or a bridge station
        leaves quantum reach.  A handover that cannot start (no serving
        station, bs_new serves the UE already, or the UE is outside its
        classical coverage) writes a handover-rejected record; it returns None.
        """
        ctx = self.ue(ue_id)
        bs_old = ctx.serving_bs
        refused = ("not-attached" if bs_old is None
                   else "already-served" if bs_new == bs_old
                   else None if self.topo.in_classical_coverage(ue_id, bs_new, self.sim.now)
                   else "outside-classical-coverage")
        if refused:
            records.handover_rejected(self.sim.trace, self.sim.now, ue_id, frm=bs_old,
                                      to=bs_new, reason=refused)
            self.sim.metrics.incr("handover_rejected")
            return None
        f_min = self.defaults.f_min
        requested = mode
        bridge_link = self.topo.quantum_link(bs_old, bs_new)
        bridgeable = (bridge_link is not None
                      and frozenset((bs_old, bs_new)) in self.topo.repeater_edges)
        if mode == HandoverMode.SOFT and not bridgeable:
            records.warn_soft_infeasible(self.sim.trace, self.sim.now, ue_id,
                                         bs_old=bs_old, bs_new=bs_new)
            mode = HandoverMode.HARD

        bridges = len(self._buffered(ue_id, bs_old))
        yield from self.send_message((bs_old, ue_id), "handover")
        yield from self.send_message((ue_id, bs_new), "handover")

        migrated: list[str] = []
        downtime = 0.0
        session_result: Optional[SessionResult] = None
        if mode == HandoverMode.SOFT:
            deadline = self.sim.now + HANDOVER_BUDGET_S
            for _ in range(bridges):
                if not list(self._screen(self._buffered(ue_id, bs_old), f_min)):
                    break
                bridge, lost = yield from self._bridge(bs_old, bs_new, bridge_link, deadline)
                if bridge is None:
                    failure = (f"no bridge heralded within {HANDOVER_BUDGET_S} s"
                               if lost is None else str(lost))
                    records.warn_bridge_failed(self.sim.trace, self.sim.now, ue_id,
                                               bs_old=bs_old, bs_new=bs_new, detail=failure,
                                               pairs=len(self._buffered(ue_id, bs_old)))
                    mode = HandoverMode.HARD
                    break
                buffered = self._buffered(ue_id, bs_old)
                if not buffered:
                    self.discard_pair(bridge.id, "segment-unused")
                    break
                t_swap = self.sim.now
                out_id = yield from self._swap_chain((buffered[0].id, bridge.id),
                                                     (ue_id, bs_old, bs_new))
                downtime += self.sim.now - t_swap  # correction in flight
                if out_id is not None:
                    for pair in self._screen((self.ledger.resources[out_id],), f_min):
                        self._hand_over(pair)
                        migrated.append(pair.id)
            ctx.serving_bs = bs_new
        if mode == HandoverMode.HARD:
            t_gap0 = self.sim.now
            was_entangled = ctx.state == QueState.ENTANGLED
            released = self._buffered(ue_id, bs_old)
            for pair in released:
                self.discard_pair(pair.id, "handover-released")
            ctx.serving_bs = bs_new
            if released:
                migrated, session_result = yield from self.acquire_pairs(
                    ue_id, bs_new, len(migrated) + len(released), f_min,
                    HANDOVER_BUDGET_S)
                if was_entangled:
                    downtime += self.sim.now - t_gap0

        records.handover(self.sim.trace, self.sim.now, ue_id, frm=bs_old, to=bs_new,
                         mode=mode.value, fell_back=requested != mode,
                         migrated=len(migrated), downtime=round(downtime, 9))
        self.sim.metrics.incr(f"handover_{mode.value}")
        return HandoverResult(
            mode_requested=requested, mode_used=mode, fell_back=requested != mode,
            downtime_s=downtime, migrated=tuple(migrated), session=session_result,
        )

    def _bridge(self, bs_old: str, bs_new: str, link: QuantumLinkSpec, deadline: float):
        """Generator: herald one bs_old-bs_new bridge pair by deadline.

        Returns (pair or None, the CoverageError that ended the loop or
        None).  The slots are those of _attempt_loop; the pair is held by
        two stations, so they touch no UE's activity.
        """
        held: dict[int, WernerPair] = {}
        _, lost = yield from self._attempt_loop(
            link.attempt_period_s, deadline,
            (self._segment(bs_old, (link,), (bs_old, bs_new), "bridge"),),
            held, self._register_pair)
        return held.get(0), lost

    # ------------------------------------------------------------------
    # Pair buffer and distribution policies
    # ------------------------------------------------------------------

    def _buffered(self, ue_id: str, bs_id: str) -> list[WernerPair]:
        """The UE's stored pairs held by exactly ue_id and bs_id, by id."""
        pairs = []
        for rid in sorted(self.ue(ue_id).stored):
            res = self.ledger.live(rid)
            if isinstance(res, WernerPair) and set(res.holders) == {ue_id, bs_id}:
                pairs.append(res)
        return pairs

    def _screen(self, pairs: Iterable[WernerPair], min_fidelity: float) -> Iterator[WernerPair]:
        """Age each pair in turn: yield it if it meets min_fidelity, else discard it.

        The one fidelity screen: the session's ACK, acquire_pairs and the
        soft handover use it.  Lazy, so a caller that stops early leaves
        the remaining pairs unaged and unscreened.
        """
        for pair in pairs:
            if _meets_fidelity(self.age_pair(pair), min_fidelity):
                yield pair
            else:
                self.discard_pair(pair.id, "below-threshold")

    def acquire_pairs(self, ue_id: str, bs_id: str, count: int, min_fidelity: float,
                      max_latency_s: float):
        """Generator: the one top-up of the UE's buffer of pairs with bs_id.

        Takes up to count buffered pairs that pass _screen, then connects the
        UE and opens one session for the shortfall.  Apps, the provisioner
        and the hard handover all call it.  Returns (pair_ids, session or None).
        """
        taken = [pair.id for pair in
                 islice(self._screen(self._buffered(ue_id, bs_id), min_fidelity), count)]
        deficit = count - len(taken)
        result: Optional[SessionResult] = None
        if deficit > 0:
            ok = yield from self.ensure_connected(ue_id, bs_id)
            if ok:
                request = EntanglementRequest(
                    requester=ue_id, target=bs_id,
                    count=deficit, max_latency_s=max_latency_s,
                    min_fidelity=min_fidelity,
                )
                result = yield from self.entanglement_session(request)
                taken.extend(result.delivered)
        return taken, result

    def start_policy(self, policy: PolicySpec) -> None:
        """Launch the distribution policy.

        Reactive does nothing ahead of requests.  Proactive runs one
        provisioner per (bs, ue) target that, every check_period_s while bs
        is in view, no other station serves ue and ue is in bs's quantum
        disk, tops ue's buffer of bs pairs up to buffer_target with
        acquire_pairs.  It wakes at pass starts predicted by orbit_next_window.
        """
        if policy.mode == PolicyMode.REACTIVE:
            return
        f_min = self.defaults.f_min if policy.min_fidelity is None else policy.min_fidelity
        for bs_id, ue_id in policy.targets:
            self.sim.spawn(self._provisioner(bs_id, ue_id, policy.buffer_target,
                                             policy.check_period_s, f_min),
                           kind=EventKind.DECOHERENCE_CHECK)

    def _provisioner(self, bs_id: str, ue_id: str, buffer_target: int,
                     check_period_s: float, f_min: float):
        bs, ctx = self.topo.nodes[bs_id], self.ue(ue_id)
        while True:
            if not bs.available_at(self.sim.now):
                start, _ = orbit_next_window(bs.mobility, self.sim.now)
                records.provision_wait_pass(self.sim.trace, self.sim.now, bs_id, ue=ue_id,
                                            pass_start=start)
                yield (max(start - self.sim.now, 0.0), EventKind.TIMER)
            if (ctx.serving_bs in (None, bs_id)
                    and self.topo.in_quantum_coverage(ue_id, bs_id, self.sim.now)):
                _, result = yield from self.acquire_pairs(
                    ue_id, bs_id, buffer_target, f_min, max(check_period_s, 0.1))
                if result is not None and result.delivered:
                    records.provision(self.sim.trace, self.sim.now, bs_id, ue=ue_id,
                                      delivered=len(result.delivered))
            yield (check_period_s, EventKind.DECOHERENCE_CHECK)


def _teleport_exact(state: PureState, w: float, rng) -> PureState:
    """Teleport one qubit through a pair whose Bell label is sampled from w.

    A pair with label (x, z) leaves the corrected payload as Z^z X^x psi, up
    to a global phase, whatever the sender's two Bell-measurement outcomes
    (Bennett et al., PRL 70, 1895, 1993).  Those outcomes are uniform and
    are still drawn, one uniform each, as the circuit measures them.
    """
    x, z = qcore.sample_bell_label(w, rng)
    rng.random()
    rng.random()
    a0, a1 = state.amplitudes
    if x:
        a0, a1 = a1, a0
    return PureState((a0, -a1 if z else a1))
