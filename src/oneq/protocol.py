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

from . import qcore
from .engine import EventKind, Simulator
from .errors import CoverageError, PermanentLossError, ProtocolError, ResourceError
from .netmodel import (
    BS_KINDS,
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
    outcome: SessionOutcome
    delivered: tuple[str, ...]
    elapsed_s: float
    discarded_below_threshold: int = 0
    attempts: int = 0
    reason: str = ""


@dataclass
class HandoverResult:
    mode_requested: HandoverMode
    mode_used: HandoverMode
    fell_back: bool
    downtime_s: float
    migrated: tuple[str, ...]
    session: Optional[SessionResult] = None


@dataclass
class TeleportResult:
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
        object.__setattr__(self, "message_bits", {**MESSAGE_BITS, **self.message_bits})


# Simulated seconds a handover may spend provisioning entanglement at the
# new station: the soft bridge must herald within it, and a hard handover's
# replacement session has it as its latency budget.
HANDOVER_BUDGET_S = 5.0


class ResourceLedger:
    """Lifecycle and memory-slot accounting for every entangled resource."""

    def __init__(self, topo: Topology):
        self.topo = topo
        self.resources: dict[str, WernerPair | GhzResource] = {}
        self.state: dict[str, str] = {}
        self.reason: dict[str, str] = {}
        self._slots_used: dict[str, int] = {}
        self._counter = 0

    def new_id(self) -> str:
        self._counter += 1
        return f"p{self._counter:06d}"

    def slots_free(self, node_id: str) -> int:
        return self.topo.nodes[node_id].memory_slots - self._slots_used.get(node_id, 0)

    def can_store(self, holders: Iterable[str]) -> bool:
        return all(self.slots_free(h) >= 1 for h in holders)

    def register(self, resource: WernerPair | GhzResource) -> None:
        if resource.id in self.resources:
            raise ResourceError(f"duplicate resource id {resource.id}")
        if not self.can_store(resource.holders):
            raise ResourceError(f"no free memory slot for {resource.id} at {resource.holders}")
        for h in resource.holders:
            self._slots_used[h] = self._slots_used.get(h, 0) + 1
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
            self._slots_used[h] -= 1
        return res

    def live_ids(self) -> list[str]:
        return [rid for rid, st in self.state.items() if st == "live"]


@dataclass
class QueContext:
    node_id: str
    state: QueState = QueState.IDLE
    serving_bs: Optional[str] = None
    stored: set = field(default_factory=set)
    last_activity: float = 0.0


class _Segment(NamedTuple):
    """One pair a session heralds: every leg from source in the same slot."""

    source: str
    legs: tuple[QuantumLinkSpec, ...]
    holders: tuple[str, str]
    via: str


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

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def ue(self, node_id: str) -> QueContext:
        ctx = self.ues.get(node_id)
        if ctx is None:
            raise ProtocolError(f"{node_id} is not user equipment")
        return ctx

    def _set_state(self, ctx: QueContext, new_state: QueState, reason: str) -> None:
        if new_state == ctx.state:
            return
        if new_state not in _ALLOWED_TRANSITIONS[ctx.state]:
            raise ProtocolError(
                f"{ctx.node_id}: illegal transition {ctx.state.value} -> {new_state.value}"
            )
        old = ctx.state
        ctx.state = new_state
        self.sim.trace.emit(
            self.sim.now, ctx.node_id, "state-transition",
            frm=old.value, to=new_state.value, reason=reason,
        )
        if new_state == QueState.CONNECTED:
            self._touch_activity(self.sim.now, ctx.node_id)
            self._arm_inactivity(ctx, self.defaults.inactivity_timeout_s)

    def _arm_inactivity(self, ctx: QueContext, delay: float) -> None:
        self.sim.schedule_call(delay, partial(self._check_inactivity, ctx), EventKind.TIMER)

    def _check_inactivity(self, ctx: QueContext) -> None:
        if ctx.state is not QueState.CONNECTED:
            return
        remaining = ctx.last_activity + self.defaults.inactivity_timeout_s - self.sim.now
        if remaining <= 1e-12:
            self._set_state(ctx, QueState.INACTIVE, "inactivity-timeout")
        else:
            self._arm_inactivity(ctx, remaining)

    def _touch_activity(self, t: float, *node_ids: str) -> None:
        """Count t as activity for the UEs among node_ids; t may lie ahead."""
        for node_id in node_ids:
            ctx = self.ues.get(node_id)
            if ctx is not None:
                ctx.last_activity = max(ctx.last_activity, t)

    def _maybe_exit_entangled(self, node_id: str) -> None:
        ctx = self.ues.get(node_id)
        if ctx is not None and ctx.state == QueState.ENTANGLED and not ctx.stored:
            self._set_state(ctx, QueState.CONNECTED, "resources-exhausted")

    # ------------------------------------------------------------------
    # Classical messaging
    # ------------------------------------------------------------------

    def bits(self, msg_kind: str) -> float:
        """Size of a message of this kind, from the scenario's defaults."""
        return float(self.defaults.message_bits.get(msg_kind, 256.0))

    def transmit(self, src: str, dst: str, msg_kind: str,
                 bits: Optional[float] = None) -> tuple[bool, float]:
        """One transmission over the direct src-dst link: (delivered, latency).

        Makes the one loss draw from src's classical stream.  No retry, no
        event and no trace record: the caller decides what a loss means and
        when the latency elapses.
        """
        link = self.topo.classical_link(src, dst)
        if link is None:
            raise ProtocolError(f"no classical link {src}-{dst}")
        if bits is None:
            bits = self.bits(msg_kind)
        return classical_send(link, bits, self.sim.rng_stream(src, "classical"))

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
        t0 = self.sim.now
        latency, tx, reason = 0.0, 0, ""
        for src, dst in zip(route, route[1:]):
            if self.topo.classical_link(src, dst) is None:
                reason = "no-link"
                break
            for _ in range(self.defaults.retry_cap):
                if not self.topo.classical_reachable(src, dst, t0 + latency):
                    reason = "no-coverage"
                    break
                delivered, hop_latency = self.transmit(src, dst, msg_kind, bits)
                latency += hop_latency
                tx += 1
                if delivered:
                    break
            else:
                reason = "retries"
            if reason:
                break
            self._touch_activity(t0 + latency, src, dst)
        if tx:
            yield (latency, EventKind.MESSAGE_DELIVERY)
        failure = {"failed_at": src, "reason": reason} if reason else {}
        self.sim.trace.emit(self.sim.now, route[0], "msg", route="+".join(route),
                            msg=msg_kind, delivered=not reason, tx=tx, **failure)
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
        if self.topo.classical_link(src, dst) is not None:
            return [src, dst]
        return self._anchored(src, dst, self.topo.bs_route)

    def send_routed(self, src: str, dst: str, msg_kind: str,
                    bits: Optional[float] = None):
        """Generator: deliver src to dst over classical_route; see send_message."""
        route = self.classical_route(src, dst)
        if route is None:
            self.sim.trace.emit(self.sim.now, src, "msg-no-route", dst=dst, msg=msg_kind)
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
                self.sim.trace.emit(self.sim.now, ue_id, "registration-failed",
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
        return 1.0 / rate

    def age_pair(self, pair: WernerPair) -> float:
        return qcore.touch(pair, self.sim.now, self.effective_t_coh(pair.holders))

    # ------------------------------------------------------------------
    # Resource creation and consumption
    # ------------------------------------------------------------------

    def _herald(self, source: str, legs: Sequence[QuantumLinkSpec],
                parties: Iterable[str]) -> Optional[float]:
        """One heralded attempt slot at source; the delivered w, or None.

        Every leg must herald in the same slot, so the success probability
        is the product of the leg q_attempts and the delivered Werner
        parameter the product of the leg w0s.  A party without a free
        memory slot skips the slot without a draw; a leg out of quantum
        reach raises CoverageError.
        """
        if not self.ledger.can_store(parties):
            return None
        t = self.sim.now
        for link in legs:
            if not self.topo.quantum_reachable(link.a, link.b, t):
                raise CoverageError(
                    f"no quantum coverage between {link.a} and {link.b} at t={t}")
        rng = self.sim.rng_stream(source, "entanglement")
        if rng.random() >= math.prod(link.q_attempt for link in legs):
            return None
        return math.prod(link.w0 for link in legs)

    def _register_pair(self, holders: tuple[str, str], w: float, link_note: str) -> WernerPair:
        t = self.sim.now
        pair = WernerPair(id=self.ledger.new_id(), holders=holders, w=w,
                          created_at=t, last_touched=t)
        self.ledger.register(pair)
        self.sim.metrics.incr("pairs_created")
        for h in pair.holders:
            if self.topo.nodes[h].kind in UE_KINDS:
                self.sim.metrics.incr(f"pairs_created.{h}")
        self.sim.trace.emit(
            self.sim.now, pair.holders[0], "pair-created",
            id=pair.id, holders="+".join(pair.holders), w=round(pair.w, 9),
            via=link_note,
        )
        return pair

    def _hand_over(self, resource: WernerPair | GhzResource) -> None:
        """Store the resource at each UE holder; a Connected holder turns Entangled."""
        for h in resource.holders:
            ctx = self.ues.get(h)
            if ctx is not None:
                ctx.stored.add(resource.id)
                if ctx.state == QueState.CONNECTED:
                    self._set_state(ctx, QueState.ENTANGLED, "session-delivered")

    def _retire(self, resource_id: str, terminal: str, reason: str, record: str = "",
                /, **details) -> WernerPair | GhzResource:
        """The one exit of a live resource: ledger, pairs_<terminal>, UE buffers.

        When record is given, that trace record is written at the first
        holder with the resource id and details.
        """
        res = self.ledger.finish(resource_id, terminal, reason)
        self.sim.metrics.incr(f"pairs_{terminal}")
        for h in res.holders:
            ctx = self.ues.get(h)
            if ctx is not None:
                ctx.stored.discard(resource_id)
        if record:
            self.sim.trace.emit(self.sim.now, res.holders[0], record, id=resource_id, **details)
        return res

    def discard_pair(self, resource_id: str, reason: str) -> None:
        res = self._retire(resource_id, "discarded", reason, "pair-discarded", reason=reason)
        if reason == "below-threshold":
            self.sim.metrics.incr("pairs_discarded_below_threshold")
            for h in res.holders:
                if self.topo.nodes[h].kind in UE_KINDS:
                    self.sim.metrics.incr(f"pairs_discarded_below_threshold.{h}")
        for h in res.holders:
            self._maybe_exit_entangled(h)

    def _corrected(self, pair: WernerPair) -> bool:
        """Whether the pair's correction has arrived, within 1e-12 s."""
        return self.sim.now + 1e-12 >= pair.usable_at

    def consume_pair(self, resource_id: str, purpose: str) -> WernerPair | GhzResource:
        """Terminal consumption; legal only while all UE holders are Entangled."""
        res = self.ledger.live(resource_id)
        if isinstance(res, WernerPair) and not self._corrected(res):
            raise ResourceError(f"pair {res.id} is not usable before its correction arrives")
        holder_states = []
        for h in res.holders:
            ctx = self.ues.get(h)
            if ctx is not None:
                holder_states.append(f"{h}:{ctx.state.value}")
                if ctx.state != QueState.ENTANGLED:
                    raise ProtocolError(
                        f"cannot consume {res.id}: holder {h} is {ctx.state.value}")
        if isinstance(res, WernerPair):
            self.age_pair(res)
            self.sim.metrics.observe("fidelity_at_consumption", fidelity_of(res.w))
        self._retire(resource_id, "consumed", purpose, "pair-consumed", purpose=purpose,
                     holder_states="+".join(holder_states) or "bs-only")
        for h in res.holders:
            self._maybe_exit_entangled(h)
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
            self._retire(rid, "expired", "run-end", "pair-expired")

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
        self.sim.trace.emit(t, repeaters[0], "swap", ins="+".join(pair_ids),
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

    def _session_plan(self, chain: list[str]) -> Optional[list[_Segment]]:
        """The segments a session heralds; None when a quantum link is missing.

        Same-cell UE-to-UE delivery is one dual downlink from the shared
        station; any other chain is one segment per link, sourced at its
        base-station end, swapped together once all are held.
        """
        links = [self.topo.quantum_link(a, b) for a, b in zip(chain, chain[1:])]
        if None in links:
            return None
        kinds = [self.topo.nodes[n].kind for n in chain]
        if len(chain) == 3 and kinds[1] in BS_KINDS and kinds[2] in UE_KINDS:
            return [_Segment(chain[1], tuple(links), (chain[0], chain[2]), f"src:{chain[1]}")]
        via = "direct" if len(links) == 1 else "segment"
        return [_Segment(a if kind in BS_KINDS else b, (link,), (a, b), via)
                for a, b, kind, link in zip(chain, chain[1:], kinds, links)]

    def _attempt_loop(self, period: float, deadline: float, holders: Sequence[str],
                      attempt: Callable[[], object]):
        """Generator: call attempt() once per slot; its first non-None result, or None.

        A slot lasts min(period, deadline - now), so the last one ends at the
        deadline, and no attempt is made once now >= deadline.  Every slot
        counts as activity for the UEs among holders.  An exception from
        attempt() ends the loop and reaches the caller.
        """
        while self.sim.now < deadline:
            yield (min(period, max(deadline - self.sim.now, 1e-12)),
                   EventKind.ENTANGLEMENT_ATTEMPT)
            if self.sim.now >= deadline:
                break
            self._touch_activity(self.sim.now, *holders)
            result = attempt()
            if result is not None:
                return result
        return None

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
            self.sim.trace.emit(self.sim.now, requester, "session-rejected", reason=reason)
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
        chain = self._session_chain(requester, target)
        if chain is None:
            return reject("no-delivery-chain")
        plan = self._session_plan(chain)
        if plan is None:
            return reject("missing-quantum-link")
        if not self.topo.in_quantum_coverage(requester, bs_a, self.sim.now):
            return reject("requester-outside-quantum-cell")
        # A herald delivers the product of its legs' w0, a swap multiplies
        # its inputs' w and storage only lowers it: no pair of this chain
        # can beat the product over every leg.
        w_max = math.prod(link.w0 for seg in plan for link in seg.legs)
        if not _meets_fidelity(w_max, request.min_fidelity):
            return reject("fidelity-unreachable")

        self.sim.trace.emit(self.sim.now, requester, "session-start",
                            target=target, count=request.count,
                            chain="+".join(chain))
        ok = yield from self.send_message((requester, bs_a), "request")
        if not ok:
            return reject("request-undeliverable")
        ok = yield from self.send_message(
            [n for n in chain if self.topo.nodes[n].kind in BS_KINDS], "request")
        if not ok:
            return reject("setup-undeliverable")

        period = max(link.attempt_period_s for seg in plan for link in seg.legs)
        deadline = t_start + request.max_latency_s
        # Every attempt slot counts as activity for every UE the session serves.
        served = [h for seg in plan for h in seg.holders if h in self.ues]

        survivors: list[WernerPair] = []
        segments: dict[int, WernerPair] = {}
        attempts = 0
        discarded_below = 0
        aborted = ""

        def slot() -> Optional[bool]:
            """One heralding attempt per missing segment; True once all are held."""
            nonlocal attempts
            attempts += 1
            for i, seg in enumerate(plan):
                if i not in segments:
                    w = self._herald(seg.source, seg.legs, seg.holders)
                    if w is not None:
                        segments[i] = self._register_pair(seg.holders, w, seg.via)
            return True if len(segments) == len(plan) else None

        # The first pass, then at most one regeneration round that keeps the
        # survivors of the first screen and generates against the same deadline.
        for _ in range(2):
            delivered = survivors
            try:
                while len(delivered) < request.count:
                    held = yield from self._attempt_loop(period, deadline, served, slot)
                    if held is None:
                        break
                    pair_id = yield from self._swap_chain(
                        [segments.pop(i).id for i in range(len(plan))], chain)
                    if pair_id is not None:
                        delivered.append(self.ledger.resources[pair_id])
            except CoverageError as err:
                aborted = "coverage-lost"
                self.sim.trace.emit(self.sim.now, requester, "session-coverage-lost",
                                    detail=str(err))

            # Step 3: ACK, then the freshness screen at ACK time.
            yield from self.send_message((requester, bs_a), "ack")
            survivors = list(self._screen(delivered, request.min_fidelity))
            discarded_below += len(delivered) - len(survivors)
            for leftover in segments.values():
                self.discard_pair(leftover.id, "segment-unused")
            segments.clear()
            if aborted or len(survivors) >= request.count or self.sim.now >= deadline:
                break

        if survivors and not self.topo.in_classical_coverage(
                requester, bs_a, self.sim.now):
            # the confirmation was in flight when coverage lapsed (orbit
            # windows can close mid-message), so nothing was handed over
            self.sim.trace.emit(self.sim.now, requester, "session-coverage-lost",
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
        self.sim.trace.emit(
            self.sim.now, requester, "session-end",
            outcome=outcome.value, delivered=len(survivors),
            requested=request.count, discarded=discarded_below,
            elapsed=round(elapsed, 9),
        )
        return result

    # ------------------------------------------------------------------
    # GHZ distribution
    # ------------------------------------------------------------------

    def ghz_session(self, bs_id: str, holders: Sequence[str], max_latency_s: float = 1.0):
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
        try:
            w = yield from self._attempt_loop(period, self.sim.now + max_latency_s, holders,
                                              partial(self._herald, bs_id, legs, holders))
        except CoverageError as err:
            self.sim.trace.emit(self.sim.now, bs_id, "ghz-coverage-lost", detail=str(err))
            return None
        if w is None:
            return None
        ghz = GhzResource(id=self.ledger.new_id(), holders=holders, w=w,
                          created_at=self.sim.now)
        self.ledger.register(ghz)
        self._hand_over(ghz)
        self.sim.metrics.incr("ghz_created")
        self.sim.trace.emit(self.sim.now, bs_id, "ghz-created",
                            id=ghz.id, holders="+".join(holders), w=round(w, 9))
        return ghz.id

    # ------------------------------------------------------------------
    # Teleportation
    # ------------------------------------------------------------------

    def new_payload(self, location: str, state: Optional[PureState] = None) -> QubitToken:
        if state is not None and state.n_qubits != 1:
            raise ValueError("payload tokens carry exactly one qubit")
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
            self.sim.trace.emit(self.sim.now, sender, "teleport",
                                payload=payload.id, pair=pair_id, delivered=False)
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
        self.sim.trace.emit(self.sim.now, sender, "teleport",
                            payload=payload.id, pair=pair_id, delivered=True,
                            fidelity=round(fidelity, 12))
        self.sim.metrics.incr("teleport_ok")
        return TeleportResult(delivered=True, fidelity=fidelity,
                              elapsed_s=elapsed, pair_id=pair_id)

    # ------------------------------------------------------------------
    # Handover
    # ------------------------------------------------------------------

    def handover(self, ue_id: str, bs_new: str, mode: HandoverMode):
        """Generator: move the UE to bs_new, migrating its buffered pairs.

        The pairs migrated are the UE's buffered pairs with bs_old (see
        _buffered), read again at each use, since another process may
        consume them meanwhile.  Soft mode heralds at most one bs_old-bs_new
        bridge per pair buffered when the handover starts, and none once the
        buffer is empty; each bridge is swapped at bs_old with the first pair
        still buffered, so end-to-end entanglement survives, and is discarded
        unused when that pair was consumed while the bridge heralded.
        Hard mode discards the pairs still buffered and provisions as many
        replacements via a fresh session.  Both get HANDOVER_BUDGET_S:
        every bridge must herald by its end, and the hard session's latency
        budget is it.  Soft falls back to hard, with a trace warning, when
        the bridge link does not exist, and for the pairs not yet bridged
        when the budget runs out or a bridge station leaves quantum reach.
        """
        ctx = self.ue(ue_id)
        bs_old = ctx.serving_bs
        if bs_old is None:
            raise ProtocolError(f"{ue_id} is not attached to any base station")
        if bs_new == bs_old:
            raise ProtocolError(f"{ue_id} is already served by {bs_new}")
        if not self.topo.in_classical_coverage(ue_id, bs_new, self.sim.now):
            raise CoverageError(f"{ue_id} is outside classical coverage of {bs_new}")
        requested = mode
        bridge_link = self.topo.quantum_link(bs_old, bs_new)
        bridgeable = (bridge_link is not None
                      and frozenset((bs_old, bs_new)) in self.topo.repeater_edges)
        if mode == HandoverMode.SOFT and not bridgeable:
            self.sim.trace.emit(self.sim.now, ue_id, "warn",
                                msg="soft-handover-infeasible-falling-back-hard",
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
                if not self._buffered(ue_id, bs_old):
                    break
                try:
                    bridge = yield from self._bridge(bs_old, bs_new, bridge_link, deadline)
                except CoverageError as err:
                    bridge, failure = None, str(err)
                else:
                    failure = f"no bridge heralded within {HANDOVER_BUDGET_S} s"
                if bridge is None:
                    self.sim.trace.emit(self.sim.now, ue_id, "warn",
                                        msg="soft-handover-bridge-failed-falling-back-hard",
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
                    self._hand_over(self.ledger.resources[out_id])
                    migrated.append(out_id)
            ctx.serving_bs = bs_new
        if mode == HandoverMode.HARD:
            t_gap0 = self.sim.now
            was_entangled = ctx.state == QueState.ENTANGLED
            released = self._buffered(ue_id, bs_old)
            for pair in released:
                self.discard_pair(pair.id, "handover-released")
            ctx.serving_bs = bs_new
            if released:
                if ctx.state == QueState.ENTANGLED:
                    self._set_state(ctx, QueState.CONNECTED, "handover-hard")
                request = EntanglementRequest(
                    requester=ue_id, target=bs_new,
                    count=len(released), max_latency_s=HANDOVER_BUDGET_S,
                    min_fidelity=self.defaults.f_min,
                )
                session_result = yield from self.entanglement_session(request)
                migrated.extend(session_result.delivered)
            if released and was_entangled:
                downtime += self.sim.now - t_gap0

        self.sim.trace.emit(self.sim.now, ue_id, "handover",
                            frm=bs_old, to=bs_new, mode=mode.value,
                            fell_back=requested != mode, migrated=len(migrated),
                            downtime=round(downtime, 9))
        self.sim.metrics.incr(f"handover_{mode.value}")
        return HandoverResult(
            mode_requested=requested, mode_used=mode, fell_back=requested != mode,
            downtime_s=downtime, migrated=tuple(migrated), session=session_result,
        )

    def _bridge(self, bs_old: str, bs_new: str, link: QuantumLinkSpec, deadline: float):
        """Generator: herald one bs_old-bs_new bridge pair by deadline; None if none.

        The slots are those of _attempt_loop; the pair is held by two
        stations, so they touch no UE's activity.  CoverageError reaches
        the caller.
        """
        holders = (bs_old, bs_new)
        w = yield from self._attempt_loop(link.attempt_period_s, deadline, holders,
                                          partial(self._herald, bs_old, (link,), holders))
        return None if w is None else self._register_pair(holders, w, "bridge")

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

        The one fidelity screen: the session's ACK, the buffered hand-out
        and the provisioner's refresh all use it.  Lazy, so a caller that
        stops early leaves the remaining pairs unaged and unscreened.
        """
        for pair in pairs:
            if _meets_fidelity(self.age_pair(pair), min_fidelity):
                yield pair
            else:
                self.discard_pair(pair.id, "below-threshold")

    def acquire_pairs(self, ue_id: str, bs_id: str, count: int, min_fidelity: float,
                      max_latency_s: float):
        """Generator: hand out buffered pairs first, then top up via a session.

        Returns (pair_ids, session_result_or_None).
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

    def start_policy(self, mode: PolicyMode, targets: Sequence[tuple[str, str]] = (),
                     buffer_target: int = 1, check_period_s: float = 0.5,
                     min_fidelity: Optional[float] = None) -> None:
        """Launch the distribution policy.

        Reactive does nothing ahead of requests.  Proactive runs one
        provisioner per (bs, ue) target that keeps the ue's buffer of
        bs-entangled pairs at buffer_target, refreshes decohered pairs, and
        wakes at satellite pass starts predicted with orbit_next_window.
        """
        if mode == PolicyMode.REACTIVE:
            return
        f_min = self.defaults.f_min if min_fidelity is None else min_fidelity
        for bs_id, ue_id in targets:
            self.sim.spawn(self._provisioner(bs_id, ue_id, buffer_target,
                                             check_period_s, f_min),
                           kind=EventKind.DECOHERENCE_CHECK)

    def _provisioner(self, bs_id: str, ue_id: str, buffer_target: int,
                     check_period_s: float, f_min: float):
        bs = self.topo.nodes[bs_id]
        while True:
            if not bs.available_at(self.sim.now):
                start, _ = orbit_next_window(bs.mobility, self.sim.now)
                self.sim.trace.emit(self.sim.now, bs_id, "provision-wait-pass",
                                    ue=ue_id, pass_start=start)
                yield (max(start - self.sim.now, 0.0), EventKind.TIMER)
            # Refresh: throw away buffered pairs that decohered below spec.
            held = list(self._screen(self._buffered(ue_id, bs_id), f_min))
            deficit = buffer_target - len(held)
            if deficit > 0:
                connected = yield from self.ensure_connected(ue_id, bs_id)
                if connected and self.topo.in_quantum_coverage(ue_id, bs_id, self.sim.now):
                    request = EntanglementRequest(
                        requester=ue_id, target=bs_id,
                        count=deficit, max_latency_s=max(check_period_s, 0.1),
                        min_fidelity=f_min,
                    )
                    result = yield from self.entanglement_session(request)
                    if result.delivered:
                        self.sim.trace.emit(self.sim.now, bs_id, "provision",
                                            ue=ue_id, delivered=len(result.delivered))
            yield (check_period_s, EventKind.DECOHERENCE_CHECK)


def _teleport_exact(state: PureState, w: float, rng) -> PureState:
    """Run the 3-qubit teleport circuit through a Bell state sampled from w."""
    x, z = qcore.sample_bell_label(w, rng)
    reg = state.tensor(qcore.bell_state(x, z))
    reg = qcore.oracle_apply(reg, "CNOT", (0, 1))
    reg = qcore.oracle_apply(reg, "H", (0,))
    m0, reg = qcore.oracle_measure(reg, 0, qcore.Z_BASIS, rng)
    m1, reg = qcore.oracle_measure(reg, 0, qcore.Z_BASIS, rng)
    if m1:
        reg = qcore.oracle_apply(reg, "X", (0,))
    if m0:
        reg = qcore.oracle_apply(reg, "Z", (0,))
    return reg
