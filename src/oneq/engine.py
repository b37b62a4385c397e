"""Deterministic discrete-event kernel.

Events are ordered by (time, insertion sequence), so simultaneous events
fire in schedule order and a scenario plus a seed fully pins the run.
Protocol logic runs as generator processes that yield the delay until their
next step.  A step due within the current run_until horizon and strictly
before every queued event is the one the queue would hand out next, so the
process continues at once, without a trip through the queue; a step due at
the same instant as a queued event runs after it, as its later sequence
number says, and every other step is queued.

Randomness is drawn from named substreams, one per (master seed, node id,
purpose), which keeps every node's draws independent of scheduling jitter
elsewhere.  A substream is the standard library's Mersenne Twister seeded
with the sha256 digest of those three, so it needs nothing outside the
standard library, and Python's promise that random() repeats for a seed
makes its draws the same on every supported version.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Generator, Optional, Sequence

__all__ = [
    "EventKind",
    "RngStream",
    "Trace",
    "Metrics",
    "Simulator",
    "TimingEval",
    "eval_timing",
]


class EventKind(str, Enum):
    MESSAGE_DELIVERY = "message-delivery"
    ENTANGLEMENT_ATTEMPT = "entanglement-attempt"
    DECOHERENCE_CHECK = "decoherence-check"
    TIMER = "timer"
    APP_STEP = "app-step"


_BLOCK_LINES = 256


class Trace:
    """Append-only run log; one record per domain happening.

    Each record is kept once, as its canonical JSON line: keys t, node,
    kind, details in that order, detail keys sorted, compact separators.
    Lines are held as text, every _BLOCK_LINES of them joined into one
    block, and to_jsonl joins the blocks once and keeps the result as the
    only block, so the returned text and the trace share one copy.
    """

    def __init__(self) -> None:
        self._blocks: list[str] = []
        self._tail: list[str] = []
        self._count = 0

    def emit(self, t: float, node: str, kind: str, **details: Any) -> None:
        """Write one record; the reference encoder for the writers of oneq.records."""
        self._add(json.dumps({"t": t, "node": node, "kind": kind,
                              "details": {k: details[k] for k in sorted(details)}},
                             separators=(",", ":"), allow_nan=False) + "\n")

    def _add(self, line: str) -> None:
        """Append one encoded line; every _BLOCK_LINES lines are joined into a block."""
        tail = self._tail
        tail.append(line)
        self._count += 1
        if len(tail) == _BLOCK_LINES:
            self._blocks.append("".join(tail))
            tail.clear()

    def __iter__(self):
        for block in self._blocks + ["".join(self._tail)]:
            yield from map(json.loads, block.splitlines())

    def __len__(self) -> int:
        return self._count

    def to_jsonl(self) -> str:
        text = "".join(self._blocks + self._tail)
        self._blocks = [text]
        self._tail.clear()
        return text


def _percentile(ordered: Sequence[float], p: float) -> float:
    """The p-th percentile of sorted values free of NaN, by np.percentile's
    linear rule: virtual index (n-1)*p/100, interpolated from the upper
    neighbour when its fraction is at least 0.5, and clamped at the last value.
    """
    n = len(ordered)
    v = (n - 1) * (p / 100)
    if v >= n - 1:
        lo, hi, gamma = n - 1, n - 1, v + 1
    else:
        lo = math.floor(v)
        hi, gamma = lo + 1, v - lo
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


class Metrics:
    """Named counters, gauges, and sample series collected during a run."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.series: dict[str, list[float]] = {}
        self._units: dict[str, str] = {}

    def incr(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float, unit: str = "") -> None:
        self.gauges[name] = float(value)
        self._units[name] = unit

    def observe(self, name: str, value: float, unit: str = "") -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"series {name} cannot hold NaN")
        if name not in self.series:  # the first sample registers the series; the first unit stays
            self.series[name] = []
            self._units.setdefault(name, unit)
        self.series[name].append(value)

    def to_rows(self, run_id: str, seed: int) -> list[tuple]:
        """Rows (run_id, seed, metric, value, unit), sorted by metric name."""
        rows: list[tuple] = []
        for name, value in self.counters.items():
            rows.append((run_id, seed, name, value, "count"))
        for name, value in self.gauges.items():
            rows.append((run_id, seed, name, value, self._units.get(name, "")))
        for name, values in self.series.items():
            unit = self._units.get(name, "")
            n = len(values)
            ordered = sorted(values)
            mean = math.fsum(values) / n
            stats = {
                "count": float(n),
                "mean": mean,
                "std": math.sqrt(math.fsum((v - mean) * (v - mean) for v in values) / n),
                "min": ordered[0],
                "p50": _percentile(ordered, 50),
                "p90": _percentile(ordered, 90),
                "max": ordered[-1],
            }
            for suffix, value in stats.items():
                rows.append((run_id, seed, f"{name}.{suffix}", value,
                             "count" if suffix == "count" else unit))
        rows.sort(key=lambda row: row[2])
        return rows


class RngStream(random.Random):
    """A Mersenne Twister keyed by one integer, drawn only through random()
    and getrandbits().

    Python keeps the random() sequence of a seed the same across versions;
    randrange, choice, shuffle and the distribution methods carry no such
    promise, so integers and permutation are built here on getrandbits.
    """

    def integers(self, low: int, high: int) -> int:
        """A uniform int in [low, high): one getrandbits(k) draw, redrawn
        while it falls outside the range."""
        n = high - low
        if n < 1:
            raise ValueError(f"empty range [{low}, {high})")
        k = (n - 1).bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return low + r

    def permutation(self, n: int) -> list[int]:
        """range(n) shuffled by Fisher-Yates, each swap drawn with integers."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integers(0, i + 1)
            items[i], items[j] = items[j], items[i]
        return items


class Simulator:
    """Event queue, clock, trace, metrics, and derived RNG substreams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.now = 0.0
        self.trace = Trace()
        self.metrics = Metrics()
        self.events_processed = 0
        self._kind_counts = dict.fromkeys(sorted(EventKind), 0)  # str order: by value
        self._heap: list[tuple[float, int, EventKind, Callable[[], None]]] = []
        self._next_seq = 0
        self._horizon = -math.inf  # t_end of the run_until call in progress
        self._streams: dict[tuple[str, str], RngStream] = {}

    # -- randomness ---------------------------------------------------------

    def rng_stream(self, node_id: str, purpose: str) -> RngStream:
        """The stream keyed by sha256(seed|node|purpose), read as one integer.

        Repeated calls return the same stream object, so draws continue
        where they left off; a fresh simulator with the same seed replays
        the identical sequence.
        """
        stream = self._streams.get((node_id, purpose))
        if stream is None:
            digest = hashlib.sha256(
                f"{self.seed}|{node_id}|{purpose}".encode("utf-8")
            ).digest()
            stream = self._streams[node_id, purpose] = RngStream(
                int.from_bytes(digest, "big"))
        return stream

    # -- scheduling ---------------------------------------------------------

    def schedule_call(
        self,
        delay: float,
        fn: Callable[[], None],
        kind: EventKind = EventKind.TIMER,
    ) -> None:
        """Run fn after delay.  kind labels the event in events_by_kind."""
        if delay < 0.0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        heapq.heappush(self._heap, (self.now + delay, self._alloc_seq(), kind, fn))

    def _alloc_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # -- processes ----------------------------------------------------------

    def spawn(
        self,
        gen: Generator,
        delay: float = 0.0,
        kind: EventKind = EventKind.APP_STEP,
        on_done: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Run a generator as a process.

        The generator yields either a float delay or a (delay, EventKind)
        pair; the process resumes after that simulated time.  Its return
        value, if any, is handed to on_done.
        """
        self.schedule_call(delay, lambda: self._resume(gen, on_done), kind)

    def _resume(self, gen: Generator, on_done: Optional[Callable[[Any], None]]) -> None:
        heap, counts, send = self._heap, self._kind_counts, gen.send
        while True:
            try:
                item = send(None)
            except StopIteration as stop:
                if on_done is not None:
                    on_done(stop.value)
                return
            if isinstance(item, tuple):
                delay, kind = item
            else:
                delay, kind = item, EventKind.TIMER
            if delay < 0.0:
                raise ValueError(f"process yielded a negative delay {delay}")
            delay = float(delay)
            t = self.now + delay
            if not (t <= self._horizon and (not heap or t < heap[0][0])):
                self.schedule_call(delay, lambda: self._resume(gen, on_done), kind)
                return
            # The queue would hand this step out next: run it now.
            self.now = t
            self.events_processed += 1
            counts[kind] += 1

    # -- execution ----------------------------------------------------------

    def run_until(self, t_end: float) -> tuple[Metrics, Trace]:
        """Execute every queued event with time <= t_end, in (time, seq) order."""
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} precedes current time {self.now}")
        self._horizon = t_end
        heap, counts = self._heap, self._kind_counts
        while heap and heap[0][0] <= t_end:
            self.now, _, kind, fn = heapq.heappop(heap)
            self.events_processed += 1
            counts[kind] += 1
            fn()
        self.now = max(self.now, t_end)
        return self.metrics, self.trace

    @property
    def events_by_kind(self) -> dict[str, int]:
        """Dispatched events per EventKind value, sorted by value."""
        return {kind.value: n for kind, n in self._kind_counts.items()}

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def drop_pending(self) -> None:
        """Forget every queued event, closing the processes they would resume.

        A finished run calls this so that nothing refers back to the run and
        reference counting alone frees it.
        """
        self._heap.clear()


# ---------------------------------------------------------------------------
# Joint timing/coherence evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimingEval:
    """eval_timing's result: the joint probability and the curves behind it."""

    budget: float
    joint: float
    p_latency: float
    mean_survival: float
    latency_curve: tuple[tuple[float, float], ...]
    survival_curve: tuple[tuple[float, float], ...]


def eval_timing(
    latency_samples: Sequence[float],
    coherence_survival: Callable[[float], float],
    budget: float,
) -> TimingEval:
    """Joint probability that delivery makes the deadline and stays coherent.

    joint = E[ 1{L <= budget} * S(L) ] over the latency samples L, where
    S(t) is the probability the resource is still usable after being held
    for t seconds.  Because both factors are nonincreasing in L, the joint
    always lies between the product of the marginals and their minimum.
    """
    samples = [float(t) for t in latency_samples]
    if not samples:
        raise ValueError("eval_timing needs at least one latency sample")
    if not all(t >= 0.0 for t in samples):
        raise ValueError("latency samples must be nonnegative")
    if budget < 0.0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    survival = [float(coherence_survival(t)) for t in samples]
    if any(s < -1e-12 or s > 1.0 + 1e-12 for s in survival):
        raise ValueError("coherence_survival must map into [0, 1]")
    survival = [min(max(s, 0.0), 1.0) for s in survival]
    n = len(samples)
    joint = math.fsum(s for t, s in zip(samples, survival) if t <= budget) / n
    p_latency = sum(t <= budget for t in samples) / n
    mean_survival = math.fsum(survival) / n

    ordered = sorted(samples)
    if n > 512:
        grid = {_percentile(ordered, 100.0 * i / 512) for i in range(513)}
    else:
        grid = set(ordered)
    grid = sorted(grid | {float(budget)})
    latency_curve = tuple((t, bisect.bisect_right(ordered, t) / n) for t in grid)
    survival_curve = tuple(
        (t, min(max(float(coherence_survival(t)), 0.0), 1.0)) for t in grid
    )
    return TimingEval(
        budget=float(budget),
        joint=joint,
        p_latency=p_latency,
        mean_survival=mean_survival,
        latency_curve=latency_curve,
        survival_curve=survival_curve,
    )
