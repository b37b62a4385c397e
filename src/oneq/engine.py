"""Deterministic discrete-event kernel.

Events are ordered by (time, insertion sequence), so simultaneous events
fire in schedule order and a scenario plus a seed fully pins the run.
Protocol logic runs as generator processes that yield the delay until their
next step.  Randomness is drawn from named substreams derived from
(master seed, node id, purpose), which keeps every node's draws independent
of scheduling jitter elsewhere.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "EventKind",
    "Event",
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


@dataclass
class Event:
    time: float
    seq: int
    kind: EventKind
    payload: Callable[[], None]


def _json_value(value: Any) -> str:
    """value as json.dumps(value, separators=(",", ":"), allow_nan=False) writes it.

    Exact str, bool, int and finite float are written directly; anything
    else (subclasses, lists, None, NaN) goes to json.dumps itself.
    """
    cls = type(value)
    if cls is str:
        return _json_str(value)
    if cls is float and math.isfinite(value):
        return float.__repr__(value)
    if cls is bool:
        return "true" if value else "false"
    if cls is int:
        return int.__repr__(value)
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


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
        body = ",".join([f"{_json_str(k)}:{_json_value(details[k])}" for k in sorted(details)])
        tail = self._tail
        tail.append(f'{{"t":{_json_value(t)},"node":{_json_value(node)},'
                    f'"kind":{_json_value(kind)},"details":{{{body}}}}}\n')
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


def _percentile(values: np.ndarray, p: float) -> float:
    """np.percentile(values, p), to the bit.

    numpy's linear rule: virtual index (n-1)*p/100, interpolated from the
    upper neighbour when its fraction is at least 0.5, and clamped at the
    last value, which numpy addresses as index -1.  The neighbours are read
    after np.partition at the index set numpy partitions at, so of equal
    values (0.0 and -0.0) the same one is picked.  np.percentile itself
    imports numpy.ma on first use.
    """
    n = len(values)
    v = (n - 1) * (p / 100)
    if v >= n - 1:
        lo, hi, gamma = -1, -1, v + 1
    else:
        lo = math.floor(v)
        hi, gamma = lo + 1, v - lo
    part = np.partition(values, sorted({0, lo % n, hi % n, n - 1}))
    if math.isnan(part[-1]):  # the partition puts NaN last
        return math.nan
    a, b = float(part[lo]), float(part[hi])
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


class Metrics:
    """Named counters, gauges, and sample series collected during a run."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.series: dict[str, list[float]] = {}
        self._units: dict[str, str] = {}

    def incr(self, name: str, amount: float = 1.0, unit: str = "count") -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount
        self._units.setdefault(name, unit)

    def set_gauge(self, name: str, value: float, unit: str = "") -> None:
        self.gauges[name] = float(value)
        self._units[name] = unit

    def observe(self, name: str, value: float, unit: str = "") -> None:
        self.series.setdefault(name, []).append(float(value))
        self._units.setdefault(name, unit)

    def to_rows(self, run_id: str, seed: int) -> list[tuple]:
        """Rows (run_id, seed, metric, value, unit), sorted by metric name."""
        rows: list[tuple] = []
        for name, value in self.counters.items():
            rows.append((run_id, seed, name, value, self._units.get(name, "")))
        for name, value in self.gauges.items():
            rows.append((run_id, seed, name, value, self._units.get(name, "")))
        for name, values in self.series.items():
            unit = self._units.get(name, "")
            arr = np.asarray(values, dtype=float)
            stats = {
                "count": float(arr.size),
                "mean": float(arr.mean()),
                "std": float(arr.std()),
                "min": float(arr.min()),
                "p50": _percentile(arr, 50),
                "p90": _percentile(arr, 90),
                "max": float(arr.max()),
            }
            for suffix, value in stats.items():
                rows.append((run_id, seed, f"{name}.{suffix}", value,
                             "count" if suffix == "count" else unit))
        rows.sort(key=lambda row: row[2])
        return rows


class Simulator:
    """Event queue, clock, trace, metrics, and derived RNG substreams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.now = 0.0
        self.trace = Trace()
        self.metrics = Metrics()
        self.events_processed = 0
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self._streams: dict[tuple[str, str], np.random.Generator] = {}

    # -- randomness ---------------------------------------------------------

    def rng_stream(self, node_id: str, purpose: str) -> np.random.Generator:
        """Counter-based generator keyed by (seed, node, purpose).

        Repeated calls return the same stream object, so draws continue
        where they left off; a fresh simulator with the same seed replays
        the identical sequence.
        """
        key = (node_id, purpose)
        if key not in self._streams:
            digest = hashlib.sha256(
                f"{self.seed}|{node_id}|{purpose}".encode("utf-8")
            ).digest()
            philox_key = np.frombuffer(digest[:16], dtype="<u8")
            self._streams[key] = np.random.Generator(np.random.Philox(key=philox_key))
        return self._streams[key]

    # -- scheduling ---------------------------------------------------------

    def schedule_call(
        self,
        delay: float,
        fn: Callable[[], None],
        kind: EventKind = EventKind.TIMER,
    ) -> Event:
        if delay < 0.0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        event = Event(self.now + delay, self._alloc_seq(), kind, fn)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

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
        try:
            item = gen.send(None)
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
        self.schedule_call(float(delay), lambda: self._resume(gen, on_done), kind)

    # -- execution ----------------------------------------------------------

    def run_until(self, t_end: float) -> tuple[Metrics, Trace]:
        """Execute every queued event with time <= t_end, in (time, seq) order."""
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} precedes current time {self.now}")
        while self._heap and self._heap[0][0] <= t_end:
            _, _, event = heapq.heappop(self._heap)
            self.now = event.time
            self.events_processed += 1
            event.payload()
        self.now = max(self.now, t_end)
        return self.metrics, self.trace

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
    samples = np.asarray(list(latency_samples), dtype=float)
    if samples.size == 0:
        raise ValueError("eval_timing needs at least one latency sample")
    if np.any(samples < 0.0):
        raise ValueError("latency samples must be nonnegative")
    if budget < 0.0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    survival = np.array([float(coherence_survival(t)) for t in samples])
    if np.any(survival < -1e-12) or np.any(survival > 1.0 + 1e-12):
        raise ValueError("coherence_survival must map into [0, 1]")
    survival = np.clip(survival, 0.0, 1.0)
    within = samples <= budget
    joint = float(np.mean(within * survival))
    p_latency = float(np.mean(within))
    mean_survival = float(np.mean(survival))

    if samples.size > 512:
        grid = np.unique(np.percentile(samples, np.linspace(0.0, 100.0, 513)))
    else:
        grid = np.unique(samples)
    grid = np.unique(np.append(grid, budget))
    sorted_samples = np.sort(samples)
    cdf = np.searchsorted(sorted_samples, grid, side="right") / samples.size
    latency_curve = tuple((float(t), float(c)) for t, c in zip(grid, cdf))
    survival_curve = tuple(
        (float(t), float(np.clip(coherence_survival(t), 0.0, 1.0))) for t in grid
    )
    return TimingEval(
        budget=float(budget),
        joint=joint,
        p_latency=p_latency,
        mean_survival=mean_survival,
        latency_curve=latency_curve,
        survival_curve=survival_curve,
    )
