"""Deterministic discrete-event kernel.

Events are ordered by (time, insertion sequence), so simultaneous events
fire in schedule order and a scenario plus a seed fully pins the run.
Protocol logic runs as generator processes that yield the delay until their
next step.  A step due within the current run_until horizon and strictly
before every queued event is the one the queue would hand out next, so the
process continues at once, without a trip through the queue; a step due at
the same instant as a queued event runs after it, as its later sequence
number says, and every other step is queued.  Randomness is drawn from
named substreams derived from (master seed, node id, purpose), which keeps
every node's draws independent of scheduling jitter elsewhere.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

import numpy as np

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


@functools.cache
def _key_seed() -> type:
    """A seed sequence whose state is the key given; built at the first stream,
    as it imports numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.key  # Philox asks for its two 64-bit key words

    return KeySeed


def _philox(key: np.ndarray) -> np.random.Generator:
    """Generator(Philox(key=key)), to the state, minus the SeedSequence that
    Philox(key=key) builds from OS entropy and then ignores."""
    return np.random.Generator(np.random.Philox(_key_seed()(key)))


_MAX_BLOCK = 256
_RANDOM = "random"  # the run of scalar random() draws; integers runs are (low, high)
_F64, _I64 = np.float64, np.int64


class RngStream:
    """The random, integers and permutation draws of a Philox Generator.

    A run of scalar random() calls, or of scalar integers(low, high) calls
    with one pair of int bounds, is served from blocks of 2, 4, ... up to
    _MAX_BLOCK values drawn with random(n) or integers(low, high, size=n),
    which numpy fills with the values the scalar calls would return, in the
    same order (scalar integers come back as Python int).  Any other use (an
    array draw, a permutation, a different kind or bounds, a bit_generator
    read) first rebuilds the generator at the served position: back to the
    state where the run began, then one replay of the values served.  That
    state is read once per run, and not at all for the first run of a new
    stream, so draws never differ from a plain Generator.  A deepcopy copies
    the open block with the generator, so the twin draws on from the same
    position.
    """

    _run: Any = None  # None: _gen stands at the served position
    _origin: Any = None  # _gen's state where the run began; None: as built from _key
    _block: Any = ()  # the run's unserved values, last one first
    _size = 0  # length of the run's last block
    _drawn = 0  # values the run has drawn

    def __init__(self, key: np.ndarray) -> None:
        self._key = key
        self._fresh = True  # _gen has not moved since it was built from _key
        self._gen = _philox(key)

    def random(self, size=None, dtype=_F64, out=None):
        if size is None and dtype is _F64 and out is None:
            if self._run is _RANDOM and self._block:
                return self._block.pop()
            return self._scalar(_RANDOM)
        return self._synced().random(size, dtype, out)

    def integers(self, low, high=None, size=None, dtype=_I64, endpoint=False):
        if (size is None and dtype is _I64 and not endpoint
                and type(low) is int and type(high) is int):
            if self._run == (low, high) and self._block:
                return self._block.pop()
            return self._scalar((low, high))
        return self._synced().integers(low, high, size, dtype, endpoint)

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        return self._synced().bit_generator

    def permutation(self, x):
        return self._synced().permutation(x)

    def _scalar(self, run):
        """The next value of run, from a new block; starts the run if it is new."""
        new = run != self._run
        if new:
            gen = self._sync()
            origin = None if self._fresh else gen.bit_generator.state
            size = 2
        else:
            gen = self._gen
            size = min(2 * self._size, _MAX_BLOCK)
        block = (gen.random(size) if run is _RANDOM
                 else gen.integers(run[0], run[1], size=size)).tolist()
        if new:
            self._run, self._origin, self._drawn, self._fresh = run, origin, 0, False
        block.reverse()
        self._block, self._size = block, size
        self._drawn += size
        return block.pop()

    def _synced(self) -> np.random.Generator:
        """The generator at the served position, for any use but a block."""
        gen = self._sync()
        self._fresh = False
        return gen

    def _sync(self) -> np.random.Generator:
        """Rebuild the generator at the served position if a run is open."""
        run = self._run
        if run is not None:
            served = self._drawn - len(self._block)
            if self._origin is None:
                gen = self._gen = _philox(self._key)
            else:
                gen = self._gen
                gen.bit_generator.state = self._origin
            if run is _RANDOM:
                gen.random(served)
            else:
                gen.integers(run[0], run[1], size=served)
            self._run = self._origin = None
            self._block, self._drawn = (), 0
        return self._gen


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
        """Counter-based generator keyed by (seed, node, purpose).

        Repeated calls return the same stream object, so draws continue
        where they left off; a fresh simulator with the same seed replays
        the identical sequence.  Scalar random() and integers(low, high)
        are served from blocks of the same values (see RngStream); every
        draw equals what a plain Philox Generator with this key returns.
        """
        stream = self._streams.get((node_id, purpose))
        if stream is None:
            digest = hashlib.sha256(
                f"{self.seed}|{node_id}|{purpose}".encode("utf-8")
            ).digest()
            stream = self._streams[node_id, purpose] = RngStream(
                np.frombuffer(digest[:16], dtype="<u8"))
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
