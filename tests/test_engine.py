"""Unit tests for the event kernel, RNG streams, trace/metrics, eval_timing."""

import copy
import enum
import hashlib
import heapq
import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from oneq.engine import (
    EventKind, Metrics, RngStream, Simulator, Trace, _percentile, eval_timing,
)


class TestScheduling:
    def test_equal_times_fire_in_insertion_order(self):
        sim = Simulator(seed=0)
        order = []
        sim.schedule_call(1.0, lambda: order.append("first"))
        sim.schedule_call(1.0, lambda: order.append("second"))
        sim.schedule_call(0.5, lambda: order.append("early"))
        sim.run_until(2.0)
        assert order == ["early", "first", "second"]

    def test_run_until_advances_clock_on_empty_queue(self):
        sim = Simulator(seed=0)
        sim.run_until(10.0)
        assert sim.now == 10.0
        assert sim.events_processed == 0

    def test_no_event_fires_past_horizon(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule_call(5.0, lambda: fired.append(sim.now))
        sim.run_until(3.0)
        assert fired == [] and sim.pending_events == 1
        sim.run_until(10.0)
        assert fired == [5.0]

    def test_time_cannot_go_backwards(self):
        sim = Simulator(seed=0)
        sim.run_until(4.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)
        with pytest.raises(ValueError):
            sim.schedule_call(-1.0, lambda: None)

    def test_generator_process_roundtrip(self):
        sim = Simulator(seed=0)
        marks = []

        def proc():
            marks.append(sim.now)
            yield 1.5
            marks.append(sim.now)
            yield (2.5, EventKind.ENTANGLEMENT_ATTEMPT)
            marks.append(sim.now)
            return "done"

        results = []
        sim.spawn(proc(), delay=1.0, on_done=results.append)
        sim.run_until(100.0)
        assert marks == [1.0, 2.5, 5.0]
        assert results == ["done"]

    def test_drop_pending_closes_queued_processes(self):
        sim = Simulator(seed=0)
        closed = []

        def proc():
            try:
                while True:
                    yield 1.0
            finally:
                closed.append(sim.now)

        sim.spawn(proc())
        sim.run_until(2.5)
        sim.drop_pending()
        assert sim.pending_events == 0
        assert closed == [2.5]
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_negative_yield_rejected(self):
        sim = Simulator(seed=0)

        def proc():
            yield -0.1

        sim.spawn(proc())
        with pytest.raises(ValueError):
            sim.run_until(1.0)


class _HeapOnly:
    """Reference kernel: every process step is pushed on the heap and popped."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._heap: list = []
        self._seq = 0

    def schedule_call(self, delay, fn, kind=EventKind.TIMER):
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))
        self._seq += 1

    def spawn(self, gen, delay=0.0, kind=EventKind.APP_STEP, on_done=None):
        self.schedule_call(delay, lambda: self._resume(gen))

    def _resume(self, gen):
        try:
            item = gen.send(None)
        except StopIteration:
            return
        delay = item[0] if isinstance(item, tuple) else item
        self.schedule_call(float(delay), lambda: self._resume(gen))

    def run_until(self, t_end):
        while self._heap and self._heap[0][0] <= t_end:
            self.now, _, fn = heapq.heappop(self._heap)
            self.events_processed += 1
            fn()
        self.now = max(self.now, t_end)

    @property
    def pending_events(self):
        return len(self._heap)


_DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0])
_STEP = st.tuples(_DELAYS, st.sampled_from(list(EventKind) + [None]),
                  st.one_of(st.none(), _DELAYS))
_PROCESS = st.tuples(_DELAYS, st.lists(_STEP, max_size=8))


def _play(sim, processes, timers, horizons):
    """Run one scripted scenario; returns what it saw at every step."""
    seen = []

    def proc(name, steps):
        for i, (delay, kind, timer) in enumerate(steps):
            seen.append((name, i, sim.now))
            if timer is not None:
                sim.schedule_call(timer, lambda i=i: seen.append((name, "timer", i, sim.now)))
            yield delay if kind is None else (delay, kind)
        seen.append((name, "end", sim.now))

    for n, (start, steps) in enumerate(processes):
        sim.spawn(proc(f"p{n}", steps), delay=start)
    for n, delay in enumerate(timers):
        sim.schedule_call(delay, lambda n=n: seen.append((f"t{n}", sim.now)))
    for t_end in horizons:
        sim.run_until(t_end)
        seen.append(("horizon", sim.now, sim.events_processed, sim.pending_events))
    return seen


class TestInlineContinuation:
    def test_step_due_with_a_queued_timer_runs_after_it(self):
        sim = Simulator(seed=0)
        order = []

        def proc():
            sim.schedule_call(1.0, lambda: order.append("timer"))
            yield 1.0
            order.append("step")

        sim.spawn(proc())
        sim.run_until(5.0)
        assert order == ["timer", "step"]
        assert sim.events_processed == 3

    def test_step_before_every_queued_event_runs_at_its_time(self):
        sim = Simulator(seed=0)
        marks = []

        def proc():
            yield 0.0
            marks.append(sim.now)
            yield 0.5
            marks.append(sim.now)

        sim.schedule_call(2.0, lambda: marks.append(("timer", sim.now)))
        sim.spawn(proc())
        sim.run_until(10.0)
        assert marks == [0.0, 0.5, ("timer", 2.0)]
        assert sim.events_processed == 4

    def test_step_past_the_horizon_stays_queued(self):
        sim = Simulator(seed=0)
        marks = []

        def proc():
            marks.append(sim.now)
            yield 2.0
            marks.append(sim.now)

        sim.spawn(proc())
        sim.run_until(1.0)
        assert marks == [0.0] and sim.pending_events == 1 and sim.now == 1.0
        assert sim._heap[0][0] == 2.0
        sim.run_until(2.0)
        assert marks == [0.0, 2.0] and sim.pending_events == 0

    def test_exception_in_an_inline_step_reaches_the_caller(self):
        sim = Simulator(seed=0)

        def proc():
            yield 0.25
            raise RuntimeError("boom")

        sim.spawn(proc())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until(1.0)
        assert sim.now == 0.25 and sim.events_processed == 2

    def test_events_by_kind_counts_inline_and_queued_steps(self):
        sim = Simulator(seed=0)

        def proc():
            yield (0.1, EventKind.ENTANGLEMENT_ATTEMPT)
            yield (0.1, EventKind.ENTANGLEMENT_ATTEMPT)
            yield (0.3, EventKind.MESSAGE_DELIVERY)
            yield 0.2

        sim.schedule_call(0.2, lambda: None)  # the second attempt waits behind it
        sim.spawn(proc())
        sim.run_until(1.0)
        assert sim.events_by_kind == {
            "app-step": 1, "decoherence-check": 0, "entanglement-attempt": 2,
            "message-delivery": 1, "timer": 2}
        assert sum(sim.events_by_kind.values()) == sim.events_processed == 6

    @settings(max_examples=300, deadline=None)
    @given(processes=st.lists(_PROCESS, max_size=5),
           timers=st.lists(_DELAYS, max_size=4),
           horizons=st.lists(_DELAYS, min_size=1, max_size=4))
    def test_same_order_as_a_heap_only_kernel(self, processes, timers, horizons):
        horizons = list(itertools.accumulate(horizons)) + [100.0]
        sim, ref = Simulator(seed=0), _HeapOnly()
        assert _play(sim, processes, timers, horizons) == \
            _play(ref, processes, timers, horizons)
        assert sum(sim.events_by_kind.values()) == sim.events_processed


class TestRngStreams:
    def test_same_key_same_sequence(self):
        a = Simulator(seed=42).rng_stream("n1", "basis")
        b = Simulator(seed=42).rng_stream("n1", "basis")
        assert np.array_equal(a.random(64), b.random(64))

    def test_stream_is_cached_within_a_run(self):
        sim = Simulator(seed=42)
        first = sim.rng_stream("n1", "basis")
        first.random(8)
        assert sim.rng_stream("n1", "basis") is first

    def test_distinct_purposes_and_nodes_differ(self):
        sim = Simulator(seed=42)
        base = sim.rng_stream("n1", "basis").random(32)
        other_purpose = sim.rng_stream("n1", "sift").random(32)
        other_node = sim.rng_stream("n2", "basis").random(32)
        other_seed = Simulator(seed=43).rng_stream("n1", "basis").random(32)
        assert not np.array_equal(base, other_purpose)
        assert not np.array_equal(base, other_node)
        assert not np.array_equal(base, other_seed)

    def test_stream_uniformity(self):
        draws = Simulator(seed=7).rng_stream("n1", "uniformity").random(100_000)
        counts, _ = np.histogram(draws, bins=20, range=(0.0, 1.0))
        assert stats.chisquare(counts).pvalue > 0.01


_BOUNDS = [(0, 2), (0, 8), (3, 2**40)]
_OPS = st.one_of(
    st.tuples(st.just("random"), st.integers(1, 600)),
    st.tuples(st.just("integers"), st.integers(0, len(_BOUNDS) - 1), st.integers(1, 600)),
    st.tuples(st.just("random(k)"), st.integers(0, 40)),
    st.tuples(st.just("integers(size=k)"), st.integers(0, len(_BOUNDS) - 1),
              st.integers(0, 40)),
    st.tuples(st.just("permutation"), st.integers(0, 30)),
    st.tuples(st.just("state")),
    st.tuples(st.just("deepcopy"), st.integers(0, 5)),
)


def _plain_twin(seed: int, node: str, purpose: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}|{node}|{purpose}".encode("utf-8")).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16], dtype="<u8")))


def _same(a, b) -> bool:
    if isinstance(b, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestStreamExactness:
    """An RngStream returns what a plain Philox Generator with its key returns."""

    @staticmethod
    def _apply(op, stream, plain):
        """(stream's answer, plain Generator's answer) for one op."""
        kind = op[0]
        if kind == "random":
            return ([stream.random() for _ in range(op[1])],
                    [plain.random() for _ in range(op[1])])
        if kind == "integers":
            low, high = _BOUNDS[op[1]]
            return ([stream.integers(low, high) for _ in range(op[2])],
                    [int(plain.integers(low, high)) for _ in range(op[2])])
        if kind == "random(k)":
            return stream.random(op[1]), plain.random(op[1])
        if kind == "integers(size=k)":
            low, high = _BOUNDS[op[1]]
            return (stream.integers(low, high, size=op[2]),
                    plain.integers(low, high, size=op[2]))
        if kind == "permutation":
            return stream.permutation(op[1]), plain.permutation(op[1])
        if kind == "state":
            return repr(stream.bit_generator.state), repr(plain.bit_generator.state)
        twin, plain_twin = copy.deepcopy(stream), copy.deepcopy(plain)
        return ([twin.random() for _ in range(op[1])] + [twin.integers(0, 8)],
                [plain_twin.random() for _ in range(op[1])]
                + [int(plain_twin.integers(0, 8))])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), ops=st.lists(_OPS, max_size=12))
    @example(seed=0, ops=[("integers", 0, 3), ("random", 1), ("integers", 0, 3)])
    @example(seed=1, ops=[("random", 300), ("state",), ("random", 300),
                          ("integers", 2, 5), ("deepcopy", 3), ("random(k)", 3)])
    def test_every_draw_matches_a_plain_generator(self, seed, ops):
        stream = Simulator(seed=seed).rng_stream("QUE1", "measurement")
        plain = _plain_twin(seed, "QUE1", "measurement")
        for op in ops:
            got, want = self._apply(op, stream, plain)
            if isinstance(want, list):
                assert len(got) == len(want) and all(map(_same, got, want)), op
            else:
                assert _same(got, want), op
        assert repr(stream.bit_generator.state) == repr(plain.bit_generator.state)


class TestKeySeededStreams:
    """A stream is built from its key alone, as Philox(key=key) builds it."""

    @settings(max_examples=100, deadline=None)
    @given(words=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))
    def test_state_and_first_draws_match_philox_with_the_key(self, words):
        key = np.array(words, dtype="<u8")
        assert repr(RngStream(key).bit_generator.state) == repr(np.random.Philox(key=key).state)
        for draw in (lambda gen: gen.random(), lambda gen: gen.integers(0, 2)):
            stream = RngStream(key)
            plain = np.random.Generator(np.random.Philox(key=key))
            assert [draw(stream) for _ in range(64)] == [draw(plain) for _ in range(64)]
            # reading the state rebuilds the generator from the key and replays the draws
            assert repr(stream.bit_generator.state) == repr(plain.bit_generator.state)


class TestTraceAndMetrics:
    def test_jsonl_is_stable_and_compact(self):
        trace = Trace()
        trace.emit(0.5, "n1", "thing", zeta=1, alpha="x")
        line = trace.to_jsonl()
        assert line == '{"t":0.5,"node":"n1","kind":"thing","details":{"alpha":"x","zeta":1}}\n'
        assert json.loads(line)["details"] == {"alpha": "x", "zeta": 1}

    def test_records_iterate_as_dicts(self):
        trace = Trace()
        trace.emit(0.25, "n1", "a", b=2, a=[1, "x"])
        trace.emit(1.0, "n2", "b")
        assert len(trace) == 2
        assert list(trace) == [
            {"t": 0.25, "node": "n1", "kind": "a", "details": {"a": [1, "x"], "b": 2}},
            {"t": 1.0, "node": "n2", "kind": "b", "details": {}},
        ]
        with pytest.raises(ValueError):
            trace.emit(0.0, "n1", "bad", x=float("nan"))

    def test_empty_trace_serializes_empty(self):
        assert Trace().to_jsonl() == ""

    def test_counters_gauges_series(self):
        m = Metrics()
        m.incr("pairs", 2.0)
        m.incr("pairs")
        m.set_gauge("qber", 0.07, unit="ratio")
        for v in (1.0, 2.0, 3.0, 4.0):
            m.observe("lat", v, unit="s")
        assert m.counters.get("pairs", 0.0) == 3.0
        assert m.counters.get("missing", 0.0) == 0.0
        rows = m.to_rows("r", 1)
        by_name = {row[2]: row[3] for row in rows}
        assert by_name["pairs"] == 3.0
        assert by_name["qber"] == 0.07
        assert by_name["lat.count"] == 4.0
        assert by_name["lat.mean"] == 2.5
        assert by_name["lat.p50"] == 2.5
        assert by_name["lat.max"] == 4.0
        names = [row[2] for row in rows]
        assert names == sorted(names)


class _Float(float):
    def __repr__(self):
        return "float-subclass"


class _Int(int):
    def __repr__(self):
        return "int-subclass"


class _Mode(str, enum.Enum):
    SOFT = "soft"


_STRINGS = st.text(st.characters(exclude_categories=()), max_size=12)
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]))
_INTS = st.integers() | st.sampled_from([2**63, -(2**64), 10**400])
_SCALARS = st.one_of(
    _STRINGS, st.booleans(), _INTS, _FLOATS, st.none(),
    _FLOATS.map(_Float), _INTS.map(_Int), _FLOATS.map(np.float64),
    st.integers(-5, 5).map(np.int64), st.just(_Mode.SOFT),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=8)
_DETAILS = st.dictionaries(_STRINGS.filter(lambda k: k not in ("t", "node", "kind")),
                           _VALUES, max_size=5)


def _old_line(t, node, kind, details):
    record = {"t": t, "node": node, "kind": kind,
              "details": {k: details[k] for k in sorted(details)}}
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


class TestTraceEncoding:
    """emit writes each line itself; it must equal the json.dumps line."""

    @settings(max_examples=200, deadline=None)
    @given(_VALUES, _VALUES, _VALUES, _DETAILS)
    def test_emit_matches_json_dumps(self, t, node, kind, details):
        trace = Trace()
        try:
            want = _old_line(t, node, kind, details)
        except (TypeError, ValueError) as err:
            with pytest.raises(type(err)):
                trace.emit(t, node, kind, **details)
            assert len(trace) == 0
            return
        trace.emit(t, node, kind, **details)
        assert trace.to_jsonl() == want + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     _Float(math.nan), np.float64(-math.inf)])
    def test_non_finite_floats_raise(self, bad):
        trace = Trace()
        for args, details in (((bad, "n", "k"), {}), ((0.0, "n", "k"), {"x": bad}),
                              ((0.0, "n", "k"), {"x": [1, bad]})):
            with pytest.raises(ValueError):
                trace.emit(*args, **details)
        assert len(trace) == 0


class TestCompactTrace:
    """Lines are held in joined blocks; the text must not depend on where they fall."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000])
    def test_blocks_serialize_as_lines(self, n):
        trace, want = Trace(), []
        for i in range(n):
            details = {"i": i, "tag": "x" * (i % 7)}
            trace.emit(i * 1e-3, f"n{i % 3}", "k", **details)
            want.append(_old_line(i * 1e-3, f"n{i % 3}", "k", details))
            if i % 5 == 0:  # a failing emit leaves no partial line behind
                with pytest.raises(ValueError):
                    trace.emit(0.0, "n0", "bad", x=math.nan, i=i)
        assert len(trace) == n
        text = trace.to_jsonl()
        assert text == "".join(line + "\n" for line in want)
        assert trace.to_jsonl() == text
        assert list(trace) == [json.loads(line) for line in want]

    def test_emits_after_serializing_are_appended(self):
        trace = Trace()
        for i in range(300):
            trace.emit(float(i), "n", "a", i=i)
        first = trace.to_jsonl()
        for i in range(300, 600):
            trace.emit(float(i), "n", "a", i=i)
        assert len(trace) == 600
        text = trace.to_jsonl()
        assert text.startswith(first)
        assert text.count("\n") == 600
        assert [r["details"]["i"] for r in trace] == list(range(600))


_SERIES = st.lists(
    st.floats(min_value=-1e3, max_value=1e3)
    | st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1e3, 0.5, math.nan])
    | st.floats(min_value=1e-9, max_value=1e-6),
    min_size=1, max_size=40,
)


class TestPercentile:
    @settings(max_examples=300, deadline=None)
    @given(_SERIES, st.sampled_from([50, 90]))
    @example([3.0], 90)
    @example([-0.0], 50)
    @example([1.0, 2.0, 2.0, 2.0], 50)
    @example([1.0, 2.0, 3.0, 4.0], 90)
    @example([0.5, math.nan, 1e-9], 50)
    @example([0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0], 50)
    def test_matches_numpy_to_the_bit(self, values, p):
        arr = np.asarray(values, dtype=float)
        ours = _percentile(arr, p)
        want = float(np.percentile(arr, p))
        if math.isnan(want):
            assert math.isnan(ours)
        else:
            assert struct.pack("<d", ours) == struct.pack("<d", want)


class TestEvalTiming:
    def test_trivial_cases(self):
        res = eval_timing([0.0, 0.0, 0.0], lambda t: 1.0, budget=1.0)
        assert res.joint == 1.0
        res = eval_timing([2.0, 3.0], lambda t: 1.0, budget=1.0)
        assert res.joint == 0.0

    def test_exponential_closed_form(self):
        # E[e^{-L}] for L ~ Exp(1) is 1/2, with the deadline off at infinity.
        rng = np.random.default_rng(31)
        samples = rng.exponential(1.0, size=1_000_000)
        res = eval_timing(samples, lambda t: math.exp(-t), budget=1e9)
        assert abs(res.joint - 0.5) <= 0.01

    def test_curve_shapes_and_joint_bounds(self):
        rng = np.random.default_rng(32)
        samples = rng.gamma(2.0, 0.4, size=5_000)
        res = eval_timing(samples, lambda t: math.exp(-1.3 * t), budget=1.0)
        cdf_vals = [p for _, p in res.latency_curve]
        surv_vals = [s for _, s in res.survival_curve]
        assert all(a <= b + 1e-12 for a, b in zip(cdf_vals, cdf_vals[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(surv_vals, surv_vals[1:]))
        lower = res.p_latency * res.mean_survival
        upper = min(res.p_latency, res.mean_survival)
        assert lower - 1e-12 <= res.joint <= upper + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            eval_timing([], lambda t: 1.0, budget=1.0)
        with pytest.raises(ValueError):
            eval_timing([-1.0], lambda t: 1.0, budget=1.0)
        with pytest.raises(ValueError):
            eval_timing([1.0], lambda t: 2.0, budget=1.0)
        with pytest.raises(ValueError):
            eval_timing([1.0], lambda t: 1.0, budget=-1.0)


class TestDeterminism:
    @staticmethod
    def _run(seed: int) -> tuple[str, int]:
        sim = Simulator(seed=seed)

        def proc(name):
            rng = sim.rng_stream(name, "steps")
            for i in range(50):
                yield float(rng.random() * 0.1)
                sim.trace.emit(sim.now, name, "step", i=i, u=round(rng.random(), 9))
            return None

        sim.spawn(proc("a"))
        sim.spawn(proc("b"), delay=0.01)
        sim.run_until(20.0)
        return sim.trace.to_jsonl(), sim.events_processed

    def test_identical_seed_identical_trace(self):
        assert self._run(5) == self._run(5)

    def test_different_seed_diverges(self):
        assert self._run(5)[0] != self._run(6)[0]
