"""Unit tests for the event kernel, RNG streams, trace/metrics, eval_timing."""

import enum
import hashlib
import heapq
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from oneq.engine import EventKind, Metrics, Simulator, Trace, _percentile, eval_timing


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


class TestAdvance:
    """Simulator.advance, the rule by which a step runs inside its process."""

    @staticmethod
    def _asks(sim, delay, kind=EventKind.MESSAGE_DELIVERY):
        """A process that asks advance once; what it saw: (taken, now, events, kind count)."""
        seen = []

        def proc():
            seen.append((sim.advance(delay, kind), sim.now, sim.events_processed,
                         sim.events_by_kind[kind.value]))
            if not seen[-1][0]:
                yield (delay, kind)
            seen.append(("resumed", sim.now))

        sim.spawn(proc())
        return seen

    def test_a_step_tied_with_a_queued_event_is_not_advanced_and_runs_after_it(self):
        sim = Simulator(seed=0)
        seen = self._asks(sim, 0.5)
        sim.schedule_call(0.5, lambda: seen.append(("timer", sim.now)))
        sim.run_until(1.0)
        # queued behind the timer due at the same instant, FIFO by sequence number
        assert seen == [(False, 0.0, 1, 0), ("timer", 0.5), ("resumed", 0.5)]
        assert sim.events_by_kind == {
            "app-step": 1, "decoherence-check": 0, "entanglement-attempt": 0,
            "message-delivery": 1, "timer": 1}

    def test_a_step_past_the_horizon_is_not_advanced(self):
        sim = Simulator(seed=0)
        seen = self._asks(sim, 2.0)
        sim.run_until(1.0)
        assert seen == [(False, 0.0, 1, 0)] and sim.now == 1.0 and sim.pending_events == 1
        sim.run_until(2.0)
        assert seen[1] == ("resumed", 2.0)

    def test_a_step_at_the_horizon_is_advanced(self):
        sim = Simulator(seed=0)
        seen = self._asks(sim, 1.0)
        sim.run_until(1.0)
        assert seen == [(True, 1.0, 2, 1), ("resumed", 1.0)] and sim.pending_events == 0

    def test_nothing_is_advanced_before_run_until(self):
        sim = Simulator(seed=0)
        assert sim.advance(0.0, EventKind.TIMER) is False
        assert sim.now == 0.0 and sim.events_processed == 0
        assert set(sim.events_by_kind.values()) == {0}

    def test_an_advanced_step_moves_now_and_counts_one_event_of_its_kind(self):
        sim = Simulator(seed=0)
        sim.schedule_call(1.0, lambda: None)
        seen = self._asks(sim, 0.25, EventKind.ENTANGLEMENT_ATTEMPT)
        sim.run_until(0.5)
        assert seen == [(True, 0.25, 2, 1), ("resumed", 0.25)]
        assert sim.now == 0.5 and sim.pending_events == 1
        assert sim.events_by_kind == {
            "app-step": 1, "decoherence-check": 0, "entanglement-attempt": 1,
            "message-delivery": 0, "timer": 0}


class TestRngStreams:
    def test_same_key_same_sequence(self):
        a = Simulator(seed=42).rng_stream("n1", "basis")
        b = Simulator(seed=42).rng_stream("n1", "basis")
        assert [a.random() for _ in range(64)] == [b.random() for _ in range(64)]

    def test_stream_is_cached_within_a_run(self):
        sim = Simulator(seed=42)
        first = sim.rng_stream("n1", "basis")
        first.random()
        assert sim.rng_stream("n1", "basis") is first

    def test_distinct_purposes_and_nodes_differ(self):
        def draws(seed, node, purpose):
            stream = Simulator(seed=seed).rng_stream(node, purpose)
            return [stream.random() for _ in range(32)]

        base = draws(42, "n1", "basis")
        assert base != draws(42, "n1", "sift")
        assert base != draws(42, "n2", "basis")
        assert base != draws(43, "n1", "basis")

    def test_stream_is_a_keyed_mersenne_twister(self):
        digest = hashlib.sha256(b"42|n1|basis").digest()
        plain = random.Random(int.from_bytes(digest, "big"))
        stream = Simulator(seed=42).rng_stream("n1", "basis")
        assert [stream.random() for _ in range(100)] == [plain.random() for _ in range(100)]

    def test_stream_uniformity(self):
        stream = Simulator(seed=7).rng_stream("n1", "uniformity")
        counts = [0] * 20
        for _ in range(100_000):
            counts[int(stream.random() * 20)] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    @pytest.mark.parametrize("low,high", [(0, 2), (0, 5), (0, 8), (3, 2**40 + 3)])
    def test_integers_stay_in_range_and_are_uniform(self, low, high):
        stream = Simulator(seed=8).rng_stream("n1", "integers")
        draws = [stream.integers(low, high) for _ in range(20_000)]
        assert all(type(d) is int and low <= d < high for d in draws)
        if high - low <= 8:
            counts = [draws.count(low + i) for i in range(high - low)]
            assert stats.chisquare(counts).pvalue > 0.01

    def test_empty_range_is_rejected(self):
        with pytest.raises(ValueError):
            Simulator(seed=8).rng_stream("n1", "integers").integers(3, 3)

    def test_permutations_are_uniform(self):
        stream = Simulator(seed=9).rng_stream("n1", "permutation")
        orders = [tuple(stream.permutation(4)) for _ in range(24_000)]
        assert set(orders) == set(itertools.permutations(range(4)))
        counts = [orders.count(order) for order in itertools.permutations(range(4))]
        assert stats.chisquare(counts).pvalue > 0.01
        assert stream.permutation(0) == [] and stream.permutation(1) == [0]


class TestPinnedDraws:
    """The first draws of one key, as recorded.  Python promises that
    random() repeats for a seed; a Python that changed any of these would
    shift every trace, and fails here first."""

    @staticmethod
    def _fresh():
        return Simulator(seed=2025).rng_stream("QUE1", "measurement")

    def test_random(self):
        stream = self._fresh()
        assert [stream.random() for _ in range(3)] == [
            0.09585918072671262, 0.10030199415362362, 0.9080939244711641]

    def test_integers(self):
        stream = self._fresh()
        assert [stream.integers(0, 2) for _ in range(16)] == [
            0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1]
        stream = self._fresh()
        assert [stream.integers(0, 8) for _ in range(16)] == [
            0, 3, 0, 6, 7, 2, 7, 4, 0, 4, 6, 4, 4, 5, 5, 7]

    def test_permutation(self):
        stream = self._fresh()
        assert stream.permutation(5) == [2, 3, 4, 1, 0]
        assert stream.permutation(5) == [1, 0, 4, 3, 2]


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
        with pytest.raises(ValueError):
            m.observe("lat", math.nan)

    def test_a_series_keeps_the_first_unit_it_was_given(self):
        m = Metrics()
        m.observe("lat", 1.0, unit="s")
        m.observe("lat", 2.0, unit="ms")
        m.observe("lat", 3.0)
        m.set_gauge("rss", 1.0, unit="MB")  # a gauge's unit comes first here
        m.observe("rss", 2.0, unit="kB")
        with pytest.raises(ValueError):
            m.observe("idle", math.nan, unit="s")  # a rejected sample gives no unit
        m.observe("idle", 0.5, unit="ms")
        units = {row[2]: row[4] for row in m.to_rows("r", 1)}
        stats = ("mean", "std", "min", "p50", "p90", "max")
        assert units["lat.count"] == "count" and m.series["lat"] == [1.0, 2.0, 3.0]
        assert {units[f"lat.{s}"] for s in stats} == {"s"}
        assert units["rss"] == "MB" and {units[f"rss.{s}"] for s in stats} == {"MB"}
        assert {units[f"idle.{s}"] for s in stats} == {"ms"}


    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_series_statistics_match_numpy(self, values):
        m = Metrics()
        for v in values:
            m.observe("x", v)
        got = {row[2]: row[3] for row in m.to_rows("r", 1)}
        arr = np.asarray(values, dtype=float)
        assert got["x.count"] == len(values)
        assert got["x.min"] == arr.min() and got["x.max"] == arr.max()
        assert got["x.p50"] == np.percentile(arr, 50)
        assert got["x.p90"] == np.percentile(arr, 90)
        assert got["x.mean"] == pytest.approx(arr.mean(), rel=1e-12, abs=1e-9)
        assert got["x.std"] == pytest.approx(arr.std(), rel=1e-9, abs=1e-6)


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
    | st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1e3, 0.5])
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
    @example([0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0], 50)
    def test_matches_numpy(self, values, p):
        ours = _percentile(sorted(values), p)
        assert ours == np.percentile(np.asarray(values, dtype=float), p)


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
            eval_timing([math.nan], lambda t: 1.0, budget=1.0)
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
