"""Per-layer attribution, from outside the program.

``Tracer`` wraps every public function and method of each layer module of
``oneq`` while it is installed, and restores the originals afterwards.
Every wrapped call is a span; a generator function (a protocol process) is
a span per resumption, since its body runs step by step under the event
loop.  A layer's self time is the time of its spans minus the time of the
spans nested in them, so the self times of one pass add up to the pass.

Counts are taken at the same boundaries: calls by qualified name, plus a
few hooks that read return values (session results, message outcomes) and
the ``kind`` of every dispatched event.  A hooked name that a later
version of the program no longer has is simply not counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from enum import Enum
from time import perf_counter

LAYER_OF_MODULE = {
    "oneq.scenario": "scenario",
    "oneq.engine": "engine",
    "oneq.protocol": "protocol",
    "oneq.netmodel": "netmodel",
    "oneq.qcore": "qcore",
    "oneq.apps.qkd": "apps",
    "oneq.apps.ubqc": "apps",
    "oneq.apps.sensing": "apps",
    "oneq.runner": "runner",
}
LAYERS = ("scenario", "engine", "protocol", "netmodel", "qcore", "apps", "runner")

# Artifact serialization: Trace and Metrics live in engine.py, but turning
# them into text is runner work.
SERIALIZERS = ("Trace.to_jsonl", "Metrics.to_rows", "metrics_csv", "app_results_csv")
# Constructors are not spans, except the state vector's, which is counted.
EXTRA_METHODS = ("PureState.__init__",)

EVENT_KIND_NAMES = {
    "entanglement-attempt": "attempt",
    "message-delivery": "message",
    "timer": "timer",
    "app-step": "app",
    "decoherence-check": "decoherence",
}


class Tracer:
    """Spans and counters for the layers of one process; install to record."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._run_streams: set = set()
        self._schedule_sig = None
        self._hooks = {
            "Stack.entanglement_session": self._on_session,
            "Stack.send_message": self._on_message,
            "classical_send": self._on_send,
            "Trace.emit": self._on_emit,
            "Simulator.rng_stream": self._on_rng_stream,
        }

    # -- recording ----------------------------------------------------------

    def end_run(self) -> None:
        """Close the books on one scenario run (RNG streams are per run)."""
        self.counts["rng_streams"] += len(self._run_streams)
        self._run_streams.clear()

    def _close(self, start: float, layer: str, name: str) -> None:
        dt = perf_counter() - start
        self.self_s[layer] += dt - self._open.pop()
        self.incl_s[name] += dt
        if self._open:
            self._open[-1] += dt

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        hook = self._hooks.get(name)
        before = self._count_dispatch if name == "Simulator.schedule_call" else None
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._steps(fn(*args, **kwargs), layer, name, hook, args)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(start, layer, name)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _steps(self, gen, layer: str, name: str, hook, args):
        """Drive ``gen`` exactly as ``yield from`` would, timing each step."""
        op, arg = gen.send, None
        while True:
            self._open.append(0.0)
            start = perf_counter()
            try:
                item = op(arg)
            except StopIteration as stop:
                result = stop.value
                break
            finally:
                self._close(start, layer, name)
            try:
                op, arg = gen.send, (yield item)
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the process, as yield from does
                op, arg = gen.throw, exc
        if hook is not None:
            hook(args, {}, result)
        return result

    # -- hooks --------------------------------------------------------------

    def _on_session(self, args, kwargs, result) -> None:
        self.counts["sessions"] += 1
        self.counts["sessions_fulfilled"] += result.outcome.value == "Fulfilled"
        self.counts["attempt_slots"] += result.attempts
        self.counts["pairs_delivered"] += len(result.delivered)

    def _on_message(self, args, kwargs, result) -> None:
        self.counts["msgs_failed"] += not result

    def _on_send(self, args, kwargs, result) -> None:
        self.counts["sends_lost"] += not result[0]

    def _on_emit(self, args, kwargs, result) -> None:
        if len(args) > 3 and args[3] == "msg":
            self.counts["msg_tx"] += 1
            self.counts["msg_retries"] += kwargs.get("attempt", 1) > 1

    def _on_rng_stream(self, args, kwargs, result) -> None:
        self._run_streams.add((id(args[0]),) + tuple(args[1:]) + tuple(kwargs.values()))

    def _count_dispatch(self, args, kwargs):
        """Wrap the event payload so the event is counted by kind when it fires."""
        if len(args) == 4 and not kwargs:
            sim, delay, fn, kind = args
        elif self._schedule_sig is None:
            return args, kwargs
        else:
            bound = self._schedule_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            sim, delay, fn, kind = (bound.arguments[k] for k in
                                    ("self", "delay", "fn", "kind"))
        counts = self.counts
        key = "event." + EVENT_KIND_NAMES.get(getattr(kind, "value", kind), str(kind))

        def counted():
            counts[key] += 1
            return fn()
        return (sim, delay, counted, kind), {}

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {}
        for name in LAYER_OF_MODULE:
            try:
                modules[name] = importlib.import_module(name)
            except ModuleNotFoundError:  # a later layout may drop a module
                continue
        replaced: dict[int, object] = {}
        for mod_name, module in modules.items():
            layer = LAYER_OF_MODULE[mod_name]
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == mod_name \
                        and not attr.startswith("_"):
                    replaced[id(value)] = self._wrap(
                        value, "runner" if attr in SERIALIZERS else layer, attr)
                elif inspect.isclass(value) and value.__module__ == mod_name \
                        and not issubclass(value, (Enum, BaseException)):
                    self._wrap_class(value, layer)
        # Functions imported by name elsewhere (``from .qcore import decay``)
        # are replaced in every oneq namespace that holds them.
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "oneq" or mod_name.startswith("oneq.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._patch(module, attr, replaced[id(value)])
        return self

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in EXTRA_METHODS:
                continue
            span_layer = "runner" if name in SERIALIZERS else layer
            if name == "Simulator.schedule_call":
                self._schedule_sig = inspect.signature(raw)
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, span_layer, name))
            elif isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, span_layer, name)))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._open.clear()
