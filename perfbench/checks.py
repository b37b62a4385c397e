"""Correctness checks on every scenario run the benchmark makes.

A run fails when it raises, when an app is left ``unfinished``, or when the
ledger is not closed after ``Stack.finalize``: every resource terminal and
every node's memory slots free.  The ``Stack`` is reached by wrapping its
constructor from outside while the benchmark runs.
"""

from __future__ import annotations

import hashlib

TERMINAL = frozenset(("consumed", "discarded", "expired"))


class StackCapture:
    """Records every ``Stack`` built while installed."""

    def __init__(self) -> None:
        self.stacks: list = []
        self._original = None

    def __enter__(self) -> "StackCapture":
        from oneq import protocol
        self._original = original = protocol.Stack.__init__
        stacks = self.stacks

        def init(stack, *args, **kwargs):
            original(stack, *args, **kwargs)
            stacks.append(stack)
        protocol.Stack.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        from oneq import protocol
        protocol.Stack.__init__ = self._original


def run_problems(artifacts, stacks: list) -> list[str]:
    """What is wrong with one finished run; empty when it is correct."""
    problems = [f"app {app_id} unfinished"
                for app_id, info in sorted(artifacts.summary["apps"].items())
                if info.get("outcome") == "unfinished"]
    if len(stacks) != 1:
        return problems + [f"expected one Stack per run, saw {len(stacks)}"]
    ledger = stacks[0].ledger
    live = sorted(rid for rid, state in ledger.state.items() if state not in TERMINAL)
    if live:
        problems.append(f"{len(live)} resources not terminal after finalize "
                        f"(first {live[0]}: {ledger.state[live[0]]})")
    for node_id, node in sorted(stacks[0].topo.nodes.items()):
        used = node.memory_slots - ledger.slots_free(node_id)
        if used:
            problems.append(f"{node_id} holds {used} memory slots after finalize")
    return problems


def digest(texts) -> str:
    """One hash over a run's trace and metric/app tables."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
