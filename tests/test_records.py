"""The record catalogue's writers: each writes what Trace.emit writes."""

import enum
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneq import records
from oneq.engine import Trace
from oneq.records import CATALOGUE

REPO = Path(__file__).resolve().parent.parent


class _Mode(str, enum.Enum):
    SOFT = "soft"


class _Str(str):
    pass


_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300]))
_TYPED = {str: _TEXT, int: st.integers() | st.sampled_from([2**63, -(2**64)]),
          float: _FINITE, bool: st.booleans()}
# Per catalogued type, values of other types that a writer must hand to
# Trace.emit: bool for int, int for float, NaN and +-inf, numpy scalars, a
# str subclass and a str Enum, containers and None.
_OFF_TYPE = {
    str: [st.just(_Mode.SOFT), _TEXT.map(_Str), st.integers(-5, 5), st.none()],
    int: [st.booleans(), _FINITE, st.integers(-5, 5).map(np.int64), st.lists(st.integers())],
    float: [st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(),
            _FINITE.map(np.float64), st.booleans()],
    bool: [st.integers(0, 1), st.none(), st.booleans().map(np.bool_)],
}

def _args(row):
    return {k: v for k, v in row.keys.items() if isinstance(v, type)}


def _emit_line(row, t, node, values):
    """The line Trace.emit writes for these values, or the exception it raises."""
    trace = Trace()
    fixed = {k: v for k, v in row.keys.items() if k not in values}
    try:
        trace.emit(t, node, row.kind, **values, **fixed)
    except (TypeError, ValueError) as err:
        assert len(trace) == 0
        return type(err)
    return trace.to_jsonl()


def _refuse(*args, **kwargs):
    raise AssertionError("a value of its catalogued type went to Trace.emit")


@pytest.mark.parametrize("row", CATALOGUE, ids=lambda row: row.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_writer_writes_the_emit_line_itself(row, data):
    t, node = data.draw(_FINITE), data.draw(_TEXT)
    values = {k: data.draw(_TYPED[cls], label=k) for k, cls in _args(row).items()}
    trace = Trace()
    trace.emit = _refuse
    getattr(records, row.name)(trace, t, node, **values)
    assert len(trace) == 1
    assert trace.to_jsonl() == _emit_line(row, t, node, values)


@pytest.mark.parametrize("row", CATALOGUE, ids=lambda row: row.name)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_off_type_values_are_written_as_emit_writes_them(row, data):
    typed = {"t": float, "node": str, **_args(row)}
    base = {k: data.draw(_TYPED[cls], label=k) for k, cls in typed.items()}
    for key, cls in typed.items():
        for off_type in _OFF_TYPE[cls]:
            values = {**base, key: data.draw(off_type, label=key)}
            t, node = values.pop("t"), values.pop("node")
            want, trace = _emit_line(row, t, node, values), Trace()
            if isinstance(want, type):
                with pytest.raises(want):
                    getattr(records, row.name)(trace, t, node, **values)
                assert len(trace) == 0
            else:
                getattr(records, row.name)(trace, t, node, **values)
                assert trace.to_jsonl() == want

def test_writers_compile_at_their_first_record():
    code = ("import oneq.runner, oneq.records as r\n"
            "print(sum(row.name in vars(r) for row in r.CATALOGUE))\n"
            "r.pair_created\n"
            "print(sorted(row.name for row in r.CATALOGUE if row.name in vars(r)))\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:2] == ["0", "['pair_created']"]


def test_rows_are_distinct_shapes():
    assert len({row.name for row in CATALOGUE}) == len(CATALOGUE)
    shapes = [(row.kind, sorted(row.keys), sorted((k, v) for k, v in row.keys.items()
                                                  if not isinstance(v, type)))
              for row in CATALOGUE]
    assert len(set(map(repr, shapes))) == len(CATALOGUE)


def record_table() -> str:
    """The README's table of trace records, rendered from the catalogue."""
    lines = ["| kind | writer | detail keys | ledger role |", "|---|---|---|---|"]
    for row in CATALOGUE:
        keys = ", ".join(f"`{k}: {v.__name__ if isinstance(v, type) else json.dumps(v)}`"
                         for k, v in row.keys.items())
        lines.append(f"| `{row.kind}` | `{row.name}` | {keys} | {row.role} |")
    return "\n".join(lines) + "\n"


def test_readme_prints_the_catalogue():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert record_table() in readme, f"README.md should hold this table:\n{record_table()}"

