"""The record catalogue: one row per shape of trace record that oneq writes.

A row names its writer, the record kind, its ledger role ("creates" or
"ends" the resource in id, "swaps": ends each of ins and creates out, or
"neither") and its detail keys.  A key maps to the JSON type of the value
the caller passes (str, int, float or bool) or to the fixed value every
record of the row carries.  records.<name>(trace, t, node, **values) is
generated from its row at the row's first record, the way dataclasses
generates __init__.  When t is a finite float, node a str and each value
exactly its key's type (finite, for float), it writes the canonical line
with one f-string; anything else goes to Trace.emit, the reference
encoder, so the line is the same and NaN still raises.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Callable


class Row:
    """One record shape: writer name, kind, ledger role and detail keys."""

    def __init__(self, name: str, kind: str, role: str = "neither", **keys: Any) -> None:
        self.name, self.kind, self.role, self.keys = name, kind, role, keys


CATALOGUE = (
    Row("state_transition", "state-transition", frm=str, to=str, reason=str),
    Row("msg", "msg", route=str, msg=str, delivered=True, tx=int),
    Row("msg_failed", "msg", route=str, msg=str, delivered=False, tx=int, failed_at=str,
        reason=str),
    Row("msg_no_route", "msg-no-route", dst=str, msg=str),
    Row("registration_failed", "registration-failed", bs=str, at_message=int),
    Row("warn_attachment_failed", "warn", msg="attachment-failed", bs=str),
    Row("pair_created", "pair-created", "creates", id=str, holders=str, w=float, via=str),
    Row("pair_consumed", "pair-consumed", "ends", id=str, purpose=str, holder_states=str),
    Row("pair_discarded", "pair-discarded", "ends", id=str, reason=str),
    Row("pair_expired", "pair-expired", "ends", id=str),
    Row("swap", "swap", "swaps", ins=str, at=str, out=str, w_out=float),
    Row("session_rejected", "session-rejected", reason=str),
    Row("session_start", "session-start", target=str, count=int, chain=str),
    Row("session_coverage_lost", "session-coverage-lost", detail=str),
    Row("session_end", "session-end", outcome=str, delivered=int, requested=int,
        discarded=int, elapsed=float),
    Row("ghz_coverage_lost", "ghz-coverage-lost", detail=str),
    Row("ghz_created", "ghz-created", "creates", id=str, holders=str, w=float),
    Row("teleport_lost", "teleport", payload=str, pair=str, delivered=False),
    Row("teleport", "teleport", payload=str, pair=str, delivered=True, fidelity=float),
    Row("handover_rejected", "handover-rejected", frm=str, to=str, reason=str),
    Row("warn_soft_infeasible", "warn", msg="soft-handover-infeasible-falling-back-hard",
        bs_old=str, bs_new=str),
    Row("warn_bridge_failed", "warn", msg="soft-handover-bridge-failed-falling-back-hard",
        bs_old=str, bs_new=str, detail=str, pairs=int),
    Row("handover", "handover", frm=str, to=str, mode=str, fell_back=bool, migrated=int,
        downtime=float),
    Row("provision_wait_pass", "provision-wait-pass", ue=str, pass_start=float),
    Row("provision", "provision", ue=str, delivered=int),
    Row("app_start_qkd", "app-start", app=str, type="qkd"),
    Row("app_end_qkd", "app-end", app=str, type="qkd", outcome=str, key_bits=int),
    Row("app_start_ubqc", "app-start", app=str, type="ubqc"),
    Row("app_end_ubqc", "app-end", app=str, type="ubqc", outcome=str, shots=int),
    Row("app_start_sensing", "app-start", app=str, type="sensing", mode=str),
    Row("sensing_report", "sensing-report", app=str, delivered=bool),
    Row("sensing_report_uncovered", "sensing-report", app=str, delivered=False,
        reason="no-coverage"),
    Row("app_end_sensing", "app-end", app=str, type="sensing", outcome=str, bits=int),
)
_ROWS = {row.name: row for row in CATALOGUE}

# Per catalogued type: the guard that value {0} has exactly that type (for
# float, a finite one: v - v is NaN for NaN and +-inf) and its f-string field.
_TYPES = {
    str: ("_type({0}) is _str", "{{_s({0})}}"),
    int: ("_type({0}) is _int", "{{{0}}}"),
    float: ("_type({0}) is _float and {0} - {0} == 0.0", "{{{0}!r}}"),
    bool: ("_type({0}) is _bool", "{{_b[{0}]}}"),
}


def _lit(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _writer(row: Row) -> Callable[..., None]:
    keys = sorted(row.keys)
    args = [k for k in keys if isinstance(row.keys[k], type)]
    typed = [("t", float), ("node", str)] + [(k, row.keys[k]) for k in args]
    guard = " and ".join(_TYPES[cls][0].format(k) for k, cls in typed)
    fields = {k: _TYPES[v][1].format(k) if isinstance(v, type) else _lit(json.dumps(v))
              for k, v in row.keys.items()}
    line = (_lit('{"t":') + "{t!r}" + _lit(',"node":') + "{_s(node)}"
            + _lit(',"kind":' + _json_str(row.kind) + ',"details":{')
            + ",".join(_lit(_json_str(k) + ":") + fields[k] for k in keys) + _lit("}}\n"))
    source = (f"def {row.name}(trace, t, node, *, {', '.join(args)}):\n"
              f"    if {guard}:\n"
              f"        trace._add(f{line!r})\n"
              f"    else:\n"
              f"        trace.emit(t, node, _kind, **_fixed, "
              f"{', '.join(f'{k}={k}' for k in args)})\n")
    namespace = {"__name__": __name__, "_type": type, "_str": str, "_int": int,
                 "_float": float, "_bool": bool, "_s": _json_str, "_b": ("false", "true"),
                 "_kind": row.kind,
                 "_fixed": {k: v for k, v in row.keys.items() if k not in args}}
    exec(compile(source, f"<writer {row.name}>", "exec"), namespace)
    return namespace[row.name]


def __getattr__(name: str) -> Callable[..., None]:
    """The writer of row name, compiled at the row's first record."""
    row = _ROWS.get(name)
    if row is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    writer = globals()[name] = _writer(row)
    return writer
