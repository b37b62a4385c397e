"""Scenario files: JSON schema, validation, and object construction.

A scenario is a single JSON document with a mandatory schema_version.
Each block of the document is built by one routine from the dataclass it
becomes: the block's keys are the class's fields (a field's metadata "key"
renames it), a key is required exactly when its field has no default, and
each value must have its field's type. The class's own checks then run, and
their errors are reported under the block's path. Validation collects every
problem it can find as a "path: message" string before raising, so a broken
file reports all of its faults at once. Unknown keys are warnings by default
and errors under strict mode.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from .apps import APPS, app_classes
from .errors import ConfigurationError, SchemaError
from .netmodel import (
    BS_KINDS,
    UE_KINDS,
    CellSpec,
    ClassicalLinkSpec,
    NodeSpec,
    QuantumLinkSpec,
    Topology,
)
from .protocol import Defaults, HandoverMode, PolicySpec

__all__ = ["AppSpec", "OpSpec", "Scenario", "load_scenario",
           "load_scenario_file", "read_document", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AppSpec:
    """An app block: its type, its built config, its app class and its start time."""

    kind: str = field(metadata={"key": "type"})
    config: Any  # QkdConfig | UbqcConfig | SensingConfig, built from the same block
    app: type  # the class that runs config: QkdApp | UbqcApp | SensingApp
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise ValueError(f"start_s must be nonnegative, got {self.start_s}")


@dataclass(frozen=True)
class OpSpec:
    """A scheduled operation; a handover is the only kind."""

    op: str
    at_s: float
    ue: str
    to: str
    mode: HandoverMode

    def __post_init__(self) -> None:
        if self.op != "handover":
            raise ValueError(f"unknown op {self.op!r}")
        if self.at_s < 0.0:
            raise ValueError(f"at_s must be nonnegative, got {self.at_s}")


@dataclass(frozen=True)
class _Attachment:
    """One initial attachment of a UE to a base station."""

    ue: str
    bs: str


@dataclass
class Scenario:
    """The top level of a scenario file, validated and ready for run_scenario.

    load_scenario checks the ranges of the top-level numbers; topology is
    built from the node, cell, link and edge blocks.
    """

    schema_version: int
    name: str
    seed: int
    duration_s: float
    nodes: tuple[NodeSpec, ...]
    defaults: Defaults = field(default_factory=Defaults)
    cells: tuple[CellSpec, ...] = ()
    classical_links: tuple[ClassicalLinkSpec, ...] = ()
    quantum_links: tuple[QuantumLinkSpec, ...] = ()
    repeater_edges: tuple[tuple[str, str], ...] = ()
    attachments: tuple[_Attachment, ...] = ()
    policy: PolicySpec = field(default_factory=PolicySpec)
    apps: tuple[AppSpec, ...] = ()  # each built by _build_app from its "type"
    ops: tuple[OpSpec, ...] = ()
    topology: Topology = field(init=False)

    def __post_init__(self) -> None:
        self.topology = Topology(nodes=self.nodes, cells=self.cells,
                                 classical_links=self.classical_links,
                                 quantum_links=self.quantum_links,
                                 repeater_edges=self.repeater_edges)


class _Check:
    """Accumulates violations and warnings with JSON-path labels."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        self.warnings: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}")

    def unknown_keys(self, path: str, data: dict, allowed: set[str]) -> None:
        for key in sorted(set(data) - allowed):
            self.warnings.append(f"{path}.{key}: unknown key")


_BAD = object()  # a value that failed its check, already reported
_JSON_NAMES = {dict: "object", type(None): "null"}


def _json_name(value: Any) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, dataclasses.Field, Any], ...]:
    """(JSON key, field, resolved type) of each init field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f.metadata.get("key", f.name), f, hints[f.name])
                 for f in dataclasses.fields(cls) if f.init)


def _convert(hint: Any, value: Any, path: str, check: _Check) -> Any:
    """The JSON value as a field of type hint, or _BAD once reported."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    expected = None
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        if value is None:
            return None
        hint = next(a for a in args if a is not type(None))
        return _convert(hint, value, path, check)
    if origin is tuple:
        if not isinstance(value, list):
            expected = "list"
        elif args[-1] is not Ellipsis and len(value) != len(args):
            check.fail(path, f"expected {len(args)} elements, got {len(value)}")
            return _BAD
        else:
            hints = [args[0]] * len(value) if args[-1] is Ellipsis else args
            items = tuple(_convert(h, v, f"{path}[{i}]", check)
                          for i, (h, v) in enumerate(zip(hints, value)))
            return _BAD if _BAD in items else items
    elif hint is dict or origin is dict:
        if not isinstance(value, dict):
            expected = "object"
        elif not args:
            return dict(value)
        else:
            items = {k: _convert(args[1], v, f"{path}.{k}", check)
                     for k, v in value.items()}
            return _BAD if _BAD in items.values() else items
    elif hint is AppSpec:
        return _build_app(value, path, check)
    elif dataclasses.is_dataclass(hint):
        return _build(hint, value, path, check)
    elif isinstance(hint, type) and issubclass(hint, Enum):
        if isinstance(value, str) and value in {m.value for m in hint}:
            return hint(value)
        names = ", ".join(repr(m.value) for m in hint)
        check.fail(path, f"expected one of {names}, got {value!r}")
        return _BAD
    elif hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            expected = "float"
        elif not math.isfinite(value):
            check.fail(path, f"expected a finite number, got {value}")
            return _BAD
        else:
            return float(value)
    elif isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
        return value
    else:
        expected = hint.__name__
    check.fail(path, f"expected {expected}, got {_json_name(value)}")
    return _BAD


def _values(cls: type, data: Any, path: str, check: _Check,
            given: dict) -> tuple[dict, bool]:
    """Convert a JSON object's keys to the fields of cls not in given.

    Returns the values that passed, and whether every key did.
    """
    if not isinstance(data, dict):
        check.fail(path, f"expected object, got {_json_name(data)}")
        return {}, False
    values: dict[str, Any] = {}
    ok = True
    keys: set[str] = set()
    for key, f, hint in _schema(cls):
        if f.name in given:
            continue
        keys.add(key)
        if key in data:
            value = _convert(hint, data[key], f"{path}.{key}", check)
            if value is _BAD:
                ok = False
            else:
                values[f.name] = value
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            check.fail(f"{path}.{key}", "missing required field")
            ok = False
    check.unknown_keys(path, data, keys)
    return values, ok


def _build(cls: type, data: Any, path: str, check: _Check, **given: Any) -> Any:
    """Build cls from a JSON object, reporting its faults under path."""
    values, ok = _values(cls, data, path, check, given)
    if not ok or _BAD in given.values():
        return _BAD
    try:
        return cls(**values, **given)
    except (ConfigurationError, ValueError) as err:
        check.fail(path, str(err))
        return _BAD


def _build_app(item: Any, path: str, check: _Check) -> Any:
    """Build an app block: its "type" picks the config class for its other keys."""
    if not isinstance(item, dict):
        check.fail(path, f"expected object, got {_json_name(item)}")
        return _BAD
    kind = item.get("type")
    if kind not in tuple(APPS):  # a tuple, since kind may be unhashable
        check.fail(f"{path}.type", "missing required field" if "type" not in item
                   else f"unknown app type {kind!r}")
        return _BAD
    cls, app = app_classes(kind)
    own = {key for key, _, _ in _schema(cls)}
    config = _build(cls, {k: v for k, v in item.items() if k in own}, path, check)
    return _build(AppSpec, {k: v for k, v in item.items() if k not in own},
                  path, check, config=config, app=app)


_UE = (UE_KINDS, "is not user equipment")
_BS = (BS_KINDS, "is not a base station")


def _cross_reference(scenario: Scenario, check: _Check) -> None:
    topology = scenario.topology

    def known(node_id: str, path: str, role: Optional[tuple] = None) -> None:
        """Report a node id that is unknown, or not of the role's kinds."""
        node = topology.nodes.get(node_id)
        if node is None:
            check.fail(path, f"unknown node id {node_id!r}")
        elif role is not None and node.kind not in role[0]:
            check.fail(path, f"{node_id!r} {role[1]}")

    attached: dict[str, int] = {}
    for i, a in enumerate(scenario.attachments):
        known(a.ue, f"$.attachments[{i}].ue", _UE)
        known(a.bs, f"$.attachments[{i}].bs", _BS)
        if a.ue in attached:
            check.fail(f"$.attachments[{i}].ue",
                       f"{a.ue!r} is already attached at $.attachments[{attached[a.ue]}]")
        attached.setdefault(a.ue, i)
    listed: dict[tuple[str, str], int] = {}
    for i, target in enumerate(scenario.policy.targets):
        known(target[0], f"$.policy.targets[{i}][0]", _BS)
        known(target[1], f"$.policy.targets[{i}][1]", _UE)
        j = listed.setdefault(target, i)
        if j != i:
            check.fail(f"$.policy.targets[{i}]",
                       f"{list(target)} is already listed at $.policy.targets[{j}]")
    for i, op in enumerate(scenario.ops):
        known(op.ue, f"$.ops[{i}].ue", _UE)
        known(op.to, f"$.ops[{i}].to", _BS)
    seen_ids: set[str] = set()
    for i, spec in enumerate(scenario.apps):
        path = f"$.apps[{i}]"
        cfg = spec.config
        if cfg.app_id in seen_ids:
            check.fail(f"{path}.id", f"duplicate app id {cfg.app_id!r}")
        seen_ids.add(cfg.app_id)
        # (field, node id, role) of each node the app names
        if spec.kind == "qkd":
            refs = [("alice", cfg.alice, _UE), ("bob", cfg.bob, _UE)]
        elif spec.kind == "ubqc":
            refs = [("client", cfg.client, _UE), ("server", cfg.server, None)]
        else:
            ghz = cfg.mode == "ghz"
            refs = [("fusion", cfg.fusion, _BS if ghz else None)] + [
                (f"sensors[{j}]", s, _UE if ghz else None)
                for j, s in enumerate(cfg.sensors)]
        for label, node_id, role in refs:
            known(node_id, f"{path}.{label}", role)
        if spec.kind == "sensing":
            for j, s in enumerate(cfg.sensors):
                if s not in topology.nodes or cfg.fusion not in topology.nodes:
                    continue
                if topology.classical_link(s, cfg.fusion) is None:
                    check.fail(f"{path}.sensors[{j}]",
                               f"no classical link to the fusion node {cfg.fusion!r}")
                elif ghz and topology.quantum_link(s, cfg.fusion) is None:
                    check.fail(f"{path}.sensors[{j}]",
                               f"no quantum link to the fusion node {cfg.fusion!r}")
            continue
        (first, a, _), (second, b, _) = refs
        if a == b:
            check.fail(f"{path}.{second}",
                       f"{b!r} is {first} too; a pair needs two distinct holders")
        # one session holds all of a ubqc shot's or a qkd batch's pairs at
        # once, at both ends
        key, need, unit = (("phi_eighths", len(cfg.phi_eighths) + 1, "a shot")
                           if spec.kind == "ubqc" else ("n_pairs", cfg.n_pairs, "a batch"))
        for label, node_id, _ in refs:
            node = topology.nodes.get(node_id)
            if node is not None and node.memory_slots < need:
                check.fail(f"{path}.{key}",
                           f"{label} {node_id!r} has {node.memory_slots} memory "
                           f"slots, {unit} holds {need} pairs")


def load_scenario(data: Any, strict: bool = False) -> tuple[Scenario, list[str]]:
    """Validate a parsed JSON document and build the Scenario.

    Raises SchemaError carrying the full violation list.  Returns the
    scenario together with non-fatal warnings (which strict mode promotes
    to violations).
    """
    check = _Check()
    if not isinstance(data, dict):
        raise SchemaError(["$: scenario must be a JSON object"])
    values, _ = _values(Scenario, data, "$", check, {})
    version = values.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        check.fail("$.schema_version",
                   f"unsupported version {version!r}, expected {SCHEMA_VERSION}")
    if values.get("duration_s", 1.0) <= 0.0:
        check.fail("$.duration_s", f"must be positive, got {values['duration_s']}")
    if values.get("seed", 0) < 0:
        check.fail("$.seed", f"must be nonnegative, got {values['seed']}")
    if values.get("nodes") == ():
        check.fail("$.nodes", "at least one node is required")

    if strict and check.warnings:
        check.violations.extend(check.warnings)
        check.warnings = []
    if check.violations:
        raise SchemaError(sorted(check.violations))

    try:
        scenario = Scenario(**values)
    except SchemaError as err:
        raise SchemaError(sorted(f"$.{fault}" for fault in err.violations)) from err

    _cross_reference(scenario, check)
    if check.violations:
        raise SchemaError(sorted(check.violations))
    return scenario, check.warnings


def read_document(path: str) -> Any:
    """The parsed JSON document at path; SchemaError if unreadable or not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise SchemaError([f"$: cannot read {path}: {err}"]) from err
    except json.JSONDecodeError as err:
        raise SchemaError([f"$: invalid JSON: {err}"]) from err


def load_scenario_file(path: str, strict: bool = False) -> tuple[Scenario, list[str]]:
    return load_scenario(read_document(path), strict=strict)
