"""Scenario files: JSON schema, validation, and object construction.

A scenario is a single JSON document with a mandatory schema_version.
Validation collects every problem it can find as a "path: message" string
before raising, so a broken file reports all of its faults at once.
Unknown keys are warnings by default and errors under strict mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from .apps import QkdConfig, SensingConfig, UbqcConfig
from .errors import ConfigurationError, SchemaError
from .netmodel import (
    CellSpec,
    ClassicalLinkSpec,
    Mobility,
    NodeKind,
    NodeSpec,
    QuantumLinkSpec,
    Topology,
)
from .protocol import Defaults, HandoverMode, PolicyMode

__all__ = ["AppSpec", "OpSpec", "PolicySpec", "Scenario", "load_scenario",
           "load_scenario_file", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "name", "seed", "duration_s", "defaults", "nodes",
    "cells", "classical_links", "quantum_links", "repeater_edges",
    "attachments", "policy", "apps", "ops",
}
_NODE_KEYS = {"id", "kind", "position", "device_class", "t_coh_s",
              "memory_slots", "mobility"}
_MOBILITY_KEYS = {"kind", "waypoints", "pass_start", "pass_duration", "period"}
_CELL_KEYS = {"bs", "classical_radius", "quantum_radius"}
_CLINK_KEYS = {"a", "b", "rate_bps", "prop_delay_s", "p_err_c"}
_QLINK_KEYS = {"a", "b", "q_attempt", "attempt_period_s", "w0", "requires_los"}
_ATTACH_KEYS = {"ue", "bs"}
_POLICY_KEYS = {"mode", "targets", "buffer_target", "check_period_s", "min_fidelity"}
_DEFAULT_KEYS = {"f_min", "inactivity_timeout_s", "retry_cap",
                 "registration_messages", "message_bits"}
_APP_COMMON = {"type", "id", "start_s"}
_APP_CONFIGS = {"qkd": QkdConfig, "ubqc": UbqcConfig, "sensing": SensingConfig}
# An app block sets its config's fields (all but app_id, which is "id").
_APP_FIELDS = {kind: {f.name for f in fields(cls)} - {"app_id"}
               for kind, cls in _APP_CONFIGS.items()}
_OP_KEYS = {"op", "at_s", "ue", "to", "mode"}
# JSON type of each sensing-block field but "sensors", a list of node ids.
# Ranges and finiteness are SensingConfig's own checks.
_SENSING_TYPES = {"fusion": str, "phi_true": float, "shots": int, "mode": str,
                  "tau_interrogate_s": float, "t2_s": float,
                  "reinit_delay_s": float, "max_latency_s": float,
                  "trace_reports": bool}


@dataclass(frozen=True)
class AppSpec:
    kind: str
    start_s: float
    config: Any  # QkdConfig | UbqcConfig | SensingConfig


@dataclass(frozen=True)
class OpSpec:
    op: str
    at_s: float
    ue: str
    to: str
    mode: HandoverMode


@dataclass(frozen=True)
class PolicySpec:
    mode: PolicyMode = PolicyMode.REACTIVE
    targets: tuple[tuple[str, str], ...] = ()
    buffer_target: int = 1
    check_period_s: float = 0.5
    min_fidelity: Optional[float] = None


@dataclass
class Scenario:
    name: str
    seed: int
    duration_s: float
    topology: Topology
    defaults: Defaults
    attachments: tuple[tuple[str, str], ...] = ()
    policy: PolicySpec = field(default_factory=PolicySpec)
    apps: tuple[AppSpec, ...] = ()
    ops: tuple[OpSpec, ...] = ()


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

    def typed(self, data: dict, key: str, types, path: str,
              required: bool = True, default: Any = None) -> Any:
        if key not in data:
            if required:
                self.fail(f"{path}.{key}", "missing required field")
            return default
        value = data[key]
        if types is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
            names = getattr(types, "__name__", None) or "/".join(
                t.__name__ for t in types)
            self.fail(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
            return default
        return value


def _parse_mobility(data: Any, path: str, check: _Check) -> Mobility:
    if data is None:
        return Mobility()
    if not isinstance(data, dict):
        check.fail(path, "mobility must be an object")
        return Mobility()
    check.unknown_keys(path, data, _MOBILITY_KEYS)
    kind = check.typed(data, "kind", str, path, default="static")
    try:
        if kind == "waypoint":
            raw = check.typed(data, "waypoints", list, path, default=[])
            waypoints = tuple(
                (float(t), (float(p[0]), float(p[1]), float(p[2])))
                for t, p in raw
            )
            return Mobility(kind="waypoint", waypoints=waypoints)
        if kind == "orbit":
            return Mobility(
                kind="orbit",
                pass_start=check.typed(data, "pass_start", float, path, default=0.0),
                pass_duration=check.typed(data, "pass_duration", float, path,
                                          default=0.0),
                period=check.typed(data, "period", float, path, default=0.0),
            )
        return Mobility(kind=kind)
    except (ConfigurationError, TypeError, ValueError, IndexError) as err:
        check.fail(path, str(err))
        return Mobility()


def _parse_nodes(data: dict, check: _Check) -> list[NodeSpec]:
    nodes: list[NodeSpec] = []
    raw = check.typed(data, "nodes", list, "$", default=[])
    if raw is not None and not raw:
        check.fail("$.nodes", "at least one node is required")
    for i, item in enumerate(raw or []):
        path = f"$.nodes[{i}]"
        if not isinstance(item, dict):
            check.fail(path, "node must be an object")
            continue
        check.unknown_keys(path, item, _NODE_KEYS)
        node_id = check.typed(item, "id", str, path, default="")
        kind_str = check.typed(item, "kind", str, path, default="")
        pos = check.typed(item, "position", list, path, default=[0, 0, 0])
        try:
            kind = NodeKind(kind_str)
        except ValueError:
            check.fail(f"{path}.kind", f"unknown node kind {kind_str!r}")
            continue
        mobility = _parse_mobility(item.get("mobility"), f"{path}.mobility", check)
        try:
            nodes.append(NodeSpec(
                id=node_id, kind=kind,
                position=tuple(float(x) for x in pos),
                device_class=check.typed(item, "device_class", str, path,
                                         required=False, default="default"),
                t_coh_s=check.typed(item, "t_coh_s", float, path,
                                    required=False, default=1.0),
                memory_slots=check.typed(item, "memory_slots", int, path,
                                         required=False, default=0),
                mobility=mobility,
            ))
        except (ConfigurationError, TypeError, ValueError) as err:
            check.fail(path, str(err))
    return nodes


def _sensing_types_ok(block: dict, path: str, check: _Check) -> bool:
    """Check the JSON type of every field a sensing block sets."""
    ok = True
    for key, value in block.items():
        if key == "sensors":
            if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
                check.fail(f"{path}.sensors", "must be a list of node ids")
                ok = False
        elif check.typed(block, key, _SENSING_TYPES[key], path) is None:
            ok = False
    return ok


def _parse_apps(data: dict, check: _Check) -> list[AppSpec]:
    specs: list[AppSpec] = []
    raw = check.typed(data, "apps", list, "$", required=False, default=[])
    seen_ids: set[str] = set()
    for i, item in enumerate(raw or []):
        path = f"$.apps[{i}]"
        if not isinstance(item, dict):
            check.fail(path, "app must be an object")
            continue
        kind = check.typed(item, "type", str, path, default="")
        if kind not in _APP_CONFIGS:
            check.fail(f"{path}.type", f"unknown app type {kind!r}")
            continue
        check.unknown_keys(path, item, _APP_COMMON | _APP_FIELDS[kind])
        app_id = check.typed(item, "id", str, path, default=f"app{i}")
        if app_id in seen_ids:
            check.fail(f"{path}.id", f"duplicate app id {app_id!r}")
        seen_ids.add(app_id)
        start_s = check.typed(item, "start_s", float, path, required=False,
                              default=0.0)
        kwargs = {k: v for k, v in item.items() if k in _APP_FIELDS[kind]}
        if kind == "sensing" and not _sensing_types_ok(kwargs, path, check):
            continue
        try:
            if kind == "ubqc":
                kwargs["phi_eighths"] = tuple(kwargs.get("phi_eighths", ()))
            elif kind == "sensing":
                kwargs["sensors"] = tuple(kwargs.get("sensors", ()))
            config = _APP_CONFIGS[kind](app_id=app_id, **kwargs)
        except (TypeError, ValueError) as err:
            check.fail(path, str(err))
            continue
        specs.append(AppSpec(kind=kind, start_s=start_s, config=config))
    return specs


def _parse_policy(data: dict, check: _Check) -> PolicySpec:
    raw = data.get("policy")
    if raw is None:
        return PolicySpec()
    path = "$.policy"
    if not isinstance(raw, dict):
        check.fail(path, "policy must be an object")
        return PolicySpec()
    check.unknown_keys(path, raw, _POLICY_KEYS)
    mode_str = check.typed(raw, "mode", str, path, default="reactive")
    try:
        mode = PolicyMode(mode_str)
    except ValueError:
        check.fail(f"{path}.mode", f"unknown policy mode {mode_str!r}")
        return PolicySpec()
    targets_raw = check.typed(raw, "targets", list, path,
                              required=(mode == PolicyMode.PROACTIVE), default=[])
    targets: list[tuple[str, str]] = []
    for i, pair in enumerate(targets_raw or []):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            check.fail(f"{path}.targets[{i}]", "expected a [bs, ue] pair")
            continue
        targets.append((pair[0], pair[1]))
    return PolicySpec(
        mode=mode, targets=tuple(targets),
        buffer_target=check.typed(raw, "buffer_target", int, path,
                                  required=False, default=1),
        check_period_s=check.typed(raw, "check_period_s", float, path,
                                   required=False, default=0.5),
        min_fidelity=raw.get("min_fidelity"),
    )


def _parse_ops(data: dict, check: _Check) -> list[OpSpec]:
    ops: list[OpSpec] = []
    raw = check.typed(data, "ops", list, "$", required=False, default=[])
    for i, item in enumerate(raw or []):
        path = f"$.ops[{i}]"
        if not isinstance(item, dict):
            check.fail(path, "op must be an object")
            continue
        check.unknown_keys(path, item, _OP_KEYS)
        op = check.typed(item, "op", str, path, default="")
        if op != "handover":
            check.fail(f"{path}.op", f"unknown op {op!r}")
            continue
        mode_str = check.typed(item, "mode", str, path, default="soft")
        try:
            mode = HandoverMode(mode_str)
        except ValueError:
            check.fail(f"{path}.mode", f"unknown handover mode {mode_str!r}")
            continue
        ops.append(OpSpec(
            op=op,
            at_s=check.typed(item, "at_s", float, path, default=0.0),
            ue=check.typed(item, "ue", str, path, default=""),
            to=check.typed(item, "to", str, path, default=""),
            mode=mode,
        ))
    return ops


def _parse_defaults(data: dict, check: _Check) -> Defaults:
    raw = data.get("defaults")
    if raw is None:
        return Defaults()
    path = "$.defaults"
    if not isinstance(raw, dict):
        check.fail(path, "defaults must be an object")
        return Defaults()
    check.unknown_keys(path, raw, _DEFAULT_KEYS)
    base = Defaults()
    bits = dict(base.message_bits)
    extra = raw.get("message_bits")
    if extra is not None:
        if isinstance(extra, dict):
            for k, v in extra.items():
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    check.fail(f"{path}.message_bits.{k}", "expected a number")
                else:
                    bits[k] = float(v)
        else:
            check.fail(f"{path}.message_bits", "expected an object")
    return Defaults(
        f_min=check.typed(raw, "f_min", float, path, required=False,
                          default=base.f_min),
        inactivity_timeout_s=check.typed(raw, "inactivity_timeout_s", float, path,
                                         required=False,
                                         default=base.inactivity_timeout_s),
        retry_cap=check.typed(raw, "retry_cap", int, path, required=False,
                              default=base.retry_cap),
        registration_messages=check.typed(raw, "registration_messages", int, path,
                                          required=False,
                                          default=base.registration_messages),
        message_bits=bits,
    )


def _cross_reference(topology: Topology, apps: list[AppSpec],
                     attachments: list[tuple[str, str]], policy: PolicySpec,
                     ops: list[OpSpec], check: _Check) -> None:
    def known(node_id: str, path: str) -> None:
        if node_id not in topology.nodes:
            check.fail(path, f"unknown node id {node_id!r}")

    for i, (ue, bs) in enumerate(attachments):
        known(ue, f"$.attachments[{i}].ue")
        known(bs, f"$.attachments[{i}].bs")
    for i, (bs, ue) in enumerate(policy.targets):
        known(bs, f"$.policy.targets[{i}][0]")
        known(ue, f"$.policy.targets[{i}][1]")
    for i, op in enumerate(ops):
        known(op.ue, f"$.ops[{i}].ue")
        known(op.to, f"$.ops[{i}].to")
    for i, spec in enumerate(apps):
        path = f"$.apps[{i}]"
        cfg = spec.config
        if spec.kind == "qkd":
            refs = [("alice", cfg.alice), ("bob", cfg.bob)]
        elif spec.kind == "ubqc":
            refs = [("client", cfg.client), ("server", cfg.server)]
        else:
            refs = [("fusion", cfg.fusion)] + [
                (f"sensors[{j}]", s) for j, s in enumerate(cfg.sensors)]
        for label, node_id in refs:
            known(node_id, f"{path}.{label}")
        if spec.kind == "sensing":
            for j, s in enumerate(cfg.sensors):
                if s in topology.nodes and cfg.fusion in topology.nodes \
                        and topology.classical_link(s, cfg.fusion) is None:
                    check.fail(f"{path}.sensors[{j}]",
                               f"no classical link to the fusion node {cfg.fusion!r}")


def load_scenario(data: Any, strict: bool = False) -> tuple[Scenario, list[str]]:
    """Validate a parsed JSON document and build the Scenario.

    Raises SchemaError carrying the full violation list.  Returns the
    scenario together with non-fatal warnings (which strict mode promotes
    to violations).
    """
    check = _Check()
    if not isinstance(data, dict):
        raise SchemaError(["$: scenario must be a JSON object"])
    version = data.get("schema_version")
    if version is None:
        check.fail("$.schema_version", "missing required field")
    elif isinstance(version, bool) or version != SCHEMA_VERSION:
        check.fail("$.schema_version",
                   f"unsupported version {version!r}, expected {SCHEMA_VERSION}")
    check.unknown_keys("$", data, _TOP_KEYS)

    name = check.typed(data, "name", str, "$", default="scenario")
    seed = check.typed(data, "seed", int, "$", default=0)
    duration = check.typed(data, "duration_s", float, "$", default=1.0)
    if duration is not None and duration <= 0.0:
        check.fail("$.duration_s", f"must be positive, got {duration}")
    if seed is not None and seed < 0:
        check.fail("$.seed", f"must be nonnegative, got {seed}")

    nodes = _parse_nodes(data, check)
    defaults = _parse_defaults(data, check)
    apps = _parse_apps(data, check)
    policy = _parse_policy(data, check)
    ops = _parse_ops(data, check)

    cells: list[CellSpec] = []
    for i, item in enumerate(check.typed(data, "cells", list, "$",
                                         required=False, default=[]) or []):
        path = f"$.cells[{i}]"
        if not isinstance(item, dict):
            check.fail(path, "cell must be an object")
            continue
        check.unknown_keys(path, item, _CELL_KEYS)
        try:
            cells.append(CellSpec(
                bs_id=check.typed(item, "bs", str, path, default=""),
                classical_radius=check.typed(item, "classical_radius", float,
                                             path, default=1.0),
                quantum_radius=check.typed(item, "quantum_radius", float, path,
                                           required=False, default=0.0),
            ))
        except ConfigurationError as err:
            check.fail(path, str(err))

    clinks: list[ClassicalLinkSpec] = []
    for i, item in enumerate(check.typed(data, "classical_links", list, "$",
                                         required=False, default=[]) or []):
        path = f"$.classical_links[{i}]"
        if not isinstance(item, dict):
            check.fail(path, "link must be an object")
            continue
        check.unknown_keys(path, item, _CLINK_KEYS)
        try:
            clinks.append(ClassicalLinkSpec(
                a=check.typed(item, "a", str, path, default=""),
                b=check.typed(item, "b", str, path, default="?"),
                rate_bps=check.typed(item, "rate_bps", float, path, default=1.0),
                prop_delay_s=check.typed(item, "prop_delay_s", float, path,
                                         required=False, default=0.0),
                p_err_c=check.typed(item, "p_err_c", float, path,
                                    required=False, default=0.0),
            ))
        except ConfigurationError as err:
            check.fail(path, str(err))

    qlinks: list[QuantumLinkSpec] = []
    for i, item in enumerate(check.typed(data, "quantum_links", list, "$",
                                         required=False, default=[]) or []):
        path = f"$.quantum_links[{i}]"
        if not isinstance(item, dict):
            check.fail(path, "link must be an object")
            continue
        check.unknown_keys(path, item, _QLINK_KEYS)
        try:
            qlinks.append(QuantumLinkSpec(
                a=check.typed(item, "a", str, path, default=""),
                b=check.typed(item, "b", str, path, default="?"),
                q_attempt=check.typed(item, "q_attempt", float, path, default=0.0),
                attempt_period_s=check.typed(item, "attempt_period_s", float,
                                             path, default=1.0),
                w0=check.typed(item, "w0", float, path, default=1.0),
                requires_los=check.typed(item, "requires_los", bool, path,
                                         required=False, default=False),
            ))
        except ConfigurationError as err:
            check.fail(path, str(err))

    edges: list[tuple[str, str]] = []
    for i, pair in enumerate(check.typed(data, "repeater_edges", list, "$",
                                         required=False, default=[]) or []):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            check.fail(f"$.repeater_edges[{i}]", "expected an [a, b] pair")
            continue
        edges.append((pair[0], pair[1]))

    attachments: list[tuple[str, str]] = []
    for i, item in enumerate(check.typed(data, "attachments", list, "$",
                                         required=False, default=[]) or []):
        path = f"$.attachments[{i}]"
        if not isinstance(item, dict):
            check.fail(path, "attachment must be an object")
            continue
        check.unknown_keys(path, item, _ATTACH_KEYS)
        attachments.append((
            check.typed(item, "ue", str, path, default=""),
            check.typed(item, "bs", str, path, default=""),
        ))

    if strict and check.warnings:
        check.violations.extend(check.warnings)
        check.warnings = []
    if check.violations:
        raise SchemaError(sorted(check.violations))

    try:
        topology = Topology(nodes=nodes, cells=cells, classical_links=clinks,
                            quantum_links=qlinks, repeater_edges=edges)
    except ConfigurationError as err:
        raise SchemaError([f"$: {err}"]) from err

    _cross_reference(topology, apps, attachments, policy, ops, check)
    if check.violations:
        raise SchemaError(sorted(check.violations))

    scenario = Scenario(
        name=name, seed=seed, duration_s=duration, topology=topology,
        defaults=defaults, attachments=tuple(attachments), policy=policy,
        apps=tuple(apps), ops=tuple(ops),
    )
    return scenario, check.warnings


def load_scenario_file(path: str, strict: bool = False) -> tuple[Scenario, list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise SchemaError([f"$: cannot read {path}: {err}"]) from err
    except json.JSONDecodeError as err:
        raise SchemaError([f"$: invalid JSON: {err}"]) from err
    return load_scenario(data, strict=strict)
