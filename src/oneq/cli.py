"""Command line entry point.

Subcommands: validate (schema check), run (single seeded run with
artifacts), sweep (one parameter, several values, replicated seeds), and
plan (closed-form feasibility tables without running the simulator).
validate prints loader warnings as "warning: ..." lines on stdout and run
on stderr; sweep logs them through the oneq.runner logger, which Python
writes to stderr while no logging is configured.  A scenario file that
run or sweep cannot read, parse or validate prints one "error: ..." line
per violation on stderr and exits 2, and so does a run whose --until is
negative or not a finite number.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import analytic
from .errors import OneQError, SchemaError
from .runner import run_scenario, run_sweep, sweep_csv, write_artifacts
from .scenario import load_scenario_file, read_document

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneq",
        description="Deterministic simulator for a classical-quantum "
                    "cellular network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario", help="path to the scenario JSON")
    p_validate.add_argument("--strict", action="store_true",
                            help="treat unknown keys as errors")

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario", help="path to the scenario JSON")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--until", type=float, default=None,
                       help="override the run horizon in seconds")
    p_run.add_argument("--out", default=None,
                       help="directory for metrics.csv, trace.jsonl, "
                            "app_results.csv, summary.json")
    p_run.add_argument("--strict", action="store_true",
                       help="treat unknown keys as errors")

    p_sweep = sub.add_parser("sweep", help="vary one parameter across runs")
    p_sweep.add_argument("scenario", help="path to the scenario JSON")
    p_sweep.add_argument("--param", required=True,
                         help='parameter path, e.g. "apps[0].n_pairs"')
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (JSON literals)")
    p_sweep.add_argument("--replications", type=int, default=1,
                         help="independent seeded runs per value")
    p_sweep.add_argument("--out", default=None,
                         help="directory for sweep.csv")
    p_sweep.add_argument("--strict", action="store_true")

    p_plan = sub.add_parser("plan", help="print closed-form feasibility tables")
    p_plan.add_argument("--sequence", default=None, metavar="Q,C,K",
                        help="per-block error rates and block count for the "
                             "sequential-delivery success table")
    p_plan.add_argument("--match", default=None, metavar="N,K,P",
                        help="pairs per session, sift target, and delivery "
                             "probability for the key-match table")
    return parser


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_validate(args) -> int:
    try:
        _, warnings = load_scenario_file(args.scenario, strict=args.strict)
    except SchemaError as err:
        for violation in err.violations:
            print(f"error: {violation}")
        print(f"invalid: {args.scenario} "
              f"({len(err.violations)} problem(s))")
        return 2
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"ok: {args.scenario}")
    return 0


def _cmd_run(args) -> int:
    scenario, warnings = load_scenario_file(args.scenario, strict=args.strict)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        artifacts = run_scenario(scenario, seed=args.seed, until=args.until)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"run {artifacts.run_id}: t_end={artifacts.summary['t_end']:.6f} "
          f"events={artifacts.summary['events']}")
    for app_id, info in artifacts.summary["apps"].items():
        result = info.get("result")
        shown = "" if result is None else f" result={result:.6g}"
        print(f"  app {app_id} [{info['type']}]: {info['outcome']}{shown}")
    if args.out:
        paths = write_artifacts(artifacts, args.out)
        for label in ("metrics", "apps", "trace", "summary"):
            print(f"  wrote {paths[label]}")
    return 0


def _cmd_sweep(args) -> int:
    document = read_document(args.scenario)
    values = [_parse_value(v) for v in args.values.split(",") if v != ""]
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return 2
    try:
        rows = run_sweep(document, args.param, values,
                         replications=args.replications, strict=args.strict)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for row in rows:
        print(f"{row['param']}={row['value']} rep={row['replicate']} "
              f"app={row['app_id']}: {row['outcome']} result={row['result']:.6g} "
              f"elapsed={row['elapsed_s']:.6g}s")
    if args.out:
        from pathlib import Path
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "sweep.csv"
        path.write_text(sweep_csv(rows), encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _parse_triple(text: str, label: str, names: tuple[str, str, str],
                  counts: set[str]) -> tuple:
    """Three comma-separated JSON numbers; those named in counts must be integers."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--{label} expects three comma-separated numbers")
    values = tuple(_parse_value(p) for p in parts)
    for name, value in zip(names, values):
        kind = int if name in counts else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if name in counts else "a number"
            raise ValueError(f"--{label}: {name} must be {noun}, got {value!r}")
    return values


def _cmd_plan(args) -> int:
    if not (args.sequence or args.match):
        print("nothing to plan; pass --sequence and/or --match", file=sys.stderr)
        return 2
    lines = []
    try:
        if args.sequence:
            q, c, k_max = _parse_triple(args.sequence, "sequence", ("q", "c", "K"), {"K"})
            if k_max < 1:
                raise ValueError(f"--sequence: K must be at least 1, got {k_max}")
            block = analytic.p_block(q, c)
            lines.append(f"sequential delivery, per-block error rates q={q} c={c}:")
            lines.append(f"  {'K':>3}  {'p_block':>10}  {'p_success':>10}")
            lines.extend(f"  {k:>3}  {block:>10.6f}  {analytic.p_succ_iid(q, c, k):>10.6f}"
                         for k in range(1, k_max + 1))
        if args.match:
            n, k, p = _parse_triple(args.match, "match", ("N", "K", "p"), {"N", "K"})
            prob = analytic.qkd_match_success(n, k, p)
            lines.append(f"key-match success for N={n} pairs, K={k} sifted, "
                         f"p_deliver={p}: {prob:.9f}")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_plan(args)
    except SchemaError as err:
        for violation in err.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2
    except OneQError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
