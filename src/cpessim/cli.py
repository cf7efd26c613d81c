"""Command-line front end.

Exit codes: 0 success, 1 domain-level negative result (threat-model
violations), 2 input error, 3 runtime/simulation error.  Machine-readable
output goes to stdout as JSON under --json; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import engine, presets, risk as risk_mod, threat_model as tm
from .metrics import TimeSeries
from .physical import IntegrationDivergedError, SingularBoundaryError
from .scenario import (Scenario, load_scenario, parse_events, parse_risk, parse_threat,
                       read_json, scenario_from_dict)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (FileNotFoundError, NotADirectoryError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IntegrationDivergedError, SingularBoundaryError, RuntimeError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpessim",
        description="Co-simulation toolkit for cyber-physical energy system "
                    "security studies")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a scenario file (or a directory with --batch)")
    p_run.add_argument("scenario", help="scenario JSON file, or a directory of them "
                                        "with --batch")
    p_run.add_argument("--out", default="out", help="output directory (default: out); "
                       "with --batch, each run exports to OUT/<meta.name>")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--batch", action="store_true",
                       help="treat SCENARIO as a directory and run every *.json in it")
    p_run.add_argument("--json", action="store_true", help="print the report as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="list built-in presets or emit one as JSON")
    p_preset.add_argument("action", choices=["list", "emit"])
    p_preset.add_argument("name", nargs="?", help="preset name for emit")
    p_preset.add_argument("--variant", default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_risk = sub.add_parser("risk", help="score a risk input file")
    p_risk.add_argument("input", help="JSON file: {probability, priorities?, impacts}")
    p_risk.add_argument("--json", action="store_true")
    p_risk.set_defaults(func=_cmd_risk)

    p_threat = sub.add_parser("threat", help="validate a threat model document")
    p_threat.add_argument("action", choices=["validate"])
    p_threat.add_argument("path", help="threat model JSON file")
    p_threat.add_argument("--json", action="store_true")
    p_threat.set_defaults(func=_cmd_threat)

    p_metrics = sub.add_parser("metrics",
                               help="recompute metric reports from an exported run")
    p_metrics.add_argument("run_dir", help="directory produced by `cpessim run`")
    p_metrics.add_argument("--json", action="store_true")
    p_metrics.set_defaults(func=_cmd_metrics)
    return parser


def _cmd_run(args) -> int:
    out_base = Path(args.out)
    if args.batch and args.seed is not None:
        raise ValueError("--seed and --batch: a batch runs each file at its own seed")
    if args.batch:
        paths = sorted(Path(args.scenario).glob("*.json"))
        if not paths:
            raise ValueError(f"no scenario files in {args.scenario}")
        scenarios = [load_scenario(p) for p in paths]
        first = {}  # meta.name -> the first file with it; each name is one export directory
        for path, sc in zip(paths, scenarios):
            if first.setdefault(sc.name, path) != path:
                raise ValueError(f"{first[sc.name]} and {path} both have meta.name {sc.name!r}, "
                                 f"so both would export to {out_base / sc.name}")
        results = engine.run_many(scenarios)
        for sc, result in zip(scenarios, results):
            _export_run(result, sc, out_base / sc.name, args)
        return EXIT_OK
    sc = load_scenario(args.scenario)
    result = engine.run(sc, seed=args.seed)
    _export_run(result, sc, out_base, args)
    return EXIT_OK


def _export_run(result, sc: Scenario, out_dir: Path, args) -> None:
    engine.export(result, out_dir, scenario_doc=sc.doc)
    report = engine.report_dict(result)
    if args.json:
        print(json.dumps(report))
    else:
        print(engine.report_text(report), end="")
        print(f"exported to {out_dir}", file=sys.stderr)


def _cmd_preset(args) -> int:
    if args.action == "list":
        for name, (_, variants, _, info) in presets.PRESETS.items():
            print(f"{name:<12} {info} (variants: {', '.join(variants)})")
        return EXIT_OK
    if not args.name:
        raise ValueError("preset emit needs a name")
    doc = presets.preset_doc(args.name, args.variant)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_risk(args) -> int:
    report = risk_mod.risk(**read_json(args.input, partial(parse_risk, named=True)))
    doc = risk_mod.report_to_dict(report)
    if args.json:
        print(json.dumps(doc))
    else:
        print("\n".join(engine.risk_lines(doc)), end="")
    return EXIT_OK


def _cmd_threat(args) -> int:
    model = read_json(args.path, partial(parse_threat, loc=""))
    violations = tm.validate(model)
    if args.json:
        print(json.dumps({"name": model.name, "ok": not violations,
                          "violations": violations}))
    else:
        if violations:
            for v in violations:
                print(f"violation: {v}")
        else:
            print(f"{model.name}: ok")
    return EXIT_NEGATIVE if violations else EXIT_OK


def _cmd_metrics(args) -> int:
    run_dir = Path(args.run_dir)
    manifest = read_json(run_dir / "manifest.json")
    version = manifest.get("schema_version") if isinstance(manifest, dict) else None
    if version != engine.MANIFEST_SCHEMA:
        raise ValueError(f"{run_dir / 'manifest.json'}: export schema_version {version!r}, "
                         f"this version reads {engine.MANIFEST_SCHEMA}")
    sc = read_json(run_dir / "scenario.json", scenario_from_dict)
    traces = {}  # only the traces the requests name; a missing one fails as an input error
    for name in sorted({req["trace"] for req in sc.metrics_requested
                        if req["kind"] != "cyber"}):
        path = run_dir / "traces" / f"{name}.csv"
        try:
            traces[name] = TimeSeries.from_csv(path.read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    events = read_json(run_dir / "events.json", parse_events)
    reports = engine.compute_metrics(sc, traces, events)
    doc = {"scenario": sc.name, "metrics": [r.to_dict() for r in reports]}
    if args.json:
        print(json.dumps(doc))
    else:
        print("\n".join(engine.metric_lines(doc["metrics"])), end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
