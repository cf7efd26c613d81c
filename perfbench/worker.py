"""One pass of a workload in a fresh process; prints one JSON line.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload NAME --scenarios DIR --out DIR \
        --seed-slot N --trace 0|1

The pass imports ``cpessim``, loads and validates every scenario file (the
set-up), then calls ``cpessim.cli.main`` once per command of the workload with
stdout captured.  Outside the timed calls it checks every report.  The only
timers of an untraced pass are around whole public calls: ``cli.main``,
``engine.run``, ``engine.run_many`` and ``engine.export``.  With ``--trace 1``
it also installs the per-layer wrappers of ``tracer.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from cpessim import cli, engine, scenario

import checks
from workloads import WORKLOADS, commands

# Event types the network logs; the engine logs protection, breaker and
# command events into the same list.
PACKET_EVENTS = ("send", "deliver", "drop", "command_lost")


class Probe:
    """Times engine.run, engine.run_many and engine.export per call."""

    NAMES = ("run", "run_many", "export")

    def __init__(self, count_events: bool):
        self.count_events = count_events
        self.runs: list[dict] = []       # list.append is atomic across pool threads
        self.run_many_s = 0.0
        self.exports: list[dict] = []
        self._saved = {}

    def install(self) -> None:
        self._saved = {n: vars(engine)[n] for n in self.NAMES}
        run, run_many, export = (self._saved[n] for n in self.NAMES)

        def timed_run(sc, *args, **kwargs):
            t0 = time.perf_counter()
            result = run(sc, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.runs.append(self._run_record(sc, result, elapsed))
            return result

        def timed_run_many(*args, **kwargs):
            t0 = time.perf_counter()
            results = run_many(*args, **kwargs)
            self.run_many_s += time.perf_counter() - t0
            return results

        def timed_export(result, *args, **kwargs):
            t0 = time.perf_counter()
            out = export(result, *args, **kwargs)
            self.exports.append({"scenario": result.scenario_name,
                                 "s": time.perf_counter() - t0})
            return out

        engine.run, engine.run_many, engine.export = timed_run, timed_run_many, timed_export

    def uninstall(self) -> None:
        for name, original in self._saved.items():
            setattr(engine, name, original)

    def restored(self) -> bool:
        return all(vars(engine)[n] is original for n, original in self._saved.items())

    def _run_record(self, sc, result, elapsed: float) -> dict:
        rec = {"scenario": result.scenario_name, "s": elapsed,
               "steps": int(round(sc.horizon / sc.dt_phys)),
               "hashes": checks.trace_hashes(result.traces)}
        if self.count_events:
            kinds = dict.fromkeys(PACKET_EVENTS, 0)
            for e in result.event_log:
                if e["event"] in kinds:
                    kinds[e["event"]] += 1
            rec.update(log_events=sum(kinds.values()), sent=kinds["send"],
                       delivered=kinds["deliver"], dropped=kinds["drop"],
                       attack_samples=len(result.attack_samples))
        return rec


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--scenarios", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed-slot", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    w = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    paths = sorted(args.scenarios.glob("*.json"))
    scenarios = {sc.name: sc for sc in (scenario.load_scenario(p) for p in paths)}
    setup_done = time.monotonic()

    probe = Probe(count_events=tracer is not None)
    probe.install()
    calls = []
    for kind, argv in commands(w, args.scenarios, args.out, list(scenarios)):
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:  # a crash of the program is a failed operation, not ours
            rc, error = None, traceback.format_exc(limit=3)
        calls.append({"kind": kind, "argv": argv, "rc": rc, "error": error,
                      "s": time.perf_counter() - t0, "stdout": buf.getvalue()})
    wall_s = sum(c["s"] for c in calls)
    probe.uninstall()
    probe_restored = probe.restored()

    layers = leftover = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.totals()
        leftover = tracer_mod.leftover_wrappers()

    attempted, failures, hash_changes = check_outputs(w, calls, scenarios, probe,
                                                      args.seed_slot or 0)
    artifact_bytes = artifact_files = 0
    for path in args.out.rglob("*"):
        if path.is_file():
            artifact_bytes += path.stat().st_size
            artifact_files += 1

    print(json.dumps({
        "setup_done": setup_done,
        "wall_s": wall_s,
        "engine_s": probe.run_many_s if w.batch else sum(r["s"] for r in probe.runs),
        "steps": sum(r["steps"] for r in probe.runs),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_bytes": artifact_bytes,
        "artifact_files": artifact_files,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [msg for msgs in failures.values() for msg in msgs],
        "hash_changes": hash_changes,
        "runs": [{k: v for k, v in r.items() if k != "hashes"} for r in probe.runs],
        "exports": probe.exports,
        "layers": layers,
        "leftover_wrappers": leftover,
        "probe_restored": probe_restored,
        "tracer_loaded": "tracer" in sys.modules,
    }))
    return 0


def check_outputs(w, calls, scenarios, probe, slot):
    """Check every report.  Returns the number of operations attempted (scenario
    runs and read-backs), {failed operation: messages} and trace-hash changes."""
    refs = checks.load_references()
    attempted = 0
    failures: dict[str, list[str]] = {}
    reports: dict[str, dict] = {}
    for call in calls:
        if call["kind"] == "run":
            # one scenario for a single run, the whole directory for --batch
            expected = list(scenarios) if w.batch else [Path(call["argv"][1]).stem]
            attempted += len(expected)
            if call["rc"] != 0:
                for name in expected:
                    failures[name] = [f"{name}: exit {call['rc']} {call['error'] or ''}"]
                continue
            got = {}
            for line in call["stdout"].splitlines():
                rep = json.loads(line)
                got[rep["scenario"]] = rep
            for name in expected:
                if name not in got:
                    failures[name] = [f"{name}: no report printed"]
                    continue
                sc = scenarios[name]
                reports[name] = got[name]
                fails = checks.check_report(got[name], checks.reference_for(refs, name, slot),
                                            sc.seed, sc.dt_phys, sc.horizon)
                if fails:
                    failures[name] = fails
        else:
            attempted += 1
            name = Path(call["argv"][1]).name
            key = f"{name} read-back"
            if call["rc"] != 0:
                failures[key] = [f"{key}: exit {call['rc']} {call['error'] or ''}"]
            elif name not in reports or json.loads(call["stdout"])["metrics"] \
                    != reports[name]["metrics"]:
                failures[key] = [f"{key}: `cpessim metrics` report differs from the "
                                 f"in-memory report"]
    hash_changes = []
    for rec in probe.runs:
        ref = checks.reference_for(refs, rec["scenario"], slot) or {}
        changed = sorted(k for k, v in rec["hashes"].items()
                         if ref.get("hashes", {}).get(k) != v)
        if changed:
            hash_changes.append({"scenario": rec["scenario"], "traces": changed})
    return attempted, failures, hash_changes


if __name__ == "__main__":
    sys.exit(main())
