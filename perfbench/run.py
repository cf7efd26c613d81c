"""cpessim benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The scenario files are written from the
presets under ``perfbench/_work/``, with seeds derived from ``--seed``.  Each
pass of the workload runs in a fresh ``worker.py`` process, one after another,
until ``--seconds`` is used up; the metrics are medians over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead (traced minus untraced wall time).  The last line of stdout
is the result object; the line before it holds details: machine info,
per-pass samples, per-scenario timings, trace-hash changes and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MIN_PASSES = 3               # per kind of pass (untraced, traced)
PASS_TIMEOUT_S = 40          # a pass takes about 5 s
RUN_LIMIT_S = 150            # no pass runs past this, so a run ends within 180 s

sys.dont_write_bytecode = True      # leave the checkout as it is, src/ included
sys.path.insert(0, str(HERE))
from workloads import SEED_SLOTS, WORKLOADS, scenario_seed  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "steps/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "artifact_mb": "MB", "success_rate": "fraction"}

# Layers called only inside engine.run, reported as shares of engine.run_s.
RUN_LAYERS = ("physical.lti_step", "physical.swing_step", "physical.solve_load_angle",
              "physical.fast_source", "physical.group_step", "physical.nodal_solve",
              "physical.demand_total", "physical.protection_check", "attacks.apply",
              "network.run_until")
TIMED_LAYERS = RUN_LAYERS + ("engine.run", "engine.run_many", "engine.export",
                             "metrics.to_csv", "metrics.from_csv", "metrics.compute",
                             "metrics.cyber", "scenario.load")
COUNTED_LAYERS = ("physical.lti_step", "physical.swing_step", "physical.solve_load_angle",
                  "physical.fast_source", "physical.group_step", "physical.nodal_solve",
                  "physical.demand_total", "physical.protection_check", "attacks.apply",
                  "network.run_until", "network.send_packet", "scenario.load")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the presets' own seeds)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "cpessim" / "__init__.py").is_file():
        print(f"perfbench: no cpessim sources at {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    scenario_dir = write_scenarios(w, args.seed)
    slot = None if args.seed is None else args.seed % SEED_SLOTS

    passes = {False: [], True: []}
    failed_passes = []
    start = time.monotonic()
    kinds = [False, True] if args.trace else [False]
    while time.monotonic() - start < RUN_LIMIT_S:
        for traced in kinds:
            budget = min(PASS_TIMEOUT_S, RUN_LIMIT_S - (time.monotonic() - start))
            rec = run_pass(w, scenario_dir, slot, traced, max(budget, 1.0))
            if "error" in rec:
                failed_passes.append(rec)
            else:
                passes[traced].append(rec)
        done = len(passes[False]) + len(failed_passes) // len(kinds)
        elapsed = time.monotonic() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > args.seconds:
            break
    shutil.rmtree(WORK / w.name, ignore_errors=True)

    if not passes[False] or (args.trace and not passes[True]):
        for rec in failed_passes:
            print(f"perfbench: pass failed: {rec['error']}", file=sys.stderr)
        return 1

    all_passes = passes[False] + passes[True]
    attempted = sum(r["attempted"] for r in all_passes) \
        + sum(r["attempted"] for r in failed_passes)
    failures = [f for r in all_passes for f in r["failures"]] \
        + [r["error"] for r in failed_passes]
    failed = sum(r["failed"] for r in all_passes) \
        + sum(r["attempted"] for r in failed_passes)
    if args.trace:
        metrics = per_layer(passes[False], passes[True])
    else:
        metrics = end_to_end(passes[False], attempted, failed)

    detail = {
        "workload": w.name, "seed": args.seed, "seed_slot": slot,
        "trace": args.trace, "seconds": args.seconds,
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True]),
                   "failed": len(failed_passes)},
        "machine": machine_info(),
        "samples": {k: [r[k] for r in passes[False]]
                    for k in ("wall_s", "setup_s", "engine_s", "rss_mb")},
        "per_scenario": per_scenario(passes[False]),
        "hash_changes": passes[False][0]["hash_changes"],
        "failures": failures[:20],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_scenarios(w, bench_seed) -> Path:
    """Write the workload's scenario files; the same seed gives the same files."""
    sys.path.insert(0, str(SRC))
    from cpessim import presets

    shutil.rmtree(WORK / w.name, ignore_errors=True)
    scenario_dir = WORK / w.name / "scenarios"
    scenario_dir.mkdir(parents=True)
    for preset, variant in w.variants:
        doc = presets.preset_doc(preset, variant)
        doc["seed"] = scenario_seed(doc["seed"], bench_seed)
        (scenario_dir / f"{doc['meta']['name']}.json").write_text(json.dumps(doc, indent=2))
    return scenario_dir


def run_pass(w, scenario_dir: Path, slot, traced: bool,
             timeout: float = PASS_TIMEOUT_S) -> dict:
    out_dir = WORK / w.name / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every pass compiles cpessim, as a fresh checkout does
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w.name,
           "--scenarios", str(scenario_dir), "--out", str(out_dir),
           "--trace", "1" if traced else "0"]
    if slot is not None:
        cmd += ["--seed-slot", str(slot)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s",
                "attempted": expected_attempts(w)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "attempted": expected_attempts(w)}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["setup_done"] - spawned
    return rec


def expected_attempts(w) -> int:
    return len(w.variants) * (2 if w.readback else 1)


def end_to_end(passes: list[dict], attempted: int, failed: int) -> dict:
    med = lambda key: statistics.median(r[key] for r in passes)  # noqa: E731
    values = {
        "wall_s": med("wall_s"),
        "steps_per_s": statistics.median(r["steps"] / r["engine_s"] for r in passes),
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("rss_mb"),
        "artifact_mb": med("artifact_bytes") / 1e6,
        "success_rate": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced passes; counts repeat exactly between passes."""
    def layer(r, name, field="s"):
        return (r["layers"].get(name) or {}).get(field, 0)

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    out: dict[str, tuple[float, str]] = {}
    for name in TIMED_LAYERS:
        out[f"{name}_s"] = (med(lambda r: layer(r, name)), "s")
    for name in COUNTED_LAYERS:
        out[f"{name}_calls"] = (med(lambda r: layer(r, name, "calls")), "count")
    run_s = lambda r: layer(r, "engine.run")  # noqa: E731
    share = lambda r, v: v / run_s(r) if run_s(r) else 0.0  # noqa: E731
    for name in RUN_LAYERS:
        out[f"{name}_share"] = (med(lambda r: share(r, layer(r, name))), "fraction")
    out["engine.self_s"] = (med(lambda r: layer(r, "engine.run", "self_s")), "s")
    out["engine.self_share"] = (med(lambda r: share(r, layer(r, "engine.run", "self_s"))),
                                "fraction")
    out["engine.steps"] = (med(lambda r: r["steps"]), "count")
    out["engine.us_per_step"] = (med(lambda r: 1e6 * run_s(r) / r["steps"]), "us")
    out["engine.export_bytes"] = (med(lambda r: r["artifact_bytes"]), "bytes")
    out["engine.export_files"] = (med(lambda r: r["artifact_files"]), "count")

    def runs_sum(key):
        return med(lambda r: sum(run.get(key, 0) for run in r["runs"]))

    sent = runs_sum("sent")
    delivered = runs_sum("delivered")
    out["network.delivered"] = (delivered, "count")
    out["network.dropped"] = (runs_sum("dropped"), "count")
    out["network.delivered_ratio"] = (delivered / sent if sent else 0.0, "fraction")
    out["network.log_events"] = (runs_sum("log_events"), "count")
    out["attacks.samples"] = (runs_sum("attack_samples"), "count")
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    overhead = med(lambda r: r["wall_s"]) - untraced_wall
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_share"] = (overhead / untraced_wall, "fraction")
    return {k: {"value": v, "unit": unit} for k, (v, unit) in sorted(out.items())}


def per_scenario(passes: list[dict]) -> dict:
    """Median run and export time and us/step of each scenario."""
    runs: dict[str, dict[str, list[float]]] = {}
    for r in passes:
        for run in r["runs"]:
            d = runs.setdefault(run["scenario"], {"run_s": [], "export_s": [],
                                                  "steps": run["steps"]})
            d["run_s"].append(run["s"])
        for exp in r["exports"]:
            runs[exp["scenario"]]["export_s"].append(exp["s"])
    out = {}
    for name, d in sorted(runs.items()):
        run_s = statistics.median(d["run_s"])
        out[name] = {"run_s": run_s, "us_per_step": 1e6 * run_s / d["steps"],
                     "export_s": statistics.median(d["export_s"]) if d["export_s"] else None,
                     "steps": d["steps"]}
    return out


def machine_info() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "PYTHONDONTWRITEBYTECODE": {"inherited": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                                    "passes": "1"},
        # cached bytecode under src/ would skip the compile that setup_s includes
        "bytecode_cached_in_src": any(SRC.rglob("__pycache__")),
    }


if __name__ == "__main__":
    sys.exit(main())
