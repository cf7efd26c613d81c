"""Time ``engine.run`` and ``engine.export`` of two checkouts against each other
in one process.

Both ``cpessim`` packages are loaded side by side, under the names
``cpessim_parent`` and ``cpessim_change``.  Each repeat runs every variant
once on each side, in alternating order (parent first on even repeats,
change first on odd ones), then exports the run into a temporary directory,
and measures the process CPU time of the ``engine.run`` call and of the
``engine.export`` call, each alone; passes of one process share the host's
speed drift, so the pairs compare what two separate benchmark runs cannot.
Run it from the repository root:

    git archive <parent> | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python tools/ab_time.py /tmp/parent/src --repeats 9

One line per variant gives, for the run and then for the export, each
side's median, the speed-up and the repeats the change won.  The speed-up
is the median over repeats of parent time over change time: a repeat's two
sides run back to back, so a host that switches between speed modes moves
both sides of most repeats together, where a ratio of the two medians can
compare one side's fast runs with the other's slow ones.  A variant whose
run outputs (traces, event log, attack samples or reports) differ between
the two sides gets one line saying so; a variant whose run outputs agree but
whose exported files differ gets one line naming each differing file.  The
exit code is 1 if any variant differs either way, else 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

CHANGE_SRC = Path(__file__).resolve().parents[1] / "src"
DEFAULT_VARIANTS = ("case1_dia/default", "case2_load/a", "case2_load/d",
                    "case3_tda/delay_0", "case3_tda/delay_15",
                    "case4_td/breaker_open_close", "case4_td/breaker_triple",
                    "case4_td/n11", "case4_td/n2")


def load_package(src: Path, alias: str):
    """Import the ``cpessim`` under ``src`` as the package ``alias``, afresh."""
    for name in [n for n in sys.modules if n == alias or n.startswith(alias + ".")]:
        del sys.modules[name]
    init = Path(src) / "cpessim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    for name in ("engine", "presets"):
        importlib.import_module(f"{alias}.{name}")
    return package


def fingerprint(package, result) -> tuple:
    """Everything a run exports, as bytes and text: each trace's name and
    samples, the event log, the attack samples and the reports.  A trace's
    unit is not on the series but in the manifest, so it is compared through
    the exported ``manifest.json``."""
    traces = tuple((name, s.t.tobytes(), s.v.tobytes())
                   for name, s in result.traces.items())
    return (traces, json.dumps(result.event_log), json.dumps(result.attack_samples),
            json.dumps(package.engine.report_dict(result)))


def exported_files(out_dir: Path) -> dict[str, bytes]:
    return {path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def differing_files(a: dict[str, bytes], b: dict[str, bytes]) -> set[str]:
    """Relative paths whose bytes differ, or that only one side exported."""
    return {path for path in a.keys() | b.keys() if a.get(path) != b.get(path)}


def timed_run(package, preset: str, variant: str) -> tuple[float, float, tuple]:
    """CPU seconds of ``engine.run`` and of ``engine.export``, and what the
    run produced with every byte it exported, as (fingerprint, files)."""
    sc = package.presets.preset_scenario(preset, variant)
    gc.collect()
    t0 = time.process_time()
    result = package.engine.run(sc)
    run_s = time.process_time() - t0
    with tempfile.TemporaryDirectory() as tmp:
        gc.collect()
        t0 = time.process_time()
        package.engine.export(result, tmp, scenario_doc=sc.doc)
        export_s = time.process_time() - t0
        files = exported_files(Path(tmp))
    return run_s, export_s, (fingerprint(package, result), files)


def summary(parent: list[float], change: list[float]) -> str:
    """Both medians, the median per-repeat speed-up and the change's wins, as columns."""
    wins = sum(c < p for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    speedup = statistics.median(p / c for p, c in zip(parent, change))
    return f"{p_med:>9.4f} {c_med:>9.4f} {speedup:>7.2f}x {wins:>3}/{len(change)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the parent checkout's src directory")
    parser.add_argument("--change-src", type=Path, default=CHANGE_SRC,
                        help="the changed checkout's src directory (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=9, help="runs per variant and side")
    parser.add_argument("--variant", action="append", metavar="PRESET/VARIANT",
                        help="variant to time, repeatable (default: nine across the four cases)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sides = {"parent": load_package(args.parent_src, "cpessim_parent"),
             "change": load_package(args.change_src, "cpessim_change")}
    variants = [v.split("/", 1) for v in args.variant or DEFAULT_VARIANTS]

    times = {(p, v): {(side, call): [] for side in sides for call in ("run", "export")}
             for p, v in variants}
    run_differs, file_differs = set(), {(p, v): set() for p, v in variants}
    for rep in range(args.repeats):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for preset, variant in variants:
            prints = {}
            for side in order:
                run_s, export_s, prints[side] = timed_run(sides[side], preset, variant)
                times[(preset, variant)][(side, "run")].append(run_s)
                times[(preset, variant)][(side, "export")].append(export_s)
            (parent_run, parent_files), (change_run, change_files) = \
                prints["parent"], prints["change"]
            if parent_run != change_run:
                run_differs.add((preset, variant))
            file_differs[preset, variant] |= differing_files(parent_files, change_files)

    print(f"{'variant':<30} {'parent_s':>9} {'change_s':>9} {'speedup':>8} {'wins':>6}"
          f" {'exp_par_s':>9} {'exp_chg_s':>9} {'exp_x':>8} {'exp_wins':>6}")
    for (preset, variant), t in times.items():
        print(f"{preset + '/' + variant:<30} {summary(t['parent', 'run'], t['change', 'run'])} "
              f"{summary(t['parent', 'export'], t['change', 'export'])}")
    differing = [key for key in times if key in run_differs or file_differs[key]]
    for preset, variant in differing:
        if (preset, variant) in run_differs:
            print(f"{preset}/{variant}: run outputs (traces, event log, attack samples "
                  f"or reports) differ")
        else:
            print(f"{preset}/{variant}: only exported files differ: "
                  f"{', '.join(sorted(file_differs[preset, variant]))}")
    print("outputs identical" if not differing else f"{len(differing)} variants differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
