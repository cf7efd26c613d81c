"""Time ``engine.run`` of two checkouts against each other in one process.

Both ``cpessim`` packages are loaded side by side, under the names
``cpessim_parent`` and ``cpessim_change``.  Each repeat runs every variant
once on each side, in alternating order (parent first on even repeats,
change first on odd ones), and measures the process CPU time of the
``engine.run`` call alone; passes of one process share the host's speed
drift, so the pairs compare what two separate benchmark runs cannot.  Run it
from the repository root:

    git archive <parent> | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python tools/ab_time.py /tmp/parent/src --repeats 9

One line per variant gives each side's median, the speed-up (parent median
over change median) and the repeats the change won.  The exit code is 1 if
any run's traces, event log, attack samples or reports differ between the
two sides, else 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
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
    """Everything a run exports, as bytes and text: each trace's name, unit
    and samples, the event log, the attack samples and the reports."""
    traces = tuple((name, s.unit, s.t.tobytes(), s.v.tobytes())
                   for name, s in result.traces.items())
    return (traces, json.dumps(result.event_log), json.dumps(result.attack_samples),
            json.dumps(package.engine.report_dict(result)))


def timed_run(package, preset: str, variant: str) -> tuple[float, tuple]:
    sc = package.presets.preset_scenario(preset, variant)
    gc.collect()
    t0 = time.process_time()
    result = package.engine.run(sc)
    elapsed = time.process_time() - t0
    return elapsed, fingerprint(package, result)


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

    times = {(p, v): {side: [] for side in sides} for p, v in variants}
    differing = []
    for rep in range(args.repeats):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for preset, variant in variants:
            prints = {}
            for side in order:
                elapsed, prints[side] = timed_run(sides[side], preset, variant)
                times[(preset, variant)][side].append(elapsed)
            if prints["parent"] != prints["change"] and (preset, variant) not in differing:
                differing.append((preset, variant))

    print(f"{'variant':<30} {'parent_s':>9} {'change_s':>9} {'speedup':>8} {'wins':>6}")
    for (preset, variant), by_side in times.items():
        parent, change = by_side["parent"], by_side["change"]
        wins = sum(c < p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        print(f"{preset + '/' + variant:<30} {p_med:>9.4f} {c_med:>9.4f} "
              f"{p_med / c_med:>7.2f}x {wins:>3}/{len(change)}")
    for preset, variant in differing:
        print(f"{preset}/{variant}: traces, event log, attack samples or reports differ")
    print("outputs identical" if not differing else f"{len(differing)} variants differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
