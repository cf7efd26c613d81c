"""The benchmark's workloads: which preset variants each runs, and how.

Every workload drives the user path of the ``cpessim`` command line: one
``cpessim run`` per scenario file, or one ``cpessim run --batch`` over a
directory, plus ``cpessim metrics`` where the workload reads its export back.
The batch workload never passes ``--jobs``, so it runs the CLI's own default.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Scenario seeds are the presets' own seeds plus (benchmark seed mod SEED_SLOTS);
# reference.json holds the expected reports for every slot.
SEED_SLOTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple[tuple[str, str], ...]   # (preset, variant)
    batch: bool = False
    readback: bool = False


WORKLOADS = {w.name: w for w in (
    # LTI plant, sensor DIA and per-step noise on the aggregate tier; heavy
    # trace export, read back by `cpessim metrics`.
    Workload("dia_roundtrip", (("case1_dia", "default"),), readback=True),
    # The only network workload: polling and ~14k packet events over cheap
    # physics, so the loop, recording and event-log export dominate.
    Workload("tda_polled", (("case3_tda", "delay_0"), ("case3_tda", "delay_15"))),
    # The only workload on `cpessim run --batch` and engine.run_many's thread
    # pool; 3-machine tier, little export.
    Workload("load_sweep_batch", tuple(("case2_load", v) for v in "abcd"), batch=True),
    # The only workload on group_step and nodal_solve; topology rebuilds on
    # breaker and machine events, little export.
    Workload("td_contingency",
             tuple(("case4_td", v) for v in ("breaker_open_close", "breaker_triple",
                                             "n11", "n2"))),
)}


def scenario_seed(preset_seed: int, bench_seed: int | None) -> int:
    """Seed written into a scenario file; None keeps the preset's own seed."""
    return preset_seed if bench_seed is None else preset_seed + bench_seed % SEED_SLOTS


def commands(w: Workload, scenario_dir: Path, out_dir: Path,
             names: list[str]) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one pass, as (kind, argv); ``names`` are the
    scenario names in ``scenario_dir``, in file order."""
    if w.batch:
        return [("run", ["run", str(scenario_dir), "--batch", "--out", str(out_dir),
                         "--json"])]
    plan = []
    for name in names:
        run_out = out_dir / name
        plan.append(("run", ["run", str(scenario_dir / f"{name}.json"),
                             "--out", str(run_out), "--json"]))
        if w.readback:
            plan.append(("metrics", ["metrics", str(run_out), "--json"]))
    return plan
