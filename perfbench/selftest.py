"""Self-test of the benchmark itself, run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced pass and checks that:
- every output check passes;
- each layer the workload bypasses reads 0 calls, and the layer it was chosen
  for does not;
- the traced pass leaves no wrapper behind, and the untraced pass never loads
  the tracer.
It also checks that ``run.py`` refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

NETWORK_LAYERS = ("network.run_until", "network.send_packet")

# workload -> (layers it must exercise, layers it must bypass)
EXPECTED = {
    "dia_roundtrip": (("physical.lti_step", "attacks.apply", "metrics.from_csv"),
                      NETWORK_LAYERS + ("physical.group_step", "physical.nodal_solve",
                                        "engine.run_many")),
    "tda_polled": (NETWORK_LAYERS + ("metrics.cyber",),
                   ("physical.group_step", "physical.nodal_solve", "physical.lti_step",
                    "attacks.apply", "engine.run_many")),
    "load_sweep_batch": (("engine.run_many", "physical.solve_load_angle", "attacks.apply"),
                         NETWORK_LAYERS + ("physical.group_step", "physical.nodal_solve",
                                           "physical.lti_step")),
    "td_contingency": (("physical.group_step", "physical.nodal_solve"),
                       NETWORK_LAYERS + ("physical.lti_step", "attacks.apply",
                                         "engine.run_many")),
}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def calls(rec: dict, layer: str) -> int:
    return (rec["layers"].get(layer) or {}).get("calls", 0)


def check_workload(name: str) -> None:
    w = WORKLOADS[name]
    scenario_dir = run.write_scenarios(w, 0)
    plain = run.run_pass(w, scenario_dir, 0, traced=False)
    traced = run.run_pass(w, scenario_dir, 0, traced=True)
    shutil.rmtree(run.WORK / w.name, ignore_errors=True)
    for label, rec in (("untraced", plain), ("traced", traced)):
        check("error" not in rec, f"{name}: {label} pass ran ({rec.get('error', '')})")
        check(rec["failed"] == 0 and rec["attempted"] == run.expected_attempts(w),
              f"{name}: {label} pass passed all {rec['attempted']} output checks "
              f"{rec['failures'][:3]}")
        check(rec["probe_restored"], f"{name}: {label} pass restored the engine timers")
    check(not plain["tracer_loaded"] and plain["layers"] is None,
          f"{name}: untraced pass never loaded the tracer")
    check(traced["leftover_wrappers"] == [],
          f"{name}: traced pass removed every wrapper {traced['leftover_wrappers']}")
    used, bypassed = EXPECTED[name]
    for layer in used:
        check(calls(traced, layer) > 0, f"{name}: {layer} called {calls(traced, layer)} times")
    for layer in bypassed:
        check(calls(traced, layer) == 0, f"{name}: {layer} bypassed (0 calls)")
    if name != "tda_polled":
        packets = sum(r.get("log_events", 0) for r in traced["runs"])
        check(packets == 0, f"{name}: no packet events logged")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns(run.WORK.name, "__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    try:
        proc = subprocess.run(command + ["--workload", "dia_roundtrip", "--seed", "0",
                                         "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    for name in WORKLOADS:
        check_workload(name)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
