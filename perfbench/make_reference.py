"""Regenerate reference.json from the program as it is now.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs every scenario of every workload for every seed slot and stores its
metric and risk reports and trace hashes.  A scenario whose outputs do not
depend on the seed is stored once, under "any".  Regenerate only for a change
that is meant to alter the reports; a numerics change must instead stay within
the 1e-9 trace bound the checks apply.
"""

from __future__ import annotations

import json
import sys

from cpessim import engine, presets, scenario

from checks import REFERENCE_PATH, trace_hashes
from workloads import SEED_SLOTS, WORKLOADS, scenario_seed


def reference(doc: dict) -> dict:
    result = engine.run(scenario.scenario_from_dict(doc))
    report = json.loads(json.dumps(engine.report_dict(result)))
    return {"metrics": report["metrics"], "risk": report["risk"],
            "hashes": trace_hashes(result.traces)}


def main() -> int:
    refs = {}
    for w in WORKLOADS.values():
        for preset, variant in w.variants:
            by_slot = {}
            for slot in range(SEED_SLOTS):
                doc = presets.preset_doc(preset, variant)
                doc["seed"] = scenario_seed(doc["seed"], slot)
                by_slot[str(slot)] = reference(doc)
            name = doc["meta"]["name"]
            first = by_slot["0"]
            same = all(r == first for r in by_slot.values())
            refs[name] = {"any": first} if same else by_slot
            print(f"{name}: {'seed-independent' if same else 'per seed slot'}",
                  file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
