"""Output checks: reports against committed references and pinned outcomes.

References (``reference.json``) hold, per scenario and seed slot, the metric
and risk reports and the sha256 of every trace array.  Report values must
match within the 1e-9 trace bound; values that are difference quotients or
integrals of a trace get that bound scaled by 1/dt or by the horizon.  A trace
hash that differs is information, not a failure, so numerics changes that stay
inside the bound remain measurable.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

TRACE_BOUND = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Outcomes of the case studies that must hold for every seed.
PINNED_NADIR_HZ = {
    "case2_load_a": 59.924, "case2_load_b": 59.881,
    "case2_load_c": 59.753, "case2_load_d": 59.676,
    "case4_td_n11": 59.187, "case4_td_n2": 59.187,
}
NADIR_DIGITS = 5e-4                 # nadirs are pinned to three decimals
GOVERNOR_BAND_ONLY = {"case3_tda_delay_0"}
REACHES_UNDERFREQ_TRIP = {"case3_tda_delay_15"}
RISK_POOL = {"case1": 4, "case2": 4, "case3": 2, "case4": 1}


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_for(refs: dict, name: str, slot: int) -> dict | None:
    by_slot = refs.get(name, {})
    return by_slot.get(str(slot), by_slot.get("any"))


def trace_hashes(traces) -> dict[str, str]:
    """sha256 of each trace's value array, plus the shared time axis as "_t"."""
    out = {}
    for name, series in sorted(traces.items()):
        out[name] = hashlib.sha256(series.v.tobytes()).hexdigest()
        out.setdefault("_t", hashlib.sha256(series.t.tobytes()).hexdigest())
    return out


def check_report(report: dict, ref: dict | None, seed: int, dt: float,
                 horizon: float) -> list[str]:
    """Every way ``report`` (one `cpessim run --json` line) fails its checks."""
    name = report.get("scenario", "?")
    if ref is None:
        return [f"{name}: no reference for this scenario and seed"]
    fails = []
    if report.get("seed") != seed:
        fails.append(f"{name}: seed {report.get('seed')!r}, expected {seed}")
    tolerances = {"max_rocof": TRACE_BOUND / dt, "iae": TRACE_BOUND * horizon}
    _compare(report.get("metrics"), ref["metrics"], f"{name}.metrics", tolerances, fails)
    _compare(report.get("risk"), ref["risk"], f"{name}.risk", tolerances, fails)
    fails.extend(pinned_failures(name, report))
    return fails


def pinned_failures(name: str, report: dict) -> list[str]:
    fails = []
    freq = next((m for m in report.get("metrics", [])
                 if m["kind"] == "frequency_stability"), None)
    if freq is None:
        return [f"{name}: no frequency_stability report"]
    nadir = freq["values"]["nadir"]
    bands = set(freq["intervals"])
    want = PINNED_NADIR_HZ.get(name)
    if want is not None and abs(nadir - want) > NADIR_DIGITS:
        fails.append(f"{name}: nadir {nadir:.6f} Hz, pinned {want} Hz")
    if name in GOVERNOR_BAND_ONLY and not bands <= {"governor"}:
        fails.append(f"{name}: left the governor band ({sorted(bands)})")
    if name in REACHES_UNDERFREQ_TRIP and "underfreq_trip" not in bands:
        fails.append(f"{name}: never reached underfreq_trip ({sorted(bands)})")
    pool = RISK_POOL.get(name.split("_")[0])
    got_pool = (report.get("risk") or {}).get("pool")
    if pool is not None and got_pool != pool:
        fails.append(f"{name}: risk pool {got_pool!r}, pinned {pool}")
    return fails


def _compare(got, want, path: str, tolerances: dict, fails: list, key: str = "") -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            fails.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                         f", expected {sorted(want)}")
            return
        for k in want:
            _compare(got[k], want[k], f"{path}.{k}", tolerances, fails, k)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            fails.append(f"{path}: length {len(got) if isinstance(got, list) else got!r}"
                         f", expected {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", tolerances, fails, key)
    elif isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        tol = tolerances.get(key, TRACE_BOUND)
        if not abs(got - want) <= tol:
            fails.append(f"{path}: {got!r}, reference {want!r} (tolerance {tol:g})")
    elif got != want or type(got) is not type(want):
        fails.append(f"{path}: {got!r}, reference {want!r}")
