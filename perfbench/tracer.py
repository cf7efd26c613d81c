"""Per-layer timers for the traced run.

Wraps the public functions each ``cpessim`` module exposes, at the names the
engine and the CLI look them up by, so nothing under ``src/`` changes.  Each
wrapper adds ``perf_counter_ns`` time, self time (its time minus that of the
wrapped calls it made) and a call count to an accumulator of the calling
thread; ``totals()`` merges the threads.  ``uninstall()`` puts every original
object back.  The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import threading
import time

from cpessim import cli, engine, metrics, network, physical, scenario

MARK = "__perfbench_layer__"


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, layer) for every wrapped function."""
    return [
        (engine, "run", "engine.run"),
        (engine, "run_many", "engine.run_many"),
        (engine, "export", "engine.export"),
        (engine, "compute_metrics", "metrics.compute"),
        (engine, "cyber_metrics", "metrics.cyber"),
        (engine, "lti_step", "physical.lti_step"),
        (engine, "swing_step", "physical.swing_step"),
        (engine, "solve_load_angle", "physical.solve_load_angle"),
        (engine, "group_step", "physical.group_step"),
        (engine, "nodal_solve", "physical.nodal_solve"),
        (engine, "demand_total", "physical.demand_total"),
        (engine, "protection_check", "physical.protection_check"),
        (physical.FastSource, "step", "physical.fast_source"),
        (engine, "apply_dia", "attacks.apply"),
        (engine, "apply_control_dia", "attacks.apply"),
        (engine, "apply_load_change", "attacks.apply"),
        (network.NetworkSim, "run_until", "network.run_until"),
        (network.NetworkSim, "send_packet", "network.send_packet"),
        (metrics.TimeSeries, "to_csv", "metrics.to_csv"),
        (metrics.TimeSeries, "from_csv", "metrics.from_csv"),
        (scenario, "load_scenario", "scenario.load"),
        (cli, "load_scenario", "scenario.load"),
    ]


class _Thread:
    """One thread's accumulators: layer -> [ns, calls, self_ns], and the
    open calls' child-time counters."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.open_children: list[int] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._saved: list[tuple[object, str, object]] = []

    def _thread(self) -> _Thread:
        try:
            return self._local.acc
        except AttributeError:
            acc = self._local.acc = _Thread()
            self._threads.append(acc)
            return acc

    def _wrap(self, layer: str, fn):
        perf_ns = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = self._thread()
            acc.open_children.append(0)
            t0 = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_ns() - t0
                children = acc.open_children.pop()
                stat = acc.stats.get(layer)
                if stat is None:
                    stat = acc.stats[layer] = [0, 0, 0]
                stat[0] += elapsed
                stat[1] += 1
                stat[2] += elapsed - children
                if acc.open_children:
                    acc.open_children[-1] += elapsed

        setattr(wrapper, MARK, layer)
        return wrapper

    def install(self) -> None:
        for owner, attr, layer in targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(layer, original.__func__))
            else:
                replacement = self._wrap(layer, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """layer -> {"s", "calls", "self_s"}, summed over threads."""
        merged: dict[str, list[int]] = {}
        for acc in self._threads:
            for layer, (ns, calls, self_ns) in acc.stats.items():
                m = merged.setdefault(layer, [0, 0, 0])
                m[0] += ns
                m[1] += calls
                m[2] += self_ns
        return {layer: {"s": ns / 1e9, "calls": calls, "self_s": self_ns / 1e9}
                for layer, (ns, calls, self_ns) in merged.items()}


def leftover_wrappers() -> list[str]:
    """Targets that still hold a tracing wrapper (empty once uninstalled)."""
    left = []
    for owner, attr, layer in targets():
        obj = vars(owner)[attr]
        obj = obj.__func__ if isinstance(obj, classmethod) else obj
        if hasattr(obj, MARK):
            left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left
