"""Performance metrics over run traces and event logs.

Physical metrics follow classic control-performance definitions (rise time,
overshoot, settling, steady-state error, IAE) plus frequency/voltage limit
checks; cyber metrics aggregate the event log (delay, jitter, loss, delayed
packets, utilization).  Everything here is a pure function of its inputs so
reports can be recomputed bit-for-bit from exported artifacts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .physical import FrequencyProtection, protection_bands

SS_FRACTION = 0.1               # steady state estimated over this share of the tail
RISE_LO, RISE_HI = 0.1, 0.9     # the rise runs between these shares of the final value
DEFAULT_VOLT_LIMITS = (0.95, 1.05)
CSV_BLOCK = 4096                # rows the trace writer formats and joins at a time
DELAY_EPS = 1e-12               # delay differences up to this are float residue: none


def csv_time_cells(t: np.ndarray) -> list[str]:
    """The time column of ``TimeSeries.to_csv``: ``repr(t) + ","`` per sample."""
    return [repr(ti) + "," for ti in t.tolist()]


@dataclass
class TimeSeries:
    t: np.ndarray
    v: np.ndarray
    name: str = "series"

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.v.shape or len(self.t) < 1:
            raise ValueError(f"series {self.name!r}: t and v must be equal-length 1-D, "
                             f"got {self.t.shape} and {self.v.shape}")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError(f"series {self.name!r}: t must be strictly increasing")

    def to_csv(self, t_cells: list[str]) -> str:
        """Header ``t,<name>``, then one ``repr(t),repr(v)`` row per sample;
        the name is quoted by the ``csv`` module's rules.

        ``t_cells`` is ``csv_time_cells(self.t)``, which ``engine.export``
        formats once for the axis a run's traces share.  The rows are
        written ``CSV_BLOCK`` at a time, so only one block's cells are held:
        each distinct bit pattern of a block's values is formatted once
        (keying on bits, not values, keeps ``0.0`` and ``-0.0`` apart) and
        the block is joined into one string."""
        if len(t_cells) != len(self.v):
            raise ValueError(f"series {self.name!r}: {len(t_cells)} time cells "
                             f"for {len(self.v)} samples")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(["t", self.name])
        header = buf.getvalue()
        bits = self.v.view(np.int64)

        def block(start: int) -> str:
            distinct, inverse = np.unique(bits[start:start + CSV_BLOCK], return_inverse=True)
            cells = np.array([repr(v) + "\n" for v in distinct.view(np.float64).tolist()],
                             dtype=object)
            rows = [header if start == 0 else ""] * (2 * len(inverse) + 1)
            rows[1::2] = t_cells[start:start + CSV_BLOCK]
            rows[2::2] = cells[inverse]
            return "".join(rows)

        # a single block is returned as it is, not copied
        return "".join([block(start) for start in range(0, len(bits), CSV_BLOCK)])

    @classmethod
    def from_csv(cls, text: str) -> "TimeSeries":
        """Read ``to_csv``'s layout back; a malformed line fails with its number."""
        lines = io.StringIO(text)
        reader = csv.reader(lines)
        header = next(reader, [])
        if len(header) != 2 or header[0] != "t":
            raise ValueError(f"line 1: trace CSV must have header (t,<name>), got {header!r}")
        t, v = [], []
        for n, line in enumerate(lines, reader.line_num + 1):
            try:
                ti, vi = line.split(",")
                t.append(float(ti))
                v.append(float(vi))
            except ValueError:
                raise ValueError(f"line {n}: expected t,<value>: {line.rstrip()!r}") from None
        return cls(t=np.array(t), v=np.array(v), name=header[1])


@dataclass
class MetricReport:
    kind: str
    trace: str
    values: dict = field(default_factory=dict)
    intervals: dict = field(default_factory=dict)   # label -> [(t0, t1), ...]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "trace": self.trace, "values": self.values,
                "intervals": {k: [list(iv) for iv in v] for k, v in self.intervals.items()}}


def steady_state(s: TimeSeries) -> float:
    """Mean of the final ``SS_FRACTION`` of the samples."""
    n = max(1, int(round(len(s.v) * SS_FRACTION)))
    return float(np.mean(s.v[-n:]))


def _first_crossing(t: np.ndarray, v: np.ndarray, level: float) -> Optional[float]:
    """First time v reaches level (linear interpolation between samples)."""
    if v[0] >= level:
        return float(t[0])
    above = np.nonzero(v >= level)[0]
    if len(above) == 0:
        return None
    i = above[0]
    t0, t1, v0, v1 = t[i - 1], t[i], v[i - 1], v[i]
    if v1 == v0:
        return float(t1)
    return float(t0 + (level - v0) * (t1 - t0) / (v1 - v0))


def final_value(s: TimeSeries) -> float:
    """Estimate of the value the trace converges to.

    The tail is cut into three windows of `SS_FRACTION` of the samples each,
    with means m0, m1, m2.  If they still converge geometrically, the
    asymptote m2 + d2*r/(1-r) (Aitken's delta-squared, d1 = m1-m0,
    d2 = m2-m1, r = d2/d1) is returned; it is exact for a first-order tail.
    Otherwise this is `steady_state`, the mean of the last window: when the
    trace is shorter than three windows, when not 0 < r < 0.9 (a ramp, a
    reversal, a flat trace), or when |d2| is not more than 4 standard errors
    of a window mean, with the sample noise estimated from the first
    differences of the three windows.
    """
    tail_mean = steady_state(s)
    n = max(1, int(round(len(s.v) * SS_FRACTION)))
    if len(s.v) < 3 * n:
        return tail_mean
    tail = s.v[-3 * n:]
    m0, m1, m2 = (float(np.mean(w)) for w in tail.reshape(3, n))
    d1, d2 = m1 - m0, m2 - m1
    r = d2 / d1 if d1 != 0 else 0.0
    if not 0 < r < 0.9:
        return tail_mean
    noise = float(np.std(np.diff(tail))) / np.sqrt(2.0)
    if not abs(d2) > 4.0 * noise / np.sqrt(n):
        return tail_mean
    return m2 + d2 * r / (1.0 - r)


def rise_time(s: TimeSeries) -> Optional[float]:
    """Duration of the rise from ``RISE_LO`` to ``RISE_HI`` of the final value.

    The final value is `final_value`: the extrapolated asymptote when the
    tail still converges geometrically, else the mean of the tail.  The 90%
    crossing magnifies an error in the final value about ninefold, and the
    tail mean of a trace still converging lags its asymptote (by 5e-4 for a
    first-order trace over 8 time constants).  `settling_time` and
    `steady_state_error` keep the tail mean, where that lag is small next to
    their 2% band and an error in the final value is not magnified.

    Returns 0.0 when the trace already sits at its final value, and None
    (not reached) when the signal never rises through the thresholds.
    """
    ss = final_value(s)
    band = 0.02 * abs(ss) if ss != 0 else 1e-12
    if np.all(np.abs(s.v - ss) <= band):
        return 0.0
    hi_level = RISE_HI * ss
    if s.v[0] >= hi_level:
        return None  # starts above the target band: there is no rise to measure
    t_lo = _first_crossing(s.t, s.v, RISE_LO * ss)
    t_hi = _first_crossing(s.t, s.v, hi_level)
    if t_lo is None or t_hi is None:
        return None
    return t_hi - t_lo


def percent_overshoot(s: TimeSeries, step_value: float) -> float:
    if step_value == 0:
        raise ValueError("step_value must be nonzero")
    return max(0.0, 100.0 * (float(np.max(s.v)) - step_value) / step_value)


def settling_time(s: TimeSeries, band_pct: float) -> float:
    """Time of the last sample outside the +-band around the steady state."""
    ss = steady_state(s)
    band = band_pct * abs(ss) if ss != 0 else band_pct
    outside = np.nonzero(np.abs(s.v - ss) > band)[0]
    if len(outside) == 0:
        return 0.0
    return float(s.t[outside[-1]])


def steady_state_error(s: TimeSeries, command: float) -> float:
    return command - steady_state(s)


def iae(s: TimeSeries, reference) -> float:
    """Integral of absolute error against a scalar or matching array reference."""
    ref = np.asarray(reference, dtype=float)
    err = np.abs(s.v - ref)
    if len(s.t) < 2:
        return 0.0
    return float(np.trapezoid(err, s.t))


def max_rocof(s: TimeSeries) -> float:
    """Largest absolute rate of change, central differences inside, one-sided at the ends."""
    if len(s.t) < 2:
        return 0.0
    rates = np.gradient(s.v, s.t)
    return float(np.max(np.abs(rates)))


def _intervals_where(t: np.ndarray, mask: np.ndarray) -> list[tuple[float, float]]:
    """Contiguous sample runs where mask holds, as (t_start, t_end) pairs."""
    edges = np.flatnonzero(np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0))
    return list(zip(t[edges[0::2]].tolist(), t[edges[1::2] - 1].tolist()))


def frequency_stability(s: TimeSeries, protection: FrequencyProtection) -> MetricReport:
    intervals = {}
    for action, mask in protection_bands(s.v, protection).items():
        if mask.any():
            intervals[action.value] = _intervals_where(s.t, mask)
    return MetricReport(
        kind="frequency_stability", trace=s.name,
        values={"nadir": float(np.min(s.v)), "peak": float(np.max(s.v)),
                "max_rocof": max_rocof(s)},
        intervals=intervals)


def voltage_stability(s: TimeSeries,
                      limits: tuple[float, float] = DEFAULT_VOLT_LIMITS) -> MetricReport:
    lo, hi = limits
    if not lo < hi:
        raise ValueError("voltage limits must satisfy lo < hi")
    intervals = {}
    low_iv = _intervals_where(s.t, s.v < lo)
    high_iv = _intervals_where(s.t, s.v > hi)
    if low_iv:
        intervals["below"] = low_iv
    if high_iv:
        intervals["above"] = high_iv
    return MetricReport(
        kind="voltage_stability", trace=s.name,
        values={"v_min": float(np.min(s.v)), "v_max": float(np.max(s.v)),
                "limit_low": lo, "limit_high": hi},
        intervals=intervals)


def control_metrics(s: TimeSeries, command: float,
                    band_pct: float = 0.02) -> MetricReport:
    rt = rise_time(s)
    return MetricReport(
        kind="control", trace=s.name,
        values={"rise_time": rt if rt is not None else "not_reached",
                "percent_overshoot": percent_overshoot(s, command) if command else 0.0,
                "settling_time": settling_time(s, band_pct),
                "steady_state_error": steady_state_error(s, command),
                "iae": iae(s, command)})


def cyber_metrics(event_log: Sequence[dict], horizon: float, paths: dict) -> MetricReport:
    """Aggregate the network event log over ``horizon`` seconds.

    ``paths`` maps each flow "src->dst" to its route: (the deterministic path
    delay, which a delivery must exceed by more than ``DELAY_EPS`` to count as
    delayed, and the route's links in hop order, whose ids and bit rates give
    the channel utilization).  A run without a network passes it empty.
    """
    sends = [e for e in event_log if e["event"] == "send"]
    dropped_n = sum(e["event"] == "drop" for e in event_log)
    size_bits = {e["packet_id"]: e["detail"]["size"] * 8.0 for e in sends}

    delays, delivered_bits, packets_delayed = [], [], 0
    flows: dict[str, list[float]] = {}
    per_link: dict[str, list] = {}  # link id -> [bit rate, bits carried]
    for e in (e for e in event_log if e["event"] == "deliver"):
        key = f"{e['detail']['src']}->{e['detail']['dst']}"
        delay, bits = e["detail"]["delay"], size_bits.get(e["packet_id"], 0.0)
        delays.append(delay)
        delivered_bits.append(bits)
        flows.setdefault(key, []).append(delay)
        base, links = paths.get(key, (np.inf, ()))  # a flow with no path is never delayed
        if delay > base + DELAY_EPS:
            packets_delayed += 1
        for link in links:
            per_link.setdefault(link.id, [link.bandwidth, 0.0])[1] += bits

    diffs = []
    per_flow_jitter = {}
    for key, ds in sorted(flows.items()):
        fd = [d if d > DELAY_EPS else 0.0 for d in (abs(b - a) for a, b in zip(ds, ds[1:]))]
        per_flow_jitter[key] = float(np.mean(fd)) if fd else 0.0
        diffs.extend(fd)
    utilization = {link_id: bits / (bandwidth * horizon)
                   for link_id, (bandwidth, bits) in sorted(per_link.items())}

    values = {
        "packets_sent": len(sends),
        "packets_delivered": len(delays),
        "packets_dropped": dropped_n,
        "avg_delay": float(np.mean(delays)) if delays else 0.0,
        "max_delay": float(np.max(delays)) if delays else 0.0,
        "jitter": float(np.mean(diffs)) if diffs else 0.0,
        "per_flow_jitter": per_flow_jitter,
        "packet_error_rate": dropped_n / len(sends) if sends else 0.0,
        "packets_delayed": packets_delayed,
        "throughput_bps": sum(delivered_bits) / horizon,
        "channel_utilization": utilization,
        "hop_counts": {key: len(links) for key, (_, links) in sorted(paths.items())},
    }
    return MetricReport(kind="cyber", trace="event_log", values=values)
