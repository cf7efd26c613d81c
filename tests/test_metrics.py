import csv
import io
import math

import numpy as np
import pytest

from cpessim import metrics as mx
from cpessim.metrics import TimeSeries, cyber_metrics
from cpessim.network import NetLink
from cpessim.physical import FrequencyProtection


def series(t, v, name="s"):
    return TimeSeries(t=np.asarray(t, float), v=np.asarray(v, float), name=name)


def first_order(tau=1.0, dt=1e-3, horizon=8.0):
    t = np.arange(0, horizon, dt)
    return series(t, 1.0 - np.exp(-t / tau))


# -- TimeSeries --------------------------------------------------------------

def test_series_requires_increasing_time():
    with pytest.raises(ValueError):
        series([0.0, 0.0, 1.0], [1, 2, 3])
    with pytest.raises(ValueError):
        series([0.0, 1.0], [1, 2, 3])


def csv_text(s: TimeSeries) -> str:
    return s.to_csv(mx.csv_time_cells(s.t))


def test_csv_round_trip_is_bit_exact():
    rng = np.random.default_rng(2)
    s = series(np.cumsum(rng.uniform(1e-4, 1.0, 50)), rng.normal(size=50), name="freq")
    back = TimeSeries.from_csv(csv_text(s))
    assert back.name == "freq"
    assert np.array_equal(back.t, s.t)
    assert np.array_equal(back.v, s.v)


# repeated values, both zeros, two NaN payloads, both infinities, a repeated subnormal:
# a writer that formats each distinct value once must key on bits, not on ==
NAN_A, NAN_B = np.array([0x7FF8000000000000, 0xFFF8000000000123], np.uint64).view(float)
ODD_VALUES = [-0.0, 1e-300, -2.5, 0.0, -2.5, NAN_A, 5e-324, float("-inf"), NAN_B,
              float("inf"), 5e-324, -0.0, 0.0, 1e-300]


@pytest.mark.parametrize("name", ["volt", 'volt, "bus a"'])
def test_csv_equals_csv_module_rows_and_reads_back_bit_exact(name):
    s = series(np.arange(len(ODD_VALUES)) * 0.5, ODD_VALUES, name=name)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", name])
    for ti, vi in zip(s.t, s.v):
        writer.writerow([repr(float(ti)), repr(float(vi))])
    assert csv_text(s) == buf.getvalue()
    back = TimeSeries.from_csv(csv_text(s))
    assert back.name == name
    assert back.t.tobytes() == s.t.tobytes()
    nan = np.isnan(s.v)
    assert back.v[~nan].tobytes() == s.v[~nan].tobytes()  # keeps the sign of -0.0
    assert np.isnan(back.v[nan]).all()  # "nan" carries no payload


def test_csv_blocks_join_into_the_rows_of_one_block(monkeypatch):
    # values repeat across blocks, and the last block is short
    s = series(np.arange(3 * len(ODD_VALUES)) * 0.25, ODD_VALUES * 3, name="v")
    whole = csv_text(s)
    for block in (1, 3, 5):
        monkeypatch.setattr(mx, "CSV_BLOCK", block)
        assert csv_text(s) == whole


def test_csv_takes_the_time_cells_of_its_own_axis():
    s = series([0.0, 0.5, 1.0], [1.0, -0.0, 1.0])
    assert csv_text(s) == "t,s\n0.0,1.0\n0.5,-0.0\n1.0,1.0\n"
    for other_axis in ([0.0, 0.5], [0.0, 0.5, 1.0, 1.5]):
        with pytest.raises(ValueError):
            s.to_csv(mx.csv_time_cells(np.array(other_axis)))


def test_csv_header_shape():
    s = series([0.0, 1.0], [2.0, 3.0], name="volt")
    lines = csv_text(s).splitlines()
    assert lines == ["t,volt", "0.0,2.0", "1.0,3.0"]  # the manifest keeps the unit


def test_csv_reader_rejects_the_layout_with_a_unit_column():
    for text in ("t,v,unit\n0.0,1.0,u\n", "t,v\n0.0,1.0,u\n", "t,v\n0.0\n", "t,v\n"):
        with pytest.raises(ValueError):
            TimeSeries.from_csv(text)


# -- control metrics ------------------------------------------------------------

def test_rise_time_first_order_matches_ln9():
    s = first_order(tau=1.0)
    rt = mx.rise_time(s)  # 10% to 90%
    assert rt == pytest.approx(math.log(9.0), abs=1e-3)


def test_rise_time_already_settled_is_zero():
    s = series([0, 1, 2], [5.0, 5.0, 5.0])
    assert mx.rise_time(s) == 0.0


def test_rise_time_not_reached():
    t = np.arange(0, 5, 0.01)
    s = series(t, 10.0 - t)  # decreasing; never rises through the thresholds
    assert mx.rise_time(s) is None


@pytest.mark.parametrize("periods", [5.0, 20.0])
def test_rise_time_first_order_short_and_long_horizons(periods):
    tau = 2.0
    s = first_order(tau=tau, horizon=periods * tau)
    assert mx.rise_time(s) == pytest.approx(tau * math.log(9.0), abs=1e-3)


def test_final_value_extrapolates_first_order_tail():
    s = first_order(tau=1.0)
    assert mx.final_value(s) == pytest.approx(1.0, abs=1e-12)
    assert mx.steady_state(s) < 1.0 - 1e-4  # the tail mean lags the asymptote


def test_final_value_ramp_falls_back_to_tail_mean():
    t = np.arange(0, 5, 0.01)
    s = series(t, t)
    assert mx.final_value(s) == mx.steady_state(s) == pytest.approx(4.745)
    # slope 1 from 0: the 10-90% rise of the tail mean is 0.8 of it
    assert mx.rise_time(s) == pytest.approx(0.8 * 4.745, rel=1e-12)


def test_final_value_noisy_flat_falls_back_to_tail_mean():
    rng = np.random.default_rng(7)
    t = np.arange(0, 8, 1e-3)
    for _ in range(200):
        s = series(t, 1.0 + rng.normal(0.0, 1e-3, len(t)))
        assert mx.final_value(s) == mx.steady_state(s)


def test_final_value_short_trace_falls_back_to_tail_mean():
    # a window is at least one sample: three windows do not fit in one or two
    one = series([0.0], [3.0])
    assert mx.final_value(one) == mx.steady_state(one) == 3.0
    two = series([0.0, 1.0], [0.0, 1.0])
    assert mx.final_value(two) == mx.steady_state(two) == 1.0


def test_percent_overshoot_flat_and_peaked():
    assert mx.percent_overshoot(series([0, 1], [1.0, 1.0]), 1.0) == 0.0
    assert mx.percent_overshoot(series([0, 1, 2], [0.0, 1.2, 1.0]), 1.0) == pytest.approx(20.0)


def test_percent_overshoot_second_order_analytic():
    # standard underdamped step response; overshoot = exp(-zeta*pi/sqrt(1-zeta^2))
    zeta, wn = 0.5, 4.0
    wd = wn * math.sqrt(1 - zeta ** 2)
    t = np.arange(0, 10, 1e-4)
    y = 1 - np.exp(-zeta * wn * t) * (np.cos(wd * t)
                                      + zeta / math.sqrt(1 - zeta ** 2) * np.sin(wd * t))
    expected = math.exp(-zeta * math.pi / math.sqrt(1 - zeta ** 2)) * 100
    got = mx.percent_overshoot(series(t, y), 1.0)
    assert got == pytest.approx(expected, abs=0.5)


def test_settling_time_constant_trace_is_zero():
    s = series([0, 1, 2], [3.0, 3.0, 3.0])
    assert mx.settling_time(s, 0.02) == 0.0
    assert mx.iae(s, 3.0) == 0.0


def test_settling_time_first_order():
    s = first_order(tau=1.0)
    # last exit from the 2% band around 1.0 happens near -ln(0.02) = 3.912 s
    assert mx.settling_time(s, 0.02) == pytest.approx(3.91, abs=0.05)


def test_steady_state_error():
    s = first_order(tau=0.2, horizon=5.0)
    assert mx.steady_state_error(s, 1.0) == pytest.approx(0.0, abs=1e-3)
    assert mx.steady_state_error(s, 1.5) == pytest.approx(0.5, abs=1e-3)


def test_iae_rectified_sine_analytic():
    omega = 2 * math.pi
    t = np.arange(0, 1.0 + 1e-5, 1e-5)
    s = series(t, np.abs(np.sin(omega * t)))
    assert mx.iae(s, 0.0) == pytest.approx(4.0 / omega, abs=1e-4)


def test_iae_nonnegative_and_zero_on_self():
    s = first_order()
    assert mx.iae(s, s.v) == 0.0


# -- frequency / voltage stability ------------------------------------------------

@pytest.mark.parametrize("mask, expected", [
    ([], []),
    ([True], [(0.0, 0.0)]),
    ([False], []),
    ([True] * 4, [(0.0, 3.0)]),
    ([False] * 4, []),
    ([True, False, False, True], [(0.0, 0.0), (3.0, 3.0)]),
    ([True, True, False, True, True], [(0.0, 1.0), (3.0, 4.0)]),
    ([False, True, True, False, True, False], [(1.0, 2.0), (4.0, 4.0)]),
])
def test_intervals_where_edge_cases(mask, expected):
    t = np.arange(len(mask)) * 1.0
    assert mx._intervals_where(t, np.array(mask, dtype=bool)) == expected


def test_frequency_stability_constant_nominal():
    t = np.arange(0, 1, 1e-3)
    rep = mx.frequency_stability(series(t, np.full_like(t, 60.0)),
                                 FrequencyProtection())
    assert rep.values["nadir"] == 60.0
    assert rep.intervals == {}


def test_frequency_stability_dip_below_trip():
    t = np.arange(0, 10, 1e-2)
    v = 60.0 - 4.25 * np.exp(-((t - 5) ** 2))  # dips to 55.75
    rep = mx.frequency_stability(series(t, v), FrequencyProtection())
    assert rep.values["nadir"] == pytest.approx(55.75, abs=1e-6)
    assert "underfreq_trip" in rep.intervals
    lo, hi = rep.intervals["underfreq_trip"][0]
    assert lo < 5.0 < hi


def test_max_rocof_on_linear_ramp():
    t = np.arange(0, 5, 1e-3)
    rep = mx.frequency_stability(series(t, 60.0 + 0.6 * t), FrequencyProtection())
    assert rep.values["max_rocof"] == pytest.approx(0.6, abs=1e-6)


def test_voltage_stability_detects_sag():
    t = np.arange(0, 3, 1e-3)
    v = np.where((t > 1.5) & (t < 2.0), 0.5, 1.0)
    rep = mx.voltage_stability(series(t, v), (0.95, 1.05))
    assert rep.values["v_min"] == pytest.approx(0.5)
    assert rep.intervals["below"][0][0] == pytest.approx(1.501, abs=2e-3)


def test_voltage_stability_clean_trace():
    t = np.arange(0, 1, 1e-3)
    rep = mx.voltage_stability(series(t, np.ones_like(t)), (0.95, 1.05))
    assert rep.intervals == {}


# -- cyber metrics -------------------------------------------------------------------

def sample_log():
    # two flows, one delayed delivery, one drop
    def send(t, pid, src, dst):
        return {"t": t, "event": "send", "node": src, "packet_id": pid,
                "detail": {"kind": "poll", "dst": dst, "size": 1000}}

    def deliver(t, pid, src, dst, delay):
        return {"t": t, "event": "deliver", "node": dst, "packet_id": pid,
                "detail": {"kind": "poll", "src": src, "dst": dst,
                           "created_at": t - delay, "delay": delay}}

    return [
        send(0.0, 1, "a", "b"), deliver(0.001, 1, "a", "b", 0.001),
        send(0.1, 2, "a", "b"), deliver(0.601, 2, "a", "b", 0.501),
        send(0.2, 3, "a", "b"),
        {"t": 0.2, "event": "drop", "node": "l1", "packet_id": 3,
         "detail": {"reason": "loss", "kind": "poll", "src": "a", "dst": "b"}},
        send(0.3, 4, "b", "a"), deliver(0.301, 4, "b", "a", 0.001),
    ]


def test_cyber_metrics_aggregation():
    l1 = NetLink("l1", "a", "b", bandwidth=1e6)
    rep = cyber_metrics(sample_log(), 1.0, {"a->b": (0.001, [l1]), "b->a": (0.001, [l1])})
    v = rep.values
    assert v["packets_sent"] == 4
    assert v["packets_delivered"] == 3
    assert v["packets_dropped"] == 1
    assert v["packet_error_rate"] == pytest.approx(0.25)
    assert v["packets_delayed"] == 1
    assert v["max_delay"] == pytest.approx(0.501)
    assert v["jitter"] == pytest.approx(0.5)  # one successive pair differing by 0.5
    assert v["throughput_bps"] == pytest.approx(3 * 8000 / 1.0)
    assert v["channel_utilization"]["l1"] == pytest.approx(3 * 8000 / 1e6)
    assert v["hop_counts"] == {"a->b": 1, "b->a": 1}


def test_delay_residue_counts_as_none_in_jitter_and_delayed_packets():
    # one rule for both: delay differences up to DELAY_EPS are float residue
    def deliver(pid, delay):
        return {"t": 1.0 + pid, "event": "deliver", "node": "b", "packet_id": pid,
                "detail": {"kind": "poll", "src": "a", "dst": "b",
                           "created_at": 1.0 + pid - delay, "delay": delay}}

    residue = mx.DELAY_EPS / 2
    log = [deliver(1, 0.002), deliver(2, 0.002 + residue), deliver(3, 0.002)]
    v = cyber_metrics(log, 10.0, {"a->b": (0.002, [])}).values
    assert v["per_flow_jitter"]["a->b"] == v["jitter"] == 0.0
    assert v["packets_delayed"] == 0
    late = 0.002 + 2 * mx.DELAY_EPS
    log[1] = deliver(2, late)
    v = cyber_metrics(log, 10.0, {"a->b": (0.002, [])}).values
    assert v["per_flow_jitter"]["a->b"] == v["jitter"] == pytest.approx(late - 0.002)
    assert v["packets_delayed"] == 1


def test_cyber_metrics_empty_log():
    rep = cyber_metrics([], 1.0, {})
    assert rep.values["packets_sent"] == 0
    assert rep.values["avg_delay"] == 0.0
