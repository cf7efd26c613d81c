import math
from functools import partial

import numpy as np
import pytest

from cpessim import engine, presets
from cpessim.attacks import AttackWindow, DoS, TimeDelay
from cpessim.network import (AppConfig, NetLink, NetNode, NetworkSim, NodeRole, PacketKind,
                             min_hop_path)
from cpessim.scenario import scenario_from_dict


def single_link(bandwidth, prop=0.0, loss=0.0, rng=None):
    link = NetLink(id="l", a="a", b="b", bandwidth=bandwidth, prop_delay=prop,
                   loss_rate=loss)
    return NetworkSim([NetNode(id="a"), NetNode(id="b")], [link],
                      rng=rng or np.random.default_rng(0))


def events(sim, kind):
    return [e for e in sim.log if e["event"] == kind]


def star(outstations=("o1",), bandwidth=100e6, prop=1e-3, loss=0.0, jitter=0.0,
         rng=None):
    nodes = [NetNode(id="m", app=AppConfig(kind="master")),
             NetNode(id="r", role=NodeRole.ROUTER)]
    links = [NetLink(id="l_m", a="m", b="r", bandwidth=bandwidth, prop_delay=prop,
                     loss_rate=loss, jitter=jitter)]
    for o in outstations:
        nodes.append(NetNode(id=o, app=AppConfig(kind="outstation", asset=o)))
        links.append(NetLink(id=f"l_{o}", a="r", b=o, bandwidth=bandwidth,
                             prop_delay=prop, loss_rate=loss, jitter=jitter))
    return NetworkSim(nodes, links, rng=rng or np.random.default_rng(0))


# -- event loop ---------------------------------------------------------------

def test_event_queue_orders_by_time_then_insertion():
    q = single_link(1e6)
    seen = []
    q.push(2.0, lambda: seen.append("late"))
    q.push(1.0, lambda: seen.append("first"))
    q.push(1.0, lambda: seen.append("second"))
    q.run_until(3.0)
    assert seen == ["first", "second", "late"]
    assert q.now == 3.0


def test_event_queue_runs_strictly_before_end():
    q = single_link(1e6)
    seen = []
    q.push(1.0, lambda: seen.append(1))
    q.run_until(1.0)
    assert seen == []
    q.run_until(1.0001)
    assert seen == [1]


def test_networked_run_dispatches_the_network_once(monkeypatch):
    # once the run is built, up to the time the last step ends at
    sc = presets.preset_scenario("case3_tda", "delay_0")
    real_run_until = NetworkSim.run_until
    calls = []

    def counted(self, t_end):
        calls.append(t_end)
        real_run_until(self, t_end)

    monkeypatch.setattr(NetworkSim, "run_until", counted)
    run = engine._Run(sc, None)
    n_steps = round(sc.horizon / sc.dt_phys)
    assert calls == [n_steps * sc.dt_phys]
    run.execute()
    assert len(calls) == 1


PACKET_EVENTS = ("send", "deliver", "drop", "command_lost")


def test_grid_never_reaches_into_the_network():
    # delay_15's packet entries are those of a bare network run to the horizon,
    # with no grid attached: the coupling runs one way, network to grid
    sc = presets.preset_scenario("case3_tda", "delay_15")
    cfg = sc.network
    sim = NetworkSim(cfg.nodes, cfg.links, rng=engine.rng_for(sc.seed, "net"),
                     message_bytes=cfg.message_bytes)
    sim.attach_attacks(sc.attacks)
    sim.start_polling(cfg.poll_period, cfg.poll_start)
    for cmd in cfg.commands:
        sim.push(cmd["t"], partial(sim.send_command, cmd["asset"], cmd["action"]))
    sim.run_until(sc.horizon)
    packets = [e for e in engine.run(sc).event_log if e["event"] in PACKET_EVENTS]
    assert {e["event"] for e in packets} >= {"send", "deliver"}
    assert packets == [e for e in sim.log if e["event"] in PACKET_EVENTS]


def test_message_bytes_must_be_positive():
    nodes, links = [NetNode(id="a"), NetNode(id="b")], [NetLink(id="l", a="a", b="b",
                                                                bandwidth=1e6)]
    for size in (0, -1):
        with pytest.raises(ValueError, match="message_bytes"):
            NetworkSim(nodes, links, message_bytes=size)
    sim = NetworkSim(nodes, links, message_bytes=1)
    sim.send_packet("a", "b", PacketKind.POLL)
    sim.run_until(1.0)
    [send] = events(sim, "send")
    [deliver] = events(sim, "deliver")
    assert send["detail"]["size"] == 1
    assert deliver["t"] == 8.0 / 1e6  # one byte's transmit time, no propagation delay


def test_event_queue_rejects_past():
    q = single_link(1e6)
    q.run_until(5.0)
    with pytest.raises(ValueError):
        q.push(1.0, lambda: None)
    with pytest.raises(ValueError):  # no tolerance: a hair before now is the past too
        q.push(5.0 - 1e-15, lambda: None)
    q.push(5.0, lambda: None)


def test_event_queue_rejects_nan():
    # a NaN time compares false with everything: the heap would never dispatch it
    # or anything behind it
    q = single_link(1e6)
    with pytest.raises(ValueError):
        q.push(math.nan, lambda: None)


# -- single-link transmit contract ---------------------------------------------

def test_transmit_deterministic_delay():
    link = NetLink(id="l", a="a", b="b", bandwidth=100e6, prop_delay=1e-3)
    sim = NetworkSim([NetNode(id="a"), NetNode(id="b")], [link], message_bytes=1000)
    sim.send_packet("a", "b", PacketKind.MEASUREMENT_REPORT)
    sim.run_until(1.0)
    [deliver] = events(sim, "deliver")
    assert deliver["t"] == pytest.approx(1.08e-3, abs=1e-12)
    assert deliver["detail"]["delay"] == pytest.approx(1.08e-3, abs=1e-12)


def test_transmit_always_drops_at_loss_one():
    sim = single_link(bandwidth=1e6, loss=1.0)
    for k in range(100):
        sim.push(k * 0.01, partial(sim.send_packet, "a", "b", PacketKind.MEASUREMENT_REPORT))
    sim.run_until(2.0)
    assert events(sim, "deliver") == []
    assert [e["detail"]["reason"] for e in events(sim, "drop")] == ["loss"] * 100


def test_transmit_loss_fraction_within_binomial_bounds():
    p = 0.1
    n = 100_000
    sim = single_link(bandwidth=1e9, loss=p, rng=np.random.default_rng(1234))
    spacing = 1e-5  # well above one packet's transmit time: nothing queues
    drops = 0
    for k in range(n):
        sim.push(k * spacing,
                 partial(sim.send_packet, "a", "b", PacketKind.MEASUREMENT_REPORT))
        sim.run_until((k + 1) * spacing)
        drops += len(events(sim, "drop"))
        sim.log.clear()  # count as we go instead of holding every entry
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(drops / n - p) < 3 * sigma


# -- routing ---------------------------------------------------------------------

def test_route_chain():
    adource = {"a": ["r"], "r": ["a", "b"], "b": ["r"]}
    assert min_hop_path(adource, "a", "b") == ["a", "r", "b"]


def test_route_self_is_empty():
    assert min_hop_path({"a": []}, "a", "a") == []


def test_route_disconnected_raises():
    with pytest.raises(ValueError):
        min_hop_path({"a": [], "b": []}, "a", "b")


@pytest.mark.parametrize("order", [1, -1], ids=["sorted", "reversed"])
def test_route_ring_prefers_lexicographically_smaller(order):
    # 4-node ring a-b-d-c-a: two equal-hop routes a->d; pick via smallest node ids,
    # whatever the order of the neighbour lists
    adj = {"a": ["b", "c"], "b": ["a", "d"], "c": ["a", "d"], "d": ["b", "c"]}
    adj = {node: nbs[::order] for node, nbs in adj.items()}
    got = min_hop_path(adj, "a", "d")
    # exhaustive enumeration oracle over all min-hop paths
    def all_paths(cur, dst, seen):
        if cur == dst:
            yield [cur]
            return
        for nb in adj[cur]:
            if nb not in seen:
                for rest in all_paths(nb, dst, seen | {nb}):
                    yield [cur] + rest
    candidates = list(all_paths("a", "d", {"a"}))
    min_len = min(map(len, candidates))
    best = min(p for p in candidates if len(p) == min_len)
    assert got == best == ["a", "b", "d"]


def test_route_is_stable_across_instances():
    s1, s2 = star(("o1", "o2")), star(("o1", "o2"))
    assert s1.route("m", "o2") == s2.route("m", "o2") == ["m", "r", "o2"]


# -- polling and commands -----------------------------------------------------------

def test_poll_count_over_horizon():
    sim = star(("o1",))
    sim.start_polling(period=0.1, start=0.0)
    sim.run_until(1.0)
    polls = [e for e in sim.log if e["event"] == "send"
             and e["detail"]["kind"] == "poll"]
    assert len(polls) == 10


def test_round_trip_is_twice_one_way():
    sim = star(("o1",))
    sim.start_polling(period=0.5, start=0.0)
    sim.run_until(0.4)
    [poll] = [e for e in sim.log if e["event"] == "send" and e["detail"]["kind"] == "poll"]
    [reply] = [e for e in sim.log if e["event"] == "deliver" and e["node"] == "m"
               and e["detail"]["kind"] == "measurement_report"]
    one_way = sim.baseline_delay("m", "o1")
    assert reply["t"] - poll["t"] == pytest.approx(2 * one_way, rel=1e-9)


def test_each_poll_runs_at_the_time_it_is_logged():
    # poll k of the outstation in slot j runs at start + j * slot + k * period, that
    # very float, which is also the network's clock when its send is logged
    sim = star(("o1", "o2", "o3"))
    clock = []

    class Clocked(list):
        def append(self, entry):
            clock.append(sim.now)
            super().append(entry)

    sim.log = Clocked()
    start, period, horizon = 0.05, 0.1, 30.0
    slot = period / 3
    sim.start_polling(period=period, start=start)
    sim.run_until(horizon)
    sends = [(e, now) for e, now in zip(sim.log, clock)
             if e["event"] == "send" and e["detail"]["kind"] == "poll"]
    for j, out in enumerate(("o1", "o2", "o3")):
        got = [(e["t"], now) for e, now in sends if e["detail"]["dst"] == out]
        want = [start + j * slot + k * period for k in range(len(got))]
        assert got == [(t, t) for t in want]
        assert len(got) >= 299 and start + j * slot + len(got) * period >= horizon


def test_only_polls_queued_behind_a_command_show_jitter():
    # case3's links carry no jitter.  The polls of out_bess at 10.0 s and 10.1 s are
    # sent while the 10.0 s and 10.1 s commands are still on l_mgc, and wait one
    # transmit time behind them; every other delivery takes its fixed path delay
    sc = presets.preset_scenario("case3_tda", "delay_15")
    result = engine.run(sc)
    tx = sc.network.message_bytes * 8 / 100e6  # 23.36 us on each 100 Mbit/s link
    fixed = 2 * (tx + 1e-3)                     # 2.04672 ms over two hops
    bess = [(e["detail"]["created_at"], e["detail"]["delay"]) for e in result.event_log
            if e["event"] == "deliver" and e["node"] == "out_bess"]
    late = [(t, delay) for t, delay in bess if delay != pytest.approx(fixed, abs=1e-12)]
    assert len(bess) == 300
    assert [t for t, _ in late] == pytest.approx([10.0, 10.1], abs=1e-12)
    assert [delay for _, delay in late] == pytest.approx([fixed + tx] * 2, abs=1e-12)
    [cyber] = [r for r in result.metric_reports if r.kind == "cyber"]
    jitter = cyber.values["per_flow_jitter"]
    assert len(jitter) == 11
    assert {key for key, value in jitter.items() if value != 0.0} == {"mgc->out_bess"}
    assert jitter["mgc->out_bess"] == pytest.approx(2 * tx / 299, rel=1e-9)  # up, then down


def test_polling_off_without_period_master_or_outstation():
    for sim, period in ((star(("o1",)), 0.0), (star(()), 0.1), (single_link(1e6), 0.1)):
        sim.start_polling(period=period)
        sim.run_until(1.0)
        assert sim.log == []
    with pytest.raises(ValueError):
        star(("o1",)).start_polling(period=-0.1)


def test_send_command_applies_payload():
    sim = star(("o1",))
    sim.send_command("o1", "shed")
    sim.run_until(1.0)
    [(t, asset, action)] = sim.commands
    assert (asset, action) == ("o1", "shed")
    assert t == pytest.approx(sim.baseline_delay("m", "o1"), rel=1e-9)


def test_command_lost_under_drop_all_dos():
    sim = star(("o1",))
    sim.attach_attacks([DoS(tap="link:l_o1", window=AttackWindow(((0.0, 10.0),)))])
    sim.send_command("o1", "shed")
    sim.run_until(1.0)
    assert sim.commands == []
    lost = [e for e in sim.log if e["event"] == "command_lost"]
    assert len(lost) == 1


def test_dos_drops_counted_per_window():
    sim = star(("o1",))
    sim.attach_attacks([DoS(tap="link:l_o1", window=AttackWindow(((0.0, 0.5),)))])
    sim.start_polling(period=0.1, start=0.0)
    sim.run_until(1.0)
    dos_drops = [e for e in sim.log if e["event"] == "drop" and e["detail"]["reason"] == "dos"]
    # polls entering the tapped link in [0, 0.5): emitted at 0.0 .. 0.4
    assert len(dos_drops) == 5


def test_time_delay_shifts_arrivals_by_constant():
    base = star(("o1",))
    base.start_polling(period=0.1, start=0.0)
    base.run_until(1.0)
    delayed = star(("o1",))
    delayed.attach_attacks([TimeDelay(tap="link:l_o1", delay=0.25,
                                      window=AttackWindow(((0.0, 10.0),)))])
    delayed.start_polling(period=0.1, start=0.0)
    delayed.run_until(2.0)
    base_deliv = [e for e in base.log if e["event"] == "deliver"
                  and e["node"] == "o1"]
    del_deliv = [e for e in delayed.log if e["event"] == "deliver"
                 and e["node"] == "o1"]
    for b, d in zip(base_deliv, del_deliv):
        assert d["t"] - b["t"] == pytest.approx(0.25, abs=1e-12)


def test_link_delay_window_gating():
    # only packets that enter the tapped link inside the window arrive late
    arrivals = []
    for specs in ([], [TimeDelay(tap="link:l_o1", delay=0.25, window=AttackWindow(((0.3, 0.6),)))]):
        sim = star(("o1",))
        sim.attach_attacks(specs)
        sim.start_polling(period=0.1, start=0.0)
        sim.run_until(2.0)
        arrivals.append({e["detail"]["created_at"]: e["t"] for e in events(sim, "deliver")
                         if e["node"] == "o1"})
    base, delayed = arrivals
    shifts = [delayed[t] - base[t] for t in sorted(base) if t < 1.0]
    # polls sent at 0.3, 0.4 and 0.5 s enter l_o1 about 1 ms later, inside [0.3, 0.6)
    assert shifts == pytest.approx([0, 0, 0, 0.25, 0.25, 0.25, 0, 0, 0, 0], abs=1e-12)


def case3_doc():
    """The polled case-study network; its topology is checked at scenario load."""
    return presets.preset_doc("case3_tda", "delay_0")


def test_processing_delay_alone_delays_no_packet():
    # the router's processing delay is part of each routed flow's baseline: with no
    # queueing, jitter or attack, no packet counts as delayed
    doc = case3_doc()
    doc["meta"]["horizon"] = 2.0  # before the commands, so nothing queues
    doc["attacks"] = []
    assert doc["network"]["nodes"][1]["id"] == "router"
    doc["network"]["nodes"][1]["processing_delay_ms"] = 0.5
    sc = scenario_from_dict(doc)
    [cyber] = [r for r in engine.run(sc).metric_reports if r.kind == "cyber"]
    assert cyber.values["packets_delivered"] > 100
    assert cyber.values["packets_delayed"] == 0
    sim = NetworkSim(sc.network.nodes, sc.network.links)
    hop = sim.links_on("mgc", "router")[0]
    assert sim.baseline_delay("mgc", "out_gen") == pytest.approx(
        2 * (hop.tx_time(sim.message_bytes) + hop.prop_delay) + 0.5e-3, rel=1e-12)


def test_endpoint_processing_delay_delays_the_packets_it_receives():
    # every hop ends with the receiving node's processing delay, the destination's
    # too, and the baseline counts it: no packet counts as delayed
    doc = case3_doc()
    doc["meta"]["horizon"] = 2.0  # before the commands, so nothing queues
    for i, node in ((0, "mgc"), (2, "out_gen")):
        assert doc["network"]["nodes"][i]["id"] == node
        doc["network"]["nodes"][i]["processing_delay_ms"] = 5.0
    sc = scenario_from_dict(doc)
    result = engine.run(sc)
    delays = [e["detail"]["delay"] for e in result.event_log
              if e["event"] == "deliver" and e["node"] == "out_gen"]
    assert len(delays) == 20
    assert delays == pytest.approx([7.04672e-3] * 20, abs=1e-12)  # 2.04672 ms + 5 ms
    sim = NetworkSim(sc.network.nodes, sc.network.links)
    hop = sim.links_on("mgc", "router")[0]
    assert sim.baseline_delay("mgc", "out_gen") == pytest.approx(
        2 * (hop.tx_time(sim.message_bytes) + hop.prop_delay) + 5e-3, rel=1e-12)
    [cyber] = [r for r in result.metric_reports if r.kind == "cyber"]
    assert cyber.values["packets_delivered"] > 100
    assert cyber.values["packets_delayed"] == 0


def test_attach_attack_unknown_link():
    doc = case3_doc()
    doc["attacks"] = [{"type": "dos", "tap": "link:nope", "window": [[0.0, 1.0]]}]
    with pytest.raises(ValueError) as err:
        scenario_from_dict(doc)
    assert err.value.location == "attacks[0].tap"


# -- invariants ----------------------------------------------------------------------

def test_fifo_same_flow_never_reorders():
    # saturate a slow link so packets queue behind each other
    nodes = [NetNode(id="a", app=AppConfig(kind="master")),
             NetNode(id="b", app=AppConfig(kind="outstation", asset="x"))]
    links = [NetLink(id="l", a="a", b="b", bandwidth=8e4, prop_delay=1e-3)]
    sim = NetworkSim(nodes, links, rng=np.random.default_rng(0))
    ids = [sim.send_packet("a", "b", PacketKind.MEASUREMENT_REPORT).id for _ in range(20)]
    sim.run_until(10.0)
    arrivals = [e["packet_id"] for e in sim.log
                if e["event"] == "deliver" and e["node"] == "b"]
    assert arrivals == ids


def test_queue_overflow_drops_when_full():
    nodes = [NetNode(id="a", app=AppConfig(kind="master")),
             NetNode(id="b", app=AppConfig(kind="outstation", asset="x"))]
    links = [NetLink(id="l", a="a", b="b", bandwidth=8e3, prop_delay=0.0)]
    sim = NetworkSim(nodes, links, rng=np.random.default_rng(0))
    for _ in range(80):
        sim.send_packet("a", "b", PacketKind.MEASUREMENT_REPORT)
    sim.run_until(60.0)
    drops = [e for e in sim.log if e["event"] == "drop"
             and e["detail"]["reason"] == "queue_full"]
    assert len(drops) == 15  # 1 transmitting + 64 queued survive out of 80
    assert len(events(sim, "deliver")) == 65


def test_full_queue_accepts_a_packet_once_its_head_has_started():
    # 1 ms per packet: one transmits from t = 0 and 64 wait, starting at 1, 2, .. ms;
    # by 1.5 ms the first of them has started, so a packet sent then finds room
    link = NetLink(id="l", a="a", b="b", bandwidth=1e6)
    sim = NetworkSim([NetNode(id="a"), NetNode(id="b")], [link], message_bytes=125)
    assert link.tx_time(sim.message_bytes) == 1e-3
    for _ in range(66):
        sim.send_packet("a", "b", PacketKind.MEASUREMENT_REPORT)
    sim.push(1.5e-3, partial(sim.send_packet, "a", "b", PacketKind.POLL))
    sim.run_until(1.0)
    assert [e["detail"]["reason"] for e in events(sim, "drop")] == ["queue_full"]
    delivered = events(sim, "deliver")
    assert [e["detail"]["kind"] for e in delivered] == ["measurement_report"] * 65 + ["poll"]
    assert delivered[-1]["t"] == pytest.approx(66e-3, abs=1e-12)  # after the 65 before it


def test_conservation_per_flow():
    sim = star(("o1", "o2"), loss=0.2, rng=np.random.default_rng(9))
    sim.start_polling(period=0.05, start=0.0)
    sim.run_until(5.0)
    sim.run_until(100.0)  # drain
    counts = {}
    for e in sim.log:
        if e["event"] == "send":
            flow = (e["node"], e["detail"]["dst"])
        elif e["event"] in ("deliver", "drop"):
            flow = (e["detail"]["src"], e["detail"]["dst"])
        else:
            continue
        counts.setdefault(flow, dict.fromkeys(("send", "deliver", "drop"), 0))
        counts[flow][e["event"]] += 1
    assert len(counts) == 4  # polls and reports, both outstations
    assert sum(c["drop"] for c in counts.values()) > 0
    for flow, c in counts.items():
        assert c["send"] == c["deliver"] + c["drop"], flow


def test_delay_never_below_deterministic_floor():
    sim = star(("o1", "o2"), jitter=2e-4, rng=np.random.default_rng(5))
    sim.start_polling(period=0.05, start=0.0)
    sim.run_until(3.0)
    for e in sim.log:
        if e["event"] != "deliver":
            continue
        flow = (e["detail"]["src"], e["detail"]["dst"])
        floor = sum(l.tx_time(sim.message_bytes)
                    for l in sim.links_on(*flow))
        assert e["detail"]["delay"] >= floor - 1e-12


def test_identical_seeds_give_identical_logs():
    def run(seed):
        sim = star(("o1", "o2"), loss=0.1, jitter=1e-4,
                   rng=np.random.default_rng(seed))
        sim.start_polling(period=0.05, start=0.0)
        sim.run_until(3.0)
        return sim.log

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_links_on_follows_route():
    sim = star(("o1", "o2"))
    assert [l.id for l in sim.links_on("m", "o2")] == ["l_m", "l_o2"]
    assert [l.id for l in sim.links_on("o2", "o1")] == ["l_o2", "l_o1"]
    assert sim.links_on("m", "m") == []


def test_endpoint_without_links_rejected():
    doc = case3_doc()
    doc["network"]["nodes"].append({"id": "lonely"})
    with pytest.raises(ValueError, match="has no links") as err:
        scenario_from_dict(doc)
    assert err.value.location == "network.nodes[8]"


def test_app_placement_validation():
    doc = case3_doc()
    doc["network"]["nodes"][1]["app"] = {"kind": "master"}  # the router
    with pytest.raises(ValueError) as err:
        scenario_from_dict(doc)
    assert err.value.location == "network.nodes[1].app"
    with pytest.raises(ValueError):
        AppConfig(kind="outstation")  # missing asset
