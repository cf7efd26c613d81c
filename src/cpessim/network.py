"""Virtual-time discrete-event communication network.

Nodes exchange typed packets over links with bandwidth, propagation delay,
optional jitter, and loss.  Routing is static minimum-hop, fixed at scenario
load.  Master/outstation apps implement polling semantics: the master polls
each outstation periodically and each outstation answers with an empty
measurement report.  A control command's payload is its action; when it
reaches the asset's outstation it is kept in ``NetworkSim.commands`` with its
dispatch time, for the grid to apply.  All ordering is defined on the virtual
clock; ties dispatch in insertion order so runs are reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .attacks import DoS, TimeDelay
from .physical import float_sum

DEFAULT_MESSAGE_BYTES = 292
QUEUE_CAPACITY = 64  # packets waiting per link direction; one more drops


class NodeRole(Enum):
    ENDPOINT = "endpoint"
    ROUTER = "router"


class PacketKind(Enum):
    MEASUREMENT_REPORT = "measurement_report"
    CONTROL_COMMAND = "control_command"
    POLL = "poll"


@dataclass
class NetNode:
    id: str
    role: NodeRole = NodeRole.ENDPOINT
    app: Optional["AppConfig"] = None
    processing_delay: float = 0.0


@dataclass
class AppConfig:
    kind: str                   # "master" | "outstation"
    asset: Optional[str] = None  # grid asset bound to an outstation

    def __post_init__(self):
        if self.kind not in ("master", "outstation"):
            raise ValueError(f"unknown app kind {self.kind!r}")
        if self.kind == "outstation" and not self.asset:
            raise ValueError("outstation app needs a bound grid asset id")


@dataclass
class NetLink:
    id: str
    a: str                      # node id
    b: str                      # node id
    bandwidth: float            # bits/s
    prop_delay: float = 0.0     # s
    jitter: float = 0.0         # uniform +/- jitter, s (0 disables)
    loss_rate: float = 0.0

    def tx_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.bandwidth


@dataclass
class Packet:
    id: int
    src: str
    dst: str
    created_at: float
    kind: PacketKind
    payload: Optional[str] = None  # a command's action


def log_entry(t: float, event: str, node: str, packet_id, detail: dict) -> dict:
    """One entry of the event log, which the network and the engine share."""
    return {"t": t, "event": event, "node": node, "packet_id": packet_id, "detail": detail}


class EventQueue:
    """Time-ordered pending events; ties break by insertion sequence."""

    def __init__(self):
        self._heap: list = []
        self._seq = itertools.count()
        self.now = 0.0

    def push(self, t: float, fn: Callable[[], None]) -> None:
        if not t >= self.now - 1e-9:  # NaN too: it would never dispatch
            raise ValueError(f"cannot schedule event at {t} before now={self.now}")
        heapq.heappush(self._heap, (max(t, self.now), next(self._seq), fn))

    def run_until(self, t_end: float) -> None:
        """Dispatch every pending event with timestamp strictly before t_end."""
        heap = self._heap
        while heap and heap[0][0] < t_end:
            t, _, fn = heapq.heappop(heap)
            self.now = t
            fn()
        self.now = max(self.now, t_end)


def min_hop_path(adjacency: dict[str, list[str]], src: str, dst: str) -> list[str]:
    """Lexicographically smallest minimum-hop node path from src to dst.

    Breadth-first distances from the destination, then a greedy walk that
    always picks the smallest neighbor id still on a shortest path.
    """
    if src not in adjacency or dst not in adjacency:
        raise KeyError(f"unknown node in route request: {src!r} -> {dst!r}")
    if src == dst:
        return []
    dist = {dst: 0}
    frontier = [dst]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adjacency[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    if src not in dist:
        raise ValueError(f"no path between {src!r} and {dst!r}")
    path = [src]
    cur = src
    while cur != dst:
        cur = next(nb for nb in adjacency[cur] if dist.get(nb, math.inf) == dist[cur] - 1)
        path.append(cur)
    return path


class NetworkSim:
    """Event-driven network; the commands its outstations receive are kept in
    ``commands`` as ``(dispatch time, asset, action)``, in arrival order.

    The topology is taken as given: scenario load checks ids, link ends,
    parallel links, app placement (one master, at most one outstation per
    asset) and attack taps."""

    def __init__(self, nodes: Sequence[NetNode], links: Sequence[NetLink],
                 rng: Optional[np.random.Generator] = None,
                 message_bytes: int = DEFAULT_MESSAGE_BYTES):
        if message_bytes < 1:
            raise ValueError(f"message_bytes must be >= 1, got {message_bytes}")
        self.nodes = {n.id: n for n in nodes}
        self.message_bytes = message_bytes  # every packet's size
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.events = EventQueue()
        self.log: list[dict] = []
        self._packet_ids = itertools.count(1)
        self._link_by_pair: dict[tuple[str, str], NetLink] = {}
        self._adjacency: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._queued: dict[tuple[str, str], int] = {}  # packets waiting, per direction
        self._busy_until: dict[tuple[str, str], float] = {}
        self._dos: dict[str, list[DoS]] = {}
        self._delays: dict[str, list[TimeDelay]] = {}
        self._routes: dict[tuple[str, str], list[str]] = {}
        self.commands: list[tuple[float, str, str]] = []
        self.master = next((n.id for n in nodes if n.app and n.app.kind == "master"), None)
        self.outstations = {n.app.asset: n.id for n in nodes
                            if n.app and n.app.kind == "outstation"}

        for link in links:
            pair = (link.a, link.b)
            self._link_by_pair[pair] = link
            self._link_by_pair[pair[::-1]] = link
            self._adjacency[link.a].append(link.b)
            self._adjacency[link.b].append(link.a)
            for direction in (pair, pair[::-1]):
                self._queued[direction] = 0
                self._busy_until[direction] = 0.0
        for nb_list in self._adjacency.values():
            nb_list.sort()

    # -- topology ----------------------------------------------------------

    def route(self, src: str, dst: str) -> list[str]:
        key = (src, dst)
        if key not in self._routes:
            self._routes[key] = min_hop_path(self._adjacency, src, dst)
        return self._routes[key]

    def links_on(self, src: str, dst: str) -> list[NetLink]:
        """Links along the route from src to dst, in hop order."""
        path = self.route(src, dst)
        return [self._link_by_pair[(a, b)] for a, b in zip(path, path[1:])]

    def baseline_delay(self, src: str, dst: str) -> float:
        """Deterministic end-to-end delay along the route: sum of tx + prop per hop."""
        return float_sum(link.tx_time(self.message_bytes) + link.prop_delay
                         for link in self.links_on(src, dst))

    def attach_attacks(self, specs: Sequence) -> None:
        for spec in specs:
            if isinstance(spec, DoS):
                self._dos.setdefault(spec.tap, []).append(spec)
            elif isinstance(spec, TimeDelay):
                self._delays.setdefault(spec.tap, []).append(spec)

    # -- packet pipeline ----------------------------------------------------

    def send_packet(self, src: str, dst: str, kind: PacketKind, now: float,
                    payload=None) -> Packet:
        pkt = Packet(id=next(self._packet_ids), src=src, dst=dst, created_at=now, kind=kind,
                     payload=payload)
        path = self.route(src, dst)
        self.log.append(log_entry(now, "send", src, pkt.id,
                                  {"kind": kind.value, "dst": dst, "size": self.message_bytes}))
        if not path:
            self._deliver(pkt, src, now)
            return pkt
        self.events.push(now, lambda: self._hop(pkt, path, 0, now))
        return pkt

    def _hop(self, pkt: Packet, path: list[str], hop: int, now: float) -> None:
        a, b = path[hop], path[hop + 1]
        link = self._link_by_pair[(a, b)]
        direction = (a, b)

        for spec in self._dos.get(link.id, ()):
            if spec.window.contains(now):
                self._drop(pkt, link.id, now, "dos")
                return
        if link.loss_rate > 0 and self.rng.random() < link.loss_rate:
            self._drop(pkt, link.id, now, "loss")
            return

        busy = self._busy_until[direction]
        if now < busy:
            if self._queued[direction] >= QUEUE_CAPACITY:
                self._drop(pkt, link.id, now, "queue_full")
                return
            self._queued[direction] += 1
            start_tx = busy
            self.events.push(start_tx, lambda: self._start_tx(direction))
        else:
            start_tx = now
        tx_end = start_tx + link.tx_time(self.message_bytes)
        self._busy_until[direction] = tx_end

        arrival = tx_end + link.prop_delay
        if link.jitter > 0:
            arrival += self.rng.uniform(-link.jitter, link.jitter)
            arrival = max(arrival, tx_end)
        for spec in self._delays.get(link.id, ()):
            if spec.window.contains(now):  # sent inside the window: arrives late
                arrival += spec.delay

        if hop + 1 == len(path) - 1:
            self.events.push(arrival, lambda: self._deliver(pkt, path[-1], arrival))
        else:
            forward_at = arrival + self.nodes[b].processing_delay
            self.events.push(forward_at, lambda: self._hop(pkt, path, hop + 1, forward_at))

    def _start_tx(self, direction: tuple[str, str]) -> None:
        self._queued[direction] -= 1

    def _drop(self, pkt: Packet, link_id: str, now: float, reason: str) -> None:
        self.log.append(log_entry(now, "drop", link_id, pkt.id,
                                  {"reason": reason, "kind": pkt.kind.value,
                                   "src": pkt.src, "dst": pkt.dst}))
        if pkt.kind is PacketKind.CONTROL_COMMAND:
            self.log.append(log_entry(now, "command_lost", pkt.dst, pkt.id,
                                      {"reason": reason, "payload": f"action={pkt.payload}"}))

    def _deliver(self, pkt: Packet, node_id: str, now: float) -> None:
        self.log.append(log_entry(now, "deliver", node_id, pkt.id,
                                  {"kind": pkt.kind.value, "src": pkt.src, "dst": pkt.dst,
                                   "created_at": pkt.created_at, "delay": now - pkt.created_at}))
        node = self.nodes[node_id]
        app = node.app
        if app is None:
            return
        if app.kind == "outstation" and pkt.kind is PacketKind.POLL:
            self.send_packet(node_id, pkt.src, PacketKind.MEASUREMENT_REPORT, now)
        elif app.kind == "outstation" and pkt.kind is PacketKind.CONTROL_COMMAND:
            self.commands.append((self.events.now, app.asset, pkt.payload))

    # -- applications --------------------------------------------------------

    def start_polling(self, period: float, start: float = 0.0) -> None:
        """Master polls each outstation once per period, round-robin staggered.

        A period of 0, or a network without a master or an outstation, polls
        nothing."""
        if period < 0:
            raise ValueError("poll period must be >= 0")
        outstations = sorted(self.outstations.values())
        if period == 0 or self.master is None or not outstations:
            return
        slot = period / len(outstations)

        def emit(out: str, offset: float, k: int):
            t = start + offset + k * period  # multiplicative: no float accumulation
            self.send_packet(self.master, out, PacketKind.POLL, t)
            self.events.push(t + period, lambda: emit(out, offset, k + 1))

        for j, out in enumerate(outstations):
            self.events.push(start + j * slot,
                             lambda out=out, j=j: emit(out, j * slot, 0))

    def send_command(self, asset: str, action: str, now: float) -> Packet:
        """Issue a control command from the master to the outstation bound to asset."""
        return self.send_packet(self.master, self.outstations[asset],
                                PacketKind.CONTROL_COMMAND, now, payload=action)

    def run_until(self, t_end: float) -> None:
        """Dispatch every event before t_end."""
        self.events.run_until(t_end)
