"""Seeded inputs for the benchmark workloads.

Rule sets, frames and packet orders are built here from the run's seed alone,
so edits to ``shimguard.bench`` cannot shift the baseline. Each generator also
states the disposition every frame was designed to receive; the runner checks
that an uncached reference switch agrees before it trusts any timing.
"""

from __future__ import annotations

import random
import struct
from typing import NamedTuple

from shimguard.attacks import AttackKind, AttackSpec, craft
from shimguard.flowtable import Dropped, Forwarded, SentToController
from shimguard.packet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_MPLS_UNICAST,
    IPPROTO_TCP,
    IPPROTO_UDP,
    EthernetHeader,
    Ipv4Header,
    MplsLse,
    RawFrame,
    encode_frame,
)

SWITCH_MAC = bytes.fromhex("02000000ff01")

# fwd-hot: four rules, one mask per winning rule, every flow forwarded.
HOT_RULES = """
priority=100, eth_type=0x0800, ip_proto=17, l4_dst=53, actions=output:4
priority=90, eth_type=0x0800, ip_proto=6, actions=output:3
priority=50, eth_type=0x0800, ip_proto=17, actions=output:2
priority=1, actions=drop
"""

# fwd-churn and fwd-flood: each priority level consults one field more than
# the level above it, so flows won at different levels install megaflow
# entries under four different masks:
#   500 -> {eth_type, ip_proto, l4_dst}
#   400 -> + l4_src
#   300 -> + ip_dst
#   200, 100, 1 -> + in_port
LAYERED_RULES = """
priority=500, eth_type=0x0800, ip_proto=17, l4_dst=53, actions=output:5
priority=400, eth_type=0x0800, ip_proto=6, l4_src=443, actions=output:4
priority=300, eth_type=0x0800, ip_dst=10.9.0.1, actions=controller
priority=200, in_port=2, eth_type=0x0800, actions=output:3
priority=100, eth_type=0x0800, ip_proto=17, actions=output:2
priority=1, actions=output:1
"""
CONTROLLER_IP = 0x0A090001  # 10.9.0.1

HOT_FLOWS = 64
CHURN_FLOWS = 65_536  # 16 x the 4096-entry microflow LRU
FLOOD_PACKETS = 65_536
FLOOD_ATTACK_SHARE = 0.25
CHURN_SIZES = (60, 590, 1514)


class Flow(NamedTuple):
    """One distinct input frame, the port it arrives on and its intended fate."""

    frame: RawFrame
    in_port: int
    expected: object  # a shimguard.flowtable Disposition
    level: str = ""  # the layered-rule traffic class, for flows built against LAYERED_RULES


def ipv4_frame(size: int, proto: int, eth_src: bytes, ip_src: int, ip_dst: int, sport: int, dport: int) -> RawFrame:
    """A well-formed IPv4 UDP or TCP frame of exactly ``size`` octets."""
    if proto == IPPROTO_UDP:
        l4 = struct.pack(">HHHH", sport, dport, size - 34, 0)
    else:
        l4 = struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 5 << 4, 0x10, 65535, 0, 0)
    pad = size - 34 - len(l4)
    if pad < 0:
        raise ValueError(f"frame size {size} too small for protocol {proto}")
    ip = Ipv4Header(total_length=size - 14, protocol=proto, src_ip=ip_src, dst_ip=ip_dst)
    return encode_frame(EthernetHeader(SWITCH_MAC, eth_src, ETHERTYPE_IPV4), [ip], payload=l4 + bytes(pad))


def _mac(rng: random.Random) -> bytes:
    return b"\x02" + rng.randbytes(5)


def _port_except(rng: random.Random, *avoid: int) -> int:
    while True:
        port = rng.randrange(1024, 65536)
        if port not in avoid:
            return port


def hot_flows(rng: random.Random) -> list[Flow]:
    """64 minimum-size flows: 8 DNS (output:4), 24 other UDP (output:2), 32 TCP (output:3)."""
    flows = []
    for i in range(HOT_FLOWS):
        if i < 8:
            proto, dport, expected = IPPROTO_UDP, 53, Forwarded((4,))
        elif i < 32:
            proto, dport, expected = IPPROTO_UDP, _port_except(rng), Forwarded((2,))
        else:
            proto, dport, expected = IPPROTO_TCP, _port_except(rng), Forwarded((3,))
        frame = ipv4_frame(60, proto, _mac(rng), rng.getrandbits(32), rng.getrandbits(32), _port_except(rng), dport)
        flows.append(Flow(frame, 1, expected))
    return flows


# Layered-rule traffic classes: (name, share of flows, in_port, disposition).
_LAYERED_CLASSES = (
    ("dns", 0.10, 1, Forwarded((5,))),
    ("https", 0.15, 1, Forwarded((4,))),
    ("controller", 0.10, 1, SentToController()),
    ("port2", 0.20, 2, Forwarded((3,))),
    ("udp", 0.30, 1, Forwarded((2,))),
    ("tcp", 0.15, 1, Forwarded((1,))),
)


def _layered_flow(rng: random.Random, cls: str, size: int, dport: int) -> RawFrame:
    """A frame whose highest-priority matching rule is the one ``cls`` names.

    ``dport`` is used unless the class fixes the destination port.
    """
    ip_dst = rng.getrandbits(32)
    if ip_dst == CONTROLLER_IP:
        ip_dst ^= 1
    sport = _port_except(rng, 443)
    if cls == "dns":
        proto, dport = IPPROTO_UDP, 53
    elif cls == "https":
        proto, sport = IPPROTO_TCP, 443
    elif cls == "controller":
        proto, ip_dst = rng.choice((IPPROTO_UDP, IPPROTO_TCP)), CONTROLLER_IP
    elif cls == "port2":
        proto = rng.choice((IPPROTO_UDP, IPPROTO_TCP))
    elif cls == "udp":
        proto = IPPROTO_UDP
    else:
        proto = IPPROTO_TCP
    return ipv4_frame(size, proto, _mac(rng), rng.getrandbits(32), ip_dst, sport, dport)


def _class_plan(rng: random.Random, count: int, classes) -> list[tuple]:
    """Exactly ``round(share * count)`` flows per class, in seeded order."""
    total = sum(share for _, share, _, _ in classes)
    plan = []
    for i, (name, share, port, expected) in enumerate(classes):
        n = count - len(plan) if i == len(classes) - 1 else round(count * share / total)
        plan += [(name, port, expected)] * n
    rng.shuffle(plan)
    return plan


def churn_flows(rng: random.Random) -> list[Flow]:
    """65 536 distinct flows of mixed size spread over every priority level."""
    flows = []
    for name, port, expected in _class_plan(rng, CHURN_FLOWS, _LAYERED_CLASSES):
        frame = _layered_flow(rng, name, rng.choice(CHURN_SIZES), _port_except(rng))
        flows.append(Flow(frame, port, expected, name))
    if len({(f.in_port, f.frame.data) for f in flows}) != len(flows):
        raise AssertionError("churn flows must be pairwise distinct")
    return flows


def leaders_first(order: list[int], flows: list[Flow]) -> list[int]:
    """``order`` with the first flow of each traffic class moved to the front, top priority first.

    The megaflow cache probes its masks in the order they were installed, so
    the order in which a packet order first meets each priority level sets
    the cost of every later lookup. Leading with one flow per class, in rule
    priority order, makes every seed install the masks in the same order.
    """
    leaders = []
    for name, *_ in _LAYERED_CLASSES:
        first = next((i for i in order if flows[i].level == name), None)
        if first is not None:
            leaders.append(first)
    chosen = set(leaders)
    return leaders + [i for i in order if i not in chosen]


def flood_flows(rng: random.Random) -> list[Flow]:
    """An upcall flood: benign flows with never-repeated megaflow projections, plus attack frames.

    Every benign destination port is distinct and every mask below priority
    500 contains ``l4_dst``, so no two benign packets share a megaflow entry.
    Under the hardened parser the crafted frames are dropped at extraction.
    """
    n_attack = round(FLOOD_PACKETS * FLOOD_ATTACK_SHARE)
    n_benign = FLOOD_PACKETS - n_attack
    dports = rng.sample(range(1024, 65536), n_benign)
    flows = []
    classes = [c for c in _LAYERED_CLASSES if c[0] != "dns"]  # DNS shares one projection
    for (name, port, expected), dport in zip(_class_plan(rng, n_benign, classes), dports):
        frame = _layered_flow(rng, name, 60, dport)
        flows.append(Flow(frame, port, expected, name))
    for i in range(n_attack):
        kind = (AttackKind.LONG_SHIM, AttackKind.SHORT_SHIM, AttackKind.ACL_BYPASS)[i % 3]
        spec = AttackSpec(
            kind,
            frame_size=rng.choice((64, 590, 1514)),
            fragment_len=rng.randrange(1, 4),
            total_length=rng.randrange(0, 20),
            sport=rng.randrange(1024, 65536),
            dport=rng.randrange(1024, 65536),
        )
        flows.append(Flow(craft(spec), rng.choice((1, 2)), Dropped()))
    rng.shuffle(flows)
    return flows


def fuzz_corpus(rng: random.Random) -> list[RawFrame]:
    """The three crafted attack frames, two UDP, two TCP and a terminated MPLS frame."""
    corpus = [
        craft(AttackSpec(AttackKind.LONG_SHIM)),
        craft(AttackSpec(AttackKind.SHORT_SHIM, fragment_len=rng.randrange(1, 4))),
        craft(AttackSpec(AttackKind.ACL_BYPASS, sport=rng.randrange(1024, 65536), dport=rng.randrange(1024, 65536))),
    ]
    for proto, size in ((IPPROTO_UDP, 60), (IPPROTO_UDP, 128), (IPPROTO_TCP, 60), (IPPROTO_TCP, 128)):
        corpus.append(ipv4_frame(size, proto, _mac(rng), rng.getrandbits(32), rng.getrandbits(32),
                                 rng.randrange(1024, 65536), rng.randrange(1, 65536)))
    inner = ipv4_frame(60, IPPROTO_UDP, _mac(rng), rng.getrandbits(32), rng.getrandbits(32), 4000, 4001)
    label = MplsLse(rng.randrange(16, 1 << 20), bottom_of_stack=True)
    eth = EthernetHeader(SWITCH_MAC, _mac(rng), ETHERTYPE_MPLS_UNICAST)
    corpus.append(encode_frame(eth, [label], payload=inner.data[14:]))
    return corpus
