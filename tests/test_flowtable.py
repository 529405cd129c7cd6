import random
import struct

import pytest

import shimguard.flowtable as flowtable
from shimguard.extract import ALL_PROFILES, HARDENED, VULN_232, VULN_240, VULN_250, Verdict, extract
from shimguard.flowtable import (
    FIELD_GETTERS,
    Drop,
    DuplicateFieldError,
    Dropped,
    Forwarded,
    Output,
    PopMpls,
    PushMpls,
    Rule,
    RuleSyntaxError,
    SentToController,
    SwitchState,
    ToController,
    UnknownFieldError,
    apply_actions,
    disposition_of,
    dump_state,
    load_rules,
    mask_projector,
)
from shimguard.packet import (
    EthernetHeader,
    FlowKey,
    Ipv4Header,
    MplsLse,
    ParseStatus,
    RawFrame,
    encode_frame,
)

MAC_A = bytes.fromhex("020000000001")
MAC_B = bytes.fromhex("020000000002")
ETH_IP = EthernetHeader(MAC_B, MAC_A, 0x0800)
ETH_MPLS = EthernetHeader(MAC_B, MAC_A, 0x8847)


def udp_frame(sport=53, dport=1024, src=0x0A000001, dst=0x0A000002):
    ip = Ipv4Header(total_length=28, protocol=17, src_ip=src, dst_ip=dst)
    return encode_frame(ETH_IP, [ip], payload=struct.pack(">HHHH", sport, dport, 8, 0))


def acl_bypass_frame(total_length=0, dport=8080):
    ip = Ipv4Header(total_length=total_length, protocol=17, src_ip=0x0A000001, dst_ip=0x0A000002)
    return encode_frame(ETH_IP, [ip], payload=struct.pack(">HH", 1234, dport))


# --- rule file ----------------------------------------------------------------


def test_load_rules_basic():
    rules = load_rules("priority=10, eth_type=0x0800, ip_proto=17, l4_dst=8080, actions=drop")
    assert len(rules) == 1
    rule = rules[0]
    assert rule.priority == 10
    assert dict(rule.match) == {"eth_type": 0x0800, "ip_proto": 17, "l4_dst": 8080}
    assert rule.actions == (Drop(),)


def test_load_rules_wildcard():
    (rule,) = load_rules("priority=1, actions=output:2")
    assert rule.match == ()
    assert rule.actions == (Output(2),)


def test_load_rules_syntax_error_line_number():
    with pytest.raises(RuleSyntaxError) as exc:
        load_rules("priority=x")
    assert exc.value.line == 1
    with pytest.raises(RuleSyntaxError) as exc:
        load_rules("priority=1, actions=output:2\npriority=2, actions=bogus")
    assert exc.value.line == 2
    with pytest.raises(RuleSyntaxError) as exc:
        load_rules("priority=1, parse_status=Bogus, actions=drop")
    assert str(exc.value) == "line 1: bad value for parse_status: unknown parse status 'Bogus'"


def test_load_rules_unknown_and_duplicate_fields():
    with pytest.raises(UnknownFieldError) as exc:
        load_rules("priority=1, vlan=7, actions=drop")
    assert exc.value.name == "vlan"
    with pytest.raises(DuplicateFieldError) as exc:
        load_rules("priority=1, ip_proto=6, ip_proto=17, actions=drop")
    assert exc.value.line == 1


def test_load_rules_comments_and_values():
    text = """
    # access policy
    priority=20, eth_src=02:00:00:00:00:01, ip_src=10.0.0.1, actions=output:1,output:2
    priority=5, parse_status=Complete, mpls_label=16, mpls_s=1, actions=controller  # trailing
    """
    rules = load_rules(text)
    assert len(rules) == 2
    assert dict(rules[0].match)["eth_src"] == MAC_A
    assert dict(rules[0].match)["ip_src"] == 0x0A000001
    assert rules[0].actions == (Output(1), Output(2))
    assert dict(rules[1].match)["parse_status"] is ParseStatus.COMPLETE
    assert rules[1].actions == (ToController(),)


@pytest.mark.parametrize(
    "token",
    [
        "in_port=-1",
        "in_port=4294967296",
        "eth_type=-1",
        "eth_type=0x10000",
        "mpls_label=0x100000",
        "mpls_label=-1",
        "mpls_s=2",
        "mpls_s=7",
        "ip_proto=300",
        "l4_src=65536",
        "l4_dst=99999",
        "l4_dst=-80",
        "actions=push_mpls:0x100000",
        "actions=push_mpls:-1",
    ],
)
def test_load_rules_rejects_values_wider_than_their_field(token):
    line = f"priority=5, {token}" if token.startswith("actions=") else f"priority=5, {token}, actions=drop"
    with pytest.raises(RuleSyntaxError) as exc:
        load_rules("priority=1, actions=output:1\n" + line)
    assert exc.value.line == 2


@pytest.mark.parametrize("port", ["-7", "-1", "4294967296", "99999999999"])
def test_load_rules_rejects_output_port_outside_32_bits(port):
    with pytest.raises(RuleSyntaxError, match="bad output port") as exc:
        load_rules(f"priority=1, actions=output:1\npriority=5, actions=output:{port}")
    assert exc.value.line == 2


def test_load_rules_accepts_output_port_extremes():
    (rule,) = load_rules("priority=1, actions=output:0,output:4294967295")
    assert rule.actions == (Output(0), Output(4294967295))


def test_load_rules_accepts_field_extremes_and_decimal_leading_zeros():
    (rule,) = load_rules(
        "priority=1, in_port=4294967295, eth_type=0xffff, mpls_label=0xfffff, mpls_s=01, "
        "ip_proto=255, l4_src=0, l4_dst=65535, actions=push_mpls:1048575"
    )
    assert dict(rule.match) == {
        "in_port": 0xFFFFFFFF, "eth_type": 0xFFFF, "mpls_label": 0xFFFFF, "mpls_s": 1,
        "ip_proto": 255, "l4_src": 0, "l4_dst": 0xFFFF,
    }
    assert rule.actions == (PushMpls(MplsLse(0xFFFFF, bottom_of_stack=True)),)


_FIELD_VALUES = {
    "in_port": lambda rng: rng.randrange(1 << 32),
    "eth_src": lambda rng: rng.randbytes(6),
    "eth_dst": lambda rng: rng.randbytes(6),
    "eth_type": lambda rng: rng.randrange(1 << 16),
    "mpls_label": lambda rng: rng.randrange(1 << 20),
    "mpls_s": lambda rng: rng.randrange(2),
    "ip_src": lambda rng: rng.randrange(1 << 32),
    "ip_dst": lambda rng: rng.randrange(1 << 32),
    "ip_proto": lambda rng: rng.randrange(1 << 8),
    "l4_src": lambda rng: rng.randrange(1 << 16),
    "l4_dst": lambda rng: rng.randrange(1 << 16),
    "parse_status": lambda rng: rng.choice(list(ParseStatus)),
}
_ACTION_MAKERS = (
    lambda rng: Output(rng.randrange(1 << 16)),
    lambda rng: Drop(),
    lambda rng: ToController(),
    lambda rng: PushMpls(MplsLse(rng.randrange(1 << 20), bottom_of_stack=True)),
    lambda rng: PopMpls(),
)


def test_rules_round_trip_through_rule_file_text():
    assert sorted(_FIELD_VALUES) == sorted(FIELD_GETTERS)
    rng = random.Random(77)
    for _ in range(200):
        rules = [
            Rule(
                priority=rng.randrange(-5, 1000),
                match=tuple((name, _FIELD_VALUES[name](rng))
                            for name in rng.sample(sorted(_FIELD_VALUES), k=rng.randrange(0, 13))),
                actions=tuple(rng.choice(_ACTION_MAKERS)(rng) for _ in range(rng.randrange(1, 4))),
            )
            for _ in range(rng.randrange(1, 8))
        ]
        assert load_rules("\n".join(map(str, rules))) == rules


# --- caches -------------------------------------------------------------------


def test_repeated_flow_single_upcall():
    state = SwitchState(load_rules("priority=1, actions=output:2"))
    frame = udp_frame()
    for _ in range(1000):
        disposition = state.process(frame, 1, HARDENED)
        assert disposition == Forwarded((2,))
    assert state.stats["slow_path_upcalls"] == 1
    assert state.stats["fast_path_hits"] == 999
    assert state.stats["forwards"] == 1000


def test_megaflow_disabled_every_packet_is_slow_path():
    state = SwitchState(load_rules("priority=1, actions=output:2"), megaflow_enabled=False)
    rng = random.Random(3)
    for _ in range(1000):
        frame = udp_frame(rng.randrange(1, 65535), rng.randrange(1, 65535))
        state.process(frame, 1, HARDENED)
    assert state.stats["slow_path_upcalls"] == 1000
    assert state.stats["fast_path_hits"] == 0
    assert len(state.microflow) == 0 and state.megaflow_entry_count() == 0


def test_microflow_lru_eviction_keeps_megaflow():
    state = SwitchState(load_rules("priority=1, actions=output:1"), microflow_capacity=4)
    frames = [udp_frame(sport=1000 + i) for i in range(6)]
    for frame in frames:
        state.process(frame, 1, HARDENED)
    assert len(state.microflow) == 4
    upcalls = state.stats["slow_path_upcalls"]
    state.process(frames[0], 1, HARDENED)  # evicted from microflow, still megaflow-cached
    assert state.stats["slow_path_upcalls"] == upcalls
    assert state.stats["fast_path_hits"] >= 1


def test_microflow_evicts_least_recently_used():
    state = SwitchState(load_rules("priority=1, actions=output:1"), microflow_capacity=2)
    a, b, c = (udp_frame(sport=port) for port in (1000, 1001, 1002))
    for frame in (a, b, a, c):
        state.process(frame, 1, HARDENED)
    key_a, key_b, key_c = (extract(frame, 1, HARDENED).key for frame in (a, b, c))
    # the hit on A refreshed it, so C's install evicts B, not A
    assert list(state.microflow) == [key_a, key_c]
    assert key_b not in state.microflow


@pytest.mark.parametrize("capacity", [0, -1])
def test_microflow_capacity_below_one_rejected(capacity):
    with pytest.raises(ValueError, match=f"microflow_capacity must be >= 1, got {capacity}"):
        SwitchState(load_rules("priority=1, actions=output:1"), microflow_capacity=capacity)


@pytest.mark.parametrize("profile", [HARDENED, VULN_232, VULN_240, VULN_250], ids=lambda p: p.mode.value)
def test_parse_drop_only_under_hardened(profile):
    frame = RawFrame.of(bytes(10))  # too short for an Ethernet header
    result = extract(frame, 1, profile)
    assert result.key.parse_status is ParseStatus.MALFORMED and result.events == ()
    state = SwitchState(load_rules("priority=5, parse_status=Malformed, actions=controller"))
    disposition = state.process(frame, 1, profile)
    if profile is HARDENED:
        # the hardened parser drops the frame before any cache or rule sees it
        assert disposition == Dropped()
        assert state.stats["slow_path_upcalls"] == 0 and state.stats["drops"] == 1
    else:
        # the other parsers act on the malformed key: one upcall, and the rule wins
        assert disposition == SentToController()
        assert state.stats["slow_path_upcalls"] == 1 and state.stats["to_controller"] == 1


# --- ACL bypass scenario --------------------------------------------------------


ACL_PORT_ONLY = "priority=10, l4_dst=8080, actions=drop\npriority=1, actions=output:1"
ACL_VALIDITY = (
    "priority=10, parse_status=Complete, l4_dst=8080, actions=drop\n"
    "priority=1, actions=output:1"
)


def test_port_only_acl_still_drops_under_vuln250():
    # the vulnerable parser populates l4 ports, so a port-keyed drop matches
    state = SwitchState(load_rules(ACL_PORT_ONLY))
    assert state.process(acl_bypass_frame(), 1, VULN_250) == Dropped()


def test_validity_acl_bypassed_under_vuln250():
    hardened_state = SwitchState(load_rules(ACL_VALIDITY))
    assert hardened_state.process(acl_bypass_frame(), 1, HARDENED) == Dropped()
    vulnerable_state = SwitchState(load_rules(ACL_VALIDITY))
    assert vulnerable_state.process(acl_bypass_frame(), 1, VULN_250) == Forwarded((1,))


def test_validity_acl_drops_well_formed_traffic_to_port():
    state = SwitchState(load_rules(ACL_VALIDITY))
    assert state.process(udp_frame(dport=8080), 1, VULN_250) == Dropped()
    assert state.process(udp_frame(dport=80), 1, VULN_250) == Forwarded((1,))


# --- priorities, defaults, counters --------------------------------------------


def test_priority_order_and_tie_break():
    rules = load_rules(
        "priority=1, actions=output:9\n"
        "priority=10, ip_proto=17, actions=output:1\n"
        "priority=10, ip_proto=17, actions=output:2\n"
    )
    state = SwitchState(rules)
    assert state.process(udp_frame(), 1, HARDENED) == Forwarded((1,))


def test_default_miss_action_drop_and_counted():
    state = SwitchState(load_rules("priority=5, ip_proto=6, actions=output:1"))
    assert state.process(udp_frame(), 1, HARDENED) == Dropped()
    assert state.stats["no_rule_match"] == 1


def test_counters_conserve():
    rules = load_rules(
        "priority=10, l4_dst=8080, actions=drop\n"
        "priority=5, ip_proto=17, actions=output:1\n"
        "priority=2, eth_type=0x8847, actions=controller\n"
    )
    state = SwitchState(rules)
    rng = random.Random(11)
    n = 500
    for _ in range(n):
        choice = rng.randrange(4)
        if choice == 0:
            frame = udp_frame(dport=8080)
        elif choice == 1:
            frame = udp_frame(dport=rng.randrange(1, 8000))
        elif choice == 2:
            frame = encode_frame(ETH_MPLS, [MplsLse(5, bottom_of_stack=True)])
        else:
            frame = RawFrame.of(rng.randbytes(rng.randrange(1, 60)))
        state.process(frame, 1, HARDENED)
    stats = state.stats
    assert stats["processed"] == n
    assert stats["forwards"] + stats["drops"] + stats["to_controller"] == n


# --- megaflow correctness --------------------------------------------------------


_RANDOM_ACTIONS = (
    lambda rng: (Output(rng.randrange(1, 4)),),
    lambda rng: (Drop(),),
    lambda rng: (ToController(),),
    lambda rng: (PopMpls(), Output(rng.randrange(1, 4))),
    lambda rng: (PushMpls(MplsLse(rng.choice([16, 100]), bottom_of_stack=True)), Output(2)),
    lambda rng: (PopMpls(), ToController()),
    lambda rng: (PopMpls(), PopMpls()),
)


def _random_rules(rng, mpls_actions=False):
    pool = {
        "eth_type": [0x0800, 0x8847],
        "ip_proto": [6, 17],
        "l4_dst": [53, 80, 8080],
        "l4_src": [1024, 53],
        "ip_src": [0x0A000001, 0x0A000002],
        "ip_dst": [0x0A000001, 0x0A000002],
        "in_port": [1, 2],
        "mpls_label": [16, 100],
        "mpls_s": [0, 1],
        "parse_status": list(ParseStatus),
    }
    rules = []
    for _ in range(rng.randrange(1, 9)):
        fields = rng.sample(sorted(pool), k=rng.randrange(0, 4))
        match = tuple((f, rng.choice(pool[f])) for f in fields)
        choices = _RANDOM_ACTIONS if mpls_actions else _RANDOM_ACTIONS[:3]
        actions = rng.choice(choices)(rng)
        rules.append(Rule(priority=rng.randrange(1, 20), match=match, actions=actions))
    return rules


def _random_traffic(rng, count):
    frames = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            frames.append(udp_frame(rng.choice([53, 1024]), rng.choice([53, 80, 8080]),
                                    rng.choice([0x0A000001, 0x0A000002]),
                                    rng.choice([0x0A000001, 0x0A000002])))
        elif kind == 1:
            n = rng.randrange(1, 5)
            lses = [MplsLse(rng.choice([16, 100])) for _ in range(n - 1)]
            lses.append(MplsLse(rng.choice([16, 100]), bottom_of_stack=True))
            frames.append(encode_frame(ETH_MPLS, lses))
        elif kind == 2:
            frames.append(acl_bypass_frame())
        elif kind == 3:
            frames.append(RawFrame.of(rng.randbytes(rng.randrange(1, 70))))
        elif kind == 4:
            frames.append(RawFrame.of(ETH_MPLS.encode() + rng.randbytes(rng.randrange(1, 10))))
        else:
            frames.append(udp_frame(sport=rng.randrange(1, 65000)))
    return frames


_DISPOSITION_COUNTERS = ("forwards", "drops", "to_controller", "pop_mpls_noop")


def test_cache_equivalence_random_rulesets():
    rng = random.Random(42)
    for profile in ALL_PROFILES:
        for round_no in range(20):
            # every other round adds push_mpls/pop_mpls actions
            rules = _random_rules(rng, mpls_actions=round_no % 2 == 1)
            cached = SwitchState(rules)
            uncached = SwitchState(rules, megaflow_enabled=False)
            where = f"{profile.mode} round {round_no}"
            for i, frame in enumerate(_random_traffic(rng, 100)):
                port = rng.choice([1, 2])
                # the vulnerable parsers read adjacent memory into the key
                adjacent = random.Random(rng.randrange(1 << 16)).randbytes(64)
                d1 = cached.process(frame, port, profile, adjacent)
                d2 = uncached.process(frame, port, profile, adjacent)
                assert d1 == d2, f"{where} frame {i}: {d1} != {d2}"
                for counter in _DISPOSITION_COUNTERS:
                    assert cached.stats[counter] == uncached.stats[counter], f"{where} frame {i}: {counter}"
            assert cached.stats["slow_path_upcalls"] == cached.megaflow_entry_count()


def test_masks_bounded_by_priority_levels():
    rng = random.Random(31)
    gaps = []
    for round_no in range(80):
        rules = _random_rules(rng, mpls_actions=round_no % 2 == 1)
        bound = len({rule.priority for rule in rules}) + 1
        for profile in ALL_PROFILES:
            state = SwitchState(rules)
            for frame in _random_traffic(rng, 60):
                state.process(frame, rng.choice([1, 2]), profile)
            assert len(state.megaflows) <= bound
            gaps.append(len(state.megaflows) - bound)
    # The miss mask is the lowest priority level's mask, so a non-empty rule
    # set stays one below the bound; the draw gets there.
    assert max(gaps) == -1
    # With no rules the miss mask alone reaches it.
    state = SwitchState([])
    for frame in _random_traffic(rng, 20):
        state.process(frame, 1, VULN_232)
    assert len(state.megaflows) == 1


def test_cache_equivalence_counts_pop_without_label():
    rules = load_rules("priority=5, eth_type=0x8847, actions=pop_mpls,output:2\npriority=1, actions=pop_mpls,drop")
    cached = SwitchState(rules)
    uncached = SwitchState(rules, megaflow_enabled=False)
    frames = [udp_frame(), encode_frame(ETH_MPLS, [MplsLse(16, bottom_of_stack=True)])] * 3
    for frame in frames:
        assert cached.process(frame, 1, HARDENED) == uncached.process(frame, 1, HARDENED)
    for state in (cached, uncached):
        assert state.stats["pop_mpls_noop"] == 3
        assert state.stats["forwards"] == 3 and state.stats["drops"] == 3
    assert cached.stats["fast_path_hits"] == 4


# --- signature memo -------------------------------------------------------------


def ip_frame(size=60, sport=53, dport=1024, proto=17, ident=0, checksum=0, options=b"", pad=b"", total_length=None):
    """An IPv4 frame of ``size`` octets plus ``pad``; total_length covers ``size`` unless given."""
    ihl = 5 + len(options) // 4
    l4 = struct.pack(">HH", sport, dport) + bytes(size - 18 - 4 * ihl)
    if total_length is None:
        total_length = size - 14
    ip = Ipv4Header(total_length=total_length, protocol=proto, src_ip=0x0A000001, dst_ip=0x0A000002,
                    ihl=ihl, identification=ident, checksum=checksum, options=options)
    return encode_frame(ETH_IP, [ip], payload=l4 + pad)


@pytest.fixture
def parsed(monkeypatch):
    """The frames handed to extract from flowtable, in call order."""
    frames = []
    real_extract = flowtable.extract
    monkeypatch.setattr(flowtable, "extract", lambda *args: frames.append(args[0]) or real_extract(*args))
    return frames


def _memo_pool(rng):
    """Distinct frames that share, or nearly share, a signature or a flow key."""
    pool = [ip_frame(size, sport=53, dport=80) for size in (60, 590, 1514)]
    pool += [ip_frame(ident=ident, checksum=checksum) for ident in (0, 7) for checksum in (0, 0xBEEF)]
    pool += [ip_frame(pad=bytes(pad)) for pad in (1, 6)] + [ip_frame(pad=rng.randbytes(6))]
    pool += [ip_frame(64, options=bytes(4 * n), proto=proto) for n in (1, 2) for proto in (6, 17)]
    pool += [ip_frame(total_length=length) for length in (20, 23, 24, 47, 80)]  # no ports, truncated
    pool += [RawFrame.of(pool[3].data[:size]) for size in (38, 40, 59)]  # the prefix of a complete frame
    pool += [ip_frame(64, options=bytes(8), total_length=30)]  # ports lie past total_length
    pool += [RawFrame.of(ETH_IP.encode() + rng.randbytes(n)) for n in range(20)]  # 14..33 octets
    pool += [acl_bypass_frame(total_length, dport) for total_length in (0, 4, 19) for dport in (53, 8080)]
    for deep in (16, 100):
        lses = [MplsLse(16)] * 4 + [MplsLse(deep, bottom_of_stack=True)]
        pool.append(encode_frame(ETH_MPLS, lses))
        pool.append(encode_frame(ETH_MPLS, [MplsLse(16)] * 4 + [MplsLse(deep)]))  # never terminates
        pool.append(RawFrame.of(encode_frame(ETH_MPLS, [MplsLse(16)] * 4 + [MplsLse(deep)]).data[:-2]))
    for frame in [ip_frame(sport=port) for port in (53, 1024)]:
        for _ in range(4):  # bit flips anywhere in the header prefix
            data = bytearray(frame.data)
            data[rng.randrange(42)] ^= 1 << rng.randrange(8)
            pool.append(RawFrame.of(data))
    return pool + _random_traffic(rng, 20)


@pytest.mark.parametrize("capacity", [2, 4096])
def test_signature_memo_equivalent_to_parsing_every_frame(monkeypatch, parsed, capacity):
    rng = random.Random(capacity)
    push_pop = "priority=7, eth_type=0x0800, ip_proto=17, actions=pop_mpls,push_mpls:16,output:3"
    rulesets = [_random_rules(rng, mpls_actions=bool(i % 2)) for i in range(6)] + [load_rules(push_pop)]
    skipped = 0
    for round_no, rules in enumerate(rulesets):
        pool = _memo_pool(rng)
        memo = SwitchState(rules, microflow_capacity=capacity)
        plain = SwitchState(rules, microflow_capacity=capacity)
        monkeypatch.setattr(plain, "_remember", lambda *args: None)
        for i in range(400):
            frame = pool[rng.randrange(len(pool))] if rng.random() < 0.5 else pool[rng.randrange(6)]
            port = rng.choice([1, 2])
            profile = rng.choice(ALL_PROFILES)
            adjacent = random.Random(rng.randrange(1 << 16)).randbytes(64) if rng.random() < 0.5 else None
            where = f"round {round_no} frame {i} ({frame.data.hex()})"
            before = len(parsed)
            disposition = memo.process(frame, port, profile, adjacent)
            skipped += len(parsed) == before
            assert disposition == plain.process(frame, port, profile, adjacent), where
            assert memo.stats == plain.stats, where
        assert dump_state(memo) == dump_state(plain)
        assert not plain.signatures and len(memo.signatures) <= capacity
    assert skipped > 100


def test_signature_memo_parses_each_repeated_flow_at_most_twice(parsed):
    state = SwitchState(load_rules("priority=2, ip_proto=17, actions=output:2\npriority=1, actions=output:1"))
    frames = [ip_frame(sport=1000 + i, proto=(6, 17)[i % 2]) for i in range(64)]
    rng = random.Random(9)
    for _ in range(64 * 40):
        state.process(frames[rng.randrange(64)], 1, HARDENED)
    assert state.stats["processed"] == 64 * 40
    assert len(parsed) <= 2 * 64
    assert len(state.signatures) == 64
    with pytest.raises(ValueError, match="adjacent must be non-empty"):  # a memoized frame is still checked
        state.process(frames[0], 1, HARDENED, b"")


def test_signature_memo_unused_without_caches(parsed):
    rules = load_rules("priority=1, actions=output:2")
    uncached = SwitchState(rules, megaflow_enabled=False)
    for _ in range(5):
        uncached.process(udp_frame(), 1, HARDENED)
    assert not uncached.signatures and len(parsed) == 5
    cached = SwitchState(rules)
    for _ in range(3):
        cached.process(udp_frame(), 1, HARDENED)
    assert len(cached.signatures) == 1 and len(parsed) == 7


def test_signature_memo_keyed_on_header_octets_and_port(parsed):
    state = SwitchState(load_rules("priority=1, actions=output:2"))
    frame = ip_frame(1514)
    for _ in range(2):  # an upcall, then a microflow hit that stores the memo entry
        state.process(frame, 1, HARDENED)
    assert len(parsed) == 2 and list(state.signatures) == [(1, frame.data[:38], 1514)]  # no payload held
    copy = RawFrame.of(bytes(bytearray(frame.data)))
    other_payload = RawFrame.of(frame.data[:-1] + bytes([frame.data[-1] ^ 1]))
    for twin in (copy, other_payload):
        assert state.process(twin, 1, HARDENED) == Forwarded((2,))
    assert len(parsed) == 2  # an equal copy and a payload-only change: memo hits
    other_ident = ip_frame(1514, ident=7)
    state.process(other_ident, 1, HARDENED)
    state.process(frame, 2, HARDENED)
    assert parsed[2:] == [other_ident, frame]  # another header octet, another port: parsed


@pytest.mark.parametrize("name", sorted(FIELD_GETTERS))
def test_mask_projector_one_field(name):
    project = mask_projector((name,))
    keys = [
        FlowKey(in_port=2, eth_src=MAC_A, eth_dst=MAC_B, ethertype=0x0800, ip_src=1, ip_dst=2, ip_proto=17,
                ip_tos=0, ip_ttl=64, l4_src=53, l4_dst=80, parse_status=ParseStatus.COMPLETE),
        FlowKey(in_port=1, eth_src=MAC_A, eth_dst=MAC_B, ethertype=0x8847,
                mpls_labels=(MplsLse(16, bottom_of_stack=True),), mpls_depth_seen=1,
                parse_status=ParseStatus.MPLS_TERMINATED),
        FlowKey(in_port=3),
    ]
    for key in keys:
        assert project(key) == (FIELD_GETTERS[name](key),)


def test_mask_projector_matches_field_getters():
    rng = random.Random(9)
    names = sorted(FIELD_GETTERS)
    for _ in range(200):
        mask = tuple(sorted(rng.sample(names, k=rng.randrange(0, len(names) + 1))))
        key = _random_key(rng)
        assert mask_projector(mask)(key) == tuple(FIELD_GETTERS[name](key) for name in mask)


def _reference_scan(rules_in_scan_order, key):
    """Scan position of the first rule whose every field getter equals its value."""
    for pos, rule in enumerate(rules_in_scan_order):
        if all(FIELD_GETTERS[name](key) == value for name, value in rule.match):
            return pos
    return None


def test_scan_rules_matches_per_field_reference():
    rng = random.Random(23)
    won_on: set[str] = set()
    won_sizes: set[int] = set()
    for profile in ALL_PROFILES:
        for _ in range(30):
            rules = _random_rules(rng)
            state = SwitchState(rules)
            scan = [rules[i] for i in state._ordered]
            for frame in _random_traffic(rng, 60):
                adjacent = random.Random(rng.randrange(1 << 16)).randbytes(64)
                key = extract(frame, rng.choice([1, 2]), profile, adjacent).key
                pos = state._scan_rules(key)
                assert pos == _reference_scan(scan, key), f"{profile.mode}: {key.describe()}"
                if pos is not None:
                    won_on.update(name for name, _ in scan[pos].match)
                    won_sizes.add(len(scan[pos].match))
    # the draw must have exercised wildcards, one-field matches and the computed fields
    assert {"mpls_label", "mpls_s", "parse_status"} <= won_on
    assert {0, 1} <= won_sizes


def test_empty_frame_counted_as_drop():
    state = SwitchState(load_rules("priority=1, actions=output:2"))
    for profile in ALL_PROFILES:
        assert state.process(RawFrame.of(b""), 1, profile) == Dropped()
    assert state.process(udp_frame(), 1, HARDENED) == Forwarded((2,))
    stats = state.stats
    assert stats["processed"] == 5 and stats["drops"] == 4 and stats["forwards"] == 1
    assert stats["slow_path_upcalls"] == 1


def test_megaflow_entries_reselect_same_actions():
    rng = random.Random(17)
    rules = _random_rules(rng)
    state = SwitchState(rules)
    keys = []
    for frame in _random_traffic(rng, 80):
        result = extract(frame, 1, HARDENED)
        state.process(frame, 1, HARDENED)
        if result.verdict is Verdict.ACCEPT:
            keys.append(result.key)
    # re-evaluating the full table for any key must reproduce the actions of
    # its microflow entry (if still cached) and of the first megaflow entry
    # that matches it, in install order
    for key in keys:
        pos = state._scan_rules(key)
        expected = flowtable.DEFAULT_ACTIONS if pos is None else state.rules[state._ordered[pos]].actions
        micro = state.microflow.get(key)
        assert micro is None or micro.actions == expected
        mega = next((table[project(key)] for project, table in state.megaflows.values() if project(key) in table), None)
        assert mega is not None and mega.actions == expected


# --- actions --------------------------------------------------------------------


def _random_key(rng):
    variant = rng.randrange(3)
    if variant == 0:
        return FlowKey(in_port=1, eth_src=MAC_A, eth_dst=MAC_B, ethertype=0x0800,
                       ip_src=1, ip_dst=2, ip_proto=17, ip_tos=0, ip_ttl=64,
                       l4_src=53, l4_dst=80, parse_status=ParseStatus.COMPLETE)
    if variant == 1:
        ethertype = rng.choice([0x8847, 0x8848])
        labels = tuple(MplsLse(rng.randrange(1 << 20)) for _ in range(rng.randrange(1, 3)))
        return FlowKey(in_port=2, eth_src=MAC_A, eth_dst=MAC_B, ethertype=ethertype,
                       mpls_labels=labels, mpls_depth_seen=len(labels),
                       parse_status=ParseStatus.MPLS_TERMINATED)
    return FlowKey(in_port=3, eth_src=MAC_A, eth_dst=MAC_B, ethertype=0x9999,
                   parse_status=ParseStatus.L2_ONLY)


@pytest.mark.parametrize(
    "names, depth, noops",
    [("pop", 0, 1), ("push,pop,pop", 0, 1), ("pop,pop", 1, 1), ("push,pop", 0, 0), ("pop,push,pop", 0, 1)],
)
def test_pop_without_label_is_flagged_noop(names, depth, noops):
    actions = {"push": PushMpls(MplsLse(77, bottom_of_stack=True)), "pop": PopMpls()}
    stats = {"pop_mpls_noop": 0}
    key = FlowKey(in_port=1, ethertype=0x8847 if depth else 0x0800,
                  mpls_labels=(MplsLse(16, bottom_of_stack=True),) * depth, mpls_depth_seen=depth,
                  parse_status=ParseStatus.MPLS_TERMINATED if depth else ParseStatus.COMPLETE)
    walk = tuple(actions[name] for name in names.split(",")) + (Output(1),)
    apply_actions(key, walk, stats)
    assert stats["pop_mpls_noop"] == noops
    assert disposition_of(walk) == Forwarded((1,))


# --- dump_state -----------------------------------------------------------------


def test_dump_state_empty():
    report = dump_state(SwitchState())
    assert report.startswith("rules: 0\n")
    assert "caches: microflow=0/4096 megaflow=0" in report
    assert "counters:" in report


def test_dump_state_after_one_packet():
    state = SwitchState(load_rules("priority=1, actions=output:2"))
    state.process(udp_frame(), 1, HARDENED)
    report = dump_state(state)
    assert "megaflow=1" in report
    assert report.count("mask[") == 1
    assert "hits=0" in report
    # deterministic given the same state
    assert report == dump_state(state)


def test_dump_state_prints_absent_fields_as_none():
    rules = load_rules(
        "priority=5, eth_src=02:00:00:00:00:01, eth_dst=02:00:00:00:00:02, eth_type=0x0800, actions=output:1\n"
        "priority=5, ip_src=10.0.0.1, ip_dst=10.0.0.2, actions=output:2\n"
    )
    state = SwitchState(rules)
    # too short for an Ethernet header: the key has none of the masked fields
    assert state.process(RawFrame.of(bytes(10)), 1, VULN_250) == Dropped()
    assert state.process(udp_frame(), 1, HARDENED) == Forwarded((1,))
    mask = "mask[eth_dst,eth_src,eth_type,ip_dst,ip_src]"
    lines = dump_state(state).splitlines()
    assert f"  {mask} {{eth_dst=None eth_src=None eth_type=None ip_dst=None ip_src=None}} -> drop hits=0" in lines
    assert (
        f"  {mask} {{eth_dst=02:00:00:00:00:02 eth_src=02:00:00:00:00:01 eth_type=0x0800"
        " ip_dst=10.0.0.2 ip_src=10.0.0.1} -> output:1 hits=0"
    ) in lines


def test_dump_state_disabled_caches():
    state = SwitchState(load_rules("priority=1, actions=output:2"), megaflow_enabled=False)
    assert "caches: disabled" in dump_state(state)
