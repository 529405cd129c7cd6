import random
import struct

import pytest

from shimguard.extract import ALL_PROFILES, HARDENED, VULN_250, MemoryModel, Verdict, extract
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
    dump_state,
    load_rules,
    mask_projector,
    pop_mpls,
    push_mpls,
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


def test_disabling_megaflow_empties_caches():
    state = SwitchState(load_rules("priority=1, actions=output:2"))
    state.process(udp_frame(), 1, HARDENED)
    assert state.megaflow_entry_count() == 1
    state.set_megaflow_enabled(False)
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


def test_default_miss_action_configurable():
    state = SwitchState(
        load_rules("priority=5, ip_proto=6, actions=output:1"),
        default_actions=(ToController(),),
    )
    assert state.process(udp_frame(), 1, HARDENED) == SentToController()
    assert state.stats["to_controller"] == 1


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
                memory_seed = rng.randrange(1 << 16)
                d1 = cached.process(frame, port, profile, MemoryModel.seeded(profile.label_limit, memory_seed))
                d2 = uncached.process(frame, port, profile, MemoryModel.seeded(profile.label_limit, memory_seed))
                assert d1 == d2, f"{where} frame {i}: {d1} != {d2}"
                for counter in _DISPOSITION_COUNTERS:
                    assert cached.stats[counter] == uncached.stats[counter], f"{where} frame {i}: {counter}"
            assert cached.stats["slow_path_upcalls"] == cached.megaflow_entry_count()


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
                memory = MemoryModel.seeded(profile.label_limit, rng.randrange(1 << 16))
                key = extract(frame, rng.choice([1, 2]), profile, memory).key
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
    # re-evaluating the full table for any key must reproduce its entry's actions
    for key in keys:
        entry = state._lookup_fast(key)
        assert entry is not None
        pos = state._scan_rules(key)
        expected = state.default_actions if pos is None else state.rules[state._ordered[pos]].actions
        assert entry.actions == expected


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


def test_push_pop_inverse_property():
    rng = random.Random(5)
    for _ in range(200):
        key = _random_key(rng)
        lse = MplsLse(rng.randrange(1 << 20), bottom_of_stack=bool(rng.randrange(2)))
        assert pop_mpls(push_mpls(key, lse)) == key


def test_pop_without_label_is_flagged_noop():
    stats = {"pop_mpls_noop": 0}
    key = FlowKey(in_port=1, ethertype=0x0800, parse_status=ParseStatus.COMPLETE)
    disposition, new_key = apply_actions(key, (PopMpls(), Output(1)), stats)
    assert disposition == Forwarded((1,))
    assert new_key == key
    assert stats["pop_mpls_noop"] == 1


def test_push_then_output_disposition():
    key = FlowKey(in_port=1, ethertype=0x0800, parse_status=ParseStatus.COMPLETE)
    disposition, new_key = apply_actions(key, (PushMpls(MplsLse(77, bottom_of_stack=True)), Output(4)), {})
    assert disposition == Forwarded((4,))
    assert new_key.mpls_top.label == 77
    assert new_key.ethertype == 0x8847


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
