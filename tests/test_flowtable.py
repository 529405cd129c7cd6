import random
import re
import struct
from collections import OrderedDict
from enum import Enum
from itertools import product

import pytest

import shimguard.flowtable as flowtable
from shimguard.extract import ALL_PROFILES, HARDENED, VULN_232, VULN_240, VULN_250, Verdict, extract, key_signature
from shimguard.flowtable import (
    Drop,
    DuplicateFieldError,
    Dropped,
    Forwarded,
    Output,
    PopMpls,
    PushMpls,
    Rule,
    RuleParseError,
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


@pytest.mark.parametrize(
    "line, error, message",
    [
        ("priority=5, actions=", RuleSyntaxError, "empty action list"),
        ("priority=5, actions= \t", RuleSyntaxError, "empty action list"),
        ("priority=5, priority=6, actions=drop", DuplicateFieldError, "duplicate field 'priority'"),
        ("ip_proto=6, actions=drop", RuleSyntaxError, "missing priority="),
        ("priority=5, ip_proto=, actions=drop", RuleSyntaxError, "expected key=value, got 'ip_proto='"),
        ("priority=5, ip_proto, actions=drop", RuleSyntaxError, "expected key=value, got 'ip_proto'"),
    ],
)
def test_load_rules_rejects_action_list_and_priority_errors(line, error, message):
    with pytest.raises(error) as exc:
        load_rules("priority=1, actions=output:1\n# a comment\n" + line)
    assert type(exc.value) is error
    assert exc.value.line == 3
    assert str(exc.value) == f"line 3: {message}"


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


@pytest.mark.parametrize(
    "token",
    [
        "ip_dst=10.0.0.1_0",
        "ip_dst=10.0.0.+1",
        "ip_dst=10.0.0.0001",
        "ip_src=10.0.0.\u0661",
        "l4_dst=1_0",
        "l4_src=0x_50",
        "priority=1_0",
        "priority=+5",
        "in_port=\u0663",
        "mpls_label=\uff11\uff16",
        "mpls_s=+1",
        "eth_type=0X800",
        "eth_type=-0",
        "eth_src=0x1:2:3:4:5:6",
        "eth_dst=02:00:00:00:00: 1",
        "eth_dst=02:00:00:00:00:+1",
        "eth_dst=02:00:00:00:00:001",
        "actions=output:\u0663",
        "actions=push_mpls:1_6",
    ],
)
def test_load_rules_rejects_numbers_outside_the_documented_syntax(token):
    if token.startswith("actions="):
        line = f"priority=5, {token}"
    elif token.startswith("priority="):
        line = f"{token}, actions=drop"
    else:
        line = f"priority=5, {token}, actions=drop"
    with pytest.raises(RuleSyntaxError) as exc:
        load_rules("priority=1, actions=output:1\n" + line)
    assert exc.value.line == 2


def test_load_rules_accepts_every_documented_number_form():
    (rule,) = load_rules(
        "priority=-3, in_port=007, eth_src=2:0:0:0:0:A, eth_dst=0a:0B:00:00:00:01, eth_type=0x88A8, "
        "mpls_label=0o17, ip_src=010.0.0.1, ip_dst=255.255.255.255, ip_proto=0b110, l4_src=0, actions=output:01"
    )
    assert rule.priority == -3
    assert dict(rule.match) == {
        "in_port": 7, "eth_src": bytes.fromhex("02000000000a"), "eth_dst": bytes.fromhex("0a0b00000001"),
        "eth_type": 0x88A8, "mpls_label": 15, "ip_src": 0x0A000001, "ip_dst": 0xFFFFFFFF, "ip_proto": 6,
        "l4_src": 0,
    }
    assert rule.actions == (Output(1),)


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
    assert rule.actions == (PushMpls(0xFFFFF),)


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
    lambda rng: PushMpls(rng.randrange(1 << 20)),
    lambda rng: PopMpls(),
)


def test_rules_round_trip_through_rule_file_text():
    assert sorted(_FIELD_VALUES) == sorted(flowtable._FIELDS)
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


_SOAK_RULES = """\
priority=20, eth_src=02:00:00:00:00:01, ip_src=10.0.0.1, actions=output:1,output:2
priority=10, eth_type=0x0800, ip_proto=17, l4_dst=8080, actions=drop  # acl
priority=5, parse_status=Complete, mpls_label=16, mpls_s=1, actions=pop_mpls,push_mpls:100,controller
priority=1, in_port=2, actions=output:4294967295
"""
# The format's own characters, and digits int() accepts (or not) beyond ASCII.
_SOAK_ALPHABET = "0123456789abcdefx:.,=#_- \t\n\x00\u00b2\u0663" + "priority" + "actions"


def test_load_rules_soak_raises_only_rule_parse_errors():
    """Character-level mutants of a four-rule file either load or raise RuleParseError."""
    rng = random.Random(606)
    loaded = 0
    for _ in range(5000):
        text = list(_SOAK_RULES)
        for _ in range(rng.randrange(1, 5)):
            at = rng.randrange(len(text))
            op = rng.randrange(3)
            if op == 0:
                text.insert(at, rng.choice(_SOAK_ALPHABET))
            elif op == 1:
                del text[at]
            else:
                text[at] = rng.choice(_SOAK_ALPHABET)
        try:
            load_rules("".join(text))
        except RuleParseError:
            continue
        loaded += 1
    assert 100 < loaded < 4000


# --- caches -------------------------------------------------------------------


@pytest.fixture
def admit_every_miss(monkeypatch):
    """The microflow admits every candidate, so each megaflow hit and upcall fills it."""
    monkeypatch.setattr(flowtable, "MICROFLOW_ADMIT_EVERY", 1)


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


def test_caches_off_never_probes_the_empty_microflow():
    class Unprobed(OrderedDict):
        def get(self, key, default=None):
            raise AssertionError("microflow probed")

    state = SwitchState(load_rules("priority=1, actions=output:2"), megaflow_enabled=False)
    state.microflow = Unprobed()
    rng = random.Random(5)
    for _ in range(100):
        assert state.process(udp_frame(rng.randrange(1, 65535), rng.randrange(1, 65535)), 1, HARDENED) == Forwarded((2,))
    assert state.stats["slow_path_upcalls"] == 100


@pytest.mark.usefixtures("admit_every_miss")
def test_microflow_lru_eviction_keeps_megaflow(monkeypatch):
    monkeypatch.setattr(flowtable, "MICROFLOW_CAPACITY", 4)
    state = SwitchState(load_rules("priority=1, actions=output:1"))
    frames = [udp_frame(sport=1000 + i) for i in range(6)]
    for frame in frames:
        state.process(frame, 1, HARDENED)
    assert len(state.microflow) == 4
    upcalls = state.stats["slow_path_upcalls"]
    state.process(frames[0], 1, HARDENED)  # evicted from microflow, still megaflow-cached
    assert state.stats["slow_path_upcalls"] == upcalls
    assert state.stats["fast_path_hits"] >= 1


@pytest.mark.usefixtures("admit_every_miss")
def test_microflow_evicts_oldest_insert(monkeypatch):
    monkeypatch.setattr(flowtable, "MICROFLOW_CAPACITY", 2)
    state = SwitchState(load_rules("priority=1, actions=output:1"))
    a, b, c = (udp_frame(sport=port) for port in (1000, 1001, 1002))
    for frame in (a, b, a, c):
        state.process(frame, 1, HARDENED)
    key_a, key_b, key_c = (extract(frame, 1, HARDENED).key for frame in (a, b, c))
    # the hit on A reorders nothing, so C's install evicts A, the oldest insert
    assert list(state.microflow) == [key_b, key_c]
    assert key_a not in state.microflow


def test_microflow_admits_the_first_candidate_then_one_in_eight(monkeypatch):
    monkeypatch.setattr(flowtable, "MICROFLOW_CAPACITY", 2)
    state = SwitchState(load_rules("priority=1, l4_src=7, actions=output:1"))
    frames = [udp_frame(sport=1000 + i) for i in range(25)]
    for frame in frames:  # 25 distinct flows: 25 upcalls, so 25 candidates
        state.process(frame, 1, HARDENED)
    keys = [extract(frame, 1, HARDENED).key for frame in frames]
    assert flowtable.MICROFLOW_ADMIT_EVERY == 8
    # flows 0, 8, 16 and 24 were admitted; 24's admission evicted 0, the oldest
    assert list(state.microflow) == [keys[16], keys[24]]
    assert state.stats["slow_path_upcalls"] == 25 and state.megaflow_entry_count() == 25
    for frame in frames[:12]:  # 12 megaflow hits; the 8th candidate since flow 24, flow 7, is admitted
        state.process(frame, 1, HARDENED)
    assert list(state.microflow) == [keys[24], keys[7]]
    assert state.stats["fast_path_hits"] == 12


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
    lambda rng: (PushMpls(rng.choice([16, 100])), Output(2)),
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
                d1 = cached.process(frame, port, profile)
                d2 = uncached.process(frame, port, profile)
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


class Unreordered(OrderedDict):
    def move_to_end(self, key, last=True):
        raise AssertionError("cache reordered")


class NeverStores(OrderedDict):
    """A memo that stores nothing, so its switch parses every frame."""

    def __setitem__(self, key, value):
        pass


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


@pytest.mark.parametrize("capacity", [1, 2, 4096])
def test_signature_memo_equivalent_to_parsing_every_frame(monkeypatch, parsed, capacity):
    monkeypatch.setattr(flowtable, "MICROFLOW_CAPACITY", capacity)
    rng = random.Random(capacity)
    push_pop = "priority=7, eth_type=0x0800, ip_proto=17, actions=pop_mpls,push_mpls:16,output:3"
    rulesets = [_random_rules(rng, mpls_actions=bool(i % 2)) for i in range(6)] + [load_rules(push_pop)]
    skipped = 0
    for round_no, rules in enumerate(rulesets):
        pool = _memo_pool(rng)
        memo = SwitchState(rules)
        memo.microflow, memo.signatures = Unreordered(), Unreordered()
        plain = SwitchState(rules)
        plain.signatures = NeverStores()
        for i in range(400):
            frame = pool[rng.randrange(len(pool))] if rng.random() < 0.5 else pool[rng.randrange(6)]
            port = rng.choice([1, 2])
            profile = rng.choice(ALL_PROFILES)
            where = f"round {round_no} frame {i} ({frame.data.hex()})"
            before = len(parsed)
            disposition = memo.process(frame, port, profile)
            skipped += len(parsed) == before
            assert disposition == plain.process(frame, port, profile), where
            assert memo.stats == plain.stats, where
            assert len(memo.microflow) == len(plain.microflow), where  # dump_state's one microflow figure
        assert dump_state(memo) == dump_state(plain)
        assert not plain.signatures and len(memo.signatures) <= capacity
    # One memo entry still answers about 90 of the 2800 packets; the larger memos answer over 100.
    assert skipped > (50 if capacity == 1 else 100)


@pytest.mark.usefixtures("admit_every_miss")
@pytest.mark.parametrize("capacity", [1, 2, 4096])
def test_microflow_size_is_capacity_or_distinct_accepted_keys(monkeypatch, capacity):
    # Why eviction order is free: the one microflow figure any output prints never depends on it.
    monkeypatch.setattr(flowtable, "MICROFLOW_CAPACITY", capacity)
    rng = random.Random(100 + capacity)
    for round_no in range(4):
        state = SwitchState(_random_rules(rng, mpls_actions=bool(round_no % 2)))
        pool = _memo_pool(rng)
        accepted = set()
        for i in range(300):
            frame = pool[rng.randrange(len(pool))] if rng.random() < 0.5 else pool[rng.randrange(6)]
            port = rng.choice([1, 2])
            profile = rng.choice(ALL_PROFILES)
            result = extract(frame, port, profile)
            if not (result.verdict is Verdict.DROP and profile.mode is HARDENED.mode):
                accepted.add(result.key)
            state.process(frame, port, profile)
            assert len(state.microflow) == min(capacity, len(accepted)), f"round {round_no} frame {i}"
        assert len(accepted) > 2


class CountingHits(Unreordered):
    """A cache that counts its probes that hit."""

    hits = 0

    def get(self, key, default=None):
        entry = super().get(key, default)
        self.hits += entry is not None
        return entry


def _hits(state):
    return [entry.hits for _, table in state.megaflows.values() for entry in table.values()]


def test_admitting_one_in_eight_changes_only_the_microflow_size(monkeypatch):
    # Twin switches, one admitting one candidate in 8 and one admitting every candidate,
    # agree on every output but dump_state's microflow figure.
    rng = random.Random(20)
    differed = set()
    for round_no in range(10):
        rules = _random_rules(rng, mpls_actions=bool(round_no % 2))
        pool = _memo_pool(rng)
        stream = [(pool[rng.randrange(len(pool))] if rng.random() < 0.5 else pool[rng.randrange(6)], rng.choice([1, 2]))
                  for _ in range(200)]
        for profile in ALL_PROFILES:
            for capacity in (1, 2, 4096):
                monkeypatch.setattr(flowtable, "MICROFLOW_CAPACITY", capacity)
                eighth, every = SwitchState(rules), SwitchState(rules)
                eighth.microflow, eighth.signatures = CountingHits(), CountingHits()
                where = f"round {round_no} {profile.mode} capacity {capacity}"
                for i, (frame, port) in enumerate(stream):
                    monkeypatch.setattr(flowtable, "MICROFLOW_ADMIT_EVERY", 8)
                    disposition = eighth.process(frame, port, profile)
                    monkeypatch.setattr(flowtable, "MICROFLOW_ADMIT_EVERY", 1)
                    assert disposition == every.process(frame, port, profile), f"{where} frame {i}"
                    assert eighth.stats == every.stats and _hits(eighth) == _hits(every), f"{where} frame {i}"
                    # Candidates: the packets a cache or an upcall answered, less memo and microflow hits.
                    answered = eighth.stats["fast_path_hits"] + eighth.stats["slow_path_upcalls"]
                    candidates = answered - eighth.signatures.hits - eighth.microflow.hits
                    assert len(eighth.microflow) == min(capacity, -(-candidates // 8)), f"{where} frame {i}"
                    if len(eighth.microflow) != len(every.microflow):
                        differed.add(capacity)
                masked = [re.sub(r"microflow=\d+/", "microflow=?/", dump_state(s)) for s in (eighth, every)]
                assert masked[0] == masked[1], where
    # The microflows did hold different keys; at capacity 1 both admit the first candidate and stay full.
    assert differed == {2, 4096}


_COUNTER_OF = {Forwarded: "forwards", Dropped: "drops", SentToController: "to_controller"}


@pytest.mark.parametrize("capacity", [1, 2, 4096, None], ids=["1", "2", "4096", "caches-off"])
def test_counters_equal_dispositions_sent_and_entry_hits(monkeypatch, parsed, capacity):
    # `stats` derives processed, fast_path_hits and the disposition counters on read, from
    # the entries' hits and the packets a parse drop or an upcall answered. After every
    # packet they must equal what the caller saw, and the hits what the entries hold.
    if capacity:
        monkeypatch.setattr(flowtable, "MICROFLOW_CAPACITY", capacity)
    rng = random.Random(23 + (capacity or 0))
    memo_hits = 0
    for round_no in range(4):
        rules = _random_rules(rng, mpls_actions=bool(round_no % 2))
        pool = _memo_pool(rng)
        for profile in ALL_PROFILES:
            state = SwitchState(rules, megaflow_enabled=capacity is not None)
            tally = dict.fromkeys(_COUNTER_OF.values(), 0)
            for sent in range(1, 201):
                if rng.random() < 0.05:
                    frame = RawFrame.of(b"")
                else:
                    frame = pool[rng.randrange(len(pool))] if rng.random() < 0.5 else pool[rng.randrange(6)]
                before = len(parsed)
                disposition = state.process(frame, rng.choice([1, 2]), profile)
                memo_hits += len(parsed) == before
                tally[_COUNTER_OF[type(disposition)]] += 1
                stats = state.stats
                where = f"round {round_no} {profile.mode} packet {sent} ({frame.data.hex()})"
                assert stats["processed"] == sent, where
                assert {counter: stats[counter] for counter in tally} == tally, where
                assert stats["fast_path_hits"] == sum(_hits(state)), where
    # The memo answered some packets, so its hit path was checked too; a switch without caches has none.
    assert memo_hits > 0 if capacity else memo_hits == 0


def test_stats_is_one_dict_whose_live_counters_advance():
    # A caller may read `stats` once and watch slow_path_upcalls across process calls,
    # so every read returns the same dict, in STAT_KEYS order, and refreshes it in place.
    state = SwitchState(load_rules("priority=1, l4_src=1, actions=output:2"))
    held = state.stats
    assert state.stats is held and tuple(held) == flowtable.STAT_KEYS
    for sport in (1, 2, 3):
        state.process(udp_frame(sport=sport), 1, HARDENED)
        assert held["slow_path_upcalls"] == sport
    state.process(udp_frame(sport=1), 1, HARDENED)  # a megaflow hit
    assert held["slow_path_upcalls"] == 3
    assert state.stats is held
    assert (held["processed"], held["fast_path_hits"], held["forwards"], held["drops"]) == (4, 1, 2, 2)


def _repeated_flows():
    """64 flows repeated in a seeded order, 2560 packets: the switch that answered them, and the flows."""
    state = SwitchState(load_rules("priority=2, ip_proto=17, actions=output:2\npriority=1, actions=output:1"))
    state.microflow, state.signatures = Unreordered(), Unreordered()
    frames = [ip_frame(sport=1000 + i, proto=(6, 17)[i % 2]) for i in range(64)]
    rng = random.Random(9)
    for _ in range(64 * 40):
        state.process(frames[rng.randrange(64)], 1, HARDENED)
    assert state.stats["processed"] == 64 * 40
    return state, frames


@pytest.mark.usefixtures("admit_every_miss")
def test_signature_memo_parses_each_repeated_flow_at_most_twice(parsed):
    state, _ = _repeated_flows()
    assert len(parsed) <= 2 * 64
    assert len(state.signatures) == 64


def test_signature_memo_reaches_every_repeated_flow_admitting_one_in_eight(parsed):
    # A flow waits for a microflow admission, then for a microflow hit, before the memo
    # stores it; every flow still gets there, at more parses than one admission per miss.
    state, frames = _repeated_flows()
    assert len(state.signatures) == 64
    assert len(parsed) == 569  # this seeded stream's count; admitting every candidate parses 128
    assert state.stats["slow_path_upcalls"] == 2 and state.stats["fast_path_hits"] == 64 * 40 - 2


@pytest.mark.usefixtures("admit_every_miss")
def test_signature_memo_hit_never_touches_the_microflow(parsed):
    class Untouched(Unreordered):
        def get(self, key, default=None):
            raise AssertionError("microflow probed")

        def __setitem__(self, key, value):
            raise AssertionError("microflow filled")

    state = SwitchState(load_rules(
        "priority=3, l4_src=7, actions=controller\n"  # every mask holds l4_src: one entry per flow
        "priority=2, ip_proto=17, actions=pop_mpls,output:2\n"
        "priority=1, actions=drop"
    ))
    frames = [ip_frame(sport=1000 + i, proto=(6, 17)[i % 2]) for i in range(4)]
    for _ in range(2):  # an upcall, then a microflow hit that stores the memo entry
        for frame in frames:
            state.process(frame, 1, HARDENED)
    assert len(state.signatures) == 4 and len(parsed) == 8
    untouched = Untouched()
    for key, entry in state.microflow.items():
        OrderedDict.__setitem__(untouched, key, entry)
    state.microflow = untouched
    state.signatures = Unreordered(state.signatures)
    before = dict(state.stats)
    for profile in ALL_PROFILES:
        for frame in frames:
            expected = Forwarded((2,)) if frame.data[23] == 17 else Dropped()
            assert state.process(frame, 1, profile) == expected
    assert len(parsed) == 8 and len(state.microflow) == 4
    gained = {name: count - before[name] for name, count in state.stats.items() if count != before[name]}
    hits = 4 * len(ALL_PROFILES)
    half = hits // 2  # the UDP flows forward through a pop that finds no label; the TCP flows drop
    assert gained == {"processed": hits, "fast_path_hits": hits, "forwards": half, "drops": half, "pop_mpls_noop": half}
    for frame in frames:
        entry = state.signatures[key_signature(frame.data, 1)]
        key = extract(frame, 1, HARDENED).key
        project, table = state.megaflows[entry.mask]
        assert table[project(key)] is entry and entry.hits == 1 + len(ALL_PROFILES)


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


def test_signature_memo_probe_is_key_signature():
    # process builds the probe tuple inline; wherever a frame has a signature, the probe is it.
    class RecordsProbes(OrderedDict):
        def get(self, key, default=None):
            probes.append(key)
            return OrderedDict.get(self, key, default)

    probes = []
    state = SwitchState(load_rules("priority=1, actions=output:2"))
    state.signatures = RecordsProbes()
    stored = ip_frame(sport=7)
    for _ in range(2):  # an upcall, then a microflow hit that stores the memo entry; neither probes
        state.process(stored, 1, HARDENED)
    assert not probes and len(state.signatures) == 1
    frames = [RawFrame.of(stored.data[:size]) for size in range(1, 61)]
    frames += [ip_frame(64, options=bytes(4)), ip_frame(1514)] + _memo_pool(random.Random(34))
    signed = 0
    for frame in frames:
        for port in (1, 3):
            state.process(frame, port, HARDENED)
            signature = key_signature(frame.data, port)
            if signature is not None:
                assert probes[-1] == signature, frame.data.hex()
                signed += 1
    assert len(probes) == 2 * len(frames) and signed > 100


def test_signature_memo_never_holds_frames_with_ip_options(parsed):
    # Two frames with one option word: their first 38 octets are equal, and their L4 ports lie past them.
    rules = load_rules("priority=2, l4_dst=80, actions=output:2\npriority=1, actions=drop")
    frames = [ip_frame(64, options=bytes(4), dport=dport) for dport in (80, 81)]
    assert frames[0].data[:38] == frames[1].data[:38] and frames[0].data != frames[1].data
    cached, uncached = SwitchState(rules), SwitchState(rules, megaflow_enabled=False)
    for _ in range(2):  # an option-less flow fills the memo, so the frames below are probed
        cached.process(ip_frame(), 1, HARDENED)
    assert len(cached.signatures) == 1
    del parsed[:]
    for i in range(20):
        frame = frames[i % 2]
        disposition = cached.process(frame, 1, HARDENED)
        assert len(parsed) == 2 * i + 1  # parsed on every arrival
        assert disposition == uncached.process(frame, 1, HARDENED) == (Forwarded((2,)), Dropped())[i % 2]
    # Each frame's later arrivals are parsed, then answered by a microflow or megaflow hit.
    assert len(cached.signatures) == 1 and cached.stats["slow_path_upcalls"] == 3


def _field_value(key, name):
    """A rule field's value in the key, read by attribute name rather than by key position."""
    return getattr(key, "ethertype" if name == "eth_type" else name)


@pytest.mark.parametrize("name", sorted(_FIELD_VALUES))
def test_mask_projector_one_field(name):
    project = mask_projector((name,))
    keys = [
        FlowKey(in_port=2, eth_src=MAC_A, eth_dst=MAC_B, ethertype=0x0800, ip_src=1, ip_dst=2, ip_proto=17,
                ip_tos=0, ip_ttl=64, l4_src=53, l4_dst=80, parse_status=ParseStatus.COMPLETE),
        FlowKey(in_port=1, eth_src=MAC_A, eth_dst=MAC_B, ethertype=0x8847,
                mpls_label=16, mpls_exp=0, mpls_s=True, mpls_ttl=64, mpls_depth_seen=1,
                parse_status=ParseStatus.MPLS_TERMINATED),
        FlowKey(in_port=3),
    ]
    for key in keys:
        assert project(key) == (_field_value(key, name),)


def test_mask_projector_matches_field_getters():
    rng = random.Random(9)
    names = sorted(_FIELD_VALUES)
    for _ in range(200):
        mask = tuple(sorted(rng.sample(names, k=rng.randrange(0, len(names) + 1))))
        key = _random_key(rng)
        assert mask_projector(mask)(key) == tuple(_field_value(key, name) for name in mask)


def _scan_order(rules):
    """The rules in scan order, built apart from SwitchState: descending priority, ties by file order."""
    return [rules[i] for i in sorted(range(len(rules)), key=lambda i: (-rules[i].priority, i))]


def _reference_scan(rules_in_scan_order, key):
    """Scan position of the first rule whose every field, read by name, equals its value."""
    for pos, rule in enumerate(rules_in_scan_order):
        if all(_field_value(key, name) == value for name, value in rule.match):
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
            scan = _scan_order(rules)
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


def _key_matching(rng, rule):
    """A random key carrying the rule's values; mpls_s as the key's bool, against the rule's int."""
    key = _random_key(rng)
    values = {flowtable._FIELDS[name].source: value for name, value in rule.match}
    if "mpls_s" in values:
        values["mpls_s"] = bool(values["mpls_s"])
    return key._replace(**values)


def _scan_rule_sets():
    """(case, rules, keys) at the edges of the generated scan."""
    rng = random.Random(31)
    traffic_keys = [
        extract(frame, rng.choice([1, 2]), profile).key
        for profile in ALL_PROFILES
        for frame in _random_traffic(rng, 40)
    ]
    # Keys with None fields: L2-only, malformed and MPLS keys, and a key with only a port.
    assert any(key.ip_src is None for key in traffic_keys)
    edge_keys = traffic_keys + [_random_key(rng) for _ in range(30)] + [FlowKey(in_port=1)]

    def rule(priority, *match, actions=(Output(2),)):
        return Rule(priority, tuple(match), actions)

    yield "empty", [], edge_keys
    one_field = [rule(len(_FIELD_VALUES) - n, (name, _FIELD_VALUES[name](rng))) for n, name in enumerate(_FIELD_VALUES)]
    catch_all = [
        rule(20, ("eth_type", 0x0800), ("ip_proto", 17)),
        rule(10, ("parse_status", ParseStatus.MALFORMED)),
        rule(5),  # matches every key: no rule below it can win
        rule(5, ("in_port", 1)),
        rule(1, ("eth_type", 0x0800)),
    ]
    yield "catch-all mid-scan", catch_all, edge_keys + [_key_matching(rng, r) for r in catch_all]
    ties = [rule(7, (name, value)) for name, value in
            [("in_port", 1), ("eth_type", 0x0800), ("in_port", 2), ("parse_status", ParseStatus.COMPLETE),
             ("mpls_s", 1), ("mpls_s", 0), ("eth_type", 0x8847), ("in_port", 1)]]
    yield "ties at one priority", ties, edge_keys + [_key_matching(rng, r) for r in ties]
    yield "every field", one_field, edge_keys + [_key_matching(rng, r) for r in one_field]
    every_field = [rule(1, *((name, _FIELD_VALUES[name](rng)) for name in _FIELD_VALUES))]
    yield "every field in one rule", every_field, edge_keys + [_key_matching(rng, every_field[0])]
    # Small per-field value pools, so rules overlap and many keys match several rules.
    pools = {name: [_FIELD_VALUES[name](rng) for _ in range(3)] for name in _FIELD_VALUES}
    for seed in (1, 2, 3):
        draw = random.Random(seed)
        rules = [
            rule(draw.randrange(20), *((name, draw.choice(pools[name]))
                                       for name in draw.sample(sorted(pools), k=draw.randrange(1, 4))))
            for _ in range(1000)
        ]
        keys = [_key_matching(draw, draw.choice(rules)) for _ in range(150)]
        yield f"1000 rules, seed {seed}", rules, keys + edge_keys[::8]


def test_scan_rules_at_the_edges():
    cases = 0
    for case, rules, keys in _scan_rule_sets():
        state = SwitchState(rules)
        scan = _scan_order(rules)
        wins = [state._scan_rules(key) for key in keys]
        assert wins == [_reference_scan(scan, key) for key in keys], case
        # Every case but the empty one holds keys built to match a rule.
        assert any(pos is not None for pos in wins) == bool(rules), case
        if case == "catch-all mid-scan":
            assert set(wins) == {0, 1, 2}  # the catch-all at position 2 answers every key the two above it miss
        cases += 1
    assert cases == 8


def test_scan_rules_binds_values_by_name():
    rules = load_rules(
        "priority=9, eth_src=02:00:00:00:00:01, ip_dst=10.0.0.2, parse_status=Complete, actions=drop\n"
        "priority=5, eth_dst=ff:ff:ff:ff:ff:ff, ip_src=192.168.7.1, actions=output:2\n"
        "priority=3, parse_status=Malformed, mpls_s=1, actions=controller\n"
    )
    # A value that reads as code is still only a value: it is compared, never compiled.
    rules.append(Rule(1, (("eth_type", "__import__('os')._exit(3)"),), (Drop(),)))
    scan = SwitchState(rules)._scan_rules
    consts = scan.__code__.co_consts
    assert not [c for c in consts if isinstance(c, (bytes, str, Enum))]
    # Only scan positions and key positions: an IPv4 value written into the source would show here.
    assert {c for c in consts if c is not None} <= set(range(len(FlowKey._fields)))
    assert scan.__globals__["__builtins__"] == {}
    bound = [v for name, v in scan.__globals__.items() if name != "__builtins__" and name != "scan"]
    assert sorted(map(repr, bound)) == sorted(repr(value) for rule in rules for _, value in rule.match)
    assert scan(FlowKey(in_port=1, ethertype=0x0800)) is None


def test_empty_frame_counted_as_drop():
    state = SwitchState(load_rules("priority=1, actions=output:2"))
    for profile in ALL_PROFILES:
        assert state.process(RawFrame.of(b""), 1, profile) == Dropped()
    assert state.process(udp_frame(), 1, HARDENED) == Forwarded((2,))
    stats = state.stats
    assert stats["processed"] == 5 and stats["drops"] == 4 and stats["forwards"] == 1
    assert stats["slow_path_upcalls"] == 1


def _probe_in_rank_order(state, reached):
    """``_probe`` holds every table once, largest first, ties in the order they reached their size."""
    assert sorted(map(id, state._probe)) == sorted(map(id, state.megaflows.values()))
    sizes = [len(table) for _, table in state._probe]
    assert sizes == sorted(sizes, reverse=True)
    assert [id(table) for _, table in state._probe] == [
        id(table) for _, table in sorted(state._probe, key=lambda pair: (-len(pair[1]), reached[id(pair[1])]))
    ]


def test_megaflow_entries_reselect_same_actions():
    # At most one entry matches a key, which is why the tables' probe order is invisible.
    rng = random.Random(17)
    for round_no in range(12):
        rules = _random_rules(rng, mpls_actions=bool(round_no % 2))
        for profile in ALL_PROFILES:
            state = SwitchState(rules)
            keys, reached, sizes = [], {}, {}
            for i, frame in enumerate(_random_traffic(rng, 80)):
                port = rng.choice([1, 2])
                result = extract(frame, port, profile)
                state.process(frame, port, profile)
                if not (result.verdict is Verdict.DROP and profile.mode is HARDENED.mode):
                    keys.append(result.key)
                for _, table in state.megaflows.values():
                    if sizes.get(id(table)) != len(table):
                        sizes[id(table)], reached[id(table)] = len(table), i
                _probe_in_rank_order(state, reached)
            # Re-evaluating the full table for any key reproduces the actions of its
            # microflow entry (if still cached) and of the one megaflow entry matching it.
            scan = _scan_order(rules)
            for key in keys:
                pos = state._scan_rules(key)
                expected = flowtable.DEFAULT_ACTIONS if pos is None else scan[pos].actions
                micro = state.microflow.get(key)
                assert micro is None or micro.actions == expected
                (mega,) = [table[project(key)] for project, table in state.megaflows.values() if project(key) in table]
                assert mega.actions == expected


def test_reversed_probe_order_changes_no_output():
    rng = random.Random(23)
    reordered = 0
    for round_no in range(20):
        rules = _random_rules(rng, mpls_actions=bool(round_no % 2))
        profile = ALL_PROFILES[round_no % len(ALL_PROFILES)]
        stream = [(frame, rng.choice([1, 2])) for frame in _random_traffic(rng, 300)]
        ranked, reversed_ = SwitchState(rules), SwitchState(rules)
        for frame, port in stream[:150]:
            ranked.process(frame, port, profile)
            reversed_.process(frame, port, profile)
        reversed_._probe.reverse()
        for i, (frame, port) in enumerate(stream[150:]):
            where = f"round {round_no} frame {i}"
            assert reversed_.process(frame, port, profile) == ranked.process(frame, port, profile), where
            assert reversed_.stats == ranked.stats, where
        assert dump_state(reversed_) == dump_state(ranked)
        reordered += len(ranked.megaflows) > 1
    assert reordered >= 8


@pytest.mark.parametrize("flood_masks", [1, 5])
def test_tuple_space_flood_leaves_busiest_table_probed_first(monkeypatch, flood_masks):
    # Each flood rule sits at its own priority and adds one field, so each of its
    # packets installs one entry under a mask of its own. The benign class
    # matches below them all, under the widest mask.
    flood = [
        ("l4_dst=7001", udp_frame(dport=7001), 1),
        ("l4_src=7002", udp_frame(sport=7002), 1),
        ("ip_src=10.9.0.1", udp_frame(src=0x0A090001), 1),
        ("ip_dst=10.9.0.2", udp_frame(dst=0x0A090002), 1),
        ("in_port=9", udp_frame(), 9),
    ][:flood_masks]
    text = "".join(f"priority={100 - n}, {match}, actions=output:3\n" for n, (match, _, _) in enumerate(flood))
    rules = load_rules(text + "priority=1, eth_type=0x0800, actions=output:2")
    probes = []
    real_projector = flowtable.mask_projector

    def counting_projector(mask):
        project = real_projector(mask)
        return lambda key: probes.append(mask) or project(key)

    monkeypatch.setattr(flowtable, "mask_projector", counting_projector)
    cached, uncached = SwitchState(rules), SwitchState(rules, megaflow_enabled=False)
    benign = [(udp_frame(dport=2000 + n), 1) for n in range(64)]
    stream = [(frame, port) for _, frame, port in flood] + benign
    benign_mask = cached._winners[-1][0]
    for frame, port in stream + stream[::-1]:
        assert cached.process(frame, port, HARDENED) == uncached.process(frame, port, HARDENED)
        for counter in _DISPOSITION_COUNTERS:
            assert cached.stats[counter] == uncached.stats[counter]
        _, table = cached.megaflows.get(benign_mask, (None, {}))
        # Once the benign table outgrows every flood table, it is probed first.
        assert len(table) < 2 or cached._probe[0][1] is table
    assert cached.stats["slow_path_upcalls"] == cached.megaflow_entry_count() == flood_masks + len(benign)
    assert len(cached.megaflows) == flood_masks + 1
    assert [len(table) for _, table in cached._probe] == [len(benign)] + [1] * flood_masks
    # A benign megaflow hit probes the benign table alone, however many masks the flood added.
    for frame, port in benign:
        cached.microflow.clear()
        cached.signatures.clear()
        probes.clear()
        assert cached.process(frame, port, HARDENED) == Forwarded((2,))
        assert len(probes) == 1


# --- actions --------------------------------------------------------------------


def _random_key(rng):
    variant = rng.randrange(3)
    if variant == 0:
        return FlowKey(in_port=1, eth_src=MAC_A, eth_dst=MAC_B, ethertype=0x0800,
                       ip_src=1, ip_dst=2, ip_proto=17, ip_tos=0, ip_ttl=64,
                       l4_src=53, l4_dst=80, parse_status=ParseStatus.COMPLETE)
    if variant == 1:
        ethertype = rng.choice([0x8847, 0x8848])
        return FlowKey(in_port=2, eth_src=MAC_A, eth_dst=MAC_B, ethertype=ethertype,
                       mpls_label=rng.randrange(1 << 20), mpls_exp=0, mpls_s=rng.random() < 0.5, mpls_ttl=64,
                       mpls_depth_seen=rng.randrange(1, 3),
                       parse_status=ParseStatus.MPLS_TERMINATED)
    return FlowKey(in_port=3, eth_src=MAC_A, eth_dst=MAC_B, ethertype=0x9999,
                   parse_status=ParseStatus.L2_ONLY)


def _walked_noops(key, actions):
    """The per-packet walk: the key's label depth through the actions, counting each pop that finds no label."""
    stats = {"pop_mpls_noop": 0}
    depth = key.mpls_label is not None
    for action in actions:
        if isinstance(action, PushMpls):
            depth += 1
        elif isinstance(action, PopMpls):
            if depth:
                depth -= 1
            else:
                stats["pop_mpls_noop"] += 1
    return stats["pop_mpls_noop"]


UNLABELLED = udp_frame()
LABELLED = encode_frame(ETH_MPLS, [MplsLse(16, bottom_of_stack=True)])


@pytest.mark.parametrize(
    "names, depth, noops",
    [("pop", 0, 1), ("push,pop,pop", 0, 1), ("pop,pop", 1, 1), ("push,pop", 0, 0), ("pop,push,pop", 0, 1)],
)
def test_pop_without_label_is_flagged_noop(names, depth, noops):
    actions = {"push": PushMpls(77), "pop": PopMpls()}
    walk = tuple(actions[name] for name in names.split(",")) + (Output(1),)
    state = SwitchState([Rule(priority=1, match=(), actions=walk)])
    for sent in range(1, 4):  # an upcall, then cache hits
        assert state.process(LABELLED if depth else UNLABELLED, 1, HARDENED) == Forwarded((1,))
        assert state.stats["pop_mpls_noop"] == noops * sent
    assert disposition_of(walk) == Forwarded((1,))


def test_stored_noop_pops_equal_the_per_packet_walk():
    # Every list of 1 to 4 push, pop and output actions, against a key without a label and one with.
    frames = (UNLABELLED, LABELLED)
    keys = [extract(frame, 1, HARDENED).key for frame in frames]
    assert [key.mpls_label is not None for key in keys] == [False, True]
    choices = (PushMpls(77), PopMpls(), Output(1))
    walks = [walk for length in range(1, 5) for walk in product(choices, repeat=length)]
    assert len(walks) == 3 + 9 + 27 + 81
    for walk in walks:
        expected = tuple(_walked_noops(key, walk) for key in keys)
        assert (apply_actions(walk, False), apply_actions(walk, True)) == expected, walk
        state = SwitchState([Rule(priority=1, match=(), actions=walk)])
        # An upcall and a megaflow hit, then a microflow hit and a megaflow hit, then a memo hit and a megaflow hit.
        for frame, noops in zip(frames * 3, expected * 3):
            before = state.stats["pop_mpls_noop"]
            state.process(frame, 1, HARDENED)
            assert state.stats["pop_mpls_noop"] - before == noops, walk
        (entry,) = [entry for _, table in state.megaflows.values() for entry in table.values()]
        assert entry.noop_pops == (expected if any(expected) else None), walk
        assert len(state.signatures) == 1 and entry.hits == 5


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
