import random
import struct

import pytest

from shimguard.attacks import AttackKind, AttackSpec, craft
from shimguard.extract import (
    ALL_PROFILES,
    HARDENED,
    VULN_232,
    VULN_240,
    VULN_250,
    CorruptionKind,
    EmptyFrameError,
    ParserMode,
    ParserProfile,
    Verdict,
    VulnClass,
    classify_events,
    extract,
    key_signature,
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
ETH_MPLS = EthernetHeader(MAC_B, MAC_A, 0x8847)
ETH_IP = EthernetHeader(MAC_B, MAC_A, 0x0800)


def long_shim_frame(labels=375):
    return encode_frame(ETH_MPLS, [MplsLse(0, ttl=64)] * labels)


def short_shim_frame(frag=b"\x12\x34"):
    return RawFrame.of(ETH_MPLS.encode() + frag)


def acl_bypass_frame(total_length=0, proto=17, sport=1234, dport=8080):
    ip = Ipv4Header(total_length=total_length, protocol=proto, src_ip=0x0A000001, dst_ip=0x0A000002)
    return encode_frame(ETH_IP, [ip], payload=struct.pack(">HH", sport, dport))


def udp_frame(sport=53, dport=1024):
    ip = Ipv4Header(total_length=28, protocol=17, src_ip=0x0A000001, dst_ip=0x0A000002)
    return encode_frame(ETH_IP, [ip], payload=struct.pack(">HHHH", sport, dport, 8, 0))


def assert_flowkey_invariants(key):
    if key.l4_src is not None or key.l4_dst is not None:
        assert key.ip_src is not None and key.ip_dst is not None
    if key.mpls_top is not None:
        assert key.ethertype in (0x8847, 0x8848)


def test_long_shim_vuln232_overflow_byte_count():
    frame = long_shim_frame()
    labels = (frame.capture_len - 14) // 4  # independent count from the raw frame
    assert labels == 375
    result = extract(frame, 0, VULN_232)
    assert len(result.events) == 1
    event = result.events[0]
    assert event.kind is CorruptionKind.STACK_OVERFLOW_WRITE
    assert event.byte_count == 4 * (labels - 3) == 1488
    assert result.verdict is Verdict.ACCEPT
    assert result.key.parse_status is ParseStatus.MALFORMED
    assert result.memory.stack_written_slots == labels
    assert result.memory.overflow_bytes_written == event.byte_count


def test_long_shim_custom_label_limit():
    frame = long_shim_frame()
    result = extract(frame, 0, ParserProfile(ParserMode.VULN_232, label_limit=10))
    assert result.events[0].byte_count == 4 * (375 - 10)


def test_long_shim_hardened_drops_cleanly():
    result = extract(long_shim_frame(), 0, HARDENED)
    assert result.events == ()
    assert result.verdict is Verdict.DROP
    assert result.key.parse_status is ParseStatus.MALFORMED
    assert result.key.mpls_top is None
    assert result.key.mpls_depth_seen == 3


def test_short_shim_vuln240_two_byte_overread():
    result = extract(short_shim_frame(), 0, VULN_240)
    assert len(result.events) == 1
    event = result.events[0]
    assert event.kind is CorruptionKind.SHORT_LSE_OVERFLOW
    assert event.byte_count == 2
    assert result.verdict is Verdict.ACCEPT
    assert result.memory.adjacent_bytes_read == 2


@pytest.mark.parametrize("frag_len", [1, 2, 3])
def test_short_shim_fragment_lengths(frag_len):
    result = extract(short_shim_frame(b"\x12\x34\x56"[:frag_len]), 0, VULN_240)
    assert result.events[0].byte_count == 4 - frag_len


def test_short_shim_blended_top_from_seeded_region():
    adjacent = random.Random(5).randbytes(64)
    frag = b"\xab\xcd"
    result = extract(short_shim_frame(frag), 0, VULN_240, adjacent)
    # hand-computed blend: fragment octets then the first adjacent octets
    word = int.from_bytes(frag + adjacent[:2], "big")
    top = result.key.mpls_top
    assert top.label == word >> 12
    assert top.exp == (word >> 9) & 0x7
    assert top.bottom_of_stack == bool((word >> 8) & 1)
    assert top.ttl == word & 0xFF
    assert result.key.mpls_depth_seen == 1


def test_short_shim_hardened_drops_cleanly():
    result = extract(short_shim_frame(), 0, HARDENED)
    assert result.events == ()
    assert result.verdict is Verdict.DROP
    assert result.memory.adjacent_bytes_read == 0


def test_zero_total_length_vuln250_overread_with_ports():
    result = extract(acl_bypass_frame(total_length=0, dport=8080), 0, VULN_250)
    assert len(result.events) == 1
    event = result.events[0]
    assert event.kind is CorruptionKind.HEAP_OVERREAD
    assert event.byte_count == 2
    assert event.offset == 20  # claimed datagram end is 20 octets before the L4 read
    assert result.key.l4_src == 1234
    assert result.key.l4_dst == 8080
    assert result.key.ip_proto == 17
    assert result.key.parse_status is ParseStatus.MALFORMED
    assert result.verdict is Verdict.ACCEPT


def test_total_length_below_header_vuln250():
    result = extract(acl_bypass_frame(total_length=19), 0, VULN_250)
    assert result.events[0].kind is CorruptionKind.HEAP_OVERREAD
    assert result.events[0].offset == 1


def test_vuln250_ports_blend_from_adjacent_when_frame_ends():
    ip = Ipv4Header(total_length=0, protocol=17, src_ip=1, dst_ip=2)
    frame = encode_frame(ETH_IP, [ip], payload=b"\x1f")  # only one L4 octet present
    adjacent = random.Random(9).randbytes(64)
    result = extract(frame, 0, VULN_250, adjacent)
    raw = b"\x1f" + adjacent[:3]
    assert result.key.l4_src == (raw[0] << 8) | raw[1]
    assert result.key.l4_dst == (raw[2] << 8) | raw[3]
    assert result.memory.adjacent_bytes_read == 3


def test_malformed_ip_hardened_drops_cleanly():
    # Each frame breaks one clause of the IPv4 rule: total length, version, IHL.
    bad = [Ipv4Header(total_length=24, protocol=17, src_ip=1, dst_ip=2, **kw) for kw in ({"version": 6}, {"ihl": 4})]
    frames = [acl_bypass_frame(0), acl_bypass_frame(19)]
    frames += [encode_frame(ETH_IP, [ip], payload=struct.pack(">HH", 1234, 8080)) for ip in bad]
    for frame in frames:
        result = extract(frame, 0, HARDENED)
        assert result.events == ()
        assert result.verdict is Verdict.DROP
        assert result.key.parse_status is ParseStatus.MALFORMED
        assert result.key.ip_src is None and result.key.l4_dst is None


def test_well_formed_udp_hand_layout_oracle():
    # Byte layout assembled by hand, independent of the package's builders:
    # eth(dst 02::02, src 02::01, 0x0800) + IPv4(ihl=5, tos=0, len=28, ttl=64,
    # proto=17, 10.0.0.1 -> 10.0.0.2) + UDP(53 -> 1024, len=8)
    frame_hex = (
        "020000000002" "020000000001" "0800"
        "45" "00" "001c" "0000" "0000" "40" "11" "0000" "0a000001" "0a000002"
        "0035" "0400" "0008" "0000"
    )
    frame = RawFrame.of(bytes.fromhex(frame_hex))
    for profile in ALL_PROFILES:
        result = extract(frame, 7, profile)
        key = result.key
        assert result.verdict is Verdict.ACCEPT
        assert result.events == ()
        assert key.parse_status is ParseStatus.COMPLETE
        assert key.in_port == 7
        assert key.eth_src == MAC_A and key.eth_dst == MAC_B
        assert key.ethertype == 0x0800
        assert key.ip_src == 0x0A000001 and key.ip_dst == 0x0A000002
        assert key.ip_proto == 17 and key.ip_ttl == 64 and key.ip_tos == 0
        assert key.l4_src == 53 and key.l4_dst == 1024
        assert_flowkey_invariants(key)


def test_terminated_stack_never_parses_beneath():
    ip = Ipv4Header(total_length=28, protocol=17, src_ip=1, dst_ip=2)
    frame = encode_frame(
        ETH_MPLS,
        [MplsLse(100), MplsLse(200, bottom_of_stack=True)],
        payload=ip.encode() + struct.pack(">HHHH", 53, 80, 8, 0),
    )
    for profile in ALL_PROFILES:
        result = extract(frame, 0, profile)
        key = result.key
        assert key.parse_status is ParseStatus.MPLS_TERMINATED
        assert result.verdict is Verdict.ACCEPT
        assert key.mpls_top == MplsLse(100)
        assert key.mpls_depth_seen == 2
        assert key.ip_src is None and key.l4_src is None


def test_deep_terminated_stack_depth_caps_at_limit():
    lses = [MplsLse(i) for i in range(9)] + [MplsLse(9, bottom_of_stack=True)]
    frame = encode_frame(ETH_MPLS, lses)
    for profile in ALL_PROFILES:
        result = extract(frame, 0, profile)
        assert result.events == ()
        assert result.key.mpls_depth_seen == 3
        assert result.key.parse_status is ParseStatus.MPLS_TERMINATED


def test_unterminated_within_limit_is_benign_malformed():
    frame = encode_frame(ETH_MPLS, [MplsLse(1), MplsLse(2)])
    keys = []
    for profile in ALL_PROFILES:
        result = extract(frame, 0, profile)
        assert result.events == ()
        assert result.verdict is Verdict.DROP
        keys.append(result.key)
    assert all(k == keys[0] for k in keys)


def test_vlan_is_l2_only():
    frame = RawFrame.of(ETH_MPLS.encode()[:12] + b"\x81\x00" + b"\x00" * 8)
    for profile in ALL_PROFILES:
        result = extract(frame, 0, profile)
        assert result.key.parse_status is ParseStatus.L2_ONLY
        assert result.verdict is Verdict.ACCEPT


def test_mpls_multicast_ethertype_accepted():
    eth = EthernetHeader(MAC_B, MAC_A, 0x8848)
    frame = encode_frame(eth, [MplsLse(5, bottom_of_stack=True)])
    result = extract(frame, 0, HARDENED)
    assert result.key.parse_status is ParseStatus.MPLS_TERMINATED
    assert result.key.mpls_top.label == 5


def test_runt_frame_malformed():
    frame = RawFrame.of(b"\x01\x02\x03")
    for profile in ALL_PROFILES:
        result = extract(frame, 0, profile)
        assert result.key.eth_src is None
        assert result.key.parse_status is ParseStatus.MALFORMED
        assert result.verdict is Verdict.DROP


def test_keys_equal_keyword_built_flowkeys():
    # extraction builds keys positionally; this pins every field's position
    lse = MplsLse(16, exp=2, bottom_of_stack=True, ttl=9)
    eth = {"eth_src": MAC_A, "eth_dst": MAC_B}
    cases = [
        (HARDENED, udp_frame(sport=53, dport=1024), FlowKey(
            in_port=7, **eth, ethertype=0x0800, ip_src=0x0A000001, ip_dst=0x0A000002, ip_proto=17,
            ip_tos=0, ip_ttl=64, l4_src=53, l4_dst=1024, parse_status=ParseStatus.COMPLETE)),
        (VULN_250, acl_bypass_frame(sport=1234, dport=8080), FlowKey(
            in_port=7, **eth, ethertype=0x0800, ip_src=0x0A000001, ip_dst=0x0A000002, ip_proto=17,
            ip_tos=0, ip_ttl=64, l4_src=1234, l4_dst=8080, parse_status=ParseStatus.MALFORMED)),
        (HARDENED, acl_bypass_frame(), FlowKey(
            in_port=7, **eth, ethertype=0x0800, parse_status=ParseStatus.MALFORMED)),
        (HARDENED, encode_frame(ETH_MPLS, [MplsLse(5), lse]), FlowKey(
            in_port=7, **eth, ethertype=0x8847, mpls_labels=(MplsLse(5),), mpls_depth_seen=2,
            parse_status=ParseStatus.MPLS_TERMINATED)),
        (VULN_232, long_shim_frame(5), FlowKey(
            in_port=7, **eth, ethertype=0x8847, mpls_labels=(MplsLse(0),), mpls_depth_seen=5,
            parse_status=ParseStatus.MALFORMED)),
        (HARDENED, long_shim_frame(5), FlowKey(
            in_port=7, **eth, ethertype=0x8847, mpls_depth_seen=3, parse_status=ParseStatus.MALFORMED)),
        (HARDENED, encode_frame(EthernetHeader(MAC_B, MAC_A, 0x9999)), FlowKey(
            in_port=7, **eth, ethertype=0x9999, parse_status=ParseStatus.L2_ONLY)),
        (HARDENED, RawFrame.of(b"\x01\x02"), FlowKey(in_port=7)),
    ]
    for profile, frame, expected in cases:
        assert extract(frame, 7, profile).key == expected


def test_empty_frame_raises():
    with pytest.raises(EmptyFrameError):
        extract(RawFrame.of(b""), 0, HARDENED)


def test_classify_events():
    r232 = extract(long_shim_frame(), 0, VULN_232)
    r240 = extract(short_shim_frame(), 0, VULN_240)
    r250 = extract(acl_bypass_frame(), 0, VULN_250)
    assert classify_events(r232.events) is VulnClass.LONG_STACK_232
    assert classify_events(r240.events) is VulnClass.SHORT_LSE_240
    assert classify_events(r250.events) is VulnClass.IP_UNDERFLOW_250
    assert classify_events(()) is VulnClass.BENIGN


def _random_frame(rng):
    """Assorted frame population: valid, malformed, and junk."""
    kind = rng.randrange(8)
    if kind == 0:
        return udp_frame(rng.randrange(1, 65536), rng.randrange(1, 65536))
    if kind == 1:
        n = rng.randrange(1, 8)
        lses = [MplsLse(rng.randrange(1 << 20)) for _ in range(n - 1)]
        lses.append(MplsLse(rng.randrange(1 << 20), bottom_of_stack=True))
        return encode_frame(ETH_MPLS, lses)
    if kind == 2:
        n = rng.randrange(1, 8)
        return encode_frame(ETH_MPLS, [MplsLse(rng.randrange(1 << 20)) for _ in range(n)])
    if kind == 3:
        return RawFrame.of(ETH_MPLS.encode() + rng.randbytes(rng.randrange(1, 24)))
    if kind == 4:
        tl = rng.randrange(0, 60)
        hdr = bytearray(udp_frame().data)
        hdr[16:18] = tl.to_bytes(2, "big")
        return RawFrame.of(bytes(hdr))
    if kind == 5:
        return RawFrame.of(rng.randbytes(rng.randrange(1, 80)))
    if kind == 6:
        return acl_bypass_frame(rng.randrange(0, 20))
    return RawFrame.of(MAC_B + MAC_A + rng.randbytes(2) + rng.randbytes(rng.randrange(0, 40)))


def test_differential_equivalence_on_event_free_frames():
    rng = random.Random(1234)
    for _ in range(400):
        frame = _random_frame(rng)
        results = [extract(frame, 1, p) for p in ALL_PROFILES]
        if any(r.events for r in results):
            continue
        first = results[0].key
        assert all(r.key == first for r in results[1:])


def test_complete_key_depends_only_on_its_signature():
    """What makes the flow table's parse memo exact: a COMPLETE key is read from key_signature's inputs alone."""
    rng = random.Random(2718)
    frames = [_random_frame(rng) for _ in range(400)]
    for _ in range(400):
        data = bytearray(udp_frame(rng.randrange(1, 65536), rng.randrange(1, 65536)).data)
        for _ in range(rng.randrange(1, 4)):
            data[rng.randrange(42)] ^= 1 << rng.randrange(8)
        frames.append(RawFrame.of(data))
    profiles = ALL_PROFILES + tuple(ParserProfile(p.mode, label_limit=1) for p in ALL_PROFILES)
    regions = [random.Random(seed).randbytes(64) for seed in (1, 2)]
    complete = tails = 0
    for frame in frames:
        results = [extract(frame, 1, profile, adjacent) for profile in profiles for adjacent in (None, *regions)]
        if all(r.key.parse_status is not ParseStatus.COMPLETE for r in results):
            continue
        complete += 1
        for r in results:
            assert r.key == results[0].key and r.key.parse_status is ParseStatus.COMPLETE, frame.data.hex()
            assert r.events == () and r.memory.adjacent_bytes_read == 0, frame.data.hex()
        # Every octet past the signature prefix replaced: same signature, same key under every profile.
        signature = key_signature(frame.data, 1)
        prefix = signature[1]
        other = RawFrame.of(prefix + rng.randbytes(len(frame.data) - len(prefix)))
        tails += other.data != frame.data
        assert key_signature(other.data, 1) == signature
        for profile in profiles:
            assert extract(other, 1, profile, regions[0]).key == results[0].key, frame.data.hex()
    assert 200 < complete < len(frames) and tails > 100
    assert key_signature(bytes(33), 1) is None and key_signature(bytes(34), 1) is not None


def test_verdict_drops_exactly_malformed_frames_without_events():
    rng = random.Random(4321)
    frames = [_random_frame(rng) for _ in range(600)]
    frames += [craft(AttackSpec(kind)) for kind in AttackKind]
    frames += [craft(AttackSpec(AttackKind.SHORT_SHIM, fragment_len=n)) for n in (1, 3)]
    seen = set()
    for frame in frames:
        for profile in ALL_PROFILES:
            result = extract(frame, 1, profile)
            dropped = result.key.parse_status is ParseStatus.MALFORMED and not result.events
            assert (result.verdict is Verdict.DROP) == dropped
            seen.add((result.verdict, result.key.parse_status, bool(result.events)))
    # Every branch of the rule is exercised: clean drops, events on malformed
    # keys, and accepted well-formed keys.
    assert (Verdict.DROP, ParseStatus.MALFORMED, False) in seen
    assert (Verdict.ACCEPT, ParseStatus.MALFORMED, True) in seen
    assert {(Verdict.ACCEPT, status, False) for status in (ParseStatus.COMPLETE, ParseStatus.L2_ONLY,
                                                            ParseStatus.MPLS_TERMINATED)} <= seen


def test_hardened_accounting_identically_zero():
    rng = random.Random(99)
    frames = [_random_frame(rng) for _ in range(300)]
    frames += [long_shim_frame(), short_shim_frame(), acl_bypass_frame()]
    for frame in frames:
        result = extract(frame, 0, HARDENED)
        assert result.events == ()
        assert result.memory.adjacent_bytes_read == 0
        assert result.memory.overflow_bytes_written == 0
        assert result.memory.stack_written_slots <= result.memory.stack_capacity_slots
        assert_flowkey_invariants(result.key)
        if result.key.parse_status is ParseStatus.MALFORMED:
            # nothing beyond the last successfully parsed layer
            assert result.key.mpls_top is None
            assert result.key.ip_src is None
            assert result.key.l4_src is None


def test_accounting_agrees_with_events():
    rng = random.Random(2468)
    frames = [_random_frame(rng) for _ in range(600)]
    frames += [craft(AttackSpec(kind)) for kind in AttackKind]
    frames += [craft(AttackSpec(AttackKind.SHORT_SHIM, fragment_len=n)) for n in (1, 3)]
    regions = (None, random.Random(5).randbytes(64))
    seen = set()
    for frame in frames:
        for base in ALL_PROFILES:
            for limit in (1, 3, 7):
                profile = ParserProfile(base.mode, limit)
                for adjacent in regions:
                    result = extract(frame, 1, profile, adjacent)
                    memory = result.memory
                    assert memory.stack_capacity_slots == limit
                    if not result.events:
                        assert memory.stack_written_slots <= limit
                        assert memory.overflow_bytes_written == 0
                        assert memory.adjacent_bytes_read == 0
                        seen.add(None)
                        continue
                    (event,) = result.events
                    if profile.mode is ParserMode.VULN_232:
                        assert memory.overflow_bytes_written == event.byte_count
                    elif profile.mode is ParserMode.VULN_240:
                        assert memory.adjacent_bytes_read == event.byte_count
                    seen.add(profile.mode)
    assert {None, ParserMode.VULN_232, ParserMode.VULN_240} <= seen


def test_long_shim_custom_label_limit_accounting():
    profile = ParserProfile(ParserMode.VULN_232, label_limit=10)
    memory = extract(long_shim_frame(), 0, profile).memory
    assert memory.stack_capacity_slots == 10
    assert memory.stack_written_slots == 375
    assert memory.overflow_bytes_written == 4 * (375 - 10)
    # the capacity comes from the profile whatever region is passed
    short = craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=60))
    result = extract(short, 0, profile, random.Random(1).randbytes(64))
    assert result.memory.overflow_bytes_written == result.events[0].byte_count == 4


def test_same_region_gives_equal_accounting():
    adjacent = random.Random(5).randbytes(64)
    ip = Ipv4Header(total_length=0, protocol=17, src_ip=1, dst_ip=2)
    ports_cut = encode_frame(ETH_IP, [ip], payload=b"\x1f")
    for frame, profile in ((long_shim_frame(), VULN_232), (short_shim_frame(), VULN_240), (ports_cut, VULN_250)):
        first, second = (extract(frame, 0, profile, adjacent) for _ in range(2))
        assert first == second
        assert first.memory.adjacent_bytes_read + first.memory.overflow_bytes_written > 0


def test_short_adjacent_region_repeats():
    result = extract(short_shim_frame(b"\x12"), 0, VULN_240, b"\xab")
    assert result.memory.adjacent_bytes_read == 3
    top = result.key.mpls_top
    word = int.from_bytes(b"\x12\xab\xab\xab", "big")
    assert (top.label, top.ttl) == (word >> 12, word & 0xFF)


def test_vuln232_trigger_iff_predicate():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 10)
        bos_at = rng.choice([None] + list(range(n))) if n else None
        lses = [MplsLse(rng.randrange(1 << 20), bottom_of_stack=(i == bos_at)) for i in range(n)]
        frame = encode_frame(ETH_MPLS, lses)
        result = extract(frame, 0, VULN_232)
        expect = bos_at is None and n > 3
        assert bool(result.events) == expect
        if expect:
            assert result.events[0].byte_count == 4 * (n - 3)


def test_vuln250_trigger_iff_predicate():
    rng = random.Random(8)
    for _ in range(300):
        ihl = rng.randrange(0, 16)
        tl = rng.randrange(0, 80)
        version = rng.choice([4, 4, 4, 6])
        hdr = bytearray(20)
        hdr[0] = (version << 4) | ihl
        hdr[2:4] = tl.to_bytes(2, "big")
        hdr[9] = rng.choice([6, 17, 1])
        frame = RawFrame.of(ETH_IP.encode() + bytes(hdr) + rng.randbytes(rng.randrange(0, 8)))
        result = extract(frame, 0, VULN_250)
        expect = tl == 0 or tl < ihl * 4
        assert bool(result.events) == expect


def test_hardened_depth_bounded_by_complete_lses():
    rng = random.Random(21)
    for _ in range(200):
        raw = ETH_MPLS.encode() + rng.randbytes(rng.randrange(0, 40))
        frame = RawFrame.of(raw)
        n_complete = (frame.capture_len - 14) // 4
        result = extract(frame, 0, HARDENED)
        assert result.key.mpls_depth_seen <= n_complete


def test_memory_model_flags_overflow():
    frame = long_shim_frame(5)
    result = extract(frame, 0, VULN_232)
    assert result.memory.stack_written_slots == 5
    assert result.memory.overflow_bytes_written == 8
    with pytest.raises(ValueError):
        extract(frame, 0, VULN_232, b"")


def test_parser_profile_validation():
    with pytest.raises(ValueError):
        ParserProfile(ParserMode.HARDENED, label_limit=0)
