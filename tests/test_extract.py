import hashlib
import random
import struct

import pytest

import shimguard.extract as extract_module
from shimguard.attacks import AttackKind, AttackSpec, MutationBudget, craft, mutate
from shimguard.extract import (
    ALL_PROFILES,
    DEFAULT_ADJACENT_LEN,
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
    _walk,
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
    _lse_fields,
    decode_lse,
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
    if key.mpls_label is not None:
        assert key.ethertype in (0x8847, 0x8848)


def top_entry(key):
    """The key's top label stack entry fields, read by name, in MplsLse order."""
    return key.mpls_label, key.mpls_exp, key.mpls_s, key.mpls_ttl


def adjacent_octets_read(frame, profile):
    """How many octets past the packet the extraction's result depends on.

    Flips each octet of a seeded 64-octet region in turn and returns one past
    the highest index whose flip changes the result. This is exact: v240's
    blended LSE and v250's ports use all 32 bits of what they read.
    """
    region = random.Random(64).randbytes(DEFAULT_ADJACENT_LEN)
    result = extract(frame, 0, profile, region)
    read = 0
    for index in range(len(region)):
        flipped = bytearray(region)
        flipped[index] ^= 0xFF
        if extract(frame, 0, profile, bytes(flipped)) != result:
            read = index + 1
    return read


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
    # Every entry lands in the buffer, so the depth is the slots written.
    assert result.key.mpls_depth_seen == labels


def test_long_shim_custom_label_limit():
    frame = long_shim_frame()
    result = extract(frame, 0, ParserProfile(ParserMode.VULN_232, label_limit=10))
    assert result.events[0].byte_count == 4 * (375 - 10)


def test_long_shim_hardened_drops_cleanly():
    result = extract(long_shim_frame(), 0, HARDENED)
    assert result.events == ()
    assert result.verdict is Verdict.DROP
    assert result.key.parse_status is ParseStatus.MALFORMED
    assert top_entry(result.key) == (None,) * 4
    assert result.key.mpls_depth_seen == 3


def test_short_shim_vuln240_two_byte_overread():
    result = extract(short_shim_frame(), 0, VULN_240)
    assert len(result.events) == 1
    event = result.events[0]
    assert event.kind is CorruptionKind.SHORT_LSE_OVERFLOW
    assert event.byte_count == 2
    assert result.verdict is Verdict.ACCEPT
    assert adjacent_octets_read(short_shim_frame(), VULN_240) == 2


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
    assert top_entry(result.key) == (word >> 12, (word >> 9) & 0x7, bool((word >> 8) & 1), word & 0xFF)
    assert result.key.mpls_depth_seen == 1


def test_lse_fields_equal_decode_lse():
    """The top-entry helper decodes a word as decode_lse does, S flag as a bool, at its offset.

    decode_lse is built on the helper, so MplsLse.encode, written apart, is the oracle.
    """
    rng = random.Random(22)
    for _ in range(2000):
        word = rng.getrandbits(32)
        for raw in ((word | 0x100).to_bytes(4, "big"), (word & ~0x100).to_bytes(4, "big")):
            fields = _lse_fields(raw, 0)
            assert fields == tuple(decode_lse(raw))
            assert MplsLse(*fields).encode() == raw
            assert type(fields[2]) is bool
            assert _lse_fields(ETH_MPLS.encode() + raw + raw[::-1]) == fields


@pytest.mark.parametrize("frag_len", [1, 2, 3])
def test_short_shim_blended_top_equals_decode_lse(frag_len):
    """v240's blended entry is the fragment then the (repeating) seeded region, read by decode_lse."""
    rng = random.Random(240 + frag_len)
    for _ in range(300):
        frag = rng.randbytes(frag_len)
        adjacent = rng.randbytes(rng.choice((1, 2, 3, DEFAULT_ADJACENT_LEN)))
        result = extract(short_shim_frame(frag), 0, VULN_240, adjacent)
        assert top_entry(result.key) == tuple(decode_lse(frag + (adjacent * 4)[: 4 - frag_len]))
        assert type(result.key.mpls_s) is bool


def test_short_shim_hardened_drops_cleanly():
    result = extract(short_shim_frame(), 0, HARDENED)
    assert result.events == ()
    assert result.verdict is Verdict.DROP
    assert adjacent_octets_read(short_shim_frame(), HARDENED) == 0


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
    assert adjacent_octets_read(frame, VULN_250) == 3


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
        assert top_entry(key) == MplsLse(100)
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
    assert result.key.mpls_label == 5


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
            in_port=7, **eth, ethertype=0x8847, mpls_label=5, mpls_exp=0, mpls_s=False, mpls_ttl=64, mpls_depth_seen=2,
            parse_status=ParseStatus.MPLS_TERMINATED)),
        (VULN_232, long_shim_frame(5), FlowKey(
            in_port=7, **eth, ethertype=0x8847, mpls_label=0, mpls_exp=0, mpls_s=False, mpls_ttl=64, mpls_depth_seen=5,
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
    """What makes the flow table's parse memo exact: a signed COMPLETE key is read from key_signature's inputs alone."""
    rng = random.Random(2718)
    frames = [_random_frame(rng) for _ in range(400)]
    for _ in range(400):
        data = bytearray(udp_frame(rng.randrange(1, 65536), rng.randrange(1, 65536)).data)
        for _ in range(rng.randrange(1, 4)):
            data[rng.randrange(42)] ^= 1 << rng.randrange(8)
        frames.append(RawFrame.of(data))
    profiles = ALL_PROFILES + tuple(ParserProfile(p.mode, label_limit=1) for p in ALL_PROFILES)
    regions = [random.Random(seed).randbytes(64) for seed in (1, 2)]
    complete = tails = unsigned = 0
    for frame in frames:
        # Signed exactly when the frame holds the 20-octet header and its version/IHL octet is 0x45.
        signature = key_signature(frame.data, 1)
        assert (signature is None) == (len(frame.data) < 34 or frame.data[14] != 0x45), frame.data.hex()
        results = [extract(frame, 1, profile, adjacent) for profile in profiles for adjacent in (None, *regions)]
        if all(r.key.parse_status is not ParseStatus.COMPLETE for r in results):
            continue
        complete += 1
        for r in results:
            # Equal under every region: no octet past the packet is read.
            assert r == results[0] and r.key.parse_status is ParseStatus.COMPLETE, frame.data.hex()
            assert r.events == (), frame.data.hex()
        if signature is None:
            unsigned += 1  # IP options: the memo never holds it
            continue
        # Every octet past the signature prefix replaced: same signature, same key under every profile.
        prefix = signature[1]
        other = RawFrame.of(prefix + rng.randbytes(len(frame.data) - len(prefix)))
        tails += other.data != frame.data
        assert key_signature(other.data, 1) == signature
        for profile in profiles:
            assert extract(other, 1, profile, regions[0]).key == results[0].key, frame.data.hex()
    assert 200 < complete < len(frames) and tails > 100 and unsigned > 5
    # The shortest signed frame; a 34-octet frame with one option word has no signature.
    option_less = bytes(14) + b"\x45" + bytes(19)
    assert key_signature(option_less[:33], 1) is None and key_signature(option_less, 1) == (1, option_less, 34)
    assert key_signature(bytes(14) + b"\x46" + bytes(19), 1) is None


def test_profiles_of_one_label_limit_agree_where_hardened_accepts():
    """What lets diff_fuzz parse a hardened-accepted frame once for all vulnerable profiles of a label limit."""
    rng = random.Random(1618)
    frames = [_random_frame(rng) for _ in range(2000)]
    seeds = [craft(AttackSpec(kind)) for kind in AttackKind] + [udp_frame()]
    frames += mutate(seeds, MutationBudget(iterations=2000, seed=5))
    region = random.Random(3).randbytes(64)
    accepted = 0
    for frame in frames:
        for adjacent in (None, region):
            # ParserMode lists HARDENED first.
            by_limit = [
                [extract(frame, 1, ParserProfile(mode, limit), adjacent) for mode in ParserMode] for limit in (1, 3, 7)
            ]
            if any(results[0].key.parse_status is ParseStatus.MALFORMED for results in by_limit):
                continue
            accepted += 1
            for results in by_limit:
                assert results[0].events == (), frame.data.hex()
                assert all(result == results[0] for result in results[1:]), frame.data.hex()
    assert 1000 < accepted < 2 * len(frames)


def _trigger_frames():
    """Frames on the edges of every branch of the walk, for the trigger table's test.

    Lengths around 14, 34 and 38 under each ethertype; IPv4 with IHL 0-15 and total
    lengths 0, 19, 20 and the header length +-1; MPLS stacks of 0-5 entries with no
    bottom entry, ending in fragments of 0-3 octets; long unterminated stacks; and
    terminated ones.
    """
    rng = random.Random(232240250)
    ethertypes = (0x0800, 0x8847, 0x8848, 0x86DD, 0x0806)
    frames = [rng.randbytes(size) for size in range(1, 14)]
    for size in (14, 15, 33, 34, 35, 37, 38, 39, 60):
        for ethertype in ethertypes:
            data = bytearray(rng.randbytes(size))
            struct.pack_into(">H", data, 12, ethertype)
            frames.append(data)
    for size in (34, 37, 38, 60, 90):
        for ihl in range(16):
            for total_length in sorted({0, 19, 20, max(0, 4 * ihl - 1), 4 * ihl, 4 * ihl + 1, size - 14}):
                for proto in (6, 17, 1):
                    data = bytearray(rng.randbytes(size))
                    struct.pack_into(">HBBH", data, 12, 0x0800, 0x40 | ihl, 0, total_length)
                    data[23] = proto
                    frames.append(data)
    for ethertype in (0x8847, 0x8848):
        head = bytes(12) + ethertype.to_bytes(2, "big")
        for entries in range(6):
            for frag in range(4):
                data = bytearray(head + rng.randbytes(4 * entries + frag))
                for offset in range(16, 14 + 4 * entries, 4):
                    data[offset] &= 0xFE
                frames.append(data)
                if entries:
                    terminated = bytearray(data)
                    terminated[14 + 4 * (entries - 1) + 2] |= 1
                    frames.append(terminated)
        frames.append(head + MplsLse(0, ttl=64).encode() * 375)
    return [RawFrame.of(bytes(data)) for data in frames]


def test_trigger_table_agrees_with_the_walk():
    """Each vulnerable mode fires only on frames the hardened walk finds MALFORMED, only behind the ethertypes
    TRIGGERS lists for it, and behind every one of them, with the class TRIGGERS names; a profile that fires
    nothing returns the hardened result of its label limit."""
    assert set(extract_module.TRIGGERS) == set(ParserMode) - {ParserMode.HARDENED}
    fired_behind = {mode: set() for mode in extract_module.TRIGGERS}
    skipped = 0
    for frame in _trigger_frames():
        ethertype = int.from_bytes(frame.data[12:14], "big") if len(frame.data) >= 14 else None
        for limit in (1, 3):
            hardened = extract(frame, 0, ParserProfile(ParserMode.HARDENED, limit))
            assert hardened.events == ()
            malformed = hardened.key.parse_status is ParseStatus.MALFORMED
            for mode, (ethertypes, cls) in extract_module.TRIGGERS.items():
                result = extract(frame, 0, ParserProfile(mode, limit))
                if result.events:
                    assert malformed and ethertype in ethertypes, (frame.data.hex(), mode, limit)
                    assert classify_events(result.events) is cls
                    fired_behind[mode].add(ethertype)
                else:
                    assert result == hardened, (frame.data.hex(), mode, limit)
                    skipped += malformed and ethertype not in ethertypes
    assert fired_behind == {mode: set(ethertypes) for mode, (ethertypes, _) in extract_module.TRIGGERS.items()}
    assert skipped > 1000


def _boundary_frames():
    """Frames on every edge of the option-less IPv4 shortcut's entry test."""
    rng = random.Random(38)
    frames = []
    for size in (37, 38, 39, 60, 90):
        for ethertype in (0x0800, 0x8847, 0x86DD):
            for version in (4, 6):
                for ihl in (4, 5, 6, 15):
                    for total_length in (0, 19, 20, 23, 24, size - 14, size - 13):
                        for proto in (1, 6, 17):
                            data = bytearray(rng.randbytes(size))
                            struct.pack_into(">H", data, 12, ethertype)
                            data[14] = version << 4 | ihl
                            struct.pack_into(">H", data, 16, total_length)
                            data[23] = proto
                            frames.append(RawFrame.of(bytes(data)))
    return frames


def _takes_shortcut(data):
    total_length = int.from_bytes(data[16:18], "big")
    return len(data) >= 38 and data[12:15] == b"\x08\x00\x45" and 20 <= total_length <= len(data) - 14


def test_ipv4_shortcut_skips_the_walk_exactly_on_its_frames(monkeypatch):
    """extract calls the general walk for every frame but those the option-less IPv4 shortcut answers."""
    walked = []
    real_walk = extract_module._walk
    monkeypatch.setattr(extract_module, "_walk", lambda data, *args: walked.append(data) or real_walk(data, *args))
    rng = random.Random(3333)
    skipped = 0
    for size in (33, 34, 37, 38, 60):
        for ethertype in (0x0800, 0x0806, 0x8847):
            for version_ihl in (0x45, 0x46, 0x55):
                for total_length in (19, 20, size - 14, size - 13):
                    data = bytearray(rng.randbytes(size))
                    struct.pack_into(">HBBH", data, 12, ethertype, version_ihl, 0, total_length)
                    data[23] = 17
                    data = bytes(data)
                    shortcut = (size >= 38 and ethertype == 0x0800 and version_ihl == 0x45
                                and 20 <= total_length <= size - 14)
                    for profile in ALL_PROFILES:
                        before = len(walked)
                        extract(RawFrame.of(data), 2, profile)
                        assert len(walked) == before + (not shortcut), (data.hex(), profile)
                    skipped += shortcut
    assert skipped == 4  # sizes 38 and 60, each at total length 20 and size - 14


def test_ipv4_shortcut_equals_the_walk():
    """extract's one-unpack step for option-less IPv4 returns what the general walk returns."""
    rng = random.Random(4545)
    frames = _boundary_frames()
    frames += [_random_frame(rng) for _ in range(2000)]
    seeds = [craft(AttackSpec(kind)) for kind in AttackKind] + [udp_frame()]
    frames += mutate(seeds, MutationBudget(iterations=2000, seed=12))
    region = random.Random(3).randbytes(3)
    profiles = [ParserProfile(mode, limit) for mode in ParserMode for limit in (1, 3, 7)]
    shortcut = 0
    for frame in frames:
        shortcut += _takes_shortcut(frame.data)
        for profile in profiles:
            for adjacent in (None, region):
                walked = _walk(frame.data, 2, profile, adjacent or bytes(DEFAULT_ADJACENT_LEN))
                assert extract(frame, 2, profile, adjacent) == walked, (frame.data.hex(), profile, adjacent)
    assert shortcut > 600 and len(frames) - shortcut > 5000


def _gate_frames():
    """Frames on each side of extract's ethertype test ahead of its IPv4 unpack.

    Non-IPv4 frames whose high ethertype octet is 0x08, IPv4 frames of every IHL but 5,
    and MPLS and VLAN frames; each of 38 octets or more, so the old code unpacked them all.
    """
    rng = random.Random(3838)
    frames = []
    for size in (38, 39, 42, 60, 1514):
        for ethertype in (0x0806, 0x08FF):
            for total_length in (0, 20, 24, size - 14):
                data = bytearray(rng.randbytes(size))
                struct.pack_into(">HBBH", data, 12, ethertype, 0x45, 0, total_length)
                data[23] = 17
                frames.append(data)
        for ihl in (*range(5), *range(6, 16)):
            for total_length in sorted({0, max(0, 4 * ihl - 1), 4 * ihl, 4 * ihl + 4, size - 14, size - 13}):
                for proto in (6, 17):
                    data = bytearray(rng.randbytes(size))
                    struct.pack_into(">HBBH", data, 12, 0x0800, 0x40 | ihl, 0, total_length)
                    data[23] = proto
                    frames.append(data)
    for ethertype in (0x8847, 0x8848, 0x8100):
        for size in (38, 39, 42, 1514):
            # Random stacks, stacks with no bottom entry, and one that ends at its first entry, each
            # followed by what looks like an option-less IPv4 header to the unpack.
            for s_bits in ("random", "clear", "first"):
                data = bytearray(rng.randbytes(size))
                struct.pack_into(">H", data, 12, ethertype)
                for offset in range(16, size - 1, 4):
                    if s_bits != "random":
                        data[offset] &= 0xFE
                if s_bits == "first":
                    data[16] |= 1
                frames.append(data)
    return [RawFrame.of(bytes(data)) for data in frames]


def test_ethertype_gate_equals_the_walk():
    """Frames the gate turns away, and IPv4 frames it lets through to a failing shortcut, extract as the walk does."""
    region = random.Random(3).randbytes(3)
    profiles = [ParserProfile(mode, limit) for mode in ParserMode for limit in (1, 3)]
    frames = _gate_frames()
    for frame in frames:
        assert len(frame.data) >= 38 and not _takes_shortcut(frame.data)
        for profile in profiles:
            for adjacent in (None, region):
                walked = _walk(frame.data, 2, profile, adjacent or bytes(DEFAULT_ADJACENT_LEN))
                assert extract(frame, 2, profile, adjacent) == walked, (frame.data.hex(), profile, adjacent)
    assert {frame.data[12] for frame in frames} == {0x08, 0x88, 0x81}
    assert len(frames) > 800


# sha256 of every result below, taken before extract's walk built its keys positionally.
_BOUNDARY_DIGEST = "bfdc4585fb61263b52a90668d6df0b2c2841af4ccaafd2d4700b90a605ab632d"


def _boundary_prefix_frames():
    """Every prefix of 0-42 octets, and the whole frame, of frames that reach each branch of the walk."""
    ihl6 = Ipv4Header(total_length=32, protocol=17, src_ip=0x0A000001, dst_ip=0x0A000002, ihl=6, options=b"\x01\x01\x01\x00")
    tcp = Ipv4Header(total_length=40, protocol=6, src_ip=0x0A000003, dst_ip=0x0A000004, tos=0x10, ttl=9)
    wholes = [craft(AttackSpec(kind)) for kind in AttackKind]
    wholes += [
        udp_frame(),
        encode_frame(ETH_IP, [tcp], payload=struct.pack(">HHIIBBHHH", 443, 51000, 1, 0, 0x50, 0x10, 1024, 0, 0)),
        encode_frame(ETH_MPLS, [MplsLse(16, exp=2, ttl=64), MplsLse(17, bottom_of_stack=True, ttl=63)], b"\x45"),
        encode_frame(ETH_IP, [ihl6], payload=struct.pack(">HHHH", 67, 68, 8, 0)),
        RawFrame.of(EthernetHeader(MAC_B, MAC_A, 0x8100).encode() + bytes(range(30))),
    ]
    prefixes = [whole.data[:n] for whole in wholes for n in range(43)] + [whole.data for whole in wholes]
    return [RawFrame.of(data) for data in dict.fromkeys(prefixes)]


def test_boundary_prefixes_extract_as_pinned():
    """Each short, MPLS, IPv4 and other-ethertype branch of the walk returns what it returned when pinned."""
    region = random.Random(3).randbytes(3)
    profiles = [ParserProfile(mode, limit) for mode in ParserMode for limit in (1, 3)]
    digest = hashlib.sha256()
    for frame in _boundary_prefix_frames():
        for profile in profiles:
            for adjacent in (None, region):
                try:
                    result = extract(frame, 2, profile, adjacent)
                except EmptyFrameError as error:
                    result = error
                digest.update(repr(result).encode() + b"\n")
    assert digest.hexdigest() == _BOUNDARY_DIGEST


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
    """A hardened parse writes nothing past its label buffer and reads nothing past the packet."""
    rng = random.Random(99)
    frames = [_random_frame(rng) for _ in range(300)]
    frames += [long_shim_frame(), short_shim_frame(), acl_bypass_frame()]
    regions = [random.Random(seed).randbytes(64) for seed in (1, 2)]
    for frame in frames:
        result = extract(frame, 0, HARDENED)
        assert result.events == ()
        assert result.key.mpls_depth_seen <= HARDENED.label_limit
        assert all(extract(frame, 0, HARDENED, adjacent) == result for adjacent in regions), frame.data.hex()
        assert_flowkey_invariants(result.key)
        if result.key.parse_status is ParseStatus.MALFORMED:
            # nothing beyond the last successfully parsed layer
            assert top_entry(result.key) == (None,) * 4
            assert result.key.ip_src is None
            assert result.key.l4_src is None


def test_accounting_agrees_with_events():
    rng = random.Random(2468)
    frames = [_random_frame(rng) for _ in range(600)]
    frames += [craft(AttackSpec(kind)) for kind in AttackKind]
    frames += [craft(AttackSpec(AttackKind.SHORT_SHIM, fragment_len=n)) for n in (1, 3)]
    region = random.Random(5).randbytes(64)
    seen = set()
    for frame in frames:
        data = frame.data
        for base in ALL_PROFILES:
            for limit in (1, 3, 7):
                profile = ParserProfile(base.mode, limit)
                result = extract(frame, 1, profile)
                if not result.events:
                    # Nothing written past the buffer, nothing read past the packet.
                    assert result.key.mpls_depth_seen <= limit
                    assert extract(frame, 1, profile, region) == result
                    seen.add(None)
                    continue
                (event,) = result.events
                if profile.mode is ParserMode.VULN_232:
                    # Every entry is stored; each slot past the capacity is four octets of overflow.
                    assert event.byte_count == 4 * (result.key.mpls_depth_seen - limit)
                elif profile.mode is ParserMode.VULN_240:
                    # The blended entry reaches the key only as the top of the stack.
                    top_blended = len(data) < 14 + 4
                    assert adjacent_octets_read(frame, profile) == (event.byte_count if top_blended else 0)
                else:
                    # v250 reads the TCP/UDP ports the frame lacks from past the packet.
                    l4_off = 14 + 4 * (data[14] & 0xF)
                    lacking = 4 - len(data[l4_off : l4_off + 4]) if data[23] in (6, 17) else 0
                    assert adjacent_octets_read(frame, profile) == lacking
                seen.add(profile.mode)
    assert {None, ParserMode.VULN_232, ParserMode.VULN_240, ParserMode.VULN_250} <= seen


def test_long_shim_custom_label_limit_accounting():
    profile = ParserProfile(ParserMode.VULN_232, label_limit=10)
    result = extract(long_shim_frame(), 0, profile)
    assert result.key.mpls_depth_seen == 375
    assert result.events[0].byte_count == 4 * (375 - 10)
    # the capacity comes from the profile whatever region is passed
    short = craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=60))
    result = extract(short, 0, profile, random.Random(1).randbytes(64))
    assert result.key.mpls_depth_seen == 11
    assert result.events[0].byte_count == 4
    assert adjacent_octets_read(short, profile) == 0


def test_same_region_gives_equal_accounting():
    adjacent = random.Random(5).randbytes(64)
    ip = Ipv4Header(total_length=0, protocol=17, src_ip=1, dst_ip=2)
    ports_cut = encode_frame(ETH_IP, [ip], payload=b"\x1f")
    cases = ((long_shim_frame(), VULN_232, 0), (short_shim_frame(), VULN_240, 2), (ports_cut, VULN_250, 3))
    for frame, profile, read in cases:
        first, second = (extract(frame, 0, profile, adjacent) for _ in range(2))
        assert first == second and first.events
        assert adjacent_octets_read(frame, profile) == read


def test_short_adjacent_region_repeats():
    result = extract(short_shim_frame(b"\x12"), 0, VULN_240, b"\xab")
    assert adjacent_octets_read(short_shim_frame(b"\x12"), VULN_240) == 3
    word = int.from_bytes(b"\x12\xab\xab\xab", "big")
    assert (result.key.mpls_label, result.key.mpls_ttl) == (word >> 12, word & 0xFF)


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
    assert result.key.mpls_depth_seen == 5
    assert result.events[0].byte_count == 8
    with pytest.raises(ValueError):
        extract(frame, 0, VULN_232, b"")


def test_parser_profile_validation():
    with pytest.raises(ValueError):
        ParserProfile(ParserMode.HARDENED, label_limit=0)
