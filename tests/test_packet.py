import random

import pytest

from shimguard.attacks import AttackKind, attack_kind
from shimguard.bench import PathMode, path_mode
from shimguard.extract import ParserMode, parser_mode
from shimguard.packet import (
    EthernetHeader,
    InconsistentLayering,
    Ipv4Header,
    MplsLse,
    ParseStatus,
    RawFrame,
    decode_lse,
    encode_frame,
    format_ipv4,
    format_mac,
    parse_ipv4,
    parse_mac,
    parse_status,
)

MAC_A = bytes.fromhex("020000000001")
MAC_B = bytes.fromhex("020000000002")


def test_decode_lse_s_bit_set():
    # 0x00001140: label spans bits 31..12, exp 11..9, S at bit 8, ttl 7..0.
    lse = decode_lse((0x00001140).to_bytes(4, "big"))
    assert lse.label == 0x00001
    assert lse.exp == 0
    assert lse.bottom_of_stack is True
    assert lse.ttl == 0x40


def test_decode_lse_s_bit_clear():
    lse = decode_lse((0x00001040).to_bytes(4, "big"))
    assert lse.label == 0x00001
    assert lse.exp == 0
    assert lse.bottom_of_stack is False
    assert lse.ttl == 0x40


def test_decode_lse_length_enforced():
    with pytest.raises(ValueError):
        decode_lse(b"\x00\x00\x00")


def test_lse_roundtrip_corner_patterns():
    # All 2^4 combinations of each field at its low/high extreme.
    for label in (0, 0xFFFFF):
        for exp in (0, 7):
            for s in (False, True):
                for ttl in (0, 255):
                    lse = MplsLse(label, exp, s, ttl)
                    raw = lse.encode()
                    assert len(raw) == 4
                    assert decode_lse(raw) == lse


def test_lse_roundtrip_random_sample():
    rng = random.Random(0x5EED)
    for _ in range(100_000):
        raw = rng.randbytes(4)
        assert decode_lse(raw).encode() == raw


def test_lse_encode_rejects_out_of_width():
    with pytest.raises(ValueError):
        MplsLse(1 << 20).encode()
    with pytest.raises(ValueError):
        MplsLse(0, exp=8).encode()
    with pytest.raises(ValueError):
        MplsLse(0, ttl=256).encode()


def test_encode_frame_ipv4_34_octets():
    eth = EthernetHeader(MAC_B, MAC_A, 0x0800)
    ip = Ipv4Header(total_length=20, protocol=17, src_ip=0x0A000001, dst_ip=0x0A000002)
    frame = encode_frame(eth, [ip])
    assert frame.capture_len == 34  # 14 + 20
    assert frame.orig_len == 34


def test_encode_frame_single_lse_18_octets():
    eth = EthernetHeader(MAC_B, MAC_A, 0x8847)
    frame = encode_frame(eth, [MplsLse(7, bottom_of_stack=True)])
    assert frame.capture_len == 18  # 14 + 4


def test_encode_frame_375_lses_1514_octets():
    eth = EthernetHeader(MAC_B, MAC_A, 0x8847)
    frame = encode_frame(eth, [MplsLse(0)] * 375)
    assert frame.capture_len == 1514  # 14 + 375*4


def test_encode_frame_length_formula():
    rng = random.Random(7)
    eth = EthernetHeader(MAC_B, MAC_A, 0x8847)
    for _ in range(50):
        n = rng.randrange(0, 12)
        payload = rng.randbytes(rng.randrange(0, 64))
        layers = [MplsLse(rng.randrange(1 << 20)) for _ in range(n)]
        frame = encode_frame(eth, layers, payload)
        assert frame.capture_len == 14 + 4 * n + len(payload)


def test_encode_frame_inconsistent_layering():
    with pytest.raises(InconsistentLayering):
        encode_frame(EthernetHeader(MAC_B, MAC_A, 0x0800), [MplsLse(1)])
    with pytest.raises(InconsistentLayering):
        encode_frame(
            EthernetHeader(MAC_B, MAC_A, 0x8847),
            [Ipv4Header(total_length=20, protocol=6, src_ip=0, dst_ip=0)],
        )
    ip = Ipv4Header(total_length=20, protocol=6, src_ip=0, dst_ip=0)
    with pytest.raises(InconsistentLayering):
        encode_frame(EthernetHeader(MAC_B, MAC_A, 0x0800), [ip, MplsLse(1)])


def test_ipv4_well_formed_predicate():
    good = Ipv4Header(total_length=20, protocol=17, src_ip=1, dst_ip=2)
    assert good.well_formed
    assert not Ipv4Header(total_length=0, protocol=17, src_ip=1, dst_ip=2).well_formed
    assert not Ipv4Header(total_length=19, protocol=17, src_ip=1, dst_ip=2).well_formed
    assert not Ipv4Header(total_length=20, protocol=17, src_ip=1, dst_ip=2, version=6).well_formed
    assert not Ipv4Header(total_length=20, protocol=17, src_ip=1, dst_ip=2, ihl=4).well_formed


def test_ipv4_encode_layout():
    ip = Ipv4Header(
        total_length=28,
        protocol=17,
        src_ip=parse_ipv4("10.0.0.1"),
        dst_ip=parse_ipv4("10.0.0.2"),
    )
    raw = ip.encode()
    assert raw == bytes.fromhex("45000 01c 0000 0000 40 11 0000 0a000001 0a000002".replace(" ", ""))
    assert len(raw) == ip.header_len


def test_ipv4_options_length_checked():
    with pytest.raises(ValueError):
        Ipv4Header(total_length=24, protocol=6, src_ip=0, dst_ip=0, ihl=6)
    with_opts = Ipv4Header(total_length=24, protocol=6, src_ip=0, dst_ip=0, ihl=6, options=b"\x01\x02\x03\x04")
    assert len(with_opts.encode()) == 24


def test_rawframe_invariants():
    frame = RawFrame.of(b"\x00" * 10)
    assert frame.capture_len == 10
    assert frame.orig_len == 10
    bigger = RawFrame.of(b"\x00" * 10, orig_len=100)
    assert bigger.orig_len == 100
    with pytest.raises(ValueError):
        RawFrame.of(b"\x00" * 10, orig_len=5)


def test_mac_ip_text_helpers():
    assert format_mac(MAC_A) == "02:00:00:00:00:01"
    assert parse_mac("02:00:00:00:00:01") == MAC_A
    assert format_ipv4(parse_ipv4("192.168.1.10")) == "192.168.1.10"
    with pytest.raises(ValueError):
        parse_mac("02:00:00")
    with pytest.raises(ValueError):
        parse_ipv4("300.1.1.1")


@pytest.mark.parametrize(
    "lookup, enum, what",
    [
        (parse_status, ParseStatus, "parse status"),
        (parser_mode, ParserMode, "parser profile"),
        (attack_kind, AttackKind, "attack kind"),
        (path_mode, PathMode, "bench mode"),
    ],
)
def test_enum_lookup_by_value(lookup, enum, what):
    for member in enum:
        for name in (member.value, member.value.upper(), member.value.lower()):
            assert lookup(name) is member
    with pytest.raises(ValueError) as exc:
        lookup("Bogus")
    assert str(exc.value) == f"unknown {what} 'Bogus'"
