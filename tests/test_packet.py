import dataclasses
import inspect
import random
from functools import partial

import pytest

from shimguard.attacks import AttackKind
from shimguard.bench import PathMode
from shimguard.extract import CorruptionKind, ParserMode, Verdict, VulnClass
from shimguard.packet import (
    EthernetHeader,
    FlowKey,
    InconsistentLayering,
    Ipv4Header,
    MplsLse,
    ParseStatus,
    RawFrame,
    decode_lse,
    encode_frame,
    enum_by_value,
    format_ipv4,
    format_mac,
    parse_ipv4,
    parse_mac,
    parse_status,
)
from shimguard.wormsim import WormEventKind

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


def test_ipv4_encode_layout():
    ip = Ipv4Header(
        total_length=28,
        protocol=17,
        src_ip=parse_ipv4("10.0.0.1"),
        dst_ip=parse_ipv4("10.0.0.2"),
    )
    raw = ip.encode()
    assert raw == bytes.fromhex("45000 01c 0000 0000 40 11 0000 0a000001 0a000002".replace(" ", ""))
    assert len(raw) == 4 * ip.ihl


def test_ipv4_options_length_checked():
    with pytest.raises(ValueError):
        Ipv4Header(total_length=24, protocol=6, src_ip=0, dst_ip=0, ihl=6)
    with_opts = Ipv4Header(total_length=24, protocol=6, src_ip=0, dst_ip=0, ihl=6, options=b"\x01\x02\x03\x04")
    assert len(with_opts.encode()) == 24


# Each Ipv4Header check in the order it runs: the field, an out-of-range value
# below and above, and the message. The options check comes last.
_IPV4_CHECKS = [
    ("version", "version/ihl exceed 4 bits", 16),
    ("ihl", "version/ihl exceed 4 bits", 16),
    ("total_length", "total_length exceeds 16 bits", 1 << 16),
    ("identification", "identification exceeds 16 bits", 1 << 16),
    ("flags_fragment", "flags_fragment exceeds 16 bits", 1 << 16),
    ("checksum", "checksum exceeds 16 bits", 1 << 16),
    ("tos", "tos exceeds 8 bits", 256),
    ("ttl", "ttl exceeds 8 bits", 256),
    ("protocol", "protocol exceeds 8 bits", 256),
    ("src_ip", "src_ip exceeds 32 bits", 1 << 32),
    ("dst_ip", "dst_ip exceeds 32 bits", 1 << 32),
]
_IPV4_VALID = {"total_length": 20, "protocol": 17, "src_ip": 1, "dst_ip": 2}


def test_ipv4_header_reports_first_bad_field_in_order():
    rng = random.Random(791)
    for _ in range(500):
        bad = sorted(rng.sample(range(len(_IPV4_CHECKS)), rng.randrange(1, 5)))
        fields = dict(_IPV4_VALID)
        for index in bad:
            name, _, over = _IPV4_CHECKS[index]
            fields[name] = rng.choice((-1, over, over * 3))
        if rng.random() < 0.5:
            fields["options"] = b"\x00"  # wrong for any in-range ihl >= 5; checked last
        with pytest.raises(ValueError) as exc:
            Ipv4Header(**fields)
        assert str(exc.value) == _IPV4_CHECKS[bad[0]][1], fields
    with pytest.raises(ValueError, match=r"^ihl=5 requires 0 option octets$"):
        Ipv4Header(**_IPV4_VALID, options=b"\x00")


def test_ethernet_header_reports_first_bad_field_in_order():
    for dst, src, ethertype, message in [
        (bytes(5), bytes(6), -1, "MAC addresses must be 6 octets"),
        (bytes(6), bytes(7), 1 << 16, "MAC addresses must be 6 octets"),
        (bytes(6), bytes(6), -1, "ethertype -0x1 exceeds 16 bits"),
        (bytes(6), bytes(6), 1 << 16, "ethertype 0x10000 exceeds 16 bits"),
    ]:
        with pytest.raises(ValueError) as exc:
            EthernetHeader(dst, src, ethertype)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "cls, args, text",
    [
        (EthernetHeader, (MAC_B, MAC_A, 0x0800),
         "EthernetHeader(dst_mac=b'\\x02\\x00\\x00\\x00\\x00\\x02', src_mac=b'\\x02\\x00\\x00\\x00\\x00\\x01', "
         "ethertype=2048)"),
        (Ipv4Header, (46, 17, 1, 2),
         "Ipv4Header(total_length=46, protocol=17, src_ip=1, dst_ip=2, version=4, ihl=5, tos=0, "
         "identification=0, flags_fragment=0, ttl=64, checksum=0, options=b'')"),
        (Ipv4Header, (24, 6, 3, 4, 4, 6, 1, 2, 3, 5, 7, b"\x01\x02\x03\x04"),
         "Ipv4Header(total_length=24, protocol=6, src_ip=3, dst_ip=4, version=4, ihl=6, tos=1, "
         "identification=2, flags_fragment=3, ttl=5, checksum=7, options=b'\\x01\\x02\\x03\\x04')"),
    ],
    ids=["ethernet", "ipv4-defaults", "ipv4-every-field"],
)
def test_header_types_behave_as_frozen_dataclasses(cls, args, text):
    fields = dataclasses.fields(cls)
    # The signature names the fields in field order and alone holds the defaults,
    # which the header takes for every argument not given.
    signature = inspect.signature(cls)
    assert list(signature.parameters) == [f.name for f in fields]
    assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING for f in fields)
    header = cls(*args)
    bound = signature.bind(*args)
    bound.apply_defaults()
    assert vars(header) == bound.arguments
    by_keyword = cls(**{f.name: value for f, value in zip(fields, args)})
    assert header == by_keyword and hash(header) == hash(by_keyword)
    assert repr(header) == repr(by_keyword) == text
    assert vars(header) == {f.name: getattr(header, f.name) for f in fields}
    assert dataclasses.astuple(header)[: len(args)] == args
    assert dataclasses.replace(header) == header
    assert header != dataclasses.replace(header, **{fields[2].name: getattr(header, fields[2].name) + 1})
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(header, f.name, getattr(header, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(header, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        header.extra = 1
    assert header == by_keyword


def _old_describe(key):
    """FlowKey.describe as it rendered MACs and IPv4 addresses with per-octet joins."""

    def mac(m):
        return "-" if m is None else ":".join(f"{b:02x}" for b in m)

    def ip(a):
        return "-" if a is None else ".".join(str((a >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    parts = [f"in_port={key.in_port}"]
    if key.eth_src is not None:
        parts.append(f"eth={mac(key.eth_src)}>{mac(key.eth_dst)}")
    if key.ethertype is not None:
        parts.append(f"eth_type=0x{key.ethertype:04x}")
    if key.mpls_label is not None:
        parts.append(f"mpls=[label={key.mpls_label} exp={key.mpls_exp} s={int(key.mpls_s)} ttl={key.mpls_ttl}]")
    if key.mpls_depth_seen:
        parts.append(f"mpls_depth={key.mpls_depth_seen}")
    if key.ip_src is not None:
        parts.append(f"ip={ip(key.ip_src)}>{ip(key.ip_dst)}")
    if key.ip_proto is not None:
        parts.append(f"proto={key.ip_proto}")
    if key.l4_src is not None:
        parts.append(f"l4={key.l4_src}>{key.l4_dst}")
    parts.append(f"status={key.parse_status}")
    return " ".join(parts), [mac(key.eth_src), mac(key.eth_dst), ip(key.ip_src), ip(key.ip_dst)]


def test_describe_renders_as_per_octet_joins():
    rng = random.Random(606)

    def maybe(value):
        return None if rng.random() < 0.25 else value

    edges = (0, 0xFFFFFFFF, 0x0A000001, 0x7F000001)
    for _ in range(1000):
        top = rng.choice(((None,) * 4, (rng.randrange(1 << 20), rng.randrange(8), rng.random() < 0.5, 64)))
        key = FlowKey(
            in_port=rng.randrange(1 << 32),
            eth_src=maybe(rng.randbytes(6)),
            eth_dst=maybe(rng.choice((bytes(6), b"\xff" * 6, rng.randbytes(6)))),
            ethertype=maybe(rng.randrange(1 << 16)),
            mpls_label=top[0],
            mpls_exp=top[1],
            mpls_s=top[2],
            mpls_ttl=top[3],
            mpls_depth_seen=rng.randrange(4),
            ip_src=maybe(rng.choice((rng.getrandbits(32), *edges))),
            ip_dst=maybe(rng.getrandbits(32)),
            ip_proto=maybe(rng.randrange(256)),
            l4_src=maybe(rng.randrange(1 << 16)),
            l4_dst=maybe(rng.randrange(1 << 16)),
            parse_status=rng.choice(list(ParseStatus)),
        )
        line, fields = _old_describe(key)
        assert key.describe() == line
        assert [format_mac(key.eth_src), format_mac(key.eth_dst), format_ipv4(key.ip_src), format_ipv4(key.ip_dst)] == fields


def test_rawframe_invariants():
    frame = RawFrame.of(b"\x00" * 10)
    assert frame.capture_len == 10
    assert frame.orig_len == 10
    bigger = RawFrame.of(b"\x00" * 10, orig_len=100)
    assert bigger.orig_len == 100
    with pytest.raises(ValueError):
        RawFrame.of(b"\x00" * 10, orig_len=5)


def test_rawframe_of_builds_plain_rawframes():
    for args, expected in [
        ((bytearray(b"abc"),), RawFrame(data=b"abc", orig_len=3, ts_sec=0, ts_usec=0)),
        ((b"abc", 9, 7, 5), RawFrame(data=b"abc", orig_len=9, ts_sec=7, ts_usec=5)),
        ((memoryview(b"ab"), 2), RawFrame(data=b"ab", orig_len=2)),
    ]:
        frame = RawFrame.of(*args)
        assert type(frame) is RawFrame and type(frame.data) is bytes
        assert frame == expected and hash(frame) == hash(expected) and repr(frame) == repr(expected)
    with pytest.raises(ValueError, match=r"^orig_len 2 < capture_len 3$"):
        RawFrame.of(b"abc", 2)


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
        # How fuzz --profiles reads each comma-separated name.
        pytest.param(
            partial(enum_by_value, ParserMode, what="parser profile"), ParserMode, "parser profile",
            id="enum_by_value-ParserMode-parser profile",
        ),
    ],
)
def test_enum_lookup_by_value(lookup, enum, what):
    for member in enum:
        for name in (member.value, member.value.upper(), member.value.lower()):
            assert lookup(name) is member
    with pytest.raises(ValueError) as exc:
        lookup("Bogus")
    assert str(exc.value) == f"unknown {what} 'Bogus'"


@pytest.mark.parametrize(
    "enum",
    [ParseStatus, ParserMode, CorruptionKind, Verdict, VulnClass, AttackKind, PathMode, WormEventKind],
)
def test_enum_prints_as_its_value(enum):
    for member in enum:
        assert str(member) == f"{member}" == member.value
