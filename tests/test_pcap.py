import random
import re
import struct

import pytest

from shimguard.packet import EthernetHeader, Ipv4Header, MplsLse, RawFrame, encode_frame
from shimguard.pcap import (
    SNAPLEN,
    BadMagic,
    PcapError,
    TruncatedRecord,
    UnsupportedFormat,
    global_header,
    read_pcap,
    write_pcap,
)

MAC_A = bytes.fromhex("020000000001")
MAC_B = bytes.fromhex("020000000002")


def _crafted_corpus():
    eth_mpls = EthernetHeader(MAC_B, MAC_A, 0x8847)
    eth_ip = EthernetHeader(MAC_B, MAC_A, 0x0800)
    long_shim = encode_frame(eth_mpls, [MplsLse(0)] * 375)
    udp = encode_frame(
        eth_ip,
        [Ipv4Header(total_length=28, protocol=17, src_ip=0x0A000001, dst_ip=0x0A000002)],
        payload=struct.pack(">HHHH", 53, 1024, 8, 0),
    )
    short = RawFrame.of(eth_mpls.encode() + b"\x12\x34")
    timestamped = RawFrame(udp.data, udp.orig_len + 4, ts_sec=1_600_000_000, ts_usec=123456)
    return [long_shim, udp, short, timestamped]


def test_global_header_bit_exact():
    # magic little-endian on disk, v2.4, zone 0, sigfigs 0, snaplen 65535, linktype 1
    assert global_header() == bytes.fromhex("d4c3b2a1" "0200" "0400" "00000000" "00000000" "ffff0000" "01000000")


def test_empty_file_is_24_octets(tmp_path):
    path = tmp_path / "empty.pcap"
    write_pcap(path, [])
    assert path.stat().st_size == 24
    assert read_pcap(path) == []


def test_single_60_octet_frame_is_100_octets(tmp_path):
    path = tmp_path / "one.pcap"
    write_pcap(path, [RawFrame.of(b"\xab" * 60)])
    assert path.stat().st_size == 24 + 16 + 60


def test_roundtrip_crafted_corpus(tmp_path):
    path = tmp_path / "corpus.pcap"
    corpus = _crafted_corpus()
    write_pcap(path, corpus)
    back = read_pcap(path)
    assert back == corpus  # NamedTuple equality covers every field
    assert [type(f) for f in back] == [RawFrame] * len(corpus)
    assert back == [RawFrame(data=f.data, orig_len=f.orig_len, ts_sec=f.ts_sec, ts_usec=f.ts_usec) for f in corpus]
    # writing what was read reproduces the file bit-exactly
    path2 = tmp_path / "again.pcap"
    write_pcap(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        read_pcap(path)


@pytest.mark.parametrize(
    "major, minor, linktype, message",
    [(2, 4, 101, "version 2.4, linktype 101;"), (9, 9, 1, "version 9.9, linktype 1;")],
    ids=["raw-ipv4-linktype", "version-9.9"],
)
def test_unsupported_global_header(tmp_path, major, minor, linktype, message):
    path = tmp_path / "other.pcap"
    write_pcap(path, [RawFrame.of(b"\x45" + bytes(27))])
    blob = bytearray(path.read_bytes())
    struct.pack_into("<HH", blob, 4, major, minor)
    struct.pack_into("<I", blob, 20, linktype)
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedFormat, match=re.escape(message)):
        read_pcap(path)


def test_truncated_global_header(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(global_header()[:10])
    with pytest.raises(TruncatedRecord):
        read_pcap(path)


def test_truncated_record_header(tmp_path):
    path = tmp_path / "cut.pcap"
    write_pcap(path, [RawFrame.of(b"\x01" * 20)])
    blob = path.read_bytes()
    path.write_bytes(blob[: 24 + 8])
    with pytest.raises(TruncatedRecord):
        read_pcap(path)


def test_truncated_record_body(tmp_path):
    path = tmp_path / "cutbody.pcap"
    write_pcap(path, [RawFrame.of(b"\x01" * 20)])
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TruncatedRecord):
        read_pcap(path)


def test_record_orig_len_contradiction(tmp_path):
    path = tmp_path / "lying.pcap"
    record = struct.pack("<IIII", 0, 0, 8, 4) + b"\x00" * 8
    path.write_bytes(global_header() + record)
    with pytest.raises(TruncatedRecord):
        read_pcap(path)


def test_record_over_snaplen_rejected(tmp_path):
    """A forged incl_len past SNAPLEN is refused even when the file holds that many octets."""
    path = tmp_path / "huge.pcap"
    record = struct.pack("<IIII", 0, 0, 65536, 65536) + bytes(65536)
    path.write_bytes(global_header() + record)
    with pytest.raises(TruncatedRecord, match="incl_len 65536 > snaplen 65535"):
        read_pcap(path)


def test_record_over_snaplen_names_its_header_offset(tmp_path):
    """The error names the octet where the bad record's header starts, first record or later."""
    bad = struct.pack("<IIII", 0, 0, 65536, 65536) + bytes(65536)
    good = struct.pack("<IIII", 0, 0, 20, 20) + bytes(20)
    for records, offset in (([bad, good], 24), ([good, bad], 24 + 16 + 20)):
        path = tmp_path / f"huge-{offset}.pcap"
        path.write_bytes(global_header() + b"".join(records))
        with pytest.raises(TruncatedRecord, match=f"record at offset {offset} claims incl_len 65536 > snaplen 65535$"):
            read_pcap(path)


@pytest.mark.parametrize(
    "bad, message",
    [
        (RawFrame(bytes(65536), 65536), "frame 1: capture_len 65536 > snaplen 65535"),
        (RawFrame(bytes(8), 4), "frame 1: orig_len 4 < capture_len 8"),
        (RawFrame(bytes(60), 60, -1, 0),
         "frame 1: ts_sec -1, ts_usec 0 and orig_len 60 must be integers in 0..4294967295"),
        (RawFrame(bytes(60), 60, 2**32, 0),
         "frame 1: ts_sec 4294967296, ts_usec 0 and orig_len 60 must be integers in 0..4294967295"),
        (RawFrame(bytes(60), 60, 0, -1),
         "frame 1: ts_sec 0, ts_usec -1 and orig_len 60 must be integers in 0..4294967295"),
        (RawFrame(bytes(60), 2**32, 0, 0),
         "frame 1: ts_sec 0, ts_usec 0 and orig_len 4294967296 must be integers in 0..4294967295"),
    ],
    ids=["over-snaplen", "orig-len-short", "ts-sec-negative", "ts-sec-over-32-bits", "ts-usec-negative",
         "orig-len-over-32-bits"],
)
def test_write_rejects_record_read_would_refuse(tmp_path, bad, message):
    """write_pcap stops at the first record read_pcap would reject; a snaplen-long one before it reads back."""
    path = tmp_path / "bad.pcap"
    good = RawFrame.of(bytes(65535), ts_sec=2**32 - 1, ts_usec=2**32 - 1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_pcap(path, [good, bad, good])
    assert read_pcap(path) == [good]


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pcap(tmp_path / "nope.pcap")


# Big-endian, nanosecond little-endian and nanosecond big-endian magic.
_FOREIGN_MAGICS = (bytes.fromhex("a1b2c3d4"), bytes.fromhex("4d3cb2a1"), bytes.fromhex("a1b23c4d"))


def _pcap_mutant(rng, base, records):
    """``base`` after 1-3 of: a truncation, a foreign magic, a forged record length, a tail, a bit flip."""
    headers = list(range(24)) + [at + i for at in records for i in range(16)]
    data = bytearray(base)
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(6)
        if op == 0:
            del data[rng.randrange(len(data) + 1):]
        elif op == 1:
            data[:4] = rng.choice(_FOREIGN_MAGICS)
        elif op == 2:  # a record's incl_len, and half the time its orig_len too
            at = rng.choice(records)
            length = struct.pack("<I", rng.choice((0, 65535, 65536, 2**32 - 1)))
            data[at + 8 : at + 12] = length
            if rng.random() < 0.5:
                data[at + 12 : at + 16] = length
        elif op == 3:
            data += b"\xff" * rng.choice((1, 15, 65536))
        elif data:  # a bit flip, half the time in a header
            at = rng.choice(headers) if op == 4 else rng.randrange(len(data))
            if at < len(data):
                data[at] ^= 1 << rng.randrange(8)
    return data


def test_read_pcap_soak_raises_only_pcap_errors(tmp_path):
    """Mutants of a multi-record capture either read back as valid records or raise PcapError."""
    path = tmp_path / "soak.pcap"
    write_pcap(path, _crafted_corpus() + [RawFrame.of(b"")])
    base = path.read_bytes()
    records = [24]
    while records[-1] < len(base):
        records.append(records[-1] + 16 + struct.unpack_from("<I", base, records[-1] + 8)[0])
    records.pop()
    rng = random.Random(2000)
    read = 0
    # One handle rewrites every mutant: opening the file costs more than reading it.
    with open(path, "r+b") as fh:
        for _ in range(2000):
            fh.seek(0)
            fh.write(_pcap_mutant(rng, base, records))
            fh.truncate()
            fh.flush()
            try:
                frames = read_pcap(path)
            except PcapError:
                continue
            read += 1
            assert all(len(f.data) <= SNAPLEN and f.orig_len >= len(f.data) for f in frames)
    assert 100 < read < 1500
