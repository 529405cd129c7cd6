import re
import struct

import pytest

from shimguard.packet import EthernetHeader, Ipv4Header, MplsLse, RawFrame, encode_frame
from shimguard.pcap import BadMagic, TruncatedRecord, UnsupportedFormat, global_header, read_pcap, write_pcap

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


@pytest.mark.parametrize(
    "bad, message",
    [
        (RawFrame(bytes(65536), 65536), "frame 1: capture_len 65536 > snaplen 65535"),
        (RawFrame(bytes(8), 4), "frame 1: orig_len 4 < capture_len 8"),
    ],
    ids=["over-snaplen", "orig-len-short"],
)
def test_write_rejects_record_read_would_refuse(tmp_path, bad, message):
    """write_pcap stops at the first record read_pcap would reject; a snaplen-long one before it reads back."""
    path = tmp_path / "bad.pcap"
    good = RawFrame.of(bytes(65535))
    with pytest.raises(ValueError, match=re.escape(message)):
        write_pcap(path, [good, bad, good])
    assert read_pcap(path) == [good]


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pcap(tmp_path / "nope.pcap")
