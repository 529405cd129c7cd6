"""Classic pcap container I/O, little-endian, linktype Ethernet."""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable

from .packet import RawFrame

PCAP_MAGIC = 0xA1B2C3D4
_GLOBAL = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")
VERSION_MAJOR = 2
VERSION_MINOR = 4
SNAPLEN = 65535
LINKTYPE_ETHERNET = 1
_U32_MAX = 0xFFFFFFFF  # a record's timestamps and lengths are unsigned 32-bit fields
# Positional NamedTuple construction: skips the generated __new__'s Python frame.
_tuple_new = tuple.__new__


class PcapError(Exception):
    """Base class for pcap container problems."""


class BadMagic(PcapError):
    """File does not start with the little-endian classic pcap magic."""


class TruncatedRecord(PcapError):
    """File ends mid-header or mid-record, or a record contradicts itself or exceeds SNAPLEN."""


class UnsupportedFormat(PcapError):
    """Global header names a major version other than 2 or a link type other than Ethernet."""


def global_header() -> bytes:
    return _GLOBAL.pack(PCAP_MAGIC, VERSION_MAJOR, VERSION_MINOR, 0, 0, SNAPLEN, LINKTYPE_ETHERNET)


def write_pcap(path: str | Path, frames: Iterable[RawFrame]) -> None:
    """Write frames as records; raise ValueError at the first one read_pcap would reject."""
    with open(path, "wb") as fh:
        fh.write(global_header())
        for index, (data, orig_len, ts_sec, ts_usec) in enumerate(frames):
            capture_len = len(data)
            if capture_len > SNAPLEN:
                raise ValueError(f"frame {index}: capture_len {capture_len} > snaplen {SNAPLEN}")
            if orig_len < capture_len:
                raise ValueError(f"frame {index}: orig_len {orig_len} < capture_len {capture_len}")
            try:
                record = _RECORD.pack(ts_sec, ts_usec, capture_len, orig_len)
            except struct.error:
                raise ValueError(f"frame {index}: ts_sec {ts_sec}, ts_usec {ts_usec} and orig_len {orig_len} "
                                 f"must be integers in 0..{_U32_MAX}") from None
            fh.write(record)
            fh.write(data)


def read_pcap(path: str | Path) -> list[RawFrame]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _GLOBAL.size:
        raise TruncatedRecord(f"{path}: {len(blob)} octets is shorter than a pcap global header")
    magic, major, minor, _, _, _, linktype = _GLOBAL.unpack_from(blob)
    if magic != PCAP_MAGIC:
        raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{PCAP_MAGIC:08x} little-endian")
    if major != VERSION_MAJOR or linktype != LINKTYPE_ETHERNET:
        raise UnsupportedFormat(f"{path}: version {major}.{minor}, linktype {linktype}; "
                                f"expected version {VERSION_MAJOR}.x, linktype {LINKTYPE_ETHERNET} (Ethernet)")
    frames: list[RawFrame] = []
    end = len(blob)
    offset = _GLOBAL.size
    while offset < end:
        body = offset + _RECORD.size
        if body > end:
            raise TruncatedRecord(f"{path}: record header cut short at offset {offset}")
        ts_sec, ts_usec, incl_len, orig_len = _RECORD.unpack_from(blob, offset)
        if incl_len > SNAPLEN:
            raise TruncatedRecord(f"{path}: record at offset {offset} claims incl_len {incl_len} > snaplen {SNAPLEN}")
        offset = body + incl_len
        if offset > end:
            raise TruncatedRecord(f"{path}: record body cut short at offset {body}")
        if orig_len < incl_len:
            raise TruncatedRecord(f"{path}: record claims orig_len {orig_len} < incl_len {incl_len}")
        frames.append(_tuple_new(RawFrame, (blob[body:offset], orig_len, ts_sec, ts_usec)))
    return frames
