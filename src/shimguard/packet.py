"""Byte-exact header types and frame assembly for the switch pipeline.

Ethernet, MPLS label-stack entries and IPv4 are modeled exactly as deep as the
flow extractor needs them: bit layout, lengths, and the well-formedness rules
the parser keys on. Checksums and fragment fields are carried as opaque values
and never validated; VLAN and every other unknown ethertype stay unparsed.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence, TypeVar

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_MPLS_UNICAST = 0x8847
ETHERTYPE_MPLS_MULTICAST = 0x8848
MPLS_ETHERTYPES = frozenset((ETHERTYPE_MPLS_UNICAST, ETHERTYPE_MPLS_MULTICAST))

ETHERNET_HEADER_LEN = 14
LSE_LEN = 4
IPV4_MIN_HEADER_LEN = 20

IPPROTO_TCP = 6
IPPROTO_UDP = 17

_IPV4_BASE = struct.Struct(">BBHHHBBHII")
_LSE_WORD = struct.Struct(">I")
# Maps an LSE's third octet to 1 when its least significant bit (the
# bottom-of-stack flag) is set; lets bytes.translate()/find() locate the
# stack bottom at C speed.
_S_FLAG_TABLE = bytes((b & 1) for b in range(256))
# Positional NamedTuple construction: skips the generated __new__'s Python frame.
_tuple_new = tuple.__new__


class InconsistentLayering(ValueError):
    """Frame layers contradict the declared ethertype."""


class TextEnum(Enum):
    """An enum whose members print as their value, the name files and flags use."""

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with ==; Enum's own __hash__ runs in Python on every hash
    # of a member, a FlowKey or a dict key.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


_E = TypeVar("_E", bound=Enum)


def enum_by_value(enum: type[_E], name: str, what: str) -> _E:
    """The member of a string-valued enum whose value is ``name``, ignoring case.

    ``what`` names the enum in the ValueError raised when no member matches.
    """
    for member in enum:
        if member.value.lower() == name.lower():
            return member
    raise ValueError(f"unknown {what} {name!r}")


class ParseStatus(TextEnum):
    """How far flow extraction got before it stopped."""

    COMPLETE = "Complete"
    L2_ONLY = "L2Only"
    MPLS_TERMINATED = "MplsTerminated"
    MALFORMED = "Malformed"


def parse_status(name: str) -> ParseStatus:
    """Look up a ParseStatus by its wire/rule-file name (case-insensitive)."""
    return enum_by_value(ParseStatus, name, "parse status")


class MplsLse(NamedTuple):
    """One 32-bit label stack entry.

    Big-endian layout: 20-bit label, 3-bit exp, 1-bit bottom-of-stack flag,
    8-bit TTL. The S flag sits at bit 8 of the 32-bit word (bit 23 counting
    from the MSB), i.e. the least significant bit of the entry's third octet.
    """

    label: int
    exp: int = 0
    bottom_of_stack: bool = False
    ttl: int = 64

    def encode(self) -> bytes:
        if not 0 <= self.label <= 0xFFFFF:
            raise ValueError(f"label {self.label:#x} exceeds 20 bits")
        if not 0 <= self.exp <= 0x7:
            raise ValueError(f"exp {self.exp} exceeds 3 bits")
        if not 0 <= self.ttl <= 0xFF:
            raise ValueError(f"ttl {self.ttl} exceeds 8 bits")
        word = (self.label << 12) | (self.exp << 9) | (int(bool(self.bottom_of_stack)) << 8) | self.ttl
        return word.to_bytes(4, "big")


def decode_lse(raw: bytes) -> MplsLse:
    """Decode exactly four octets into a label stack entry.

    Every 4-octet input decodes; any other length raises ValueError.
    """
    if len(raw) != LSE_LEN:
        raise ValueError(f"LSE must be exactly {LSE_LEN} octets, got {len(raw)}")
    return MplsLse(*_lse_fields(raw, 0))


def _lse_fields(buf, offset=ETHERNET_HEADER_LEN):
    """An entry's four fields (label, exp, S flag, TTL) from ``offset``, the top entry's by default."""
    (word,) = _LSE_WORD.unpack_from(buf, offset)
    return word >> 12, (word >> 9) & 0x7, word & 0x100 != 0, word & 0xFF


class RawFrame(NamedTuple):
    """An immutable captured (or crafted) frame.

    ``capture_len`` is always ``len(data)``; ``orig_len`` records the on-wire
    length, which may exceed what was captured but never undercuts it.
    """

    data: bytes
    orig_len: int
    ts_sec: int = 0
    ts_usec: int = 0

    @property
    def capture_len(self) -> int:
        return len(self.data)

    @classmethod
    def of(cls, data: bytes, orig_len: int | None = None, ts_sec: int = 0, ts_usec: int = 0) -> "RawFrame":
        data = bytes(data)
        if orig_len is None:
            orig_len = len(data)
        elif orig_len < len(data):
            raise ValueError(f"orig_len {orig_len} < capture_len {len(data)}")
        return _tuple_new(cls, (data, orig_len, ts_sec, ts_usec))


# The header dataclasses below are frozen, but their __init__ is written out:
# it checks the arguments directly and stores the instance's attribute dict
# in one step, where the generated one pays a frozen __setattr__ per field
# and __post_init__ reads every field back.
_set_attribute = object.__setattr__


@dataclass(frozen=True, init=False)
class EthernetHeader:
    """Destination MAC, source MAC, ethertype: always 14 octets on the wire."""

    dst_mac: bytes
    src_mac: bytes
    ethertype: int

    def __init__(self, dst_mac: bytes, src_mac: bytes, ethertype: int) -> None:
        if len(dst_mac) != 6 or len(src_mac) != 6:
            raise ValueError("MAC addresses must be 6 octets")
        if not 0 <= ethertype <= 0xFFFF:
            raise ValueError(f"ethertype {ethertype:#x} exceeds 16 bits")
        _set_attribute(self, "__dict__", {"dst_mac": dst_mac, "src_mac": src_mac, "ethertype": ethertype})

    def encode(self) -> bytes:
        return self.dst_mac + self.src_mac + self.ethertype.to_bytes(2, "big")


@dataclass(frozen=True, init=False)
class Ipv4Header:
    """IPv4 header carried field-for-field.

    Checksum, identification and fragment bits ride along untouched. A header
    is well-formed iff version is 4, IHL is at least 5, and the total length
    covers at least the header itself.
    """

    total_length: int
    protocol: int
    src_ip: int
    dst_ip: int
    version: int
    ihl: int
    tos: int
    identification: int
    flags_fragment: int
    ttl: int
    checksum: int
    options: bytes

    def __init__(self, total_length: int, protocol: int, src_ip: int, dst_ip: int, version: int = 4, ihl: int = 5,
                 tos: int = 0, identification: int = 0, flags_fragment: int = 0, ttl: int = 64, checksum: int = 0,
                 options: bytes = b"") -> None:
        if not 0 <= version <= 0xF or not 0 <= ihl <= 0xF:
            raise ValueError("version/ihl exceed 4 bits")
        if not 0 <= total_length <= 0xFFFF:
            raise ValueError("total_length exceeds 16 bits")
        if not 0 <= identification <= 0xFFFF:
            raise ValueError("identification exceeds 16 bits")
        if not 0 <= flags_fragment <= 0xFFFF:
            raise ValueError("flags_fragment exceeds 16 bits")
        if not 0 <= checksum <= 0xFFFF:
            raise ValueError("checksum exceeds 16 bits")
        if not 0 <= tos <= 0xFF:
            raise ValueError("tos exceeds 8 bits")
        if not 0 <= ttl <= 0xFF:
            raise ValueError("ttl exceeds 8 bits")
        if not 0 <= protocol <= 0xFF:
            raise ValueError("protocol exceeds 8 bits")
        if not 0 <= src_ip <= 0xFFFFFFFF:
            raise ValueError("src_ip exceeds 32 bits")
        if not 0 <= dst_ip <= 0xFFFFFFFF:
            raise ValueError("dst_ip exceeds 32 bits")
        if ihl >= 5 and len(options) != (ihl - 5) * 4:
            raise ValueError(f"ihl={ihl} requires {(ihl - 5) * 4} option octets")
        _set_attribute(self, "__dict__", {
            "total_length": total_length, "protocol": protocol, "src_ip": src_ip, "dst_ip": dst_ip,
            "version": version, "ihl": ihl, "tos": tos, "identification": identification,
            "flags_fragment": flags_fragment, "ttl": ttl, "checksum": checksum, "options": options,
        })

    def encode(self) -> bytes:
        return _IPV4_BASE.pack(
            (self.version << 4) | self.ihl,
            self.tos,
            self.total_length,
            self.identification,
            self.flags_fragment,
            self.ttl,
            self.protocol,
            self.checksum,
            self.src_ip,
            self.dst_ip,
        ) + self.options


class FlowKey(NamedTuple):
    """Canonical extracted header fields driving table lookup.

    Optional fields stay None beyond whatever layer parsing reached. The
    fields from mpls_label to mpls_ttl are the top label stack entry's, in
    MplsLse order, all None when no entry was recorded.
    """

    in_port: int
    eth_src: bytes | None = None
    eth_dst: bytes | None = None
    ethertype: int | None = None
    mpls_label: int | None = None
    mpls_exp: int | None = None
    mpls_s: bool | None = None
    mpls_ttl: int | None = None
    mpls_depth_seen: int = 0
    ip_src: int | None = None
    ip_dst: int | None = None
    ip_proto: int | None = None
    ip_tos: int | None = None
    ip_ttl: int | None = None
    l4_src: int | None = None
    l4_dst: int | None = None
    parse_status: ParseStatus = ParseStatus.MALFORMED

    def describe(self) -> str:
        """One-line rendering with only the populated fields."""
        parts = [f"in_port={self.in_port}"]
        if self.eth_src is not None:
            parts.append(f"eth={format_mac(self.eth_src)}>{format_mac(self.eth_dst)}")
        if self.ethertype is not None:
            parts.append(f"eth_type=0x{self.ethertype:04x}")
        if self.mpls_label is not None:
            parts.append(f"mpls=[label={self.mpls_label} exp={self.mpls_exp} s={self.mpls_s:d} ttl={self.mpls_ttl}]")
        if self.mpls_depth_seen:
            parts.append(f"mpls_depth={self.mpls_depth_seen}")
        if self.ip_src is not None:
            parts.append(f"ip={format_ipv4(self.ip_src)}>{format_ipv4(self.ip_dst)}")
        if self.ip_proto is not None:
            parts.append(f"proto={self.ip_proto}")
        if self.l4_src is not None:
            parts.append(f"l4={self.l4_src}>{self.l4_dst}")
        parts.append(f"status={self.parse_status}")
        return " ".join(parts)


def format_mac(mac: bytes | None) -> str:
    if mac is None:
        return "-"
    return mac.hex(":")


# ASCII only: int() alone also takes signs, "_", whitespace and non-ASCII digits.
_MAC_SYNTAX = re.compile(r"[0-9a-fA-F]{1,2}(?::[0-9a-fA-F]{1,2}){5}")
_IPV4_SYNTAX = re.compile(r"[0-9]{1,3}(?:\.[0-9]{1,3}){3}")


def parse_mac(text: str) -> bytes:
    if not _MAC_SYNTAX.fullmatch(text):
        raise ValueError(f"bad MAC {text!r}")
    return bytes(int(p, 16) for p in text.split(":"))


def format_ipv4(addr: int | None) -> str:
    if addr is None:
        return "-"
    return f"{addr >> 24 & 0xFF}.{addr >> 16 & 0xFF}.{addr >> 8 & 0xFF}.{addr & 0xFF}"


def parse_ipv4(text: str) -> int:
    if not _IPV4_SYNTAX.fullmatch(text) or max(map(int, text.split("."))) > 255:
        raise ValueError(f"bad IPv4 address {text!r}")
    return int.from_bytes(bytes(map(int, text.split("."))), "big")


def encode_frame(
    eth: EthernetHeader,
    layers: Sequence[MplsLse | Ipv4Header] = (),
    payload: bytes = b"",
) -> RawFrame:
    """Concatenate headers byte-exactly into a frame.

    Nothing is auto-inserted or padded: the caller controls the bytes. The
    only validation is that the ethertype does not contradict the first layer
    and that label stack entries are not interleaved behind other layers.
    """
    if layers:
        first = layers[0]
        if isinstance(first, MplsLse) and eth.ethertype not in MPLS_ETHERTYPES:
            raise InconsistentLayering(
                f"MPLS stack under ethertype 0x{eth.ethertype:04x}; expected 0x8847/0x8848"
            )
        if isinstance(first, Ipv4Header) and eth.ethertype != ETHERTYPE_IPV4:
            raise InconsistentLayering(
                f"IPv4 header under ethertype 0x{eth.ethertype:04x}; expected 0x0800"
            )
    chunks = [eth.encode()]
    seen_non_mpls = False
    for layer in layers:
        if not isinstance(layer, MplsLse):
            seen_non_mpls = True
        elif seen_non_mpls:
            raise InconsistentLayering("label stack entry behind a non-MPLS layer")
        chunks.append(layer.encode())
    chunks.append(payload)
    return RawFrame.of(b"".join(chunks))
