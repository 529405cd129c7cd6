"""Flow extraction: one hardened parser and three modeled-vulnerable ones.

The hardened profile parses Ethernet, walks MPLS label stacks bounds-checked,
and accepts IPv4 only when the header is well-formed and fits the frame. The
vulnerable profiles reproduce the trigger conditions of three historical
parser defects inside a simulated memory model: instead of corrupting memory
they emit a CorruptionEvent describing exactly how many octets would have been
written past the label buffer or read past the packet, while still returning
the defective flow key the buggy daemon would have acted on.

All profiles share one walk; they differ only at their trigger condition, so
on frames that trigger nothing every profile produces an identical FlowKey.
That property is what makes differential fuzzing against the hardened parser
meaningful.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .packet import (
    ETHERNET_HEADER_LEN,
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPV4_MIN_HEADER_LEN,
    MPLS_ETHERTYPES,
    FlowKey,
    ParseStatus,
    RawFrame,
    decode_lse,
    enum_by_value,
)

DEFAULT_LABEL_LIMIT = 3
DEFAULT_ADJACENT_LEN = 64

# Maps an LSE's third octet to 1 when its least significant bit (the
# bottom-of-stack flag) is set; lets bytes.translate()/find() locate the
# stack bottom at C speed.
_S_FLAG_TABLE = bytes((b & 1) for b in range(256))

_ETHERNET = struct.Struct(">6s6sH")  # eth_dst, eth_src, ethertype
# version/IHL, TOS, total length, TTL, protocol, source, destination; the
# identification, fragment and checksum fields are skipped.
_IPV4_FIELDS = struct.Struct(">BBH4xBB2xII")
_PORTS = struct.Struct(">HH")
_NO_IP = (None,) * 7
_tuple_new = tuple.__new__
# Shared by every zero-filled MemoryModel; bytes are immutable.
_ZERO_REGION = bytes(DEFAULT_ADJACENT_LEN)


class EmptyFrameError(ValueError):
    """extract() was handed a zero-length frame."""


class ParserMode(Enum):
    HARDENED = "hardened"
    VULN_232 = "v232"
    VULN_240 = "v240"
    VULN_250 = "v250"

    def __str__(self) -> str:
        return self.value


def parser_mode(name: str) -> ParserMode:
    return enum_by_value(ParserMode, name, "parser profile")


@dataclass(frozen=True)
class ParserProfile:
    """Which parser personality to run, and its label buffer capacity."""

    mode: ParserMode
    label_limit: int = DEFAULT_LABEL_LIMIT

    def __post_init__(self) -> None:
        if self.label_limit < 1:
            raise ValueError(f"label_limit must be >= 1, got {self.label_limit}")


HARDENED = ParserProfile(ParserMode.HARDENED)
VULN_232 = ParserProfile(ParserMode.VULN_232)
VULN_240 = ParserProfile(ParserMode.VULN_240)
VULN_250 = ParserProfile(ParserMode.VULN_250)
ALL_PROFILES = (HARDENED, VULN_232, VULN_240, VULN_250)


class MemoryModel:
    """Simulated parse buffers plus read/write accounting.

    ``stack_written_slots`` counts label-buffer slots the walk stored;
    exceeding ``stack_capacity_slots`` is representable and accounted in
    ``overflow_bytes_written``. ``adjacent_region`` stands in for whatever
    bytes lie past the logical end of the packet; reads from it are counted
    in ``adjacent_bytes_read``. A hardened extraction leaves both counters
    at exactly zero.
    """

    __slots__ = (
        "stack_capacity_slots",
        "stack_written_slots",
        "adjacent_region",
        "adjacent_bytes_read",
        "overflow_bytes_written",
    )

    def __init__(self, stack_capacity_slots: int, adjacent_region: bytes | None = None) -> None:
        if adjacent_region is None:
            adjacent_region = _ZERO_REGION
        if not adjacent_region:
            raise ValueError("adjacent_region must be non-empty")
        self.stack_capacity_slots = stack_capacity_slots
        self.stack_written_slots = 0
        self.adjacent_region = adjacent_region
        self.adjacent_bytes_read = 0
        self.overflow_bytes_written = 0

    @classmethod
    def zeros(cls, capacity: int, size: int = DEFAULT_ADJACENT_LEN) -> "MemoryModel":
        return cls(capacity, _ZERO_REGION if size == DEFAULT_ADJACENT_LEN else bytes(size))

    @classmethod
    def seeded(cls, capacity: int, seed: int, size: int = DEFAULT_ADJACENT_LEN) -> "MemoryModel":
        return cls(capacity, random.Random(seed).randbytes(size))

    def record_stack_writes(self, slots: int) -> None:
        self.stack_written_slots += slots
        over = self.stack_written_slots - self.stack_capacity_slots
        if over > 0:
            self.overflow_bytes_written = 4 * over

    def read_adjacent(self, count: int) -> bytes:
        region = self.adjacent_region
        if count > len(region):
            region = region * (count // len(region) + 1)
        self.adjacent_bytes_read += count
        return region[:count]


class CorruptionKind(Enum):
    STACK_OVERFLOW_WRITE = "StackOverflowWrite"
    SHORT_LSE_OVERFLOW = "ShortLseOverflow"
    HEAP_OVERREAD = "HeapOverread"

    def __str__(self) -> str:
        return self.value


class CorruptionEvent(NamedTuple):
    """One simulated memory-safety violation.

    ``offset`` is where the access began, in octets past the end of the valid
    region (label buffer, frame, or claimed datagram); ``byte_count`` is how
    many octets the access covered.
    """

    kind: CorruptionKind
    offset: int
    byte_count: int
    profile: ParserProfile

    def describe(self) -> str:
        return f"{self.kind}(offset={self.offset},byte_count={self.byte_count})"


class Verdict(Enum):
    ACCEPT = "Accept"
    DROP = "Drop"

    def __str__(self) -> str:
        return self.value


class ExtractionResult(NamedTuple):
    key: FlowKey
    events: tuple[CorruptionEvent, ...]
    verdict: Verdict
    memory: MemoryModel


class VulnClass(Enum):
    LONG_STACK_232 = "LongStack-2.3.2"
    SHORT_LSE_240 = "ShortLse-2.4.0"
    IP_UNDERFLOW_250 = "IpUnderflow-2.5.0"
    BENIGN = "Benign"

    def __str__(self) -> str:
        return self.value


_KIND_TO_CLASS = {
    CorruptionKind.STACK_OVERFLOW_WRITE: VulnClass.LONG_STACK_232,
    CorruptionKind.SHORT_LSE_OVERFLOW: VulnClass.SHORT_LSE_240,
    CorruptionKind.HEAP_OVERREAD: VulnClass.IP_UNDERFLOW_250,
}


def classify_events(events: Iterable[CorruptionEvent]) -> VulnClass:
    """Map the events of a single extraction onto a vulnerability class."""
    for event in events:
        return _KIND_TO_CLASS[event.kind]
    return VulnClass.BENIGN


def _key(in_port, eth_src, eth_dst, ethertype, status, labels=(), depth=0, ip=_NO_IP) -> FlowKey:
    """Build a FlowKey positionally; the keyword constructor costs about 4x as much.

    ``ip`` is (ip_src, ip_dst, ip_proto, ip_tos, ip_ttl, l4_src, l4_dst).
    """
    return _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, labels, depth, None, *ip, status))


def extract(
    frame: RawFrame,
    in_port: int,
    profile: ParserProfile,
    memory: MemoryModel | None = None,
) -> ExtractionResult:
    """Run the flow-extraction stage of the pipeline for one frame.

    Malformation is expressed through parse_status and the verdict, never as
    an exception; only a zero-length frame raises. A fresh zero-filled
    MemoryModel is created per call unless the caller supplies one (e.g. a
    seeded adjacent region to make overread blending observable).
    """
    data = frame.data
    if not data:
        raise EmptyFrameError("cannot extract from an empty frame")
    if memory is None:
        memory = MemoryModel.zeros(profile.label_limit)

    if len(data) < ETHERNET_HEADER_LEN:
        return ExtractionResult(_key(in_port, None, None, None, ParseStatus.MALFORMED), (), Verdict.DROP, memory)

    eth_dst, eth_src, ethertype = _ETHERNET.unpack_from(data)

    if ethertype in MPLS_ETHERTYPES:
        return _extract_mpls(data, in_port, eth_src, eth_dst, ethertype, profile, memory)
    if ethertype == ETHERTYPE_IPV4:
        return _extract_ipv4(data, in_port, eth_src, eth_dst, ethertype, profile, memory)

    key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.L2_ONLY)
    return ExtractionResult(key, (), Verdict.ACCEPT, memory)


def _extract_mpls(data, in_port, eth_src, eth_dst, ethertype, profile, memory):
    limit = profile.label_limit
    stack = data[ETHERNET_HEADER_LEN:]
    n_complete = len(stack) // 4
    body = stack[: n_complete * 4]
    frag_len = len(stack) - n_complete * 4

    # Index of the first entry with the bottom-of-stack flag, -1 when absent.
    s_idx = body[2::4].translate(_S_FLAG_TABLE).find(1) if n_complete else -1
    terminated = s_idx >= 0
    walked = s_idx + 1 if terminated else n_complete

    if terminated:
        # Same result for every profile: record the top entry, count depth up
        # to the buffer capacity, never parse beneath the stack.
        depth = walked if walked <= limit else limit
        memory.record_stack_writes(depth)
        key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.MPLS_TERMINATED, (decode_lse(body[:4]),), depth)
        return ExtractionResult(key, (), Verdict.ACCEPT, memory)

    if profile.mode is ParserMode.VULN_232 and n_complete > limit:
        # Unbounded copy loop: with no stack bottom in sight, every entry in
        # the frame lands in the fixed-capacity buffer.
        memory.record_stack_writes(n_complete)
        event = CorruptionEvent(
            CorruptionKind.STACK_OVERFLOW_WRITE,
            offset=0,
            byte_count=4 * (n_complete - limit),
            profile=profile,
        )
        key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.MALFORMED, (decode_lse(body[:4]),), n_complete)
        return ExtractionResult(key, (event,), Verdict.ACCEPT, memory)

    if profile.mode is ParserMode.VULN_240 and frag_len > 0:
        # The walk reads a full 4-octet entry where only frag_len octets
        # remain, blending frame bytes with whatever lies past the packet.
        blended = decode_lse(stack[n_complete * 4 :] + memory.read_adjacent(4 - frag_len))
        first = decode_lse(body[:4]) if n_complete else blended
        depth = n_complete + 1
        memory.record_stack_writes(min(depth, limit))
        event = CorruptionEvent(
            CorruptionKind.SHORT_LSE_OVERFLOW,
            offset=0,
            byte_count=4 - frag_len,
            profile=profile,
        )
        key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.MALFORMED, (first,), depth)
        return ExtractionResult(key, (event,), Verdict.ACCEPT, memory)

    # Shared malformed path: the stack never terminated (and/or a trailing
    # fragment remained) and no profile-specific trigger applies.
    depth = n_complete if n_complete <= limit else limit
    memory.record_stack_writes(depth)
    key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.MALFORMED, (), depth)
    return ExtractionResult(key, (), Verdict.DROP, memory)


def _extract_ipv4(data, in_port, eth_src, eth_dst, ethertype, profile, memory):
    rem = len(data) - ETHERNET_HEADER_LEN
    if rem < IPV4_MIN_HEADER_LEN:
        key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.MALFORMED)
        return ExtractionResult(key, (), Verdict.DROP, memory)

    version_ihl, tos, total_length, ttl, proto, ip_src, ip_dst = _IPV4_FIELDS.unpack_from(data, ETHERNET_HEADER_LEN)
    version = version_ihl >> 4
    ihl = version_ihl & 0xF
    header_len = ihl * 4
    l4_off = ETHERNET_HEADER_LEN + header_len

    if profile.mode is ParserMode.VULN_250 and (total_length == 0 or total_length < header_len):
        # 16-bit payload-length arithmetic underflows, so the parser believes
        # an enormous datagram follows and reads L4 ports past the claimed
        # end -- from the frame if the octets exist there, otherwise from the
        # adjacent region.
        l4_src = l4_dst = None
        if proto in (IPPROTO_TCP, IPPROTO_UDP):
            raw = data[l4_off : l4_off + 4]
            if len(raw) < 4:
                raw += memory.read_adjacent(4 - len(raw))
            l4_src, l4_dst = _PORTS.unpack(raw)
        event = CorruptionEvent(
            CorruptionKind.HEAP_OVERREAD,
            offset=header_len - total_length,
            byte_count=2,
            profile=profile,
        )
        key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.MALFORMED, (), 0,
                   (ip_src, ip_dst, proto, tos, ttl, l4_src, l4_dst))
        return ExtractionResult(key, (event,), Verdict.ACCEPT, memory)

    well_formed = version == 4 and ihl >= 5 and total_length >= header_len
    if not well_formed or total_length > rem:
        key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.MALFORMED)
        return ExtractionResult(key, (), Verdict.DROP, memory)

    l4_src = l4_dst = None
    if proto in (IPPROTO_TCP, IPPROTO_UDP) and header_len + 4 <= total_length:
        l4_src, l4_dst = _PORTS.unpack_from(data, l4_off)
    key = _key(in_port, eth_src, eth_dst, ethertype, ParseStatus.COMPLETE, (), 0,
               (ip_src, ip_dst, proto, tos, ttl, l4_src, l4_dst))
    return ExtractionResult(key, (), Verdict.ACCEPT, memory)
