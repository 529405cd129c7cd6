"""Flow extraction: one hardened parser and three modeled-vulnerable ones.

The hardened profile parses Ethernet, walks MPLS label stacks bounds-checked,
and accepts IPv4 only when the header is well-formed and fits the frame. The
vulnerable profiles reproduce the trigger conditions of three historical
parser defects against simulated memory: instead of corrupting memory they
emit a CorruptionEvent describing exactly how many octets would have been
written past the label buffer or read past the packet, while still returning
the defective flow key the buggy daemon would have acted on. The bytes past
the packet are a caller-supplied ``adjacent`` region, and every extraction
returns its own BufferAccounting.

All profiles share one walk; they differ only at their trigger condition, so
on frames that trigger nothing every profile produces an identical FlowKey.
That property is what makes differential fuzzing against the hardened parser
meaningful.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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
    TextEnum,
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
# The default adjacent region, shared by every call; bytes are immutable.
_ZERO_REGION = bytes(DEFAULT_ADJACENT_LEN)


class EmptyFrameError(ValueError):
    """extract() was handed a zero-length frame."""


class ParserMode(TextEnum):
    HARDENED = "hardened"
    VULN_232 = "v232"
    VULN_240 = "v240"
    VULN_250 = "v250"


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


class BufferAccounting(NamedTuple):
    """What one extraction did to the simulated buffers.

    ``stack_written_slots`` counts label-buffer slots the walk stored; the
    capacity is the profile's ``label_limit``, and every slot past it adds
    four octets to ``overflow_bytes_written``. ``adjacent_bytes_read``
    counts octets taken from the region past the packet. A hardened
    extraction writes no overflow and reads nothing adjacent.
    """

    stack_capacity_slots: int
    stack_written_slots: int
    adjacent_bytes_read: int
    overflow_bytes_written: int


def _adjacent_prefix(adjacent: bytes, count: int) -> bytes:
    """The first ``count`` octets past the packet; a short region repeats."""
    if count > len(adjacent):
        adjacent = adjacent * (count // len(adjacent) + 1)
    return adjacent[:count]


class CorruptionKind(TextEnum):
    STACK_OVERFLOW_WRITE = "StackOverflowWrite"
    SHORT_LSE_OVERFLOW = "ShortLseOverflow"
    HEAP_OVERREAD = "HeapOverread"


class CorruptionEvent(NamedTuple):
    """One simulated memory-safety violation.

    ``offset`` is where the access began, in octets past the end of the valid
    region (label buffer, frame, or claimed datagram); ``byte_count`` is how
    many octets the access covered.
    """

    kind: CorruptionKind
    offset: int
    byte_count: int

    def describe(self) -> str:
        return f"{self.kind}(offset={self.offset},byte_count={self.byte_count})"


class Verdict(TextEnum):
    ACCEPT = "Accept"
    DROP = "Drop"


class ExtractionResult(NamedTuple):
    """A flow key, its corruption events, the verdict and the buffer accounting.

    The verdict is DROP iff the key is MALFORMED and no event fired: a
    correct parser drops a malformed frame, while a defective one acts on
    the key it was tricked into building.
    """

    key: FlowKey
    events: tuple[CorruptionEvent, ...]
    verdict: Verdict
    memory: BufferAccounting


class VulnClass(TextEnum):
    LONG_STACK_232 = "LongStack-2.3.2"
    SHORT_LSE_240 = "ShortLse-2.4.0"
    IP_UNDERFLOW_250 = "IpUnderflow-2.5.0"
    BENIGN = "Benign"


# Module constants: a global lookup is cheaper than an attribute lookup on
# the enum class, and extract() reads them on every frame.
_MALFORMED = ParseStatus.MALFORMED
_DROP = Verdict.DROP
_ACCEPT = Verdict.ACCEPT

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


def extract(
    frame: RawFrame,
    in_port: int,
    profile: ParserProfile,
    adjacent: bytes | None = None,
) -> ExtractionResult:
    """Run the flow-extraction stage of the pipeline for one frame.

    Malformation is expressed through parse_status and the verdict, never as
    an exception; only a zero-length frame or an empty ``adjacent`` raises.
    ``adjacent`` stands in for the bytes past the packet (zeros by default; a
    seeded region makes overread blending observable); it is only read.
    """
    data = frame.data
    if not data:
        raise EmptyFrameError("cannot extract from an empty frame")
    if adjacent is None:
        adjacent = _ZERO_REGION
    elif not adjacent:
        raise ValueError("adjacent must be non-empty")

    events = labels = ()
    ip = _NO_IP
    depth = written = read = 0
    if len(data) < ETHERNET_HEADER_LEN:
        eth_dst = eth_src = ethertype = None
        status = _MALFORMED
    else:
        eth_dst, eth_src, ethertype = _ETHERNET.unpack_from(data)
        if ethertype in MPLS_ETHERTYPES:
            status, labels, depth, events, written, read = _extract_mpls(data, profile, adjacent)
        elif ethertype == ETHERTYPE_IPV4:
            status, ip, events, read = _extract_ipv4(data, profile, adjacent)
        else:
            status = ParseStatus.L2_ONLY
    # Positional: the keyword constructor costs about 4x as much.
    key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, labels, depth, *ip, status))
    verdict = _DROP if status is _MALFORMED and not events else _ACCEPT
    limit = profile.label_limit
    over = written - limit
    memory = _tuple_new(BufferAccounting, (limit, written, read, 4 * over if over > 0 else 0))
    return _tuple_new(ExtractionResult, (key, events, verdict, memory))


def _extract_mpls(data, profile, adjacent):
    """Walk an MPLS stack; returns (status, labels, depth, events, slots written, adjacent octets read)."""
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
        return ParseStatus.MPLS_TERMINATED, (decode_lse(body[:4]),), depth, (), depth, 0

    if profile.mode is ParserMode.VULN_232 and n_complete > limit:
        # Unbounded copy loop: with no stack bottom in sight, every entry in
        # the frame lands in the fixed-capacity buffer.
        event = CorruptionEvent(CorruptionKind.STACK_OVERFLOW_WRITE, offset=0, byte_count=4 * (n_complete - limit))
        return _MALFORMED, (decode_lse(body[:4]),), n_complete, (event,), n_complete, 0

    if profile.mode is ParserMode.VULN_240 and frag_len > 0:
        # The walk reads a full 4-octet entry where only frag_len octets
        # remain, blending frame bytes with whatever lies past the packet.
        missing = 4 - frag_len
        blended = decode_lse(stack[n_complete * 4 :] + _adjacent_prefix(adjacent, missing))
        first = decode_lse(body[:4]) if n_complete else blended
        depth = n_complete + 1
        event = CorruptionEvent(CorruptionKind.SHORT_LSE_OVERFLOW, offset=0, byte_count=missing)
        return _MALFORMED, (first,), depth, (event,), min(depth, limit), missing

    # Shared malformed path: the stack never terminated (and/or a trailing
    # fragment remained) and no profile-specific trigger applies.
    depth = n_complete if n_complete <= limit else limit
    return _MALFORMED, (), depth, (), depth, 0


def _extract_ipv4(data, profile, adjacent):
    """Parse IPv4 and its ports; returns (status, IP fields, events, adjacent octets read).

    The IP fields are (ip_src, ip_dst, ip_proto, ip_tos, ip_ttl, l4_src, l4_dst).
    """
    rem = len(data) - ETHERNET_HEADER_LEN
    if rem < IPV4_MIN_HEADER_LEN:
        return _MALFORMED, _NO_IP, (), 0

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
        missing = 0
        if proto in (IPPROTO_TCP, IPPROTO_UDP):
            raw = data[l4_off : l4_off + 4]
            missing = 4 - len(raw)
            l4_src, l4_dst = _PORTS.unpack(raw + _adjacent_prefix(adjacent, missing))
        event = CorruptionEvent(CorruptionKind.HEAP_OVERREAD, offset=header_len - total_length, byte_count=2)
        return _MALFORMED, (ip_src, ip_dst, proto, tos, ttl, l4_src, l4_dst), (event,), missing

    well_formed = version == 4 and ihl >= 5 and total_length >= header_len
    if not well_formed or total_length > rem:
        return _MALFORMED, _NO_IP, (), 0

    l4_src = l4_dst = None
    if proto in (IPPROTO_TCP, IPPROTO_UDP) and header_len + 4 <= total_length:
        l4_src, l4_dst = _PORTS.unpack_from(data, l4_off)
    return ParseStatus.COMPLETE, (ip_src, ip_dst, proto, tos, ttl, l4_src, l4_dst), (), 0


def key_signature(data: bytes, in_port: int) -> tuple | None:
    """Every input a COMPLETE flow key is read from; None for a frame too short to parse COMPLETE.

    Only ``_extract_ipv4`` returns COMPLETE, and under any profile or
    ``adjacent`` it reads just the port, the frame length and the octets up
    to ``14 + 4*IHL + 4`` (Ethernet, the IPv4 header, the L4 ports), never
    the payload. Widen the signature whenever ``_extract_ipv4`` reads more.
    """
    if len(data) < ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN:
        return None
    return in_port, data[: ETHERNET_HEADER_LEN + 4 * (data[ETHERNET_HEADER_LEN] & 0xF) + 4], len(data)
