"""Flow extraction: one hardened parser and three modeled-vulnerable ones.

The hardened profile parses Ethernet, walks MPLS label stacks bounds-checked,
and accepts IPv4 only when the header is well-formed and fits the frame. The
vulnerable profiles reproduce the trigger conditions of three historical
parser defects against simulated memory: instead of corrupting memory they
emit a CorruptionEvent describing exactly how many octets would have been
written past the label buffer or read past the packet, while still returning
the defective flow key the buggy daemon would have acted on. The bytes past
the packet are a caller-supplied ``adjacent`` region.

All profiles share one walk; they differ only at their trigger condition, so
on frames that trigger nothing every profile produces an identical FlowKey.
That property is what makes differential fuzzing against the hardened parser
meaningful.

Each trigger lies on a path where the hardened walk returns MALFORMED, behind
the ethertypes ``TRIGGERS`` lists for its mode: v232 and v240 on an
unterminated MPLS stack, v250 on an IPv4 header whose total length is 0 or
below its header length; whether that walk returns MALFORMED does not depend
on the label limit. A profile whose trigger does not fire runs the code every
profile of its label limit runs and returns an equal ExtractionResult. So
diff_fuzz asks about a frame the hardened parser accepts (COMPLETE,
MPLS_TERMINATED or L2_ONLY) only the first vulnerable profile of each limit,
and about a MALFORMED one only the profiles whose trigger can fire behind its
ethertype plus the first of each limit among the rest; minimize asks only the
profiles of its class's mode. diff_fuzz also relies on extract being a pure
function of ``frame.data``, the port, the profile and ``adjacent`` (never
``orig_len`` or the timestamps) to judge each distinct frame's octets once
per call.

An option-less IPv4 frame takes a shortcut ahead of the walk: one unpack of
its first 38 octets (Ethernet, the IPv4 fields, the L4 ports) yields the whole
key when the ethertype is IPv4, version/IHL is 0x45 and 20 <= total length
<= the octets past Ethernet. No trigger can fire on such a frame: v232 and
v240 need an MPLS ethertype, and v250 a total length below the 20-octet
header. So the walk would return the same COMPLETE key, no events and Accept
under every profile, label limit and ``adjacent``, which is what the shortcut
returns. The 38 octets it reads are ``key_signature``'s prefix (SIGNATURE_LEN),
and the frame length its bound, so the memo stays exact. Every other frame
(IHL > 5, short, non-IPv4, every trigger) takes the walk, and the memo holds
none with IHL > 5.

The shortcut first tests the ethertype's high octet (0x08), so only frames of
38 octets or more whose ethertype is 0x08xx pay its 12-field unpack: IPv4,
and the rare 0x0806-0x08FF frames, which then fail the ethertype test and
take the walk. MPLS, VLAN and every other frame go straight to the walk.
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
    _S_FLAG_TABLE,
    FlowKey,
    ParseStatus,
    RawFrame,
    TextEnum,
    _lse_fields,
)

DEFAULT_LABEL_LIMIT = 3
DEFAULT_ADJACENT_LEN = 64

_ETHERNET = struct.Struct(">6s6sH")  # eth_dst, eth_src, ethertype
# version/IHL, TOS, total length, TTL, protocol, source, destination; the
# identification, fragment and checksum fields are skipped.
_IPV4_FIELDS = struct.Struct(">BBH4xBB2xII")
_PORTS = struct.Struct(">HH")
# An option-less IPv4 frame through its L4 ports: the Ethernet fields, then
# _IPV4_FIELDS at offset 14, then _PORTS at offset 34.
_IPV4_FRAME = struct.Struct(">6s6sHBBH4xBB2xIIHH")
_IPV4_FRAME_LEN = _IPV4_FRAME.size
# key_signature's fixed prefix: the octets the option-less IPv4 shortcut reads.
SIGNATURE_LEN = _IPV4_FRAME_LEN
_IPV4_HIGH_OCTET = ETHERTYPE_IPV4 >> 8  # tested before the unpack, so MPLS and VLAN frames skip it
_IPV4_MIN_FRAME_LEN = ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN  # the shortest frame whose IPv4 fields the walk reads
_S_FLAG_OCTET = ETHERNET_HEADER_LEN + 2  # the top entry's third octet, which holds its bottom-of-stack flag
_L4_PROTOS = (IPPROTO_TCP, IPPROTO_UDP)  # the protocols whose ports the key holds
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
    """A flow key, its corruption events and the verdict.

    The verdict is DROP iff the key is MALFORMED and no event fired: a
    correct parser drops a malformed frame, while a defective one acts on
    the key it was tricked into building.
    """

    key: FlowKey
    events: tuple[CorruptionEvent, ...]
    verdict: Verdict


class VulnClass(TextEnum):
    LONG_STACK_232 = "LongStack-2.3.2"
    SHORT_LSE_240 = "ShortLse-2.4.0"
    IP_UNDERFLOW_250 = "IpUnderflow-2.5.0"
    BENIGN = "Benign"


# Module constants: a global lookup is cheaper than an attribute lookup on
# the enum class, and extract() reads them on every frame.
_COMPLETE = ParseStatus.COMPLETE
_L2_ONLY = ParseStatus.L2_ONLY
_MPLS_TERMINATED = ParseStatus.MPLS_TERMINATED
_MALFORMED = ParseStatus.MALFORMED
_V232 = ParserMode.VULN_232
_V240 = ParserMode.VULN_240
_V250 = ParserMode.VULN_250
_DROP = Verdict.DROP
_ACCEPT = Verdict.ACCEPT
_STACK_OVERFLOW_WRITE = CorruptionKind.STACK_OVERFLOW_WRITE
_SHORT_LSE_OVERFLOW = CorruptionKind.SHORT_LSE_OVERFLOW
_HEAP_OVERREAD = CorruptionKind.HEAP_OVERREAD

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

    size = len(data)
    if size >= _IPV4_FRAME_LEN and data[12] == _IPV4_HIGH_OCTET:
        (eth_dst, eth_src, ethertype, version_ihl, tos, total_length,
         ttl, proto, ip_src, ip_dst, l4_src, l4_dst) = _IPV4_FRAME.unpack_from(data)
        if (ethertype == ETHERTYPE_IPV4 and version_ihl == 0x45
                and IPV4_MIN_HEADER_LEN <= total_length <= size - ETHERNET_HEADER_LEN):
            if total_length < IPV4_MIN_HEADER_LEN + 4 or proto not in _L4_PROTOS:
                l4_src = l4_dst = None
            key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, None, None, None, None, 0,
                                       ip_src, ip_dst, proto, tos, ttl, l4_src, l4_dst, _COMPLETE))
            return _tuple_new(ExtractionResult, (key, (), _ACCEPT))
    return _walk(data, in_port, profile, adjacent)


# Each vulnerable mode's trigger: the ethertypes whose branch of _walk holds it,
# and the class its event maps to. Every trigger also lies where the hardened
# walk returns MALFORMED, so on any other frame, or behind any other ethertype,
# the mode runs the code every profile of its label limit runs.
TRIGGERS = {
    ParserMode.VULN_232: (MPLS_ETHERTYPES, VulnClass.LONG_STACK_232),
    ParserMode.VULN_240: (MPLS_ETHERTYPES, VulnClass.SHORT_LSE_240),
    ParserMode.VULN_250: (frozenset({ETHERTYPE_IPV4}), VulnClass.IP_UNDERFLOW_250),
}


def _walk(data, in_port, profile, adjacent):
    """The general walk: every frame the option-less IPv4 shortcut does not take.

    Each branch builds its key and result positionally, field by field, and
    returns them: the keyword constructor costs about 4x as much, and
    star-unpacking field groups into one tuple builds a list first. The
    verdict is DROP exactly on the MALFORMED branches that fire no event.
    """
    size = len(data)
    if size < ETHERNET_HEADER_LEN:
        key = _tuple_new(FlowKey, (in_port, None, None, None, None, None, None, None, 0,
                                   None, None, None, None, None, None, None, _MALFORMED))
        return _tuple_new(ExtractionResult, (key, (), _DROP))
    eth_dst, eth_src, ethertype = _ETHERNET.unpack_from(data)

    if ethertype in MPLS_ETHERTYPES:
        limit = profile.label_limit
        rem = size - ETHERNET_HEADER_LEN
        n_complete = rem >> 2  # complete 4-octet entries
        frag_len = rem & 3  # octets of a trailing partial entry
        # Index of the first entry with the bottom-of-stack flag, -1 when absent: one strided
        # slice takes each complete entry's third octet, and is empty when there is none.
        s_idx = data[_S_FLAG_OCTET : size - frag_len : 4].translate(_S_FLAG_TABLE).find(1)
        if s_idx >= 0:
            # Same result for every profile: record the top entry, count depth up
            # to the buffer capacity, never parse beneath the stack.
            label, exp, s_flag, ttl = _lse_fields(data)
            key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, label, exp, s_flag, ttl,
                                       s_idx + 1 if s_idx < limit else limit,
                                       None, None, None, None, None, None, None, _MPLS_TERMINATED))
            return _tuple_new(ExtractionResult, (key, (), _ACCEPT))
        mode = profile.mode
        if mode is _V232 and n_complete > limit:
            # Unbounded copy loop: with no stack bottom in sight, every entry in
            # the frame lands in the fixed-capacity buffer.
            label, exp, s_flag, ttl = _lse_fields(data)
            key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, label, exp, s_flag, ttl, n_complete,
                                       None, None, None, None, None, None, None, _MALFORMED))
            event = _tuple_new(CorruptionEvent, (_STACK_OVERFLOW_WRITE, 0, 4 * (n_complete - limit)))
            return _tuple_new(ExtractionResult, (key, (event,), _ACCEPT))
        if mode is _V240 and frag_len:
            # The walk reads a full 4-octet entry where only frag_len octets
            # remain, blending frame bytes with whatever lies past the packet.
            # The blended entry is the key's only when no complete entry precedes it.
            missing = 4 - frag_len
            if n_complete:
                label, exp, s_flag, ttl = _lse_fields(data)
            else:
                label, exp, s_flag, ttl = _lse_fields(data[ETHERNET_HEADER_LEN:] + _adjacent_prefix(adjacent, missing), 0)
            key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, label, exp, s_flag, ttl, n_complete + 1,
                                       None, None, None, None, None, None, None, _MALFORMED))
            event = _tuple_new(CorruptionEvent, (_SHORT_LSE_OVERFLOW, 0, missing))
            return _tuple_new(ExtractionResult, (key, (event,), _ACCEPT))
        # Shared malformed path: the stack never terminated (and/or a trailing
        # fragment remained) and no profile-specific trigger applies.
        key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, None, None, None, None,
                                   n_complete if n_complete <= limit else limit,
                                   None, None, None, None, None, None, None, _MALFORMED))
        return _tuple_new(ExtractionResult, (key, (), _DROP))

    if ethertype == ETHERTYPE_IPV4:
        if size >= _IPV4_MIN_FRAME_LEN:
            version_ihl, tos, total_length, ttl, proto, ip_src, ip_dst = _IPV4_FIELDS.unpack_from(data, ETHERNET_HEADER_LEN)
            header_len = (version_ihl & 0xF) * 4
            l4_off = ETHERNET_HEADER_LEN + header_len
            if profile.mode is _V250 and (total_length == 0 or total_length < header_len):
                # 16-bit payload-length arithmetic underflows, so the parser believes
                # an enormous datagram follows and reads L4 ports past the claimed
                # end -- from the frame if the octets exist there, otherwise from the
                # adjacent region.
                l4_src = l4_dst = None
                if proto in _L4_PROTOS:
                    raw = data[l4_off : l4_off + 4]
                    l4_src, l4_dst = _PORTS.unpack(raw + _adjacent_prefix(adjacent, 4 - len(raw)))
                key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, None, None, None, None, 0,
                                           ip_src, ip_dst, proto, tos, ttl, l4_src, l4_dst, _MALFORMED))
                event = _tuple_new(CorruptionEvent, (_HEAP_OVERREAD, header_len - total_length, 2))
                return _tuple_new(ExtractionResult, (key, (event,), _ACCEPT))
            # Well-formed: version 4, at least the minimal header, and a total
            # length from the header length up to the octets past Ethernet.
            if (version_ihl >> 4 == 4 and header_len >= IPV4_MIN_HEADER_LEN
                    and header_len <= total_length <= size - ETHERNET_HEADER_LEN):
                l4_src = l4_dst = None
                if proto in _L4_PROTOS and header_len + 4 <= total_length:
                    l4_src, l4_dst = _PORTS.unpack_from(data, l4_off)
                key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, None, None, None, None, 0,
                                           ip_src, ip_dst, proto, tos, ttl, l4_src, l4_dst, _COMPLETE))
                return _tuple_new(ExtractionResult, (key, (), _ACCEPT))
        key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, None, None, None, None, 0,
                                   None, None, None, None, None, None, None, _MALFORMED))
        return _tuple_new(ExtractionResult, (key, (), _DROP))

    key = _tuple_new(FlowKey, (in_port, eth_src, eth_dst, ethertype, None, None, None, None, 0,
                               None, None, None, None, None, None, None, _L2_ONLY))
    return _tuple_new(ExtractionResult, (key, (), _ACCEPT))


def key_signature(data: bytes, in_port: int) -> tuple | None:
    """Every input an option-less COMPLETE flow key is read from; None for any other frame.

    A frame of at least 34 octets whose version/IHL octet is 0x45 has the
    signature ``(in_port, data[:SIGNATURE_LEN], len(data))``. Under any
    profile or ``adjacent``, extract's option-less IPv4 step and the IPv4
    branch of ``_walk`` read just the port, the frame length and the first 38
    octets of such a frame (Ethernet, the 20-octet header, the L4 ports),
    never the payload. Widen the signature whenever either reads more. Every
    other frame, IP options included, has none, so the memo never holds it.

    A lookup needs no IHL test: a tuple equal to a signature has the same
    first 38 octets, or the same whole frame when it is shorter, and the same
    length, so the same octet 14, and so it is its own frame's signature.
    """
    if len(data) < ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN or data[ETHERNET_HEADER_LEN] != 0x45:
        return None
    return in_port, data[:SIGNATURE_LEN], len(data)
