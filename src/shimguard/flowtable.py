"""Match and action stages: rule table plus the megaflow cache and its memo.

One SwitchState is the full forwarding state of a switch: the rule list is
the slow path, consulted on cache miss; each miss installs a megaflow entry
masked down to exactly the fields rule selection consulted. A packet is
answered by exactly one of four paths: a parse drop, a memo hit, a megaflow
hit, an upcall. The memo (``signatures``) maps the first 38 octets, length
and port of a repeated option-less IPv4 TCP or UDP frame straight to its
megaflow entry. Such a frame (one past the raw gate, ``_RAW_GATE``) is never
parsed: each mask table is probed with the frame's header fields projected
onto the table's mask (``raw_projector``), as OVS probes each subtable with
its mask over the packet's header, and an upcall builds its key from the
same fields. Every other frame is parsed by ``extract`` and probed with its
key. The microflow answers no packet: it is the memo's admission filter, a
bounded set of the signatures of one in MICROFLOW_ADMIT_EVERY candidates
(the raw megaflow hits and upcalls), and a signature sampled while already
there enters the memo. A switch built with its caches disabled is a pure
slow-path device, which is how the benchmark isolates slow-path cost.

A cache hit pays one count, its megaflow entry's ``hits``, as an OVS
datapath flow keeps its own packet count. ``stats`` sums those on read: the
other paths are rare, and count as they happen. What a rule's actions do is
fixed when the switch is built: the disposition, and the ``pop_mpls_noop``
count for a key with a label and for one without. The microflow and the
memo hold at most MICROFLOW_CAPACITY signatures each.

The rule scan is one function generated when the switch is built
(``_compile_scan``), one ``if`` per rule in scan order; it returns the scan
position a loop over the rules would.

A megaflow lookup probes the mask tables largest first. Probe order changes
no output, because at most one entry of all the tables matches a key: an
entry's mask holds every field of every rule at or above its winner's
priority, so every key it matches has that same winner.

The cache-correctness contract: for any rule set and packet sequence, the
dispositions with caches enabled equal the dispositions with caches disabled,
packet for packet.
"""

from __future__ import annotations

import re
import struct
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .extract import _L4_PROTOS, EmptyFrameError, ParserMode, ParserProfile, Verdict, extract
from .packet import (
    ETHERNET_HEADER_LEN,
    ETHERTYPE_IPV4,
    IPV4_MIN_HEADER_LEN,
    FlowKey,
    ParseStatus,
    RawFrame,
    format_ipv4,
    format_mac,
    parse_ipv4,
    parse_mac,
    parse_status,
)

MICROFLOW_CAPACITY = 4096
# The microflow samples one in this many candidates, the frames past the raw gate that a
# megaflow hit or an upcall answers (OVS's emc-insert-inv-prob, made deterministic): under
# churn most of them skip the filter, while a flow repeated alone is sampled twice, and so
# enters the memo, within twice this many packets.
MICROFLOW_ADMIT_EVERY = 8


class RuleParseError(ValueError):
    """Base class for rule-file problems; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class RuleSyntaxError(RuleParseError):
    pass


class UnknownFieldError(RuleParseError):
    def __init__(self, line: int, name: str) -> None:
        super().__init__(line, f"unknown field {name!r}")
        self.name = name


class DuplicateFieldError(RuleParseError):
    def __init__(self, line: int, name: str) -> None:
        super().__init__(line, f"duplicate field {name!r}")
        self.name = name


# --- actions ----------------------------------------------------------------


@dataclass(frozen=True)
class Output:
    port: int

    def __str__(self) -> str:
        return f"output:{self.port}"


@dataclass(frozen=True)
class Drop:
    def __str__(self) -> str:
        return "drop"


@dataclass(frozen=True)
class ToController:
    def __str__(self) -> str:
        return "controller"


@dataclass(frozen=True)
class PushMpls:
    label: int

    def __str__(self) -> str:
        return f"push_mpls:{self.label}"


@dataclass(frozen=True)
class PopMpls:
    def __str__(self) -> str:
        return "pop_mpls"


Action = Output | Drop | ToController | PushMpls | PopMpls


# --- dispositions -----------------------------------------------------------


@dataclass(frozen=True)
class Forwarded:
    ports: tuple[int, ...]

    def __str__(self) -> str:
        return "Forwarded(" + ",".join(str(p) for p in self.ports) + ")"


@dataclass(frozen=True)
class Dropped:
    def __str__(self) -> str:
        return "Dropped"


@dataclass(frozen=True)
class SentToController:
    def __str__(self) -> str:
        return "SentToController"


Disposition = Forwarded | Dropped | SentToController

# The actions a packet that matches no rule gets.
DEFAULT_ACTIONS: tuple[Action, ...] = (Drop(),)


def disposition_of(actions: Sequence[Action]) -> Disposition:
    """The disposition an action list gives every packet; the key never changes it."""
    ports = tuple(action.port for action in actions if isinstance(action, Output))
    if ports:
        return Forwarded(ports)
    if any(isinstance(action, ToController) for action in actions):
        return SentToController()
    return Dropped()


def apply_actions(actions: Sequence[Action], labelled: bool) -> int:
    """Walk a key's label depth (1 if ``labelled``, else 0) through the actions; returns the pops finding none."""
    depth, noops = labelled, 0
    for action in actions:
        if isinstance(action, PushMpls):
            depth += 1
        elif isinstance(action, PopMpls):
            if depth:
                depth -= 1
            else:
                noops += 1
    return noops


_COUNTERS = {Forwarded: "forwards", SentToController: "to_controller", Dropped: "drops"}


def _outcome(actions: tuple[Action, ...]) -> tuple[tuple[Action, ...], Disposition, str, tuple[int, int] | None]:
    """What a MegaflowEntry carries besides its match: actions, disposition, counter, noop_pops."""
    disposition = disposition_of(actions)
    noop_pops = apply_actions(actions, False), apply_actions(actions, True)
    return actions, disposition, _COUNTERS[type(disposition)], noop_pops if any(noop_pops) else None


# --- matching ---------------------------------------------------------------


def _number(syntax: str, base: int) -> Callable[[str], int]:
    """Parse only what ``syntax`` fully matches; int() alone also takes signs, "_" and non-ASCII digits."""
    match = re.compile(syntax).fullmatch

    def parse(text: str) -> int:
        if not match(text):
            raise ValueError(f"bad number {text!r}")
        return int(text, base)

    return parse


_decimal = _number("[0-9]+", 10)
_priority = _number("-?[0-9]+", 10)
# Decimal, 0x, 0o or 0b; int() with base 0 still rejects a decimal leading zero ("01").
_int0 = _number("0x[0-9a-fA-F]+|0o[0-7]+|0b[01]+|[0-9]+", 0)


class _Field(NamedTuple):
    """One field of the rule language.

    ``source`` is the name of the FlowKey field holding the value. ``bits``
    is the header field's width, which a numeric rule value must fit; it is
    None where the syntax already bounds the value: MAC and IPv4 addresses,
    and the parse status. ``raw`` is the field's value on a frame past the
    raw gate (see ``raw_projector``), as source over the port ``p``, the
    frame's octets ``d`` and ``f``, the _RAW_FIELDS unpack at octet 12.
    """

    source: str
    parse: Callable[[str], object]
    show: Callable[[object], str]
    bits: int | None
    raw: str


# The rule language, one row per field, in rule-file documentation order.
# in_port and mpls_s parse as decimal only. The key's mpls_s is a bool and a
# rule's an int; "{:d}" prints both as 0 or 1.
_FIELDS: dict[str, _Field] = {
    "in_port": _Field("in_port", _decimal, str, 32, "p"),
    "eth_src": _Field("eth_src", parse_mac, format_mac, None, "d[6:12]"),
    "eth_dst": _Field("eth_dst", parse_mac, format_mac, None, "d[:6]"),
    "eth_type": _Field("ethertype", _int0, "0x{:04x}".format, 16, "f[0]"),
    "mpls_label": _Field("mpls_label", _int0, str, 20, "None"),
    "mpls_s": _Field("mpls_s", _decimal, "{:d}".format, 1, "None"),
    "ip_src": _Field("ip_src", parse_ipv4, format_ipv4, None, "f[6]"),
    "ip_dst": _Field("ip_dst", parse_ipv4, format_ipv4, None, "f[7]"),
    "ip_proto": _Field("ip_proto", _int0, str, 8, "f[5]"),
    "l4_src": _Field("l4_src", _int0, str, 16, "f[8]"),
    "l4_dst": _Field("l4_dst", _int0, str, 16, "f[9]"),
    "parse_status": _Field("parse_status", parse_status, str, None, "COMPLETE"),
}

# Each rule field's position in the key.
_KEY_POSITIONS = {name: FlowKey._fields.index(field.source) for name, field in _FIELDS.items()}


def mask_projector(mask: tuple[str, ...]) -> Callable[[FlowKey], tuple]:
    """Compile the projection of a key onto a field list: its values, in list order.

    A megaflow mask's lookup and insert both go through it. Every rule field
    is one key position, so two or more fields take one itemgetter; a shorter
    list builds its tuple from its positions, so a one-field list still
    yields a 1-tuple.
    """
    positions = tuple(_KEY_POSITIONS[name] for name in mask)
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda key: tuple([key[i] for i in positions])


# The raw gate: a frame of at least 38 octets whose octets 12-14 are the IPv4 ethertype and
# version/IHL 0x45, whose total length is 24 or more and fits the octets past Ethernet, and
# whose protocol is TCP or UDP. On every such frame extract takes its well-formed IPv4 branch
# under any profile (v250's trigger needs a total length below the 20-octet header) and
# returns a COMPLETE key holding both ports. Past the octet test, the frame is read in one
# unpack at octet 12: ethertype, version/IHL, TOS, total length, TTL, protocol, source,
# destination, the L4 ports.
_RAW_GATE = bytes((ETHERTYPE_IPV4 >> 8, ETHERTYPE_IPV4 & 0xFF, 0x45))
_RAW_FIELDS = struct.Struct(">HBBH4xBB2xIIHH")
_RAW_MIN_TOTAL_LENGTH = IPV4_MIN_HEADER_LEN + 4  # the header and both ports
# The memo's signature of a frame is (in_port, data[:SIGNATURE_LEN], len(data)): the Ethernet
# header, the 20-octet IPv4 header and the L4 ports, the octets the raw gate and _RAW_FIELDS
# read. On a frame of at least 34 octets whose version/IHL octet is 0x45, a COMPLETE key from
# extract, under any profile or adjacent region, is read from the port, the frame length and
# these octets alone, never the payload. Widen the signature whenever either reads more.
SIGNATURE_LEN = ETHERNET_HEADER_LEN + _RAW_MIN_TOTAL_LENGTH
_tuple_new = tuple.__new__


def raw_projector(mask: tuple[str, ...]) -> Callable[[int, bytes, tuple], tuple]:
    """Compile the projection, onto a field list, of a frame past the raw gate.

    It takes the port, the frame's octets and their _RAW_FIELDS unpack at
    octet 12, and returns what ``mask_projector(mask)`` returns for the key
    extract builds from them, without building that key. Each field reads
    its ``_Field.raw`` source; like ``_compile_scan``'s, the function runs
    in a namespace without builtins.
    """
    namespace: dict[str, object] = {"__builtins__": {}, "COMPLETE": _COMPLETE}
    exec(f"def raw(p, d, f): return ({''.join(_FIELDS[name].raw + ', ' for name in mask)})", namespace)
    return namespace["raw"]


def _raw_key(in_port: int, data: bytes, fields: tuple) -> FlowKey:
    """The key extract's well-formed IPv4 branch builds for a frame past the raw gate, from its raw fields."""
    _, _, tos, _, ttl, proto, ip_src, ip_dst, l4_src, l4_dst = fields
    return _tuple_new(FlowKey, (in_port, data[6:12], data[:6], ETHERTYPE_IPV4, None, None, None, None, 0,
                                ip_src, ip_dst, proto, tos, ttl, l4_src, l4_dst, _COMPLETE))


@dataclass(frozen=True)
class Rule:
    """Priority, field->value matches (absent field = wildcard), actions."""

    priority: int
    match: tuple[tuple[str, object], ...]
    actions: tuple[Action, ...]

    def fields(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.match)

    def __str__(self) -> str:
        matches = ", ".join(f"{n}={_format_value(n, v)}" for n, v in self.match)
        acts = ",".join(str(a) for a in self.actions)
        middle = f"{matches}, " if matches else ""
        return f"priority={self.priority}, {middle}actions={acts}"


def _format_value(name: str, value) -> str:
    """A field value as the rule file writes it; a field the key lacks prints as None."""
    return "None" if value is None else _FIELDS[name].show(value)


def _compile_scan(scan: Sequence[Rule]) -> Callable[[FlowKey], int | None]:
    """Compile a rule list, in scan order, into one function: key -> position of the first match, or None.

    The function holds one ``if`` per rule, testing ``==`` per field in the
    rule's field order against the key position of that field; it ends at
    the first rule with no fields, which matches every key. Its source names
    only key positions, scan positions and generated names: every rule value
    is bound by name in the namespace the source runs in, never written into
    the text, and that namespace has no builtins.
    """
    namespace: dict[str, object] = {"__builtins__": {}}
    lines = ["def scan(key):"]
    for pos, rule in enumerate(scan):
        tests = []
        for n, (name, value) in enumerate(rule.match):
            namespace[f"v{pos}_{n}"] = value
            tests.append(f"key[{_KEY_POSITIONS[name]}] == v{pos}_{n}")
        if not tests:
            lines.append(f"    return {pos}")
            break
        lines.append(f"    if {' and '.join(tests)}: return {pos}")
    else:
        lines.append("    return None")
    exec("\n".join(lines), namespace)
    return namespace["scan"]


@dataclass(slots=True)
class MegaflowEntry:
    """A wildcard cache entry: the key's values on the mask, in mask order, plus the actions.

    The disposition and the counter it bumps depend only on the actions, so
    they are computed once per rule. So is ``noop_pops``, the pops that find
    no label (``pop_mpls_noop``), which also depend on whether the key holds
    a label: indexed by that, or None when both counts are 0.
    """

    mask: tuple[str, ...]
    values: tuple
    actions: tuple[Action, ...]
    disposition: Disposition
    counter: str
    noop_pops: tuple[int, int] | None
    hits: int = 0

    def describe(self) -> str:
        fields = " ".join(f"{n}={_format_value(n, v)}" for n, v in zip(self.mask, self.values))
        acts = ",".join(str(a) for a in self.actions)
        return f"mask[{','.join(self.mask)}] {{{fields}}} -> {acts} hits={self.hits}"


# Read on every packet: a global lookup is cheaper than an enum attribute lookup.
_DROP = Verdict.DROP
_HARDENED = ParserMode.HARDENED
_COMPLETE = ParseStatus.COMPLETE
# Every parse drop's disposition; dispositions compare by value, so one instance serves them all.
_DROPPED = Dropped()

STAT_KEYS = (
    "processed",
    "slow_path_upcalls",
    "fast_path_hits",
    "forwards",
    "drops",
    "to_controller",
    "no_rule_match",
    "pop_mpls_noop",
)


class SwitchState:
    """Rules plus caches plus counters for one switch. Single-writer."""

    def __init__(self, rules: Iterable[Rule] = (), megaflow_enabled: bool = True) -> None:
        self.rules: list[Rule] = list(rules)
        self.megaflow_enabled = megaflow_enabled
        # The memo's admission filter: signatures of sampled candidates -> their megaflow entry,
        # oldest insert out first. It answers no packet.
        self.microflow: OrderedDict[tuple, MegaflowEntry] = OrderedDict()
        # Candidates left until the next is sampled; 1, so the first one is.
        self._admit_in = 1
        # The memo: the signature (in_port, data[:SIGNATURE_LEN], len(data)) of a frame past the
        # raw gate -> the megaflow entry answering it; oldest out first, same bound as the
        # microflow. A sampled candidate's signature is stored here when the microflow already
        # holds it, so a flow reaches the memo only once two of its packets were sampled. Exact
        # only while the entry stays in `megaflows`: a megaflow eviction must also drop every
        # microflow and memo signature pointing at it. A memo hit counts only in the entry's
        # `hits`, which `stats` reads from `megaflows`.
        self.signatures: OrderedDict[tuple, MegaflowEntry] = OrderedDict()
        # mask -> (compiled projector, raw projector, table keyed by projection), in install order.
        # At most one entry of all the tables matches any key, so the order tables are probed in
        # is invisible. Every cache hit is counted in one of these entries' `hits`, and `stats`
        # sums them here.
        self.megaflows: dict[tuple[str, ...], tuple[Callable[[FlowKey], tuple], Callable, dict[tuple, MegaflowEntry]]] = {}
        # The same triples in probe order: largest table first, ties in the order they reached
        # that size. `_upcall` keeps it sorted, so a hit updates nothing.
        self._probe: list[tuple[Callable[[FlowKey], tuple], Callable, dict[tuple, MegaflowEntry]]] = []
        # The dict `stats` fills and returns. slow_path_upcalls, no_rule_match and pop_mpls_noop
        # are counted here as they happen; `stats` writes the rest on each read.
        self._stats: dict[str, int] = {k: 0 for k in STAT_KEYS}
        # Per disposition counter, the packets a parse drop or an upcall answered. Every other
        # packet is a hit, counted only in its stored entry's `hits`; an entry removed from
        # `megaflows` must first add its hits here.
        self._answered: dict[str, int] = {counter: 0 for counter in _COUNTERS.values()}
        # Scan order: descending priority; the sort is stable, so ties keep file order.
        scan = sorted(self.rules, key=lambda rule: -rule.priority)
        # key -> scan position of the first rule it matches, or None.
        self._scan_rules = _compile_scan(scan)
        # The fields rule selection must preserve when a rule of a given
        # priority wins: the union of match fields of every rule at that
        # priority or higher.
        consulted: dict[int, frozenset[str]] = {}
        acc: frozenset[str] = frozenset()
        for rule in scan:
            acc |= rule.fields()
            consulted[rule.priority] = acc

        def target(fields: frozenset[str], actions: tuple[Action, ...]) -> tuple:
            mask = tuple(sorted(fields))
            return mask, mask_projector(mask), raw_projector(mask), _outcome(actions)

        # What an upcall installs when the rule at each scan position wins,
        # and when none does: mask, compiled projector and raw projector, outcome.
        self._winners = [target(consulted[rule.priority], rule.actions) for rule in scan]
        self._miss = target(acc, DEFAULT_ACTIONS)

    def megaflow_entry_count(self) -> int:
        return sum(len(table) for *_, table in self.megaflows.values())

    @property
    def stats(self) -> dict[str, int]:
        """The counters, in STAT_KEYS order: the same dict on every read.

        A packet is answered once: by a parse drop or an upcall, counted in
        ``_answered``, or by a hit on an entry in ``megaflows``, counted in
        its ``hits``. So a read walks the entries once: ``fast_path_hits``
        is the sum of their hits, each disposition counter its ``_answered``
        count plus the hits of the entries carrying it, and ``processed``
        the three counters' sum. A dict held across ``process`` calls sees
        only the live counters advance until ``stats`` is read again.
        """
        totals = dict(self._answered)
        hits = 0
        for *_, table in self.megaflows.values():
            for entry in table.values():
                hits += entry.hits
                totals[entry.counter] += entry.hits
        stats = self._stats
        stats.update(totals)
        stats["fast_path_hits"] = hits
        stats["processed"] = sum(totals.values())
        return stats

    # -- lookup paths --

    def _upcall(self, key: FlowKey) -> MegaflowEntry:
        stats = self._stats
        stats["slow_path_upcalls"] += 1
        scan_pos = self._scan_rules(key)
        if scan_pos is None:
            stats["no_rule_match"] += 1
            mask, project, raw, outcome = self._miss
        else:
            mask, project, raw, outcome = self._winners[scan_pos]
        # The slow path always derives the cache entry (that computation is
        # part of upcall handling); disabling the megaflow cache only stops
        # the entry from being stored.
        values = project(key)
        entry = MegaflowEntry(mask, values, *outcome)
        # The entry's hits count the packets after this one.
        self._answered[entry.counter] += 1
        if self.megaflow_enabled:
            probe = self._probe
            triple = self.megaflows.get(mask)
            if triple is None:
                triple = self.megaflows[mask] = project, raw, {}
                probe.append(triple)
            triple[2][values] = entry
            # The grown table moves ahead of every table it now outsizes; a tie keeps the one ahead.
            size = len(triple[2])
            at = ahead = probe.index(triple)
            while ahead and len(probe[ahead - 1][2]) < size:
                ahead -= 1
            if ahead != at:
                probe.insert(ahead, probe.pop(at))
        return entry

    def _sample(self, signature: tuple, entry: MegaflowEntry) -> None:
        """A sampled candidate: its signature enters the memo if the microflow holds it, else the microflow."""
        self._admit_in = MICROFLOW_ADMIT_EVERY
        self._insert(self.signatures if signature in self.microflow else self.microflow, signature, entry)

    def _insert(self, cache: OrderedDict, key, value) -> None:
        """Store a signature the microflow or the memo lacks, evicting its oldest insert first when it is full."""
        if len(cache) >= MICROFLOW_CAPACITY:
            cache.popitem(last=False)
        cache[key] = value

    def process(self, frame: RawFrame, in_port: int, profile: ParserProfile) -> Disposition:
        """Look up, act. Returns the packet's disposition.

        Exactly one answers, tried in order: a memo hit; for a frame past the
        raw gate, a raw megaflow hit or an upcall; for any other frame, a
        parse drop, a megaflow hit or an upcall after ``extract``. A switch
        built with caches disabled stores nothing, so every packet it does
        not drop is an upcall. A zero-length frame has nothing to extract; it
        is counted as a drop.

        A hit, on any cache, counts only in its entry's ``hits``; a parse drop
        or an upcall counts in ``_answered``. ``stats`` derives the rest.
        Acting walks no action list: it adds the entry's ``noop_pops`` count
        for the key's label state, when the entry has one.

        A frame past the raw gate (see _RAW_GATE) probes each mask table
        with ``raw_projector``'s tuple, which equals the projection of the
        COMPLETE key extract's well-formed IPv4 branch builds for it under
        any profile, so it meets the same entry; on a miss, the key for the
        upcall is built from the fields already read. No such frame is
        parsed, and its key holds no label.

        A frame whose signature is in the memo (``signatures``) is answered by
        the entry stored under it. That is exact: the memo holds only
        signatures of frames past the raw gate, a signature fixes whether a
        frame passes the gate and its key under any profile, and the entry is
        the one megaflow entry that key matches, as megaflow entries are never
        removed. The probe needs no gate test: a probe equal to a stored
        signature has the same first 38 octets and the same length, so it is
        that frame's signature too.

        With caches on, a raw hit or raw upcall is a candidate, and the first
        candidate and every MICROFLOW_ADMIT_EVERY-th after it are sampled. A
        sampled signature the microflow already holds is stored in the memo;
        any other is inserted into the microflow. Each of the two evicts its
        oldest insert, and neither admission nor eviction shows in any output
        but the microflow's size: with caches on ``len(microflow) ==
        min(MICROFLOW_CAPACITY, ceil(candidates / MICROFLOW_ADMIT_EVERY) -
        promotions)``, where promotions are the signatures stored in the memo,
        as the microflow inserts only signatures it lacks and evicts only when
        full. A flow repeated alone reaches the memo within 2 x
        MICROFLOW_ADMIT_EVERY packets; a cycle of more than MICROFLOW_CAPACITY
        x MICROFLOW_ADMIT_EVERY flows never does, so the memo stays empty and
        costs one test.
        """
        data = frame.data
        # An empty memo costs one test.
        if self.signatures:
            entry = self.signatures.get((in_port, data[:SIGNATURE_LEN], len(data)))
            if entry is not None:
                entry.hits += 1
                if entry.noop_pops:
                    # Only frames past the raw gate are memoized, and their keys hold no label.
                    self._stats["pop_mpls_noop"] += entry.noop_pops[0]
                return entry.disposition
        size = len(data)
        if size >= SIGNATURE_LEN and data[12:15] == _RAW_GATE:
            fields = _RAW_FIELDS.unpack_from(data, 12)
            if _RAW_MIN_TOTAL_LENGTH <= fields[3] <= size - ETHERNET_HEADER_LEN and fields[5] in _L4_PROTOS:
                for _, raw, table in self._probe:
                    entry = table.get(raw(in_port, data, fields))
                    if entry is not None:
                        entry.hits += 1
                        break
                else:
                    entry = self._upcall(_raw_key(in_port, data, fields))
                if self.megaflow_enabled:
                    self._admit_in -= 1
                    if not self._admit_in:
                        self._sample((in_port, data[:SIGNATURE_LEN], size), entry)
                if entry.noop_pops:
                    self._stats["pop_mpls_noop"] += entry.noop_pops[0]
                return entry.disposition
        try:
            result = extract(frame, in_port, profile)
        except EmptyFrameError:
            result = None
        if result is None or (result.verdict is _DROP and profile.mode is _HARDENED):
            self._answered["drops"] += 1
            return _DROPPED
        key = result.key
        for project, _, table in self._probe:
            entry = table.get(project(key))
            if entry is not None:
                entry.hits += 1
                break
        else:
            entry = self._upcall(key)
        if entry.noop_pops:
            self._stats["pop_mpls_noop"] += entry.noop_pops[key.mpls_label is not None]
        return entry.disposition


# --- rule file format ---------------------------------------------------------


def _parse_field(name: str, text: str):
    """Parse a rule value of field ``name``; raises ValueError unless it fits the field."""
    field = _FIELDS[name]
    value = field.parse(text)
    if field.bits is not None and not 0 <= value < 1 << field.bits:
        raise ValueError(f"{value} does not fit in {field.bits} bits")
    return value


_PLAIN_ACTIONS = {"drop": Drop(), "controller": ToController(), "pop_mpls": PopMpls()}
# An action with an argument: its class, the rule field the argument parses as, and the argument's name.
_ARG_ACTIONS = {"output": (Output, "in_port", "output port"), "push_mpls": (PushMpls, "mpls_label", "label")}


def _parse_action(token: str, lineno: int) -> Action:
    token = token.strip()
    if token in _PLAIN_ACTIONS:
        return _PLAIN_ACTIONS[token]
    name, colon, arg = token.partition(":")
    if colon and name in _ARG_ACTIONS:
        make, field, what = _ARG_ACTIONS[name]
        try:
            return make(_parse_field(field, arg))
        except ValueError:
            raise RuleSyntaxError(lineno, f"bad {what} in {token!r}") from None
    raise RuleSyntaxError(lineno, f"unknown action {token!r}")


def load_rules(text: str) -> list[Rule]:
    """Parse the line-oriented rule format.

    ``priority=<int>, <field>=<value>[, ...], actions=<act>[,<act>...]``
    with ``#`` comments. Rules keep file order, which breaks priority ties.
    """
    rules: list[Rule] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition("actions=")
        if not sep:
            raise RuleSyntaxError(lineno, "missing actions=")
        if not tail.strip():
            raise RuleSyntaxError(lineno, "empty action list")
        actions = tuple(_parse_action(tok, lineno) for tok in tail.split(","))

        priority: int | None = None
        match: list[tuple[str, object]] = []
        seen: set[str] = set()
        for token in head.split(","):
            token = token.strip()
            if not token:
                continue
            name, eq, value = token.partition("=")
            name = name.strip()
            value = value.strip()
            if not eq or not value:
                raise RuleSyntaxError(lineno, f"expected key=value, got {token!r}")
            if name == "priority":
                if priority is not None:
                    raise DuplicateFieldError(lineno, "priority")
                try:
                    priority = _priority(value)
                except ValueError:
                    raise RuleSyntaxError(lineno, f"bad priority {value!r}") from None
                continue
            if name not in _FIELDS:
                raise UnknownFieldError(lineno, name)
            if name in seen:
                raise DuplicateFieldError(lineno, name)
            seen.add(name)
            try:
                match.append((name, _parse_field(name, value)))
            except ValueError as exc:
                raise RuleSyntaxError(lineno, f"bad value for {name}: {exc}") from None
        if priority is None:
            raise RuleSyntaxError(lineno, "missing priority=")
        rules.append(Rule(priority=priority, match=tuple(match), actions=actions))
    return rules


def dump_state(state: SwitchState) -> str:
    """Deterministic textual report of rules, cache contents and counters."""
    lines = [f"rules: {len(state.rules)}"]
    for rule in state.rules:
        lines.append(f"  {rule}")
    if not state.megaflow_enabled:
        lines.append("caches: disabled")
    else:
        lines.append(
            f"caches: microflow={len(state.microflow)}/{MICROFLOW_CAPACITY}"
            f" megaflow={state.megaflow_entry_count()}"
        )
        for *_, table in state.megaflows.values():
            for entry in table.values():
                lines.append(f"  {entry.describe()}")
    stats = state.stats
    counters = " ".join(f"{k}={stats[k]}" for k in STAT_KEYS)
    lines.append(f"counters: {counters}")
    return "\n".join(lines) + "\n"
