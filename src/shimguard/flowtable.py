"""Match and action stages: rule table plus microflow and megaflow caches.

One SwitchState is the full forwarding state of a switch: the rule list is
the slow path, consulted on cache miss; each miss installs a megaflow entry
masked down to exactly the fields rule selection consulted, and a microflow
entry pointing at it. Ahead of extraction, a signature memo hands a repeated
well-formed IPv4 frame the flow key its first parse built. A switch built
with its caches disabled is a pure slow-path device, which is how the
benchmark isolates slow-path cost.

The cache-correctness contract: for any rule set and packet sequence, the
dispositions with caches enabled equal the dispositions with caches disabled,
packet for packet.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .extract import EmptyFrameError, ParserMode, ParserProfile, Verdict, extract, key_signature
from .packet import (
    FlowKey,
    MplsLse,
    ParseStatus,
    RawFrame,
    format_ipv4,
    format_mac,
    parse_ipv4,
    parse_mac,
    parse_status,
)

MICROFLOW_CAPACITY = 4096


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
    lse: MplsLse

    def __str__(self) -> str:
        return f"push_mpls:{self.lse.label}"


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


def apply_actions(key: FlowKey, actions: Sequence[Action], stats: dict) -> None:
    """Walk the key's label depth through the actions, counting each pop that finds no label."""
    depth = len(key.mpls_labels)
    for action in actions:
        if isinstance(action, PushMpls):
            depth += 1
        elif isinstance(action, PopMpls):
            if depth:
                depth -= 1
            else:
                stats["pop_mpls_noop"] += 1


_COUNTERS = {Forwarded: "forwards", SentToController: "to_controller", Dropped: "drops"}


def _outcome(actions: tuple[Action, ...]) -> tuple[tuple[Action, ...], Disposition, str, bool]:
    """What a MegaflowEntry carries besides its match: actions, disposition, counter, pops_mpls."""
    disposition = disposition_of(actions)
    pops = any(isinstance(action, PopMpls) for action in actions)
    return actions, disposition, _COUNTERS[type(disposition)], pops


# --- matching ---------------------------------------------------------------


def _mpls_label(key: FlowKey):
    top = key.mpls_top
    return top.label if top else None


def _mpls_s(key: FlowKey):
    top = key.mpls_top
    return int(top.bottom_of_stack) if top else None


_int0 = partial(int, base=0)  # decimal, 0x, 0o or 0b


class _Field(NamedTuple):
    """One field of the rule language.

    ``source`` is the FlowKey field holding the value, or a getter for a
    value the key derives. ``bits`` is the header field's width; a numeric
    rule value must fit it, and a MAC or IPv4 value fits it by its syntax.
    """

    source: str | Callable[[FlowKey], object]
    parse: Callable[[str], object]
    show: Callable[[object], str]
    bits: int | None


# The rule language, one row per field, in rule-file documentation order.
# in_port and mpls_s parse as decimal only; int("01", 0) raises.
_FIELDS: dict[str, _Field] = {
    "in_port": _Field("in_port", int, str, 32),
    "eth_src": _Field("eth_src", parse_mac, format_mac, 48),
    "eth_dst": _Field("eth_dst", parse_mac, format_mac, 48),
    "eth_type": _Field("ethertype", _int0, "0x{:04x}".format, 16),
    "mpls_label": _Field(_mpls_label, _int0, str, 20),
    "mpls_s": _Field(_mpls_s, int, str, 1),
    "ip_src": _Field("ip_src", parse_ipv4, format_ipv4, 32),
    "ip_dst": _Field("ip_dst", parse_ipv4, format_ipv4, 32),
    "ip_proto": _Field("ip_proto", _int0, str, 8),
    "l4_src": _Field("l4_src", _int0, str, 16),
    "l4_dst": _Field("l4_dst", _int0, str, 16),
    "parse_status": _Field("parse_status", parse_status, str, None),
}

# Rule fields the FlowKey stores as they are, by position in the key.
_KEY_POSITIONS = {
    name: FlowKey._fields.index(field.source) for name, field in _FIELDS.items() if isinstance(field.source, str)
}

FIELD_GETTERS: dict[str, Callable[[FlowKey], object]] = {
    name: itemgetter(_KEY_POSITIONS[name]) if name in _KEY_POSITIONS else field.source
    for name, field in _FIELDS.items()
}


def mask_projector(mask: tuple[str, ...]) -> Callable[[FlowKey], tuple]:
    """Compile the projection of a key onto a field list: its values, in list order.

    Rule matches and megaflow masks both go through it. Two or more fields
    the key stores as they are take one itemgetter; a shorter list, or one
    with mpls_label or mpls_s, goes through the per-field getters, so a
    one-field list still yields a 1-tuple.
    """
    if len(mask) > 1 and all(name in _KEY_POSITIONS for name in mask):
        return itemgetter(*(_KEY_POSITIONS[name] for name in mask))
    getters = tuple(FIELD_GETTERS[name] for name in mask)
    return lambda key: tuple([get(key) for get in getters])


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


@dataclass(slots=True)
class MegaflowEntry:
    """A wildcard cache entry: the key's values on the mask, in mask order, plus the actions.

    The disposition and the counter it bumps depend only on the actions, so
    they are computed once per rule. ``pops_mpls`` marks the one case where
    the key still matters per packet: a pop on a key without labels counts
    as ``pop_mpls_noop``.
    """

    mask: tuple[str, ...]
    values: tuple
    actions: tuple[Action, ...]
    disposition: Disposition
    counter: str
    pops_mpls: bool
    hits: int = 0

    def describe(self) -> str:
        fields = " ".join(f"{n}={_format_value(n, v)}" for n, v in zip(self.mask, self.values))
        acts = ",".join(str(a) for a in self.actions)
        return f"mask[{','.join(self.mask)}] {{{fields}}} -> {acts} hits={self.hits}"


# Read on every packet: a global lookup is cheaper than an enum attribute lookup.
_DROP = Verdict.DROP
_HARDENED = ParserMode.HARDENED
_COMPLETE = ParseStatus.COMPLETE

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

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        megaflow_enabled: bool = True,
        microflow_capacity: int = MICROFLOW_CAPACITY,
    ) -> None:
        if microflow_capacity < 1:
            raise ValueError(f"microflow_capacity must be >= 1, got {microflow_capacity}")
        self.rules: list[Rule] = list(rules)
        self.megaflow_enabled = megaflow_enabled
        self.microflow_capacity = microflow_capacity
        self.microflow: OrderedDict[FlowKey, MegaflowEntry] = OrderedDict()
        # key_signature of a frame -> the flow key extract built for it; LRU, same bound as the microflow.
        self.signatures: OrderedDict[tuple, FlowKey] = OrderedDict()
        # mask -> (compiled projector, table keyed by projection), in install order.
        self.megaflows: dict[tuple[str, ...], tuple[Callable[[FlowKey], tuple], dict[tuple, MegaflowEntry]]] = {}
        self.stats: dict[str, int] = {k: 0 for k in STAT_KEYS}
        # Scan order: descending priority, ties by file order.
        self._ordered = sorted(range(len(self.rules)), key=lambda i: (-self.rules[i].priority, i))
        scan = [self.rules[i] for i in self._ordered]
        # Each rule's match compiled once: the projection onto its fields and
        # the values that projection must equal.
        self._matches = [
            (mask_projector(tuple(name for name, _ in rule.match)), tuple(value for _, value in rule.match))
            for rule in scan
        ]
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
            return mask, mask_projector(mask), _outcome(actions)

        # What an upcall installs when the rule at each scan position wins,
        # and when none does: mask, compiled projector, outcome.
        self._winners = [target(consulted[rule.priority], rule.actions) for rule in scan]
        self._miss = target(acc, DEFAULT_ACTIONS)

    def megaflow_entry_count(self) -> int:
        return sum(len(table) for _, table in self.megaflows.values())

    # -- lookup paths --

    def _scan_rules(self, key: FlowKey) -> int | None:
        for pos, (project, values) in enumerate(self._matches):
            if project(key) == values:
                return pos
        return None

    def _upcall(self, key: FlowKey) -> MegaflowEntry:
        self.stats["slow_path_upcalls"] += 1
        scan_pos = self._scan_rules(key)
        if scan_pos is None:
            self.stats["no_rule_match"] += 1
            mask, project, outcome = self._miss
        else:
            mask, project, outcome = self._winners[scan_pos]
        # The slow path always derives the cache entry (that computation is
        # part of upcall handling); disabling the megaflow cache only stops
        # the entry from being stored.
        values = project(key)
        entry = MegaflowEntry(mask, values, *outcome)
        if self.megaflow_enabled:
            _, table = self.megaflows.setdefault(mask, (project, {}))
            table[values] = entry
        return entry

    def _remember(self, data: bytes, in_port: int, key: FlowKey) -> None:
        """Map the frame's signature to its key, evicting the least recently used signature."""
        signatures = self.signatures
        if len(signatures) >= self.microflow_capacity:
            signatures.popitem(last=False)
        signatures[key_signature(data, in_port)] = key

    def process(
        self,
        frame: RawFrame,
        in_port: int,
        profile: ParserProfile,
        adjacent: bytes | None = None,
    ) -> Disposition:
        """Extract, look up, act. Returns the packet's disposition.

        Exactly one answers, tried in order: a parse drop, a microflow hit, a
        megaflow hit, an upcall; a switch built with caches disabled stores
        nothing, so every packet it extracts is an upcall. ``adjacent`` is
        handed to ``extract`` as the bytes past the packet. A zero-length
        frame has nothing to extract; it is counted as a drop.

        A frame whose ``key_signature`` is in the memo (``signatures``) takes
        its key from there instead of from ``extract``. That is exact because
        the memo holds only COMPLETE keys, and a COMPLETE key is read from
        its frame's signature alone, whatever the profile or ``adjacent``.
        """
        stats = self.stats
        stats["processed"] += 1
        key = None
        # An empty memo costs one test; an empty adjacent must still reach extract's check.
        if self.signatures and (adjacent is None or adjacent):
            signatures = self.signatures
            signature = key_signature(frame.data, in_port)
            key = signatures.get(signature)  # a None signature is never stored
            if key is not None:
                signatures.move_to_end(signature)
                result = None  # nothing new to remember
        if key is None:
            try:
                result = extract(frame, in_port, profile, adjacent)
            except EmptyFrameError:
                result = None
            if result is None or (result.verdict is _DROP and profile.mode is _HARDENED):
                stats["drops"] += 1
                return Dropped()
            key = result.key
        microflow = self.microflow
        entry = microflow.get(key)
        if entry is not None:
            microflow.move_to_end(key)
            entry.hits += 1
            stats["fast_path_hits"] += 1
            if result is not None and key.parse_status is _COMPLETE:
                self._remember(frame.data, in_port, key)
        else:
            for project, table in self.megaflows.values():
                entry = table.get(project(key))
                if entry is not None:
                    entry.hits += 1
                    stats["fast_path_hits"] += 1
                    break
            else:
                entry = self._upcall(key)
            if self.megaflow_enabled:
                # Megaflow hits and upcalls alike fill the LRU microflow.
                if len(microflow) >= self.microflow_capacity:
                    microflow.popitem(last=False)
                microflow[key] = entry
        if entry.pops_mpls:
            apply_actions(key, entry.actions, stats)
        stats[entry.counter] += 1
        return entry.disposition


# --- rule file format ---------------------------------------------------------


def _parse_field(name: str, text: str):
    """Parse a rule value of field ``name``; raises ValueError unless it fits the field."""
    field = _FIELDS[name]
    value = field.parse(text)
    if isinstance(value, int) and not 0 <= value < 1 << field.bits:
        raise ValueError(f"{value} does not fit in {field.bits} bits")
    return value


def _parse_action(token: str, lineno: int) -> Action:
    token = token.strip()
    if token == "drop":
        return Drop()
    if token == "controller":
        return ToController()
    if token == "pop_mpls":
        return PopMpls()
    if token.startswith("output:"):
        try:
            return Output(_parse_field("in_port", token.split(":", 1)[1]))
        except ValueError:
            raise RuleSyntaxError(lineno, f"bad output port in {token!r}") from None
    if token.startswith("push_mpls:"):
        try:
            return PushMpls(MplsLse(_parse_field("mpls_label", token.split(":", 1)[1]), bottom_of_stack=True))
        except ValueError:
            raise RuleSyntaxError(lineno, f"bad label in {token!r}") from None
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
                    priority = int(value)
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
            f"caches: microflow={len(state.microflow)}/{state.microflow_capacity}"
            f" megaflow={state.megaflow_entry_count()}"
        )
        for _, table in state.megaflows.values():
            for entry in table.values():
                lines.append(f"  {entry.describe()}")
    counters = " ".join(f"{k}={state.stats[k]}" for k in STAT_KEYS)
    lines.append(f"counters: {counters}")
    return "\n".join(lines) + "\n"
