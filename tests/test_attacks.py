import collections
import dataclasses
import hashlib
import itertools
import math
import random
import struct
import zlib

import pytest

import shimguard.attacks as attacks
from shimguard.attacks import (
    AttackKind,
    AttackSpec,
    FuzzReport,
    MutationBudget,
    PayloadTooLarge,
    PayloadViolatesConstraint,
    craft,
    diff_fuzz,
    encode_payload,
    minimize,
    mutate,
)
from shimguard.extract import (
    ALL_PROFILES,
    HARDENED,
    VULN_232,
    VULN_240,
    VULN_250,
    CorruptionEvent,
    CorruptionKind,
    ParserMode,
    ParserProfile,
    Verdict,
    VulnClass,
    classify_events,
    extract,
)
from shimguard.flowtable import Dropped, Forwarded, SwitchState, load_rules
from shimguard.packet import EthernetHeader, Ipv4Header, MplsLse, ParseStatus, RawFrame, decode_lse, encode_frame
from shimguard.pcap import SNAPLEN


def _s_bits(frame):
    """Independent scan: bottom-of-stack flags of every complete LSE."""
    stack = frame.data[14:]
    return [(stack[i + 2] & 1) for i in range(0, len(stack) - len(stack) % 4, 4)]


# --- craft ----------------------------------------------------------------------


def test_craft_long_shim_default():
    frame = craft(AttackSpec(AttackKind.LONG_SHIM))
    assert frame.capture_len == 1514
    assert frame.data[12:14] == b"\x88\x47"
    bits = _s_bits(frame)
    assert len(bits) == 375
    assert not any(bits)
    assert frame.capture_len == 14 + 4 * len(bits)


def test_craft_long_shim_triggers_expected_overflow():
    frame = craft(AttackSpec(AttackKind.LONG_SHIM))
    result = extract(frame, 0, VULN_232)
    assert result.events[0].byte_count == 4 * (375 - 3)
    assert extract(frame, 0, HARDENED).verdict is Verdict.DROP


def test_craft_long_shim_custom_size():
    frame = craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=103))
    assert len(_s_bits(frame)) == (103 - 14) // 4
    assert frame.capture_len == 14 + 4 * ((103 - 14) // 4)


def test_craft_long_shim_payload_packing():
    rng = random.Random(77)
    payload = bytearray(rng.randbytes(64))
    for i in range(2, len(payload), 4):
        payload[i] &= 0xFE  # clear every S-position bit
    frame = craft(AttackSpec(AttackKind.LONG_SHIM, payload=bytes(payload)))
    assert frame.capture_len == 1514
    assert frame.data[14 : 14 + 64] == bytes(payload)
    assert not any(_s_bits(frame))


def test_craft_long_shim_payload_too_large():
    with pytest.raises(PayloadTooLarge):
        craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=30, payload=bytes(64)))


def test_craft_long_shim_payload_fills_the_budget_exactly():
    spec = AttackSpec(AttackKind.LONG_SHIM, frame_size=30)
    assert spec.label_count == 4
    assert craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=30, payload=bytes(16))).data[14:] == bytes(16)
    with pytest.raises(PayloadTooLarge):
        craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=30, payload=bytes(20)))


def test_spec_range_checks_at_their_edges():
    # A long shim needs room for one entry past Ethernet; a total length must fit 16 bits.
    with pytest.raises(ValueError, match="no room"):
        AttackSpec(AttackKind.LONG_SHIM, frame_size=17)
    assert craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=18)).capture_len == 18
    frame = craft(AttackSpec(AttackKind.ACL_BYPASS, total_length=0xFFFF))
    assert frame.data[16:18] == b"\xff\xff"
    with pytest.raises(ValueError, match="exceeds 16 bits"):
        AttackSpec(AttackKind.ACL_BYPASS, total_length=0x10000)


def test_has_failures_on_one_hardened_event_or_one_violation():
    clean = FuzzReport(ALL_PROFILES, 1, 0, {}, {}, 0, None, 0, 0)
    assert not clean.has_failures
    assert dataclasses.replace(clean, hardened_event_count=1).has_failures
    assert dataclasses.replace(clean, equivalence_violations=1).has_failures


def _per_chunk_payload(data):
    """encode_payload as a loop over 4-octet chunks: decode each one, reject the first with its S-bit set."""
    lses = []
    for index in range(0, len(data), 4):
        lse = decode_lse(data[index : index + 4])
        if lse.bottom_of_stack:
            raise PayloadViolatesConstraint(index // 4)
        lses.append(lse)
    return lses


def _per_entry_long_shim(spec):
    """A long-shim frame assembled one label stack entry at a time, payload and filler alike."""
    padded = b"" if spec.payload is None else spec.payload + bytes(-len(spec.payload) % 4)
    lses = _per_chunk_payload(padded)
    if len(lses) > spec.label_count:
        raise PayloadTooLarge(f"payload needs {len(lses)} entries, frame budget is {spec.label_count}")
    eth = EthernetHeader(attacks.CRAFT_DST_MAC, attacks.CRAFT_SRC_MAC, 0x8847)
    return encode_frame(eth, lses + [MplsLse(0, ttl=64)] * (spec.label_count - len(lses)))


def _outcome(build, arg):
    """What build(arg) returns, or the type, message and chunk index of the ValueError it raises."""
    try:
        return build(arg)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "chunk_index", None)


def test_craft_long_shim_equals_per_entry_assembly():
    sizes = [*range(18, 1515), *range(SNAPLEN - 3, SNAPLEN + 1)]
    for size in sizes:
        spec = AttackSpec(AttackKind.LONG_SHIM, frame_size=size)
        frame = craft(spec)
        assert type(frame) is RawFrame
        assert frame == _per_entry_long_shim(spec), size
    rng = random.Random(2019)
    outcomes = collections.Counter()
    for _ in range(200):
        payload = bytearray(rng.randbytes(rng.randrange(0, 1600)))
        for i in range(2, len(payload), 4):
            payload[i] &= 0xFE
        if payload and rng.random() < 0.3:
            payload[rng.randrange(len(payload))] |= 1  # sets an S-position bit unless it hits another octet
        spec = AttackSpec(AttackKind.LONG_SHIM, frame_size=rng.choice((18, 64, 590, 1514, rng.randrange(18, 2000))),
                          payload=bytes(payload))
        expected = _outcome(_per_entry_long_shim, spec)
        assert _outcome(craft, spec) == expected
        outcomes[expected[0] if type(expected) is tuple else RawFrame] += 1
        padded = spec.payload + bytes(-len(spec.payload) % 4)
        assert _outcome(encode_payload, padded) == _outcome(_per_chunk_payload, padded)
    # Every outcome is exercised: a frame, a chunk with its S-bit set, a payload past the budget.
    assert set(outcomes) == {RawFrame, PayloadViolatesConstraint, PayloadTooLarge}, outcomes


def test_craft_short_shim():
    frame = craft(AttackSpec(AttackKind.SHORT_SHIM))
    assert frame.capture_len == 16  # 14 + 2-octet fragment
    assert frame.data[12:14] == b"\x88\x47"
    result = extract(frame, 0, VULN_240)
    assert result.events[0].kind is CorruptionKind.SHORT_LSE_OVERFLOW
    assert result.events[0].byte_count == 2


@pytest.mark.parametrize("frag", [1, 2, 3])
def test_craft_short_shim_fragment_lengths(frag):
    frame = craft(AttackSpec(AttackKind.SHORT_SHIM, fragment_len=frag))
    assert frame.capture_len == 14 + frag


def test_craft_short_shim_bad_fragment():
    with pytest.raises(ValueError):
        AttackSpec(AttackKind.SHORT_SHIM, fragment_len=0)
    with pytest.raises(ValueError):
        AttackSpec(AttackKind.SHORT_SHIM, fragment_len=4)


@pytest.mark.parametrize("port", [-1, 65536])
@pytest.mark.parametrize("name", ["sport", "dport"])
def test_spec_rejects_ports_outside_16_bits(name, port):
    with pytest.raises(ValueError, match=f"^{name} exceeds 16 bits$"):
        AttackSpec(AttackKind.ACL_BYPASS, **{name: port})
    assert getattr(AttackSpec(AttackKind.ACL_BYPASS, **{name: port % 65536}), name) == port % 65536


ACL_RULES = (
    "priority=10, parse_status=Complete, l4_dst=8080, actions=drop\n"
    "priority=1, actions=output:1"
)


def test_craft_acl_bypass_differential():
    frame = craft(AttackSpec(AttackKind.ACL_BYPASS, total_length=0, dport=8080))
    assert SwitchState(load_rules(ACL_RULES)).process(frame, 1, HARDENED) == Dropped()
    assert SwitchState(load_rules(ACL_RULES)).process(frame, 1, VULN_250) == Forwarded((1,))
    result = extract(frame, 0, VULN_250)
    assert result.events[0].kind is CorruptionKind.HEAP_OVERREAD
    assert result.key.l4_dst == 8080


def test_craft_acl_bypass_total_length_variants():
    for tl in (0, 10, 19):
        frame = craft(AttackSpec(AttackKind.ACL_BYPASS, total_length=tl))
        assert extract(frame, 0, VULN_250).events


# --- encode_payload -------------------------------------------------------------


def test_encode_payload_zeros():
    lses = encode_payload(bytes(8))
    assert len(lses) == 2
    assert all(not lse.bottom_of_stack and lse.label == 0 for lse in lses)


def test_encode_payload_rejects_s_bit_chunk():
    with pytest.raises(PayloadViolatesConstraint) as exc:
        encode_payload((0x00000100).to_bytes(4, "big"))
    assert exc.value.chunk_index == 0
    with pytest.raises(PayloadViolatesConstraint) as exc:
        encode_payload(bytes(8) + (0x00000100).to_bytes(4, "big"))
    assert exc.value.chunk_index == 2


def test_encode_payload_requires_padded_input():
    with pytest.raises(ValueError):
        encode_payload(bytes(6))


def test_encode_payload_roundtrip_1488_octets():
    rng = random.Random(1488)
    data = bytearray(rng.randbytes(1488))
    for i in range(2, len(data), 4):
        data[i] &= 0xFE
    lses = encode_payload(bytes(data))
    assert len(lses) == 372
    assert all(not lse.bottom_of_stack for lse in lses)
    assert b"".join(lse.encode() for lse in lses) == bytes(data)


def test_encode_payload_rejection_set_is_exact():
    rng = random.Random(4)
    for _ in range(1000):
        chunk = bytearray(rng.randbytes(4))
        should_reject = bool(chunk[2] & 1)
        if should_reject:
            with pytest.raises(PayloadViolatesConstraint):
                encode_payload(bytes(chunk))
        else:
            (lse,) = encode_payload(bytes(chunk))
            assert lse.encode() == bytes(chunk)


# --- mutate ---------------------------------------------------------------------


def test_bitflip_enumerates_distinct_variants():
    corpus = [RawFrame.of(b"\xa5")]
    budget = MutationBudget(iterations=8, seed=1, strategies=frozenset({"bitflip"}))
    variants = [frame.data for frame in mutate(corpus, budget)]
    assert len(variants) == 8
    assert len(set(variants)) == 8
    for variant in variants:
        assert bin(variant[0] ^ 0xA5).count("1") == 1


def test_mutation_stream_deterministic():
    corpus = [craft(AttackSpec(AttackKind.LONG_SHIM)), craft(AttackSpec(AttackKind.ACL_BYPASS))]
    budget = MutationBudget(iterations=500, seed=99)
    first = [f.data for f in mutate(corpus, budget)]
    second = [f.data for f in mutate(corpus, budget)]
    assert first == second
    different = [f.data for f in mutate(corpus, MutationBudget(iterations=500, seed=100))]
    assert first != different


@pytest.mark.parametrize("strategy", ["bitflip", "byteflip", "field-splice", "length-truncate", "lse-duplicate"])
def test_mutate_skips_empty_seeds(strategy):
    corpus = [craft(AttackSpec(AttackKind.LONG_SHIM)), craft(AttackSpec(AttackKind.ACL_BYPASS))]
    budget = MutationBudget(iterations=300, seed=5, strategies=frozenset({strategy}))
    with_empty = [RawFrame.of(b"")] + corpus[:1] + [RawFrame.of(b"")] + corpus[1:]
    assert [f.data for f in mutate(with_empty, budget)] == [f.data for f in mutate(corpus, budget)]


def test_corpus_without_non_empty_frame_rejected():
    budget = MutationBudget(iterations=10)
    for corpus in ([], [RawFrame.of(b"")], [RawFrame.of(b"")] * 3):
        with pytest.raises(ValueError, match="corpus must be non-empty"):
            mutate(corpus, budget)
        with pytest.raises(ValueError, match="corpus must be non-empty"):
            diff_fuzz(corpus, budget, ALL_PROFILES)


def test_diff_fuzz_counts_skipped_empty_seeds():
    corpus = [craft(AttackSpec(AttackKind.LONG_SHIM)), craft(AttackSpec(AttackKind.SHORT_SHIM))]
    budget = MutationBudget(iterations=400, seed=3)
    plain = diff_fuzz(corpus, budget, ALL_PROFILES)
    report = diff_fuzz([RawFrame.of(b"")] + corpus + [RawFrame.of(b"")], budget, ALL_PROFILES)
    assert plain.empty_seeds == 0 and report.empty_seeds == 2
    assert report.seed_count == plain.seed_count == 2
    text = report.to_text().splitlines()
    assert text[2] == "empty_seeds_skipped=2"
    assert text[:2] + text[3:] == plain.to_text().splitlines()
    assert "empty_seeds" not in plain.to_text()


def test_lse_duplicate_grows_stack():
    frame = encode_frame(
        EthernetHeader(bytes(6), bytes(6), 0x8847), [MplsLse(42, bottom_of_stack=True)]
    )
    budget = MutationBudget(iterations=1, seed=0, strategies=frozenset({"lse-duplicate"}))
    current = [frame]
    for k in range(1, 5):
        (mutant,) = list(mutate(current, budget))
        assert mutant.capture_len == 14 + 4 * (k + 1)
        current = [mutant]


def test_mutants_respect_max_len():
    corpus = [craft(AttackSpec(AttackKind.LONG_SHIM))]
    budget = MutationBudget(iterations=300, seed=5, max_len=64)
    for frame in mutate(corpus, budget):
        assert frame.capture_len <= 64


def test_budget_validation():
    with pytest.raises(ValueError):
        MutationBudget(iterations=-1)
    with pytest.raises(ValueError):
        MutationBudget(iterations=1, max_len=0)
    with pytest.raises(ValueError, match="snaplen"):
        MutationBudget(iterations=1, max_len=SNAPLEN + 1)
    assert MutationBudget(iterations=1, max_len=SNAPLEN).max_len == SNAPLEN
    with pytest.raises(ValueError):
        MutationBudget(iterations=1, strategies=frozenset({"teleport"}))
    with pytest.raises(ValueError):
        mutate([], MutationBudget(iterations=1))


def _randrange_stream(corpus, budget):
    """The mutation stream as first written, on randrange and choice: the oracle for mutate's draws."""
    rng = random.Random(budget.seed)
    strategies = sorted(budget.strategies)
    bit_cursors = [0] * len(corpus)

    for _ in range(budget.iterations):
        idx = rng.randrange(len(corpus)) if len(corpus) > 1 else 0
        strategy = strategies[rng.randrange(len(strategies))] if len(strategies) > 1 else strategies[0]
        buf = bytearray(corpus[idx].data)

        if strategy == "lse-duplicate":
            ethertype = (buf[12] << 8) | buf[13] if len(buf) >= 14 else 0
            if ethertype in (0x8847, 0x8848) and len(buf) >= 18:
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
            if ethertype == 0x0800 and len(buf) >= 34 and rng.random() < 0.5:
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


def _stream_oracle_corpora():
    """One corpus of every size below, and one of each of its frames alone.

    Each size is cut from an IPv4 frame whose total length holds its ports, one whose
    total length is 0, one whose total length needs both octets, and an MPLS frame, so
    every strategy meets frames it applies to and frames it must hand to byteflip. The
    sizes straddle length-truncate's edges: 2 is the shortest frame it cuts, and 34 the
    shortest whose IPv4 total length it shrinks.
    """
    ip = _udp(53, 1024).data
    mpls = encode_frame(EthernetHeader(bytes(6), bytes(6), 0x8848), [MplsLse(16 + n) for n in range(6)]).data
    frames = []
    for size in (1, 2, 13, 14, 17, 18, 33, 34, 35, 38):
        for whole in (ip, ip[:16] + bytes(2) + ip[18:], ip[:16] + b"\x05\xdc" + ip[18:], mpls):
            frames.append(RawFrame.of(whole[:size]))
    return [frames[:9] + [RawFrame.of(b"")] + frames[9:]] + [[frame] for frame in frames]


def test_mutate_draws_equal_randrange_stream():
    """mutate's getrandbits draws give the randrange/choice stream's octets and lengths exactly."""
    corpora = _stream_oracle_corpora()
    strategy_sets = [frozenset({strategy}) for strategy in attacks.STRATEGIES] + [frozenset(attacks.STRATEGIES)]
    mutants = 0
    for seed in range(60):
        for strategies in strategy_sets:
            for max_len in (1, 17, 9216):
                for corpus in corpora:
                    budget = MutationBudget(iterations=64 if len(corpus) > 1 else 8, seed=seed, max_len=max_len, strategies=strategies)
                    expected = list(_randrange_stream([frame for frame in corpus if frame.data], budget))
                    got = list(mutate(corpus, budget))
                    assert [(f.data, f.orig_len) for f in got] == [(f.data, f.orig_len) for f in expected], (seed, sorted(strategies), max_len, len(corpus))
                    mutants += len(got)
    assert mutants == 60 * 6 * 3 * (64 + 8 * 40)


def test_mutate_draws_equal_randrange_stream_at_bit_length_edges():
    """The same oracle on 2- and 3-seed corpora and on 2-strategy sets, where the inline rejection loops
    draw 2 bits and redraw 2 and 3, or 3 alone."""
    frames = [frame for (frame,) in _stream_oracle_corpora()[1:]]
    corpora = [frames[start : start + count] for count in (2, 3) for start in range(0, len(frames) - count + 1, count)]
    corpora += [frames[start : start + 1] for start in range(0, len(frames), 5)]
    strategy_sets = [frozenset(pair) for pair in itertools.combinations(attacks.STRATEGIES, 2)]
    strategy_sets += [frozenset({attacks.STRATEGIES[0]}), frozenset(attacks.STRATEGIES)]
    sizes = collections.Counter()
    for seed in range(6):
        for strategies in strategy_sets:
            for corpus in corpora:
                if len(corpus) == 1 and len(strategies) != 2:
                    continue
                budget = MutationBudget(iterations=24, seed=seed, max_len=17 if seed % 2 else 9216, strategies=strategies)
                expected = list(_randrange_stream(corpus, budget))
                got = list(mutate(corpus, budget))
                assert [(f.data, f.orig_len) for f in got] == [(f.data, f.orig_len) for f in expected], (seed, sorted(strategies), len(corpus))
                sizes[len(corpus), len(strategies)] += len(got)
    assert set(sizes) == {(1, 2), (2, 1), (2, 2), (2, 5), (3, 1), (3, 2), (3, 5)}, sizes


# --- diff_fuzz ------------------------------------------------------------------


def test_diff_fuzz_seed_alone_reports_exemplar():
    corpus = [craft(AttackSpec(AttackKind.LONG_SHIM))]
    report = diff_fuzz(corpus, MutationBudget(iterations=0), ALL_PROFILES)
    assert report.class_counts[VulnClass.LONG_STACK_232] == 1
    exemplar = report.exemplars[VulnClass.LONG_STACK_232]
    assert extract(exemplar, 0, VULN_232).events
    # greedy suffix truncation floor: 4 entries (one past the limit) + Ethernet
    assert exemplar.capture_len == 14 + 4 * 4
    assert report.hardened_event_count == 0
    assert report.equivalence_violations == 0
    assert not report.has_failures


def test_diff_fuzz_bitflip_soak_keeps_hardened_silent():
    eth = EthernetHeader(bytes.fromhex("020000000002"), bytes.fromhex("020000000001"), 0x0800)
    ip = Ipv4Header(total_length=28, protocol=17, src_ip=1, dst_ip=2)
    udp = encode_frame(eth, [ip], payload=bytes.fromhex("00350400" "00080000"))
    report = diff_fuzz([udp], MutationBudget(iterations=10_000, seed=7), ALL_PROFILES)
    assert report.hardened_event_count == 0
    assert report.equivalence_violations == 0


def test_diff_fuzz_length_truncate_finds_ip_underflow():
    eth = EthernetHeader(bytes.fromhex("020000000002"), bytes.fromhex("020000000001"), 0x0800)
    ip = Ipv4Header(total_length=28, protocol=17, src_ip=1, dst_ip=2)
    udp = encode_frame(eth, [ip], payload=bytes.fromhex("00350400" "00080000"))
    budget = MutationBudget(iterations=200, seed=3, strategies=frozenset({"length-truncate"}))
    report = diff_fuzz([udp], budget, ALL_PROFILES)
    assert report.class_counts.get(VulnClass.IP_UNDERFLOW_250, 0) >= 1
    exemplar = report.exemplars[VulnClass.IP_UNDERFLOW_250]
    assert classify_events(extract(exemplar, 0, VULN_250).events) is VulnClass.IP_UNDERFLOW_250


def test_diff_fuzz_requires_hardened_plus_vulnerable():
    frame = craft(AttackSpec(AttackKind.LONG_SHIM))
    with pytest.raises(ValueError):
        diff_fuzz([frame], MutationBudget(iterations=0), [VULN_232])
    with pytest.raises(ValueError):
        diff_fuzz([frame], MutationBudget(iterations=0), [HARDENED])


def test_minimize_preserves_class_label():
    for kind, profile, cls in (
        (AttackKind.LONG_SHIM, VULN_232, VulnClass.LONG_STACK_232),
        (AttackKind.SHORT_SHIM, VULN_240, VulnClass.SHORT_LSE_240),
        (AttackKind.ACL_BYPASS, VULN_250, VulnClass.IP_UNDERFLOW_250),
    ):
        frame = craft(AttackSpec(kind))
        small = minimize(frame, cls, (HARDENED, profile))
        assert small.capture_len <= frame.capture_len
        assert classify_events(extract(small, 0, profile).events) is cls


def _udp(sport, dport):
    eth = EthernetHeader(bytes.fromhex("020000000002"), bytes.fromhex("020000000001"), 0x0800)
    ip = Ipv4Header(total_length=28, protocol=17, src_ip=0x0A000001, dst_ip=0x0A000002)
    return encode_frame(eth, [ip], payload=struct.pack(">HHHH", sport, dport, 8, 0))


@pytest.mark.parametrize("skew_hardened", [False, True], ids=["vulnerable", "hardened"])
def test_equivalence_violation_still_detected(monkeypatch, skew_hardened):
    """The key comparison is live: profiles that skew COMPLETE keys, and fire nothing, are caught."""
    real = attacks.extract

    def skewed(frame, in_port, profile, adjacent=None):
        result = real(frame, in_port, profile, adjacent)
        if result.key.parse_status is ParseStatus.COMPLETE and (profile.mode is ParserMode.HARDENED) == skew_hardened:
            return result._replace(key=result.key._replace(ip_ttl=result.key.ip_ttl ^ 1))
        return result

    corpus = [_udp(53, 1024), _udp(1234, 80)]
    budget = MutationBudget(iterations=500, seed=11)
    complete = sum(
        real(frame, 0, HARDENED).key.parse_status is ParseStatus.COMPLETE for frame in [*corpus, *mutate(corpus, budget)]
    )
    monkeypatch.setattr(attacks, "extract", skewed)
    report = diff_fuzz(corpus, budget, ALL_PROFILES)
    assert report.equivalence_violations == complete > 0
    assert report.violation_exemplar is not None
    assert real(report.violation_exemplar, 0, HARDENED).key.parse_status is ParseStatus.COMPLETE
    assert report.has_failures
    # Brute force: the exemplar is the shortest, then lexicographically first,
    # frame on which no profile fires and the skewed keys disagree.
    violating = []
    for frame in [*corpus, *mutate(corpus, budget)]:
        results = [skewed(frame, 0, profile) for profile in ALL_PROFILES]
        if not any(r.events for r in results) and len({r.key for r in results}) > 1:
            violating.append(frame.data)
    assert len(violating) == complete
    assert report.violation_exemplar == RawFrame.of(min(violating, key=lambda data: (len(data), data)))


def _c6_corpus():
    mpls_ok = encode_frame(
        EthernetHeader(bytes.fromhex("020000000002"), bytes.fromhex("020000000001"), 0x8847),
        [MplsLse(16), MplsLse(17, bottom_of_stack=True)],
    )
    return [craft(AttackSpec(kind)) for kind in AttackKind] + [_udp(53, 1024), mpls_ok]


# sha256 of to_text() and the exemplar octets, per mutation seed.
_PINNED_FUZZ = {
    1: "285977136f20e969d7b39fad57912b305d51838408b6564b07a89c8c4f6b4002",
    2: "ee49dea9db232dbab2499f1429a8912c93cf605b54620ef6d6812830970b0c90",
    3: "d732eec6666bc2940f10d2ef100638f94ad8b890e6a53b652f3763199e5f42ba",
}


@pytest.mark.parametrize("seed", sorted(_PINNED_FUZZ))
def test_fuzz_report_and_exemplars_pinned(seed):
    report = diff_fuzz(_c6_corpus(), MutationBudget(iterations=2000, seed=seed), ALL_PROFILES)
    h = hashlib.sha256(report.to_text().encode())
    for frame in report.exemplar_frames():
        h.update(frame.data)
    assert h.hexdigest() == _PINNED_FUZZ[seed]


def test_minimize_independent_of_profile_order():
    frames = [craft(AttackSpec(kind)) for kind in AttackKind]
    frames.append(RawFrame.of(frames[0].data[:203]))  # truncated long shim: trips v232 and v240
    for frame in frames:
        for cls in (VulnClass.LONG_STACK_232, VulnClass.SHORT_LSE_240, VulnClass.IP_UNDERFLOW_250):
            results = {minimize(frame, cls, order).data for order in itertools.permutations(ALL_PROFILES)}
            assert len(results) == 1, (frame.capture_len, cls)


_BUG_CLASSES = (VulnClass.LONG_STACK_232, VulnClass.SHORT_LSE_240, VulnClass.IP_UNDERFLOW_250)
# Every mode at label limits 1 and 3.
_LIMIT_PROFILES = tuple(ParserProfile(mode, limit) for mode in ParserMode for limit in (1, 3))


def _classes(data, profiles=_LIMIT_PROFILES):
    """The bug classes extraction of data emits under any of profiles."""
    frame = RawFrame.of(data)
    return {classify_events(extract(frame, 0, profile).events) for profile in profiles} - {VulnClass.BENIGN}


def _small_corpus():
    """The crafted kinds, with a 16-entry long shim so minimizing its mutants stays cheap, and two benign frames."""
    corpus = _c6_corpus()
    corpus[0] = craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=78))
    return corpus


def test_no_class_survives_a_prefix_trim():
    """A class needs ethertype 0x8847/0x8848 or 0x0800 in octets 12-13; dropping the first octet moves
    0x47, 0x48 or 0x00 into the high place, so no frame that fires a class fires one after a prefix trim."""
    fired = collections.Counter()
    for corpus in (_c6_corpus(), _small_corpus()):
        for seed in (1, 2, 3):
            for frame in [*corpus, *mutate(corpus, MutationBudget(iterations=3000, seed=seed))]:
                classes = _classes(frame.data)
                if classes:
                    fired.update(classes)
                    assert not _classes(frame.data[1:]), frame.data.hex()
    assert min(fired[cls] for cls in _BUG_CLASSES) >= 1000, fired


def _two_phase_minimize(frame, cls, profiles):
    """minimize with its former prefix phase: greedy 1-octet suffix, then prefix, truncation."""

    def triggers(data):
        return bool(data) and cls in _classes(data, profiles)

    data = frame.data
    while len(data) > 1 and triggers(data[:-1]):
        data = data[:-1]
    while len(data) > 1 and triggers(data[1:]):
        data = data[1:]
    return RawFrame.of(data)


def test_minimize_equals_two_phase_trim():
    """Suffix trimming alone gives the former suffix-then-prefix answer on every crafted kind and class,
    and on a few hundred class-firing mutants per class."""
    for kind in AttackKind:
        for cls in _BUG_CLASSES:
            frame = craft(AttackSpec(kind))
            assert minimize(frame, cls, ALL_PROFILES) == _two_phase_minimize(frame, cls, ALL_PROFILES)
    firing = {cls: [] for cls in _BUG_CLASSES}
    for frame in mutate(_small_corpus(), MutationBudget(iterations=3000, seed=5)):
        for cls in _classes(frame.data, ALL_PROFILES):
            firing[cls].append(frame)
    for cls, frames in firing.items():
        assert len(frames) >= 300, (cls, len(frames))
        for frame in frames[:300]:
            assert minimize(frame, cls, ALL_PROFILES) == _two_phase_minimize(frame, cls, ALL_PROFILES)


def _greedy_minimize(frame, cls, profiles):
    """minimize as a greedy 1-octet suffix trim for every class, before LongStack and IpUnderflow bisected."""
    order = list(profiles)

    def triggers(data: bytes) -> bool:
        candidate = RawFrame(data, len(data))
        for index, profile in enumerate(order):
            events = extract(candidate, 0, profile)[1]
            if events and classify_events(events) is cls:
                if index:
                    order.insert(0, order.pop(index))
                return True
        return False

    data = frame.data
    while len(data) > 1:
        candidate = data[:-1]
        if not triggers(candidate):
            break
        data = candidate
    return RawFrame(data, len(data))


def _at_limits(*limits):
    """Every mode, at each of the label limits."""
    return tuple(ParserProfile(mode, limit) for limit in limits for mode in ParserMode)


_V232_AT = {limit: ParserProfile(ParserMode.VULN_232, limit) for limit in (1, 2, 3, 5)}
# Label limits 1, 2, 3 and 5 alone, mixed v232 limits in both orders, and a set without v232 or v250.
_MINIMIZE_PROFILE_SETS = (
    _at_limits(1),
    _at_limits(2),
    ALL_PROFILES,
    _at_limits(5),
    (HARDENED, _V232_AT[5], VULN_240, _V232_AT[2], VULN_250),
    (_V232_AT[1], VULN_250, _V232_AT[5], HARDENED, ParserProfile(ParserMode.VULN_240, 1)),
    (HARDENED, VULN_240),
)


def _sized(kind, size):
    """The crafted frame of kind at size octets: a long shim is crafted at it, the others cut or zero-padded to it."""
    if kind is AttackKind.LONG_SHIM:
        return craft(AttackSpec(kind, frame_size=size))
    data = craft(AttackSpec(kind)).data
    return RawFrame.of(data[:size] + bytes(max(0, size - len(data))))


def _mid_stack_s_flags():
    """16-entry long shims with the bottom-of-stack flag on entry k: none fires a class whole, yet a prefix that
    cuts entry k off fires LongStack when more entries than the label limit remain."""
    data = craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=78)).data
    frames = []
    for entry in range(16):
        cut = 14 + 4 * entry
        frames.append(RawFrame.of(data[: cut + 2] + b"\x01" + data[cut + 3 :]))
    return frames


def test_minimize_equals_greedy_trim_on_every_kind_and_size():
    """Bisection gives the greedy suffix trim's answer for every kind at sizes 18-64 under every profile set,
    at 1,514 octets under label limits 2, 3 and 5, and at 9,216 and 65,535 under the default profiles."""
    cases = [(size, _MINIMIZE_PROFILE_SETS) for size in range(18, 65)]
    cases += [(1514, _MINIMIZE_PROFILE_SETS[1:4])]
    cases += [(size, (ALL_PROFILES,)) for size in (9216, 65535)]
    fired = collections.Counter()
    for size, profile_sets in cases:
        for kind in AttackKind:
            frame = _sized(kind, size)
            for profiles in profile_sets:
                classes = _classes(frame.data, profiles)
                fired.update(classes)
                for cls in _BUG_CLASSES:
                    assert minimize(frame, cls, profiles) == _greedy_minimize(frame, cls, profiles), (kind, size, cls, profiles)
    assert min(fired[cls] for cls in _BUG_CLASSES) >= 100, fired


def test_minimize_equals_greedy_trim_on_firing_mutants_and_non_firing_frames():
    """At least 300 firing frames per class and profile set, among them long-shim truncations that fire
    ShortLse after one or more complete entries, and frames that fire nothing whole."""
    long_shim = craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=78)).data
    truncations = [RawFrame.of(long_shim[:size]) for size in range(15, 78) if (size - 14) % 4]
    mutants = list(mutate(_small_corpus(), MutationBudget(iterations=3000, seed=5)))
    for profiles in _MINIMIZE_PROFILE_SETS:
        firing = {cls: [] for cls in _BUG_CLASSES}
        for frame in truncations + mutants:
            for cls in _classes(frame.data, profiles):
                firing[cls].append(frame)
        modes = {profile.mode for profile in profiles}
        for cls, mode in zip(_BUG_CLASSES, (ParserMode.VULN_232, ParserMode.VULN_240, ParserMode.VULN_250)):
            frames = firing[cls]
            assert len(frames) >= 300 if mode in modes else not frames, (cls, len(frames))
            for frame in frames[:300]:
                assert minimize(frame, cls, profiles) == _greedy_minimize(frame, cls, profiles), (frame.data.hex(), cls)
        silent = _mid_stack_s_flags() + [_udp(53, 1024), _sized(AttackKind.ACL_BYPASS, 33)]
        for frame in silent:
            assert not _classes(frame.data, profiles)
            for cls in _BUG_CLASSES:
                assert minimize(frame, cls, profiles) == _greedy_minimize(frame, cls, profiles), (frame.data.hex(), cls)
    # A stack that ends mid-frame fires nothing whole, and the trim stops at once; below its end, LongStack fires.
    frame = _mid_stack_s_flags()[8]
    assert minimize(frame, VulnClass.LONG_STACK_232, ALL_PROFILES) == frame
    assert _classes(frame.data[: 14 + 4 * 8], ALL_PROFILES) == {VulnClass.LONG_STACK_232}


@pytest.mark.parametrize("profiles", [ALL_PROFILES, tuple(reversed(ALL_PROFILES)), _MINIMIZE_PROFILE_SETS[5]])
def test_minimize_largest_long_shim_in_logarithmic_extract_calls(monkeypatch, profiles):
    """A 65,535-octet long shim minimizes to one entry past the smallest v232 limit in at most
    (ceil(log2 n) + 2) extract calls per v232 profile, the only mode that emits LongStack."""
    frame = craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=SNAPLEN))
    real = attacks.extract
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(attacks, "extract", counted)
    exemplar = minimize(frame, VulnClass.LONG_STACK_232, profiles)
    limit = min(p.label_limit for p in profiles if p.mode is ParserMode.VULN_232)
    assert exemplar == RawFrame.of(frame.data[: 14 + 4 * (limit + 1)])
    v232 = [p for p in profiles if p.mode is ParserMode.VULN_232]
    assert {args[2] for args in calls} <= set(v232)
    assert 0 < len(calls) <= len(v232) * (math.ceil(math.log2(SNAPLEN)) + 2), len(calls)


def test_report_text_format():
    report = diff_fuzz(
        [craft(AttackSpec(AttackKind.LONG_SHIM)), craft(AttackSpec(AttackKind.SHORT_SHIM))],
        MutationBudget(iterations=0),
        ALL_PROFILES,
    )
    text = report.to_text()
    assert "class=LongStack-2.3.2 count=1" in text
    assert "class=ShortLse-2.4.0 count=1" in text
    assert "equivalence_violations=0" in text
    assert "hardened_events=0" in text
    # A class never found prints its count and no exemplar length.
    assert "class=IpUnderflow-2.5.0 count=0" in text.splitlines()


def test_long_shim_frame_size_bounded_by_snaplen():
    assert craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=SNAPLEN)).capture_len <= SNAPLEN
    with pytest.raises(ValueError, match="snaplen"):
        AttackSpec(AttackKind.LONG_SHIM, frame_size=SNAPLEN + 1)


# --- verdict memo -----------------------------------------------------------------


# The ethertypes each bug's trigger needs: an MPLS stack (RFC 3032) or an IPv4 header (RFC 791).
_TRIGGER_ETHERTYPES = {
    ParserMode.VULN_232: {0x8847, 0x8848},
    ParserMode.VULN_240: {0x8847, 0x8848},
    ParserMode.VULN_250: {0x0800},
}


def _ethertype(data):
    """Octets 12-13 of a frame, or None when it is too short for an Ethernet header."""
    return int.from_bytes(data[12:14], "big") if len(data) >= 14 else None


def _asked(vulnerable, malformed, ethertype):
    """The vulnerable profiles diff_fuzz asks: on a MALFORMED frame, each whose bug needs the frame's ethertype;
    on every frame, the first of each label limit among the others."""
    asked, limits = [], set()
    for p in vulnerable:
        if malformed and ethertype in _TRIGGER_ETHERTYPES[p.mode]:
            asked.append(p)
        elif p.label_limit not in limits:
            limits.add(p.label_limit)
            asked.append(p)
    return asked


def _reference_diff_fuzz(corpus, budget, profiles, ask_all=False):
    """diff_fuzz without its verdict memo: every frame, repeated or not, is judged afresh.

    ``ask_all`` asks every profile about every frame instead of the profiles ``_asked`` names.
    """
    profiles = tuple(profiles)
    hardened = tuple(p for p in profiles if p.mode is ParserMode.HARDENED)
    vulnerable = tuple(p for p in profiles if p.mode is not ParserMode.HARDENED)
    seeds = tuple(frame for frame in corpus if frame.data)
    counts, best, hardened_events = {}, {}, 0
    for frame in itertools.chain(seeds, attacks.mutate(seeds, budget)):
        results = [attacks.extract(frame, 0, profile) for profile in hardened]
        malformed = any(result.key.parse_status is ParseStatus.MALFORMED for result in results)
        results += [attacks.extract(frame, 0, profile)
                    for profile in (vulnerable if ask_all else _asked(vulnerable, malformed, _ethertype(frame.data)))]
        found = [classify_events(result.events) for result in results if result.events]
        if found:
            hardened_events += sum(1 for result in results[: len(hardened)] if result.events)
        elif any(result.key != results[0].key for result in results[1:]):
            found = [None]
        for cls in found:
            rank = (frame.capture_len, frame.data)
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
        exemplars={cls: attacks.minimize(RawFrame(data, size), cls, profiles) for cls, (size, data) in best.items()},
        equivalence_violations=violations,
        violation_exemplar=RawFrame(violation[1], violation[0]) if violation else None,
        hardened_event_count=hardened_events,
        empty_seeds=len(corpus) - len(seeds),
    )


def _noisy(real):
    """extract, but on a fixed eighth of frames each the hardened parser fires, or skews an event-free key.

    So hardened events and equivalence violations both accrue, on repeated frames too. On
    another eighth, a silent vulnerable profile of label limit 1 fires: profiles of one limit
    still agree, and on a frame the hardened profiles accept only the first of them is asked.
    """
    fake = CorruptionEvent(CorruptionKind.HEAP_OVERREAD, 0, 1)
    fake_short = CorruptionEvent(CorruptionKind.SHORT_LSE_OVERFLOW, 0, 1)

    def noisy(frame, in_port, profile, adjacent=None):
        result = real(frame, in_port, profile, adjacent)
        tag = zlib.crc32(frame.data) % 8
        if profile.mode is ParserMode.HARDENED:
            if tag == 0:
                return result._replace(events=(fake,))
            if tag == 1 and not result.events:
                return result._replace(key=result.key._replace(in_port=in_port + 1))
        elif tag == 2 and profile.label_limit == 1 and not result.events:
            return result._replace(events=(fake_short,))
        return result

    return noisy


def _duplicated_corpora():
    """Seeded corpora in which seeds repeat, whole or as copies of one frame."""
    rng = random.Random(22)
    c6 = _c6_corpus()
    shuffled = c6 * 2 + [RawFrame.of(b"")]
    rng.shuffle(shuffled)
    mutants = list(mutate(c6, MutationBudget(iterations=6, seed=rng.getrandbits(32))))
    return [c6 + c6[:2], shuffled, mutants + mutants[::2] + c6[1:3]]


_MIXED_LIMITS = (
    ParserProfile(ParserMode.HARDENED, 1),
    ParserProfile(ParserMode.VULN_232, 3),
    ParserProfile(ParserMode.VULN_240, 1),
    VULN_250,
)

# Two hardened profiles, and vulnerable ones at both limits with one profile given twice:
# on a frame the hardened profiles accept, only the first of each limit may be asked.
_TWO_HARDENED = (
    ParserProfile(ParserMode.HARDENED, 3),
    ParserProfile(ParserMode.HARDENED, 1),
    ParserProfile(ParserMode.VULN_240, 1),
    ParserProfile(ParserMode.VULN_232, 3),
    ParserProfile(ParserMode.VULN_240, 1),
    ParserProfile(ParserMode.VULN_250, 3),
)


# The first vulnerable profile reads one label, as the hardened one does; only the later ones
# (limit 3) show keys that differ on deeper stacks, so asking just the first would miss them.
_LOW_LIMIT_FIRST = (
    ParserProfile(ParserMode.HARDENED, 1),
    ParserProfile(ParserMode.VULN_240, 1),
    ParserProfile(ParserMode.VULN_232, 3),
    VULN_250,
)


# At label limit 3 only v250, whose trigger never lies behind MPLS. On an unterminated stack
# of two entries or more that fires nothing (the long shim itself, under no v232), only its
# key shows the deeper depth, so a MALFORMED MPLS frame must ask it as the first other
# profile of its limit.
_NO_MPLS_TRIGGER_AT_3 = (
    ParserProfile(ParserMode.HARDENED, 1),
    ParserProfile(ParserMode.VULN_240, 1),
    VULN_250,
)


def _same_report(report, expected):
    assert report.to_text() == expected.to_text()
    assert [frame.data for frame in report.exemplar_frames()] == [frame.data for frame in expected.exemplar_frames()]
    assert report.violation_exemplar == expected.violation_exemplar


@pytest.mark.parametrize("iterations", [0, 1, 2000])
@pytest.mark.parametrize(
    "profiles",
    [ALL_PROFILES, _MIXED_LIMITS, _TWO_HARDENED, _LOW_LIMIT_FIRST, _NO_MPLS_TRIGGER_AT_3],
    ids=["all", "mixed-limits", "two-hardened", "low-limit-first", "no-mpls-trigger-at-3"],
)
@pytest.mark.parametrize("noisy", [False, True], ids=["real", "noisy"])
def test_diff_fuzz_equals_memo_free_reference(monkeypatch, iterations, profiles, noisy):
    """With the real extract the reference asks every profile about every frame, so the
    profiles diff_fuzz skips are checked by an oracle that does not share its rule."""
    if noisy:
        monkeypatch.setattr(attacks, "extract", _noisy(attacks.extract))
    for index, corpus in enumerate(_duplicated_corpora()):
        budget = MutationBudget(iterations=iterations, seed=100 + index)
        expected = _reference_diff_fuzz(corpus, budget, profiles, ask_all=not noisy)
        _same_report(diff_fuzz(corpus, budget, profiles), expected)
        if noisy and iterations >= 2000:
            assert expected.hardened_event_count and expected.equivalence_violations


@pytest.mark.parametrize("cap", [None, 8, 1])
def test_diff_fuzz_judges_each_distinct_frame_once(monkeypatch, cap):
    """Outside minimize, extract runs once per profile asked on each admitted distinct frame.

    Frames past the first ``VERDICT_MEMO_FRAMES`` distinct ones are judged at every occurrence.
    Every hardened profile is asked about every frame, and the vulnerable ones as ``_asked``
    says: about a MALFORMED frame, each whose bug needs its ethertype and the first of each label
    limit among the others; about any other frame, the first of each label limit.
    """
    real_extract, real_minimize = attacks.extract, attacks.minimize
    position = {id(profile): index for index, profile in enumerate(_TWO_HARDENED)}
    calls = collections.Counter()
    minimizing = []

    def counting(frame, in_port, profile, adjacent=None):
        if not minimizing:
            calls[frame.data, position[id(profile)]] += 1
        return real_extract(frame, in_port, profile, adjacent)

    def uncounted_minimize(*args):
        minimizing.append(True)
        try:
            return real_minimize(*args)
        finally:
            minimizing.pop()

    monkeypatch.setattr(attacks, "extract", counting)
    monkeypatch.setattr(attacks, "minimize", uncounted_minimize)
    if cap is not None:
        monkeypatch.setattr(attacks, "VERDICT_MEMO_FRAMES", cap)
    corpus = _c6_corpus() * 2
    budget = MutationBudget(iterations=2000, seed=22)
    stream = [frame.data for frame in itertools.chain(corpus, mutate(corpus, budget))]
    occurrences = collections.Counter(stream)
    hardened = [p for p in _TWO_HARDENED if p.mode is ParserMode.HARDENED]
    vulnerable = [p for p in _TWO_HARDENED if p.mode is not ParserMode.HARDENED]
    asked = {}
    counts_by_kind = collections.defaultdict(set)
    for data in occurrences:
        frame = RawFrame(data, len(data))
        malformed = any(real_extract(frame, 0, p).key.parse_status is ParseStatus.MALFORMED for p in hardened)
        ethertype = _ethertype(data)
        asked[data] = [position[id(p)] for p in hardened + _asked(vulnerable, malformed, ethertype)]
        kind = ("malformed-" + {None: "short", 0x0800: "ipv4", 0x8847: "mpls", 0x8848: "mpls"}[ethertype]) if malformed else "accepted"
        counts_by_kind[kind].add(len(asked[data]))
    # Every kind of frame occurs. Besides the 2 hardened profiles: an accepted or short frame asks the first
    # of each limit (v240/1, v232/3); an MPLS one all 4 (v250/3 as the first other of limit 3); an IPv4 one
    # v250/3 and the first others of each limit (v240/1, v232/3), skipping the second v240/1.
    assert counts_by_kind == {"accepted": {4}, "malformed-mpls": {6}, "malformed-ipv4": {5}, "malformed-short": {4}}
    expected = _reference_diff_fuzz(corpus, budget, _TWO_HARDENED)

    calls.clear()
    _same_report(diff_fuzz(corpus, budget, _TWO_HARDENED), expected)
    distinct = list(dict.fromkeys(stream))
    admitted = set(distinct[: attacks.VERDICT_MEMO_FRAMES])
    assert len(admitted) == min(len(distinct), attacks.VERDICT_MEMO_FRAMES)
    assert calls == {(data, index): 1 if data in admitted else occurrences[data]
                     for data in distinct for index in asked[data]}
    assert len(distinct) < len(stream)
    if cap is None:  # every distinct frame admitted: each is judged exactly once
        assert len(distinct) <= attacks.VERDICT_MEMO_FRAMES
        assert set(calls.values()) == {1}


def test_diff_fuzz_memo_lives_one_call(monkeypatch):
    """A second identical call judges every frame again: nothing is kept between calls."""
    real = attacks.extract
    calls = []
    monkeypatch.setattr(attacks, "extract", lambda frame, *rest: calls.append(frame.data) or real(frame, *rest))
    corpus = _c6_corpus()
    budget = MutationBudget(iterations=300, seed=9)
    first = diff_fuzz(corpus, budget, ALL_PROFILES)
    first_calls = list(calls)
    calls.clear()
    second = diff_fuzz(corpus, budget, ALL_PROFILES)
    assert calls == first_calls
    _same_report(second, first)
