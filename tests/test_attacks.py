import random

import pytest

from shimguard.attacks import (
    AttackKind,
    AttackSpec,
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
    CorruptionKind,
    Verdict,
    VulnClass,
    classify_events,
    extract,
)
from shimguard.flowtable import Dropped, Forwarded, SwitchState, load_rules
from shimguard.packet import EthernetHeader, Ipv4Header, MplsLse, RawFrame, encode_frame
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
        MutationBudget(iterations=1, strategies=frozenset({"teleport"}))
    with pytest.raises(ValueError):
        mutate([], MutationBudget(iterations=1))


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


def test_long_shim_frame_size_bounded_by_snaplen():
    assert craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=SNAPLEN)).capture_len <= SNAPLEN
    with pytest.raises(ValueError, match="snaplen"):
        AttackSpec(AttackKind.LONG_SHIM, frame_size=SNAPLEN + 1)
