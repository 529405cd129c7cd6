"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Each criterion carries a wall-clock budget that is asserted too.
"""

import functools
import random
import struct
import time

from shimguard.attacks import AttackKind, AttackSpec, MutationBudget, craft, diff_fuzz
from shimguard.bench import (
    LATENCY_CSV_HEADER,
    THROUGHPUT_CSV_HEADER,
    BenchConfig,
    PathMode,
    compare_latency,
    latency_csv,
    run_latency,
    run_throughput,
    throughput_csv,
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
    extract,
)
from shimguard.flowtable import (
    Drop,
    Dropped,
    Forwarded,
    Output,
    Rule,
    SwitchState,
    ToController,
    load_rules,
)
from shimguard.packet import (
    EthernetHeader,
    Ipv4Header,
    MplsLse,
    ParseStatus,
    RawFrame,
    decode_lse,
    encode_frame,
)
from shimguard.attacks import PayloadViolatesConstraint, encode_payload
from shimguard.pcap import read_pcap, write_pcap
from shimguard.wormsim import CONTROLLER, StageTimings, Topology, simulate, simulate_dos

MAC_A = bytes.fromhex("020000000001")
MAC_B = bytes.fromhex("020000000002")


def criterion(label, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < budget_s, f"{label}: runtime {elapsed:.2f}s exceeds {budget_s}s budget"
            print(f"\nACCEPTANCE {label}: PASS ({elapsed:.2f}s)")

        return run

    return wrap


@criterion("C1 long-shim detection", budget_s=1.0)
def test_c1_long_shim_detection():
    frame = craft(AttackSpec(AttackKind.LONG_SHIM))
    assert frame.capture_len == 1514
    labels = (frame.capture_len - 14) // 4
    assert labels == 375
    vulnerable = extract(frame, 0, VULN_232)  # label_limit defaults to 3
    assert len(vulnerable.events) == 1
    event = vulnerable.events[0]
    assert event.kind is CorruptionKind.STACK_OVERFLOW_WRITE
    assert event.byte_count == 4 * (labels - 3) == 1488
    hardened = extract(frame, 0, HARDENED)
    assert hardened.events == ()
    assert hardened.verdict is Verdict.DROP


@criterion("C2 short-shim detection", budget_s=1.0)
def test_c2_short_shim_detection():
    frame = craft(AttackSpec(AttackKind.SHORT_SHIM))  # 16-bit trailing fragment
    assert frame.capture_len == 16
    vulnerable = extract(frame, 0, VULN_240)
    assert len(vulnerable.events) == 1
    event = vulnerable.events[0]
    assert event.kind is CorruptionKind.SHORT_LSE_OVERFLOW
    assert event.byte_count == 2
    hardened = extract(frame, 0, HARDENED)
    assert hardened.events == ()
    assert hardened.verdict is Verdict.DROP


@criterion("C3 ACL bypass differential", budget_s=1.0)
def test_c3_acl_bypass_differential():
    rules_text = (
        "priority=10, parse_status=Complete, l4_dst=8080, actions=drop\n"
        "priority=1, actions=output:1\n"
    )
    frame = craft(AttackSpec(AttackKind.ACL_BYPASS, total_length=0, dport=8080))
    hardened_state = SwitchState(load_rules(rules_text))
    assert hardened_state.process(frame, 1, HARDENED) == Dropped()
    vulnerable_state = SwitchState(load_rules(rules_text))
    assert vulnerable_state.process(frame, 1, VULN_250) == Forwarded((1,))
    result = extract(frame, 0, VULN_250)
    assert result.events[0].kind is CorruptionKind.HEAP_OVERREAD
    assert result.events[0].byte_count == 2


@criterion("C4 worm timing reproduction", budget_s=1.0)
def test_c4_worm_timing():
    single = simulate(Topology(compute_nodes=1), StageTimings())
    assert single.shell_time(CONTROLLER) == 21.0  # exact by construction
    hundred = simulate(Topology(compute_nodes=100), StageTimings())
    assert hundred.total_compromise_time <= 100.0


@criterion("C5 DoS interval model", budget_s=1.0)
def test_c5_dos_intervals():
    topology = Topology(compute_nodes=1)
    single = simulate_dos(topology, StageTimings(), repeats=1)["node0"]
    assert single.total == 4.5
    assert single.intervals == ((0.0, 4.5),)
    for k in (2, 3, 7):
        merged = simulate_dos(topology, StageTimings(), repeats=k)["node0"]
        assert merged.total == 4.5 * k
        assert merged.intervals == ((0.0, 4.5 * k),)


def _udp_seed(sport, dport):
    ip = Ipv4Header(total_length=28, protocol=17, src_ip=0x0A000001, dst_ip=0x0A000002)
    return encode_frame(
        EthernetHeader(MAC_B, MAC_A, 0x0800), [ip], payload=struct.pack(">HHHH", sport, dport, 8, 0)
    )


@criterion("C6 differential fuzz soak", budget_s=60.0)
def test_c6_differential_fuzz_soak():
    mpls_ok = encode_frame(
        EthernetHeader(MAC_B, MAC_A, 0x8847),
        [MplsLse(16), MplsLse(17, bottom_of_stack=True)],
    )
    corpus = [
        craft(AttackSpec(AttackKind.LONG_SHIM)),
        craft(AttackSpec(AttackKind.SHORT_SHIM)),
        craft(AttackSpec(AttackKind.ACL_BYPASS)),
        _udp_seed(53, 1024),
        mpls_ok,
    ]
    report = diff_fuzz(corpus, MutationBudget(iterations=100_000, seed=1337), ALL_PROFILES)
    assert report.hardened_event_count == 0
    assert report.equivalence_violations == 0
    for cls in (VulnClass.LONG_STACK_232, VulnClass.SHORT_LSE_240, VulnClass.IP_UNDERFLOW_250):
        assert report.class_counts.get(cls, 0) >= 1, f"no exemplar for {cls}"
        assert cls in report.exemplars


def _ruleset(rng):
    pool = {
        "eth_type": [0x0800, 0x8847],
        "ip_proto": [6, 17],
        "l4_dst": [53, 80, 8080],
        "l4_src": [53, 1024],
        "ip_src": [0x0A000001, 0x0A000002],
        "ip_dst": [0x0A000001, 0x0A000002],
        "in_port": [1, 2],
        "mpls_label": [16, 100],
        "mpls_s": [0, 1],
        "parse_status": list(ParseStatus),
    }
    rules = []
    for _ in range(rng.randrange(1, 9)):
        fields = rng.sample(sorted(pool), k=rng.randrange(0, 4))
        match = tuple((f, rng.choice(pool[f])) for f in fields)
        actions = rng.choice([(Output(rng.randrange(1, 4)),), (Drop(),), (ToController(),)])
        rules.append(Rule(priority=rng.randrange(1, 16), match=match, actions=actions))
    return rules


def _traffic(rng, count):
    eth_mpls = EthernetHeader(MAC_B, MAC_A, 0x8847)
    frames = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            frames.append(_udp_seed(rng.choice([53, 1024]), rng.choice([53, 80, 8080])))
        elif kind == 1:
            n = rng.randrange(1, 5)
            lses = [MplsLse(rng.choice([16, 100])) for _ in range(n - 1)]
            lses.append(MplsLse(rng.choice([16, 100]), bottom_of_stack=True))
            frames.append(encode_frame(eth_mpls, lses))
        elif kind == 2:
            frames.append(craft(AttackSpec(AttackKind.ACL_BYPASS)))
        elif kind == 3:
            frames.append(RawFrame.of(rng.randbytes(rng.randrange(1, 70))))
        elif kind == 4:
            frames.append(RawFrame.of(eth_mpls.encode() + rng.randbytes(rng.randrange(1, 12))))
        else:
            frames.append(_udp_seed(rng.randrange(1, 65000), rng.choice([80, 8080])))
    return frames


@criterion("C7 cache equivalence oracle", budget_s=60.0)
def test_c7_cache_equivalence():
    # no_rule_match counts upcalls, so it legitimately differs between the two
    counters = ("processed", "forwards", "drops", "to_controller", "pop_mpls_noop")
    rng = random.Random(2024)
    for profile in ALL_PROFILES:
        for round_no in range(100):
            rules = _ruleset(rng)
            cached = SwitchState(rules)
            uncached = SwitchState(rules, megaflow_enabled=False)
            where = f"{profile.mode} ruleset {round_no}"
            for i, frame in enumerate(_traffic(rng, 200)):
                port = rng.choice([1, 2])
                with_cache = cached.process(frame, port, profile)
                without_cache = uncached.process(frame, port, profile)
                assert with_cache == without_cache, f"{where} frame {i}: {with_cache} != {without_cache}"
            for counter in counters:
                assert cached.stats[counter] == uncached.stats[counter], f"{where}: {counter}"
            assert cached.stats["slow_path_upcalls"] == cached.megaflow_entry_count()


@criterion("C8 bench ordering properties", budget_s=300.0)
def test_c8_bench_orderings():
    # latency ordering across every default packet size, paired sampling
    for slow, fast in compare_latency(count=1500, warmup=300, seed=8):
        assert fast.median_us <= slow.median_us, f"size {slow.size_b}"
    # loss ordering at every offered rate in the default sweep, desk-scaled duration
    rates_kwargs = dict(duration_s=0.03, interval_ms=0.0, latency_count=600, warmup_drop=100, seed=8)
    slow_result = run_throughput(BenchConfig(path_mode=PathMode.ALL_SLOW_PATH, **rates_kwargs))
    fast_result = run_throughput(BenchConfig(path_mode=PathMode.ALL_FAST_PATH, **rates_kwargs))
    assert len(slow_result.rates) == len(fast_result.rates) == 10
    for s, f in zip(slow_result.rates, fast_result.rates):
        assert f.loss_fraction <= s.loss_fraction, f"rate {s.rate_pps}"
    # CSV schemas, exact
    tp_csv = throughput_csv(fast_result)
    assert tp_csv.splitlines()[0] == THROUGHPUT_CSV_HEADER == "mode,rate_pps,offered,forwarded,loss_fraction"
    lat_config = BenchConfig(
        path_mode=PathMode.ALL_FAST_PATH, packet_sizes=(44,), latency_count=300,
        warmup_drop=100, interval_ms=0.0, seed=8,
    )
    lat_csv = latency_csv(run_latency(lat_config))
    assert lat_csv.splitlines()[0] == LATENCY_CSV_HEADER == "mode,size_b,median_us,p95_us,variance_us2"
    assert len(lat_csv.splitlines()[1].split(",")) == 5


@criterion("C9 round-trip suites", budget_s=30.0)
def test_c9_round_trips(tmp_path_factory=None):
    # label stack entry codec, >= 10^5 random values
    rng = random.Random(0xC9)
    for _ in range(100_000):
        raw = rng.randbytes(4)
        assert decode_lse(raw).encode() == raw
    for label in (0, 0xFFFFF):
        for exp in (0, 7):
            for s in (False, True):
                for ttl in (0, 255):
                    lse = MplsLse(label, exp, s, ttl)
                    assert decode_lse(lse.encode()) == lse

    # pcap write/read identity over the crafted corpus
    import tempfile
    from pathlib import Path

    corpus = [
        craft(AttackSpec(AttackKind.LONG_SHIM)),
        craft(AttackSpec(AttackKind.SHORT_SHIM)),
        craft(AttackSpec(AttackKind.ACL_BYPASS)),
        _udp_seed(53, 1024),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.pcap"
        write_pcap(path, corpus)
        assert read_pcap(path) == corpus

    # payload codec identity plus the exact rejection set
    payload = bytearray(rng.randbytes(1488))
    for i in range(2, len(payload), 4):
        payload[i] &= 0xFE
    lses = encode_payload(bytes(payload))
    assert len(lses) == 372
    assert b"".join(lse.encode() for lse in lses) == bytes(payload)
    rejected = accepted = 0
    for _ in range(2000):
        chunk = bytearray(rng.randbytes(4))
        expect_reject = bool(chunk[2] & 1)
        try:
            encode_payload(bytes(chunk))
            accepted += 1
            assert not expect_reject
        except PayloadViolatesConstraint:
            rejected += 1
            assert expect_reject
    assert rejected > 0 and accepted > 0
