"""Slow-path vs fast-path forwarding measurements on the in-process pipeline.

Methodology: 60-octet UDP frames drive the throughput sweep; the slow-path
mode disables the caches and randomizes source MAC, addresses and ports per
packet, the fast-path mode re-sends one flow that matches a pre-installed
rule. Latency runs send a fixed count of frames per packet size and evaluate
only the samples after a warmup prefix.

Offered load is modeled with a virtual arrival clock against measured
per-packet service times through a bounded single-server queue: packet i
arrives at i/rate; it is lost if the queue is full at that instant, otherwise
its real service time extends the server's busy period. A sweep times one
pass of the largest offered count and feeds it, in arrival order, to every
rate's queue in lockstep, so a packet some rates lose is still processed once.
All timestamps come from one clock on the pipeline side. Absolute numbers are
machine-specific; only orderings (fast <= slow) are contractual.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import struct
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from .extract import HARDENED
from .flowtable import Disposition, Forwarded, SwitchState, load_rules
from .packet import EthernetHeader, Ipv4Header, RawFrame, TextEnum, encode_frame

DEFAULT_RATES = tuple(range(10_000, 100_001, 10_000))
DEFAULT_SIZES = (44, 512, 1500, 2048, 9000)
MIN_FRAME = 44  # eth 14 + ipv4 20 + udp 8 + 2 octets of payload
MAX_FRAME = 14 + 0xFFFF  # eth 14 + the largest IPv4 total length
QUEUE_CAPACITY = 4096  # packets the modeled ingress queue holds
CHUNK = 8192  # packets a sweep times before replaying them through the queues; also the pool size cap
MAX_INTERVAL_MS = threading.TIMEOUT_MAX * 1000  # a pause time.sleep is known to accept
MAX_OFFERED = 10**9  # packets one rate may offer; the full-scale run offers at most 100 000 pps x 120 s
# Latency rounds per size: _sample holds about 96 B a round (a time, a disposition, the summary's
# copies), so 9.6 MB at the bound, about 10x the full run's 10 500.
MAX_LATENCY_COUNT = 100_000


class PathMode(TextEnum):
    ALL_SLOW_PATH = "slow"
    ALL_FAST_PATH = "fast"


def _check_latency_plan(count: int, warmup: int, sizes: tuple[int, ...]) -> None:
    """Raise ValueError naming the first bad value: need 0 <= warmup < count <= MAX_LATENCY_COUNT, and frame sizes."""
    if not 0 <= warmup < count <= MAX_LATENCY_COUNT:
        raise ValueError(f"latency count {count}, warmup {warmup}: need 0 <= warmup < count <= {MAX_LATENCY_COUNT}")
    for size in sizes:
        if not MIN_FRAME <= size <= MAX_FRAME:
            raise ValueError(f"packet size {size} outside {MIN_FRAME}..{MAX_FRAME}")


@dataclass(frozen=True)
class BenchConfig:
    path_mode: PathMode
    rates_pps: tuple[int, ...] = DEFAULT_RATES
    duration_s: float = 5.0  # desk-scaled; 120 reproduces the full run
    packet_sizes: tuple[int, ...] = DEFAULT_SIZES
    latency_count: int = 10_500
    warmup_drop: int = 500
    interval_ms: float = 0.0  # desk-scaled; 100 reproduces the full run
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration must be a positive number of seconds, got {self.duration_s}")
        _check_latency_plan(self.latency_count, self.warmup_drop, self.packet_sizes)
        if not 0 <= self.interval_ms <= MAX_INTERVAL_MS:
            raise ValueError(f"interval {self.interval_ms} ms outside 0..{MAX_INTERVAL_MS:g} ms")
        if list(self.rates_pps) != sorted(self.rates_pps):
            raise ValueError("rates must be ascending")
        for rate in self.rates_pps:
            # An int rate past the float range cannot be multiplied by a float; it offers too many packets.
            offered = rate * self.duration_s if rate <= sys.float_info.max else math.inf
            # int(offered), the count run_throughput offers, is at most MAX_OFFERED.
            if rate < 0 or (rate and not 1 <= offered < MAX_OFFERED + 1):
                raise ValueError(
                    f"rate {rate} pps must be 0 or offer 1..{MAX_OFFERED} packets in {self.duration_s:g} s"
                )


@dataclass(frozen=True)
class RateSample:
    rate_pps: int
    offered: int
    forwarded: int
    queue_lost: int
    table_dropped: int
    loss_fraction: float


@dataclass(frozen=True)
class SizeSample:
    size_b: int
    median_us: float
    p95_us: float
    variance_us2: float
    samples: int


@dataclass
class BenchResult:
    mode: PathMode
    rates: list[RateSample] = field(default_factory=list)
    sizes: list[SizeSample] = field(default_factory=list)


# Rule set the benchmark state runs: a few specific rules ahead of a
# wildcard, so the slow path pays a realistic scan cost.
BENCH_RULES = """
priority=100, eth_type=0x0800, ip_proto=17, l4_dst=9999, actions=drop
priority=90, eth_type=0x0800, ip_proto=6, actions=output:3
priority=50, eth_type=0x0800, ip_proto=17, actions=output:2
priority=1, actions=output:1
"""


def build_bench_state(mode: PathMode) -> SwitchState:
    return SwitchState(load_rules(BENCH_RULES), megaflow_enabled=(mode is PathMode.ALL_FAST_PATH))


def make_udp_frame(size: int, src_mac: bytes, src_ip: int, dst_ip: int, sport: int, dport: int) -> RawFrame:
    payload_len = size - MIN_FRAME + 2
    eth = EthernetHeader(bytes.fromhex("02000000ff01"), src_mac, 0x0800)
    ip = Ipv4Header(total_length=size - 14, protocol=17, src_ip=src_ip, dst_ip=dst_ip)
    udp = struct.pack(">HHHH", sport, dport, 8 + payload_len, 0)
    return encode_frame(eth, [ip], payload=udp + bytes(payload_len))


def _frame_pool(mode: PathMode, size: int, count: int, rng: random.Random) -> list[RawFrame]:
    """Fast path repeats one flow; slow path cycles distinct random flows."""
    if mode is PathMode.ALL_FAST_PATH:
        return [make_udp_frame(size, bytes.fromhex("020000000001"), 0x0A000001, 0x0A000002, 4000, 4001)]
    pool = []
    for _ in range(count):
        pool.append(
            make_udp_frame(
                size,
                b"\x02" + rng.randbytes(5),
                rng.randrange(1, 1 << 32),
                rng.randrange(1, 1 << 32),
                rng.randrange(1024, 9999),  # steer clear of the drop rule's port
                rng.randrange(1024, 9999),
            )
        )
    return pool


@contextmanager
def _gc_paused():
    """Collect once, then keep the cyclic collector off for the timed block; inside an outer pause, do nothing."""
    if not gc.isenabled():
        yield
        return
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class RateQueue:
    """One offered rate's bounded single-server FIFO, fed measured packets in arrival order.

    Packet i arrives at i/rate. It is lost if QUEUE_CAPACITY packets are in the
    queue at that instant; otherwise it starts when the server is free (the
    last queued completion, or its arrival) and its service time extends the
    busy period. Packets past the offered count are not fed.
    """

    def __init__(self, rate_pps: int, offered: int) -> None:
        self.rate_pps = rate_pps
        self.offered = offered
        self.fed = 0
        self.forwarded = 0
        self.queue_lost = 0
        self._completions: deque[float] = deque()

    def feed(self, services: list[float], dispositions: list[Disposition]) -> None:
        """Offer the next packets: their service times in seconds and what the switch did with each."""
        period = 1.0 / self.rate_pps
        completions = self._completions
        first = self.fed
        count = min(len(services), self.offered - first)
        for i in range(count):
            arrival = (first + i) * period
            while completions and completions[0] <= arrival:
                completions.popleft()
            if len(completions) >= QUEUE_CAPACITY:
                self.queue_lost += 1
                continue
            completions.append((completions[-1] if completions else arrival) + services[i])
            if isinstance(dispositions[i], Forwarded):
                self.forwarded += 1
        self.fed = first + count

    def sample(self) -> RateSample:
        table_dropped = self.fed - self.queue_lost - self.forwarded
        return RateSample(self.rate_pps, self.offered, self.forwarded, self.queue_lost, table_dropped,
                          self.queue_lost / self.offered)


def run_throughput(config: BenchConfig) -> BenchResult:
    """Sweep the offered rates on a new switch of the config's mode; report forwarded counts and loss per rate."""
    state = build_bench_state(config.path_mode)
    queues = [RateQueue(rate, int(rate * config.duration_s)) for rate in config.rates_pps if rate]
    total = max((queue.offered for queue in queues), default=0)
    pool = _frame_pool(config.path_mode, 60, min(total, CHUNK), random.Random(config.seed))
    with _gc_paused():
        for start in range(0, total, CHUNK):
            ((services, dispositions),) = _sample([(state, pool)], range(start, min(start + CHUNK, total)), 0.0)
            for queue in queues:
                queue.feed(services, dispositions)
    return BenchResult(mode=config.path_mode, rates=[queue.sample() for queue in queues])


def _nearest_rank(sorted_values: list[float], quantile: float) -> float:
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[rank - 1]


def _summarize(size: int, samples_s: list[float]) -> SizeSample:
    samples_us = [s * 1e6 for s in samples_s]
    kept = sorted(samples_us)
    return SizeSample(
        size_b=size,
        median_us=statistics.median(kept),
        p95_us=_nearest_rank(kept, 0.95),
        variance_us2=_block_median_variance(samples_us),
        samples=len(kept),
    )


def _block_median_variance(samples_us: list[float]) -> float:
    """Spread estimate robust to regime shifts: median of per-block variances.

    Samples stay in time order, in ten blocks of at least 3; each block drops
    its largest value as a spike guard. A clock-speed step inflates only the
    blocks it touches, and the median across blocks ignores that minority.
    """
    n = len(samples_us)
    size = max(3, n // 10)
    variances = []
    for start in range(0, n - size + 1, size):
        block = sorted(samples_us[start : start + size])[:-1]
        variances.append(statistics.pvariance(block))
    return statistics.median(variances) if variances else 0.0


def _sample(
    runs: list[tuple[SwitchState, list[RawFrame]]], rounds: range, pause: float
) -> list[tuple[list[float], list[Disposition]]]:
    """Per round, time one process() call of each (state, frame pool) run, in order.

    Returns each run's service times in seconds and dispositions, in round
    order; round i sends frame i of the pool, cycling.
    """
    perf = time.perf_counter
    profile = HARDENED
    samples: list[tuple[list[float], list[Disposition]]] = [([], []) for _ in runs]
    with _gc_paused():
        for i in rounds:
            for (state, pool), (times, dispositions) in zip(runs, samples):
                frame = pool[i % len(pool)]
                t0 = perf()
                disposition = state.process(frame, 1, profile)
                times.append(perf() - t0)
                dispositions.append(disposition)
            if pause > 0:
                time.sleep(pause)
    return samples


def _latency(modes: tuple[PathMode, ...], sizes: tuple[int, ...], count: int, warmup: int, seed: int, pause: float):
    """Per size, a tuple of one summary per mode: each mode's switch is built once, each size's pools are drawn in
    mode order from one seeded generator, the modes are sampled in alternation and the warmup is dropped."""
    rng = random.Random(seed)
    states = [(mode, build_bench_state(mode)) for mode in modes]
    for size in sizes:
        runs = [(state, _frame_pool(mode, size, min(count, CHUNK), rng)) for mode, state in states]
        yield tuple(_summarize(size, times[warmup:]) for times, _ in _sample(runs, range(count), pause))


def compare_latency(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    count: int = 2000,
    warmup: int = 500,
    seed: int = 0,
) -> list[tuple[SizeSample, SizeSample]]:
    """Paired slow/fast latency measurement: (slow, fast) sample per size.

    The two modes are sampled in strict alternation inside one loop so both
    distributions see the same machine noise; that keeps the slow-vs-fast
    comparison meaningful even when the host's speed drifts between runs.
    """
    _check_latency_plan(count, warmup, sizes)
    return list(_latency((PathMode.ALL_SLOW_PATH, PathMode.ALL_FAST_PATH), sizes, count, warmup, seed, 0.0))


def run_latency(config: BenchConfig) -> BenchResult:
    """Per packet size on a new switch of the config's mode: time each process() call, drop the warmup, summarize."""
    per_size = _latency((config.path_mode,), config.packet_sizes, config.latency_count, config.warmup_drop,
                        config.seed, config.interval_ms / 1000.0)
    return BenchResult(config.path_mode, sizes=[sample for (sample,) in per_size])


THROUGHPUT_CSV_HEADER = "mode,rate_pps,offered,forwarded,loss_fraction"
LATENCY_CSV_HEADER = "mode,size_b,median_us,p95_us,variance_us2"


def throughput_csv(result: BenchResult) -> str:
    lines = [THROUGHPUT_CSV_HEADER]
    for s in result.rates:
        lines.append(f"{result.mode},{s.rate_pps},{s.offered},{s.forwarded},{s.loss_fraction:.6f}")
    return "\n".join(lines) + "\n"


def latency_csv(result: BenchResult) -> str:
    lines = [LATENCY_CSV_HEADER]
    for s in result.sizes:
        lines.append(
            f"{result.mode},{s.size_b},{s.median_us:.3f},{s.p95_us:.3f},{s.variance_us2:.3f}"
        )
    return "\n".join(lines) + "\n"
