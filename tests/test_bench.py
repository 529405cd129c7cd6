import math
import re

import pytest

import shimguard.bench as bench
from shimguard.bench import (
    LATENCY_CSV_HEADER,
    THROUGHPUT_CSV_HEADER,
    BenchConfig,
    PathMode,
    build_bench_state,
    compare_latency,
    latency_csv,
    make_udp_frame,
    run_latency,
    run_throughput,
    throughput_csv,
)
from shimguard.extract import HARDENED, extract
from shimguard.packet import ParseStatus


def _config(mode, **overrides):
    defaults = dict(
        path_mode=mode,
        rates_pps=(10_000, 50_000),
        duration_s=0.05,
        packet_sizes=(44, 512),
        latency_count=700,
        warmup_drop=200,
        interval_ms=0.0,
        seed=1,
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


@pytest.fixture
def built_states(monkeypatch):
    """Every SwitchState the runs under test build, in build order."""
    states = []

    def build(mode):
        states.append(build_bench_state(mode))
        return states[-1]

    monkeypatch.setattr(bench, "build_bench_state", build)
    return states


def test_udp_frame_sizes_and_extraction():
    for size in (44, 60, 512, 1500, 2048, 9000):
        frame = make_udp_frame(size, bytes(6), 1, 2, 1000, 2000)
        assert frame.capture_len == size
        key = extract(frame, 1, HARDENED).key
        assert key.parse_status is ParseStatus.COMPLETE
        assert key.l4_src == 1000 and key.l4_dst == 2000


def test_slow_path_counts_every_packet_as_upcall(built_states):
    config = _config(PathMode.ALL_SLOW_PATH, rates_pps=(10_000,), duration_s=0.1)
    result = run_throughput(config)
    (state,) = built_states
    (sample,) = result.rates
    assert sample.offered == 1000
    assert state.stats["slow_path_upcalls"] == sample.offered - sample.queue_lost
    assert state.stats["fast_path_hits"] == 0
    assert sample.queue_lost == 0  # 100 us budget per packet is ample


def test_fast_path_mostly_cache_hits(built_states):
    config = _config(PathMode.ALL_FAST_PATH, rates_pps=(10_000,), duration_s=0.1)
    result = run_throughput(config)
    (state,) = built_states
    (sample,) = result.rates
    assert state.stats["slow_path_upcalls"] == 1
    assert state.stats["fast_path_hits"] == sample.offered - sample.queue_lost - 1
    assert sample.loss_fraction == 0.0


def test_zero_rate_produces_no_record():
    config = _config(PathMode.ALL_FAST_PATH, rates_pps=(0,), duration_s=0.05)
    result = run_throughput(config)
    assert result.rates == []


def test_loss_accounting_conserves():
    for mode in PathMode:
        config = _config(mode, rates_pps=(10_000, 100_000), duration_s=0.05)
        result = run_throughput(config)
        for sample in result.rates:
            assert sample.forwarded + sample.table_dropped + sample.queue_lost == sample.offered
            assert 0.0 <= sample.loss_fraction <= 1.0


def test_fast_path_default_sweep_zero_loss():
    config = _config(PathMode.ALL_FAST_PATH, rates_pps=tuple(range(10_000, 100_001, 10_000)),
                     duration_s=0.05)
    result = run_throughput(config)
    assert len(result.rates) == 10
    for sample in result.rates:
        assert sample.loss_fraction == 0.0, f"rate {sample.rate_pps}"


def test_fast_loss_never_exceeds_slow_loss():
    config_kwargs = dict(rates_pps=(20_000, 60_000, 100_000), duration_s=0.05)
    slow = run_throughput(_config(PathMode.ALL_SLOW_PATH, **config_kwargs))
    fast = run_throughput(_config(PathMode.ALL_FAST_PATH, **config_kwargs))
    for s, f in zip(slow.rates, fast.rates):
        assert f.loss_fraction <= s.loss_fraction


def test_latency_sample_counting():
    config = _config(PathMode.ALL_FAST_PATH, packet_sizes=(44,), latency_count=501, warmup_drop=500)
    result = run_latency(config)
    (sample,) = result.sizes
    assert sample.samples == 1
    assert sample.variance_us2 == 0.0


def test_fast_median_latency_below_slow_per_size():
    for slow, fast in compare_latency(sizes=(44, 512, 1500), count=1500, warmup=300, seed=2):
        assert fast.size_b == slow.size_b
        assert fast.median_us <= slow.median_us


def test_fast_variance_below_slow_per_size():
    # At in-process resolution both spreads bottom out at the per-sample
    # timer/interpreter jitter (~0.1 us^2), where the ordering becomes a tie;
    # the headroom admits that floor while still failing if the fast path
    # ever gains a variable-cost component.
    for slow, fast in compare_latency(sizes=(44, 512), count=2000, warmup=500, seed=3):
        assert fast.variance_us2 <= slow.variance_us2 * 1.25 + 0.05


def test_medians_reproducible_in_distribution():
    # Catastrophe detector with a flaky-tolerant bound; on an idle machine the
    # expectation is <20% drift, but this host's clock speed visibly steps.
    config = _config(PathMode.ALL_FAST_PATH, packet_sizes=(44,), latency_count=2000, warmup_drop=500)
    first = run_latency(config).sizes[0].median_us
    second = run_latency(config).sizes[0].median_us
    assert max(first, second) / min(first, second) < 3.0


def test_csv_schemas_exact():
    config = _config(PathMode.ALL_FAST_PATH, rates_pps=(10_000,), duration_s=0.02, packet_sizes=(44,))
    tp = throughput_csv(run_throughput(config))
    lat = latency_csv(run_latency(config))
    assert tp.splitlines()[0] == THROUGHPUT_CSV_HEADER == "mode,rate_pps,offered,forwarded,loss_fraction"
    assert lat.splitlines()[0] == LATENCY_CSV_HEADER == "mode,size_b,median_us,p95_us,variance_us2"
    tp_row = tp.splitlines()[1].split(",")
    assert tp_row[0] == "fast" and tp_row[1] == "10000"
    assert len(tp_row) == 5
    lat_row = lat.splitlines()[1].split(",")
    assert lat_row[0] == "fast" and lat_row[1] == "44"
    assert len(lat_row) == 5


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(PathMode.ALL_FAST_PATH, latency_count=100, warmup_drop=100)
    with pytest.raises(ValueError):
        BenchConfig(PathMode.ALL_FAST_PATH, rates_pps=(20_000, 10_000))
    with pytest.raises(ValueError):
        BenchConfig(PathMode.ALL_FAST_PATH, packet_sizes=(40,))


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
def test_config_duration_must_be_positive_and_finite(duration):
    with pytest.raises(ValueError, match="duration"):
        BenchConfig(PathMode.ALL_FAST_PATH, duration_s=duration)


@pytest.mark.parametrize("rates, duration", [((-5,), 1.0), ((-1, 0), 1.0), ((10_000,), 1e-9), ((0, 1), 0.5)])
def test_config_rate_must_offer_a_packet(rates, duration):
    with pytest.raises(ValueError, match="rate"):
        BenchConfig(PathMode.ALL_FAST_PATH, rates_pps=rates, duration_s=duration)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(latency_count=0, warmup_drop=0), "latency count 0, warmup 0:"),
        (dict(latency_count=-5, warmup_drop=-10), "latency count -5, warmup -10:"),
        (dict(latency_count=300, warmup_drop=-250), "latency count 300, warmup -250:"),
        (dict(interval_ms=-1.0), "interval -1.0 "),
        (dict(interval_ms=math.inf), "interval inf "),
        (dict(interval_ms=math.nan), "interval nan "),
        (dict(packet_sizes=(44, 65550)), "packet size 65550 "),
        (dict(packet_sizes=(70000,)), "packet size 70000 "),
    ],
    ids=["count-0", "count-negative", "warmup-negative", "interval-negative", "interval-inf", "interval-nan",
         "size-65550", "size-70000"],
)
def test_config_rejects_latency_values_naming_them(overrides, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        _config(PathMode.ALL_FAST_PATH, **overrides)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(count=-5, warmup=-10), "latency count -5, warmup -10:"),
        (dict(count=300, warmup=-250), "latency count 300, warmup -250:"),
        (dict(count=100, warmup=100), "latency count 100, warmup 100:"),
        (dict(sizes=(44, 70000)), "packet size 70000 "),
        (dict(sizes=(43,)), "packet size 43 "),
    ],
    ids=["count-negative", "warmup-negative", "warmup-equals-count", "size-70000", "size-43"],
)
def test_compare_latency_rejects_values_before_sampling(monkeypatch, kwargs, message):
    def no_sampling(*args):
        raise AssertionError("sampled before validating")

    monkeypatch.setattr(bench, "_sample", no_sampling)
    with pytest.raises(ValueError, match=f"^{message}"):
        compare_latency(**kwargs)


def test_config_accepts_latency_extremes():
    config = _config(PathMode.ALL_FAST_PATH, latency_count=1, warmup_drop=0, packet_sizes=(44, 65549))
    assert config.packet_sizes == (44, 65549)
    assert make_udp_frame(65549, bytes(6), 1, 2, 1000, 2000).capture_len == 65549


@pytest.mark.parametrize(
    "rates, duration",
    [((10_000,), 1e308), ((10**308,), 10.0), ((1, 10**400), 1.0), ((10_000,), 1e300)],
    ids=["duration-1e308", "rate-1e308", "rate-past-float-range", "count-past-max-offered"],
)
def test_config_rejects_rate_without_finite_packet_count(rates, duration):
    with pytest.raises(ValueError, match=f"^rate {rates[-1]} pps "):
        BenchConfig(PathMode.ALL_FAST_PATH, rates_pps=rates, duration_s=duration)


def test_config_interval_bounded_by_timeout_max():
    assert _config(PathMode.ALL_FAST_PATH, interval_ms=bench.MAX_INTERVAL_MS).interval_ms == bench.MAX_INTERVAL_MS
    for interval in (math.nextafter(bench.MAX_INTERVAL_MS, math.inf), 1e308):
        with pytest.raises(ValueError, match="^" + re.escape(f"interval {interval} ms ")):
            _config(PathMode.ALL_FAST_PATH, interval_ms=interval)
