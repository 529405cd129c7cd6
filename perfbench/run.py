#!/usr/bin/env python3
"""Benchmark for shimguard's forwarding pipeline and differential fuzzer.

Run from the repository root:

    python3 perfbench/run.py --workload fwd-hot --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

One invocation runs one workload in this process. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` measures untraced passes for half the time,
then traces a cold switch through the warm-up and one pass, and reports the
per-layer metrics. ``--workload all``
runs every workload, untraced then traced, each in its own child process, and
prints one combined JSON record. The last line of standard output is always a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the per-pass figures behind them.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import zlib
from array import array
from itertools import accumulate
from operator import sub
from pathlib import Path
from time import perf_counter

from hostspeed import Scaler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("fwd-hot", "fwd-churn", "fwd-flood", "fuzz-diff")
QUEUE_DEPTH = 4096
SETUP_REPS = 3
MIN_PASSES = 3
FUZZ_CAMPAIGNS = 320  # diff_fuzz calls per pass
FUZZ_WARM_CAMPAIGNS = 80  # diff_fuzz calls of the set-up's warm-up
FUZZ_MUTANTS = 256  # mutants per diff_fuzz call
# Measured work between two host-speed probes (see hostspeed.py): a few tens of milliseconds.
CHUNK_PACKETS = 4096
CHUNK_CAMPAIGNS = 4
# How much the host's slow phases slow each kind of workload, as a weight on
# the probe's arithmetic part (see hostspeed.py).
FORWARDING_WEIGHT = 1.0
FUZZING_WEIGHT = 0.5

END_TO_END_UNITS = {
    "pps": "1/s",
    "zero_loss_pps": "1/s",
    "lat_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "pcap.read_us": "us",
    "extract.us": "us",
    "extract.us.hardened": "us",
    "extract.us.v232": "us",
    "extract.us.v240": "us",
    "extract.us.v250": "us",
    "flowtable.microflow_hit_us": "us",
    "flowtable.megaflow_hit_us": "us",
    "flowtable.upcall_us": "us",
    "flowtable.apply_actions_us": "us",
    "attacks.mutate_us": "us",
    "attacks.minimize_s": "s",
    "flowtable.microflow_hit_ratio": "ratio",
    "flowtable.megaflow_hit_ratio": "ratio",
    "flowtable.upcall_share": "ratio",
    "flowtable.megaflow_entries": "count",
    "flowtable.masks": "count",
    "flowtable.microflow_evictions": "count",
    "extract.calls_per_packet": "count",
    "flowtable.apply_actions_calls_per_packet": "count",
    "attacks.findings.long_stack_232": "count",
    "attacks.findings.short_lse_240": "count",
    "attacks.findings.ip_underflow_250": "count",
    "tracing.pps_ratio": "ratio",
    "lat_p99_us": "us",
}


def zero_loss_rate(service: list[float], depth: int) -> float:
    """Highest offered rate (1/s) at which a bounded FIFO queue loses nothing.

    Packet i arrives at i/r and needs ``service[i]`` seconds of the single
    server; it is lost if ``depth`` packets are still in the system when it
    arrives. Without loss, packet m+depth is admitted exactly when every
    window of packets j..m finishes in time, which reduces the highest
    loss-free rate to the minimum over windows of
    (window length + depth - 1) / (window busy time), over the windows that
    end at least ``depth`` packets before the last one. Dinkelbach's
    iteration finds that minimum with a few maximum-subarray scans.
    """
    service = service[: max(0, len(service) - depth)]
    if not service:
        return math.inf
    rate = (len(service) + depth - 1) / sum(service)
    while True:
        step = 1.0 / rate
        prefix = list(accumulate((s - step for s in service), initial=0.0))
        lowest = list(accumulate(prefix, min))
        gains = list(map(sub, prefix[1:], lowest[:-1]))
        best = max(gains)
        if best <= (depth - 1) * step * (1 + 1e-12):
            return rate
        end = gains.index(best) + 1
        begin = prefix.index(lowest[end - 1], 0, end)
        count = end - begin
        rate = (count + depth - 1) / (best + count * step)


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def code_digest() -> str:
    """Hash of the program and benchmark sources, so stored counts only compare like with like."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Run:
    """Everything one invocation measures and every problem it finds."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_raw_s: list[float] = []
        self.read_us: list[float] = []
        self.pass_rates: list[float] = []
        self.pass_zero_loss: list[float] = []
        self.pass_p50: list[float] = []
        self.pass_p99: list[float] = []
        self.pass_raw_rates: list[float] = []
        self.pass_factors: list[float] = []
        self.rate_factors: list[float] = []
        self.samples = 0
        self.counts: dict[str, object] = {}
        self.layers: dict[str, float] = {}

    def problem(self, message: str, failures: int = 1) -> None:
        self.failed += failures
        if len(self.problems) < 20:
            self.problems.append(message)

    def expect_repeat(self, label: str, signature) -> None:
        """Record an exact-repeat count signature; a differing repeat fails the run."""
        if label not in self.counts:
            self.counts[label] = signature
        elif self.counts[label] != signature:
            self.problem(f"{label} counts differ between repeats: {self.counts[label]} vs {signature}")

    def deadline(self) -> float:
        """Untraced passes fill the run, or half of it when a traced pass follows."""
        return perf_counter() + (self.seconds / 2 if self.trace else self.seconds)

    def finish_pass(
        self, operations: int, latencies: array, queue_service: array, raw_busy: float, factors: list[float]
    ) -> None:
        """Reduce one pass to its rate, zero-loss rate and latency quantiles.

        ``latencies`` and ``queue_service`` are already scaled to the nominal
        host speed by ``factors``, one per chunk; ``raw_busy`` is the pass's
        unscaled busy time. The rate divides the operations by the time
        spent inside the measured calls, so the benchmark's own loop and
        checks do not count. Samples are dropped once reduced, so memory
        does not grow with the pass count.
        """
        self.pass_raw_rates.append(operations / raw_busy)
        self.pass_factors.append(statistics.median(factors))
        self.rate_factors.extend(factors)
        ordered = sorted(latencies)
        self.samples += len(ordered)
        self.pass_rates.append(operations / sum(latencies))
        self.pass_zero_loss.append(zero_loss_rate(queue_service, QUEUE_DEPTH))
        self.pass_p50.append(quantile(ordered, 0.50) * 1e6)
        self.pass_p99.append(quantile(ordered, 0.99) * 1e6)

    def host_factor(self) -> float:
        """The run's host-speed scale: the median over every chunk of its untraced passes.

        Set-up and the traced pass are not split into chunks; they are scaled
        by this.
        """
        return statistics.median(self.rate_factors)

    def end_to_end(self) -> dict[str, float]:
        return {
            "pps": statistics.median(self.pass_rates),
            "zero_loss_pps": statistics.median(self.pass_zero_loss),
            "lat_p50_us": statistics.median(self.pass_p50),
            "setup_s": statistics.median(self.setup_raw_s) * self.host_factor(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def check_stored_counts(self) -> None:
        """Compare exact-repeat counts with an earlier run of the same seed and code."""
        path = WORK / "counts" / f"{self.workload}-seed{self.seed}-{code_digest()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        current = json.loads(json.dumps(self.counts))
        stored = json.loads(path.read_text()) if path.exists() else {}
        for label, signature in current.items():
            if label in stored and stored[label] != signature:
                self.problem(f"{label} counts differ from an earlier run with seed {self.seed}")
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**current, **stored}, sort_keys=True))
        os.replace(tmp, path)

    def report(self) -> None:
        self.check_stored_counts()
        if self.trace:
            units = PER_LAYER_UNITS
            values = {name: self.layers.get(name, 0.0) for name in units}
        else:
            units = END_TO_END_UNITS
            values = self.end_to_end()
        detail = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "passes": len(self.pass_rates),
            "latency_samples": self.samples,
            "pass_rates": [round(v, 1) for v in self.pass_rates],
            "pass_zero_loss": [round(v, 1) for v in self.pass_zero_loss],
            "pass_p50_us": [round(v, 3) for v in self.pass_p50],
            "pass_p99_us": [round(v, 3) for v in self.pass_p99],
            "pass_rates_unscaled": [round(v, 1) for v in self.pass_raw_rates],
            "pass_host_factor": [round(v, 4) for v in self.pass_factors],
            "host_factor": self.host_factor(),
            "setup_s_unscaled": [round(s, 4) for s in self.setup_raw_s],
            "counts": self.counts,
            "problems": self.problems,
        }
        print(json.dumps({"detail": detail}))
        result = {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))


def _timed_setup(run: Run, build):
    """Build the workload's inputs SETUP_REPS times, keep the last, record each cost."""
    for _ in range(SETUP_REPS):
        prepared = None
        gc.collect()
        start = perf_counter()
        prepared = build()
        run.setup_raw_s.append(perf_counter() - start)
    return prepared


def _round_trip(run: Run, name: str, frames: list) -> list:
    """Write frames to a pcap file and read them back.

    The list passed in is emptied once written, so generated and read-back
    frames never occupy memory together.
    """
    from shimguard.pcap import read_pcap, write_pcap

    WORK.mkdir(exist_ok=True)
    path = WORK / f"{name}.{os.getpid()}.pcap"
    try:
        write_pcap(path, frames)
        crc = 0
        for frame in frames:
            crc = zlib.crc32(frame.data, crc)
        count = len(frames)
        frames.clear()
        start = perf_counter()
        back = read_pcap(path)
        run.read_us.append((perf_counter() - start) * 1e6)
    finally:
        path.unlink(missing_ok=True)
    crc_back = 0
    for frame in back:
        crc_back = zlib.crc32(frame.data, crc_back)
    if (len(back), crc_back) != (count, crc):
        run.problem(f"{name}: pcap round trip changed the frames")
    return back


# --- forwarding workloads ---------------------------------------------------------


class Forwarding:
    """Frames, ports, packet order and warmed switch state for one forwarding run."""

    def __init__(self, run: Run) -> None:
        import workloads as W
        from shimguard.extract import HARDENED
        from shimguard.flowtable import SwitchState, load_rules

        rng = random.Random(run.seed)
        if run.workload == "fwd-hot":
            rules, flows = W.HOT_RULES, W.hot_flows(rng)
            order = [rng.randrange(len(flows)) for _ in range(131_072)]
            # A whole pass of warm-up: long enough for set-up to be timed
            # steadily, and every cache and the interpreter end up warm.
            warm = order
        elif run.workload == "fwd-churn":
            rules, flows = W.LAYERED_RULES, W.churn_flows(rng)
            cycle = list(range(len(flows)))
            rng.shuffle(cycle)
            cycle = W.leaders_first(cycle, flows)
            # Warm with one full cycle, so the microflow LRU starts every pass
            # holding exactly what it holds when a pass ends.
            warm, order = cycle, cycle * 2
        else:
            rules, flows = W.LAYERED_RULES, W.flood_flows(rng)
            warm, order = (), W.leaders_first(list(range(len(flows))), flows)
        self.fresh_state_per_pass = run.workload == "fwd-flood"
        self.designed = [f.expected for f in flows]
        self.ports = [f.in_port for f in flows]
        frames = [f.frame for f in flows]
        del flows
        self.frames = _round_trip(run, run.workload, frames)
        self.order = list(order)
        self.frame_seq = [self.frames[i] for i in self.order]
        self.port_seq = [self.ports[i] for i in self.order]
        self.rules = load_rules(rules)
        self.state = SwitchState(self.rules)
        # Warm-up dispositions are checked against the generator's design here,
        # not kept: churn's upcalls only ever happen during this warm-up.
        self.warm = list(warm)
        self.warm_wrong = sum(
            self.state.process(self.frames[i], self.ports[i], HARDENED) != self.designed[i] for i in self.warm
        )

    def pass_state(self):
        """The state a pass runs against: a fresh switch for the flood, else the warmed one."""
        if self.fresh_state_per_pass:
            from shimguard.flowtable import SwitchState

            self.state = SwitchState(self.rules)
        return self.state


def _state_counts(state) -> dict[str, int]:
    return {
        **state.stats,
        "megaflow_entries": state.megaflow_entry_count(),
        "masks": len(state.megaflows),
        "microflow_live": len(state.microflow),
    }


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Per-pass counter increments; table sizes are reported as they stand after the pass."""
    absolute = ("megaflow_entries", "masks", "microflow_live")
    return {k: after[k] if k in absolute else after[k] - before.get(k, 0) for k in after}


def run_forwarding(run: Run) -> None:
    from shimguard.extract import HARDENED
    from shimguard.flowtable import SwitchState

    fw = _timed_setup(run, lambda: Forwarding(run))

    # C7 oracle: an uncached switch with the same rules gives the reference
    # disposition of every distinct frame, and it must be the disposition
    # the generator designed the frame for.
    reference_state = SwitchState(fw.rules, megaflow_enabled=False)
    reference = [reference_state.process(f, p, HARDENED) for f, p in zip(fw.frames, fw.ports)]
    wrong = sum(r != d for r, d in zip(reference, fw.designed))
    if wrong:
        run.problem(f"{wrong} frames miss the disposition their generator designed them for", wrong)
    run.attempted += len(fw.warm)
    if fw.warm_wrong:
        run.problem(f"{fw.warm_wrong} warm-up dispositions differ from the designed ones", fw.warm_wrong)
    expected_seq = [reference[i] for i in fw.order]

    def finish(label: str, state, before: dict, wrong: int) -> None:
        run.attempted += len(expected_seq)
        if wrong:
            run.problem(f"{label}: {wrong} dispositions differ from the uncached reference", wrong)
        run.expect_repeat("pass", _delta(before, _state_counts(state)))

    frame_seq, port_seq, total = fw.frame_seq, fw.port_seq, len(expected_seq)
    deadline = run.deadline()
    while len(run.pass_rates) < MIN_PASSES or perf_counter() < deadline:
        state = fw.pass_state()
        before = _state_counts(state)
        process = state.process
        profile = HARDENED
        service = array("d")
        record = service.append
        wrong = 0
        raw_busy = 0.0
        gc.collect()
        gc.disable()
        scaler = Scaler(FORWARDING_WEIGHT)
        for lo in range(0, total, CHUNK_PACKETS):
            hi = lo + CHUNK_PACKETS
            for frame, port, want in zip(frame_seq[lo:hi], port_seq[lo:hi], expected_seq[lo:hi]):
                t0 = perf_counter()
                try:
                    disposition = process(frame, port, profile)
                except Exception as exc:  # counted as a failed operation; the run goes on
                    disposition = exc
                record(perf_counter() - t0)
                if disposition != want:
                    wrong += 1
            raw_busy += math.fsum(service[lo:])
            scaler.close_chunk(service, lo)
        gc.enable()
        run.finish_pass(len(service), service, service, raw_busy, scaler.factors)
        finish("pass", state, before, wrong)
    if run.trace:
        _traced_forwarding(run, fw, expected_seq, finish)


def _traced_forwarding(run: Run, fw: Forwarding, expected_seq: list, finish) -> None:
    """Trace a cold switch through the workload's warm-up, then through one pass.

    The warm-up is where a cached workload's upcalls happen, so tracing it
    measures the slow path on every forwarding workload.
    """
    import shimguard.flowtable as flowtable
    from shimguard.extract import HARDENED, Verdict
    from spans import BOOKKEEPING, Patch, Tracer, median_us, timed

    tracer = Tracer()
    state = flowtable.SwitchState(fw.rules)
    probe = [False, False]  # [key already in the microflow, dropped at extraction]
    real_extract = flowtable.extract

    def traced_extract(frame, in_port, profile, memory=None):
        index = tracer.begin("extract." + profile.mode.value)
        try:
            result = real_extract(frame, in_port, profile, memory)
        finally:
            tracer.finish(index)
        index = tracer.begin(BOOKKEEPING)
        probe[0] = result.key in state.microflow
        probe[1] = result.verdict is Verdict.DROP
        tracer.finish(index)
        return result

    def segment(frames, ports, expected) -> tuple[list[int], list[str], int]:
        """Process packets one traced call each; return root spans, answering layers, mismatches."""
        stats = state.stats
        process = state.process
        roots: list[int] = []
        layers: list[str] = []
        wrong = 0
        for frame, port, want in zip(frames, ports, expected):
            upcalls = stats["slow_path_upcalls"]
            root = tracer.begin("flowtable.process")
            try:
                disposition = process(frame, port, HARDENED)
            except Exception as exc:  # counted as a failed operation; the run goes on
                disposition = exc
            tracer.finish(root)
            roots.append(root)
            if disposition != want:
                wrong += 1
            if stats["slow_path_upcalls"] != upcalls:
                layers.append("upcall")
            elif probe[1]:
                layers.append("parse_drop")
            else:
                layers.append("microflow" if probe[0] else "megaflow")
        return roots, layers, wrong

    patches = [
        (flowtable, "extract", traced_extract),
        (flowtable, "apply_actions", timed(tracer, "flowtable.apply_actions", flowtable.apply_actions)),
    ]
    gc.collect()
    gc.disable()
    with Patch(patches):
        _, warm_layers, warm_wrong = segment(
            [fw.frames[i] for i in fw.warm], [fw.ports[i] for i in fw.warm], [fw.designed[i] for i in fw.warm]
        )
        before = _state_counts(state)
        roots, layers, wrong = segment(fw.frame_seq, fw.port_seq, expected_seq)
    gc.enable()
    scale = run.host_factor()
    after = _state_counts(state)
    run.attempted += len(warm_layers)
    if warm_wrong:
        run.problem(f"traced warm-up: {warm_wrong} dispositions differ from the designed ones", warm_wrong)
    finish("traced pass", state, before, wrong)

    own = tracer.self_times()
    lookup: dict[str, list[float]] = {}
    for layer, seconds in zip(warm_layers + layers, own["flowtable.process"]):
        lookup.setdefault(layer, []).append(seconds)
    n = len(layers)
    traced = n + len(warm_layers)
    share = {layer: layers.count(layer) / n for layer in ("microflow", "megaflow", "upcall")}
    installs = layers.count("upcall") + layers.count("megaflow")
    evictions = installs - (after["microflow_live"] - before["microflow_live"])
    traced_busy = sum(tracer.end[i] - tracer.start[i] for i in roots)
    run.layers.update(
        {
            "flowtable.microflow_hit_us": median_us(lookup.get("microflow", [])) * scale,
            "flowtable.megaflow_hit_us": median_us(lookup.get("megaflow", [])) * scale,
            "flowtable.upcall_us": median_us(lookup.get("upcall", [])) * scale,
            "flowtable.apply_actions_us": median_us(own.get("flowtable.apply_actions", [])) * scale,
            "flowtable.microflow_hit_ratio": share["microflow"],
            "flowtable.megaflow_hit_ratio": share["megaflow"],
            "flowtable.upcall_share": share["upcall"],
            "flowtable.megaflow_entries": after["megaflow_entries"],
            "flowtable.masks": after["masks"],
            "flowtable.microflow_evictions": evictions,
            "flowtable.apply_actions_calls_per_packet": len(own.get("flowtable.apply_actions", ())) / traced,
        }
    )
    _common_layers(run, own, traced, n / traced_busy, scale)
    run.expect_repeat(
        "traced layers",
        {
            "warm-up": {layer: warm_layers.count(layer) for layer in sorted(set(warm_layers))},
            "pass": {layer: layers.count(layer) for layer in sorted(set(layers))},
            "evictions": evictions,
        },
    )
    tracer.write_tsv(WORK / f"spans-{run.workload}.tsv.gz")


def _common_layers(run: Run, own: dict[str, list[float]], packets: int, traced_rate: float, scale: float) -> None:
    """Per-layer metrics every workload reports: pcap read, extraction, tracing cost.

    Span times are multiplied by ``scale``, the run's host-speed factor.
    ``traced_rate`` is unscaled, and the tracing overhead compares it
    with the unscaled rates of the untraced passes of the same run.
    """
    from spans import median_us

    extract_spans = {name: v for name, v in own.items() if name.startswith("extract.")}
    run.layers["pcap.read_us"] = statistics.median(run.read_us) * scale
    run.layers["lat_p99_us"] = statistics.median(run.pass_p99)
    run.layers["extract.us"] = median_us([s for v in extract_spans.values() for s in v]) * scale
    run.layers["extract.calls_per_packet"] = sum(map(len, extract_spans.values())) / packets
    for name, values in extract_spans.items():
        run.layers["extract.us." + name.split(".", 1)[1]] = median_us(values) * scale
    run.layers["tracing.pps_ratio"] = traced_rate / statistics.median(run.pass_raw_rates)


# --- differential fuzzing ---------------------------------------------------------

FINDING_NAMES = {
    "LongStack-2.3.2": "long_stack_232",
    "ShortLse-2.4.0": "short_lse_240",
    "IpUnderflow-2.5.0": "ip_underflow_250",
}


class Fuzzing:
    """Seed corpus and the fixed list of campaign budgets one pass runs."""

    def __init__(self, run: Run) -> None:
        import workloads as W
        from shimguard.attacks import MutationBudget, diff_fuzz
        from shimguard.extract import ALL_PROFILES

        rng = random.Random(run.seed)
        corpus = W.fuzz_corpus(rng)
        self.budgets = [MutationBudget(FUZZ_MUTANTS, seed=rng.getrandbits(32)) for _ in range(FUZZ_CAMPAIGNS)]
        self.corpus = _round_trip(run, run.workload, corpus)
        for budget in self.budgets[:FUZZ_WARM_CAMPAIGNS]:  # warm-up; the timed passes check every report
            diff_fuzz(self.corpus, budget, ALL_PROFILES)


def run_fuzzing(run: Run) -> None:
    import shimguard.attacks as attacks
    from shimguard.extract import ALL_PROFILES, VulnClass

    fz = _timed_setup(run, lambda: Fuzzing(run))
    classes = [cls for cls in VulnClass if str(cls) in FINDING_NAMES]
    frames_per_campaign = len(fz.corpus) + FUZZ_MUTANTS

    def fuzz_pass(label: str, scaled: bool = True) -> tuple[array, dict, float, list[float]]:
        """One pass over the fixed campaign list; each campaign is checked in full.

        Returns the campaign times (scaled to the nominal host speed unless
        ``scaled`` is false), the findings, the unscaled busy time and the
        scale factors used.
        """
        raw_busy = 0.0
        diff_fuzz = attacks.diff_fuzz
        corpus = fz.corpus
        service = array("d")
        reports = []
        budgets = fz.budgets
        gc.collect()
        gc.disable()
        scaler = Scaler(FUZZING_WEIGHT) if scaled else None
        for lo in range(0, len(budgets), CHUNK_CAMPAIGNS):
            for budget in budgets[lo : lo + CHUNK_CAMPAIGNS]:
                t0 = perf_counter()
                try:
                    report = diff_fuzz(corpus, budget, ALL_PROFILES)
                except Exception as exc:  # counted as a failed campaign; the run goes on
                    report = exc
                service.append(perf_counter() - t0)
                reports.append(report)
            if scaler:
                raw_busy += math.fsum(service[lo:])
                scaler.close_chunk(service, lo)
        gc.enable()

        run.attempted += len(reports)
        found = dict.fromkeys(classes, 0)
        texts = hashlib.sha256()
        for report in reports:
            if isinstance(report, Exception):
                run.problem(f"{label}: diff_fuzz raised {report!r}")
                continue
            missing = [str(c) for c in classes if not report.class_counts.get(c) or c not in report.exemplars]
            if report.hardened_event_count or report.equivalence_violations or missing:
                run.problem(
                    f"{label}: hardened_events={report.hardened_event_count} "
                    f"equivalence_violations={report.equivalence_violations} missing={missing}"
                )
            for cls in classes:
                found[cls] += report.class_counts.get(cls, 0)
            texts.update(report.to_text().encode())
        # The same campaigns run in every pass, so findings and report text repeat exactly.
        run.expect_repeat("findings", {str(c): n for c, n in found.items()} | {"reports": texts.hexdigest()[:16]})
        return service, found, raw_busy, scaler.factors if scaler else []

    deadline = run.deadline()
    while len(run.pass_rates) < MIN_PASSES or perf_counter() < deadline:
        service, _, raw_busy, factors = fuzz_pass("pass")
        # The queue model sees a campaign's time spread evenly over its frames.
        per_frame = array("d", (s / frames_per_campaign for s in service for _ in range(frames_per_campaign)))
        operations = len(service) * frames_per_campaign
        run.finish_pass(operations, service, per_frame, raw_busy, factors)
    if run.trace:
        _traced_fuzz_pass(run, fuzz_pass, frames_per_campaign)


def _traced_fuzz_pass(run: Run, fuzz_pass, frames_per_campaign: int) -> None:
    import shimguard.attacks as attacks
    from spans import Patch, Tracer, median_us, timed, timed_iter

    tracer = Tracer()
    real_extract = attacks.extract

    def traced_extract(frame, in_port, profile, memory=None):
        index = tracer.begin("extract." + profile.mode.value)
        try:
            return real_extract(frame, in_port, profile, memory)
        finally:
            tracer.finish(index)

    patches = [
        (attacks, "extract", traced_extract),
        (attacks, "mutate", timed_iter(tracer, "attacks.mutate", attacks.mutate)),
        (attacks, "minimize", timed(tracer, "attacks.minimize", attacks.minimize)),
        (attacks, "diff_fuzz", timed(tracer, "attacks.diff_fuzz", attacks.diff_fuzz)),
    ]
    with Patch(patches):
        service, found, _, _ = fuzz_pass("traced pass", scaled=False)
    scale = run.host_factor()
    own = tracer.self_times()
    minimize_nid = tracer.names.index("attacks.minimize") if "attacks.minimize" in tracer.names else -1
    minimize_s = [e - s for nid, s, e in zip(tracer.name, tracer.start, tracer.end) if nid == minimize_nid]
    frames = len(service) * frames_per_campaign
    run.layers["attacks.mutate_us"] = median_us(own.get("attacks.mutate", [])) * scale
    run.layers["attacks.minimize_s"] = statistics.median(minimize_s) * scale if minimize_s else 0.0
    for cls, count in found.items():
        run.layers["attacks.findings." + FINDING_NAMES[str(cls)]] = count
    _common_layers(run, own, frames, frames / sum(service), scale)
    tracer.write_tsv(WORK / f"spans-{run.workload}.tsv.gz")


# --- entry point ------------------------------------------------------------------


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a child process of its own."""
    record = {"seed": seed, "seconds": seconds, "python": platform.python_version(), "nproc": os.cpu_count(), "runs": []}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or len(lines) < 2:
                sys.stderr.write(child.stderr)
                return child.returncode or 1
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
            record["runs"].append({"detail": detail, "result": result})
    print(json.dumps(record))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "shimguard" / "__init__.py").is_file():
        print(f"perfbench: no shimguard package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "fuzz-diff":
        run_fuzzing(run)
    else:
        run_forwarding(run)
    run.report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
