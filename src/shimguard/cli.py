"""Single command-line entry point.

Subcommands: craft, extract, pipeline, fuzz, wormsim, bench. All I/O is
file-based; nothing here opens a socket or touches a network interface.
Every source of randomness is seeded (--seed, or the SHIMGUARD_SEED
environment variable), so identical invocations produce identical outputs.

Exit codes: 0 success, 1 operational findings (hardened parser events or
profile-equivalence violations from fuzzing), 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import attacks, bench, flowtable, pcap, wormsim
from .extract import (
    ALL_PROFILES,
    DEFAULT_LABEL_LIMIT,
    EmptyFrameError,
    ParserMode,
    ParserProfile,
    classify_events,
    extract,
)
from .packet import enum_by_value
from .wormsim import StageTimings, Topology

SEED_ENV_VAR = "SHIMGUARD_SEED"


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shimguard",
        description="Virtual-switch data plane with an adversarial MPLS/IP parsing harness.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help=f"global random seed (default: ${SEED_ENV_VAR} or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_craft = sub.add_parser("craft", help="write an attack frame to a pcap file")
    p_craft.add_argument("--kind", required=True, choices=list(map(str, attacks.AttackKind)))
    p_craft.add_argument("--size", type=int, default=attacks.DEFAULT_LONG_SHIM_SIZE,
                         help=f"long-shim frame size in octets (default {attacks.DEFAULT_LONG_SHIM_SIZE})")
    fragment_len = attacks.AttackSpec.fragment_len
    p_craft.add_argument("--fragment", type=int, default=fragment_len,
                         help=f"short-shim trailing fragment length, 1..3 (default {fragment_len})")
    p_craft.add_argument("--total-length", type=int, default=attacks.AttackSpec.total_length,
                         help=f"acl-bypass IPv4 total length (default {attacks.AttackSpec.total_length})")
    p_craft.add_argument("--sport", type=int, default=attacks.AttackSpec.sport, help="acl-bypass source port")
    p_craft.add_argument("--dport", type=int, default=attacks.AttackSpec.dport, help="acl-bypass destination port")
    p_craft.add_argument("--payload", metavar="FILE",
                         help="file whose bytes are packed into long-shim labels")
    p_craft.add_argument("--out", required=True, metavar="PCAP", help="output pcap path")

    p_extract = sub.add_parser("extract", help="run flow extraction over a pcap")
    p_extract.add_argument("--in", dest="infile", required=True, metavar="PCAP")
    p_extract.add_argument("--profile", default="hardened", choices=list(map(str, ParserMode)))
    p_extract.add_argument("--label-limit", type=int, default=DEFAULT_LABEL_LIMIT)

    p_pipe = sub.add_parser("pipeline", help="run frames through extract/match/action")
    p_pipe.add_argument("--in", dest="infile", required=True, metavar="PCAP")
    p_pipe.add_argument("--rules", required=True, metavar="FILE")
    p_pipe.add_argument("--profile", default="hardened", choices=list(map(str, ParserMode)))
    p_pipe.add_argument("--label-limit", type=int, default=DEFAULT_LABEL_LIMIT)
    p_pipe.add_argument("--no-megaflow", action="store_true", help="disable both caches")
    p_pipe.add_argument("--in-port", type=int, default=1)

    p_fuzz = sub.add_parser("fuzz", help="differential fuzz the parser profiles")
    p_fuzz.add_argument("--corpus", required=True, metavar="PCAP", help="seed frames")
    p_fuzz.add_argument("--iters", type=int, default=10_000)
    p_fuzz.add_argument("--profiles", default=",".join(str(p.mode) for p in ALL_PROFILES),
                        help="comma-separated profile list (must include hardened)")
    p_fuzz.add_argument("--label-limit", type=int, default=DEFAULT_LABEL_LIMIT)
    p_fuzz.add_argument("--max-len", type=int, default=attacks.MutationBudget.max_len)
    p_fuzz.add_argument("--strategies", default=",".join(attacks.STRATEGIES))
    p_fuzz.add_argument("--out-report", metavar="FILE")
    p_fuzz.add_argument("--out-exemplars", metavar="PCAP")

    p_worm = sub.add_parser("wormsim", help="simulate staged worm propagation timing")
    p_worm.add_argument("--nodes", type=int, required=True, help="compute node count")
    p_worm.add_argument("--attacker-host", type=int, default=Topology.attacker_vm_host)
    p_worm.add_argument("--timing", action="append", default=[], metavar="K=V",
                        help="override a stage timing, e.g. --timing download=5")
    p_worm.add_argument("--dos", action="store_true", help="model the outage instead")
    p_worm.add_argument("--repeats", type=int, default=1, help="dos attack repeats")
    p_worm.add_argument("--interval", type=float, default=None,
                        help="dos attack spacing in seconds (default: back-to-back)")
    p_worm.add_argument("--csv", metavar="FILE", help="write the timeline CSV here")

    p_bench = sub.add_parser("bench", help="throughput sweep and latency per packet size")
    p_bench.add_argument("--mode", required=True, choices=list(map(str, bench.PathMode)))
    p_bench.add_argument("--rates", default=",".join(str(r) for r in bench.DEFAULT_RATES),
                         help="comma-separated offered rates in pps")
    p_bench.add_argument("--duration", type=float, default=bench.BenchConfig.duration_s,
                         help="seconds per rate (desk-scaled; 120 reproduces the full run)")
    p_bench.add_argument("--sizes", default=",".join(str(s) for s in bench.DEFAULT_SIZES),
                         help="comma-separated frame sizes for the latency run")
    p_bench.add_argument("--count", type=int, default=bench.BenchConfig.latency_count,
                         help="latency frames per size")
    p_bench.add_argument("--warmup", type=int, default=bench.BenchConfig.warmup_drop,
                         help="latency samples to discard")
    p_bench.add_argument("--interval-ms", type=float, default=bench.BenchConfig.interval_ms,
                         help="latency inter-frame spacing (desk-scaled; 100 reproduces the full run)")
    p_bench.add_argument("--csv", metavar="FILE", help="write both CSV tables here")
    return parser


def _cmd_craft(args, seed: int) -> int:
    payload = None
    if args.payload:
        with open(args.payload, "rb") as fh:
            payload = fh.read()
    spec = attacks.AttackSpec(
        kind=attacks.AttackKind(args.kind),
        frame_size=args.size,
        fragment_len=args.fragment,
        total_length=args.total_length,
        sport=args.sport,
        dport=args.dport,
        payload=payload,
    )
    frame = attacks.craft(spec)
    pcap.write_pcap(args.out, [frame])
    print(f"wrote {args.out}: 1 frame, {frame.capture_len} octets, kind={spec.kind}")
    return 0


def _cmd_extract(args, seed: int) -> int:
    profile = ParserProfile(ParserMode(args.profile), args.label_limit)
    for i, frame in enumerate(pcap.read_pcap(args.infile)):
        try:
            result = extract(frame, 0, profile)
        except EmptyFrameError:
            print(f"frame={i} len=0 verdict=Drop reason=empty-frame")
            continue
        events = ";".join(e.describe() for e in result.events) or "-"
        cls = classify_events(result.events)
        print(
            f"frame={i} len={frame.capture_len} verdict={result.verdict} "
            f"class={cls} events={events} key[{result.key.describe()}]"
        )
    return 0


def _cmd_pipeline(args, seed: int) -> int:
    if not 0 <= args.in_port < 1 << 32:
        raise ValueError(f"--in-port {args.in_port} does not fit in 32 bits")
    with open(args.rules, "r", encoding="utf-8") as fh:
        rules = flowtable.load_rules(fh.read())
    state = flowtable.SwitchState(rules, megaflow_enabled=not args.no_megaflow)
    profile = ParserProfile(ParserMode(args.profile), args.label_limit)
    for i, frame in enumerate(pcap.read_pcap(args.infile)):
        disposition = state.process(frame, args.in_port, profile)
        print(f"frame={i} disposition={disposition}")
    print(flowtable.dump_state(state), end="")
    return 0


def _cmd_fuzz(args, seed: int) -> int:
    corpus = pcap.read_pcap(args.corpus)
    budget = attacks.MutationBudget(
        iterations=args.iters,
        seed=seed,
        max_len=args.max_len,
        strategies=frozenset(s for s in args.strategies.split(",") if s),
    )
    profiles = [
        ParserProfile(enum_by_value(ParserMode, tok, "parser profile"), args.label_limit)
        for tok in args.profiles.split(",") if tok
    ]
    report = attacks.diff_fuzz(corpus, budget, profiles)
    text = report.to_text()
    print(text, end="")
    if args.out_report:
        with open(args.out_report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.out_exemplars:
        pcap.write_pcap(args.out_exemplars, report.exemplar_frames())
    return 1 if report.has_failures else 0


def _cmd_wormsim(args, seed: int) -> int:
    if args.dos and args.csv:
        raise ValueError("--csv writes the worm timeline; --dos prints outage intervals and writes no CSV")
    topology = Topology(compute_nodes=args.nodes, attacker_vm_host=args.attacker_host)
    overrides = {}
    for item in args.timing:
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"bad --timing {item!r}, expected k=v")
        if key not in {f.name for f in dataclasses.fields(StageTimings)}:
            raise ValueError(f"unknown timing field {key!r}")
        overrides[key] = float(value)
    timings = dataclasses.replace(StageTimings(), **overrides)
    if args.dos:
        report = wormsim.simulate_dos(topology, timings, repeats=args.repeats,
                                      interval_s=args.interval)
        for node, outage in report.items():
            spans = " ".join(f"{s:g}-{e:g}" for s, e in outage.intervals)
            print(f"dos node={node} total_outage_s={outage.total:g} intervals=[{spans}]")
        return 0
    timeline = wormsim.simulate(topology, timings)
    csv = timeline.to_csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        print(csv, end="")
    print(timeline.summary())
    return 0


def _cmd_bench(args, seed: int) -> int:
    rates = tuple(int(r) for r in args.rates.split(",") if r)
    sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    config = bench.BenchConfig(
        path_mode=bench.PathMode(args.mode), rates_pps=rates, duration_s=args.duration, packet_sizes=sizes,
        latency_count=args.count, warmup_drop=args.warmup, interval_ms=args.interval_ms, seed=seed,
    )
    outputs = []
    if rates:
        outputs.append(bench.throughput_csv(bench.run_throughput(config)))
    if sizes:
        result = bench.run_latency(config)
        outputs.append(bench.latency_csv(result))
    text = "".join(outputs)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


_COMMANDS = {
    "craft": _cmd_craft,
    "extract": _cmd_extract,
    "pipeline": _cmd_pipeline,
    "fuzz": _cmd_fuzz,
    "wormsim": _cmd_wormsim,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, _resolve_seed(args.seed))
    except (ValueError, OSError, pcap.PcapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
