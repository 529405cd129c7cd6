#!/usr/bin/env python3
"""Run perfbench in alternating parent/change pairs and summarise each end-to-end metric.

Run from anywhere inside a git checkout of shimguard:

    python3 tools/pairs.py --parent 06d64ff --workload fwd-flood,fwd-hot --seeds 81-90 --out BENCH_27.json

Each side's ``src/`` and ``perfbench/`` are taken from local git objects
(``git archive``); with no ``--change``, the change side is copied from the
working tree instead. Before each run the side is moved into one fixed
directory (``<work>/run``), so both sides run from the same path, and moved
back afterwards, keeping its own byte-code and perfbench state. A pair is
one untraced perfbench run of each side on the same workload and seed. The
side run first alternates from pair to pair over the whole call, starting
with the parent.

The record written to ``--out`` holds the machine facts, each pair's metrics
and, per workload and metric, the medians and quartiles of both sides
(``statistics.quantiles(n=4)``), the pairs the change won, and whether the
gap between the medians exceeds the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TREES = ("src", "perfbench")  # what a side needs to run perfbench
ORDER = ("one pair per (workload, seed); both sides moved into the same directory before each run; "
         "the side run first alternates pair by pair over the whole call, parent first (see each pair's 'first')")


def metric_directions(benchmark: dict) -> dict[str, bool]:
    """Each end-to-end metric BENCHMARK.json declares, mapped to True when higher is better."""
    return {metric["name"]: metric["better"] == "higher" for metric in benchmark["end_to_end"]}


def summarize(pairs: list[dict], directions: dict[str, bool]) -> dict[str, dict]:
    """Per metric: both sides' medians and quartiles, the pairs the change won, the gap against the parent's IQR.

    A tie wins for neither side. Values are rounded to four decimals.
    """
    summary = {}
    for name, higher in directions.items():
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
        c_q1, _, c_q3 = statistics.quantiles(change, n=4)
        p_median, c_median = statistics.median(parent), statistics.median(change)
        better = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        summary[name] = {
            "parent_median": round(p_median, 4),
            "parent_q1_q3": [round(p_q1, 4), round(p_q3, 4)],
            "change_median": round(c_median, 4),
            "change_q1_q3": [round(c_q1, 4), round(c_q3, 4)],
            "change_better_pairs": better,
            "pairs": len(pairs),
            "median_change_rel": round(c_median / p_median - 1, 4),
            "median_gap_exceeds_parent_iqr": abs(c_median - p_median) > p_q3 - p_q1,
            "parent_iqr_rel": round((p_q3 - p_q1) / p_median, 4),
        }
    return summary


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or a single seed ``A``; at least two seeds, since quartiles need two values."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"--seeds {text!r} names fewer than two seeds")
    return seeds


def _git(*argv: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *argv], check=True, capture_output=True).stdout


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _clear(work: Path) -> None:
    for name in (*SIDES, "run"):
        shutil.rmtree(work / name, ignore_errors=True)


def prepare(side_dir: Path, rev: str | None) -> str:
    """Fill ``side_dir`` with the side's trees; returns the name the record gives the side."""
    side_dir.mkdir(parents=True)
    if rev is None:
        for tree in TREES:
            shutil.copytree(ROOT / tree, side_dir / tree, ignore=shutil.ignore_patterns("__pycache__"))
        return "working tree"
    archive = _git("archive", "--format=tar", rev, *TREES)
    subprocess.run(["tar", "-x", "-C", str(side_dir)], input=archive, check=True)
    return _git("rev-parse", "--short", rev).decode().strip()


def run_side(work: Path, side: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run of ``side`` from ``<work>/run``: its metric values and correctness."""
    run_dir = work / "run"
    os.rename(work / side, run_dir)
    try:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        child = subprocess.run(argv, cwd=run_dir, capture_output=True, text=True, timeout=600 + 4 * seconds)
    finally:
        os.rename(run_dir, work / side)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"pairs: {side} {workload} seed {seed} exited {child.returncode}")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {**values, "correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"],
            "host_factor": detail["host_factor"], "setup_s_unscaled": detail["setup_s_unscaled"]}


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="the parent side's git revision")
    parser.add_argument("--change", metavar="REV", help="the change side's git revision (default: the working tree)")
    parser.add_argument("--workload", required=True, help="comma-separated perfbench workloads")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="seed range A-B, one pair per seed")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"],
                        help="perfbench --seconds for every run (default: BENCHMARK.json's run_seconds, %(default)s)")
    parser.add_argument("--work", type=Path, default=Path(tempfile.gettempdir()) / "shimguard-pairs",
                        help="scratch directory; its parent, change and run subdirectories are replaced "
                             "(default: %(default)s)")
    parser.add_argument("--out", required=True, type=Path, help="where to write the JSON record")
    args = parser.parse_args(argv)
    workloads = args.workload.split(",")
    directions = metric_directions(benchmark)

    _clear(args.work)
    record = {
        "command": " ".join(["python3", "tools/pairs.py", *(argv if argv is not None else sys.argv[1:])]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu(),
        "parent": prepare(args.work / "parent", args.parent),
        "change": prepare(args.work / "change", args.change),
        "order": ORDER,
        "workloads": {},
    }
    ok = True
    index = 0
    for workload in workloads:
        pairs = []
        for seed in args.seeds:
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            index += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(args.work, side, workload, seed, args.seconds)
                ok = ok and pair[side]["correct"]
            pairs.append(pair)
            print(f"{workload} seed {seed} ({order[0]} first): "
                  + ", ".join(f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}" for name in directions),
                  flush=True)
        summary = summarize(pairs, directions)
        record["workloads"][workload] = {"seeds": args.seeds, "summary": summary, "pairs": pairs}
        for name, line in summary.items():
            print(f"  {workload} {name}: {line['parent_median']:.4g} -> {line['change_median']:.4g} "
                  f"({line['median_change_rel']:+.1%}), better in {line['change_better_pairs']} of {line['pairs']}, "
                  f"parent IQR {line['parent_iqr_rel']:.1%}", flush=True)
    _clear(args.work)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
