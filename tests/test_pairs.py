import argparse
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _pairs(parent, change, name="m"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


@pytest.mark.parametrize(
    "higher, better, gap",
    [(True, 4, False), (False, 0, False)],
    ids=["higher-is-better", "lower-is-better"],
)
def test_summary_arithmetic_on_fixed_numbers(higher, better, gap):
    # quantiles(n=4) of five values (the default exclusive method) sit at ranks
    # 1.5 and 4.5: [1, 2, 3, 4, 5] -> 1.5 and 4.5, [2, 2, 4, 5, 6] -> 2 and 5.5.
    summary = pairs.summarize(_pairs([1, 2, 3, 4, 5], [2, 2, 4, 5, 6]), {"m": higher})
    assert summary == {"m": {
        "parent_median": 3,
        "parent_q1_q3": [1.5, 4.5],
        "change_median": 4,
        "change_q1_q3": [2.0, 5.5],
        "change_better_pairs": better,  # the tie (2, 2) wins for neither side
        "pairs": 5,
        "median_change_rel": 0.3333,
        "median_gap_exceeds_parent_iqr": gap,  # a gap of 1 against an IQR of 3
        "parent_iqr_rel": 1.0,
    }}


def test_summary_gap_beyond_parent_iqr():
    summary = pairs.summarize(_pairs([10.0, 10.2, 9.9, 10.1], [8.0, 8.1, 7.9, 8.2]), {"m": False})["m"]
    assert summary["change_better_pairs"] == 4
    assert summary["median_change_rel"] == round(8.05 / 10.05 - 1, 4)
    assert summary["median_gap_exceeds_parent_iqr"] is True


def test_summary_reproduces_a_committed_record():
    # BENCH_25.json was summarised before the pair runner existed; the same
    # pairs must give the same summary, so records stay comparable.
    record = json.loads((ROOT / "BENCH_25.json").read_text())
    directions = pairs.metric_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert directions == {"pps": True, "zero_loss_pps": True, "lat_p50_us": False, "setup_s": False,
                          "peak_rss_mb": False}
    for workload in record["workloads"].values():
        assert pairs.summarize(workload["pairs"], directions) == workload["summary"]


def test_seed_ranges():
    assert pairs.parse_seeds("81-90") == list(range(81, 91))
    assert pairs.parse_seeds("1-2") == [1, 2]
    for text in ("5", "7-6"):
        with pytest.raises(argparse.ArgumentTypeError, match="fewer than two seeds"):
            pairs.parse_seeds(text)
