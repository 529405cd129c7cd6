import dataclasses
import math
import random

import pytest

from shimguard.wormsim import (
    CONTROLLER,
    OutageReport,
    StageTimings,
    Topology,
    WormEventKind,
    merge_intervals,
    node_name,
    simulate,
    simulate_dos,
)


def test_defaults_controller_shell_at_21s():
    timeline = simulate(Topology(compute_nodes=1))
    assert timeline.shell_time(CONTROLLER) == 21.0
    assert timeline.total_compromise_time == 21.0


def test_default_stage_arithmetic():
    t = StageTimings()
    # 21 s = send 0 + download 3 + sleep 12 + overhead 6 split across two hops
    assert t.exploit_send + t.download + t.restart_sleep + t.hop_overhead == 21.0
    assert t.compute_hop == 18.0


def test_100_nodes_under_100_seconds():
    timeline = simulate(Topology(compute_nodes=100))
    assert timeline.total_compromise_time <= 100.0
    assert timeline.total_compromise_time == 99.0  # 21 + 60 restore + 18 fan-out hop


def test_every_node_exactly_one_shell():
    n = 12
    timeline = simulate(Topology(compute_nodes=n, attacker_vm_host=4))
    shells = [e for e in timeline.events if e.kind is WormEventKind.SHELL_OBTAINED]
    assert len(shells) == n + 1  # all compute nodes plus the controller
    assert len({e.node for e in shells}) == n + 1
    assert timeline.shell_time(node_name(4)) == 18.0
    assert timeline.total_compromise_time == max(e.time for e in shells)


def test_events_nondecreasing_and_zero_timings_consistent():
    zero = StageTimings(0, 0, 0, 0, 0, 0)
    timeline = simulate(Topology(compute_nodes=3), zero)
    assert timeline.total_compromise_time == 0.0
    times = [e.time for e in timeline.events]
    assert times == sorted(times)
    order = [e.kind for e in timeline.events if e.node == node_name(0)]
    assert order.index(WormEventKind.EXPLOIT_SENT) < order.index(WormEventKind.SHELL_OBTAINED)


def test_fanout_parallelism_total_independent_of_n():
    totals = {simulate(Topology(compute_nodes=n)).total_compromise_time for n in (2, 10, 100)}
    assert len(totals) == 1


def test_fanout_gated_on_controller_restore():
    timeline = simulate(Topology(compute_nodes=2))
    restored = next(e.time for e in timeline.events if e.kind is WormEventKind.RESTORED)
    fanout = next(e.time for e in timeline.events if e.kind is WormEventKind.FANOUT_STARTED)
    assert fanout == restored == 81.0


def test_monotonicity_in_every_timing_field():
    rng = random.Random(33)
    base = StageTimings()
    fields = [f.name for f in dataclasses.fields(StageTimings) if f.name != "dos_outage"]
    for _ in range(100):
        name = rng.choice(fields)
        bumped = dataclasses.replace(base, **{name: getattr(base, name) + rng.uniform(0.1, 30)})
        for n in (1, 5):
            before = simulate(Topology(compute_nodes=n), base).total_compromise_time
            after = simulate(Topology(compute_nodes=n), bumped).total_compromise_time
            assert after >= before


def test_determinism():
    a = simulate(Topology(compute_nodes=7), StageTimings())
    b = simulate(Topology(compute_nodes=7), StageTimings())
    assert a == b


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(compute_nodes=0)
    with pytest.raises(ValueError):
        Topology(compute_nodes=3, attacker_vm_host=3)
    with pytest.raises(ValueError):
        StageTimings(download=-1)


def test_dos_single_attack():
    report = simulate_dos(Topology(compute_nodes=1), repeats=1)
    assert report == {"node0": OutageReport(intervals=((0.0, 4.5),), total=4.5)}


def test_dos_back_to_back_repeats_merge():
    report = simulate_dos(Topology(compute_nodes=1), repeats=2)
    assert report["node0"].intervals == ((0.0, 9.0),)
    assert report["node0"].total == 9.0
    for k in (3, 5, 8):
        assert simulate_dos(Topology(compute_nodes=1), repeats=k)["node0"].total == 4.5 * k


def test_dos_overlapping_repeats_merge():
    report = simulate_dos(Topology(compute_nodes=1), repeats=2, interval_s=2.0)
    assert report["node0"].intervals == ((0.0, 6.5),)
    assert report["node0"].total == 6.5


def test_dos_spaced_repeats_stay_separate():
    report = simulate_dos(Topology(compute_nodes=1), repeats=2, interval_s=10.0)
    assert report["node0"].intervals == ((0.0, 4.5), (10.0, 14.5))
    assert report["node0"].total == 9.0


def test_merge_intervals():
    assert merge_intervals([(5.0, 6.0), (0.0, 1.0), (0.5, 2.0)]) == ((0.0, 2.0), (5.0, 6.0))


def test_csv_output():
    timeline = simulate(Topology(compute_nodes=2))
    csv = timeline.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "time_s,node,event"
    assert "0,node0,ExploitSent" in lines[1]
    assert any(line == "21,controller,ShellObtained" for line in lines)
    assert timeline.summary() == "total_compromise_time_s=99"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_stage_timings_must_be_finite(value):
    for field in dataclasses.fields(StageTimings):
        with pytest.raises(ValueError, match=f"{field.name} must be finite"):
            StageTimings(**{field.name: value})


@pytest.mark.parametrize("interval", [-2.0, -1e-9, math.nan, math.inf])
def test_dos_interval_must_be_finite_and_non_negative(interval):
    with pytest.raises(ValueError, match="interval"):
        simulate_dos(Topology(compute_nodes=1), repeats=3, interval_s=interval)
