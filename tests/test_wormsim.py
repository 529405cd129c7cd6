import dataclasses
import math
import random

import pytest

import shimguard.wormsim as wormsim
from shimguard.wormsim import (
    CONTROLLER,
    MAX_NODES,
    MAX_REPEATS,
    OutageReport,
    StageTimings,
    Topology,
    WormEventKind,
    merge_intervals,
    node_name,
    simulate,
    simulate_dos,
)


def shell_times(timeline):
    """Each node's ShellObtained time, read from the events."""
    return {e.node: e.time for e in timeline.events if e.kind is WormEventKind.SHELL_OBTAINED}


def test_defaults_controller_shell_at_21s():
    timeline = simulate(Topology(compute_nodes=1))
    assert shell_times(timeline)[CONTROLLER] == 21.0
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
    assert shell_times(timeline)[node_name(4)] == 18.0
    assert timeline.total_compromise_time == max(e.time for e in shells)


def test_events_nondecreasing_and_zero_timings_consistent():
    zero = StageTimings(0, 0, 0, 0, 0, 0)
    timeline = simulate(Topology(compute_nodes=3), zero)
    assert timeline.total_compromise_time == 0.0
    times = [e.time for e in timeline.events]
    assert times == sorted(times)
    order = [e.kind for e in timeline.events if e.node == node_name(0)]
    assert order.index(WormEventKind.EXPLOIT_SENT) < order.index(WormEventKind.SHELL_OBTAINED)


_PINNED_ORDER = {
    (3, "zero"): """time_s,node,event
0,node1,ExploitSent
0,node1,PatchedSwitchInstalled
0,node1,ShellObtained
0,controller,ExploitSent
0,controller,ShellObtained
0,controller,Restored
0,controller,FanoutStarted
0,node0,ExploitSent
0,node2,ExploitSent
0,node0,PatchedSwitchInstalled
0,node2,PatchedSwitchInstalled
0,node0,ShellObtained
0,node2,ShellObtained
""",
    (3, "no-overhead"): """time_s,node,event
0,node1,ExploitSent
15,node1,PatchedSwitchInstalled
15,node1,ShellObtained
15,controller,ExploitSent
15,controller,ShellObtained
75,controller,Restored
75,controller,FanoutStarted
75,node0,ExploitSent
75,node2,ExploitSent
90,node0,PatchedSwitchInstalled
90,node2,PatchedSwitchInstalled
90,node0,ShellObtained
90,node2,ShellObtained
""",
    (5, "zero"): """time_s,node,event
0,node1,ExploitSent
0,node1,PatchedSwitchInstalled
0,node1,ShellObtained
0,controller,ExploitSent
0,controller,ShellObtained
0,controller,Restored
0,controller,FanoutStarted
0,node0,ExploitSent
0,node2,ExploitSent
0,node3,ExploitSent
0,node4,ExploitSent
0,node0,PatchedSwitchInstalled
0,node2,PatchedSwitchInstalled
0,node3,PatchedSwitchInstalled
0,node4,PatchedSwitchInstalled
0,node0,ShellObtained
0,node2,ShellObtained
0,node3,ShellObtained
0,node4,ShellObtained
""",
    (5, "no-overhead"): """time_s,node,event
0,node1,ExploitSent
15,node1,PatchedSwitchInstalled
15,node1,ShellObtained
15,controller,ExploitSent
15,controller,ShellObtained
75,controller,Restored
75,controller,FanoutStarted
75,node0,ExploitSent
75,node2,ExploitSent
75,node3,ExploitSent
75,node4,ExploitSent
90,node0,PatchedSwitchInstalled
90,node2,PatchedSwitchInstalled
90,node3,PatchedSwitchInstalled
90,node4,PatchedSwitchInstalled
90,node0,ShellObtained
90,node2,ShellObtained
90,node3,ShellObtained
90,node4,ShellObtained
""",
}


@pytest.mark.parametrize("nodes, timing", sorted(_PINNED_ORDER))
def test_event_order_pinned_with_tied_times(nodes, timing):
    """Events at one time keep stage order: a whole stage's nodes before the next stage."""
    timings = StageTimings(0, 0, 0, 0, 0, 0) if timing == "zero" else StageTimings(hop_overhead=0)
    timeline = simulate(Topology(compute_nodes=nodes, attacker_vm_host=1), timings)
    assert timeline.to_csv() == _PINNED_ORDER[nodes, timing]
    assert timeline.total_compromise_time == (0.0 if timing == "zero" else 90.0)


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
    with pytest.raises(ValueError, match=f"^compute node count {MAX_NODES + 1} outside 1..{MAX_NODES}$"):
        Topology(compute_nodes=MAX_NODES + 1)
    with pytest.raises(ValueError):
        StageTimings(download=-1)


def test_dos_repeats_bounded_before_building_intervals(monkeypatch):
    def no_merge(intervals):
        raise AssertionError("intervals merged before validating")

    monkeypatch.setattr(wormsim, "merge_intervals", no_merge)
    for repeats in (0, MAX_REPEATS + 1):
        with pytest.raises(ValueError, match=f"^repeats {repeats} outside 1..{MAX_REPEATS}$"):
            simulate_dos(Topology(compute_nodes=1), repeats=repeats)


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


def test_simulate_rejects_event_past_float_range():
    with pytest.raises(ValueError, match="float range"):
        simulate(Topology(compute_nodes=3), StageTimings(download=1e308))
    # One node: the total stays finite, but the controller's restore does not.
    with pytest.raises(ValueError, match="float range"):
        simulate(Topology(compute_nodes=1), StageTimings(download=1e308, controller_restore=1e308))


def test_dos_rejects_outage_past_float_range():
    with pytest.raises(ValueError, match=r"^3 attacks 1e\+308 s apart "):
        simulate_dos(Topology(compute_nodes=3), repeats=3, interval_s=1e308)
    with pytest.raises(ValueError, match="float range"):
        simulate_dos(Topology(compute_nodes=3), StageTimings(dos_outage=1e308), repeats=2, interval_s=1e308)
    (report,) = simulate_dos(Topology(compute_nodes=3), repeats=2, interval_s=1e308).values()
    assert math.isfinite(report.total)
