"""Deterministic timing model of staged worm propagation over a control network.

Topology: N compute nodes plus a controller reachable from every node. The
compromise runs in stages: a VM exploits its own host's switch, the host
exploits the controller, the controller restores its network services and
then fans out to every remaining node in parallel. Stage durations are
parameters; the defaults calibrate the VM-to-controller-shell time to 21
seconds (3 s payload download, 12 s service-restart sleep, 6 s of hop
overhead split across the two hops), so a 100-node deployment completes in
under 100 seconds.

simulate_dos() models the companion denial-of-service: each malformed-frame
attack knocks a node's switch out for a fixed outage window; overlapping or
back-to-back repeats merge into one interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .packet import TextEnum

CONTROLLER = "controller"
# simulate holds about 850 B per node with its CSV (three events and three lines each): 8.5 MB at the
# bound, 100x the 100-node deployment the defaults calibrate.
MAX_NODES = 10_000
# simulate_dos holds 120-180 B per repeat (its interval, then the merged copy): under 2 MB at the bound.
MAX_REPEATS = 10_000


def node_name(index: int) -> str:
    return f"node{index}"


@dataclass(frozen=True)
class Topology:
    compute_nodes: int
    attacker_vm_host: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.compute_nodes <= MAX_NODES:
            raise ValueError(f"compute node count {self.compute_nodes} outside 1..{MAX_NODES}")
        if not 0 <= self.attacker_vm_host < self.compute_nodes:
            raise ValueError(
                f"attacker_vm_host {self.attacker_vm_host} outside 0..{self.compute_nodes - 1}"
            )


@dataclass(frozen=True)
class StageTimings:
    """Stage durations in seconds. Defaults reproduce the measured run."""

    exploit_send: float = 0.0
    download: float = 3.0
    restart_sleep: float = 12.0
    hop_overhead: float = 6.0
    controller_restore: float = 60.0
    dos_outage: float = 4.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{f.name} must be >= 0")

    @property
    def compute_hop(self) -> float:
        """Exploit-to-shell time on one compute node."""
        return self.download + self.restart_sleep + self.hop_overhead / 2


class WormEventKind(TextEnum):
    EXPLOIT_SENT = "ExploitSent"
    SHELL_OBTAINED = "ShellObtained"
    PATCHED_SWITCH_INSTALLED = "PatchedSwitchInstalled"
    RESTORED = "Restored"
    FANOUT_STARTED = "FanoutStarted"


class WormEvent(NamedTuple):
    time: float
    node: str
    kind: WormEventKind


@dataclass(frozen=True)
class WormTimeline:
    events: tuple[WormEvent, ...]
    total_compromise_time: float

    def to_csv(self) -> str:
        lines = ["time_s,node,event"]
        lines.extend(f"{e.time:g},{e.node},{e.kind}" for e in self.events)
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        return f"total_compromise_time_s={self.total_compromise_time:g}"


def simulate(topology: Topology, timings: StageTimings = StageTimings()) -> WormTimeline:
    """Play out the staged compromise and return the ordered event timeline."""
    t = timings
    host = node_name(topology.attacker_vm_host)
    events: list[WormEvent] = []

    # Stage 1: VM exploits its own host's switch.
    events.append(WormEvent(0.0, host, WormEventKind.EXPLOIT_SENT))
    patched_at = t.exploit_send + t.download + t.restart_sleep
    host_shell = patched_at + t.hop_overhead / 2
    events.append(WormEvent(patched_at, host, WormEventKind.PATCHED_SWITCH_INSTALLED))
    events.append(WormEvent(host_shell, host, WormEventKind.SHELL_OBTAINED))

    # Stage 2: host exploits the controller over the management channel. The
    # payload is already local, so this hop carries only its overhead share.
    events.append(WormEvent(host_shell, CONTROLLER, WormEventKind.EXPLOIT_SENT))
    controller_shell = host_shell + t.hop_overhead / 2
    events.append(WormEvent(controller_shell, CONTROLLER, WormEventKind.SHELL_OBTAINED))

    # Stage 3: restore the controller's network services, then fan out.
    restored = controller_shell + t.controller_restore
    events.append(WormEvent(restored, CONTROLLER, WormEventKind.RESTORED))
    total = controller_shell
    remaining = [i for i in range(topology.compute_nodes) if i != topology.attacker_vm_host]
    if remaining:
        events.append(WormEvent(restored, CONTROLLER, WormEventKind.FANOUT_STARTED))
        total = restored + t.compute_hop
        for at, kind in (
            (restored, WormEventKind.EXPLOIT_SENT),
            (restored + t.download + t.restart_sleep, WormEventKind.PATCHED_SWITCH_INSTALLED),
            (total, WormEventKind.SHELL_OBTAINED),
        ):
            events.extend(WormEvent(at, node_name(i), kind) for i in remaining)

    events.sort(key=lambda e: e.time)  # stable: ties keep stage order
    if not math.isfinite(events[-1].time):
        raise ValueError(f"stage timings sum past the float range: an event at {events[-1].time} s")
    return WormTimeline(events=tuple(events), total_compromise_time=total)


class OutageReport(NamedTuple):
    intervals: tuple[tuple[float, float], ...]
    total: float


def merge_intervals(intervals: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


def simulate_dos(
    topology: Topology,
    timings: StageTimings = StageTimings(),
    repeats: int = 1,
    interval_s: float | None = None,
) -> dict[str, OutageReport]:
    """Outage intervals of the attacked node: the attacker VM's own host.

    Each attack opens a dos_outage window; attack k starts at k*interval_s,
    a finite spacing >= 0 (default: back-to-back at the outage length, so
    repeats chain into one merged interval). The report maps the host's
    node name to its merged intervals.
    """
    if not 1 <= repeats <= MAX_REPEATS:
        raise ValueError(f"repeats {repeats} outside 1..{MAX_REPEATS}")
    if interval_s is None:
        interval_s = timings.dos_outage
    if not (math.isfinite(interval_s) and interval_s >= 0):
        raise ValueError(f"interval must be a finite number of seconds >= 0, got {interval_s}")
    raw = [(k * interval_s, k * interval_s + timings.dos_outage) for k in range(repeats)]
    merged = merge_intervals(raw)
    total = sum(end - start for start, end in merged)
    if not math.isfinite(total):
        raise ValueError(f"{repeats} attacks {interval_s:g} s apart end past the float range")
    return {node_name(topology.attacker_vm_host): OutageReport(intervals=merged, total=total)}
