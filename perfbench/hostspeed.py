"""Host-speed probe: a fixed piece of pure-Python work, timed between chunks of measured work.

On a shared host the same code runs up to twice as fast at one moment as at
another, in phases that last from seconds to minutes, so a run's raw timings
depend on when it ran more than on the program. The benchmark times this
probe before and after every chunk of measured work (a few tens of
milliseconds) and multiplies the chunk's times by a nominal probe time over
the faster of the two probe times. Timings are thus reported at the host
speed at which the probe takes its nominal time; the faster probe is used so
that a probe that was preempted does not scale its chunk. Work that is not
split into chunks (set-up, the traced pass) is scaled by the median factor
of every chunk in the run.

The probe has two parts, because the host's slow phases slow different code
unequally: a small arithmetic loop with attribute access (the *arithmetic*
part) and header unpacking with lookups in a 32 768-entry dict (the *lookup*
part). Timed over runs of 60 to 100 seconds that crossed both kinds of phase,
a slow phase stretched the arithmetic part 1.75-1.85 times and the lookup
part 1.36-1.43 times, the chunks of the forwarding workloads 1.56-1.63 times
and ``diff_fuzz`` campaigns 1.42-1.47 times. So a workload weighs the
arithmetic part by how much it is slowed: the forwarding workloads by 1
(probe stretch 1.55-1.61), the fuzzer by 0.5 (1.47). Tail latency follows
neither part: in the deepest slow phases the raw p99 of ``process`` nearly
doubled while its median held. The probe imports nothing from shimguard, so
no change to the program can move it.
"""

from __future__ import annotations

import gc
import random
import struct
from time import perf_counter

# Times of the two parts between chunks of workload in a fast phase of a
# 2-vCPU Xeon VM under CPython 3.11; reported timings are scaled to the host
# speed at which the probe takes this long.
ARITHMETIC_NOMINAL_S = 0.0017
LOOKUP_NOMINAL_S = 0.0023

_LOOPS = 3000
_LOOKUPS = 1500
_ETH = struct.Struct(">6s6sH")
_IP = struct.Struct(">BBHHHBBH4s4sHH")


class _Entry:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def mix(self, x: int) -> int:
        return (self.a * 31 + x) ^ self.b


_rng = random.Random(7)
_DATA = bytes(range(256)) * 8
_FRAMES = [_rng.randbytes(60) for _ in range(512)]
_TABLE = {(_rng.randbytes(4), _rng.getrandbits(16)): _Entry(i, i) for i in range(32768)}
_KEYS = list(_TABLE)
del _rng


def _arithmetic(n: int) -> int:
    table: dict = {}
    acc = 0
    data = _DATA
    from_bytes = int.from_bytes
    for i in range(n):
        j = i & 1023
        key = (j, data[j])
        entry = table.get(key)
        if entry is None:
            table[key] = entry = _Entry(j, i)
        acc = (acc + entry.mix(from_bytes(data[j : j + 4], "big"))) & 0xFFFFFFFF
    return acc


def _lookups(n: int) -> int:
    acc = 0
    table, frames, keys = _TABLE, _FRAMES, _KEYS
    eth, ip = _ETH.unpack_from, _IP.unpack_from
    out: list = []
    for i in range(n):
        frame = frames[i & 511]
        dst, _src, _type = eth(frame, 0)
        _vihl, _tos, length, _ident, _frag, ttl, proto, _ck, src, _dst, sport, _dport = ip(frame, 14)
        entry = table.get(keys[(i * 7919) & 32767]) or table.get((src, sport))
        out.append((dst, proto, entry.mix(length) if entry else ttl))
        acc ^= len(out)
        if len(out) > 256:
            out.clear()
    return acc


def probe() -> tuple[float, float]:
    """Run the probe once, without garbage collection; return the seconds of its arithmetic and lookup parts.

    A collection would scan the caller's heap, which is not the probe's work.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    _arithmetic(_LOOPS)
    middle = perf_counter()
    _lookups(_LOOKUPS)
    end = perf_counter()
    if enabled:
        gc.enable()
    return middle - start, end - middle


class Scaler:
    """Probes around consecutive chunks of measured work and scales each chunk's times."""

    def __init__(self, arithmetic_weight: float) -> None:
        self.weight = arithmetic_weight
        self.nominal = arithmetic_weight * ARITHMETIC_NOMINAL_S + LOOKUP_NOMINAL_S
        self.last = self._probe()
        self.factors: list[float] = []

    def _probe(self) -> float:
        arithmetic, lookup = probe()
        return self.weight * arithmetic + lookup

    def close_chunk(self, samples, start: int) -> None:
        """Probe again and scale ``samples[start:]``, the chunk just measured, in place."""
        before, self.last = self.last, self._probe()
        scale = self.nominal / min(before, self.last)
        self.factors.append(scale)
        for i in range(start, len(samples)):
            samples[i] *= scale
