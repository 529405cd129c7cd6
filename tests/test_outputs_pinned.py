"""sha256 digests of every default output, over seeded inputs built here.

Each output is rebuilt from a fixed seed and hashed; a digest changes only
when some output changes. A change that means to alter an output updates its
digest here and says why in CHANGES.md. To print the current digests:

    PYTHONPATH=src python tests/test_outputs_pinned.py

Covered: the flow table's dispositions, ``stats``, ``len(microflow)`` and
``dump_state``; the ``extract`` and ``pipeline`` CLI text under every profile
over one mixed pcap; ``wormsim`` CSV and summary, with and without ``--dos``;
``bench`` CSV headers, row counts and the columns that are not timings. The
fuzz reports are pinned by ``test_fuzz_report_and_exemplars_pinned``.
"""

import contextlib
import hashlib
import io
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import shimguard.flowtable as flowtable
from shimguard.attacks import AttackKind, AttackSpec, MutationBudget, craft, mutate
from shimguard.bench import LATENCY_CSV_HEADER, THROUGHPUT_CSV_HEADER
from shimguard.cli import main
from shimguard.extract import ALL_PROFILES
from shimguard.flowtable import SwitchState, dump_state
from shimguard.packet import EthernetHeader, MplsLse, RawFrame, encode_frame
from shimguard.pcap import write_pcap
from test_flowtable import ETH_MPLS, MAC_A, MAC_B, _random_rules, _random_traffic, ip_frame, udp_frame

RULES = """\
priority=20, eth_type=0x0800, ip_proto=17, l4_dst=8080, actions=drop
priority=15, eth_type=0x8847, mpls_label=16, actions=pop_mpls,output:2
priority=12, eth_type=0x8847, actions=pop_mpls,push_mpls:100,output:3
priority=10, ip_proto=6, actions=output:4
priority=5, parse_status=Malformed, actions=controller
priority=1, actions=output:1
"""


def _run(*argv):
    """The exit code and standard output of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"$ {' '.join(argv)}\nexit={code}\n{out.getvalue()}"


def _mixed_frames():
    """UDP, TCP, ICMP, IPv4 options, MPLS, runts, an empty record and every attack kind, with repeats."""
    udp = udp_frame()
    frames = [
        udp,
        udp_frame(1024, 8080),
        ip_frame(size=54, sport=40000, dport=80, proto=6),
        ip_frame(size=42, proto=1),
        ip_frame(size=46, sport=7, dport=9, options=b"\x01\x01\x01\x00"),
        ip_frame(size=60, sport=7, dport=9, total_length=28),
        encode_frame(ETH_MPLS, [MplsLse(16), MplsLse(200, bottom_of_stack=True)], payload=udp.data[14:]),
        encode_frame(ETH_MPLS, [MplsLse(i) for i in range(5)] + [MplsLse(5, bottom_of_stack=True)]),
        encode_frame(ETH_MPLS, [MplsLse(1), MplsLse(2)]),
        encode_frame(EthernetHeader(MAC_B, MAC_A, 0x8848), [MplsLse(16, bottom_of_stack=True)]),
        encode_frame(EthernetHeader(MAC_B, MAC_A, 0x86DD), payload=bytes(40)),
        RawFrame.of(b"\x01\x02\x03"),
        RawFrame.of(MAC_B + MAC_A[:1]),
        RawFrame.of(MAC_B + MAC_A + b"\x08\x00"),
        RawFrame.of(udp.data[:33]),
        RawFrame.of(b""),
    ]
    frames += [craft(AttackSpec(kind)) for kind in AttackKind]
    frames += [craft(AttackSpec(AttackKind.SHORT_SHIM, fragment_len=n)) for n in (1, 3)]
    frames += [craft(AttackSpec(AttackKind.LONG_SHIM, frame_size=60))]
    frames += [craft(AttackSpec(AttackKind.ACL_BYPASS, total_length=n)) for n in (19, 24)]
    frames += mutate(frames[:4] + frames[-6:], MutationBudget(iterations=40, seed=16))
    rng = random.Random(16)
    return frames + [frames[rng.randrange(len(frames))] for _ in range(60)]


def _cli_outputs(commands):
    """Every profile's run of ``commands(capture, rules, mode)`` over the mixed pcap and RULES."""
    with tempfile.TemporaryDirectory() as tmp:
        capture, rules = Path(tmp, "mixed.pcap"), Path(tmp, "rules.txt")
        write_pcap(capture, _mixed_frames())
        rules.write_text(RULES)
        text = "".join(_run(*argv) for profile in ALL_PROFILES
                       for argv in commands(str(capture), str(rules), str(profile.mode)))
    return text.replace(tmp, "TMP")


def extract_text():
    return _cli_outputs(lambda capture, rules, mode: (
        ("extract", "--in", capture, "--profile", mode),
        ("extract", "--in", capture, "--profile", mode, "--label-limit", "1"),
    ))


def pipeline_text():
    return _cli_outputs(lambda capture, rules, mode: (
        ("pipeline", "--in", capture, "--rules", rules, "--profile", mode),
        ("pipeline", "--in", capture, "--rules", rules, "--profile", mode, "--no-megaflow"),
        ("pipeline", "--in", capture, "--rules", rules, "--profile", mode, "--label-limit", "1", "--in-port", "2"),
    ))


def flowtable_text():
    """Per packet: disposition, microflow size, counters; per switch: dump_state.

    50 random rule sets, each under every profile with microflow capacities 1,
    2 and 4096 and with caches off, over one seeded stream that repeats frames
    (so megaflow hits, raw and parsed, and the signature memo answer) and varies the port. The
    capacity holds from each switch's build through its ``dump_state``.
    """
    acl = craft(AttackSpec(AttackKind.ACL_BYPASS)).data
    # v250 reads the ports these frames cut short from the zero region past the packet.
    ports_cut = [RawFrame.of(acl[:size]) for size in (34, 35, 37)]
    rng = random.Random(1600)
    lines = []
    for round_no in range(50):
        rules = _random_rules(rng, mpls_actions=round_no % 2 == 1)
        pool = _random_traffic(rng, 30) + ports_cut + [RawFrame.of(b"")]
        stream = [(pool[rng.randrange(len(pool))], rng.choice([1, 2])) for _ in range(100)]
        for profile in ALL_PROFILES:
            for capacity in (1, 2, 4096, None):
                with mock.patch.object(flowtable, "MICROFLOW_CAPACITY", capacity or flowtable.MICROFLOW_CAPACITY):
                    state = SwitchState(rules, megaflow_enabled=capacity is not None)
                    for frame, port in stream:
                        disposition = state.process(frame, port, profile)
                        lines.append(f"{disposition} {len(state.microflow)} {tuple(state.stats.values())}")
                    lines.append(dump_state(state))
    return "\n".join(lines)


def wormsim_text():
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp, "timeline.csv")
        text = "".join((
            _run("wormsim", "--nodes", "6"),
            _run("wormsim", "--nodes", "40", "--attacker-host", "7", "--timing", "download=4.5"),
            _run("wormsim", "--nodes", "3", "--csv", str(csv_path)).replace(tmp, "TMP"),
            csv_path.read_text(),
        ))
    return text + "".join((
        _run("wormsim", "--nodes", "4", "--dos"),
        _run("wormsim", "--nodes", "3", "--dos", "--repeats", "3"),
        _run("wormsim", "--nodes", "2", "--dos", "--repeats", "2", "--interval", "2.5", "--timing", "dos_outage=1"),
    ))


def bench_text():
    """Headers, row counts and the columns fixed by the arguments; the timed columns vary run to run."""
    kept = {THROUGHPUT_CSV_HEADER: 3, LATENCY_CSV_HEADER: 2}  # mode,rate_pps,offered / mode,size_b
    lines = []
    for mode in ("fast", "slow"):
        out = _run("bench", "--mode", mode, "--rates", "10000,20000", "--duration", "0.02",
                   "--sizes", "44,60", "--count", "300", "--warmup", "100")
        for line in out.splitlines():
            if line.startswith(f"{mode},"):
                line = ",".join(line.split(",")[:width])
            else:  # the command, the exit code or a CSV header
                width = kept.get(line)
            lines.append(line)
    return "\n".join(lines)


OUTPUTS = {
    "flowtable": flowtable_text,
    "extract": extract_text,
    "pipeline": pipeline_text,
    "wormsim": wormsim_text,
    "bench": bench_text,
}

PINNED = {
    "flowtable": "c17841149d20dcb4f3c514546c13b30382dfe7f03b2b63aebeb8fc17ed889c29",
    "extract": "8aa2ca1274ea5c69a63c9235545979a795433fd14ecc9180a8c3dec2b915beca",
    "pipeline": "939338f09beafe17089a9be10febfe85777ab4cefab24fcd26fa88c5eeb94b63",
    "wormsim": "07439668cdcae066dfb74705e5a388db48db31dec1a53223ea2aec9f41f01eee",
    "bench": "fb32c4f021c3ae97c0794519e54668152d8c0b1a777d4c3efeb992cac2f5dd35",
}


# The same two outputs with every microflow size masked: the per-packet figure in
# flowtable_text and dump_state's "microflow=N/". A cache policy may move the
# microflow's size, and nothing else; these hold since before the raw lookup.
PINNED_WITHOUT_MICROFLOW_SIZE = {
    "flowtable": "1000ecdab6487ebd02760348a8dd8aa9d8e8c2b0203a6edb8537535b9f39a9d7",
    "pipeline": "9f2448862b6b22004c7cf6a4ebde743e00d32bdf8abcfc11d18412fa4dd1cf1a",
}


def without_microflow_size(text):
    text = re.sub(r"^(\S+) \d+ \(", r"\1 ? (", text, flags=re.M)  # flowtable_text's per-packet lines
    return re.sub(r"microflow=\d+/", "microflow=?/", text)


def digest(name, mask=lambda text: text):
    return hashlib.sha256(mask(OUTPUTS[name]()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_digest_pinned(name):
    assert digest(name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_WITHOUT_MICROFLOW_SIZE))
def test_output_digest_without_microflow_size_pinned(name):
    assert digest(name, without_microflow_size) == PINNED_WITHOUT_MICROFLOW_SIZE[name]


if __name__ == "__main__":
    for name in OUTPUTS:
        print(f'    "{name}": "{digest(name)}",')
    for name in PINNED_WITHOUT_MICROFLOW_SIZE:
        print(f'    "{name}" without microflow size: "{digest(name, without_microflow_size)}",')
