import functools
import random
import re
import struct
from pathlib import Path

import pytest

from shimguard import bench, cli, wormsim
from shimguard.attacks import AttackKind, AttackSpec, craft
from shimguard.cli import main
from shimguard.extract import VULN_232, extract
from shimguard.packet import EthernetHeader, Ipv4Header, RawFrame, encode_frame
from shimguard.pcap import global_header, read_pcap, write_pcap

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "shimguard"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_craft_long_shim_pcap(tmp_path, capsys):
    out = tmp_path / "ls.pcap"
    code, stdout, _ = run(capsys, "craft", "--kind", "long-shim", "--out", str(out))
    assert code == 0
    frames = read_pcap(out)
    assert len(frames) == 1
    assert frames[0].capture_len == 1514
    assert extract(frames[0], 0, VULN_232).events[0].byte_count == 1488
    assert "1514 octets" in stdout


def test_craft_each_kind(tmp_path, capsys):
    for kind in ("long-shim", "short-shim", "acl-bypass"):
        out = tmp_path / f"{kind}.pcap"
        code, _, _ = run(capsys, "craft", "--kind", kind, "--out", str(out))
        assert code == 0
        assert len(read_pcap(out)) == 1


def test_extract_reports_class(tmp_path, capsys):
    out = tmp_path / "ls.pcap"
    run(capsys, "craft", "--kind", "long-shim", "--out", str(out))
    code, stdout, _ = run(capsys, "extract", "--in", str(out), "--profile", "v232")
    assert code == 0
    assert "class=LongStack-2.3.2" in stdout
    assert "StackOverflowWrite(offset=0,byte_count=1488)" in stdout
    code, stdout, _ = run(capsys, "extract", "--in", str(out), "--profile", "hardened")
    assert code == 0
    assert "verdict=Drop" in stdout and "events=-" in stdout


def test_pipeline_dispositions_and_dump(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text(
        "priority=10, parse_status=Complete, l4_dst=8080, actions=drop\n"
        "priority=1, actions=output:1\n"
    )
    frame_pcap = tmp_path / "acl.pcap"
    run(capsys, "craft", "--kind", "acl-bypass", "--out", str(frame_pcap))
    code, stdout, _ = run(
        capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules), "--profile", "hardened"
    )
    assert code == 0
    assert "frame=0 disposition=Dropped" in stdout
    code, stdout, _ = run(
        capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules), "--profile", "v250"
    )
    assert code == 0
    assert "frame=0 disposition=Forwarded(1)" in stdout
    assert "counters:" in stdout


def test_pipeline_dump_with_field_the_frame_lacks(tmp_path, capsys):
    arp = encode_frame(EthernetHeader(bytes(6), bytes.fromhex("020000000001"), 0x0806), payload=bytes(28))
    frame_pcap = tmp_path / "arp.pcap"
    write_pcap(frame_pcap, [arp])
    rules = tmp_path / "rules.txt"
    rules.write_text("priority=5, ip_dst=10.0.0.2, actions=output:2\n")
    code, stdout, _ = run(capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules), "--profile", "hardened")
    assert code == 0
    assert "frame=0 disposition=Dropped" in stdout
    assert "mask[ip_dst] {ip_dst=None} -> drop hits=0" in stdout


def test_empty_record_mid_pcap_does_not_abort(tmp_path, capsys):
    frame_pcap = tmp_path / "gap.pcap"
    frame = craft(AttackSpec(AttackKind.ACL_BYPASS))
    write_pcap(frame_pcap, [frame, RawFrame.of(b""), frame])
    rules = tmp_path / "rules.txt"
    rules.write_text("priority=1, actions=output:1\n")
    code, stdout, _ = run(capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules), "--profile", "v250")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[:3] == [
        "frame=0 disposition=Forwarded(1)",
        "frame=1 disposition=Dropped",
        "frame=2 disposition=Forwarded(1)",
    ]
    assert "processed=3 slow_path_upcalls=1 fast_path_hits=1 forwards=2 drops=1" in stdout
    code, stdout, _ = run(capsys, "extract", "--in", str(frame_pcap), "--profile", "v250")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 3
    assert lines[1] == "frame=1 len=0 verdict=Drop reason=empty-frame"
    assert lines[0].startswith("frame=0 ") and lines[2].startswith("frame=2 ")
    assert lines[0][len("frame=0"):] == lines[2][len("frame=2"):]


def test_pipeline_no_megaflow_flag(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("priority=1, actions=output:1\n")
    frame_pcap = tmp_path / "u.pcap"
    run(capsys, "craft", "--kind", "acl-bypass", "--out", str(frame_pcap))
    code, stdout, _ = run(
        capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules),
        "--profile", "v250", "--no-megaflow",
    )
    assert code == 0
    assert "caches: disabled" in stdout


def test_fuzz_deterministic_reports(tmp_path, capsys):
    corpus = tmp_path / "seeds.pcap"
    run(capsys, "craft", "--kind", "long-shim", "--out", str(corpus))
    report_a = tmp_path / "a.txt"
    report_b = tmp_path / "b.txt"
    exemplars = tmp_path / "ex.pcap"
    code_a, _, _ = run(
        capsys, "--seed", "7", "fuzz", "--corpus", str(corpus), "--iters", "1000",
        "--profiles", "hardened,v232", "--out-report", str(report_a),
        "--out-exemplars", str(exemplars),
    )
    code_b, _, _ = run(
        capsys, "--seed", "7", "fuzz", "--corpus", str(corpus), "--iters", "1000",
        "--profiles", "hardened,v232", "--out-report", str(report_b),
    )
    assert code_a == code_b == 0  # vulnerable-class findings are not failures
    assert report_a.read_bytes() == report_b.read_bytes()
    assert len(read_pcap(exemplars)) >= 1


def test_fuzz_seed_env_fallback(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "seeds.pcap"
    run(capsys, "craft", "--kind", "short-shim", "--out", str(corpus))
    report_env = tmp_path / "env.txt"
    report_flag = tmp_path / "flag.txt"
    monkeypatch.setenv("SHIMGUARD_SEED", "42")
    run(capsys, "fuzz", "--corpus", str(corpus), "--iters", "500",
        "--profiles", "hardened,v240", "--out-report", str(report_env))
    monkeypatch.delenv("SHIMGUARD_SEED")
    run(capsys, "--seed", "42", "fuzz", "--corpus", str(corpus), "--iters", "500",
        "--profiles", "hardened,v240", "--out-report", str(report_flag))
    assert report_env.read_bytes() == report_flag.read_bytes()


def test_wormsim_summary(tmp_path, capsys):
    code, stdout, _ = run(capsys, "wormsim", "--nodes", "100")
    assert code == 0
    match = re.search(r"total_compromise_time_s=([0-9.]+)", stdout)
    assert match and float(match.group(1)) <= 100.0
    csv_path = tmp_path / "timeline.csv"
    code, stdout, _ = run(capsys, "wormsim", "--nodes", "3", "--csv", str(csv_path))
    assert code == 0
    assert csv_path.read_text().startswith("time_s,node,event\n")


def test_wormsim_timing_overrides_and_dos(capsys):
    code, stdout, _ = run(capsys, "wormsim", "--nodes", "1", "--timing", "download=4")
    assert code == 0
    assert "total_compromise_time_s=22" in stdout
    code, stdout, _ = run(capsys, "wormsim", "--nodes", "2", "--dos", "--repeats", "2")
    assert code == 0
    assert "total_outage_s=9" in stdout
    code, _, err = run(capsys, "wormsim", "--nodes", "1", "--timing", "warp=1")
    assert code == 2
    assert "unknown timing field" in err


@pytest.mark.parametrize("existing", [True, False], ids=["stale-file", "no-file"])
def test_wormsim_dos_rejects_csv_before_simulating(tmp_path, capsys, monkeypatch, existing):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(wormsim, "simulate_dos", no_simulation)
    csv_path = tmp_path / "w.csv"
    if existing:
        csv_path.write_text("time_s,node,event\n0,node0,ExploitSent\n")
    code, stdout, err = run(capsys, "wormsim", "--nodes", "2", "--dos", "--repeats", "2", "--csv", str(csv_path))
    assert code == 2 and stdout == ""
    assert err.startswith("error: --csv writes the worm timeline")
    if existing:
        assert csv_path.read_text() == "time_s,node,event\n0,node0,ExploitSent\n"
    else:
        assert not csv_path.exists()


def test_bench_csv_output(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, stdout, _ = run(
        capsys, "bench", "--mode", "fast", "--rates", "10000", "--duration", "0.02",
        "--sizes", "44", "--count", "300", "--warmup", "100", "--csv", str(csv_path),
    )
    assert code == 0
    text = csv_path.read_text()
    assert "mode,rate_pps,offered,forwarded,loss_fraction" in text
    assert "mode,size_b,median_us,p95_us,variance_us2" in text
    assert "\nfast,10000," in text


def test_extract_raw_ipv4_capture_exits_2(tmp_path, capsys):
    # An IPv4/UDP packet under linktype 101 (raw IPv4) must not be parsed as an Ethernet frame.
    eth = EthernetHeader(bytes.fromhex("020000000002"), bytes.fromhex("020000000001"), 0x0800)
    frame = encode_frame(eth, [Ipv4Header(total_length=28, protocol=17, src_ip=1, dst_ip=2)],
                         payload=struct.pack(">HHHH", 53, 1024, 8, 0))
    path = tmp_path / "raw.pcap"
    write_pcap(path, [RawFrame.of(frame.data[14:])])
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 20, 101)
    path.write_bytes(bytes(blob))
    code, stdout, err = run(capsys, "extract", "--in", str(path))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and "linktype 101" in err and err.count("\n") == 1


def test_extract_oversized_record_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.pcap"
    path.write_bytes(global_header() + struct.pack("<IIII", 0, 0, 65536, 65536) + bytes(65536))
    code, stdout, err = run(capsys, "extract", "--in", str(path))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and "incl_len 65536 > snaplen 65535" in err and err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    assert main(["craft", "--kind", "bogus", "--out", "x.pcap"]) == 2
    capsys.readouterr()
    assert main(["extract"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    code, _, err = run(capsys, "extract", "--in", "/nonexistent.pcap")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wormsim", "--nodes", "3", "--timing", "download=nan"], "download must be finite"),
        (["wormsim", "--nodes", "3", "--timing", "dos_outage=inf"], "dos_outage must be finite"),
        (["wormsim", "--nodes", "3", "--dos", "--repeats", "3", "--interval", "-2"], "interval"),
        (["wormsim", "--nodes", "3", "--dos", "--interval", "nan"], "interval"),
        (["bench", "--mode", "fast", "--duration", "-1"], "duration"),
        (["bench", "--mode", "fast", "--duration", "nan"], "duration"),
        (["bench", "--mode", "slow", "--duration", "0"], "duration"),
        (["craft", "--kind", "long-shim", "--size", "70000", "--out", "OUT"], "snaplen"),
        (["bench", "--mode", "fast", "--duration", "1e300"], "rate 10000 pps"),
        (["wormsim", "--nodes", "1", "--timing", "download"], "bad --timing 'download', expected k=v"),
        (["wormsim", "--nodes", "1", "--timing", "warp=1"], "unknown timing field 'warp'"),
        (["wormsim", "--nodes", str(wormsim.MAX_NODES + 1)], f"compute node count {wormsim.MAX_NODES + 1} outside"),
        (["wormsim", "--nodes", "1", "--dos", "--repeats", str(wormsim.MAX_REPEATS + 1)],
         f"repeats {wormsim.MAX_REPEATS + 1} outside"),
        (["bench", "--mode", "fast", "--count", str(bench.MAX_LATENCY_COUNT + 1)],
         f"latency count {bench.MAX_LATENCY_COUNT + 1}, warmup 500"),
    ],
)
def test_out_of_range_values_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.pcap"
    code, stdout, err = run(capsys, *[str(out) if arg == "OUT" else arg for arg in argv])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_fuzz_max_len_past_snaplen_exits_2_before_fuzzing(tmp_path, capsys):
    corpus, report = tmp_path / "ls.pcap", tmp_path / "report.txt"
    write_pcap(corpus, [craft(AttackSpec(AttackKind.LONG_SHIM))])
    code, stdout, err = run(capsys, "fuzz", "--corpus", str(corpus), "--max-len", "70000", "--out-report", str(report))
    assert code == 2
    assert stdout == ""
    assert err == "error: max_len must be 1..65535 (the pcap snaplen), got 70000\n"
    assert not report.exists()


def test_craft_long_shim_at_snaplen_writes_pcap(tmp_path, capsys):
    out = tmp_path / "big.pcap"
    code, stdout, _ = run(capsys, "craft", "--kind", "long-shim", "--size", "65535", "--out", str(out))
    assert code == 0
    (frame,) = read_pcap(out)
    assert frame.capture_len == 65534
    assert "65534 octets" in stdout


def test_pipeline_rule_value_wider_than_field_exits_2(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("priority=1, actions=output:1\npriority=2, eth_type=0x10000, actions=drop\n")
    frame_pcap = tmp_path / "acl.pcap"
    run(capsys, "craft", "--kind", "acl-bypass", "--out", str(frame_pcap))
    code, stdout, err = run(capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules))
    assert code == 2
    assert stdout == ""
    assert err == "error: line 2: bad value for eth_type: 65536 does not fit in 16 bits\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("priority=2, actions=", "empty action list"),
        ("priority=2, priority=3, actions=drop", "duplicate field 'priority'"),
        ("ip_proto=6, actions=drop", "missing priority="),
    ],
)
def test_pipeline_rule_action_list_and_priority_errors_exit_2(tmp_path, capsys, line, message):
    rules = tmp_path / "rules.txt"
    rules.write_text(f"priority=1, actions=output:1\n{line}\n")
    frame_pcap = tmp_path / "acl.pcap"
    run(capsys, "craft", "--kind", "acl-bypass", "--out", str(frame_pcap))
    code, stdout, err = run(capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules))
    assert code == 2
    assert stdout == ""
    assert err == f"error: line 2: {message}\n"


@pytest.mark.parametrize(
    "actions, in_port, message",
    [
        ("output:-7", "1", "bad output port in 'output:-7'"),
        ("output:4294967296", "1", "bad output port"),
        ("output:2", "-3", "--in-port -3 does not fit in 32 bits"),
        ("output:2", "4294967296", "--in-port 4294967296 does not fit in 32 bits"),
    ],
)
def test_pipeline_port_outside_32_bits_exits_2(tmp_path, capsys, actions, in_port, message):
    rules = tmp_path / "rules.txt"
    rules.write_text(f"priority=1, actions={actions}\n")
    frame_pcap = tmp_path / "acl.pcap"
    run(capsys, "craft", "--kind", "acl-bypass", "--out", str(frame_pcap))
    code, stdout, err = run(capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules),
                            "--in-port", in_port)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and message in err


def test_pipeline_port_at_32_bit_limit(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("priority=1, in_port=4294967295, actions=output:4294967295\n")
    frame_pcap = tmp_path / "acl.pcap"
    run(capsys, "craft", "--kind", "acl-bypass", "--out", str(frame_pcap))
    code, stdout, _ = run(capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules),
                          "--profile", "v250", "--in-port", "4294967295")
    assert code == 0
    assert stdout.startswith("frame=0 disposition=Forwarded(4294967295)\n")


def test_non_integer_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SHIMGUARD_SEED", "abc")
    code, stdout, err = run(capsys, "wormsim", "--nodes", "2")
    assert code == 2
    assert stdout == ""
    assert err == "error: SHIMGUARD_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--duration", "1e-9", "--rates", "10000", "--sizes", ""],
        ["--rates=-5", "--sizes", ""],
    ],
)
def test_bench_rate_without_packets_exits_2(capsys, argv):
    code, stdout, err = run(capsys, "bench", "--mode", "fast", *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: rate ")


def test_bench_latency_only_ignores_duration(capsys):
    code, stdout, _ = run(capsys, "bench", "--mode", "fast", "--rates", "", "--duration", "1e-9",
                          "--sizes", "44", "--count", "300", "--warmup", "100")
    assert code == 0
    assert stdout.startswith("mode,size_b,")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--interval-ms", "inf"], "error: interval inf ms "),
        (["--interval-ms", "-1"], "error: interval -1.0 ms "),
        (["--count", "300", "--warmup", "-250"], "error: latency count 300, warmup -250:"),
        (["--count", "-5", "--warmup", "-10"], "error: latency count -5, warmup -10:"),
        (["--sizes", "70000"], "error: packet size 70000 "),
    ],
    ids=["interval-inf", "interval-negative", "warmup-negative", "count-negative", "size-70000"],
)
def test_bench_latency_value_exits_2_before_measuring(capsys, argv, message):
    code, stdout, err = run(capsys, "bench", "--mode", "fast", "--rates", "", "--sizes", "44", *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith(message)


def test_help_enumerates_interface_flags(capsys):
    expected = {
        "craft": ["--kind", "--size", "--total-length", "--dport", "--payload", "--out"],
        "extract": ["--in", "--profile", "--label-limit"],
        "pipeline": ["--in", "--rules", "--profile", "--no-megaflow"],
        "fuzz": ["--corpus", "--iters", "--profiles", "--out-report", "--out-exemplars"],
        "wormsim": ["--nodes", "--timing", "--dos", "--repeats", "--csv"],
        "bench": ["--mode", "--rates", "--duration", "--sizes", "--csv"],
    }
    for command, flags in expected.items():
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, f"{command} help missing {flag}"


def test_no_socket_usage_in_package():
    # file-only I/O guarantee: no module may import or reference the socket API
    for path in SRC_DIR.rglob("*.py"):
        source = path.read_text()
        assert "import socket" not in source, path
        assert "socket." not in source, path


def test_seed_isolated_from_global_random(tmp_path, capsys):
    import random

    corpus = tmp_path / "seeds.pcap"
    run(capsys, "craft", "--kind", "long-shim", "--out", str(corpus))
    report_a = tmp_path / "a.txt"
    report_b = tmp_path / "b.txt"
    random.seed(1)
    run(capsys, "--seed", "3", "fuzz", "--corpus", str(corpus), "--iters", "200",
        "--profiles", "hardened,v232", "--out-report", str(report_a))
    random.seed(999)
    run(capsys, "--seed", "3", "fuzz", "--corpus", str(corpus), "--iters", "200",
        "--profiles", "hardened,v232", "--out-report", str(report_b))
    assert report_a.read_bytes() == report_b.read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--mode", "fast", "--rates", "10000", "--sizes", "", "--duration", "1e308"],
         "error: rate 10000 pps "),
        (["bench", "--mode", "fast", "--rates", "", "--sizes", "44", "--count", "600", "--warmup", "100",
          "--interval-ms", "1e308"], "error: interval 1e+308 ms "),
        (["wormsim", "--nodes", "3", "--timing", "download=1e308"], "error: stage timings sum past the float range"),
        (["wormsim", "--nodes", "3", "--dos", "--repeats", "3", "--interval", "1e308"], "error: 3 attacks 1e+308 s "),
    ],
    ids=["bench-duration", "bench-interval", "wormsim-timing", "wormsim-dos-interval"],
)
def test_values_overflowing_a_computed_time_exit_2(capsys, argv, message):
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith(message) and err.count("\n") == 1


# CLI-value soak: each run gives a subcommand valid required arguments, then
# sets one or two options to an edge value. Flags are passed as --flag=value so
# that "", "-1" and "," reach the option as values. Paths are relative to the
# run's directory, where in/ holds the inputs.
_EDGE = ["-1", "0", "nan", "inf", "1e308", "", "abc", ","]
_IN_FILE = _EDGE + ["in/missing", "in/latin1.txt", "in/rules.txt"]
_OUT_FILE = _EDGE + ["nodir/out"]
_SOAK_BASE = {
    "craft": ["craft", "--kind=long-shim", "--out=o.pcap"],
    "extract": ["extract", "--in=in/corpus.pcap"],
    "pipeline": ["pipeline", "--in=in/corpus.pcap", "--rules=in/rules.txt"],
    "fuzz": ["fuzz", "--corpus=in/corpus.pcap", "--iters=10"],
    "wormsim": ["wormsim", "--nodes=3"],
    "bench": ["bench", "--mode=fast", "--rates=2", "--duration=0.5", "--sizes=44",
              "--count=5", "--warmup=1"],
}
_SOAK_OPTIONS = {
    "craft": {
        "--kind": _EDGE + ["LONG-SHIM", "short-shim", "acl-bypass"],
        "--size": _EDGE + ["17", "18", "65536"],
        "--fragment": _EDGE + ["4"],
        "--total-length": _EDGE + ["65536"],
        "--sport": _EDGE + ["65536"],
        "--dport": _EDGE + ["65536"],
        "--payload": _IN_FILE,
        "--out": _OUT_FILE,
    },
    "extract": {
        "--in": _IN_FILE,
        "--profile": _EDGE + ["V232", "v240"],
        "--label-limit": _EDGE + ["1"],
    },
    "pipeline": {
        "--in": _IN_FILE,
        "--rules": _IN_FILE + ["in/corpus.pcap"],
        "--profile": _EDGE + ["Hardened", "v250"],
        "--label-limit": _EDGE,
        "--in-port": _EDGE + [str(1 << 32)],
        "--no-megaflow": [None],
    },
    "fuzz": {
        "--corpus": _IN_FILE,
        "--iters": _EDGE,
        "--profiles": _EDGE + ["HARDENED,V232", "hardened", "hardened,,v250", "hardened,bogus"],
        "--label-limit": _EDGE,
        "--max-len": _EDGE + ["65536"],
        "--strategies": _EDGE + ["bitflip,,lse-duplicate"],
        "--out-report": _OUT_FILE,
        "--out-exemplars": _OUT_FILE,
    },
    "wormsim": {
        "--nodes": _EDGE + [str(wormsim.MAX_NODES + 1)],
        "--attacker-host": _EDGE + ["3"],
        "--timing": _EDGE + ["download=-1", "download=nan", "download=1e308", "=1", "download="],
        "--dos": [None],
        "--repeats": _EDGE + [str(wormsim.MAX_REPEATS + 1)],
        "--interval": _EDGE,
        "--csv": _OUT_FILE,
    },
    "bench": {
        "--mode": _EDGE + ["FAST", "slow"],
        # One packet past bench.MAX_OFFERED at the base duration, and at the base rate.
        "--rates": _EDGE + [str((bench.MAX_OFFERED + 1) * 2)],
        "--duration": _EDGE + [str((bench.MAX_OFFERED + 1) / 2)],
        "--sizes": _EDGE + [str(bench.MIN_FRAME - 1), str(bench.MAX_FRAME + 1)],
        "--count": _EDGE + [str(bench.MAX_LATENCY_COUNT + 1)],
        "--warmup": _EDGE + ["5"],
        "--interval-ms": _EDGE + [str(bench.MAX_INTERVAL_MS * 2)],
        "--csv": _OUT_FILE,
    },
}
# A value that passes validation on a work-count flag must keep the run small.
_WORK_LIMITS = {"--iters": 50, "--count": 100, "--nodes": 100, "--interval-ms": 1, "--rates": 100}


def _soak_runs(rng):
    """Every edge value of every option on its own, then seeded pairs of them."""
    options = {command: {**_SOAK_OPTIONS[command], "--seed": _EDGE} for command in _SOAK_BASE}
    for command, flags in options.items():
        for flag, values in flags.items():
            for value in values:
                yield command, {flag: value}
    for _ in range(10):
        for command, flags in options.items():
            yield command, {flag: rng.choice(flags[flag]) for flag in rng.sample(sorted(flags), 2)}


def test_cli_value_soak_exits_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    write_pcap("in/corpus.pcap", [craft(AttackSpec(kind)) for kind in AttackKind])
    (tmp_path / "in/rules.txt").write_text("priority=5, parse_status=malformed, actions=controller\npriority=1, actions=output:1\n")
    (tmp_path / "in/latin1.txt").write_bytes(b"priority=1, actions=output:1 # caf\xe9\n")
    monkeypatch.delenv("SHIMGUARD_SEED", raising=False)
    # main builds the same parser on every call; building it once keeps the soak fast.
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    rng = random.Random(2016)
    codes = set()
    for command, chosen in _soak_runs(rng):
        # --seed is global, so it goes before the subcommand.
        argv = [f"--seed={chosen.pop('--seed', rng.randrange(1 << 16))}", *_SOAK_BASE[command]]
        argv += [flag if value is None else f"{flag}={value}" for flag, value in chosen.items()]
        try:
            code, _, err = run(capsys, *argv)
        except Exception as exc:  # a traceback escaping main is the failure this soak looks for
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1, 2), argv
        codes.add(code)
        if code == 2:
            assert err.startswith("usage: shimguard") or (
                err.startswith("error: ") and err.count("\n") == 1
            ), (argv, err)
            continue
        assert err == "", (argv, err)
        for flag, limit in _WORK_LIMITS.items():
            if flag in chosen:
                assert max(map(float, filter(None, chosen[flag].split(","))), default=0) <= limit, argv
    assert codes >= {0, 2}
