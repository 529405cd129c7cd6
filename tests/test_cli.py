import re
from pathlib import Path

import pytest

from shimguard.attacks import AttackKind, AttackSpec, craft
from shimguard.cli import main
from shimguard.extract import VULN_232, extract
from shimguard.packet import EthernetHeader, RawFrame, encode_frame
from shimguard.pcap import read_pcap, write_pcap

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
    ],
)
def test_out_of_range_values_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.pcap"
    code, stdout, err = run(capsys, *[str(out) if arg == "OUT" else arg for arg in argv])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_craft_long_shim_at_snaplen_writes_pcap(tmp_path, capsys):
    out = tmp_path / "big.pcap"
    code, stdout, _ = run(capsys, "craft", "--kind", "long-shim", "--size", "65535", "--out", str(out))
    assert code == 0
    (frame,) = read_pcap(out)
    assert frame.capture_len == 65534
    assert "65534 octets" in stdout


def test_pipeline_rule_value_wider_than_field_exits_2(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("priority=1, actions=output:1\npriority=2, eth_type=-1, actions=drop\n")
    frame_pcap = tmp_path / "acl.pcap"
    run(capsys, "craft", "--kind", "acl-bypass", "--out", str(frame_pcap))
    code, stdout, err = run(capsys, "pipeline", "--in", str(frame_pcap), "--rules", str(rules))
    assert code == 2
    assert stdout == ""
    assert err == "error: line 2: bad value for eth_type: -1 does not fit in 16 bits\n"


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
