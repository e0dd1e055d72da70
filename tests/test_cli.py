"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_track_command(capsys):
    code = main(["track", "--humans", "1", "--duration", "3", "--seed", "3"])
    assert code == 0
    output = capsys.readouterr().out
    assert "calibrated" in output
    assert "dominant angle" in output


def test_track_command_with_fault_injection(capsys):
    code = main(
        ["track", "--humans", "1", "--duration", "3", "--seed", "3",
         "--inject-faults", "--fault-seed", "7"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "fault schedule (seed 7)" in output
    assert "final health:" in output
    assert "dominant angle" in output


def test_track_fault_flags_default_off():
    args = build_parser().parse_args(["track"])
    assert args.inject_faults is False
    assert args.fault_seed == 0


def test_stream_command(capsys):
    code = main(["stream", "--humans", "1", "--duration", "3", "--seed", "3"])
    assert code == 0
    output = capsys.readouterr().out
    assert "calibrated" in output
    assert "columns/s" in output
    assert "final health: healthy" in output
    assert "track:" in output  # per-stage metrics block
    # Live column lines stream out before the summary.
    assert output.count("peak") > 10


def test_stream_command_with_fault_injection(capsys):
    code = main(
        ["stream", "--humans", "1", "--duration", "3", "--seed", "3",
         "--inject-faults", "--fault-seed", "7"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "fault schedule (seed 7)" in output
    assert "final health:" in output


def test_stream_command_beamforming_path(capsys):
    code = main(
        ["stream", "--humans", "1", "--duration", "3", "--seed", "3",
         "--beamforming"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "[beamforming]" in output
    assert "[music]" not in output


def test_stream_parser_defaults():
    args = build_parser().parse_args(["stream"])
    assert args.block_size == 64
    assert args.max_buffers == 64
    assert args.realtime is False
    assert args.inject_faults is False
    assert args.beamforming is False


def test_gestures_command_roundtrip(capsys):
    code = main(["gestures", "01", "--distance", "2.5", "--seed", "1"])
    output = capsys.readouterr().out
    assert "decoded" in output
    assert code == 0


def test_gestures_command_rejects_bad_bits(capsys):
    code = main(["gestures", "012"])
    assert code == 2


def test_nulling_command(capsys):
    code = main(["nulling", "--seed", "2"])
    assert code == 0
    output = capsys.readouterr().out
    assert "achieved nulling" in output


def test_materials_command_subset(capsys):
    code = main(
        ["materials", "--materials", "free space", "glass", "--seed", "4"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "free space" in output and "glass" in output


def test_count_command(capsys):
    code = main(
        ["count", "--max-humans", "1", "--duration", "8", "--train-trials", "2",
         "--seed", "6"]
    )
    output = capsys.readouterr().out
    assert "ground truth" in output
    assert code in (0, 1)  # the estimate may miss; the pipeline must run


def test_export_command(tmp_path, capsys):
    target = tmp_path / "track.ppm"
    code = main(
        ["export", str(target), "--humans", "1", "--duration", "3", "--seed", "9"]
    )
    assert code == 0
    from repro.analysis.export import read_pnm_header

    magic, width, height = read_pnm_header(target)
    assert magic == "P6"
    assert width > 0 and height == 181  # theta rows


def test_export_command_gray(tmp_path):
    target = tmp_path / "track.pgm"
    code = main(["export", str(target), "--gray", "--duration", "3", "--seed", "9"])
    assert code == 0
    from repro.analysis.export import read_pnm_header

    assert read_pnm_header(target)[0] == "P5"


# ----------------------------------------------------------------------
# Observability flags and telemetry-report
# ----------------------------------------------------------------------


def test_observability_flags_default_off():
    args = build_parser().parse_args(["track"])
    assert args.telemetry is None
    assert args.trace is None
    assert args.quiet is False


def test_quiet_suppresses_info_but_not_errors(capsys):
    code = main(["nulling", "--seed", "2", "--quiet"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""

    code = main(["gestures", "012", "--quiet"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0s and 1s" in captured.err


def test_telemetry_directory_written_and_reported(tmp_path, capsys):
    run_dir = tmp_path / "tel"
    code = main(
        ["stream", "--duration", "3", "--seed", "3", "--telemetry", str(run_dir)]
    )
    assert code == 0
    for name in ("spans.jsonl", "trace.json", "events.jsonl", "metrics.json"):
        assert (run_dir / name).exists()
    capsys.readouterr()

    code = main(["telemetry-report", str(run_dir)])
    assert code == 0
    report = capsys.readouterr().out
    assert "telemetry report" in report
    assert "stage latency percentiles" in report
    assert "nulling convergence" in report
    assert "cli.stream" in report


def test_telemetry_trace_is_perfetto_loadable(tmp_path):
    import json

    run_dir = tmp_path / "tel"
    code = main(
        ["track", "--duration", "3", "--seed", "3", "--telemetry", str(run_dir)]
    )
    assert code == 0
    document = json.loads((run_dir / "trace.json").read_text())
    assert document["displayTimeUnit"] == "ms"
    names = {event["name"] for event in document["traceEvents"]}
    assert {"cli.track", "device.calibrate", "nulling.run"} <= names
    for event in document["traceEvents"]:
        assert event["ph"] == "X"
        assert event["dur"] >= 0


def test_telemetry_events_carry_nulling_and_health(tmp_path):
    from repro.telemetry.events import read_jsonl

    run_dir = tmp_path / "tel"
    code = main(
        ["track", "--duration", "3", "--seed", "3", "--inject-faults",
         "--fault-seed", "7", "--telemetry", str(run_dir)]
    )
    assert code == 0
    events = read_jsonl(run_dir / "events.jsonl")
    kinds = {event["kind"] for event in events}
    assert "nulling.residual" in kinds
    assert "fault.injected" in kinds
    residuals = [e for e in events if e["kind"] == "nulling.residual"]
    assert all("residual_power" in e and "span_id" in e for e in residuals)


def test_quiet_telemetry_still_logs_cli_lines(tmp_path, capsys):
    from repro.telemetry.events import read_jsonl

    run_dir = tmp_path / "tel"
    code = main(
        ["nulling", "--seed", "2", "--quiet", "--telemetry", str(run_dir)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""  # quiet run prints nothing
    lines = [
        e for e in read_jsonl(run_dir / "events.jsonl") if e["kind"] == "cli.line"
    ]
    assert any("achieved nulling" in e["text"] for e in lines)


def test_trace_flag_writes_chrome_trace_alone(tmp_path, capsys):
    import json

    target = tmp_path / "nulling-trace.json"
    code = main(["nulling", "--seed", "2", "--trace", str(target)])
    assert code == 0
    document = json.loads(target.read_text())
    assert any(e["name"] == "cli.nulling" for e in document["traceEvents"])
    # No full telemetry directory appears as a side effect.
    assert list(tmp_path.iterdir()) == [target]


def test_telemetry_report_missing_directory(tmp_path, capsys):
    code = main(["telemetry-report", str(tmp_path / "nope")])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_telemetry_deactivated_after_run(tmp_path):
    from repro.telemetry import get_telemetry

    main(["nulling", "--seed", "2", "--telemetry", str(tmp_path / "t")])
    assert get_telemetry().enabled is False


def test_backends_command_lists_parseable_lines(capsys):
    code = main(["backends"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("name=")]
    rows = {}
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split(" ", 5))
        rows[fields["name"]] = fields
    assert rows["numpy-float64"]["default"] == "yes"
    assert rows["numpy-float64"]["conformance"] == "exact"
    assert rows["numpy-float32"]["dtype"] == "complex64"
    assert rows["numpy-float32"]["conformance"].startswith("pass(")


def test_backends_no_check_skips_conformance(capsys):
    code = main(["backends", "--no-check"])
    assert code == 0
    out_text = capsys.readouterr().out
    assert "conformance=skipped" in out_text


def test_dsp_backend_flag_selects_and_restores(capsys):
    from repro.dsp import DEFAULT_BACKEND, set_active_backend

    try:
        code = main(["--dsp-backend", "numpy-float32", "backends", "--no-check"])
        assert code == 0
        out_text = capsys.readouterr().out
        assert "name=numpy-float32" in out_text
        for line in out_text.splitlines():
            if line.startswith("name=numpy-float32"):
                assert "active=yes" in line
    finally:
        set_active_backend(DEFAULT_BACKEND)


def test_dsp_backend_flag_rejects_unknown_name(capsys):
    code = main(["--dsp-backend", "bogus", "backends", "--no-check"])
    assert code == 2
    assert "unknown DSP backend" in capsys.readouterr().err
