"""Runtime engine — streaming throughput and parallel campaign speedup.

Two operational numbers the offline benches cannot produce:

* **columns/s** of the online engine (`repro stream`): the rate the
  incremental tracker sustains decides whether the device keeps up
  with the 312.5 Hz channel-sample rate (a column every ``hop`` = 25
  samples = 80 ms, i.e. 12.5 columns/s of real time) or falls behind
  and overflows — the paper's reason for running at 5 MHz (§7.1).
* **campaign speedup** of the process-pool executor over the serial
  sweep, with identical per-condition results (seed streams depend
  only on sweep position).
"""

import time
from pathlib import Path

import numpy as np

from common import SEED, emit, format_table, trial_count, write_bench_json
from repro.analysis.campaign import Campaign, Condition
from repro.core.tracking import TrackingConfig, compute_spectrogram
from repro.environment.walls import stata_conference_room_small
from repro.hardware.streaming import RxStreamer
from repro.runtime import (
    DetectStage,
    StreamingPipeline,
    StreamingTracker,
    run_campaign_parallel,
)
from repro.simulator.experiment import make_subject_pool, tracking_trial

BLOCK_SIZE = 64


def _stream_once(samples: np.ndarray, config: TrackingConfig):
    streamer = RxStreamer(max_buffers=max(len(samples) // BLOCK_SIZE + 1, 16))
    for offset in range(0, len(samples), BLOCK_SIZE):
        streamer.push(samples[offset : offset + BLOCK_SIZE])
    streamer.close()
    tracker = StreamingTracker(config)
    pipeline = StreamingPipeline(
        streamer,
        tracker,
        detector=DetectStage(config.theta_grid_deg),
    )
    result = pipeline.run()
    return result, tracker


def _open_corpus(spec: str):
    """Resolve ``--corpus`` to a sealed capture reader.

    Accepts a capture store directory (the newest sealed capture is
    benched), a single capture directory, or a frozen bundle file.
    """
    from repro.capture import BUNDLE_SUFFIX, CaptureReader, CaptureStore
    from repro.capture.format import HEADER_FILE

    path = Path(spec)
    if path.is_file() and path.name.endswith(BUNDLE_SUFFIX):
        return CaptureReader(path)
    if (path / HEADER_FILE).is_file():
        return CaptureReader(path)
    store = CaptureStore(path)
    sealed = [info for info in store.list_captures(audit=False) if info.sealed]
    if not sealed:
        raise ValueError(f"corpus store {path} has no sealed captures")
    return store.open(sealed[-1].capture_id)


def bench_streaming_throughput(benchmark, corpus_spec):
    corpus = None
    if corpus_spec is not None:
        from repro.capture import verify_capture

        reader = _open_corpus(corpus_spec)
        header = reader.header
        chunks = list(reader.iter_chunks())
        assert chunks, f"corpus capture {header.capture_id} has no sample chunks"
        samples = np.concatenate([chunk.samples for chunk in chunks])
        config = header.tracking_config()
        duration_s = len(samples) / header.sample_rate_hz
        verification = verify_capture(reader)
        assert verification.ok, (
            f"corpus capture {header.capture_id} failed the determinism "
            f"gate: {verification.mismatches} mismatched columns"
        )
        corpus = {
            "capture_id": header.capture_id,
            "format_version": header.format_version,
            "source": header.source,
            "num_chunks": len(chunks),
            "replay_columns": verification.num_columns,
        }
        trace_label = f"recorded capture {header.capture_id}"
    else:
        rng = np.random.default_rng(SEED + 50)
        duration_s = 25.0 if trial_count(0, 1) else 8.0
        pool = make_subject_pool(rng)
        trial = tracking_trial(stata_conference_room_small(), 1, duration_s, rng, pool)
        samples = trial.series.samples
        config = TrackingConfig()
        trace_label = "synthetic trace"

    start = time.perf_counter()
    result, tracker = _stream_once(samples, config)
    elapsed = time.perf_counter() - start
    columns_per_s = len(result.columns) / elapsed
    realtime_column_rate = 312.5 / config.hop
    margin = columns_per_s / realtime_column_rate

    offline = compute_spectrogram(samples, config)
    matches = bool(
        np.array_equal(offline.power, result.spectrogram(tracker).power)
    )

    lines = [
        f"Online engine over a {duration_s:.0f} s {trace_label} "
        f"({len(samples)} samples, blocks of {BLOCK_SIZE}):",
        f"  columns emitted:      {len(result.columns)}",
        f"  throughput:           {columns_per_s:.1f} columns/s",
        f"  real-time column rate: {realtime_column_rate:.1f} columns/s "
        f"(hop {config.hop} at 312.5 Hz)",
        f"  real-time margin:     {margin:.1f}x",
        f"  matches offline pipeline bit-for-bit: {matches}",
        "",
        "Per-stage accounting:",
    ]
    lines += [f"  {line}" for line in result.metrics.describe()]
    if corpus is not None:
        lines += [
            "",
            f"Corpus: capture {corpus['capture_id']} "
            f"(format v{corpus['format_version']}, source {corpus['source']}), "
            f"replay gate: {corpus['replay_columns']} columns bit-identical",
        ]
    emit("runtime_streaming_throughput", "\n".join(lines))
    write_bench_json(
        "runtime_streaming",
        {
            "trace_duration_s": duration_s,
            "num_samples": len(samples),
            "columns_emitted": len(result.columns),
            "columns_per_s": columns_per_s,
            "realtime_column_rate": realtime_column_rate,
            "realtime_margin": margin,
            "matches_offline": matches,
        },
        corpus=corpus,
    )

    assert columns_per_s > 0.0, "streaming engine emitted no columns"
    assert matches, "online columns diverged from the offline spectrogram"

    benchmark(_stream_once, samples, config)


def _campaign_trial(rng, num_samples=600):
    """A CPU-bound trial: MUSIC over a synthetic noisy trace."""
    series = (
        rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples) + 0.3
    )
    config = TrackingConfig(window_size=64, hop=32, subarray_size=24)
    spectrogram = compute_spectrogram(series, config)
    return float(spectrogram.power.mean())


def bench_parallel_campaign_speedup(benchmark):
    conditions = [
        Condition(f"load-{k}", {"num_samples": 400 + 100 * k}) for k in range(4)
    ]
    campaign = Campaign(
        trial=_campaign_trial,
        conditions=conditions,
        trials_per_condition=trial_count(3, 10),
        seed=SEED + 51,
    )

    serial_start = time.perf_counter()
    serial = campaign.run()
    serial_wall = time.perf_counter() - serial_start
    report = run_campaign_parallel(campaign, max_workers=2)

    identical = all(
        serial[label].values == report.results[label].values
        and serial[label].failures == report.results[label].failures
        for label in serial
    )
    rows = [
        [
            label,
            f"{serial[label].wall_time_s:.3f}",
            f"{report.results[label].wall_time_s:.3f}",
            "yes" if serial[label].values == report.results[label].values else "NO",
        ]
        for label in serial
    ]
    lines = [
        f"Serial sweep: {serial_wall:.3f} s; parallel "
        f"({report.worker_count} workers): {report.wall_time_s:.3f} s "
        f"-> speedup {serial_wall / max(report.wall_time_s, 1e-9):.2f}x "
        f"(in-worker serial-equivalent {report.speedup:.2f}x)",
        "",
        format_table(
            ["condition", "serial s", "parallel s", "identical"], rows
        ),
        "",
        "Identical values by construction: each (condition, trial) pair",
        "draws from SeedSequence([seed, condition_index, trial_index]).",
    ]
    emit("runtime_parallel_campaign", "\n".join(lines))

    assert identical, "parallel campaign diverged from the serial path"
    assert all(r.wall_time_s > 0 for r in serial.values())

    benchmark(run_campaign_parallel, campaign, 2)
