"""Command-line interface: ``python -m repro <command>``.

Subcommands, one per headline capability:

* ``track``     — image a moving person through a wall (mode 1, §3.2).
* ``stream``    — the same imaging, online: spectrogram columns emitted
  block by block as the samples arrive (the `repro.runtime` engine).
* ``gestures``  — decode a gestured bit sequence (mode 2, Chapter 6).
* ``count``     — train and run the §7.4 occupant counter.
* ``materials`` — the §7.6 building-material sweep.
* ``nulling``   — run Algorithm 1 and report the achieved depth.
* ``serve``     — the multi-session sensing service: an asyncio TCP
  server micro-batching MUSIC windows across sessions (`repro.serve`).
  ``--record DIR`` taps every fresh session into a capture store;
  ``--dashboard`` co-hosts the ``repro.observe`` HTTP/WebSocket
  gateway (Prometheus ``/metrics``, live dashboard at ``/``).
* ``fleet``     — the sharded multi-worker service (`repro.fleet`): a
  routing frontend over ``--workers N`` forked serve processes, with
  consistent-hash session placement, shard drain, crash supervision,
  and exactly-merged cross-process telemetry.  Takes every ``serve``
  option but ``--chaos-seed``.
* ``observe``   — serve the same gateway over a *recorded*
  ``--telemetry`` run directory: replayed events on ``/ws/live``, the
  recorded metrics snapshot on ``/metrics``.
* ``load``      — drive a running ``serve`` or ``fleet`` with N
  concurrent sessions, report throughput, latency percentiles, and
  batch occupancy, and verify every served column against offline
  compute.
* ``record``    — run the streaming pipeline and record exactly what
  the tracker saw into a retention-managed capture store
  (`repro.capture`).
* ``replay``    — feed a capture back through a rebuilt tracker (or,
  with ``--port``, a live serve session) and prove the replayed
  columns bit-identical to the originals; ``--promote`` freezes a
  passing capture into a regression fixture bundle.
* ``captures``  — list or prune the capture store.
* ``telemetry-report`` — summarize a ``--telemetry`` run directory.

Every command accepts ``--seed`` for reproducibility and prints ASCII
renderings of what the paper shows as figures.  Observability flags
are shared by every command: ``--telemetry DIR`` records spans,
metrics, and structured events into DIR (``trace.json`` there loads
straight into Perfetto), ``--trace FILE`` writes the Chrome trace
alone, and ``--quiet`` silences informational output (errors still
reach stderr; with telemetry on, the suppressed lines are preserved as
``cli.line`` events).

All user-facing output flows through one :class:`OutputWriter` on the
standard logging stack — ``main()`` is the only place handlers are
configured, and a lint test keeps ``print(`` out of the rest of
``src/repro``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import math
import signal

import numpy as np

from repro.analysis.plots import render_heatmap, render_series
from repro.core.counting import SpatialVarianceClassifier, trace_spatial_variance
from repro.core.gestures import GestureDecoder
from repro.dsp.backend import backend_infos, quick_conformance, set_active_backend
from repro.errors import DspBackendError
from repro.environment.geometry import Point
from repro.environment.human import Human
from repro.environment.trajectories import GestureTrajectory
from repro.environment.walls import stata_conference_room_small
from repro.rf.materials import MATERIALS, material_by_name
from repro.simulator.device import WiViDevice
from repro.simulator.experiment import (
    build_tracking_scene,
    counting_trial,
    gesture_trial,
    make_subject_pool,
    room_for_material,
)
from repro.environment.scene import Scene
from repro.telemetry import configure, deactivate, get_telemetry
from repro.telemetry.output import OutputWriter, configure_cli_logging

#: The CLI's single output writer (see module docstring).
out = OutputWriter()


def _bounded(kind: type, accept, what: str):
    """An argparse type: a ``kind`` value that ``accept`` admits, else a usage error."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    return parse


#: ``--duration``: a positive, finite number of seconds.
_duration = _bounded(float, lambda v: 0 < v < math.inf, "a positive number of seconds")
#: ``--distance``: a positive, finite number of meters.
_distance = _bounded(float, lambda v: 0 < v < math.inf, "a positive number of meters")
#: Deadlines (0 disables one), ``--max-age`` and ``--rate``.
_age = _bounded(float, lambda v: 0 <= v < math.inf, "a non-negative number")
#: TCP ports; 0 picks a free one.
_port = _bounded(int, lambda v: 0 <= v <= 65535, "a TCP port (0-65535)")
#: Block sizes, buffer depths, session and push counts.
_positive_int = _bounded(int, lambda v: v >= 1, "a positive integer")
#: Head counts, seeds and retention limits, where 0 is meaningful.
_count = _bounded(int, lambda v: v >= 0, "a non-negative integer")


def _material(text: str) -> str:
    """A wall material the simulator knows (``repro materials`` lists them)."""
    if text not in MATERIALS:
        raise argparse.ArgumentTypeError(
            f"must be one of: {', '.join(sorted(MATERIALS))}; got {text}"
        )
    return text


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_count, default=0, help="random seed")


def _add_observability(parser: argparse.ArgumentParser) -> None:
    """The telemetry/verbosity flags every subcommand carries."""
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="record spans, metrics, and structured events into DIR",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome-trace JSON (Perfetto-loadable) to FILE",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational output (errors still print)",
    )


def _add_service_options(parser: argparse.ArgumentParser, port: int) -> None:
    """The options ``serve`` and ``fleet`` share.

    A fleet's frontend binds and holds client connections to the bind
    and deadline options; each shard takes the session and scheduler
    limits and ``--record``.
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=_port, default=port, help="TCP port (0 picks a free one)"
    )
    parser.add_argument(
        "--duration",
        type=_duration,
        default=None,
        help="self-terminate after this many seconds (default: run forever)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=64, help="session limit (per shard in a fleet)"
    )
    parser.add_argument(
        "--max-batch-windows",
        type=int,
        default=64,
        help="windows one scheduler tick may stack (1 = serial dispatch; per shard in a fleet)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=512,
        help="admission bound: queued windows before pushes are shed (per shard in a fleet)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=_age,
        default=30.0,
        help="client-connection read deadline in seconds (0 disables)",
    )
    parser.add_argument(
        "--write-timeout",
        type=_age,
        default=10.0,
        help="per-reply write deadline in seconds (0 disables)",
    )
    parser.add_argument(
        "--record",
        metavar="DIR",
        default=None,
        help="record every fresh session into a capture store at DIR "
        "(one store shared by all shards)",
    )
    parser.add_argument(
        "--dashboard",
        action="store_true",
        help="co-host the observe gateway (/metrics, /ws/live, /api/shards, "
        "dashboard at /)",
    )
    parser.add_argument(
        "--dashboard-host", default="127.0.0.1", help="gateway bind host"
    )
    parser.add_argument(
        "--dashboard-port",
        type=_port,
        default=0,
        help="gateway TCP port (0 picks a free one; printed on bind)",
    )
    _add_seed(parser)
    _add_observability(parser)


def _stop_on_signals() -> asyncio.Event:
    """An event SIGINT and SIGTERM set, so both stop a service gracefully.

    Call it inside the service's event loop, before the service starts:
    the wait on the event ends, the caller drains the service, and its
    summary line prints, whichever signal arrived.
    """
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        # An inherited "ignore" stays in force, as for the SIGINT of a
        # background job started from a script.
        if signal.getsignal(signum) is not signal.SIG_IGN:
            loop.add_signal_handler(signum, stop.set)
    return stop


def cmd_track(args: argparse.Namespace) -> int:
    """Image movers behind a wall (mode 1, §3.2)."""
    rng = np.random.default_rng(args.seed)
    room = stata_conference_room_small()
    scene = build_tracking_scene(room, args.humans, args.duration, rng)
    device = WiViDevice(scene, rng)
    if args.inject_faults:
        return _track_with_faults(device, args)
    nulling = device.calibrate()
    out(f"calibrated: {nulling.nulling_db:.1f} dB of nulling")
    spectrogram = device.image(args.duration)
    out(render_heatmap(spectrogram.normalized_db().T, spectrogram.theta_grid_deg))
    angles = spectrogram.dominant_angles_deg(exclude_dc_deg=10.0)
    out(f"dominant angle range: {angles.min():+.0f}..{angles.max():+.0f} deg "
        "(positive = toward the device)")
    return 0


def _track_with_faults(device: WiViDevice, args: argparse.Namespace) -> int:
    """Tracking run under the fault-injection + recovery pipeline."""
    from repro.core.monitoring import ResilientDevice
    from repro.errors import ReproError
    from repro.faults import FaultInjector, FaultSchedule

    schedule = FaultSchedule.generate(duration_s=args.duration + 2.0, seed=args.fault_seed)
    out(f"fault schedule (seed {args.fault_seed}): {schedule.describe()}")
    resilient = ResilientDevice(device, injector=FaultInjector(schedule))
    try:
        spectrogram = resilient.image(args.duration)
    except ReproError as exc:
        out.error(f"device gave up: {exc}")
        return 1
    finally:
        for entry in resilient.injector.log:
            out(f"  fault: {entry.describe()}")
        for transition in resilient.machine.transitions:
            out(
                f"  health: capture {transition.capture_index}: "
                f"{transition.source.value} -> {transition.target.value} "
                f"({transition.reason})"
            )
    out(render_heatmap(spectrogram.normalized_db().T, spectrogram.theta_grid_deg))
    out(
        f"final health: {resilient.machine.state.value}; "
        f"{resilient.machine.recalibration_count} recalibrations, "
        f"{resilient.machine.recovery_count} recoveries, "
        f"{resilient.repaired_sample_count} samples repaired"
    )
    if spectrogram.fallback_fraction > 0:
        out(
            f"MUSIC degeneracy fallback on "
            f"{100 * spectrogram.fallback_fraction:.1f}% of frames"
        )
    angles = spectrogram.dominant_angles_deg(exclude_dc_deg=10.0)
    out(f"dominant angle range: {angles.min():+.0f}..{angles.max():+.0f} deg "
        "(positive = toward the device)")
    return 0


def _simulated_run(args: argparse.Namespace):
    """Seed, scene, device and calibration, then one capture of
    ``--duration`` seconds: the simulated radio's output that ``stream``
    and ``record`` feed the runtime.

    Under ``--inject-faults`` a generated fault schedule corrupts it at
    the hardware boundary, before the runtime ever sees a sample.
    Returns ``(device, series, injector)``; the injector is None
    without faults.
    """
    rng = np.random.default_rng(args.seed)
    room = stata_conference_room_small()
    scene = build_tracking_scene(room, args.humans, args.duration, rng)
    device = WiViDevice(scene, rng)
    nulling = device.calibrate()
    out(f"calibrated: {nulling.nulling_db:.1f} dB of nulling")
    series = device.capture(args.duration)
    injector = None
    if args.inject_faults:
        from repro.faults import FaultInjector, FaultSchedule

        schedule = FaultSchedule.generate(duration_s=args.duration + 2.0, seed=args.fault_seed)
        out(f"fault schedule (seed {args.fault_seed}): {schedule.describe()}")
        injector = FaultInjector(schedule)
        series = injector.corrupt_series(series, 0.0)
    return device, series, injector


def cmd_stream(args: argparse.Namespace) -> int:
    """Image movers *online*: columns stream out as samples arrive."""
    import time as _time

    from repro.analysis.plots import render_column_strip
    from repro.hardware.streaming import RxStreamer
    from repro.runtime import (
        ColumnEvent,
        DetectStage,
        DetectionEvent,
        GapEvent,
        HealthEvent,
        StreamingPipeline,
        StreamingTracker,
    )

    device, series, injector = _simulated_run(args)
    rate = device.config.timeseries.sample_rate_hz
    streamer = RxStreamer(max_buffers=args.max_buffers)
    tracker = StreamingTracker(device.config.tracking, use_music=not args.beamforming)
    pipeline = StreamingPipeline(
        streamer, tracker, detector=DetectStage(tracker.config.theta_grid_deg)
    )

    detections = 0

    def show(event) -> None:
        nonlocal detections
        if isinstance(event, ColumnEvent):
            column = event.column
            angle = tracker.config.theta_grid_deg[int(np.argmax(column.power))]
            out(
                f"t={column.time_s:6.2f}s  |{render_column_strip(column.power)}| "
                f"peak {angle:+4.0f} deg [{column.estimator}]"
            )
        elif isinstance(event, DetectionEvent):
            out(
                f"t={event.time_s:6.2f}s  motion at {event.angle_deg:+.0f} deg "
                f"({event.strength_db:.1f} dB over DC)"
            )
            detections += 1
        elif isinstance(event, HealthEvent):
            out(
                f"  health -> {event.state.value} "
                f"(block {event.block_index}: {event.reason})"
            )
        elif isinstance(event, GapEvent):
            out(f"  stream gap: {event.dropped_samples} samples lost")

    samples = series.samples
    start = _time.perf_counter()
    # Producer and consumer interleave chunk by chunk, the shape of the
    # real-time loop: push what the radio produced, drain what's ready.
    with get_telemetry().span("stream.run", samples=len(samples)):
        for offset in range(0, len(samples), args.block_size):
            chunk = samples[offset : offset + args.block_size]
            if args.realtime:
                _time.sleep(len(chunk) / rate)
            streamer.push(chunk)
            for event in pipeline.process():
                show(event)
        streamer.close()
        for event in pipeline.process():
            show(event)
    elapsed = _time.perf_counter() - start

    columns = tracker.columns_emitted
    out(
        f"\n{columns} columns from {tracker.samples_seen} samples in "
        f"{elapsed:.2f} s ({columns / max(elapsed, 1e-9):.1f} columns/s); "
        f"{detections} detections; final health: {pipeline.health.value}"
    )
    for line in pipeline.metrics.describe():
        out(f"  {line}")
    if streamer.overflow_count:
        out(
            f"  backpressure: {streamer.overflow_count} streamer overflows, "
            f"{streamer.dropped_sample_count} samples dropped"
        )
    if injector is not None:
        for entry in injector.log:
            out(f"  fault: {entry.describe()}")
    return 0


def cmd_gestures(args: argparse.Namespace) -> int:
    """Decode a gestured bit string (mode 2, Chapter 6)."""
    bits = [int(c) for c in args.bits]
    if any(b not in (0, 1) for b in bits):
        out.error("bits must be a string of 0s and 1s")
        return 2
    rng = np.random.default_rng(args.seed)
    room = stata_conference_room_small()
    trajectory = GestureTrajectory(
        base_position=Point(room.wall.far_face_x_m + args.distance, 0.2), bits=bits
    )
    scene = Scene(room=room, humans=[Human(trajectory)])
    device = WiViDevice(scene, rng)
    device.calibrate()
    result = device.receive_gestures(trajectory.duration_s())
    out(render_series(result.matched_output, title="matched-filter output"))
    out(f"sent:    {bits}")
    out(f"decoded: {result.bits}")
    out(f"per-bit SNR (dB): {[round(s, 1) for s in result.snr_db_per_bit]}")
    return 0 if result.bits == bits else 1


def cmd_count(args: argparse.Namespace) -> int:
    """Train and run the §7.4 occupant counter."""
    rng = np.random.default_rng(args.seed)
    room = stata_conference_room_small()
    pool = make_subject_pool(rng)
    out(f"training the counter ({args.train_trials} trials per class)...")
    training = {
        n: np.array(
            [
                trace_spatial_variance(
                    counting_trial(room, n, args.duration, rng, pool).spectrogram
                )
                for _ in range(args.train_trials)
            ]
        )
        for n in range(args.max_humans + 1)
    }
    classifier = SpatialVarianceClassifier().fit(training)
    truth = int(rng.integers(0, args.max_humans + 1))
    trial = counting_trial(room, truth, args.duration, rng, pool)
    estimate = classifier.predict(trace_spatial_variance(trial.spectrogram))
    out(f"ground truth: {truth} moving humans; estimate: {estimate}")
    return 0 if estimate == truth else 1


def cmd_materials(args: argparse.Namespace) -> int:
    """Run the §7.6 building-material sweep."""
    rng = np.random.default_rng(args.seed)
    pool = make_subject_pool(rng, 4)
    names = args.materials if args.materials else list(MATERIALS)
    out(f"{'material':>24} {'1-way dB':>9} {'decoded':>8} {'SNR dB':>7}")
    for name in names:
        material = material_by_name(name)
        room = room_for_material(material)
        subject = pool[0]
        trial, _ = gesture_trial(room, args.distance, [0], subject, rng)
        decoder = GestureDecoder(step_duration_s=subject.step_duration_s)
        result = decoder.decode(trial.spectrogram)
        decoded = "yes" if result.bits[:1] == [0] else "no"
        snr = decoder.measure_snr_db(trial.spectrogram)
        out(f"{name:>24} {material.one_way_attenuation_db:>9.0f} "
            f"{decoded:>8} {snr:>7.1f}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Track a scene and export its A'[theta, n] image as PGM/PPM."""
    from repro.analysis.export import export_spectrogram

    rng = np.random.default_rng(args.seed)
    room = stata_conference_room_small()
    scene = build_tracking_scene(room, args.humans, args.duration, rng)
    device = WiViDevice(scene, rng)
    device.calibrate()
    spectrogram = device.image(args.duration)
    path = export_spectrogram(spectrogram, args.output, color=not args.gray)
    out(f"wrote {path} ({spectrogram.num_windows} windows x "
        f"{len(spectrogram.theta_grid_deg)} angles)")
    return 0


def cmd_nulling(args: argparse.Namespace) -> int:
    """Run Algorithm 1 and report the achieved depth."""
    rng = np.random.default_rng(args.seed)
    room = room_for_material(material_by_name(args.material))
    scene = Scene(room=room)
    device = WiViDevice(scene, rng)
    result = device.calibrate()
    out(f"wall: {args.material}")
    out(f"initial residual power: {result.residual_history[0]:.3e}")
    out(f"final residual power:   {result.final_residual_power:.3e}")
    out(f"iterations: {result.iterations} (converged: {result.converged})")
    out(f"achieved nulling: {result.nulling_db:.1f} dB (paper mean: 42 dB)")
    return 0


def _service_config(args: argparse.Namespace):
    """The :class:`~repro.serve.ServeConfig` the shared service options describe."""
    from repro.serve import SchedulerConfig, ServeConfig

    return ServeConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        idle_timeout_s=args.idle_timeout or None,
        write_timeout_s=args.write_timeout or None,
        scheduler=SchedulerConfig(
            max_batch_windows=args.max_batch_windows,
            queue_capacity=args.queue_capacity,
        ),
        record_dir=args.record,
    )


def _run_service(args: argparse.Namespace, name: str, make, summary) -> int:
    """Run ``serve`` or ``fleet`` until ``--duration`` ends or a signal lands.

    ``make(config, hub)`` builds the service from the shared options'
    :class:`~repro.serve.ServeConfig`; ``summary(service)`` is the line
    printed once it has drained.
    """
    try:
        config = _service_config(args)
    except ValueError as exc:
        out.error(f"repro: error: {exc}")
        return 2

    async def run() -> int:
        stop = _stop_on_signals()
        hub = None
        gateway = None
        if args.dashboard:
            from repro.observe import ObserveConfig, ObserveGateway, TelemetryHub

            hub = TelemetryHub()
        service = make(config, hub)
        port = await service.start()
        # One parseable line, immediately on bind: scripts (and the CI
        # smoke steps) read the port from it when --port 0 was asked.
        # A fleet's per-shard lines let them find worker pids.
        out(f"{name}: listening on {config.host} port {port}")
        if name == "fleet":
            for snap in service.shard_snapshots():
                out(f"fleet: shard {snap['shard']} pid {snap['pid']} port {snap['port']}")
        try:
            if hub is not None:
                gateway = ObserveGateway(
                    hub,
                    server=service if name == "serve" else None,
                    fleet=service if name == "fleet" else None,
                    config=ObserveConfig(host=args.dashboard_host, port=args.dashboard_port),
                )
                dashboard_port = await gateway.start()
                out(f"observe: listening on {args.dashboard_host} port {dashboard_port}")
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), args.duration)
        finally:
            if gateway is not None:
                await gateway.shutdown()
            await service.shutdown()
        out(summary(service))
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        out(f"{name}: interrupted, shut down")
        return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-session sensing service until stopped."""
    from repro.serve import SensingServer

    chaos = None
    if args.chaos_seed is not None:
        from repro.chaos import ChaosSchedule, ServerChaos

        chaos = ServerChaos(ChaosSchedule.generate(horizon_ops=100, seed=args.chaos_seed))

    def summary(server) -> str:
        stats, scheduler = server.stats, server.scheduler.stats
        return (
            f"serve: handled {stats.requests} requests "
            f"({stats.errors} errors), served "
            f"{stats.columns_served} columns in "
            f"{scheduler.ticks} batches "
            f"(mean occupancy {scheduler.mean_batch_windows:.1f} windows)"
        )

    return _run_service(
        args,
        "serve",
        lambda config, hub: SensingServer(config, chaos=chaos, hub=hub),
        summary,
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run the sharded multi-worker sensing fleet until stopped."""
    from repro.fleet import FleetConfig, FleetServer

    def make(serve, hub) -> FleetServer:
        config = FleetConfig(
            workers=args.workers,
            serve=serve,
            drain_timeout_s=args.drain_timeout,
            telemetry_dir=args.telemetry,
            dsp_backend=args.dsp_backend,
        )
        return FleetServer(config, hub=hub)

    def summary(fleet) -> str:
        stats = fleet.stats.snapshot()
        return (
            f"fleet: routed {stats['sessions_routed']} session(s) "
            f"({stats['sessions_resumed']} resumed, "
            f"{stats['shed_sessions']} shed) across {fleet.config.workers} "
            f"worker(s); {stats['worker_restarts']} restart(s), "
            f"{stats['requests_relayed']} requests relayed"
        )

    return _run_service(args, "fleet", make, summary)


def cmd_observe(args: argparse.Namespace) -> int:
    """Serve the observe gateway over a recorded telemetry directory."""
    from repro.observe import ObserveConfig, ObserveGateway, TelemetryHub
    from repro.observe.replay import load_telemetry_replay

    try:
        replay = load_telemetry_replay(args.directory)
    except FileNotFoundError as exc:
        out.error(str(exc))
        return 2

    async def run() -> int:
        hub = TelemetryHub()
        gateway = ObserveGateway(
            hub,
            replay=replay,
            config=ObserveConfig(
                host=args.host, port=args.port, replay_rate=args.rate
            ),
        )
        port = await gateway.start()
        # One parseable line, matching the serve convention: scripts
        # read the bound port from it when --port 0 was asked.
        out(f"observe: listening on {args.host} port {port}")
        detail = f"observe: replaying {len(replay.events)} events from {args.directory}"
        if replay.skipped_lines:
            detail += f" ({replay.skipped_lines} truncated line(s) skipped)"
        out(detail)
        try:
            if args.duration is None:
                await asyncio.Event().wait()
            else:
                await asyncio.sleep(args.duration)
        finally:
            await gateway.shutdown()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        out("observe: interrupted, shut down")
        return 0


def cmd_load(args: argparse.Namespace) -> int:
    """Drive a running ``serve`` or ``fleet`` and verify every column."""
    from repro.serve import run_load

    resilient = args.resilient or args.chaos
    report = asyncio.run(
        run_load(
            host=args.host,
            port=args.port,
            sessions=args.sessions,
            seconds=args.seconds,
            block_size=args.block_size,
            seed=args.seed,
            config=(
                {"window_size": 64, "hop": 16, "subarray_size": 16}
                if resilient
                else None
            ),
            pushes=args.pushes if resilient else None,
            chaos_seed=args.chaos_seed if args.chaos else None,
        )
    )
    for key, value in report.summary().items():
        out(f"  {key}: {value}")
    if args.chaos_log is not None:
        with open(args.chaos_log, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in report.chaos_log)
        out(f"load: chaos log written to {args.chaos_log}")
    failures = report.failures()
    for failure in failures:
        out.error(f"load: {failure}")
    if failures:
        return 1
    if args.chaos:
        out(
            "load: chaos run survived — zero divergence, "
            f"{report.total('chaos_events_applied')} chaos events, "
            f"{report.total('reconnects')} reconnects"
        )
    elif args.resilient:
        out(
            "load: fleet run verified — zero divergence, "
            f"{report.total('fleet_migrations')} migration(s), "
            f"{report.total('resumes')} resume(s)"
        )
    else:
        out("load: completed with zero protocol errors")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    """Record a streaming run into the capture store, bit-exactly."""
    from repro.capture import CaptureRecorder, CaptureStore
    from repro.hardware.streaming import RxStreamer
    from repro.runtime import DetectStage, StreamingPipeline, StreamingTracker

    device, series, injector = _simulated_run(args)
    samples = series.samples
    offsets = range(0, len(samples), args.block_size)
    # A stream deep enough for every block: the whole run is queued
    # before the pipeline reads, and nothing is dropped.
    streamer = RxStreamer(max_buffers=len(offsets))
    for offset in offsets:
        streamer.push(samples[offset : offset + args.block_size])
    streamer.close()
    store = CaptureStore(args.store)
    config = device.config.tracking
    writer = store.create(
        source="stream",
        config=config,
        sample_rate_hz=device.config.timeseries.sample_rate_hz,
        seed=args.seed,
        use_music=True,
        extra={
            "humans": args.humans,
            "duration_s": args.duration,
            "block_size": args.block_size,
            "fault_seed": args.fault_seed if args.inject_faults else None,
        },
    )
    recorder = CaptureRecorder(writer)
    pipeline = StreamingPipeline(
        streamer,
        StreamingTracker(config),
        detector=DetectStage(config.theta_grid_deg),
        recorder=recorder,
    )
    with recorder:
        if injector is not None:
            recorder.record_fault_schedule(injector.schedule)
        with get_telemetry().span("record.run", samples=len(samples)):
            result = pipeline.run()
    # One parseable line, like serve's port line: scripts (and the CI
    # smoke step) read the capture id from it.
    out(f"record: capture {writer.header.capture_id} sealed in {store.root}")
    out(
        f"record: {writer.num_chunks} chunks, {writer.num_samples} samples, "
        f"{len(result.columns)} columns, {len(result.gaps)} gaps, "
        f"final health {pipeline.health.value}"
    )
    return 0


def _open_capture(args: argparse.Namespace):
    """Resolve the replay target: a bundle path or a store capture id."""
    from pathlib import Path

    from repro.capture import BUNDLE_SUFFIX, CaptureReader, CaptureStore

    if args.capture.endswith(BUNDLE_SUFFIX) and Path(args.capture).is_file():
        return CaptureReader(args.capture)
    return CaptureStore(args.store).open(args.capture)


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a capture and prove the columns bit-identical."""
    from repro.capture import promote_to_fixture, verify_capture, verify_serve
    from repro.errors import CaptureError, ReproError

    try:
        reader = _open_capture(args)
        if args.port is not None:
            verification = verify_serve(reader, args.host, args.port)
            mode = f"live serve session at {args.host}:{args.port}"
        else:
            verification = verify_capture(reader)
            mode = "offline tracker"
    except (CaptureError, ReproError, OSError) as exc:
        out.error(f"replay: {exc}")
        return 1
    if not verification.ok:
        out.error(
            f"replay: capture {verification.capture_id} DIVERGED via {mode}:"
        )
        for line in verification.mismatches:
            out.error(f"  {line}")
        return 1
    out(
        f"replay: capture {verification.capture_id} verified via {mode}: "
        f"{verification.num_columns} columns bit-identical"
    )
    if args.promote is not None:
        bundle = promote_to_fixture(reader, dest_dir=args.promote)
        out(f"replay: promoted to fixture {bundle}")
    return 0


def cmd_captures(args: argparse.Namespace) -> int:
    """List or prune the capture store."""
    import time as _time

    from repro.capture import CaptureStore, RetentionPolicy

    store = CaptureStore(args.store)
    if args.action == "list":
        infos = store.list_captures()
        if not infos:
            out(f"captures: store {store.root} is empty")
            return 0
        out(f"{'capture':>24} {'source':>8} {'sealed':>7} {'bytes':>10} {'age s':>8}")
        now = _time.time()
        for info in infos:
            out(
                f"{info.capture_id:>24} {info.source:>8} "
                f"{'yes' if info.sealed else 'NO':>7} {info.num_bytes:>10} "
                f"{max(now - info.created_ts, 0.0):>8.0f}"
            )
        out(f"captures: {len(infos)} capture(s), {store.total_bytes()} bytes total")
        return 0
    policy = RetentionPolicy(
        max_captures=args.max_captures,
        max_total_bytes=args.max_bytes,
        max_age_s=args.max_age,
    )
    if policy.unbounded:
        out.error(
            "captures prune: give at least one bound "
            "(--max-captures / --max-bytes / --max-age)"
        )
        return 2
    removed = store.prune(policy)
    for info in removed:
        out(f"captures: pruned {info.capture_id} ({info.num_bytes} bytes)")
    out(
        f"captures: pruned {len(removed)} capture(s); "
        f"{len(store.list_captures())} remain, {store.total_bytes()} bytes"
    )
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    """List DSP backends: availability, role, and conformance status.

    One parseable line per backend —

        ``name=numpy-float32 available=yes default=no active=no
        dtype=complex64 conformance=pass(max_den_err=...)``

    — so scripts (and the CI backend matrix) can grep a backend's
    status without JSON plumbing.
    """
    for info in backend_infos():
        if args.no_check:
            status = "skipped"
        else:
            status = quick_conformance(info.name)
        out(
            f"name={info.name} "
            f"available={'yes' if info.available else 'no'} "
            f"default={'yes' if info.default else 'no'} "
            f"active={'yes' if info.active else 'no'} "
            f"dtype={info.dtype} "
            f"conformance={status}"
        )
    return 0


def cmd_telemetry_report(args: argparse.Namespace) -> int:
    """Summarize a telemetry run directory (see ``--telemetry``)."""
    from repro.telemetry.report import summarize_run

    try:
        report = summarize_run(args.directory)
    except FileNotFoundError as exc:
        out.error(str(exc))
        return 2
    out(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wi-Vi reproduction: see through walls with Wi-Fi",
    )
    parser.add_argument(
        "--dsp-backend",
        metavar="NAME",
        default=None,
        help="DSP backend for this process (overrides REPRO_DSP_BACKEND; "
        "see `repro backends` for the registered names)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    track = commands.add_parser("track", help="image movers behind a wall")
    track.add_argument("--humans", type=_count, default=1)
    track.add_argument("--duration", type=_duration, default=8.0)
    track.add_argument(
        "--inject-faults",
        action="store_true",
        help="run through the fault-injection + recovery pipeline",
    )
    track.add_argument(
        "--fault-seed",
        type=_count,
        default=0,
        help="seed for the deterministic fault schedule",
    )
    _add_seed(track)
    _add_observability(track)
    track.set_defaults(handler=cmd_track)

    stream = commands.add_parser(
        "stream", help="image movers online, column by column"
    )
    stream.add_argument("--humans", type=_count, default=1)
    stream.add_argument("--duration", type=_duration, default=8.0)
    stream.add_argument(
        "--block-size",
        type=_positive_int,
        default=64,
        help="samples per streamed block",
    )
    stream.add_argument(
        "--max-buffers",
        type=_positive_int,
        default=64,
        help="receive-stream depth before overflow drops",
    )
    stream.add_argument(
        "--beamforming",
        action="store_true",
        help="plain Eq. 5.1 beamforming instead of smoothed MUSIC",
    )
    stream.add_argument(
        "--realtime",
        action="store_true",
        help="pace blocks at the 312.5 Hz channel-sample rate",
    )
    stream.add_argument(
        "--inject-faults",
        action="store_true",
        help="corrupt the stream with the deterministic fault schedule",
    )
    stream.add_argument(
        "--fault-seed",
        type=_count,
        default=0,
        help="seed for the deterministic fault schedule",
    )
    _add_seed(stream)
    _add_observability(stream)
    stream.set_defaults(handler=cmd_stream)

    gestures = commands.add_parser("gestures", help="decode a gestured bit string")
    gestures.add_argument("bits", nargs="?", default="01")
    gestures.add_argument("--distance", type=_distance, default=3.0)
    _add_seed(gestures)
    _add_observability(gestures)
    gestures.set_defaults(handler=cmd_gestures)

    count = commands.add_parser("count", help="count occupants behind a wall")
    count.add_argument("--max-humans", type=_positive_int, default=3)
    count.add_argument("--duration", type=_duration, default=15.0)
    count.add_argument("--train-trials", type=_positive_int, default=3)
    _add_seed(count)
    _add_observability(count)
    count.set_defaults(handler=cmd_count)

    materials = commands.add_parser("materials", help="wall-material sweep")
    materials.add_argument("--distance", type=_distance, default=3.0)
    materials.add_argument("--materials", nargs="*", type=_material, default=None)
    _add_seed(materials)
    _add_observability(materials)
    materials.set_defaults(handler=cmd_materials)

    nulling = commands.add_parser("nulling", help="run Algorithm 1")
    nulling.add_argument("--material", type=_material, default='6" hollow wall')
    _add_seed(nulling)
    _add_observability(nulling)
    nulling.set_defaults(handler=cmd_nulling)

    export = commands.add_parser(
        "export", help="write the A'[theta, n] image to a PGM/PPM file"
    )
    export.add_argument("output", nargs="?", default="spectrogram.ppm")
    export.add_argument("--humans", type=_count, default=1)
    export.add_argument("--duration", type=_duration, default=8.0)
    export.add_argument("--gray", action="store_true", help="PGM instead of PPM")
    _add_seed(export)
    _add_observability(export)
    export.set_defaults(handler=cmd_export)

    serve = commands.add_parser(
        "serve", help="run the multi-session sensing service"
    )
    _add_service_options(serve, port=9361)
    serve.add_argument(
        "--chaos-seed",
        type=_count,
        default=None,
        help="inject seeded server-side chaos (stalled ticks, slow replies)",
    )
    serve.set_defaults(handler=cmd_serve)

    fleet = commands.add_parser(
        "fleet", help="run the sharded multi-worker sensing service"
    )
    _add_service_options(fleet, port=9360)
    fleet.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="shard worker processes behind the routing frontend",
    )
    fleet.add_argument(
        "--drain-timeout",
        type=_age,
        default=15.0,
        help="seconds a draining shard may wait for sessions to migrate",
    )
    fleet.set_defaults(handler=cmd_fleet)

    observe = commands.add_parser(
        "observe", help="serve the gateway over a recorded telemetry run"
    )
    observe.add_argument(
        "--telemetry",
        dest="directory",
        metavar="DIR",
        required=True,
        help="telemetry run directory to replay (a --telemetry output)",
    )
    observe.add_argument("--host", default="127.0.0.1")
    observe.add_argument(
        "--port", type=_port, default=9362, help="TCP port (0 picks a free one)"
    )
    observe.add_argument(
        "--duration",
        type=_duration,
        default=None,
        help="self-terminate after this many seconds (default: run forever)",
    )
    observe.add_argument(
        "--rate",
        type=_age,
        default=500.0,
        help="recorded events streamed per second on /ws/live (0 = unpaced)",
    )
    observe.add_argument(
        "--quiet", action="store_true", help="suppress informational output"
    )
    observe.set_defaults(handler=cmd_observe)

    load = commands.add_parser(
        "load",
        help="load-generate against a running serve or fleet and verify "
        "every served column against offline compute",
    )
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=_port, default=9361)
    load.add_argument("--sessions", type=_positive_int, default=8)
    load.add_argument("--seconds", type=_duration, default=5.0)
    load.add_argument(
        "--block-size",
        type=_positive_int,
        default=400,
        help="complex samples per push request",
    )
    load.add_argument(
        "--chaos",
        action="store_true",
        help="run the seeded chaos harness instead of the timed load",
    )
    load.add_argument(
        "--resilient",
        action="store_true",
        help="drive resilient sessions (reconnect, resume, fleet "
        "migration) for a fixed --pushes each, e.g. through a fleet frontend",
    )
    load.add_argument(
        "--chaos-seed",
        type=_count,
        default=7,
        help="seed of the per-session chaos schedules (chaos mode)",
    )
    load.add_argument(
        "--pushes",
        type=_positive_int,
        default=24,
        help="pushes per session with --chaos or --resilient (fixed, for "
        "determinism)",
    )
    load.add_argument(
        "--chaos-log",
        default=None,
        metavar="FILE",
        help="write the deterministic chaos event log to FILE",
    )
    _add_seed(load)
    _add_observability(load)
    load.set_defaults(handler=cmd_load)

    record = commands.add_parser(
        "record", help="record a streaming run into the capture store"
    )
    record.add_argument(
        "--store", default="captures", help="capture store directory"
    )
    record.add_argument("--humans", type=_count, default=1)
    record.add_argument("--duration", type=_duration, default=8.0)
    record.add_argument(
        "--block-size", type=_positive_int, default=64, help="samples per streamed block"
    )
    record.add_argument(
        "--inject-faults",
        action="store_true",
        help="corrupt the stream with the deterministic fault schedule",
    )
    record.add_argument(
        "--fault-seed",
        type=_count,
        default=0,
        help="seed for the deterministic fault schedule",
    )
    _add_seed(record)
    _add_observability(record)
    record.set_defaults(handler=cmd_record)

    replay = commands.add_parser(
        "replay", help="replay a capture and verify bit-identical columns"
    )
    replay.add_argument(
        "capture", help="capture id in the store, or a .capture.ndjson.gz bundle"
    )
    replay.add_argument(
        "--store", default="captures", help="capture store directory"
    )
    replay.add_argument("--host", default="127.0.0.1")
    replay.add_argument(
        "--port",
        type=_port,
        default=None,
        help="replay through a live serve session at --host:--port "
        "(default: offline through a rebuilt tracker)",
    )
    replay.add_argument(
        "--promote",
        metavar="DIR",
        default=None,
        help="after a clean verify, freeze the capture as a fixture bundle in DIR",
    )
    _add_seed(replay)
    _add_observability(replay)
    replay.set_defaults(handler=cmd_replay)

    captures = commands.add_parser(
        "captures", help="list or prune the capture store"
    )
    captures.add_argument("action", choices=["list", "prune"])
    captures.add_argument(
        "--store", default="captures", help="capture store directory"
    )
    captures.add_argument(
        "--max-captures",
        type=_count,
        default=None,
        help="prune: keep at most this many sealed captures",
    )
    captures.add_argument(
        "--max-bytes",
        type=_count,
        default=None,
        help="prune: keep the store under this many bytes",
    )
    captures.add_argument(
        "--max-age",
        type=_age,
        default=None,
        help="prune: drop sealed captures older than this many seconds",
    )
    _add_seed(captures)
    _add_observability(captures)
    captures.set_defaults(handler=cmd_captures)

    report = commands.add_parser(
        "telemetry-report",
        help="summarize a --telemetry run directory",
    )
    report.add_argument("directory", help="directory a --telemetry run wrote")
    report.add_argument(
        "--quiet", action="store_true", help="suppress informational output"
    )
    report.set_defaults(handler=cmd_telemetry_report)

    backends = commands.add_parser(
        "backends",
        help="list DSP backends and their conformance status",
    )
    backends.add_argument(
        "--no-check",
        action="store_true",
        help="skip the conformance check (listing only)",
    )
    backends.add_argument(
        "--quiet", action="store_true", help="suppress informational output"
    )
    backends.set_defaults(handler=cmd_backends)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    The only place logging handlers and the telemetry session are
    configured: every subcommand runs inside a ``cli.<command>`` root
    span when telemetry is on, and the session is flushed (run files
    written) and deactivated on the way out — including on error.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(quiet=getattr(args, "quiet", False))
    if args.dsp_backend is not None:
        try:
            set_active_backend(args.dsp_backend)
        except DspBackendError as exc:
            out.error(str(exc))
            return 2
    telemetry = None
    out_dir = getattr(args, "telemetry", None)
    trace_file = getattr(args, "trace", None)
    if out_dir is not None or trace_file is not None:
        telemetry = configure(out_dir=out_dir, trace_file=trace_file)
    try:
        if telemetry is None:
            return args.handler(args)
        with telemetry.span(f"cli.{args.command}", seed=getattr(args, "seed", None)):
            code = args.handler(args)
        return code
    finally:
        if telemetry is not None:
            written = telemetry.flush()
            deactivate()
            if written:
                out(f"telemetry: wrote {', '.join(str(p) for p in written)}")


if __name__ == "__main__":
    raise SystemExit(main())
