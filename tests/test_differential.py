"""One differential harness: every path that serves columns vs offline compute.

Hypothesis draws one list of operations on two session slots; the tracker,
the pipeline, ``repro serve``, the resilient client, the fleet and capture
replay each run it on both shipped DSP backends, and every column served is
held to one model: offline ``compute_spectrogram`` of exactly the samples
that path acknowledged, on the same backend.  ``("push", a, b, nan)`` pushes
``a`` samples to slot 0 and ``b`` to slot 1 at once (0 skips a slot; ``nan``
puts a NaN burst in each block).  The other operations name a slot:
``duplicate`` re-sends its last push, ``reorder`` sends its next one with
seq + 2, ``resume`` resumes it from its checkpoint on a new connection,
``crash`` kills what serves it, ``drain`` drains its fleet shard, ``close``
closes it and ``open`` opens a new session once the last one ended.  An
operation a path has no method for is a no-op there.  A push answered with
``DeviceFailedError`` ends its session; what it acknowledged is still checked.
To replay a failure, pin the ``seed``, ``sessions`` and ``ops`` hypothesis
prints as one more ``@pinned`` example and run this module with ``-k <path>``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import re
import tempfile
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.capture import (
    CaptureRecorder,
    CaptureStore,
    recorded_columns,
    replay_columns,
    replay_serve_async,
    verify_capture,
)
from repro.core.tracking import TrackingConfig, compute_beamformed_frame, compute_spectrogram
from repro.dsp.backend import backend_names, use_backend
from repro.errors import DeviceFailedError, SequenceError
from repro.fleet import FleetConfig, FleetServer, frontend
from repro.hardware.streaming import RxStreamer
from repro.runtime import StreamingPipeline, StreamingTracker
from repro.runtime.tracker import SpectrogramColumn
from repro.serve import AsyncServeClient, SensingServer, ServeConfig
from repro.serve import resilient
from repro.serve.resilient import ResilientServeClient

from tests.helpers import FAST, synthetic_trace

CONFIG = TrackingConfig(**FAST)
WINDOW, HOP = CONFIG.window_size, CONFIG.hop
MAX_PUSH = 256
BACKENDS = tuple(backend_names())
HOST = "127.0.0.1"


@dataclass
class Stream:
    """One session in one slot: what it was sent, acknowledged and served."""

    slot: int
    use_music: bool
    start_time_s: float
    trace: np.ndarray = field(repr=False)
    blocks: list = field(default_factory=list, repr=False)  # acknowledged pushes
    columns: list = field(default_factory=list, repr=False)  # in arrival order
    report: tuple | None = None  # (samples_in, columns_out) as its close reported them
    checkpoint: dict | None = field(default=None, repr=False)
    session_id: str | None = None
    failed: bool = False
    closed: bool = False

    @property
    def ended(self) -> bool:
        return self.failed or self.closed

    def next_block(self, size: int, nan: bool = False) -> np.ndarray:
        start = sum(len(block) for block in self.blocks)
        block = self.trace[start : start + size].copy()
        if nan:
            block[size // 4 : size // 4 + max(size // 2, 1)] = complex(np.nan, np.nan)
        return block


async def _until(predicate, timeout_s: float = 30.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.01)


class Path:
    """One serving path; the base acknowledges every push and serves nothing.

    ``finish`` runs once every session ended; ``stop`` runs last, always.
    """

    def __init__(self, backend: str, tally: Counter, workdir: str):
        self.backend, self.tally, self.workdir = backend, tally, workdir
        self.slots: list[Stream | None] = [None, None]
        self.extra: list[Stream] = []  # served beyond the sessions: capture replays
        self.clients: dict = {}  # what serves each slot

    def live(self) -> list[Stream]:
        return [stream for stream in self.slots if stream and not stream.ended]

    async def start(self): ...

    async def finish(self): ...

    async def stop(self): ...

    async def push(self, work: list[tuple[Stream, np.ndarray]]):
        for stream, block in work:
            stream.blocks.append(block)

    async def close(self, stream):
        stream.closed = True


class TrackerPath(Path):
    """``StreamingTracker.push``; resume, crash and drain restore a checkpoint."""

    async def open(self, stream, checkpoint=None):
        tracker = StreamingTracker(CONFIG, stream.start_time_s, stream.use_music)
        if checkpoint is not None:
            tracker.restore(checkpoint)
        self.clients[stream.slot] = tracker

    async def push(self, work):
        for stream, block in work:
            stream.blocks.append(block)
            stream.columns.extend(self.clients[stream.slot].push(block))

    async def resume(self, stream):
        await self.open(stream, self.clients[stream.slot].checkpoint())

    crash = drain = resume

    async def close(self, stream):
        tracker = self.clients[stream.slot]
        stream.closed, stream.report = True, (tracker.samples_seen, tracker.columns_emitted)
        if stream.columns:
            # The offline-shaped image keeps the offline angle grid and overlap.
            online = StreamingTracker.assemble(stream.columns, CONFIG)
            offline = compute_spectrogram(np.zeros(WINDOW, dtype=complex), CONFIG)
            assert np.array_equal(online.theta_grid_deg, offline.theta_grid_deg)
            assert online.window_overlap == offline.window_overlap


class PipelinePath(Path):
    """``StreamingPipeline`` over a receive stream of the pushes, run at close.

    Each push is one block, and the stream is deep enough for all of them, so
    it never drops.  The run records into a capture store through the
    pipeline's recorder; the capture must pass ``verify_capture``, and its
    ``replay_columns`` are held to the model too.
    """

    async def close(self, stream):
        stream.closed, stream.report = True, (0, 0)
        if stream.blocks:
            tracker = StreamingTracker(CONFIG, stream.start_time_s, stream.use_music)
            store = CaptureStore(self.workdir)
            writer = store.create(
                "stream", CONFIG, 1.0 / CONFIG.sample_period_s, use_music=stream.use_music,
                start_time_s=stream.start_time_s,
            )
            streamer = RxStreamer(max_buffers=len(stream.blocks))
            for block in stream.blocks:
                streamer.push(block)
            streamer.close()
            with CaptureRecorder(writer) as recorder:
                result = StreamingPipeline(streamer, tracker, recorder=recorder).run()
            assert not result.gaps
            stream.columns = result.columns
            stream.report = (tracker.samples_seen, len(result.columns))
            reader = store.open(writer.header.capture_id)
            verification = verify_capture(reader)
            assert verification.ok, verification.mismatches
            replayed = replay_columns(reader)
            self.extra.append(dataclasses.replace(stream, columns=replayed, report=None))


class ServePath(Path):
    """An in-process ``SensingServer``, one resumable session per client.

    A crash replaces the server on its port, and the sessions resume there.
    """

    record_dir = None

    async def start(self):
        self.keys, self.port = {}, 0
        await self._serve()

    async def _serve(self):
        self.server = SensingServer(ServeConfig(port=self.port, record_dir=self.record_dir))
        self.port, self.opened_here = await self.server.start(), 0

    async def _unserve(self):
        server, self.server = self.server, None
        if server is not None:
            await server.shutdown()
            # Dropped sessions (and their captures) close as their handlers end.
            await _until(lambda: not server.sessions)
            stats = server.scheduler.stats
            self.tally.update(windows=stats.windows, ticks=stats.ticks)

    async def stop(self):
        for slot in list(self.clients):
            await self._drop(slot)
        await self._unserve()

    async def _drop(self, slot):
        if slot in self.clients:
            await self.clients.pop(slot).aclose()

    async def open(self, stream):
        await self._drop(stream.slot)
        client = self.clients[stream.slot] = await AsyncServeClient(HOST, self.port).connect()
        resumed = stream.checkpoint is not None
        stream.session_id = await client.open_session(
            FAST, stream.use_music, stream.start_time_s, resumable=True, resume=stream.checkpoint,
            routing_key=self.keys.get(stream.slot) if resumed else None,
        )
        self.opened(stream, resumed)

    def opened(self, stream, resumed):
        # A bare server mints s<n>, from s1.
        self.opened_here += 1
        assert stream.session_id == f"s{self.opened_here}"

    async def push(self, work):
        replies = await asyncio.gather(
            *(self.clients[stream.slot].push(block) for stream, block in work),
            return_exceptions=True,
        )
        for (stream, block), reply in zip(work, replies):
            if isinstance(reply, DeviceFailedError):
                stream.failed = True
            elif isinstance(reply, BaseException):
                raise reply
            else:
                stream.blocks.append(block)
                stream.columns.extend(reply.columns)
                stream.checkpoint = reply.checkpoint

    async def duplicate(self, stream):
        if stream.blocks:
            client = self.clients[stream.slot]
            frame = client.push_frame(stream.blocks[-1], seq=len(stream.blocks))
            reply = client.decode_push_reply(await client.request(frame))
            assert reply.duplicate and not reply.columns

    async def reorder(self, stream):
        client = self.clients[stream.slot]
        frame = client.push_frame(stream.next_block(HOP), seq=len(stream.blocks) + 2)
        with pytest.raises(SequenceError):
            await client.request(frame)

    async def resume(self, stream):
        # A hard kill: no close_session, just a dead socket.
        self.clients[stream.slot]._writer.transport.abort()
        await self.open(stream)

    async def crash(self, stream):
        await self._unserve()
        await self._serve()
        for live in self.live():
            await self.resume(live)

    async def close(self, stream):
        report = await self.clients[stream.slot].close_session()
        await self._drop(stream.slot)
        stream.closed, stream.report = True, (report["samples_in"], report["columns_out"])


class ReplayPath(ServePath):
    """The serve path recording fresh sessions; every capture then replays.

    A resumed session is not recorded, so a capture holds its session's
    pushes up to the first resume.
    """

    async def start(self):
        self.record_dir = self.workdir
        self.captures: list[list] = []  # [capture id, stream, pushes recorded or None]
        await super().start()

    def opened(self, stream, resumed):
        super().opened(stream, resumed)
        for capture in self.captures:
            if capture[1] is stream and capture[2] is None:
                capture[2] = len(stream.blocks)
        if not resumed:
            recorder = self.server.sessions[stream.session_id].recorder
            self.captures.append([recorder.writer.header.capture_id, stream, None])

    async def finish(self):
        await self._unserve()
        replayer = SensingServer(ServeConfig())
        port = await replayer.start()
        try:
            for capture_id, stream, pushes in self.captures:
                reader = CaptureStore(self.record_dir).open(capture_id)
                assert reader.header.source == "serve"
                verification = verify_capture(reader)
                assert verification.ok, verification.mismatches
                live = await replay_serve_async(reader, HOST, port)
                for columns in (recorded_columns(reader), live):
                    replica = dataclasses.replace(stream, blocks=stream.blocks[:pushes])
                    replica.columns, replica.report = columns, None
                    self.extra.append(replica)
        finally:
            await replayer.shutdown()


class ResilientPath(ServePath):
    """``ResilientServeClient``, which resumes by itself after a resume or crash."""

    duplicate = reorder = None

    async def open(self, stream):
        await self._drop(stream.slot)
        client = self.clients[stream.slot] = ResilientServeClient(
            HOST, self.port, session_config=FAST, use_music=stream.use_music,
            start_time_s=stream.start_time_s,
        )
        await client.start()

    async def resume(self, stream):
        await self.clients[stream.slot]._abort_connection()

    async def crash(self, stream):
        await self._unserve()
        await self._serve()


class FleetPath(ServePath):
    """``FleetServer(workers=2)``; sessions resume after every disruption.

    The workers fork from a process on the other backend, so only
    ``FleetConfig.dsp_backend`` makes them serve this one.
    """

    async def _serve(self):
        self.drained, self.first_id = False, None
        config = FleetConfig(workers=2, dsp_backend=self.backend)
        self.server = FleetServer(config)
        self.port = await self.server.start()

    async def _unserve(self):
        server, self.server = self.server, None
        if server is not None:
            await server.shutdown()

    def opened(self, stream, resumed):
        # Shards mint <shard>:s<n>, so the fleet's first session is w0:s1 or w1:s1.
        assert re.fullmatch(r"w[01]:s[1-9][0-9]*", stream.session_id)
        self.first_id = self.first_id or stream.session_id
        assert self.first_id in ("w0:s1", "w1:s1")
        # A fresh session gets back the key the fleet minted; a resume presents it again.
        self.keys[stream.slot] = self.clients[stream.slot].routing_key
        assert re.fullmatch(r"rk-[1-9][0-9]*", self.keys[stream.slot])

    async def _migrate(self, shard: str):
        for live in self.live():
            if live.session_id.startswith(f"{shard}:"):
                await self.resume(live)

    async def crash(self, stream):
        state = self.server._shards[stream.session_id.partition(":")[0]]
        restarts = state.restarts
        state.handle.kill()
        await _until(lambda: state.restarts > restarts and state.handle.alive)
        await self._migrate(state.name)

    async def drain(self, stream):
        # A drained shard is not restarted: one drain per run.
        if not self.drained:
            self.drained = True
            shard = stream.session_id.partition(":")[0]
            await self.server.drain_shard(shard)
            await self._migrate(shard)


PATHS = {"tracker": TrackerPath, "pipeline": PipelinePath, "serve": ServePath}
PATHS.update(resilient=ResilientPath, fleet=FleetPath, replay=ReplayPath)


async def drive(path: Path, seed: int, sessions, ops) -> list[Stream]:
    """Run ``ops`` through ``path``; returns every stream it served."""
    total = [sum(op[1 + slot] for op in ops if op[0] == "push") + HOP for slot in (0, 1)]
    streams: list[Stream] = []

    async def open_slot(slot: int):
        trace = synthetic_trace(np.random.default_rng([seed, len(streams)]), total[slot])
        path.slots[slot] = stream = Stream(slot, *sessions[slot], trace)
        streams.append(stream)
        if hasattr(path, "open"):
            await path.open(stream)

    await path.start()
    try:
        for slot in (0, 1):
            await open_slot(slot)
        for kind, *args in ops:
            if kind == "push":
                work = [
                    (stream, stream.next_block(size, args[2]))
                    for stream, size in zip(path.slots, args[:2])
                    if size and not stream.ended
                ]
                if work:
                    await path.push(work)
            elif kind == "open":
                if path.slots[args[0]].ended:
                    await open_slot(args[0])
            elif getattr(path, kind, None) and not path.slots[args[0]].ended:
                await getattr(path, kind)(path.slots[args[0]])
        for stream in path.live():
            await path.close(stream)
        await path.finish()
    finally:
        await path.stop()
    return streams + path.extra


def offline_columns(samples: np.ndarray, use_music: bool, start_time_s: float):
    """The model: offline compute of ``samples``, one column per window."""
    starts = range(0, len(samples) - WINDOW + 1, HOP)
    if not starts:
        return []
    if use_music:
        image = compute_spectrogram(samples, CONFIG, start_time_s=start_time_s)
        frames = zip(image.times_s, image.power, image.source_counts, image.estimators)
    else:
        frames = []
        for start in starts:
            frame = compute_beamformed_frame(samples[start : start + WINDOW], CONFIG)
            time_s = start_time_s + (start + WINDOW / 2.0) * CONFIG.sample_period_s
            frames.append((time_s, frame.power, frame.num_sources, frame.estimator))
    return [
        SpectrogramColumn(n, start, float(time_s), power, int(count), str(estimator))
        for n, (start, (time_s, power, count, estimator)) in enumerate(zip(starts, frames))
    ]


def _bits(power) -> bytes:
    # NaN-safe equality: beamformed rows over a NaN burst are NaN.
    return np.asarray(power, dtype="<f8").tobytes()


def check(stream: Stream, tally: Counter, models: dict) -> None:
    """Hold one stream's served columns to the model of what it acknowledged."""
    samples = np.concatenate([np.empty(0, dtype=complex), *stream.blocks])
    key = (samples.tobytes(), stream.use_music, stream.start_time_s)
    if key not in models:
        models[key] = offline_columns(samples, stream.use_music, stream.start_time_s)
    served = sorted(stream.columns, key=lambda column: column.index)
    # Every index from 0 to n - 1 arrives exactly once.
    assert [column.index for column in served] == list(range(len(models[key]))), stream
    for got, want in zip(served, models[key]):
        assert (got.start_sample, got.time_s, got.num_sources, got.estimator) == (
            want.start_sample, want.time_s, want.num_sources, want.estimator
        ), (stream, want.index)
        assert _bits(got.power) == _bits(want.power), (stream, want.index)
    if stream.report is not None:
        assert stream.report == (len(samples), len(served)), stream
    fallback = sum(column.estimator == "beamforming" for column in served)
    tally.update(columns=len(served), failed=stream.failed, fallback=fallback * stream.use_music)


def push(a: int, b: int = 0, nan: bool = False) -> tuple:
    return ("push", a, b, nan)


def pinned(ops: list, sessions: tuple = ((True, 0.0), (True, 0.0))):
    # A scenario every (path, backend) runs first; MUSIC on both slots by default.
    return example(seed=1234, sessions=sessions, ops=ops)


SLOT_OPS = ("duplicate", "reorder", "resume", "crash", "drain", "close", "open")
_size = st.integers(0, MAX_PUSH)
_push = st.tuples(st.just("push"), _size, _size, st.sampled_from((False,) * 4 + (True,)))
_slot_op = st.tuples(st.sampled_from(SLOT_OPS), st.integers(0, 1))
_session = st.tuples(st.booleans(), st.floats(0.0, 1e4))


# The scenario of each per-path equivalence test is also a pinned @example, named in its comment;
# "retired" marks a test deleted because its example here pins it.
@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sessions=st.tuples(_session, _session),
    ops=st.lists(st.one_of(_push, _push, _push, _slot_op, _slot_op), min_size=1, max_size=12),
)
# runtime/test_tracker.py (retired):
# TestGoldenEquivalence::test_clean_trace_matches_offline_bit_for_bit (blocks of 48) and
# TestSchedulerHooks::test_ingest_poll_resolve_equals_push (served paths run
# ingest/poll/resolve); capture/test_replay.py (retired): test_clean_run_replays_bit_identically
# (the pipeline path's capture) and test_recorded_session_replays_offline_and_live (blocks of 96);
# fleet/test_frontend.py (retired): TestRouting::test_streamed_columns_match_offline_bit_for_bit.
@pinned([push(48, 96)] * 5 + [push(48)] * 3 + [push(16)])
# runtime/test_tracker.py (retired):
# TestGoldenEquivalence::test_equivalence_is_block_size_independent,
# block sizes 1 and 7, then 16, 64 and 200.
@pinned([push(1, 7)] * 80)
@pinned([push(16, 64)] * 17 + [("close", 0), ("open", 0), push(200), push(60)])
# runtime/test_tracker.py (retired):
# TestGoldenEquivalence::test_fault_injected_trace_still_matches_offline
# (a NaN burst, blocks of 32) and test_start_time_offsets_column_times (start_time_s 3.5);
# serve/test_equivalence.py (retired): test_fault_injected_trace_matches_offline (blocks of 64).
@pinned([push(32, 64)] * 3 + [push(32, 64, True)] + [push(32, 64)] * 3, ((True, 3.5), (True, 0.0)))
# serve/test_equivalence.py (retired): test_mixed_estimator_sessions_stay_isolated;
# runtime/test_tracker.py (retired): TestGoldenEquivalence::test_beamforming_path_matches_offline
# (blocks of 64).
@pinned([push(80, 64)] * 5, ((True, 0.0), (False, 0.0)))
# serve/test_equivalence.py (retired): test_concurrent_sessions_match_offline_bit_for_bit; its
# six sessions at block sizes 48/80/160 become two slots, each opened twice, and its
# mean_batch_windows > 1 check is the serve path's windows / ticks > 1 below.
@pinned(
    [push(48, 80)] * 6 + [push(48)] * 4 + [("close", 0), ("close", 1), ("open", 0), ("open", 1)]
    + [push(160, 48)] * 3 + [push(0, 48)] * 7
)
# chaos/test_resume.py (retired): test_checkpoint_restore_roundtrip_is_bit_exact, a checkpoint
# after four blocks of 88, inside a NaN burst.
@pinned([push(88)] * 3 + [push(88, 0, True), ("resume", 0), push(88, 0, True)] + [push(88)] * 3)
# chaos/test_resume.py (retired): test_killed_and_resumed_equals_uninterrupted (slot 0 is killed
# after a NaN block, so its checkpoint carries DEGRADED health; slot 1 runs uninterrupted; closing
# slot 0 checks samples_in) and test_resumed_session_acks_replayed_seq_as_duplicate.
@pinned(
    [push(80, 80)] * 4 + [push(80, 80, True), ("resume", 0), ("duplicate", 0)]
    + [push(80, 80)] * 3 + [("close", 0)]
)
# serve/test_resilient_failover.py: test_resume_onto_replacement_server_matches_offline (the
# server replaced before push 4); fleet/test_failover.py:
# test_resilient_session_survives_worker_kill_bit_exactly (the worker killed) ...
@pinned([push(200)] * 3 + [("crash", 0)] + [push(200)] * 3)
# ... and test_resilient_session_migrates_across_drain_bit_exactly.
@pinned([push(200)] * 3 + [("drain", 0)] + [push(200)] * 3)
# fleet/test_frontend.py (retired): test_direct_server_and_fleet_columns_identical, one push of
# 320 (ids s1 on a bare server, w0:s1 or w1:s1 through the fleet).
@pinned([push(320)])
# Three NaN bursts walk a served session to FAILED; slot 1 serves on.
@pinned([push(64, 64)] + [push(8, 0, True)] * 3 + [push(64, 64)])
def run_operations(path: str, backend: str, tally: Counter, seed, sessions, ops):
    other = next(name for name in BACKENDS if name != backend)
    # Fleet workers fork from this process: run it on the other backend.
    with use_backend(other if path == "fleet" else backend), tempfile.TemporaryDirectory() as tmp:
        streams = asyncio.run(drive(PATHS[path](backend, tally, tmp), seed, sessions, ops))
    models: dict = {}
    with use_backend(backend):
        for stream in streams:
            check(stream, tally, models)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("path", list(PATHS))
def test_every_path_serves_offline_columns(path, backend, record_property, monkeypatch):
    # A faster fleet supervisor restarts a killed shard sooner, and
    # resilient clients retry after 10 ms instead of 50, up to 20 times.
    monkeypatch.setattr(frontend, "SUPERVISOR_INTERVAL_S", 0.05)
    monkeypatch.setattr(resilient, "BACKOFF_INITIAL_S", 0.01)
    monkeypatch.setattr(resilient, "RECONNECT_ATTEMPTS", 20)
    tally = Counter()
    run_operations(path, backend, tally)
    record_property("columns_checked", tally["columns"])
    assert tally["columns"] >= 500
    # NaN bursts drove MUSIC sessions onto the beamforming fallback.
    assert tally["fallback"] > 0
    if path not in ("tracker", "pipeline"):
        assert tally["failed"] > 0
    if path == "serve":
        # Ticks batched more than one window each.
        assert tally["windows"] / tally["ticks"] > 1.0
