"""The determinism gate: record once, replay anywhere, same columns."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.capture import (
    CaptureReader,
    promote_to_fixture,
    recorded_columns,
    replay_serve_async,
    serve_config_overrides,
    verify_capture,
)
from repro.capture.format import HEADER_FILE
from repro.capture.recorder import EVENT_COLUMN, EVENT_GAP, EVENT_HEALTH
from repro.core.tracking import TrackingConfig
from repro.errors import CaptureFormatError, CaptureIntegrityError
from repro.serve import SensingServer, ServeConfig


class TestOfflineReplay:
    def test_gapped_run_re_enacts_resets(self, store, record, make_trace, fast_config):
        # Four pushes per read overrun the 2-deep stream: real recorded gaps.
        capture_id, gaps = record(
            make_trace(1600), fast_config, block_size=64, pushes_per_read=4
        )
        assert gaps, "test setup: the stream never overran"
        reader = store.open(capture_id)
        gap_events = reader.events(EVENT_GAP)
        assert sum(e["dropped_samples"] for e in gap_events) == sum(
            g.dropped_samples for g in gaps
        )
        verification = verify_capture(reader)
        assert verification.ok, verification.mismatches

    def test_header_with_a_ring_capacity_still_verifies(
        self, store, record, make_trace, fast_config
    ):
        # Captures recorded while the tracker kept a sized ring carry a
        # ``ring_capacity`` key; the reader ignores it.
        capture_id, _ = record(make_trace(), fast_config)
        header_path = store.open(capture_id).path / HEADER_FILE
        payload = json.loads(header_path.read_text())
        payload["ring_capacity"] = 400
        header_path.write_text(json.dumps(payload))
        reader = store.open(capture_id)
        assert reader.header.capture_id == capture_id
        verification = verify_capture(reader)
        assert verification.ok, verification.mismatches

    def test_faulted_blocks_replay_including_nans(self, store, record, make_trace, fast_config):
        trace = make_trace()
        trace[100:130] = np.nan + 1j * np.nan  # a NaN burst mid-stream
        capture_id, _ = record(trace, fast_config)
        reader = store.open(capture_id)
        assert reader.events(EVENT_HEALTH), "screening never fired on the burst"
        # Events are recorded in stream order: later columns follow the burst's.
        kinds = [event["kind"] for event in reader.events()]
        assert EVENT_COLUMN in kinds[kinds.index(EVENT_HEALTH) :]
        verification = verify_capture(reader)
        assert verification.ok, verification.mismatches

    def test_tampered_column_events_fail_the_gate(self, store, record, make_trace, fast_config):
        capture_id, _ = record(make_trace(), fast_config)
        reader = store.open(capture_id)
        manifest = reader.path / "manifest.ndjson"
        lines = manifest.read_text().splitlines()
        kept = [line for line in lines if f'"{EVENT_COLUMN}"' not in line]
        dropped = len(lines) - len(kept)
        assert dropped > 0
        manifest.write_text("\n".join(kept) + "\n")
        footer = reader.path / "footer.json"
        payload = json.loads(footer.read_text())
        payload["num_events"] -= dropped
        footer.write_text(json.dumps(payload))
        verification = verify_capture(CaptureReader(reader.path))
        assert not verification.ok
        assert any("column count" in m for m in verification.mismatches)


class TestFixturePromotion:
    def test_promote_writes_a_verifiable_bundle(self, store, record, make_trace, fast_config, tmp_path):
        capture_id, _ = record(make_trace(), fast_config)
        bundle = promote_to_fixture(store.open(capture_id), dest_dir=tmp_path / "fx")
        assert bundle.name == f"{capture_id}.capture.ndjson.gz"
        frozen = CaptureReader(bundle)
        verification = verify_capture(frozen)
        assert verification.ok
        assert len(recorded_columns(frozen)) == verification.num_columns

    def test_promotion_refuses_a_diverging_capture(self, store, record, make_trace, fast_config, tmp_path):
        capture_id, _ = record(make_trace(), fast_config)
        reader = store.open(capture_id)
        # Forge a gap that never happened: replay resets where the
        # original run did not, so the columns diverge.
        manifest = reader.path / "manifest.ndjson"
        chunks = list(reader.iter_chunks())
        events = reader.events()
        with manifest.open("a") as handle:
            handle.write(
                json.dumps(
                    {
                        "seq": len(events),
                        "kind": EVENT_GAP,
                        "block_index": chunks[len(chunks) // 2].start_index,
                        "dropped_samples": 10,
                    }
                )
                + "\n"
            )
        footer = reader.path / "footer.json"
        payload = json.loads(footer.read_text())
        payload["num_events"] += 1
        footer.write_text(json.dumps(payload))
        with pytest.raises(CaptureIntegrityError, match="determinism gate"):
            promote_to_fixture(CaptureReader(reader.path), dest_dir=tmp_path / "fx")
        assert not (tmp_path / "fx").exists()


async def _replay_against_fresh_server(reader):
    server = SensingServer(ServeConfig())
    port = await server.start()
    try:
        return await replay_serve_async(reader, "127.0.0.1", port)
    finally:
        await server.shutdown()


class TestServeReplay:
    def test_gapped_capture_refuses_serve_replay(self, store, record, make_trace, fast_config):
        capture_id, gaps = record(
            make_trace(1600), fast_config, block_size=64, pushes_per_read=4
        )
        assert gaps
        with pytest.raises(CaptureFormatError, match="stream gaps"):
            asyncio.run(_replay_against_fresh_server(store.open(capture_id)))

    def test_non_servable_config_is_refused(self, store, record, make_trace):
        config = TrackingConfig(
            window_size=64, hop=16, subarray_size=24, theta_step_deg=2.0
        )
        capture_id, _ = record(make_trace(), config)
        with pytest.raises(CaptureFormatError, match="non-configurable"):
            serve_config_overrides(store.open(capture_id).header)
