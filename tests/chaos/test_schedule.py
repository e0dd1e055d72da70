"""Chaos schedules: determinism, kind partition, rate validation."""

import numpy as np
import pytest

from repro.chaos import (
    CLIENT_KINDS,
    KIND_ORDER,
    SERVER_KINDS,
    ChaosEvent,
    ChaosKind,
    ChaosSchedule,
    scheduled_chaos_count,
)
from repro.chaos import schedule as schedule_module


class TestTaxonomy:
    def test_kind_order_covers_the_taxonomy_once(self):
        assert len(KIND_ORDER) == len(ChaosKind)
        assert set(KIND_ORDER) == set(ChaosKind)

    def test_client_and_server_kinds_partition_the_taxonomy(self):
        assert CLIENT_KINDS | SERVER_KINDS == set(ChaosKind)
        assert not (CLIENT_KINDS & SERVER_KINDS)


class TestConfig:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="non-negative"):
            scheduled_chaos_count(horizon_ops=10, rate_scale=-0.5)
        with pytest.raises(ValueError, match="non-negative"):
            ChaosSchedule.generate(horizon_ops=10, seed=1, rate_scale=-0.5)

    def test_rate_scale_multiplies_every_kind(self):
        base = schedule_module._chaos_rates()
        doubled = schedule_module._chaos_rates(rate_scale=2.0)
        for kind in ChaosKind:
            assert doubled[kind] == 2 * base[kind]


class TestGenerate:
    def test_same_seed_is_bit_identical(self):
        a = ChaosSchedule.generate(horizon_ops=200, seed=7)
        b = ChaosSchedule.generate(horizon_ops=200, seed=7)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = ChaosSchedule.generate(horizon_ops=200, seed=7, rate_scale=3.0)
        b = ChaosSchedule.generate(horizon_ops=200, seed=8, rate_scale=3.0)
        assert a.events != b.events

    def test_events_sorted_and_inside_horizon(self):
        schedule = ChaosSchedule.generate(horizon_ops=50, seed=3, rate_scale=4.0)
        assert len(schedule) > 0
        keys = [(e.op_index, KIND_ORDER.index(e.kind)) for e in schedule.events]
        assert keys == sorted(keys)
        assert all(0 <= e.op_index < 50 for e in schedule.events)

    def test_zero_rates_yield_empty_schedule(self):
        schedule = ChaosSchedule.generate(horizon_ops=100, seed=1, rate_scale=0.0)
        assert len(schedule) == 0

    def test_one_kind_does_not_perturb_another(self, monkeypatch):
        """Child-generator seeding: muting one kind leaves the rest."""
        full = ChaosSchedule.generate(horizon_ops=300, seed=11)
        monkeypatch.setitem(schedule_module.CHAOS_RATES, ChaosKind.DISCONNECT, 0.0)
        muted = ChaosSchedule.generate(horizon_ops=300, seed=11)
        survivors = [
            e for e in full.events if e.kind is not ChaosKind.DISCONNECT
        ]
        assert survivors == list(muted.events)

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ChaosSchedule.generate(horizon_ops=0, seed=1)

    def test_expected_count_matches_poisson_mean(self):
        expected = scheduled_chaos_count(horizon_ops=1000)
        counts = [
            len(ChaosSchedule.generate(horizon_ops=1000, seed=s)) for s in range(20)
        ]
        assert expected == pytest.approx(sum(schedule_module.CHAOS_RATES.values()) * 10)
        assert np.mean(counts) == pytest.approx(expected, rel=0.25)


class TestQueries:
    def test_events_at_and_of(self):
        events = (
            ChaosEvent(ChaosKind.DISCONNECT, 3, 0.0),
            ChaosEvent(ChaosKind.STALL_TICK, 3, 0.25),
            ChaosEvent(ChaosKind.CORRUPT_FRAME, 5, 0.0),
        )
        schedule = ChaosSchedule(events=events, horizon_ops=10)
        assert schedule.events_at(3) == [events[0], events[1]]
        assert schedule.events_of(SERVER_KINDS) == [events[1]]
        assert schedule.events_of(CLIENT_KINDS) == [events[0], events[2]]
        assert "disconnect" in schedule.describe()[0]
