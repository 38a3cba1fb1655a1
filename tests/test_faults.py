"""Tests for the deterministic fault-injection harness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    ACTIONS,
    FaultEvent,
    FaultInjectionChannel,
    FaultPlan,
)
from repro.rlnc import ChannelPipeline, CodedBlock, ProgressiveDecoder
from repro.rlnc import CodingParams, Encoder, Segment


def make_frames(count, size=32, seed=0):
    """A round of ``count`` random frames as an (m, size) byte matrix."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, size), dtype=np.uint8)


def row_list(frames):
    """The rows of a frame matrix as bytes, for order-aware comparison."""
    return [row.tobytes() for row in frames]


def make_blocks(count, n=8, k=16, seed=0):
    rng = np.random.default_rng(seed)
    return [
        CodedBlock(
            coefficients=rng.integers(0, 256, size=n, dtype=np.uint8),
            payload=rng.integers(0, 256, size=k, dtype=np.uint8),
            segment_id=0,
        )
        for _ in range(count)
    ]


class TestValidation:
    def test_rates_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=0, drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=0, corrupt_rate=-0.1)

    def test_delay_rate_needs_max_delay(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=0, delay_rate=0.5)

    def test_unknown_event_action_rejected(self):
        plan = FaultPlan(seed=0)
        with pytest.raises(ConfigurationError):
            plan.events("explode")
        assert set(ACTIONS) == {"drop", "corrupt", "duplicate", "delay"}


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        frames = make_frames(50)
        a = FaultPlan(seed=9, drop_rate=0.3, corrupt_rate=0.2)
        b = FaultPlan(seed=9, drop_rate=0.3, corrupt_rate=0.2)
        assert np.array_equal(a.apply_frames(frames), b.apply_frames(frames))
        assert a.log == b.log

    def test_different_seed_different_schedule(self):
        frames = make_frames(60)
        a = FaultPlan(seed=1, drop_rate=0.3)
        b = FaultPlan(seed=2, drop_rate=0.3)
        assert not np.array_equal(a.apply_frames(frames), b.apply_frames(frames))

    def test_reset_replays_exactly(self):
        frames = make_frames(40)
        plan = FaultPlan(seed=5, drop_rate=0.25, corrupt_rate=0.1)
        first = plan.apply_frames(frames)
        first_log = list(plan.log)
        plan.reset()
        assert np.array_equal(plan.apply_frames(frames), first)
        assert plan.log == first_log

    def test_schedule_is_batch_split_invariant(self):
        """Per-item decisions must not depend on how the stream is cut
        into apply calls (reordering off — the documented exception)."""
        frames = make_frames(40)
        whole = FaultPlan(seed=11, drop_rate=0.3, corrupt_rate=0.2,
                          duplicate_rate=0.1)
        split = FaultPlan(seed=11, drop_rate=0.3, corrupt_rate=0.2,
                          duplicate_rate=0.1)
        expected = whole.apply_frames(frames)
        got = np.concatenate(
            [split.apply_frames(frames[:17]), split.apply_frames(frames[17:])]
        )
        assert np.array_equal(got, expected)
        assert split.log == whole.log
        assert split.items_seen == whole.items_seen == 40


class TestActions:
    def test_drop_indices_are_exact(self):
        frames = make_frames(10)
        plan = FaultPlan(seed=0, drop_indices=[2, 7])
        survivors = plan.apply_frames(frames)
        assert survivors.shape == (8, frames.shape[1])
        assert np.array_equal(survivors, np.delete(frames, [2, 7], axis=0))
        assert plan.counters.dropped == 2
        assert [e.index for e in plan.events("drop")] == [2, 7]

    def test_corrupt_indices_flip_one_bit(self):
        frames = make_frames(5)
        plan = FaultPlan(seed=0, corrupt_indices=[3])
        out = plan.apply_frames(frames)
        assert out.shape == frames.shape
        diffs = np.unpackbits(frames ^ out, axis=1).sum(axis=1)
        assert diffs.tolist() == [0, 0, 0, 1, 0]  # one flipped bit, row 3
        assert plan.counters.corrupted == 1
        (event,) = plan.events("corrupt")
        assert out[3, event.detail] != frames[3, event.detail]

    def test_duplicates_are_adjacent(self):
        frames = make_frames(6)
        plan = FaultPlan(seed=3, duplicate_rate=1.0)
        out = plan.apply_frames(frames)
        assert out.shape == (12, frames.shape[1])
        assert np.array_equal(out[::2], frames)
        assert np.array_equal(out[1::2], frames)

    def test_delay_displaces_bounded(self):
        frames = make_frames(20)
        plan = FaultPlan(seed=4, delay_rate=1.0, max_delay=3)
        out = row_list(plan.apply_frames(frames))
        assert sorted(out) == sorted(row_list(frames))  # nothing lost
        for original_pos, frame in enumerate(row_list(frames)):
            delivered = out.index(frame)
            assert delivered <= original_pos + 3

    def test_predicate_gates_random_faults(self):
        frames = make_frames(20)
        plan = FaultPlan(
            seed=6, drop_rate=1.0, predicate=lambda index: index % 2 == 0
        )
        out = plan.apply_frames(frames)
        assert np.array_equal(out, frames[1::2])  # every even index dropped

    def test_counters_total(self):
        plan = FaultPlan(seed=1, drop_indices=[0], corrupt_indices=[1])
        plan.apply_frames(make_frames(3))
        assert plan.counters.total == 2

    def test_all_dropped_gives_an_empty_matrix(self):
        frames = make_frames(4, size=24)
        out = FaultPlan(seed=0, drop_rate=1.0).apply_frames(frames)
        assert out.shape == (0, 24) and out.dtype == np.uint8

    def test_apply_frames_never_mutates_input(self):
        frames = make_frames(8)
        snapshot = frames.copy()
        plan = FaultPlan(seed=2, corrupt_rate=1.0, duplicate_rate=0.5,
                         reorder_window=2)
        out = plan.apply_frames(frames)
        assert np.array_equal(frames, snapshot)
        assert plan.counters.corrupted == 8
        assert not np.shares_memory(out, frames)

    def test_event_is_frozen(self):
        event = FaultEvent(0, "drop")
        with pytest.raises(AttributeError):
            event.index = 5


class TestBlockAdapter:
    def test_apply_blocks_never_mutates_input(self):
        blocks = make_blocks(8)
        snapshots = [
            (b.coefficients.copy(), b.payload.copy()) for b in blocks
        ]
        plan = FaultPlan(seed=2, corrupt_rate=1.0)
        plan.apply_blocks(blocks)
        for block, (coeffs, payload) in zip(blocks, snapshots):
            assert np.array_equal(block.coefficients, coeffs)
            assert np.array_equal(block.payload, payload)

    def test_channel_adapter_composes_in_pipeline(self):
        params = CodingParams(8, 32)
        rng = np.random.default_rng(12)
        segment = Segment.random(params, rng)
        encoder = Encoder(segment, rng)
        plan = FaultPlan(seed=8, drop_rate=0.3)
        pipeline = ChannelPipeline(stages=[FaultInjectionChannel(plan)])
        decoder = ProgressiveDecoder(params)
        while not decoder.is_complete:
            for block in pipeline.transmit(
                [encoder.encode_block() for _ in range(4)]
            ):
                if decoder.is_complete:
                    break
                decoder.consume(block)
        assert np.array_equal(
            decoder.recover_segment().blocks, segment.blocks
        )
        assert plan.counters.dropped > 0
