"""The batched fault schedule against the per-item schedule it replaced.

``FaultPlan`` draws a round's decisions in one ``random(4 * m)`` call
and redraws only around the rows that need a magnitude (a corrupt
offset, a delay, a flip bit).  Before that it asked the generator for
four uniforms per item, then for that item's magnitudes, one item at a
time.  That per-item schedule is pinned below, self-contained, and the
batched core must reproduce it exactly: the delivered items, the log,
the counters, ``items_seen`` and the generator state after every round.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultCounters, FaultEvent, FaultPlan
from repro.rlnc import CodedBlock

RATES = (0.0, 0.01, 0.1, 0.5)


class PinnedFaultPlan:
    """The per-item fault schedule, as ``FaultPlan`` ran it before the
    batched core: one ``random(4)`` per arrival index, its magnitude
    draws right after, then one jitter draw per delivered copy."""

    def __init__(
        self,
        *,
        seed,
        drop_rate=0.0,
        corrupt_rate=0.0,
        duplicate_rate=0.0,
        delay_rate=0.0,
        max_delay=0,
        reorder_window=0,
        drop_indices=(),
        corrupt_indices=(),
        predicate=None,
    ):
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.max_delay = max_delay
        self.reorder_window = reorder_window
        self.drop_indices = frozenset(drop_indices)
        self.corrupt_indices = frozenset(corrupt_indices)
        self.predicate = predicate
        self.rng = np.random.default_rng(seed)
        self.next_index = 0
        self.log = []
        self.counters = FaultCounters()

    def decide(self, length):
        index = self.next_index
        self.next_index += 1
        draws = self.rng.random(4)
        gated = self.predicate is None or bool(self.predicate(index))
        drop = index in self.drop_indices or (gated and draws[0] < self.drop_rate)
        corrupt_at = None
        if index in self.corrupt_indices or (gated and draws[1] < self.corrupt_rate):
            corrupt_at = int(self.rng.integers(max(1, length)))
        duplicate = gated and draws[2] < self.duplicate_rate
        delay_by = 0
        if gated and draws[3] < self.delay_rate:
            delay_by = int(self.rng.integers(1, self.max_delay + 1))
        if drop:
            self.log.append(FaultEvent(index, "drop"))
            self.counters.dropped += 1
            return True, None, False, 0
        if corrupt_at is not None:
            self.log.append(FaultEvent(index, "corrupt", corrupt_at))
            self.counters.corrupted += 1
        if duplicate:
            self.log.append(FaultEvent(index, "duplicate"))
            self.counters.duplicated += 1
        if delay_by:
            self.log.append(FaultEvent(index, "delay", delay_by))
            self.counters.delayed += 1
        return False, corrupt_at, duplicate, delay_by

    def schedule(self, items, length, corrupt):
        """``length(item)`` bounds the offset; ``corrupt(item, offset,
        bit)`` returns the damaged item."""
        keyed = []
        for position, item in enumerate(items):
            drop, corrupt_at, duplicate, delay_by = self.decide(length(item))
            if drop:
                continue
            if corrupt_at is not None:
                item = corrupt(item, corrupt_at, 1 << int(self.rng.integers(8)))
            key = float(position + delay_by)
            if delay_by:
                key += 0.5
            keyed.append((key, len(keyed), item))
            if duplicate:
                keyed.append((key, len(keyed), item))
        if self.reorder_window and len(keyed) > 1:
            jitter = self.rng.uniform(0, self.reorder_window + 1, len(keyed))
            keyed = [
                (key + jitter[i], order, item)
                for i, (key, order, item) in enumerate(keyed)
            ]
        keyed.sort(key=lambda entry: (entry[0], entry[1]))
        return [item for _, _, item in keyed]

    def apply_frames(self, frames):
        size = frames.shape[1]
        rows = self.schedule(
            range(frames.shape[0]), lambda _: size, lambda row, at, bit: (row, at, bit)
        )
        out = frames.take([r if type(r) is int else r[0] for r in rows], axis=0)
        for position, row in enumerate(rows):
            if type(row) is tuple:
                out[position, row[1]] ^= row[2]
        return out

    def apply_blocks(self, blocks):
        def corrupt(block, offset, bit):
            coefficients = block.coefficients.copy()
            payload = block.payload.copy()
            n = block.num_blocks
            position = offset % (n + block.block_size)
            if position < n:
                coefficients[position] ^= np.uint8(bit)
            else:
                payload[position - n] ^= np.uint8(bit)
            return CodedBlock(
                coefficients=coefficients, payload=payload, segment_id=block.segment_id
            )

        return self.schedule(
            list(blocks), lambda block: block.num_blocks + block.block_size, corrupt
        )


def not_multiple_of_three(index):
    return index % 3 != 0


@st.composite
def plan_args(draw):
    delay_rate = draw(st.sampled_from(RATES))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        drop_rate=draw(st.sampled_from(RATES)),
        corrupt_rate=draw(st.sampled_from(RATES)),
        duplicate_rate=draw(st.sampled_from(RATES)),
        delay_rate=delay_rate,
        max_delay=draw(st.integers(1 if delay_rate else 0, 4)),
        reorder_window=draw(st.integers(0, 3)),
        drop_indices=draw(st.frozensets(st.integers(0, 200), max_size=6)),
        corrupt_indices=draw(st.frozensets(st.integers(0, 200), max_size=6)),
        predicate=draw(st.sampled_from([None, not_multiple_of_three])),
    )


def assert_same_plan_state(plan, pinned):
    assert plan.log == pinned.log
    assert plan.counters == pinned.counters
    assert plan.items_seen == pinned.next_index
    assert plan._rng.bit_generator.state == pinned.rng.bit_generator.state


def block_stream(rng, count):
    """Blocks of mixed geometries, so per-item corrupt lengths differ."""
    blocks = []
    for _ in range(count):
        n, k = (int(v) for v in rng.integers(1, 12, size=2))
        blocks.append(
            CodedBlock(
                coefficients=rng.integers(0, 256, size=n, dtype=np.uint8),
                payload=rng.integers(0, 256, size=k, dtype=np.uint8),
                segment_id=int(rng.integers(4)),
            )
        )
    return blocks


@settings(max_examples=300, deadline=None)
@given(
    args=plan_args(),
    rounds=st.lists(st.integers(0, 64), min_size=1, max_size=6),
    size=st.integers(1, 40),
)
def test_apply_frames_matches_pinned_schedule(args, rounds, size):
    plan, pinned = FaultPlan(**args), PinnedFaultPlan(**args)
    data = np.random.default_rng(len(rounds))
    for m in rounds:
        frames = data.integers(0, 256, size=(m, size), dtype=np.uint8)
        before = frames.copy()
        got = plan.apply_frames(frames)
        expected = pinned.apply_frames(frames)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(frames, before)  # the caller's matrix is untouched
        assert_same_plan_state(plan, pinned)


@settings(max_examples=300, deadline=None)
@given(args=plan_args(), rounds=st.lists(st.integers(0, 64), min_size=1, max_size=6))
def test_apply_blocks_matches_pinned_schedule(args, rounds):
    plan, pinned = FaultPlan(**args), PinnedFaultPlan(**args)
    data = np.random.default_rng(len(rounds))
    for m in rounds:
        blocks = block_stream(data, m)
        got = plan.apply_blocks(iter(blocks))
        expected = pinned.apply_blocks(blocks)
        assert [
            (b.segment_id, b.coefficients.tobytes(), b.payload.tobytes()) for b in got
        ] == [
            (b.segment_id, b.coefficients.tobytes(), b.payload.tobytes())
            for b in expected
        ]
        assert_same_plan_state(plan, pinned)


def test_every_knob_at_once_matches_pinned_schedule():
    """A fixed, dense case: every action fires within the first round."""
    args = dict(
        seed=29,
        drop_rate=0.1,
        corrupt_rate=0.5,
        duplicate_rate=0.5,
        delay_rate=0.5,
        max_delay=3,
        reorder_window=2,
        drop_indices=[0, 40],
        corrupt_indices=[1, 63],
        predicate=not_multiple_of_three,
    )
    plan, pinned = FaultPlan(**args), PinnedFaultPlan(**args)
    frames = np.arange(64 * 8, dtype=np.uint8).reshape(64, 8)
    for m in (64, 0, 1, 33):
        got = plan.apply_frames(frames[:m])
        assert np.array_equal(got, pinned.apply_frames(frames[:m]))
        assert_same_plan_state(plan, pinned)
    assert {event.action for event in plan.log} == {
        "drop",
        "corrupt",
        "duplicate",
        "delay",
    }
