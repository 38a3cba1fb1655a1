"""Deterministic fault injection for the wire path and channel pipeline.

The robustness layer (frame integrity, quarantine, NACK retransmission)
is only trustworthy if every failure mode can be reproduced exactly, so
this module provides a *seeded* fault schedule instead of ad-hoc random
mangling: a :class:`FaultPlan` decides — purely from its seed and each
item's arrival index — whether a frame is dropped, bit-flipped,
duplicated, delayed or reordered, and logs every injected fault as a
:class:`FaultEvent`.  Tests then assert exact end-to-end accounting:
each corrupt frame the plan injected must show up in the receiver's
:class:`~repro.rlnc.wire.WireStats`, with zero silent acceptance.

Two adapters plug the same plan into both transport layers:

* :meth:`FaultPlan.apply_frames` mangles a round of serialized wire
  frames, held as one ``(m, frame_size)`` byte matrix, for the wire
  path of both receivers (:class:`~repro.streaming.client.ClientSession`
  and :class:`~repro.multicast.tree.RelayUplink`);
* :class:`FaultInjectionChannel` implements the
  :class:`~repro.rlnc.channel.Channel` protocol over
  :class:`~repro.rlnc.block.CodedBlock` streams, composing with the
  stochastic channels in :class:`~repro.rlnc.channel.ChannelPipeline`.

Determinism contract: the plan reads one random stream, and each
arrival index owns the same stretch of it however the items are split
into ``apply`` calls: four uniforms (drop, corrupt, duplicate, delay),
then that item's magnitude draws (corrupt offset, delay, flip bit) when
a fault needs them.  So a given seed produces the same
drop/corrupt/duplicate/delay schedule for any batching (the plan keeps
a monotonic arrival counter across calls; :meth:`FaultPlan.reset`
restarts it).  A call draws its uniforms in one batch and replays the
stream only around the rows that need a magnitude (see
:meth:`FaultPlan._schedule_batch`).  Reordering jitter is drawn per
delivered batch, after every per-item draw of the call, so it depends
additionally on batch boundaries — the one documented exception.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.rlnc.block import CodedBlock

#: Fault actions a plan can inject.
ACTIONS = ("drop", "corrupt", "duplicate", "delay")

#: Process-level fault actions a :class:`ChaosPlan` can schedule.
CHAOS_ACTIONS = ("crash", "hang", "slow", "drop")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for exact test accounting.

    Attributes:
        index: global arrival index of the affected item.
        action: one of ``drop``, ``corrupt``, ``duplicate``, ``delay``.
        detail: action-specific magnitude — the flipped byte offset for
            ``corrupt``, the displacement for ``delay``, else 0.
    """

    index: int
    action: str
    detail: int = 0


@dataclass
class FaultCounters:
    """Running totals over every fault a plan has injected."""

    dropped: int = 0
    corrupted: int = 0
    duplicated: int = 0
    delayed: int = 0

    @property
    def total(self) -> int:
        return self.dropped + self.corrupted + self.duplicated + self.delayed


class FaultPlan:
    """A seeded, replayable schedule of transport faults.

    Args:
        seed: the schedule's only entropy source; equal seeds give equal
            schedules.
        drop_rate: probability an item is dropped.
        corrupt_rate: probability one bit of an item is flipped.
        duplicate_rate: probability an item is delivered twice.
        delay_rate: probability an item is displaced later in the
            delivery order.
        max_delay: largest displacement (positions) a delayed item may
            suffer; must be positive when ``delay_rate`` is.
        reorder_window: when positive, bounded random reordering of each
            delivered batch by up to this many positions (on top of any
            per-item faults).
        drop_indices: arrival indices dropped unconditionally (exact
            targeting, independent of the random schedule).
        corrupt_indices: arrival indices bit-flipped unconditionally.
        predicate: optional gate — random faults only apply to arrival
            indices where ``predicate(index)`` is true (explicit
            ``*_indices`` ignore the gate).
    """

    def __init__(
        self,
        *,
        seed: int,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        max_delay: int = 0,
        reorder_window: int = 0,
        drop_indices: Iterable[int] = (),
        corrupt_indices: Iterable[int] = (),
        predicate: Callable[[int], bool] | None = None,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("corrupt_rate", corrupt_rate),
            ("duplicate_rate", duplicate_rate),
            ("delay_rate", delay_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        if max_delay < 0 or reorder_window < 0:
            raise ConfigurationError("delays and windows must be non-negative")
        if delay_rate > 0 and max_delay == 0:
            raise ConfigurationError("delay_rate needs max_delay >= 1")
        self.seed = seed
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.max_delay = max_delay
        self.reorder_window = reorder_window
        self.drop_indices = frozenset(int(i) for i in drop_indices)
        self.corrupt_indices = frozenset(int(i) for i in corrupt_indices)
        self.predicate = predicate
        self.log: list[FaultEvent] = []
        self.counters = FaultCounters()
        self.reset()

    def reset(self) -> None:
        """Restart the schedule from arrival index 0 (exact replay)."""
        self._rng = np.random.default_rng(self.seed)
        self._next_index = 0
        self.log = []
        self.counters = FaultCounters()

    @property
    def items_seen(self) -> int:
        """Items the plan has scheduled so far (across all calls)."""
        return self._next_index

    def events(self, action: str) -> list[FaultEvent]:
        """All logged events of one action type."""
        if action not in ACTIONS:
            raise ConfigurationError(f"unknown fault action {action!r}")
        return [event for event in self.log if event.action == action]

    # -- schedule core -----------------------------------------------------

    def _schedule_batch(
        self, m: int, length: Callable[[int], int]
    ) -> tuple[list[int], dict[int, tuple[int, int]]]:
        """Fault decisions and delivery order for the next ``m`` arrivals.

        The stream is the one a per-item draw would consume: for each
        arrival index, four uniforms (drop, corrupt, duplicate, delay),
        then its magnitude draws (the corrupt offset, bounded by
        ``length(position)``, the delay, and the flip bit if the item
        survives); after the last item, one reorder-jitter draw per
        delivered copy.  The uniforms come from one ``random(4 * m)``
        call.  Most rows need no magnitude; at the first that does, the
        generator goes back to the state saved before that call, the
        rows up to it are redrawn, its magnitudes are drawn, and the
        rest of the call is drawn again in one batch.  The state is
        saved whole, not rewound with ``advance``: that would drop the
        buffered 32-bit half that ``integers`` reads.

        Returns ``(order, flips)``: the positions delivered, duplicates
        repeated, in delivery order; and each corrupted survivor's
        position mapped to its ``(offset, bit)``.
        """
        base = self._next_index
        self._next_index = end = base + m
        rng = self._rng
        drop_rate, corrupt_rate = self.drop_rate, self.corrupt_rate
        duplicate_rate, delay_rate = self.duplicate_rate, self.delay_rate
        gates = None
        if self.predicate is not None:
            gates = [bool(self.predicate(i)) for i in range(base, end)]
        forced_drop = {i - base for i in self.drop_indices if base <= i < end}
        forced_corrupt = {i - base for i in self.corrupt_indices if base <= i < end}
        may_draw = bool(forced_corrupt) or corrupt_rate > 0 or delay_rate > 0
        dropped: set[int] = set()
        duplicated: list[int] = []
        delays: dict[int, int] = {}
        flips: dict[int, tuple[int, int]] = {}
        start = 0
        while start < m:
            # Only a magnitude row with rows after it rewinds the stream.
            saved = rng.bit_generator.state if may_draw and start + 1 < m else None
            draws = rng.random(4 * (m - start)).tolist()
            # The rows some draw or forced index may fault; a gated-off
            # row among them decides nothing below.
            rows = {
                start + j // 4
                for j in range(0, len(draws), 4)
                if draws[j] < drop_rate
                or draws[j + 1] < corrupt_rate
                or draws[j + 2] < duplicate_rate
                or draws[j + 3] < delay_rate
            }
            rows.update(row for row in forced_drop | forced_corrupt if row >= start)
            for row in sorted(rows):
                j = 4 * (row - start)
                gated = gates is None or gates[row]
                drop = row in forced_drop or (gated and draws[j] < drop_rate)
                corrupt = row in forced_corrupt or (
                    gated and draws[j + 1] < corrupt_rate
                )
                duplicate = gated and draws[j + 2] < duplicate_rate
                delay = gated and draws[j + 3] < delay_rate
                magnitude = corrupt or delay
                if magnitude and row + 1 < m:
                    # The rows past this one were drawn too early.
                    rng.bit_generator.state = saved
                    rng.random(4 * (row + 1 - start))
                if corrupt:
                    offset = int(rng.integers(max(1, length(row))))
                if delay:
                    delay_by = int(rng.integers(1, self.max_delay + 1))
                index = base + row
                if drop:
                    self.log.append(FaultEvent(index, "drop"))
                    self.counters.dropped += 1
                    dropped.add(row)
                else:
                    if corrupt:
                        flips[row] = (offset, 1 << int(rng.integers(8)))
                        self.log.append(FaultEvent(index, "corrupt", offset))
                        self.counters.corrupted += 1
                    if duplicate:
                        self.log.append(FaultEvent(index, "duplicate"))
                        self.counters.duplicated += 1
                        duplicated.append(row)
                    if delay:
                        self.log.append(FaultEvent(index, "delay", delay_by))
                        self.counters.delayed += 1
                        delays[row] = delay_by
                if magnitude:
                    start = row + 1
                    break
            else:
                start = m
        order = [row for row in range(m) if row not in dropped]
        if duplicated:
            order = sorted(order + duplicated)
        jitter = self.reorder_window and len(order) > 1
        if delays or jitter:
            # A delayed item lands *after* the item it was delayed past;
            # the stable sort keeps arrival order among equal keys.
            keys = np.array(
                [row + delays[row] + 0.5 if row in delays else row for row in order],
                dtype=np.float64,
            )
            if jitter:
                keys += rng.uniform(0, self.reorder_window + 1, len(order))
            order = [order[i] for i in np.argsort(keys, kind="stable").tolist()]
        return order, flips

    # -- adapters ----------------------------------------------------------

    def apply_frames(self, frames: np.ndarray) -> np.ndarray:
        """Inject faults into a round of serialized wire frames.

        ``frames`` is the round as an ``(m, frame_size)`` uint8 matrix
        (see :func:`~repro.rlnc.wire.frame_rows`); the survivors come
        back as a new matrix in delivery order, and corruption flips a
        bit in a copy of the row — the caller's matrix is never
        mutated.  This is the wire-path hook: both receivers run their
        round through it, then the receive step verifies the result
        with :func:`~repro.rlnc.wire.unpack_cohort`, whose
        :class:`~repro.rlnc.wire.WireStats` tests compare against
        :attr:`counters`.
        """
        m, size = frames.shape
        order, flips = self._schedule_batch(m, lambda _: size)
        out = frames.take(order, axis=0)
        if flips:
            for position, row in enumerate(order):
                if row in flips:
                    offset, bit = flips[row]
                    out[position, offset] ^= bit
        return out

    def apply_blocks(self, blocks: Iterable[CodedBlock]) -> list[CodedBlock]:
        """Inject faults into a coded-block stream (channel-level view).

        Corruption flips one bit in a *copy* of the block's coefficient
        vector or payload (position drawn over the concatenation, like
        :class:`~repro.rlnc.channel.CorruptingChannel`).
        """
        items = list(blocks)
        order, flips = self._schedule_batch(
            len(items), lambda row: items[row].num_blocks + items[row].block_size
        )
        for row, (offset, bit) in flips.items():
            block = items[row]
            coefficients = block.coefficients.copy()
            payload = block.payload.copy()
            n = block.num_blocks
            if offset < n:
                coefficients[offset] ^= np.uint8(bit)
            else:
                payload[offset - n] ^= np.uint8(bit)
            items[row] = CodedBlock(
                coefficients=coefficients,
                payload=payload,
                segment_id=block.segment_id,
            )
        return [items[row] for row in order]


@dataclass
class FaultInjectionChannel:
    """A :class:`~repro.rlnc.channel.Channel` driven by a :class:`FaultPlan`.

    Drop-in stage for :class:`~repro.rlnc.channel.ChannelPipeline`: the
    same deterministic schedule that exercises the wire path can replace
    (or compose with) the stochastic channel models, so channel-level
    tests replay exact fault sequences.
    """

    plan: FaultPlan

    def transmit(self, blocks: Iterable[CodedBlock]) -> list[CodedBlock]:
        """Return the blocks the receiver observes under the plan."""
        return self.plan.apply_blocks(blocks)


class WorkerKillPlan:
    """A seeded one-shot worker failure for cluster soak tests.

    Extends the deterministic-fault philosophy to the cluster layer:
    the victim worker is drawn from the seed at construction (not at
    kill time), and the kill fires the first time the observed workload
    progress crosses ``kill_at_progress`` — so a given seed always
    kills the same worker at the same point of the same workload.  The
    kill is logged as a :class:`FaultEvent` with action
    ``"worker_kill"`` (``index`` = the round it fired, ``detail`` = the
    victim id) for exact test accounting.

    Args:
        seed: the plan's only entropy source.
        num_workers: cluster size the victim is drawn from.
        kill_at_progress: workload-progress fraction in ``[0, 1]`` at
            which the kill triggers (0.2 = the ISSUE's "20% progress").
    """

    def __init__(
        self,
        *,
        seed: int,
        num_workers: int,
        kill_at_progress: float = 0.2,
    ) -> None:
        if num_workers < 2:
            raise ConfigurationError(
                "killing a worker needs a cluster of >= 2, "
                f"got {num_workers}"
            )
        if not 0.0 <= kill_at_progress <= 1.0:
            raise ConfigurationError(
                f"kill_at_progress must be in [0, 1], got {kill_at_progress}"
            )
        self.seed = seed
        self.num_workers = num_workers
        self.kill_at_progress = kill_at_progress
        rng = np.random.default_rng([seed, num_workers])
        self.victim = int(rng.integers(num_workers))
        self.log: list[FaultEvent] = []

    @property
    def fired(self) -> bool:
        return bool(self.log)

    def maybe_kill(self, cluster, *, progress: float, round_index: int):
        """Kill the victim once ``progress`` crosses the threshold.

        ``cluster`` is duck-typed (anything with ``live_workers`` and
        ``kill_worker``) so the fault layer stays free of cluster
        imports.

        Returns:
            The moved ``segment_id -> new_worker_id`` map when the kill
            fired this call, else ``None``.
        """
        if self.fired or progress < self.kill_at_progress:
            return None
        if self.victim not in cluster.live_workers:
            raise ConfigurationError(
                f"victim worker {self.victim} is not live"
            )
        moved = cluster.kill_worker(self.victim)
        self.log.append(
            FaultEvent(
                index=round_index, action="worker_kill", detail=self.victim
            )
        )
        return moved


class ChurnPlan:
    """A seeded schedule of peer churn for the load harness.

    Extends the deterministic-fault philosophy to population dynamics:
    the million-session workload needs sessions that *leave* (and
    sampled live peers that flap their connections) on a schedule that
    replays exactly.  Every per-round decision is drawn from
    ``default_rng([seed, kind, round_index])`` — a pure function of the
    seed and the round — so the schedule is independent of call order
    and of how many other draws the harness makes in between.

    Args:
        seed: the plan's only entropy source.
        departure_rate: per-round probability that any single active
            modelled session departs (drawn binomially over the active
            population).
        flap_rate: per-round probability that a sampled live peer drops
            its connection for one round (disconnect + reconnect —
            exercising the cluster's eviction/re-admission path).

    Every nonzero draw is logged as a :class:`FaultEvent`
    (``churn_depart`` with ``detail`` = departures; ``churn_flap`` with
    ``detail`` = the flapping peer id) for exact accounting.
    """

    def __init__(
        self,
        *,
        seed: int,
        departure_rate: float = 0.0,
        flap_rate: float = 0.0,
    ) -> None:
        for name, rate in (
            ("departure_rate", departure_rate),
            ("flap_rate", flap_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        self.seed = seed
        self.departure_rate = departure_rate
        self.flap_rate = flap_rate
        self.log: list[FaultEvent] = []

    def departures(self, round_index: int, active: int) -> int:
        """Modelled sessions leaving during ``round_index``.

        A binomial draw over the active population; deterministic per
        ``(seed, round_index)`` regardless of when (or how often) the
        harness asks.
        """
        if active <= 0 or self.departure_rate == 0.0:
            return 0
        rng = np.random.default_rng([self.seed, 0, round_index])
        count = int(rng.binomial(active, self.departure_rate))
        if count:
            self.log.append(FaultEvent(round_index, "churn_depart", count))
        return count

    def flaps(
        self, round_index: int, peer_ids: Sequence[int]
    ) -> list[int]:
        """Sampled live peers that flap (drop + rejoin) this round."""
        if not peer_ids or self.flap_rate == 0.0:
            return []
        rng = np.random.default_rng([self.seed, 1, round_index])
        draws = rng.random(len(peer_ids))
        flapping = [
            peer_id
            for peer_id, draw in zip(peer_ids, draws)
            if draw < self.flap_rate
        ]
        for peer_id in flapping:
            self.log.append(FaultEvent(round_index, "churn_flap", peer_id))
        return flapping


@dataclass(frozen=True)
class WorkerChaosSpec:
    """One worker's scheduled process-level fault (picklable).

    The spec crosses the process boundary inside
    :class:`~repro.cluster.worker.WorkerBootstrap`; the worker runtime
    counts the commands it handles and fires the fault when the
    ``at_count``-th command of the configured ``command`` verb arrives —
    the same hook point :meth:`~repro.cluster.worker.WorkerProcess
    .tap_replies` instruments from the parent side.  Faults are
    *pre-reply*: a crashing worker never acknowledges the command, so
    the parent observes exactly what a real mid-command death looks
    like (EOF on the pipe / a missed deadline), not a polite error.

    Attributes:
        action: ``crash`` (abrupt ``os._exit``, no cleanup), ``hang``
            (sleep ``seconds`` once, then serve normally) or ``slow``
            (sleep ``seconds`` before every reply from ``at_count`` on).
        command: the worker verb the fault fires on — an injection
            point: ``round``, ``request``, ``publish``, ``ping``, ...
        at_count: 1-based occurrence of ``command`` that triggers.
        seconds: sleep duration for ``hang``/``slow``.
        exit_code: ``crash`` only — the worker's exit status.
    """

    action: str
    command: str = "round"
    at_count: int = 1
    seconds: float = 0.0
    exit_code: int = 1

    def __post_init__(self) -> None:
        if self.action not in ("crash", "hang", "slow"):
            raise ConfigurationError(
                f"unknown worker chaos action {self.action!r}; "
                "expected crash, hang or slow"
            )
        if self.at_count < 1:
            raise ConfigurationError(
                f"at_count is 1-based and must be >= 1, got {self.at_count}"
            )
        if self.seconds < 0:
            raise ConfigurationError("chaos seconds must be non-negative")
        if self.action in ("hang", "slow") and self.seconds <= 0:
            raise ConfigurationError(
                f"{self.action} chaos needs seconds > 0"
            )


class ChaosPlan:
    """A seeded schedule of process-level cluster faults.

    Extends the deterministic-fault philosophy from frames and blocks to
    whole worker processes: every victim is drawn from the seed at
    construction (one distinct victim per enabled action, drawn from a
    seeded permutation), so a given seed always fells the same workers
    at the same points of the same workload.  Three fault modes run
    *inside* the victim (compiled into its
    :class:`~repro.cluster.worker.WorkerBootstrap` as a
    :class:`WorkerChaosSpec`); the fourth fires from the parent:

    * ``crash_at_round`` — the victim ``os._exit``\\ s while handling
      its Nth serve round (1-based), mid-command: no reply, no cleanup.
    * ``hang_at_round`` — the victim sleeps ``hang_seconds`` before
      replying to its Nth round; only a deadline can unblock the
      barrier.
    * ``slow_from_round`` — every reply from the Nth round on is
      delayed ``slow_reply_seconds``; the supervisor's slow-strike
      accounting must evict it.
    * ``drop_at_progress`` — the parent sends a raw ``SIGKILL``
      (bypassing all cluster bookkeeping) the first time workload
      progress crosses the fraction, so detection — not the kill — is
      what gets exercised.

    Every scheduled fault is logged as a :class:`FaultEvent` at
    construction (``index`` = the scheduled round, or ``-1`` for
    progress-triggered drops; ``detail`` = the victim id), and the drop
    firing appends a ``worker_drop`` event — tests assert exact
    accounting between this log and the supervisor's detections.

    Args:
        seed: the plan's only entropy source.
        num_workers: cluster size victims are drawn from; must be at
            least the number of enabled actions plus one survivor.
        crash_at_round: 1-based round the crash victim dies on.
        hang_at_round: 1-based round the hang victim stalls on.
        hang_seconds: how long the hang victim sleeps.
        slow_from_round: 1-based round the slow victim degrades from.
        slow_reply_seconds: per-reply delay of the slow victim.
        drop_at_progress: workload-progress fraction in ``[0, 1]`` at
            which the parent SIGKILLs the drop victim.
        command: injection point for the in-process faults (the worker
            verb; default ``round``).
    """

    def __init__(
        self,
        *,
        seed: int,
        num_workers: int,
        crash_at_round: int | None = None,
        hang_at_round: int | None = None,
        hang_seconds: float = 1.0,
        slow_from_round: int | None = None,
        slow_reply_seconds: float = 0.25,
        drop_at_progress: float | None = None,
        command: str = "round",
    ) -> None:
        enabled = [
            action
            for action, trigger in (
                ("crash", crash_at_round),
                ("hang", hang_at_round),
                ("slow", slow_from_round),
                ("drop", drop_at_progress),
            )
            if trigger is not None
        ]
        if not enabled:
            raise ConfigurationError(
                "a ChaosPlan needs at least one of crash_at_round, "
                "hang_at_round, slow_from_round or drop_at_progress"
            )
        if num_workers < len(enabled) + 1:
            raise ConfigurationError(
                f"{len(enabled)} chaos action(s) need at least "
                f"{len(enabled) + 1} workers (one must survive), "
                f"got {num_workers}"
            )
        for name, value in (
            ("crash_at_round", crash_at_round),
            ("hang_at_round", hang_at_round),
            ("slow_from_round", slow_from_round),
        ):
            if value is not None and value < 1:
                raise ConfigurationError(
                    f"{name} is 1-based and must be >= 1, got {value}"
                )
        if drop_at_progress is not None and not (
            0.0 <= drop_at_progress <= 1.0
        ):
            raise ConfigurationError(
                f"drop_at_progress must be in [0, 1], got {drop_at_progress}"
            )
        self.seed = seed
        self.num_workers = num_workers
        self.drop_at_progress = drop_at_progress
        self.command = command
        rng = np.random.default_rng([seed, num_workers])
        order = [int(w) for w in rng.permutation(num_workers)]
        #: action -> seed-drawn victim worker id (distinct per action).
        self.victims: dict[str, int] = {
            action: order[i] for i, action in enumerate(enabled)
        }
        self._specs: dict[int, WorkerChaosSpec] = {}
        self.log: list[FaultEvent] = []
        if crash_at_round is not None:
            victim = self.victims["crash"]
            self._specs[victim] = WorkerChaosSpec(
                "crash", command=command, at_count=crash_at_round
            )
            self.log.append(FaultEvent(crash_at_round, "crash", victim))
        if hang_at_round is not None:
            victim = self.victims["hang"]
            self._specs[victim] = WorkerChaosSpec(
                "hang",
                command=command,
                at_count=hang_at_round,
                seconds=hang_seconds,
            )
            self.log.append(FaultEvent(hang_at_round, "hang", victim))
        if slow_from_round is not None:
            victim = self.victims["slow"]
            self._specs[victim] = WorkerChaosSpec(
                "slow",
                command=command,
                at_count=slow_from_round,
                seconds=slow_reply_seconds,
            )
            self.log.append(FaultEvent(slow_from_round, "slow", victim))
        if drop_at_progress is not None:
            self.log.append(FaultEvent(-1, "drop", self.victims["drop"]))
        self._drop_fired = False

    @property
    def scheduled_process_faults(self) -> int:
        """Faults this plan will inject (in-process specs + drop)."""
        return len(self._specs) + (1 if self.drop_at_progress is not None else 0)

    @property
    def drop_fired(self) -> bool:
        return self._drop_fired

    def spec_for(self, worker_id: int) -> WorkerChaosSpec | None:
        """The chaos spec baked into ``worker_id``'s bootstrap, if any.

        Only a worker's *first* incarnation gets a spec — the cluster
        passes ``chaos=None`` on supervisor restarts, so a healed
        victim comes back healthy instead of replaying its fault.
        """
        return self._specs.get(worker_id)

    def maybe_drop(self, cluster, *, progress: float, round_index: int):
        """Raw-SIGKILL the drop victim once ``progress`` crosses the bar.

        Unlike :meth:`WorkerKillPlan.maybe_kill` this never calls
        ``kill_worker``: the signal goes straight to the OS process, so
        the cluster's supervision layer — not the caller — must notice
        the death and run recovery.  Returns the victim id when the
        drop fired this call, else ``None``.
        """
        if (
            self.drop_at_progress is None
            or self._drop_fired
            or progress < self.drop_at_progress
        ):
            return None
        victim = self.victims["drop"]
        if victim not in cluster.live_workers:
            raise ConfigurationError(f"drop victim {victim} is not live")
        pid = cluster.worker(victim).pid
        if pid is None:
            raise ConfigurationError(
                f"drop victim {victim} has no OS process (parallel=False?)"
            )
        os.kill(pid, signal.SIGKILL)
        self._drop_fired = True
        self.log.append(FaultEvent(round_index, "worker_drop", victim))
        return victim
