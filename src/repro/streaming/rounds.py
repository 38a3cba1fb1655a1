"""The round loop: one receive step and one driver for every fetch.

The paper's §4 pipeline is one loop — ask, encode a round, ship it,
decode it — and this module holds it once.  :func:`receive_round` is
the receive step: a cohort's round verified and absorbed at once.
:func:`drive` is the loop around it: it keeps the set of receivers
still fetching, runs their ``pre_round`` asks, serves the endpoint's
round (lock-step, or double-buffered with ``begin_round`` /
``collect_round``), hands each receiver its slice, and yields the
round.  A caller keeps only its own policy in its ``for`` body: fault
plans between rounds, verifying and refilling finished receivers,
accounting the served bytes.

A receiver is a :class:`~repro.streaming.client.ClientSession` or a
:class:`~repro.multicast.tree.RelayUplink`: each has ``peer_id``,
``complete``, ``pre_round()`` and the receive step's hooks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.errors import RetryExhaustedError
from repro.obs.trace import trace
from repro.rlnc.block import BlockBatch
from repro.rlnc.decoder import consume_cohort
from repro.rlnc.wire import VERSION2, frame_rows, unpack_cohort


def drive(
    endpoint,
    receivers,
    *,
    checksum: bool = True,
    version: int = VERSION2,
    pipelined: bool = False,
    on_exhausted: Callable[[object, RetryExhaustedError], None] | None = None,
    max_rounds: int | None = 10_000,
) -> Iterator[dict]:
    """Drive ``endpoint``'s rounds until every receiver completes.

    Each lock-step round: every receiver still fetching runs its
    ``pre_round`` ask, the endpoint serves one round, and
    :func:`receive_round` hands each receiver its slice.  The round's
    ``peer_id -> frames`` map is then yielded — views into endpoint
    storage, valid until the endpoint's round after next — and the
    caller's loop body runs before the next round begins.

    ``pipelined=True`` double-buffers instead: round ``r``'s
    ``begin_round`` fires, round ``r-1``'s frames are absorbed while it
    encodes, then ``collect_round`` barriers and round ``r`` is yielded
    (as ``bytes``, copied out before the next ``begin_round`` reuses the
    endpoint's storage).  Receivers ask only at fully drained barriers
    — no round in flight, none collected, nothing queued — where the
    endpoint's state is the lock-step path's, so asks land on the same
    queue in both modes; a barrier that raises no ask ticks the
    receivers' retry clocks with an empty delivery instead of a round.

    A receiver leaves the round once a round it absorbed rows from
    completes it (checked after the caller's loop body, so a body that
    finishes the segment and starts the receiver on a new one keeps it
    in), or when its ``pre_round`` or receive raises
    :class:`~repro.errors.RetryExhaustedError` and ``on_exhausted`` is
    given: ``on_exhausted(receiver, error)`` is told and the round goes
    on.  Without it the error propagates.

    Raises:
        RetryExhaustedError: a receiver is still fetching after
            ``max_rounds`` rounds (``None``: no bound; a pipelined
            drive allows ``2 * max_rounds`` loop steps), or a
            receiver's retries ran out and ``on_exhausted`` is ``None``.
    """
    active = [receiver for receiver in receivers if not receiver.complete]
    gone: set = set()

    def exhausted(receiver, error: RetryExhaustedError) -> None:
        gone.add(receiver)
        on_exhausted(receiver, error)

    handler = None if on_exhausted is None else exhausted

    def ask() -> list:
        """Every active receiver's ``pre_round``; returns those still in."""
        for receiver in active:
            try:
                receiver.pre_round()
            except RetryExhaustedError as error:
                if handler is None:
                    raise
                handler(receiver, error)
        return [r for r in active if r not in gone] if gone else active

    def receive(receiving: list, frames: dict) -> list:
        """The receive step; returns the receivers it completed."""
        results = receive_round(
            receiving,
            [frames.get(receiver.peer_id) for receiver in receiving],
            on_exhausted=handler,
        )
        # Only a round that absorbed rows can complete a receiver.
        return [r for r, got in zip(receiving, results) if got and r.complete]

    finished: list = []
    limit = max_rounds if max_rounds is None or not pipelined else 2 * max_rounds
    steps = 0
    pending: dict | None = None
    while True:
        if finished or gone:
            # The exhausted leave, and so do the receivers the last
            # round completed, unless the body began a new segment.
            gone.update(r for r in finished if r.complete or r._segment_id is None)
            active = [receiver for receiver in active if receiver not in gone]
            finished = []
            gone.clear()
        if not active and pending is None:
            return
        if limit is not None and steps >= limit:
            raise RetryExhaustedError(
                f"{len(active)} receivers still incomplete after "
                f"{max_rounds} rounds"
            )
        steps += 1
        if not pipelined:
            receiving = ask()
            frames = endpoint.serve_round(checksum=checksum, version=version)
            finished = receive(receiving, frames)
            yield frames
            continue
        if pending is None and endpoint.pending_blocks == 0:
            # Fully drained barrier: the endpoint's state is the
            # lock-step path's, so the asks land byte-exactly.
            receiving = ask()
            if endpoint.pending_blocks == 0:
                # Nothing to serve: tick the retry/backoff clocks.
                finished = receive(receiving, {})
                continue
        ticket = (
            endpoint.begin_round(checksum=checksum, version=version)
            if endpoint.pending_blocks > 0
            else None
        )
        if pending is not None:
            # The overlap window: round r-1 decodes while round r encodes.
            finished = receive(active, pending)
            pending = None
        if ticket is not None:
            served = endpoint.collect_round(ticket)
            pending = {peer_id: bytes(view) for peer_id, view in served.items()}
            yield pending


def receive_round(receivers, deliveries, *, on_exhausted=None) -> list[int]:
    """The one receive step: a cohort's round, verified and absorbed at once.

    ``receivers`` are :class:`~repro.streaming.client.ClientSession` and
    :class:`~repro.multicast.tree.RelayUplink` objects, ``deliveries[i]``
    receiver ``i``'s slice of the round (``None`` when the round
    granted it nothing); a single receiver is a cohort of one.

    Each receiver, in order, opens its round (a session counts it, and
    raises :class:`~repro.errors.RetryExhaustedError` past
    ``max_rounds_per_segment``), views its delivery as one frame matrix
    (a torn tail counts as malformed) and passes it through its
    ``fault_plan`` if it has one.  The survivors of receivers sharing a
    geometry are stacked and verified by one
    :func:`~repro.rlnc.wire.unpack_cohort` pass under one
    ``wire_unpack`` span, damage counted in each receiver's own
    :class:`~repro.rlnc.wire.WireStats`, and every receiver's intact
    rows of its segment go to its decoder through one
    :func:`~repro.rlnc.decoder.consume_cohort` call.  Then each
    receiver, in order, settles its round (a session's retry and
    backoff bookkeeping).

    A receiver whose settling could raise (a session with no retry
    left) closes the cohort it is in, and later receivers start a new
    one, so when it raises, every receiver's fault plan, wire stats and
    decoder stand exactly as a loop of single intakes leaves them: the
    receivers after it have not been touched.  With ``on_exhausted``,
    a receiver's :class:`~repro.errors.RetryExhaustedError` is handed to
    ``on_exhausted(receiver, error)`` instead and the round goes on, as
    a loop that catches per receiver would.

    Returns:
        Each receiver's result: the innovative rows for a session, the
        rows a relay kept for an uplink (0 for a receiver that raised
        into ``on_exhausted``).
    """
    results = [0] * len(receivers)
    cohort: list[tuple[int, object, int, np.ndarray]] = []
    for index, (receiver, data) in enumerate(zip(receivers, deliveries)):
        if cohort and (
            receiver._wire_key != cohort[0][1]._wire_key
            or any(receiver._sink is other._sink for _, other, _, _ in cohort)
        ):
            _receive_cohort(cohort, results, on_exhausted)
            cohort = []
        try:
            segment_id = receiver._open_round()
        except BaseException as error:
            # As in a loop of intakes, the receivers before it finish.
            _receive_cohort(cohort, results, on_exhausted)
            cohort = []
            if on_exhausted is None or not isinstance(error, RetryExhaustedError):
                raise
            on_exhausted(receiver, error)
            continue
        frames = frame_rows(data, receiver._frame_bytes, receiver.wire)
        if receiver.fault_plan is not None and len(frames):
            frames = receiver.fault_plan.apply_frames(frames)
        cohort.append((index, receiver, segment_id, frames))
        if on_exhausted is None and receiver._settle_may_raise():
            _receive_cohort(cohort, results, on_exhausted)
            cohort = []
    _receive_cohort(cohort, results, on_exhausted)
    return results


def _receive_cohort(cohort, results: list[int], on_exhausted) -> None:
    """Verify, absorb and settle one cohort of :func:`receive_round`."""
    if not cohort:
        return
    receivers = [receiver for _, receiver, _, _ in cohort]
    sizes = [len(frames) for *_, frames in cohort]
    stacked = (
        cohort[0][3]
        if len(cohort) == 1
        else np.concatenate([frames for *_, frames in cohort])
    )
    n, k, checksum, version = receivers[0]._wire_key
    with trace("wire_unpack", receivers=len(cohort)):
        coefficients, payloads, bounds, foreign = unpack_cohort(
            stacked,
            sizes,
            [segment_id for _, _, segment_id, _ in cohort],
            num_blocks=n,
            block_size=k,
            checksum=checksum,
            version=version,
            stats=[receiver.wire for receiver in receivers],
        )
    rows = [stop - start for start, stop in bounds]
    takers, decoders, sources = [], [], []
    for position, receiver in enumerate(receivers):
        taken = receiver._take_round(rows[position], foreign[position], sizes[position])
        if taken is not None:
            takers.append(position)
            decoders.append(taken[0])
            sources.append(taken[1])
    kept: list[int | None] = [None] * len(cohort)
    taken_bounds = [bounds[position] for position in takers]
    if len(takers) == 1:
        # A lone decoder absorbs through its own consume_batch (the same
        # call with one job), so its intake stays that method's.
        (start, stop), decoder = taken_bounds[0], decoders[0]
        batch = BlockBatch(coefficients[start:stop], payloads[start:stop])
        kept[takers[0]] = decoder.consume_batch(batch, source=sources[0])
    elif takers:
        counts = consume_cohort(decoders, coefficients, payloads, taken_bounds, sources)
        for position, count in zip(takers, counts):
            kept[position] = count
    for position, (index, receiver, _, _) in enumerate(cohort):
        try:
            results[index] = receiver._settle_round(rows[position], kept[position])
        except RetryExhaustedError as error:
            if on_exhausted is None:
                raise
            on_exhausted(receiver, error)


