"""Decoders for random linear network coding.

Two decoders mirror the two decoding dataflows in the paper:

* :class:`ProgressiveDecoder` — Gauss–Jordan elimination applied
  incrementally as each coded block arrives (Sec. 3).  The working matrix
  is kept in reduced row-echelon form at all times, so a linearly
  dependent block reduces to an all-zero row and is discarded without any
  explicit dependence check, and completion leaves the decoded blocks in
  place with no back-substitution.
* :class:`TwoStageDecoder` — the multi-segment scheme of Sec. 5.2: buffer
  n blocks, invert the coefficient matrix by eliminating ``[C | I]``
  (stage 1), then recover ``b = C^-1 x`` with a dense parallel multiply
  (stage 2).  On the GPU this trades a small serial stage for a fully
  parallel one; functionally the result is identical.

The progressive decoder splits the work the way the paper's TB-1
preprocessing splits encoding.  The *control plane* — the coefficient
matrix ``C`` and the row transform ``M`` with ``rows = M @
raw_payloads`` — is kept in exact RREF after every intake by one engine
call, :meth:`~repro.gf256.engine.Gf256Engine.absorb_many`: on the
compiled kernel, pivot search, normalisation, forward reduction and
back-elimination of the whole batch run in C over the fused region
ops, and the table backend runs the same elimination as a numpy loop,
the oracle (and the path on hosts without a compiler).  A single
block, a batch, a quarantine rebuild and a whole receiving cohort
(:func:`consume_cohort`: every decoder's rows of one round, in one
call) all go through that one call.  Each decoder checks its work
matrix and pivot array once, at construction, as an
:class:`~repro.gf256.engine.AbsorbTarget`.
The *data plane* (the k-byte payload side) is stored raw and
materialized on demand with a single dense engine matmul accumulated
directly into the aggregate view.  Because the RREF of a row space
(with this decoder's arrival-order row placement) is unique, the
materialized state is byte-identical to the eager seed implementation
after every intake — ``tests/rlnc/test_decoder_golden.py`` replays
identical streams through both and compares full internal state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.obs.trace import trace
from repro.gf256 import matmul, select_and_invert
from repro.gf256.engine import ENGINE, AbsorbTarget
from repro.rlnc.block import BlockBatch, CodedBlock, CodingParams, Segment


class ProgressiveDecoder:
    """Progressive Gauss–Jordan decoder for one segment.

    The observable state is the aggregate matrix ``[C | x]`` restricted to
    the innovative rows received so far, maintained in RREF.  ``rank``
    grows by one per innovative block; once it reaches n the coefficient
    side is the identity and the payload side holds the source blocks.
    Internally the payload side is lazy (see module docstring); use
    :meth:`dense_state` to materialize and inspect it.
    """

    def __init__(self, params: CodingParams, segment_id: int = 0) -> None:
        n, k = params.num_blocks, params.block_size
        self._params = params
        self._segment_id = segment_id
        # Control plane, eagerly in RREF: row i is [C_row | M_row] where
        # transform column n + j tracks the contribution of the j-th
        # accepted raw payload.
        self._work = np.zeros((n, 2 * n), dtype=np.uint8)
        # Data plane: accepted payloads and coefficients exactly as they
        # arrived.  Raw coefficients buy the quarantine layer two things:
        # the RREF re-verification invariant C_rref == M @ C_raw, and the
        # ability to rebuild elimination from scratch with any subset of
        # accepted rows rolled back.
        self._raw_payloads = np.zeros((n, k), dtype=np.uint8)
        self._raw_coefficients = np.zeros((n, n), dtype=np.uint8)
        #: Source tag (e.g. a peer id) of each accepted raw row.
        self._sources: list[object] = [None] * n
        # Materialized aggregate [C | x]; payload side refreshed on demand.
        self._rows = np.zeros((n, n + k), dtype=np.uint8)
        self._materialized_rank = 0
        self._pivot_to_row: dict[int, int] = {}
        self._pivot_cols = np.empty(n, dtype=np.int64)
        # Checked once: both arrays are cleared in place, never replaced.
        self._target = AbsorbTarget(self._work, self._pivot_cols)
        self._received = 0
        self._discarded = 0
        self._quarantined = 0
        self._rank_regressions = 0
        self._corruption_counts: dict[object, int] = {}

    @property
    def params(self) -> CodingParams:
        return self._params

    @property
    def rank(self) -> int:
        """Number of innovative blocks absorbed so far."""
        return len(self._pivot_to_row)

    @property
    def received(self) -> int:
        """Total blocks offered to the decoder."""
        return self._received

    @property
    def discarded(self) -> int:
        """Blocks that reduced to zero (linearly dependent) and were dropped."""
        return self._discarded

    @property
    def is_complete(self) -> bool:
        return self.rank == self._params.num_blocks

    @property
    def quarantined(self) -> int:
        """Accepted rows later rolled back as poisoned."""
        return self._quarantined

    @property
    def rank_regressions(self) -> int:
        """Quarantine events that reduced an already-achieved rank."""
        return self._rank_regressions

    @property
    def corruption_counts(self) -> dict[object, int]:
        """Corrupt contributions attributed per source tag (a copy)."""
        return dict(self._corruption_counts)

    def record_corrupt(self, source: object = None, count: int = 1) -> None:
        """Attribute ``count`` corrupt frames to ``source``.

        The transport layer calls this when wire-level integrity checks
        reject frames before they ever reach elimination, so one counter
        covers both pre-acceptance (checksum) and post-acceptance
        (quarantine) corruption per source.
        """
        if count < 0:
            raise DecodingError("corrupt count cannot be negative")
        if count:
            self._corruption_counts[source] = (
                self._corruption_counts.get(source, 0) + count
            )

    def consume(self, block: CodedBlock, *, source: object = None) -> bool:
        """Absorb one coded block; return True if it was innovative.

        ``source`` tags the accepted row (e.g. with a peer id) so later
        quarantine can attribute and roll back everything that source
        contributed.

        Raises:
            DecodingError: if the block's geometry does not match, or the
                decoder is already complete.
        """
        n, k = self._params.num_blocks, self._params.block_size
        if block.num_blocks != n or block.block_size != k:
            raise DecodingError(
                f"block geometry ({block.num_blocks}, {block.block_size}) does "
                f"not match decoder ({n}, {k})"
            )
        if self.is_complete:
            raise DecodingError("decoder already holds a full-rank system")
        self._received += 1
        accepted = self._absorb(
            block.coefficients[None, :], block.payload[None, :], [source]
        )
        return accepted == 1

    def consume_batch(
        self,
        blocks: BlockBatch | np.ndarray,
        payloads: np.ndarray | None = None,
        *,
        source: object = None,
    ) -> int:
        """Absorb a whole batch of blocks; return how many were innovative.

        The batched intake path of the serving pipeline: the whole
        batch goes through *one* engine elimination call (pivot search,
        normalization, forward reduction and back-elimination for every
        row), instead of one :meth:`consume` call per block.  The
        resulting decoder state is byte-identical to consuming the same
        rows one at a time, because the stored RREF (with this decoder's
        arrival-order row placement) is unique.

        Rows arriving after the decoder completes mid-batch necessarily
        reduce to zero and are counted as discarded — unlike
        :meth:`consume`, which raises when offered a block *after*
        completion (so does this method when called on an
        already-complete decoder).

        Args:
            blocks: a :class:`BlockBatch`, or the (m, n) coefficient
                matrix when ``payloads`` is given.
            payloads: the (m, k) payload matrix matching ``blocks``.

        Raises:
            DecodingError: on geometry mismatch or when the decoder is
                already complete.
        """
        if isinstance(blocks, BlockBatch):
            coefficients, payloads = blocks.coefficients, blocks.payloads
        else:
            coefficients = blocks
            if payloads is None:
                raise DecodingError("payload matrix required with raw coefficients")
        if coefficients.ndim != 2 or payloads.ndim != 2:
            raise DecodingError("batch intake requires 2-D matrices")
        if coefficients.shape[0] != payloads.shape[0]:
            raise DecodingError("coefficient/payload row counts differ")
        m = coefficients.shape[0]
        return consume_cohort([self], coefficients, payloads, [(0, m)], [source])[0]

    def _absorb(
        self,
        coefficients: np.ndarray,
        payloads: np.ndarray,
        sources: list[object],
        *,
        count_discards: bool = True,
    ) -> int:
        """Absorb rows into this decoder alone (consume and rebuild).

        ``sources[i]`` tags incoming row ``i``.  Does not touch the
        ``received`` counter; ``count_discards=False`` (the
        quarantine-rebuild path) suppresses the ``discarded`` counter
        too, so replaying retained rows never inflates stats.
        """
        return _absorb(
            [self],
            coefficients,
            payloads,
            [(0, coefficients.shape[0])],
            [sources],
            count_discards=count_discards,
        )[0]

    def _keep_rows(
        self,
        coefficients: np.ndarray,
        payloads: np.ndarray,
        accepted: np.ndarray,
        sources,
    ) -> None:
        """Record the rows the engine accepted into ``_work``.

        Only the accepted rows' raw payloads, raw coefficients, sources
        and pivot entries are copied; ``accepted`` indexes
        ``coefficients``/``payloads`` and ``sources``.
        """
        held = self.rank
        count = accepted.size
        rows = slice(held, held + count)
        # mode="clip" writes straight into ``out`` (mode="raise"
        # would stage a copy); the indices come from the engine.
        np.take(
            coefficients,
            accepted,
            axis=0,
            out=self._raw_coefficients[rows],
            mode="clip",
        )
        np.take(payloads, accepted, axis=0, out=self._raw_payloads[rows], mode="clip")
        self._sources[rows] = [sources[index] for index in accepted.tolist()]
        self._pivot_to_row.update(
            zip(self._pivot_cols[rows].tolist(), range(held, held + count))
        )

    # -- poisoned-block quarantine -----------------------------------------

    def verify_consistency(self) -> list[int]:
        """Re-verify the RREF against the raw rows; return suspect rows.

        The decoder keeps every accepted row's *raw* coefficients next to
        the row transform ``M``, so the elimination invariant
        ``C_rref == M @ C_raw`` can be re-checked at any time, together
        with the structural RREF property that each pivot column is a
        unit vector.  A mismatch means the decoder's internal state was
        corrupted after acceptance (bad memory, a mutated zero-copy
        buffer, a faulty engine backend) — the "inconsistent RREF on
        re-verify" detector.  Returns the indices of inconsistent
        accepted rows (empty when the state is sound); feed them to
        :meth:`quarantine_rows` to roll them back.
        """
        held = self.rank
        if held == 0:
            return []
        n = self._params.num_blocks
        recomputed = matmul(
            self._work[:held, n : n + held], self._raw_coefficients[:held]
        )
        mismatched = np.nonzero(
            np.any(recomputed != self._work[:held, :n], axis=1)
        )[0]
        suspects = {int(row) for row in mismatched}
        for pivot_col, row in self._pivot_to_row.items():
            column = self._work[:held, pivot_col]
            if column[row] != 1 or np.count_nonzero(column) != 1:
                suspects.add(row)
        return sorted(suspects)

    def quarantine_rows(self, rows) -> int:
        """Roll back accepted rows as poisoned; return the new rank.

        The offending raw rows are removed, their sources charged in
        :attr:`corruption_counts`, and the whole elimination is rebuilt
        from the retained raw rows — the RREF ends up exactly as if the
        quarantined blocks had never arrived, instead of silently
        producing garbage at :meth:`recover_segment`.  The resulting
        rank drop is recorded as a rank regression; the caller re-fills
        the missing rank through retransmission.

        Raises:
            DecodingError: if any index is not an accepted row.
        """
        held = self.rank
        doomed = sorted({int(row) for row in rows})
        if not doomed:
            return held
        if doomed[0] < 0 or doomed[-1] >= held:
            raise DecodingError(
                f"quarantine rows {doomed} outside accepted range [0, {held})"
            )
        for row in doomed:
            self.record_corrupt(self._sources[row])
        keep = [row for row in range(held) if row not in set(doomed)]
        coefficients = self._raw_coefficients[keep]
        payloads = self._raw_payloads[keep]
        sources = [self._sources[row] for row in keep]
        self._quarantined += len(doomed)
        with trace("quarantine_rebuild", segment=self._segment_id):
            self._reset_elimination()
            self._absorb(coefficients, payloads, sources, count_discards=False)
        if self.rank < held:
            self._rank_regressions += 1
        return self.rank

    def quarantine_source(self, source: object) -> int:
        """Roll back every accepted row contributed by ``source``.

        Returns the number of rows quarantined.  Used when an upstream
        peer is discovered to be feeding corrupt (but
        checksum-consistent) blocks: all of its contributions are
        suspect, so the decoder drops them wholesale and lets the retry
        loop re-request the lost rank from elsewhere.
        """
        rows = [
            row for row in range(self.rank) if self._sources[row] == source
        ]
        if rows:
            self.quarantine_rows(rows)
        return len(rows)

    def _reset_elimination(self) -> None:
        """Clear the decoder's rows for a quarantine rebuild or a restart.

        Leaves the state of a fresh decoder, so a rebuild from the kept
        rows matches one that only ever saw them.
        """
        self._work[:] = 0
        self._raw_payloads[:] = 0
        self._raw_coefficients[:] = 0
        self._sources[:] = [None] * self._params.num_blocks
        self._pivot_to_row.clear()
        self._materialized_rank = 0
        self._rows[:] = 0

    def _restart(self, segment_id: int) -> None:
        """Become a fresh decoder of ``segment_id``, keeping the arrays."""
        self._reset_elimination()
        self._segment_id = segment_id
        self._received = self._discarded = 0
        self._quarantined = self._rank_regressions = 0
        self._corruption_counts.clear()

    def _materialize(self) -> None:
        """Refresh the payload side of ``_rows`` from the control plane."""
        n = self._params.num_blocks
        held = self.rank
        self._rows[:held, :n] = self._work[:held, :n]
        if held and self._materialized_rank != held:
            # The wide backend accumulates straight into the payload
            # sub-view (strided rows), so no (held, k) temporary exists.
            ENGINE.matmul(
                self._work[:held, n : n + held],
                self._raw_payloads[:held],
                out=self._rows[:held, n:],
            )
            self._materialized_rank = held

    def dense_state(self) -> tuple[np.ndarray, dict[int, int]]:
        """Return the materialized RREF aggregate ``[C | x]`` and pivot map.

        The payload side is recomputed only when the rank has grown since
        the last materialization.
        """
        self._materialize()
        return self._rows, dict(self._pivot_to_row)

    def accepted_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The accepted raw ``(coefficients, payloads)`` in arrival order.

        Read-only ``(rank, n)`` and ``(rank, k)`` views of the rows that
        raised the rank, exactly as they arrived: the rows a
        :class:`~repro.rlnc.recoder.Recoder` mixes.  They are views, so
        a later intake or quarantine changes what they show.
        """
        held = self.rank
        views = self._raw_coefficients[:held], self._raw_payloads[:held]
        for view in views:
            view.flags.writeable = False
        return views

    def missing_pivots(self) -> list[int]:
        """Source-block indices not yet resolvable (no pivot held)."""
        n = self._params.num_blocks
        return [col for col in range(n) if col not in self._pivot_to_row]

    def recover_segment(self, original_length: int | None = None) -> Segment:
        """Return the decoded segment.

        Args:
            original_length: pre-padding content length, when known from
                out-of-band metadata, so ``to_bytes`` strips the padding.

        Raises:
            DecodingError: if the decoder is not yet complete.
        """
        if not self.is_complete:
            raise DecodingError(
                f"cannot recover segment at rank {self.rank} < "
                f"{self._params.num_blocks}"
            )
        n = self._params.num_blocks
        self._materialize()
        # Source block j is the payload side of the row pivoting on column j.
        rows = [self._pivot_to_row[col] for col in range(n)]
        blocks = self._rows[rows, n:]
        return Segment(
            blocks=blocks,
            segment_id=self._segment_id,
            original_length=original_length,
        )


def _absorb(
    decoders: list[ProgressiveDecoder],
    coefficients: np.ndarray,
    payloads: np.ndarray,
    bounds: list[tuple[int, int]],
    sources: list,
    *,
    count_discards: bool = True,
) -> list[int]:
    """The elimination core of every intake: one engine call for all.

    Decoder ``i`` absorbs rows ``bounds[i]`` of the stacked
    ``coefficients``/``payloads`` through one
    :meth:`~repro.gf256.engine.Gf256Engine.absorb_many` call; then each
    keeps its accepted rows (``sources[i]`` is indexed like its rows).
    The decoders must be distinct.  Returns the rows each accepted.
    """
    accepted, counts = ENGINE.absorb_many(
        [
            (decoder._target, decoder.rank, start, stop)
            for decoder, (start, stop) in zip(decoders, bounds)
        ],
        coefficients,
    )
    for decoder, (start, stop), tags, count in zip(decoders, bounds, sources, counts):
        if count_discards:
            decoder._discarded += stop - start - count
        if count:
            decoder._keep_rows(
                coefficients[start:stop],
                payloads[start:stop],
                accepted[start : start + count],
                tags,
            )
    return counts


def consume_cohort(
    decoders: list[ProgressiveDecoder],
    coefficients: np.ndarray,
    payloads: np.ndarray,
    bounds: list[tuple[int, int]],
    sources: list[object],
) -> list[int]:
    """:meth:`ProgressiveDecoder.consume_batch` for a whole cohort at once.

    Decoder ``i`` absorbs rows ``[start, stop) = bounds[i]`` of the
    stacked (R, n) ``coefficients`` and (R, k) ``payloads`` (rows
    contiguous, row stride free: a round's frame matrix works as is),
    tagged ``sources[i]``, and every decoder's rows go through *one*
    :meth:`~repro.gf256.engine.Gf256Engine.absorb_many` call.  Each
    decoder ends byte-identical to its own ``consume_batch`` of its
    rows.  A decoder with no rows is left alone.

    Returns:
        The innovative count of each decoder, in order.

    Raises:
        DecodingError: on geometry mismatch, a decoder listed twice, or
            rows for a decoder that is already complete.
    """
    live = []
    for index, (decoder, (start, stop)) in enumerate(zip(decoders, bounds)):
        n, k = decoder._params.num_blocks, decoder._params.block_size
        if coefficients.shape[1] != n or payloads.shape[1] != k:
            raise DecodingError(
                f"batch geometry ({coefficients.shape[1]}, {payloads.shape[1]}) "
                f"does not match decoder ({n}, {k})"
            )
        if stop > start:
            if decoder.is_complete:
                raise DecodingError("decoder already holds a full-rank system")
            live.append(index)
    if len({id(decoders[index]) for index in live}) != len(live):
        raise DecodingError("a cohort lists one decoder twice")
    counts = [0] * len(decoders)
    if not live:
        return counts
    for index in live:
        start, stop = bounds[index]
        decoders[index]._received += stop - start
    with trace("decode_intake", decoders=len(live)):
        taken = _absorb(
            [decoders[index] for index in live],
            coefficients,
            payloads,
            [bounds[index] for index in live],
            [
                [sources[index]] * (bounds[index][1] - bounds[index][0])
                for index in live
            ],
        )
    for index, count in zip(live, taken):
        counts[index] = count
    return counts


class TwoStageDecoder:
    """Buffer-then-invert decoder (the multi-segment scheme of Sec. 5.2).

    Blocks are buffered until n have been collected; :meth:`decode` then
    selects a full-rank row subset from the *whole* buffer, inverts its
    coefficient matrix (stage 1) and multiplies ``C^-1 x`` (stage 2).
    Because selection scans every buffered block — not just the first n —
    the documented recovery path for a singular draw actually works: add
    one more block and retry, and a late innovative block rescues a
    dependent early prefix.  A buffer whose total rank is below n raises,
    after which the caller may keep adding (up to n + ``slack`` blocks)
    or drop everything with :meth:`reset`.
    """

    def __init__(
        self, params: CodingParams, segment_id: int = 0, *, slack: int = 8
    ) -> None:
        self._params = params
        self._segment_id = segment_id
        self._slack = slack
        n, k = params.num_blocks, params.block_size
        self._coefficients = np.zeros((n + slack, n), dtype=np.uint8)
        self._payloads = np.zeros((n + slack, k), dtype=np.uint8)
        self._count = 0

    @property
    def buffered(self) -> int:
        return self._count

    @property
    def has_enough(self) -> bool:
        return self._count >= self._params.num_blocks

    def add(self, block: CodedBlock) -> None:
        """Buffer one coded block (no elimination work happens here)."""
        n, k = self._params.num_blocks, self._params.block_size
        if block.num_blocks != n or block.block_size != k:
            raise DecodingError("block geometry does not match decoder")
        if self._count == self._coefficients.shape[0]:
            raise DecodingError(
                f"buffer full ({self._count} blocks); decode or reset first"
            )
        self._coefficients[self._count] = block.coefficients
        self._payloads[self._count] = block.payload
        self._count += 1

    def add_batch(
        self,
        coefficients: np.ndarray | BlockBatch,
        payloads: np.ndarray | None = None,
    ) -> None:
        """Buffer a batch given as matrices (the GPU-side data layout).

        Accepts either a :class:`BlockBatch` (e.g. straight from
        :func:`repro.rlnc.wire.unpack_blocks` — the views are copied into
        the decoder's own contiguous buffers here) or the raw
        coefficient/payload matrix pair.
        """
        if isinstance(coefficients, BlockBatch):
            coefficients, payloads = coefficients.coefficients, coefficients.payloads
        elif payloads is None:
            raise DecodingError("payload matrix required with raw coefficients")
        rows = coefficients.shape[0]
        if rows != payloads.shape[0]:
            raise DecodingError("coefficient/payload row counts differ")
        n, k = self._params.num_blocks, self._params.block_size
        if coefficients.shape[1] != n or payloads.shape[1] != k:
            raise DecodingError("batch geometry does not match decoder")
        if self._count + rows > self._coefficients.shape[0]:
            raise DecodingError("batch exceeds decoder buffer")
        self._coefficients[self._count : self._count + rows] = coefficients
        self._payloads[self._count : self._count + rows] = payloads
        self._count += rows

    def reset(self) -> None:
        """Discard all buffered blocks."""
        self._count = 0

    def decode(self, original_length: int | None = None) -> Segment:
        """Run both stages and return the decoded segment.

        Raises:
            DecodingError: if fewer than n blocks are buffered.
            SingularMatrixError: if the whole buffer spans rank < n
                (callers add one more block and retry — selection then
                re-scans every buffered row, so the retry can succeed).
        """
        n = self._params.num_blocks
        if self._count < n:
            raise DecodingError(
                f"need {n} blocks to decode, have {self._count}"
            )
        with trace("two_stage_decode", segment=self._segment_id):
            return self._decode_stages(n, original_length)

    def _decode_stages(self, n: int, original_length: int | None) -> Segment:
        # Row selection and stage 1 in one elimination.
        selected, c_inverse = select_and_invert(self._coefficients[: self._count])
        # Common case: the first n rows already form a full-rank set; use
        # the contiguous view and skip the fancy-index copy.
        payloads = (
            self._payloads[:n] if selected[-1] == n - 1 else self._payloads[selected]
        )
        blocks = matmul(c_inverse, payloads)  # stage 2
        return Segment(
            blocks=blocks,
            segment_id=self._segment_id,
            original_length=original_length,
        )
