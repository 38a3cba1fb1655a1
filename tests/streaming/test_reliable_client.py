"""Tests for the NACK-driven reliable client session."""

import numpy as np
import pytest

from repro.errors import (
    CapacityError,
    ConfigurationError,
    RetryExhaustedError,
    RetryLater,
)
from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.rlnc import BlockBatch, CodingParams, ProgressiveDecoder, Segment
from repro.rlnc.wire import VERSION
from repro.streaming import (
    ClientSession,
    MediaProfile,
    StreamingServer,
    drive_sessions,
)

PROFILE = MediaProfile(params=CodingParams(16, 64))


def make_server(seed=0, **kwargs):
    return StreamingServer(
        GTX280, PROFILE, rng=np.random.default_rng(seed), **kwargs
    )


def make_segment(segment_id=0, seed=1):
    return Segment.random(
        PROFILE.params, np.random.default_rng(seed), segment_id=segment_id
    )


def published_server(seed=0, segment_seed=1, **kwargs):
    server = make_server(seed, **kwargs)
    segment = make_segment(0, seed=segment_seed)
    server.publish_segment(segment)
    return server, segment


class TestCleanFetch:
    def test_lossless_fetch_is_one_round(self):
        server, segment = published_server()
        client = ClientSession(server, peer_id=1)
        recovered = client.fetch_segment(0)
        assert np.array_equal(recovered.blocks, segment.blocks)
        assert client.stats.rounds == 1
        assert client.stats.nacks == 0
        assert client.stats.wire.frames_dropped == 0

    def test_v1_wire_also_works(self):
        server, segment = published_server()
        client = ClientSession(server, peer_id=1, wire_version=VERSION)
        recovered = client.fetch_segment(0)
        assert np.array_equal(recovered.blocks, segment.blocks)

    def test_sequential_segments_reuse_session(self):
        server = make_server()
        first = make_segment(0, seed=1)
        second = make_segment(1, seed=2)
        server.publish_segment(first)
        server.publish_segment(second)
        client = ClientSession(server, peer_id=1)
        assert np.array_equal(client.fetch_segment(0).blocks, first.blocks)
        assert np.array_equal(client.fetch_segment(1).blocks, second.blocks)
        assert client.stats.segments_completed == 2

    def test_misuse_raises(self):
        server, _ = published_server()
        client = ClientSession(server, peer_id=1)
        with pytest.raises(ConfigurationError, match="begin_segment"):
            client.intake(None)
        client.begin_segment(0)
        with pytest.raises(ConfigurationError, match="in progress"):
            client.begin_segment(0)


class TestDecoderReuse:
    """A session resets one decoder per segment instead of allocating."""

    @staticmethod
    def logged(decoder, log):
        """Record every row and ledger call ``decoder`` gets, as copies."""
        consume_batch, record_corrupt = decoder.consume_batch, decoder.record_corrupt

        def consume(batch, *args, **kwargs):
            log.append(
                ("consume", batch.coefficients.copy(), batch.payloads.copy(), kwargs)
            )
            return consume_batch(batch, *args, **kwargs)

        def corrupt(source=None, count=1):
            log.append(("corrupt", source, count))
            return record_corrupt(source, count)

        decoder.consume_batch, decoder.record_corrupt = consume, corrupt

    @staticmethod
    def replay(log, decoder):
        for entry in log:
            if entry[0] == "consume":
                decoder.consume_batch(BlockBatch(entry[1], entry[2]), **entry[3])
            elif entry[0] == "corrupt":
                decoder.record_corrupt(entry[1], entry[2])
            else:
                decoder.quarantine_rows(entry[1])

    def test_each_segment_matches_a_fresh_decoder(self):
        server = make_server()
        segments = [make_segment(i, seed=10 + i) for i in range(4)]
        for segment in segments:
            server.publish_segment(segment)
        plan = FaultPlan(seed=5, drop_rate=0.2, corrupt_rate=0.1)
        client = ClientSession(server, peer_id=1, fault_plan=plan)
        reused = None
        for segment in segments:
            client.begin_segment(segment.segment_id)
            decoder = client.decoder
            reused = reused or decoder
            assert decoder is reused
            log = []
            self.logged(decoder, log)
            rounds = 0
            while not client.complete:
                client.pre_round()
                frames = server.serve_round(version=client.wire_version)
                client.intake(frames.get(client.peer_id))
                rounds += 1
                if segment.segment_id == 1 and rounds == 2 and decoder.rank > 1:
                    # Quarantine once, so the next segment must clear
                    # the regression and quarantine counters.  The
                    # rebuild's own ledger call replays with it.
                    mark = len(log)
                    decoder.quarantine_rows([0])
                    log[mark:] = [("quarantine", [0])]
            del decoder.consume_batch, decoder.record_corrupt
            fresh = ProgressiveDecoder(PROFILE.params, segment.segment_id)
            self.replay(log, fresh)
            rows, pivots = decoder.dense_state()
            fresh_rows, fresh_pivots = fresh.dense_state()
            assert np.array_equal(rows, fresh_rows)
            assert pivots == fresh_pivots
            for name in (
                "received",
                "discarded",
                "quarantined",
                "rank_regressions",
                "corruption_counts",
            ):
                assert getattr(decoder, name) == getattr(fresh, name), name
            recovered = client.finish_segment()
            assert client.decoder is None
            assert recovered.segment_id == segment.segment_id
            assert np.array_equal(recovered.blocks, segment.blocks)
        assert reused.quarantined == 0


class TestNackRetransmission:
    def test_loss_is_repaired_by_nack(self):
        server, segment = published_server()
        plan = FaultPlan(seed=21, drop_rate=0.3)
        client = ClientSession(server, peer_id=1, fault_plan=plan)
        recovered = client.fetch_segment(0)
        assert np.array_equal(recovered.blocks, segment.blocks)
        assert plan.counters.dropped > 0
        assert client.stats.nacks >= 1
        # NACKs only re-request missing rank: total asked stays modest
        session = server.connect(1)
        assert session.blocks_requested < 3 * PROFILE.params.num_blocks

    def test_corruption_is_counted_never_accepted(self):
        server, segment = published_server()
        plan = FaultPlan(seed=22, corrupt_rate=0.3)
        client = ClientSession(server, peer_id=1, fault_plan=plan)
        recovered = client.fetch_segment(0)
        assert np.array_equal(recovered.blocks, segment.blocks)
        stats = client.stats
        assert plan.counters.corrupted > 0
        assert (
            stats.wire.checksum_failures + stats.wire.malformed
            == plan.counters.corrupted
        )
        assert client.stats.segments_completed == 1
        # damage attribution reached the decoder's ledger before reset
        assert stats.wire.frames_dropped == plan.counters.corrupted

    def test_total_blackout_exhausts_retries(self):
        server, _ = published_server()
        plan = FaultPlan(seed=23, drop_rate=1.0)
        client = ClientSession(
            server, peer_id=1, fault_plan=plan, max_retries=3
        )
        with pytest.raises(RetryExhaustedError, match="no progress"):
            client.fetch_segment(0)
        assert client.stats.retries > 3

    def test_backoff_grows_exponentially(self):
        server, _ = published_server()
        plan = FaultPlan(seed=24, drop_rate=1.0)
        client = ClientSession(
            server,
            peer_id=1,
            fault_plan=plan,
            max_retries=4,
            base_backoff_rounds=1,
            backoff_factor=2,
        )
        with pytest.raises(RetryExhaustedError):
            client.fetch_segment(0)
        # misses at backoff 1, 2, 4, 8 -> 1+2+4+8 idle rounds waited
        assert client.stats.backoff_rounds_waited == 15

    def test_backoff_is_capped(self):
        server, _ = published_server()
        plan = FaultPlan(seed=25, drop_rate=1.0)
        client = ClientSession(
            server,
            peer_id=1,
            fault_plan=plan,
            max_retries=5,
            base_backoff_rounds=1,
            backoff_factor=4,
            max_backoff_rounds=4,
        )
        with pytest.raises(RetryExhaustedError):
            client.fetch_segment(0)
        # 1, 4, then capped at 4: 1+4+4+4+4
        assert client.stats.backoff_rounds_waited == 17

    def test_round_bound_is_a_hard_stop(self):
        server, _ = published_server()
        plan = FaultPlan(seed=26, drop_rate=1.0)
        client = ClientSession(
            server,
            peer_id=1,
            fault_plan=plan,
            max_retries=10_000,
            max_rounds_per_segment=20,
        )
        with pytest.raises(RetryExhaustedError, match="20 rounds"):
            client.fetch_segment(0)


class TestRetryLaterHandling:
    def test_shed_request_backs_off_then_succeeds(self):
        server, segment = published_server(max_pending_blocks=40)
        competitor = server.connect(99)
        server.connect(98)
        # saturate the queue with asks the client cannot shed (equal
        # sizes are not shed: the victim must be strictly larger)
        assert server.request_blocks(99, 0, 16) is None
        assert server.request_blocks(98, 0, 16) is None
        client = ClientSession(server, peer_id=1, max_retries=6)
        client.begin_segment(0)
        response = client.pre_round()
        assert isinstance(response, RetryLater)
        assert client.stats.retry_later_responses == 1
        # the bulk ask drains over subsequent rounds, then the client's
        # NACK fits
        recovered = None
        while not client.complete:
            client.pre_round()
            frames = server.serve_round(format="frames", version=client.wire_version)
            client.intake(frames.get(1))
        recovered = client.finish_segment()
        assert np.array_equal(recovered.blocks, segment.blocks)
        assert competitor.blocks_received == 16

    def test_validation_errors_propagate(self):
        server, _ = published_server()
        client = ClientSession(server, peer_id=1)
        client.begin_segment(5)  # segment 5 is not published
        with pytest.raises(CapacityError, match="not on the device"):
            client.pre_round()


class TestMultiSessionDrive:
    def test_concurrent_lossy_sessions_all_complete(self):
        server, segment = published_server(per_peer_round_quota=8)
        sessions = [
            ClientSession(
                server,
                peer_id=peer,
                fault_plan=FaultPlan(seed=30 + peer, drop_rate=0.2),
            )
            for peer in range(3)
        ]
        for session in sessions:
            session.begin_segment(0)
        rounds = drive_sessions(server, sessions)
        assert rounds >= 2  # quota forces multiple rounds
        for session in sessions:
            recovered = session.finish_segment()
            assert np.array_equal(recovered.blocks, segment.blocks)

    def test_mixed_wire_settings_rejected(self):
        server, _ = published_server()
        a = ClientSession(server, peer_id=1)
        b = ClientSession(server, peer_id=2, wire_version=VERSION)
        a.begin_segment(0)
        b.begin_segment(0)
        with pytest.raises(ConfigurationError, match="wire_version"):
            drive_sessions(server, [a, b])

    def test_empty_session_list(self):
        server, _ = published_server()
        assert drive_sessions(server, []) == 0
