"""Seeded fault-injection soak: the acceptance test for PR 3.

Drives the full fault-tolerant transport — v2 integrity frames, lenient
unpack, NACK retransmission with exponential backoff — under sustained
loss, corruption and reordering, and demands three things of every
iteration:

* **byte-exact recovery**: each segment decodes to exactly the
  published bytes;
* **exact fault accounting**: every corrupt frame the plan injected is
  counted by the receiver's integrity stats;
* **zero silent acceptance**: no corrupt frame ever reaches the
  decoder's elimination (guaranteed jointly by the two above, and by
  the decoder's clean corruption ledger).

Hangs fail fast: the client carries hard retry/round budgets, and the
``timeout`` marker arms a wall-clock kill when pytest-timeout is
installed (the CI fault job installs it; the marker is inert without
the plugin).
"""

import os

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.rlnc import CodingParams, Segment
from repro.streaming import ClientSession, MediaProfile, StreamingServer

PROFILE = MediaProfile(params=CodingParams(16, 64))

#: The nightly soak workflow extends this to 1000 via the environment;
#: the default keeps the tier-1/CI wall clock bounded.
SOAK_ITERATIONS = int(os.environ.get("REPRO_SOAK_ITERATIONS", "200"))
LOSS_RATE = 0.20
CORRUPT_RATE = 0.01
REORDER_WINDOW = 3

@pytest.fixture(scope="module")
def ledgers():
    """``(prefix, stats)`` of every soak server and session.

    When ``REPRO_OBS_SNAPSHOT`` names a path, the observability
    registry is dumped after the soak, folded with each of these
    ledgers' series (the server, client and wire counters), so the soak
    workflows can archive the cumulative server/client/wire/decoder
    counters as an artifact.
    """
    kept: list = []
    yield kept
    path = os.environ.get("REPRO_OBS_SNAPSHOT")
    if path:
        from repro.obs import save_snapshot

        save_snapshot(path, *(stats.series(prefix) for prefix, stats in kept))


def soak_session(ledgers, server, peer_id, **kwargs):
    """A :class:`ClientSession` whose counters the snapshot archives."""
    session = ClientSession(server, peer_id, **kwargs)
    ledgers.append(("client", session.stats))
    return session


def published_server(ledgers, payloads, seed=0):
    server = StreamingServer(
        GTX280, PROFILE, rng=np.random.default_rng(seed)
    )
    ledgers.append(("server", server.stats))
    for segment_id, payload in payloads.items():
        server.publish_segment(
            Segment.from_bytes(payload, PROFILE.params, segment_id=segment_id)
        )
    return server


def make_payloads(count, seed=99):
    rng = np.random.default_rng(seed)
    return {
        segment_id: rng.integers(
            0, 256, size=PROFILE.params.segment_bytes, dtype=np.uint8
        ).tobytes()
        for segment_id in range(count)
    }


@pytest.mark.timeout(240)
class TestFaultSoak:
    def test_seeded_soak_is_byte_exact_with_full_accounting(self, ledgers):
        """200 independent seeded fetches under 20% loss + 1% corruption
        + bounded reordering: all byte-exact, all damage counted."""
        payloads = make_payloads(1)
        server = published_server(ledgers, payloads)
        total_injected_corrupt = 0
        total_detected = 0
        total_dropped = 0
        total_nacks = 0
        for iteration in range(SOAK_ITERATIONS):
            plan = FaultPlan(
                seed=iteration,
                drop_rate=LOSS_RATE,
                corrupt_rate=CORRUPT_RATE,
                reorder_window=REORDER_WINDOW,
            )
            client = soak_session(
                ledgers,
                server,
                peer_id=iteration,
                fault_plan=plan,
                max_retries=32,
            )
            recovered = client.fetch_segment(
                0, original_length=len(payloads[0])
            )
            assert recovered.to_bytes() == payloads[0], (
                f"iteration {iteration} not byte-exact"
            )
            stats = client.stats
            # every injected corrupt frame is detected, none accepted
            detected = stats.wire.checksum_failures + stats.wire.malformed
            assert detected == plan.counters.corrupted, (
                f"iteration {iteration}: injected "
                f"{plan.counters.corrupted} corrupt frames, detected "
                f"{detected}"
            )
            total_injected_corrupt += plan.counters.corrupted
            total_detected += detected
            total_dropped += plan.counters.dropped
            total_nacks += stats.nacks
        # the soak must actually have exercised the machinery
        assert total_dropped > SOAK_ITERATIONS  # ~20% of 16+ frames each
        assert total_injected_corrupt > 0
        assert total_detected == total_injected_corrupt
        assert total_nacks >= SOAK_ITERATIONS  # loss forces retransmission

    def test_soak_is_reproducible(self, ledgers):
        """The same seeds give the same rounds, NACKs and wire stats."""
        payloads = make_payloads(1)

        def run(seed):
            server = published_server(ledgers, payloads)
            plan = FaultPlan(
                seed=seed,
                drop_rate=LOSS_RATE,
                corrupt_rate=CORRUPT_RATE,
                reorder_window=REORDER_WINDOW,
            )
            client = soak_session(ledgers, server, peer_id=1, fault_plan=plan)
            client.fetch_segment(0)
            stats = client.stats
            return (
                stats.rounds,
                stats.nacks,
                stats.frames_received,
                stats.wire.checksum_failures,
                stats.wire.malformed,
                tuple(event.index for event in plan.log),
            )

        assert run(7) == run(7)
        assert run(7) != run(8)


@pytest.mark.timeout(120)
class TestEndToEndAcceptance:
    def test_multi_segment_stream_survives_hostile_wire(self, ledgers):
        """The ISSUE acceptance scenario: a client streams several
        segments through 20% loss, 1% corruption and reordering; every
        segment arrives byte-exact purely through NACK retransmission,
        and the fault ledger balances exactly."""
        payloads = make_payloads(3)
        server = published_server(ledgers, payloads)
        plan = FaultPlan(
            seed=1234,
            drop_rate=LOSS_RATE,
            corrupt_rate=CORRUPT_RATE,
            reorder_window=REORDER_WINDOW,
        )
        client = soak_session(
            ledgers, server, peer_id=5, fault_plan=plan, max_retries=32
        )
        for segment_id, payload in payloads.items():
            recovered = client.fetch_segment(
                segment_id, original_length=len(payload)
            )
            assert recovered.to_bytes() == payload

        stats = client.stats
        assert stats.segments_completed == len(payloads)
        # exact fault accounting across the whole stream
        detected = stats.wire.checksum_failures + stats.wire.malformed
        assert detected == plan.counters.corrupted
        assert plan.counters.dropped > 0
        assert stats.nacks > 0
        # conservation: every emitted frame was delivered, dropped by
        # the plan, or dropped by integrity checks
        session = server.connect(5)
        assert (
            stats.frames_received + plan.counters.dropped
            == session.blocks_received
        )
        assert stats.wire.frames_ok == stats.frames_received - detected

    def test_zero_fault_control_run(self, ledgers):
        """Control: with no fault plan the same pipeline reports zero
        damage — the accounting has no false positives."""
        payloads = make_payloads(1)
        server = published_server(ledgers, payloads)
        client = soak_session(ledgers, server, peer_id=1)
        recovered = client.fetch_segment(0, original_length=len(payloads[0]))
        assert recovered.to_bytes() == payloads[0]
        assert client.stats.wire.frames_dropped == 0
        assert client.stats.retries == 0
        assert client.stats.nacks == 0
