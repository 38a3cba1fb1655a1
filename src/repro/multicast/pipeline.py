"""Lock-step versus pipelined distribution over one endpoint API.

The tentpole experiment: the same workload — every peer fetches one
segment through the NACK-driven :class:`~repro.streaming.client
.ClientSession` transport — driven by the one round driver,
:func:`~repro.streaming.rounds.drive`, in its two modes against any
:class:`~repro.serving.ServingEndpoint`:

* :func:`run_lockstep` — the classic loop: requests, one serve round,
  intake, repeat.  Round latency is the *sum* of the encode, transmit
  and decode stages.
* :func:`run_pipelined` — double-buffered: round ``r``'s
  ``begin_round`` fires first, then round ``r-1``'s frames (copied
  out at its collect) are absorbed by the decoders *while* round ``r``
  encodes, then ``collect_round`` barriers.  Steady-state round
  latency approaches ``max(encode, transmit, decode)``.

Both modes place each peer's full ``n``-block demand up front, so the
endpoint's queue evolution — grant carving by quota and carryover, rng
draws, v2 sequence stamps — is *identical* in both modes and the wire
byte streams match exactly (:meth:`PipelineRunReport.byte_exact`).
Pipelined NACK top-ups (dependent draws, injected loss) are issued
only at fully-drained barriers, where the two modes' endpoint states
coincide;
under injected loss the pipelined mode still recovers rank, it just no
longer promises wire-level identity.

All stage costs are *modelled* seconds — encode from the endpoint's
cost-model GPU ledger (critical path on a cluster), transmit from the
:class:`~repro.streaming.nic.NicModel`, decode from the GPU decode
model — so the :class:`~repro.multicast.timeline.OverlapReport` is
deterministic and machine-independent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, WireError
from repro.faults import FaultPlan
from repro.gpu.spec import GTX280, DeviceSpec
from repro.kernels.cost_model import (
    EncodeScheme,
    decode_single_segment_bandwidth,
    encode_stats,
)
from repro.multicast.timeline import OverlapReport, TimelineModel
from repro.obs.trace import trace
from repro.rlnc.block import Segment
from repro.rlnc.wire import VERSION2, frame_sequence, frame_size, frame_worker_id
from repro.streaming.client import ClientSession
from repro.streaming.nic import GIGABIT_ETHERNET, NicModel
from repro.streaming.rounds import drive


@dataclass(frozen=True)
class RoundTrace:
    """One served round as seen on the wire.

    ``sequence_spans`` maps ``(peer_id, worker_id)`` to the round's
    ``(first, past_last)`` v2 sequence span for that stream — the
    in-flight round tagging: rounds occupy contiguous, strictly
    consecutive spans of each per-session sequence stream, so a receiver
    can attribute every frame to its round with no new wire fields.
    """

    round_index: int
    wire_bytes: int
    frames: int
    sequence_spans: dict[tuple[int, int | None], tuple[int, int]]


@dataclass(frozen=True)
class PipelineRunReport:
    """The outcome of one driven distribution run.

    ``wire_sha256`` digests every served frame in (round, peer) order —
    two runs with equal digests delivered byte-identical wire streams.
    ``payload_sha256`` digests the recovered segment bytes per peer.
    """

    mode: str
    rounds: int
    delivered_frames: int
    delivered_bytes: int
    wire_sha256: str
    payload_sha256: str
    overlap: OverlapReport | None
    traces: list[RoundTrace] = field(default_factory=list)

    def byte_exact(self, other: "PipelineRunReport") -> bool:
        """True when both runs delivered identical wire and payloads."""
        return (
            self.wire_sha256 == other.wire_sha256
            and self.payload_sha256 == other.payload_sha256
        )


def run_lockstep(endpoint, peers, segment: Segment, **kwargs) -> PipelineRunReport:
    """Drive the workload with the classic serial round loop."""
    return _drive(endpoint, peers, segment, pipelined=False, **kwargs)


def run_pipelined(endpoint, peers, segment: Segment, **kwargs) -> PipelineRunReport:
    """Drive the workload with double-buffered, overlapped rounds."""
    return _drive(endpoint, peers, segment, pipelined=True, **kwargs)


def compare_modes(
    make_endpoint, peers, segment: Segment, **kwargs
) -> tuple[PipelineRunReport, PipelineRunReport]:
    """Run lock-step and pipelined on two identically-built endpoints.

    ``make_endpoint`` is a zero-argument factory (same seed inside!)
    invoked once per mode, so both runs start from indistinguishable
    endpoint state; returns ``(lockstep, pipelined)`` reports.  A
    factory returning a context manager (a parallel cluster) is closed
    after its run.
    """
    reports = []
    for pipelined in (False, True):
        endpoint = make_endpoint()
        try:
            reports.append(
                _drive(endpoint, peers, segment, pipelined=pipelined, **kwargs)
            )
        finally:
            close = getattr(endpoint, "close", None)
            if close is not None:
                close()
    return reports[0], reports[1]


def _drive(
    endpoint,
    peers,
    segment: Segment,
    *,
    pipelined: bool,
    quota: int | None = None,
    nic: NicModel = GIGABIT_ETHERNET,
    scheme: EncodeScheme = EncodeScheme.TABLE_5,
    decode_spec: DeviceSpec | None = None,
    checksum: bool = True,
    version: int = VERSION2,
    fault_plans: dict[int, FaultPlan] | None = None,
    max_rounds: int = 10_000,
    timeline: bool = True,
) -> PipelineRunReport:
    """One run in either mode (see the module docstring).

    Args:
        endpoint: any :class:`~repro.serving.ServingEndpoint`; must
            already hold ``segment`` (``publish`` it first).
        peers: peer ids to run sessions for.
        segment: the segment every peer fetches.
        pipelined: the driver's mode — lock-step or double-buffered.
        quota: the endpoint's ``per_peer_round_quota``, used only to
            *predict* the round schedule for the timeline model (the
            endpoint itself already enforces it).
        nic: link model pricing the transmit stage.
        scheme: encode scheme assumed by the predictions (and by the
            fallback pricing for endpoints without a GPU ledger).
        decode_spec: device whose decode model prices the decode stage
            (defaults to the endpoint's ``spec``, else the GTX 280).
        checksum / version: wire settings for every session and round.
        fault_plans: optional per-peer deterministic fault injectors.
        timeline: set False to skip the overlap model entirely.
    """
    peers = list(peers)
    if not peers:
        raise ConfigurationError("need at least one peer to distribute to")
    params = endpoint.profile.params
    n, k = params.num_blocks, params.block_size
    spec = getattr(endpoint, "spec", None) or GTX280
    fault_plans = fault_plans or {}
    sessions = [
        ClientSession(
            endpoint,
            peer_id,
            fault_plan=fault_plans.get(peer_id),
            wire_version=version,
            checksum=checksum,
        )
        for peer_id in peers
    ]
    for session in sessions:
        session.begin_segment(segment.segment_id)
        # Full demand up front: the quota + carryover machinery then
        # carves identical rounds in both modes (no per-round asks).
        endpoint.request_blocks(session.peer_id, segment.segment_id, n)

    model = TimelineModel() if timeline else None
    decode_bw = decode_single_segment_bandwidth(
        decode_spec or spec, num_blocks=n, block_size=k
    )
    frame_bytes = frame_size(n, k, checksum=checksum, version=version)
    if model is not None:
        _predict_schedule(
            model,
            peers=len(peers),
            num_blocks=n,
            block_size=k,
            quota=quota,
            spec=spec,
            scheme=scheme,
            nic=nic,
            decode_bw=decode_bw,
            frame_bytes=frame_bytes,
        )

    state = _RunState(
        endpoint=endpoint,
        model=model,
        nic=nic,
        decode_bw=decode_bw,
        frame_bytes=frame_bytes,
        spec=spec,
        scheme=scheme,
        params=params,
        version=version,
    )
    mode = "pipelined" if pipelined else "lockstep"
    with trace("multicast_drive", mode=mode):
        gpu_before = state.gpu_seconds()
        for frames in drive(
            endpoint,
            sessions,
            checksum=checksum,
            version=version,
            pipelined=pipelined,
            max_rounds=max_rounds,
        ):
            # The ledger moves only inside the round's serve, so the
            # change since the last round is this round's encode.
            gpu_after = state.gpu_seconds()
            if frames:
                state.record_round(
                    frames, None if gpu_before is None else gpu_after - gpu_before
                )
            gpu_before = gpu_after

    payload_hash = hashlib.sha256()
    for session in sorted(sessions, key=lambda s: s.peer_id):
        payload_hash.update(session.finish_segment(segment.original_length).to_bytes())
    overlap = model.report() if model is not None and model.rounds_observed else None
    return PipelineRunReport(
        mode=mode,
        rounds=state.rounds,
        delivered_frames=state.frames_delivered,
        delivered_bytes=state.bytes_delivered,
        wire_sha256=state.wire_hash.hexdigest(),
        payload_sha256=payload_hash.hexdigest(),
        overlap=overlap,
        traces=state.traces,
    )


class _RunState:
    """One run's round ledger: digests, sequence tagging, timeline stages."""

    def __init__(
        self,
        *,
        endpoint,
        model,
        nic,
        decode_bw,
        frame_bytes,
        spec,
        scheme,
        params,
        version,
    ) -> None:
        self.endpoint = endpoint
        self.model = model
        self.nic = nic
        self.decode_bw = decode_bw
        self.frame_bytes = frame_bytes
        self.spec = spec
        self.scheme = scheme
        self.params = params
        self.version = version
        self.rounds = 0
        self.frames_delivered = 0
        self.bytes_delivered = 0
        self.wire_hash = hashlib.sha256()
        self.traces: list[RoundTrace] = []
        self._next_sequence: dict[tuple[int, int | None], int] = {}

    def gpu_seconds(self) -> float | None:
        """The endpoint's cumulative modelled GPU ledger, if it has one."""
        stats = getattr(self.endpoint, "stats", None)
        for attr in ("gpu_parallel_seconds", "gpu_seconds"):
            value = getattr(stats, attr, None)
            if value is not None:
                return float(value)
        return None

    def record_round(
        self, frames: dict, encode_seconds: float | None
    ) -> None:
        """Account one served round: digests, tagging, timeline stages."""
        index = self.rounds
        self.rounds += 1
        total_bytes = 0
        total_frames = 0
        spans: dict[tuple[int, int | None], tuple[int, int]] = {}
        for peer_id in sorted(frames):
            data = frames[peer_id]
            self.wire_hash.update(data)
            total_bytes += len(data)
            count, tail = divmod(len(data), self.frame_bytes)
            if tail:
                raise WireError(
                    f"round {index} peer {peer_id} delivery is not a whole "
                    f"number of frames ({len(data)} % {self.frame_bytes})"
                )
            total_frames += count
            if self.version == VERSION2:
                self._tag_round(index, peer_id, data, count, spans)
        self.frames_delivered += total_frames
        self.bytes_delivered += total_bytes
        self.traces.append(
            RoundTrace(
                round_index=index,
                wire_bytes=total_bytes,
                frames=total_frames,
                sequence_spans=spans,
            )
        )
        if self.model is None:
            return
        if encode_seconds is None:
            # No GPU ledger on this endpoint (a relay): charge the same
            # cost-model price an origin encode of this round would pay —
            # a recode is the same matmul shape.
            encode_seconds = encode_stats(
                self.spec,
                self.scheme,
                num_blocks=self.params.num_blocks,
                block_size=self.params.block_size,
                coded_rows=max(1, total_frames),
                include_preprocessing=False,
            ).time_seconds(self.spec)
        self.model.observe(index, "encode", encode_seconds)
        self.model.observe(index, "transmit", self.nic.transmit_seconds(total_bytes))
        self.model.observe(
            index,
            "decode",
            total_frames * self.params.block_size / self.decode_bw,
        )

    def _tag_round(
        self,
        index: int,
        peer_id: int,
        data: bytes,
        count: int,
        spans: dict[tuple[int, int | None], tuple[int, int]],
    ) -> None:
        """Verify the round occupies contiguous per-stream sequence spans."""
        for i in range(count):
            offset = i * self.frame_bytes
            sequence = frame_sequence(data, offset)
            worker = frame_worker_id(data, offset)
            stream = (peer_id, worker)
            expected = self._next_sequence.get(stream)
            if expected is not None and sequence != expected:
                raise WireError(
                    f"round {index} peer {peer_id} worker {worker}: frame "
                    f"sequence {sequence} breaks the contiguous round span "
                    f"(expected {expected})"
                )
            self._next_sequence[stream] = sequence + 1
            first, _ = spans.get(stream, (sequence, sequence))
            spans[stream] = (first, sequence + 1)


def _predict_schedule(
    model: TimelineModel,
    *,
    peers: int,
    num_blocks: int,
    block_size: int,
    quota: int | None,
    spec: DeviceSpec,
    scheme: EncodeScheme,
    nic: NicModel,
    decode_bw: float,
    frame_bytes: int,
) -> None:
    """Pre-run the quota carving and price each expected round.

    With full demand placed up front, the endpoint grants every peer
    ``min(quota, remaining)`` blocks per round until the demand drains —
    the same closed form the scheduler's carryover produces — so the
    prediction walks the identical schedule and prices each round's
    three stages with the same models the measurement side uses.
    """
    per_peer = quota if quota is not None else num_blocks
    remaining = num_blocks
    while remaining > 0:
        granted = min(per_peer, remaining)
        remaining -= granted
        round_blocks = peers * granted
        encode = encode_stats(
            spec,
            scheme,
            num_blocks=num_blocks,
            block_size=block_size,
            coded_rows=round_blocks,
            include_preprocessing=False,
        ).time_seconds(spec)
        model.predict_round(
            encode=encode,
            transmit=nic.transmit_seconds(round_blocks * frame_bytes),
            decode=round_blocks * block_size / decode_bw,
        )
