"""Random linear network coding — the paper's core contribution.

Segments, coded blocks, the random encoder, progressive Gauss–Jordan and
two-stage decoders, recoding, and multi-segment generation management.
"""

from repro.rlnc.block import BlockBatch, CodedBlock, CodingParams, Segment
from repro.rlnc.channel import (
    ChannelPipeline,
    CorruptingChannel,
    DuplicatingChannel,
    LossyChannel,
    ReorderingChannel,
    blocks_needed_over_lossy_channel,
)
from repro.rlnc.decoder import ProgressiveDecoder, TwoStageDecoder
from repro.rlnc.encoder import Encoder
from repro.rlnc.generation import (
    MultiSegmentDecoder,
    interleave_round_robin,
    join_segments,
    split_into_segments,
)
from repro.rlnc.recoder import Recoder
from repro.rlnc.stats import (
    RankTracker,
    expected_extra_blocks,
    full_rank_probability,
    innovative_probability,
    measure_reception_overhead,
)
from repro.rlnc.wire import (
    MAX_WORKER_ID,
    VERSION,
    VERSION2,
    WireStats,
    decode_frame,
    decode_stream,
    digest64,
    encode_frame,
    encode_stream,
    frame_rows,
    frame_sequence,
    frame_size,
    frame_worker_id,
    pack_blocks,
    pack_frame_into,
    stream_size,
    unpack_blocks,
    unpack_frame,
    unpack_round,
)

__all__ = [
    "BlockBatch",
    "ChannelPipeline",
    "CodedBlock",
    "CodingParams",
    "CorruptingChannel",
    "DuplicatingChannel",
    "Encoder",
    "LossyChannel",
    "MAX_WORKER_ID",
    "MultiSegmentDecoder",
    "ProgressiveDecoder",
    "RankTracker",
    "Recoder",
    "ReorderingChannel",
    "Segment",
    "TwoStageDecoder",
    "VERSION",
    "VERSION2",
    "WireStats",
    "blocks_needed_over_lossy_channel",
    "decode_frame",
    "decode_stream",
    "digest64",
    "encode_frame",
    "encode_stream",
    "expected_extra_blocks",
    "frame_rows",
    "frame_sequence",
    "frame_size",
    "frame_worker_id",
    "full_rank_probability",
    "innovative_probability",
    "interleave_round_robin",
    "join_segments",
    "measure_reception_overhead",
    "pack_blocks",
    "pack_frame_into",
    "split_into_segments",
    "stream_size",
    "unpack_blocks",
    "unpack_frame",
    "unpack_round",
]
