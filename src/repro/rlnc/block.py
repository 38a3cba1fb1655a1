"""Data containers for random linear network coding.

The paper's unit of coding is a *segment*: a piece of content divided into
``n`` source blocks of ``k`` bytes each (Sec. 3).  Coded blocks carry a
coefficient vector of ``n`` bytes in GF(2^8) alongside their ``k``-byte
payload, so any node can decode — or recode — without knowing how the
block was produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CodingParams:
    """The (n, k) geometry of one coding configuration.

    Attributes:
        num_blocks: n, the number of source blocks per segment (the paper
            sweeps 128, 256, 512 and 1024).
        block_size: k, bytes per block (the paper sweeps 128 B to 32 KB).
    """

    num_blocks: int
    block_size: int

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ConfigurationError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")

    @property
    def segment_bytes(self) -> int:
        """Total payload bytes in one segment (n * k)."""
        return self.num_blocks * self.block_size

    @property
    def coded_block_bytes(self) -> int:
        """Wire size of one coded block: payload plus coefficient vector."""
        return self.block_size + self.num_blocks

    @property
    def overhead_ratio(self) -> float:
        """Coefficient overhead per coded block (n / k, discussed in Sec. 4.3)."""
        return self.num_blocks / self.block_size


@dataclass(frozen=True)
class CodedBlock:
    """One coded block: payload plus its GF(2^8) coefficient vector.

    ``coefficients[i]`` is the multiplier applied to source block ``i``;
    together they describe the linear combination this payload encodes
    (paper Eq. 1).
    """

    coefficients: np.ndarray
    payload: np.ndarray
    segment_id: int = 0

    def __post_init__(self) -> None:
        if self.coefficients.dtype != np.uint8 or self.payload.dtype != np.uint8:
            raise ConfigurationError("coded blocks must hold uint8 arrays")
        if self.coefficients.ndim != 1 or self.payload.ndim != 1:
            raise ConfigurationError("coefficients and payload must be 1-D")

    @property
    def num_blocks(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def block_size(self) -> int:
        return int(self.payload.shape[0])

    def wire_size(self) -> int:
        """Bytes this block occupies on the wire (payload + coefficients)."""
        return self.block_size + self.num_blocks


@dataclass(frozen=True)
class BlockBatch:
    """A batch of coded blocks of one segment, in matrix layout.

    This is the GPU- and wire-side data layout (paper Fig. 2): the
    coefficient matrix ``C`` of shape (m, n) and the coded-payload
    matrix ``x = C b`` of shape (m, k), row ``i`` of each forming one
    coded block.  Keeping batches in matrix form end to end is what lets
    the serving pipeline stay on the engine's bulk-multiply fast path —
    :class:`CodedBlock` views are only materialized at the edges, and
    :meth:`row` / :meth:`rows` return zero-copy row views into the
    underlying matrices.
    """

    coefficients: np.ndarray
    payloads: np.ndarray
    segment_id: int = 0

    def __post_init__(self) -> None:
        if self.coefficients.dtype != np.uint8 or self.payloads.dtype != np.uint8:
            raise ConfigurationError("block batches must hold uint8 arrays")
        if self.coefficients.ndim != 2 or self.payloads.ndim != 2:
            raise ConfigurationError("coefficients and payloads must be 2-D")
        if self.coefficients.shape[0] != self.payloads.shape[0]:
            raise ConfigurationError(
                f"coefficient rows ({self.coefficients.shape[0]}) != "
                f"payload rows ({self.payloads.shape[0]})"
            )

    def __len__(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def num_blocks(self) -> int:
        """n — the coefficient-vector length shared by every row."""
        return int(self.coefficients.shape[1])

    @property
    def block_size(self) -> int:
        """k — the payload length shared by every row."""
        return int(self.payloads.shape[1])

    @property
    def coded_bytes(self) -> int:
        """Total payload bytes carried by the batch."""
        return int(self.payloads.size)

    def row(self, index: int) -> CodedBlock:
        """Return one row as a :class:`CodedBlock` (zero-copy views)."""
        return CodedBlock(
            coefficients=self.coefficients[index],
            payload=self.payloads[index],
            segment_id=self.segment_id,
        )

    def rows(self) -> list[CodedBlock]:
        """Return every row as a :class:`CodedBlock` (zero-copy views)."""
        return [self.row(i) for i in range(len(self))]

    def __iter__(self):
        return iter(self.rows())

    def slice_rows(self, rows: slice) -> "BlockBatch":
        """Return a sub-batch sharing storage with this batch (no copy)."""
        return BlockBatch(
            coefficients=self.coefficients[rows],
            payloads=self.payloads[rows],
            segment_id=self.segment_id,
        )

    @classmethod
    def from_blocks(cls, blocks: "list[CodedBlock]") -> "BlockBatch":
        """Stack homogeneous :class:`CodedBlock` objects into one batch.

        Raises:
            ConfigurationError: on an empty list or mixed geometry /
                segment ids.
        """
        if not blocks:
            raise ConfigurationError("cannot build a batch from zero blocks")
        first = blocks[0]
        for block in blocks[1:]:
            if (
                block.num_blocks != first.num_blocks
                or block.block_size != first.block_size
                or block.segment_id != first.segment_id
            ):
                raise ConfigurationError(
                    "all blocks in a batch must share geometry and segment id"
                )
        return cls(
            coefficients=np.stack([block.coefficients for block in blocks]),
            payloads=np.stack([block.payload for block in blocks]),
            segment_id=first.segment_id,
        )


@dataclass
class Segment:
    """A segment of source content: an (n, k) matrix of source blocks.

    Attributes:
        blocks: the (n, k) uint8 source-block matrix b of paper Eq. (1).
        segment_id: identifier used by multi-segment decoding and the
            streaming server's segment store.
        original_length: byte length of the pre-padding payload, so
            :meth:`to_bytes` can strip the zero padding added by
            :meth:`from_bytes`.
    """

    blocks: np.ndarray
    segment_id: int = 0
    original_length: int | None = None

    def __post_init__(self) -> None:
        if self.blocks.dtype != np.uint8 or self.blocks.ndim != 2:
            raise ConfigurationError("segment blocks must be a 2-D uint8 matrix")

    @classmethod
    def from_bytes(
        cls, data: bytes, params: CodingParams, segment_id: int = 0
    ) -> "Segment":
        """Split ``data`` into n blocks of k bytes, zero-padding the tail.

        A ``bytes`` object of exactly one segment is viewed, not copied:
        the blocks are then a read-only view of ``data``.  Any other
        input is copied into a fresh, writable, zero-padded matrix.

        Raises:
            ConfigurationError: if ``data`` is larger than one segment.
        """
        if len(data) > params.segment_bytes:
            raise ConfigurationError(
                f"{len(data)} bytes exceed segment capacity {params.segment_bytes}"
            )
        if isinstance(data, bytes) and len(data) == params.segment_bytes:
            flat = np.frombuffer(data, dtype=np.uint8)
        else:
            flat = np.zeros(params.segment_bytes, dtype=np.uint8)
            flat[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        blocks = flat.reshape(params.num_blocks, params.block_size)
        return cls(blocks=blocks, segment_id=segment_id, original_length=len(data))

    @classmethod
    def random(
        cls,
        params: CodingParams,
        rng: np.random.Generator,
        segment_id: int = 0,
    ) -> "Segment":
        """Return a segment of uniformly random content (benchmark workload)."""
        blocks = rng.integers(
            0, 256, size=(params.num_blocks, params.block_size), dtype=np.uint8
        )
        return cls(
            blocks=blocks,
            segment_id=segment_id,
            original_length=params.segment_bytes,
        )

    @property
    def params(self) -> CodingParams:
        return CodingParams(
            num_blocks=self.blocks.shape[0], block_size=self.blocks.shape[1]
        )

    def to_bytes(self) -> bytes:
        """Serialize back to the original byte string (padding stripped)."""
        flat = self.blocks.reshape(-1).tobytes()
        if self.original_length is None:
            return flat
        return flat[: self.original_length]
