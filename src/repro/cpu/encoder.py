"""Multicore CPU encoding: partitioned-block vs full-block (Sec. 5.3).

The authors' original scheme split each coded block's generation across
all cores ("partitioned-block"): lowest latency to the *first* coded
block, but every thread streams short slices, hurting the hardware
prefetcher at small block sizes.  The paper's revised streaming-server
scheme assigns whole coded blocks to threads ("full-block"): the same
arithmetic, but long sequential streams that prefetch well, giving a flat
bandwidth curve across block sizes (Fig. 10).

The cost model:

* work: ``chunks(k) * n`` SIMD chunk-multiplies per coded block at
  :data:`~repro.cpu.simd.SIMD_CYCLES_PER_CHUNK` cycles each, spread over
  all cores (both schemes have identical total arithmetic — the paper is
  explicit about this);
* partitioned-block additionally divides each block into per-core slices
  of ``k / cores`` bytes, whose short streams reach only a fraction of
  peak issue rate at small k (prefetcher efficiency below);
* the table-based CPU variant (the fairness experiment of Sec. 5.1.3)
  forfeits SIMD and runs ~43% slower.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.cpu.simd import (
    SIMD_CYCLES_PER_CHUNK,
    TABLE_BASED_CPU_SLOWDOWN,
    chunks_for_bytes,
)
from repro.cpu.spec import CpuSpec
from repro.errors import ConfigurationError
from repro.gf256 import matmul
from repro.gf256.matrix import random_matrix
from repro.rlnc.block import Segment


class CpuPartitioning(enum.Enum):
    """How coded-block generation is split across cores."""

    PARTITIONED_BLOCK = "partitioned-block"
    FULL_BLOCK = "full-block"


class CpuMultiplyScheme(enum.Enum):
    """Which GF multiplication backend the CPU threads use."""

    LOOP_SIMD = "loop-simd"
    TABLE = "table"


#: Prefetcher efficiency for a sequential stream of ``stream_bytes``:
#: short streams pay the paper's small-k penalty (Fig. 10), saturating
#: once streams reach a few KB.
PREFETCH_HALF_SATURATION_BYTES = 400.0
PREFETCH_FLOOR = 0.5


def prefetch_efficiency(stream_bytes: float) -> float:
    """Fraction of peak issue rate sustained on a stream of this length."""
    if stream_bytes <= 0:
        return PREFETCH_FLOOR
    span = stream_bytes / (stream_bytes + PREFETCH_HALF_SATURATION_BYTES)
    return PREFETCH_FLOOR + (1.0 - PREFETCH_FLOOR) * span


@dataclass
class CpuEncodeResult:
    """Functional output plus modelled timing of one CPU encode run."""

    coefficients: np.ndarray
    payloads: np.ndarray
    time_seconds: float

    @property
    def bandwidth(self) -> float:
        return self.payloads.size / self.time_seconds


class CpuEncoder:
    """Multicore SIMD encoder (the paper's Mac Pro baseline)."""

    def __init__(
        self,
        spec: CpuSpec,
        *,
        partitioning: CpuPartitioning = CpuPartitioning.FULL_BLOCK,
        scheme: CpuMultiplyScheme = CpuMultiplyScheme.LOOP_SIMD,
    ) -> None:
        self.spec = spec
        self.partitioning = partitioning
        self.scheme = scheme

    def estimate_time(
        self, *, num_blocks: int, block_size: int, coded_rows: int
    ) -> float:
        """Modelled seconds to generate ``coded_rows`` coded blocks."""
        if coded_rows < 1:
            raise ConfigurationError("coded_rows must be >= 1")
        chunk_cycles = SIMD_CYCLES_PER_CHUNK
        if self.scheme is CpuMultiplyScheme.TABLE:
            chunk_cycles *= TABLE_BASED_CPU_SLOWDOWN
        chunks = (
            chunks_for_bytes(block_size, self.spec.simd_width_bytes)
            * num_blocks
            * coded_rows
        )
        total_cycles = chunks * chunk_cycles

        if self.partitioning is CpuPartitioning.FULL_BLOCK:
            # A full-block thread walks every source block sequentially:
            # one long n*k stream per coded block, ideal for prefetching.
            stream = float(num_blocks * block_size)
        else:
            # A partitioned thread touches a k/cores slice of each source
            # block, restarting the stream at every block boundary.
            stream = block_size / self.spec.cores
        efficiency = prefetch_efficiency(stream)
        issue_rate = self.spec.cores * self.spec.clock_hz * efficiency
        return total_cycles / issue_rate

    def estimate_bandwidth(
        self, *, num_blocks: int, block_size: int, coded_rows: int = 1024
    ) -> float:
        """Coded bytes per second for a sweep point."""
        time = self.estimate_time(
            num_blocks=num_blocks, block_size=block_size, coded_rows=coded_rows
        )
        return coded_rows * block_size / time

    def encode(
        self,
        segment: Segment,
        coded_rows: int,
        rng: np.random.Generator,
        *,
        coefficients: np.ndarray | None = None,
    ) -> CpuEncodeResult:
        """Functionally encode and attach the modelled time."""
        n, k = segment.blocks.shape
        if coefficients is None:
            coefficients = random_matrix(coded_rows, n, rng)
        payloads = matmul(coefficients, segment.blocks)
        time = self.estimate_time(
            num_blocks=n, block_size=k, coded_rows=coefficients.shape[0]
        )
        return CpuEncodeResult(
            coefficients=coefficients, payloads=payloads, time_seconds=time
        )


def combined_gpu_cpu_bandwidth(gpu_bandwidth: float, cpu_bandwidth: float) -> float:
    """Encoding bandwidth with GPU and CPU working in parallel.

    Sec. 5.4.1: encoding is embarrassingly parallel, so splitting the
    coded-block budget proportionally achieves "encoding rates in
    proximity to the sum of the individual bandwidths" — minus a small
    coordination loss we charge at 2%.
    """
    return 0.98 * (gpu_bandwidth + cpu_bandwidth)
