"""Kernel cycle accounting.

:class:`KernelStats` is the common currency between the two simulation
tiers: the SIMT interpreter fills one in from observed per-access events,
and the analytic cost models in :mod:`repro.kernels.cost_model` fill one
in from closed-form counts.  Either way, :meth:`KernelStats.time_seconds`
converts the counts into a kernel execution time using the device's issue
rate and memory bandwidth, taking the max of the compute-limited and
memory-limited times (the standard roofline argument the paper makes when
it shows encoding is compute-bound at 2.9 GB/s of traffic against a
155 GB/s budget, Sec. 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.spec import DeviceSpec


@dataclass
class KernelStats:
    """Resource usage of one kernel execution.

    Attributes:
        alu_cycles: scalar arithmetic/control cycles summed over all
            threads (one instruction ~= one SP cycle on Tesla).
        smem_cycles: shared-memory access cycles summed over all threads,
            including serialization from bank conflicts.
        gmem_bytes: total bytes moved to/from device memory.
        gmem_transactions: memory transactions after coalescing.
        tex_accesses: texture fetches issued.
        tex_misses: texture fetches that missed the per-TPC cache.
        barriers: __syncthreads() executions (per block).
        serial_cycles: cycles on the kernel's critical path that cannot be
            hidden by other warps (e.g. one row operation of Gauss–Jordan
            must finish before the next starts).  Charged at full clock
            rather than being divided across cores.
        efficiency: latency-hiding efficiency applied to the parallel
            portion (from the occupancy model).
        launches: number of kernel launches this work required.
    """

    alu_cycles: float = 0.0
    smem_cycles: float = 0.0
    gmem_bytes: float = 0.0
    gmem_transactions: float = 0.0
    tex_accesses: float = 0.0
    tex_misses: float = 0.0
    barriers: float = 0.0
    serial_cycles: float = 0.0
    efficiency: float = 1.0
    launches: int = 1

    #: Effective cycles per texture fetch hitting the TPC cache
    #: (issue + cache pipeline occupancy).
    TEX_HIT_CYCLES: float = 4.7
    #: Additional cycles per barrier, amortized per participating thread.
    BARRIER_CYCLES: float = 8.0

    @property
    def parallel_cycles(self) -> float:
        """Total SP cycles of divisible work (spread across all cores)."""
        return (
            self.alu_cycles
            + self.smem_cycles
            + self.tex_accesses * self.TEX_HIT_CYCLES
            + self.barriers * self.BARRIER_CYCLES
        )

    def compute_time(self, spec: DeviceSpec) -> float:
        """Seconds spent on computation (parallel + serial portions)."""
        issue_rate = spec.peak_gips  # cycles/s across all SPs
        efficiency = max(self.efficiency, 1e-9)
        parallel = self.parallel_cycles / (issue_rate * efficiency)
        serial = self.serial_cycles / spec.shader_clock_hz
        return parallel + serial

    def memory_time(self, spec: DeviceSpec) -> float:
        """Seconds spent moving data at peak device bandwidth."""
        return self.gmem_bytes / spec.mem_bandwidth_bytes

    def time_seconds(self, spec: DeviceSpec) -> float:
        """Kernel wall time: roofline max plus launch overhead."""
        return (
            max(self.compute_time(spec), self.memory_time(spec))
            + self.launches * spec.kernel_launch_overhead_s
        )

    def achieved_gips(self, spec: DeviceSpec) -> float:
        """Instruction rate actually sustained (instructions/s)."""
        time = self.time_seconds(spec)
        if time <= 0:
            return 0.0
        return self.parallel_cycles / time

    def utilization(self, spec: DeviceSpec) -> float:
        """Fraction of the device's peak issue rate sustained."""
        return self.achieved_gips(spec) / spec.peak_gips

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Combine stats of two kernels run back to back."""
        return KernelStats(
            alu_cycles=self.alu_cycles + other.alu_cycles,
            smem_cycles=self.smem_cycles + other.smem_cycles,
            gmem_bytes=self.gmem_bytes + other.gmem_bytes,
            gmem_transactions=self.gmem_transactions + other.gmem_transactions,
            tex_accesses=self.tex_accesses + other.tex_accesses,
            tex_misses=self.tex_misses + other.tex_misses,
            barriers=self.barriers + other.barriers,
            serial_cycles=self.serial_cycles + other.serial_cycles,
            # Weight efficiency by parallel work so the merged time is
            # close to the sum of the parts.
            efficiency=_merge_efficiency(self, other),
            launches=self.launches + other.launches,
        )


def _merge_efficiency(a: KernelStats, b: KernelStats) -> float:
    work_a, work_b = a.parallel_cycles, b.parallel_cycles
    total = work_a + work_b
    if total <= 0:
        return 1.0
    # Harmonic (time-weighted) combination: times add, work adds.
    time_a = work_a / max(a.efficiency, 1e-9)
    time_b = work_b / max(b.efficiency, 1e-9)
    return total / (time_a + time_b)


@dataclass
class TransferStats:
    """Host <-> device transfer accounting (segment uploads, Sec. 5.1.2)."""

    bytes_to_device: float = 0.0
    bytes_to_host: float = 0.0
    transfers: int = 0

    def time_seconds(self, spec: DeviceSpec) -> float:
        total = self.bytes_to_device + self.bytes_to_host
        return total / spec.pcie_bandwidth_bytes + self.transfers * 5e-6
