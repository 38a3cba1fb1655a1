"""LT fountain code (Luby transform) with the robust soliton distribution.

The second alternative code family of the paper's Sec. 2 ("fountain
codes [8]").  Encoding XORs a randomly chosen degree-d subset of source
blocks; decoding is belief-propagation peeling.  Strengths: XOR-only
arithmetic, O(n log n) expected work.  Weaknesses the paper exploits in
its argument for RLNC: a multiplicative reception overhead, decode
failure probability, and — crucially — no recoding at intermediate nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DecodingError
from repro.rlnc.block import Segment


def robust_soliton(n: int, c: float = 0.1, delta: float = 0.5) -> np.ndarray:
    """The robust soliton degree distribution over degrees 1..n."""
    if n < 1:
        raise ConfigurationError("need at least one block")
    if n == 1:
        return np.array([1.0])
    rho = np.zeros(n + 1)
    rho[1] = 1.0 / n
    for d in range(2, n + 1):
        rho[d] = 1.0 / (d * (d - 1))
    # Robust addition: tau(d) = S/(n d) for d < n/S, S ln(S/delta)/n at
    # the spike d = n/S, with S = c ln(n/delta) sqrt(n).
    s = c * math.log(n / delta) * math.sqrt(n)
    tau = np.zeros(n + 1)
    pivot = max(1, min(n, int(round(n / s))))
    for d in range(1, pivot):
        tau[d] = s / (n * d)
    tau[pivot] = s * math.log(s / delta) / n if s > delta else 0.0
    mu = rho + tau
    return mu[1:] / mu[1:].sum()


@dataclass(frozen=True)
class LtSymbol:
    """One fountain-coded symbol: payload plus its neighbour set."""

    neighbours: frozenset
    payload: np.ndarray


class LtEncoder:
    """Generates LT symbols from a segment."""

    def __init__(
        self,
        segment: Segment,
        rng: np.random.Generator,
        *,
        c: float = 0.1,
        delta: float = 0.5,
    ) -> None:
        self._segment = segment
        self._rng = rng
        n = segment.blocks.shape[0]
        self._degrees = np.arange(1, n + 1)
        self._distribution = robust_soliton(n, c=c, delta=delta)

    def next_symbol(self) -> LtSymbol:
        """Draw a degree, pick that many distinct blocks, XOR them."""
        n = self._segment.blocks.shape[0]
        degree = int(self._rng.choice(self._degrees, p=self._distribution))
        neighbours = self._rng.choice(n, size=degree, replace=False)
        payload = np.zeros(self._segment.blocks.shape[1], dtype=np.uint8)
        for index in neighbours:
            payload ^= self._segment.blocks[index]
        return LtSymbol(
            neighbours=frozenset(int(i) for i in neighbours), payload=payload
        )


class LtDecoder:
    """Peeling (belief-propagation) decoder for LT symbols."""

    def __init__(self, num_blocks: int, block_size: int) -> None:
        self.num_blocks = num_blocks
        self.block_size = block_size
        self._decoded: dict[int, np.ndarray] = {}
        self._pending: list[tuple[set, np.ndarray]] = []
        self.symbols_received = 0

    @property
    def is_complete(self) -> bool:
        return len(self._decoded) == self.num_blocks

    def consume(self, symbol: LtSymbol) -> None:
        """Absorb one symbol and run peeling to a fixed point."""
        if len(symbol.payload) != self.block_size:
            raise DecodingError("symbol payload length mismatch")
        self.symbols_received += 1
        neighbours = set(symbol.neighbours)
        payload = symbol.payload.copy()
        # Strip already-decoded neighbours immediately.
        for index in list(neighbours):
            if index in self._decoded:
                payload ^= self._decoded[index]
                neighbours.discard(index)
        if not neighbours:
            return
        self._pending.append((neighbours, payload))
        self._peel()

    def _peel(self) -> None:
        progress = True
        while progress:
            progress = False
            still_pending = []
            for neighbours, payload in self._pending:
                remaining = {i for i in neighbours if i not in self._decoded}
                if len(remaining) < len(neighbours):
                    for index in neighbours - remaining:
                        payload = payload ^ self._decoded[index]
                    neighbours = remaining
                if len(neighbours) == 1:
                    index = next(iter(neighbours))
                    self._decoded[index] = payload
                    progress = True
                elif neighbours:
                    still_pending.append((neighbours, payload))
            self._pending = still_pending

    def recover_segment(self) -> Segment:
        if not self.is_complete:
            raise DecodingError(
                f"decoded {len(self._decoded)} of {self.num_blocks} blocks"
            )
        blocks = np.stack([self._decoded[i] for i in range(self.num_blocks)])
        return Segment(blocks=blocks)


def reception_overhead(
    num_blocks: int,
    block_size: int,
    rng: np.random.Generator,
    *,
    trials: int = 5,
    max_factor: float = 5.0,
) -> float:
    """Mean symbols needed to decode, as a multiple of n.

    RLNC decodes from n blocks (plus a vanishing dependence tail); LT
    codes need a multiplicative overhead — the quantitative edge the
    paper's Sec. 2 comparison alludes to.
    """
    from repro.rlnc.block import CodingParams

    factors = []
    for trial in range(trials):
        segment = Segment.random(CodingParams(num_blocks, block_size), rng)
        encoder = LtEncoder(segment, rng)
        decoder = LtDecoder(num_blocks, block_size)
        budget = int(max_factor * num_blocks)
        while not decoder.is_complete and decoder.symbols_received < budget:
            decoder.consume(encoder.next_symbol())
        factors.append(decoder.symbols_received / num_blocks)
    return float(np.mean(factors))
