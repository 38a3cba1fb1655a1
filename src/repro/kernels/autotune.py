"""Scheme selection: pick the fastest kernel for a device and workload.

The paper's Sec. 5.1.3 conclusion is conditional — table-based wins on
the GPU, loop-based wins on the CPU, and "the next generations" may flip
it again.  :func:`best_encode_scheme` turns that into an API: evaluate
the calibrated model over all schemes for the *actual* device and
workload (including how many coded rows amortize the preprocessing) and
return the winner, so callers never hard-code a scheme choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gpu.spec import DeviceSpec
from repro.kernels.cost_model import EncodeScheme, encode_stats


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one autotune evaluation."""

    scheme: EncodeScheme
    bandwidth: float
    ranking: tuple[tuple[EncodeScheme, float], ...]

    def margin_over(self, scheme: EncodeScheme) -> float:
        """Winner's bandwidth advantage over another scheme (ratio)."""
        rates = dict(self.ranking)
        if scheme not in rates:
            raise ConfigurationError(f"{scheme} not in ranking")
        return self.bandwidth / rates[scheme]


def best_encode_scheme(
    spec: DeviceSpec,
    *,
    num_blocks: int,
    block_size: int,
    coded_rows: int,
    density: float = 1.0,
) -> TuneResult:
    """Evaluate every scheme on the workload and return the fastest.

    ``coded_rows`` matters: log-domain schemes pay a per-segment
    preprocessing cost, so tiny batches (a relay recoding a handful of
    blocks) can favour the loop-based kernel even on a GPU where TB-5
    wins the streaming-server regime.
    """
    if coded_rows < 1:
        raise ConfigurationError("coded_rows must be >= 1")
    ranking = []
    for scheme in EncodeScheme:
        stats = encode_stats(
            spec,
            scheme,
            num_blocks=num_blocks,
            block_size=block_size,
            coded_rows=coded_rows,
            density=density,
        )
        bandwidth = coded_rows * block_size / stats.time_seconds(spec)
        ranking.append((scheme, bandwidth))
    ranking.sort(key=lambda pair: pair[1], reverse=True)
    winner, bandwidth = ranking[0]
    return TuneResult(
        scheme=winner, bandwidth=bandwidth, ranking=tuple(ranking)
    )

