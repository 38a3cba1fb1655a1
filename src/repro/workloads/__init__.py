"""Large-scale traffic generation, autoscaling and the load harness.

The package behind ``repro loadtest``: seeded arrival processes and
popularity models (:mod:`repro.workloads.traffic`), the watermark-driven
:class:`~repro.workloads.autoscaler.Autoscaler` over the cluster's
minimal-disruption ring, and the million-session harness
(:mod:`repro.workloads.harness`) that prices the modelled mass against
the paper's cost model while a sampled cohort of real sessions proves
byte-exactness through every scale event.
"""

from repro.workloads.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    AutoscalerStats,
    ScaleEvent,
)
from repro.workloads.harness import (
    AdmissionController,
    LoadStats,
    LoadTestReport,
    run_loadtest,
)
from repro.workloads.traffic import (
    DiurnalArrivals,
    FlashCrowd,
    PoissonArrivals,
    RoundTraffic,
    TrafficGenerator,
    ZipfPopularity,
)

__all__ = [
    "AdmissionController",
    "Autoscaler",
    "AutoscalerConfig",
    "AutoscalerStats",
    "DiurnalArrivals",
    "FlashCrowd",
    "LoadStats",
    "LoadTestReport",
    "PoissonArrivals",
    "RoundTraffic",
    "ScaleEvent",
    "TrafficGenerator",
    "ZipfPopularity",
    "run_loadtest",
]
