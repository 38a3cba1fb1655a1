"""Exception hierarchy (and control signals) for the repro library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing coding-theory errors from simulator-configuration
errors when they need to.  The hierarchy::

    ReproError
    ├── FieldError              invalid GF(2^8) operation
    ├── SingularMatrixError     rank-deficient matrix
    ├── DecodingError           decoder misuse / cannot progress
    │   └── WireError           malformed wire frame (bad magic, torn
    │       │                   frame, lying length fields, ...)
    │       └── IntegrityError  frame parsed but its checksum failed
    ├── ConfigurationError      inconsistent simulator/codec parameters
    ├── LaunchError             CUDA execution-limit violation
    ├── CapacityError           streaming resource exhausted
    ├── RetryExhaustedError     a reliable-transport retry loop gave up
    └── WorkerCrashError        a cluster worker process died mid-command
        └── WorkerTimeoutError  a worker missed a supervision deadline

:class:`RetryLater` is deliberately *not* an exception: it is the
streaming server's graceful load-shedding response ("come back in a few
rounds"), a normal value on the request path rather than a failure.
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FieldError(ReproError):
    """Invalid operation in GF(2^8), e.g. division by zero."""


class SingularMatrixError(ReproError):
    """A matrix expected to be invertible is rank deficient."""


class DecodingError(ReproError):
    """The decoder cannot make progress or was used out of order."""


class ConfigurationError(ReproError):
    """A simulator or codec was configured with inconsistent parameters."""


class LaunchError(ReproError):
    """A GPU kernel launch violated the device's execution limits."""


class WireError(DecodingError):
    """A wire frame is malformed: bad magic or version, torn or truncated
    framing, or length fields that disagree with the buffer.

    Subclasses :class:`DecodingError` so pre-existing callers that catch
    the broader class keep working; new transport code catches
    :class:`WireError` to distinguish framing damage from decoder misuse.
    """


class IntegrityError(WireError):
    """A frame parsed structurally but its integrity trailer mismatched.

    Raised only by *strict* unpack modes; lenient modes drop the frame
    and count it in :class:`repro.rlnc.wire.WireStats` instead.
    """


class CapacityError(ReproError):
    """A streaming-server request exceeds available resources."""


class RetryExhaustedError(ReproError):
    """A reliable-transport retry loop ran out of attempts.

    Raised by :class:`repro.streaming.client.ClientSession` when a
    segment makes no rank progress across ``max_retries`` NACK rounds
    (including exponential-backoff waits) — the deterministic signal
    that the wire, not the coding, is the bottleneck.
    """


class WorkerCrashError(ReproError):
    """A cluster worker process died while a command was in flight.

    Raised by the parallel :class:`repro.cluster.ServingCluster` when a
    command pipe to a :class:`repro.cluster.WorkerProcess` breaks —
    either the process was killed (the failover path the fault harness
    exercises deliberately) or it crashed.  The cluster's
    :meth:`~repro.cluster.ServingCluster.kill_worker` rebalance is the
    recovery; requests routed to a crashed-but-unrebalanced worker
    surface this error instead of hanging.
    """


class WorkerTimeoutError(WorkerCrashError):
    """A cluster worker missed a supervision deadline.

    Raised parent-side when a command's reply does not arrive within the
    deadline the :class:`repro.cluster.supervisor.SupervisorConfig`
    imposes — the worker process may be hung, pathologically slow, or
    mid-crash; the supervisor cannot tell without tearing it down.

    Subclasses :class:`WorkerCrashError` deliberately: every failover
    path that already handles a crashed worker must handle a hung one
    the same way (SIGKILL, shared-memory reap, restart or rebalance).
    A worker handle that missed a deadline is *tainted* — a late reply
    would desynchronize the command pipe — so every later command on it
    raises this error until the supervisor replaces the process.
    """


@dataclass(frozen=True)
class RetryLater:
    """Load-shedding response from an overloaded streaming server.

    Returned (not raised) by
    :meth:`repro.streaming.server.StreamingServer.request_blocks` when
    the bounded request queue is full and the asking session does not
    outrank any queued work.  Carries the server's backoff hint so
    clients can pace their NACK retries instead of hammering the queue.

    Attributes:
        retry_after_rounds: serving rounds the client should wait
            before re-requesting.
    """

    retry_after_rounds: int = 1

    def __post_init__(self) -> None:
        if self.retry_after_rounds < 1:
            raise ConfigurationError("retry_after_rounds must be >= 1")
