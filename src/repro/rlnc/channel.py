"""Lossy-channel models and failure injection.

Random linear codes are attractive precisely because they are "robust to
random packet loss, delay, as well as any changes in network topology
and capacity" (Wu et al., cited in Sec. 2).  This module provides the
channel impairments needed to exercise that robustness:

* :class:`LossyChannel` — i.i.d. block loss;
* :class:`ReorderingChannel` — bounded random reordering;
* :class:`DuplicatingChannel` — duplicate deliveries;
* :class:`CorruptingChannel` — bit corruption in coefficients and/or
  payloads (RLNC has no intrinsic integrity check; a corrupted block
  silently poisons the decode, which is why deployments pair coding with
  checksums — see :mod:`repro.rlnc.wire`);
* :class:`ChannelPipeline` — composition.

Channels transform block streams; they never mutate the input blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.rlnc.block import CodedBlock


class Channel(Protocol):
    """A block-stream transformation."""

    def transmit(self, blocks: Iterable[CodedBlock]) -> list[CodedBlock]:
        """Return the blocks the receiver observes."""
        ...


@dataclass
class LossyChannel:
    """Drops each block independently with probability ``loss_rate``."""

    loss_rate: float
    rng: np.random.Generator

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss rate must be in [0, 1), got {self.loss_rate}"
            )

    def transmit(self, blocks: Iterable[CodedBlock]) -> list[CodedBlock]:
        return [
            block for block in blocks if self.rng.random() >= self.loss_rate
        ]


@dataclass
class ReorderingChannel:
    """Randomly displaces blocks by up to ``max_displacement`` positions.

    Implemented as a stable sort on jittered sequence numbers, which
    bounds how far any block can move — the standard bounded-reordering
    network model.
    """

    max_displacement: int
    rng: np.random.Generator

    def __post_init__(self) -> None:
        if self.max_displacement < 0:
            raise ConfigurationError("displacement must be non-negative")

    def transmit(self, blocks: Iterable[CodedBlock]) -> list[CodedBlock]:
        items = list(blocks)
        if self.max_displacement == 0 or len(items) < 2:
            return items
        keys = [
            index + self.rng.uniform(0, self.max_displacement + 1)
            for index in range(len(items))
        ]
        order = sorted(range(len(items)), key=lambda i: keys[i])
        return [items[i] for i in order]


@dataclass
class DuplicatingChannel:
    """Delivers each block twice with probability ``duplicate_rate``."""

    duplicate_rate: float
    rng: np.random.Generator

    def __post_init__(self) -> None:
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ConfigurationError("duplicate rate must be in [0, 1]")

    def transmit(self, blocks: Iterable[CodedBlock]) -> list[CodedBlock]:
        out: list[CodedBlock] = []
        for block in blocks:
            out.append(block)
            if self.rng.random() < self.duplicate_rate:
                out.append(block)
        return out


@dataclass
class CorruptingChannel:
    """Flips one random bit of a block with probability ``corruption_rate``.

    ``targets`` selects what corruption may hit: ``"both"`` (default)
    draws the flipped position uniformly over the concatenated
    coefficient vector and payload (so coefficients are hit with
    probability n/(n+k) — both travel on the wire), ``"payload"``
    restricts damage to payload bytes, and ``"coefficients"`` to the
    coefficient vector — the nastier case, since one flipped coefficient
    re-weights an entire source block during elimination.  The returned
    block is a corrupted *copy*; originals are untouched.
    """

    corruption_rate: float
    rng: np.random.Generator
    targets: str = "both"

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ConfigurationError("corruption rate must be in [0, 1]")
        if self.targets not in ("both", "payload", "coefficients"):
            raise ConfigurationError(
                f"targets must be 'both', 'payload' or 'coefficients', "
                f"got {self.targets!r}"
            )

    def transmit(self, blocks: Iterable[CodedBlock]) -> list[CodedBlock]:
        out: list[CodedBlock] = []
        for block in blocks:
            if self.rng.random() >= self.corruption_rate:
                out.append(block)
                continue
            coefficients = block.coefficients.copy()
            payload = block.payload.copy()
            n, k = len(coefficients), len(payload)
            if self.targets == "payload":
                position = n + int(self.rng.integers(k))
            elif self.targets == "coefficients":
                position = int(self.rng.integers(n))
            else:
                position = int(self.rng.integers(n + k))
            bit = np.uint8(1 << int(self.rng.integers(8)))
            if position < n:
                coefficients[position] ^= bit
            else:
                payload[position - n] ^= bit
            out.append(
                CodedBlock(
                    coefficients=coefficients,
                    payload=payload,
                    segment_id=block.segment_id,
                )
            )
        return out


@dataclass
class ChannelPipeline:
    """Applies several channels in sequence."""

    stages: list

    def transmit(self, blocks: Iterable[CodedBlock]) -> list[CodedBlock]:
        current = list(blocks)
        for stage in self.stages:
            current = stage.transmit(current)
        return current


def blocks_needed_over_lossy_channel(
    num_blocks: int, loss_rate: float, *, safety: float = 1.1
) -> int:
    """How many coded blocks a sender should emit to survive the loss.

    Expected survivors must reach n; the safety factor absorbs loss
    variance and the (tiny) linear-dependence tail.
    """
    if not 0.0 <= loss_rate < 1.0:
        raise ConfigurationError("loss rate must be in [0, 1)")
    return int(np.ceil(safety * num_blocks / (1.0 - loss_rate)))
