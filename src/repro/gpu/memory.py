"""Memory-system models: shared-memory banks, coalescing, texture cache.

These three mechanisms carry most of the paper's optimization story:

* **Shared-memory bank conflicts** (Sec. 5.1.3): 16 banks, 4 bytes wide,
  one access per bank every two cycles.  Byte-granular random accesses to
  the exp table collide ("around 3 conflicts happen within each 16
  parallel requests"); Table-based-5 fights this with 8 private
  word-widened table copies.
* **Global-memory coalescing** (Sec. 4.2.1): a half-warp's accesses merge
  into few transactions when they fall in aligned segments; cc1.1 devices
  (8800 GT) additionally require in-order word accesses.
* **Texture cache** (Table-based-4, Sec. 5.1.3): read-only cached path
  shared by the SMs of one TPC, which combines multiple pending requests
  to a line.

Each model is a small pure class that can score a single half-warp access
pattern; the SIMT interpreter feeds it observed addresses, and the
analytic cost model uses its aggregate statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.gpu.spec import DeviceSpec


@dataclass
class BankConflictStats:
    """Aggregate shared-memory access statistics."""

    requests: int = 0
    service_rounds: int = 0
    broadcasts: int = 0

    @property
    def conflict_factor(self) -> float:
        """Mean serialization degree: 1.0 means conflict-free."""
        if self.requests == 0:
            return 1.0
        groups = self.requests and self._groups or 0
        if groups == 0:
            return 1.0
        return self.service_rounds / groups

    _groups: int = 0


class SharedMemoryModel:
    """Scores half-warp shared-memory access patterns for bank conflicts.

    Addresses are byte addresses into the SM's shared memory.  Each 4-byte
    word belongs to bank ``(address // 4) % 16``; the access takes as many
    service rounds as the most-subscribed bank.  When several threads read
    the *same word*, the hardware broadcasts it in one round (the paper
    exploits this for coefficient loads, Sec. 4.2.1).
    """

    def __init__(self, spec: DeviceSpec) -> None:
        self._spec = spec
        self.stats = BankConflictStats()

    def bank_of(self, byte_address: int) -> int:
        """Return the bank serving the word that contains this byte."""
        return (byte_address // self._spec.shared_bank_width) % self._spec.shared_banks

    def score_half_warp(self, byte_addresses: list[int]) -> int:
        """Return service rounds needed for one half-warp access group.

        Also accumulates the result into :attr:`stats`.
        """
        if not byte_addresses:
            return 0
        width = self._spec.shared_bank_width
        per_bank_words: dict[int, set[int]] = {}
        for address in byte_addresses:
            word = address // width
            per_bank_words.setdefault(self.bank_of(address), set()).add(word)
        # Distinct words on the same bank serialize; identical words
        # broadcast and cost a single round.
        rounds = max(len(words) for words in per_bank_words.values())
        broadcast_hits = len(byte_addresses) - sum(
            len(words) for words in per_bank_words.values()
        )
        self.stats.requests += len(byte_addresses)
        self.stats.service_rounds += rounds
        self.stats.broadcasts += max(0, broadcast_hits)
        self.stats._groups += 1
        return rounds

    def cycles_for_rounds(self, rounds: int) -> int:
        """Convert service rounds to SP cycles (2 cycles per round)."""
        return rounds * self._spec.shared_service_cycles


@dataclass
class CoalescingStats:
    """Aggregate global-memory access statistics."""

    requests: int = 0
    transactions: int = 0
    bytes_moved: int = 0


class CoalescingModel:
    """Counts memory transactions for half-warp global accesses.

    Compute-capability 1.3 rules (GTX 280): the addresses touched by a
    half-warp are covered by aligned segments (32 B for 1-byte accesses,
    64 B for 2-byte, 128 B for 4/8/16-byte); one transaction per touched
    segment.  cc1.1 rules (8800 GT): the half-warp coalesces into a single
    transaction only if thread ``i`` accesses word ``base + i`` of an
    aligned 64-byte region; anything else breaks into one transaction per
    thread ("16 separate transactions", per the CUDA 2.0 guide).
    """

    def __init__(self, spec: DeviceSpec) -> None:
        self._spec = spec
        self.stats = CoalescingStats()

    def _segment_size(self, access_bytes: int) -> int:
        if access_bytes == 1:
            return 32
        if access_bytes == 2:
            return 64
        return 128

    def score_half_warp(self, byte_addresses: list[int], access_bytes: int) -> int:
        """Return transactions for one half-warp; accumulates stats."""
        if not byte_addresses:
            return 0
        if self._spec.relaxed_coalescing:
            segment = self._segment_size(access_bytes)
            segments = {address // segment for address in byte_addresses}
            transactions = len(segments)
        else:
            transactions = 1 if self._is_strictly_coalesced(
                byte_addresses, access_bytes
            ) else len(byte_addresses)
        self.stats.requests += len(byte_addresses)
        self.stats.transactions += transactions
        self.stats.bytes_moved += len(byte_addresses) * access_bytes
        return transactions

    def _is_strictly_coalesced(
        self, byte_addresses: list[int], access_bytes: int
    ) -> bool:
        if access_bytes not in (4, 8, 16):
            return False
        base = byte_addresses[0]
        if base % (self._spec.half_warp * access_bytes):
            return False
        return all(
            address == base + i * access_bytes
            for i, address in enumerate(byte_addresses)
        )


@dataclass
class TextureCacheStats:
    accesses: int = 0
    hits: int = 0
    line_fills: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TextureCacheModel:
    """A small direct-mapped read-only cache per TPC (Table-based-4 path).

    The paper notes little is public about the texture cache; we model a
    direct-mapped cache with 32-byte lines, which is enough to capture the
    two effects the paper attributes its 15% gain to: locality of exp-table
    accesses (the whole 512-entry table fits) and request combining across
    the SMs of a TPC (all SMs of a TPC share this cache instance).
    """

    LINE_BYTES = 32

    def __init__(self, spec: DeviceSpec) -> None:
        self._lines = max(1, spec.texture_cache_bytes // self.LINE_BYTES)
        self._tags: dict[int, int] = {}
        self.stats = TextureCacheStats()

    def access(self, byte_address: int) -> bool:
        """Access one byte; return True on hit."""
        line = byte_address // self.LINE_BYTES
        slot = line % self._lines
        self.stats.accesses += 1
        if self._tags.get(slot) == line:
            self.stats.hits += 1
            return True
        self._tags[slot] = line
        self.stats.line_fills += 1
        return False

    def access_half_warp(self, byte_addresses: list[int]) -> int:
        """Access a half-warp's addresses; return the number of misses.

        Requests to the same line are combined (scored as one lookup),
        modelling the request-combining behaviour the paper suspects.
        """
        lines = Counter(address // self.LINE_BYTES for address in byte_addresses)
        misses = 0
        for line in lines:
            if not self.access(line * self.LINE_BYTES):
                misses += 1
        # The combined requests still count as accesses for hit-rate math.
        extra = len(byte_addresses) - len(lines)
        self.stats.accesses += extra
        self.stats.hits += extra
        return misses
