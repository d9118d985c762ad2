"""Basic (amortized) cache-oblivious lookahead array.

Structure [Bender et al., "Cache-Oblivious Streaming B-trees", SPAA 2007]:
``log N`` levels, level ``k`` holding a sorted array of exactly ``2^k``
entries or nothing.  An insert places a 1-element array at level 0 and,
binomial-counter style, repeatedly merges equal-size full levels upward
until it lands in an empty slot.  Each element therefore moves ``O(log N)``
times, always inside *sequential* merges of big arrays — the
write-optimized property — at an amortized IO cost of
``O((log N) / B_entries)`` per insert.  A query binary-searches every
non-empty level: ``O(log^2 N)`` comparisons and, without fractional
cascading (not implemented — the paper's citation is for the structural
idea), ``O(log(len/B))`` block probes per uncached level.

Deletes are tombstones, resolved during merges and dropped when a merge
produces the (new) largest level.

Why this is in a DAM-refinement reproduction: the COLA is the
*cache-oblivious* point in the write-optimized design space the paper
surveys — it has no node-size knob at all, so under the affine model its
insert cost is automatically near-optimal at any ``alpha``, while its
query cost pays the ``log N`` levels.  The epsilon-tradeoff experiment
(``exp_epsilon_tradeoff``) places it on the same axes as the Bε-tree.

IO accounting mirrors :mod:`repro.trees.lsm`: levels are stored in device
extents; merges read their inputs and write their output sequentially;
binary-search probes charge one block read each.  Levels small enough to
fit a configured RAM budget (taken greedily from level 0 upward, matching
what a real implementation pins) are free to search.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import ConfigurationError, TreeError
from repro.storage.allocator import ExtentAllocator
from repro.storage.device import BlockDevice
from repro.trees.lsm.sstable import TOMBSTONE
from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat


@dataclass(frozen=True)
class COLAConfig:
    """Tuning of one COLA instance.

    The COLA has no node-size parameter — that is its point.  The only
    knobs are the entry format, the block size used to price search
    probes, and how much RAM the top levels may pin.
    """

    fmt: EntryFormat = EntryFormat()
    block_bytes: int = 4096
    ram_bytes: int = 1 << 20
    #: Keep one fence key in RAM per this many entries of each on-disk
    #: level, bracketing searches to a single block probe per level — the
    #: engineering analogue of the COLA paper's fractional cascading
    #: (which exists to achieve the same bound cache-obliviously).
    #: ``None`` disables fences: a search then pays ~log2(blocks) probes.
    fence_every: int | None = 64

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")
        if self.ram_bytes < 0:
            raise ConfigurationError("ram_bytes must be non-negative")
        if self.fence_every is not None and self.fence_every < 2:
            raise ConfigurationError("fence_every must be >= 2 (or None)")

    @property
    def entries_per_block(self) -> int:
        """Entries per search-probe block."""
        return max(1, self.block_bytes // self.fmt.entry_bytes)


class _Level:
    """One sorted run of exactly ``2^k`` logical slots."""

    __slots__ = ("keys", "values", "offset", "nbytes")

    def __init__(self, keys: list[int], values: list[Any]) -> None:
        self.keys = keys
        self.values = values
        self.offset = -1
        self.nbytes = 0


class COLA:
    """A cache-oblivious lookahead array storing ``int -> value`` pairs."""

    def __init__(
        self,
        device: BlockDevice,
        config: COLAConfig | None = None,
        *,
        allocator: ExtentAllocator | None = None,
    ) -> None:
        self.device = device
        self.config = config or COLAConfig()
        self.allocator = allocator or ExtentAllocator(device.capacity_bytes, alignment=512)
        self.levels: list[_Level | None] = []
        self.user_bytes_modified = 0
        self.merges = 0

    # -- write path --------------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``."""
        self._push(key, value)

    def delete(self, key: int) -> None:
        """Delete ``key`` (tombstone)."""
        self._push(key, TOMBSTONE)

    def put_many(self, pairs) -> None:
        """Insert many pairs, identical in accounting to an insert loop.

        Same contract as every other tree's ``put_many``
        (``tests/trees/test_put_many.py``): device clock, stats, merge
        counts, and level structure must equal calling :meth:`insert`
        once per pair exactly — the batch only removes Python overhead.
        """
        push = self._push
        for key, value in pairs:
            push(key, value)

    def _push(self, key: int, value: Any) -> None:
        self.user_bytes_modified += self.config.fmt.entry_bytes
        carry = _Level([key], [value])
        k = 0
        while True:
            if k == len(self.levels):
                self.levels.append(None)
            resident = self.levels[k]
            if resident is None:
                self.levels[k] = carry
                self._write_level(carry, k)
                return
            # Merge the carry with the resident level; result has <= 2^(k+1)
            # logical entries (duplicates collapse, which is fine: a level
            # only needs to be *at most* its capacity in this variant).
            self.levels[k] = None
            carry = self._merge(resident, carry, k)
            k += 1

    def _merge(self, older: _Level, newer: _Level, k: int) -> _Level:
        """Sequentially merge two level-``k`` runs; newer wins per key."""
        self.merges += 1
        # Charge reads of both inputs (level 0 carries were never written).
        for lvl in (older, newer):
            if lvl.offset >= 0:
                self.device.read(lvl.offset, lvl.nbytes)
                self._free_level(lvl)
        drop_tombstones = all(
            self.levels[j] is None for j in range(k + 1, len(self.levels))
        )
        keys: list[int] = []
        values: list[Any] = []
        i = j = 0
        ok, ov = older.keys, older.values
        nk, nv = newer.keys, newer.values
        while i < len(ok) or j < len(nk):
            if j >= len(nk) or (i < len(ok) and ok[i] < nk[j]):
                key, val = ok[i], ov[i]
                i += 1
            elif i >= len(ok) or nk[j] < ok[i]:
                key, val = nk[j], nv[j]
                j += 1
            else:  # equal keys: newer shadows older
                key, val = nk[j], nv[j]
                i += 1
                j += 1
            if drop_tombstones and val is TOMBSTONE:
                continue
            keys.append(key)
            values.append(val)
        return _Level(keys, values)

    def _level_bytes(self, level: _Level) -> int:
        return self.config.fmt.node_header_bytes + len(level.keys) * self.config.fmt.entry_bytes

    @property
    def _pin_threshold_bytes(self) -> int:
        """Largest level kept purely in RAM (never written).

        Level sizes double, so pinning every level of at most ``ram/4``
        bytes costs at most ``ram/2`` in total — a real COLA behaves the
        same way, which is what makes its small-level churn free.
        """
        return self.config.ram_bytes // 4

    def _write_level(self, level: _Level, k: int) -> None:
        if not level.keys:
            # A merge can produce an empty run (all tombstones dropped).
            self.levels[k] = None
            return
        nbytes = self._level_bytes(level)
        if nbytes <= self._pin_threshold_bytes:
            return  # stays in RAM; offset remains -1
        level.offset = self.allocator.alloc(nbytes)
        level.nbytes = nbytes
        self.device.write(level.offset, nbytes)

    def _free_level(self, level: _Level) -> None:
        if level.offset >= 0:
            self.allocator.free(level.offset, level.nbytes)
            level.offset = -1
            level.nbytes = 0

    # -- read path --------------------------------------------------------------

    def _ram_resident(self) -> list[bool]:
        """Which levels are pinned in RAM (exactly the never-written ones)."""
        return [lvl is None or lvl.offset < 0 for lvl in self.levels]

    def _probe(self, level: _Level, key: int, resident: bool) -> tuple[Any, bool]:
        """Binary-search one level, charging block reads for the probes."""
        if not resident:
            if self.config.fence_every is not None:
                # RAM-resident fence keys bracket the search to one block.
                i = bisect.bisect_left(level.keys, key)
                frac = i * self.config.fmt.entry_bytes
                block = min(self.config.block_bytes, level.nbytes)
                off = level.offset + min(
                    (frac // block) * block, max(0, level.nbytes - block)
                )
                self.device.read(off, block)
            else:
                per_block = self.config.entries_per_block
                n_blocks = max(1, (len(level.keys) + per_block - 1) // per_block)
                # An uncached binary search touches ~log2(blocks) distinct
                # blocks, plus the final one containing the answer.
                probes = max(1, n_blocks.bit_length())
                span = level.nbytes
                step = max(1, span // probes)
                for p in range(probes):
                    off = level.offset + min(
                        p * step, max(0, span - self.config.block_bytes)
                    )
                    self.device.read(off, min(self.config.block_bytes, span))
        i = bisect.bisect_left(level.keys, key)
        if i < len(level.keys) and level.keys[i] == key:
            return level.values[i], True
        return None, False

    def get(self, key: int) -> Any | None:
        """Point query; returns the value or ``None``."""
        residency = self._ram_resident()
        for k, lvl in enumerate(self.levels):  # newest (smallest) first
            if lvl is None:
                continue
            value, found = self._probe(lvl, key, residency[k])
            if found:
                return None if value is TOMBSTONE else value
        return None

    def get_many(self, keys) -> list[Any | None]:
        """Batched point queries, accounting-identical to a ``get`` loop."""
        get = self.get
        return [get(key) for key in keys]

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return []
        residency = self._ram_resident()
        result: dict[int, Any] = {}
        # Oldest (largest) level first so newer levels overwrite.
        for k in range(len(self.levels) - 1, -1, -1):
            lvl = self.levels[k]
            if lvl is None:
                continue
            i = bisect.bisect_left(lvl.keys, lo)
            j = bisect.bisect_right(lvl.keys, hi)
            if j > i and not residency[k]:
                nbytes = max(
                    self.config.block_bytes,
                    (j - i) * self.config.fmt.entry_bytes,
                )
                nbytes = min(nbytes, lvl.nbytes)
                offset = min(
                    lvl.offset + i * self.config.fmt.entry_bytes,
                    lvl.offset + lvl.nbytes - nbytes,
                )
                self.device.read(offset, nbytes)
            for key, val in zip(lvl.keys[i:j], lvl.values[i:j]):
                result[key] = val
        return sorted((k, v) for k, v in result.items() if v is not TOMBSTONE)

    def items(self) -> Iterator[tuple[int, Any]]:
        """All pairs in key order."""
        yield from self.range(KEY_MIN, KEY_MAX)

    def __len__(self) -> int:
        return len(list(self.items()))

    # -- invariants --------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert level sizing, sortedness, and extent consistency."""
        for k, lvl in enumerate(self.levels):
            if lvl is None:
                continue
            if len(lvl.keys) != len(lvl.values):
                raise TreeError(f"level {k}: keys/values mismatch")
            if not lvl.keys:
                raise TreeError(f"level {k}: empty run should be None")
            if len(lvl.keys) > (1 << k):
                raise TreeError(
                    f"level {k}: {len(lvl.keys)} entries exceeds capacity {1 << k}"
                )
            for a, b in zip(lvl.keys, lvl.keys[1:]):
                if a >= b:
                    raise TreeError(f"level {k}: keys out of order")
            written = lvl.offset >= 0
            big = self._level_bytes(lvl) > self._pin_threshold_bytes
            if big and not written:
                raise TreeError(f"level {k}: too large for RAM but never written")
            if written and lvl.nbytes <= 0:
                raise TreeError(f"level {k}: written with a bad extent")
