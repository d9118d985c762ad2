"""Leveled LSM-tree over a simulated device.

Structure follows LevelDB: an in-memory *memtable* absorbs writes; when it
fills it is flushed as an SSTable into level 0; level 0 holds overlapping
runs, deeper levels hold disjoint runs; when level ``i`` exceeds its byte
budget (``growth_factor ** i * level1_bytes``), one run is merged into the
overlapping runs of level ``i+1`` and the output re-cut into
``sstable_bytes`` runs.

IO pricing:

* flush/compaction reads and writes whole runs (this is where the LSM's
  write amplification of ``~growth_factor * depth`` comes from);
* a point query charges one data-block read per probed run (indexes and
  bloom-filter metadata are memory-resident, as in LevelDB; we do not
  model bloom filters, so every level is probed — the paper's trees don't
  get filters either, keeping the comparison honest);
* a range query reads the overlapping portion of every overlapping run.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import ConfigurationError, TreeError
from repro.storage.device import BlockDevice
from repro.storage.allocator import ExtentAllocator
from repro.trees.lsm.sstable import SSTable, TOMBSTONE
from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat


@dataclass(frozen=True)
class LSMConfig:
    """Tuning of one LSM-tree instance."""

    sstable_bytes: int = 2 << 20      # LevelDB's 2 MiB default
    memtable_bytes: int = 2 << 20
    level1_bytes: int = 8 << 20
    growth_factor: int = 10
    l0_trigger: int = 4               # L0 run count that triggers compaction
    block_bytes: int = 4096           # data-block read size for point queries
    fmt: EntryFormat = EntryFormat()

    def __post_init__(self) -> None:
        if self.sstable_bytes <= self.fmt.entry_bytes + self.fmt.node_header_bytes:
            raise ConfigurationError("sstable_bytes too small for a single entry")
        if self.memtable_bytes <= 0 or self.level1_bytes <= 0:
            raise ConfigurationError("memtable and level budgets must be positive")
        if self.growth_factor < 2:
            raise ConfigurationError(f"growth_factor must be >= 2, got {self.growth_factor}")
        if self.l0_trigger < 1:
            raise ConfigurationError(f"l0_trigger must be >= 1, got {self.l0_trigger}")
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")

    @property
    def entries_per_sstable(self) -> int:
        """Entries one run holds."""
        return max(1, (self.sstable_bytes - self.fmt.node_header_bytes) // self.fmt.entry_bytes)

    @property
    def entries_per_memtable(self) -> int:
        """Entries the memtable holds before flushing."""
        return max(1, self.memtable_bytes // self.fmt.entry_bytes)


class LSMTree:
    """A leveled LSM dictionary storing ``int -> value`` pairs."""

    def __init__(self, device: BlockDevice, config: LSMConfig | None = None, *,
                 allocator: ExtentAllocator | None = None) -> None:
        self.device = device
        self.config = config or LSMConfig()
        self.allocator = allocator or ExtentAllocator(device.capacity_bytes, alignment=512)
        self.memtable: dict[int, Any] = {}
        self.levels: list[list[SSTable]] = [[]]   # levels[0] newest-first
        self._next_table_id = 0
        self.user_bytes_modified = 0
        self.compactions = 0

    # -- write path ----------------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``."""
        self.memtable[key] = value
        self.user_bytes_modified += self.config.fmt.entry_bytes
        self._maybe_flush()

    def put_many(self, pairs: list[tuple[int, Any]]) -> None:
        """Batched inserts: identical to a serial loop of :meth:`insert`.

        The flush check still runs after every pair — a memtable can fill
        mid-batch, and the flush/compaction schedule (hence every device
        write) must match the serial loop exactly.
        """
        memtable = self.memtable
        entry_bytes = self.config.fmt.entry_bytes
        cap = self.config.entries_per_memtable
        for key, value in pairs:
            memtable[key] = value
            self.user_bytes_modified += entry_bytes
            if len(memtable) >= cap:
                self.flush_memtable()
                memtable = self.memtable  # the flush swapped in a fresh dict

    def delete(self, key: int) -> None:
        """Delete ``key`` (tombstone)."""
        self.memtable[key] = TOMBSTONE
        self.user_bytes_modified += self.config.fmt.entry_bytes
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if len(self.memtable) >= self.config.entries_per_memtable:
            self.flush_memtable()

    def flush_memtable(self) -> None:
        """Write the memtable as L0 run(s) and trigger compactions."""
        if not self.memtable:
            return
        pairs = sorted(self.memtable.items())
        self.memtable = {}
        for run in self._cut_runs(pairs):
            self.levels[0].insert(0, run)  # newest first
            self._write_table(run)
        self._compact_as_needed()

    def _cut_runs(self, pairs: list[tuple[int, Any]]) -> list[SSTable]:
        per = self.config.entries_per_sstable
        runs = []
        for start in range(0, len(pairs), per):
            chunk = pairs[start : start + per]
            t = SSTable(self._next_table_id, [k for k, _ in chunk], [v for _, v in chunk])
            self._next_table_id += 1
            runs.append(t)
        return runs

    def _write_table(self, table: SSTable) -> None:
        nbytes = table.data_bytes(self.config.fmt)
        table.offset = self.allocator.alloc(nbytes)
        table.nbytes = nbytes
        self.device.write(table.offset, nbytes)

    def _drop_table(self, table: SSTable) -> None:
        self.allocator.free(table.offset, table.nbytes)

    def _level_bytes(self, level: int) -> int:
        return sum(t.nbytes for t in self.levels[level])

    def _level_budget(self, level: int) -> int:
        return self.config.level1_bytes * self.config.growth_factor ** (level - 1)

    def _compact_as_needed(self) -> None:
        while True:
            if len(self.levels[0]) > self.config.l0_trigger:
                self._compact(0)
                continue
            done = True
            for lvl in range(1, len(self.levels)):
                if self._level_bytes(lvl) > self._level_budget(lvl):
                    self._compact(lvl)
                    done = False
                    break
            if done:
                return

    def _compact(self, level: int) -> None:
        """Merge one source run (all runs for L0) into the next level."""
        self.compactions += 1
        while len(self.levels) <= level + 1:
            self.levels.append([])
        if level == 0:
            sources = list(self.levels[0])
            self.levels[0] = []
        else:
            # Pick the largest run (simple deterministic victim policy).
            victim = max(self.levels[level], key=lambda t: t.nbytes)
            self.levels[level].remove(victim)
            sources = [victim]
        lo = min(t.min_key for t in sources)
        hi = max(t.max_key for t in sources)
        below = [t for t in self.levels[level + 1] if t.overlaps(lo, hi)]
        for t in below:
            self.levels[level + 1].remove(t)

        # Charge reads of every input run.
        for t in sources + below:
            self.device.read(t.offset, t.nbytes)

        # Tombstones can be dropped when the output lands in the deepest
        # level: runs there are key-disjoint, so every older version of any
        # merged key was necessarily in `sources + below`.
        merged = self._merge_runs(
            sources, below, drop_tombstones=(level + 1 == len(self.levels) - 1)
        )
        for t in sources + below:
            self._drop_table(t)
        out_runs = self._cut_runs(merged)
        for run in out_runs:
            self._write_table(run)
        # Deeper levels hold key-disjoint runs in key order.
        self.levels[level + 1].extend(out_runs)
        self.levels[level + 1].sort(key=lambda t: t.min_key)

    def _merge_runs(
        self, newer: list[SSTable], older: list[SSTable], *, drop_tombstones: bool
    ) -> list[tuple[int, Any]]:
        """K-way merge; newer runs shadow older ones per key."""
        # Precedence: position in `newer` (earlier = newer), then `older`.
        streams: list[tuple[int, SSTable]] = [(i, t) for i, t in enumerate(newer)]
        streams += [(len(newer) + i, t) for i, t in enumerate(older)]
        heap: list[tuple[int, int, int]] = []  # (key, precedence, stream_idx)
        pos = [0] * len(streams)
        for si, (prec, t) in enumerate(streams):
            heapq.heappush(heap, (t.keys[0], prec, si))
        out: list[tuple[int, Any]] = []
        while heap:
            key, prec, si = heapq.heappop(heap)
            _, t = streams[si]
            value = t.values[pos[si]]
            pos[si] += 1
            if pos[si] < len(t.keys):
                heapq.heappush(heap, (t.keys[pos[si]], streams[si][0], si))
            if out and out[-1][0] == key:
                continue  # a higher-precedence stream already emitted this key
            out.append((key, value))
        if drop_tombstones:
            out = [(k, v) for k, v in out if v is not TOMBSTONE]
        return out

    # -- read path ------------------------------------------------------------------

    def _probe(self, table: SSTable, key: int) -> tuple[Any, bool]:
        """Charge one data-block read and look ``key`` up in ``table``."""
        block = min(self.config.block_bytes, table.nbytes)
        # Block-aligned read within the run.
        i = bisect.bisect_left(table.keys, key)
        frac = i * self.config.fmt.entry_bytes
        block_off = table.offset + (frac // block) * block
        block_off = min(block_off, table.offset + table.nbytes - block)
        self.device.read(block_off, block)
        return table.lookup(key)

    def get(self, key: int) -> Any | None:
        """Point query; returns the value or ``None``."""
        if key in self.memtable:
            v = self.memtable[key]
            return None if v is TOMBSTONE else v
        for t in self.levels[0]:   # newest first
            if t.overlaps(key, key):
                v, found = self._probe(t, key)
                if found:
                    return None if v is TOMBSTONE else v
        for lvl in range(1, len(self.levels)):
            runs = self.levels[lvl]
            idx = bisect.bisect_right([t.min_key for t in runs], key) - 1
            if 0 <= idx < len(runs) and runs[idx].overlaps(key, key):
                v, found = self._probe(runs[idx], key)
                if found:
                    return None if v is TOMBSTONE else v
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return []
        result: dict[int, Any] = {}
        # Apply from oldest to newest so newer writes win.
        for lvl in range(len(self.levels) - 1, 0, -1):
            for t in self.levels[lvl]:
                if t.overlaps(lo, hi):
                    self._read_overlap(t, lo, hi)
                    result.update(t.slice(lo, hi))
        for t in reversed(self.levels[0]):  # oldest L0 first
            if t.overlaps(lo, hi):
                self._read_overlap(t, lo, hi)
                result.update(t.slice(lo, hi))
        for k in sorted(result):
            if lo <= k <= hi and result[k] is TOMBSTONE:
                del result[k]
        for k, v in self.memtable.items():
            if lo <= k <= hi:
                if v is TOMBSTONE:
                    result.pop(k, None)
                else:
                    result[k] = v
        return sorted(result.items())

    def _read_overlap(self, table: SSTable, lo: int, hi: int) -> None:
        """Charge reading the overlapping byte range of a run."""
        fmt = self.config.fmt
        i = bisect.bisect_left(table.keys, lo)
        j = bisect.bisect_right(table.keys, hi)
        nbytes = max(self.config.block_bytes, (j - i) * fmt.entry_bytes)
        nbytes = min(nbytes, table.nbytes)
        offset = min(table.offset + i * fmt.entry_bytes, table.offset + table.nbytes - nbytes)
        self.device.read(offset, nbytes)

    def items(self) -> Iterator[tuple[int, Any]]:
        """All pairs in key order."""
        yield from self.range(KEY_MIN, KEY_MAX)

    def __len__(self) -> int:
        return len(list(self.items()))

    # -- invariants ---------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert level structure: budgets are soft, disjointness is hard."""
        for lvl in range(1, len(self.levels)):
            runs = self.levels[lvl]
            for a, b in zip(runs, runs[1:]):
                if a.max_key >= b.min_key:
                    raise TreeError(
                        f"level {lvl} runs overlap: [{a.min_key},{a.max_key}] vs "
                        f"[{b.min_key},{b.max_key}]"
                    )
        for lvl, runs in enumerate(self.levels):
            for t in runs:
                if t.offset < 0 or t.nbytes <= 0:
                    raise TreeError(f"run {t.table_id} in level {lvl} was never written")
