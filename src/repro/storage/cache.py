"""Byte-budgeted LRU buffer cache with dirty write-back.

This is the DAM's memory level: the cache holds up to ``M`` bytes of node
data; everything else lives "on disk" and costs device time to touch.  The
paper's analyses all assume "the top ``Theta(log M)`` levels can be cached";
LRU achieves that automatically for tree workloads.

The cache is also where *write amplification* physically happens: an
insert dirties a whole node, and when the node is evicted the device writes
the full node even though only a few bytes of user data changed (paper
Lemma 3).

Objects are arbitrary Python values; the cache tracks their device extent
``(offset, nbytes)`` and charges the device on miss (read) and on dirty
eviction (write).  Evicted objects are retained as non-resident "disk
images" — devices in this repository price IO time but do not store bytes
(see :mod:`repro.storage.device`).

Implementation: one dict maps node id to an intrusive :class:`_Entry`
that is simultaneously the cache record, the disk image, and a link in a
doubly-linked LRU list of the resident entries.  A lookup is one dict hit
plus a pointer splice; eviction and re-admission flip a residency bit on
the same object instead of shuttling tuples between two maps, so the
steady-state hot path (hit, miss, evict) allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Sequence

from repro.errors import CacheError, ConfigurationError
from repro.obs import OBS
from repro.storage.device import BlockDevice


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 if none yet)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero every counter in place.

        Experiments call this at a phase boundary (e.g. after cache warm-up)
        so reported hit rates describe only the measured phase.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0


class _Entry:
    """One node, resident or evicted, threaded into the LRU list when resident.

    ``prev``/``next`` are only meaningful while ``resident`` is true; the
    list order is LRU at the head side, MRU at the tail side, matching the
    iteration order the previous ``OrderedDict`` implementation exposed.
    """

    __slots__ = ("node_id", "obj", "offset", "nbytes", "dirty", "pins",
                 "resident", "prev", "next")

    def __init__(self, node_id: Hashable, obj: Any, offset: int, nbytes: int, dirty: bool) -> None:
        self.node_id = node_id
        self.obj = obj
        self.offset = offset
        self.nbytes = nbytes
        self.dirty = dirty
        self.pins = 0
        self.resident = False
        self.prev: "_Entry | None" = None
        self.next: "_Entry | None" = None


class BufferCache:
    """LRU cache of node objects over a :class:`BlockDevice`.

    Parameters
    ----------
    device:
        Where misses and write-backs are charged.
    capacity_bytes:
        The memory budget ``M``.  At least one entry is always held even if
        it alone exceeds the budget.
    """

    def __init__(self, device: BlockDevice, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(f"cache capacity must be positive, got {capacity_bytes}")
        self.device = device
        self.capacity_bytes = int(capacity_bytes)
        self.stats = CacheStats()
        self._index: dict[Hashable, _Entry] = {}
        # LRU list sentinel: _root.next is the LRU end, _root.prev the MRU end.
        self._root = _Entry(None, None, 0, 1, dirty=False)
        self._root.prev = self._root
        self._root.next = self._root
        self._n_resident = 0
        self.cached_bytes = 0
        self.io_seconds = 0.0  # simulated device time charged through this cache

    # -- LRU list internals ---------------------------------------------------

    def _link_mru(self, entry: _Entry) -> None:
        """Splice ``entry`` in at the MRU end and mark it resident."""
        tail = self._root.prev
        entry.prev = tail
        entry.next = self._root
        tail.next = entry
        self._root.prev = entry
        entry.resident = True
        self._n_resident += 1

    def _unlink(self, entry: _Entry) -> None:
        """Remove ``entry`` from the LRU list and mark it non-resident."""
        entry.prev.next = entry.next
        entry.next.prev = entry.prev
        entry.prev = None
        entry.next = None
        entry.resident = False
        self._n_resident -= 1

    def _touch(self, entry: _Entry) -> None:
        """Move a resident entry to the MRU end."""
        if entry.next is self._root:
            return  # already MRU
        entry.prev.next = entry.next
        entry.next.prev = entry.prev
        tail = self._root.prev
        entry.prev = tail
        entry.next = self._root
        tail.next = entry
        self._root.prev = entry

    def _resident_lru_order(self) -> Iterator[_Entry]:
        """Resident entries, least recently used first."""
        entry = self._root.next
        while entry is not self._root:
            nxt = entry.next  # survive unlinking of `entry` mid-iteration
            yield entry
            entry = nxt

    # -- eviction internals ---------------------------------------------------

    def _evict_until_fits(self) -> None:
        root = self._root
        while self.cached_bytes > self.capacity_bytes and self._n_resident > 1:
            # The victim is the least recently used unpinned entry: walk the
            # ring from its LRU end past pinned entries.  The sentinel has
            # no pins, so the walk stops there if every entry is pinned.
            victim = root.next
            while victim.pins:
                victim = victim.next
            if victim is root:
                raise CacheError("cache over budget but every entry is pinned")
            self._evict(victim)

    def _evict(self, entry: _Entry) -> None:
        self._unlink(entry)
        if entry.dirty:
            self.io_seconds += self.device.write(entry.offset, entry.nbytes)
            self.stats.dirty_evictions += 1
            if OBS.enabled:
                OBS.counter("cache.dirty_evictions").inc()
            entry.dirty = False
        self.stats.evictions += 1
        if OBS.enabled:
            OBS.counter("cache.evictions").inc()
        self.cached_bytes -= entry.nbytes

    # -- public API ------------------------------------------------------------

    def contains(self, node_id: Hashable) -> bool:
        """True if ``node_id`` is currently resident (no LRU effect)."""
        entry = self._index.get(node_id)
        return entry is not None and entry.resident

    def get(self, node_id: Hashable) -> Any:
        """Fetch a node, charging a device read on miss."""
        entry = self._index.get(node_id)
        if entry is not None and entry.resident:
            self.stats.hits += 1
            if OBS.enabled:
                OBS.counter("cache.hits").inc()
            self._touch(entry)
            return entry.obj
        self.stats.misses += 1
        if OBS.enabled:
            OBS.counter("cache.misses").inc()
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        self.io_seconds += self.device.read(entry.offset, entry.nbytes)
        self._link_mru(entry)
        self.cached_bytes += entry.nbytes
        self._evict_until_fits()
        return entry.obj

    def access(
        self, node_id: Hashable, nbytes: int | None = None, dirty: bool = False
    ) -> Any:
        """Combined touch: fault in if evicted, optionally resize and dirty.

        One index lookup replacing the ``contains`` → :meth:`get` →
        :meth:`extent_of` → :meth:`update_extent` → :meth:`mark_dirty`
        sequence the write paths used to issue per component, with
        *identical* accounting at every step:

        * a resident entry is **not** counted as a hit and not LRU-touched
          (matching ``contains``, which has no LRU effect);
        * a non-resident entry takes :meth:`get`'s miss path exactly (miss
          counter, device read, MRU admission, eviction);
        * ``nbytes`` (already rounded by the caller) resizes in place when
          it differs from the registered size, keeping the registered
          offset — component slots are fixed — and marking dirty, exactly
          like :meth:`update_extent`;
        * ``dirty=True`` then applies :meth:`mark_dirty` (dirty bit + LRU
          touch).
        """
        entry = self._index.get(node_id)
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        if not entry.resident:
            self.stats.misses += 1
            if OBS.enabled:
                OBS.counter("cache.misses").inc()
            self.io_seconds += self.device.read(entry.offset, entry.nbytes)
            self._link_mru(entry)
            self.cached_bytes += entry.nbytes
            self._evict_until_fits()
        if nbytes is not None and nbytes != entry.nbytes:
            if nbytes <= 0:
                raise CacheError(f"node size must be positive, got {nbytes}")
            self.cached_bytes += nbytes - entry.nbytes
            entry.nbytes = nbytes
            entry.dirty = True
            if entry.next is not self._root:
                self._touch(entry)
            if self.cached_bytes > self.capacity_bytes:
                self._evict_until_fits()
        if dirty:
            entry.dirty = True
            if entry.next is not self._root:
                self._touch(entry)
        return entry.obj

    def get_many(self, node_ids: "Sequence[Hashable]") -> list[Any]:
        """Batched read-through fetch; objects in input order.

        Hit/miss accounting matches a serial loop of :meth:`get` exactly
        (a node fetched earlier in the same batch hits on its second
        appearance).  Runs of consecutive misses with equal extent size
        are charged through the device's vectorized
        :meth:`~repro.storage.device.BlockDevice.read_batch` and admitted
        afterwards, so the run's reads are issued before any write-backs
        its admissions trigger; see
        :meth:`repro.storage.stack.StorageStack.read_many` for the exact
        equivalence contract.
        """
        out: list[Any] = [None] * len(node_ids)
        run: list[_Entry] = []
        run_nbytes = 0
        in_run: set[Hashable] = set()

        def flush_run() -> None:
            nonlocal run_nbytes
            if not run:
                return
            offsets = [e.offset for e in run]
            for dt in self.device.read_batch(offsets, run_nbytes):
                self.io_seconds += dt
            for e in run:
                # Admission may itself evict earlier entries of this run;
                # that only changes residency, the objects stay returned.
                self._link_mru(e)
                self.cached_bytes += e.nbytes
                self._evict_until_fits()
            run.clear()
            in_run.clear()
            run_nbytes = 0

        for pos, node_id in enumerate(node_ids):
            entry = self._index.get(node_id)
            if entry is None:
                raise CacheError(f"unknown node id {node_id!r}")
            if node_id in in_run:
                flush_run()  # make it resident so the re-read hits, as serially
                entry = self._index[node_id]
            if entry.resident:
                self.stats.hits += 1
                if OBS.enabled:
                    OBS.counter("cache.hits").inc()
                self._touch(entry)
                out[pos] = entry.obj
                continue
            self.stats.misses += 1
            if OBS.enabled:
                OBS.counter("cache.misses").inc()
            out[pos] = entry.obj
            if run and entry.nbytes != run_nbytes:
                flush_run()
            run.append(entry)
            in_run.add(node_id)
            run_nbytes = entry.nbytes
        flush_run()
        return out

    def insert(
        self, node_id: Hashable, obj: Any, offset: int, nbytes: int, *, dirty: bool = True
    ) -> None:
        """Add a brand-new node (e.g. from a split), resident and dirty."""
        if node_id in self._index:
            raise CacheError(f"node id {node_id!r} already exists")
        if nbytes <= 0:
            raise CacheError(f"node size must be positive, got {nbytes}")
        entry = _Entry(node_id, obj, offset, nbytes, dirty=dirty)
        self._index[node_id] = entry
        self._link_mru(entry)
        self.cached_bytes += nbytes
        self._evict_until_fits()

    def admit(
        self,
        node_id: Hashable,
        obj: Any,
        offset: int,
        nbytes: int,
        *,
        dirty: bool,
    ) -> None:
        """Make a node resident *without charging a device read*.

        Callers use this when they have charged the data movement
        themselves (e.g. a batched multi-component IO).  Existing resident
        entries are refreshed in place; entries on disk are brought back;
        unknown ids are created.
        """
        if nbytes <= 0:
            raise CacheError(f"node size must be positive, got {nbytes}")
        entry = self._index.get(node_id)
        if entry is not None and entry.resident:
            self.cached_bytes += nbytes - entry.nbytes
            entry.obj = obj
            entry.offset = offset
            entry.nbytes = nbytes
            entry.dirty = entry.dirty or dirty
            self._touch(entry)
        else:
            if entry is None:
                entry = _Entry(node_id, obj, offset, nbytes, dirty=dirty)
                self._index[node_id] = entry
            else:
                entry.obj = obj
                entry.offset = offset
                entry.nbytes = nbytes
                entry.dirty = dirty
            self._link_mru(entry)
            self.cached_bytes += nbytes
        self._evict_until_fits()

    def readmit_clean(self, items: "Sequence[tuple[Hashable, int, int]]") -> None:
        """Admit each ``(node_id, offset, nbytes)`` as resident and clean.

        Equivalent to ``admit(id, None, offset, nbytes, dirty=False)``
        followed by ``mark_clean(id)`` per item — the whole-node rewrite
        pattern, where the caller has already charged one batched device
        write for every component — fused to one index lookup per item.
        Evictions interleave exactly as in the serial sequence.
        """
        index = self._index
        for node_id, offset, nbytes in items:
            if nbytes <= 0:
                raise CacheError(f"node size must be positive, got {nbytes}")
            entry = index.get(node_id)
            if entry is not None and entry.resident:
                self.cached_bytes += nbytes - entry.nbytes
                entry.obj = None
                entry.offset = offset
                entry.nbytes = nbytes
                entry.dirty = False
                if entry.next is not self._root:
                    self._touch(entry)
            else:
                if entry is None:
                    entry = _Entry(node_id, None, offset, nbytes, dirty=False)
                    index[node_id] = entry
                else:
                    entry.obj = None
                    entry.offset = offset
                    entry.nbytes = nbytes
                    entry.dirty = False
                self._link_mru(entry)
                self.cached_bytes += nbytes
            if self.cached_bytes > self.capacity_bytes:
                self._evict_until_fits()

    def mark_dirty(self, node_id: Hashable) -> None:
        """Record that a resident node's contents changed."""
        entry = self._index.get(node_id)
        if entry is None or not entry.resident:
            raise CacheError(f"cannot dirty non-resident node {node_id!r}")
        entry.dirty = True
        self._touch(entry)

    def mark_clean(self, node_id: Hashable) -> None:
        """Clear a resident node's dirty bit (caller wrote it back itself)."""
        entry = self._index.get(node_id)
        if entry is None or not entry.resident:
            raise CacheError(f"cannot clean non-resident node {node_id!r}")
        entry.dirty = False

    def update_extent(self, node_id: Hashable, offset: int, nbytes: int) -> None:
        """Change a resident node's device extent (after a realloc)."""
        entry = self._index.get(node_id)
        if entry is None or not entry.resident:
            raise CacheError(f"cannot relocate non-resident node {node_id!r}")
        if nbytes <= 0:
            raise CacheError(f"node size must be positive, got {nbytes}")
        self.cached_bytes += nbytes - entry.nbytes
        entry.offset = offset
        entry.nbytes = nbytes
        entry.dirty = True
        self._touch(entry)
        self._evict_until_fits()

    def pin(self, node_id: Hashable) -> None:
        """Prevent eviction of a resident node until unpinned."""
        entry = self._index.get(node_id)
        if entry is None or not entry.resident:
            raise CacheError(f"cannot pin non-resident node {node_id!r}")
        entry.pins += 1

    def unpin(self, node_id: Hashable) -> None:
        """Release one pin."""
        entry = self._index.get(node_id)
        if entry is None or not entry.resident or entry.pins == 0:
            raise CacheError(f"unpin of unpinned node {node_id!r}")
        entry.pins -= 1

    def delete(self, node_id: Hashable) -> None:
        """Drop a node entirely (after a merge frees it); no write-back."""
        entry = self._index.pop(node_id, None)
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        if entry.resident:
            self._unlink(entry)
            self.cached_bytes -= entry.nbytes

    def extent_of(self, node_id: Hashable) -> tuple[int, int]:
        """The ``(offset, nbytes)`` extent of a node, resident or not."""
        entry = self._index.get(node_id)
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        return entry.offset, entry.nbytes

    def write_many(self, node_ids: "Sequence[Hashable]") -> float:
        """Write back the listed nodes' dirty contents, in order; seconds spent.

        The write-side counterpart of :meth:`get_many`: clean or
        non-resident entries are skipped (their bytes are already on disk),
        and runs of consecutive dirty entries with equal extent size are
        charged through the device's vectorized
        :meth:`~repro.storage.device.BlockDevice.write_batch`.  Because
        ``write_batch`` is bit-identical to a serial loop of ``write`` on
        every device model, the total — and the device's clock, stats and
        RNG stream — match a serial ``device.write`` per dirty node
        exactly.
        """
        spent = 0.0
        run: list[_Entry] = []
        run_nbytes = 0

        def flush_run() -> None:
            nonlocal spent, run_nbytes
            if not run:
                return
            offsets = [e.offset for e in run]
            for dt in self.device.write_batch(offsets, run_nbytes):
                spent += dt
            for e in run:
                e.dirty = False
            run.clear()
            run_nbytes = 0

        for node_id in node_ids:
            entry = self._index.get(node_id)
            if entry is None:
                raise CacheError(f"unknown node id {node_id!r}")
            if not entry.resident or not entry.dirty:
                continue
            if run and entry.nbytes != run_nbytes:
                flush_run()
            run.append(entry)
            run_nbytes = entry.nbytes
        flush_run()
        self.io_seconds += spent
        return spent

    def write_back(self, node_id: Hashable) -> float:
        """Write back one node's dirty contents; returns device seconds.

        The scalar twin of :meth:`write_many`: a clean or non-resident
        entry costs nothing, and ``write_many(ids)`` is an IO-schedule
        optimisation of ``sum(write_back(i) for i in ids)``.
        """
        return self.write_many([node_id])

    def flush(self) -> float:
        """Write back every dirty resident node; returns device seconds.

        Write-back order is LRU-first — the same order the previous
        ``OrderedDict`` implementation flushed in, which matters because
        write order drives seek distances on mechanical devices.  Runs of
        equal-size dirty nodes go through the batched write path (see
        :meth:`write_many`), which is bit-identical to the serial loop.
        """
        return self.write_many([e.node_id for e in self._resident_lru_order()])

    def drop_clean(self) -> None:
        """Evict every unpinned resident node (dirty ones are written back).

        Used between the load phase and the measured phase of experiments to
        start from a cold cache.
        """
        for entry in self._resident_lru_order():
            if entry.pins == 0:
                self._evict(entry)

    def check_invariants(self) -> None:
        """Assert byte accounting, list integrity and residency consistency."""
        resident = [e for e in self._index.values() if e.resident]
        assert self.cached_bytes == sum(e.nbytes for e in resident)
        walked = list(self._resident_lru_order())
        assert len(walked) == self._n_resident == len(resident)
        assert {id(e) for e in walked} == {id(e) for e in resident}
        for e in walked:
            assert e.next.prev is e and e.prev.next is e
        for e in self._index.values():
            if not e.resident:
                assert e.prev is None and e.next is None and e.pins == 0

    def __len__(self) -> int:
        return self._n_resident
