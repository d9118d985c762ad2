"""Cache-oblivious B-tree: PMA storage + vEB-ordered search layer.

The dynamic dictionary the paper's "better designs" half calls for: keys
live in a :class:`~repro.trees.cob.pma.PackedMemoryArray` (one device
extent, gapped and sorted), and searches run through a perfect binary
tree over the PMA's *slots* whose nodes are stored in **van Emde Boas
order** in a second extent.  Because every recursive bottom subtree of
the vEB order is contiguous, a root-to-leaf walk touches
``O(log_B N)`` index blocks with no node-size parameter anywhere — the
structure is near-optimal under DAM, affine, and PDAM pricing alike
(Lemma 13's layout, made dynamic), where a B-tree must re-tune its node
size per model.

The index is an implicit max-augmented heap: node ``i`` holds the
largest present key in its slot subtree, with the PMA's blank sentinel
(``INT64_MIN``) doubling as ``-inf`` so blanks need no special casing.
A search for ``key`` descends left iff ``key <= node_max[left]``,
landing exactly on the successor slot (or the last slot when no
successor exists) — which is also the insertion hint the PMA wants.
After a PMA rebalance the index is repaired *lazily over the touched
range only*: leaves for the rewritten slot window, then the ancestor
cone up to the root, charged as writes to the distinct vEB blocks
covering them.  A capacity doubling rebuilds the index extent outright
with one sequential write.

IO accounting follows :mod:`repro.trees.lsm` / :mod:`repro.trees.cola`:
devices price simulated seconds only; values live beside the structure
in Python.  The top levels of the index (sized by ``ram_bytes``) are
pinned and free to search, the analogue of COLA's pinned small levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError, KeyOrderError, TreeError
from repro.obs import OBS
from repro.storage.allocator import ExtentAllocator
from repro.storage.device import BlockDevice
from repro.trees.btree.veb import VEBLayout
from repro.trees.cob.pma import EMPTY, PackedMemoryArray
from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat


@dataclass(frozen=True)
class COBConfig:
    """Tuning of one cache-oblivious B-tree.

    Like the COLA, the structure has **no node-size knob** — that is its
    point.  ``block_bytes`` only prices IO (any value gives the same
    structure), ``ram_bytes`` bounds the pinned index top, and the
    buffer fields configure :class:`BufferedCOBTree` (Theorem 9).
    """

    fmt: EntryFormat = EntryFormat()
    block_bytes: int = 4096
    ram_bytes: int = 1 << 20
    initial_slots: int = 1 << 10
    max_density: float = 0.8
    #: Buffered variant only: bucket count and per-bucket buffer extent.
    fanout: int = 16
    buffer_bytes: int = 64 << 10
    #: Buffered variant only: a bucket rebuilds the splitters when it has
    #: absorbed more than ``rebuild_factor`` times its fair share.
    rebuild_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")
        if self.ram_bytes < 0:
            raise ConfigurationError("ram_bytes must be non-negative")
        if self.initial_slots < 8 or self.initial_slots & (self.initial_slots - 1):
            raise ConfigurationError(
                f"initial_slots must be a power of two >= 8, got {self.initial_slots}"
            )
        if not 0.0 < self.max_density < 1.0:
            raise ConfigurationError("max_density must be in (0, 1)")
        if self.fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {self.fanout}")
        if self.buffer_bytes <= 0:
            raise ConfigurationError("buffer_bytes must be positive")
        if self.rebuild_factor < 1.0:
            raise ConfigurationError("rebuild_factor must be >= 1.0")
        if self.rebuild_factor >= self.fanout:
            # A bucket absorbs at most fanout x its fair share, so the
            # weight trigger would be unreachable.
            raise ConfigurationError(
                f"rebuild_factor ({self.rebuild_factor}) must be < fanout "
                f"({self.fanout})"
            )


class COBTree:
    """A cache-oblivious B-tree storing ``int -> value`` pairs."""

    def __init__(
        self,
        device: BlockDevice,
        config: COBConfig | None = None,
        *,
        allocator: ExtentAllocator | None = None,
    ) -> None:
        self.device = device
        self.config = config or COBConfig()
        self.allocator = allocator or ExtentAllocator(
            device.capacity_bytes, alignment=512
        )
        self.pma = PackedMemoryArray(
            device,
            entry_bytes=self.config.fmt.entry_bytes,
            block_bytes=self.config.block_bytes,
            initial_slots=self.config.initial_slots,
            max_density=self.config.max_density,
            allocator=self.allocator,
        )
        self.values: dict[int, Any] = {}
        self.user_bytes_modified = 0
        self.index_rebuilds = 0
        self._layout_cache: tuple[int, VEBLayout] | None = None
        self._index_offset = -1
        self._index_nbytes = 0
        # Nodes per vEB index block: 2^levels - 1, so the recursion's
        # contiguous bottom subtrees never straddle block boundaries
        # (same packing as PDAMQuerySimulator's veb_pb mode).
        entries_per_block = self.config.block_bytes // self.config.fmt.pivot_bytes
        if entries_per_block < 1:
            raise ConfigurationError(
                f"block of {self.config.block_bytes} bytes holds no "
                f"{self.config.fmt.pivot_bytes}-byte pivots"
            )
        levels_per_block = max(1, int(math.log2(entries_per_block + 1)))
        self._nodes_per_block = (1 << levels_per_block) - 1
        self._build_index(charge=False)

    # -- index layout --------------------------------------------------------

    @property
    def _height(self) -> int:
        return int(math.log2(self.pma.capacity)) + 1

    @property
    def _first_leaf(self) -> int:
        return self.pma.capacity - 1

    def _layout(self) -> VEBLayout:
        if self._layout_cache is None or self._layout_cache[0] != self._height:
            self._layout_cache = (self._height, VEBLayout(self._height))
        return self._layout_cache[1]

    @property
    def _pinned_below(self) -> int:
        """Heap indices ``< _pinned_below`` are RAM-pinned (free to read).

        The top ``L`` complete levels fit the RAM budget when
        ``(2^L - 1) * pivot_bytes <= ram_bytes``; pinning whole levels
        keeps residency independent of the vEB permutation.
        """
        budget = self.config.ram_bytes // self.config.fmt.pivot_bytes
        levels = min(self._height, max(0, (budget + 1).bit_length() - 1))
        return (1 << levels) - 1

    def _build_index(self, *, charge: bool) -> None:
        """(Re)compute the whole max-heap and rewrite the index extent."""
        capacity = self.pma.capacity
        n_nodes = 2 * capacity - 1
        node_max = np.empty(n_nodes, dtype=np.int64)
        node_max[self._first_leaf :] = self.pma.keys
        for lvl in range(self._height - 2, -1, -1):
            lo, hi = (1 << lvl) - 1, (1 << (lvl + 1)) - 1
            node_max[lo:hi] = np.maximum(
                node_max[2 * lo + 1 : 2 * hi : 2], node_max[2 * lo + 2 : 2 * hi + 1 : 2]
            )
        self._node_max = node_max
        if self._index_offset >= 0:
            self.allocator.free(self._index_offset, self._index_nbytes)
        n_blocks = math.ceil(n_nodes / self._nodes_per_block)
        self._index_nbytes = n_blocks * self.config.block_bytes
        self._index_offset = self.allocator.alloc(self._index_nbytes)
        if charge:
            self.index_rebuilds += 1
            self.device.write(self._index_offset, self._index_nbytes)

    def _charge_index_path(self, path: list[int]) -> None:
        """Charge reads of the distinct unpinned vEB blocks on a root-to-leaf
        path, in ascending block order (deterministic)."""
        pinned_below = self._pinned_below
        unpinned = [i for i in path if i >= pinned_below]
        if not unpinned:
            return
        position = self._layout().position
        blocks = np.unique(position[unpinned] // self._nodes_per_block)
        for blk in blocks:
            self.device.read(
                self._index_offset + int(blk) * self.config.block_bytes,
                self.config.block_bytes,
            )

    def _update_index(self, slot_lo: int, slot_hi: int, resized: bool) -> None:
        """Repair the heap over slots ``[slot_lo, slot_hi)`` after the PMA
        rewrote them; charge writes of the covering vEB blocks."""
        if resized:
            self._build_index(charge=True)
            return
        node_max = self._node_max
        lo, hi = self._first_leaf + slot_lo, self._first_leaf + slot_hi
        node_max[lo:hi] = self.pma.keys[slot_lo:slot_hi]
        touched = [np.arange(lo, hi, dtype=np.int64)]
        while lo > 0:
            lo, hi = (lo - 1) >> 1, (((hi - 1) - 1) >> 1) + 1
            node_max[lo:hi] = np.maximum(
                node_max[2 * lo + 1 : 2 * hi : 2], node_max[2 * lo + 2 : 2 * hi + 1 : 2]
            )
            touched.append(np.arange(lo, hi, dtype=np.int64))
        nodes = np.concatenate(touched)
        nodes = nodes[nodes >= self._pinned_below]
        if nodes.size == 0:
            return
        blocks = np.unique(self._layout().position[nodes] // self._nodes_per_block)
        # Coalesce adjacent dirty blocks into sequential writes.
        runs = np.split(blocks, np.flatnonzero(np.diff(blocks) > 1) + 1)
        for run in runs:
            self.device.write(
                self._index_offset + int(run[0]) * self.config.block_bytes,
                run.size * self.config.block_bytes,
            )

    # -- search --------------------------------------------------------------

    def _search_path(self, key: int) -> list[int]:
        """Heap indices from the root to the leaf of ``key``'s successor slot
        (the last slot when the tree holds no key ``>= key``)."""
        node_max = self._node_max
        path = []
        i = 0
        first_leaf = self._first_leaf
        while i < first_leaf:
            path.append(i)
            left = 2 * i + 1
            i = left if key <= node_max[left] else left + 1
        path.append(i)
        return path

    def _slot_of(self, path: list[int]) -> int:
        return path[-1] - self._first_leaf

    # -- write path ----------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``."""
        self.user_bytes_modified += self.config.fmt.entry_bytes
        key = int(key)
        path = self._search_path(key)
        self._charge_index_path(path)
        slot = self._slot_of(path)
        if key in self.values:
            # Overwrite in place: the slot's data block is rewritten and
            # the index is untouched.
            self.values[key] = value
            self.pma.charge_slot_write(slot)
            return
        self.values[key] = value
        lo, hi, resized = self.pma.insert(key, slot)
        self._update_index(lo, hi, resized)

    put = insert

    def put_many(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """Insert many pairs, identical in accounting to an insert loop.

        Contract (as for the other trees, ``tests/trees/test_put_many.py``):
        device clock, stats, and structural state must match calling
        :meth:`insert` once per pair exactly — the batch only removes
        Python-level overhead.
        """
        insert = self.insert
        for key, value in pairs:
            insert(key, value)

    def delete(self, key: int) -> None:
        """Remove ``key``; raises ``TreeError`` if absent."""
        key = int(key)
        path = self._search_path(key)
        self._charge_index_path(path)
        slot = self._slot_of(path)
        if key not in self.values or bool(self.pma.keys[slot] != key):
            raise TreeError(f"key {key} not present")
        self.user_bytes_modified += self.config.fmt.entry_bytes
        del self.values[key]
        self.pma.delete(slot)
        seg_lo = self.pma.segment_of(slot) * self.pma.segment_slots
        self._update_index(seg_lo, seg_lo + self.pma.segment_slots, False)

    def put_bulk(self, pairs: list[tuple[int, Any]]) -> None:
        """Merge a key-sorted batch in one PMA rebalance.

        The primitive behind the buffered variant's flushes: one window
        covering the whole run is redistributed once, so ``m`` inserts
        cost one rebalance instead of ``m``.  Keys must be strictly
        increasing; existing keys are overwritten.
        """
        if not pairs:
            return
        self.user_bytes_modified += self.config.fmt.entry_bytes * len(pairs)
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        # Compare, don't diff: int64 subtraction overflows when adjacent
        # keys are more than 2^63 apart.
        if np.any(keys[1:] <= keys[:-1]):
            raise KeyOrderError("put_bulk needs strictly increasing keys")
        fresh = np.array([int(k) not in self.values for k in keys], dtype=bool)
        for k, v in pairs:
            self.values[int(k)] = v
        if not fresh.any():
            # Pure overwrite: rewrite the covered data blocks, index untouched.
            lo_path = self._search_path(int(keys[0]))
            self._charge_index_path(lo_path)
            slot_lo = self._slot_of(lo_path)
            slot_hi = self._slot_of(self._search_path(int(keys[-1])))
            self.pma._charge_span(slot_lo, slot_hi + 1, read=False, write=True)
            return
        new_keys = keys[fresh]
        lo_path = self._search_path(int(new_keys[0]))
        self._charge_index_path(lo_path)
        slot_lo = self._slot_of(lo_path)
        slot_hi = self._slot_of(self._search_path(int(new_keys[-1])))
        lo, hi, resized = self.pma.bulk_insert(new_keys, slot_lo, slot_hi)
        self._update_index(lo, hi, resized)
        if resized or fresh.all():
            return
        # Mixed batch: overwritten keys outside the rebalanced window never
        # moved, so the window rewrite above did not cover them.  Charge
        # their data blocks like the pure-overwrite branch does, one
        # covering span on each side of the window.
        slots = np.flatnonzero(np.isin(self.pma.keys, keys[~fresh]))
        for side in (slots[slots < lo], slots[slots >= hi]):
            if side.size:
                self.pma._charge_span(
                    int(side[0]), int(side[-1]) + 1, read=False, write=True
                )

    def bulk_load(self, pairs: list[tuple[int, Any]]) -> None:
        """Load a key-sorted batch into an *empty* tree sequentially."""
        if len(self.values):
            raise TreeError("bulk_load requires an empty tree")
        if not pairs:
            return
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        if np.any(keys[1:] <= keys[:-1]):
            raise KeyOrderError("bulk_load needs strictly increasing keys")
        self.user_bytes_modified += self.config.fmt.entry_bytes * len(pairs)
        self.values = {int(k): v for k, v in pairs}
        self.pma.load(keys)
        self._build_index(charge=True)

    # -- read path -----------------------------------------------------------

    def get(self, key: int) -> Any | None:
        """Point query; returns the value or ``None``."""
        if OBS.enabled:
            start = self.device.clock
        key = int(key)
        path = self._search_path(key)
        self._charge_index_path(path)
        slot = self._slot_of(path)
        hit = bool(self.pma.keys[slot] == key)
        if hit:
            self.pma.charge_slot_read(slot)
        if OBS.enabled:
            OBS.op_event("cob.query", start, self.device.clock, key=key)
        return self.values.get(key) if hit else None

    def get_many(self, keys: Iterable[int]) -> list[Any | None]:
        """Batched point queries, accounting-identical to a ``get`` loop."""
        get = self.get
        return [get(key) for key in keys]

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order.

        One index descent to the start, then one sequential read of the
        slot span covering the answer — the PMA's gapped-but-sorted
        layout is what makes ranges a single scan.
        """
        if lo > hi:
            return []
        path = self._search_path(int(lo))
        self._charge_index_path(path)
        pk = self.pma.keys
        mask = (pk != EMPTY) & (pk >= lo) & (pk <= hi)
        slots = np.flatnonzero(mask)
        if slots.size == 0:
            return []
        self.pma._charge_span(int(slots[0]), int(slots[-1]) + 1, read=True, write=False)
        return [(int(k), self.values[int(k)]) for k in pk[slots]]

    def items(self) -> Iterator[tuple[int, Any]]:
        """All pairs in key order."""
        yield from self.range(KEY_MIN, KEY_MAX)

    def __len__(self) -> int:
        return self.pma.n

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert PMA state, heap consistency, and value bookkeeping."""
        self.pma.check_invariants()
        if self.pma.n != len(self.values):
            raise TreeError(
                f"{self.pma.n} slots occupied but {len(self.values)} values"
            )
        present = self.pma.present_keys()
        if set(int(k) for k in present) != set(self.values):
            raise TreeError("PMA keys and value map diverged")
        node_max = self._node_max
        if node_max.size != 2 * self.pma.capacity - 1:
            raise TreeError("index heap sized for a different capacity")
        if not np.array_equal(node_max[self._first_leaf :], self.pma.keys):
            raise TreeError("index leaves do not mirror the PMA")
        internal = node_max[: self._first_leaf]
        recomputed = np.maximum(
            node_max[1 : 2 * self._first_leaf : 2],
            node_max[2 : 2 * self._first_leaf + 1 : 2],
        )
        if not np.array_equal(internal, recomputed):
            raise TreeError("index heap max-augmentation broken")
