"""Byte-budgeted B-tree over a simulated storage stack.

The tree follows the paper's Section 3 description: a balanced search tree
with "fat nodes of size B" — here ``B`` is a byte budget, so a leaf holds
``~B/entry_bytes`` pairs and an internal node ``~B/pivot_bytes`` children.
All node IOs move the full ``node_bytes`` extent, which is what makes the
affine per-op cost ``(1 + alpha*B) * log_B(N/M)`` (Lemma 5) and the
write amplification ``Theta(B)`` (Lemma 3).

Structural algorithms are the classic single-pass top-down ones: inserts
split any full child *before* descending; deletes refill any minimal child
(borrow from a sibling or merge) before descending.  Both therefore touch
each level once, matching the one-IO-per-level cost model.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import ConfigurationError, TreeError
from repro.obs import OBS
from repro.storage.stack import StorageStack
from repro.trees.btree.node import BTreeNode
from repro.trees.sizing import EntryFormat, sorted_columns


@dataclass(frozen=True)
class BTreeConfig:
    """Tuning of one B-tree instance.

    Parameters
    ----------
    node_bytes:
        The node size ``B`` — the single knob the paper's Figure 2 sweeps.
    fmt:
        Key/value/pointer widths.
    bulk_fill:
        Target fill fraction for :meth:`BTree.bulk_load` (leaves and
        internals), default 0.9 as in typical bulk loaders.
    """

    node_bytes: int = 65536
    fmt: EntryFormat = EntryFormat()
    bulk_fill: float = 0.9

    def __post_init__(self) -> None:
        # Validate capacities up front (raises ConfigurationError if tiny).
        if not 0.1 <= self.bulk_fill <= 1.0:
            raise ConfigurationError(f"bulk_fill must be in [0.1, 1], got {self.bulk_fill}")
        self.fmt.leaf_capacity(self.node_bytes)
        self.fmt.internal_capacity(self.node_bytes)

    @property
    def leaf_capacity(self) -> int:
        """Max entries per leaf."""
        return self.fmt.leaf_capacity(self.node_bytes)

    @property
    def internal_capacity(self) -> int:
        """Max children per internal node."""
        return self.fmt.internal_capacity(self.node_bytes)


class BTree:
    """A B-tree dictionary storing ``int -> value`` pairs.

    All methods charge simulated device time through ``storage``; read the
    elapsed time from ``storage.io_seconds`` before/after an operation.
    """

    def __init__(self, storage: StorageStack, config: BTreeConfig | None = None) -> None:
        self.storage = storage
        self.config = config or BTreeConfig()
        self._next_id = 0
        self._count = 0
        self.user_bytes_modified = 0  # for write-amplification (Definition 3)
        root = self._new_node(is_leaf=True)
        self.root_id = root.node_id

    # -- node lifecycle -------------------------------------------------------

    def _new_node(self, *, is_leaf: bool) -> BTreeNode:
        node = BTreeNode(self._next_id, is_leaf)
        self._next_id += 1
        # Every node owns a full node_bytes extent regardless of fill: B-tree
        # IOs always move whole nodes.
        self.storage.create(node.node_id, node, self.config.node_bytes)
        return node

    def _get(self, node_id: int) -> BTreeNode:
        node = self.storage.get(node_id)
        assert isinstance(node, BTreeNode)
        return node

    def _dirty(self, node: BTreeNode) -> None:
        self.storage.mark_dirty(node.node_id)

    def _free(self, node: BTreeNode) -> None:
        self.storage.destroy(node.node_id)

    # -- basic properties -------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Levels from root to leaf inclusive (1 for a lone leaf root)."""
        h = 1
        node = self._get(self.root_id)
        while not node.is_leaf:
            node = self._get(node.children[0])
            h += 1
        return h

    # -- lookup -------------------------------------------------------------------

    def get(self, key: int) -> Any | None:
        """Point query; returns the value or ``None``."""
        if OBS.enabled:
            start = self.storage.device.clock
            value = self._lookup(key)
            OBS.op_event("btree.query", start, self.storage.device.clock, key=key)
            return value
        return self._lookup(key)

    def _lookup(self, key: int) -> Any | None:
        node = self._get(self.root_id)
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = self._get(node.children[idx])
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            return node.values[i]
        return None

    def get_many(self, keys: list[int]) -> list[Any | None]:
        """Batched point queries; values (or ``None``) in input order.

        Descends level-synchronized: all lookups sit at the same depth (the
        tree is height-balanced), so each level needs one
        :meth:`~repro.storage.stack.StorageStack.read_many` of the distinct
        nodes the batch touches, in first-need order.  Two lookups sharing
        a node fetch it once — a batch of ``k`` point queries costs at most
        ``k`` leaf IOs plus the shared internal nodes, with the per-IO
        Python dispatch paid once per level instead of once per node.
        """
        if OBS.enabled:
            start = self.storage.device.clock
            values = self._lookup_many(keys)
            OBS.op_event(
                "btree.query_batch", start, self.storage.device.clock, n=len(keys)
            )
            return values
        return self._lookup_many(keys)

    def _lookup_many(self, keys: list[int]) -> list[Any | None]:
        results: list[Any | None] = [None] * len(keys)
        if not keys:
            return results
        at: list[int] = [self.root_id] * len(keys)  # current node id per key
        while True:
            distinct: list[int] = []
            seen: set[int] = set()
            for node_id in at:
                if node_id not in seen:
                    seen.add(node_id)
                    distinct.append(node_id)
            nodes = dict(zip(distinct, self.storage.read_many(distinct)))
            sample = nodes[at[0]]
            assert isinstance(sample, BTreeNode)
            if sample.is_leaf:
                break
            for i, key in enumerate(keys):
                node = nodes[at[i]]
                at[i] = node.children[bisect.bisect_right(node.keys, key)]
        for i, key in enumerate(keys):
            leaf = nodes[at[i]]
            j = bisect.bisect_left(leaf.keys, key)
            if j < len(leaf.keys) and leaf.keys[j] == key:
                results[i] = leaf.values[j]
        return results

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    # -- insert ---------------------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``."""
        root = self._get(self.root_id)
        if self._is_full(root):
            self._grow_root()
            root = self._get(self.root_id)
        node = root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            child = self._get(node.children[idx])
            if self._is_full(child):
                self._split_child(node, idx)
                # The split may have changed which side the key belongs to.
                idx = bisect.bisect_right(node.keys, key)
                child = self._get(node.children[idx])
            node = child
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            node.values[i] = value
        else:
            node.keys.insert(i, key)
            node.values.insert(i, value)
            self._count += 1
        self.user_bytes_modified += self.config.fmt.entry_bytes
        self._dirty(node)

    def put_many(self, pairs: list[tuple[int, Any]]) -> None:
        """Batched inserts: identical to a serial loop of :meth:`insert`.

        A B-tree insert is structural top to bottom (splits happen on the
        way down), so there is no per-message work to batch away; this
        entry point exists so batch-aware callers can treat all trees
        uniformly, and hoists only the method lookup.
        """
        insert = self.insert
        for key, value in pairs:
            insert(key, value)

    def _is_full(self, node: BTreeNode) -> bool:
        if node.is_leaf:
            return len(node.keys) >= self.config.leaf_capacity
        return len(node.children) >= self.config.internal_capacity

    def _grow_root(self) -> None:
        """Add a new root above a full root, then split the old root."""
        old_root = self._get(self.root_id)
        new_root = self._new_node(is_leaf=False)
        new_root.children = [old_root.node_id]
        self.root_id = new_root.node_id
        self._dirty(new_root)
        self._split_child(new_root, 0)

    def _split_child(self, parent: BTreeNode, idx: int) -> None:
        """Split ``parent.children[idx]`` into two; parent gains one pivot."""
        if OBS.enabled:
            start = self.storage.device.clock
            self._split_child_impl(parent, idx)
            OBS.op_event("btree.split", start, self.storage.device.clock)
            return
        self._split_child_impl(parent, idx)

    def _split_child_impl(self, parent: BTreeNode, idx: int) -> None:
        child = self._get(parent.children[idx])
        right = self._new_node(is_leaf=child.is_leaf)
        if child.is_leaf:
            mid = len(child.keys) // 2
            right.keys = child.keys[mid:]
            right.values = child.values[mid:]
            del child.keys[mid:]
            del child.values[mid:]
            separator = right.keys[0]
        else:
            mid = len(child.children) // 2
            # Pivot keys: child has len(children)-1 keys; key[mid-1] moves up.
            separator = child.keys[mid - 1]
            right.keys = child.keys[mid:]
            right.children = child.children[mid:]
            del child.keys[mid - 1 :]
            del child.children[mid:]
        parent.keys.insert(idx, separator)
        parent.children.insert(idx + 1, right.node_id)
        self._dirty(child)
        self._dirty(right)
        self._dirty(parent)

    # -- delete --------------------------------------------------------------------

    def delete(self, key: int) -> bool:
        """Delete ``key``; returns whether it was present.

        Single-pass top-down: before descending into a child at minimum
        occupancy, refill it by borrowing from a sibling or merging.
        """
        node = self._get(self.root_id)
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            child = self._get(node.children[idx])
            if self._is_minimal(child):
                idx = self._refill_child(node, idx)
                child = self._get(node.children[idx])
            # Collapse a root left with a single child.
            if node.node_id == self.root_id and len(node.children) == 1:
                self.root_id = node.children[0]
                self._free(node)
            node = child
        i = bisect.bisect_left(node.keys, key)
        if i >= len(node.keys) or node.keys[i] != key:
            return False
        del node.keys[i]
        del node.values[i]
        self._count -= 1
        self.user_bytes_modified += self.config.fmt.entry_bytes
        self._dirty(node)
        return True

    def _min_occupancy(self, node: BTreeNode) -> int:
        if node.is_leaf:
            return max(1, self.config.leaf_capacity // 4)
        return max(2, self.config.internal_capacity // 4)

    def _is_minimal(self, node: BTreeNode) -> bool:
        if node.is_leaf:
            return len(node.keys) <= self._min_occupancy(node)
        return len(node.children) <= self._min_occupancy(node)

    def _refill_child(self, parent: BTreeNode, idx: int) -> int:
        """Bring ``parent.children[idx]`` above minimal occupancy.

        Borrows from an adjacent sibling when it has spare entries, merges
        with it otherwise.  Returns the (possibly changed) child index the
        descent should continue into.
        """
        child = self._get(parent.children[idx])
        left = self._get(parent.children[idx - 1]) if idx > 0 else None
        right = (
            self._get(parent.children[idx + 1])
            if idx + 1 < len(parent.children)
            else None
        )
        if left is not None and not self._is_minimal(left):
            self._borrow_from_left(parent, idx, left, child)
            return idx
        if right is not None and not self._is_minimal(right):
            self._borrow_from_right(parent, idx, child, right)
            return idx
        # Merge with a sibling (prefer left so indices shift predictably).
        if left is not None:
            self._merge(parent, idx - 1, left, child)
            return idx - 1
        assert right is not None, "non-root internal node must have a sibling"
        self._merge(parent, idx, child, right)
        return idx

    def _borrow_from_left(
        self, parent: BTreeNode, idx: int, left: BTreeNode, child: BTreeNode
    ) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self._dirty(left)
        self._dirty(child)
        self._dirty(parent)

    def _borrow_from_right(
        self, parent: BTreeNode, idx: int, child: BTreeNode, right: BTreeNode
    ) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self._dirty(right)
        self._dirty(child)
        self._dirty(parent)

    def _merge(
        self, parent: BTreeNode, left_idx: int, left: BTreeNode, right: BTreeNode
    ) -> None:
        """Merge ``right`` into ``left``; parent loses one pivot."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
        else:
            left.keys.append(parent.keys[left_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_idx]
        del parent.children[left_idx + 1]
        self._free(right)
        self._dirty(left)
        self._dirty(parent)

    # -- range queries -----------------------------------------------------------

    def range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return []
        out: list[tuple[int, Any]] = []
        self._range_into(self.root_id, lo, hi, out)
        return out

    def _range_into(self, node_id: int, lo: int, hi: int, out: list) -> None:
        node = self._get(node_id)
        if node.is_leaf:
            i = bisect.bisect_left(node.keys, lo)
            j = bisect.bisect_right(node.keys, hi)
            out.extend(zip(node.keys[i:j], node.values[i:j]))
            return
        first = bisect.bisect_right(node.keys, lo)
        last = bisect.bisect_right(node.keys, hi)
        for idx in range(first, last + 1):
            self._range_into(node.children[idx], lo, hi, out)

    def items(self) -> Iterator[tuple[int, Any]]:
        """All pairs in key order.

        An iterative depth-first leaf walk: nodes are fetched in the same
        order, and at the same points between yields, as a recursive
        descent would fetch them, without a generator frame per level.
        """
        get = self._get
        pending = [self.root_id]
        while pending:
            node = get(pending.pop())
            if node.is_leaf:
                yield from zip(node.keys, node.values)
            else:
                pending.extend(reversed(node.children))

    # -- bulk load -----------------------------------------------------------------

    def bulk_load(self, pairs: list[tuple[int, Any]]) -> None:
        """Replace the tree's contents with sorted ``pairs``.

        Builds leaves left to right at ``bulk_fill`` occupancy and stacks
        internal levels on top.  With a first-fit allocator this lays the
        tree out nearly sequentially on disk — a *fresh* (unaged) tree.
        Raises :class:`~repro.errors.KeyOrderError` unless keys strictly
        increase; an empty ``pairs`` is a no-op.
        """
        if self._count:
            raise TreeError("bulk_load requires an empty tree")
        keys, values = sorted_columns(pairs)
        if not keys:
            return
        old_root = self._get(self.root_id)
        self._free(old_root)

        # Each level is two parallel columns: its nodes' first keys and ids.
        per_leaf = max(2, int(self.config.leaf_capacity * self.config.bulk_fill))
        firsts = keys[::per_leaf]
        ids: list[int] = []
        for start in range(0, len(keys), per_leaf):
            leaf = self._new_node(is_leaf=True)
            leaf.keys = keys[start : start + per_leaf]
            leaf.values = values[start : start + per_leaf]
            self._dirty(leaf)
            ids.append(leaf.node_id)
        self._count = len(keys)
        self.user_bytes_modified += len(keys) * self.config.fmt.entry_bytes

        per_internal = max(2, int(self.config.internal_capacity * self.config.bulk_fill))
        while len(ids) > 1:
            next_firsts: list[int] = []
            next_ids: list[int] = []
            for start in range(0, len(ids), per_internal):
                if start == len(ids) - 1 and next_ids:
                    # Avoid a 1-child internal node: fold into the previous group.
                    prev = self._get(next_ids[-1])
                    prev.keys.append(firsts[start])
                    prev.children.append(ids[start])
                    self._dirty(prev)
                    continue
                node = self._new_node(is_leaf=False)
                node.children = ids[start : start + per_internal]
                node.keys = firsts[start + 1 : start + per_internal]
                self._dirty(node)
                next_firsts.append(firsts[start])
                next_ids.append(node.node_id)
            firsts, ids = next_firsts, next_ids
        self.root_id = ids[0]

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert search-tree order, balanced height, and byte budgets."""
        leaf_depths: set[int] = set()
        n = self._check_node(self.root_id, None, None, 0, leaf_depths)
        if n != self._count:
            raise TreeError(f"count mismatch: walked {n}, recorded {self._count}")
        if len(leaf_depths) > 1:
            raise TreeError(f"leaves at multiple depths: {sorted(leaf_depths)}")

    def _check_node(
        self,
        node_id: int,
        lo: int | None,
        hi: int | None,
        depth: int,
        leaf_depths: set[int],
    ) -> int:
        node = self._get(node_id)
        fmt = self.config.fmt
        if node.nbytes(fmt) > self.config.node_bytes:
            raise TreeError(
                f"node {node_id} overflows budget: {node.nbytes(fmt)} > {self.config.node_bytes}"
            )
        for a, b in zip(node.keys, node.keys[1:]):
            if a >= b:
                raise TreeError(f"node {node_id} keys out of order: {a} >= {b}")
        for k in node.keys:
            if (lo is not None and k < lo) or (hi is not None and k >= hi):
                raise TreeError(f"node {node_id} key {k} outside ({lo}, {hi})")
        if node.is_leaf:
            if len(node.keys) != len(node.values):
                raise TreeError(f"leaf {node_id} keys/values length mismatch")
            leaf_depths.add(depth)
            return len(node.keys)
        if len(node.children) != len(node.keys) + 1:
            raise TreeError(f"internal {node_id} has {len(node.children)} children, "
                            f"{len(node.keys)} keys")
        total = 0
        bounds = [lo] + list(node.keys) + [hi]
        for i, child in enumerate(node.children):
            total += self._check_node(child, bounds[i], bounds[i + 1], depth + 1, leaf_depths)
        return total
