"""Theorem 9's weight-balanced rebuild scheme.

    "Define the weight of a node to be the number of leaves in the node's
    subtree.  We maintain the following weight-balanced invariant.  Each
    nonroot node u at height h satisfies

        F^h (1 - 1/log F) <= weight(u) <= F^h (1 + 1/log F).

    The root just maintains the upper bound on the weight, but not the
    lower bound.  Whenever a node u gets out of balance ... we rebuild the
    subtree rooted at u's parent v from scratch, reestablishing the
    balancing invariant."

The paper uses this scheme to pin the fanout to ``(1 ± O(1/log F)) F`` so
the query bound holds *up to lower-order terms*.  The split-based trees
keep fanout within ``[~F/2, 2F]``, which preserves every leading-order
cost; this module supplies the tighter maintenance for completeness and
for the invariant tests.

The entry point, :func:`rebuild_weight_balance`, scans a Bε-tree for the
deepest out-of-balance node and rebuilds its parent's subtree: all leaf
entries below the parent are collected with every pending buffered message
applied, then re-cut into a perfectly balanced subtree with exact target
fanout.  Amortization (the paper charges ``O(alpha log F)`` per update) is
the caller's business — tests and maintenance loops invoke it explicitly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import TreeError
from repro.trees.betree.node import BeNode, SegmentBuffer
from repro.trees.sizing import KEY_MAX, KEY_MIN, sorted_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trees.betree.tree import BeTree


def weight_bounds(fanout: int, height: int) -> tuple[float, float]:
    """The Theorem 9 weight window for a nonroot node at ``height``.

    Height 0 is a leaf (weight exactly 1, trivially balanced); the bounds
    apply to internal nodes.
    """
    if fanout < 2:
        raise TreeError(f"fanout must be >= 2, got {fanout}")
    slack = 1.0 / math.log2(fanout) if fanout > 2 else 0.9
    target = float(fanout**height)
    return target * (1.0 - slack), target * (1.0 + slack)


def node_weights(tree: "BeTree") -> dict[int, tuple[int, int]]:
    """``node_id -> (height, weight)`` for every node of the tree."""
    out: dict[int, tuple[int, int]] = {}

    def walk(nid: int) -> tuple[int, int]:
        node = tree._get(nid)
        if node.is_leaf:
            out[nid] = (0, 1)
            return 0, 1
        height, weight = 0, 0
        for child in node.children:
            h, w = walk(child)
            height = max(height, h + 1)
            weight += w
        out[nid] = (height, weight)
        return height, weight

    walk(tree.root_id)
    return out


def find_unbalanced(tree: "BeTree") -> int | None:
    """Id of some out-of-balance nonroot node, or ``None`` if balanced.

    The root is only checked against the upper bound, per the paper.
    """
    fanout = tree.config.target_fanout
    weights = node_weights(tree)
    for nid, (height, weight) in weights.items():
        if height == 0:
            continue
        lo, hi = weight_bounds(fanout, height)
        if nid == tree.root_id:
            if weight > hi:
                return nid
            continue
        if not lo <= weight <= hi:
            return nid
    return None


def _parent_of(tree: "BeTree", target: int) -> int | None:
    """Id of ``target``'s parent (``None`` for the root)."""

    def walk(nid: int) -> int | None:
        node = tree._get(nid)
        if node.is_leaf:
            return None
        for child in node.children:
            if child == target:
                return nid
            found = walk(child)
            if found is not None:
                return found
        return None

    return None if target == tree.root_id else walk(tree.root_id)


def _collect_subtree(tree: "BeTree", nid: int) -> list[tuple[int, object]]:
    """All live entries below ``nid`` with pending messages applied."""
    entries: dict[int, object] = {}
    msgs: list = []
    tree._collect_range(nid, KEY_MIN, KEY_MAX, entries, msgs)
    msgs.sort()
    from repro.trees.betree.messages import MessageOp

    for m in msgs:
        if m.op is MessageOp.INSERT:
            entries[m.key] = m.value
        elif m.op is MessageOp.DELETE:
            entries.pop(m.key, None)
        else:
            entries[m.key] = entries.get(m.key, 0) + m.value
    return sorted(entries.items())


def _free_subtree(tree: "BeTree", nid: int) -> None:
    node = tree._get(nid)
    if not node.is_leaf:
        for child in list(node.children):
            _free_subtree(tree, child)
    tree._free(node)


def _subtree_height_for(fanout: int, n_leaves: int) -> int:
    """Height of a weight-balanced tree over ``n_leaves`` (leaf = 0).

    The smallest height whose *upper* weight bound admits ``n_leaves`` —
    the root is exempt from the lower bound, and choosing one level more
    would force children below their lower bounds (e.g. 67 leaves at
    F = 8 must be a height-2 tree with ~7 children, not a height-3 one
    with two 34-leaf children).
    """
    height = 0
    while weight_bounds(fanout, height)[1] < n_leaves:
        height += 1
    return height


def _build_balanced(tree: "BeTree", pairs: list[tuple[int, object]]) -> int:
    """Build a weight-balanced subtree over ``pairs``; returns its root id.

    Entries are cut into near-equal leaves, then the leaf range is split
    top-down: at height ``h`` a node takes the smallest child count that
    keeps each child's weight at most ``F^(h-1) (1 + 1/log F)``; near-equal
    splitting then keeps it above the lower bound too.  The subtree's own
    root may sit below its level's lower bound (the paper exempts the root).
    """
    assert pairs, "cannot build a balanced subtree over nothing"
    fanout = tree.config.target_fanout
    slack = 1.0 / math.log2(fanout) if fanout > 2 else 0.9
    cap = max(2, int(tree.config.leaf_capacity * tree.config.bulk_fill))
    n_leaves = max(1, math.ceil(len(pairs) / cap))

    # Near-equal leaf cuts, sliced from the key and value columns.
    keys, values = sorted_columns(pairs)
    base, extra = divmod(len(pairs), n_leaves)
    leaves: list[tuple[int, int]] = []  # (first_key, node_id)
    pos = 0
    for i in range(n_leaves):
        take = base + (1 if i < extra else 0)
        leaf = tree._new_node(is_leaf=True)
        leaf.keys = keys[pos : pos + take]
        leaf.values = values[pos : pos + take]
        pos += take
        tree._dirty(leaf)
        leaves.append((leaf.keys[0], leaf.node_id))

    def build(lo: int, hi: int, height: int) -> int:
        n = hi - lo
        if height == 0:
            assert n == 1
            return leaves[lo][1]
        target = fanout ** (height - 1)
        # Child weights are integral leaf counts, so the per-child maximum
        # floors (at height 1 this forces one leaf per child).
        max_child = max(1, math.floor(target * (1.0 + slack)))
        g = max(2, math.ceil(n / max_child))
        g = min(g, n)
        node = tree._new_node(is_leaf=False)
        child_base, child_extra = divmod(n, g)
        start = lo
        for i in range(g):
            take = child_base + (1 if i < child_extra else 0)
            child_id = build(start, start + take, height - 1)
            node.children.append(child_id)
            if i > 0:
                node.pivots.append(leaves[start][0])
            node.segments.append(SegmentBuffer())
            start += take
        tree._dirty(node)
        return node.node_id

    if n_leaves == 1:
        return leaves[0][1]
    return build(0, n_leaves, _subtree_height_for(fanout, n_leaves))


def _predicted_height(tree: "BeTree", n_pairs: int) -> int:
    """Height (leaf = 0) of the subtree :func:`_build_balanced` would make."""
    cap = max(2, int(tree.config.leaf_capacity * tree.config.bulk_fill))
    n_leaves = max(1, math.ceil(n_pairs / cap))
    return _subtree_height_for(tree.config.target_fanout, n_leaves)


def rebuild_weight_balance(tree: "BeTree", *, max_rebuilds: int = 64) -> int:
    """Rebuild until the Theorem 9 weight invariant holds; returns rebuilds.

    Each round finds one out-of-balance node ``u`` and rebuilds the subtree
    of ``u``'s parent from scratch, exactly as the paper prescribes.  When
    the rebuilt subtree would change height (global leaf depth must stay
    uniform) — or when ``u`` is the root or a root child — the whole tree
    is rebuilt instead.
    """
    rebuilds = 0
    while rebuilds < max_rebuilds:
        bad = find_unbalanced(tree)
        if bad is None:
            return rebuilds
        parent = _parent_of(tree, bad)
        target = parent if parent is not None else tree.root_id
        grandparent = _parent_of(tree, target) if target != tree.root_id else None

        if grandparent is not None:
            old_height = node_weights(tree)[target][0]
            pairs = _collect_subtree(tree, target)
            if pairs and _predicted_height(tree, len(pairs)) == old_height:
                gp = tree._get(grandparent)
                idx = gp.children.index(target)
                # Messages buffered above stay above: they route by pivots.
                _free_subtree(tree, target)
                gp.children[idx] = _build_balanced(tree, pairs)
                tree._dirty_pivots(gp)
                rebuilds += 1
                continue
            # Height would change: escalate to a whole-tree rebuild.

        pairs = _collect_subtree(tree, tree.root_id)
        _free_subtree(tree, tree.root_id)
        if not pairs:
            tree.root_id = tree._new_node(is_leaf=True).node_id
        else:
            tree.root_id = _build_balanced(tree, pairs)
        rebuilds += 1
    raise TreeError(f"weight balance did not converge after {max_rebuilds} rebuilds")


def check_weight_balance(tree: "BeTree") -> None:
    """Assert the Theorem 9 invariant (used by tests after maintenance)."""
    bad = find_unbalanced(tree)
    if bad is not None:
        weights = node_weights(tree)
        h, w = weights[bad]
        lo, hi = weight_bounds(tree.config.target_fanout, h)
        raise TreeError(
            f"node {bad} at height {h} has weight {w}, outside [{lo:.1f}, {hi:.1f}]"
        )
