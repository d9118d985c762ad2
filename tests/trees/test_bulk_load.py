"""One bulk-load contract for every tree that offers ``bulk_load``.

Each kind must reject unsorted or duplicate keys with
:class:`~repro.errors.KeyOrderError`, treat an empty list as a no-op,
refuse to load into a non-empty tree, and build exactly the layout and
device charges pinned by a checked-in golden.  The golden holds
``_load_record`` for every kind, captured before the loaders became
columnar, so a loader rewrite that moves a key between leaves or
changes one simulated IO fails here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import KeyOrderError, TreeError
from repro.storage.hdd import HDDGeometry, SimulatedHDD
from repro.storage.stack import StorageStack
from repro.trees.betree import BeTree, BeTreeConfig, OptimizedBeTree
from repro.trees.btree import BTree, BTreeConfig
from repro.trees.cob import BufferedCOBTree, COBConfig, COBTree
from repro.trees.sizing import EntryFormat

GOLDEN = Path(__file__).parent / "fixtures" / "bulk_load_golden.json"

FMT = EntryFormat(value_bytes=20)


def _hdd():
    return SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=1)


def _make_btree():
    stack = StorageStack(_hdd(), cache_bytes=8 << 10)
    return BTree(stack, BTreeConfig(node_bytes=512, fmt=FMT)), stack.device


def _make_betree():
    stack = StorageStack(_hdd(), cache_bytes=16 << 10)
    return BeTree(stack, BeTreeConfig(node_bytes=2048, fanout=4, fmt=FMT)), stack.device


def _make_opt_betree():
    stack = StorageStack(_hdd(), cache_bytes=16 << 10)
    cfg = BeTreeConfig(node_bytes=2048, fanout=4, fmt=FMT)
    return OptimizedBeTree(stack, cfg), stack.device


def _make_cob():
    dev = _hdd()
    return COBTree(dev, COBConfig(fmt=FMT)), dev


def _make_buffered_cob():
    dev = _hdd()
    return BufferedCOBTree(dev, COBConfig(fmt=FMT)), dev


KINDS = {
    "btree": _make_btree,
    "betree": _make_betree,
    "betree-optimized": _make_opt_betree,
    "cob": _make_cob,
    "cob-buffered": _make_buffered_cob,
}


def _pairs(n=370, seed=21):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(1 << 40, size=n, replace=False)) - (1 << 39)
    return [(int(k), int(k) % 997) for k in keys]


def _stats(dev):
    s = dev.stats
    return [s.reads, s.writes, s.bytes_read, s.bytes_written,
            float(s.read_seconds).hex(), float(s.write_seconds).hex(),
            float(dev.clock).hex()]


def _levels(tree):
    """Node key lists level by level, root first (pivots for internals)."""
    levels = []
    frontier = [tree.root_id]
    while frontier:
        nodes = [tree._get(nid) for nid in frontier]
        levels.append([list(n.keys if n.is_leaf or isinstance(tree, BTree) else n.pivots)
                       for n in nodes])
        frontier = [c for n in nodes if not n.is_leaf for c in n.children]
    return levels


def _layout(tree):
    if isinstance(tree, BufferedCOBTree):
        return {"slots": [int(k) for k in tree.base.pma.keys],
                "splitters": [int(k) for k in tree.splitters]}
    if isinstance(tree, COBTree):
        return {"slots": [int(k) for k in tree.pma.keys]}
    return {"levels": _levels(tree)}


def _load_record(kind: str) -> dict:
    """Device charges after the load and after a flush, then the layout."""
    tree, dev = KINDS[kind]()
    tree.bulk_load(_pairs())
    loaded = _stats(dev)
    if hasattr(tree, "storage"):
        tree.storage.flush()
    return {"loaded": loaded, "flushed": _stats(dev), **_layout(tree)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_kind(golden):
    assert sorted(golden) == sorted(KINDS)


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestBulkLoadContract:
    def test_unsorted_rejected(self, kind):
        tree, _ = KINDS[kind]()
        with pytest.raises(KeyOrderError):
            tree.bulk_load([(1, 1), (3, 3), (2, 2)])

    def test_duplicates_rejected(self, kind):
        tree, _ = KINDS[kind]()
        with pytest.raises(KeyOrderError):
            tree.bulk_load([(1, 1), (2, 2), (2, 3)])

    def test_empty_list_is_a_noop(self, kind):
        tree, dev = KINDS[kind]()
        before = _stats(dev)
        tree.bulk_load([])
        assert _stats(dev) == before
        assert len(tree) == 0
        tree.insert(7, 70)
        assert tree.get(7) == 70

    def test_non_empty_tree_rejected(self, kind):
        tree, _ = KINDS[kind]()
        tree.insert(1, 10)
        with pytest.raises(TreeError):
            tree.bulk_load([(2, 20), (3, 30)])

    def test_loaded_contents(self, kind):
        tree, _ = KINDS[kind]()
        pairs = _pairs()
        tree.bulk_load(pairs)
        tree.check_invariants()
        assert len(tree) == len(pairs)
        assert list(tree.items()) == pairs
        assert tree.get(pairs[100][0]) == pairs[100][1]

    def test_layout_and_charges_match_golden(self, golden, kind):
        assert _load_record(kind) == golden[kind]
