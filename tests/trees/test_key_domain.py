"""Keys anywhere in the int64 domain survive every whole-tree scan.

``items()``, ``__len__``, checkpoints, rebuild migration and the
Theorem 9 weight-balanced rebuild all enumerate a tree by ranging over
the key domain.  Keys past ``±2**62`` used to fall outside that range:
``get`` still found them, but a checkpoint dropped them, so a recovered
``DurableTree`` lost acknowledged writes.
"""

import pytest

from repro.recovery import RECOVERY_TREES, DurableConfig, DurableTree
from repro.storage.ram import ConstantLatencyDevice, NullDevice
from repro.storage.stack import StorageStack
from repro.trees import KEY_MAX, KEY_MIN
from repro.trees.betree import BeTree, BeTreeConfig, OptimizedBeTree
from repro.trees.betree.rebalance import check_weight_balance, rebuild_weight_balance
from repro.trees.btree import BTree, BTreeConfig
from repro.trees.cob import BufferedCOBTree, COBConfig, COBTree
from repro.trees.cola import COLA, COLAConfig
from repro.trees.lsm import LSMConfig, LSMTree
from repro.trees.sizing import EntryFormat
from repro.tuning import rebuild_tree

FMT = EntryFormat(value_bytes=20)

EXTREMES = [KEY_MIN, KEY_MIN + 1, -(1 << 62) - 7, (1 << 62) + 5, KEY_MAX - 1, KEY_MAX]


def _stack():
    return StorageStack(NullDevice(), cache_bytes=1 << 20)


KINDS = {
    "btree": lambda: BTree(_stack(), BTreeConfig(node_bytes=1024, fmt=FMT)),
    "betree": lambda: BeTree(_stack(), BeTreeConfig(node_bytes=4096, fanout=4, fmt=FMT)),
    "betree-optimized": lambda: OptimizedBeTree(
        _stack(), BeTreeConfig(node_bytes=4096, fanout=4, fmt=FMT)
    ),
    "lsm": lambda: LSMTree(NullDevice(), LSMConfig(memtable_bytes=1 << 10, sstable_bytes=1 << 12)),
    "cola": lambda: COLA(NullDevice(), COLAConfig(fmt=FMT)),
    "cob": lambda: COBTree(NullDevice(), COBConfig(fmt=FMT)),
    "cob-buffered": lambda: BufferedCOBTree(NullDevice(), COBConfig(fmt=FMT)),
}

#: The kinds ``rebuild_tree`` migrates: bulk-loadable, on a storage stack.
MIGRATABLE = ("btree", "betree", "betree-optimized")


def _pairs(n=600):
    """Ordinary keys around zero plus both ends of the int64 domain."""
    keys = sorted(set(range(-n // 2, n // 2)) | set(EXTREMES))
    return [(k, k % 1009) for k in keys]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_inserted_extremes_are_enumerated(kind):
    tree = KINDS[kind]()
    pairs = _pairs()
    for key, value in pairs:
        tree.insert(key, value)
    assert list(tree.items()) == pairs
    assert len(tree) == len(pairs)
    for key, value in pairs[:3] + pairs[-3:]:
        assert tree.get(key) == value


@pytest.mark.parametrize("kind", MIGRATABLE)
def test_rebuild_tree_moves_extremes(kind):
    old = KINDS[kind]()
    pairs = _pairs()
    for key, value in pairs:
        old.insert(key, value)
    new, report = rebuild_tree(old, KINDS[kind])
    assert report.entries_moved == len(pairs)
    assert list(new.items()) == pairs


@pytest.mark.parametrize("kind", RECOVERY_TREES)
def test_checkpoint_recover_keeps_acked_extremes(kind):
    device = ConstantLatencyDevice(1e-4, capacity_bytes=1 << 30)
    cfg = DurableConfig(tree=kind, node_bytes=4096, cache_bytes=32 << 10,
                        wal_bytes=1 << 20, ckpt_bytes=1 << 20)
    durable = DurableTree(device, cfg)
    for key in EXTREMES:
        durable.put(key, 7)
    durable.put(0, 1)
    durable.sync()
    durable.checkpoint()
    durable.recover()
    for key in EXTREMES:
        assert durable.get(key) == 7, key
    assert durable.contents() == {**{k: 7 for k in EXTREMES}, 0: 1}


@pytest.mark.parametrize("cls", [BeTree, OptimizedBeTree])
def test_weight_balanced_rebuild_keeps_extremes(cls):
    tree = cls(_stack(), BeTreeConfig(node_bytes=1024, fanout=4, fmt=FMT))
    pairs = [(k * 7919 % 20011, k) for k in range(3000)]
    pairs += [(k, -1) for k in EXTREMES]
    for key, value in pairs:
        tree.insert(key, value)
    assert rebuild_weight_balance(tree) > 0
    check_weight_balance(tree)
    assert list(tree.items()) == sorted(dict(pairs).items())
