"""External-memory dictionaries: B-tree, Bε-tree, and an LSM baseline.

All dictionaries share the conventions in :mod:`repro.trees.sizing`
(fixed-width keys and values, byte-budgeted nodes) and run on a
:class:`~repro.storage.stack.StorageStack`, so their only observable cost
is simulated device time.

* :mod:`repro.trees.btree` — the classic B-tree (paper Section 3/5),
  plus the Section 8 van Emde Boas / PDAM machinery.
* :mod:`repro.trees.betree` — the Bε-tree (Section 3/6): naive
  whole-node-IO variant and the Theorem 9 optimized variant with
  per-child buffer segments and pivots-in-parent.
* :mod:`repro.trees.lsm` — a leveled LSM-tree baseline (the third
  write-optimized family the paper's introduction discusses).
"""

from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat
from repro.trees.btree import BTree, BTreeConfig
from repro.trees.betree import BeTree, BeTreeConfig, OptimizedBeTree
from repro.trees.lsm import LSMTree, LSMConfig
from repro.trees.cola import COLA, COLAConfig

__all__ = [
    "KEY_MAX",
    "KEY_MIN",
    "EntryFormat",
    "BTree",
    "BTreeConfig",
    "BeTree",
    "BeTreeConfig",
    "OptimizedBeTree",
    "LSMTree",
    "LSMConfig",
    "COLA",
    "COLAConfig",
]
