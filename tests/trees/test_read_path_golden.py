"""Read-path golden: per-op results and device charges of a seeded stream.

One seeded stream of ``get``, ``insert``, ``delete`` and ``range`` calls
runs on :class:`COBTree`, :class:`BufferedCOBTree` and :class:`LSMTree`,
each over the default simulated HDD and over an affine device with
sequential detection (so offsets, not only sizes, move the clock).  The
ranges include inverted, empty, beyond-the-last-key and full-domain
(``KEY_MIN..KEY_MAX``) windows; the stream crosses PMA capacity
doublings and LSM compactions.

After every op the test records the op's result (one list per tree:
results do not depend on the device) and the device's ``DeviceStats``
plus clock (floats as ``float.hex``).  The golden was captured before
the read paths became output-sensitive, so a change that moves one
simulated IO, one byte or one result fails here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TreeError
from repro.experiments.devices import default_hdd
from repro.models.affine import AffineModel
from repro.storage.ideal import AffineDevice
from repro.trees.cob import BufferedCOBTree, COBConfig, COBTree
from repro.trees.lsm import LSMConfig, LSMTree
from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat

GOLDEN = Path(__file__).parent / "fixtures" / "read_path_golden.json"

FMT = EntryFormat(value_bytes=20)
N_OPS = 420
UNIVERSE = 1 << 40

# Small PMA and a small pinned top (16 pivots: 4 levels), with 256-byte
# index blocks, so the stream doubles the PMA twice and most index
# descents reach unpinned blocks.
COB_CONFIG = COBConfig(
    fmt=FMT, block_bytes=256, ram_bytes=256, initial_slots=64,
    fanout=4, buffer_bytes=8 * FMT.message_bytes, rebuild_factor=2.0,
)
# 12-entry memtable, 24-entry runs, level 1 holds two runs: the stream
# flushes every few dozen ops and compacts into three levels.
LSM_CONFIG = LSMConfig(
    sstable_bytes=FMT.node_header_bytes + 24 * FMT.entry_bytes,
    memtable_bytes=12 * FMT.entry_bytes,
    level1_bytes=2 * (FMT.node_header_bytes + 24 * FMT.entry_bytes),
    l0_trigger=2, block_bytes=256, fmt=FMT,
)

TREES = {
    "cob": lambda dev: COBTree(dev, COB_CONFIG),
    "cob-buffered": lambda dev: BufferedCOBTree(dev, COB_CONFIG),
    "lsm": lambda dev: LSMTree(dev, LSM_CONFIG),
}
DEVICES = {
    "hdd": lambda: default_hdd(seed=7),
    "affine": lambda: AffineDevice(
        AffineModel(alpha=1e-5, setup_seconds=1e-3), sequential_detection=True
    ),
}


def _stream(seed=2024):
    """The op list, drawn against a dict oracle so deletes and gets can
    target present keys: ``(op, a, b)`` tuples."""
    rng = np.random.default_rng(seed)
    present: dict[int, int] = {}
    ops = []
    for i in range(N_OPS):
        keys = sorted(present)
        u = rng.random()
        if u < 0.40 or len(keys) < 4:
            if keys and rng.random() < 0.15:
                key = keys[int(rng.integers(len(keys)))]  # overwrite
            elif i in (150, 300):
                key = KEY_MIN if i == 150 else KEY_MAX
            else:
                key = int(rng.integers(-UNIVERSE, UNIVERSE))
            present[key] = i
            ops.append(("insert", key, i))
        elif u < 0.65:
            if rng.random() < 0.8:
                key = keys[int(rng.integers(len(keys)))]
            else:
                key = int(rng.integers(-UNIVERSE, UNIVERSE))
            ops.append(("get", key, None))
        elif u < 0.75:
            if rng.random() < 0.85:
                key = keys[int(rng.integers(len(keys)))]
                del present[key]
            else:
                key = int(rng.integers(-UNIVERSE, UNIVERSE))  # likely absent
                present.pop(key, None)
            ops.append(("delete", key, None))
        else:
            kind = int(rng.integers(7))
            a = int(rng.integers(len(keys) - 1))
            b = min(len(keys) - 1, a + int(rng.integers(1, 12)))
            if kind == 0:      # short window on present keys
                lo, hi = keys[a], keys[b]
            elif kind == 1:    # inverted
                lo, hi = keys[b], keys[a] - 1
            elif kind == 2:    # empty: strictly between two neighbours
                lo, hi = keys[a] + 1, keys[a + 1] - 1
                if lo > hi:
                    lo = hi = keys[a]
            elif kind == 3:    # beyond the last key
                lo, hi = keys[-1] + 1, keys[-1] + 1 + int(rng.integers(1, 1 << 20))
                if keys[-1] == KEY_MAX:
                    lo, hi = KEY_MAX, KEY_MAX
            elif kind == 4:    # full domain
                lo, hi = KEY_MIN, KEY_MAX
            elif kind == 5:    # open low end
                lo, hi = KEY_MIN, keys[a]
            else:              # open high end, off-key bounds
                lo, hi = keys[b] - 1, KEY_MAX
            ops.append(("range", lo, hi))
    return ops


def _stats(dev):
    s = dev.stats
    return [s.reads, s.writes, s.bytes_read, s.bytes_written,
            float(s.read_seconds).hex(), float(s.write_seconds).hex(),
            float(dev.clock).hex()]


def _record(tree_name: str, device_name: str) -> tuple[list, list]:
    """The result of every op of the stream, and the stats after it."""
    dev = DEVICES[device_name]()
    tree = TREES[tree_name](dev)
    results, stats = [], []
    for op, a, b in _stream():
        if op == "insert":
            tree.insert(a, b)
            result = None
        elif op == "get":
            result = tree.get(a)
        elif op == "delete":
            try:
                tree.delete(a)
                result = None
            except TreeError:
                result = "TreeError"
        else:
            result = [[k, v] for k, v in tree.range(a, b)]
        results.append(result)
        stats.append(_stats(dev))
    tree.check_invariants()
    return results, stats


CASES = [f"{t}/{d}" for t in sorted(TREES) for d in sorted(DEVICES)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["results"]) == sorted(TREES)
    assert sorted(golden["stats"]) == sorted(CASES)


def test_stream_covers_the_edges():
    ops = _stream()
    ranges = [(a, b) for op, a, b in ops if op == "range"]
    assert (KEY_MIN, KEY_MAX) in ranges
    assert any(a > b for a, b in ranges)
    assert {op for op, _, _ in ops} == {"insert", "get", "delete", "range"}


def test_stream_crosses_doublings_and_compactions():
    cob = COBTree(DEVICES["affine"](), COB_CONFIG)
    lsm = LSMTree(DEVICES["affine"](), LSM_CONFIG)
    for op, a, b in _stream():
        if op == "insert":
            cob.insert(a, b)
            lsm.insert(a, b)
    assert cob.pma.resizes >= 2
    assert lsm.compactions >= 3 and len(lsm.levels) >= 3


@pytest.mark.parametrize("case", CASES)
def test_results_and_charges_match_golden(golden, case):
    tree_name, device_name = case.split("/")
    results, stats = _record(tree_name, device_name)
    assert results == golden["results"][tree_name]
    assert stats == golden["stats"][case]
