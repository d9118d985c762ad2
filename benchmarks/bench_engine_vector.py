"""repro.storage engine vectorization: batched-IO identity and speedup gates.

Three gates on the vectorized simulation engine rather than on the paper's
quantities:

1. **Batching is invisible** — every batched path (device ``read_batch`` /
   ``write_batch``, the trees' ``put_many``) produces byte-identical
   results and accounting to its serial loop, asserted with exact float
   equality.
2. **Batching does not lose** — each batched path is no slower than its
   serial-dispatch twin (relative gates only: CI hardware varies, identity
   and relative ordering do not).
3. **The E6 tentpole holds** (``--full`` only) — the full Figure 3 sweep at
   ``jobs=1`` runs at least 5x faster than the pre-vectorization seed
   baseline recorded below.  Raw wall-clock gates are meaningless across
   hosts, so the seed baseline is scaled by a pure-Python calibration
   workload (:func:`_calibration`) run at bench time: a host that runs the
   calibration 1.4x slower than the reference epoch gets a 1.4x larger
   baseline.  CI runs ``--smoke``, which checks gates 1-2 and records (but
   does not gate) the E6 wall time.

Run standalone to append a record to ``BENCH_engine_vector.json``::

    PYTHONPATH=src python benchmarks/bench_engine_vector.py [--smoke]
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.runner.cache import CACHE_EPOCH
from repro.storage.hdd import HDDGeometry, SimulatedHDD
from repro.storage.stack import StorageStack
from repro.trees.betree import BeTreeConfig, OptimizedBeTree
from repro.trees.sizing import EntryFormat

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine_vector.json"

#: E6 full-sweep wall seconds at jobs=1 on the seed (pre-vectorization)
#: engine, measured on the reference machine.  The --full gate demands a
#: 5x improvement against this number, scaled by the calibration below.
SEED_E6_WALL_S = 6.98
TARGET_SPEEDUP = 5.0

#: Wall seconds of :func:`_calibration` on the reference machine at the
#: epoch the seed baseline was taken.  Interpreter speed varies across CI
#: hosts (and drifts on shared ones), so the absolute gate compares
#: machine-normalized times: the effective baseline is
#: ``SEED_E6_WALL_S * calibration_now / SEED_CALIB_S``.
SEED_CALIB_S = 0.19


def _calibration():
    """A fixed pure-Python workload shaped like the E6 kernels.

    Dict churn, bisect-maintained sorted lists, and small-object float
    arithmetic — the operations whose interpreter cost dominates the
    sweep.  Returns its wall seconds; deterministic amount of work.
    """
    import bisect

    start = time.perf_counter()
    acc = {}
    keys: list[int] = []
    clock = 0.0
    x = 123456789
    for i in range(120_000):
        x = (x * 1103515245 + 12345) % (1 << 31)
        k = x % 50_000
        lst = acc.get(k)
        if lst is None:
            acc[k] = [i]
            bisect.insort(keys, k)
        else:
            lst.append(i)
        clock += 1e-6 * (k % 7 + 1)
        if len(acc) > 20_000:
            acc.clear()
            keys.clear()
    return time.perf_counter() - start


def _device_batch(n_ios):
    """HDD read_batch vs a serial read loop: (identical, serial_s, batch_s)."""
    rng = np.random.default_rng(0)
    offsets = (rng.integers(0, (1 << 30) // 4096, size=n_ios) * 4096).tolist()
    serial_dev = SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=2)
    start = time.perf_counter()
    expected = [serial_dev.read(off, 4096) for off in offsets]
    serial_s = time.perf_counter() - start
    batch_dev = SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=2)
    start = time.perf_counter()
    got = batch_dev.read_batch(offsets, 4096)
    batch_s = time.perf_counter() - start
    identical = got == expected and batch_dev.clock == serial_dev.clock
    return identical, serial_s, batch_s


def _tree_batch(n_pairs):
    """OptimizedBeTree put_many vs a serial insert loop."""
    def make():
        stack = StorageStack(
            SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=1), 1 << 20
        )
        cfg = BeTreeConfig(node_bytes=65536, fanout=8, fmt=EntryFormat(value_bytes=20))
        return OptimizedBeTree(stack, cfg), stack

    rng = np.random.default_rng(7)
    pairs = [(int(k), int(k) * 3) for k in rng.integers(0, 1 << 24, size=n_pairs)]
    serial_tree, serial_stack = make()
    start = time.perf_counter()
    for k, v in pairs:
        serial_tree.insert(k, v)
    serial_s = time.perf_counter() - start
    batch_tree, batch_stack = make()
    start = time.perf_counter()
    batch_tree.put_many(pairs)
    batch_s = time.perf_counter() - start
    identical = (
        batch_stack.io_seconds == serial_stack.io_seconds
        and batch_stack.device.clock == serial_stack.device.clock
        and vars(batch_stack.device.stats) == vars(serial_stack.device.stats)
        and batch_tree._next_seq == serial_tree._next_seq
    )
    return identical, serial_s, batch_s


def _e6(smoke):
    """Run the E6 sweep at jobs=1 (uncached) twice; wall time + identity."""
    from repro.experiments import exp_betree_nodesize as e6

    kwargs = {}
    if smoke:
        kwargs = dict(
            node_sizes=(65536, 262144, 1048576), n_entries=30_000, n_queries=60
        )
    start = time.perf_counter()
    first = e6.run(jobs=1, **kwargs)
    wall_a = time.perf_counter() - start
    start = time.perf_counter()
    second = e6.run(jobs=1, **kwargs)
    wall_b = time.perf_counter() - start
    # Min of the two runs: the determinism rerun doubles as a best-of-2
    # timing, for free.
    return first.render() == second.render(), min(wall_a, wall_b)


def _best_of(fn, rounds=3):
    """Repeat a (identical, serial_s, batch_s) measurement; best of each.

    Identity must hold on every round; the timing gates compare the best
    serial against the best batch so one scheduler hiccup cannot flip a
    thin relative margin.
    """
    oks, serials, batches = [], [], []
    for _ in range(rounds):
        ok, serial_s, batch_s = fn()
        oks.append(ok)
        serials.append(serial_s)
        batches.append(batch_s)
    return all(oks), min(serials), min(batches)


def _measure(smoke):
    scale = 10 if smoke else 1
    # E6 and its calibration run before the micro-benches below, which
    # leave a large tracked heap behind that would tax the cyclic
    # collector during the sweep's between-point windows.  Calibrating
    # both before and after E6 (min over all rounds) pairs the host's
    # best observed interpreter speed with E6's best observed wall, so
    # drifting machine state between the two windows cannot skew the
    # normalized ratio in either direction.
    calib_rounds = [_calibration() for _ in range(3)]
    e6_ok, e6_wall = _e6(smoke)
    calib_rounds += [_calibration() for _ in range(2)]
    calib = min(calib_rounds)
    dev_ok, dev_serial, dev_batch = _best_of(lambda: _device_batch(20_000 // scale))
    tree_ok, tree_serial, tree_batch = _best_of(lambda: _tree_batch(40_000 // scale))
    return {
        "cache_epoch": CACHE_EPOCH,
        "device_identical": dev_ok,
        "tree_identical": tree_ok,
        "e6_deterministic": e6_ok,
        "device_serial_s": dev_serial,
        "device_batch_s": dev_batch,
        "tree_serial_s": tree_serial,
        "tree_batch_s": tree_batch,
        "device_speedup": dev_serial / dev_batch if dev_batch else float("inf"),
        "tree_speedup": tree_serial / tree_batch if tree_batch else float("inf"),
        "e6_wall_s": e6_wall,
        "seed_e6_wall_s": SEED_E6_WALL_S,
        "calibration_s": calib,
        "seed_calibration_s": SEED_CALIB_S,
        # Machine-normalized: what the seed would take at this host's
        # current interpreter speed, divided by what E6 actually took.
        "e6_baseline_here_s": SEED_E6_WALL_S * calib / SEED_CALIB_S,
        "e6_speedup_vs_seed": (
            (SEED_E6_WALL_S * calib / SEED_CALIB_S) / e6_wall
            if e6_wall
            else float("inf")
        ),
    }


def _check(m, *, full):
    assert m["device_identical"], "device batch diverged from serial reads"
    assert m["tree_identical"], "put_many accounting diverged from insert loop"
    assert m["e6_deterministic"], "E6 reruns diverged"
    # Relative no-lose gates: batching must never cost wall time.  The
    # slack plus a 2ms floor absorbs scheduler/timer noise.
    for path, slack in (("device", 1.05), ("tree", 1.05)):
        assert m[f"{path}_batch_s"] <= slack * m[f"{path}_serial_s"] + 0.002, (
            f"{path} batch path {m[f'{path}_batch_s']:.3f}s slower than "
            f"serial {m[f'{path}_serial_s']:.3f}s"
        )
    if full:
        assert m["e6_speedup_vs_seed"] >= TARGET_SPEEDUP, (
            f"E6 ran {m['e6_wall_s']:.2f}s — only "
            f"{m['e6_speedup_vs_seed']:.2f}x vs the calibrated seed baseline "
            f"{m['e6_baseline_here_s']:.2f}s (target {TARGET_SPEEDUP}x); "
            "see module docstring for the calibration scheme"
        )


def bench_engine_vector(benchmark, show, tmp_path):
    m = benchmark.pedantic(lambda: _measure(True), rounds=1, iterations=1)
    show(
        f"engine vectorization: device batch {m['device_speedup']:.1f}x, "
        f"put_many {m['tree_speedup']:.2f}x, "
        f"E6 smoke {m['e6_wall_s']:.2f}s (full-sweep seed baseline "
        f"{SEED_E6_WALL_S}s)"
    )
    for key, value in m.items():
        benchmark.extra_info[key] = (
            round(value, 4) if isinstance(value, float) else value
        )
    _check(m, full=False)


def main(argv):
    smoke = "--smoke" in argv
    m = _measure(smoke)
    _check(m, full=not smoke)
    record = {"config": "smoke" if smoke else "full"}
    record.update(
        {k: round(v, 4) if isinstance(v, float) else v for k, v in m.items()}
    )
    history = []
    if BENCH_JSON.exists():
        history = json.loads(BENCH_JSON.read_text())
    history.append(record)
    BENCH_JSON.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"appended to {BENCH_JSON}")


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
