"""Tests of the repo benchmark: tiny runs of every workload, the tracer's
self-time arithmetic, seeding, and the traced run's conservation checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run
import workloads
from tracer import Tracer, install, layer_of, self_times

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_deterministic(name):
    wl = workloads.WORKLOADS[name]
    first = wl.run_pass(wl.setup(5, "tiny"), 0)
    assert first.attempted > 0 and first.ops > 0 and first.seconds > 0
    assert first.failed == 0, first.details
    again = wl.run_pass(wl.setup(5, "tiny"), 0)
    assert again.digest == first.digest


def test_kv_pass_counts_oracle_mismatches():
    state = workloads.kv_setup(2, "tiny")
    # Corrupt one kind's oracle: its gets and scans now disagree with the
    # tree (an uncorrupted tiny pass has no failures, tested above).
    state.oracles["btree"] = {k: -1 for k in state.oracles["btree"]}
    assert workloads.kv_pass(state, 0).failed > 0


def test_io_pass_counts_failed_gates(monkeypatch):
    monkeypatch.setattr(workloads, "AFFINE_R2_GATE", 1.0)
    out = workloads.io_pass(workloads.io_setup(1, "tiny"), 0)
    assert out.failed == len(out.details["problems"]) > 0


def test_sweep_setup_times_itself_in_a_fresh_interpreter():
    state = workloads.sweep_setup(1, "tiny")
    assert state.setup_at_reference_s > 0
    assert set(state.experiments) == set(workloads.SWEEP_SIZES["tiny"])


def test_seeds_change_inputs_through_the_same_path():
    a, b, a2 = (workloads.kv_setup(s, "tiny") for s in (1, 2, 1))
    assert a.loaded != b.loaded and a.loaded == a2.loaded
    ops_a, ops_b = workloads.kv_ops(a, 0), workloads.kv_ops(b, 0)
    assert not all(np.array_equal(x, y) for x, y in zip(ops_a, ops_b))
    assert all(np.array_equal(x, y) for x, y in zip(ops_a, workloads.kv_ops(a2, 0)))

    io_a, io_b = workloads.io_setup(1, "tiny"), workloads.io_setup(2, "tiny")
    assert io_a.ladders != io_b.ladders
    assert workloads.io_setup(1, "tiny").ladders == io_a.ladders


def test_self_time_on_a_synthetic_span_tree():
    #   0 trees.btree.get [0, 100]
    #   1   cache.get     [10, 40]
    #   2     device.read [20, 30]
    #   3   device.read   [50, 70]
    #   4 cache.get       [120, 125]   (a second root)
    names = ["trees.btree.get", "cache.get", "device.read"]
    name_id = np.array([0, 1, 2, 2, 1])
    start = np.array([0, 10, 20, 50, 120])
    end = np.array([100, 40, 30, 70, 125])
    parent = np.array([-1, 0, 1, 0, -1])
    layers = self_times(names, name_id, start, end, parent)
    assert layers == {"trees.btree": 100 - 30 - 20, "cache": 30 - 10 + 5, "device": 10 + 20}
    assert sum(layers.values()) == 100 + 5  # the roots' durations


def test_layer_names():
    assert layer_of("trees.cob.put_bulk") == "trees.cob"
    assert layer_of("kernel.btree_nodesize_point") == "experiments"
    assert layer_of("runner.cache.get") == "runner"


def test_wrapped_calls_nest_and_restore():
    class Leaf:
        def work(self, n):
            return n + 1

    class Root:
        def __init__(self):
            self.leaf = Leaf()

        def work(self, n):
            return self.leaf.work(n) + self.leaf.work(n)

    original = Root.__dict__["work"]
    t = Tracer()
    t.patch_method(Root, "work", "trees.btree.get")
    t.patch_method(Leaf, "work", "cache.get")
    assert Root().work(1) == 4
    t.uninstall()
    assert Root.__dict__["work"] is original
    nid, start, end, parent = t.arrays()
    assert parent.tolist() == [-1, 0, 0]
    assert [t.names[i] for i in nid] == ["trees.btree.get", "cache.get", "cache.get"]
    assert (end >= start).all()
    layers = self_times(t.names, nid, start, end, parent)
    assert sum(layers.values()) == end[0] - start[0]
    assert t.total_ns(lambda n: n == "cache.get") == int((end[1:] - start[1:]).sum())


def test_traced_tiny_kv_matches_untraced_and_conserves_device_seconds():
    ref = workloads.kv_pass(workloads.kv_setup(3, "tiny"), 0)
    t = install(Tracer())
    try:
        state = workloads.kv_setup(3, "tiny")
        out = workloads.kv_pass(state, 0)
    finally:
        t.uninstall()
    assert out.digest == ref.digest
    for device in state.devices.values():
        assert t.device_seconds[id(device)] == [
            device.stats.read_seconds, device.stats.write_seconds
        ]
    assert t.counters["device.ios"] == sum(d.stats.ios for d in state.devices.values())
    assert {layer_of(n) for n in t.names} >= {"trees.btree", "trees.cob", "cache", "device"}


def test_install_restores_every_patched_attribute():
    from repro.storage.cache import BufferCache
    from repro.storage.device import BlockDevice
    from repro.trees.btree import BTree

    before = (BTree.__dict__["get"], BufferCache.__dict__["get"],
              BlockDevice.__dict__["read"])
    t = install(Tracer())
    assert BTree.__dict__["get"] is not before[0]
    t.uninstall()
    assert (BTree.__dict__["get"], BufferCache.__dict__["get"],
            BlockDevice.__dict__["read"]) == before


def test_per_layer_names_are_unique_and_cover_self_layers():
    names = [n for n, _ in run.per_layer_names()]
    assert len(names) == len(set(names))
    assert {f"{layer}.self_s" for layer in run.SELF_LAYERS} <= set(names)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == names
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END]


def test_benchmark_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout



def test_reference_speed_rescaling():
    ref = hostspeed.REFERENCE_BURST_S
    # A host running bursts at twice the reference time is half as fast:
    # its segment seconds halve.
    assert hostspeed.at_reference_speed([4.0, 2.0], [2 * ref] * 3) == pytest.approx([2.0, 1.0])
    assert hostspeed.at_reference_speed([3.0], [ref, 3 * ref]) == pytest.approx([1.5])
    with pytest.raises(ValueError):
        hostspeed.at_reference_speed([1.0], [ref])
    # Per-segment medians across passes, summed: one slow segment in one
    # pass does not move the result.
    assert run.typical_pass_seconds([[1.0, 2.0], [9.0, 2.0], [1.0, 2.0]]) == 3.0
