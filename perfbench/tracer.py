"""Span tracer that instruments the simulator's layers from outside.

:func:`install` wraps the public entry points of every layer (trees,
buffer cache, allocator, device models, engines, serving, recovery,
runner, workload generators) with span-recording wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  Nothing in ``src/`` is
edited: the wrappers are set on the classes and modules at run time and
only while a traced pass runs, so untraced runs execute the unmodified
code.

A span is ``(name, start_ns, end_ns, parent)``; spans live in flat
integer arrays until :meth:`Tracer.save` writes them out.  Times are
``perf_counter_ns`` integers, so self-time arithmetic is exact.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from functools import wraps
from typing import Any, Callable

import numpy as np

TREE_METHODS = (
    "bulk_load", "put_many", "put_bulk", "get", "get_many", "insert", "range", "delete",
)
DEVICE_SCALAR = ("read", "write", "service_request", "stall")
DEVICE_BATCH = ("read_batch", "write_batch", "service_request_batch", "serve_step")


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``trees.<kind>`` keeps its kind)."""
    head, _, rest = name.partition(".")
    if head == "trees":
        return "trees." + rest.partition(".")[0]
    if head == "kernel":
        return "experiments"  # kernel bodies are experiment-module code
    return head


class Tracer:
    """In-memory span store plus the per-layer counters read at span exits."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Per device object: [read seconds, write seconds] summed from the
        #: elapsed values its top-level read/write calls returned, in order.
        self.device_seconds: dict[int, list[float] | None] = {}
        self.caches: list[Any] = []
        self._device_depth = 0
        self._engine_depth = 0

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record one span per call.

        ``before(args)`` runs first inside the span and its value is passed
        to ``after(args, result, state)``, which runs in a ``finally`` (with
        ``result=None`` when ``fn`` raised) so depth counters stay balanced.
        """
        nid = self._intern(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            state = before(args) if before is not None else None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if after is not None:
                    after(args, result, state)
                end[idx] = clock()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Wrap ``owner.attr`` if the class or module ``owner`` itself
        defines it as a plain function."""
        fn = owner.__dict__.get(attr)
        if callable(fn) and not isinstance(fn, (staticmethod, classmethod, type)):
            self.patch(owner, attr, self.wrap(fn, name, **hooks))

    def patch_function(self, fn: Callable[..., Any], name: str) -> None:
        """Wrap a module-level function in every ``repro`` module that binds it."""
        wrapped = self.wrap(fn, name)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name_id, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def total_ns(self, predicate: Callable[[str], bool]) -> int:
        """Summed duration of spans whose name satisfies ``predicate``.

        A span nested inside another matching span is skipped, so recursive
        or re-entrant calls are counted once.
        """
        nid, start, end, parent = self.arrays()
        if not len(nid):
            return 0
        hit = np.array([predicate(n) for n in self.names], dtype=bool)[nid]
        hit &= ~_has_matching_ancestor(hit, parent)
        return int((end[hit] - start[hit]).sum())

    def count(self, predicate: Callable[[str], bool]) -> int:
        nid, _, _, _ = self.arrays()
        match = np.array([predicate(n) for n in self.names], dtype=bool)
        return int(match[nid].sum()) if len(nid) else 0

    def save(self, path: str) -> None:
        nid, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=nid, start=start, end=end, parent=parent
        )


def _has_matching_ancestor(hit: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per span: does any ancestor also satisfy the mask?"""
    out = np.zeros(len(hit), dtype=bool)
    ancestor = parent.copy()
    live = ancestor >= 0
    while live.any():  # one step up the tree per iteration
        out[live] |= hit[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
        live = ancestor >= 0
    return out


def self_times(
    names: list[str], name_id: np.ndarray, start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> dict[str, int]:
    """Self nanoseconds per layer: each span's duration minus its children's.

    Spans come from one thread's call stack, so children nest inside their
    parent and never overlap one another; the part of a parent's interval
    its children cover is then the sum of their durations.
    """
    dur = end - start
    child = np.zeros(len(dur), dtype=np.int64)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    sums = np.zeros(len(names), dtype=np.int64)
    np.add.at(sums, name_id, dur - child)
    layers: dict[str, int] = defaultdict(int)
    for i, name in enumerate(names):
        layers[layer_of(name)] += int(sums[i])
    return dict(layers)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points; returns ``tracer``."""
    import repro.faults.device  # noqa: F401  (imported so their device
    import repro.storage.hdd  # noqa: F401    classes are found as
    import repro.storage.ideal  # noqa: F401  BlockDevice subclasses)
    import repro.storage.ram  # noqa: F401
    import repro.storage.ssd  # noqa: F401
    import repro.runner.executor as executor
    from repro.recovery.durable import DurableTree
    from repro.recovery.wal import WriteAheadLog
    from repro.runner.cache import ResultCache
    from repro.serve.engine import RequestEngine
    from repro.storage.allocator import ExtentAllocator
    from repro.storage.cache import BufferCache, CacheStats
    from repro.storage.device import BlockDevice
    from repro.storage.engine import ClosedLoopRunner
    from repro.trees.betree import BeTree, OptimizedBeTree
    from repro.trees.btree import BTree
    from repro.trees.btree.veb import PDAMQuerySimulator
    from repro.trees.cob import BufferedCOBTree, COBTree
    from repro.trees.cola import COLA
    from repro.trees.lsm import LSMTree
    from repro.workloads import generators
    from repro.workloads.distributions import (
        ClusteredKeys, SequentialKeys, UniformKeys, ZipfKeys,
    )

    counters = tracer.counters

    for cls in (BTree, BeTree, OptimizedBeTree, LSMTree, COLA, COBTree, BufferedCOBTree):
        kind = cls.__module__.split(".")[2]
        for method in TREE_METHODS:
            tracer.patch_method(cls, method, f"trees.{kind}.{method}")

    for method in _public_methods(BufferCache):
        tracer.patch_method(BufferCache, method, f"cache.{method}")
    tracer.patch_method(
        BufferCache, "__init__", "cache.init", after=lambda a, r, s: tracer.caches.append(a[0])
    )

    def fold_cache_stats(args: tuple) -> None:
        stats = args[0]
        for field in ("hits", "misses", "evictions", "dirty_evictions"):
            counters[f"cache.{field}"] += getattr(stats, field)

    tracer.patch_method(CacheStats, "reset", "cache.stats_reset", before=fold_cache_stats)

    def count_allocator_call(args: tuple) -> None:
        counters["allocator.calls"] += 1

    for method in ("alloc", "free"):
        tracer.patch_method(
            ExtentAllocator, method, f"allocator.{method}", before=count_allocator_call
        )

    for cls in _subclasses(BlockDevice):
        for method in DEVICE_SCALAR + DEVICE_BATCH:
            if method in cls.__dict__:
                before, after = _device_hooks(tracer, method)
                tracer.patch_method(cls, method, f"device.{method}", before=before, after=after)

    def enter_engine(args: tuple) -> None:
        tracer._engine_depth += 1

    def leave_engine(args: tuple, result: Any, state: Any) -> None:
        tracer._engine_depth -= 1

    for method in ("run", "run_makespan"):
        tracer.patch_method(
            ClosedLoopRunner, method, f"engine.{method}", before=enter_engine, after=leave_engine
        )

    def count_queries(args: tuple, result: Any, state: Any) -> None:
        if result is not None:
            counters["veb.queries"] += result.queries_completed

    tracer.patch_method(PDAMQuerySimulator, "run", "veb.run", after=count_queries)

    def count_rounds(args: tuple, result: Any, state: Any) -> None:
        if result is not None:
            counters["serve.rounds"] += result.rounds
            counters["serve.hedges_issued"] += result.hedges_issued
            counters["serve.hedges_won"] += result.hedges_won

    tracer.patch_method(RequestEngine, "run", "serve.run", after=count_rounds)

    for method in ("put", "delete", "sync", "load", "get", "get_many", "range",
                   "checkpoint", "recover"):
        tracer.patch_method(DurableTree, method, f"recovery.durable.{method}")
    for method in ("append", "commit", "truncate", "recover"):
        tracer.patch_method(WriteAheadLog, method, f"recovery.wal.{method}")

    tracer.patch_function(executor.run_sweep, "runner.run_sweep")
    for method in ("get", "put"):
        tracer.patch_method(ResultCache, method, f"runner.cache.{method}")
    get_kernel = executor.get_kernel
    tracer.patch(
        executor,
        "get_kernel",
        lambda name: tracer.wrap(get_kernel(name), f"kernel.{name}"),
    )

    for mod_name, module in sorted(sys.modules.items()):
        if mod_name.startswith("repro.experiments.exp_"):
            tracer.patch_method(module, "run", f"experiments.{mod_name.rsplit('.', 1)[1]}.run")

    tracer.patch_function(generators.random_load_pairs, "workloads.random_load_pairs")
    for cls in (ClusteredKeys, SequentialKeys, UniformKeys, ZipfKeys):
        tracer.patch_method(cls, "sample", "workloads.sample")
    return tracer


def _public_methods(cls: type) -> list[str]:
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod))
    )


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass, in a stable order."""
    out, todo = [], [cls]
    while todo:
        c = todo.pop(0)
        if c not in out:
            out.append(c)
            todo.extend(sorted(c.__subclasses__(), key=lambda k: (k.__module__, k.__qualname__)))
    return out


def _device_hooks(tracer: Tracer, method: str) -> tuple[Callable, Callable]:
    """Hooks that book each top-level device call's IOs, bytes and seconds.

    Only the outermost device call of a nest is booked (a fault wrapper
    calling its inner device, or a base-class batch looping over scalar
    calls), from the outer device's :class:`DeviceStats` before and after.
    Plain ``read``/``write`` and their batches also add each returned
    elapsed time, in order, onto a per-device running sum seeded from the
    device's own counters, which must then equal them exactly.
    """
    counters = tracer.counters
    batch = method in DEVICE_BATCH
    exact = {"read": 0, "write": 1, "read_batch": 0, "write_batch": 1}.get(method)

    def before(args: tuple) -> Any:
        tracer._device_depth += 1
        if tracer._device_depth > 1:
            return None
        s = args[0].stats
        return (s.reads + s.writes, s.bytes_read + s.bytes_written,
                s.read_seconds, s.write_seconds)

    def after(args: tuple, result: Any, state: Any) -> None:
        tracer._device_depth -= 1
        if state is None:
            return
        device = args[0]
        s = device.stats
        ios = s.reads + s.writes - state[0]
        counters["device.ios"] += ios
        counters["device.bytes"] += s.bytes_read + s.bytes_written - state[1]
        counters["device.sim_s"] += (s.read_seconds - state[2]) + (s.write_seconds - state[3])
        if batch:
            counters["device.batch_ios"] += ios
        if tracer._engine_depth:
            counters["engine.requests"] += ios
        key = id(device)
        if exact is None or result is None:
            tracer.device_seconds[key] = None  # this device has no exact sum
            return
        if key not in tracer.device_seconds:
            # Seeded from the counters as they stood before the first call.
            tracer.device_seconds[key] = [state[2], state[3]]
        sums = tracer.device_seconds[key]
        if sums is None:
            return
        if batch:
            for elapsed in result:
                sums[exact] += elapsed
        else:
            sums[exact] += result

    return before, after
