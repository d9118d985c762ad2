"""The benchmark's three workloads, each a seeded set-up plus repeatable passes.

Every workload is driven through public APIs only, from one thread, as a
closed loop with one client: the next call is issued when the previous
one returns.  ``setup(seed)`` builds the workload's inputs and state;
``run_pass(state, index, tick)`` runs one fixed, seeded amount of work
and returns a :class:`PassOutcome`; a pass made of several timed segments
calls ``tick()`` between them, so the caller can sample host speed next
to each segment.  The benchmark repeats passes until its
time is up; pass 0 is the unit the determinism digest and the traced run
cover.

``size`` selects ``"full"`` (what the benchmark measures) or ``"tiny"``
(the same code paths at test size).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

KINDS = ("btree", "betree", "lsm", "cola", "cob")


@dataclass
class PassOutcome:
    """What one pass did and whether its outputs were right."""

    ops: int  # work units: sweep points, KV calls, or simulated IOs
    segments: list[float]  # host seconds inside the measured calls, per segment
    attempted: int  # checked operations
    failed: int  # checked operations whose output was wrong
    digest: str  # hash of the pass's deterministic outputs
    latencies_ns: dict[str, list[int]] = field(default_factory=dict)
    sim_seconds: float = 0.0  # simulated device seconds the pass charged
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.segments)


def _no_tick() -> None:
    pass


def _digest(parts: list[Any]) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# -- sweep -------------------------------------------------------------------


SWEEP_SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "fig2": {},
        "fig3": {},
        "autotune": {"n_entries": 60_000, "cache_bytes": 1 << 20},
        "cob": {"quick": True},
        "serve": {"quick": True},
        "durability": {"quick": True},
        "tailres": {"quick": True},
    },
    "tiny": {
        "fig2": {"n_entries": 20_000, "cache_bytes": 512 << 10, "n_queries": 60,
                 "n_inserts": 60, "warmup_queries": 20},
        "fig3": {"node_sizes": (64 << 10, 256 << 10, 1 << 20), "n_entries": 20_000,
                 "cache_bytes": 1 << 20, "n_queries": 40, "max_inserts": 4_000},
        "autotune": {"n_entries": 20_000, "cache_bytes": 256 << 10,
                     "node_sizes": (4 << 10, 64 << 10, 1 << 20), "n_queries": 30,
                     "warmup_queries": 20},
        "cob": {"quick": True, "n_entries": 3_000, "node_sizes": (16 << 10, 256 << 10),
                "threads": (1, 8)},
        "serve": {"quick": True, "rates": (300.0,), "policies": ("none", "hedge")},
        "durability": {"quick": True, "devices": ("dam", "affine"),
                       "group_commits": (1, 16)},
        "tailres": {"quick": True, "intensities": (0.0, 1.0), "policies": ("none", "hedge"),
                    "trees": ("btree",)},
    },
}


def experiment_modules() -> dict[str, Any]:
    from repro.experiments import (
        exp_autotune,
        exp_betree_nodesize,
        exp_btree_nodesize,
        exp_cob_compare,
        exp_durability,
        exp_serve_tail,
        exp_tail_resilience,
    )

    return {
        "fig2": exp_btree_nodesize,
        "fig3": exp_betree_nodesize,
        "autotune": exp_autotune,
        "cob": exp_cob_compare,
        "serve": exp_serve_tail,
        "durability": exp_durability,
        "tailres": exp_tail_resilience,
    }


def _shape_problems(name: str, result: Any, full: bool) -> list[str]:
    """The experiment's own shape checks (from its tests and gates).

    Structural checks always apply.  The paper-shape claims are checked at
    the full size only: the tiny size is too small to show them.
    """
    from repro.runner import PointError

    rows: list[Any] = []
    for value in vars(result).values():
        if isinstance(value, list):
            rows.extend(value)
    problems = [f"{name}: {r}" for r in rows if isinstance(r, PointError)]
    if not result.render():
        problems.append(f"{name}: empty report")
    if problems or not full:
        return problems
    claims: dict[str, Callable[[], bool]] = {
        # Figure 2: cost grows past an optimum below half-bandwidth.
        "fig2": lambda: (
            result.query_ms[-1] > 1.7 * min(result.query_ms)
            and result.insert_ms[-1] > 1.7 * min(result.insert_ms)
            and result.query_fit is not None
            and result.query_fit.alpha > 0
        ),
        # Figure 3: the Bε-tree is flat and inserts are write-optimized.
        "fig3": lambda: (
            result.sensitivity("query") < 3.0
            and max(result.insert_ms) < min(result.query_ms)
        ),
        # E17 gates 1b and 2: the 16x-off start was bad somewhere, and no
        # static node size is within 2x on every device.  (Gate 1, landing
        # within 2x everywhere, needs the experiment's full 600k entries.)
        "autotune": lambda: (
            max(r.start_ratio for r in result.rows) > 2.0
            and result.best_static_worst_ratio > 2.0
        ),
        # E20: knobless trees are flat by construction; the B-tree is not.
        "cob": lambda: all(
            result.sensitivity(m, t) == 1.0
            for m in result.models
            for t in ("cola", "cob", "cob-buffered")
        ) and all(result.sensitivity(m, "btree") > 1.5 for m in result.models),
        # E19: every configuration served traffic.
        "serve": lambda: all(r["served"] > 0 for r in result.rows),
        # E21: every crashed point recovered to its acked prefix.
        "durability": lambda: all(r["recovered_ok"] for r in result.rows),
        # E18: with no faults, no policy changes any op's outcome.
        "tailres": lambda: all(
            r["failed"] == 0 for r in result.tree_rows if r["intensity"] == 0.0
        ),
    }
    return [] if claims[name]() else [f"{name}: shape check failed"]


@dataclass
class SweepState:
    seed: int
    size: str
    experiments: dict[str, Any]
    setup_at_reference_s: float


#: Run in a fresh interpreter: time the experiments' import between two
#: host-speed bursts and print the three figures.
_TIMED_IMPORT = """
import json, time
from hostspeed import burst
before = burst()
start = time.perf_counter()
import repro.experiments.cli
seconds = time.perf_counter() - start
print(json.dumps([before, seconds, burst()]))
"""


def sweep_setup(seed: int, size: str = "full") -> SweepState:
    """A researcher's set-up: a fresh interpreter importing the experiments.

    The import runs in a child process (and is waited for) so each
    repetition pays the full import cost, not a warm module cache.  The
    child times the import itself, at its own CPU's speed.
    """
    from hostspeed import at_reference_speed

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    child = subprocess.run(
        [sys.executable, "-c", _TIMED_IMPORT],
        cwd=ROOT, env=env, check=True, timeout=120, capture_output=True, text=True,
    )
    before, seconds, after = json.loads(child.stdout.splitlines()[-1])
    return SweepState(
        seed=seed, size=size, experiments=experiment_modules(),
        setup_at_reference_s=at_reference_speed([seconds], [before, after])[0],
    )


def sweep_pass(state: SweepState, index: int, tick: Callable[[], None] = _no_tick
               ) -> PassOutcome:
    """Run the seven runner-migrated experiments uncached at ``jobs=1``."""
    from repro.runner import ResultCache

    OUT_DIR.mkdir(exist_ok=True)
    points = attempted = failed = 0
    segments: list[float] = []
    reports: list[str] = []
    problems: list[str] = []
    for i, (name, kwargs) in enumerate(SWEEP_SIZES[state.size].items()):
        if i:
            tick()
        module = state.experiments[name]
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=OUT_DIR)
        try:
            cache = ResultCache(cache_dir)
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = module.run(seed=state.seed, jobs=1, cache=cache, **kwargs)
            except Exception as exc:  # a failed experiment is a counted failure
                segments.append(time.perf_counter() - t0)
                failed += 1
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            segments.append(time.perf_counter() - t0)
            points += cache.misses
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        bad = _shape_problems(name, result, state.size == "full")
        failed += bool(bad)
        problems.extend(bad)
        reports.append(result.render())
    return PassOutcome(
        ops=points, segments=segments, attempted=attempted, failed=failed,
        digest=_digest(reports), details={"problems": problems},
    )


# -- kv_mixed ----------------------------------------------------------------


KV_SIZES = {
    "full": {"n_keys": 100_000, "budget_bytes": 2 << 20, "pass_ops": 20_000},
    "tiny": {"n_keys": 2_000, "budget_bytes": 64 << 10, "pass_ops": 500},
}
KV_UNIVERSE = 1 << 40
KV_SCAN_KEYS = 16  # loaded keys a short scan spans
#: Fresh-key puts draw from a reserve of keys absent at load time, this
#: share of the loaded count: the store grows by at most the reserve and
#: then stays at a steady size, however many passes a run completes.
KV_RESERVE = 0.2
KV_GET, KV_PUT = 0.60, 0.35  # the remaining 5% are scans


@dataclass
class KVState:
    seed: int
    size: str
    trees: dict[str, Any]
    devices: dict[str, Any]
    loaded: list[int]
    reserve: list[int]
    oracles: dict[str, dict[int, int]]
    sorted_keys: dict[str, list[int]]
    zipf: Any
    load_s: dict[str, float]


def _build_tree(kind: str, device: Any, budget: int) -> tuple[Any, Callable]:
    """One tree of ``kind`` on ``device`` and the call that loads it."""
    from repro.storage.stack import StorageStack
    from repro.trees.betree import BeTreeConfig, OptimizedBeTree
    from repro.trees.btree import BTree, BTreeConfig
    from repro.trees.cob import COBConfig, COBTree
    from repro.trees.cola import COLA, COLAConfig
    from repro.trees.lsm import LSMConfig, LSMTree

    if kind == "btree":
        stack = StorageStack(device, budget)
        tree = BTree(stack, BTreeConfig(node_bytes=16 << 10))
        return tree, tree.bulk_load
    if kind == "betree":
        stack = StorageStack(device, budget)
        tree = OptimizedBeTree(stack, BeTreeConfig(node_bytes=64 << 10, fanout=16))
        return tree, tree.bulk_load
    if kind == "lsm":
        tree = LSMTree(device, LSMConfig(
            sstable_bytes=256 << 10, memtable_bytes=budget // 4,
            level1_bytes=budget, block_bytes=4096,
        ))

        def load(pairs: list) -> None:
            tree.put_many(pairs)
            tree.flush_memtable()

        return tree, load
    if kind == "cola":
        tree = COLA(device, COLAConfig(ram_bytes=budget))
        return tree, tree.put_many
    tree = COBTree(device, COBConfig(ram_bytes=budget))
    return tree, tree.bulk_load


def kv_setup(seed: int, size: str = "full") -> KVState:
    """Generate the keys, then load the five kinds with the same pairs."""
    from repro.experiments.devices import default_hdd
    from repro.workloads.distributions import ZipfKeys
    from repro.workloads.generators import random_load_pairs

    cfg = KV_SIZES[size]
    n_reserve = int(cfg["n_keys"] * KV_RESERVE)
    drawn = random_load_pairs(cfg["n_keys"] + n_reserve, KV_UNIVERSE, seed=seed)
    # Every sixth key is held back as the reserve, so both sets span the
    # whole key range.
    pairs = [p for i, p in enumerate(drawn) if i % 6]
    loaded = [k for k, _ in pairs]
    reserve = [k for i, (k, _) in enumerate(drawn) if not i % 6]
    state = KVState(
        seed=seed, size=size, trees={}, devices={}, loaded=loaded, reserve=reserve,
        oracles={}, sorted_keys={}, zipf=ZipfKeys(len(loaded), seed=seed, theta=1.2),
        load_s={},
    )
    for i, kind in enumerate(KINDS):
        device = default_hdd(seed=seed * len(KINDS) + i)
        tree, load = _build_tree(kind, device, cfg["budget_bytes"])
        t0 = time.perf_counter()
        load(list(pairs))
        state.load_s[kind] = time.perf_counter() - t0
        state.trees[kind] = tree
        state.devices[kind] = device
        state.oracles[kind] = dict(pairs)
        state.sorted_keys[kind] = list(loaded)
    return state


def kv_ops(state: KVState, index: int) -> tuple[np.ndarray, ...]:
    """The seeded op stream of pass ``index``: op codes (0 get, 1 put,
    2 scan), keys (a scan's low end), scan high ends, and put values.
    Op ``i`` goes to kind ``i % 5``."""
    n = KV_SIZES[state.size]["pass_ops"]
    rng = np.random.default_rng([state.seed, index])
    u = rng.random(n)
    op = np.where(u < KV_GET, 0, np.where(u < KV_GET + KV_PUT, 1, 2))
    hot = state.zipf.sample(n)
    fresh = np.asarray(state.reserve, dtype=np.int64)[
        rng.integers(0, len(state.reserve), size=n)
    ]
    use_fresh = rng.random(n) < 0.5
    starts = rng.integers(0, len(state.loaded) - KV_SCAN_KEYS, size=n)
    loaded = np.asarray(state.loaded, dtype=np.int64)
    key = np.where(op == 1, np.where(use_fresh, fresh, loaded[hot]), loaded[hot])
    key = np.where(op == 2, loaded[starts], key)
    hi = loaded[np.minimum(starts + KV_SCAN_KEYS - 1, len(loaded) - 1)]
    value = index * n + np.arange(n) + 1
    return op, key, hi, value


def kv_pass(state: KVState, index: int, tick: Callable[[], None] = _no_tick) -> PassOutcome:
    """Round-robin the pass's ops across the kinds, checking every answer."""
    op, key, hi, value = kv_ops(state, index)
    n = len(op)
    before = {k: _device_tuple(d) for k, d in state.devices.items()}
    lat: dict[str, list[int]] = {"get": [], "put": [], "scan": []}
    get_lat, put_lat, scan_lat = lat["get"], lat["put"], lat["scan"]
    clock = time.perf_counter_ns
    failed = 0
    total_ns = 0
    per_kind_ops = dict.fromkeys(KINDS, 0)
    for i, (o, k, h, v) in enumerate(zip(op.tolist(), key.tolist(), hi.tolist(),
                                         value.tolist())):
        kind = KINDS[i % len(KINDS)]
        per_kind_ops[kind] += 1
        tree = state.trees[kind]
        oracle = state.oracles[kind]
        if o == 0:
            t0 = clock()
            got = tree.get(k)
            dt = clock() - t0
            get_lat.append(dt)
            failed += got != oracle[k]
        elif o == 1:
            t0 = clock()
            tree.insert(k, v)
            dt = clock() - t0
            put_lat.append(dt)
            if k not in oracle:
                bisect.insort(state.sorted_keys[kind], k)
            oracle[k] = v
        else:
            t0 = clock()
            got = tree.range(k, h)
            dt = clock() - t0
            scan_lat.append(dt)
            keys = state.sorted_keys[kind]
            lo_i, hi_i = bisect.bisect_left(keys, k), bisect.bisect_right(keys, h)
            failed += list(got) != [(x, oracle[x]) for x in keys[lo_i:hi_i]]
        total_ns += dt
    after = {k: _device_tuple(d) for k, d in state.devices.items()}
    sim = sum(after[k][-1] - before[k][-1] for k in KINDS)
    ios_per_op = {
        k: (after[k][0] + after[k][1] - before[k][0] - before[k][1]) / max(per_kind_ops[k], 1)
        for k in KINDS
    }
    return PassOutcome(
        ops=n, segments=[total_ns / 1e9], attempted=n, failed=failed,
        digest=_digest([after[k] for k in KINDS]),
        latencies_ns=lat, sim_seconds=sim, details={"ios_per_op": ios_per_op},
    )


def _device_tuple(device: Any) -> tuple:
    s = device.stats
    return (s.reads, s.writes, s.bytes_read, s.bytes_written,
            s.read_seconds, s.write_seconds, device.clock)


# -- io_validation -----------------------------------------------------------


IO_SIZES = {
    "full": {"io_sizes": tuple(4096 * 4**k for k in range(7)), "reads_per_size": 64,
             "writes_per_size": 16, "threads": (1, 2, 4, 8, 16, 32),
             "requests_per_thread": 128, "n_keys": 1 << 16, "clients": (1, 2, 4, 8),
             "queries_per_client": 24},
    "tiny": {"io_sizes": tuple(4096 * 4**k for k in range(7)), "reads_per_size": 32,
             "writes_per_size": 2, "threads": (1, 2, 4, 8, 16, 32), "requests_per_thread": 128,
             "n_keys": 1 << 10, "clients": (1, 4), "queries_per_client": 4},
}
IO_WRITE_FRACTION = 0.2
IO_REQUEST_BYTES = 64 << 10
AFFINE_R2_GATE = 0.995  # Table 2's gate in the experiment tests
PDAM_R2_GATE = 0.97  # Table 1's gate for a write mix
PDAM_P, PDAM_B = 8, 4096
PDAM_MODES = ("flat_b", "flat_pb", "veb_pb")


@dataclass
class IOState:
    seed: int
    size: str
    ladders: dict[str, list[tuple[int, list[int], list[int]]]]
    streams: dict[str, dict[int, list[list[Any]]]]
    search_tree: Any
    gen_s: float


def io_setup(seed: int, size: str = "full") -> IOState:
    """Draw the IO offsets and request streams; build the static search tree."""
    from repro.experiments.devices import HDD_ZOO, SSD_ZOO, make_hdd, make_ssd
    from repro.storage.device import ReadRequest, WriteRequest
    from repro.trees.btree.veb import StaticSearchTree

    cfg = IO_SIZES[size]
    t0 = time.perf_counter()
    rng = np.random.default_rng([seed, 1])
    ladders = {}
    for name in sorted(HDD_ZOO):
        capacity = make_hdd(name).capacity_bytes
        ladder = []
        for io in cfg["io_sizes"]:
            blocks = (capacity - io) // 512
            reads = (rng.integers(0, blocks, size=cfg["reads_per_size"]) * 512).tolist()
            writes = (rng.integers(0, blocks, size=cfg["writes_per_size"]) * 512).tolist()
            ladder.append((io, reads, writes))
        ladders[name] = ladder
    streams: dict[str, dict[int, list[list[Any]]]] = {}
    for name in sorted(SSD_ZOO):
        stripes = make_ssd(name).capacity_bytes // IO_REQUEST_BYTES
        streams[name] = {}
        for p in cfg["threads"]:
            per_thread = []
            for _ in range(p):
                offs = rng.integers(0, stripes, size=cfg["requests_per_thread"])
                writes = rng.random(cfg["requests_per_thread"]) < IO_WRITE_FRACTION
                per_thread.append([
                    (WriteRequest if w else ReadRequest)(int(o) * IO_REQUEST_BYTES,
                                                         IO_REQUEST_BYTES)
                    for o, w in zip(offs, writes)
                ])
            streams[name][p] = per_thread
    keys = np.unique(rng.integers(1, 1 << 40, size=cfg["n_keys"]))
    gen_s = time.perf_counter() - t0
    return IOState(seed=seed, size=size, ladders=ladders, streams=streams,
                   search_tree=StaticSearchTree(keys), gen_s=gen_s)


def _gate(fit: Callable[..., Any], r2_gate: float, *args: Any, **kwargs: Any) -> str:
    """Why the fit fails its R^2 gate, or ``""`` when it passes."""
    from repro.errors import FitError

    try:
        r2 = fit(*args, **kwargs).r2
    except FitError as exc:
        return f"fit failed: {exc}"
    return "" if r2 > r2_gate else f"R^2 {r2:.4f} <= {r2_gate}"


def io_pass(state: IOState, index: int, tick: Callable[[], None] = _no_tick) -> PassOutcome:
    """Table 2 ladder, Table 1 thread ramp, Lemma 13 queries; fits gated."""
    from repro.analysis.fitting import fit_affine_model, fit_pdam_model
    from repro.experiments.devices import make_hdd, make_ssd
    from repro.models.pdam import PDAMModel
    from repro.storage.ideal import PDAMDevice
    from repro.trees.btree.veb import PDAMQuerySimulator

    cfg = IO_SIZES[state.size]
    ios = attempted = failed = 0
    segments = [0.0, 0.0, 0.0]  # Table 2 ladder, Table 1 ramp, Lemma 13 queries
    outputs: list[Any] = []
    problems: list[str] = []

    for name, ladder in state.ladders.items():
        t0 = time.perf_counter()
        hdd = make_hdd(name, seed=state.seed)
        means = []
        for io, reads, writes in ladder:
            means.append(sum(hdd.read(off, io) for off in reads) / len(reads))
            hdd.write_batch(writes, io)
        segments[0] += time.perf_counter() - t0
        ios += hdd.stats.ios
        attempted += 1
        problem = _gate(fit_affine_model, AFFINE_R2_GATE,
                        [float(io) for io, _, _ in ladder], means)
        if problem:
            failed += 1
            problems.append(f"{name}: affine {problem}")
        outputs.append((name, means, hdd.clock))

    tick()
    bytes_per_thread = cfg["requests_per_thread"] * IO_REQUEST_BYTES
    for name, by_threads in state.streams.items():
        makespans = []
        for p, client_streams in by_threads.items():
            t0 = time.perf_counter()
            ssd = make_ssd(name)
            makespans.append(ssd.run_closed_loop(client_streams))
            segments[1] += time.perf_counter() - t0
            ios += ssd.stats.ios
        attempted += 1
        problem = _gate(fit_pdam_model, PDAM_R2_GATE, list(by_threads), makespans,
                        bytes_per_thread=bytes_per_thread)
        if problem:
            failed += 1
            problems.append(f"{name}: PDAM {problem}")
        outputs.append((name, makespans))

    tick()
    for mode in PDAM_MODES:
        throughputs = []
        for k in cfg["clients"]:
            t0 = time.perf_counter()
            device = PDAMDevice(PDAMModel(parallelism=PDAM_P, block_bytes=PDAM_B))
            sim = PDAMQuerySimulator(device, state.search_tree, mode=mode)
            out = sim.run(k, cfg["queries_per_client"], seed=state.seed)
            segments[2] += time.perf_counter() - t0
            ios += device.stats.ios
            attempted += 1
            if out.queries_completed != k * cfg["queries_per_client"]:
                failed += 1
                problems.append(f"{mode} k={k}: {out.queries_completed} queries completed")
            throughputs.append(out.throughput)
        outputs.append((mode, throughputs))

    return PassOutcome(
        ops=ios, segments=segments, attempted=attempted, failed=failed,
        digest=_digest(outputs), details={"problems": problems},
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable[..., Any]
    run_pass: Callable[..., PassOutcome]
    #: Every pass starts from the same state, so every pass's digest must
    #: equal pass 0's; kv_mixed passes continue one evolving store instead.
    repeatable: bool


WORKLOADS = {
    "sweep": Workload(sweep_setup, sweep_pass, repeatable=True),
    "kv_mixed": Workload(kv_setup, kv_pass, repeatable=False),
    "io_validation": Workload(io_setup, io_pass, repeatable=True),
}
