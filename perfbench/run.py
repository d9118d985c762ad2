"""The repo benchmark: one seeded workload, measured end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {sweep,kv_mixed,io_validation} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs pass 0 untimed, then repeats passes for ``--seconds`` and
reports the end-to-end metrics, with host times rescaled to a reference
host speed (see ``hostspeed.py``).  ``--trace 1`` runs set-up plus pass 0
untraced, then again with every layer's entry points wrapped (see
``tracer.py``), and reports the per-layer metrics, the tracing overhead
and the conservation checks.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (including host calibration and the determinism digest)
is also written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from hostspeed import at_reference_speed, burst
from workloads import KINDS, OUT_DIR, ROOT, WORKLOADS

SETUP_REPEATS = 3
TREE_LAYERS = tuple(f"trees.{kind}" for kind in KINDS)
SELF_LAYERS = TREE_LAYERS + (
    "cache", "allocator", "device", "engine", "veb", "serve", "recovery", "runner",
    "experiments", "workloads",
)

#: End-to-end metrics in the final JSON line: (name, unit).
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

def typical_pass_seconds(passes: list[list[float]]) -> float:
    """A pass's seconds from several passes' per-segment seconds.

    Each segment position takes its median across passes, and the medians
    are summed, so a slow spell that hits one segment of one pass moves
    the figure less than it would move that pass's total.
    """
    return sum(statistics.median(p[i] for p in passes) for i in range(len(passes[0])))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for layer in TREE_LAYERS:
        names += [(f"{layer}.load_s", "s"), (f"{layer}.ios_per_op", "count")]
    names += [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
    names += [
        ("unattributed_s", "s"),
        ("cache.hit_rate", "ratio"), ("cache.evictions", "count"),
        ("cache.dirty_evictions", "count"),
        ("allocator.calls", "count"),
        ("device.ios", "count"), ("device.bytes", "bytes"), ("device.sim_s", "s"),
        ("device.batch_frac", "ratio"),
        ("engine.requests", "count"), ("veb.queries", "count"),
        ("serve.rounds", "count"), ("serve.hedge_win_rate", "ratio"),
        ("recovery.wal_commits", "count"), ("recovery.replay_s", "s"),
        ("runner.points", "count"), ("runner.cache_s", "s"), ("runner.overhead_s", "s"),
        ("experiments.post_s", "s"),
        ("workloads.gen_s", "s"),
        ("trace.overhead_ratio", "ratio"), ("trace.traced_wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
    ]
    return names


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[int], q: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def warm_up(workload: Any, seed: int) -> None:
    """One tiny set-up and pass, so lazy imports land before any timing."""
    workload.run_pass(workload.setup(seed, "tiny"), 0)


def measure(workload: Any, name: str, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced run: repeated set-up, pass 0, then passes for ``seconds``."""
    setup_times, setup_ref = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        before = burst()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        # A set-up run in a child interpreter times itself there, between
        # bursts on the child's own CPU.
        setup_ref.append(getattr(state, "setup_at_reference_s", None)
                         or at_reference_speed([setup_times[-1]], [before, burst()])[0])
    outcomes, pass_ref, pass_bursts = [], [], []
    rss = 0.0
    t_start = 0.0
    # Pass 0 is checked but not timed: the first full-size pass also pays
    # for lazy imports, growing the heap and first-touch allocation.
    while len(outcomes) < 2 or time.perf_counter() - t_start < seconds:
        if len(outcomes) == 1:
            t_start = time.perf_counter()
        bursts = [burst()]
        outcomes.append(workload.run_pass(state, len(outcomes),
                                          lambda: bursts.append(burst())))
        bursts.append(burst())
        pass_bursts.append(bursts)
        pass_ref.append(at_reference_speed(outcomes[-1].segments, bursts))
        # Peak memory through set-up and the first pass: a fixed amount
        # of work, so the figure does not depend on how many passes fit.
        rss = rss or peak_rss_mb()
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if workload.repeatable:
        # Same seed, fresh state: every pass must reproduce pass 0 exactly.
        mismatched = sum(o.digest != outcomes[0].digest for o in outcomes)
        attempted += len(outcomes) - 1
        failed += mismatched
    timed = outcomes[1:]
    pass_s = typical_pass_seconds(pass_ref[1:])
    ops = statistics.median(o.ops for o in timed)
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "ops_per_s": ops / pass_s,
        "peak_rss_mb": rss,
    }
    host_ops_per_s = ops / typical_pass_seconds([o.segments for o in timed])
    # The issue's end-to-end metrics for this workload: name -> (value, unit).
    report: dict[str, tuple[float, str]] = {
        "setup_s": (metrics["setup_s"], "s"),
        "setup_s (host)": (statistics.median(setup_times), "s"),
    }
    if name == "sweep":
        report["sweep_s"] = (pass_s, "s")
        report["sweep_s (host)"] = (typical_pass_seconds([o.segments for o in timed]), "s")
    elif name == "kv_mixed":
        report["ops_per_s"] = (metrics["ops_per_s"], "1/s")
        report["ops_per_s (host)"] = (host_ops_per_s, "1/s")
        for op in ("get", "put", "scan"):
            lat = [x for o in timed for x in o.latencies_ns[op]]
            report[f"{op}_us_p50"] = (percentile(lat, 0.50) / 1e3, "us")
            report[f"{op}_us_p99"] = (percentile(lat, 0.99) / 1e3, f"us (n={len(lat)})")
        report["sim_ms_per_op"] = (outcomes[0].sim_seconds / outcomes[0].ops * 1e3, "ms")
    else:
        report["ios_per_s"] = (metrics["ops_per_s"], "1/s")
        report["ios_per_s (host)"] = (host_ops_per_s, "1/s")
    report["error_rate"] = (failed / attempted, "ratio")
    report["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    problems = sorted({p for o in outcomes for p in o.details.get("problems", [])})
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "passes": len(outcomes),
        "setup_times": setup_times,
        "pass_segments": [o.segments for o in outcomes],
        "pass_segments_at_reference_speed": pass_ref,
        "pass_bursts": pass_bursts,
        "digest": outcomes[0].digest,
        "problems": problems,
    }


def traced(workload: Any, name: str, seed: int, spans_path: Path) -> dict[str, Any]:
    """Set-up plus pass 0 untraced, then traced; per-layer metrics."""
    from tracer import Tracer, install, self_times

    warm_up(workload, seed)
    gc.collect()
    t0 = time.perf_counter_ns()
    ref_state = workload.setup(seed)
    ref = workload.run_pass(ref_state, 0)
    untraced_ns = time.perf_counter_ns() - t0
    load_s = getattr(ref_state, "load_s", {})
    gen_s = getattr(ref_state, "gen_s", 0.0)
    ref_state = None
    gc.collect()

    tracer = install(Tracer())
    t0 = time.perf_counter_ns()
    try:
        state = workload.setup(seed)
        out = workload.run_pass(state, 0)
    finally:
        traced_ns = time.perf_counter_ns() - t0
        tracer.uninstall()
    tracer.save(str(spans_path))

    checks: dict[str, str] = {}
    failed = ref.failed + out.failed
    attempted = ref.attempted + out.attempted + 1
    if ref.digest != out.digest:
        failed += 1
        checks["digest"] = f"traced {out.digest} != untraced {ref.digest}"
    else:
        checks["digest"] = f"ok ({out.digest})"

    nid, start, end, parent = tracer.arrays()
    layers = self_times(tracer.names, nid, start, end, parent)
    roots = parent < 0
    root_ns = int((end[roots] - start[roots]).sum())
    unattributed_ns = traced_ns - sum(layers.values())
    attempted += 1
    if (sum(layers.values()) == root_ns and unattributed_ns >= 0
            and min(layers.values(), default=0) >= 0 and set(layers) <= set(SELF_LAYERS)):
        checks["self_time"] = (
            f"ok (self {sum(layers.values())} ns + unattributed {unattributed_ns} ns"
            f" = traced wall {traced_ns} ns)"
        )
    else:
        failed += 1
        checks["self_time"] = f"FAILED: layers {layers}, roots {root_ns}, wall {traced_ns}"

    if name == "kv_mixed":
        attempted += 1
        wrong = [
            kind for kind, device in state.devices.items()
            if tracer.device_seconds.get(id(device))
            != [device.stats.read_seconds, device.stats.write_seconds]
        ]
        if wrong:
            failed += 1
            checks["device_seconds"] = f"FAILED for {wrong}"
        else:
            checks["device_seconds"] = (
                "ok (per-kind traced read+write seconds equal DeviceStats exactly)"
            )

    c = tracer.counters
    for field in ("hits", "misses", "evictions", "dirty_evictions"):
        c[f"cache.{field}"] += sum(getattr(cache.stats, field) for cache in tracer.caches)
    hits, misses = c["cache.hits"], c["cache.misses"]
    metrics: dict[str, float] = {}
    for layer in TREE_LAYERS:
        kind = layer.split(".")[1]
        metrics[f"{layer}.load_s"] = load_s.get(kind, 0.0) if load_s else tracer.total_ns(
            lambda n, k=kind: n == f"trees.{k}.bulk_load") / 1e9
        metrics[f"{layer}.ios_per_op"] = ref.details.get("ios_per_op", {}).get(kind, 0.0)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = layers.get(layer, 0) / 1e9
    run_sweep_ns = tracer.total_ns(lambda n: n == "runner.run_sweep")
    hedges = c["serve.hedges_issued"]
    metrics.update({
        "unattributed_s": unattributed_ns / 1e9,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": c["cache.evictions"],
        "cache.dirty_evictions": c["cache.dirty_evictions"],
        "allocator.calls": c["allocator.calls"],
        "device.ios": c["device.ios"],
        "device.bytes": c["device.bytes"],
        "device.sim_s": c["device.sim_s"],
        "device.batch_frac": c["device.batch_ios"] / c["device.ios"] if c["device.ios"] else 0.0,
        "engine.requests": c["engine.requests"],
        "veb.queries": c["veb.queries"],
        "serve.rounds": c["serve.rounds"],
        "serve.hedge_win_rate": c["serve.hedges_won"] / hedges if hedges else 0.0,
        "recovery.wal_commits": tracer.count(lambda n: n == "recovery.wal.commit"),
        "recovery.replay_s": tracer.total_ns(lambda n: n == "recovery.durable.recover") / 1e9,
        "runner.points": tracer.count(lambda n: n.startswith("kernel.")),
        "runner.cache_s": tracer.total_ns(lambda n: n.startswith("runner.cache.")) / 1e9,
        "runner.overhead_s": (
            run_sweep_ns - tracer.total_ns(lambda n: n.startswith("kernel."))
        ) / 1e9,
        "experiments.post_s": (
            tracer.total_ns(lambda n: n.startswith("experiments.")) - run_sweep_ns
        ) / 1e9,
        "workloads.gen_s": gen_s + tracer.total_ns(lambda n: n.startswith("workloads.")) / 1e9,
        "trace.overhead_ratio": traced_ns / untraced_ns,
        "trace.traced_wall_s": traced_ns / 1e9,
        "trace.untraced_wall_s": untraced_ns / 1e9,
    })
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "checks": checks,
        "digest": out.digest,
        "spans": len(nid),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "problems": sorted(set(ref.details.get("problems", []) + out.details.get("problems", []))),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    try:
        from bench_engine_vector import _calibration
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT}: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload]
    calibration_before = _calibration()
    if args.trace:
        result = traced(workload, args.workload, args.seed, OUT_DIR / f"{stem}.spans.npz")
        units = dict(per_layer_names())
    else:
        result = measure(workload, args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    result["calibration_s"] = {"before": calibration_before, "after": _calibration()}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  host calibration: {result['calibration_s']['before']:.4f} s before, "
          f"{result['calibration_s']['after']:.4f} s after (informational)")
    if "report" in result:
        for key, (value, unit) in result["report"].items():
            print(f"  {key:24s} {value:.6g} {unit}")
    else:
        for key, value in result["metrics"].items():
            print(f"  {key:32s} {value:.6g} {units[key]}")
    for key, value in result.get("checks", {}).items():
        print(f"  check {key}: {value}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  digest {result['digest']}; attempted {result['attempted']}, "
          f"failed {result['failed']}")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True))

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
