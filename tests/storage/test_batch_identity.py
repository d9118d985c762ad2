"""Scalar-vs-batched byte-identity across every device model.

The batched IO contract (docs/architecture.md): ``read_batch`` /
``write_batch`` are *semantically invisible* — clock, stats, trace,
sampler, OBS events and RNG stream position must match a serial loop of
``read`` / ``write`` bit for bit.  These tests enforce that with exact float
equality (no ``approx``) on every device the experiments use, plus the
fault wrapper in both its transparent and perturbed configurations, and
with observability both off and on.
"""

import pytest

from repro.errors import InvalidIOError
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.models.affine import AffineModel
from repro.models.pdam import PDAMModel
from repro.obs import OBS
from repro.storage.device import ReadRequest
from repro.storage.engine import ClosedLoopRunner, ResourcePool
from repro.storage.hdd import HDDGeometry, SimulatedHDD
from repro.storage.ideal import AffineDevice, PDAMDevice
from repro.storage.ram import ConstantLatencyDevice
from repro.storage.ssd import SimulatedSSD, SSDGeometry

OFFSETS = [512, 1 << 20, 4096, 2 << 20, 4096 + 65536, 1 << 24]
NBYTES = 4096
#: Back-to-back batches the identity tests run on one device pair: the
#: random mix, a sequential run (HDD's no-draw path, affine's setup
#: waiver on both directions), and a multi-block size (PDAM wastes slots).
CASES = [
    (OFFSETS, NBYTES),
    ([1 << 20, (1 << 20) + 4096, (1 << 20) + 8192, 512], NBYTES),
    (OFFSETS, 3 * NBYTES),
]


def affine(trace=False):
    return AffineDevice(
        AffineModel(alpha=2.5e-6, setup_seconds=0.004),
        capacity_bytes=1 << 30,
        sequential_detection=True,
        write_multiplier=2.5,
        trace=trace,
    )


def pdam(trace=False):
    return PDAMDevice(
        PDAMModel(block_bytes=4096, parallelism=4, step_seconds=1e-4),
        capacity_bytes=1 << 30,
        trace=trace,
    )


def hdd(seed=3, trace=False):
    return SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=seed, trace=trace)


def ssd(trace=False):
    return SimulatedSSD(SSDGeometry(capacity_bytes=1 << 30), trace=trace)


def constant(trace=False):
    return ConstantLatencyDevice(0.002, capacity_bytes=1 << 30, trace=trace)


def faulty_transparent(trace=False):
    return FaultyDevice(hdd(seed=7, trace=trace), FaultPlan(seed=11), trace=trace)


def faulty_perturbed(trace=False):
    return FaultyDevice(
        hdd(seed=7, trace=trace),
        FaultPlan(seed=11, spike_prob=0.5, spike_seconds=0.01, error_prob=0.2),
        policy=ResiliencePolicy.retry(max_retries=4, timeout_seconds=10.0),
        trace=trace,
    )


def _observed(make):
    """``make`` built with tracing and passive sampling on, inner too."""

    def build():
        dev = make(trace=True)
        dev.enable_sampling()
        if isinstance(dev, FaultyDevice):
            dev.inner.enable_sampling()
        return dev

    return build


DEVICES = {
    "constant": _observed(constant),
    "affine": _observed(affine),
    "pdam": _observed(pdam),
    "hdd": _observed(hdd),
    "ssd": _observed(ssd),
    "faulty-transparent": _observed(faulty_transparent),
    "faulty-perturbed": _observed(faulty_perturbed),
}


def _state(dev):
    """Everything a batch must leave bit-identical to the serial loop."""
    state = {
        "clock": dev.clock,
        "stats": vars(dev.stats).copy(),
        "trace": list(dev.trace),
        "samples": dev.sampler.samples() if dev.sampler is not None else None,
    }
    if isinstance(dev, SimulatedHDD):
        state["head"] = dev.head_position
        # One more draw exposes any RNG stream divergence.
        state["next_draw"] = float(dev._rng.random())
    if isinstance(dev, PDAMDevice):
        state["steps"] = dev.steps_elapsed
        state["slots"] = (dev.slots_used, dev.slots_wasted)
    if isinstance(dev, SimulatedSSD):
        state["dies"] = dev._dies.available_at_array.tolist()
        state["channels"] = dev._channels.available_at_array.tolist()
    if isinstance(dev, FaultyDevice):
        state["inner"] = _state(dev.inner)
        state["faults"] = vars(dev.fault_stats).copy()
    return state


def _serial_vs_batch(name, direction):
    """Run every case serially on one device and batched on a twin.

    Returns ``(ref, dev, expected, got)`` with per-case elapsed lists.
    """
    ref, dev = DEVICES[name](), DEVICES[name]()
    op = getattr(ref, direction)
    batch = getattr(dev, f"{direction}_batch")
    expected = [[op(off, nbytes) for off in offsets] for offsets, nbytes in CASES]
    got = [batch(offsets, nbytes) for offsets, nbytes in CASES]
    return ref, dev, expected, got


@pytest.mark.parametrize("name", DEVICES)
@pytest.mark.parametrize("direction", ["read", "write"])
def test_batch_identical_to_serial_loop(name, direction):
    ref, dev, expected, got = _serial_vs_batch(name, direction)
    assert got == expected  # exact float equality, not approx
    assert _state(dev) == _state(ref)


@pytest.mark.parametrize("name", DEVICES)
def test_batch_identical_under_observability(name, monkeypatch):
    monkeypatch.setattr(OBS, "enabled", True)
    ref, dev, expected, got = _serial_vs_batch(name, "read")
    assert got == expected
    assert _state(dev) == _state(ref)


@pytest.mark.parametrize("name", DEVICES)
@pytest.mark.parametrize("direction", ["read", "write"])
def test_batch_obs_events_match_serial_loop(name, direction, monkeypatch):
    # Every OBS.io_event argument, setup seconds included, per emitting
    # device in order.  The transparent fault wrapper's inner batch runs
    # before the wrapper books its IOs, so only the global interleaving
    # of wrapper and inner events differs from the serial loop.
    events = []

    def record(device, kind, offset, nbytes, start, end, setup_seconds=None):
        events.append((device, kind, offset, nbytes, start, end, setup_seconds))

    def by_device():
        grouped = {}
        for event in events:
            grouped.setdefault(event[0], []).append(event)
        events.clear()
        return grouped

    monkeypatch.setattr(OBS, "enabled", True)
    monkeypatch.setattr(OBS, "io_event", record)
    ref, dev = DEVICES[name](), DEVICES[name]()
    for offsets, nbytes in CASES:
        for off in offsets:
            getattr(ref, direction)(off, nbytes)
    serial = by_device()
    for offsets, nbytes in CASES:
        getattr(dev, f"{direction}_batch")(offsets, nbytes)
    assert by_device() == serial
    assert serial  # the recorder saw the IOs


@pytest.mark.parametrize("name", DEVICES)
def test_invalid_batch_charges_nothing(name):
    dev = DEVICES[name]()
    with pytest.raises(InvalidIOError):
        dev.write_batch([0, dev.capacity_bytes], NBYTES)
    assert dev.stats.ios == 0 and dev.clock == 0.0


@pytest.mark.parametrize("name", DEVICES)
def test_empty_batch_is_noop(name):
    dev = DEVICES[name]()
    assert dev.read_batch([], NBYTES) == []
    assert dev.write_batch([], NBYTES) == []
    assert dev.stats.ios == 0


def test_faulty_fast_path_rng_stream_untouched():
    # A transparent batch must leave the plan RNG exactly where a serial
    # loop leaves it (untouched), so later perturbed runs are unaffected.
    ref, dev = faulty_transparent(), faulty_transparent()
    for off in OFFSETS:
        ref.read(off, NBYTES)
    dev.read_batch(OFFSETS, NBYTES)
    assert float(dev._rng.random()) == float(ref._rng.random())


def test_faulty_perturbed_falls_back_to_full_pipeline():
    # Spikes and errors draw from the plan RNG per IO; the batch must
    # consume the stream in the same order a serial loop does.
    ref, dev = faulty_perturbed(), faulty_perturbed()
    expected = [ref.read(off, NBYTES) for off in OFFSETS]
    assert dev.read_batch(OFFSETS, NBYTES) == expected
    assert _state(dev) == _state(ref)


class TestCrashInBatch:
    """An armed crash plan inside ``write_batch`` == the serial loop.

    Arming a crash disables the transparent batch fast path; the per-IO
    fallback must then consume the fault and torn-write RNG streams in
    exactly the order a serial loop does, die at the same ordinal with
    the same torn prefix, and leave clock/stats/inner state bit-equal.
    """

    def _armed(self, at_io, *, perturbed=True):
        from repro.faults.crash import CrashPlan

        plan = (
            FaultPlan(seed=11, spike_prob=0.5, spike_seconds=0.01)
            if perturbed
            else FaultPlan(seed=11)
        )
        dev = FaultyDevice(hdd(seed=7), plan)
        dev.arm_crash(CrashPlan(seed=5, at_io=at_io, torn=True))
        return dev

    @pytest.mark.parametrize("at_io", [0, 2, len(OFFSETS) - 1])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_batch_crash_identical_to_serial_loop(self, at_io, perturbed):
        from repro.errors import DeviceCrashed

        ref, dev = (
            self._armed(at_io, perturbed=perturbed),
            self._armed(at_io, perturbed=perturbed),
        )
        with pytest.raises(DeviceCrashed):
            for off in OFFSETS:
                ref.write(off, NBYTES)
        with pytest.raises(DeviceCrashed):
            dev.write_batch(OFFSETS, NBYTES)
        assert dev.crash_state == ref.crash_state  # ordinal + torn prefix
        assert dev.io_ordinal == ref.io_ordinal
        assert _state(dev) == _state(ref)
        # And the fault RNG sits at the same position afterwards.
        assert float(dev._rng.random()) == float(ref._rng.random())

    def test_batch_after_recover_matches_serial(self):
        from repro.errors import DeviceCrashed

        ref, dev = self._armed(3), self._armed(3)
        with pytest.raises(DeviceCrashed):
            for off in OFFSETS:
                ref.write(off, NBYTES)
        with pytest.raises(DeviceCrashed):
            dev.write_batch(OFFSETS, NBYTES)
        assert dev.recover() == ref.recover()
        expected = [ref.write(off, NBYTES) for off in OFFSETS]
        assert dev.write_batch(OFFSETS, NBYTES) == expected
        assert _state(dev) == _state(ref)


class TestResourcePoolArrays:
    def _loop_reference(self, jobs):
        """Occupancy computed with per-slot Python objects (the old layout)."""
        from repro.storage.engine import Resource

        slots = [Resource() for _ in range(4)]
        for idx, at, dur in jobs:
            slots[idx].acquire(at, dur)
        return slots

    def test_occupancy_matches_loop_reference(self):
        jobs = [(0, 0.0, 1.0), (1, 0.5, 2.0), (0, 1.0, 0.5), (3, 0.2, 0.1)]
        ref = self._loop_reference(jobs)
        pool = ResourcePool(4)
        for idx, at, dur in jobs:
            pool.acquire(idx, at, dur)
        for i in range(4):
            assert pool[i].available_at == ref[i].available_at
            assert pool[i].busy_seconds == ref[i].busy_seconds
        assert pool.busy_seconds == sum(r.busy_seconds for r in ref)
        for t in (0.0, 0.3, 1.0, 2.5, 10.0):
            assert pool.free_slots(t) == sum(r.is_free(t) for r in ref)
        assert pool.next_available_at() == min(r.available_at for r in ref)
        assert pool.max_available_at == max(r.available_at for r in ref)

    def test_first_free_prefers_lowest_index(self):
        pool = ResourcePool(3)
        pool.acquire(0, 0.0, 5.0)
        assert pool.first_free(1.0) == 1
        assert pool.first_free(1.0, exclude=1) == 2
        pool.acquire(1, 0.0, 5.0)
        pool.acquire(2, 0.0, 5.0)
        assert pool.first_free(1.0) is None


class TestWriteMany:
    """Stack/cache ``write_many``: batched write-back, serial accounting."""

    def _stack(self, n_nodes=12, nbytes=4096, cache_bytes=1 << 20):
        from repro.storage.stack import StorageStack

        stack = StorageStack(hdd(seed=4), cache_bytes)
        for i in range(n_nodes):
            stack.create(i, {"id": i}, nbytes if i % 3 else 2 * nbytes)
            stack.mark_dirty(i)
        return stack

    def test_batched_runs_match_singleton_batches(self):
        # One big write_many must equal per-node calls: run batching only
        # groups equal-size extents, it never changes timing or order.
        ids = list(range(12))
        ref = self._stack()
        ref_total = sum(ref.write_many([i]) for i in ids)
        stack = self._stack()
        assert stack.write_many(ids) == ref_total
        assert stack.device.clock == ref.device.clock
        assert vars(stack.device.stats) == vars(ref.device.stats)
        assert stack.io_seconds == ref.io_seconds

    def test_clean_and_repeated_ids_are_skipped(self):
        stack = self._stack()
        spent = stack.write_many(list(range(12)))
        assert spent > 0
        assert stack.write_many(list(range(12))) == 0.0  # all clean now
        assert stack.device.stats.writes == 12

    def test_unknown_id_raises(self):
        from repro.errors import CacheError

        stack = self._stack()
        with pytest.raises(CacheError):
            stack.write_many([0, 999])

    def test_flush_equals_write_many_of_all(self):
        ref = self._stack()
        ref_spent = ref.write_many(list(range(12)))
        stack = self._stack()
        assert stack.flush() == ref_spent
        assert stack.device.clock == ref.device.clock


class TestBatchedRunner:
    def _streams(self, n_clients, n_requests):
        return [
            [ReadRequest((c * 7 + r) % 128 * 65536, 65536) for r in range(n_requests)]
            for c in range(n_clients)
        ]

    def test_run_closed_loop_matches_scalar_runner(self):
        scalar_dev, dev = ssd(), ssd()
        streams = self._streams(4, 30)
        scalar = ClosedLoopRunner(scalar_dev.service_request).run_makespan(streams)
        assert dev.run_closed_loop(streams) == scalar
        assert _state(dev) == _state(scalar_dev)

    def test_batch_path_disabled_under_observability(self, monkeypatch):
        # Recording OBS events must not change the makespan.
        streams = self._streams(4, 10)
        plain = ssd().run_closed_loop(streams)
        monkeypatch.setattr(OBS, "enabled", True)
        assert ssd().run_closed_loop(streams) == plain
