"""Simulated SSD tests: address mapping, pipelining, parallelism, conflicts."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.devices import SSD_ZOO
from repro.storage.device import ReadRequest, WriteRequest
from repro.storage.ssd import SSDGeometry, SimulatedSSD


def make(**kwargs):
    defaults = dict(capacity_bytes=1 << 30, channels=2, dies_per_channel=2)
    defaults.update(kwargs)
    return SimulatedSSD(SSDGeometry(**defaults))


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SSDGeometry(stripe_bytes=1000, page_bytes=4096)  # stripe < page
        with pytest.raises(ConfigurationError):
            SSDGeometry(stripe_bytes=5000, page_bytes=4096)  # not a multiple
        with pytest.raises(ConfigurationError):
            SSDGeometry(channels=0)
        with pytest.raises(ConfigurationError):
            SSDGeometry(page_read_seconds=0)

    def test_total_dies(self):
        assert SSDGeometry(channels=2, dies_per_channel=4).total_dies == 8

    def test_derived_rates(self):
        g = SSDGeometry(channels=2, dies_per_channel=8)
        assert g.saturated_read_bytes_per_second > 0
        assert g.expected_pdam_parallelism > 1.0


class TestAddressMapping:
    def test_stripe_maps_to_one_die(self):
        ssd = make()
        plan = ssd._page_plan(0, 65536)
        assert len(plan) == 1
        die, pages = plan[0]
        assert pages == 16

    def test_cross_stripe_io_touches_two_dies(self):
        ssd = make()
        plan = ssd._page_plan(65536 - 4096, 8192)
        assert len(plan) == 2
        assert plan[0][0] != plan[1][0]

    def test_round_robin_die_assignment(self):
        ssd = make()
        dies = [ssd.die_of_stripe(i) for i in range(8)]
        assert dies == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_channel_of_die(self):
        ssd = make()
        assert {ssd.channel_of_die(d) for d in range(4)} == {0, 1}


class TestTiming:
    def test_single_page_read_time(self):
        ssd = make()
        g = ssd.geometry
        t = ssd.read(0, 4096)
        assert t == pytest.approx(g.page_read_seconds + g.channel_transfer_seconds)

    def test_pipelined_stripe_read(self):
        ssd = make()
        g = ssd.geometry
        t = ssd.read(0, 65536)  # 16 pages on one die
        # Die reads dominate; the final transfer trails the last read.
        assert t == pytest.approx(16 * g.page_read_seconds + g.channel_transfer_seconds)

    def test_write_slower_than_read(self):
        s1, s2 = make(), make()
        assert s1.write(0, 65536) > s2.read(0, 65536)

    def test_two_requests_same_die_serialize(self):
        ssd = make()
        r = ReadRequest(0, 65536)
        t1 = ssd.service_request(r, 0.0)
        # Same stripe -> same die: starts after the first die work ends.
        t2 = ssd.service_request(ReadRequest(0, 65536), 0.0)
        assert t2 >= 2 * 16 * ssd.geometry.page_read_seconds
        assert t1 < t2

    def test_two_requests_distinct_dies_parallel(self):
        ssd = make()
        t1 = ssd.service_request(ReadRequest(0, 65536), 0.0)
        t2 = ssd.service_request(ReadRequest(65536, 65536), 0.0)
        # Different dies, different channels: fully parallel.
        assert t2 == pytest.approx(t1)

    def test_write_request_counted(self):
        ssd = make()
        ssd.service_request(WriteRequest(0, 4096), 0.0)
        assert ssd.stats.writes == 1 and ssd.stats.bytes_written == 4096

    def test_unknown_request_type_rejected(self):
        ssd = make()
        with pytest.raises(ConfigurationError):
            ssd.service_request("nope", 0.0)


class TestClosedLoop:
    def _streams(self, ssd, p, n_requests=32, seed=0):
        rng = np.random.default_rng(seed)
        stripes = ssd.capacity_bytes // ssd.geometry.stripe_bytes
        out = []
        for _ in range(p):
            offs = rng.integers(0, stripes, size=n_requests) * ssd.geometry.stripe_bytes
            out.append([ReadRequest(int(o), ssd.geometry.stripe_bytes) for o in offs])
        return out

    def test_flat_then_linear(self):
        # The Figure 1 shape: sub-linear growth below the knee,
        # ~linear growth once the device is saturated.
        times = {}
        for p in (1, 2, 32, 64):
            ssd = make(channels=2, dies_per_channel=4)
            times[p] = ssd.run_closed_loop(self._streams(ssd, p, n_requests=64))
        assert times[2] < 1.5 * times[1]          # near-flat early
        assert times[64] == pytest.approx(2 * times[32], rel=0.15)  # linear late

    def test_makespan_increases_with_demand(self):
        ssd = make()
        t4 = ssd.run_closed_loop(self._streams(ssd, 4))
        ssd.reset()
        t8 = ssd.run_closed_loop(self._streams(ssd, 8))
        assert t8 > t4

    def test_reset_clears_resources(self):
        ssd = make()
        ssd.run_closed_loop(self._streams(ssd, 2))
        ssd.reset()
        assert ssd.clock == 0.0 and ssd.stats.ios == 0
        t = ssd.read(0, 4096)
        g = ssd.geometry
        assert t == pytest.approx(g.page_read_seconds + g.channel_transfer_seconds)


# -- golden timeline -----------------------------------------------------------

GOLDEN_TIMELINE = Path(__file__).parent / "fixtures" / "ssd_timeline_golden.json"

#: The Table 1 zoo plus a single-die device, which the closed-loop runner
#: serves through its heap-free fast path.
TIMELINE_GEOMETRIES = {
    **SSD_ZOO,
    "single-die": SSDGeometry(capacity_bytes=1 << 30, channels=1, dies_per_channel=1),
}


def _timeline_io(rng, g):
    """One (offset, nbytes) pair of a random shape, as integers."""
    page, stripe = g.page_bytes, g.stripe_bytes
    span = 64 * stripe * g.total_dies  # a few stripes per die: dies collide
    shape = int(rng.integers(4))
    if shape == 0:  # sub-page
        return int(rng.integers(0, span)), int(rng.integers(1, page))
    if shape == 1:  # unaligned, a few pages
        return int(rng.integers(0, span)), int(rng.integers(1, 4 * page))
    if shape == 2:  # straddles a stripe boundary
        boundary = int(rng.integers(1, span // stripe)) * stripe
        return boundary - int(rng.integers(1, 2 * page)), int(rng.integers(page, 2 * stripe))
    return int(rng.integers(0, span)), int(rng.integers(1 << 20, 4 << 20))  # multi-MiB


def _timeline_record(g: SSDGeometry, seed: int = 7) -> dict:
    """Exact completion times and resource state after a mixed stream.

    Floats are recorded with ``float.hex`` so the comparison is bit-exact.
    """
    rng = np.random.default_rng(seed)
    ssd = SimulatedSSD(g)
    times: list[float] = []
    for _ in range(24):
        off, n = _timeline_io(rng, g)
        times.append(ssd.read(off, n) if rng.random() < 0.6 else ssd.write(off, n))
    offsets = [_timeline_io(rng, g)[0] for _ in range(6)]
    times += ssd.read_batch(offsets, 3 * g.page_bytes + 5)
    times += ssd.write_batch(offsets, g.page_bytes)
    at = ssd.clock
    for _ in range(24):
        kind = ReadRequest if rng.random() < 0.6 else WriteRequest
        times.append(ssd.service_request(kind(*_timeline_io(rng, g)), at))
        at += float(rng.exponential(1e-4))
    streams = []
    for _ in range(4):
        stream = []
        for _ in range(6):
            kind = ReadRequest if rng.random() < 0.7 else WriteRequest
            stream.append(kind(*_timeline_io(rng, g)))
        streams.append(stream)
    times.append(ssd.run_closed_loop(streams))

    def hexes(values):
        return [float(v).hex() for v in values]

    return {
        "times": hexes(times),
        "clock": float(ssd.clock).hex(),
        "dies_available_at": hexes(ssd._dies.available_at_array),
        "dies_busy": hexes(ssd._dies.busy_seconds_array),
        "channels_available_at": hexes(ssd._channels.available_at_array),
        "channels_busy": hexes(ssd._channels.busy_seconds_array),
        "stats": [ssd.stats.reads, ssd.stats.writes, ssd.stats.bytes_read,
                  ssd.stats.bytes_written, float(ssd.stats.read_seconds).hex(),
                  float(ssd.stats.write_seconds).hex()],
    }


class TestGoldenTimeline:
    """The page timeline is pinned bit-exactly to a checked-in golden.

    The fixture holds ``_timeline_record`` for every geometry, captured
    before the completion loops moved from numpy scalars to Python
    floats; any change to the order or kind of float operations shows
    up here as a differing ``float.hex`` string.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_TIMELINE.read_text())

    def test_golden_covers_every_geometry(self, golden):
        assert sorted(golden) == sorted(TIMELINE_GEOMETRIES)

    @pytest.mark.parametrize("name", sorted(TIMELINE_GEOMETRIES))
    def test_timeline_matches_golden(self, golden, name):
        assert _timeline_record(TIMELINE_GEOMETRIES[name]) == golden[name]


# -- page plan -------------------------------------------------------------------


def _reference_page_plan(ssd, offset, nbytes):
    """The stripe-by-stripe loop ``_page_plan`` must agree with."""
    g = ssd.geometry
    plan = []
    pos, end = offset, offset + nbytes
    while pos < end:
        stripe = pos // g.stripe_bytes
        chunk = min(end, (stripe + 1) * g.stripe_bytes) - pos
        plan.append((stripe % g.total_dies, math.ceil(chunk / g.page_bytes)))
        pos += chunk
    return plan


class TestPagePlan:
    GEOMETRIES = {
        "default": SSDGeometry(capacity_bytes=1 << 30),
        "one-page-stripes": SSDGeometry(capacity_bytes=1 << 30, stripe_bytes=4096),
        "odd-layout": SSDGeometry(capacity_bytes=1 << 30, channels=3, dies_per_channel=5,
                                  page_bytes=2048, stripe_bytes=6144),
        **SSD_ZOO,
    }

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_matches_reference_loop(self, name):
        g = self.GEOMETRIES[name]
        ssd = SimulatedSSD(g)
        rng = np.random.default_rng(3)
        stripe = g.stripe_bytes
        cases = [(0, 1), (0, stripe), (stripe - 1, 2), (stripe, 3 * stripe),
                 (stripe - 1, stripe + 2), (1, 8 * stripe - 2)]
        for _ in range(400):
            offset = int(rng.integers(0, 50 * stripe))
            if rng.random() < 0.3:
                offset -= offset % stripe  # stripe-aligned start
            nbytes = int(rng.integers(1, int(rng.choice([g.page_bytes, stripe, 20 * stripe])) + 1))
            cases.append((offset, nbytes))
        for offset, nbytes in cases:
            assert ssd._page_plan(offset, nbytes) == _reference_page_plan(ssd, offset, nbytes), (
                offset, nbytes)

    def test_zero_bytes_is_empty(self):
        assert make()._page_plan(12345, 0) == []
