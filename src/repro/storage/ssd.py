"""Simulated solid-state drive.

Implements the internal-parallelism structure the PDAM abstracts (paper
Section 2.2): flash packages are organized into *channels*, each with
several *dies*; a die reads one page at a time, and the pages it produces
must cross its channel's shared bus.  Parallelism comes from independent
dies; *bank conflicts* happen when concurrent requests land on the same die
and serialize — the paper's explanation for why the Figure 1 knee "is not
perfectly sharp."

Address mapping: the LBA space is divided into *stripe units* (default
64 KiB, matching the request size of the paper's Figure 1 benchmark); unit
``u`` lives entirely on die ``u mod D``.  A random stripe-aligned read
therefore occupies exactly one die, and ``p`` concurrent clients engage
``~min(p, D)`` dies — which is exactly the PDAM's flat-then-linear
completion-time curve, with the effective ``P`` emerging from resource
contention rather than being postulated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.storage.device import BlockDevice, IORecord, ReadRequest, WriteRequest
from repro.storage.engine import ClosedLoopRunner, ResourcePool


@dataclass(frozen=True)
class SSDGeometry:
    """Layout and timing parameters of a simulated flash device.

    Defaults approximate a commodity SATA SSD: 4 KiB pages, ~80 us page
    reads, ~600 us page programs, and a channel bus that moves a page in
    ~10 us.
    """

    capacity_bytes: int = 256 * 2**30
    channels: int = 2
    dies_per_channel: int = 2
    page_bytes: int = 4096
    stripe_bytes: int = 65536
    page_read_seconds: float = 80e-6
    page_program_seconds: float = 600e-6
    channel_transfer_seconds: float = 10e-6  # per page, on the shared bus

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.channels <= 0 or self.dies_per_channel <= 0:
            raise ConfigurationError("channels and dies_per_channel must be positive")
        if self.page_bytes <= 0:
            raise ConfigurationError("page_bytes must be positive")
        if self.stripe_bytes < self.page_bytes or self.stripe_bytes % self.page_bytes:
            raise ConfigurationError(
                f"stripe_bytes ({self.stripe_bytes}) must be a multiple of "
                f"page_bytes ({self.page_bytes})"
            )
        if min(
            self.page_read_seconds,
            self.page_program_seconds,
            self.channel_transfer_seconds,
        ) <= 0:
            raise ConfigurationError("all timing parameters must be positive")

    @property
    def total_dies(self) -> int:
        """Total independent flash dies — the device's raw parallelism."""
        return self.channels * self.dies_per_channel

    @property
    def single_stream_read_seconds_per_stripe(self) -> float:
        """Latency of one stripe-sized read on an idle device.

        The die reads the stripe's pages back to back; the last page's bus
        transfer trails the last read.
        """
        pages = self.stripe_bytes // self.page_bytes
        return pages * self.page_read_seconds + self.channel_transfer_seconds

    @property
    def saturated_read_bytes_per_second(self) -> float:
        """Aggregate read throughput with all dies busy.

        Bounded by die read rate and by channel bus rate, whichever binds.
        """
        die_rate = self.total_dies * self.page_bytes / self.page_read_seconds
        bus_rate = self.channels * self.page_bytes / self.channel_transfer_seconds
        return min(die_rate, bus_rate)

    @property
    def expected_pdam_parallelism(self) -> float:
        """The ``P`` the PDAM fit should recover: saturation / single-stream."""
        single = self.stripe_bytes / self.single_stream_read_seconds_per_stripe
        return self.saturated_read_bytes_per_second / single


class SimulatedSSD(BlockDevice):
    """Channel/die flash device with FIFO resource timelines.

    The serial :meth:`~repro.storage.device.BlockDevice.read` /
    :meth:`~repro.storage.device.BlockDevice.write` API routes through the
    same resource model as the parallel closed-loop API, so tree workloads
    and microbenchmarks see consistent timing.
    """

    def __init__(self, geometry: SSDGeometry | None = None, *, trace: bool = False) -> None:
        self.geometry = geometry or SSDGeometry()
        super().__init__(self.geometry.capacity_bytes, trace=trace)
        g = self.geometry
        self._dies = ResourcePool(g.total_dies)
        self._channels = ResourcePool(g.channels)

    # -- address mapping ----------------------------------------------------

    def die_of_stripe(self, stripe_index: int) -> int:
        """Die holding stripe unit ``stripe_index``."""
        return stripe_index % self.geometry.total_dies

    def channel_of_die(self, die: int) -> int:
        """Channel whose bus serves ``die``."""
        return die % self.geometry.channels

    def _page_plan(self, offset: int, nbytes: int) -> list[tuple[int, int]]:
        """Decompose an IO into per-die page counts, in address order.

        Returns ``[(die, n_pages), ...]`` with one entry per stripe unit the
        IO touches: a first (possibly partial) stripe, the full stripes in
        between, and a last (possibly partial) stripe, each computed
        directly from the IO's bounds.
        """
        if nbytes <= 0:
            return []
        g = self.geometry
        stripe_bytes, page_bytes, n_dies = g.stripe_bytes, g.page_bytes, g.total_dies
        end = offset + nbytes
        first = offset // stripe_bytes
        last = (end - 1) // stripe_bytes
        if first == last:
            return [(first % n_dies, -(-nbytes // page_bytes))]
        head = (first + 1) * stripe_bytes - offset
        tail = end - last * stripe_bytes
        full = stripe_bytes // page_bytes
        plan = [(first % n_dies, -(-head // page_bytes))]
        plan.extend((stripe % n_dies, full) for stripe in range(first + 1, last))
        plan.append((last % n_dies, -(-tail // page_bytes)))
        return plan

    # -- timing -------------------------------------------------------------

    def _read_completion(self, offset: int, nbytes: int, at: float) -> float:
        # The die/channel acquire chains, run directly on the pool's
        # timeline arrays with the slot state copied into Python-float
        # locals: the same float64 operations in the same order as per-slot
        # ``acquire`` calls (max-then-add, busy accumulated one duration at
        # a time), without a method dispatch or a numpy scalar op per page.
        # Within a stripe the die reads its pages back to back, so after the
        # first page its own end time is the next page's arrival and the
        # max reduces to it; the channel's end times only grow, so the
        # stripe's last transfer is its latest.
        g = self.geometry
        t_read = g.page_read_seconds
        t_xfer = g.channel_transfer_seconds
        n_ch = g.channels
        dies_av = self._dies.available_at_array
        dies_busy = self._dies.busy_seconds_array
        ch_av = self._channels.available_at_array
        ch_busy = self._channels.busy_seconds_array
        done = at
        for die_idx, pages in self._page_plan(offset, nbytes):
            ch_idx = die_idx % n_ch
            d_av = float(dies_av[die_idx])
            d_busy = float(dies_busy[die_idx])
            c_av = float(ch_av[ch_idx])
            c_busy = float(ch_busy[ch_idx])
            if at > d_av:
                d_av = at
            for _ in range(pages):
                d_av = d_av + t_read
                d_busy = d_busy + t_read
                c_av = (c_av if c_av > d_av else d_av) + t_xfer
                c_busy = c_busy + t_xfer
            if c_av > done:
                done = c_av
            dies_av[die_idx] = d_av
            dies_busy[die_idx] = d_busy
            ch_av[ch_idx] = c_av
            ch_busy[ch_idx] = c_busy
        return float(done)

    def _write_completion(self, offset: int, nbytes: int, at: float) -> float:
        # The write twin of ``_read_completion``: each page crosses the bus
        # back to back, then waits for the die to program it.
        g = self.geometry
        t_prog = g.page_program_seconds
        t_xfer = g.channel_transfer_seconds
        n_ch = g.channels
        dies_av = self._dies.available_at_array
        dies_busy = self._dies.busy_seconds_array
        ch_av = self._channels.available_at_array
        ch_busy = self._channels.busy_seconds_array
        done = at
        for die_idx, pages in self._page_plan(offset, nbytes):
            ch_idx = die_idx % n_ch
            d_av = float(dies_av[die_idx])
            d_busy = float(dies_busy[die_idx])
            c_av = float(ch_av[ch_idx])
            c_busy = float(ch_busy[ch_idx])
            if at > c_av:
                c_av = at
            for _ in range(pages):
                c_av = c_av + t_xfer
                c_busy = c_busy + t_xfer
                d_av = (d_av if d_av > c_av else c_av) + t_prog
                d_busy = d_busy + t_prog
            if d_av > done:
                done = d_av
            dies_av[die_idx] = d_av
            dies_busy[die_idx] = d_busy
            ch_av[ch_idx] = c_av
            ch_busy[ch_idx] = c_busy
        return float(done)

    def _service_read(self, offset: int, nbytes: int, at: float) -> float:
        return self._read_completion(offset, nbytes, at)

    def _service_write(self, offset: int, nbytes: int, at: float) -> float:
        return self._write_completion(offset, nbytes, at)

    # -- parallel (closed-loop) API ------------------------------------------

    def service_request(self, request: ReadRequest | WriteRequest, at: float) -> float:
        """Service one request issued at ``at``; used by the parallel runner.

        Counters are updated here too, so parallel experiments report the
        same statistics as serial ones.
        """
        if not isinstance(request, (ReadRequest, WriteRequest)):
            raise ConfigurationError(f"unknown request type: {type(request).__name__}")
        self._check(request.offset, request.nbytes)
        if isinstance(request, ReadRequest):
            end = self._read_completion(request.offset, request.nbytes, at)
            self.stats.reads += 1
            self.stats.bytes_read += request.nbytes
            self.stats.read_seconds += end - at
            kind = "read"
        elif isinstance(request, WriteRequest):
            end = self._write_completion(request.offset, request.nbytes, at)
            self.stats.writes += 1
            self.stats.bytes_written += request.nbytes
            self.stats.write_seconds += end - at
            kind = "write"
        self.clock = max(self.clock, end)
        if OBS.enabled:
            OBS.io_event(
                type(self).__name__, kind, request.offset, request.nbytes, at, end
            )
        return end

    def service_request_batch(self, requests, at: float) -> list[float]:
        """Service a run of requests all issued at ``at``, in list order.

        Bit-identical to calling :meth:`service_request` once per request —
        the same dispatch, counters and clock updates run per request, with
        the attribute lookups hoisted out of the loop.  This is the
        ``service_batch`` hook :class:`ClosedLoopRunner` dispatches runs of
        tied events through.
        """
        stats = self.stats
        check = self._check
        read_completion = self._read_completion
        write_completion = self._write_completion
        clock = self.clock
        obs_on = OBS.enabled
        out: list[float] = []
        append = out.append
        # The clock runs in a local and is written back on every exit path
        # (including a mid-batch validation error), so an aborted batch
        # leaves exactly the state a serial loop's partial progress would.
        try:
            for request in requests:
                if isinstance(request, ReadRequest):
                    check(request.offset, request.nbytes)
                    end = read_completion(request.offset, request.nbytes, at)
                    stats.reads += 1
                    stats.bytes_read += request.nbytes
                    stats.read_seconds += end - at
                    kind = "read"
                elif isinstance(request, WriteRequest):
                    check(request.offset, request.nbytes)
                    end = write_completion(request.offset, request.nbytes, at)
                    stats.writes += 1
                    stats.bytes_written += request.nbytes
                    stats.write_seconds += end - at
                    kind = "write"
                else:
                    raise ConfigurationError(
                        f"unknown request type: {type(request).__name__}"
                    )
                if end > clock:
                    clock = end
                if obs_on:
                    OBS.io_event(
                        type(self).__name__, kind,
                        request.offset, request.nbytes, at, end,
                    )
                append(end)
        finally:
            self.clock = clock
        return out

    def run_closed_loop(self, client_streams) -> float:
        """Run concurrent closed-loop clients; returns the makespan.

        This is the simulated analogue of the paper's "spawn p threads, each
        reads 10 GiB" benchmark: each client keeps one request outstanding.
        A single-die device is one FIFO resource end to end, so it takes the
        runner's heap-free fast path; multi-die devices hand runs of tied
        arrivals to :meth:`service_request_batch` in one dispatch.
        """
        runner = ClosedLoopRunner(
            self.service_request,
            single_server=self.geometry.total_dies == 1,
            service_batch=self.service_request_batch,
        )
        return runner.run_makespan(client_streams)

    def read_batch(self, offsets, nbytes: int) -> list[float]:
        """Batched serial reads; bit-identical to a loop of :meth:`read`.

        Offsets are validated up front, then the per-IO bookkeeping runs in
        one loop frame with the completion method bound once.
        """
        offs = [int(o) for o in offsets]
        for off in offs:
            self._check(off, nbytes)
        stats = self.stats
        completion = self._read_completion
        out: list[float] = []
        for off in offs:
            start = self.clock
            end = completion(off, nbytes, start)
            elapsed = end - start
            self.clock = end
            stats.reads += 1
            stats.bytes_read += nbytes
            stats.read_seconds += elapsed
            if self._trace_enabled:
                self.trace.append(IORecord("read", off, nbytes, start, end))
            if self.sampler is not None:
                self.sampler.record(nbytes, elapsed, "read")
            if OBS.enabled:
                self._obs_io("read", off, nbytes, start, end)
            out.append(elapsed)
        return out

    def write_batch(self, offsets, nbytes: int) -> list[float]:
        """Batched serial writes; bit-identical to a loop of :meth:`write`."""
        offs = [int(o) for o in offsets]
        for off in offs:
            self._check(off, nbytes)
        stats = self.stats
        completion = self._write_completion
        out: list[float] = []
        for off in offs:
            start = self.clock
            end = completion(off, nbytes, start)
            elapsed = end - start
            self.clock = end
            stats.writes += 1
            stats.bytes_written += nbytes
            stats.write_seconds += elapsed
            if self._trace_enabled:
                self.trace.append(IORecord("write", off, nbytes, start, end))
            if self.sampler is not None:
                self.sampler.record(nbytes, elapsed, "write")
            if OBS.enabled:
                self._obs_io("write", off, nbytes, start, end)
            out.append(elapsed)
        return out

    def describe(self) -> dict[str, object]:
        d = super().describe()
        g = self.geometry
        d.update(
            channels=g.channels,
            dies_per_channel=g.dies_per_channel,
            page_bytes=g.page_bytes,
            stripe_bytes=g.stripe_bytes,
            page_read_seconds=g.page_read_seconds,
            page_program_seconds=g.page_program_seconds,
            channel_transfer_seconds=g.channel_transfer_seconds,
        )
        return d

    def reset(self) -> None:
        """Reset clock, counters and all die/channel timelines."""
        super().reset()
        self._dies.reset()
        self._channels.reset()
