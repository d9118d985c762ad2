"""Discrete-event simulation core.

Two primitives power every timing simulation in this package:

* :class:`Resource` — a single-server FIFO timeline.  A job asking for the
  resource at time ``t`` starts at ``max(t, available_at)`` and holds it for
  its duration.  HDD heads, SSD dies, and SSD channel buses are Resources.
* :class:`ClosedLoopRunner` — runs ``k`` closed-loop clients against a
  device: each client keeps exactly one request outstanding and issues the
  next the moment the previous completes.  Requests are serviced in global
  issue-time order (earliest first), which with forward-only Resource
  reservations yields a consistent FCFS discrete-event schedule.

:class:`ResourcePool` stores its timelines as preallocated numpy arrays
(``available_at`` / ``busy_seconds``, one float64 per slot) so occupancy
queries (``free_slots``, ``first_free``, ``next_available_at``) are single
array operations instead of Python loops, and batch services can update
many slots without per-slot attribute traffic.  ``pool[i]`` still returns
a scalar :class:`Resource`-compatible view, so existing per-slot callers
(the serve layer's hedging pokes, the SSD's die/channel chains) are
unchanged.  All scalar arithmetic runs on float64 values, so timings are
bit-identical to the previous list-of-objects layout.

This replaces the paper's "spawn p OS threads" methodology: the threads
exist only to keep ``p`` IOs outstanding, and a closed-loop simulation does
the same thing deterministically (see DESIGN.md section 2).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, TransientIOError
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover - the engine is below repro.faults
    from repro.faults.policy import ResiliencePolicy


class Resource:
    """A single-server FIFO resource timeline.

    Tracks when the resource next becomes free and how long it has been
    busy in total (for utilization reporting).
    """

    __slots__ = ("available_at", "busy_seconds")

    def __init__(self) -> None:
        self.available_at = 0.0
        self.busy_seconds = 0.0

    def acquire(self, at: float, duration: float) -> float:
        """Serve a job arriving at ``at`` for ``duration`` seconds.

        Returns the completion time.  The job waits if the resource is busy.
        """
        if duration < 0:
            raise ConfigurationError(f"duration must be non-negative, got {duration}")
        start = max(at, self.available_at)
        end = start + duration
        self.available_at = end
        self.busy_seconds += duration
        return end

    def peek_start(self, at: float) -> float:
        """When a job arriving at ``at`` would start, without reserving."""
        return max(at, self.available_at)

    def is_free(self, at: float) -> bool:
        """Whether a job arriving at ``at`` would start immediately."""
        return self.available_at <= at

    def reset(self) -> None:
        """Forget all reservations (new experiment on the same hardware)."""
        self.available_at = 0.0
        self.busy_seconds = 0.0


class _PoolSlot:
    """Scalar :class:`Resource`-compatible view of one pool slot.

    Reads and writes go straight to the pool's arrays; the float64
    arithmetic is identical to a standalone :class:`Resource`.
    """

    __slots__ = ("_pool", "_index")

    def __init__(self, pool: "ResourcePool", index: int) -> None:
        self._pool = pool
        self._index = index

    @property
    def available_at(self) -> float:
        return float(self._pool._available_at[self._index])

    @available_at.setter
    def available_at(self, value: float) -> None:
        self._pool._available_at[self._index] = value

    @property
    def busy_seconds(self) -> float:
        return float(self._pool._busy_seconds[self._index])

    @busy_seconds.setter
    def busy_seconds(self, value: float) -> None:
        self._pool._busy_seconds[self._index] = value

    def acquire(self, at: float, duration: float) -> float:
        return self._pool.acquire(self._index, at, duration)

    def peek_start(self, at: float) -> float:
        avail = self._pool._available_at[self._index]
        return float(avail) if avail > at else at

    def is_free(self, at: float) -> bool:
        return bool(self._pool._available_at[self._index] <= at)

    def reset(self) -> None:
        self._pool._available_at[self._index] = 0.0
        self._pool._busy_seconds[self._index] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_PoolSlot(index={self._index}, available_at={self.available_at}, "
            f"busy_seconds={self.busy_seconds})"
        )


class ResourcePool:
    """A fixed array of FIFO timelines (e.g. all dies of an SSD).

    Timelines live in two preallocated float64 arrays; ``pool[i]`` returns
    a scalar view object with the :class:`Resource` interface.  Occupancy
    queries are array reductions, so they cost O(1) Python operations
    regardless of pool size.
    """

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ConfigurationError(f"resource count must be positive, got {count}")
        self._available_at = np.zeros(count, dtype=np.float64)
        self._busy_seconds = np.zeros(count, dtype=np.float64)
        self._slots = [_PoolSlot(self, i) for i in range(count)]

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index: int) -> _PoolSlot:
        return self._slots[index]

    def acquire(self, index: int, at: float, duration: float) -> float:
        """Serve a job on slot ``index``; same semantics as Resource.acquire."""
        if duration < 0:
            raise ConfigurationError(f"duration must be non-negative, got {duration}")
        avail = self._available_at
        start = avail[index]
        if at > start:
            start = at
        end = start + duration
        avail[index] = end
        self._busy_seconds[index] += duration
        return float(end)

    def reset(self) -> None:
        self._available_at.fill(0.0)
        self._busy_seconds.fill(0.0)

    # -- array access for vectorized device models ---------------------------

    @property
    def available_at_array(self) -> np.ndarray:
        """The raw ``available_at`` timeline array (mutated by batch services)."""
        return self._available_at

    @property
    def busy_seconds_array(self) -> np.ndarray:
        """The raw ``busy_seconds`` accounting array."""
        return self._busy_seconds

    @property
    def busy_seconds(self) -> float:
        """Total busy time summed over the pool.

        Summed left-to-right exactly like the previous per-object loop
        (``math.fsum``/pairwise would round differently).
        """
        return sum(self._busy_seconds.tolist())

    @property
    def max_available_at(self) -> float:
        """The time the last resource in the pool frees up."""
        return float(self._available_at.max())

    # -- occupancy queries (the public alternative to poking _slots) -----

    def free_slots(self, at: float = 0.0) -> int:
        """How many resources would serve a job arriving at ``at`` immediately.

        This is the pool's *spare capacity* at an instant — the quantity
        hedging policies budget against (a duplicate IO is free only when
        a slot would otherwise idle).  Callers must use this instead of
        reaching into the pool's private arrays.
        """
        return int(np.count_nonzero(self._available_at <= at))

    def first_free(self, at: float, *, exclude: int | None = None) -> int | None:
        """Lowest index of a resource free at ``at``, or ``None`` if all busy.

        ``exclude`` skips one index — a hedger looking for a *second*
        server must not pick the one already serving the primary.
        """
        free = np.flatnonzero(self._available_at <= at)
        for i in free.tolist():
            if i != exclude:
                return i
        return None

    def next_available_at(self) -> float:
        """The earliest time any resource in the pool frees up."""
        return float(self._available_at.min())


class ClosedLoopRunner:
    """Drive closed-loop clients against a service function.

    Parameters
    ----------
    service:
        ``service(request, issue_time) -> completion_time``.  Must only make
        forward-in-time reservations (all provided devices do).
    policy:
        Optional :class:`~repro.faults.policy.ResiliencePolicy`.  With one
        attached, a service call that raises
        :class:`~repro.errors.TransientIOError` is reissued after
        exponential backoff (within the retry/timeout budget), and a
        completion later than the hedge deadline triggers a duplicate
        service call issued *at* the deadline, first completion winning.
        ``None`` (default) leaves the hot loops exactly as before.
    """

    def __init__(
        self,
        service: Callable[[object, float], float],
        *,
        single_server: bool = False,
        policy: "ResiliencePolicy | None" = None,
    ) -> None:
        self._service = service
        self._single_server = bool(single_server)
        self._policy = None if policy is None or policy.is_noop else policy
        self.retries = 0
        self.hedges_issued = 0
        self.hedge_wins = 0

    def _resolve_service(self) -> Callable[[object, float], float]:
        """The per-request callable: raw service, or the resilient wrapper."""
        if self._policy is None:
            return self._service
        return self._serve_resilient

    def _serve_resilient(self, request: object, issue_time: float) -> float:
        """Apply retry and hedging around one service call.

        Backoff waits are simulated time: attempt ``i`` is issued
        ``backoff * multiplier**(i-1)`` after the previous failure.  A
        duplicate (hedged) call reserves real resource time, exactly like
        a duplicate IO on hardware would.
        """
        policy = self._policy
        assert policy is not None
        attempt = 0
        backoff = policy.backoff_seconds
        at = issue_time
        while True:
            try:
                done = self._service(request, at)
                break
            except TransientIOError:
                waited = (at + backoff) - issue_time
                if attempt >= policy.max_retries or waited > policy.timeout_seconds:
                    raise
                at += backoff
                backoff *= policy.backoff_multiplier
                attempt += 1
                self.retries += 1
                if OBS.enabled:
                    OBS.counter("io.retries").inc()
        if policy.hedge_enabled and done - issue_time > policy.hedge_deadline_seconds:
            self.hedges_issued += 1
            if OBS.enabled:
                OBS.counter("io.hedges_issued").inc()
            duplicate = self._service(request, issue_time + policy.hedge_deadline_seconds)
            if duplicate < done:
                done = duplicate
                self.hedge_wins += 1
                if OBS.enabled:
                    OBS.counter("io.hedge_wins").inc()
        return done

    def run(self, client_streams: Sequence[Iterator[object]], start_time: float = 0.0) -> list[float]:
        """Run every client to exhaustion; return per-client finish times.

        Each client issues its first request at ``start_time`` and each
        subsequent request at the completion of the previous one.  Global
        ordering is by issue time (ties broken by client index) so resource
        FIFO queues see arrivals in order.
        """
        if not client_streams:
            raise ConfigurationError("need at least one client stream")
        if OBS.enabled:
            OBS.gauge("engine.clients").set(len(client_streams))
        if self._single_server or len(client_streams) == 1:
            return self._run_single_server(client_streams, start_time)
        return self._run_heap(client_streams, start_time)

    def _run_heap(
        self, client_streams: Sequence[Iterator[object]], start_time: float
    ) -> list[float]:
        service = self._resolve_service()
        iterators = [iter(s) for s in client_streams]
        finish = [start_time] * len(iterators)
        heap: list[tuple[float, int]] = []
        for idx in range(len(iterators)):
            heapq.heappush(heap, (start_time, idx))
        while heap:
            issue_time, idx = heapq.heappop(heap)
            try:
                request = next(iterators[idx])
            except StopIteration:
                finish[idx] = issue_time
                continue
            done = service(request, issue_time)
            if done < issue_time:
                raise ConfigurationError(
                    f"service completed before issue ({done} < {issue_time}); "
                    "service functions must be forward-in-time"
                )
            if OBS.enabled:
                OBS.counter("engine.requests").inc()
                # Clients still in flight: everyone left in the heap plus
                # this one, which is about to re-enter it.
                OBS.gauge("engine.queue_depth").set(len(heap) + 1)
                OBS.histogram("engine.service_seconds").record(done - issue_time)
            heapq.heappush(heap, (done, idx))
        return finish

    def _run_single_server(
        self, client_streams: Sequence[Iterator[object]], start_time: float
    ) -> list[float]:
        """Heap-free schedule for the one-shared-resource case.

        With a single FIFO server and positive service times, completions
        are strictly increasing in service order, so every serviced client
        re-arrives strictly *behind* all currently waiting clients: the
        next client to pop is always the head of a plain FIFO queue, and
        no two queued events ever tie.  That makes the schedule a
        round-robin deque rotation — identical event order to the heap
        (whose ties, which cannot occur here, break by client index) at a
        fraction of the cost.  Strict monotonicity is checked per
        completion; a service function that violates it (multiple
        independent resources, or zero-duration services that re-create
        heap ties) raises rather than silently reordering events.  A
        single client is trivially safe — rotation order is vacuous.
        """
        service = self._resolve_service()
        iterators = [iter(s) for s in client_streams]
        finish = [start_time] * len(iterators)
        queue: deque[tuple[float, int]] = deque(
            (start_time, idx) for idx in range(len(iterators))
        )
        check_order = len(iterators) > 1
        last_done = start_time
        while queue:
            issue_time, idx = queue.popleft()
            try:
                request = next(iterators[idx])
            except StopIteration:
                finish[idx] = issue_time
                continue
            done = service(request, issue_time)
            if done < issue_time:
                raise ConfigurationError(
                    f"service completed before issue ({done} < {issue_time}); "
                    "service functions must be forward-in-time"
                )
            if check_order:
                if done <= last_done:
                    raise ConfigurationError(
                        "single_server fast path needs strictly increasing "
                        f"completions, got {done} after {last_done}; the "
                        "service function is not a single FIFO resource with "
                        "positive service times"
                    )
                last_done = done
            if OBS.enabled:
                OBS.counter("engine.requests").inc()
                OBS.gauge("engine.queue_depth").set(len(queue) + 1)
                OBS.histogram("engine.service_seconds").record(done - issue_time)
            queue.append((done, idx))
        return finish

    def run_makespan(self, client_streams: Sequence[Iterator[object]]) -> float:
        """Convenience: the time at which the *last* client finishes."""
        return max(self.run(client_streams))
