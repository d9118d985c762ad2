"""Host-speed bursts, and host seconds rescaled to a reference speed.

Standard library only, so a child interpreter can time itself with it
without importing anything the measurement should include.
"""

from __future__ import annotations

import time

#: Wall seconds :func:`burst` takes on the reference host.  A shared
#: host's speed drifts by tens of percent within a minute, so the bounded
#: host times are rescaled to the reference speed using bursts run right before
#: and after each timed segment (see :func:`at_reference_speed`).
REFERENCE_BURST_S = 0.05


def burst() -> float:
    """Wall seconds of a fixed pure-Python workload: dict and sorted-list
    churn plus integer and float arithmetic, like the simulator's hot loops."""
    import bisect

    start = time.perf_counter()
    table: dict[int, list[int]] = {}
    keys: list[int] = []
    clock = 0.0
    x = 123456789
    for i in range(40_000):
        x = (x * 1103515245 + 12345) % (1 << 31)
        k = x % 20_000
        slot = table.get(k)
        if slot is None:
            table[k] = [i]
            bisect.insort(keys, k)
        else:
            slot.append(i)
        clock += (x & 1023) * 1e-6
    return time.perf_counter() - start


def at_reference_speed(segments: list[float], bursts: list[float]) -> list[float]:
    """Each segment's host seconds rescaled to the reference host speed.

    ``bursts[i]`` and ``bursts[i + 1]`` ran just before and after
    ``segments[i]``; their mean measures the host's speed during it.
    """
    if len(bursts) != len(segments) + 1:
        raise ValueError(f"need {len(segments) + 1} bursts, got {len(bursts)}")
    return [
        seg * REFERENCE_BURST_S / ((bursts[i] + bursts[i + 1]) / 2)
        for i, seg in enumerate(segments)
    ]
