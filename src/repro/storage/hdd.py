"""Simulated hard disk drive.

Implements the mechanical cost structure the affine model abstracts
(paper Section 2.3):

* **Seek**: moving the head costs between a track-to-track seek (~1 ms) and
  a full-stroke seek (~10 ms) depending on distance — "the setup cost can
  vary by an order of magnitude."  We use the standard square-root seek
  curve [Ruemmler & Wilkes 1994].
* **Rotation**: after the seek, the head waits for the target sector —
  uniform in one rotation period.
* **Transfer**: data then streams at fixed bandwidth.

Sequential IOs (starting exactly where the head stopped) skip the seek and
rotation entirely, which is what makes large-node range scans fast and what
the DAM cannot express.

The expected per-IO setup cost is ``E[seek] + E[rotation]``; regressing IO
time against IO size (experiment E3 / paper Table 2) recovers it as the
intercept ``s``, with slope ``t = 1/bandwidth``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.storage.device import BlockDevice


@dataclass(frozen=True)
class HDDGeometry:
    """Mechanical parameters of a simulated hard disk.

    Defaults approximate a 7200 RPM commodity SATA drive of the era the
    paper benchmarks (Table 2).
    """

    capacity_bytes: int = 512 * 2**30
    track_to_track_seek_seconds: float = 0.001
    full_stroke_seek_seconds: float = 0.010
    rotation_seconds: float = 1.0 / 120.0  # 7200 RPM
    bandwidth_bytes_per_second: float = 150e6

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        if not 0 <= self.track_to_track_seek_seconds <= self.full_stroke_seek_seconds:
            raise ConfigurationError(
                "need 0 <= track_to_track <= full_stroke seek time, got "
                f"{self.track_to_track_seek_seconds} and {self.full_stroke_seek_seconds}"
            )
        if self.rotation_seconds <= 0:
            raise ConfigurationError("rotation period must be positive")
        if self.bandwidth_bytes_per_second <= 0:
            raise ConfigurationError("bandwidth must be positive")

    @property
    def mean_setup_seconds(self) -> float:
        """Expected setup cost ``s``: average seek plus half a rotation.

        For random IOs the head moves ``|U1 - U2|`` with U uniform, whose
        density is ``2(1-x)``; under the square-root seek curve the mean
        seek is ``t2t + (full - t2t) * E[sqrt(|U1-U2|)]`` with
        ``E[sqrt(|U1-U2|)] = 8/15``.
        """
        t2t = self.track_to_track_seek_seconds
        full = self.full_stroke_seek_seconds
        return t2t + (full - t2t) * (8.0 / 15.0) + self.rotation_seconds / 2.0

    @property
    def seconds_per_byte(self) -> float:
        """Bandwidth cost ``t`` in seconds per byte."""
        return 1.0 / self.bandwidth_bytes_per_second

    @property
    def alpha(self) -> float:
        """Affine ``alpha = t / s`` (per byte) this geometry induces."""
        return self.seconds_per_byte / self.mean_setup_seconds

    @property
    def half_bandwidth_bytes(self) -> float:
        """IO size at which setup and transfer time are equal."""
        return self.mean_setup_seconds * self.bandwidth_bytes_per_second


class SimulatedHDD(BlockDevice):
    """Event-level hard disk: seek curve + rotational latency + transfer.

    Parameters
    ----------
    geometry:
        Mechanical parameters (see :class:`HDDGeometry`).
    seed:
        Seed for the rotational-position RNG; runs are deterministic.
    sequential_detection:
        When true (default), an IO starting exactly at the head's current
        position pays no seek and no rotational delay.
    """

    def __init__(
        self,
        geometry: HDDGeometry | None = None,
        *,
        seed: int = 0,
        sequential_detection: bool = True,
        trace: bool = False,
    ) -> None:
        self.geometry = geometry or HDDGeometry()
        super().__init__(self.geometry.capacity_bytes, trace=trace)
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self.sequential_detection = sequential_detection
        self.head_position = 0

    # -- timing ------------------------------------------------------------

    def _seek_seconds(self, offset: int) -> float:
        """Setup time to reposition the head at ``offset``."""
        g = self.geometry
        if self.sequential_detection and offset == self.head_position:
            return 0.0
        distance = abs(offset - self.head_position)
        frac = distance / g.capacity_bytes
        seek = g.track_to_track_seek_seconds + (
            g.full_stroke_seek_seconds - g.track_to_track_seek_seconds
        ) * math.sqrt(frac)
        rotation = float(self._rng.uniform(0.0, g.rotation_seconds))
        return seek + rotation

    def _service(self, offset: int, nbytes: int, at: float) -> float:
        setup = self._seek_seconds(offset)
        transfer = nbytes * self.geometry.seconds_per_byte
        self.head_position = offset + nbytes
        if OBS.enabled:
            self._obs_setup = setup  # seek/bandwidth split for the obs layer
        return at + setup + transfer

    def _service_read(self, offset: int, nbytes: int, at: float) -> float:
        return self._service(offset, nbytes, at)

    def _service_write(self, offset: int, nbytes: int, at: float) -> float:
        # Writes pay the same mechanical costs as reads on a hard disk.
        return self._service(offset, nbytes, at)

    def _service_times(self, kind: str, offsets: list[int], nbytes: int):
        """Batch timing with the mechanical math evaluated in numpy.

        Seek distances and the square-root curve run across the whole
        batch; rotational delays are drawn only for the non-sequential
        IOs, mirroring :meth:`_seek_seconds`, which does not touch the RNG
        on a sequential hit.  Reads and writes cost the same.
        """
        g = self.geometry
        arr = np.asarray(offsets, dtype=np.int64)
        # Head position each IO sees: the entry position for the first,
        # then the end of the preceding IO.
        prev = np.empty(len(offsets), dtype=np.int64)
        prev[0] = self.head_position
        prev[1:] = arr[:-1] + nbytes
        if self.sequential_detection:
            nonseq = arr != prev
        else:
            nonseq = np.ones(len(offsets), dtype=bool)
        setup = np.zeros(len(offsets), dtype=np.float64)
        n_nonseq = int(np.count_nonzero(nonseq))
        if n_nonseq:
            frac = np.abs(arr[nonseq] - prev[nonseq]) / g.capacity_bytes
            seek = g.track_to_track_seek_seconds + (
                g.full_stroke_seek_seconds - g.track_to_track_seek_seconds
            ) * np.sqrt(frac)
            rotation = self._rng.uniform(0.0, g.rotation_seconds, size=n_nonseq)
            setup[nonseq] = seek + rotation
        self.head_position = offsets[-1] + nbytes
        setups = setup.tolist()
        return setups, nbytes * g.seconds_per_byte, setups

    def describe(self) -> dict[str, object]:
        d = super().describe()
        d.update(
            seed=self._seed,
            sequential_detection=self.sequential_detection,
            track_to_track_seek_seconds=self.geometry.track_to_track_seek_seconds,
            full_stroke_seek_seconds=self.geometry.full_stroke_seek_seconds,
            rotation_seconds=self.geometry.rotation_seconds,
            bandwidth_bytes_per_second=self.geometry.bandwidth_bytes_per_second,
        )
        return d

    def reset(self) -> None:
        """Reset clock, counters, head position and the RNG stream."""
        super().reset()
        self.head_position = 0
        self._rng = np.random.default_rng(self._seed)
