"""Named time series and their CSV export.

A :class:`Series` is one named metric over time in a bounded ring
buffer.  Kernel-driven experiments fill one per probe from an observer
tick (:meth:`repro.hw.events.Simulator.every`, which stops with the
work), so the samples ride the same integer-nanosecond queue as the
workload and the CSV is deterministic: same workload, same cadence,
byte-identical rows.  The co-tenancy demo
(:func:`repro.obs.scenario.run_cotenancy_scenario`) samples its rings
that way.

For model-driven series with no event kernel at all (the monitor cost
model plots memory over *seconds* of host time), :func:`sample_function`
evaluates a function over a fixed grid into the same :class:`Series`
shape.  Either kind exports through :func:`merge_series_csv`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

#: Default ring capacity: enough for any packaged benchmark while
#: bounding memory if a sampler is left running on a long simulation.
DEFAULT_CAPACITY = 65536


class Series:
    """One named time series backed by a bounded ring buffer."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("series capacity must be positive")
        self.name = name
        self._times: Deque[float] = deque(maxlen=capacity)
        self._values: Deque[float] = deque(maxlen=capacity)

    def append(self, time_ns: float, value: float) -> None:
        self._times.append(time_ns)
        self._values.append(value)

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def latest(self) -> Optional[Tuple[float, float]]:
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.name!r}, n={len(self)})"


def sample_function(fn: Callable[[float], float], start: float, stop: float,
                    step: float, name: str = "value") -> Series:
    """Evaluate ``fn`` over a fixed grid into a :class:`Series`.

    For model-driven series with no event kernel (e.g. the monitor
    memory model, which is a closed-form function of elapsed seconds).
    The grid is inclusive of ``stop`` modulo floating-point stepping,
    matching the historical ``while t <= stop`` loops it replaces.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n_steps = int(round((stop - start) / step))
    series = Series(name, capacity=max(DEFAULT_CAPACITY, n_steps + 2))
    t = start
    i = 0
    while t <= stop + 1e-9:
        series.append(t, float(fn(t)))
        i += 1
        t = start + i * step
    return series


def merge_series_csv(series: Sequence[Series], time_label: str = "t") -> str:
    """CSV for a set of independently-gridded series sharing one grid.

    All series must have identical times (the :func:`sample_function`
    pattern with shared grid parameters); raises ``ValueError``
    otherwise rather than silently misaligning rows.
    """
    if not series:
        return time_label + "\n"
    times = series[0].times
    for s in series[1:]:
        if s.times != times:
            raise ValueError(
                f"series {s.name!r} is on a different time grid")
    header = [time_label] + [s.name for s in series]
    lines = [",".join(header)]
    columns = [s.values for s in series]
    for i, t in enumerate(times):
        row = [t] + [col[i] for col in columns]
        lines.append(",".join(f"{v:g}" for v in row))
    return "\n".join(lines) + "\n"
