"""Open-workload arrival processes for the load population engine.

An *open* workload decouples arrivals from completions: clients show up
on their own clock whether or not the system keeps up, which is what
makes saturation and tail latency visible at all (a closed loop would
self-throttle).  Two arrival models:

* :func:`poisson_times` — homogeneous Poisson process: i.i.d.
  exponential inter-arrival gaps at a fixed rate.
* :func:`diurnal_times` — non-homogeneous Poisson with a sinusoidal
  rate profile (a one-period day compressed into the observation
  window), generated by Lewis–Shedler thinning against the peak rate.

Both draw exclusively from an injected :class:`random.Random` built via
:func:`repro.randomness.make_rng` — never the module-level ``random``
state (the DET002 lint rule enforces this) — so a cell's arrival
schedule is a pure function of its seed labels.  Both return the
schedule as a float64 array, the form the population engine computes on.
"""

from __future__ import annotations

import math
import random
from typing import List

import numpy as np

from repro.randomness import expovariate_block

__all__ = [
    "ARRIVAL_KINDS",
    "DIURNAL_AMPLITUDE",
    "poisson_times",
    "diurnal_times",
    "arrival_times",
]

#: Supported arrival process names, in canonical order.
ARRIVAL_KINDS = ("poisson", "diurnal")

#: Peak-to-mean modulation of the diurnal rate profile:
#: lambda(t) = rate * (1 + amplitude * sin(2*pi*t / period)).
DIURNAL_AMPLITUDE = 0.6


def poisson_times(count: int, rate: float, rng: random.Random) -> np.ndarray:
    """``count`` arrival instants of a Poisson process with ``rate`` (1/s).

    Returned ascending from time 0: a clock that starts at ``0.0`` and adds
    ``rng.expovariate(rate)`` gaps in arrival order, bit for bit.  The gaps
    come from :func:`repro.randomness.expovariate_block` and ``np.cumsum``
    adds them strictly in order, so the schedule equals the per-draw loop
    (and leaves ``rng`` where it would) however it is later consumed.
    """
    if count <= 0:
        return np.empty(0)
    if rate <= 0.0:
        raise ValueError("arrival rate must be positive")
    # The loop's clock starts at +0.0: adding 0.0 turns the -0.0 a zero
    # first gap would leave into the loop's 0.0, and changes nothing else.
    return np.cumsum(expovariate_block(rng, count, rate)) + 0.0


def diurnal_times(
    count: int,
    base_rate: float,
    rng: random.Random,
    *,
    amplitude: float = DIURNAL_AMPLITUDE,
    period: float,
) -> np.ndarray:
    """``count`` arrivals of a sinusoidally modulated Poisson process.

    Lewis–Shedler thinning: candidate arrivals are drawn at the peak
    rate ``base_rate * (1 + amplitude)`` and accepted with probability
    ``lambda(t) / peak``, giving an exact non-homogeneous process.  One
    uniform draw per candidate keeps the rng consumption sequence (and
    therefore the schedule) deterministic.
    """
    if count <= 0:
        return np.empty(0)
    if base_rate <= 0.0:
        raise ValueError("arrival rate must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("diurnal amplitude must be in [0, 1)")
    if period <= 0.0:
        raise ValueError("diurnal period must be positive")
    peak = base_rate * (1.0 + amplitude)
    times: List[float] = []
    clock = 0.0
    while len(times) < count:
        clock += rng.expovariate(peak)
        intensity = base_rate * (1.0 + amplitude * math.sin(2.0 * math.pi * clock / period))
        if rng.random() * peak <= intensity:
            times.append(clock)
    return np.array(times)


def arrival_times(kind: str, count: int, window: float, rng: random.Random) -> np.ndarray:
    """Arrival schedule for ``count`` sessions offered over ``window`` seconds.

    The mean rate is ``count / window`` for both models, so a bigger
    population over the same window means proportionally heavier load —
    the knob the load stage's population-size units turn.
    """
    if window <= 0.0:
        raise ValueError("arrival window must be positive")
    rate = count / window
    if kind == "poisson":
        return poisson_times(count, rate, rng)
    if kind == "diurnal":
        return diurnal_times(count, rate, rng, period=window)
    raise ValueError(
        "unknown arrival process {!r} (expected one of {})".format(kind, ", ".join(ARRIVAL_KINDS))
    )
