"""Open-workload arrival processes for the load population engine.

An *open* workload decouples arrivals from completions: clients show up
on their own clock whether or not the system keeps up, which is what
makes saturation and tail latency visible at all (a closed loop would
self-throttle).  Arrivals form a homogeneous Poisson process
(:func:`poisson_times`): i.i.d. exponential inter-arrival gaps at a
fixed rate.

The gaps are drawn exclusively from an injected :class:`random.Random`
built via :func:`repro.randomness.make_rng` — never the module-level
``random`` state (the DET002 lint rule enforces this) — so a cell's
arrival schedule is a pure function of its seed labels.  The schedule is
a float64 array, the form the population engine computes on.
"""

from __future__ import annotations

import random

import numpy as np

from repro.randomness import expovariate_block

__all__ = ["poisson_times"]


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

