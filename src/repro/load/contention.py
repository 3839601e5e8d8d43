"""Shared-link bandwidth contention: tick-based max-min fair sharing.

When an open population of client sessions uploads through one shared
link (a campus uplink, a service ingress), each session is limited both
by its own access rate and by its fair share of the common capacity.
This module models that contention as the classic *max-min* ("water
filling") allocation, evaluated on a fixed tick lattice:

* :func:`max_min_allocation` — one allocation round over per-session rate
  caps.  Sessions whose cap is below the fair share keep their cap; the
  capacity they leave unused is redistributed over the rest.  The result
  conserves bandwidth (the allocations sum to at most the capacity) and
  is *permutation-equivariant*: reordering the sessions permutes the
  allocations identically, bit for bit — the property tests pin both.
* :func:`group_allocation` — the same water filling over groups of
  sessions sharing one cap (the engine's form: a load cell's sessions
  all ride the same scenario-warped access path, so one group describes
  the whole active set and a round costs O(groups), not O(sessions)).
* :class:`SharedLink` — capacity plus the tick: rates change only at
  tick boundaries, so a fluid engine may jump from one boundary where
  the active set changed to the next without evaluating the identical
  allocation at every tick in between (see :mod:`repro.load.population`).

Everything here is a pure function of its arguments — no clocks, no
global randomness — which is what lets load cells cache, shard and merge
byte-identically like every other campaign cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["DEFAULT_TICK", "max_min_allocation", "group_allocation", "SharedLink"]

#: Width of one allocation tick in simulated seconds.  A constant, not a
#: campaign knob: it is a discretization parameter of the contention
#: model, and changing it is a model change (bump STORE_SCHEMA_VERSION),
#: not an experiment parameter.
DEFAULT_TICK = 0.01

#: Relative slack when comparing a session's virtual-service tag against
#: the accumulated service: absorbs float accumulation error without ever
#: depending on platform or ordering (the comparison inputs are pure).
TAG_EPSILON = 1e-9


def max_min_allocation(caps: Sequence[float], capacity: float) -> List[float]:
    """Max-min fair allocation of ``capacity`` over per-session rate caps.

    Water filling: sessions are considered in ascending cap order; each
    takes ``min(cap, remaining / sessions_left)``, so a session capped
    below the fair share frees its unused share for everyone after it.
    Returns one rate per input position.

    Two invariants the property tests pin:

    * conservation — ``sum(rates) <= capacity`` (up to float ulps);
    * permutation equivariance — permuting ``caps`` permutes the result
      identically, bit for bit.  Ties process in input order, but equal
      caps always receive bit-equal rates, so the order of ties cannot
      leak into the allocation.
    """
    count = len(caps)
    if count == 0:
        return []
    if capacity <= 0.0:
        return [0.0] * count
    rates = [0.0] * count
    order = sorted(range(count), key=lambda index: (caps[index], index))
    remaining = capacity
    for position, index in enumerate(order):
        share = remaining / (count - position)
        rate = caps[index] if caps[index] < share else share
        if rate < 0.0:
            rate = 0.0
        rates[index] = rate
        remaining -= rate
    return rates


def group_allocation(groups: Sequence[Tuple[float, int]], capacity: float) -> List[float]:
    """Per-session max-min rate for groups of ``(cap, session_count)``.

    Identical water filling to :func:`max_min_allocation` with every
    group standing in for ``session_count`` sessions of equal cap — the
    O(groups) form the population engine uses, since all sessions of one
    load cell share one access path.  Returns one *per-session* rate per
    group (every member of a group receives the same rate).
    """
    total = sum(count for _, count in groups)
    rates = [0.0] * len(groups)
    if total == 0 or capacity <= 0.0:
        return rates
    order = sorted(range(len(groups)), key=lambda index: (groups[index][0], index))
    remaining = capacity
    left = total
    for index in order:
        cap, count = groups[index]
        share = remaining / left
        rate = cap if cap < share else share
        if rate < 0.0:
            rate = 0.0
        rates[index] = rate
        remaining -= rate * count
        left -= count
    return rates


@dataclass(frozen=True)
class SharedLink:
    """One contended link: its capacity and the allocation tick.

    Rates are (re)computed only at tick boundaries; between boundaries
    every active session progresses at its last allocated rate.  A
    session finishing mid-tick frees its share at the *next* boundary —
    that is the tick model, and it is exactly what lets the engine skip
    boundaries where the active set provably did not change.
    """

    capacity_bps: float
    tick_s: float = DEFAULT_TICK

    def quantize_up(self, instant: float) -> float:
        """The first tick boundary at or after ``instant``.

        A tiny downward fuzz keeps an instant that *is* a boundary (up to
        float noise) from being pushed a whole tick late.
        """
        boundary = math.ceil(instant / self.tick_s - TAG_EPSILON)
        return boundary * self.tick_s

    def quantize_up_array(self, instants: np.ndarray) -> np.ndarray:
        """:meth:`quantize_up` of every entry of a float64 array, bit for bit.

        ``np.ceil`` of a float is the float of ``math.ceil``'s integer, so
        the same operations in the same order give the same boundaries;
        adding ``0.0`` turns the ``-0.0`` that ``np.ceil`` returns for an
        instant at (or within the fuzz of) zero into ``math.ceil``'s ``0``.
        """
        return (np.ceil(instants / self.tick_s - TAG_EPSILON) + 0.0) * self.tick_s
