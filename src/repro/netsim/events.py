"""Scheduled-event queue for background activity (polling, keep-alives)."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.obs.tracer import NULL_TRACER

__all__ = ["ScheduledEvent", "EventQueue"]

#: Below this heap size compaction is never worth the rebuild.
_COMPACT_MIN_HEAP = 64


@dataclass(order=True)
class ScheduledEvent:
    """An event scheduled to fire at a simulated time.

    Ordering is by ``(fire_at, sequence)`` so events scheduled for the same
    instant run in scheduling order.
    """

    fire_at: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Back-reference to the owning queue while the event sits in its heap;
    #: lets ``cancel()`` keep the queue's live count exact in O(1).
    owner: Optional["EventQueue"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            self.owner = None
            owner._note_cancelled()


class EventQueue:
    """A min-heap of :class:`ScheduledEvent` ordered by fire time.

    ``len()`` is an O(1) counter of live (non-cancelled) events, and the
    heap compacts itself once cancelled entries outnumber live ones — a
    long polling simulation that schedules and cancels in a loop keeps a
    bounded heap instead of leaking tombstones until they drain.
    """

    def __init__(self, *, tracer=None) -> None:
        self._heap: List[ScheduledEvent] = []
        self._counter = itertools.count()
        self._live = 0
        #: Observability sink; the null tracer keeps the hot paths one
        #: ``enabled`` test away from zero cost.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def __len__(self) -> int:
        return self._live

    def schedule(self, fire_at: float, callback: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run at simulated time ``fire_at``."""
        event = ScheduledEvent(
            fire_at=fire_at, sequence=next(self._counter), callback=callback, label=label, owner=self
        )
        heapq.heappush(self._heap, event)
        self._live += 1
        if self.tracer.enabled:
            self.tracer.count("netsim.events.scheduled")
            self.tracer.gauge_set("netsim.events.depth", self._live)
        return event

    def _note_cancelled(self) -> None:
        """Account for one in-heap cancellation; compact when tombstones win."""
        self._live -= 1
        if len(self._heap) >= _COMPACT_MIN_HEAP and self._live * 2 < len(self._heap):
            self._compact()
            if self.tracer.enabled:
                self.tracer.count("netsim.events.compactions")

    def _compact(self) -> None:
        """Rebuild the heap from the live events only.

        ``heapify`` over the total ``(fire_at, sequence)`` order is
        deterministic, so compaction never changes pop order.
        """
        self._heap = [event for event in self._heap if not event.cancelled]
        heapq.heapify(self._heap)

    def pop_due(self, now: float) -> Optional[ScheduledEvent]:
        """Pop and return the earliest event due at or before ``now``, or ``None``."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            if head.fire_at <= now:
                event = heapq.heappop(heap)
                event.owner = None
                self._live -= 1
                if self.tracer.enabled:
                    self.tracer.count("netsim.events.fired")
                return event
            return None
        return None

    def clear(self) -> None:
        """Drop all pending events."""
        for event in self._heap:
            event.owner = None
        self._heap.clear()
        self._live = 0
