"""Tests for the simulated clock and the event queue."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.netsim.clock import SimClock
from repro.netsim.events import EventQueue


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-0.1)

    def test_advance_to_never_goes_backwards(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(12.0)
        assert clock.now == 12.0


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("late"))
        queue.schedule(1.0, lambda: fired.append("early"))
        while (event := queue.pop_due(5.0)) is not None:
            event.callback()
        assert fired == ["early", "late"]

    def test_same_time_events_fire_in_scheduling_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append("first"))
        queue.schedule(1.0, lambda: fired.append("second"))
        while (event := queue.pop_due(1.0)) is not None:
            event.callback()
        assert fired == ["first", "second"]

    def test_pop_due_respects_now(self):
        queue = EventQueue()
        queue.schedule(10.0, lambda: None)
        assert queue.pop_due(5.0) is None
        assert queue.pop_due(10.0) is not None

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        event.cancel()
        assert queue.pop_due(2.0) is None
        assert len(queue) == 0

    def test_clear(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.clear()
        assert len(queue) == 0

    def test_cancelled_head_does_not_hide_a_later_due_event(self):
        queue = EventQueue()
        head = queue.schedule(1.0, lambda: None, label="head")
        queue.schedule(2.0, lambda: None, label="next")
        head.cancel()
        event = queue.pop_due(2.0)
        assert event is not None and event.label == "next"
        assert len(queue) == 0

    def test_cancel_after_clear_does_not_underflow_len(self):
        queue = EventQueue()
        stale = queue.schedule(1.0, lambda: None)
        queue.clear()
        stale.cancel()
        assert len(queue) == 0
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 1


class TestEventQueueLiveCount:
    """The O(1) live counter and tombstone compaction."""

    def test_len_tracks_schedule_cancel_and_pop(self):
        queue = EventQueue()
        events = [queue.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert len(queue) == 10
        events[3].cancel()
        events[7].cancel()
        assert len(queue) == 8
        assert queue.pop_due(1.0) is not None
        assert len(queue) == 7

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_mass_cancellation_compacts_the_heap(self):
        queue = EventQueue()
        events = [queue.schedule(float(i % 97) + 1.0, lambda: None) for i in range(1000)]
        for index, event in enumerate(events):
            if index % 10 != 0:
                event.cancel()
        assert len(queue) == 100
        # The tombstones are gone, not merely marked: the heap holds only
        # (close to) the live events instead of all 1000 entries.
        assert len(queue._heap) <= 2 * len(queue) + 1

    def test_compaction_preserves_pop_order(self):
        reference = EventQueue()
        compacted = EventQueue()
        for queue in (reference, compacted):
            events = [queue.schedule(float(i % 13) + 1.0, lambda: None, label=str(i)) for i in range(300)]
            for index, event in enumerate(events):
                if index % 4 != 0:
                    event.cancel()

        def drain(queue):
            labels = []
            while (event := queue.pop_due(1e9)) is not None:
                labels.append(event.label)
            return labels

        # Force extra compactions on one queue mid-drain; order must not move.
        compacted._compact()
        assert drain(reference) == drain(compacted)

    def test_popped_event_cancel_does_not_underflow_len(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        popped = queue.pop_due(1.0)
        assert popped is event
        popped.cancel()  # cancelling after the pop must not double-decrement
        assert len(queue) == 1
