"""Event-engine tests: ordering, cancellation, determinism."""

import pytest

from repro.netsim.engine import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(5.0, seen.append, 5)
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        sim.run()
        assert seen == [1, 5]

    def test_run_until_sets_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule_cancellable(1.0, seen.append, "x")
        handle.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_plain_schedule_is_fire_and_forget(self):
        sim = Simulator()
        assert sim.schedule(1.0, lambda: None) is None

    def test_pending_excludes_cancelled_events(self):
        sim = Simulator()
        keep = sim.schedule_cancellable(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        keep.cancel()
        assert sim.pending() == 1
        keep.cancel()  # idempotent: must not double-count
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_events_processed_counts_only_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule_cancellable(2.0, lambda: None).cancel()
        sim.run()
        assert sim.events_processed == 1

    def test_stop_halts_processing(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, seen.append, 2)
        sim.run()
        assert seen == [1]


class TestPostpone:
    def test_postponed_event_runs_once_at_its_new_time(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule_cancellable(1.0, lambda: seen.append(sim.now))
        handle.postpone(2.5)
        sim.run()
        assert seen == [2.5]
        # Re-queueing at the old due time is not an event.
        assert sim.events_processed == 1

    def test_run_until_between_old_and_new_due_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_cancellable(1.0, lambda: seen.append(sim.now)).postpone(3.0)
        sim.run(until=2.0)
        assert seen == [] and sim.now == 2.0 and sim.pending() == 1
        sim.run()
        assert seen == [3.0]

    def test_postponing_earlier_is_rejected(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        with pytest.raises(ValueError):
            handle.postpone(0.5)

    def test_cancel_after_postpone(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule_cancellable(1.0, seen.append, "x")
        handle.postpone(2.0)
        sim.run(until=1.5)
        handle.cancel()
        sim.run()
        assert seen == [] and sim.pending() == 0


class TestDeterminism:
    def test_same_schedule_same_trace(self):
        def run_once():
            sim = Simulator()
            trace = []
            for i in range(100):
                sim.schedule(((i * 7919) % 100) / 10.0, trace.append, i)
            sim.run()
            return trace

        assert run_once() == run_once()
