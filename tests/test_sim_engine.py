"""Tests for the discrete-event engines and the random-stream registry.

The scheduler contract classes run on the heap :class:`Simulator` (the
``simulator`` fixture) and again, through ``*OnCalendar`` subclasses, on
:class:`CalendarSimulator`, the engine every network model runs on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RandomStreams, derive_seed


class TestSimulatorBasics:
    def test_starts_at_time_zero(self, simulator):
        assert simulator.now == 0
        assert simulator.events_executed == 0

    def test_single_event_executes(self, simulator):
        hits = []
        simulator.schedule(5, hits.append, "a")
        simulator.run()
        assert hits == ["a"]
        assert simulator.now == 5

    def test_events_execute_in_time_order(self, simulator):
        order = []
        simulator.schedule(30, order.append, 3)
        simulator.schedule(10, order.append, 1)
        simulator.schedule(20, order.append, 2)
        simulator.run()
        assert order == [1, 2, 3]

    def test_same_time_events_fifo(self, simulator):
        order = []
        for i in range(10):
            simulator.schedule(7, order.append, i)
        simulator.run()
        assert order == list(range(10))

    def test_zero_delay_allowed(self, simulator):
        hits = []
        simulator.schedule(0, hits.append, 1)
        simulator.run()
        assert hits == [1]
        assert simulator.now == 0

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(-1, lambda: None)

    def test_float_delay_rounds_up(self, simulator):
        simulator.schedule(1.2, lambda: None)
        simulator.run()
        assert simulator.now == 2

    def test_nested_scheduling(self, simulator):
        hits = []

        def outer():
            hits.append(("outer", simulator.now))
            simulator.schedule(5, inner)

        def inner():
            hits.append(("inner", simulator.now))

        simulator.schedule(10, outer)
        simulator.run()
        assert hits == [("outer", 10), ("inner", 15)]

    def test_schedule_at_absolute_time(self, simulator):
        hits = []
        simulator.schedule_at(42, hits.append, "x")
        simulator.run()
        assert simulator.now == 42 and hits == ["x"]

    def test_schedule_at_past_rejected(self, simulator):
        simulator.schedule(10, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(5, lambda: None)

    def test_events_executed_counter(self, simulator):
        for i in range(25):
            simulator.schedule(i, lambda: None)
        simulator.run()
        assert simulator.events_executed == 25


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, simulator):
        hits = []
        event = simulator.schedule(5, hits.append, 1)
        event.cancel()
        simulator.run()
        assert hits == []

    def test_cancel_is_idempotent(self, simulator):
        event = simulator.schedule(5, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_other_events_still_fire(self, simulator):
        hits = []
        cancelled = simulator.schedule(5, hits.append, "cancelled")
        simulator.schedule(6, hits.append, "kept")
        cancelled.cancel()
        simulator.run()
        assert hits == ["kept"]

    def test_empty_accounts_for_cancelled(self, simulator):
        event = simulator.schedule(5, lambda: None)
        assert not simulator.empty()
        event.cancel()
        assert simulator.empty()


class TestLiveEventCounter:
    """``empty()`` is O(1): a counter tracks live (non-cancelled) events."""

    def test_counter_follows_schedule_and_execute(self, simulator):
        assert simulator.live_events == 0
        simulator.schedule(1, lambda: None)
        simulator.schedule(2, lambda: None)
        assert simulator.live_events == 2
        simulator.step()
        assert simulator.live_events == 1
        simulator.run()
        assert simulator.live_events == 0
        assert simulator.empty()

    def test_double_cancel_decrements_once(self, simulator):
        keeper = simulator.schedule(3, lambda: None)
        event = simulator.schedule(5, lambda: None)
        event.cancel()
        event.cancel()
        assert simulator.live_events == 1
        assert not simulator.empty()
        del keeper

    def test_empty_with_many_cancelled_entries_is_fast(self, simulator):
        # The heap still holds the cancelled entries; empty() must not scan.
        events = [simulator.schedule(10, lambda: None) for _ in range(1000)]
        for event in events:
            event.cancel()
        assert simulator.pending_events == 1000
        assert simulator.live_events == 0
        assert simulator.empty()
        simulator.run_until_idle()  # drains cancelled entries without firing

    def test_reset_zeroes_counter(self, simulator):
        simulator.schedule(5, lambda: None)
        simulator.reset()
        assert simulator.live_events == 0
        assert simulator.empty()

    def test_cancel_of_pre_reset_handle_is_inert(self, simulator):
        """Event handles that survive a reset() must not corrupt the fresh
        counter (regression: counter went to -1 and empty() stuck False)."""
        stale = simulator.schedule(5, lambda: None)
        simulator.reset()
        stale.cancel()
        assert simulator.live_events == 0
        simulator.schedule(1, lambda: None)
        assert not simulator.empty()
        simulator.run_until_idle()
        assert simulator.empty()

    def test_cancel_after_execution_is_a_noop(self, simulator):
        """A relief-style event that fires and is later cancelled must not
        corrupt the live counter (regression: counter went negative and
        run_until_idle raised on a drained simulator)."""
        event = simulator.schedule(1, lambda: None)
        simulator.step()
        event.cancel()
        assert simulator.live_events == 0
        simulator.schedule(1, lambda: None)
        assert simulator.live_events == 1
        assert not simulator.empty()
        simulator.run_until_idle()
        assert simulator.empty()

    def test_counter_matches_heap_scan(self, simulator):
        events = [simulator.schedule(i % 7, lambda: None) for i in range(50)]
        for event in events[::3]:
            event.cancel()
        scan = sum(1 for entry in simulator._queue if entry[2] is not None)
        assert simulator.live_events == scan


class TestRunControl:
    def test_run_until_horizon(self, simulator):
        hits = []
        simulator.schedule(10, hits.append, 1)
        simulator.schedule(100, hits.append, 2)
        simulator.run(until=50)
        assert hits == [1]
        assert simulator.now == 50
        simulator.run()
        assert hits == [1, 2]

    def test_run_until_with_no_events_advances_clock(self, simulator):
        simulator.run(until=1000)
        assert simulator.now == 1000

    def test_max_events(self, simulator):
        hits = []
        for i in range(10):
            simulator.schedule(i, hits.append, i)
        simulator.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_step(self, simulator):
        hits = []
        simulator.schedule(3, hits.append, "a")
        assert simulator.step() is True
        assert hits == ["a"]
        assert simulator.step() is False

    def test_run_until_idle_raises_on_runaway(self, simulator):
        def reschedule():
            simulator.schedule(1, reschedule)

        simulator.schedule(1, reschedule)
        with pytest.raises(SimulationError):
            simulator.run_until_idle(max_events=100)

    def test_not_reentrant(self, simulator):
        def try_nested_run():
            with pytest.raises(SimulationError):
                simulator.run()

        simulator.schedule(1, try_nested_run)
        simulator.run()

    def test_reset(self, simulator):
        simulator.schedule(5, lambda: None)
        simulator.run()
        simulator.reset()
        assert simulator.now == 0
        assert simulator.pending_events == 0
        assert simulator.events_executed == 0

    @given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_clock_is_monotonic(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert sim.now == max(delays)


class _OnCalendar:
    """Re-runs an inherited contract class on the calendar engine."""

    @pytest.fixture
    def simulator(self) -> CalendarSimulator:
        return CalendarSimulator()


class TestSimulatorBasicsOnCalendar(_OnCalendar, TestSimulatorBasics):
    pass


class TestCancellationOnCalendar(_OnCalendar, TestCancellation):
    pass


class TestLiveEventCounterOnCalendar(_OnCalendar, TestLiveEventCounter):
    test_counter_matches_heap_scan = None  # reads the heap's ``_queue``


class TestRunControlOnCalendar(_OnCalendar, TestRunControl):
    test_clock_is_monotonic = None  # builds its own heap Simulator


class TestRandomStreams:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_derive_seed_varies_with_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_derive_seed_varies_with_master(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_same_name_same_stream(self, streams):
        assert streams.stream("x") is streams.stream("x")

    def test_streams_are_independent(self):
        a = RandomStreams(1)
        b = RandomStreams(1)
        a.stream("noise").random()  # consume from one stream only
        assert a.stream("routing").random() == b.stream("routing").random()

    def test_reproducible_across_instances(self):
        a = [RandomStreams(7).stream("x").random() for _ in range(3)]
        b = [RandomStreams(7).stream("x").random() for _ in range(3)]
        assert a == b

    def test_reseed(self, streams):
        first = streams.stream("x").random()
        streams.reseed(12345)
        assert streams.stream("x").random() == first

    def test_spawn_is_independent(self, streams):
        child = streams.spawn("job1")
        assert child.stream("x").random() != streams.stream("x").random()

    def test_sample_and_choice(self, streams):
        population = list(range(100))
        sample = streams.sample("s", population, 10)
        assert len(set(sample)) == 10
        assert streams.choice("s", population) in population

    def test_shuffled_preserves_elements(self, streams):
        items = list(range(50))
        shuffled = streams.shuffled("sh", items)
        assert sorted(shuffled) == items

    def test_expovariate_positive(self, streams):
        assert streams.expovariate("e", 100.0) > 0

    def test_expovariate_rejects_bad_mean(self, streams):
        with pytest.raises(ValueError):
            streams.expovariate("e", 0.0)

    def test_randint_bounds(self, streams):
        values = [streams.randint("r", 3, 7) for _ in range(100)]
        assert all(3 <= v <= 7 for v in values)
