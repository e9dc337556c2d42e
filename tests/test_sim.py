"""Tests for the discrete-event simulator core."""

import pytest

from repro.net.sim import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(300, fired.append, "c")
    sim.schedule(100, fired.append, "a")
    sim.schedule(200, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(50, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(123, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [123]
    assert sim.now == 123


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "early")
    sim.schedule(900, fired.append, "late")
    sim.run(until_us=500)
    assert fired == ["early"]
    assert sim.now == 500  # clock left exactly at the horizon
    sim.run()
    assert fired == ["early", "late"]


def test_run_for_is_relative_to_current_clock():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.run_for(150)
    assert sim.now == 150
    sim.schedule(100, fired.append, 2)  # at absolute 250
    sim.run_for(150)
    assert sim.now == 300
    assert fired == [1, 2]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(50, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(100, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_one_of_many():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "keep1")
    victim = sim.schedule(100, fired.append, "cancel")
    sim.schedule(100, fired.append, "keep2")
    victim.cancel()
    sim.run()
    assert fired == ["keep1", "keep2"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 30


def test_stop_halts_the_loop():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, 1)
    sim.schedule(20, sim.stop)
    sim.schedule(30, fired.append, 2)
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_pending_events_counts_queue():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_now_seconds():
    sim = Simulator()
    sim.schedule(2_500_000, lambda: None)
    sim.run()
    assert sim.now_seconds == pytest.approx(2.5)


def test_callback_args_passed_through():
    sim = Simulator()
    got = []
    sim.schedule(5, lambda a, b: got.append((a, b)), 1, "two")
    sim.run()
    assert got == [(1, "two")]


# ---------------------------------------------------------------------------
# advance_to: a callback moving the clock itself
# ---------------------------------------------------------------------------

def test_advance_to_refuses_outside_run():
    sim = Simulator()
    assert not sim.advance_to(10)
    assert sim.now == 0
    sim.run(until_us=5)
    assert not sim.advance_to(10)
    assert sim.now == 5


def test_advance_to_rejects_the_past():
    sim = Simulator()
    sim.schedule(100, lambda: sim.advance_to(99))
    with pytest.raises(ValueError):
        sim.run()


def test_advance_to_never_passes_until():
    sim = Simulator()
    seen = []

    def hop():
        seen.append((sim.advance_to(101), sim.now))
        seen.append((sim.advance_to(100), sim.now))

    sim.schedule(10, hop)
    sim.run(until_us=100)
    assert seen == [(False, 10), (True, 100)]
    assert sim.now == 100


def test_advance_to_never_jumps_an_entry_at_or_before_the_target():
    sim = Simulator()
    fired = []
    seen = []

    def hop():
        seen.append(sim.advance_to(50))   # an entry sits at 50
        seen.append(sim.advance_to(49))
        seen.append(sim.now)

    sim.schedule(10, hop)
    sim.schedule(50, fired.append, "at-50")
    sim.run()
    assert seen == [False, True, 49]
    assert fired == ["at-50"]


def test_advance_to_counts_cancelled_entries_as_blocking():
    sim = Simulator()
    seen = []
    doomed = sim.schedule(30, lambda: None)
    doomed.cancel()
    sim.schedule(10, lambda: seen.append(sim.advance_to(40)))
    sim.run()
    assert seen == [False]


def test_advance_to_refuses_after_stop():
    sim = Simulator()
    seen = []

    def halt():
        sim.stop()
        seen.append(sim.advance_to(20))

    sim.schedule(10, halt)
    sim.run()
    assert seen == [False]
    assert sim.now == 10


def test_advance_to_matches_scheduling_the_same_chain():
    """A chain that hops inline visits the same instants, in the same
    order relative to other events, as one scheduling each step."""
    def chain(inline):
        sim = Simulator()
        log = []

        def step(n):
            while True:
                log.append(("step", sim.now, n))
                if n == 12:
                    return
                n += 1
                if not (inline and sim.advance_to(sim.now + 7)):
                    sim.schedule(7, step, n)
                    return

        sim.schedule(0, step, 0)
        for t in (20, 21, 35, 50, 77):
            sim.schedule_at(t, lambda t=t: log.append(("other", sim.now)))
        sim.run(until_us=60)
        sim.run()
        return log

    assert chain(inline=True) == chain(inline=False)
