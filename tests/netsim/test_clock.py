"""Tests for the simulated clock."""

import pytest

from repro.netsim.clock import DAY, HOUR, MINUTE, WEEK, SimClock


def test_starts_at_given_time():
    assert SimClock(100.0).now == 100.0


def test_advance_units():
    clock = SimClock()
    clock.advance(5)
    assert clock.now == 5
    clock.advance(MINUTE)
    assert clock.now == 5 + MINUTE
    clock.advance(HOUR)
    assert clock.now == 5 + MINUTE + HOUR
    clock.advance(DAY)
    assert clock.now == 5 + MINUTE + HOUR + DAY
    clock.advance(WEEK)
    assert clock.now == 5 + MINUTE + HOUR + DAY + WEEK


def test_cannot_go_backwards():
    with pytest.raises(ValueError):
        SimClock().advance(-1)


def test_constants_consistent():
    assert WEEK == 7 * DAY
    assert DAY == 24 * HOUR
    assert HOUR == 60 * MINUTE
