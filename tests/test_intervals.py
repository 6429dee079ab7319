"""Containment tests of the scalar interval oracle, `oracle_intervals.py`,
which the array operations of `diskpack.intervals` match bit for bit."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpack.intervals import UndefinedIntervalError
from oracle_intervals import (
    Interval,
    iv_add,
    iv_div,
    iv_max,
    iv_min,
    iv_mul,
    iv_pi,
    iv_point,
    iv_sqrt,
    iv_sub,
)

mpmath.mp.dps = 40


def test_add_example():
    r = iv_add(Interval(1, 2), Interval(3, 4))
    assert r.lo <= 4 and r.hi >= 6
    assert r.width < 6 - 4 + 1e-12


def test_mul_sign_cases():
    r = iv_mul(Interval(-1, 2), Interval(3, 4))
    assert r.lo <= -4 and r.hi >= 8
    assert r.lo > -4 - 1e-12 and r.hi < 8 + 1e-12


def test_div_encloses_third():
    r = iv_div(iv_point(1.0), iv_point(3.0))
    third = 1.0 / 3.0
    assert r.lo <= third <= r.hi
    assert r.hi - r.lo <= 2 * math.ulp(third)


def test_div_by_zero_interval():
    with pytest.raises(UndefinedIntervalError):
        iv_div(Interval(1, 2), Interval(-1, 1))


def test_sqrt_exact_endpoints():
    r = iv_sqrt(Interval(4, 9))
    assert r.lo <= 2 <= 3 <= r.hi
    assert r.hi - r.lo <= 1.0 + 1e-12


def test_sqrt_negative():
    with pytest.raises(UndefinedIntervalError):
        iv_sqrt(Interval(-1e-30, 1.0))


def test_pi_enclosure():
    p = iv_pi()
    assert mpmath.mpf(p.lo) < mpmath.pi < mpmath.mpf(p.hi)
    assert p.hi - p.lo <= 2 * math.ulp(math.pi)


def test_point_and_hull():
    assert iv_point(0.5) == Interval(0.5, 0.5)
    assert iv_min(Interval(0, 2), Interval(1, 3)) == Interval(0, 2)
    assert iv_max(Interval(0, 2), Interval(1, 3)) == Interval(1, 3)


def test_nan_never_silent():
    with pytest.raises(UndefinedIntervalError):
        Interval(float("nan"), 1.0)
    with pytest.raises(UndefinedIntervalError):
        Interval(0.0, float("inf"))
    with pytest.raises(UndefinedIntervalError):
        Interval(1.0, 0.0)


def _sample_interval(rng, allow_negative=True):
    scale = 10.0 ** rng.uniform(-8, 4)
    a = rng.uniform(-scale if allow_negative else 0.0, scale)
    b = a + abs(rng.uniform(0, scale))
    return Interval(a, b)


def test_enclosure_fuzz_small():
    """Pointwise results always land inside the interval result (the full
    100k-per-op run lives in the acceptance suite)."""
    rng = random.Random(20240817)
    for _ in range(4000):
        a = _sample_interval(rng)
        b = _sample_interval(rng)
        x = rng.uniform(a.lo, a.hi)
        y = rng.uniform(b.lo, b.hi)
        assert iv_add(a, b).contains(x + y)
        assert iv_sub(a, b).contains(x - y)
        assert iv_mul(a, b).contains(x * y)
        if not (b.lo <= 0.0 <= b.hi):
            assert iv_div(a, b).contains(x / y)


def test_enclosure_fuzz_unary():
    rng = random.Random(99)
    for _ in range(4000):
        lo = rng.uniform(0.0, 100.0)
        hi = lo + rng.uniform(0.0, 100.0)
        x = rng.uniform(lo, hi)
        assert iv_sqrt(Interval(lo, hi)).contains(math.sqrt(x))


@given(
    st.floats(-1e6, 1e6),
    st.floats(0, 1e6),
    st.floats(-1e6, 1e6),
    st.floats(0, 1e6),
    st.floats(0, 1),
)
@settings(max_examples=300, derandomize=True)
def test_subdivision_monotone(a, wa, b, wb, f):
    """Results over a sub-box stay inside the result over the whole box."""
    big_a = Interval(a, a + wa)
    big_b = Interval(b, b + wb)
    mid_a = big_a.lo + f * (big_a.hi - big_a.lo)
    sub_a = Interval(big_a.lo, mid_a)
    whole = iv_mul(big_a, big_b)
    part = iv_mul(sub_a, big_b)
    assert whole.lo <= part.lo and part.hi <= whole.hi
