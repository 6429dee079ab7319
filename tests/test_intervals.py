import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpack.intervals import (
    Interval,
    UndefinedIntervalError,
    iv_add,
    iv_div,
    iv_mul,
    iv_pi,
    iv_sqrt,
    iv_sub,
)
from oracle_intervals import iv_acos, iv_asin
from oracle_sector_terms import iv_max, iv_min, iv_point

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


def test_asin_endpoints():
    r = iv_asin(Interval(0, 1))
    assert r.lo <= 0 and r.hi >= math.pi / 2


def test_asin_domain():
    with pytest.raises(UndefinedIntervalError):
        iv_asin(Interval(0.0, 1.0 + 1e-9))


def test_asin_third_high_precision():
    """Contains the true arcsin of the double closest to 1/3."""
    x = 1.0 / 3.0
    r = iv_asin(iv_point(x))
    truth = mpmath.asin(mpmath.mpf(x))
    assert mpmath.mpf(r.lo) <= truth <= mpmath.mpf(r.hi)
    assert r.lo <= 0.3398369094541219 <= r.hi


def test_acos_reverses_order():
    r = iv_acos(Interval(-0.5, 0.5))
    assert r.lo <= math.acos(0.5) and r.hi >= math.acos(-0.5)


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
        u = rng.uniform(-1.0, 1.0)
        v = rng.uniform(u, 1.0)
        t = rng.uniform(u, v)
        assert iv_asin(Interval(u, v)).contains(math.asin(t))
        assert iv_acos(Interval(u, v)).contains(math.acos(t))


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
