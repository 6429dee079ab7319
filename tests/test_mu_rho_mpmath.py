"""40-digit checks of the prover's scale-free evaluator: the asinc enclosures
at and near both ends of [0, 1] with their ulp budget, and the density in
mu = 1 - lambda, rho = r / mu against the direct formula in lambda and r,
with mu down to 1e-12."""

import math
import random

import mpmath
import numpy as np
import pytest

from diskpack.intervals import av_asinc
from diskpack.prover import (
    ConfigTag,
    _sector_terms,
    certified_configs,
    eval_density,
)

mpmath.mp.dps = 40

CONFIGS = [c for tag in ConfigTag for c in certified_configs(tag)]
ULP_ONE = mpmath.mpf(2) ** -52

# av_asinc widens libm's asin by 4 ulps and the quotient by 1 (its docstring).
# With libm's asin within 2 ulps, an end lies at most (4 + 2) * pi/2 ulps of
# 1.0 from the true value through asin (asinc <= pi/2 scales an ulp of asin
# relative to z) plus 1.5 through the division: under 11 ulps of 1.0.
ASINC_END_ULPS = 11

# The floats just below and just above 2^-30, and 2^-30 itself.
TINY_EDGE = [math.nextafter(2.0 ** -30, 0.0), 2.0 ** -30, math.nextafter(2.0 ** -30, 1.0)]


def asinc(z):
    z = mpmath.mpf(z)
    return mpmath.mpf(1) if z == 0 else mpmath.asin(z) / z


def asinc_ends():
    """Ends at z = 0 and z = 1, just inside both, across the binades, and
    subnormal."""
    rng = random.Random(20261019)
    inside_one = [1.0 - k * 2.0 ** -53 for k in range(1, 6)] + [1.0 - 1e-9, 0.999]
    inside_zero = [5e-324, 1e-310, 2.0 ** -1022, 1e-300, 1e-150, 2.0 ** -40, 2.0 ** -27, 1e-8]
    inside_zero += TINY_EDGE
    spread = [rng.random() ** rng.choice([1, 4, 16]) for _ in range(3000)]
    return [0.0, 1.0] + inside_one + inside_zero + spread


def test_asinc_enclosures_at_and_near_the_ends():
    zs = asinc_ends()
    z = np.array(zs)
    lo, hi = av_asinc((z, z))
    for zi, l, h in zip(zs, lo.tolist(), hi.tolist()):
        truth = asinc(zi)
        assert l <= truth <= h, zi
        assert 1.0 <= l and h <= math.nextafter(math.pi / 2, math.inf)
        assert truth - l <= ASINC_END_ULPS * ULP_ONE, zi
        assert h - truth <= ASINC_END_ULPS * ULP_ONE, zi
    # The ends themselves: asinc(0) = 1 exactly, and asinc(1) = pi/2.
    (at0_lo, at1_lo), (at0_hi, at1_hi) = av_asinc((np.array([0.0, 1.0]),) * 2)
    assert at0_lo == at0_hi == 1.0
    assert at1_lo <= mpmath.pi / 2 <= at1_hi


@pytest.mark.parametrize("zi", [5e-324, 2.0 ** -40] + TINY_EDGE, ids=float.hex)
def test_asinc_enclosures_below_two_to_the_minus_30(zi):
    """Below z = 2^-30, asinc(z) - 1 < z^2 < ulp(1)/2, and the enclosure is 1
    and the float above it, also at the smallest subnormal, which a product
    with mu = [0, 0] (lambda = 1) rounds out to; from 2^-30 up the quotient
    gives the ends, within the ulp budget."""
    z = np.array([zi])
    (l,), (h,) = (e.tolist() for e in av_asinc((z, z)))
    truth = asinc(zi)
    assert l <= truth <= h
    if zi < 2.0 ** -30:
        assert truth - 1 < mpmath.mpf(zi) ** 2 < ULP_ONE / 2
        assert (l, h) == (1.0, math.nextafter(1.0, math.inf))
    else:
        assert l >= 1.0 and h - truth <= ASINC_END_ULPS * ULP_ONE


def test_asinc_enclosures_of_intervals_hold_every_inner_point():
    """An interval's enclosure holds asinc at its ends and inside, also when
    the interval reaches outside [0, 1] and is clamped."""
    rng = random.Random(7)
    ends = asinc_ends()
    ivs = [tuple(sorted(rng.sample(ends, 2))) for _ in range(500)]
    ivs += [(-1e-300, 1e-300), (-0.5, 0.0), (0.999, 1.5), (1.0, 2.0), (-1.0, 2.0)]
    lo, hi = av_asinc((np.array([a for a, _ in ivs]), np.array([b for _, b in ivs])))
    for (a, b), l, h in zip(ivs, lo.tolist(), hi.tolist()):
        a, b = max(a, 0.0), min(b, 1.0)
        for t in (a, b, 0.5 * (a + b), a + 0.25 * (b - a)):
            assert l <= asinc(t) <= h, (a, b, t)


# ---------------------------------------------------------------------------
# density: mu, rho against lambda, r


def combine(tag, th_p, th_m, h_j, h_p, h_m, ring, k_m, r1, rp, rm):
    """(area, potential) of the sector of a configuration from its angles, as
    oracle_pointeval writes them; rp is unused at arity 2."""
    pi = mpmath.pi
    if tag == "T1":
        return (th_m - min(-h_j, th_m - h_m)) * ring, pi * (r1 ** 2 + rm ** 2 / 2)
    if tag == "T2":
        return th_m * ring, pi * (r1 ** 2 + rm ** 2) / 2
    if tag == "T3":
        end_m = th_m + h_m
        overlap = max(0, min(h_j, end_m))
        return h_j * ring + (max(end_m, 2 * h_m) - overlap) * k_m, pi * (r1 ** 2 / 2 + rm ** 2)
    if tag == "T4":
        overlap = max(0, min(h_j, th_m + h_m) - max(-h_j, th_m - h_m))
        return 2 * h_j * ring + (2 * h_m - overlap) * k_m, pi * (r1 ** 2 + rm ** 2)
    if tag == "T5":
        return (th_m - min(-h_j, th_p - h_p)) * ring, pi * (r1 ** 2 + rp ** 2 + rm ** 2 / 2)
    if tag == "T6":
        return th_m * ring, pi * (rp ** 2 + (r1 ** 2 + rm ** 2) / 2)
    if tag == "T7":
        end_p, end_m = th_p + h_p, th_m + h_m
        return end_p * ring + (end_m - min(end_p, end_m)) * k_m, pi * (
            r1 ** 2 / 2 + rp ** 2 + rm ** 2
        )
    end1, start1 = max(h_j, th_p + h_p), min(-h_j, th_p - h_p)
    overlap = max(0, min(end1, th_m + h_m) - max(start1, th_m - h_m))
    return (end1 - start1) * ring + (2 * h_m - overlap) * k_m, pi * (r1 ** 2 + rp ** 2 + rm ** 2)


def roles(cfg, radii):
    """(radius, on the outer boundary) of disks j, p (arity 3) and m."""
    outer = cfg.orientation.value == "outer"
    if cfg.arity == 2:
        return (radii[0], outer), None, (radii[1], not outer)
    return (radii[0], outer), (radii[1], not outer), (radii[2], outer)


def density_lambda_r(cfg, lam, radii):
    """The direct formula: centre distances lambda + r and 1 - r, angles by
    the law of cosines and asin."""
    def dist(disk):
        r, outer = disk
        return 1 - r if outer else lam + r

    def tangency(a, b):
        d1, d2, gap = dist(a), dist(b), a[0] + b[0]
        return mpmath.acos((d1 ** 2 + d2 ** 2 - gap ** 2) / (2 * d1 * d2))

    j, p, m = roles(cfg, radii)
    angles = {
        "th_p": tangency(j, p) if p else 0,
        "th_m": tangency(j, m),
        "h_j": mpmath.asin(j[0] / dist(j)),
        "h_p": mpmath.asin(p[0] / dist(p)) if p else 0,
        "h_m": mpmath.asin(m[0] / dist(m)),
    }
    area, pot = combine(
        cfg.tag.value, ring=(1 - lam ** 2) / 2, k_m=2 * dist(m) * m[0], r1=j[0],
        rp=p[0] if p else 0, rm=m[0], **angles,
    )
    return pot / area


def density_mu_rho(cfg, mu, rhos):
    """The scale-free formula: angles divided by mu, area and potential
    divided by mu^2."""
    def dist(disk):
        rho, outer = disk
        return 1 - mu * rho if outer else 1 - mu * (1 - rho)

    def tangency(a, b):
        f = 4 * a[0] * b[0] if a[1] == b[1] else 2 * a[0] + 2 * b[0] - 1
        q = mpmath.sqrt(f / (4 * dist(a) * dist(b)))
        return 2 * q * asinc(mu * q)

    j, p, m = roles(cfg, rhos)
    angles = {
        "th_p": tangency(j, p) if p else 0,
        "th_m": tangency(j, m),
        "h_j": asinc(mu * j[0] / dist(j)) * j[0] / dist(j),
        "h_p": asinc(mu * p[0] / dist(p)) * p[0] / dist(p) if p else 0,
        "h_m": asinc(mu * m[0] / dist(m)) * m[0] / dist(m),
    }
    area, pot = combine(
        cfg.tag.value, ring=(2 - mu) / 2, k_m=2 * dist(m) * m[0], r1=j[0],
        rp=p[0] if p else 0, rm=m[0], **angles,
    )
    return pot / area


def admissible_point(rng, arity):
    while True:
        rho1 = rng.uniform(0.25, 0.5)
        rho2 = rng.uniform(0.5 - rho1, rho1)
        rhos = [rho1, rho2]
        if arity == 3:
            if rho2 < 0.25:
                continue
            rhos.append(rng.uniform(0.5 - rho2, rho2))
        return rhos


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.label for c in CONFIGS])
def test_mu_rho_density_matches_the_lambda_r_formula(cfg):
    """At random admissible points with mu log-uniform in [1e-12, 0.5] and at
    mu = 1e-12 itself: the kernel's enclosure of the point holds the 40-digit
    density in mu, rho and is narrow, and that density equals the direct one
    in lambda = 1 - mu, r = mu * rho (both exact at 40 digits)."""
    rng = random.Random(f"mu-rho:{cfg.label}")
    points = []
    for k in range(60):
        mu = 1e-12 if k < 5 else 10.0 ** rng.uniform(-12, math.log10(0.5))
        points.append((mu, admissible_point(rng, cfg.arity)))
    lo = np.array([[mu] + rhos for mu, rhos in points])
    ok, area, pot = _sector_terms(cfg, lo, lo)
    d_lo, d_hi = eval_density(area, pot)
    checked = 0
    for i, (mu, rhos) in enumerate(points):
        assert ok[i]
        if math.isnan(d_lo[i]):
            continue  # area enclosure reaches 0: on the pass bound
        mp_mu = mpmath.mpf(mu)
        scaled = density_mu_rho(cfg, mp_mu, [mpmath.mpf(x) for x in rhos])
        direct = density_lambda_r(cfg, 1 - mp_mu, [mp_mu * mpmath.mpf(x) for x in rhos])
        assert d_lo[i] <= scaled <= d_hi[i], (mu, rhos)
        assert d_hi[i] - d_lo[i] <= 1e-11 * scaled, (mu, rhos)
        assert abs(direct - scaled) <= 1e-12 * scaled, (mu, rhos)
        checked += 1
    assert checked >= 50
