import math

import numpy as np
import pytest

from diskpack.geometry import GeometryDomainError
from diskpack.oracles import (
    cone_density,
    gap_excess,
    rho,
)


def test_rho_bounds():
    v = rho()
    assert 0.5606 < v < 0.56065
    assert v > 0.5
    assert v == pytest.approx(
        math.pi / (2 * math.pi - 2 * math.asin(1 / 3)), abs=1e-15
    )


@pytest.mark.parametrize(
    "r,expected",
    [
        (0.25, 0.57776),
        (0.39464, 0.68902),
        (0.495, 0.56127),
        (0.5, 0.5),
    ],
)
def test_cone_density_table(r, expected):
    assert cone_density(r) == pytest.approx(expected, abs=5e-5)


def test_cone_density_domain():
    for bad in (0.0, -0.1, 0.51, 1.0):
        with pytest.raises(GeometryDomainError):
            cone_density(bad)


def test_cone_density_extrema_by_dense_sampling():
    rs = np.arange(0.25, 0.495 + 1e-12, 1e-4)
    vals = np.array([cone_density(float(r)) for r in rs])
    assert rs[int(np.argmax(vals))] == pytest.approx(0.39464, abs=2e-4)
    assert int(np.argmin(vals)) == len(rs) - 1  # minimum at 0.495
    assert vals[-1] > rho()
    rs2 = np.arange(0.2019, 0.5 + 1e-12, 1e-4)
    vals2 = np.array([cone_density(float(r)) for r in rs2])
    assert vals2.min() >= 0.5 - 1e-12
    assert rs2[int(np.argmin(vals2))] == pytest.approx(0.5, abs=2e-4)


def test_zipper_one_density_value():
    from diskpack.oracles import zipper_one_density

    v = zipper_one_density()
    assert v == pytest.approx(0.77036, abs=5e-5)
    assert rho() < v < 1.0


@pytest.mark.parametrize(
    "lam,expected",
    [(0.125, -0.01576), (0.196638, 0.01756), (0.25, 0.0)],
)
def test_gap_excess_values(lam, expected):
    assert gap_excess(lam) == pytest.approx(expected, abs=5e-5)


def test_gap_excess_domain_and_max():
    with pytest.raises(GeometryDomainError):
        gap_excess(0.1)
    with pytest.raises(GeometryDomainError):
        gap_excess(0.26)
    lams = np.linspace(0.125, 0.25, 12501)  # 1e-5 step
    vals = np.array([gap_excess(float(x)) for x in lams])
    assert vals.max() <= 0.01756 + 1e-5


def test_oracles_are_pure():
    assert rho() == rho()
    assert gap_excess(0.2) == gap_excess(0.2)
    assert cone_density(0.3) == cone_density(0.3)
