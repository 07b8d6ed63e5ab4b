"""Domain geometry: Green functions, Blaschke factors, capacity."""
import math

import numpy as np
import pytest

from jetmin.errors import BadInputError, DomainError, GreenPoleError
from jetmin.geometry import (
    UNIT_DISC,
    DomainSpec,
    MarkedPoint,
    blaschke_deriv,
    blaschke_factor,
    check_marked_points,
    green_disc,
    green_domain,
    log_capacity,
)

# frozen from tests/oracles.py::poisson_green_disc(0.3+0.4j, 0.5, 4096)
POISSON_GREEN_FROZEN = -0.669142570966765
# frozen from tests/oracles.py::wos_green_disc_domain on the image circle of
# T(zeta)=(2 zeta+0.3)/(0.1 zeta+1.2), z=T(0.2+0.1j), z0=T(-0.3), seed 20260825
WOS_GREEN_FROZEN = -0.732209631356322
# frozen from tests/oracles.py::capacity_limit(0.5, poisson oracle)
CAPACITY_LIMIT_FROZEN = 1.3333333333332817


def test_green_disc_at_origin_pole():
    assert green_disc(0.5, 0.0) == pytest.approx(math.log(0.5), abs=1e-15)


def test_green_disc_symmetry_pair():
    assert green_disc(0.0, 0.5) == pytest.approx(math.log(0.5), abs=1e-15)


def test_green_disc_against_harmonic_measure_oracle():
    assert green_disc(0.3 + 0.4j, 0.5) == pytest.approx(POISSON_GREEN_FROZEN, abs=1e-12)


def test_green_disc_pole_error():
    with pytest.raises(GreenPoleError):
        green_disc(0.25 + 0.1j, 0.25 + 0.1j)


def test_green_disc_outside_domain():
    with pytest.raises(DomainError):
        green_disc(1.5, 0.0)
    with pytest.raises(DomainError):
        green_disc(0.1, 1.0)


def test_green_symmetry_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z, w = rng.uniform(-0.7, 0.7, 2) + 1j * rng.uniform(-0.7, 0.7, 2)
        assert green_disc(z, w) == pytest.approx(green_disc(w, z), abs=1e-12)
        assert green_disc(z, w) < 0


def test_green_domain_identity_matches_disc():
    assert green_domain(UNIT_DISC, 0.3 + 0.4j, 0.5) == green_disc(0.3 + 0.4j, 0.5)


def test_green_domain_scaled_disc():
    dom = DomainSpec.moebius(2.0, 0.0, 0.0, 1.0)
    assert green_domain(dom, 1.0, 0.0) == pytest.approx(math.log(0.5), abs=1e-14)


def test_green_domain_against_walk_on_spheres_oracle():
    dom = DomainSpec.moebius(2.0, 0.3, 0.1, 1.2)
    z = complex(dom.forward(0.2 + 0.1j))
    z0 = complex(dom.forward(-0.3))
    assert green_domain(dom, z, z0) == pytest.approx(WOS_GREEN_FROZEN, abs=1e-3)


def test_green_domain_conformal_invariance():
    dom = DomainSpec.moebius(1.5, 0.2j, 0.05, 1.1)
    rng = np.random.default_rng(5)
    for _ in range(25):
        zeta, zeta0 = rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
        lhs = green_domain(dom, complex(dom.forward(zeta)), complex(dom.forward(zeta0)))
        assert lhs == pytest.approx(green_disc(zeta, zeta0), abs=1e-12)


def test_moebius_injectivity_validation():
    with pytest.raises(BadInputError):
        DomainSpec.moebius(1.0, 0.0, 1.0, 1.0)  # pole at -1 on the circle
    with pytest.raises(BadInputError):
        DomainSpec.moebius(1.0, 2.0, 2.0, 1.0)  # pole at -1/2 inside


def test_blaschke_at_origin_is_identity():
    z = 0.3 - 0.2j
    assert blaschke_factor(0.0, z) == z


def test_blaschke_point_value():
    assert blaschke_factor(0.5, 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_blaschke_modulus_is_exp_green():
    rng = np.random.default_rng(23)
    z0 = 0.4 + 0.25j
    for _ in range(100):
        z = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
        if abs(z - z0) < 1e-3:
            continue
        assert abs(blaschke_factor(z0, z)) == pytest.approx(
            math.exp(green_disc(z, z0)), abs=1e-12
        )


def test_blaschke_deriv_finite_difference():
    z0 = 0.3 + 0.6j
    z = -0.2 + 0.1j
    h = 1e-6
    fd = (blaschke_factor(z0, z + h) - blaschke_factor(z0, z - h)) / (2 * h)
    assert blaschke_deriv(z0, z) == pytest.approx(fd, abs=1e-8)


def test_capacity_origin():
    assert log_capacity(UNIT_DISC, MarkedPoint(0.0)) == pytest.approx(1.0, abs=1e-15)


def test_capacity_half():
    cap = log_capacity(UNIT_DISC, MarkedPoint(0.5))
    assert cap == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert cap == pytest.approx(CAPACITY_LIMIT_FROZEN, rel=1e-9)


def test_capacity_generic_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z0 = rng.uniform(-0.65, 0.65) + 1j * rng.uniform(-0.65, 0.65)
        cap = log_capacity(UNIT_DISC, MarkedPoint(z0))
        assert cap == pytest.approx(1.0 / (1.0 - abs(z0) ** 2), rel=1e-13)


def test_capacity_coordinate_scale():
    base = log_capacity(UNIT_DISC, MarkedPoint(0.25))
    scaled = log_capacity(UNIT_DISC, MarkedPoint(0.25, coord_scale=2.0 - 1.0j))
    assert scaled == pytest.approx(base / abs(2.0 - 1.0j), rel=1e-13)


def test_capacity_scaled_domain():
    dom = DomainSpec.moebius(2.0, 0.0, 0.0, 1.0)
    assert log_capacity(dom, MarkedPoint(0.0)) == pytest.approx(0.5, abs=1e-14)


def test_marked_point_validation():
    with pytest.raises(BadInputError):
        MarkedPoint(0.2, green_weight=0.0)
    with pytest.raises(BadInputError):
        MarkedPoint(0.2, jet_order=-1)
    with pytest.raises(BadInputError):
        MarkedPoint(0.2, coord_scale=0.0)
    with pytest.raises(DomainError):
        check_marked_points(UNIT_DISC, [MarkedPoint(1.5)])
    with pytest.raises(BadInputError):
        check_marked_points(UNIT_DISC, [MarkedPoint(0.2), MarkedPoint(0.2)])
