import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgriffith.domain import Affine, BoxDomain, PlaneJump, SumField
from nlgriffith.limits import (
    bar_load_threshold,
    bulk_density,
    closed_form_bulk_p1,
    closed_form_surface_p1,
    griffith_energy,
    plane_area_in_box,
    surface_constant,
)
from nlgriffith.quad import build_direction_rule, gaussian_moment, integrate

SQRT_PI = np.sqrt(np.pi)

PROFILE = settings(derandomize=True, max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def rule1():
    return build_direction_rule(1)


@pytest.fixture(scope="module")
def rule2():
    return build_direction_rule(2, radial_order=10, angular_order=24)


@pytest.fixture(scope="module")
def rule3():
    return build_direction_rule(3, radial_order=8, angular_order=12)


# ---------------------------------------------------------------------------
# bulk density
# ---------------------------------------------------------------------------


def test_bulk_density_zero_matrix(rule2):
    assert bulk_density(np.zeros((2, 2)), 1.0, rule2) == 0.0


def test_bulk_density_skew_vanishes(rule2):
    W = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert bulk_density(W, 1.0, rule2) <= 1e-15
    assert bulk_density(W, 2.0, rule2) <= 1e-15


def test_bulk_density_identity_weighted_matches_moment(rule1):
    # p = 1, 1x1 identity, extra |xi| factor: int |xi|^5 exp(-xi^2) = 2
    val = bulk_density(np.array([[1.0]]), 1.0, rule1, convention="xi-weighted")
    assert val == pytest.approx(gaussian_moment(1, 5), rel=1e-8)
    assert val == pytest.approx(2.0, rel=1e-8)


def test_bulk_density_identity_calibrated(rule1):
    val = bulk_density(np.array([[1.0]]), 1.0, rule1, convention="calibrated")
    assert val == pytest.approx(0.75 * SQRT_PI, rel=1e-8)


def test_bulk_density_symmetric_part_only(rule2):
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        S = 0.5 * (A + A.T)
        assert bulk_density(A, 1.5, rule2) == bulk_density(S, 1.5, rule2)


def test_bulk_density_two_homogeneous(rule2):
    rng = np.random.default_rng(1)
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        lam = rng.uniform(0.1, 3.0)
        for p in (1.0, 2.0):
            a = bulk_density(lam * A, p, rule2)
            b = lam**2 * bulk_density(A, p, rule2)
            assert a == pytest.approx(b, rel=1e-10)


@functools.lru_cache(maxsize=None)
def low_order_rule(dim):
    return build_direction_rule(dim, radial_order=4, angular_order=8)


@st.composite
def square_matrices(draw):
    dim = draw(st.integers(1, 3))
    entries = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim * dim, max_size=dim * dim))
    return np.array(entries).reshape(dim, dim)


@PROFILE
@given(A=square_matrices(), p=st.sampled_from([1.0, 1.5, 2.0]), lam=st.floats(0.1, 3.0))
def test_bulk_density_symmetric_homogeneous_skew_free(A, p, lam):
    rule = low_order_rule(A.shape[0])
    value = bulk_density(A, p, rule)
    # only the symmetric part enters
    assert value == bulk_density(0.5 * (A + A.T), p, rule)
    # 2-homogeneity
    assert bulk_density(lam * A, p, rule) == pytest.approx(lam**2 * value, rel=1e-10)
    # skew gradients cost nothing
    assert bulk_density(A - A.T, p, rule) <= 1e-15


def test_bulk_identity_against_closed_form(rule1, rule2, rule3):
    # int (A xi . xi)^2 dGauss = (pi^(n/2)/2) (|sym A|^2 + tr(A)^2/2)
    rng = np.random.default_rng(42)
    for n, rule in ((1, rule1), (2, rule2), (3, rule3)):
        for _ in range(20):
            A = rng.normal(size=(n, n))
            S = 0.5 * (A + A.T)
            val = integrate(rule, lambda xi: float((A @ xi) @ xi) ** 2)
            exact = closed_form_bulk_p1(A)
            assert abs(val - exact) <= 1e-6 * (1 + abs(exact))
            assert closed_form_bulk_p1(S) == pytest.approx(exact, rel=1e-14)


# ---------------------------------------------------------------------------
# surface constant
# ---------------------------------------------------------------------------


def test_surface_constant_calibrated_values(rule1, rule2):
    # dimension 1 has no angular kink and is quadrature-exact
    assert surface_constant(1.0, 1, rule1) == pytest.approx(np.pi / 2, rel=1e-8)
    # in dimension 2 the integrand |nu . xi| has a kink on the circle, so
    # equal-angle quadrature converges at second order in the angle count
    assert surface_constant(1.0, 2, rule2) == pytest.approx(np.pi**1.5 / 2, rel=1e-2)
    fine = build_direction_rule(2, radial_order=10, angular_order=128)
    assert surface_constant(1.0, 2, fine) == pytest.approx(np.pi**1.5 / 2, rel=1e-3)
    assert closed_form_surface_p1(1) == pytest.approx(np.pi / 2, rel=1e-14)
    assert closed_form_surface_p1(2) == pytest.approx(np.pi**1.5 / 2, rel=1e-14)


def test_surface_constant_weighted_value(rule1):
    # n=1, p=1 with the |xi| factor: (pi/2) * int xi^2 = pi^(3/2)/4
    val = surface_constant(1.0, 1, rule1, convention="xi-weighted")
    assert val == pytest.approx(np.pi**1.5 / 4, rel=1e-8)


@pytest.mark.parametrize("p", [np.nan, np.inf, 0.5])
def test_limit_densities_reject_bad_p(rule2, p):
    with pytest.raises(ValueError, match="p must be finite and at least 1"):
        bulk_density(np.eye(2), p, rule2)
    with pytest.raises(ValueError, match="p must be finite and at least 1"):
        surface_constant(p, 2, rule2)


def test_surface_constant_rotation_invariant(rule2):
    # the default angle count is a multiple of 8, so the eighth-turn
    # rotation permutes the angular nodes and the sums agree exactly
    base = surface_constant(1.0, 2, rule2, normal=np.array([1.0, 0.0]))
    tilted = surface_constant(
        1.0, 2, rule2, normal=np.array([1.0, 1.0]) / np.sqrt(2.0)
    )
    assert tilted == pytest.approx(base, rel=1e-8)


def test_closed_form_bulk_identity_matrix_2d(rule2):
    # A = I in the plane: (pi/2) * (|I|^2 + tr^2/2) = (pi/2)(2 + 2) = 2 pi,
    # which equals the Gaussian integral of |xi|^4
    val = closed_form_bulk_p1(np.eye(2))
    assert val == pytest.approx(2 * np.pi, rel=1e-14)
    quadrature = integrate(rule2, lambda xi: float(xi @ xi) ** 2)
    assert quadrature == pytest.approx(2 * np.pi, rel=1e-8)
    assert gaussian_moment(2, 4) == pytest.approx(2 * np.pi, rel=1e-14)


def test_surface_constant_p2(rule2):
    # (pi/2) * (int (nu.xi)^2 dGauss)^(1/2) = (pi/2) * (pi/2)^(1/2)
    val = surface_constant(2.0, 2, rule2)
    assert val == pytest.approx(0.5 * np.pi * np.sqrt(np.pi / 2), rel=1e-8)


# ---------------------------------------------------------------------------
# plane-box geometry
# ---------------------------------------------------------------------------


def test_plane_area_1d():
    box = BoxDomain(np.array([0.0]), np.array([1.0]))
    assert plane_area_in_box(np.array([1.0]), 0.5, box) == 1.0
    assert plane_area_in_box(np.array([1.0]), 1.5, box) == 0.0


def test_plane_area_2d_axis_and_diagonal():
    box = BoxDomain(np.zeros(2), np.ones(2))
    assert plane_area_in_box(np.array([1.0, 0.0]), 0.5, box) == pytest.approx(1.0)
    nu = np.array([1.0, 1.0]) / np.sqrt(2)
    assert plane_area_in_box(nu, float(nu @ [0.5, 0.5]), box) == pytest.approx(
        np.sqrt(2.0)
    )


def test_plane_area_3d():
    box = BoxDomain(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert plane_area_in_box(np.array([1.0, 0.0, 0.0]), 0.5, box) == pytest.approx(6.0)
    nu = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    area = plane_area_in_box(nu, float(nu @ [0.5, 0.5, 0.0]), box)
    assert area == pytest.approx(np.sqrt(2.0) * 3.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Griffith values
# ---------------------------------------------------------------------------


def test_griffith_energy_constant_field(rule2):
    box = BoxDomain(np.zeros(2), np.ones(2))
    u = Affine(np.zeros((2, 2)), np.ones(2))
    gv = griffith_energy(u, box, 1.0, rule2)
    assert gv.bulk == 0.0 and gv.surface == 0.0 and gv.total == 0.0


def test_griffith_energy_affine_unit_cube(rule2):
    box = BoxDomain(np.zeros(2), np.ones(2))
    A = np.array([[1.0, 0.2], [0.2, 0.7]])
    gv = griffith_energy(Affine(A, np.zeros(2)), box, 1.0, rule2)
    assert gv.bulk == pytest.approx(bulk_density(A, 1.0, rule2), rel=1e-12)
    assert gv.surface == 0.0


def test_griffith_energy_jump_field(rule2):
    box = BoxDomain(np.zeros(2), np.ones(2))
    u = SumField(
        (
            Affine(np.eye(2), np.zeros(2)),
            PlaneJump(np.array([1.0, 0.0]), 0.5, np.zeros(2), np.array([10.0, 0.0])),
        )
    )
    gv = griffith_energy(u, box, 1.0, rule2)
    assert gv.surface == pytest.approx(surface_constant(1.0, 2, rule2), rel=1e-12)
    assert gv.total == gv.bulk + gv.surface


def test_griffith_energy_zero_jump_plane_ignored(rule2):
    box = BoxDomain(np.zeros(2), np.ones(2))
    u = PlaneJump(np.array([1.0, 0.0]), 0.5, np.ones(2), np.ones(2))
    gv = griffith_energy(u, box, 1.0, rule2)
    assert gv.surface == 0.0


def test_bar_threshold(rule1):
    # crossing of phi * t^2 and beta: t* = sqrt((pi/2) / (3 sqrt(pi)/4))
    t_star = bar_load_threshold(rule1)
    expected = np.sqrt((np.pi / 2) / (0.75 * SQRT_PI))
    assert t_star == pytest.approx(expected, rel=1e-8)
    assert t_star == pytest.approx(1.0870, abs=2e-4)
    # direct branch evaluation crosses exactly there
    phi = bulk_density(np.array([[1.0]]), 1.0, rule1)
    beta = surface_constant(1.0, 1, rule1)
    assert phi * t_star**2 == pytest.approx(beta, rel=1e-12)


def test_convention_validation(rule1):
    with pytest.raises(ValueError):
        bulk_density(np.eye(1), 1.0, rule1, convention="bogus")
