import dataclasses

import numpy as np
import pytest
from scipy import special
from scipy.special import erf

from nlgriffith import quad
from nlgriffith.domain import BoxDomain
from nlgriffith.quad import (
    DirectionRule,
    NodeEvaluationError,
    RuleQualityError,
    build_direction_rule,
    build_sphere_rule,
    gaussian_moment,
    integrate,
)

SQRT_PI = np.sqrt(np.pi)


@pytest.fixture(scope="module")
def rule1():
    return build_direction_rule(1)


@pytest.fixture(scope="module")
def rule2():
    return build_direction_rule(2)


@pytest.fixture(scope="module")
def rule3():
    return build_direction_rule(3, radial_order=8, angular_order=12)


# ---------------------------------------------------------------------------
# moment oracle
# ---------------------------------------------------------------------------


def test_radial_moment_normalizations():
    assert gaussian_moment(1, 0) == pytest.approx(SQRT_PI, rel=1e-14)
    assert gaussian_moment(2, 0) == pytest.approx(np.pi, rel=1e-14)
    assert gaussian_moment(3, 0) == pytest.approx(np.pi**1.5, rel=1e-14)


def test_radial_moment_k2_matches_brute_force():
    # independent check: plain trapezoid integration of |xi|^2 exp(-xi^2)
    from scipy.integrate import trapezoid

    t = np.linspace(-10, 10, 400001)
    brute = trapezoid(t**2 * np.exp(-(t**2)), t)
    assert gaussian_moment(1, 2) == pytest.approx(brute, rel=1e-10)
    assert gaussian_moment(1, 2) == pytest.approx(SQRT_PI / 2, rel=1e-14)


def test_odd_tensor_moment_is_zero():
    assert gaussian_moment(1, (3,)) == 0.0
    assert gaussian_moment(2, (1, 2)) == 0.0


def test_tensor_moment_factorizes():
    # int xi1^2 xi2^4 = (sqrt(pi)/2) * (3 sqrt(pi)/4)
    assert gaussian_moment(2, (2, 4)) == pytest.approx((SQRT_PI / 2) * (0.75 * SQRT_PI), rel=1e-14)


def test_radial_moment_fractional_exponent():
    # dimension 1, k=1: int |xi| exp(-xi^2) = 1
    assert gaussian_moment(1, 1) == pytest.approx(1.0, rel=1e-14)


# the truncation radii and the largest radial order of the rules this
# package and its tests build
R_MAX_IN_USE = (3.0, 5.0, 6.0, 8.0)
MAX_RADIAL_ORDER = 14


def _verify_arguments():
    """Every ``(s, x)`` at which ``_verify_rule`` evaluates the incomplete
    gamma in dimensions 1-3: a tensor moment is nonzero only when every
    exponent is even, so ``s = (|alpha| + n)/2`` with ``|alpha|`` even, and
    ``x = r_max^2``."""
    return sorted(
        {((m + n) / 2.0, r * r) for n in (1, 2, 3) for m in range(0, MAX_RADIAL_ORDER + 1, 2) for r in R_MAX_IN_USE}
    )


def test_verify_arguments_cover_the_default_rules(monkeypatch):
    reached = set()

    def recording(s, x):
        reached.add((s, x))
        return special.gammainc(s, x)

    monkeypatch.setattr(quad, "_gammainc", recording)
    for dim in (1, 2, 3):
        build_direction_rule(dim)
    assert reached and reached <= set(_verify_arguments())


def test_gamma_matches_scipy():
    # integers and half-integers take the exact product, the rest math.gamma
    for s in sorted({s for s, _ in _verify_arguments()} | {0.3, 2.7, 4.1}):
        assert quad._gamma(s) == pytest.approx(special.gamma(s), rel=4e-16, abs=0.0)


def test_gamma_is_scipys_at_the_slice_measure_arguments():
    # ball volumes and plane areas of 1-3 dimensional balls and the sphere
    # surfaces equal scipy's to the last bit, so slice measures do not move
    for s in (0.5, 1.0, 1.5, 2.0, 2.5):
        assert quad._gamma(s) == special.gamma(s)


@pytest.mark.parametrize("s, x", _verify_arguments())
def test_gammainc_matches_scipy(s, x):
    assert quad._gammainc(s, x) == pytest.approx(special.gammainc(s, x), rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# rule construction
# ---------------------------------------------------------------------------


def test_rule_normalization_1d(rule1):
    assert rule1.total_weight == pytest.approx(SQRT_PI, rel=1e-9)


def test_rule_normalization_2d(rule2):
    assert rule2.total_weight == pytest.approx(np.pi, rel=1e-9)


def test_rule_fourth_moment_1d(rule1):
    val = integrate(rule1, lambda xi: xi[0] ** 4)
    assert val == pytest.approx(0.75 * SQRT_PI, rel=1e-9)


def test_rule_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_direction_rule(4)
    with pytest.raises(ValueError):
        build_direction_rule(1, radial_order=1)
    with pytest.raises(ValueError):
        build_direction_rule(1, r_max=2.0)


def test_polynomial_moments_match_oracle(rule2):
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.integers(0, rule2.radial_order // 2, size=2)
        if a.sum() > rule2.radial_order:
            continue
        val = integrate(rule2, lambda xi: np.prod(xi**a))
        exact = gaussian_moment(2, tuple(a))
        assert abs(val - exact) <= 1e-8 * (1 + abs(exact))


def test_polynomial_moments_match_oracle_3d(rule3):
    for a in [(2, 2, 2), (4, 0, 0), (0, 2, 4), (6, 2, 0)]:
        val = integrate(rule3, lambda xi: np.prod(xi ** np.array(a)))
        exact = gaussian_moment(3, a)
        assert abs(val - exact) <= 1e-8 * (1 + abs(exact))


def test_rotation_invariance_of_radial_integrand(rule2):
    f = lambda xi: np.exp(-np.abs(np.linalg.norm(xi) - 1.0))
    c, s = np.cos(0.327), np.sin(0.327)
    rotated = dataclasses.replace(rule2, nodes=rule2.nodes @ np.array([[c, -s], [s, c]]).T)
    base = integrate(rule2, f)
    rot = integrate(rotated, f)
    assert rot == pytest.approx(base, rel=1e-10)


def test_truncation_control():
    # contributions beyond |xi| = 5 are negligible for quadratic-form integrands
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2))
    f = lambda xi: float((A @ xi) @ xi) ** 2
    v5 = integrate(build_direction_rule(2, r_max=5.0), f)
    v8 = integrate(build_direction_rule(2, r_max=8.0), f)
    assert abs(v5 - v8) <= 1e-6 * abs(v8)


def test_sphere_rule_total_weights():
    for n, surface in [(1, 2.0), (2, 2 * np.pi), (3, 4 * np.pi)]:
        _, w = build_sphere_rule(n, 12)
        assert np.sum(w) == pytest.approx(surface, rel=1e-12)


def test_quality_error_on_tampered_rule(rule1):
    from nlgriffith.quad import _verify_rule

    bad = DirectionRule(
        rule1.dimension,
        rule1.nodes,
        rule1.weights * 1.01,
        rule1.truncation_radius,
        rule1.radial_order,
        rule1.angular_order,
    )
    with pytest.raises(RuleQualityError):
        _verify_rule(bad)


LIBRARY_ORDERS = [{}, {"radial_order": 6}]


@pytest.mark.parametrize("kwargs", LIBRARY_ORDERS, ids=["default", "radial6"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tensor_moments_match_the_per_monomial_products(dim, kwargs):
    # each moment from the power table equals the per-monomial product form
    # within 1e-13 of the sum of its terms' magnitudes (odd moments are
    # roundoff around an exact zero, so their own size is no scale)
    rule = build_direction_rule(dim, **kwargs)
    moments = quad._tensor_moments(rule, rule.radial_order)
    for alpha in quad._monomials(dim, rule.radial_order):
        terms = rule.weights * np.prod(rule.nodes**alpha, axis=1)
        assert abs(moments[tuple(alpha)] - np.sum(terms)) <= 1e-13 * np.sum(np.abs(terms))


@pytest.mark.parametrize("kwargs", LIBRARY_ORDERS, ids=["default", "radial6"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quality_error_names_a_monomial_when_one_weight_moves(dim, kwargs):
    from nlgriffith.quad import _verify_rule

    rule = build_direction_rule(dim, **kwargs)
    weights = rule.weights.copy()
    weights[np.argmax(weights)] *= 1 + 1e-6
    with pytest.raises(RuleQualityError, match=r"moment xi\^\[[\d ]+\] = .* misses the oracle"):
        _verify_rule(dataclasses.replace(rule, weights=weights))


def test_quality_check_fails_closed_on_nan(rule1):
    from nlgriffith.quad import _verify_rule

    weights = rule1.weights.copy()
    weights[0] = np.nan
    # the constructor refuses a nan weight, so set it past the constructor
    bad = dataclasses.replace(rule1)
    object.__setattr__(bad, "weights", weights)
    with pytest.raises(RuleQualityError):
        _verify_rule(bad)


@pytest.mark.parametrize(
    "part, value, message",
    [
        ("weights", np.nan, "weights must be finite and positive"),
        ("weights", np.inf, "weights must be finite and positive"),
        ("nodes", np.nan, "nodes must be finite"),
        ("nodes", np.inf, "nodes must be finite"),
        ("truncation_radius", np.nan, "within the truncation radius"),
    ],
)
def test_rule_refuses_non_finite_parts(rule1, part, value, message):
    # nan fails every comparison, so checks written as "refuse if bad"
    # used to let nan nodes and weights through to a nan energy
    if part == "truncation_radius":
        changed = value
    else:
        changed = getattr(rule1, part).copy()
        changed[0] = value
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(rule1, **{part: changed})


def test_rule_refuses_no_nodes():
    # an empty rule used to give every energy 0.0, and an empty descent operator
    with pytest.raises(ValueError, match=r"m >= 1"):
        DirectionRule(1, np.zeros((0, 1)), np.zeros(0), 6.0, 0, 0)


@pytest.mark.parametrize("r_max", [np.nan, np.inf])
def test_rule_refuses_non_finite_truncation_radius(r_max):
    # a nan r_max used to build a rule with a nan outer panel, which the
    # quality check passed; in 1D the averaged energy of u = x came out wrong
    with pytest.raises(ValueError, match=f"finite and at least 3, got {r_max}"):
        build_direction_rule(1, r_max=r_max)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"dimension": True}, "dimension must be 1, 2, or 3"),
        ({"dimension": 2.0}, "dimension must be 1, 2, or 3"),
        ({"radial_order": 2.5}, "radial_order must be an integer, got 2.5"),
        ({"radial_order": 8.0}, "radial_order must be an integer, got 8.0"),
        ({"angular_order": np.nan}, "angular_order must be an integer, got nan"),
        ({"angular_order": True}, "angular_order must be an integer, got True"),
        ({"r_max": "7"}, "r_max must be a real number, got '7'"),
        ({"r_max": True}, "r_max must be a real number, got True"),
        ({"r_max": 3.4}, r"truncation radius 3.4 leaves 1.5e-06 > 1e-06 of the weight outside"),
        ({"dimension": 2, "r_max": 3.0}, r"truncation radius 3.0 leaves 1.2e-04 > 1e-06 of the weight outside"),
        ({"dimension": 3, "r_max": 3.9}, r"truncation radius 3.9 leaves 1.1e-06 > 1e-06 of the weight outside"),
    ],
)
def test_rule_refuses_orders_and_radii_outside_their_domain(kwargs, match):
    # each once passed its range check, and then failed the rule's quality
    # check (a radius from 3 up to its dimension's floor) or ended in a
    # TypeError inside the build
    with pytest.raises(ValueError, match=match):
        build_direction_rule(**{"dimension": 1, **kwargs})


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_constant_full_support(rule2):
    assert integrate(rule2, lambda xi: 1.0) == pytest.approx(np.pi, rel=1e-9)


def test_integrate_with_support_truncation():
    # dropping nodes at an interior cut is first-order accurate in the node
    # spacing; the brute-force target is erf(1) * sqrt(pi)
    target = erf(1.0) * SQRT_PI
    support = BoxDomain(np.array([-1.0]), np.array([1.0]))

    def inside(xi):
        return 1.0 if support.contains(xi)[0] else 0.0

    coarse = integrate(build_direction_rule(1), inside)
    fine = integrate(build_direction_rule(1, radial_order=14, angular_order=24), inside)
    # sanity at the default resolution, refinement must not drift away
    assert abs(coarse - target) <= 0.1
    assert abs(fine - target) <= 0.1


def test_integrate_reports_bad_node(rule1):
    def f(xi):
        return np.inf if xi[0] > 0 else 1.0

    with pytest.raises(NodeEvaluationError):
        integrate(rule1, f)


def test_integrate_fixed_order_reproducible(rule2):
    f = lambda xi: np.sin(3 * xi[0]) * xi[1] ** 2 + 0.1
    assert integrate(rule2, f) == integrate(rule2, f)
