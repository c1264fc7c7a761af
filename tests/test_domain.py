import numpy as np
import pytest

from nlgriffith.domain import (
    Affine,
    Ball,
    BoxDomain,
    Grid,
    HyperplaneEvalError,
    PlaneJump,
    PlaneSegment,
    SampledField,
    SumField,
    difference_body,
    domain_from_config,
    eval_nudged,
    field_from_config,
    sample,
)


def unit_interval():
    return BoxDomain(np.array([0.0]), np.array([1.0]))


def unit_square():
    return BoxDomain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# difference body
# ---------------------------------------------------------------------------


def test_difference_body_interval():
    box = difference_body(unit_interval(), 0.5)
    assert np.allclose(box.lower, [-2.0]) and np.allclose(box.upper, [2.0])


def test_difference_body_rectangle():
    dom = BoxDomain(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    box = difference_body(dom, 1.0)
    assert np.allclose(box.lower, [-1.0, -2.0])
    assert np.allclose(box.upper, [1.0, 2.0])


def test_difference_body_small_eps():
    box = difference_body(unit_interval(), 0.1)
    assert np.allclose(box.lower, [-10.0]) and np.allclose(box.upper, [10.0])


def test_difference_body_scales_inversely():
    dom = BoxDomain(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    b1 = difference_body(dom, 0.2)
    b2 = difference_body(dom, 0.1)
    assert np.allclose(b2.upper, 2.0 * b1.upper)
    assert np.allclose(b2.lower, 2.0 * b1.lower)


def test_difference_body_rejects_bad_eps():
    with pytest.raises(ValueError):
        difference_body(unit_interval(), 0.0)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_affine_identity_eval():
    f = Affine(np.eye(2), np.zeros(2))
    assert np.allclose(f.eval(np.array([1.0, 2.0])), [1.0, 2.0])


def test_plane_jump_sides():
    s = 3.0
    f = PlaneJump(np.array([1.0, 0.0]), 0.5, np.zeros(2), np.array([s, 0.0]))
    assert np.allclose(f.eval(np.array([0.7, 0.1])), [s, 0.0])
    assert np.allclose(f.eval(np.array([0.2, 0.9])), [0.0, 0.0])


def test_sum_field_adds_parts():
    f = SumField(
        (
            Affine(np.eye(2), np.zeros(2)),
            PlaneJump(np.array([1.0, 0.0]), 0.5, np.zeros(2), np.array([1.0, 0.0])),
        )
    )
    assert np.allclose(f.eval(np.array([0.7, 0.1])), [1.7, 0.1])


def test_on_hyperplane_eval_raises():
    f = PlaneJump(np.array([1.0]), 0.5, np.array([0.0]), np.array([1.0]))
    with pytest.raises(HyperplaneEvalError):
        f.eval(np.array([0.5]))


def test_hyperplane_error_text_and_attributes():
    f = PlaneJump(np.array([0.6, 0.8]), 0.55, np.zeros(2), np.ones(2))
    with pytest.raises(HyperplaneEvalError) as info:
        f.eval(np.array([0.25, 0.5]))
    err = info.value
    assert str(err) == "evaluation point lies on the jump hyperplane x·[0.6 0.8] = 0.55"
    np.testing.assert_array_equal(err.normal, [0.6, 0.8])
    assert err.offset == 0.55


def test_affine_part_of_sum():
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    f = SumField(
        (
            Affine(A, np.array([1.0, 1.0])),
            PlaneJump(np.array([0.0, 1.0]), 0.3, np.zeros(2), np.ones(2)),
        )
    )
    Asum, bsum = f.affine_part()
    assert np.allclose(Asum, A) and np.allclose(bsum, [1.0, 1.0])
    assert len(f.jump_planes()) == 1


def test_jump_normal_must_be_unit():
    with pytest.raises(ValueError):
        PlaneJump(np.array([2.0, 0.0]), 0.5, np.zeros(2), np.ones(2))


# ---------------------------------------------------------------------------
# grid and sampling
# ---------------------------------------------------------------------------


def test_grid_tiles_box_exactly():
    g = Grid(unit_interval(), 0.25)
    assert g.shape == (4,)
    assert np.allclose(g.centers[:, 0], [0.125, 0.375, 0.625, 0.875])


def test_grid_rejects_non_tiling_spacing():
    with pytest.raises(ValueError, match="h="):
        Grid(unit_interval(), 0.3)


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_grid_rejects_non_finite_spacing(h):
    with pytest.raises(ValueError, match="finite"):
        Grid(unit_interval(), h)


def test_grid_cell_count_matches_product():
    g = Grid(unit_square(), 0.1)
    assert g.n_cells == 100
    assert g.domain.contains(g.centers).all()


def test_grid_volume_sum_matches_domain():
    for h in (0.25, 0.125, 0.0625):
        g = Grid(unit_square(), h)
        vol = g.domain.contains(g.centers).sum() * g.cell_volume
        # boundary error bound: 2 n h * perimeter-type quantity
        assert abs(vol - g.domain.volume) <= 2 * g.dim * h * 4.0


def test_sample_constant_field():
    g = Grid(unit_interval(), 0.25)
    f = Affine(np.zeros((1, 1)), np.array([2.0]))
    sf = sample(f, g)
    assert np.allclose(sf.values, 2.0)


def test_sample_affine_matches_centers():
    g = Grid(unit_interval(), 0.5)
    A = np.array([[3.0]])
    sf = sample(Affine(A, np.zeros(1)), g)
    assert np.allclose(sf.values[:, 0], [0.25 * 3.0, 0.75 * 3.0])


def test_sample_plane_jump_on_coarse_grid():
    g = Grid(unit_interval(), 0.5)
    f = PlaneJump(np.array([1.0]), 0.5, np.array([-1.0]), np.array([4.0]))
    sf = sample(f, g)
    assert np.allclose(sf.values[:, 0], [-1.0, 4.0])


def test_sample_perturbs_centers_on_hyperplane():
    # h = 0.5 on (0, 1.5) puts a center exactly at 0.75
    dom = BoxDomain(np.array([0.0]), np.array([1.5]))
    g = Grid(dom, 0.5)
    f = PlaneJump(np.array([1.0]), 0.75, np.array([0.0]), np.array([1.0]))
    sf = sample(f, g)
    assert np.all(np.isfinite(sf.values))
    # nudged center lands on the plus side
    assert sf.values[1, 0] == 1.0


def test_eval_nudged_is_batch_independent():
    # only exact hits move: a point just below the plane keeps its side
    # even when the same batch holds a point on the plane
    f = PlaneJump(np.array([1.0]), 0.5, np.array([0.0]), np.array([1.0]))
    near = np.array([[0.5 - 1e-9]])
    alone = eval_nudged(f, near, 0.01)
    batch = eval_nudged(f, np.vstack([near, [[0.5]]]), 0.01)
    assert alone[0, 0] == batch[0, 0] == 0.0
    assert batch[1, 0] == 1.0


def test_eval_nudged_evaluates_once_per_nudge_round(monkeypatch):
    f = PlaneJump(np.array([1.0]), 0.5, np.zeros(1), np.ones(1))
    calls = []
    original = PlaneJump.eval_many
    monkeypatch.setattr(PlaneJump, "eval_many", lambda f, pts: calls.append(1) or original(f, pts))
    eval_nudged(f, np.array([[0.25], [0.5]]), 0.01)
    assert len(calls) == 2  # the batch that hits the plane, then the nudged batch
    calls.clear()
    eval_nudged(f, np.array([[0.25]]), 0.01)
    assert len(calls) == 1


def test_sample_then_eval_reproduces_centers():
    g = Grid(unit_square(), 0.125)
    f = Affine(np.array([[1.0, 0.5], [0.0, 2.0]]), np.array([0.3, -0.1]))
    sf = sample(f, g)
    assert np.array_equal(sf.eval_many(g.centers), sf.values)


def test_interpolation_is_exact_on_linears():
    g = Grid(unit_square(), 0.125)
    f = Affine(np.array([[1.0, 0.5], [-0.25, 2.0]]), np.array([0.3, -0.1]))
    sf = sample(f, g)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.2, 0.8, size=(50, 2))
    assert np.allclose(sf.eval_many(pts), f.eval_many(pts), atol=1e-12)


# ---------------------------------------------------------------------------
# precrack
# ---------------------------------------------------------------------------


def test_precrack_segment_needs_one_degenerate_axis():
    with pytest.raises(ValueError):
        PlaneSegment(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def test_precrack_removed_from_membership():
    seg = PlaneSegment(np.array([0.2, 0.5]), np.array([0.8, 0.5]))
    dom = BoxDomain(np.zeros(2), np.ones(2), (seg,))
    pts = np.array([[0.5, 0.5], [0.5, 0.6], [0.1, 0.5]])
    assert list(dom.contains(pts)) == [False, True, True]


def test_precrack_blocks_ball_containment():
    seg = PlaneSegment(np.array([0.2, 0.5]), np.array([0.8, 0.5]))
    dom = BoxDomain(np.zeros(2), np.ones(2), (seg,))
    assert not dom.contains_ball(Ball(np.array([0.5, 0.5]), 0.5))
    assert dom.contains_ball(Ball(np.array([0.5, 0.25]), 0.2))


def test_ball_must_fit_in_box():
    dom = unit_square()
    assert dom.contains_ball(Ball(np.array([0.5, 0.5]), 0.5))
    assert not dom.contains_ball(Ball(np.array([0.5, 0.5]), 0.51))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name, build",
    [
        pytest.param("ball radius", lambda x: Ball([0.5, 0.5], x), id="ball radius"),
        pytest.param("ball center", lambda x: Ball([0.5, x], 0.2), id="ball center"),
        pytest.param("segment lower", lambda x: PlaneSegment([x, 0.5], [0.8, 0.5]), id="segment lower"),
        pytest.param("segment upper", lambda x: PlaneSegment([0.2, 0.5], [x, 0.5]), id="segment upper"),
        pytest.param("box lower", lambda x: BoxDomain([x, 0.0], [1.0, 1.0]), id="box lower"),
        pytest.param("box upper", lambda x: BoxDomain([0.0, 0.0], [1.0, x]), id="box upper"),
    ],
)
def test_geometry_refuses_non_finite_values(name, build, bad):
    # nan geometry used to be accepted and contain nothing, which made every
    # energy on it silently 0; an infinite box made Grid fail misleadingly
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build(bad)


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------


def test_config_round_trip():
    cfg = {
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "field": {
            "kind": "sum",
            "parts": [
                {"kind": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]},
                {
                    "kind": "plane_jump",
                    "normal": [1.0, 0.0],
                    "offset": 0.5,
                    "value_minus": [0.0, 0.0],
                    "value_plus": [10.0, 0.0],
                },
            ],
        },
    }
    dom = domain_from_config(cfg["domain"])
    fld = field_from_config(cfg["field"])
    assert dom.dim == 2 and fld.dim == 2
    assert np.allclose(fld.eval(np.array([0.7, 0.2])), [10.7, 0.2])


def test_sampled_field_shape_validation():
    g = Grid(unit_interval(), 0.25)
    with pytest.raises(ValueError):
        SampledField(g, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SampledField(g, np.full((4, 1), np.nan))
