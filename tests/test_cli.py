import csv
import filecmp
import json
import re

import numpy as np
import pytest

from nlgriffith import cli, slicing
from nlgriffith.cli import main
from nlgriffith.domain import Grid, InputError, load_problem, sample
from nlgriffith.energy import BallStrategy, ball_candidates, ball_supremum_energy
from nlgriffith.quad import build_direction_rule, build_sphere_rule
from nlgriffith.slicing import ball_sup_slice_measure, family_slice_measure


@pytest.fixture
def field_json(tmp_path):
    cfg = {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "field": {
            "kind": "plane_jump",
            "normal": [1.0],
            "offset": 0.5,
            "value_minus": [0.0],
            "value_plus": [10.0],
        },
        "quad": {"radial_order": 8},
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def field2d_json(tmp_path):
    cfg = {
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "field": {
            "kind": "sum",
            "parts": [
                {"kind": "affine", "matrix": [[1.0, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]},
                {
                    "kind": "plane_jump",
                    "normal": [1.0, 0.0],
                    "offset": 0.5,
                    "value_minus": [0.0, 0.0],
                    "value_plus": [5.0, 0.0],
                },
            ],
        },
    }
    path = tmp_path / "field2d.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _usage_error(capsys, argv, match):
    """Run ``argv``, which must end as a usage error of its subcommand whose
    message matches ``match``: exit status 2, usage line and message on
    standard error, no traceback."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: nlgriffith {argv[0]} ")
    assert re.search(match, err.splitlines()[-1]) and "Traceback" not in err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_energy_subcommand(tmp_path, field_json, capsys):
    out = tmp_path / "report.csv"
    rc = main(
        ["energy", "--field", field_json, "--eps", "0.04", "--h", "0.005", "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["total"]) == pytest.approx(np.pi / 2, rel=0.05)
    assert set(rows[0]) == {
        "eps", "p", "h", "strategy", "total", "n_balls", "n_directions", "wall_ms",
    }


def test_energy_subcommand_refuses_misspelled_quad_key(tmp_path):
    cfg = {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "field": {"kind": "affine", "matrix": [[1.0]], "offset": [0.0]},
        "quad": {"radial_ordr": 8},
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.csv"
    with pytest.raises(TypeError, match="radial_ordr"):
        main(["energy", "--field", str(path), "--eps", "0.04", "--h", "0.005", "--out", str(out)])
    assert not out.exists()


def test_energy_subcommand_with_strategy(tmp_path, field_json):
    out = tmp_path / "report.csv"
    rc = main(
        [
            "energy", "--field", field_json, "--eps", "0.04", "--h", "0.005",
            "--strategy", "dyadic:1", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out)
    assert int(rows[0]["n_balls"]) >= 1


def test_energy_subcommand_sampled_strategy_is_reproducible(tmp_path, field2d_json):
    # two runs agree in every column but the informational wall time, and
    # the total is the ball supremum of the sampled field
    argv = ["energy", "--field", field2d_json, "--eps", "0.1", "--h", "0.025", "--p", "2",
            "--strategy", "dyadic:1", "--sampled"]  # fmt: skip
    rows = []
    for name in ("first.csv", "second.csv"):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        (row,) = read_rows(tmp_path / name)
        del row["wall_ms"]
        rows.append(row)
    assert rows[0] == rows[1]
    domain, field_, quad_cfg = load_problem(field2d_json)
    grid = Grid(domain, 0.025)
    rule = build_direction_rule(2, **quad_cfg)
    strategy = BallStrategy.parse("dyadic:1")
    report = ball_supremum_energy(sample(field_, grid), domain, 0.1, 2.0, strategy, rule, grid=grid)
    assert float(rows[0]["total"]) == report.total
    assert int(rows[0]["n_balls"]) == len(report.family)


def test_minimize_subcommand(tmp_path):
    trace = tmp_path / "trace.csv"
    fieldcsv = tmp_path / "final.csv"
    rc = main(
        [
            "minimize", "--load", "0.5", "--eps", "0.05", "--h", "0.0125",
            "--max-iter", "40", "--out", str(trace), "--field-out", str(fieldcsv),
        ]
    )
    assert rc == 0
    t_rows = read_rows(trace)
    energies = [float(r["energy"]) for r in t_rows]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    f_rows = read_rows(fieldcsv)
    assert set(f_rows[0]) == {"cell", "x0", "u0"}


def test_gamma_study_and_determinism(tmp_path, field_json):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    with open(field_json) as fh:
        field_config = json.load(fh)
    for out in (out_a, out_b):
        doc = {
            "field_config": field_config,
            "eps_list": [0.04, 0.02],
            "h_over": 8,
            "out": str(out),
        }
        spec = tmp_path / f"spec_{out.name}.json"
        spec.write_text(json.dumps(doc))
        rc = main(["gamma-study", "--spec", str(spec)])
        assert rc == 0
    assert filecmp.cmp(out_a, out_b, shallow=False)
    rows = read_rows(out_a)
    assert float(rows[0]["relative_error"]) <= 0.02


def test_audit_subcommand_exit_code(tmp_path, capsys):
    spec = tmp_path / "audit.json"
    spec.write_text(json.dumps({"seed": 1, "n_fields": 3, "out": str(tmp_path / "audit.csv")}))
    rc = main(["audit", "--spec", str(spec)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_audit_subcommand_refuses_unknown_key(tmp_path):
    spec = tmp_path / "audit.json"
    out = tmp_path / "audit.csv"
    spec.write_text(json.dumps({"seed": 1, "nfields": 3, "out": str(out)}))
    with pytest.raises(TypeError, match="nfields"):
        main(["audit", "--spec", str(spec)])
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_audit_subcommand_refuses_a_bad_seed_as_a_usage_error(tmp_path, capsys, seed):
    spec = tmp_path / "audit.json"
    out = tmp_path / "audit.csv"
    spec.write_text(json.dumps({"seed": seed, "n_fields": 2, "out": str(out)}))
    _usage_error(capsys, ["audit", "--spec", str(spec)], "seed must be a non-negative integer")
    assert not out.exists()


def test_gamma_study_refuses_unknown_key(tmp_path, field_json):
    out = tmp_path / "sweep.csv"
    with open(field_json) as fh:
        field_config = json.load(fh)
    doc = {
        "field_config": field_config,
        "eps_list": [0.04, 0.02],
        "h_ovr": 12,
        "out": str(out),
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    with pytest.raises(TypeError, match="h_ovr"):
        main(["gamma-study", "--spec", str(spec)])
    assert not out.exists()


def _spec_doc(command, field_json):
    if command == "audit":
        return {"seed": 1, "n_fields": 3}
    with open(field_json) as fh:
        return {"field_config": json.load(fh), "eps_list": [0.04, 0.02], "h_over": 8}


@pytest.mark.parametrize("command", ["gamma-study", "audit"])
def test_spec_accepts_library_out_path(tmp_path, field_json, command):
    # spec keys are the library's fields, and the library calls it out_path
    out = tmp_path / "out.csv"
    doc = _spec_doc(command, field_json)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**doc, "out_path": str(out)}))
    assert main([command, "--spec", str(spec)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["gamma-study", "audit"])
def test_spec_refuses_both_out_keys(tmp_path, field_json, command, capsys):
    out = tmp_path / "out.csv"
    doc = _spec_doc(command, field_json)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**doc, "out": str(out), "out_path": str(out)}))
    _usage_error(capsys, [command, "--spec", str(spec)], "'out' and 'out_path'")
    assert not out.exists()


def test_density_table_subcommand(tmp_path):
    out = tmp_path / "dens.csv"
    rc = main(["density-table", "--dim", "1", "--p-list", "1.0", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    conventions = {r["convention"] for r in rows}
    assert conventions == {"calibrated", "xi-weighted"}
    cal = [r for r in rows if r["matrix_id"] == "0" and r["convention"] == "calibrated"][0]
    assert float(cal["beta"]) == pytest.approx(np.pi / 2, rel=1e-6)


@pytest.mark.parametrize(
    "flags, match",
    [
        (["--seed", "-1"], "seed must be a non-negative integer"),
        (["--n-matrices", "0"], "n-matrices must be at least 1"),
    ],
)
def test_density_table_refuses_a_bad_seed_or_matrix_count(tmp_path, capsys, flags, match):
    out = tmp_path / "dens.csv"
    _usage_error(capsys, ["density-table", "--dim", "1", *flags, "--out", str(out)], match)
    assert not out.exists()


def test_minimize_refuses_a_negative_seed(tmp_path, capsys):
    trace, field = tmp_path / "trace.csv", tmp_path / "field.csv"
    argv = ["minimize", "--load", "2.0", "--nucleation", "0.1", "--seed", "-1", "--out", str(trace)]
    _usage_error(capsys, argv + ["--field-out", str(field)], "seed must be a non-negative integer")
    assert not trace.exists() and not field.exists()


def test_minimize_refuses_a_negative_continuation(tmp_path, capsys):
    # a negative level count once ran without continuation and exited 0
    trace, field = tmp_path / "trace.csv", tmp_path / "field.csv"
    argv = ["minimize", "--load", "2.0", "--continuation", "-1", "--out", str(trace)]
    _usage_error(capsys, argv + ["--field-out", str(field)], "continuation must be at least 0, got -1")
    assert not trace.exists() and not field.exists()


def test_p1_explore_subcommand(tmp_path, field2d_json):
    out = tmp_path / "p1.csv"
    rc = main(
        [
            "p1-explore", "--field", field2d_json, "--strategy", "dyadic:1",
            "--angular", "8", "--resolution", "0.05", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out)
    assert {"ball_index", "xi_index", "mu_xi", "mu_hat_p_ball", "i_u1"} == set(rows[0])
    assert len({r["ball_index"] for r in rows}) >= 4
    # the per-ball aggregate reproduces from the per-direction rows (p = 1)
    by_ball = {}
    for r in rows:
        by_ball.setdefault(r["ball_index"], []).append(r)
    for ball_rows in by_ball.values():
        weight = 2 * np.pi / len(ball_rows)
        agg = weight * sum(float(r["mu_xi"]) for r in ball_rows)
        assert agg == pytest.approx(float(ball_rows[0]["mu_hat_p_ball"]), rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("strategy", ["dyadic:1", "dyadic:2", "dyadic:3"])
def test_p1_explore_reports_family_slice_measure(tmp_path, field2d_json, capsys, strategy, p):
    # the rows and the printed supremum come from one family search; each
    # equals the public functional's value, bit for bit
    out = tmp_path / "p1.csv"
    argv = ["p1-explore", "--field", field2d_json, "--strategy", strategy, "--angular", "8"]
    assert main(argv + ["--p", str(p), "--out", str(out)]) == 0
    domain, field_, _ = load_problem(field2d_json)
    sphere = build_sphere_rule(2, 8)
    family = ball_candidates(domain, BallStrategy.parse(strategy))[-1]
    _, per_ball = family_slice_measure(field_, family, p, sphere)
    rows = read_rows(out)
    assert len(rows) == 8 * len(family)
    for r in rows:
        assert r["mu_hat_p_ball"] == repr(float(per_ball[int(r["ball_index"])]))
    value, _ = ball_sup_slice_measure(field_, domain, p, sphere, BallStrategy.parse(strategy))
    assert capsys.readouterr().out.split("family supremum lower bound ")[1] == f"{value!r}\n"


def test_p1_explore_computes_each_slice_measure_once(tmp_path, field2d_json, monkeypatch):
    # the finest family's measures used to be computed three times: for
    # mu_xi, for mu_hat_p_ball and in the family-supremum search; now each
    # ball's measures along every direction are one table, built once
    calls = []
    real = slicing._slice_table

    def counting(u, nodes, region):
        calls.append(len(nodes))
        return real(u, nodes, region)

    monkeypatch.setattr(slicing, "_slice_table", counting)
    argv = ["p1-explore", "--field", field2d_json, "--strategy", "dyadic:2", "--angular", "8"]
    assert main(argv + ["--out", str(tmp_path / "p1.csv")]) == 0
    domain, _, _ = load_problem(field2d_json)
    families = ball_candidates(domain, BallStrategy.parse("dyadic:2"))
    assert calls == [8] * sum(len(family.balls) for family in families)


def test_p1_explore_refuses_nan_p(tmp_path, field2d_json, capsys):
    out = tmp_path / "p1.csv"
    argv = ["p1-explore", "--field", field2d_json, "--strategy", "dyadic:1", "--p", "nan", "--out", str(out)]
    _usage_error(capsys, argv, "p must be finite")
    assert not out.exists()


@pytest.mark.parametrize("dim, angular, least", [(1, 0, 1), (2, 2, 4), (2, -3, 4), (3, 5, 6), (3, 0, 6)])
def test_p1_explore_refuses_an_angular_order_the_sphere_rule_does_not_honour(tmp_path, capsys, dim, angular, least):
    # below its floor the sphere rule builds the floor's nodes, so such an
    # order once wrote rows for a rule other than the one asked for
    cfg = {
        "domain": {"lower": [0.0] * dim, "upper": [1.0] * dim},
        "field": {"kind": "affine", "matrix": np.eye(dim).tolist(), "offset": [0.0] * dim},
    }
    path, out = tmp_path / "field.json", tmp_path / "p1.csv"
    path.write_text(json.dumps(cfg))
    argv = ["p1-explore", "--field", str(path), "--out", str(out)]
    _usage_error(capsys, argv + [f"--angular={angular}"], f"angular must be at least {least} in dimension {dim}, got")
    assert not out.exists()
    assert main(argv + [f"--angular={least}"]) == 0


def test_minimize_refuses_infinite_eps(tmp_path, capsys):
    trace, field = tmp_path / "trace.csv", tmp_path / "field.csv"
    argv = ["minimize", "--load", "1", "--eps", "inf", "--out", str(trace), "--field-out", str(field)]
    _usage_error(capsys, argv, "finite")
    assert not trace.exists() and not field.exists()


@pytest.mark.parametrize("load", ["nan", "inf", "-inf"])
def test_minimize_refuses_non_finite_load(tmp_path, capsys, load):
    trace, field = tmp_path / "trace.csv", tmp_path / "field.csv"
    argv = ["minimize", f"--load={load}", "--out", str(trace), "--field-out", str(field)]
    _usage_error(capsys, argv, "load must be finite")
    assert not trace.exists() and not field.exists()


@pytest.mark.parametrize("load", ["-inf", "-nan", "-Infinity"])
def test_minimize_refuses_a_space_separated_negative_non_finite_load(tmp_path, capsys, load):
    # argparse alone would take -inf for an option and never call the load check
    trace, field = tmp_path / "trace.csv", tmp_path / "field.csv"
    argv = ["minimize", "--load", load, "--out", str(trace), "--field-out", str(field)]
    _usage_error(capsys, argv, "load must be finite")
    assert not trace.exists() and not field.exists()


def test_a_space_separated_value_with_an_exponent_reaches_its_check(tmp_path, field2d_json, capsys):
    out = tmp_path / "report.csv"
    argv = ["energy", "--field", field2d_json, "--eps", "0.1", "--h", "0.025", "--strategy", "dyadic:1", "--p", "-1e3"]
    _usage_error(capsys, argv + ["--out", str(out)], "p must be finite and at least 1, got -1000.0")
    assert not out.exists()


def test_energy_subcommand_reports_a_malformed_strategy_as_a_usage_error(tmp_path, field2d_json, capsys):
    out = tmp_path / "report.csv"
    argv = ["energy", "--field", field2d_json, "--eps", "0.1", "--h", "0.025", "--strategy", "dyadic:x"]
    _usage_error(capsys, argv + ["--out", str(out)], "ball strategy 'dyadic:x' must have the form")
    assert not out.exists()


def test_a_value_error_from_inside_a_subcommand_keeps_its_traceback(tmp_path, field2d_json, monkeypatch):
    # a shape mismatch inside numpy is a fault of the program, not a refused input
    monkeypatch.setattr(cli, "averaged_energy", lambda *args, **kwargs: np.zeros(2) + np.zeros(3))
    argv = ["energy", "--field", field2d_json, "--eps", "0.1", "--h", "0.025", "--out", str(tmp_path / "report.csv")]
    with pytest.raises(ValueError, match="broadcast") as caught:
        main(argv)
    assert not isinstance(caught.value, InputError)
