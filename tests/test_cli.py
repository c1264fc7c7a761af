import csv
import filecmp
import json

import numpy as np
import pytest

from nlgriffith.cli import main
from nlgriffith.domain import load_problem
from nlgriffith.energy import BallStrategy, ball_candidates
from nlgriffith.quad import build_sphere_rule
from nlgriffith.slicing import family_slice_measure


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


def test_density_table_subcommand(tmp_path):
    out = tmp_path / "dens.csv"
    rc = main(["density-table", "--dim", "1", "--p-list", "1.0", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    conventions = {r["convention"] for r in rows}
    assert conventions == {"calibrated", "xi-weighted"}
    cal = [r for r in rows if r["matrix_id"] == "0" and r["convention"] == "calibrated"][0]
    assert float(cal["beta"]) == pytest.approx(np.pi / 2, rel=1e-6)


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


def test_p1_explore_reports_family_slice_measure(tmp_path, field2d_json):
    out = tmp_path / "p1.csv"
    argv = ["p1-explore", "--field", field2d_json, "--strategy", "dyadic:2", "--angular", "8"]
    assert main(argv + ["--p", "2", "--out", str(out)]) == 0
    domain, field_, _ = load_problem(field2d_json)
    family = ball_candidates(domain, BallStrategy.parse("dyadic:2"))[-1]
    _, per_ball = family_slice_measure(field_, family, 2.0, build_sphere_rule(2, 8))
    for r in read_rows(out):
        assert r["mu_hat_p_ball"] == repr(float(per_ball[int(r["ball_index"])]))


def test_p1_explore_refuses_nan_p(tmp_path, field2d_json):
    out = tmp_path / "p1.csv"
    with pytest.raises(ValueError, match="p must be finite"):
        main(["p1-explore", "--field", field2d_json, "--strategy", "dyadic:1", "--p", "nan", "--out", str(out)])
    assert not out.exists()


def test_minimize_refuses_infinite_eps(tmp_path):
    trace, field = tmp_path / "trace.csv", tmp_path / "field.csv"
    with pytest.raises(ValueError, match="finite"):
        main(["minimize", "--load", "1", "--eps", "inf", "--out", str(trace), "--field-out", str(field)])
    assert not trace.exists() and not field.exists()
