"""The four benchmark workloads.

Each workload builds its inputs from the seed (``setup``), runs one task
through the public API of ``nlgriffith`` (``task``), and checks the
task's output (``check``, which returns the list of failed criteria).
Seed 0 is the acceptance configuration of each workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from nlgriffith import (
    BallStrategy,
    BoxDomain,
    DirichletProblem,
    Grid,
    MinimizeOptions,
    ball_candidates,
    ball_supremum_energy,
    band_opening,
    build_direction_rule,
    build_sphere_rule,
    load_problem,
    minimize_dirichlet,
    sample,
)
from nlgriffith import cli, harness

HALF_PI = np.pi / 2.0

# c03's field: affine part plus an opening jump of amplitude 10 across x = 1/2
C03_MATRIX = [[1.0, 0.25], [0.25, 0.5]]
SWEEP_EPS = [0.08, 0.04, 0.02]
# pairs per eps level on the unit square at h = eps/6 with 576 kept nodes
SWEEP_PAIRS = [2_341_808, 11_077_208, 47_988_008]
SWEEP_KEPT = 576
AUDIT_ROWS = 104


def _unit(angle: float) -> list[float]:
    return [float(np.cos(angle)), float(np.sin(angle))]


def _symmetric(rng: np.random.Generator) -> list[list[float]]:
    """Symmetric 2x2 matrix with entries in [-1, 1]."""
    a, b, c = rng.uniform(-1.0, 1.0, size=3)
    return [[float(a), float(b)], [float(b), float(c)]]


def _plane(normal: list[float], offset: float, amplitude: float) -> dict:
    """Opening jump: the jump vector is ``amplitude * normal``."""
    return {
        "kind": "plane_jump",
        "normal": normal,
        "offset": offset,
        "value_minus": [0.0, 0.0],
        "value_plus": [amplitude * normal[0], amplitude * normal[1]],
    }


def _unit_square_doc(matrix, planes: list[dict]) -> dict:
    return {
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "field": {
            "kind": "sum",
            "parts": [{"kind": "affine", "matrix": matrix, "offset": [0.0, 0.0]}] + planes,
        },
    }


def _chord_in_unit_square(normal, offset: float) -> float:
    """Length of the line ``x . normal = offset`` inside (0, 1)^2."""
    normal = np.asarray(normal, dtype=float)
    base = offset * normal
    tangent = np.array([-normal[1], normal[0]])
    t_lo, t_hi = -np.inf, np.inf
    for d in range(2):
        if tangent[d] == 0.0:
            if not 0.0 < base[d] < 1.0:
                return 0.0
            continue
        a, b = (0.0 - base[d]) / tangent[d], (1.0 - base[d]) / tangent[d]
        t_lo, t_hi = max(t_lo, min(a, b)), min(t_hi, max(a, b))
    return max(0.0, t_hi - t_lo)


def griffith_target_2d(matrix, planes: list[dict]) -> float:
    """Closed-form Griffith limit on the unit square at p = 1:
    ``(pi/2)(|sym A|^2 + tr(A)^2/2) + (pi^(3/2)/2) * jump length``."""
    A = np.asarray(matrix, dtype=float)
    S = 0.5 * (A + A.T)
    bulk = 0.5 * np.pi * (float(np.sum(S * S)) + 0.5 * float(np.trace(A)) ** 2)
    length = sum(_chord_in_unit_square(p["normal"], p["offset"]) for p in planes)
    return bulk + 0.5 * np.pi**1.5 * length


@dataclass
class Run:
    """Inputs of one workload run, built by ``setup``."""

    seed: int
    out_dir: str
    params: dict


class Workload:
    name = ""
    # a workload that writes CSV runs 2 tasks, to compare their files
    min_tasks = 1

    def setup(self, seed: int, out_dir: str) -> Run:
        raise NotImplementedError

    def task(self, run: Run):
        raise NotImplementedError

    def csv_path(self, run: Run) -> str | None:
        """The CSV file a task writes; it must repeat bit for bit."""
        return None

    def check(self, run: Run, output, csv_bytes: bytes | None) -> list[str]:
        raise NotImplementedError

    def facts(self, run: Run, output) -> dict:
        """Per-layer numbers read off the task's own output."""
        return {}

    def check_counts(self, kept: list[int], pairs: list[int]) -> list[str]:
        """Check the traced pass's geometry counts, one entry per energy call."""
        return []


class Sweep2D(Workload):
    """c03/c12: eps sweep of the averaged energy toward the Griffith limit."""

    name = "sweep-2d"
    min_tasks = 2

    def setup(self, seed, out_dir):
        if seed == 0:
            matrix, normal, offset = C03_MATRIX, [1.0, 0.0], 0.5
        else:
            rng = np.random.default_rng(seed)
            matrix = _symmetric(rng)
            offset = float(rng.uniform(0.3, 0.7))
            normal = _unit(float(rng.uniform(-np.pi / 6, np.pi / 6)))
        planes = [_plane(normal, offset, 10.0)]
        spec = harness.SweepSpec(
            field_config=_unit_square_doc(matrix, planes),
            eps_list=SWEEP_EPS,
            h_over=6,
            out_path=os.path.join(out_dir, "sweep.csv"),
        )
        return Run(seed, out_dir, {"spec": spec, "target": griffith_target_2d(matrix, planes)})

    def task(self, run):
        return harness.run_sweep(run.params["spec"])

    def csv_path(self, run):
        return run.params["spec"].out_path

    def check(self, run, result, csv_bytes):
        failures = []
        target = run.params["target"]
        rel = abs(result.extrapolated - target) / target
        if not rel <= 0.05:
            failures.append(f"extrapolated {result.extrapolated!r} vs target {target!r} ({rel:.2%} > 5%)")
        return failures

    def check_counts(self, kept, pairs):
        # the geometry is the same for every seed
        if kept != [SWEEP_KEPT] * len(SWEEP_EPS) or pairs != SWEEP_PAIRS:
            return [f"sweep counts: kept nodes {kept}, pairs {pairs}; expected {SWEEP_KEPT} and {SWEEP_PAIRS}"]
        return []


class BarFracture(Workload):
    """c10: Dirichlet descent of the stretched bar on its cracked branch."""

    name = "bar-fracture"

    def setup(self, seed, out_dir):
        load = 2.0 if seed == 0 else float(np.random.default_rng(seed).uniform(1.3, 2.0))
        eps, h = 0.02, 0.0025
        return Run(
            seed,
            out_dir,
            {
                "load": load,
                "rule": build_direction_rule(1, radial_order=6),
                "problem": DirichletProblem.bar(load, eps, h),
                "options": MinimizeOptions(max_iter=600, gtol=1e-7),
            },
        )

    def task(self, run):
        p = run.params
        return minimize_dirichlet(p["problem"], p["options"], rule=p["rule"])

    def check(self, run, trace, csv_bytes):
        prob = run.params["problem"]
        failures = []
        energy = trace.iterates[-1]
        rel = abs(energy - HALF_PI) / HALF_PI
        if not rel <= 0.10:
            failures.append(f"energy {energy!r} vs pi/2 ({rel:.2%} > 10%)")
        profile = band_opening(trace.final, prob.eps)
        opening = float(profile.max())
        if not opening >= 1.0:
            failures.append(f"no crack opened (opening {opening!r})")
        hot = np.nonzero(profile > 0.5 * opening)[0]
        if hot.size and hot[-1] - hot[0] > 3 * int(round(prob.eps / prob.grid.h)):
            failures.append(f"crack not localized ({hot[-1] - hot[0]} cells)")
        if np.any(np.diff(trace.iterates) > 0.0):
            failures.append("energy trace increases")
        return failures

    def facts(self, run, trace):
        steps = np.asarray(trace.step_sizes)
        return {
            "iterations": len(trace.iterates),
            "accepted": int(np.sum(steps > 0.0)),
            "descents": int(np.sum(steps == 0.0)),
            "restarts": int(trace.restarted),
            "final_grad_norm": float(trace.grad_norms[-1]),
            "converged": int(trace.converged),
            "stop_reason": trace.stop_reason,
        }


class Audit(Workload):
    """c06: the four standing inequalities on seeded random fields."""

    name = "audit"
    min_tasks = 2

    def setup(self, seed, out_dir):
        return Run(seed, out_dir, {"out_path": os.path.join(out_dir, "audit.csv")})

    def task(self, run):
        return harness.audit_inequalities(run.seed, n_fields=10, out_path=run.params["out_path"])

    def csv_path(self, run):
        return run.params["out_path"]

    def check(self, run, report, csv_bytes):
        failures = []
        if len(report.checks) != AUDIT_ROWS:
            failures.append(f"{len(report.checks)} audit rows, expected {AUDIT_ROWS}")
        bad = [c for c in report.checks if not np.isfinite(c.margin)]
        if bad:
            failures.append(f"{len(bad)} non-finite margins")
        if csv_bytes.count(b"\n") != AUDIT_ROWS + 1:
            failures.append("audit CSV row count differs from the report")
        return failures

    def facts(self, run, report):
        failed = [c for c in report.checks if not c.passed]
        return {
            "audit_checks": len(report.checks),
            "audit_failed": len(failed),
            "audit_failures": [f"{c.name} {c.field_id} ({c.params}): {c.margin!r}" for c in failed],
        }


class Balls2D(Workload):
    """Ball-family energy on a sampled field, then the p1-explore CLI."""

    name = "balls-2d"
    min_tasks = 2
    eps = 0.04
    resolution = 0.01
    angular = 16

    def setup(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        matrix = _symmetric(rng)
        planes = [
            _plane(_unit(float(rng.uniform(-np.pi / 6, np.pi / 6))), float(rng.uniform(0.3, 0.7)), 10.0),
            _plane(
                _unit(np.pi / 2 + float(rng.uniform(-np.pi / 6, np.pi / 6))),
                float(rng.uniform(0.3, 0.7)),
                float(rng.uniform(0.3, 0.9)),
            ),
        ]
        doc = _unit_square_doc(matrix, planes)
        field_path = os.path.join(out_dir, "balls-field.json")
        with open(field_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        domain = BoxDomain(np.zeros(2), np.ones(2))
        grid = Grid(domain, self.eps / 6.0)
        _, field_, _ = load_problem(doc)
        return Run(
            seed,
            out_dir,
            {
                "planes": planes,
                "domain": domain,
                "grid": grid,
                "sampled": sample(field_, grid),
                "rule": build_direction_rule(2),
                "field_path": field_path,
                "csv_path": os.path.join(out_dir, "p1-explore.csv"),
            },
        )

    def task(self, run):
        p = run.params
        report = ball_supremum_energy(
            p["sampled"], p["domain"], self.eps, 2.0, BallStrategy.parse("dyadic:1"), p["rule"], grid=p["grid"]
        )
        argv = [
            "p1-explore",
            "--field", p["field_path"],
            "--strategy", "dyadic:2",
            "--angular", str(self.angular),
            "--resolution", str(self.resolution),
            "--out", p["csv_path"],
        ]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return report, code

    def csv_path(self, run):
        return run.params["csv_path"]

    def i_u1_oracle(self, run) -> tuple[np.ndarray, np.ndarray]:
        """Exact sphere-averaged jump mass per ball of the finest family
        (Cauchy-Crofton), and the lattice allowance per ball.

        A plane with normal nu and jump J crossing a ball along a chord of
        length c contributes ``w * |nu . xi| * c * min(|J . xi|, 1)`` for
        each sphere node ``(xi, w)``.  The transverse lattice counts the
        lines crossing the chord to within one line, so each node and
        plane may be off by one lattice cell of jump mass.
        """
        family = ball_candidates(run.params["domain"], BallStrategy.parse("dyadic:2"))[-1]
        nodes, weights = build_sphere_rule(2, self.angular)
        oracle = np.zeros(len(family.balls))
        allowance = np.zeros(len(family.balls))
        for bi, ball in enumerate(family.balls):
            cell = 2 * ball.radius / np.ceil(2 * ball.radius / self.resolution)
            for plane in run.params["planes"]:
                nu = np.asarray(plane["normal"])
                jump = np.asarray(plane["value_plus"]) - np.asarray(plane["value_minus"])
                dist = abs(float(ball.center @ nu) - plane["offset"])
                if dist >= ball.radius:
                    continue
                chord = 2.0 * np.sqrt(ball.radius**2 - dist**2)
                mass = weights * np.minimum(np.abs(nodes @ jump), 1.0)
                oracle[bi] += float(np.sum(mass * np.abs(nodes @ nu) * chord))
                allowance[bi] += float(np.sum(mass * cell))
        return oracle, allowance

    def check(self, run, output, csv_bytes):
        report, code = output
        failures = []
        if code != 0:
            failures.append(f"p1-explore exited with {code}")
        per_ball = 0.0
        for value in report.per_ball.values():
            per_ball += value
        if not abs(report.total - per_ball) <= 1e-12 * abs(report.total):
            failures.append(f"total {report.total!r} != sum of per_ball {per_ball!r}")
        if "i_u1" not in run.params:
            run.params["i_u1"] = self.i_u1_oracle(run)
        oracle, allowance = run.params["i_u1"]
        i_u1 = _i_u1_per_ball(csv_bytes, len(oracle))
        off = np.nonzero(~(np.abs(i_u1 - oracle) <= allowance + 1e-12))[0]
        for bi in off:
            failures.append(f"ball {bi}: i_u1 {i_u1[bi]!r} vs exact {oracle[bi]!r}")
        return failures


def _i_u1_per_ball(csv_bytes: bytes, n_balls: int) -> np.ndarray:
    lines = csv_bytes.decode("utf-8").splitlines()
    header = lines[0].split(",")
    col_ball, col_i = header.index("ball_index"), header.index("i_u1")
    out = np.full(n_balls, np.nan)
    for line in lines[1:]:
        cells = line.split(",")
        out[int(cells[col_ball])] = float(cells[col_i])
    return out


WORKLOADS = {w.name: w for w in (Sweep2D(), BarFracture(), Audit(), Balls2D())}
