"""Span tracer for the benchmark's traced pass.

The tracer wraps the public functions and methods of ``nlgriffith`` from
outside the library.  A function is replaced at every module attribute
that binds it, because the modules import each other's functions by
name; a method is replaced once on its class.  Each call records one
span (name, layer, start, end, parent).  Spans stay in memory until the
pass ends, and ``uninstall`` puts every original back.

A layer is the module that defines the wrapped callable.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("quad", "domain", "energy", "slicing", "limits", "minimize", "harness", "cli")

# Wrapped callables per layer; "Class.method" names a method of a class
# defined in that module.
TARGETS = {
    "quad": ("build_direction_rule", "build_sphere_rule"),
    "domain": (
        "Grid.__init__",
        "Grid.interp_weights",
        "BoxDomain.contains",
        "Ball.contains",
        "SampledField.eval_many",
        "eval_nudged",
        "sample",
        "load_problem",
    ),
    "energy": (
        "averaged_energy",
        "directional_energy",
        "family_energy",
        "ball_supremum_energy",
        "ball_candidates",
    ),
    "slicing": (
        "section",
        "directional_slice_measure",
        "averaged_jump_measure",
        "ball_sup_slice_measure",
        "nonlocal_energy_1d",
        "mumford_shah_1d",
        "endpoint_lower_bound",
    ),
    "limits": (
        "griffith_energy",
        "bulk_density",
        "surface_constant",
        "closed_form_bulk_p1",
        "closed_form_surface_p1",
        "plane_area_in_box",
    ),
    "minimize": (
        "minimize_dirichlet",
        "dirichlet_candidates",
        "DirichletProblem.bar",
        "DescentKernel.__init__",
        "DescentKernel.energy",
        "DescentKernel.energy_and_grad",
    ),
    "harness": (
        "run_sweep",
        "audit_inequalities",
        "griffith_target",
        "richardson",
        "random_field",
        "random_section",
        "write_csv",
    ),
    "cli": ("main",),
}

# Calls whose arguments are kept, to count interacting pairs afterwards.
GEOMETRY_CALLS = (
    "averaged_energy",
    "directional_energy",
    "family_energy",
    "DescentKernel.__init__",
)


def _points(args, kwargs, result):
    return int(result.shape[0])


def _info_grid(args, kwargs, result):
    return args[0].n_cells


def _info_interp(args, kwargs, result):
    return int(result[0].shape[0])


def _info_len(args, kwargs, result):
    return len(result)


def _info_self(args, kwargs, result):
    return args[0]


def _info_csv(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# What a span records beyond its timing: points, cells, candidates, bytes,
# or the kernel an evaluation ran on.
INFO = {
    "Grid.__init__": _info_grid,
    "Grid.interp_weights": _info_interp,
    "BoxDomain.contains": _points,
    "Ball.contains": _points,
    "eval_nudged": _points,
    "dirichlet_candidates": _info_len,
    "DescentKernel.energy_and_grad": _info_self,
    "write_csv": _info_csv,
}


class Tracer:
    """Records spans while installed; ``spans[i]`` is
    ``[name, layer, start, end, parent, info]`` with ``parent = -1`` at
    the top."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple[str, dict]] = []
        self.nudges = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, layer: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, name, layer)

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, 0.0, 0.0, parent, None])
        self._stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        info = INFO.get(name)
        signature = inspect.signature(fn) if name in GEOMETRY_CALLS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if info is not None:
                tracer.spans[idx][5] = info(args, kwargs, result)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.calls.append((name, dict(bound.arguments)))
            return result

        return wrapper

    def _count_nudges(self, fn, error_type):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except error_type:
                tracer.nudges += 1
                raise

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap every target at every binding in the library's modules and
        in ``callers``, the benchmark modules that import from it."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "nlgriffith" or key.startswith("nlgriffith."))
        ] + list(callers)
        for layer, names in TARGETS.items():
            home = sys.modules[f"nlgriffith.{layer}"]
            for name in names:
                owner_name, _, method = name.rpartition(".")
                if owner_name:
                    self._patch_method(getattr(home, owner_name), method, name, layer)
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(original, name, layer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        domain = sys.modules["nlgriffith.domain"]
        self._set(
            domain.PlaneJump,
            "eval_many",
            self._count_nudges(domain.PlaneJump.eval_many, domain.HyperplaneEvalError),
        )

    def _patch_method(self, cls, method: str, name: str, layer: str) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            self._set(cls, method, classmethod(self._wrap(raw.__func__, name, layer)))
        else:
            self._set(cls, method, self._wrap(raw, name, layer))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def outermost(self, names) -> list[int]:
        """Spans named in ``names`` with no ancestor also named there."""
        names = set(names)
        out = []
        for idx, span in enumerate(self.spans):
            if span[0] not in names:
                continue
            parent = span[4]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][4]
            if parent < 0:
                out.append(idx)
        return out

    def inclusive_s(self, *names: str) -> float:
        """Time covered by calls to ``names``, nested calls counted once."""
        return float(sum(self.spans[i][3] - self.spans[i][2] for i in self.outermost(names)))

    def count(self, *names: str) -> int:
        names = set(names)
        return sum(1 for s in self.spans if s[0] in names)

    def info_sum(self, *names: str) -> int:
        names = set(names)
        return sum(s[5] for s in self.spans if s[0] in names and s[5] is not None)

    def self_s(self, name: str) -> float:
        own = self.self_times()
        return float(sum(t for s, t in zip(self.spans, own) if s[0] == name))

    def layer_self_s(self) -> dict[str, float]:
        own = self.self_times()
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for span, t in zip(self.spans, own):
            out[span[1]] += t
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, layer, start, end, parent, info) in enumerate(self.spans):
                record = {
                    "id": idx,
                    "name": name,
                    "layer": layer,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                }
                if isinstance(info, int):
                    record["info"] = info
                fh.write(json.dumps(record) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.idx = self.tracer._open(self.name, self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
