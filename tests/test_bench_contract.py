"""The benchmark's contract with the library.

``bench/tracing.py`` wraps every callable named in ``TARGETS`` and binds
the arguments of the ``GEOMETRY_CALLS`` entries; ``bench/geometry.py``
and ``bench/run.py`` then read those arguments by name to count
interacting pairs.  Without these tests a renamed callable or parameter
only shows up when a traced benchmark run fails.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# parameters the pair counting reads from each recorded call
READ = {
    "directional_energy": {"u", "region", "eps", "xi", "grid"},
    "averaged_energy": {"u", "region", "eps", "rule", "grid", "support"},
    "family_energy": {"u", "domain", "family", "eps", "rule", "grid", "per_ball_support"},
    "DescentKernel.__init__": {"grid", "region", "eps", "rule"},
}

LAYER_OF = {name: layer for layer, names in tracing.TARGETS.items() for name in names}


def _resolve(name: str):
    """The callable the tracer wraps, looked up the way it looks it up."""
    module = importlib.import_module(f"nlgriffith.{LAYER_OF[name]}")
    owner, _, method = name.rpartition(".")
    if owner:
        return vars(getattr(module, owner))[method]
    return getattr(module, name)


@pytest.mark.parametrize("name", sorted(LAYER_OF))
def test_traced_name_resolves(name):
    target = _resolve(name)
    assert callable(getattr(target, "__func__", target))


@pytest.mark.parametrize("name", tracing.GEOMETRY_CALLS)
def test_geometry_call_keeps_read_parameters(name):
    assert name in READ, f"{name} is recorded but this test does not list what is read from it"
    params = set(inspect.signature(_resolve(name)).parameters)
    assert READ[name] <= params, f"{name} lost {sorted(READ[name] - params)}"
