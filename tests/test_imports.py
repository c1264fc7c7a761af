"""The library's import footprint: no scipy until a descent kernel is built,
and public names that resolve."""

import dataclasses
import importlib
import os
import subprocess
import sys

import pytest

import nlgriffith


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(nlgriffith.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, nlgriffith, nlgriffith.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


MODULES = ("domain", "quad", "energy", "slicing", "limits", "minimize", "harness", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # a stale __all__ entry only fails a star import
    module = importlib.import_module(f"nlgriffith.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_the_package_names_only_what_its_modules_export():
    exported = {entry for name in MODULES for entry in importlib.import_module(f"nlgriffith.{name}").__all__}
    public = {entry for entry in vars(nlgriffith) if not entry.startswith("_")} - set(MODULES)
    assert public <= exported


@pytest.mark.parametrize(
    "owner, name",
    [
        (nlgriffith, "slice_measure"),
        (nlgriffith, "SliceMeasureValue"),
        (nlgriffith.slicing, "slice_measure"),
        (nlgriffith.slicing, "SliceMeasureValue"),
        (nlgriffith.AnalyticField, "eval"),
    ],
)
def test_deleted_names_stay_deleted(owner, name):
    assert not hasattr(owner, name)


def test_write_only_fields_stay_deleted():
    fields = {cls.__name__: {f.name for f in dataclasses.fields(cls)} for cls in (nlgriffith.EnergyReport, nlgriffith.GriffithValue)}
    assert fields == {
        "EnergyReport": {"total", "per_direction", "per_ball", "family"},
        "GriffithValue": {"bulk", "surface"},
    }
