"""The library's import footprint: scipy.sparse only."""

import os
import subprocess
import sys

import nlgriffith


def test_import_loads_neither_scipy_integrate_nor_special():
    src = os.path.dirname(os.path.dirname(nlgriffith.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, nlgriffith, nlgriffith.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.special'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
