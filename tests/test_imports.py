"""The library's import footprint: no scipy until a descent kernel is built."""

import os
import subprocess
import sys

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
