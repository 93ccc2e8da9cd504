"""The package imports no scipy module at all.

`scipy.special` and `scipy.linalg` alone cost about 0.3 s and 29 MiB on a
fresh import, more than the package and numpy together, for a handful of
functions: log-gamma, erfc, the regularized incomplete gamma pair (in
`dmrate.fock`) and dense solves (numpy's).  scipy is a test-only dependency;
the tests keep it as an oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
import {module}
print(json.dumps(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))))
"""


@pytest.mark.parametrize("module", ["dmrate", "dmrate.pipeline"])
def test_import_loads_no_scipy(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = _PROBE.format(module=module)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [], f"import {module} loads scipy"
