"""The package loads only the scipy subpackages it uses.

Importing `scipy.integrate` alone pulls in `scipy.optimize`, `scipy.sparse`,
`scipy.spatial` and `scipy.fft`, and roughly doubles the import time of
`dmrate.pipeline`, which every key-rate computation pays first.  Adaptive
quadrature belongs to the test oracles, not to the package.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import scipy

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {"linalg", "special"}

_PROBE = """
import json, sys
import dmrate.pipeline
print(json.dumps(sorted({name.split(".")[1] for name in sys.modules if name.startswith("scipy.")})))
"""


def test_pipeline_imports_only_linalg_and_special():
    public = {info.name for info in pkgutil.iter_modules(scipy.__path__) if info.ispkg and not info.name.startswith("_")}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout)) & public
    assert loaded <= ALLOWED, f"dmrate.pipeline loads scipy.{sorted(loaded - ALLOWED)}"
