"""The package imports no scipy module at all, and a key-rate point loads
none of numpy's lazily imported `polynomial`, `random`, `ma` or `fft`.

`scipy.special` and `scipy.linalg` alone cost about 0.3 s and 29 MiB on a
fresh import, more than the package and numpy together, for a handful of
functions: log-gamma and erfc (in `dmrate.fock`) and dense solves
(numpy's).  scipy is a test-only dependency; the tests keep it as an
oracle.  numpy loads `numpy.polynomial` lazily, on
first use, and it costs about 0.7 MiB of resident memory for one function,
Gauss-Legendre nodes, which `dmrate.fock.gauss_legendre` computes instead.
The package needs none of the others, and each would add to the peak
resident memory of every run: importing `numpy.random`, `numpy.ma` or
`numpy.fft` after numpy adds +6.1, +1.2 and +0.26 MiB (numpy 2.4, x86-64
Linux).  A random start or a masked array would bring them in unnoticed.
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
{run}
lazy = ("numpy.polynomial", "numpy.random", "numpy.ma", "numpy.fft")
loaded = (name for name in sys.modules if name.split(".")[0] == "scipy" or ".".join(name.split(".")[:2]) in lazy)
print(json.dumps(sorted(loaded)))
"""

_POINT = """
import dmrate
ch = dmrate.ChannelModel.from_distance(10.0, 0.01)
dmrate.evaluate_point(ch, dmrate.DetectorModel.simple(0.719, 0.01), dmrate.ProtocolParams(alpha=0.75, cutoff=4))
"""


def _loaded(run: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = _PROBE.format(run=run)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", ["dmrate", "dmrate.pipeline"])
def test_import_loads_no_scipy(module):
    loaded = _loaded(f"import {module}")
    assert loaded == [], f"import {module} loads {loaded}"


def test_key_rate_point_loads_no_polynomial_or_scipy():
    loaded = _loaded(_POINT)
    assert loaded == [], f"a cutoff-4 key-rate point loads {loaded}"
