"""An identical-arm key-rate point, trusted or untrusted (the ideal
detector), runs in real arithmetic from its operators to its certificate.

The region operators and the first-moment observable F_P are complex, but
every artifact and constraint row the solver reads is built entrywise in
the real block basis of `dmrate.maps`, so no complex array reaches numpy's
dense linear algebra.  A complex call there would page in OpenBLAS's complex
kernels (zheevd, zgemm), about 1 MiB of resident memory per process.  The
guard wraps the `numpy.linalg` factorizations and the numpy products that
would receive such an array.  Python cannot intercept ``@``; the
benchmark's peak RSS covers it.
"""

import numpy as np
import pytest

from dmrate import pipeline
from dmrate.channel import ChannelModel, ProtocolParams
from dmrate.detector import DetectorModel
from dmrate.pipeline import evaluate_point, point_artifacts

DET = DetectorModel.simple(0.719, 0.01)
GUARDED = (
    (np.linalg, ("eigh", "eigvalsh", "cholesky", "solve", "inv", "qr")),
    (np, ("dot", "vdot", "tensordot")),
)


def _real_only(name, func):
    def guarded(*args, **kwargs):
        if any(np.iscomplexobj(arg) for arg in (*args, *kwargs.values())):
            raise AssertionError(f"complex input to numpy {name}")
        return func(*args, **kwargs)

    return guarded


@pytest.mark.parametrize("mode", ["trusted", "untrusted"])
@pytest.mark.parametrize("delta_a", [0.0, 0.5])
def test_identical_arm_point_is_real(mode, delta_a, monkeypatch):
    pp = ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=4)
    ch = ChannelModel.from_distance(10.0, 0.01)
    # The artifacts are built inside the guard, not taken from the cache.
    pipeline._cached_artifacts.cache_clear()
    for module, names in GUARDED:
        for name in names:
            monkeypatch.setattr(module, name, _real_only(name, getattr(module, name)))
    with pytest.raises(AssertionError, match="complex input"):
        np.linalg.eigh(np.eye(2, dtype=complex))
    res = evaluate_point(ch, DET, pp, mode)
    assert res.certified

    _, problem = point_artifacts(DET, pp, mode)
    for arr in (problem.maps.kraus_factor, problem.maps.pinch_factors, problem.ops):
        assert arr.dtype == np.float64
