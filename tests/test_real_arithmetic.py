"""Every key-rate point runs in real arithmetic from its operators to its
certificate: identical arms, trusted or untrusted (the ideal detector), and
distinct arms, whose regions are a polar quadrature of the POVM.

The region operators and the first-moment observable F_P are complex, but
the POVM kernel forms its Gram matrix from the real and imaginary parts of
its table in real products, and every artifact and constraint row the solver
reads is built entrywise in the real block basis of `dmrate.maps`, so no
complex array reaches numpy's dense linear algebra.  A complex call there
would page in OpenBLAS's complex kernels (zheevd, zgemm), about 1 MiB of
resident memory per process.  The guard wraps the `numpy.linalg`
factorizations and the numpy products that would receive such an array.
Python cannot intercept ``@``; the benchmark's peak RSS covers it.
"""

import numpy as np
import pytest

from dmrate import pipeline, solver
from dmrate.channel import ChannelModel, ProtocolParams, simulate_statistics
from dmrate.constraints import build_constraints
from dmrate.detector import DetectorModel
from dmrate.pipeline import evaluate_point, point_artifacts

DET = DetectorModel.simple(0.719, 0.01)
DISTINCT = DetectorModel(0.70, 0.74, 0.01, 0.02)
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


@pytest.fixture
def guard(monkeypatch):
    # The artifacts are built inside the guard, not taken from the cache.
    pipeline._cached_artifacts.cache_clear()
    for module, names in GUARDED:
        for name in names:
            monkeypatch.setattr(module, name, _real_only(name, getattr(module, name)))
    with pytest.raises(AssertionError, match="complex input"):
        np.linalg.eigh(np.eye(2, dtype=complex))


def _assert_real_problem(problem):
    for arr in (problem.maps.kraus_factor, problem.maps.pinch_factors, problem.ops):
        assert arr.dtype == np.float64


@pytest.mark.parametrize("mode", ["trusted", "untrusted"])
@pytest.mark.parametrize("delta_a", [0.0, 0.5])
def test_identical_arm_point_is_real(mode, delta_a, guard):
    pp = ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=4)
    ch = ChannelModel.from_distance(10.0, 0.01)
    res = evaluate_point(ch, DET, pp, mode)
    assert res.certified
    _assert_real_problem(point_artifacts(DET, pp, mode)[1])


@pytest.mark.parametrize("delta_a", [0.0, 0.5])
def test_distinct_arm_bound_is_real(delta_a, guard):
    # The error-correction cost needs identical arms, so distinct arms take
    # the bound alone, as the benchmark's distinct-arm workload does.
    pp = ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=4)
    ch = ChannelModel.from_distance(10.0, 0.01)
    obs, problem = point_artifacts(DISTINCT, pp, "trusted")
    values = build_constraints(simulate_statistics(ch, DISTINCT, pp), obs, pp, "trusted")
    res = solver.solve(values, problem)
    assert res.certified and res.lower_bound > 0
    _assert_real_problem(problem)
