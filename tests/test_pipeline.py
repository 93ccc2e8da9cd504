import dataclasses

import numpy as np
import pytest

from dmrate import pipeline, solver
from dmrate.channel import ChannelModel, ProtocolParams
from dmrate.detector import DetectorModel
from dmrate.pipeline import evaluate_point, point_artifacts
from dmrate.solver import Problem

TRUSTED, DISTINCT = DetectorModel.simple(0.719, 0.01), DetectorModel(0.70, 0.74, 0.01, 0.02)
ARTIFACT_INPUTS = ((TRUSTED, 0.0, "trusted"), (TRUSTED, 0.5, "untrusted"), (DISTINCT, 0.5, "trusted"))


@pytest.mark.parametrize("det, delta_a, mode", ARTIFACT_INPUTS)
def test_cached_artifacts_are_read_only(det, delta_a, mode):
    # The artifact cache hands the same objects to every caller, so no
    # caller may change them.
    # The problem, rows and all, is shared by every point of its key.
    obs, problem = point_artifacts(det, ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=4), mode)
    maps = problem.maps
    arrays = [obs.fq, obs.fp, obs.sq, obs.sp, *obs.regions, *maps.regions]
    arrays += [maps.columns, maps.kraus_factor[0], maps.pinch_factors[0, 0]]
    arrays += [problem.a_parts[0], problem.b_parts[0], problem.ops[0, 0], problem.coef]
    arrays += [problem.scale[None], problem.kept[None]]
    for m in arrays:
        with pytest.raises(ValueError):
            m[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        maps.kraus_factor = np.eye(maps.dim_ab)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.coef = np.eye(len(problem.kept))


def test_rows_built_once_per_artifact_key(monkeypatch):
    # A curve of three distances in each scenario builds, reduces and checks
    # the rows once per artifact key, not once per point.
    builds, reductions = [], []
    post_init, rows = Problem.__post_init__, solver.independent_rows
    monkeypatch.setattr(Problem, "__post_init__", lambda self: builds.append(self.labels) or post_init(self))
    monkeypatch.setattr(solver, "independent_rows", lambda red: reductions.append(red) or rows(red))
    pipeline._cached_artifacts.cache_clear()
    det, pp = DetectorModel.simple(0.719, 0.01), ProtocolParams(alpha=0.75, cutoff=4)
    for mode in ("trusted", "untrusted"):
        for distance in (5.0, 20.0, 50.0):
            assert evaluate_point(ChannelModel.from_distance(distance, 0.01), det, pp, mode).certified
    assert len(builds) == len(reductions) == 2


def test_artifacts_compare_and_hash_by_identity():
    # Two builds of one key are two objects: they compare unequal without
    # reading their arrays, hash, and key a dict.  The cache hands out one.
    first, second = (pipeline._cached_artifacts.__wrapped__(TRUSTED, 0.5, 4) for _ in range(2))
    for a, b in zip((*first, first[1].maps), (*second, second[1].maps)):
        assert a != b and a == a
        assert {a: 0, b: 1}[b] == 1 and hash(a) == hash(a)
    pp = ProtocolParams(alpha=0.75, delta_a=0.5, cutoff=4)
    assert point_artifacts(TRUSTED, pp, "trusted")[1] is point_artifacts(TRUSTED, pp, "trusted")[1]


# Detector and scenario of each kind of region: identical arms, the ideal
# detector, distinct arms.
RADIUS_CASES = {
    "trusted": (TRUSTED, "trusted"),
    "ideal": (DetectorModel.ideal(), "untrusted"),
    "distinct": (DISTINCT, "trusted"),
}


@pytest.mark.parametrize(
    "kind, delta_a",
    [("trusted", d) for d in (6.0, 8.0, 10.0, 12.0, 20.0, 50.0, 300.0, 1e3, 1e4)]
    + [("ideal", d) for d in (6.0, 8.0, 12.0, 15.0)]
    + [("distinct", d) for d in (10.0, 15.0)],
)
def test_unresolvable_radius_raises(kind, delta_a):
    # Past these radii the vacuum keeps at most e^{-delta_a^2/(1 + max(nu1,
    # nu2))} <= CLAMP_REL of its mass outside the disk (exactly that for
    # identical arms), which rounding loses, so the point is refused before
    # the region sums, whose lattices and polar grid grow with delta_a.
    det, mode = RADIUS_CASES[kind]
    pp = ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=6)
    with pytest.raises(ValueError, match=f"delta_a = {delta_a} .* at cutoff 6"):
        evaluate_point(ChannelModel.from_distance(20.0, 0.01), det, pp, mode)


@pytest.mark.parametrize("kind", RADIUS_CASES)
def test_radius_five_still_builds(kind):
    # The vacuum keeps e^{-25} or more outside the disk at delta_a = 5.
    det, mode = RADIUS_CASES[kind]
    pp = ProtocolParams(alpha=0.75, delta_a=5.0, cutoff=6)
    if det.simple_case():
        assert evaluate_point(ChannelModel.from_distance(20.0, 0.01), det, pp, mode).certified
    else:
        point_artifacts(det, pp, mode)  # distinct arms reach no key map


def test_unknown_mode_rejected():
    pp = ProtocolParams(alpha=0.75, cutoff=4)
    with pytest.raises(ValueError, match="mode must be 'trusted' or 'untrusted'"):
        point_artifacts(DetectorModel.simple(0.719, 0.01), pp, "Trusted")
