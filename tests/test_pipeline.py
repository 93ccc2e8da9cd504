import dataclasses

import numpy as np
import pytest

from dmrate import pipeline, solver
from dmrate.channel import ChannelModel, ProtocolParams
from dmrate.detector import DetectorModel
from dmrate.pipeline import evaluate_point, point_artifacts
from dmrate.solver import Problem

ARTIFACT_INPUTS = (
    (DetectorModel.simple(0.719, 0.01), 0.0, "trusted"),
    (DetectorModel.simple(0.719, 0.01), 0.5, "untrusted"),
    (DetectorModel(0.70, 0.74, 0.01, 0.02), 0.5, "trusted"),
)


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


def test_unknown_mode_rejected():
    pp = ProtocolParams(alpha=0.75, cutoff=4)
    with pytest.raises(ValueError, match="mode must be 'trusted' or 'untrusted'"):
        point_artifacts(DetectorModel.simple(0.719, 0.01), pp, "Trusted")
