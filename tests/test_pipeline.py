import dataclasses

import numpy as np
import pytest

from dmrate.channel import ProtocolParams
from dmrate.detector import DetectorModel
from dmrate.pipeline import point_artifacts

ARTIFACT_INPUTS = (
    (DetectorModel.simple(0.719, 0.01), 0.0, "trusted"),
    (DetectorModel.simple(0.719, 0.01), 0.5, "untrusted"),
    (DetectorModel(0.70, 0.74, 0.01, 0.02), 0.5, "trusted"),
)


@pytest.mark.parametrize("det, delta_a, mode", ARTIFACT_INPUTS)
def test_cached_artifacts_are_read_only(det, delta_a, mode):
    # The artifact cache hands the same objects to every caller, so no
    # caller may change them.
    obs, maps = point_artifacts(det, ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=4), mode)
    arrays = [obs.fq, obs.fp, obs.sq, obs.sp, *obs.regions, *maps.regions]
    arrays += [maps.columns, maps.kraus_factor[0], maps.pinch_factors[0, 0]]
    for m in arrays:
        with pytest.raises(ValueError):
            m[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        maps.kraus_factor = np.eye(maps.dim_ab)


def test_unknown_mode_rejected():
    pp = ProtocolParams(alpha=0.75, cutoff=4)
    with pytest.raises(ValueError, match="mode must be 'trusted' or 'untrusted'"):
        point_artifacts(DetectorModel.simple(0.719, 0.01), pp, "Trusted")
