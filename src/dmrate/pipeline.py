"""End-to-end evaluation of one protocol point: simulate, build operators,
assemble constraints, solve, and fold in the error-correction cost."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from .channel import ChannelModel, ProtocolParams, discretization_distribution, ec_cost, simulate_statistics
from .constraints import build_constraints, check_mode
from .detector import DetectorModel
from .maps import PostprocessingMaps, build_postprocessing_maps
from .observables import ObservableSet, observable_set
from .solver import KeyRateResult, key_rate

__all__ = ["evaluate_point", "cutoff_stability", "point_artifacts"]


@lru_cache(maxsize=32)
def _cached_artifacts(det: DetectorModel, delta_a: float, cutoff: int) -> tuple[ObservableSet, PostprocessingMaps]:
    obs = observable_set(det, delta_a, cutoff)
    return obs, build_postprocessing_maps(obs.regions, det.simple_case())


def point_artifacts(det: DetectorModel, pp: ProtocolParams, mode: str):
    """Observables and postprocessing maps for one grid point.  This is where
    the scenario is decided: untrusted noise reads the data as an ideal
    detector's, so it takes the ideal detector's observables and regions.
    The detector also fixes the symmetry group of the solve: the quarter
    turn for identical arms, the half turn for distinct ones."""
    check_mode(mode)
    eff_det = det if mode == "trusted" else DetectorModel.ideal()
    return _cached_artifacts(eff_det, pp.delta_a, pp.cutoff)


def evaluate_point(
    ch: ChannelModel,
    det: DetectorModel,
    pp: ProtocolParams,
    mode: str = "trusted",
) -> KeyRateResult:
    """Certified key rate of one (channel, detector, protocol) point.
    Raises InfeasibleError where the truncated problem has no start point,
    e.g. xi = 0 with trusted noise."""
    stats = simulate_statistics(ch, det, pp)
    obs, maps = point_artifacts(det, pp, mode)
    cs = build_constraints(stats, obs, pp, mode)
    dd = discretization_distribution(ch, det, pp)
    delta_ec, p_pass, _, _ = ec_cost(dd, pp.beta)
    return key_rate(cs, maps, (delta_ec, p_pass))


def cutoff_stability(
    ch: ChannelModel,
    det: DetectorModel,
    pp: ProtocolParams,
    mode: str = "trusted",
) -> tuple[KeyRateResult, KeyRateResult, float]:
    """Re-solve at the cutoff raised by 2 and report the rate shift."""
    base = evaluate_point(ch, det, pp, mode)
    bumped = evaluate_point(ch, det, replace(pp, cutoff=pp.cutoff + 2), mode)
    return base, bumped, abs(base.rate - bumped.rate)
