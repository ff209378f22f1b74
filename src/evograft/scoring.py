"""Multi-factor model score: quality discounted by size and compute penalties.

score = q * s^(accounted/P) * s^(flops/F), with s in (0, 1]. At s = 1 both
penalty factors collapse to 1 and ranking reduces to quality. With s = 0.99 a
model accounted for P parameters (or needing F flops) loses 1% of its quality
metric, so P and F set the cost scale at which penalties bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass
class ScoreParams:
    s: float = 1.0
    P: float = 1.0
    F: float = 1.0
    compute_factor_enabled: bool = True

    def __post_init__(self):
        # floats, so an integer override is written and read back as the same value
        self.s, self.P, self.F = float(self.s), float(self.P), float(self.F)
        self.validate()

    def validate(self) -> None:
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"scale factor s must be in (0, 1], got {self.s}")
        if not (math.isfinite(self.P) and self.P > 0):
            raise ValueError(f"parameter scale P must be finite and positive, got {self.P}")
        if not (math.isfinite(self.F) and self.F > 0):
            raise ValueError(f"flops scale F must be finite and positive, got {self.F}")


def score(q: float, accounted: float, flops: float, sp: ScoreParams) -> float:
    value = q * sp.s ** (accounted / sp.P)
    if sp.compute_factor_enabled:
        value *= sp.s ** (flops / sp.F)
    return value


def score_model(system, model, q: float | None = None) -> float:
    """Score a committed model with current sharing counts."""
    if q is None:
        q = model.quality
    if q is None:
        raise ValueError(f"model {model.id} has no recorded quality")
    return score(q, system.accounted_params(model), system.inference_flops(model),
                 system.score_params)


def mean_costs(system) -> tuple[float, float]:
    """Mean accounted parameters and mean inference flops over all models."""
    models = list(system.models.values())
    return (sum(system.accounted_params(m) for m in models) / len(models),
            sum(system.inference_flops(m) for m in models) / len(models))


def calibrate(system, multiplier: float) -> ScoreParams:
    """Scale P and F to ``multiplier`` times the current system-wide means.

    The scale factor and the compute switch are carried over unchanged.
    """
    if not system.models:
        raise ValueError("cannot calibrate score parameters on an empty system")
    mean_params, mean_flops = mean_costs(system)
    return replace(system.score_params, P=multiplier * mean_params,
                   F=multiplier * mean_flops)
