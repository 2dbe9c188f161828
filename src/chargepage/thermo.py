"""Local thermodynamics of the one-body charge distribution.

Everything here is a property of the one-body spectrum: the Gibbs
distribution over local weights, the inverse temperature beta*(s) that fixes
the mean charge to s, the local entropy eta(s), its derivatives, the heat
capacity c*(s), and the group prefactor alpha0(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import ChargeModel, GroupKind, weight_multiplicities

#: half-width excluded at each end of the density interval; beta* diverges there
BOUNDARY_EPS = 1e-9

_BISECT_WIDTH = 1e-13


class DensityDomainError(ValueError):
    pass


class DegenerateModelError(ValueError):
    pass


@dataclass(frozen=True)
class ChargeDistribution:
    """Gibbs distribution over local weights, keyed by doubled weight, and log Z(beta)."""

    probs: dict[int, float]
    log_z: float

    def mean(self) -> float:
        return math.fsum(0.5 * m2 * p for m2, p in self.probs.items())

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum(p * (0.5 * m2 - mu) ** 2 for m2, p in self.probs.items())


@dataclass(frozen=True)
class ThermoPoint:
    """Local thermodynamic data at one charge density s."""

    beta_star: float
    eta: float
    eta_pp: float
    c_star: float
    alpha0: float


def gibbs(model: ChargeModel, beta: float) -> ChargeDistribution:
    """Max-entropy distribution p(m) ~ a_m exp(-beta m) over local weights.

    Overflow-safe for any finite beta: the weights are rescaled by the largest
    exponent, the shift, and log Z is the shift plus the log of their sum.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta = {beta} must be finite")
    weights = weight_multiplicities(model)
    shift = max(-beta * 0.5 * m2 for m2 in weights)
    raw = {m2: a * math.exp(-beta * 0.5 * m2 - shift) for m2, a in weights.items()}
    z = math.fsum(raw.values())
    return ChargeDistribution({m2: r / z for m2, r in raw.items()}, shift + math.log(z))


def density_interval(model: ChargeModel) -> tuple[float, float]:
    """Open interval of charge densities reachable at finite temperature."""
    weights = sorted(weight_multiplicities(model))
    return 0.5 * weights[0], 0.5 * weights[-1]


def infinite_temperature_density(model: ChargeModel) -> float:
    """Mean charge at beta = 0, where eta'(s) vanishes and ``solve_beta_star`` is 0.0."""
    return gibbs(model, 0.0).mean()


def _check_density(model: ChargeModel, s: float) -> None:
    """Reject a density with no finite beta* (every one if all weights coincide)."""
    lo, hi = density_interval(model)
    if lo == hi:
        raise DegenerateModelError(
            "weight support is a single point; mean charge cannot be tuned"
        )
    if not (lo + BOUNDARY_EPS <= s <= hi - BOUNDARY_EPS):
        raise DensityDomainError(f"s = {s} outside density interval "
                                 f"[{lo + BOUNDARY_EPS}, {hi - BOUNDARY_EPS}]; beta* diverges")


def solve_beta_star(model: ChargeModel, s: float) -> float:
    """Inverse temperature with mean local charge s.

    Bisection on the strictly decreasing mean-charge function, on a bracket
    expanded from [-1, 1] by doubling. Robust arbitrarily close to the
    boundary, where Newton iterations would overshoot. A midpoint whose mean
    is exactly s is returned as is, so beta* = 0.0 at the infinite-temperature
    density.
    """
    _check_density(model, s)

    def mean_at(beta: float) -> float:
        return gibbs(model, beta).mean()

    lo, hi = -1.0, 1.0
    while mean_at(lo) < s:
        lo *= 2.0
    while mean_at(hi) > s:
        hi *= 2.0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        mean = mean_at(mid)
        if mean == s:
            return mid
        if mean > s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def thermo_point(model: ChargeModel, s: float) -> ThermoPoint:
    """Solve for beta*(s) and assemble the local thermodynamics at s.

    eta is the Legendre form log Z(beta*) + beta* s; the tests check it
    against log k minus the relative entropy to the infinite-temperature
    distribution.
    """
    beta = solve_beta_star(model, s)
    dist = gibbs(model, beta)
    var = dist.variance()
    eta_pp = -1.0 / var  # exact identity: eta'' = -1/Var(mu) at beta*
    c_star = beta * beta * var
    alpha0 = 1.0 if model.group is GroupKind.U1 else 1.0 - math.exp(beta)
    return ThermoPoint(beta_star=beta, eta=dist.log_z + beta * s, eta_pp=eta_pp,
                       c_star=c_star, alpha0=alpha0)
