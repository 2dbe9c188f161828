"""Thermodynamic-limit formulas for fixed-charge random states.

Asymptotic sector dimensions, the subsystem charge distribution and its
moments, the average entanglement entropy in the three subsystem-fraction
regimes (with the group prefactor alpha0 sourcing the U(1)/SU(2)
difference), and the exponentially suppressed variance.

All exponentially large quantities are handled in log domain; estimates
store coefficients of N, sqrt(N), and N^0, never an evaluated exp(N eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .models import ChargeModel, GroupKind, SystemGeometry, weight_multiplicities
from .sectors import block_table
from .thermo import ThermoPoint, thermo_point

__all__ = [
    "Regime", "EntropyEstimate", "AsymptoticTerms", "VarianceAsymptotics",
    "SubsystemChargeDistribution",
    "ExtremalChargeError", "InfiniteTemperatureVarianceError",
    "asymptotic_log_dim", "charge_density_moments", "checked_thermo_point",
    "average_entropy_asymptotic", "estimate_at_point", "variance_asymptotic",
    "entropy_term_breakdown", "breakdown_at_point", "subsystem_charge_distribution",
    "DELTA_TOLERANCE",
]

#: |beta*(s)| below this counts as sitting at the infinite-temperature
#: density s_ast, where the delta-term branch of the f = 1/2 formula applies.
DELTA_TOLERANCE = 1e-9


class ExtremalChargeError(ValueError):
    """SU(2) at zero charge density: the stationary-point formula breaks down."""


class InfiniteTemperatureVarianceError(ValueError):
    """Variance prefactor is singular at beta* = 0 (s = s_ast)."""


class Regime(Enum):
    F_BELOW_HALF = "f_below_half"
    F_HALF = "f_half"
    F_ABOVE_HALF = "f_above_half"


@dataclass(frozen=True)
class EntropyEstimate:
    """Average entanglement entropy split into N, sqrt(N) and N^0 coefficients."""

    regime: Regime
    term_N: float
    term_sqrtN: float
    term_O1: float
    includes_delta: bool

    def total(self, n: float) -> float:
        return self.term_N * n + self.term_sqrtN * math.sqrt(n) + self.term_O1


@dataclass(frozen=True)
class AsymptoticTerms:
    """One contribution to the entropy, including its (1/2) log N piece."""

    term_N: float
    term_sqrtN: float
    term_logN: float
    term_O1: float


@dataclass(frozen=True)
class VarianceAsymptotics:
    """Entropy variance ~ exp(log_coefficient) * N^(3/2) * exp(-N * rate)."""

    log_coefficient: float
    rate: float

    def log_variance(self, n: float) -> float:
        return self.log_coefficient + 1.5 * math.log(n) - n * self.rate


@dataclass(frozen=True)
class SubsystemChargeDistribution:
    """Exact finite-N distribution of the subsystem charge density t = q_A/N_A."""

    geometry: SystemGeometry
    q_total: int
    support: tuple[tuple[float, float], ...]

    def mean(self) -> float:
        return math.fsum(t * p for t, p in self.support)

    def central_moment(self, center: float, k: int) -> float:
        return math.fsum(p * (t - center) ** k for t, p in self.support)


def _as_fraction(f) -> Fraction:
    """Exact rational view of the subsystem fraction; floats convert exactly."""
    frac = Fraction(f)
    if not 0 < frac < 1:
        raise ValueError(f"subsystem fraction f = {f} must lie strictly in (0, 1)")
    return frac


def checked_thermo_point(model: ChargeModel, s: float) -> ThermoPoint:
    """``thermo_point``, refusing the SU(2) extremal density s <= 0 first."""
    if model.group is GroupKind.SU2 and s <= 0:
        raise ExtremalChargeError(
            "SU2 asymptotics need charge density s > 0; s = 0 is the extremal "
            "case where alpha0 vanishes"
        )
    return thermo_point(model, s)


def _alpha_slope_ratio(tp: ThermoPoint, group: GroupKind) -> float:
    """(alpha0' eta') / (alpha0 eta''), which vanishes for U(1)."""
    if group is GroupKind.U1:
        return 0.0
    # alpha0 = 1 - exp(beta*) gives alpha0' = -exp(beta*) eta''
    eb = math.exp(tp.beta_star)
    return -tp.beta_star * eb / (1.0 - eb)


def asymptotic_log_dim(model: ChargeModel, s: float, n: int) -> float:
    """log of the asymptotic sector dimension at charge q = n*s.

    Leading and subleading parts only; the relative error of the dimension
    itself is O(1/n). Realizable charges sit on a lattice of spacing
    ``step`` (half the gcd of the doubled-weight differences), so each
    sector holds ``step`` times the Gaussian density.
    """
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    tp = checked_thermo_point(model, s)
    weights = list(weight_multiplicities(model))
    step = math.gcd(*(w - weights[0] for w in weights)) / 2
    return (math.log(tp.alpha0 * step)
            + 0.5 * math.log(-tp.eta_pp / (2 * math.pi * n))
            + n * tp.eta)


def charge_density_moments(model: ChargeModel, f, s: float) -> dict:
    """Leading 1/N coefficients of the subsystem charge density fluctuations.

    Returns {"mean_shift", "variance"}: mean(t) = s + mean_shift/N and
    var(t) = variance/N in the thermodynamic limit.
    """
    frac = _as_fraction(f)
    tp = checked_thermo_point(model, s)
    ff = float(frac)
    v = (1.0 - ff) / ((-tp.eta_pp) * ff)
    if model.group is GroupKind.U1:
        shift = 0.0
    else:
        eb = math.exp(tp.beta_star)
        shift = (-eb * tp.eta_pp / (1.0 - eb)) * v  # (alpha0'/alpha0) * v
    return {"mean_shift": shift, "variance": v}


def entropy_term_breakdown(model: ChargeModel, f, s: float) -> dict:
    """The three contributions to the average entropy, separately expanded.

    The (1/2) log N pieces of the first two cancel in the sum; the third is
    zero except at f = 1/2 and infinite-temperature density.
    """
    frac = _as_fraction(f)
    return breakdown_at_point(checked_thermo_point(model, s), model.group, frac)


def breakdown_at_point(tp: ThermoPoint, group: GroupKind, f) -> dict:
    """``entropy_term_breakdown`` from an already solved thermodynamic point."""
    frac = _as_fraction(f)
    ff = float(frac)
    half_log = 0.5 * math.log(-tp.eta_pp / (2 * math.pi))
    log_a0 = math.log(tp.alpha0)
    slope = _alpha_slope_ratio(tp, group)
    at_inf_temp = abs(tp.beta_star) < DELTA_TOLERANCE

    y1 = AsymptoticTerms(term_N=tp.eta, term_sqrtN=0.0, term_logN=-0.5,
                         term_O1=log_a0 + half_log)
    y3_o1 = 0.0
    if frac == Fraction(1, 2):
        sqrt_term = 0.0 if at_inf_temp else -math.sqrt(tp.c_star / (2 * math.pi))
        y2 = AsymptoticTerms(
            term_N=-0.5 * tp.eta,
            term_sqrtN=sqrt_term,
            term_logN=0.5,
            term_O1=(math.log(0.5) + 0.5) / 2 - 0.5 * log_a0 - half_log,
        )
        if at_inf_temp:
            y3_o1 = -(tp.alpha0 + 1.0 / tp.alpha0) / 4.0
    elif frac < Fraction(1, 2):
        y2 = AsymptoticTerms(
            term_N=-(1 - ff) * tp.eta,
            term_sqrtN=0.0,
            term_logN=0.5,
            term_O1=(math.log(1 - ff) + ff) / 2 - (1 - ff) * slope - half_log,
        )
    else:
        y2 = AsymptoticTerms(
            term_N=-ff * tp.eta,
            term_sqrtN=0.0,
            term_logN=0.5,
            term_O1=(math.log(ff) + 1 - ff) / 2 + (1 - ff) * slope - log_a0 - half_log,
        )
    y3 = AsymptoticTerms(term_N=0.0, term_sqrtN=0.0, term_logN=0.0, term_O1=y3_o1)
    return {"y1": y1, "y2": y2, "y3": y3}


def average_entropy_asymptotic(model: ChargeModel, f, s: float) -> EntropyEstimate:
    """Average entanglement entropy of the fraction-f subsystem at density s.

    Leading order is extensive with coefficient eta(s) up to half-system
    size and mirrored beyond; at f = 1/2 exactly, a negative sqrt(N) term
    with coefficient sqrt(c*/2 pi) appears, replaced by the -1/2-type delta
    term at the infinite-temperature density. The sum of the three terms of
    ``entropy_term_breakdown``, whose (1/2) log N pieces cancel.
    """
    frac = _as_fraction(f)
    return estimate_at_point(checked_thermo_point(model, s), model.group, frac)


def estimate_at_point(tp: ThermoPoint, group: GroupKind, f) -> EntropyEstimate:
    """``average_entropy_asymptotic`` from an already solved thermodynamic point."""
    frac = _as_fraction(f)
    parts = breakdown_at_point(tp, group, frac)
    terms = parts.values()
    if frac == Fraction(1, 2):
        regime = Regime.F_HALF
    elif frac < Fraction(1, 2):
        regime = Regime.F_BELOW_HALF
    else:
        regime = Regime.F_ABOVE_HALF
    return EntropyEstimate(regime,
                           sum(t.term_N for t in terms),
                           sum(t.term_sqrtN for t in terms),
                           sum(t.term_O1 for t in terms),
                           includes_delta=parts["y3"].term_O1 != 0.0)


def variance_asymptotic(model: ChargeModel, f, s: float) -> VarianceAsymptotics:
    """Log-domain coefficient and rate of the exponentially suppressed variance."""
    frac = _as_fraction(f)
    tp = checked_thermo_point(model, s)
    if abs(tp.beta_star) < DELTA_TOLERANCE:
        raise InfiniteTemperatureVarianceError(
            f"s = {s} is the infinite-temperature density; the variance "
            "prefactor c*^(3/2)/|beta*| is singular there"
        )
    ff = float(frac)
    two_pi = 2 * math.pi
    geom = math.sqrt(two_pi) * ff * (1 - ff)
    if frac == Fraction(1, 2):
        geom -= 1.0 / math.sqrt(two_pi)
    log_coeff = (math.log(geom) + 1.5 * math.log(tp.c_star)
                 - math.log(tp.alpha0) - math.log(abs(tp.beta_star)))
    return VarianceAsymptotics(log_coefficient=log_coeff, rate=tp.eta)


def subsystem_charge_distribution(model: ChargeModel, geometry: SystemGeometry,
                                  q_total: int) -> SubsystemChargeDistribution:
    """Exact distribution of t = q_A/N_A built from big-integer block dimensions."""
    table = block_table(model, geometry.n_total, geometry.n_a, q_total)
    total = table.sector_dimension
    support = tuple(
        (qa2 / (2.0 * geometry.n_a), float(Fraction(d * b, total)))
        for qa2, d, b in table.blocks
    )
    return SubsystemChargeDistribution(geometry, q_total, support)
