"""Thermodynamic-limit formulas for fixed-charge random states.

Asymptotic sector dimensions, the leading moments of the subsystem charge
density, the average entanglement entropy in the three subsystem-fraction
regimes (with the group prefactor alpha0 sourcing the U(1)/SU(2)
difference), and the exponentially suppressed variance.

The entropy is y1 + y2 + y3 with y1 = log D_q, so y1 is the log-dimension
expansion; it carries log(step), step being the charge-lattice spacing, and
y2 carries -log(step).

All exponentially large quantities are handled in log domain; estimates
store coefficients of N, sqrt(N), log N and N^0, never an evaluated exp(N eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .models import ChargeModel, GroupKind, lattice_step
from .thermo import ThermoPoint, thermo_point

__all__ = [
    "Regime", "EntropyEstimate", "AsymptoticTerms", "VarianceAsymptotics",
    "ExtremalChargeError", "InfiniteTemperatureVarianceError",
    "asymptotic_log_dim", "charge_density_moments", "checked_thermo_point",
    "average_entropy_asymptotic", "estimates_at_point", "variance_asymptotic",
    "DELTA_TOLERANCE",
]

#: |beta*(s)| below this counts as sitting at the infinite-temperature
#: density s_ast, where the delta-term branch of the f = 1/2 formula applies.
DELTA_TOLERANCE = 1e-9


class ExtremalChargeError(ValueError):
    """SU(2) at or near zero charge density: the stationary-point formula breaks down."""


class InfiniteTemperatureVarianceError(ValueError):
    """Variance prefactor is singular at beta* = 0 (s = s_ast)."""


class Regime(Enum):
    F_BELOW_HALF = "f_below_half"
    F_HALF = "f_half"
    F_ABOVE_HALF = "f_above_half"


@dataclass(frozen=True)
class AsymptoticTerms:
    """One contribution to the entropy, including its (1/2) log N piece."""

    term_N: float
    term_sqrtN: float
    term_logN: float
    term_O1: float


@dataclass(frozen=True)
class EntropyEstimate:
    """Average entanglement entropy y1 + y2 + y3, each expanded in N.

    The (1/2) log N pieces of y1 and y2 cancel in the sum, and so do their
    log(step) pieces; y3 is zero except at f = 1/2 and infinite-temperature
    density.
    """

    regime: Regime
    y1: AsymptoticTerms
    y2: AsymptoticTerms
    y3: AsymptoticTerms

    @property
    def term_N(self) -> float:
        return self.y1.term_N + self.y2.term_N + self.y3.term_N

    @property
    def term_sqrtN(self) -> float:
        return self.y1.term_sqrtN + self.y2.term_sqrtN + self.y3.term_sqrtN

    @property
    def term_O1(self) -> float:
        return self.y1.term_O1 + self.y2.term_O1 + self.y3.term_O1

    @property
    def includes_delta(self) -> bool:
        return self.y3.term_O1 != 0.0

    def total(self, n: float) -> float:
        return self.term_N * n + self.term_sqrtN * math.sqrt(n) + self.term_O1


@dataclass(frozen=True)
class VarianceAsymptotics:
    """Entropy variance ~ exp(log_coefficient) * N^(3/2) * exp(-N * rate)."""

    log_coefficient: float
    rate: float

    def log_variance(self, n: float) -> float:
        return self.log_coefficient + 1.5 * math.log(n) - n * self.rate


def _as_fraction(f) -> Fraction:
    """Exact rational view of the subsystem fraction; floats convert exactly."""
    frac = Fraction(f)
    if not 0 < frac < 1:
        raise ValueError(f"subsystem fraction f = {f} must lie strictly in (0, 1)")
    return frac


_HALF = Fraction(1, 2)


def _regime(frac: Fraction) -> Regime:
    """Which side of the half cut f lies on, compared exactly."""
    if frac == _HALF:
        return Regime.F_HALF
    return Regime.F_BELOW_HALF if frac < _HALF else Regime.F_ABOVE_HALF


def _at_infinite_temperature(tp: ThermoPoint) -> bool:
    """beta* = 0 to within DELTA_TOLERANCE, i.e. s is the density s_ast."""
    return abs(tp.beta_star) < DELTA_TOLERANCE


def checked_thermo_point(model: ChargeModel, s: float) -> ThermoPoint:
    """``thermo_point``, refusing an SU(2) point with beta* > -DELTA_TOLERANCE.

    That is every s <= 0, and any s so near 0 that alpha0 = 1 - exp(beta*)
    nearly vanishes and the delta term's 1/alpha0 blows up.
    """
    tp = thermo_point(model, s)
    if model.group is GroupKind.SU2 and tp.beta_star > -DELTA_TOLERANCE:
        raise ExtremalChargeError(f"SU2 asymptotics need charge density s > 0 with beta* < "
                                  f"-{DELTA_TOLERANCE}; s = {s} has beta* = {tp.beta_star}")
    return tp


def _dlog_alpha0(tp: ThermoPoint, group: GroupKind, dbeta: float) -> float:
    """d log(alpha0) for a change dbeta of beta*: alpha0 = 1 - exp(beta*), 1 for U(1).

    As d beta*/ds = eta'', dbeta = beta* gives the slope ratio
    (alpha0' eta')/(alpha0 eta'') and dbeta = eta'' ds gives (alpha0'/alpha0) ds.
    """
    if group is GroupKind.U1:
        return 0.0
    eb = math.exp(tp.beta_star)
    return -dbeta * eb / (1.0 - eb)


def _sector_log_density(model: ChargeModel, tp: ThermoPoint) -> float:
    """log(step sqrt(-eta''/2 pi)), step = lattice_step/2: one sector's Gaussian density."""
    return 0.5 * math.log(-tp.eta_pp / (2 * math.pi)) + math.log(lattice_step(model) / 2)


def _log_dim_terms(model: ChargeModel, tp: ThermoPoint) -> AsymptoticTerms:
    """y1 = log D_q ~ N eta - (1/2) log N + log(alpha0) + the sector log-density."""
    return AsymptoticTerms(tp.eta, 0.0, -0.5,
                           math.log(tp.alpha0) + _sector_log_density(model, tp))


def asymptotic_log_dim(model: ChargeModel, s: float, n: int) -> float:
    """log of the asymptotic sector dimension at charge q = n*s.

    Leading and subleading parts only; the relative error of the dimension
    itself is O(1/n).
    """
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    y1 = _log_dim_terms(model, checked_thermo_point(model, s))
    return y1.term_N * n + y1.term_logN * math.log(n) + y1.term_O1


def charge_density_moments(model: ChargeModel, f, s: float) -> dict:
    """Leading 1/N coefficients of the subsystem charge density fluctuations.

    Returns {"mean_shift", "variance"}: mean(t) = s + mean_shift/N and
    var(t) = variance/N in the thermodynamic limit.
    """
    ff = float(_as_fraction(f))
    tp = checked_thermo_point(model, s)
    v = (1.0 - ff) / ((-tp.eta_pp) * ff)
    return {"mean_shift": _dlog_alpha0(tp, model.group, tp.eta_pp * v), "variance": v}


def average_entropy_asymptotic(model: ChargeModel, f, s: float) -> EntropyEstimate:
    """Average entanglement entropy of the fraction-f subsystem at density s.

    Leading order is extensive with coefficient eta(s) up to half-system
    size and mirrored beyond; at f = 1/2 exactly, a negative sqrt(N) term
    with coefficient sqrt(c*/2 pi) appears, replaced by the -1/2-type delta
    term at the infinite-temperature density.
    """
    frac = _as_fraction(f)
    return estimates_at_point(checked_thermo_point(model, s), model, [frac])[0]


def estimates_at_point(tp: ThermoPoint, model: ChargeModel,
                       fracs: list[Fraction]) -> list[EntropyEstimate]:
    """``average_entropy_asymptotic`` at each fraction in (0, 1) of ``fracs`` from one
    solved point; y1 and the terms of the point alone are computed once."""
    log_density = _sector_log_density(model, tp)
    log_a0 = math.log(tp.alpha0)
    slope = _dlog_alpha0(tp, model.group, tp.beta_star)
    y1 = _log_dim_terms(model, tp)
    estimates = []
    for frac in fracs:
        regime = _regime(frac)
        ff = float(frac)
        sqrt_term = y3_o1 = 0.0
        if regime is Regime.F_HALF:
            y2_n, y2_o1 = -0.5 * tp.eta, (math.log(0.5) + 0.5) / 2 - 0.5 * log_a0
            if _at_infinite_temperature(tp):
                y3_o1 = -(tp.alpha0 + 1.0 / tp.alpha0) / 4.0
            else:
                sqrt_term = -math.sqrt(tp.c_star / (2 * math.pi))
        elif regime is Regime.F_BELOW_HALF:
            y2_n = -(1 - ff) * tp.eta
            y2_o1 = (math.log(1 - ff) + ff) / 2 - (1 - ff) * slope
        else:
            y2_n = -ff * tp.eta
            y2_o1 = (math.log(ff) + 1 - ff) / 2 + (1 - ff) * slope - log_a0
        estimates.append(EntropyEstimate(
            regime, y1, AsymptoticTerms(y2_n, sqrt_term, 0.5, y2_o1 - log_density),
            AsymptoticTerms(0.0, 0.0, 0.0, y3_o1)))
    return estimates


def variance_asymptotic(model: ChargeModel, f, s: float) -> VarianceAsymptotics:
    """Log-domain coefficient and rate of the exponentially suppressed variance."""
    frac = _as_fraction(f)
    tp = checked_thermo_point(model, s)
    if _at_infinite_temperature(tp):
        raise InfiniteTemperatureVarianceError(
            f"s = {s} is the infinite-temperature density; the variance "
            "prefactor c*^(3/2)/|beta*| is singular there"
        )
    ff = float(frac)
    geom = math.sqrt(2 * math.pi) * ff * (1 - ff)
    if _regime(frac) is Regime.F_HALF:
        geom -= 1.0 / math.sqrt(2 * math.pi)
    log_coeff = (math.log(geom) + 1.5 * math.log(tp.c_star)
                 - math.log(tp.alpha0) - math.log(abs(tp.beta_star)))
    return VarianceAsymptotics(log_coefficient=log_coeff, rate=tp.eta)

