"""Laplace-method asymptotics of integrals of h(t) exp(n g(t)).

One expansion, ``laplace_discontinuous``, covers a prefactor h with a jump
(in value and/or derivatives) at the maximum through the corrections C_1/2
and C_1; a smooth prefactor is the case h- = h+, where C_1/2 = 0.

Derivative values at the maximum are supplied by the caller; nothing here
differentiates anything. ``run_laplace_suite`` checks the expansion on ten
analytic problems against adaptive quadrature (the ``laplace-check``
subcommand): the relative error must fall as n^-2 for a smooth prefactor
and as n^-3/2 for one with a jump.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


class NotAMaximumError(ValueError):
    pass


class DegeneratePrefactorError(ValueError):
    pass


@dataclass(frozen=True)
class LaplaceProblem:
    """Data of one integral: derivatives of g and h at the interior maximum t0.

    ``h_minus`` and ``h_plus`` are (value, first, second derivative) triples of
    the one-sided limits of the prefactor at t0; pass the same triple twice
    for a smooth prefactor. ``g_derivs`` is (g, g', g'', g''', g'''') at t0.
    """

    t0: float
    interval: tuple[float, float]
    g_derivs: tuple[float, float, float, float, float]
    h_minus: tuple[float, float, float]
    h_plus: tuple[float, float, float]

    def __post_init__(self):
        t1, t2 = self.interval
        if not t1 < self.t0 < t2:
            raise ValueError(f"t0 = {self.t0} not inside interval ({t1}, {t2})")
        _, g1, g2, _, _ = self.g_derivs
        if abs(g1) > 1e-10:
            raise NotAMaximumError(f"g'(t0) = {g1} is not zero")
        if g2 >= 0:
            raise NotAMaximumError(f"g''(t0) = {g2} must be negative")


def laplace_discontinuous(problem: LaplaceProblem, n: float) -> dict:
    """Expansion for a prefactor with one-sided limits h-(t0) and h+(t0).

    The leading term carries the average of the one-sided limits and a
    jump sources a 1/sqrt(n) correction:
    value = (1 + c_half/sqrt(n) + c_one/n) sqrt(2 pi/(-g'' n))
            (h- + h+)/2 exp(n g(t0)).
    A smooth prefactor passes the same triple twice and gets c_half = 0.
    """
    g0, _, g2, g3, g4 = problem.g_derivs
    hm0, hm1, hm2 = problem.h_minus
    hp0, hp1, hp2 = problem.h_plus
    hsum = hm0 + hp0
    if hsum == 0:
        raise DegeneratePrefactorError("h-(t0) + h+(t0) = 0: leading term vanishes")
    c_half = (1.0 / math.sqrt(-2 * math.pi * g2)) * (
        2 * (hp1 - hm1) / hsum + (2.0 / 3.0) * ((hm0 - hp0) / hsum) * (g3 / g2)
    )
    c_one = (-(hm2 + hp2) / (2 * hsum * g2)
             + (hm1 + hp1) * g3 / (2 * hsum * g2 ** 2)
             - 5 * g3 ** 2 / (24 * g2 ** 3)
             + g4 / (8 * g2 ** 2))
    value = ((1 + c_half / math.sqrt(n) + c_one / n)
             * math.sqrt(2 * math.pi / (-g2 * n)) * 0.5 * hsum * math.exp(n * g0))
    return {"value": value, "c_half": c_half, "c_one": c_one}


def _cubic_g(t):
    return -t * t / 2 + t**3 / 6


def _cosh_g(t):
    return 1.0 - math.cosh(t)


def _skew_g(t):
    return 1.0 - math.cosh(t) + t**3 / 10


def _one(t):
    return 1.0


def _quadratic(t):
    return 1 + t + t * t


def _two_plus_sin(t):
    return 2 + math.sin(t)


LAPLACE_SUITE = [
    # (name, g(t), h_minus(t), h_plus(t), problem); a smooth case has
    # h_minus = h_plus
    ("gauss-exp", lambda t: -t * t / 2, math.exp, math.exp,
     LaplaceProblem(0.0, (-8.0, 8.0), (0, 0, -1, 0, 0), (1, 1, 1), (1, 1, 1))),
    ("cubic-tilt", _cubic_g, _one, _one,
     LaplaceProblem(0.0, (-1.0, 1.5), (0, 0, -1, 1, 0), (1, 0, 0), (1, 0, 0))),
    ("cosh-well", _cosh_g, _one, _one,
     LaplaceProblem(0.0, (-3.0, 3.0), (0, 0, -1, 0, -1), (1, 0, 0), (1, 0, 0))),
    ("cosh-quad-prefactor", _cosh_g, _quadratic, _quadratic,
     LaplaceProblem(0.0, (-3.0, 3.0), (0, 0, -1, 0, -1), (1, 1, 2), (1, 1, 2))),
    ("cubic-sin-prefactor", _cubic_g, _two_plus_sin, _two_plus_sin,
     LaplaceProblem(0.0, (-1.0, 1.5), (0, 0, -1, 1, 0), (2, 1, 0), (2, 1, 0))),
    ("jump-cubic", _cubic_g, _one, lambda t: 2.0,
     LaplaceProblem(0.0, (-1.0, 1.5), (0, 0, -1, 1, 0), (1, 0, 0), (2, 0, 0))),
    ("kink-cosh", _cosh_g, lambda t: 1 - t, lambda t: 1 + t,
     LaplaceProblem(0.0, (-3.0, 3.0), (0, 0, -1, 0, -1), (1, -1, 0), (1, 1, 0))),
    ("jump-slope-cosh", _cosh_g, lambda t: 2 + t, lambda t: 1 - t,
     LaplaceProblem(0.0, (-3.0, 3.0), (0, 0, -1, 0, -1), (2, 1, 0), (1, -1, 0))),
    ("exp-jump-cubic", _cubic_g, lambda t: math.exp(-t), lambda t: 2 * math.exp(t),
     LaplaceProblem(0.0, (-1.0, 1.5), (0, 0, -1, 1, 0), (1, -1, 1), (2, 2, 2))),
    ("mixed-skew", _skew_g, lambda t: 1 + t * t, lambda t: 2 - t,
     LaplaceProblem(0.0, (-2.0, 2.0), (0, 0, -1, 0.6, -1), (1, 0, 2), (2, -1, 0))),
]


#: largest n the suite accepts: beyond it the smooth rows' error (~n^-2) meets
#: quad's epsrel of 1e-13, and then quad misses the peak of width n^-1/2
MAX_SUITE_N = 10**5


def _quad_reference(g, h_minus, h_plus, problem, n):
    from scipy.integrate import quad  # only this self-check needs scipy

    t1, t2 = problem.interval
    t0 = problem.t0
    lo, _ = quad(lambda t: h_minus(t) * math.exp(n * g(t)), t1, t0,
                 epsabs=0.0, epsrel=1e-13, limit=300)
    hi, _ = quad(lambda t: h_plus(t) * math.exp(n * g(t)), t0, t2,
                 epsabs=0.0, epsrel=1e-13, limit=300)
    return lo + hi


def run_laplace_suite(ns=(100, 1000, 10000)):
    """Error-scaling rows for the analytic suite vs adaptive quadrature.

    Each row's slope is the least-squares fit of log |relative error| against
    log n. ns needs two distinct values in [1, MAX_SUITE_N], else ValueError.
    """
    if len(set(ns)) < 2:
        raise ValueError(f"needs at least two distinct values to fit a slope, got {list(ns)}")
    if min(ns) < 1:
        raise ValueError(f"must be >= 1, got {min(ns)}")
    if max(ns) > MAX_SUITE_N:
        raise ValueError(f"must be <= {MAX_SUITE_N}, got {max(ns)}: beyond it "
                         "the quadrature reference cannot resolve the error")
    rows = []
    for name, g, h_minus, h_plus, problem in LAPLACE_SUITE:
        smooth = problem.h_minus == problem.h_plus
        errs = [abs(laplace_discontinuous(problem, n)["value"]
                    / _quad_reference(g, h_minus, h_plus, problem, n) - 1.0) for n in ns]
        slope = statistics.linear_regression([math.log(n) for n in ns],
                                             [math.log(e) for e in errs]).slope
        rows.append({"case": name, "kind": "smooth" if smooth else "discontinuous",
                     "slope": slope, "target": -2.0 if smooth else -1.5,
                     "max_rel_error": max(errs)})
    return rows
