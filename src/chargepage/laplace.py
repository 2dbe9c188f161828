"""Laplace-method asymptotics of integrals of h(t) exp(n g(t)).

One expansion, ``laplace_discontinuous``, covers a prefactor h with a jump
(in value and/or derivatives) at the maximum through the corrections C_1/2
and C_1; a smooth prefactor is the case h- = h+, where C_1/2 = 0.

Derivative values at the maximum are supplied by the caller; nothing here
differentiates anything. The test suite checks the expansion on ten
analytic problems against adaptive quadrature (``tests/conftest.py``): the
relative error must fall as n^-2 for a smooth prefactor and as n^-3/2 for
one with a jump.
"""

from __future__ import annotations

import math
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

