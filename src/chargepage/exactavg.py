"""Exact ensemble-average entanglement entropy over one charge sector.

The average over Haar-random fixed-charge states is a closed digamma
formula over the exact block dimensions. Dimensions routinely exceed
anything a float can hold, so digamma arguments and weights are handled
through exact big-integer logarithms.

For SU(2) the blocks are multiplicity spaces: the value is the entropy of the
multiplicity-space (block) state, not of the full spin-basis state (README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import ChargeModel
from .sectors import BlockTable, block_table, sector_dims

#: the state whose entropy is averaged, as the output metadata names it; for
#: U(1) the multiplicity space is the spin basis and the two entropies agree
ENTROPY = "multiplicity-space"

# asymptotic tail: psi(x) = log x - 1/(2x) - sum c_k / x^(2k), valid for x >= 10
_TAIL_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)


def _digamma_tail(x: float) -> float:
    # caller guarantees x >= 10
    inv2 = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(_TAIL_COEFFS):
        acc = (acc + c) * inv2
    return math.log(x) - 0.5 / x - acc


def _digamma_and_half_inverse(d: int, log_d: float) -> tuple[float, float]:
    """psi(d + 1) and 1/(2d) for d >= 1, given log_d = math.log(d).

    Below d = 9, psi(d + 1) is psi(10) less sum 1/k, summed with fsum; from
    d + 1 = 10 the asymptotic series is accurate to full double precision.
    1/(2d) is 0.0 once d has 1000 bits, where it is far below ulp(log d).
    """
    if d < 9:
        return math.fsum([_digamma_tail(10.0), *(-1.0 / k for k in range(d + 1, 10))]), 0.5 / d
    if d <= 10**12:
        return _digamma_tail(float(d + 1)), 0.5 / d
    # psi(d+1) = log d + 1/(2d) - 1/(12 d^2) + ...; beyond 1e12 only the
    # first correction is representable
    half_inverse = 0.5 / d if d.bit_length() < 1000 else 0.0
    return log_d + half_inverse, half_inverse


@dataclass(frozen=True)
class ExactAverage:
    """Exact average entropy of one sector, split into its three pieces."""

    value: float
    y1: float
    y2: float
    y3: float
    degenerate: bool = False


def exact_average_entropy(model: ChargeModel, n_total: int, n_a: int,
                          q_total: int) -> ExactAverage:
    """Ensemble-average entanglement entropy at fixed total charge.

    The cuts n_a = 0 and n_a = n_total are flagged degenerate with entropy 0;
    every other cut is ``block_average_entropy`` of its block table.
    """
    # a bad cut is rejected before any convolution
    if n_total < 1:
        raise ValueError(f"n_total = {n_total} must be >= 1")
    if not 0 <= n_a <= n_total:
        raise ValueError(f"n_a = {n_a} outside [0, {n_total}]")
    if n_a in (0, n_total):
        sector_dims(model, n_total).dimension(q_total)  # rejects an unrealizable charge
        return ExactAverage(0.0, 0.0, 0.0, 0.0, degenerate=True)
    return block_average_entropy(block_table(model, n_total, n_a, q_total))


def block_average_entropy(table: BlockTable) -> ExactAverage:
    """Ensemble-average entanglement entropy of one block decomposition.

    Evaluates psi(D+1) minus the weighted digamma and min-ratio sums over
    the blocks. Block weights d*b/D are exp(log d + log b - log D); max/min
    comparisons stay in exact integers.
    """
    dim = table.sector_dimension
    log_dim = math.log(dim)

    y1 = _digamma_and_half_inverse(dim, log_dim)[0]
    y2_terms = []
    y3_terms = []
    log, exp = math.log, math.exp
    add_y2, add_y3 = y2_terms.append, y3_terms.append
    for _, d, b in table.blocks:
        log_d, log_b = log(d), log(b)
        weight = exp(log_d + log_b - log_dim)
        big, log_big = (d, log_d) if d >= b else (b, log_b)
        if big > 10**12:  # _digamma_and_half_inverse's last branch, inlined
            half_inverse = 0.5 / big if big.bit_length() < 1000 else 0.0
            psi = log_big + half_inverse
        else:
            psi, half_inverse = _digamma_and_half_inverse(big, log_big)
        add_y2(-(psi - half_inverse) * weight)
        add_y3(-0.5 * exp(-abs(log_d - log_b)) * weight)
    y2 = math.fsum(y2_terms)
    y3 = math.fsum(y3_terms)
    return ExactAverage(y1 + y2 + y3, y1, y2, y3)
