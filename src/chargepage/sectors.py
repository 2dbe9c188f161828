"""Exact sector dimensions for N copies of the local space.

The group-character integrals that define these dimensions are Fourier
coefficient extractions: the weight counts over n bodies are the
coefficients of P(x)^n, where P is the one-body weight polynomial on the
compressed lattice w = w_min + step*k (step = gcd of the weight
differences). J.C.P. Miller's power-series recurrence (Knuth, TAOCP Vol. 2,
section 4.7) yields each coefficient from the previous ones with one exact
division, so there is no recursion over bodies and nothing to cache. SU(2)
complement blocks sum spin sectors over the triangle range, and that sum
telescopes to two weight counts. The tables of the cuts n_A and N - n_A
are built from the same two weight counts, so many cuts of one sector cost
one convolution per mirror pair. The counts stay lists indexed by k, zeros
included, and a table is sliced from them. Python big integers are
mandatory: k^N overflows machine words at desk scale.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import mul, sub

from .models import ChargeModel, GroupKind, charge_str, lattice_step, weight_multiplicities


class EmptySectorError(ValueError):
    pass


@dataclass(frozen=True)
class SectorTable:
    """Dimensions D_q of the fixed-charge sectors for n bodies, keyed by 2q.

    Charges outside the table are unreachable (dimension 0).
    """

    model: ChargeModel
    n: int
    dims: dict[int, int]

    def snap(self, s: float) -> int:
        """Realizable doubled charge nearest to density s; a tie goes to the lower one."""
        target = 2.0 * s * self.n
        return min(self.dims, key=lambda q2: (abs(q2 - target), q2))

    def dimension(self, q_total: int) -> int:
        """D_q of doubled charge ``q_total``; an unrealizable charge is an error."""
        if self.dims.get(q_total, 0) < 1:
            raise EmptySectorError(
                f"charge {charge_str(q_total)} (doubled {q_total}) is not realizable for "
                f"{self.model.name or self.model.group.value} with n = {self.n}"
            )
        return self.dims[q_total]


@dataclass(frozen=True)
class BlockTable:
    """Block decomposition of one total-charge sector across a bipartition.

    ``blocks`` lists (2*q_a, d, b) with d = dim of the A-side charge sector
    and b = dim of the complement factor, sorted by q_a ascending. Only
    blocks with d >= 1 and b >= 1 appear, and ``sector_dimension`` is
    D_{q_total}, stored once sum(d*b) has been checked against it.
    """

    n_a: int
    blocks: tuple[tuple[int, int, int], ...]
    sector_dimension: int


def _lattice(model: ChargeModel) -> tuple[int, int, dict[int, int]]:
    """(w_min, step, {k: a_k}): one body's doubled weights are w_min + step*k."""
    local = weight_multiplicities(model)
    w_min, step = min(local), lattice_step(model)
    return w_min, step, {(w - w_min) // step: m for w, m in local.items()}


def _power_coefficients(a: dict[int, int], n: int) -> list[int]:
    """Coefficients c_0 .. c_{n top} of P(x)^n, P(x) = sum_k a_k x^k, zeros included.

    They obey j a_0 c_j = sum_k ((n+1) k - j) a_k c_{j-k} (Miller), and the
    division by j a_0 is exact. When a_k = a_{top-k} (every SU(2) model, and
    U(1) models whose multiplicities mirror about the middle charge), P(x)^n
    is palindromic too: the recurrence stops at the middle coefficient and
    c_j = c_{n top - j} fills the rest.
    """
    top, a0 = max(a), a[0]
    # (k, (n+1) k a_k, a_k) ascending in k, so the inner loop can stop at k > j
    terms = [(k, (n + 1) * k * m, m) for k, m in a.items() if k]
    last = n * top
    symmetric = all(a.get(top - k) == m for k, m in a.items())
    c = [a0**n]
    for j in range(1, (last // 2 if symmetric else last) + 1):
        acc = 0
        for k, nka, m in terms:
            if k > j:
                break
            acc += (nka - j * m) * c[j - k]
        c.append(acc // (j * a0))
    c.extend(reversed(c[:last + 1 - len(c)]))
    return c


def weight_counts(model: ChargeModel, n: int) -> dict[int, int]:
    """Nonzero counts of each doubled total weight over n bodies, ascending in weight."""
    if n < 0:
        raise ValueError(f"n = {n} must be >= 0")
    w_min, step, poly = _lattice(model)
    return {n * w_min + step * j: x for j, x in enumerate(_power_coefficients(poly, n)) if x}


def sector_dims(model: ChargeModel, n: int) -> SectorTable:
    """Exact dimension of every fixed-charge sector for n bodies: the weight count
    W(m) for U1, the spin-j multiplicity D_j = W(j) - W(j+1) for SU2."""
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    dims = weight_counts(model, n)
    if model.group is GroupKind.SU2:
        dims = {j2: w - dims.get(j2 + 2, 0) for j2, w in dims.items() if j2 >= 0}
    return SectorTable(model, n, {q2: d for q2, d in dims.items() if d})


def _check_cut(n_total: int, n_a: int) -> None:
    if n_total < 2:
        raise ValueError(f"n = {n_total} has no bipartition: a cut needs n >= 2")
    if not 1 <= n_a <= n_total - 1:
        raise ValueError(f"n_a = {n_a} must satisfy 1 <= n_a <= {n_total - 1}")


def block_tables(full: SectorTable, q_total: int,
                 cuts: Iterable[int]) -> Iterator[BlockTable]:
    """Exact block dimensions (d, b) of one sector at each distinct cut.

    U1: b is the complement weight count W_B(q - q_A).
    SU2: b_{j,j_A} sums the complement spin sectors D_B(j_B) over the
    triangle range |j - j_A| <= j_B <= j + j_A; with D_B(j) = W_B(j) - W_B(j+1)
    the sum telescopes to W_B(|j - j_A|) - W_B(j + j_A + 1), and W_B is even.

    Entry i of W(n_a) is q_A = n_a w_min + step i and entry iq - i of W(N - n_a)
    is q - q_A, so a U(1) table is one slice of each list, the B side reversed.
    SU(2) (step 1 or 2) reads q_A + 2 and q + q_A + 2 at entries i + 2/step and
    iq + i + (2 n_a w_min + 2)/step.

    Tables come one mirror pair {a, N - a} at a time, ascending in the smaller
    cut: both need W(a) and W(N - a), dropped before the next pair's are convolved.
    """
    model, n_total = full.model, full.n
    wanted = set(cuts)
    for n_a in sorted(wanted):
        _check_cut(n_total, n_a)
    dim = full.dimension(q_total)  # rejects an unrealizable charge before any convolution
    w_min, step, poly = _lattice(model)
    su2, iq = model.group is GroupKind.SU2, (q_total - n_total * w_min) // step
    for small in sorted({min(a, n_total - a) for a in wanted}):
        counts = {m: _power_coefficients(poly, m) for m in sorted({small, n_total - small})}
        for n_a in sorted(wanted & counts.keys()):
            c_a, c_b, lowest = counts[n_a], counts[n_total - n_a], n_a * w_min
            lo = max(0, iq + 1 - len(c_b), -(lowest // step) if su2 else 0)  # SU(2): j_A >= 0
            hi = min(len(c_a), iq + 1)
            ds, bs = c_a[lo:hi], c_b[iq + 1 - hi:iq + 1 - lo][::-1]
            if su2:  # the lists read as 0 past their ends
                ds = list(map(sub, ds, chain(c_a[lo + 2 // step:], repeat(0))))
                bs = list(map(sub, bs, chain(c_b[iq + lo + (2 * lowest + 2) // step:], repeat(0))))
            total = sum(map(mul, ds, bs))
            if total != dim:
                raise RuntimeError(f"block normalization broken: sum d*b = {total} != D_q = {dim}")
            yield BlockTable(n_a, tuple(
                (lowest + step * i, d, b) for i, d, b in zip(count(lo), ds, bs) if d > 0 and b > 0
            ), dim)
        del counts  # freed before the next pair is convolved


def block_table(model: ChargeModel, n_total: int, n_a: int, q_total: int) -> BlockTable:
    """Exact block dimensions of one total-charge sector at one cut."""
    _check_cut(n_total, n_a)  # before sector_dims, which rejects n_total < 1
    (table,) = block_tables(sector_dims(model, n_total), q_total, [n_a])
    return table


def realizable_charges(model: ChargeModel, n: int) -> list[int]:
    """Doubled charges with a nonzero sector dimension, ascending."""
    return sorted(sector_dims(model, n).dims)
