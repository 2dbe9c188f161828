"""Exact sector dimensions for N copies of the local space.

The group-character integrals that define these dimensions are Fourier
coefficient extractions: the weight counts over n bodies are the
coefficients of P(x)^n, where P is the one-body weight polynomial on the
compressed lattice w = w_min + step*k (step = gcd of the weight
differences). J.C.P. Miller's power-series recurrence (Knuth, TAOCP Vol. 2,
section 4.7) yields each coefficient from the previous ones with one exact
division, so there is no recursion over bodies and nothing to cache. When
the one-body weight multiplicities mirror about their middle (every SU(2)
model, u1-qubit, u1-qutrit), so do the N-body counts, and the recurrence
runs only to the middle coefficient. SU(2)
complement blocks sum spin sectors over the triangle range, and that sum
telescopes to two weight counts. The tables of the cuts n_A and N - n_A
are built from the same two weight counts, so many cuts of one sector cost
one convolution per mirror pair. Python big integers are mandatory: k^N
overflows machine words at desk scale.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

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

    model: ChargeModel
    n_total: int
    n_a: int
    q_total: int
    blocks: tuple[tuple[int, int, int], ...]
    sector_dimension: int


def weight_counts(model: ChargeModel, n: int) -> dict[int, int]:
    """Counts of each doubled total weight over n bodies, ascending in weight.

    With P(x) = sum_k a_k x^k on the compressed lattice, the coefficients of
    P(x)^n obey j a_0 c_j = sum_k ((n+1) k - j) a_k c_{j-k} (Miller), and
    the division by j a_0 is exact. When a_k = a_{top-k} (every SU(2) model,
    and U(1) models whose multiplicities mirror about the middle charge),
    P(x)^n is palindromic too: the recurrence stops at the middle coefficient
    and c_j = c_{n top - j} fills the rest.
    """
    if n < 0:
        raise ValueError(f"n = {n} must be >= 0")
    local = weight_multiplicities(model)
    w_min = min(local)
    step = lattice_step(model)
    a = {(w - w_min) // step: m for w, m in local.items()}
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
    return {w: cj for w, cj in zip(range(n * w_min, n * max(local) + 1, step), c) if cj}


def _dims_from_counts(model: ChargeModel, counts: dict[int, int]) -> dict[int, int]:
    """Sector dimensions from weight counts (see ``sector_dims``)."""
    if model.group is GroupKind.U1:
        return counts
    dims = {}
    for j2, w in counts.items():
        if j2 < 0:
            continue
        d = w - counts.get(j2 + 2, 0)
        if d > 0:
            dims[j2] = d
    return dims


def sector_dims(model: ChargeModel, n: int) -> SectorTable:
    """Exact dimension of every fixed-charge sector for n bodies.

    U1: the sector dimension at charge m is the weight count itself.
    SU2: the spin-j multiplicity is the adjacent weight-count difference
    D_j = W(j) - W(j+1), so one convolution serves both groups.
    """
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    return SectorTable(model, n, _dims_from_counts(model, weight_counts(model, n)))


def _check_cut(n_total: int, n_a: int) -> None:
    if n_total < 2:
        raise ValueError(f"n = {n_total} has no bipartition: a cut needs n >= 2")
    if not 1 <= n_a <= n_total - 1:
        raise ValueError(f"n_a = {n_a} must satisfy 1 <= n_a <= {n_total - 1}")


def _cut_table(full: SectorTable, q_total: int, n_a: int,
               w_a: dict[int, int], w_b: dict[int, int]) -> BlockTable:
    """One cut's table from the weight counts W(n_a) and W(N - n_a), in their q_A order."""
    su2 = full.model.group is GroupKind.SU2
    blocks = []
    for qa2, d in _dims_from_counts(full.model, w_a).items():
        if su2:
            b = w_b.get(abs(q_total - qa2), 0) - w_b.get(q_total + qa2 + 2, 0)
        else:
            b = w_b.get(q_total - qa2, 0)
        if b >= 1:
            blocks.append((qa2, d, b))
    total, dim = sum(d * b for _, d, b in blocks), full.dims[q_total]
    if total != dim:
        raise RuntimeError(f"block normalization broken: sum d*b = {total} != D_q = {dim}")
    return BlockTable(full.model, full.n, n_a, q_total, tuple(blocks), dim)


def block_tables(full: SectorTable, q_total: int,
                 cuts: Iterable[int]) -> Iterator[BlockTable]:
    """Exact block dimensions (d, b) of one sector at each distinct cut.

    U1: b is the complement weight count W_B(q - q_A).
    SU2: b_{j,j_A} sums the complement spin sectors D_B(j_B) over the
    triangle range |j - j_A| <= j_B <= j + j_A; with D_B(j) = W_B(j) - W_B(j+1)
    the sum telescopes to W_B(|j - j_A|) - W_B(j + j_A + 1).

    The cuts a and N - a need the same two weight counts W(a) and W(N - a),
    so tables come one mirror pair at a time, in ascending order of the
    smaller cut, and each pair's counts are dropped before the next pair's
    are convolved.
    """
    model, n_total = full.model, full.n
    wanted = set(cuts)
    for n_a in sorted(wanted):
        _check_cut(n_total, n_a)
    full.dimension(q_total)  # rejects an unrealizable charge before any convolution
    for small in sorted({min(a, n_total - a) for a in wanted}):
        counts = {m: weight_counts(model, m) for m in sorted({small, n_total - small})}
        for n_a in sorted(wanted & counts.keys()):
            yield _cut_table(full, q_total, n_a, counts[n_a], counts[n_total - n_a])
        del counts  # freed before the next pair is convolved


def block_table(model: ChargeModel, n_total: int, n_a: int, q_total: int) -> BlockTable:
    """Exact block dimensions of one total-charge sector at one cut."""
    _check_cut(n_total, n_a)  # before sector_dims, which rejects n_total < 1
    (table,) = block_tables(sector_dims(model, n_total), q_total, [n_a])
    return table


def realizable_charges(model: ChargeModel, n: int) -> list[int]:
    """Doubled charges with a nonzero sector dimension, ascending."""
    return sorted(sector_dims(model, n).dims)
