"""Exact sector dimensions for N copies of the local space.

The group-character integrals that define these dimensions are Fourier
coefficient extractions: the weight counts over n bodies are the
coefficients of P(x)^n, where P is the one-body weight polynomial on the
compressed lattice w = w_min + step*k (step = gcd of the weight
differences). J.C.P. Miller's power-series recurrence (Knuth, TAOCP Vol. 2,
section 4.7) yields each coefficient from the previous ones with one exact
division, so there is no recursion over bodies and nothing to cache. It runs
on the least root Q of P, Q^r = P (su2-trimer: P = (1 + x)^3), found once per
sector table, so a coefficient of P^n = Q^(rn) costs one product per term of
Q. A weight-count list whose predicted size passes MAX_COUNT_BYTES is refused
before any convolution. SU(2) complement blocks sum spin sectors over the
triangle range, and that sum telescopes to two weight counts. The tables of
the cuts n_A and N - n_A are built from the same two weight counts, so many
cuts of one sector cost one convolution per mirror pair. The counts stay
lists indexed by k, zeros included, and a table is sliced from them. Python
big integers are mandatory: k^N overflows machine words at desk scale.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul, sub

from .models import ChargeModel, GroupKind, charge_str, lattice_step, weight_multiplicities

#: the most bytes one n-body weight-count list may be predicted to take
#: (``check_count_bytes``): it admits su2-trimer up to N = 43 690 (0.51 GB predicted at
#: N = 3 10^4) and u1-qubit up to N = 131 071
MAX_COUNT_BYTES = 2**30


class EmptySectorError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    """One body's doubled weights w_min + step*k and their weight polynomial
    P(x) = sum_k a_k x^k, stored as its least root: P = Q^power, Q = sum_k root[k] x^k."""

    w_min: int
    step: int
    root: dict[int, int]
    power: int


@dataclass(frozen=True)
class SectorTable:
    """Dimensions D_q of the fixed-charge sectors for n bodies, keyed by 2q.

    Charges outside the table are unreachable (dimension 0). ``lattice`` is the
    one-body lattice the dimensions came from; the block tables reuse it.
    """

    model: ChargeModel
    n: int
    dims: dict[int, int]
    lattice: Lattice

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


def _lattice(model: ChargeModel) -> Lattice:
    """One body's weight lattice and the least root of its weight polynomial."""
    local = weight_multiplicities(model)
    w_min, step = min(local), lattice_step(model)
    root, power = _least_root({(w - w_min) // step: m for w, m in local.items()})
    return Lattice(w_min, step, root, power)


def _least_root(a: dict[int, int]) -> tuple[dict[int, int], int]:
    """(Q, r) with Q(x)^r = P(x) = sum_k a_k x^k in non-negative integers, r largest.

    For each r dividing the degree d of P, largest first, Miller's recurrence with
    exponent 1/r, r j a_0 q_j = sum_k ((r+1) k - r j) a_k q_{j-k}, gives the power
    series of P^(1/r) with q_0 = a_0^(1/r). When q_0 .. q_d are non-negative
    integers and vanish past d/r, Q^r agrees with P up to x^d and both have
    degree d, so Q^r = P. q_0 is found in floating point, so a root with q_0
    past 2^53, or an a_0 of 1000 bits or more, is missed: that costs speed, never
    exactness.
    """
    top, a0 = max(a), a[0]
    terms = [(k, x) for k, x in a.items() if k]  # ascending in k
    for r in (r for r in range(top, 1, -1) if top % r == 0):
        q = [round(a0 ** (1 / r)) if a0.bit_length() <= min(53 * r, 999) else 0]
        if q[0]**r != a0:
            continue
        for j in range(1, top + 1):
            acc = sum(((r + 1) * k - r * j) * x * q[j - k] for k, x in terms if k <= j)
            if acc < 0 or acc % (r * j * a0) or acc and j > top // r:
                break
            q.append(acc // (r * j * a0))
        else:
            return {k: x for k, x in enumerate(q) if x}, r
    return a, 1


def check_count_bytes(lattice: Lattice, n: int) -> None:
    """Refuse n bodies whose weight counts are predicted past MAX_COUNT_BYTES: about
    n top/2 + 1 entries (a mirrored list's middle) of up to n log2(local dimension) bits."""
    top = lattice.power * max(lattice.root)
    bits = n * lattice.power * math.log2(sum(lattice.root.values()))
    predicted = (n * top // 2 + 1) * bits / 8
    if predicted > MAX_COUNT_BYTES:
        raise ValueError(f"n = {n}: its weight counts need about {predicted:.2e} bytes, "
                         f"over the {MAX_COUNT_BYTES}-byte bound for one weight-count list")


def _power_coefficients(lattice: Lattice, n: int) -> list[int]:
    """Coefficients c_0 .. c_{m top} of P(x)^n = Q(x)^m, m = power n, Q(x) = sum_k q_k x^k
    the lattice's root, zeros included.

    They obey j q_0 c_j = sum_k ((m+1) k - j) q_k c_{j-k} (Miller), and the
    division by j q_0 is exact. When q_k = q_{top-k} (every SU(2) model, and
    U(1) models whose multiplicities mirror about the middle charge), Q(x)^m
    is palindromic too: the recurrence stops at the middle coefficient and
    c_j = c_{m top - j} fills the rest.
    """
    q, m = lattice.root, lattice.power * n
    top, q0 = max(q), q[0]
    # (k, (m+1) k q_k, q_k) ascending in k, so the inner loop can stop at k > j
    terms = [(k, (m + 1) * k * x, x) for k, x in q.items() if k]
    last = m * top
    symmetric = all(q.get(top - k) == x for k, x in q.items())
    stop = (last // 2 if symmetric else last) + 1
    c = [q0**m]
    if len(terms) == 1:  # Q = q_0 + q_1 x (two-weight models, su2-trimer): no inner loop
        ((_, mkq, x),) = terms  # k = 1: the lattice's gcd-1 step leaves no gap in Q^power
        for j in range(1, stop):
            c.append((mkq - j * x) * c[-1] // (j * q0))
    else:
        for j in range(1, stop):
            acc = 0
            for k, mkq, x in terms:
                if k > j:
                    break
                acc += (mkq - j * x) * c[j - k]
            c.append(acc // (j * q0))
    c.extend(reversed(c[:last + 1 - len(c)]))
    return c


def _weight_counts(lattice: Lattice, n: int) -> dict[int, int]:
    check_count_bytes(lattice, n)
    w_min, step = lattice.w_min, lattice.step
    return {n * w_min + step * j: x for j, x in enumerate(_power_coefficients(lattice, n)) if x}


def weight_counts(model: ChargeModel, n: int) -> dict[int, int]:
    """Nonzero counts of each doubled total weight over n bodies, ascending in weight."""
    if n < 0:
        raise ValueError(f"n = {n} must be >= 0")
    return _weight_counts(_lattice(model), n)


def sector_dims(model: ChargeModel, n: int) -> SectorTable:
    """Exact dimension of every fixed-charge sector for n bodies: the weight count
    W(m) for U1, the spin-j multiplicity D_j = W(j) - W(j+1) for SU2."""
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    lattice = _lattice(model)
    dims = _weight_counts(lattice, n)
    if model.group is GroupKind.SU2:
        dims = {j2: w - dims.get(j2 + 2, 0) for j2, w in dims.items() if j2 >= 0}
    return SectorTable(model, n, {q2: d for q2, d in dims.items() if d}, lattice)


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
    lattice = full.lattice
    w_min, step = lattice.w_min, lattice.step
    su2, iq = model.group is GroupKind.SU2, (q_total - n_total * w_min) // step
    for small in sorted({min(a, n_total - a) for a in wanted}):
        counts = {m: _power_coefficients(lattice, m) for m in sorted({small, n_total - small})}
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
            blocks = zip(range(lowest + step * lo, lowest + step * hi, step), ds, bs)
            if 0 in ds or 0 in bs:  # SU(2) differences and gapped lattices
                blocks = ((qa, d, b) for qa, d, b in blocks if d and b)
            yield BlockTable(n_a, tuple(blocks), dim)
        del counts  # freed before the next pair is convolved


def block_table(model: ChargeModel, n_total: int, n_a: int, q_total: int) -> BlockTable:
    """Exact block dimensions of one total-charge sector at one cut."""
    _check_cut(n_total, n_a)  # before sector_dims, which rejects n_total < 1
    (table,) = block_tables(sector_dims(model, n_total), q_total, [n_a])
    return table


def realizable_charges(model: ChargeModel, n: int) -> list[int]:
    """Doubled charges with a nonzero sector dimension, ascending."""
    return sorted(sector_dims(model, n).dims)
