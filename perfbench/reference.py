"""Independent references for checking chargepage outputs.

Nothing here calls the program. Sector dimensions come from binomial
coefficients (multiplicative formula) and rows of the trinomial triangle,
not from the program's recursive convolution; SU(2) blocks use prefix sums,
not the program's triangle loop; the sector average is evaluated in mpmath
at 40 digits.
"""

from __future__ import annotations

import mpmath


def _binomial_row(n: int) -> list[int]:
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


#: rows of the trinomial triangle, T(n, k) = T(n-1, k-2) + T(n-1, k-1) + T(n-1, k)
_TRINOMIAL_ROWS = [[1]]


def _trinomial_row(n: int) -> list[int]:
    """Coefficients of (1 + x + x^2)^n."""
    rows = _TRINOMIAL_ROWS
    while len(rows) <= n:
        prev = [0, 0] + rows[-1] + [0, 0]
        rows.append([prev[k] + prev[k + 1] + prev[k + 2] for k in range(len(prev) - 2)])
    return rows[n]


#: catalog model -> (group, coefficient row of n bodies, doubled weight of index k)
#: su2-trimer's one-body weights {-3: 1, -1: 3, 1: 3, 3: 1} are those of three
#: qubits, so its rows are binomial rows of 3n.
MODELS = {
    "u1-qubit": ("U1", _binomial_row, lambda n, k: 2 * k - n),
    "u1-qutrit": ("U1", _trinomial_row, lambda n, k: 2 * k - 2 * n),
    "u1-2bosons": ("U1", lambda n: [c << k for k, c in enumerate(_binomial_row(n))],
                   lambda n, k: 2 * k),
    "su2-qubit": ("SU2", _binomial_row, lambda n, k: 2 * k - n),
    "su2-qutrit": ("SU2", _trinomial_row, lambda n, k: 2 * k - 2 * n),
    "su2-trimer": ("SU2", lambda n: _binomial_row(3 * n), lambda n, k: 2 * k - 3 * n),
}


def group(name: str) -> str:
    return MODELS[name][0]


def weight_counts(name: str, n: int) -> dict[int, int]:
    """Number of n-body basis states per doubled total weight."""
    _, row, weight = MODELS[name]
    return {weight(n, k): c for k, c in enumerate(row(n)) if c}


def sector_dims(name: str, n: int) -> dict[int, int]:
    """Sector dimension per doubled charge; for SU(2) D_j = W(j) - W(j+1)."""
    counts = weight_counts(name, n)
    if group(name) == "U1":
        return counts
    dims = {j2: w - counts.get(j2 + 2, 0) for j2, w in counts.items() if j2 >= 0}
    return {j2: d for j2, d in dims.items() if d > 0}


def block_table(name: str, n: int, n_a: int, q2: int) -> list[tuple[int, int, int]]:
    """(2 q_A, d, b) of the sector with doubled charge q2, ascending in q_A."""
    dims_a = sector_dims(name, n_a)
    dims_b = sector_dims(name, n - n_a)
    if group(name) == "U1":
        pairs = ((qa2, d, dims_b.get(q2 - qa2, 0)) for qa2, d in dims_a.items())
    else:
        # b(j_A) = sum of D_B(j_B) over |j - j_A| <= j_B <= j + j_A, same
        # parity; prefix[x] sums D_B(j_B) over j_B < x with j_B = x mod 2
        top = max(max(dims_b), q2 + max(dims_a)) + 2
        prefix = [0] * (top + 2)
        for j2 in range(top):
            prefix[j2 + 2] = prefix[j2] + dims_b.get(j2, 0)
        pairs = ((ja2, d, prefix[q2 + ja2 + 2] - prefix[abs(q2 - ja2)])
                 for ja2, d in dims_a.items())
    return sorted(block for block in pairs if block[2] > 0)


def realizable_charges(name: str, n: int) -> list[int]:
    return sorted(sector_dims(name, n))


def snap(name: str, n: int, s: float) -> int:
    """Nearest realizable doubled charge to 2 s n; ties go to the lower one."""
    target = 2.0 * s * n
    return min(realizable_charges(name, n), key=lambda q2: (abs(q2 - target), q2))


def average_entropy(blocks) -> float:
    """sum (d b / D) [psi(D+1) - psi(max+1) - (min-1)/(2 max)] in mpmath."""
    dim = sum(d * b for _, d, b in blocks)
    with mpmath.workdps(40):
        psi_dim = mpmath.digamma(dim + 1)
        acc = mpmath.mpf(0)
        for _, d, b in blocks:
            big, small = max(d, b), min(d, b)
            acc += d * b * (psi_dim - mpmath.digamma(big + 1)
                            - mpmath.mpf(small - 1) / (2 * big))
        return float(acc / dim)


def schmidt_rank(blocks) -> int:
    return sum(min(d, b) for _, d, b in blocks)


def density_interval(name: str) -> tuple[float, float]:
    """Lowest and highest one-body charge, the ends of the density interval."""
    weights = sorted(weight_counts(name, 1))
    return weights[0] / 2, weights[-1] / 2
