"""Shared independent oracles for the test suite.

These deliberately avoid the library's convolution/difference code paths:
U(1) counts come from enumerating basis strings, SU(2) multiplicities from
an explicit angular-momentum ladder recursion, and complement blocks from a
weight-space invariant count. Larger sizes use a body-by-body convolution
(the library uses Miller's recurrence) and the explicit triangle-rule
double loop over complement spins (the library telescopes it). The Monte
Carlo oracle draws every complex amplitude of the sector and takes an SVD
per block, where the library only draws each block's Schmidt spectrum, and
``two_pass_entropies`` normalizes the library's own spectra before taking
-sum p log p, where the library keeps two running sums per row. The
full-space oracle uses no block table at all: it projects Haar states of the
whole k^n tensor space onto a sector and cuts them as a k^n_A x k^(n - n_A)
matrix in the spin basis.

Three reference routes check the library's other results:
``catalog_closed_forms`` gives the six catalog models' thermodynamics in
closed form (no root solver, no Gibbs sums); ``subsystem_charge_distribution``
is the exact finite-N law of the subsystem charge density, the reference for
``asymptotics.charge_density_moments``; ``run_laplace_suite`` measures how
fast the error of ``laplace.laplace_discontinuous`` falls against
``scipy.integrate.quad`` on ten analytic integrals.

``REDUCIBLE_PANEL`` holds five custom models that the catalog does not
cover: a gapped U(1) lattice, an asymmetric multiplicity, a non-mirrored
U(1) lattice, mixed half-integer spins and spin 0 + 2 x spin 1.

False failures: every statistical check runs on a fixed seed, so a change
to the draws re-rolls all of them at once. The rates stated beside the
checks add up to about 6.5e-3 per re-roll: criterion 07 3.0e-3, the U(1)
swap KS test 1.0e-3, the reducible panel 7.0e-4, the ten full-space checks
6.3e-4, the j > 0 gap rows 3e-4, the dense-oracle KS test 3e-4, four pairs
of |z| < 4 checks (small sectors, exact formula and two crosscheck CLI
tests) 5.1e-4 and the SVD route 6.3e-5. Criterion 08's ratio and the
concentration test each fail with probability below 1e-12.
"""

from __future__ import annotations

import itertools
import math
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import null_space

from chargepage import montecarlo
from chargepage.laplace import LaplaceProblem, laplace_discontinuous
from chargepage.models import ChargeModel, GroupKind, catalog, weight_multiplicities
from chargepage.sectors import block_table
from chargepage.thermo import ThermoPoint


def random_small_models():
    # U(1) charges on lattices of spacing 1, 2 or 3 in the doubled charge
    u1 = st.tuples(st.dictionaries(st.integers(-4, 4), st.integers(1, 2),
                                   min_size=2, max_size=3),
                   st.integers(1, 3)).map(
        lambda ms: ChargeModel(GroupKind.U1, {ms[1] * q2: a for q2, a in ms[0].items()})
    )
    su2 = st.dictionaries(st.integers(0, 4), st.integers(1, 2),
                          min_size=1, max_size=2).filter(
        lambda m: sum((j2 + 1) * a for j2, a in m.items()) >= 2
    ).map(lambda m: ChargeModel(GroupKind.SU2, m))
    return st.one_of(u1, su2)


REDUCIBLE_PANEL = (
    ChargeModel(GroupKind.U1, {-5: 1, -3: 1, 3: 1, 5: 1}),
    ChargeModel(GroupKind.U1, {-1: 1, 1: 2}),
    ChargeModel(GroupKind.U1, {0: 2, 2: 1, 6: 1}),
    ChargeModel(GroupKind.SU2, {1: 1, 3: 2}),
    ChargeModel(GroupKind.SU2, {0: 1, 2: 2}),
)


def total_dimension(table) -> int:
    """Recombine the sectors of a ``SectorTable``: equals k^n exactly."""
    if table.model.group is GroupKind.U1:
        return sum(table.dims.values())
    return sum((j2 + 1) * d for j2, d in table.dims.items())


def body_weight_list(model: ChargeModel) -> list[int]:
    """One doubled weight per one-body basis state (multiplicities expanded)."""
    out = []
    for m2, a in sorted(weight_multiplicities(model).items()):
        out.extend([m2] * a)
    return out


def brute_force_u1_counts(model: ChargeModel, n: int) -> dict[int, int]:
    """Charge histogram over all k^n basis strings."""
    weights = body_weight_list(model)
    return dict(Counter(map(sum, itertools.product(weights, repeat=n))))


def ladder_su2_dims(model: ChargeModel, n: int) -> dict[int, int]:
    """Spin multiplicities from coupling one body at a time (CG ladder)."""
    assert model.group is GroupKind.SU2
    local = dict(model.multiplicities)
    current = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for j2, count in current.items():
            for jl2, a in local.items():
                for jtot2 in range(abs(j2 - jl2), j2 + jl2 + 1, 2):
                    nxt[jtot2] = nxt.get(jtot2, 0) + count * a
        current = nxt
    return current


def brute_force_u1_blocks(model: ChargeModel, n: int, n_a: int,
                          q2: int) -> list[tuple[int, int, int]]:
    """(q_a, d, b) triples by enumerating A-side and B-side strings."""
    a_counts = brute_force_u1_counts(model, n_a)
    b_counts = brute_force_u1_counts(model, n - n_a)
    blocks = []
    for qa2, d in sorted(a_counts.items()):
        b = b_counts.get(q2 - qa2, 0)
        if b:
            blocks.append((qa2, d, b))
    return blocks


def su2_weight_space_b(model: ChargeModel, n_b: int, q2: int, qa2: int) -> int:
    """Complement block dimension as an invariant count in weight space.

    dim Inv(j* x j_A x loc^(N_B)) = W_tot(0) - W_tot(1), where W_tot is the
    weight histogram of the triple tensor product.
    """
    counts = Counter(dict(brute_force_su2_weight_counts(model, n_b)))
    for j2 in (q2, qa2):
        nxt: Counter = Counter()
        for m2, c in counts.items():
            for mj2 in range(-j2, j2 + 1, 2):
                nxt[m2 + mj2] += c
        counts = nxt
    return counts.get(0, 0) - counts.get(2, 0)


def brute_force_su2_weight_counts(model: ChargeModel, n: int) -> dict[int, int]:
    weights = body_weight_list(model)
    if n == 0:
        return {0: 1}
    return dict(Counter(map(sum, itertools.product(weights, repeat=n))))


def convolution_weight_counts(model: ChargeModel, n: int) -> dict[int, int]:
    """Doubled total-weight histogram by convolving one body at a time."""
    local = weight_multiplicities(model)
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for m2, c in counts.items():
            for w2, a in local.items():
                nxt[m2 + w2] = nxt.get(m2 + w2, 0) + c * a
        counts = nxt
    return counts


def triangle_blocks(model: ChargeModel, n: int, n_a: int,
                    q2: int) -> list[tuple[int, int, int]]:
    """(q_a, d, b) triples; SU(2) b sums complement spins over the triangle rule."""
    def dims(m):
        counts = convolution_weight_counts(model, m)
        if model.group is GroupKind.U1:
            return counts
        return {j2: w - counts.get(j2 + 2, 0) for j2, w in counts.items()
                if j2 >= 0 and w > counts.get(j2 + 2, 0)}

    a_dims, b_dims = dims(n_a), dims(n - n_a)
    blocks = []
    for qa2, d in sorted(a_dims.items()):
        if model.group is GroupKind.U1:
            b = b_dims.get(q2 - qa2, 0)
        else:
            b = sum(db for qb2, db in b_dims.items()
                    if (qa2 + qb2 + q2) % 2 == 0 and abs(qa2 - qb2) <= q2 <= qa2 + qb2)
        if b:
            blocks.append((qa2, d, b))
    return blocks


def dense_amplitudes(table, rng: np.random.Generator, samples: int) -> np.ndarray:
    """Unnormalized Haar-random sector states: i.i.d. complex Gaussian rows."""
    dim = table.sector_dimension
    return rng.standard_normal((samples, 2 * dim)).view(np.complex128)


def dense_schmidt_weights(table, amps: np.ndarray) -> np.ndarray:
    """Squared singular values of every block, one row per state (unnormalized)."""
    weights, offset = [], 0
    for _, d, b in table.blocks:
        block = amps[:, offset:offset + d * b].reshape(len(amps), d, b)
        offset += d * b
        weights.append(np.linalg.svd(block, compute_uv=False) ** 2)
    return np.concatenate(weights, axis=1)


def dense_entropies(table, rng: np.random.Generator, samples: int) -> np.ndarray:
    """Entanglement entropies of ``samples`` states drawn amplitude by amplitude."""
    p = dense_schmidt_weights(table, dense_amplitudes(table, rng, samples))
    p /= p.sum(axis=1, keepdims=True)
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)


def two_pass_entropies(config) -> np.ndarray:
    """Monte Carlo entropies of ``config`` by the two-pass formula: from
    montecarlo's own draws and spectra, concatenate every block's clamped
    spectrum, normalize each row, then take -sum p log p."""
    table = block_table(config.model, config.n_total, config.n_a, config.q_total)
    groups = sorted(Counter((min(d, b), max(d, b)) for _, d, b in table.blocks).items())
    dof = np.concatenate([
        np.tile(2.0 * np.r_[float(big) - np.arange(m), np.arange(m - 1, 0, -1)], count)
        for (m, big), count in groups])
    out = []
    for start in range(0, config.samples, montecarlo.CHUNK):
        rows = min(montecarlo.CHUNK, config.samples - start)
        draws = montecarlo._draw(dof, config.seed, start // montecarlo.CHUNK, rows)
        spectra, col = [], 0
        for (m, _), count in groups:
            block = draws[:, col:col + count * (2 * m - 1)].reshape(-1, 2 * m - 1)
            col += count * (2 * m - 1)
            spectra.append(montecarlo._spectra(block, m).reshape(rows, -1))
        p = np.maximum(np.concatenate(spectra, axis=1), 0.0)
        p /= p.sum(axis=1, keepdims=True)
        out.append(-(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1))
    return np.concatenate(out)


def _site_sum(local: np.ndarray, n: int) -> np.ndarray:
    """sum_i 1 x ... x local (at site i) x ... x 1 over n sites, site 0 leftmost."""
    k = len(local)
    return sum(np.kron(np.kron(np.eye(k**i), local), np.eye(k ** (n - 1 - i)))
               for i in range(n))


def full_space_sector_basis(model: ChargeModel, n: int, q2: int) -> np.ndarray:
    """Orthonormal columns spanning one sector inside the k^n tensor space.

    U(1): the basis strings of total doubled charge q2. SU(2): the
    highest-weight states of spin j = q2/2, the kernel of the total raising
    operator S+ among the strings of doubled S_z = q2.
    """
    if model.group is GroupKind.U1:
        charge = np.diag(_site_sum(np.diag(body_weight_list(model)), n))
        return np.eye(len(charge))[:, charge == q2]
    m2, raising = [], np.zeros((model.local_dim, model.local_dim))
    for j2, a in model.multiplicities:
        for _ in range(a):
            ms = np.arange(j2, -j2 - 1, -2)  # doubled m of one irrep, from m = j down
            i = len(m2) + np.arange(1, j2 + 1)
            # S+ |j m> = sqrt(j(j+1) - m(m+1)) |j m+1>; in doubled units
            raising[i - 1, i] = np.sqrt((j2 - ms[1:]) * (j2 + ms[1:] + 2)) / 2
            m2.extend(ms)
    in_sector = np.diag(_site_sum(np.diag(m2), n)) == q2
    kernel = null_space(_site_sum(raising, n)[:, in_sector])
    basis = np.zeros((model.local_dim**n, kernel.shape[1]))
    basis[in_sector] = kernel
    return basis


def full_space_entropies(model: ChargeModel, n: int, n_a: int, q2: int,
                         rng: np.random.Generator, samples: int) -> np.ndarray:
    """Spin-basis entanglement entropies of the first n_a sites, one per state.

    Each state is a complex Gaussian vector of the whole tensor space (a Haar
    state up to its norm) projected onto the sector; the entropy ignores the
    norm.
    """
    basis = full_space_sector_basis(model, n, q2)
    k = model.local_dim
    out = []
    for rows in np.array_split(np.arange(samples), max(1, samples // 2000)):
        g = rng.standard_normal((len(rows), 2 * k**n)).view(np.complex128)
        psi = (g @ basis) @ basis.T
        p = np.linalg.svd(psi.reshape(len(rows), k**n_a, k ** (n - n_a)),
                          compute_uv=False) ** 2
        p /= p.sum(axis=1, keepdims=True)
        out.append(-(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Closed-form thermodynamics of the six catalog models

def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def _qubit_forms(s: float) -> tuple[float, float, float, float]:
    eta = -_xlogx((1 - 2 * s) / 2) - _xlogx((1 + 2 * s) / 2)
    beta = math.log((1 - 2 * s) / (1 + 2 * s))
    c = (0.25 - s * s) * beta * beta
    eta_pp = -1.0 / (0.25 - s * s)
    return eta, beta, c, eta_pp


def _qutrit_forms(s: float) -> tuple[float, float, float, float]:
    r = math.sqrt(4 - 3 * s * s)
    eta = (-_xlogx((4 - 3 * s - r) / 6)
           - _xlogx((-1 + r) / 3)
           - _xlogx((4 + 3 * s - r) / 6))
    beta = math.log((-s + r) / (2 * (1 + s)))
    c = (r * (r - 1) / 12) * math.log((4 + 3 * s - r) / (4 - 3 * s - r)) ** 2
    eta_pp = -3.0 / (r * (r - 1))
    return eta, beta, c, eta_pp


def _twobosons_forms(s: float) -> tuple[float, float, float, float]:
    eta = math.log(3) - (1 - s) * math.log(3 * (1 - s)) - s * math.log(1.5 * s)
    beta = math.log((2 - 2 * s) / s)
    c = s * (1 - s) * beta * beta
    eta_pp = -1.0 / (s * (1 - s))
    return eta, beta, c, eta_pp


def _trimer_forms(s: float) -> tuple[float, float, float, float]:
    eta = -(3 - 2 * s) / 2 * math.log((3 - 2 * s) / 6) \
        - (3 + 2 * s) / 2 * math.log((3 + 2 * s) / 6)
    beta = math.log((3 - 2 * s) / (3 + 2 * s))
    c = (0.75 - s * s / 3) * beta * beta
    eta_pp = -1.0 / (0.75 - s * s / 3)
    return eta, beta, c, eta_pp


def catalog_closed_forms(name: str, s: float) -> ThermoPoint:
    """Closed-form ThermoPoint of a catalog model at an interior density s."""
    if name in ("u1-qubit", "su2-qubit"):
        eta, beta, c, eta_pp = _qubit_forms(s)
    elif name in ("u1-qutrit", "su2-qutrit"):
        eta, beta, c, eta_pp = _qutrit_forms(s)
    elif name == "u1-2bosons":
        eta, beta, c, eta_pp = _twobosons_forms(s)
    else:
        eta, beta, c, eta_pp = _trimer_forms(s)

    if catalog(name).group is GroupKind.U1:
        alpha0 = 1.0
    elif name == "su2-qubit":
        alpha0 = 4 * s / (1 + 2 * s)
    elif name == "su2-qutrit":
        r = math.sqrt(4 - 3 * s * s)
        alpha0 = (2 + 3 * s - r) / (2 * (1 + s))
    else:  # su2-trimer
        alpha0 = 4 * s / (3 + 2 * s)
    return ThermoPoint(beta_star=beta, eta=eta, eta_pp=eta_pp, c_star=c, alpha0=alpha0)


# ---------------------------------------------------------------------------
# Exact subsystem charge distribution

@dataclass(frozen=True)
class SubsystemChargeDistribution:
    """Exact finite-N distribution of the subsystem charge density t = q_A/N_A."""

    support: tuple[tuple[float, float], ...]

    def mean(self) -> float:
        return math.fsum(t * p for t, p in self.support)

    def central_moment(self, center: float, k: int) -> float:
        return math.fsum(p * (t - center) ** k for t, p in self.support)


def subsystem_charge_distribution(model: ChargeModel, n_total: int, n_a: int,
                                  q_total: int) -> SubsystemChargeDistribution:
    """Exact distribution of t = q_A/N_A built from big-integer block dimensions."""
    table = block_table(model, n_total, n_a, q_total)
    total = table.sector_dimension
    support = tuple(
        (qa2 / (2.0 * n_a), float(Fraction(d * b, total)))
        for qa2, d, b in table.blocks
    )
    return SubsystemChargeDistribution(support)


# ---------------------------------------------------------------------------
# Laplace toolkit against adaptive quadrature

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


def _quad_reference(g, h_minus, h_plus, problem, n):
    t1, t2 = problem.interval
    t0 = problem.t0
    lo, _ = quad(lambda t: h_minus(t) * math.exp(n * g(t)), t1, t0,
                 epsabs=0.0, epsrel=1e-13, limit=300)
    hi, _ = quad(lambda t: h_plus(t) * math.exp(n * g(t)), t0, t2,
                 epsabs=0.0, epsrel=1e-13, limit=300)
    return lo + hi


def run_laplace_suite(ns):
    """Error-scaling rows for the analytic suite vs adaptive quadrature.

    Each row's slope is the least-squares fit of log |relative error| against
    log n over two or more distinct n; past n ~ 10^5 the smooth rows' error
    (~n^-2) meets quad's epsrel of 1e-13.
    """
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
