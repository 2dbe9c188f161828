"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -rA or -s to see
them); a failure shows up as the usual pytest FAILED line for that
criterion.
"""

import math
import time
from fractions import Fraction

from chargepage.models import GroupKind, catalog, catalog_names
from chargepage.sectors import block_table, realizable_charges, sector_dims
from chargepage.thermo import density_interval, thermo_point
from chargepage.asymptotics import (
    asymptotic_log_dim, average_entropy_asymptotic,
)
from chargepage.exactavg import exact_average_entropy
from chargepage.montecarlo import McConfig, run

from conftest import brute_force_u1_counts, catalog_closed_forms, ladder_su2_dims, \
    run_laplace_suite

MC_MATRIX_SEED = 20240809


def _report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2}/11 ({name}): PASS{suffix}")


def interior_grid(name, points=99):
    model = catalog(name)
    lo, hi = density_interval(model)
    if model.group is GroupKind.SU2:
        lo = 0.0
    span = hi - lo
    return [lo + i * span / (points + 1) for i in range(1, points + 1)]


def test_criterion_01_exact_dimension_oracles():
    start = time.time()
    checked = 0
    for name in ("u1-qubit", "u1-qutrit", "u1-2bosons"):
        model = catalog(name)
        for n in range(1, 13):
            if model.local_dim**n > 3 * 10**7:
                continue
            assert sector_dims(model, n).dims == brute_force_u1_counts(model, n)
            checked += 1
    for name in ("su2-qubit", "su2-qutrit", "su2-trimer"):
        model = catalog(name)
        for n in range(1, 13):
            assert sector_dims(model, n).dims == ladder_su2_dims(model, n)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(1, "exact-dimension oracles",
            f"{checked} (model, N) tables, {elapsed:.1f}s")


def test_criterion_02_block_normalization_identity():
    count = 0
    for name in catalog_names():
        model = catalog(name)
        for n in range(2, 15):
            dims = sector_dims(model, n).dims
            for n_a in range(1, n):
                for q2, dim in dims.items():
                    table = block_table(model, n, n_a, q2)
                    assert sum(d * b for _, d, b in table.blocks) == dim
                    count += 1
    _report(2, "sum d*b = D_q exact", f"{count} block tables")


def test_criterion_03_closed_form_thermodynamics():
    start = time.time()
    for name in catalog_names():
        model = catalog(name)
        for s in interior_grid(name):
            tp = thermo_point(model, s)
            cf = catalog_closed_forms(name, s)
            assert abs(tp.eta - cf.eta) < 1e-10
            assert abs(tp.beta_star - cf.beta_star) < 1e-10
            assert abs(tp.c_star - cf.c_star) < 1e-10
            assert abs(tp.alpha0 - cf.alpha0) < 1e-10
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(3, "closed-form eta/beta*/c*/alpha0",
            f"6 models x 99 points, {elapsed:.2f}s")


def test_criterion_04_trimer_factorization():
    for s in interior_grid("su2-trimer"):
        tri = catalog_closed_forms("su2-trimer", s).eta
        qub = catalog_closed_forms("su2-qubit", s / 3).eta
        assert abs(tri - 3 * qub) < 1e-10
    _report(4, "trimer eta(s) = 3 qubit eta(s/3)")


def test_criterion_05_asymptotic_dimension_convergence():
    worst = 0.0
    for name, s in (("u1-qubit", 0.0), ("u1-qubit", 0.25), ("su2-qubit", 0.25)):
        model = catalog(name)
        for n in (16, 32, 64, 128):
            q2 = round(2 * s * n)
            exact_log = math.log(sector_dims(model, n).dims[q2])
            scaled = abs(exact_log - asymptotic_log_dim(model, s, n)) * n
            worst = max(worst, scaled)
            assert scaled < 1.0
    _report(5, "asymptotic log-dimension O(1/N)", f"worst N*|dlog| = {worst:.3f}")


def test_criterion_06_exact_vs_asymptotic_average():
    start = time.time()
    model = catalog("u1-qubit")
    n_list = (16, 24, 32, 48, 64)

    quarter = average_entropy_asymptotic(model, Fraction(1, 4), 0.0)
    worst = 0.0
    for n in n_list:
        exact = exact_average_entropy(model, n, n // 4, 0).value
        scaled = abs(exact - quarter.total(n)) * n
        worst = max(worst, scaled)
        assert scaled < 2.0

    half = average_entropy_asymptotic(model, Fraction(1, 2), 0.0)
    diffs = [abs(exact_average_entropy(model, n, n // 2, 0).value - half.total(n))
             for n in n_list]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(6, "exact vs asymptotic average",
            f"worst N*diff = {worst:.3f} at f=1/4; half-cut residual "
            f"{diffs[0]:.4f} -> {diffs[-1]:.4f}, {elapsed:.1f}s")


def _pick_mc_charges(model, n, n_a, count=2):
    """Two interior charges with sector sizes fit for a 1e5-sample run."""
    lattice = realizable_charges(model, n)
    max_dim, max_cost = 2500, 30000
    while True:
        candidates = []
        for q2 in lattice[1:-1]:
            table = block_table(model, n, n_a, q2)
            if table.sector_dimension > max_dim:
                continue
            cost = sum(min(d, b)**2 * max(d, b) for _, d, b in table.blocks)
            if cost > max_cost:
                continue
            if sum(min(d, b) for _, d, b in table.blocks) < 2:
                continue  # entropy would be identically zero
            candidates.append((-table.sector_dimension, q2))
        if len(candidates) >= count:
            break
        max_dim *= 2
        max_cost *= 2
    candidates.sort()
    return [q2 for _, q2 in candidates[:count]]


def test_criterion_07_monte_carlo_mean_agreement():
    start = time.time()
    worst_z = 0.0
    configs = 0
    for name in catalog_names():
        model = catalog(name)
        for n in (8, 12):
            for n_a in (n // 4, n // 2):
                for q2 in _pick_mc_charges(model, n, n_a):
                    exact = exact_average_entropy(model, n, n_a, q2).value
                    mc = run(McConfig(model, n, n_a, q2, 10**5, MC_MATRIX_SEED))
                    z = abs(mc.mean - exact) / mc.std_error
                    worst_z = max(worst_z, z)
                    configs += 1
                    # 6.3e-5 per sector, about 3.0e-3 over the 48
                    assert z < 4.0, (name, n, n_a, q2, z)
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(7, "Monte Carlo mean agreement",
            f"{configs} configs x 1e5 samples, worst z = {worst_z:.2f}, "
            f"{elapsed:.0f}s")


def test_criterion_08_typicality_trend():
    model = catalog("u1-qubit")
    var12 = run(McConfig(model, 12, 6, 0, 3000, 2024)).sample_variance
    var16 = run(McConfig(model, 16, 8, 0, 3000, 2024)).sample_variance
    ratio = var12 / var16
    # seeds 0-119 gave 13.98 +- 0.48 (lowest 12.74): a false failure needs a
    # 23-sigma fall, probability below 1e-12
    assert ratio >= 3.0
    _report(8, "variance suppression trend", f"var(12)/var(16) = {ratio:.1f}")


def test_criterion_09_laplace_toolkit_scaling():
    start = time.time()
    rows = run_laplace_suite((100, 1000, 10000))
    assert len(rows) == 10
    for row in rows:
        assert abs(row["slope"] - row["target"]) <= 0.15, row
    elapsed = time.time() - start
    assert elapsed < 30.0
    worst = max(abs(r["slope"] - r["target"]) for r in rows)
    _report(9, "Laplace error exponents",
            f"10 integrands, worst slope offset {worst:.3f}, {elapsed:.1f}s")


def test_criterion_10_delta_term_and_infinite_temperature():
    model = catalog("u1-2bosons")
    s_ast = 2 / 3

    at = average_entropy_asymptotic(model, Fraction(1, 2), s_ast)
    assert at.includes_delta
    assert at.term_sqrtN == 0.0
    # the O(1) term carries the -1/2 on top of the universal half-cut constant
    assert abs(at.term_O1 - ((math.log(0.5) + 0.5) / 2 - 0.5)) < 1e-12

    for s in (s_ast - 0.05, s_ast + 0.05):
        off = average_entropy_asymptotic(model, Fraction(1, 2), s)
        assert not off.includes_delta
        assert off.term_sqrtN < 0.0

    # exact-formula differences between the snapped sectors at N = 24 have
    # the sign the leading term predicts: eta peaks at s_ast
    n = 24
    q_ast = sector_dims(model, n).snap(s_ast)
    exact_ast = exact_average_entropy(model, n, n // 2, q_ast).value
    for s in (s_ast - 0.05, s_ast + 0.05):
        q2 = sector_dims(model, n).snap(s)
        assert q2 != q_ast
        exact_off = exact_average_entropy(model, n, n // 2, q2).value
        leading_gap = (thermo_point(model, s_ast).eta
                       - thermo_point(model, q2 / (2 * n)).eta)
        assert leading_gap > 0
        assert exact_ast - exact_off > 0
    _report(10, "delta term and infinite temperature")


def test_criterion_11_su2_fraction_asymmetry():
    model = catalog("su2-qubit")
    s, n = 0.25, 48
    total_quarter = average_entropy_asymptotic(model, Fraction(1, 4), s).total(n)
    total_three_quarters = average_entropy_asymptotic(model, Fraction(3, 4), s).total(n)
    tp = thermo_point(model, s)
    eb = math.exp(tp.beta_star)
    # the SU(2) branches carry +(1-f)X below half and -(1-f)X above, with
    # X = beta* e^beta*/(1 - e^beta*), so mirrored fractions differ by
    # log(alpha0) + [(1-f) + f] X = log(alpha0) + X for every f
    expected = math.log(tp.alpha0) + tp.beta_star * eb / (1 - eb)
    assert abs((total_quarter - total_three_quarters) - expected) < 1e-10
    _report(11, "SU(2) f-asymmetry closed form",
            f"diff = {total_quarter - total_three_quarters:.6f}")
