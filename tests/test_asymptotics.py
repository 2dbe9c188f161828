import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chargepage.exactavg import exact_average_entropy
from chargepage.models import ChargeModel, catalog, catalog_names, lattice_step
from chargepage.sectors import sector_dims
from chargepage.thermo import DensityDomainError, density_interval, gibbs, \
    solve_beta_star, thermo_point
from chargepage.asymptotics import (
    DELTA_TOLERANCE, ExtremalChargeError, InfiniteTemperatureVarianceError,
    Regime, asymptotic_log_dim, average_entropy_asymptotic,
    charge_density_moments, variance_asymptotic,
)

from conftest import subsystem_charge_distribution


def test_asymptotic_log_dim_qubit_at_zero():
    model = catalog("u1-qubit")
    for n in (16, 64, 256):
        expected = math.log(math.sqrt(2 / (math.pi * n))) + n * math.log(2)
        assert abs(asymptotic_log_dim(model, 0.0, n) - expected) < 1e-12


def test_asymptotic_log_dim_converges_to_exact():
    model = catalog("su2-qubit")
    dims64 = sector_dims(model, 64).dims
    # j = 16 at s = 1/4: absolute log error is O(1/N), well under 0.05 by N=64
    assert abs(math.log(dims64[32]) - asymptotic_log_dim(model, 0.25, 64)) < 0.05


_U1_MODELS = st.dictionaries(st.integers(-4, 4), st.integers(1, 3), min_size=2,
                             max_size=3).map(lambda mult: ChargeModel("U1", mult))
_SU2_MODELS = st.dictionaries(st.integers(0, 3), st.integers(1, 2), min_size=1,
                              max_size=2).filter(lambda mult: set(mult) != {0}).map(
                                  lambda mult: ChargeModel("SU2", mult))


def _aliasing_radius(model: ChargeModel, s: float) -> float:
    """Largest secondary maximum of |phi|, phi the one-body characteristic
    function on the compressed charge lattice, tilted at beta*(s).

    The Gaussian sector-dimension formula misses aliased saddle points of
    relative size ~ rho^N, so it is O(1/N)-accurate only once rho^N is small.
    """
    probs = gibbs(model, solve_beta_star(model, s)).probs
    w_min, step = min(probs), lattice_step(model)
    k = np.array([(m2 - w_min) // step for m2 in probs])
    theta = np.linspace(0, 2 * np.pi, 1 << 14, endpoint=False)
    phi = np.abs(np.exp(1j * np.outer(theta, k)) @ np.array(list(probs.values())))
    peak = (phi > np.roll(phi, 1)) & (phi >= np.roll(phi, -1))
    peak[0] = False  # the main maximum phi(0) = 1
    return float(phi[peak].max(initial=0.0))


@settings(max_examples=30, deadline=None)
@given(model=st.one_of(_U1_MODELS, _SU2_MODELS), u=st.floats(0.3, 0.7))
@example(model=ChargeModel("U1", {-2: 1, 2: 1}), u=0.5)  # charge step 2
@example(model=ChargeModel("U1", {0: 1, 1: 1}), u=0.5)  # charge step 1/2
@example(model=ChargeModel("SU2", {0: 1, 1: 1}), u=0.5)  # spin step 1/2
@example(model=ChargeModel("U1", {-4: 1, -3: 2, 4: 1}), u=0.6875)  # rho = 0.975
def test_asymptotic_log_dim_matches_exact_for_custom_models(model, u):
    # exact minus asymptotic log-dimension is O(1/N) whatever the spacing of
    # the charge lattice, once the aliasing term rho^N is below 1e-3 (the
    # example above has N * err = 8.31 at N = 128, where rho^N = 0.038, and
    # 0.33 at N = 256). The worst rho of this family on u in {0.3, 0.5, 0.7}
    # is 0.9804, so n0 <= 349 there. Over 420 models of this family (the 20
    # of largest rho and 400 random ones) the worst N * |err| at (n0, 2 n0)
    # was 0.85; an error of log(step) would give N * |err| >= 88.
    lo, hi = density_interval(model)
    if model.group.value == "SU2":
        lo = 0.0
    s = lo + u * (hi - lo)
    rho = _aliasing_radius(model, s)
    n0 = max(128, math.ceil(math.log(1e-3) / math.log(rho))) if rho > 0 else 128
    for n in (n0, 2 * n0):
        dims = sector_dims(model, n).dims
        target = 2 * n * s
        q2 = min(dims, key=lambda q: (abs(q - target), q))
        err = math.log(dims[q2]) - asymptotic_log_dim(model, q2 / (2 * n), n)
        assert n * abs(err) < 8.0, (model, n, q2, err)


def test_asymptotic_log_dim_domain_errors():
    with pytest.raises(DensityDomainError):
        asymptotic_log_dim(catalog("u1-qubit"), 0.5, 32)
    with pytest.raises(ExtremalChargeError):
        asymptotic_log_dim(catalog("su2-qubit"), 0.0, 32)
    with pytest.raises(ValueError, match="n = 0 must be >= 1"):
        asymptotic_log_dim(catalog("u1-qubit"), 0.1, 0)


def test_charge_density_moments_qubit():
    mom = charge_density_moments(catalog("u1-qubit"), Fraction(1, 2), 0.0)
    assert abs(mom["variance"] - 0.25) < 1e-13  # -eta''(0) = 4
    assert mom["mean_shift"] == 0.0


def test_charge_density_moments_u1_shift_vanishes():
    for name in ("u1-qubit", "u1-qutrit", "u1-2bosons"):
        mom = charge_density_moments(catalog(name), Fraction(1, 3), 0.1)
        assert mom["mean_shift"] == 0.0


def test_charge_density_moments_su2_shift_matches_alpha_slope():
    model = catalog("su2-qutrit")
    s, h = 0.4, 1e-5
    mom = charge_density_moments(model, Fraction(1, 3), s)
    fd = (math.log(thermo_point(model, s + h).alpha0)
          - math.log(thermo_point(model, s - h).alpha0)) / (2 * h)
    assert abs(mom["mean_shift"] / mom["variance"] - fd) < 1e-7


def test_exact_distribution_moments_approach_coefficients():
    model = catalog("u1-qubit")
    errors = []
    for n in (32, 64, 128, 256):
        dist = subsystem_charge_distribution(model, n, n // 2, 0)
        assert abs(sum(p for _, p in dist.support) - 1.0) < 1e-12
        errors.append(abs(dist.central_moment(0.0, 2) * n - 0.25))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] * 256 < 1.0  # error is O(1/N)


def test_su2_finite_size_mean_shift_has_predicted_sign_and_size():
    model = catalog("su2-qutrit")
    n = 192
    q2 = sector_dims(model, n).snap(0.4)
    s = q2 / (2 * n)
    dist = subsystem_charge_distribution(model, n, n // 3, q2)
    shift = charge_density_moments(model, Fraction(1, 3), s)["mean_shift"]
    assert abs((dist.mean() - s) * n - shift) < 0.1 * abs(shift)


def test_regime_dispatch_is_exact():
    model = catalog("u1-qubit")
    assert average_entropy_asymptotic(model, Fraction(1, 2), 0.1).regime is Regime.F_HALF
    assert average_entropy_asymptotic(model, 0.5, 0.1).regime is Regime.F_HALF
    assert (average_entropy_asymptotic(model, Fraction(49, 100), 0.1).regime
            is Regime.F_BELOW_HALF)
    assert (average_entropy_asymptotic(model, Fraction(51, 100), 0.1).regime
            is Regime.F_ABOVE_HALF)
    for bad in (0, 1, Fraction(3, 2)):
        with pytest.raises(ValueError):
            average_entropy_asymptotic(model, bad, 0.1)


def test_u1_branch_formulas():
    model = catalog("u1-qubit")
    s = 0.2
    tp = thermo_point(model, s)
    below = average_entropy_asymptotic(model, Fraction(1, 4), s)
    assert abs(below.term_N - 0.25 * tp.eta) < 1e-14
    assert below.term_sqrtN == 0.0
    assert abs(below.term_O1 - (math.log(0.75) + 0.25) / 2) < 1e-14

    half = average_entropy_asymptotic(model, Fraction(1, 2), s)
    assert abs(half.term_N - 0.5 * tp.eta) < 1e-14
    assert abs(half.term_sqrtN + math.sqrt(tp.c_star / (2 * math.pi))) < 1e-14
    assert abs(half.term_O1 - (math.log(0.5) + 0.5) / 2) < 1e-14
    assert not half.includes_delta

    above = average_entropy_asymptotic(model, Fraction(3, 4), s)
    assert abs(above.term_N - 0.25 * tp.eta) < 1e-14
    assert abs(above.term_O1 - (math.log(0.75) + 0.25) / 2) < 1e-14


def test_delta_term_two_species_bosons():
    model = catalog("u1-2bosons")
    est = average_entropy_asymptotic(model, Fraction(1, 2), 2 / 3)
    assert est.includes_delta
    assert est.term_sqrtN == 0.0
    assert abs(est.term_O1 - ((math.log(0.5) + 0.5) / 2 - 0.5)) < 1e-12
    for s in (2 / 3 - 0.05, 2 / 3 + 0.05):
        shifted = average_entropy_asymptotic(model, Fraction(1, 2), s)
        assert not shifted.includes_delta
        assert shifted.term_sqrtN < 0
    off_half = average_entropy_asymptotic(model, Fraction(1, 4), 2 / 3)
    assert not off_half.includes_delta


def test_delta_and_sqrt_terms_mutually_exclusive():
    model = catalog("u1-qubit")
    est = average_entropy_asymptotic(model, Fraction(1, 2), 0.0)
    assert est.includes_delta and est.term_sqrtN == 0.0


def test_page_symmetry_of_leading_term():
    for name in catalog_names():
        model = catalog(name)
        s = 0.15 if model.group.value == "SU2" else 0.1
        for f in (Fraction(1, 5), Fraction(2, 5)):
            a = average_entropy_asymptotic(model, f, s)
            b = average_entropy_asymptotic(model, 1 - f, s)
            assert abs(a.term_N - b.term_N) < 1e-14


def test_u1_order_one_mirror():
    model = catalog("u1-qutrit")
    s = -0.2
    for f in (Fraction(1, 5), Fraction(3, 8)):
        below = average_entropy_asymptotic(model, f, s).term_O1
        above = average_entropy_asymptotic(model, 1 - f, s).term_O1
        ff = float(f)
        assert abs(below - (math.log(1 - ff) + ff) / 2) < 1e-14
        assert abs(above - (math.log(1 - ff) + ff) / 2) < 1e-14


def test_su2_asymmetry_closed_form():
    # the f <-> 1-f asymmetry of the totals is log(alpha0) +
    # beta* e^beta* / (1 - e^beta*), independent of f
    for name in ("su2-qubit", "su2-qutrit", "su2-trimer"):
        model = catalog(name)
        s = 0.25
        tp = thermo_point(model, s)
        eb = math.exp(tp.beta_star)
        expected = math.log(tp.alpha0) + tp.beta_star * eb / (1 - eb)
        for f in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
            diff = (average_entropy_asymptotic(model, f, s).total(48)
                    - average_entropy_asymptotic(model, 1 - f, s).total(48))
            assert abs(diff - expected) < 1e-10


def test_continuity_at_half():
    model = catalog("su2-trimer")
    s = 0.4
    tp = thermo_point(model, s)
    for f in (Fraction(4999, 10000), Fraction(5001, 10000)):
        est = average_entropy_asymptotic(model, f, s)
        assert abs(est.term_N - 0.5 * tp.eta) < 1e-3 * tp.eta


def test_u1_order_one_limit_matches_half_formula():
    model = catalog("u1-qubit")
    s = 0.25  # away from s_ast so no delta term at one half
    half_o1 = average_entropy_asymptotic(model, Fraction(1, 2), s).term_O1
    near = average_entropy_asymptotic(model, Fraction(499999, 10**6), s).term_O1
    assert abs(near - half_o1) < 1e-5


STEP_TWO_U1 = ChargeModel("U1", {0: 1, 4: 1})  # charges 0 and 2: lattice spacing 2
STEP_HALF_SU2 = ChargeModel("SU2", {0: 1, 1: 1})  # spins 0 and 1/2: lattice spacing 1/2


def test_entropy_term_breakdown_sums_to_estimate():
    cases = [(catalog("u1-qubit"), Fraction(1, 4), 0.1),
             (catalog("u1-qubit"), Fraction(1, 2), 0.1),
             (catalog("su2-trimer"), Fraction(1, 4), 0.6),
             (catalog("su2-trimer"), Fraction(2, 3), 0.6),
             (catalog("u1-2bosons"), Fraction(1, 2), 2 / 3),
             (STEP_TWO_U1, Fraction(1, 4), 0.7), (STEP_TWO_U1, Fraction(1, 2), 1.0),
             (STEP_HALF_SU2, Fraction(1, 2), 0.2), (STEP_HALF_SU2, Fraction(3, 4), 0.2)]
    for model, f, s in cases:
        est = average_entropy_asymptotic(model, f, s)
        y1, y2, y3 = est.y1, est.y2, est.y3
        assert abs(y1.term_logN + y2.term_logN + y3.term_logN) == 0.0
        assert abs(y1.term_N + y2.term_N + y3.term_N - est.term_N) < 1e-13
        assert abs(y1.term_sqrtN + y2.term_sqrtN + y3.term_sqrtN
                   - est.term_sqrtN) < 1e-13
        assert abs(y1.term_O1 + y2.term_O1 + y3.term_O1 - est.term_O1) < 1e-12


def _terms_at(terms, n):
    return (terms.term_N * n + terms.term_sqrtN * math.sqrt(n)
            + terms.term_logN * math.log(n) + terms.term_O1)


@pytest.mark.parametrize("model, s", [(STEP_TWO_U1, 0.7), (STEP_HALF_SU2, 0.2)])
def test_entropy_term_breakdown_matches_exact_terms_on_a_charge_lattice(model, s):
    # y1 = log D_q carries log(step) and y2 carries -log(step); leaving them
    # out shifts each residual by log(step) = +-log 2 at every N. An O(1/N)
    # residual keeps N*|r| fixed when N grows fourfold. The bound lets it grow
    # by sqrt(1600/400) = 2, the geometric midpoint between that and the
    # fourfold growth of an O(1) residual.
    scaled = {}
    for n in (400, 1600):
        q2 = round(2 * s * n)
        for f in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            exact = exact_average_entropy(model, n, int(f * n), q2)
            est = average_entropy_asymptotic(model, f, q2 / (2 * n))
            scaled[n, f, "y1"] = n * abs(exact.y1 - _terms_at(est.y1, n))
            if f != Fraction(1, 2):  # y2 at the half cut is O(1/sqrt(N)) off s_ast
                scaled[n, f, "y2"] = n * abs(exact.y2 - _terms_at(est.y2, n))
    for (n, f, term), value in scaled.items():
        if n == 1600:
            assert value <= math.sqrt(1600 / 400) * scaled[400, f, term], (f, term, scaled)


def test_entropy_term_breakdown_structure():
    model = catalog("u1-qubit")
    tp = thermo_point(model, 0.1)
    est = average_entropy_asymptotic(model, Fraction(1, 4), 0.1)
    assert abs(est.y1.term_N - tp.eta) < 1e-14
    assert abs(est.y2.term_N + 0.75 * tp.eta) < 1e-14
    assert est.y3.term_O1 == 0.0
    # delta point: y3 = -1/2 for U(1)
    at_delta = average_entropy_asymptotic(model, Fraction(1, 2), 0.0)
    assert abs(at_delta.y3.term_O1 + 0.5) < 1e-12
    off_delta = average_entropy_asymptotic(model, Fraction(1, 2), 0.1)
    assert off_delta.y3.term_O1 == 0.0


def test_variance_symmetric_under_fraction_exchange():
    model = catalog("su2-qutrit")
    s = 0.5
    a = variance_asymptotic(model, Fraction(1, 4), s)
    b = variance_asymptotic(model, Fraction(3, 4), s)
    assert a.log_coefficient == b.log_coefficient
    assert a.rate == b.rate


def test_variance_qubit_quarter_coefficient():
    model = catalog("u1-qubit")
    f, s = Fraction(1, 4), 0.25
    tp = thermo_point(model, s)
    expected = (math.sqrt(2 * math.pi) * (3 / 16) * tp.c_star**1.5
                / abs(tp.beta_star))
    got = variance_asymptotic(model, f, s)
    assert abs(got.log_coefficient - math.log(expected)) < 1e-12
    assert got.rate == tp.eta
    assert got.rate > 0


def test_variance_log_evaluation_and_half_deficit():
    model = catalog("u1-qubit")
    s = 0.25
    va = variance_asymptotic(model, Fraction(1, 2), s)
    n = 32
    assert abs(va.log_variance(n)
               - (va.log_coefficient + 1.5 * math.log(n) - n * va.rate)) < 1e-12
    # the delta_{f,1/2} counterterm lowers the half-system coefficient below
    # the smooth f(1-f) value
    smooth_geom = math.sqrt(2 * math.pi) * 0.25
    tp = thermo_point(model, s)
    smooth_coeff = math.log(smooth_geom * tp.c_star**1.5 / abs(tp.beta_star))
    assert va.log_coefficient < smooth_coeff


def test_variance_infinite_temperature_error():
    with pytest.raises(InfiniteTemperatureVarianceError):
        variance_asymptotic(catalog("u1-qubit"), Fraction(1, 2), 0.0)
    with pytest.raises(InfiniteTemperatureVarianceError):
        variance_asymptotic(catalog("u1-2bosons"), Fraction(1, 4), 2 / 3)


def test_su2_requires_positive_density():
    for f in (Fraction(1, 4), Fraction(1, 2)):
        for s in (0.0, 1e-12, -0.2):
            with pytest.raises(ExtremalChargeError):
                average_entropy_asymptotic(catalog("su2-trimer"), f, s)


def test_delta_tolerance_is_tight():
    model = catalog("u1-qubit")
    # beta* ~ -4s near zero, so s = 1e-3 is far outside the delta window
    est = average_entropy_asymptotic(model, Fraction(1, 2), 1e-3)
    assert not est.includes_delta
    assert DELTA_TOLERANCE == 1e-9


def test_total_evaluation():
    model = catalog("u1-qubit")
    est = average_entropy_asymptotic(model, Fraction(1, 4), 0.0)
    n = 64
    expected = est.term_N * n + est.term_O1
    assert abs(est.total(n) - expected) < 1e-12
