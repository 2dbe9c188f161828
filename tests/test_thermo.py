import math

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chargepage.models import ChargeModel, GroupKind, catalog, catalog_names, \
    weight_multiplicities
from chargepage.thermo import (
    DegenerateModelError, DensityDomainError, density_interval, gibbs,
    infinite_temperature_density, solve_beta_star, thermo_point,
)

from conftest import catalog_closed_forms, random_small_models


def interior_grid(name, points=25):
    model = catalog(name)
    lo, hi = density_interval(model)
    if model.group is GroupKind.SU2:
        lo = 0.0
    span = hi - lo
    return [lo + i * span / (points + 1) for i in range(1, points + 1)]


def test_gibbs_infinite_temperature_qubit():
    dist = gibbs(catalog("u1-qubit"), 0.0)
    assert dist.probs == {-1: 0.5, 1: 0.5}


def test_gibbs_infinite_temperature_two_species_bosons():
    dist = gibbs(catalog("u1-2bosons"), 0.0)
    assert abs(dist.probs[0] - 1 / 3) < 1e-15
    assert abs(dist.probs[2] - 2 / 3) < 1e-15


def test_gibbs_trimer_mean_is_tanh():
    model = catalog("su2-trimer")
    for beta in (-3.0, -0.7, 0.0, 0.4, 2.5):
        assert abs(gibbs(model, beta).mean() + 1.5 * math.tanh(beta / 2)) < 1e-13


def test_gibbs_survives_extreme_beta():
    for name in catalog_names():
        for beta in (-600.0, 600.0):
            dist = gibbs(catalog(name), beta)
            assert abs(math.fsum(dist.probs.values()) - 1.0) < 1e-14
            assert all(math.isfinite(p) for p in dist.probs.values())
    with pytest.raises(ValueError):
        gibbs(catalog("u1-qubit"), math.inf)


def test_gibbs_log_z_matches_mpmath_log_sum_exp():
    for name in catalog_names():
        model = catalog(name)
        for beta in (-800.0, -1.0, 0.0, 1.0, 800.0):
            with mpmath.workdps(50):
                ref = float(mpmath.log(mpmath.fsum(
                    a * mpmath.exp(-mpmath.mpf(beta) * m2 / 2)
                    for m2, a in weight_multiplicities(model).items())))
            assert abs(gibbs(model, beta).log_z - ref) <= 1e-15 * max(1.0, abs(ref))


def test_gibbs_mean_strictly_decreasing_in_beta():
    for name in catalog_names():
        model = catalog(name)
        betas = [-4.0, -1.0, 0.0, 1.0, 4.0]
        means = [gibbs(model, b).mean() for b in betas]
        assert all(a > b for a, b in zip(means, means[1:]))


def test_beta_star_qubit_closed_form():
    model = catalog("u1-qubit")
    for s in (-0.4, -0.1, 0.0, 0.25, 0.45):
        assert abs(solve_beta_star(model, s) + 2 * math.atanh(2 * s)) < 1e-11
    assert abs(solve_beta_star(model, 0.25) + math.log(3)) < 1e-11


def test_beta_star_su2_qutrit_closed_form():
    model = catalog("su2-qutrit")
    for s in (0.05, 0.3, 0.62, 0.9):
        expected = math.log((-s + math.sqrt(4 - 3 * s * s)) / (2 * (1 + s)))
        assert abs(solve_beta_star(model, s) - expected) < 1e-11


def test_beta_star_vanishes_at_infinite_temperature_density():
    for name in catalog_names():
        model = catalog(name)
        s_ast = infinite_temperature_density(model)
        # the first bisection midpoint, beta = 0, has mean exactly s*
        assert solve_beta_star(model, s_ast) == 0.0


@settings(max_examples=200, deadline=None)
@given(model=random_small_models())
# here sum(m a) / k is one ulp above the Gibbs mean 5/6
@example(model=ChargeModel(GroupKind.U1, {-1: 2, 2: 2, 4: 2}))
def test_beta_star_vanishes_at_infinite_temperature_density_of_custom_models(model):
    lo, hi = density_interval(model)
    assume(lo < hi)
    assert solve_beta_star(model, infinite_temperature_density(model)) == 0.0


def test_beta_star_round_trip_mean():
    for name in catalog_names():
        model = catalog(name)
        for s in interior_grid(name, points=9):
            beta = solve_beta_star(model, s)
            assert abs(gibbs(model, beta).mean() - s) < 1e-12


def test_beta_star_domain_errors():
    model = catalog("u1-qubit")
    for s in (-0.5, 0.5, 0.7, -2.0):
        with pytest.raises(DensityDomainError):
            solve_beta_star(model, s)
    with pytest.raises(DegenerateModelError):
        solve_beta_star(ChargeModel(GroupKind.SU2, {0: 2}), 0.0)


def test_infinite_temperature_density_examples():
    assert infinite_temperature_density(catalog("u1-qubit")) == 0.0
    assert abs(infinite_temperature_density(catalog("u1-2bosons")) - 2 / 3) < 1e-15
    assert infinite_temperature_density(catalog("su2-qubit")) == 0.0


def test_thermo_point_qubit_at_zero():
    tp = thermo_point(catalog("u1-qubit"), 0.0)
    assert abs(tp.eta - math.log(2)) < 1e-13
    assert abs(tp.beta_star) < 1e-12
    assert abs(tp.c_star) < 1e-20
    assert tp.alpha0 == 1.0


def test_thermo_point_qubit_at_quarter():
    tp = thermo_point(catalog("u1-qubit"), 0.25)
    eta_expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
    c_expected = (3 / 16) * math.log(3) ** 2
    assert abs(tp.eta - eta_expected) < 1e-12
    assert abs(tp.c_star - c_expected) < 1e-11
    assert abs(eta_expected - 0.562335) < 1e-6
    assert abs(c_expected - 0.226303) < 1e-6


def test_thermo_point_su2_qubit_alpha0():
    tp = thermo_point(catalog("su2-qubit"), 0.25)
    u1 = thermo_point(catalog("u1-qubit"), 0.25)
    assert abs(tp.eta - u1.eta) < 1e-12
    assert abs(tp.c_star - u1.c_star) < 1e-12
    assert abs(tp.alpha0 - 2 / 3) < 1e-12  # 4s/(1+2s) at s = 1/4


def test_eta_two_routes_agree():
    # reimplement the relative-entropy route independently of thermo_point
    for name in catalog_names():
        model = catalog(name)
        weights = weight_multiplicities(model)
        k = model.local_dim
        for s in interior_grid(name, points=15):
            tp = thermo_point(model, s)
            probs = gibbs(model, tp.beta_star).probs
            kl = math.fsum(p * math.log(p * k / weights[m2])
                           for m2, p in probs.items())
            assert abs((math.log(k) - kl) - tp.eta) < 1e-12


@settings(max_examples=300, deadline=None)
@given(model=random_small_models(), t=st.floats(1e-3, 1 - 1e-3))
def test_eta_kl_form_matches_legendre_form_on_custom_models(model, t):
    # thermo_point returns the Legendre form log Z + beta* s; log k minus the
    # relative entropy to the infinite-temperature distribution must agree
    lo, hi = density_interval(model)
    assume(lo < hi)
    s = lo + t * (hi - lo)
    tp = thermo_point(model, s)
    weights = weight_multiplicities(model)
    k = model.local_dim
    kl = math.fsum(p * math.log(p * k / weights[m2])
                   for m2, p in gibbs(model, tp.beta_star).probs.items() if p > 0)
    assert abs((math.log(k) - kl) - tp.eta) <= 1e-10 * max(1.0, abs(tp.eta))


def test_eta_derivative_is_beta_star():
    step = 1e-4
    for name in catalog_names():
        model = catalog(name)
        for s in interior_grid(name, points=7):
            fd = (thermo_point(model, s + step).eta
                  - thermo_point(model, s - step).eta) / (2 * step)
            assert abs(fd - thermo_point(model, s).beta_star) < 1e-6


def test_eta_concave_and_heat_capacity_positive():
    for name in catalog_names():
        model = catalog(name)
        s_ast = infinite_temperature_density(model)
        for s in interior_grid(name, points=15):
            tp = thermo_point(model, s)
            assert tp.eta_pp < 0
            assert tp.c_star >= 0
            assert abs(tp.c_star - tp.beta_star**2 / (-tp.eta_pp)) < 1e-12
            assert 0 <= tp.eta <= math.log(model.local_dim) + 1e-12
        assert thermo_point(model, s_ast).c_star < 1e-18


def test_eta_at_infinite_temperature_is_log_k():
    for name in catalog_names():
        model = catalog(name)
        tp = thermo_point(model, infinite_temperature_density(model))
        assert abs(tp.eta - math.log(model.local_dim)) < 1e-12


def test_su2_negative_temperature_for_positive_density():
    for name in ("su2-qubit", "su2-qutrit", "su2-trimer"):
        model = catalog(name)
        for s in interior_grid(name, points=9):
            assert thermo_point(model, s).beta_star < 0


def test_closed_forms_match_generic_solver():
    for name in catalog_names():
        for s in interior_grid(name, points=15):
            tp = thermo_point(catalog(name), s)
            cf = catalog_closed_forms(name, s)
            assert abs(tp.eta - cf.eta) < 1e-10
            assert abs(tp.beta_star - cf.beta_star) < 1e-10
            assert abs(tp.c_star - cf.c_star) < 1e-10
            assert abs(tp.alpha0 - cf.alpha0) < 1e-10
            assert abs(tp.eta_pp - cf.eta_pp) < 1e-10 * max(1, abs(cf.eta_pp))


def test_trimer_eta_factors_into_qubits():
    for s in interior_grid("su2-trimer", points=15):
        tri = catalog_closed_forms("su2-trimer", s).eta
        qub = catalog_closed_forms("su2-qubit", s / 3).eta
        assert abs(tri - 3 * qub) < 1e-12


def test_qutrit_eta_same_for_both_groups():
    for s in interior_grid("su2-qutrit", points=15):
        assert (catalog_closed_forms("u1-qutrit", s).eta
                == catalog_closed_forms("su2-qutrit", s).eta)


def test_two_species_bosons_eta_peaks_at_log3():
    assert abs(catalog_closed_forms("u1-2bosons", 2 / 3).eta - math.log(3)) < 1e-14

