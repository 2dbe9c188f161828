import math

import pytest
from scipy.integrate import quad

from chargepage.laplace import (
    DegeneratePrefactorError, LaplaceProblem, NotAMaximumError, laplace_discontinuous,
)

GAUSS = LaplaceProblem(0.0, (-8.0, 8.0), (0, 0, -1, 0, 0), (1, 0, 0), (1, 0, 0))


def test_pure_gaussian_has_no_correction():
    for n in (10, 100, 1000):
        result = laplace_discontinuous(GAUSS, n)
        assert result["c_one"] == 0.0
        assert abs(result["value"] - math.sqrt(2 * math.pi / n)) < 1e-15


def test_cubic_tilt_correction_coefficient():
    # g = -t^2/2 + t^3/6: only the g'''^2 term of C1 survives and gives
    # -5 g'''^2 / (24 g''^3) = +5/24
    problem = LaplaceProblem(0.0, (-1.0, 1.5), (0, 0, -1, 1, 0), (1, 0, 0), (1, 0, 0))
    assert abs(laplace_discontinuous(problem, 50)["c_one"] - 5 / 24) < 1e-15


def test_smooth_error_scales_as_inverse_square():
    # h = exp(t) against the Gaussian: exact integral sqrt(2 pi/n) e^(1/2n),
    # so the relative error after the C1 term is 1/(8 n^2) + O(n^-3)
    problem = LaplaceProblem(0.0, (-8.0, 8.0), (0, 0, -1, 0, 0), (1, 1, 1), (1, 1, 1))
    for n in (100, 400, 1600):
        exact = math.sqrt(2 * math.pi / n) * math.exp(1 / (2 * n))
        rel = abs(laplace_discontinuous(problem, n)["value"] / exact - 1)
        assert abs(rel - 1 / (8 * n * n)) < 2 / n**3


def test_continuous_prefactor_reduces_to_smooth():
    problem = LaplaceProblem(0.0, (-3.0, 3.0), (0, 0, -1, 0, -1), (2, 1, 1), (2, 1, 1))
    assert laplace_discontinuous(problem, 250)["c_half"] == 0.0


def test_half_gaussian_step_prefactor():
    # h = theta(t): value is half the Gaussian with no half-power correction
    problem = LaplaceProblem(0.0, (-6.0, 6.0), (0, 0, -1, 0, 0), (0, 0, 0), (1, 0, 0))
    for n in (50, 500):
        result = laplace_discontinuous(problem, n)
        assert result["c_half"] == 0.0
        assert abs(result["value"] - 0.5 * math.sqrt(2 * math.pi / n)) < 1e-15
        ref, _ = quad(lambda t: math.exp(-n * t * t / 2), 0, 6, epsabs=0, epsrel=1e-13)
        assert abs(result["value"] / ref - 1) < 1e-10


def test_kink_only_prefactor_is_exact_for_gaussian():
    # h = 1 + |t| against exp(-n t^2/2): the exact integral is
    # sqrt(2 pi/n) + 2/n and the formula reproduces it to truncation error
    problem = LaplaceProblem(0.0, (-9.0, 9.0), (0, 0, -1, 0, 0), (1, -1, 0), (1, 1, 0))
    for n in (10, 80):
        result = laplace_discontinuous(problem, n)
        assert abs(result["c_half"] - 2 / math.sqrt(2 * math.pi)) < 1e-15
        exact = math.sqrt(2 * math.pi / n) + 2 / n
        assert abs(result["value"] - exact) < 1e-13


def test_derivative_step_coefficient_formula():
    # c_half = (2/sqrt(-2 pi g'')) (h+' - h-')/(h- + h+) when g''' = 0
    problem = LaplaceProblem(0.0, (-5.0, 5.0), (0, 0, -2, 0, 0), (3, -1, 0), (1, 2, 0))
    result = laplace_discontinuous(problem, 100)
    expected = (2 / math.sqrt(2 * math.pi * 2)) * (2 - (-1)) / (3 + 1)
    assert abs(result["c_half"] - expected) < 1e-15


def test_problem_validation():
    with pytest.raises(NotAMaximumError):
        LaplaceProblem(0.0, (-1, 1), (0, 0.5, -1, 0, 0), (1, 0, 0), (1, 0, 0))
    with pytest.raises(NotAMaximumError):
        LaplaceProblem(0.0, (-1, 1), (0, 0, 1.0, 0, 0), (1, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        LaplaceProblem(2.0, (-1, 1), (0, 0, -1, 0, 0), (1, 0, 0), (1, 0, 0))


def test_degenerate_prefactors():
    cancel = LaplaceProblem(0.0, (-1, 1), (0, 0, -1, 0, 0), (-1, 0, 0), (1, 0, 0))
    with pytest.raises(DegeneratePrefactorError):
        laplace_discontinuous(cancel, 10)
    zero = LaplaceProblem(0.0, (-1, 1), (0, 0, -1, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(DegeneratePrefactorError):
        laplace_discontinuous(zero, 10)
