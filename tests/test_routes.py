"""The pass rules of the three-route crosscheck, called as a library."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from chargepage import montecarlo, routes
from chargepage.exactavg import exact_average_entropy
from chargepage.models import catalog


def fake_mc_run(offset=None):
    """A stand-in for routes.mc_run: a mean ``offset`` standard errors of 0.01 from
    the exact value, or, with no offset, a refused sector."""
    def fake(config):
        if offset is None:
            raise montecarlo.SectorSizeError("sector refused")
        exact = exact_average_entropy(config.model, config.n_total, config.n_a,
                                      config.q_total).value
        return SimpleNamespace(mean=exact + offset * 0.01, std_error=0.01)
    return fake


def crosscheck_8():
    """The one row of u1-qubit at N = 8, f = 1/2, s = 0, at tol = 2 (the CLI default)."""
    (row,) = routes.crosscheck(catalog("u1-qubit"), Fraction(1, 2), 0.0, [8],
                               samples=100, seed=0, tol=2.0)
    return row


@pytest.mark.parametrize("offset, status", [
    (3.5, "pass"), (-3.5, "pass"), (4.5, "fail"), (-4.5, "fail")])
def test_crosscheck_monte_carlo_leg_fails_from_z_four(monkeypatch, offset, status):
    monkeypatch.setattr(routes, "mc_run", fake_mc_run(offset))
    row = crosscheck_8()
    assert row["status"] == status
    assert abs(row["z"] - abs(offset)) < 1e-9
    assert row["scaled_diff"] < 2.0  # the exact leg passes


def test_refused_monte_carlo_leg_beside_a_passing_exact_leg_is_skipped(monkeypatch):
    monkeypatch.setattr(routes, "mc_run", fake_mc_run())
    row = crosscheck_8()
    assert row["status"] == "skipped" and row["reason"] == "sector refused"
    assert row["mc_mean"] == row["z"] == ""
    assert row["scaled_diff"] < 2.0 and row["exact"] != ""


def test_refused_monte_carlo_leg_keeps_a_failed_crosscheck():
    # the exact-vs-asymptotic leg fails; the real Monte Carlo leg is refused
    (row,) = routes.crosscheck(catalog("u1-qubit"), Fraction(1, 2), 0.1, [4000],
                               samples=10, seed=0, tol=1e-9)
    assert row["status"] == "fail"
    assert row["scaled_diff"] >= 1e-9
    assert "2^1000" in row["reason"] and row["mc_mean"] == ""


@pytest.mark.parametrize("name, s", [("u1-qubit", 0.1), ("su2-qubit", 0.25)])
def test_scaled_diff_is_sqrt_n_at_the_half_cut_and_n_elsewhere(monkeypatch, name, s):
    # the half cut's leading remainder is O(1/sqrt(N)), every other cut's O(1/N)
    monkeypatch.setattr(routes, "mc_run", fake_mc_run(0.0))
    for f, scale in ((Fraction(1, 2), math.sqrt), (Fraction(1, 4), float),
                     (Fraction(3, 4), float)):
        rows = routes.crosscheck(catalog(name), f, s, [8, 16, 32], samples=10, seed=0,
                                 tol=1e9)
        assert [row["status"] for row in rows] == ["pass"] * 3
        for row in rows:
            assert row["abs_diff"] > 0
            assert row["scaled_diff"] == row["abs_diff"] * scale(row["n"])


def test_exact_leg_fails_from_scaled_diff_equal_to_tol(monkeypatch):
    monkeypatch.setattr(routes, "mc_run", fake_mc_run(0.0))
    scaled = crosscheck_8()["scaled_diff"]
    for tol, status in ((scaled, "fail"), (math.nextafter(scaled, math.inf), "pass")):
        (row,) = routes.crosscheck(catalog("u1-qubit"), Fraction(1, 2), 0.0, [8],
                                   samples=100, seed=0, tol=tol)
        assert row["status"] == status


def test_refusal_reason_of_a_huge_sector_stays_short():
    # su2-trimer N = 192 at the half cut: blocks about 2e83 wide, whose byte counts
    # printed in full made a 729-character reason
    (row,) = routes.crosscheck(catalog("su2-trimer"), Fraction(1, 2), 0.25, [192],
                               samples=10, seed=0, tol=2.0)
    assert row["mc_mean"] == "" and len(row["reason"]) < 200
    assert "e+83x" in row["reason"]
    assert row["reason"].endswith(f"over the {montecarlo.MAX_BATCH_BYTES}-byte sampler budget")
