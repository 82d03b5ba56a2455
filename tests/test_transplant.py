"""Tests for the transplantation machinery and the two main verifications."""

import math

import numpy as np
import pytest

from trispec import certify
from trispec.certify import Sector
from trispec.equilateral import SIGMA_COEFF, enumerate_modes, exact_sum_q
from trispec.geometry import C_funcs
from trispec.transplant import (
    condCh_verify,
    lemtrace_lhs,
    prop_unknown_branch,
    theorem1_verify,
    theorem2_verify,
)
from trispec.transplant import _transplant_certificate

SQ3 = math.sqrt(3.0)


def test_inflation_identity_map():
    # Mapping a triangle to itself never inflates energy, whatever the
    # y-share is.
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = rng.uniform(0.5, 4.0)
        gamma = rng.uniform(0.0, 1.0)
        assert abs(lemtrace_lhs(b, 0.0, b, gamma) - 1.0) < 1e-14


def test_inflation_equilateral_target_closed_form():
    # Source (0, b) to target (0, sqrt(3)): the factor collapses to
    # (1 - g) + b^2 g / 3 and crosses its threshold exactly at g = 3/4.
    rng = np.random.default_rng(3)
    for _ in range(50):
        b = rng.uniform(SQ3 + 1e-6, 6.0)
        gamma = rng.uniform(0.0, 1.0)
        lhs = lemtrace_lhs(b, 0.0, SQ3, gamma)
        closed = (1.0 - gamma) + b * b * gamma / 3.0
        assert abs(lhs - closed) < 1e-12 * max(1.0, closed)

    for b in (1.8, 2.5, 5.0):
        c_eq = 4.0 / (1.0 + b * b)
        at_split = lemtrace_lhs(b, 0.0, SQ3, 0.75)
        assert abs(at_split - 1.0 / c_eq) < 1e-12 / c_eq
        below = lemtrace_lhs(b, 0.0, SQ3, 0.74)
        above = lemtrace_lhs(b, 0.0, SQ3, 0.76)
        assert below < 1.0 / c_eq < above


def test_inflation_right_target_closed_form():
    # Shift of -+1 against apex height 2 sqrt(3) gives the twelve-
    # denominator form, the same bit for bit for both reflections.
    rng = np.random.default_rng(11)
    for _ in range(50):
        b = rng.uniform(SQ3, 6.0)
        gamma = rng.uniform(0.0, 1.0)
        closed = (13.0 * (1.0 - gamma) + b * b * gamma) / 12.0
        plus = lemtrace_lhs(b, 1.0, 2.0 * SQ3, gamma)
        assert abs(plus - closed) < 1e-12
        assert lemtrace_lhs(b, -1.0, 2.0 * SQ3, gamma) == plus


def test_inflation_affine_in_fractions():
    rng = np.random.default_rng(19)
    for _ in range(25):
        b = rng.uniform(0.5, 4.0)
        c = rng.uniform(-1.0, 1.0)
        d = rng.uniform(0.5, 4.0)

        def f(gamma):
            return lemtrace_lhs(b, c, d, gamma)

        g0, g1 = sorted(rng.uniform(0.0, 1.0, size=2))
        assert abs(f((g0 + g1) / 2.0) - (f(g0) + f(g1)) / 2.0) < 1e-12


def test_branch_selection():
    assert prop_unknown_branch(2.0, 0.5) == "equilateral"
    assert prop_unknown_branch(3.0, 0.9) == "right"
    # right branch survives right at the split, barely above the corner
    assert prop_unknown_branch(SQ3 + 1e-9, 0.75) == "right"
    with pytest.raises(ValueError, match="apex height"):
        prop_unknown_branch(SQ3, 0.5)
    with pytest.raises(ValueError, match="apex height"):
        prop_unknown_branch(1.0, 0.5)
    with pytest.raises(ValueError, match="gamma"):
        prop_unknown_branch(2.0, 1.5)


def test_branch_guard_holds_everywhere():
    # The right-branch inequality is strict for every b above sqrt(3) and
    # every gamma from the split upward, so the guard never raises.
    rng = np.random.default_rng(23)
    for _ in range(200):
        b = rng.uniform(SQ3 + 1e-9, 8.0)
        gamma = rng.uniform(0.75, 1.0)
        assert prop_unknown_branch(b, gamma) == "right"


def test_certificate_tracks_branch():
    check, info = _transplant_certificate(2.5, 0.41, 1, "equilateral")
    assert check["branch"] == "equilateral"
    assert check["lhs"] == info["factor_equilateral"]
    assert check["rhs"] == info["threshold_equilateral"]
    assert check["verdict"] == "pass"
    # with this gamma the right factor exceeds its threshold, and that
    # is fine: only the selected branch carries a verdict
    assert info["factor_right"] > info["threshold_right"]

    check, info = _transplant_certificate(3.0, 0.9, 2, "right")
    assert check["branch"] == "right"
    assert check["lhs"] == info["factor_right"]
    assert check["rhs"] == info["threshold_right"]
    assert check["verdict"] == "pass"
    # one factor serves both reflections T(+-1, 2 sqrt(3))
    for sign in (1.0, -1.0):
        assert lemtrace_lhs(3.0, sign, 2.0 * SQ3, 0.9) == check["lhs"]


def test_C_funcs_values():
    c, ctilde = C_funcs(SQ3)
    assert abs(c - 1.0) < 1e-12
    assert abs(ctilde - 1.0) < 1e-12
    assert C_funcs(2.5)[1] == pytest.approx((13.0 * 6.25 + 81.0) / 250.0)
    with pytest.raises(ValueError):
        C_funcs(0.0)
    # the weakened profile dominates the exact one on the whole segment
    for b in np.linspace(SQ3, 2.5, 40):
        c, ctilde = C_funcs(float(b))
        assert ctilde >= c - 1e-12
    assert C_funcs(2.0)[1] > C_funcs(2.0)[0]


def test_condCh_report():
    r = condCh_verify(2.5)
    assert r["verdict"] == "pass"
    eq, strict, mono = r["checks"]
    assert eq["mode"] == "=="
    assert abs(eq["lhs"] - eq["rhs"]) < 1e-12
    assert strict["margin"] > 0
    assert SQ3 < strict["worst_b"] < 2.5
    assert mono["verdict"] == "pass"
    assert r["ctilde"] == pytest.approx(C_funcs(2.5)[1])

    # so close to sqrt(3) that the grid collapses onto its ends
    with pytest.raises(ValueError, match="too close to sqrt"):
        condCh_verify(math.nextafter(SQ3, 3))
    with pytest.raises(ValueError, match="endpoint"):
        condCh_verify(SQ3)
    # refused before any float overflows into a NaN report; 1e100 squared
    # is finite, but the grid's right side overflowed
    for h in (math.inf, 1e200, 1e100):
        with pytest.raises(ValueError, match="too large"):
            condCh_verify(h)
    # from about 3e8 on the right side saturates at 0.15 on the grid's top
    # points, so its decrease is decided from the exact sign of h^2 - 3
    for h in (1e8, 1e10, 1e60):
        r = condCh_verify(h)
        assert r["verdict"] == "pass", h
        assert r["checks"][-1]["lhs"] == pytest.approx(h * h)


def test_theorem1_validation():
    with pytest.raises(ValueError, match="apex height"):
        theorem1_verify(1.0, 1, 6)
    with pytest.raises(ValueError, match="n must"):
        theorem1_verify(2.0, 0, 6)


def test_theorem1_single_case():
    r = theorem1_verify(2.5, 1, 6)[-1]
    assert r["verdict"] == "pass"
    assert r["branch"] == "equilateral"
    assert r["fem_sum"] * r["diameter_squared"] > 3.0 * SIGMA_COEFF
    assert r["target"] == pytest.approx(3.0 * SIGMA_COEFF)
    # every target's factor is reported even though only one is checked
    assert r["factors"]["threshold_right"] == pytest.approx(
        11.0 * 7.25 / 96.0)


def test_theorem1_equilateral_endpoint():
    # At b = sqrt(3) the statement is an equality; the FEM value must sit
    # within half a percent of the exact two-tone sum and the verdict must
    # not be an outright fail.
    r = theorem1_verify(SQ3, 2, 6)[-1]
    exact = SIGMA_COEFF * exact_sum_q(2)
    assert abs(r["fem_sum"] * r["diameter_squared"] - exact) < 0.005 * exact
    assert r["verdict"] in ("pass", "inconclusive")


def test_theorem1_sweep():
    for b in (2.0, 4.0):
        for n in (1, 2, 3, 6):
            r = theorem1_verify(b, n, 6)[-1]
            assert r["verdict"] == "pass", (b, n, r)
            for chk in r["checks"]:
                assert chk["verdict"] == "pass"


def test_theorem1_every_n_reads_one_solve():
    # the cases of one n_max = 6 run match separate runs that stop at n
    for b in (2.0, 4.0):
        cases = theorem1_verify(b, 6, 5)
        assert [c["n"] for c in cases] == [1, 2, 3, 4, 5, 6]
        for n in range(1, 6):
            alone = theorem1_verify(b, n, 5)[-1]
            case = cases[n - 1]
            for key in ("fem_sum", "gamma_n"):
                assert case[key] == pytest.approx(alone[key], rel=1e-12)
            assert case["fem_err"] == pytest.approx(alone["fem_err"],
                                                    rel=1e-9)
            assert case["verdict"] == alone["verdict"]
            assert [c["verdict"] for c in case["checks"]] == \
                [c["verdict"] for c in alone["checks"]]


def test_theorem1_min_target_invariant():
    # The verified bound always clears the smaller of the two exact
    # targets, and the equilateral one is the smaller by the integer
    # comparison, so the report's target must equal that minimum.
    rng = np.random.default_rng(41)
    for _ in range(3):
        b = float(rng.uniform(1.8, 5.0))
        n = int(rng.integers(1, 5))
        r = theorem1_verify(b, n, 5)[-1]
        eq_target = SIGMA_COEFF * exact_sum_q(n)
        # the right triangle's spectrum is the antisymmetric one of the
        # sidelength-4 equilateral: q * SIGMA_COEFF / 16
        anti = enumerate_modes(n, mode_class="antisym")
        right_target = (6.0 / 11.0) * 16.0 * sum(
            m.q * SIGMA_COEFF / 16.0 for m in anti)
        assert eq_target < right_target
        assert r["target"] == pytest.approx(min(eq_target, right_target))
        lhs = r["fem_sum"] * r["diameter_squared"]
        assert lhs - 3.0 * r["fem_err"] * r["diameter_squared"] > r["target"]


def test_theorem2_validation():
    with pytest.raises(ValueError, match="b >= sqrt"):
        theorem2_verify(1.5, 7)


def test_theorem2_sector_branch():
    r = theorem2_verify(2.5, 6)
    assert r["verdict"] == "pass"
    assert r["branch"] == "sector"
    sector_check = next(c for c in r["checks"] if "sector" in c["claim"]
                        and "nu" in c)
    # aperture 2 arctan(2/5): half order about 4.128, Bessel zero squared
    # about 126.10, safely above the target 112 pi^2 / 9 = 122.82
    assert abs(sector_check["nu"] - 4.1282) < 1e-3
    assert abs(sector_check["lhs"] - 126.10) < 0.01
    assert sector_check["lhs"] > 112.0 * math.pi ** 2 / 9.0
    assert r["fem_second"] * r["diameter_squared"] > 7.0 * SIGMA_COEFF


def test_theorem2_sector_branch_ranks_the_sector_spectrum(monkeypatch):
    # were family (2, 1) below (1, 2), it would be the sector's second tone
    original = certify.sector_eigenvalue

    def swapped(s, k, j):
        return 0.99 * original(s, 1, 2) if (k, j) == (2, 1) \
            else original(s, k, j)

    monkeypatch.setattr(certify, "sector_eigenvalue", swapped)
    b = 3.0
    r = theorem2_verify(b, 4)
    sector_check = next(c for c in r["checks"]
                        if c["claim"].startswith("containing-sector"))
    sector = Sector(math.sqrt(1.0 + b * b), 2.0 * math.atan(1.0 / 2.5))
    assert sector_check["lhs"] == pytest.approx(
        0.99 * original(sector, 1, 2) * (1.0 + b * b), rel=1e-14)


def test_theorem2_interpolation_branch():
    r = theorem2_verify(2.0, 6)
    assert r["verdict"] == "pass"
    assert r["branch"] == "interpolation"
    # the chain nests the reduction and the certified endpoint as
    # sub-reports with their own verdicts
    nested = [c for c in r["checks"] if "checks" in c]
    assert len(nested) == 2
    assert all(c["verdict"] == "pass" for c in nested)


def test_theorem2_tone_order_follows_the_fem_error_policy():
    # at level 3 the extrapolated tones of T(0, 30) swap inside their
    # error bars: lhs 3.677 > rhs 3.658 with fem error 4.2, which is no
    # evidence either way, not a failed order
    r = theorem2_verify(30.0, 3)
    order = r["checks"][1]
    assert order["claim"] == "FEM tones are ordered"
    assert order["lhs"] > order["rhs"]
    assert order["fem_error"] > 3.0 * (order["lhs"] - order["rhs"])
    assert order["verdict"] == "inconclusive"
    assert r["verdict"] != "fail"


def test_theorem2_equilateral_endpoint():
    r = theorem2_verify(SQ3, 6)
    assert r["verdict"] in ("pass", "inconclusive")
    fem_check = r["checks"][0]
    assert abs(fem_check["lhs"] - fem_check["rhs"]) < 0.005 * fem_check["rhs"]

