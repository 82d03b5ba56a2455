"""Tests for Bessel utilities and the certified eigenvalue enclosure."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jn_zeros, jv, jvp

from trispec import certify
from trispec.certify import (
    CERT_APEX,
    CERT_COEFFS,
    CERT_KAPPA,
    SUP_GRID,
    Sector,
    Trial,
    _bessel_bounds,
    _second_derivative_terms,
    _sup_cells,
    bessel_j,
    bessel_zero,
    boundary_sup,
    certify_second_eigenvalue,
    l2_lower,
    lemma62_verify,
    moler_payne,
    ranked_sector_eigenvalue,
    sector_eigenvalue,
    trial_eval,
)


def cert_trial():
    return Trial(math.pi / (2.0 * math.atan(1.0 / CERT_APEX)), CERT_KAPPA,
                 CERT_COEFFS)


def half_aperture(tf):
    return 0.5 * (math.pi / tf.nu)


def test_half_order_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin(x)
    for x in (1.0, 2.0, 3.0):
        exact = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - exact) < 1e-10


def test_recurrence():
    # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu
    rng = np.random.default_rng(5)
    nu = rng.uniform(1.0, 20.0, size=30)
    x = rng.uniform(0.5, 60.0, size=30)
    lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
    rhs = 2.0 * nu / x * bessel_j(nu, x)
    assert np.all(np.abs(lhs - rhs) < 1e-9)


def test_bessel_range_validation():
    with pytest.raises(ValueError, match="order"):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError, match="order"):
        bessel_j(51.0, 1.0)
    with pytest.raises(ValueError, match="argument"):
        bessel_j(1.0, -0.1)
    with pytest.raises(ValueError, match="argument"):
        bessel_j(1.0, 101.0)
    arr = bessel_j(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert arr.shape == (2,)


def test_first_zeros():
    assert abs(bessel_zero(0.0, 1) - 2.404825557695773) < 1e-12
    assert abs(bessel_zero(1.0, 1) - 3.831705970207512) < 1e-12
    # interlacing of consecutive orders
    for k in (1, 2, 3):
        assert bessel_zero(0.0, k) < bessel_zero(1.0, k) < bessel_zero(0.0, k + 1)


def test_zero_validation():
    with pytest.raises(ValueError, match="order"):
        bessel_zero(-1.0, 1)
    with pytest.raises(ValueError, match="zero index"):
        bessel_zero(0.0, 0)
    with pytest.raises(ValueError, match="zero index"):
        bessel_zero(0.0, 21)
    with pytest.raises(RuntimeError, match="not bracketed"):
        bessel_zero(50.0, 20)


# Order of the certified trial's leading term, pi / (2 atan(2/5)).
CERT_ORDER = math.pi / (2.0 * math.atan(1.0 / CERT_APEX))


@pytest.mark.parametrize("nu, k", [
    (0.0, 1), (0.0, 2), (0.0, 3), (0.0, 20),
    (1.0, 1), (1.0, 20),
    (50.0, 1), (50.0, 2), (50.0, 3),
    (CERT_ORDER, 1), (CERT_ORDER, 2), (CERT_ORDER, 3), (CERT_ORDER, 20),
])
def test_zero_is_float_exact(nu, k):
    root = bessel_zero(nu, k)
    below, above = math.nextafter(root, 0.0), math.nextafter(root, math.inf)
    f = jv(nu, root)
    # J_nu is 0 at the root or changes sign towards a neighbouring float
    assert f == 0.0 or f * jv(nu, below) < 0.0 or f * jv(nu, above) < 0.0
    if nu == int(nu):
        assert root == pytest.approx(jn_zeros(int(nu), k)[-1], rel=1e-13)


def test_zero_on_a_scan_point_counts(monkeypatch):
    # the scan from 0.25 in steps of 0.25 lands exactly on the root at 1
    monkeypatch.setattr(certify, "bessel_j",
                        lambda nu, t: (t - 1.0) * (t - 2.6) * (t - 4.1))
    assert bessel_zero(0.0, 1) == 1.0
    assert bessel_zero(0.0, 2) == pytest.approx(2.6, abs=1e-15)
    assert bessel_zero(0.0, 3) == pytest.approx(4.1, abs=1e-15)
    with pytest.raises(RuntimeError, match="not bracketed"):
        bessel_zero(0.0, 4)


def test_sector_eigenvalue_scaling():
    s1 = Sector(1.0, 0.7)
    s2 = Sector(2.0, 0.7)
    # doubling the radius quarters every eigenvalue
    for k, j in ((1, 1), (1, 2), (2, 1)):
        assert sector_eigenvalue(s2, k, j) == pytest.approx(
            sector_eigenvalue(s1, k, j) / 4.0, rel=1e-14)
    assert sector_eigenvalue(s1, 1, 1) < sector_eigenvalue(s1, 1, 2)
    assert sector_eigenvalue(s1, 1, 1) < sector_eigenvalue(s1, 2, 1)
    with pytest.raises(ValueError):
        sector_eigenvalue(s1, 0, 1)


def test_sector_ranked_eigenvalue_sorts_families():
    s = Sector(math.sqrt(1.0 + CERT_APEX ** 2), 2.0 * math.atan(0.4))
    table = sorted(sector_eigenvalue(s, k, j)
                   for k in range(1, 5) for j in range(1, 5))
    for rank in range(1, 7):
        assert ranked_sector_eigenvalue(s, rank) == table[rank - 1]
    # family (2, 1) is the third value here, between (1, 2) and (1, 3)
    assert ranked_sector_eigenvalue(s, 3) == sector_eigenvalue(s, 2, 1)


def test_trial_vanishes_on_rays():
    tf = cert_trial()
    half = half_aperture(tf)
    r = np.linspace(0.1, 2.5, 9)
    for sign in (1.0, -1.0):
        vals = trial_eval(tf, r, np.full_like(r, sign * half))
        assert np.max(np.abs(vals)) < 1e-12


def test_trial_solves_helmholtz():
    # five-point Laplacian at interior points reproduces -kappa^2 u
    tf = cert_trial()
    rng = np.random.default_rng(0)
    step = 1e-4

    def u(x, y):
        return trial_eval(tf, math.hypot(x, y), math.atan2(y, x))

    for _ in range(5):
        th = rng.uniform(-0.3, 0.3) * half_aperture(tf)
        rr = rng.uniform(0.5, 2.0)
        x, y = rr * math.cos(th), rr * math.sin(th)
        lap = (u(x + step, y) + u(x - step, y) + u(x, y + step)
               + u(x, y - step) - 4.0 * u(x, y)) / step ** 2
        target = -tf.kappa ** 2 * u(x, y)
        assert abs(lap - target) < 1e-5 * max(abs(target), 1.0)


def test_trial_eval_validation():
    tf = cert_trial()
    with pytest.raises(ValueError, match="radius"):
        trial_eval(tf, -0.1, 0.0)
    assert isinstance(trial_eval(tf, 1.0, 0.0), float)


def test_l2_single_term_angular_factor():
    # one odd term: the angle integral is exactly aperture/2, so the
    # squared norm splits into that factor times a radial integral
    nu = 4.0
    kappa = 3.0
    s = Sector(1.5, math.pi / nu)
    tf = Trial(nu, kappa, (1.0,))
    radial, _ = quad(
        lambda r: r * bessel_j(nu, kappa * r) ** 2, 0.0, s.radius)
    exact = radial * s.aperture / 2.0
    assert l2_lower(tf, s) ** 2 == pytest.approx(exact, rel=1e-5)


def test_l2_quadrature_converged():
    tf = cert_trial()
    inner = Sector(CERT_APEX, 2.0 * math.atan(1.0 / CERT_APEX))
    # the certified value is already at quadrature convergence, so any
    # reasonable re-evaluation agrees to far better than the 1e-6 guard
    a = l2_lower(tf, inner)
    b = l2_lower(tf, inner)
    assert a == b
    assert a > 0.25


def boundary_values(tf, theta, h=CERT_APEX):
    return trial_eval(tf, h / np.cos(theta), theta)


def test_boundary_sup_bounds_dense_samples():
    tf = cert_trial()
    bound = boundary_sup(tf, CERT_APEX)
    half = half_aperture(tf)
    theta = np.linspace(-half, half, 2000001)
    assert bound >= np.max(np.abs(boundary_values(tf, theta)))
    assert bound < 0.0013
    (_, _, _, cells), evals = _sup_cells(tf, CERT_APEX, SUP_GRID)
    assert float(np.max(cells)) == bound
    assert evals < 1000


def test_boundary_trace_is_even():
    tf = cert_trial()
    theta = np.linspace(0.0, half_aperture(tf), 1001)
    np.testing.assert_allclose(boundary_values(tf, -theta),
                               boundary_values(tf, theta), rtol=0, atol=1e-15)


def test_bessel_bounds_hold_on_intervals():
    # each bound covers J, J' and J'' on a fine sub-grid of its interval
    for mu in (1.05, 1.5, 2.0, 4.13, 12.4, 20.6, 35.0):
        edges = np.geomspace(0.01, 95.0, 400)
        xa, xb = edges[:-1], edges[1:]
        j0, j1, j2 = _bessel_bounds(mu, xa, xb)
        x = xa[:, None] + (xb - xa)[:, None] * np.linspace(0.0, 1.0, 9)
        for order, env in ((0, j0), (1, j1), (2, j2)):
            assert np.all(np.abs(jvp(mu, x, order)) <= env[:, None] * (1 + 1e-12))


def second_derivative_parts(tf, theta, h):
    """|c| |part_i| of the second derivative, summed over terms."""
    r = h / np.cos(theta)
    r1 = r * np.tan(theta)
    r2 = r * (1.0 + 2.0 * np.tan(theta) ** 2)
    x = tf.kappa * r
    parts = np.zeros((4,) + theta.shape)
    for i, coeff in enumerate(tf.coeffs):
        mu = (2 * i + 1) * tf.nu
        c, s = np.cos(mu * theta), np.sin(mu * theta)
        j0, j1, j2 = (jvp(mu, x, n) for n in (0, 1, 2))
        parts += np.abs(coeff * np.array([
            tf.kappa * r2 * j1 * c, (tf.kappa * r1) ** 2 * j2 * c,
            2.0 * mu * tf.kappa * r1 * j1 * s, mu * mu * j0 * c]))
    return parts


# (trial, apex height): the certified trial and single terms where the
# second-derivative bound is nearly attained (small Bessel arguments) or
# its parts trade places; zero coefficients pad a term to its odd multiple.
SUP_CASES = [
    (cert_trial(), CERT_APEX),
    (Trial(9.55, 0.55, (0.0, 0.0, 1.0)), 0.42),
    (Trial(10.0, 0.5, (1.0,)), 1.0),
    (Trial(1.2, 20.0, (1.0,)), 0.5),
    (Trial(1.1, 0.5, (0.0, 1.0)), 1.0),
    (Trial(1.05, 0.3, (1.0,)), 0.2),
    (Trial(2.0, 3.0, (1.0,)), 1.0),
]


@pytest.mark.parametrize("case", SUP_CASES)
def test_second_derivative_bound_on_final_cells(case):
    tf, h = case
    (a, b, m2, bound), _ = _sup_cells(tf, h, SUP_GRID)
    assert np.all(a < b) and a.min() == 0.0
    assert b.max() == pytest.approx(half_aperture(tf), rel=1e-15)
    # second differences on a sub-grid of every cell, reflected at 0
    step = (b - a) / 16.0
    t = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 17)
    d = step[:, None]
    f2 = (boundary_values(tf, t + d, h) - 2.0 * boundary_values(tf, t, h)
          + boundary_values(tf, np.abs(t - d), h)) / d ** 2
    assert np.all(m2 >= np.max(np.abs(f2), axis=1))
    # and each of the four parts of M2 bounds its own part of f''
    terms = _second_derivative_terms(tf, h, a, b)
    parts = second_derivative_parts(tf, t, h)
    assert np.all(terms[:, :, None] >= parts * (1 - 1e-12))
    np.testing.assert_allclose(terms.sum(axis=0), m2, rtol=1e-15)


def test_boundary_sup_budget_and_validation(monkeypatch):
    tf = cert_trial()
    with pytest.raises(ValueError, match="apex height"):
        boundary_sup(tf, -1.0)
    with pytest.raises(ValueError, match="grid points"):
        boundary_sup(tf, CERT_APEX, num=1)
    with pytest.raises(RuntimeError, match="evaluations"):
        boundary_sup(tf, CERT_APEX, num=200002)
    # the certified trial needs 537 evaluations from the default grid
    monkeypatch.setattr(certify, "SUP_MAX_EVALS", 520)
    with pytest.raises(RuntimeError, match="evaluations"):
        boundary_sup(tf, CERT_APEX)


def test_interval_arithmetic():
    # sqrt(4) * 0.01 / 2 = 0.01
    iv = moler_payne(100.0, 0.01, 2.0, 4.0)
    assert iv.epsilon == 0.01
    assert (iv.l2_lower, iv.boundary_sup) == (2.0, 0.01)
    assert iv.lower * (1.0 + iv.epsilon) == pytest.approx(100.0, rel=1e-12)
    assert iv.upper * (1.0 - iv.epsilon) == pytest.approx(100.0, rel=1e-12)
    assert iv.lower < 100.0 < iv.upper
    assert 98.0 < iv.lower
    # epsilon exactly 1 certifies nothing
    with pytest.raises(ValueError, match="epsilon"):
        moler_payne(100.0, 0.5, 1.0, 4.0)


def test_moler_payne():
    iv = moler_payne(20.0, 0.001, 0.25, 2.5)
    assert iv.epsilon == pytest.approx(math.sqrt(2.5) * 0.001 / 0.25)
    with pytest.raises(ValueError, match="epsilon"):
        moler_payne(20.0, 1.0, 0.5, 4.0)
    with pytest.raises(ValueError, match="positive"):
        moler_payne(20.0, 0.001, 0.0, 2.5)


def test_certified_enclosure_numbers():
    iv = certify_second_eigenvalue()
    assert iv.lambda_bar == pytest.approx((334.0 / 75.0) ** 2, rel=1e-14)
    assert iv.epsilon < 0.009
    assert 19.65 < iv.lower < iv.upper < 20.03
    assert iv.l2_lower > 0.25
    assert iv.boundary_sup < 0.0013
    assert iv.epsilon == math.sqrt(CERT_APEX) * iv.boundary_sup / iv.l2_lower


def test_certification_degrades_off_frequency():
    # detuning the frequency breaks the near-vanishing boundary trace, so
    # the defect ratio blows up and the enclosure widens drastically
    base = certify_second_eigenvalue()
    tf = cert_trial()._replace(kappa=4.6)
    sup = boundary_sup(tf, CERT_APEX)
    l2 = l2_lower(tf, Sector(CERT_APEX, math.pi / tf.nu))
    detuned = moler_payne(4.6 ** 2, sup, l2, CERT_APEX)
    assert detuned.epsilon > 10.0 * base.epsilon
    assert detuned.upper - detuned.lower > 10.0 * (base.upper - base.lower)


def test_lemma62_report():
    r = lemma62_verify()
    assert r["verdict"] == "pass"
    assert r["heuristic"] is True
    assert r["interval"]["lower"] > 19.65
    assert r["interval"]["upper"] < 20.03
    claims = [c["claim"] for c in r["checks"]]
    assert any("exclude" in c for c in claims)
    assert all(c["verdict"] == "pass" for c in r["checks"])


def test_lemma62_fem_crosscheck():
    # independent FEM second tone must land inside the enclosure
    r = lemma62_verify(fem_level=8)
    assert r["verdict"] == "pass"
    inside = [c for c in r["checks"] if "FEM second tone" in c["claim"]]
    assert len(inside) == 2
    fem_val = inside[0]["lhs"]
    assert r["interval"]["lower"] < fem_val < r["interval"]["upper"]
