"""Eigenvalue-sum lower bounds by transplanting unknown eigenfunctions.

Pulling the eigenfunctions of one fan triangle back through the affine
vertex map turns them into trial functions on another, and the resulting
sum comparison holds whenever an explicit quadratic in the map data,
weighted by the y-energy share gamma of the source functions, stays below
a target constant.  The point is that the source eigenfunctions never
need to be known: a two-branch case split covers every possible gamma,
one branch comparing against the equilateral triangle and the other
against the right triangle whose spectrum is the antisymmetric
equilateral one.  This module implements the sufficient
condition, the branch selection, the rational functions driving the
sharpened two-tone comparison, and the end-to-end verification pipelines
for the diameter-normalized minimality of eigenvalue sums and of the
second eigenvalue.
"""

import math

import numpy as np

from .certify import (
    CERT_APEX,
    Sector,
    lemma62_verify,
    ranked_sector_eigenvalue,
)
from .equilateral import SIGMA_COEFF, enumerate_modes, exact_sum_q
from .fem import rayleigh_data, richardson, solve_extrapolated, solve_pair
from .geometry import C_funcs, EQUILATERAL_APEX, fan_triangle, polya_upper
from .reports import combine, make_report

__all__ = [
    "lemtrace_lhs",
    "prop_unknown_branch",
    "theorem1_verify",
    "condCh_verify",
    "theorem2_verify",
]

# Apex height of the right-triangle comparison domains T(+-1, 2 sqrt(3)).
RIGHT_APEX = 2.0 * EQUILATERAL_APEX

GAMMA_BRANCH_SPLIT = 0.75


def lemtrace_lhs(b, c, d, gamma):
    """Energy inflation factor of the vertex map from source apex (0, b) to
    target apex (c, d), given the y-share gamma of the source Dirichlet
    energy.

    For a source apex (a, b) the factor is ((a - c)^2 + d^2)(1 - gamma)
    + 2 b (a - c) delta + b^2 gamma over d^2, delta the x-y share.  Every
    source here is the fan T(0, b), so a = 0, and its mirror symmetry makes
    each eigenfunction even or odd in x, so delta = 0.  The sum comparison
    sum(source) > C * sum(target) holds when this value is strictly below
    1/C.  Affine in gamma and even in c.
    """
    return ((c * c + d * d) * (1.0 - gamma) + b * b * gamma) / (d * d)


def prop_unknown_branch(b, gamma):
    """Which comparison domain covers this gamma: equilateral or right.

    Below the split value the equilateral target works directly; at or
    above it the right-triangle route is guaranteed by b^2 + 50/(11-8g)
    exceeding 13, which is checked rather than assumed.  At delta = 0 that
    guard is exactly the right target's condition b^2 (11-8g) > 93 - 104g.
    """
    if not (b > EQUILATERAL_APEX):
        raise ValueError("branch analysis requires apex height above sqrt(3)")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    if gamma < GAMMA_BRANCH_SPLIT:
        return "equilateral"
    guard = b * b + 50.0 / (11.0 - 8.0 * gamma)
    if not (guard > 13.0):
        raise RuntimeError(
            f"right-branch inequality failed: {guard!r} <= 13")
    return "right"


def _transplant_certificate(b, gamma, n, branch):
    """Certifying condition check for the chosen branch, plus the factors
    for every target as side information.

    Only the branch's own condition is guaranteed by the case analysis;
    the other target's factor is reported but carries no verdict weight.
    The right targets T(+-1, 2 sqrt(3)) are mirror images with one factor.
    """
    d2 = 1.0 + b * b
    c_eq = 4.0 / d2
    lhs_eq = lemtrace_lhs(b, 0.0, EQUILATERAL_APEX, gamma)
    c_right = (6.0 / 11.0) * 16.0 / d2
    lhs_right = lemtrace_lhs(b, 1.0, RIGHT_APEX, gamma)
    info = {
        "factor_equilateral": lhs_eq,
        "threshold_equilateral": 1.0 / c_eq,
        "factor_right": lhs_right,
        "threshold_right": 1.0 / c_right,
    }
    if branch == "equilateral":
        check = make_report(
            f"transplant factor to the equilateral target below its "
            f"threshold at n={n}",
            lhs_eq, 1.0 / c_eq, mode="<", branch=branch)
    else:
        check = make_report(
            f"transplant factor to the right target below its threshold at "
            f"n={n}",
            lhs_right, 1.0 / c_right, mode="<", branch=branch)
    return check, info


def theorem1_verify(b, n_max, level):
    """Verify, for n = 1..n_max, that the first-n eigenvalue sum times
    squared diameter for the isosceles fan triangle T(0, b) exceeds the
    exact equilateral value; one report per n, in ascending order.

    Every n reads the same n_max+1 lowest modes, solved once per level:
    the sums are partial sums of them, and mode n+1 guards the y-energy
    share of the first n against splitting a cluster.  Each report holds
    the FEM comparison under the 3x-error policy, the branch the computed
    share lands in, and the transplant condition for the selected target
    (the other targets' factors ride along as data).
    At b = sqrt(3) the comparison is an equality, so the verdict is
    expected to be inconclusive there, never fail.
    """
    if not (b >= EQUILATERAL_APEX):
        raise ValueError("requires an apex height b >= sqrt(3)")
    if n_max < 1:
        raise ValueError("n must be >= 1")
    fan = fan_triangle(b)
    coarse, fine = solve_pair(fan, n_max + 1, level)
    vals, errs = richardson(coarse.values, fine.values)
    gammas = rayleigh_data(fan, coarse, fine)
    return [_theorem1_case(b, n, gammas[n - 1], vals, errs)
            for n in range(1, n_max + 1)]


def _theorem1_case(b, n, gamma, vals, errs):
    d2 = 1.0 + b * b
    sum_fem = float(np.sum(vals[:n]))
    sum_err = float(np.sum(errs[:n]))
    target = SIGMA_COEFF * exact_sum_q(n)
    checks = [make_report(
        f"first-{n} sum times squared diameter exceeds the equilateral value",
        sum_fem * d2, target, fem_err=sum_err * d2)]

    branch = None
    factors = None
    if gamma is not None and b > EQUILATERAL_APEX:
        branch = prop_unknown_branch(b, gamma)
        certificate, factors = _transplant_certificate(b, gamma, n, branch)
        checks.append(certificate)
        # The right-triangle target itself exceeds the equilateral one
        # (6 * antisymmetric sum > 11 * full sum), so either branch lands
        # above the same minimum.
        checks.append(make_report(
            f"right target exceeds equilateral target at n={n}",
            6 * exact_sum_q(n, "antisym"), 11 * exact_sum_q(n)))
    return combine(
        f"diameter-normalized first-{n} eigenvalue sum of T(0,{b:g}) "
        "at least the equilateral value",
        checks, branch=branch, gamma_n=gamma, n=n,
        fem_sum=sum_fem, fem_err=sum_err, diameter_squared=d2,
        target=target, factors=factors)


def condCh_verify(h):
    """Verify the reduction sending the endpoint two-tone bound down to all b.

    The key scalar inequality: the weakened profile at the endpoint h
    strictly exceeds 3(h^2+17)/(20h^2) + 7(h^2-3)/(10h^2(b^2+1)) for every
    b strictly between sqrt(3) and h, with equality exactly at b = sqrt(3).
    It is checked on a geometric grid of 50 points strictly inside that
    interval.  The right side must also decrease in b, which is decided
    from the exact sign of h^2 - 3.
    """
    if not (h > EQUILATERAL_APEX):
        raise ValueError("endpoint must exceed sqrt(3)")
    # the largest product rhs forms on the grid, 10 h^2 (b^2 + 1) with b < h
    if not math.isfinite(10.0 * (h * h) * (h * h + 1.0)):
        raise ValueError(f"endpoint {h!r} is too large: the reduced "
                         "inequality overflows in floating point")
    b_grid = np.geomspace(EQUILATERAL_APEX, h, 52)[1:-1]
    if np.any(b_grid <= EQUILATERAL_APEX) or np.any(b_grid >= h):
        raise ValueError(f"endpoint {h!r} is too close to sqrt(3) for a "
                         "grid strictly between them")
    h2 = h * h
    ctilde = C_funcs(h)[1]

    def rhs(b):
        return (3.0 * (h2 + 17.0) / (20.0 * h2)
                + 7.0 * (h2 - 3.0) / (10.0 * h2 * (b * b + 1.0)))

    checks = [make_report(
        "equality at the equilateral end of the reduced inequality",
        ctilde, rhs(EQUILATERAL_APEX), mode="==", tol=1e-12)]
    vals = rhs(b_grid)
    worst = int(np.argmin(ctilde - vals))
    checks.append(make_report(
        "reduced inequality strict on the grid",
        ctilde, float(vals[worst]), worst_b=float(b_grid[worst]),
        grid_size=int(b_grid.size)))
    # The b-dependent term is 7 (h^2 - 3) / (10 h^2 (b^2 + 1)), so the
    # right side decreases in b exactly when h^2 > 3.  Its values on the
    # grid saturate in floating point for large h, so h^2 - 3 is taken
    # from the exact ratio p / q = h: integer arithmetic, then one
    # correctly rounded division, which keeps the sign.
    p, q = h.as_integer_ratio()
    checks.append(make_report(
        "right side strictly decreasing in b: h^2 - 3 > 0",
        (p * p - 3 * q * q) / (q * q), 0.0))
    return combine(
        f"endpoint two-tone bound at h={h:g} propagates to every smaller b",
        checks, endpoint=float(h), ctilde=ctilde)


# Endpoint of the interpolation branch, where the certified enclosure of
# lemma62_verify sits; above it a sector bound suffices.
SECTOR_SPLIT = CERT_APEX


def theorem2_verify(b, level):
    """Verify the second tone of T(0, b) times squared diameter exceeds the
    equilateral value.

    For b at or above the split the containing sector's second eigenvalue
    already clears the target.  Below the split, the chain is: reduction
    inequality + certified endpoint enclosure + fundamental-tone upper
    bound, whose pieces are reverified here.  A FEM evaluation of the
    claim itself cross-checks both branches.  At b = sqrt(3) the claim is
    an equality and the FEM comparison is expected to be inconclusive.
    """
    if not (b >= EQUILATERAL_APEX):
        raise ValueError("requires b >= sqrt(3)")
    d2 = 1.0 + b * b
    # second tone times squared diameter of the equilateral triangle
    target = SIGMA_COEFF * enumerate_modes(2, "full")[1].q
    vals, errs = solve_extrapolated(fan_triangle(b), 2, level)
    checks = [make_report(
        "FEM second tone times squared diameter exceeds the equilateral value",
        float(vals[1]) * d2, target, fem_err=float(errs[1]) * d2)]
    checks.append(make_report(
        "FEM tones are ordered", float(vals[0]), float(vals[1]), mode="<=",
        fem_err=float(errs[0] + errs[1])))

    if b >= SECTOR_SPLIT:
        branch = "sector"
        aperture = 2.0 * math.atan(1.0 / SECTOR_SPLIT)
        nu = math.pi / aperture
        sector = Sector(math.sqrt(d2), aperture)
        lam2_sector = ranked_sector_eigenvalue(sector, 2)
        # One constant settles every b at or beyond the split: the sector
        # second tone scales exactly like the target under the diameter.
        checks.append(make_report(
            "containing-sector second tone times squared diameter exceeds "
            "the equilateral value",
            lam2_sector * d2, target, nu=nu))
        checks.append(make_report(
            "sector second tone below the FEM second tone",
            lam2_sector, float(vals[1]), mode="<=", fem_err=float(errs[1])))
    else:
        branch = "interpolation"
        # Nested verdicts roll up: the reduction inequality and the
        # certified endpoint are both full reports of their own.
        checks.append(condCh_verify(SECTOR_SPLIT))
        checks.append(lemma62_verify())
        c_b = C_funcs(b)[0]
        polya = polya_upper(fan_triangle(b))
        polya_closed = 2.0 * math.pi ** 2 * (b * b + 3.0) / (3.0 * b * b)
        checks.append(make_report(
            "side-length upper bound matches its closed form",
            polya, polya_closed, mode="==", tol=1e-12 * polya_closed))
        # The two-tone target splits exactly into the second-tone goal plus
        # the fundamental-tone upper bound.
        lhs_identity = c_b * 40.0 * math.pi ** 2 / 9.0
        rhs_identity = target / d2 + polya_closed
        checks.append(make_report(
            "two-tone target decomposes into goal plus fundamental bound",
            lhs_identity, rhs_identity, mode="==", tol=1e-12 * rhs_identity))
        # FEM view of the chain's conclusion for this b.
        sum_fem = float(vals[0] + vals[1])
        sum_err = float(errs[0] + errs[1])
        checks.append(make_report(
            "FEM two-tone sum exceeds its rational target",
            sum_fem, c_b * 40.0 * math.pi ** 2 / 9.0, fem_err=sum_err))
        checks.append(make_report(
            "FEM fundamental tone below the side-length bound",
            float(vals[0]), polya_closed, mode="<", fem_err=float(errs[0])))
    return combine(
        f"second tone of T(0,{b:g}) times squared diameter at least "
        "the equilateral value",
        checks, branch=branch, diameter_squared=d2, target=target,
        fem_second=float(vals[1]), fem_err=float(errs[1]))
