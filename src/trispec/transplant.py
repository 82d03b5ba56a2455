"""Eigenvalue-sum lower bounds by transplanting unknown eigenfunctions.

Pulling the eigenfunctions of one fan triangle back through the affine
vertex map turns them into trial functions on another, and the resulting
sum comparison holds whenever an explicit quadratic in the map data,
weighted by the energy fractions gamma and delta of the source functions,
stays below a target constant.  The point is that the source
eigenfunctions never need to be known: a two-branch case split covers
every possible gamma, one branch comparing against the equilateral
triangle and the other against the right triangle whose spectrum is the
antisymmetric equilateral one.  This module implements the sufficient
condition, the branch selection, the rational functions driving the
sharpened two-tone comparison, and the end-to-end verification pipelines
for the diameter-normalized minimality of eigenvalue sums and of the
second eigenvalue.
"""

import math

import numpy as np

from .certify import SectorSpec, lemma62_verify, sector_eigenvalue
from .equilateral import SIGMA_COEFF, exact_sum_q
from .fem import rayleigh_data, solve_extrapolated
from .geometry import EQUILATERAL_APEX, FanTriangle, polya_upper
from .reports import combine, make_report

__all__ = [
    "TransplantCondition",
    "lemtrace_lhs",
    "prop_unknown_branch",
    "theorem1_verify",
    "C_funcs",
    "condCh_verify",
    "theorem2_verify",
    "B_GRID",
]

# Apex height of the right-triangle comparison domains T(+-1, 2 sqrt(3)).
RIGHT_APEX = 2.0 * EQUILATERAL_APEX

# Default apex-height sample grid for sweeps, log-uniform in (sqrt(3), 8].
B_GRID = np.geomspace(EQUILATERAL_APEX, 8.0, 51)[1:]

GAMMA_BRANCH_SPLIT = 0.75


class TransplantCondition:
    """Data for one sum comparison: source apex (a, b), target apex (c, d).

    The comparison sum(source) > C * sum(target) holds when the energy
    inflation factor of the vertex map stays below 1/C; gamma and delta
    are the y-share and cross-share of the source Dirichlet energy.
    """

    def __init__(self, a, b, c, d, C, gamma, delta):
        if not (b > 0 and d > 0):
            raise ValueError("apex heights must be positive")
        if not (C > 0):
            raise ValueError("comparison constant must be positive")
        if not (0.0 <= gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        if abs(delta) > 0.5:
            raise ValueError("|delta| must not exceed 1/2")
        self.a = float(a)
        self.b = float(b)
        self.c = float(c)
        self.d = float(d)
        self.C = float(C)
        self.gamma = float(gamma)
        self.delta = float(delta)

    def __repr__(self):
        return (f"TransplantCondition(a={self.a!r}, b={self.b!r}, c={self.c!r},"
                f" d={self.d!r}, C={self.C!r}, gamma={self.gamma!r},"
                f" delta={self.delta!r})")


def lemtrace_lhs(cond):
    """Energy inflation factor of the vertex map under the given fractions.

    The sum comparison holds when this value is strictly below 1/C.
    Affine in gamma and in delta.
    """
    shift = cond.a - cond.c
    num = ((shift * shift + cond.d * cond.d) * (1.0 - cond.gamma)
           + 2.0 * cond.b * shift * cond.delta
           + cond.b * cond.b * cond.gamma)
    return num / (cond.d * cond.d)


def prop_unknown_branch(b, gamma):
    """Which comparison domain covers this gamma: equilateral or right.

    Below the split value the equilateral target works directly; at or
    above it the right-triangle route is guaranteed by b^2 + 50/(11-8g)
    exceeding 13, which is checked rather than assumed.
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


def _transplant_certificate(b, gamma, delta, n, branch):
    """Certifying condition check for the chosen branch, plus the factors
    for every target as side information.

    Only the branch's own condition is guaranteed by the case analysis;
    the other target's factor is reported but carries no verdict weight.
    """
    d2 = 1.0 + b * b
    c_eq = 4.0 / d2
    lhs_eq = lemtrace_lhs(
        TransplantCondition(0.0, b, 0.0, EQUILATERAL_APEX, c_eq, gamma, delta))
    c_right = (6.0 / 11.0) * 16.0 / d2
    lhs_right = {
        sign: lemtrace_lhs(TransplantCondition(0.0, b, sign, RIGHT_APEX,
                                               c_right, gamma, delta))
        for sign in (1.0, -1.0)
    }
    info = {
        "factor_equilateral": lhs_eq,
        "threshold_equilateral": 1.0 / c_eq,
        "factor_right_plus": lhs_right[1.0],
        "factor_right_minus": lhs_right[-1.0],
        "threshold_right": 1.0 / c_right,
    }
    if branch == "equilateral":
        check = make_report(
            f"transplant factor to the equilateral target below its "
            f"threshold at n={n}",
            lhs_eq, 1.0 / c_eq, mode="<", branch=branch)
    else:
        # Both reflections have the same spectrum; the better sign counts.
        best_sign = min(lhs_right, key=lhs_right.get)
        check = make_report(
            f"transplant factor to the better-reflected right target below "
            f"its threshold at n={n}",
            lhs_right[best_sign], 1.0 / c_right, mode="<", branch=branch,
            better_sign="+" if best_sign > 0 else "-")
    return check, info


def theorem1_verify(f, n, level=7):
    """Verify that the first-n eigenvalue sum times squared diameter for the
    isosceles fan triangle T(0, b) exceeds the exact equilateral value.

    Reports the FEM comparison under the 3x-error policy, the branch the
    computed energy fractions land in, and the transplant condition for
    the selected target (the other targets' factors ride along as data).
    At b = sqrt(3) the comparison is an equality, so the verdict is
    expected to be inconclusive there, never fail.
    """
    if f.a != 0.0 or not (f.b >= EQUILATERAL_APEX):
        raise ValueError("requires an isosceles fan triangle with b >= sqrt(3)")
    if n < 1:
        raise ValueError("n must be >= 1")
    b = f.b
    d2 = 1.0 + b * b
    gamma = delta = None
    # The n+1-mode solves behind the energy fractions go first, so the
    # n-mode sum below is a slice of them rather than a solve of its own.
    try:
        rd = rayleigh_data(f, n, level)
        gamma, delta = rd.gamma_n, rd.delta_n
    except ValueError:
        pass  # degenerate cluster at this rank; branch analysis not meaningful
    vals, errs, _ = solve_extrapolated(f.triangle, n, level)
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
        certificate, factors = _transplant_certificate(b, gamma, delta, n,
                                                       branch)
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
        checks, branch=branch, gamma_n=gamma, delta_n=delta, n=n,
        fem_sum=sum_fem, fem_err=sum_err, diameter_squared=d2,
        target=target, factors=factors)


def C_funcs(b):
    """The two rational comparison profiles of the two-tone argument.

    Both equal 1 at b = sqrt(3); the first is the exact target ratio for
    the two-tone sum, the second the weakened profile that a single
    endpoint certification propagates down to every smaller b.
    """
    if not (b > 0):
        raise ValueError("apex height must be positive")
    b2 = b * b
    c = (3.0 * b2 * b2 + 68.0 * b2 + 9.0) / (20.0 * b2 * (b2 + 1.0))
    ctilde = (13.0 * b2 + 81.0) / (40.0 * b2)
    return c, ctilde


def condCh_verify(h, b_grid=None):
    """Verify the reduction sending the endpoint two-tone bound down to all b.

    The key scalar inequality: the weakened profile at the endpoint h
    strictly exceeds 3(h^2+17)/(20h^2) + 7(h^2-3)/(10h^2(b^2+1)) for every
    b strictly between sqrt(3) and h, with equality exactly at b = sqrt(3).
    The right side decreases in b, which is also confirmed on the grid.
    """
    if not (h > EQUILATERAL_APEX):
        raise ValueError("endpoint must exceed sqrt(3)")
    if b_grid is None:
        b_grid = np.geomspace(EQUILATERAL_APEX, h, 52)[1:-1]
    b_grid = np.asarray(b_grid, dtype=float)
    if np.any(b_grid <= EQUILATERAL_APEX) or np.any(b_grid >= h):
        raise ValueError("grid points must lie strictly between sqrt(3) and h")
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
    checks.append(make_report(
        "right side strictly decreasing along the grid",
        float(np.max(np.diff(vals))), 0.0, mode="<"))
    return combine(
        f"endpoint two-tone bound at h={h:g} propagates to every smaller b",
        checks, endpoint=float(h), ctilde=ctilde)


# Endpoint of the interpolation branch; above it a sector bound suffices.
SECTOR_SPLIT = 2.5


def theorem2_verify(b, level=7):
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
    target = 7.0 * SIGMA_COEFF  # second tone times squared diameter, equilateral
    vals, errs, _ = solve_extrapolated(FanTriangle(0.0, b).triangle, 2, level)
    checks = [make_report(
        "FEM second tone times squared diameter exceeds the equilateral value",
        float(vals[1]) * d2, target, fem_err=float(errs[1]) * d2)]
    checks.append(make_report(
        "FEM tones are ordered", float(vals[0]), float(vals[1]), mode="<="))

    if b >= SECTOR_SPLIT:
        branch = "sector"
        aperture = 2.0 * math.atan(1.0 / SECTOR_SPLIT)
        nu = math.pi / aperture
        sector = SectorSpec(math.sqrt(d2), aperture)
        lam2_sector = sector_eigenvalue(sector, 1, 2)
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
        polya = polya_upper(FanTriangle(0.0, b).triangle)
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
