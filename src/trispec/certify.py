"""Certified eigenvalue enclosures from an almost-Dirichlet eigenfunction.

An exact Helmholtz solution that nearly vanishes on the boundary of a
domain pins down a true Dirichlet eigenvalue: some eigenvalue lies within
a relative distance epsilon of the trial frequency, where epsilon is the
boundary sup norm over the interior L2 norm times the square root of the
area (Moler and Payne).  A trial is a short cosine-Bessel sum on the
circular sector matching an isosceles triangle's aperture; it vanishes
exactly on the two equal sides, so only the short side contributes to the
sup norm.  That sup is bounded cell by cell along the short side, from the
sampled values and a bound on the second derivative built from Bessel
envelopes.  Sector eigenvalues come from Bessel zeros: a scan finds each
sign change, and bisection narrows it to two adjacent floats.  Sectors,
trials and enclosures are plain records; `moler_payne` alone builds an
enclosure.  Everything feeds the certified enclosure of the second
eigenvalue of the aperture-0.761 isosceles triangle that the second-tone
verification pipeline needs.  The enclosure stays flagged heuristic: the
L2 lower bound and the Bessel values themselves are unverified floats.
"""

import collections
import math

import numpy as np

from .fem import solve_extrapolated
from .geometry import C_funcs, fan_triangle
from .reports import combine, make_report

__all__ = [
    "Sector",
    "Trial",
    "Enclosure",
    "bessel_j",
    "bessel_zero",
    "sector_eigenvalue",
    "ranked_sector_eigenvalue",
    "trial_eval",
    "l2_lower",
    "boundary_sup",
    "moler_payne",
    "certify_second_eigenvalue",
    "lemma62_verify",
]

BESSEL_MAX_ORDER = 50.0
BESSEL_MAX_ARG = 100.0
BESSEL_ZERO_MAX_K = 20
# Residual tolerance on |J_nu| at a computed zero.
ZERO_RESIDUAL_TOL = 1e-9

# The certified configuration: isosceles triangle with apex height 5/2
# over a half-base of 1, apex moved to the origin and axis along +x.
CERT_APEX = 2.5
CERT_KAPPA = 334.0 / 75.0
CERT_COEFFS = (1.0, 5.0 / 22.0, -2225.0 / 53.0)


def bessel_j(nu, x):
    """Bessel function of the first kind, validated to the supported range."""
    # scipy.special is imported here and in _bessel_envelope only, so that
    # commands that never reach a Bessel function do not load it.
    from scipy.special import jv

    nu_arr = np.asarray(nu, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(nu_arr < 0) or np.any(nu_arr > BESSEL_MAX_ORDER):
        raise ValueError(f"order must lie in [0, {BESSEL_MAX_ORDER}]")
    if np.any(x_arr < 0) or np.any(x_arr > BESSEL_MAX_ARG):
        raise ValueError(f"argument must lie in [0, {BESSEL_MAX_ARG}]")
    out = jv(nu_arr, x_arr)
    return float(out) if out.ndim == 0 else out


def bessel_zero(nu, k):
    """k-th positive zero of J_nu, to the last float.

    Scans rightward from the order (the first zero always lies beyond it)
    in steps well below the minimal zero spacing.  A scan point where J_nu
    is exactly 0 counts as a zero; a sign change between scan points is
    bisected until its ends are adjacent floats, or a midpoint is an exact
    zero, and the end with the smaller |J_nu| is returned.  Raises if the
    requested zero lies beyond the supported argument range, or if J_nu at
    the result fails the ZERO_RESIDUAL_TOL check.
    """
    if not (0 <= nu <= BESSEL_MAX_ORDER):
        raise ValueError(f"order must lie in [0, {BESSEL_MAX_ORDER}]")
    if not (1 <= k <= BESSEL_ZERO_MAX_K):
        raise ValueError(f"zero index must lie in [1, {BESSEL_ZERO_MAX_K}]")
    step = 0.25
    x = max(nu, step)
    f_prev = bessel_j(nu, x)
    found = 0
    while True:
        if f_prev == 0.0:
            found += 1
            if found == k:
                return float(x)
        if x + step > BESSEL_MAX_ARG:
            raise RuntimeError(
                f"zero {k} of J_{nu} not bracketed below x = {BESSEL_MAX_ARG}")
        x_next = x + step
        f_next = bessel_j(nu, x_next)
        if f_prev * f_next < 0.0:
            found += 1
            if found == k:
                root = _bisect_sign_change(nu, x, x_next, f_prev, f_next)
                if abs(bessel_j(nu, root)) >= ZERO_RESIDUAL_TOL:
                    raise RuntimeError(
                        f"zero {k} of J_{nu} failed the residual check")
                return root
        x, f_prev = x_next, f_next


def _bisect_sign_change(nu, lo, hi, f_lo, f_hi):
    """Bisect a sign change of J_nu on [lo, hi] down to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return float(lo if abs(f_lo) <= abs(f_hi) else hi)
        f_mid = bessel_j(nu, mid)
        if f_mid == 0.0:
            return float(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


# Circular sector of radius > 0 and aperture in (0, pi), axis along +x.
Sector = collections.namedtuple("Sector", "radius aperture")


def sector_eigenvalue(s, k, j):
    """Dirichlet sector eigenvalue (j_{k nu, j} / radius)^2, nu = pi/aperture.

    k counts the angular family (k = 1 is even about the axis, k = 2 odd,
    and so on), j the radial overtone.
    """
    if k < 1 or j < 1:
        raise ValueError("angular family and radial index must be >= 1")
    return (bessel_zero(k * (math.pi / s.aperture), j) / s.radius) ** 2


def ranked_sector_eigenvalue(s, rank):
    """The rank-th lowest Dirichlet eigenvalue of sector s.

    Walks the families k and overtones j in order, keeping the `rank`
    lowest values seen.  Overtones of a family increase with j, and since
    j_{mu,1} > mu no family with (k nu / radius)^2 above the current
    rank-th value can contribute, which ends the walk.
    """
    nu = math.pi / s.aperture
    lowest = []
    k = 1
    while len(lowest) < rank or (k * nu / s.radius) ** 2 < lowest[-1]:
        j = 1
        while True:
            lam = sector_eigenvalue(s, k, j)
            lowest = sorted(lowest + [lam])[:rank]
            if len(lowest) == rank and lam >= lowest[-1]:
                break
            j += 1
        k += 1
    return lowest[-1]


# Trial sum over i of coeffs[i] * J_mu(kappa r) cos(mu theta), mu = (2i+1) nu,
# for an angular order nu > 1 and a frequency kappa > 0.  Each term solves
# the Helmholtz equation at frequency kappa, and the odd multiple makes its
# angular factor vanish at theta = +-pi/(2 nu), so the sum is an exact
# eigenfunction candidate on the rays of the sector of aperture pi/nu.
Trial = collections.namedtuple("Trial", "nu kappa coeffs")


def _terms(tf):
    """(coeff, mu) of each term of the trial sum."""
    return [(coeff, (2 * i + 1) * tf.nu) for i, coeff in enumerate(tf.coeffs)]


def trial_eval(tf, r, theta):
    """Evaluate the trial sum at polar points (broadcasts over arrays)."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("radius must be nonnegative")
    th = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast_shapes(r_arr.shape, th.shape))
    for coeff, mu in _terms(tf):
        out = out + coeff * bessel_j(mu, tf.kappa * r_arr) * np.cos(mu * th)
    return float(out) if out.ndim == 0 else out


# Quadrature orders for the sector L2 integral; doubling both estimates
# the truncation error.
L2_QUAD_RADIAL = 80
L2_QUAD_ANGULAR = 60
L2_QUAD_RTOL = 1e-6


def _sector_l2_sq(tf, s, n_r, n_t):
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    xt, wt = np.polynomial.legendre.leggauss(n_t)
    r = 0.5 * s.radius * (xr + 1.0)
    wr = 0.5 * s.radius * wr
    th = 0.5 * s.aperture * xt
    wt = 0.5 * s.aperture * wt
    vals = trial_eval(tf, r[:, None], th[None, :])
    return float(np.einsum("i,j,ij->", wr * r, wt, vals ** 2))


def l2_lower(tf, s):
    """Certified lower estimate of the L2 norm of the trial sum on a sector.

    Tensor Gauss-Legendre quadrature of the square, with the order-doubling
    difference subtracted before taking the square root, so the return value
    is safe to use as a denominator lower bound.
    """
    coarse = _sector_l2_sq(tf, s, L2_QUAD_RADIAL, L2_QUAD_ANGULAR)
    fine = _sector_l2_sq(tf, s, 2 * L2_QUAD_RADIAL, 2 * L2_QUAD_ANGULAR)
    err = abs(fine - coarse)
    if err > L2_QUAD_RTOL * fine:
        raise RuntimeError("sector quadrature did not converge")
    return math.sqrt(max(fine - err, 0.0))


# Initial grid on the half window, the relative slack a cell bound may
# leave over the largest sampled |trial|, and the evaluation budget.
SUP_GRID = 513
SUP_RTOL = 1e-3
SUP_MAX_EVALS = 200001


def _bessel_envelope(mu, x):
    """min(1, (x/2)^mu / Gamma(mu+1)) >= |J_mu(x)| for mu >= 0, x > 0.

    A&S 9.1.60 and 9.1.62; increasing in x, so its value at the right end
    of an interval bounds |J_mu| on the whole interval.
    """
    from scipy.special import gammaln

    return np.minimum(1.0, np.exp(mu * np.log(0.5 * x) - gammaln(mu + 1.0)))


def _bessel_bounds(mu, xa, xb):
    """Bounds on |J_mu|, |J_mu'| and |J_mu''| over [xa, xb], for mu >= 1.

    J' = (J_{mu-1} - J_{mu+1})/2, and J'' = -J'/x - (1 - mu^2/x^2) J from
    Bessel's equation, whose factor |1 - mu^2/x^2| is monotone in x.
    """
    j0 = _bessel_envelope(mu, xb)
    j1 = 0.5 * (_bessel_envelope(mu - 1.0, xb) + _bessel_envelope(mu + 1.0, xb))
    stretch = np.maximum(np.abs(1.0 - (mu / xa) ** 2),
                         np.abs(1.0 - (mu / xb) ** 2))
    return j0, j1, j1 / xa + stretch * j0


def _second_derivative_terms(tf, h, a, b):
    """Bounds over [a, b] on the four parts of d^2/dtheta^2 trial(h/cos, .).

    Per term c J_mu(kappa r) cos(mu theta), the second derivative
    is c [kappa r'' J' cos + (kappa r')^2 J'' cos - 2 mu kappa r' J' sin
    - mu^2 J cos]; row i of the result sums |c| times a bound on part i.
    Cells lie in [0, half-aperture], where r = h/cos, r' and r'' increase,
    so they are taken at b; the Bessel factors are bounded over
    x in [kappa r(a), kappa r(b)].
    """
    cb, sb = np.cos(b), np.sin(b)
    r1 = h * sb / cb ** 2
    r2 = h * (1.0 + sb ** 2) / cb ** 3
    xa = tf.kappa * h / np.cos(a)
    xb = tf.kappa * h / cb
    total = np.zeros((4,) + np.shape(b))
    for coeff, mu in _terms(tf):
        j0, j1, j2 = _bessel_bounds(mu, xa, xb)
        total += abs(coeff) * np.array([
            tf.kappa * r2 * j1, (tf.kappa * r1) ** 2 * j2,
            2.0 * mu * tf.kappa * r1 * j1, mu * mu * j0])
    return total


def _sup_cells(tf, h, num):
    """Bisect [0, half-aperture] until every cell bound is within SUP_RTOL.

    Returns the final cells as arrays (a, b, M2, bound) and the number of
    trial evaluations.  A cell's bound is max(|f(a)|, |f(b)|) + M2 (b-a)^2/8,
    the linear-interpolation error bound with M2 >= |f''| on the cell.
    """
    if not (h > 0):
        raise ValueError("apex height must be positive")
    if num < 2:
        raise ValueError("need at least 2 initial grid points")

    evals = 0

    def absval(theta):
        nonlocal evals
        evals += theta.size
        if evals > SUP_MAX_EVALS:
            raise RuntimeError(
                f"boundary sup not resolved within {SUP_MAX_EVALS} evaluations")
        return np.abs(trial_eval(tf, h / np.cos(theta), theta))

    theta = np.linspace(0.0, 0.5 * (math.pi / tf.nu), int(num))
    vals = absval(theta)
    peak = float(np.max(vals))
    a, b, fa, fb = theta[:-1], theta[1:], vals[:-1], vals[1:]
    done = []
    while True:
        m2 = _second_derivative_terms(tf, h, a, b).sum(axis=0)
        bound = np.maximum(fa, fb) + m2 * (b - a) ** 2 / 8.0
        # Cells accepted here stay accepted: the peak only grows.
        keep = bound <= (1.0 + SUP_RTOL) * peak
        done.append((a[keep], b[keep], m2[keep], bound[keep]))
        a, b, fa, fb = a[~keep], b[~keep], fa[~keep], fb[~keep]
        if not a.size:
            break
        mid = 0.5 * (a + b)
        fm = absval(mid)
        peak = max(peak, float(np.max(fm)))
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    return tuple(np.concatenate(parts) for parts in zip(*done)), evals


def boundary_sup(tf, h, num=SUP_GRID):
    """Upper bound on |trial| along the short side r = h/cos(theta).

    The two equal sides of the triangle lie on the angular zeros, so only
    this side matters, and the trial sum is even in theta, so the half
    window [0, half-aperture] suffices.  `num` points of a uniform grid are
    bisected until every cell's interpolation bound is within SUP_RTOL of
    the largest sampled value; returns the bound.  It is proven up to the
    float evaluation of J_nu and of the bound itself.  Raises RuntimeError
    past SUP_MAX_EVALS evaluations.
    """
    (_, _, _, bound), _ = _sup_cells(tf, h, num)
    return float(np.max(bound))


# Two-sided enclosure lower = lambda_bar/(1+epsilon), upper =
# lambda_bar/(1-epsilon) of a Dirichlet eigenvalue near a trial frequency,
# with the L2 and boundary sup bounds it was built from.
Enclosure = collections.namedtuple(
    "Enclosure", "lambda_bar epsilon lower upper l2_lower boundary_sup")


def moler_payne(lambda_bar, sup_bound, l2_bound, area):
    """Certified enclosure from the boundary-defect bound.

    epsilon = sqrt(area) * sup / l2; raises when epsilon >= 1, since then
    the defect is too large to certify anything.
    """
    if not (l2_bound > 0 and area > 0 and sup_bound >= 0):
        raise ValueError("bounds and area must be positive")
    eps = math.sqrt(area) * sup_bound / l2_bound
    if eps >= 1.0:
        raise ValueError(f"certification failed: epsilon = {eps:.3g} >= 1")
    return Enclosure(lambda_bar, eps, lambda_bar / (1.0 + eps),
                     lambda_bar / (1.0 - eps), l2_bound, sup_bound)


def certify_second_eigenvalue():
    """Certified enclosure near CERT_KAPPA^2 on the apex-CERT_APEX triangle.

    The triangle, of aperture 2 arctan(1/h) with h = CERT_APEX, has its apex
    at the origin, axis along +x, apex height h over a half-base of 1 in
    the original placement, so area h and short side r = h/cos(theta).
    The trial sum has the coefficients CERT_COEFFS, and the inscribed
    sector of radius h supplies the L2 lower bound.
    """
    h = CERT_APEX
    aperture = 2.0 * math.atan(1.0 / h)
    tf = Trial(math.pi / aperture, CERT_KAPPA, CERT_COEFFS)
    l2 = l2_lower(tf, Sector(h, aperture))
    sup = boundary_sup(tf, h)
    return moler_payne(CERT_KAPPA ** 2, sup, l2, h)


def lemma62_verify(fem_level=None):
    """Verify the certified second-tone bound for the apex-5/2 isosceles triangle.

    Chains: the enclosure must sit inside the published window, its lower
    end must clear the sum-comparison threshold, and the sector exclusion
    must rule out every rank above the second, so the enclosed eigenvalue
    forces the second tone above the threshold.  Optionally cross-checks
    that the FEM second tone falls inside the enclosure.
    """
    h = CERT_APEX
    interval = certify_second_eigenvalue()
    checks = [
        make_report("sector L2 lower bound exceeds 0.25",
                    interval.l2_lower, 0.25),
        make_report("short-side sup bound below 0.0013",
                    interval.boundary_sup, 0.0013, mode="<"),
        make_report("defect ratio epsilon below 0.009",
                    interval.epsilon, 0.009, mode="<"),
        make_report("enclosure lower end above 19.65",
                    interval.lower, 19.65),
        make_report("enclosure upper end below 20.03",
                    interval.upper, 20.03, mode="<"),
    ]
    # The enclosed eigenvalue beats the threshold that makes the two-tone
    # sum comparison close.
    threshold = C_funcs(h)[1] * 40.0 * math.pi ** 2 / 9.0 \
        - 4.0 * math.pi ** 2 / (math.sqrt(3.0) * h)
    checks.append(make_report(
        "enclosure lower end clears the sum-comparison threshold",
        interval.lower, threshold, threshold_value=threshold))
    # Exclusion: the triangle sits in the sector of radius sqrt(1+h^2), so
    # its third eigenvalue is at least the sector's, which must exceed the
    # enclosure; the enclosed eigenvalue is therefore the first or second.
    outer = Sector(math.sqrt(1.0 + h * h), 2.0 * math.atan(1.0 / h))
    exclusion = ranked_sector_eigenvalue(outer, 3)
    checks.append(make_report(
        "third outer-sector eigenvalue excludes ranks three and up",
        exclusion, interval.upper, exclusion_value=exclusion))
    if fem_level is not None:
        vals, errs = solve_extrapolated(fan_triangle(h), 2, fem_level)
        checks.append(make_report(
            "FEM second tone above the enclosure lower end",
            float(vals[1]), interval.lower, fem_err=float(errs[1])))
        checks.append(make_report(
            "FEM second tone below the enclosure upper end",
            float(vals[1]), interval.upper, mode="<", fem_err=float(errs[1])))
    return combine(
        "certified enclosure forces the second tone of the apex-5/2 triangle "
        "above the sum-comparison threshold",
        checks,
        interval={"lambda_bar": interval.lambda_bar,
                  "epsilon": interval.epsilon,
                  "lower": interval.lower,
                  "upper": interval.upper},
        heuristic=True,
    )
