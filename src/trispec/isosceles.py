"""Aperture sweeps of the symmetry-resolved tones of isosceles triangles.

The three quantities tracked against the aperture angle are the
fundamental tone, the lowest antisymmetric tone, and the lowest symmetric
tone above the fundamental.  Each can be normalized by squared side,
squared diameter, squared perimeter, or area, and the monotonicity
patterns differ by scaling; this module checks the claimed monotone
intervals and the switch of the second mode's class at pi/3.  All three
tones come from the half triangle: full Dirichlet data on the half gives
the antisymmetric tones of the whole, a free condition on the symmetry
line gives the symmetric ones.  The fundamental tone is symmetric, so it
is the lowest tone of the free-axis half and needs no solve on the whole
triangle.  The half triangles of a grid are right triangles on one
lattice, so each boundary set is one fem.solve_family_pair over both
levels: a sweep makes two of them, from a few direct snapshot solves per
level, whatever the grid size.
"""

import math
from collections import namedtuple

import numpy as np

from .fem import richardson, solve_family_pair
from .geometry import half_triangle
from .reports import combine, make_report

__all__ = [
    "SCALINGS",
    "COLUMNS",
    "Sweep",
    "sweep",
    "scaled",
    "verify_monotonicity",
    "observation_crossing",
]

SCALINGS = ("side", "diameter", "perimeter", "area")

# Tone columns of a sweep: the fundamental, the lowest antisymmetric tone
# and the lowest symmetric tone above the fundamental.
COLUMNS = ("lambda1", "lambda_a", "lambda_s")

# The n apertures of a sweep and, per aperture, its tones and their error
# bars, each an (n, 3) array in COLUMNS order.
Sweep = namedtuple("Sweep", "alpha tones errors")

# Default aperture window of the sweeps; degenerate slivers excluded.
ALPHA_MIN = math.pi / 6.0
ALPHA_MAX = 2.0 * math.pi / 3.0

# Apertures of observation's uniform window; 41 keeps pi/3 off the grid,
# where the two classes degenerate and the gap has no sign.
OBSERVATION_STEPS = 41

# Coarsest mesh level a sweep accepts.
SWEEP_MIN_LEVEL = 6

# (k, Dirichlet edges) of the half-triangle solves: the free-axis half
# gives the fundamental and lambda_s, the Dirichlet half lambda_a.
HALF_PROBLEMS = ((2, (1, 2)), (1, (0, 1, 2)))

# Spacing required before successive differences are trusted to resolve
# the claimed monotone intervals.
MONOTONE_MAX_SPACING = 0.02

# Most mirrored aperture pairs the mirror check compares.
MIRROR_MAX_PAIRS = 10


def scale_factor(alpha, scaling):
    """Normalization multiplying a raw eigenvalue at unit equal side.

    Squared side, squared diameter, squared perimeter or area of the
    isosceles triangle with aperture alpha and equal sides 1.
    """
    if scaling == "side":
        return 1.0
    if scaling == "diameter":
        # The equal sides dominate up to aperture pi/3, the base beyond.
        diam = 1.0 if alpha <= math.pi / 3.0 else 2.0 * math.sin(alpha / 2.0)
        return diam ** 2
    if scaling == "perimeter":
        return (2.0 * (1.0 + math.sin(alpha / 2.0))) ** 2
    if scaling == "area":
        return 0.5 * math.sin(alpha)
    raise ValueError(f"unknown scaling {scaling!r}")


def sweep(alpha_grid, level):
    """Sweep of the unit-side tones over the aperture grid.

    The fundamental is the lowest tone of the free-axis half, lambda_s the
    next one; lambda_a is the lowest tone of the Dirichlet half.  Each half
    is one solve_family_pair over the grid at level-1 and at level, and
    the two are Richardson-extrapolated.
    """
    grid = np.asarray(alpha_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if np.any(grid <= 0) or np.any(grid >= math.pi):
        raise ValueError("apertures must lie strictly inside (0, pi)")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("alpha must be strictly increasing")
    if level < SWEEP_MIN_LEVEL:
        raise ValueError(f"level must be at least {SWEEP_MIN_LEVEL}")
    halves = [half_triangle(float(a)) for a in grid]
    # Each half solves its coarse family first, which picks the fine
    # family's first snapshots and their starts.  The level order does not
    # move the peak memory: a level-6 sweep peaks at about 69 MB either
    # way, within a few tenths of a MB of heap placement.
    (sym, sym_err), (anti, anti_err) = (
        richardson(*solve_family_pair(halves, k, level, edges))
        for k, edges in HALF_PROBLEMS)
    tones = np.column_stack((sym[:, 0], anti[:, 0], sym[:, 1]))
    errors = np.column_stack((sym_err[:, 0], anti_err[:, 0], sym_err[:, 1]))
    if not np.all(tones[:, 0] > 0):
        raise ValueError("fundamental tone must be positive")
    if not np.all(tones[:, 0] < np.minimum(tones[:, 1], tones[:, 2])):
        raise ValueError("fundamental tone must stay below both classes")
    return Sweep(grid, tones, errors)


def scaled(s, scaling):
    """The sweep with its tones and error bars under another normalization."""
    fac = np.array([scale_factor(float(a), scaling) for a in s.alpha])
    return Sweep(s.alpha, s.tones * fac[:, None], s.errors * fac[:, None])


# The monotone intervals claimed for each quantity and scaling: segments
# of (quantity, scaling, lo, hi, direction, strict).
PI = math.pi
MONOTONE_CLAIMS = (
    ("lambda1", "side", 0.0, PI / 3.0, "dec", True),
    ("lambda1", "side", PI / 2.0, PI, "inc", True),
    ("lambda1", "diameter", 0.0, PI / 3.0, "dec", True),
    ("lambda1", "diameter", PI / 3.0, PI, "inc", True),
    ("lambda1", "perimeter", 0.0, PI / 3.0, "dec", True),
    ("lambda1", "perimeter", PI / 3.0, PI, "inc", True),
    ("lambda1", "area", 0.0, PI / 3.0, "dec", False),
    ("lambda1", "area", PI / 3.0, PI, "inc", False),
    ("lambda_a", "side", 0.0, PI / 2.0, "dec", True),
    ("lambda_a", "side", PI / 2.0, PI, "inc", True),
    ("lambda_a", "area", 0.0, PI / 2.0, "dec", False),
    ("lambda_a", "area", PI / 2.0, PI, "inc", False),
    ("lambda_a", "diameter", 0.0, PI / 3.0, "dec", True),
    ("lambda_a", "diameter", PI / 3.0, PI, "inc", True),
)


def _monotone_check(s, quantity, scaling, lo, hi, direction, strict):
    # Neighboring apertures share the mesh topology, so the discretization
    # bias drifts smoothly and cancels in successive differences; the raw
    # sign is trusted and the pair error is attached only as context.
    pad = 1e-12
    inside = (s.alpha >= lo - pad) & (s.alpha <= hi + pad)
    col = COLUMNS.index(quantity)
    vals = s.tones[inside, col]
    errs = s.errors[inside, col]
    word = "decreasing" if direction == "dec" else "increasing"
    claim = (f"{quantity} under {scaling} scaling "
             f"{'strictly ' if strict else ''}{word} "
             f"on [{lo:.4g}, {hi:.4g}]")
    if vals.size < 3:
        # too few points to judge the claim: neither held nor broken
        return make_report(claim, 0.0, 0.0, mode="<=", fem_err=1.0,
                           points=int(vals.size), note="grid misses interval")
    diffs = np.diff(vals)
    if direction == "inc":
        diffs = -diffs
    # every difference must point the claimed way; judge the worst one
    worst = int(np.argmax(diffs))
    pair_err = float(errs[worst] + errs[worst + 1])
    return make_report(claim, float(diffs[worst]), 0.0,
                       mode="<" if strict else "<=",
                       points=int(vals.size), pair_error=pair_err,
                       worst_alpha=float(s.alpha[inside][worst]))


def _mirror_check(area):
    """Antisymmetric tone under area scaling agrees at alpha and pi - alpha.

    The mirrored aperture rarely lands on a grid point, so its value is
    read off by linear interpolation; the interpolation error is far
    below the half-percent agreement demanded here.
    """
    claim = "mirrored apertures share the area-scaled antisymmetric tone"
    alpha, lambda_a = area.alpha, area.tones[:, 1]
    mirrored = (alpha < math.pi / 2.0) & (math.pi - alpha <= alpha[-1])
    idx = np.nonzero(mirrored)[0]
    if idx.size == 0:
        return make_report(claim, 0.0, 0.0, mode="<=", fem_err=1.0,
                           pairs=0, note="no mirrored pairs on this grid")
    if idx.size > MIRROR_MAX_PAIRS:
        idx = idx[np.linspace(0, idx.size - 1, MIRROR_MAX_PAIRS).astype(int)]
    partner = np.interp(math.pi - alpha[idx], alpha, lambda_a)
    devs = np.abs(lambda_a[idx] - partner) / lambda_a[idx]
    return make_report(claim, float(np.max(devs)), 0.005, mode="<",
                       pairs=int(idx.size))


def verify_monotonicity(s):
    """Verify every claimed monotone interval of the first two tones.

    Scales the unit-side sweep once to each normalization, then checks
    the sign of every successive difference on each claimed interval.
    The symmetric tone carries no claim, and neither does the side-scaled
    fundamental between pi/3 and pi/2, where its interior minimum lives.
    """
    spacing = float(np.max(np.diff(s.alpha)))
    if spacing > MONOTONE_MAX_SPACING:
        raise ValueError(
            f"grid spacing exceeds {MONOTONE_MAX_SPACING} rad")
    by_scaling = {scaling: scaled(s, scaling) for scaling in SCALINGS}
    checks = [_monotone_check(by_scaling[claim[1]], *claim)
              for claim in MONOTONE_CLAIMS]
    checks.append(_mirror_check(by_scaling["area"]))
    return combine(
        "claimed monotone intervals of the fundamental and antisymmetric "
        "tones hold on the sweep grid",
        checks, scaling="side", points=s.alpha.size, spacing=spacing)


def observation_crossing(grid, level):
    """Verify the symmetry class of the second mode switches at pi/3.

    Below the equilateral aperture the lowest symmetric tone above the
    fundamental sits under the antisymmetric tone; above it the order is
    reversed.  The crossing location is estimated from the sign change of
    the gap and must land at pi/3 within the grid resolution.

    The default grid straddles pi/3 at half-spacing instead of touching
    it: at the crossing itself the two classes are degenerate and no
    strict comparison can be resolved.
    """
    if grid is None:
        edges = np.linspace(ALPHA_MIN, ALPHA_MAX, OBSERVATION_STEPS)
        grid = 0.5 * (edges[:-1] + edges[1:])
    grid = np.asarray(grid, dtype=float)
    if not (grid.min() < math.pi / 3.0 < grid.max()):
        raise ValueError("grid must straddle pi/3")
    s = sweep(grid, level)
    gap = s.tones[:, 1] - s.tones[:, 2]
    err = s.errors[:, 1] + s.errors[:, 2]
    below = s.alpha < math.pi / 3.0
    above = s.alpha > math.pi / 3.0

    def side_check(mask, want_positive, label):
        g = gap[mask] if want_positive else -gap[mask]
        worst = int(np.argmin(g))
        return make_report(
            f"{label} class strictly lower on its side of pi/3",
            float(g[worst]), 0.0, fem_err=float(err[mask][worst]),
            worst_alpha=float(s.alpha[mask][worst]),
            points=int(mask.sum()))

    checks = [side_check(below, True, "symmetric"),
              side_check(above, False, "antisymmetric")]

    sign_flip = np.nonzero(np.diff(np.sign(gap)))[0]
    crossing = None
    if sign_flip.size:
        i = int(sign_flip[0])
        a0, a1 = s.alpha[i], s.alpha[i + 1]
        g0, g1 = gap[i], gap[i + 1]
        crossing = float(a0 - g0 * (a1 - a0) / (g1 - g0))
        spacing = float(np.max(np.diff(s.alpha)))
        checks.append(make_report(
            "estimated class crossing lands at pi/3",
            abs(crossing - math.pi / 3.0), spacing, mode="<"))
    return combine(
        "second-mode symmetry class crosses exactly at the equilateral "
        "aperture",
        checks, crossing=crossing, points=s.alpha.size, level=level)
