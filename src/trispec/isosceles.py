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
lattice, so each boundary set at each level is one fem.solve_family: a
sweep makes four of them, from a few direct snapshot solves each, whatever
the grid size.
"""

import math

import numpy as np

from .fem import richardson, solve_family
from .geometry import half_triangle
from .reports import combine, make_report

__all__ = [
    "SCALINGS",
    "SweepTable",
    "sweep",
    "verify_monotonicity",
    "observation_crossing",
]

SCALINGS = ("side", "diameter", "perimeter", "area")

# Default aperture window of the sweeps; degenerate slivers excluded.
ALPHA_MIN = math.pi / 6.0
ALPHA_MAX = 2.0 * math.pi / 3.0

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


class SweepTable:
    """Scaled tones per aperture, rows ordered by increasing alpha."""

    def __init__(self, alpha, lambda1, lambda_a, lambda_s, scaling, errors,
                 level):
        if scaling not in SCALINGS:
            raise ValueError(f"unknown scaling {scaling!r}")
        self.alpha = np.asarray(alpha, dtype=float)
        self.lambda1 = np.asarray(lambda1, dtype=float)
        self.lambda_a = np.asarray(lambda_a, dtype=float)
        self.lambda_s = np.asarray(lambda_s, dtype=float)
        self.scaling = scaling
        self.errors = np.asarray(errors, dtype=float)
        self.level = level
        if np.any(np.diff(self.alpha) <= 0):
            raise ValueError("alpha must be strictly increasing")
        if not (np.all(self.lambda1 > 0) and np.all(self.lambda_a > 0)
                and np.all(self.lambda_s > 0)):
            raise ValueError("tones must be positive")
        if np.any(self.lambda1 >= np.minimum(self.lambda_a, self.lambda_s)):
            raise ValueError("fundamental tone must stay below both classes")

    def __len__(self):
        return self.alpha.size

    def column(self, which):
        if which == "lambda1":
            return self.lambda1
        if which == "lambda_a":
            return self.lambda_a
        if which == "lambda_s":
            return self.lambda_s
        raise ValueError(f"unknown column {which!r}")

    def rescaled(self, scaling):
        """Exact algebraic transform of the table to another normalization."""
        old = np.array([scale_factor(a, self.scaling) for a in self.alpha])
        new = np.array([scale_factor(a, scaling) for a in self.alpha])
        r = new / old
        return SweepTable(self.alpha, self.lambda1 * r, self.lambda_a * r,
                          self.lambda_s * r, scaling, self.errors * r[:, None],
                          self.level)

    def to_csv(self):
        lines = [f"# scaling: {self.scaling}",
                 "alpha,lambda1,lambda_a,lambda_s"]
        # repr of a Python float is the shortest string that parses back
        # to the same double; numpy 2 scalars would print np.float64(...).
        for row in zip(self.alpha, self.lambda1, self.lambda_a,
                       self.lambda_s):
            lines.append(",".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"SweepTable({len(self)} rows, scaling={self.scaling!r}, "
                f"level={self.level!r})")


def sweep(alpha_grid, scaling, level):
    """SweepTable of the three tones over the aperture grid.

    The fundamental is the lowest tone of the free-axis half, lambda_s the
    next one; lambda_a is the lowest tone of the Dirichlet half.  Each half
    is one solve_family over the grid at level-1 and at level, and the two
    are Richardson-extrapolated.
    """
    grid = np.asarray(alpha_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if np.any(grid <= 0) or np.any(grid >= math.pi):
        raise ValueError("apertures must lie strictly inside (0, pi)")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("alpha must be strictly increasing")
    if level < 6:
        raise ValueError("level must be at least 6")
    halves = [half_triangle(float(a)) for a in grid]
    # The order of the levels does not move the peak memory: a level-6
    # sweep peaks at about 69 MB with either level first.
    fine, coarse = ([solve_family(halves, k, lev, edges)
                     for k, edges in HALF_PROBLEMS]
                    for lev in (level, level - 1))
    (sym, sym_err), (anti, anti_err) = map(richardson, coarse, fine)
    fac = np.array([scale_factor(float(a), scaling) for a in grid])
    errors = np.column_stack((sym_err[:, 0], anti_err[:, 0], sym_err[:, 1]))
    return SweepTable(grid, sym[:, 0] * fac, anti[:, 0] * fac,
                      sym[:, 1] * fac, scaling, errors * fac[:, None], level)


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


def _monotone_check(table, quantity, scaling, lo, hi, direction, strict):
    # Neighboring apertures share the mesh topology, so the discretization
    # bias drifts smoothly and cancels in successive differences; the raw
    # sign is trusted and the pair error is attached only as context.
    scaled = table if table.scaling == scaling else table.rescaled(scaling)
    pad = 1e-12
    inside = (scaled.alpha >= lo - pad) & (scaled.alpha <= hi + pad)
    vals = scaled.column(quantity)[inside]
    col = {"lambda1": 0, "lambda_a": 1, "lambda_s": 2}[quantity]
    errs = scaled.errors[inside, col]
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
                       worst_alpha=float(scaled.alpha[inside][worst]))


def _mirror_check(table):
    """Antisymmetric tone under area scaling agrees at alpha and pi - alpha.

    The mirrored aperture rarely lands on a grid point, so its value is
    read off by linear interpolation; the interpolation error is far
    below the half-percent agreement demanded here.
    """
    scaled = table if table.scaling == "area" else table.rescaled("area")
    claim = "mirrored apertures share the area-scaled antisymmetric tone"
    lo, hi = scaled.alpha[0], scaled.alpha[-1]
    mirrored = (scaled.alpha < math.pi / 2.0) & (math.pi - scaled.alpha <= hi)
    idx = np.nonzero(mirrored)[0]
    if idx.size == 0:
        return make_report(claim, 0.0, 0.0, mode="<=", fem_err=1.0,
                           pairs=0, note="no mirrored pairs on this grid")
    if idx.size > MIRROR_MAX_PAIRS:
        idx = idx[np.linspace(0, idx.size - 1, MIRROR_MAX_PAIRS).astype(int)]
    partner = np.interp(math.pi - scaled.alpha[idx],
                        scaled.alpha, scaled.lambda_a)
    devs = np.abs(scaled.lambda_a[idx] - partner) / scaled.lambda_a[idx]
    return make_report(claim, float(np.max(devs)), 0.005, mode="<",
                       pairs=int(idx.size))


def verify_monotonicity(table):
    """Verify every claimed monotone interval of the first two tones.

    Takes a sweep under any scaling and transforms it exactly to the
    others, then checks the sign of every successive difference on each
    claimed interval.  The symmetric tone carries no claim, and neither
    does the side-scaled fundamental between pi/3 and pi/2, where its
    interior minimum lives.
    """
    if float(np.max(np.diff(table.alpha))) > MONOTONE_MAX_SPACING:
        raise ValueError(
            f"grid spacing exceeds {MONOTONE_MAX_SPACING} rad")
    checks = [_monotone_check(table, *claim) for claim in MONOTONE_CLAIMS]
    checks.append(_mirror_check(table))
    return combine(
        "claimed monotone intervals of the fundamental and antisymmetric "
        "tones hold on the sweep grid",
        checks, scaling=table.scaling, points=len(table),
        spacing=float(np.max(np.diff(table.alpha))))


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
        edges = np.linspace(ALPHA_MIN, ALPHA_MAX, 41)
        grid = 0.5 * (edges[:-1] + edges[1:])
    grid = np.asarray(grid, dtype=float)
    if not (grid.min() < math.pi / 3.0 < grid.max()):
        raise ValueError("grid must straddle pi/3")
    table = sweep(grid, "side", level)
    gap = table.lambda_a - table.lambda_s
    err = table.errors[:, 1] + table.errors[:, 2]
    below = table.alpha < math.pi / 3.0
    above = table.alpha > math.pi / 3.0

    def side_check(mask, want_positive, label):
        g = gap[mask] if want_positive else -gap[mask]
        worst = int(np.argmin(g))
        return make_report(
            f"{label} class strictly lower on its side of pi/3",
            float(g[worst]), 0.0, fem_err=float(err[mask][worst]),
            worst_alpha=float(table.alpha[mask][worst]),
            points=int(mask.sum()))

    checks = [side_check(below, True, "symmetric"),
              side_check(above, False, "antisymmetric")]

    sign_flip = np.nonzero(np.diff(np.sign(gap)))[0]
    crossing = None
    if sign_flip.size:
        i = int(sign_flip[0])
        a0, a1 = table.alpha[i], table.alpha[i + 1]
        g0, g1 = gap[i], gap[i + 1]
        crossing = float(a0 - g0 * (a1 - a0) / (g1 - g0))
        spacing = float(np.max(np.diff(table.alpha)))
        checks.append(make_report(
            "estimated class crossing lands at pi/3",
            abs(crossing - math.pi / 3.0), spacing, mode="<"))
    return combine(
        "second-mode symmetry class crosses exactly at the equilateral "
        "aperture",
        checks, crossing=crossing, points=len(table), level=level)
