"""Test instruments for the aperture sweeps: a refined default grid, a
parabolic minimizer of one sweep column, and the whole isosceles triangle
whose symmetric half the sweeps solve.  The reference checks of the figure
minima and of the half-triangle reduction use them; no pipeline does.
"""

import math

import numpy as np

from trispec.geometry import Triangle
from trispec.isosceles import ALPHA_MAX, ALPHA_MIN, COLUMNS


def aperture_triangle(alpha):
    """The whole unit-side isosceles triangle of aperture alpha, apex at the
    origin and axis along +x; geometry.half_triangle(alpha) is its upper
    half."""
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    return Triangle([(0.0, 0.0), (c, -s), (c, s)])


def default_grid(steps=61):
    """Uniform apertures on [pi/6, 2pi/3] with a 4x refined band at pi/3.

    The refinement keeps the corner in the diameter-scaled fundamental
    tone and the class crossing well resolved without densifying the
    whole sweep.
    """
    if steps < 3:
        raise ValueError("need at least three points")
    base = np.linspace(ALPHA_MIN, ALPHA_MAX, steps)
    h = base[1] - base[0]
    band = np.arange(math.pi / 3.0 - 2.0 * h, math.pi / 3.0 + 2.0 * h, h / 4.0)
    out = np.unique(np.concatenate([base, band]))
    out = out[(out >= ALPHA_MIN) & (out <= ALPHA_MAX)]
    # base and band both land on pi/3 up to roundoff; keep one of each pair
    keep = np.concatenate([[True], np.diff(out) > 1e-9])
    return out[keep]


def find_min(s, which):
    """Refined minimizer (alpha*, value*) of one tone column of a sweep.

    Fits a parabola through the grid minimum and its neighbors; the
    minimum must be interior to the grid.
    """
    vals = s.tones[:, COLUMNS.index(which)]
    i = int(np.argmin(vals))
    if i == 0 or i == vals.size - 1:
        raise ValueError(f"minimum of {which} lies at the grid edge")
    x0, x1, x2 = s.alpha[i - 1:i + 2]
    y0, y1, y2 = vals[i - 1:i + 2]
    d01 = (y1 - y0) / (x1 - x0)
    d12 = (y2 - y1) / (x2 - x1)
    curvature = (d12 - d01) / (x2 - x0)
    if curvature <= 0:
        raise ValueError(f"no convex dip around the minimum of {which}")
    alpha_star = 0.5 * (x0 + x1 - d01 / curvature)
    value_star = (y1 + curvature * (alpha_star - x0) * (alpha_star - x1)
                  + d01 * (alpha_star - x1))
    return float(alpha_star), float(value_star)
