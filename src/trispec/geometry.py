"""Planar triangles and the closed-form facts about their spectra.

Dirichlet eigenvalues scale like 1/length^2, so every inequality in this
package is stated for a scale-invariant product: eigenvalue times squared
diameter, squared perimeter, or area.  This module holds the triangle type,
which carries those functionals, the two one-parameter families the claims
are stated for (the fan triangles T(0, b) and the half triangles of the
unit-side isosceles triangle of aperture alpha), and the closed-form facts
(the Polya-type upper bound on the fundamental tone, the two-tone profiles
C_funcs, rectangle spectra) that the verification routines compare against.
"""

import json
import math
import sys

import numpy as np

__all__ = [
    "Triangle",
    "fan_triangle",
    "half_triangle",
    "EQUILATERAL_APEX",
    "subequilateral_hull",
    "polya_upper",
    "C_funcs",
    "rectangle_eigen",
    "rectangle_minimizers",
    "triangle_from_json",
]

# Apex height of the equilateral member of the fan family T(0, b).
EQUILATERAL_APEX = math.sqrt(3.0)

# |signed area| below this multiple of diameter^2 counts as degenerate.
DEGENERACY_RTOL = 1e-14


def _signed_area(v):
    (x1, y1), (x2, y2), (x3, y3) = v
    return 0.5 * ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


def _diameter(v):
    return max(float(np.linalg.norm(v[i] - v[j]))
               for i, j in ((0, 1), (1, 2), (2, 0)))


class Triangle:
    """Nondegenerate planar triangle given by its three vertices.

    Vertices are stored as a (3, 2) float array.  Side i is the side
    opposite vertex i, and the interior angle at vertex i is the angle
    between the two sides meeting there.
    """

    def __init__(self, vertices):
        try:
            v = np.asarray(vertices, dtype=float)
        except (TypeError, OverflowError) as err:
            raise ValueError(f"vertices must be numbers: {err}") from err
        if v.shape != (3, 2):
            raise ValueError(f"expected three planar vertices, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        # In Python floats, which overflow to inf without a warning.  The
        # area is at most the squared diameter, so it is finite too.
        corners = v.tolist()
        longest = max(math.hypot(p[0] - q[0], p[1] - q[1])
                      for p, q in zip(corners, corners[1:] + corners[:1]))
        if not math.isfinite(longest * longest):
            raise ValueError("triangle too large: its squared diameter "
                             "overflows")
        self.vertices = v
        # The shape is judged on the copy scaled by a power of two into
        # diameters [1/2, 1), which is exact, so that no product underflows.
        unit = np.ldexp(v, -math.frexp(longest)[1])
        d = _diameter(unit)
        if d == 0.0 or abs(_signed_area(unit)) < DEGENERACY_RTOL * d * d:
            raise ValueError("degenerate triangle: area too small relative to diameter^2")
        # By Faber-Krahn lambda_1 >= pi j_{0,1}^2 / area, about 18.17 / area,
        # which overflows below the smallest normal area.
        if self.area < sys.float_info.min:
            raise ValueError("triangle too small: its area underflows, and "
                             "its eigenvalues overflow")

    def __repr__(self):
        return f"Triangle({self.vertices.tolist()})"

    @property
    def signed_area(self):
        """Half the cross product of two edge vectors; sign gives orientation."""
        return _signed_area(self.vertices)

    @property
    def area(self):
        return abs(self.signed_area)

    @property
    def side_lengths(self):
        """Array of side lengths; entry i is the side opposite vertex i."""
        v = self.vertices
        return np.array([
            np.linalg.norm(v[1] - v[2]),
            np.linalg.norm(v[2] - v[0]),
            np.linalg.norm(v[0] - v[1]),
        ])

    @property
    def diameter(self):
        """Largest pairwise vertex distance (the longest side)."""
        return _diameter(self.vertices)

    @property
    def angles(self):
        """Interior angles; entry i is the angle at vertex i."""
        v = self.vertices
        out = np.empty(3)
        for i in range(3):
            e1 = v[(i + 1) % 3] - v[i]
            e2 = v[(i + 2) % 3] - v[i]
            cross = e1[0] * e2[1] - e1[1] * e2[0]
            out[i] = math.atan2(abs(cross), float(np.dot(e1, e2)))
        return out

    def contains(self, points, tol=1e-12):
        """True where each query point lies in the closed triangle.

        Containment is decided by barycentric coordinates with slack tol
        relative to the triangle scale, so boundary points count as inside.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        a, b, c = self.vertices
        m = np.column_stack((b - a, c - a))
        uv = np.linalg.solve(m, (p - a).T).T
        u, v = uv[:, 0], uv[:, 1]
        ok = (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol)
        return ok if ok.size > 1 else bool(ok[0])


def fan_triangle(b):
    """The fan triangle T(0, b): base corners (-1, 0), (1, 0), apex (0, b).

    b > sqrt(3) gives the subequilateral isosceles triangles; b = sqrt(3) is
    equilateral with diameter 2.
    """
    if not (b > 0):
        raise ValueError("apex height b must be positive")
    return Triangle([(-1.0, 0.0), (1.0, 0.0), (0.0, float(b))])


def half_triangle(alpha):
    """Upper half of the unit-side isosceles triangle with apex angle alpha.

    The apex sits at the origin and the axis of symmetry along the positive
    x axis, so the symmetry line is the side from (0, 0) to (c, 0).
    """
    c = math.cos(alpha / 2.0)
    s = math.sin(alpha / 2.0)
    return Triangle([(0.0, 0.0), (c, 0.0), (c, s)])


class FanTriangle:
    """T(a, b) as perfbench/profile_levels.py builds it; use fan_triangle."""

    def __init__(self, a, b):
        self.triangle = Triangle([(-1.0, 0.0), (1.0, 0.0), (a, b)])


def subequilateral_hull(t):
    """Isosceles subequilateral triangle containing a congruent copy of t.

    Let beta be the interior angle between the two longest sides of t (the
    angle opposite the shortest side; ties resolve by vertex order and never
    change the angle).  Extending the second-longest side to the length of
    the longest yields an isosceles triangle with aperture beta <= pi/3 and
    the same diameter as t.  Normalized to base (-1, 0), (1, 0) this is the
    fan triangle T(0, b) with b = cot(beta/2) >= sqrt(3), with equality
    exactly for equilateral input; returns that apex height b.
    """
    i = int(np.argmin(t.side_lengths))
    beta = float(t.angles[i])
    return 1.0 / math.tan(beta / 2.0)


def polya_upper(t):
    """Polya-type upper bound on the fundamental tone: pi^2/3 * sum(l_i^2) / A^2."""
    l2 = float(np.sum(t.side_lengths**2))
    return (math.pi**2 / 3.0) * l2 / t.area**2


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


def rectangle_eigen(phi, p, q):
    """Mode (p, q) of the unit-diameter rectangle with sides cos(phi), sin(phi).

    Requires 0 < phi <= pi/4, so the x side is the longer one and the
    second eigenvalue is the (2, 1) mode.
    """
    if not (0.0 < phi <= math.pi / 4.0):
        raise ValueError("phi must lie in (0, pi/4]")
    if p < 1 or q < 1:
        raise ValueError("mode indices must be >= 1")
    c, s = math.cos(phi), math.sin(phi)
    return math.pi**2 * (p**2 / c**2 + q**2 / s**2)


def rectangle_minimizers():
    """Diameter-normalized rectangle minimizers of lambda_2 and lambda_1 + lambda_2.

    A sum of modes (p, q) is pi^2 (P/cos^2 phi + Q/sin^2 phi) with P the sum
    of the p^2 and Q the sum of the q^2; it is convex on (0, pi/2) and
    stationary exactly where tan^4 phi = Q/P.  So lambda_2 = (2, 1) is
    minimized at tan^4 phi = 1/4 with value 9 pi^2, and lambda_1 + lambda_2
    at tan^4 phi = 2/5 with value (7 + 2 sqrt(10)) pi^2.  Both ratios are
    below 1, so both minimizers lie strictly below pi/4 and the square
    minimizes neither.  Returns a dict with the argmin and value for each,
    the value evaluated by rectangle_eigen at the argmin.
    """
    out = {}
    for name, modes in (("lambda2", ((2, 1),)),
                        ("lambda12", ((1, 1), (2, 1)))):
        ratio = sum(q * q for _, q in modes) / sum(p * p for p, _ in modes)
        phi = math.atan(ratio ** 0.25)
        value = sum(rectangle_eigen(phi, p, q) for p, q in modes)
        out[name] = {"phi": phi, "value": value}
    return out


def triangle_from_json(text):
    """Triangle from a JSON array of three [x, y] pairs, validated.

    The text comes from outside the program, so every coordinate must be a
    JSON number: strings and booleans, which numpy would read as numbers,
    are refused.
    """
    vertices = json.loads(text)
    for point in vertices if isinstance(vertices, list) else ():
        for x in point if isinstance(point, list) else ():
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(
                    f"vertices must be numbers, got {json.dumps(x)}")
    return Triangle(vertices)
