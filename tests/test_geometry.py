import json
import math

import numpy as np
import pytest

from trispec.geometry import (
    EQUILATERAL_APEX,
    Triangle,
    fan_triangle,
    half_triangle,
    polya_upper,
    rectangle_eigen,
    rectangle_minimizers,
    subequilateral_hull,
    triangle_from_json,
)
from trispec.fem import mesh_triangle, solve_lowest
from trispec.isosceles import scale_factor

from _sweeps import aperture_triangle


def unit_equilateral():
    return Triangle([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])


def random_triangle(rng, scale=1.0):
    while True:
        v = rng.uniform(-scale, scale, size=(3, 2))
        try:
            return Triangle(v)
        except ValueError:
            continue


def test_basic_functionals():
    t = Triangle([(0, 0), (1, 0), (0, 1)])
    assert t.area == pytest.approx(0.5)
    assert t.side_lengths.sum() == pytest.approx(2 + math.sqrt(2))
    assert t.diameter == pytest.approx(math.sqrt(2))
    # side i is opposite vertex i
    np.testing.assert_allclose(t.side_lengths, [math.sqrt(2), 1.0, 1.0])
    assert np.sum(t.angles) == pytest.approx(math.pi, rel=1e-12)


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        Triangle([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(ValueError):
        Triangle([(0, 0), (0, 0), (0, 0)])
    with pytest.raises(ValueError):
        Triangle([(0, 0), (1, 0), (0.5, 1e-16)])
    with pytest.raises(ValueError):
        Triangle([(0, 0), (1, 0)])


def test_triangles_whose_area_underflows_rejected():
    # well shaped, but lambda_1 >= 18.17 / area overflows
    for small in (1e-162, 1e-200, 5e-324):
        with pytest.raises(ValueError, match="too small"):
            Triangle([(0, 0), (small, 0), (0, small)])
    # the shape test is scale-free: a flat one is degenerate at any size
    for scale in (1e-160, 1.0, 1e150):
        with pytest.raises(ValueError, match="degenerate"):
            Triangle(np.array([(0, 0), (1, 0), (0.5, 1e-16)]) * scale)
    assert Triangle([(0, 0), (3e-154, 0), (0, 3e-154)]).area == (
        pytest.approx(4.5e-308))


def test_overflowing_triangles_rejected():
    # the squared diameter of these overflows, and with it every form a
    # solve builds; the check itself raises no overflow warning
    for big in (1e155, 1.3e154, 1e300):
        with pytest.raises(ValueError, match="squared diameter overflows"):
            Triangle([(0, 0), (big, 0), (0, big)])
    with pytest.raises(ValueError, match="squared diameter overflows"):
        Triangle([(-1e308, 0), (1e308, 0), (0, 1)])
    # 1e150 still solves, to the unit triangle's values scaled by 1e-300
    t = Triangle([(0, 0), (1e150, 0), (0, 1e150)])
    assert t.area == pytest.approx(0.5e300)
    assert t.diameter == pytest.approx(math.sqrt(2) * 1e150)
    unit = Triangle([(0, 0), (1, 0), (0, 1)])
    values = [solve_lowest(mesh_triangle(s, 4), 2).values
              for s in (t, unit)]
    np.testing.assert_allclose(values[0] * 1e300, values[1], rtol=1e-10)


def test_functionals_rigid_motion_invariant():
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = random_triangle(rng)
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        if rng.uniform() < 0.5:
            rot = rot @ np.diag([1.0, -1.0])
        shift = rng.uniform(-5, 5, size=2)
        perm = rng.permutation(3)
        t2 = Triangle(t.vertices[perm] @ rot.T + shift)
        assert t2.area == pytest.approx(t.area, rel=1e-12)
        assert t2.side_lengths.sum() == pytest.approx(t.side_lengths.sum(),
                                                      rel=1e-12)
        assert t2.diameter == pytest.approx(t.diameter, rel=1e-12)
        assert polya_upper(t2) == pytest.approx(polya_upper(t), rel=1e-12)


def test_scaled():
    t = unit_equilateral()
    s = Triangle(t.vertices * 3.0)
    assert s.area == pytest.approx(9 * t.area, rel=1e-12)
    assert s.diameter == pytest.approx(3 * t.diameter, rel=1e-12)
    with pytest.raises(ValueError):
        Triangle(t.vertices * 0.0)


def test_contains():
    t = Triangle([(0, 0), (2, 0), (0, 2)])
    assert t.contains((0.5, 0.5))
    assert t.contains((0, 0))
    assert t.contains((1, 1))  # on the hypotenuse
    assert not t.contains((1.2, 1.2))
    flags = t.contains([(0.1, 0.1), (3, 3)])
    assert list(flags) == [True, False]


def test_fan_triangle():
    t = fan_triangle(EQUILATERAL_APEX)
    assert t.side_lengths == pytest.approx([2, 2, 2])
    # a negative apex height would make a valid, mirrored triangle
    with pytest.raises(ValueError, match="positive"):
        fan_triangle(-1.0)


def test_isosceles_aperture():
    t = aperture_triangle(math.pi / 3)
    assert t.side_lengths == pytest.approx([1, 1, 1], rel=1e-12)
    a = math.pi / 3
    assert scale_factor(a, "area") == pytest.approx(math.sqrt(3) / 4, rel=1e-12)
    assert scale_factor(a, "perimeter") == pytest.approx(9.0, rel=1e-12)
    assert scale_factor(a, "diameter") == pytest.approx(1.0)
    # sweep scale factors agree with direct triangle computation, and the
    # half triangle is the upper half of the whole one
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0.2, math.pi - 0.2, size=12):
        t = aperture_triangle(alpha)
        half = half_triangle(alpha)
        assert scale_factor(alpha, "area") == pytest.approx(t.area, rel=1e-12)
        assert 2.0 * half.area == pytest.approx(t.area, rel=1e-12)
        assert scale_factor(alpha, "perimeter") == pytest.approx(
            t.side_lengths.sum() ** 2, rel=1e-12)
        assert scale_factor(alpha, "diameter") == pytest.approx(
            t.diameter ** 2, rel=1e-12)
        np.testing.assert_allclose(half.vertices[[0, 2]], t.vertices[[0, 2]],
                                   rtol=0, atol=1e-15)
        assert half.angles[0] == pytest.approx(alpha / 2.0, rel=1e-12)
    half = half_triangle(math.pi / 2)
    assert half.area == pytest.approx(0.25, rel=1e-12)
    # apertures 0 and pi flatten the half triangle
    with pytest.raises(ValueError, match="degenerate"):
        half_triangle(0.0)
    with pytest.raises(ValueError, match="degenerate"):
        half_triangle(math.pi)


def test_hull_known_cases():
    b = subequilateral_hull(Triangle([(0, 0), (1, 0), (0, 1)]))
    assert b == pytest.approx(1 / math.tan(math.pi / 8), rel=1e-12)
    assert subequilateral_hull(unit_equilateral()) == pytest.approx(
        EQUILATERAL_APEX, rel=1e-12)


def test_hull_idempotent_on_family():
    for b in (1.8, 2.0, 3.0, 7.5):
        assert subequilateral_hull(fan_triangle(b)) == pytest.approx(
            b, rel=1e-12)


def test_hull_contains_congruent_copy():
    # Place the input with its two longest sides along the hull's equal
    # sides (shared vertex at the apex); every vertex must land inside.
    rng = np.random.default_rng(23)
    for _ in range(40):
        t = random_triangle(rng)
        hull = subequilateral_hull(t)
        assert hull >= EQUILATERAL_APEX - 1e-12
        ht = Triangle(fan_triangle(hull).vertices
                      * (t.diameter / fan_triangle(hull).diameter))
        apex = ht.vertices[2]
        i = int(np.argmin(t.side_lengths))
        v = t.vertices[i]
        others = t.vertices[[j for j in range(3) if j != i]]
        u1 = (others[0] - v) / np.linalg.norm(others[0] - v)
        u2 = (others[1] - v) / np.linalg.norm(others[1] - v)
        bis = u1 + u2
        bis /= np.linalg.norm(bis)
        # rotate the angle bisector at v onto the hull's downward axis
        phi = math.atan2(-1.0, 0.0) - math.atan2(bis[1], bis[0])
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        image = (t.vertices - v) @ rot.T + apex
        assert np.all(ht.contains(image, tol=1e-9))
        assert ht.diameter == pytest.approx(t.diameter, rel=1e-12)


def test_polya_upper_equilateral_sharp():
    t = unit_equilateral()
    assert polya_upper(t) == pytest.approx(16 * math.pi**2 / 3, rel=1e-12)


def test_bound_sandwich_random():
    # the Polya upper bound sits above the Polya-Szego lower bound
    # 4 pi^2 / (sqrt(3) A), the equilateral's fundamental at equal area
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = random_triangle(rng)
        szego = 4.0 * math.pi**2 / (math.sqrt(3.0) * t.area)
        assert polya_upper(t) >= szego * (1 - 1e-12)


def test_rectangle_eigen():
    phi = math.pi / 4
    assert rectangle_eigen(phi, 1, 1) == pytest.approx(4 * math.pi**2, rel=1e-12)
    assert rectangle_eigen(phi, 2, 1) == pytest.approx(10 * math.pi**2, rel=1e-12)
    with pytest.raises(ValueError):
        rectangle_eigen(0.0, 1, 1)
    with pytest.raises(ValueError):
        rectangle_eigen(1.0, 1, 1)
    with pytest.raises(ValueError):
        rectangle_eigen(0.5, 0, 1)


def test_rectangle_minimizers_closed_form():
    mins = rectangle_minimizers()
    # stationarity: tan^4(phi) = 1/4 for lambda_2 and 2/5 for the sum
    assert math.tan(mins["lambda2"]["phi"]) ** 4 == pytest.approx(
        0.25, rel=1e-14)
    assert math.tan(mins["lambda12"]["phi"]) ** 4 == pytest.approx(
        0.4, rel=1e-14)
    assert mins["lambda2"]["phi"] == pytest.approx(
        math.atan(2 ** -0.5), abs=1e-15)
    assert mins["lambda12"]["phi"] == pytest.approx(
        math.atan(0.4 ** 0.25), abs=1e-15)
    for entry in mins.values():
        assert entry["phi"] < math.pi / 4
    assert mins["lambda2"]["value"] == pytest.approx(
        9 * math.pi**2, rel=1e-14)
    assert mins["lambda12"]["value"] == pytest.approx(
        (7 + 2 * math.sqrt(10)) * math.pi**2, rel=1e-14)


def test_triangle_json_roundtrip():
    t = Triangle([(0, 0), (1.25, 0), (0.3, 2.0)])
    s = json.dumps(t.vertices.tolist())
    t2 = triangle_from_json(s)
    np.testing.assert_array_equal(t2.vertices, t.vertices)
    with pytest.raises(ValueError):
        triangle_from_json("[[0,0],[1,0],[2,0]]")
    # numpy would read a numeric string or a boolean as a number, and
    # overflows on a 401-digit integer
    for bad in ('"1"', "true", "false", "null", "[1]", "1" + "0" * 400):
        with pytest.raises(ValueError, match="must be numbers"):
            triangle_from_json(f"[[0,0],[1,0],[0,{bad}]]")
