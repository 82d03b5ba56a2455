"""Tests for the aperture sweeps and the section on isosceles tone curves."""

import math

import numpy as np
import pytest

from trispec import fem, isosceles
from trispec.cli import dispatch
from trispec.fem import solve_extrapolated
from trispec.geometry import half_triangle
from trispec.isosceles import (
    SCALINGS,
    Sweep,
    observation_crossing,
    scale_factor,
    scaled,
    sweep,
    verify_monotonicity,
)

from _sweeps import aperture_triangle, default_grid, find_min

PI = math.pi


def test_scale_factor():
    assert scale_factor(0.5, "side") == 1.0
    assert scale_factor(0.5, "diameter") == 1.0  # equal sides dominate
    a = 2.0
    assert scale_factor(a, "diameter") == pytest.approx(
        4.0 * math.sin(a / 2.0) ** 2)
    assert scale_factor(a, "perimeter") == pytest.approx(
        (2.0 * (1.0 + math.sin(a / 2.0))) ** 2)
    assert scale_factor(a, "area") == pytest.approx(0.5 * math.sin(a))
    with pytest.raises(ValueError, match="scaling"):
        scale_factor(1.0, "volume")


def test_sweep_validation():
    with pytest.raises(ValueError, match="at least two"):
        sweep([1.0], 6)
    with pytest.raises(ValueError, match="inside"):
        sweep([0.5, PI], 6)
    with pytest.raises(ValueError, match="level"):
        sweep([0.5, 0.6], 5)


def test_sweep_refuses_an_unordered_grid_before_solving(monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_family_pair called")

    monkeypatch.setattr(isosceles, "solve_family_pair", refuse)
    for grid in ([1.0, 0.9, 1.1], [1.0, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(grid, 6)


def test_table_invariants(monkeypatch):
    # the solves return the tones (lambda1, lambda_a, lambda_s) at both
    # levels, so the extrapolation hands them on unchanged
    def solving_to(lambda1, lambda_a, lambda_s):
        def solve_family_pair(halves, k, level, edges):
            half = [[lambda1, lambda_s]] if k == 2 else [[lambda_a]]
            values = np.array(half * len(halves), dtype=float)
            return values, values.copy()
        return solve_family_pair

    cases = [((-1.0, 2.0, 3.0), "positive"), ((2.0, 1.0, 3.0), "below"),
             ((2.0, 3.0, 1.0), "below"), ((2.0, 2.0, 3.0), "below")]
    for tones, match in cases:
        monkeypatch.setattr(isosceles, "solve_family_pair", solving_to(*tones))
        with pytest.raises(ValueError, match=match):
            sweep([1.0, 1.1], 6)
    monkeypatch.setattr(isosceles, "solve_family_pair", solving_to(1.0, 2.0, 3.0))
    s = sweep([1.0, 1.1], 6)
    np.testing.assert_array_equal(s.tones, [[1.0, 2.0, 3.0]] * 2)
    np.testing.assert_array_equal(s.errors, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="scaling"):
        scaled(s, "volume")


def test_sweep_solves_snapshots_on_half_triangles(monkeypatch):
    solved = []
    original = fem.solve_lowest

    def recording(mesh, k, dirichlet_edges=(0, 1, 2), start=None, rtol=None):
        solved.append(mesh.triangle.vertices)
        return original(mesh, k, dirichlet_edges, start, rtol)

    monkeypatch.setattr(fem, "solve_lowest", recording)
    sweep([0.8, 1.0], 6)
    # a grid shorter than the snapshot count solves every aperture directly:
    # two apertures, Dirichlet and free-axis half, two levels
    assert len(solved) == 8
    halves = [half_triangle(a).vertices for a in (0.8, 1.0)]
    for vertices in solved:
        assert any(np.array_equal(vertices, h) for h in halves)


def test_fundamental_is_the_lowest_free_axis_half_tone():
    # the symmetric half reproduces the whole triangle's fundamental well
    # inside the two extrapolation error bars
    grid = [0.7, 1.4, 2.0 * PI / 3.0]
    s = sweep(grid, 6)
    for i, a in enumerate(grid):
        full, full_err = solve_extrapolated(aperture_triangle(a), 1, 6)
        bar = float(full_err[0]) + s.errors[i, 0]
        assert abs(s.tones[i, 0] - full[0]) < 0.1 * bar


def test_sweep_matches_figure_side():
    # figure-grid fixtures; their values carry FEM error of their own,
    # so one percent is the honest bar
    s = sweep([PI / 6.0, PI / 3.0, PI / 2.0], 6)
    fig = {
        PI / 6.0: (104.9618, 293.5534, 196.3239),
        PI / 3.0: (52.6405, 122.8361, 122.8361),
        PI / 2.0: (49.3512, 98.7107, 128.3272),
    }
    for a, tones in zip(s.alpha, s.tones):
        assert list(tones) == pytest.approx(fig[float(a)], rel=0.01)
    # dotted-line values are exact
    assert s.tones[1, 0] == pytest.approx(16.0 * PI ** 2 / 3.0, rel=1e-4)
    assert s.tones[1, 1] == pytest.approx(112.0 * PI ** 2 / 9.0, rel=1e-4)
    assert s.tones[2, 1] == pytest.approx(10.0 * PI ** 2, rel=1e-4)


def test_sweep_exact_values_other_scalings():
    s = sweep([PI / 3.0, PI / 2.0], 6)
    area = scaled(s, "area").tones
    assert area[0, 0] == pytest.approx(4.0 * PI ** 2 / math.sqrt(3.0),
                                       rel=1e-4)
    assert area[0, 2] == pytest.approx(
        28.0 * PI ** 2 / (3.0 * math.sqrt(3.0)), rel=1e-4)
    assert area[1, 1] == pytest.approx(5.0 * PI ** 2, rel=1e-4)
    # perimeter values from the same raw solves
    per = scaled(s, "perimeter").tones
    assert per[0, 0] == pytest.approx(48.0 * PI ** 2, rel=1e-4)
    assert per[0, 2] == pytest.approx(112.0 * PI ** 2, rel=1e-4)


def test_scaled_multiplies_each_aperture_by_its_factor():
    # tones and error bars alike, bit for bit; side scaling is the identity
    s = sweep([0.7, 0.9, 1.2], 6)
    for scaling in SCALINGS:
        out = scaled(s, scaling)
        np.testing.assert_array_equal(out.alpha, s.alpha)
        for i, a in enumerate(s.alpha):
            fac = scale_factor(float(a), scaling)
            np.testing.assert_array_equal(out.tones[i], s.tones[i] * fac)
            np.testing.assert_array_equal(out.errors[i], s.errors[i] * fac)
    side = scaled(s, "side")
    np.testing.assert_array_equal(side.tones, s.tones)
    np.testing.assert_array_equal(side.errors, s.errors)


def sweep_csv(capsys, *flags):
    argv = ["sweep", "--alpha-min", "0.8", "--alpha-max", "1.0",
            "--alpha-steps", "2", "--level", "6", *flags]
    assert dispatch(argv) == 0
    return capsys.readouterr().out


def test_csv_format(capsys):
    text = sweep_csv(capsys)
    lines = text.strip().split("\n")
    assert lines[0] == "# scaling: side"
    assert lines[1] == "alpha,lambda1,lambda_a,lambda_s"
    assert len(lines) == 4
    assert text == sweep_csv(capsys)


def test_csv_cells_are_the_table_floats(capsys):
    s = sweep([0.8, 1.0], 6)
    rows = [[float(cell) for cell in line.split(",")]
            for line in sweep_csv(capsys).strip().split("\n")[2:]]
    columns = np.array(rows).T
    for got, want in zip(columns, (s.alpha, *s.tones.T)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_default_grid():
    g = default_grid()
    assert g[0] == pytest.approx(PI / 6.0)
    assert g[-1] == pytest.approx(2.0 * PI / 3.0)
    assert np.all(np.diff(g) > 0)
    # refined band around the equilateral aperture
    near = np.abs(g - PI / 3.0) < 0.05
    assert near.sum() >= 8
    with pytest.raises(ValueError):
        default_grid(2)


def test_find_min_figure_labels():
    # the five labeled minima of the tone curves; locations are compared
    # against the printed ones within the source plots' grid spacing
    h_fig = 0.0524
    s = sweep(np.linspace(1.30, 1.44, 8), 6)
    a, v = find_min(s, "lambda1")
    assert v == pytest.approx(48.03, rel=0.01)
    assert abs(a - 1.3614) < h_fig

    s = sweep(np.linspace(1.15, 1.31, 9), 6)
    a, v = find_min(s, "lambda_s")
    assert v == pytest.approx(120.04, rel=0.01)
    assert abs(a - 1.2243) < h_fig

    s = scaled(sweep(np.linspace(0.77, 0.91, 8), 6), "perimeter")
    a, v = find_min(s, "lambda_s")
    assert v == pytest.approx(1071.6, rel=0.01)
    assert abs(a - 0.8378) < h_fig

    s = scaled(sweep(np.linspace(1.19, 1.33, 8), 6), "perimeter")
    a, v = find_min(s, "lambda_a")
    assert v == pytest.approx(1073.7, rel=0.01)
    assert abs(a - 1.2566) < h_fig

    s = scaled(sweep(np.linspace(0.54, 0.66, 7), 6), "area")
    a, v = find_min(s, "lambda_s")
    assert v == pytest.approx(48.88, rel=0.01)
    assert abs(a - 0.596) < h_fig


def test_find_min_validation():
    s = sweep(np.linspace(0.6, 0.9, 4), 6)
    with pytest.raises(ValueError, match="edge"):
        find_min(s, "lambda_a")  # decreasing through this window


def test_monotonicity_report(fine_table):
    r = verify_monotonicity(fine_table)
    assert r["verdict"] == "pass"
    assert len(r["checks"]) == 15
    for c in r["checks"]:
        assert c["verdict"] == "pass", c["claim"]
    mirror = r["checks"][-1]
    assert mirror["pairs"] == 10
    assert mirror["lhs"] < 5e-4


def test_monotone_claim_the_grid_misses_is_inconclusive():
    # exact tones with every claimed trend on [1.4, 1.8], given under
    # area scaling and solved at no level; no aperture lies in [0, pi/3]
    alpha = np.linspace(1.4, 1.8, 25)
    area = np.column_stack((30.0 + 10.0 * alpha,
                            100.0 + 50.0 * (alpha - PI / 2.0) ** 2,
                            np.full(alpha.size, 200.0)))
    fac = np.array([scale_factor(float(a), "area") for a in alpha])
    r = verify_monotonicity(Sweep(alpha, area / fac[:, None],
                                  np.zeros((alpha.size, 3))))
    missed = [c for c in r["checks"] if c.get("points") == 0]
    assert len(missed) == 5
    assert all(c["verdict"] == "inconclusive" for c in missed)
    assert all(c["verdict"] == "pass" for c in r["checks"]
               if c not in missed)
    assert r["verdict"] == "inconclusive"


def test_monotonicity_spacing_guard():
    s = sweep(np.linspace(0.7, 1.0, 4), 6)
    with pytest.raises(ValueError, match="spacing"):
        verify_monotonicity(s)


def test_corner_at_equilateral_aperture():
    # one-sided slopes of the diameter-scaled fundamental tone differ
    # sharply at pi/3; slope estimation error is the second difference
    h = 0.012
    alphas = [PI / 3.0 + k * h for k in (-3, -2, -1, 1, 2, 3)]
    vals = []
    for a in alphas:
        lam, _ = solve_extrapolated(aperture_triangle(a), 1, 6)
        vals.append(float(lam[0]) * scale_factor(a, "diameter"))
    left = (vals[2] - vals[1]) / h
    right = (vals[4] - vals[3]) / h
    err = (abs(vals[2] - 2 * vals[1] + vals[0])
           + abs(vals[5] - 2 * vals[4] + vals[3])) / h
    assert abs(right - left) > 10.0 * err


def test_observation_crossing_default():
    r = observation_crossing(None, 7)
    assert r["verdict"] == "pass"
    assert abs(r["crossing"] - PI / 3.0) < 0.04
    assert all(c["verdict"] == "pass" for c in r["checks"])


def test_observation_crossing_custom():
    r = observation_crossing([PI / 3.0 - 0.15, PI / 3.0 - 0.08,
                              PI / 3.0 + 0.08, PI / 3.0 + 0.15], 6)
    assert r["verdict"] == "pass"
    assert abs(r["crossing"] - PI / 3.0) < 0.16
    with pytest.raises(ValueError, match="straddle"):
        observation_crossing([0.4, 0.5], 6)
