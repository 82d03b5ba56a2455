import collections
import json
import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from trispec import fem
from trispec.equilateral import SIGMA_COEFF, sigma
from trispec.fem import (
    MAX_LEVEL,
    classify_second_mode,
    extrapolate,
    mesh_triangle,
    assemble,
    rayleigh_data,
    solve_extrapolated,
    solve_lowest,
)
from trispec.geometry import EQUILATERAL_APEX, FanTriangle, IsoscelesAperture, Triangle


def unit_equilateral():
    return Triangle([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])


def fan_equilateral():
    return FanTriangle(0.0, EQUILATERAL_APEX).triangle


def test_mesh_counts():
    t = unit_equilateral()
    for level in range(5):
        mesh = mesh_triangle(t, level)
        n = 2 ** level
        assert mesh.num_vertices == (n + 1) * (n + 2) // 2
        assert mesh.num_elements == 4 ** level
        for e in range(3):
            assert int(mesh.edge_flags[:, e].sum()) == n + 1
    with pytest.raises(ValueError):
        mesh_triangle(t, -1)
    with pytest.raises(ValueError):
        mesh_triangle(t, MAX_LEVEL + 1)


def test_mesh_elements_cover():
    t = Triangle([(0.2, -0.3), (2.0, 0.1), (0.5, 1.7)])
    for tri in (t, Triangle(t.vertices[::-1])):  # CCW and CW parents
        mesh = mesh_triangle(tri, 3)
        p = mesh.vertices[mesh.elements]
        e01 = p[:, 1] - p[:, 0]
        e02 = p[:, 2] - p[:, 0]
        areas = 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0])
        assert np.all(areas > 0)
        np.testing.assert_allclose(areas, tri.area / 4 ** 3, rtol=1e-12)
        assert np.sum(areas) == pytest.approx(tri.area, rel=1e-12)
        # every element vertex index in range, corners flagged on two edges
        assert mesh.elements.min() == 0
        assert mesh.elements.max() == mesh.num_vertices - 1
        assert np.all(mesh.edge_flags.sum(axis=1) <= 2)


def test_dirichlet_mask():
    mesh = mesh_triangle(unit_equilateral(), 3)
    full = mesh.dirichlet_mask()
    assert int(full.sum()) == 3 * 2 ** 3
    one = mesh.dirichlet_mask((0,))
    assert int(one.sum()) == 2 ** 3 + 1
    assert int(mesh.dirichlet_mask(()).sum()) == 0


def test_mesh_to_text():
    mesh = mesh_triangle(unit_equilateral(), 1)
    text = mesh.to_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# mesh level 1")
    assert sum(1 for l in lines if l.startswith("v ")) == 6
    assert sum(1 for l in lines if l.startswith("e ")) == 4
    assert text == mesh_triangle(unit_equilateral(), 1).to_text()


def test_assemble_single_element():
    mesh = mesh_triangle(Triangle([(0, 0), (1, 0), (0, 1)]), 0)
    forms = assemble(mesh)
    k = forms.stiffness.toarray()
    np.testing.assert_allclose(
        k, 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]), atol=1e-15)
    m = forms.mass.toarray()
    np.testing.assert_allclose(
        m, (np.ones((3, 3)) + np.eye(3)) / 24.0, atol=1e-16)
    kyy = forms.stiffness_yy.toarray()
    np.testing.assert_allclose(
        kyy, 0.5 * np.array([[1, 0, -1], [0, 0, 0], [-1, 0, 1]]), atol=1e-15)
    kxy = forms.stiffness_xy.toarray()
    np.testing.assert_allclose(
        kxy, np.array([[0.5, -0.25, -0.25], [-0.25, 0, 0.25], [-0.25, 0.25, 0]]),
        atol=1e-15)


def test_assemble_invariants():
    mesh = mesh_triangle(Triangle([(0.1, 0.2), (1.9, -0.1), (0.4, 1.5)]), 3)
    forms = assemble(mesh)
    # constants have zero Dirichlet energy; total mass is the area
    ones = np.ones(mesh.num_vertices)
    for mat in (forms.stiffness, forms.stiffness_yy, forms.stiffness_xy):
        np.testing.assert_allclose(mat @ ones, 0.0, atol=1e-12)
    assert ones @ (forms.mass @ ones) == pytest.approx(mesh.triangle.area, rel=1e-12)
    # x-x plus y-y energies add up to the full gradient energy
    rng = np.random.default_rng(0)
    u = rng.normal(size=mesh.num_vertices)
    kxx = (forms.stiffness - forms.stiffness_yy)
    assert u @ (kxx @ u) + u @ (forms.stiffness_yy @ u) == pytest.approx(
        u @ (forms.stiffness @ u), rel=1e-12)
    assert u @ (kxx @ u) >= 0
    assert u @ (forms.stiffness_yy @ u) >= 0


def test_right_isosceles_tones():
    # half of the unit square: exact tones pi^2 (p^2 + q^2), p != q
    t = Triangle([(0, 0), (1, 0), (0, 1)])
    vals, err, _ = solve_extrapolated(t, 2, 6)
    assert vals[0] == pytest.approx(5 * math.pi**2, rel=1e-5)
    assert vals[1] == pytest.approx(10 * math.pi**2, rel=1e-5)
    assert np.all(err > 0)


def test_equilateral_tones():
    vals, err, fine = solve_extrapolated(unit_equilateral(), 3, 6)
    assert vals[0] == pytest.approx(sigma(1, 1), rel=1e-5)
    assert vals[1] == pytest.approx(sigma(1, 2), rel=1e-5)
    assert vals[2] == pytest.approx(sigma(1, 2), rel=1e-5)
    # the degenerate pair stays a tight cluster discretely
    assert abs(fine.values[2] - fine.values[1]) < 1e-8 * fine.values[1]
    # the extrapolation increment is a conservative error estimate
    exact = np.array([sigma(1, 1), sigma(1, 2), sigma(1, 2)])
    assert np.all(np.abs(vals - exact) < err)


def test_discrete_upper_bounds():
    t = unit_equilateral()
    exact = np.array([sigma(1, 1), sigma(1, 2), sigma(1, 2)])
    for level in (3, 4, 5):
        res = solve_lowest(mesh_triangle(t, level), 3)
        assert np.all(res.values >= exact * (1 - 1e-12))


def test_refinement_monotone():
    t = Triangle([(0, 0), (1.3, 0.2), (0.4, 0.9)])
    prev = None
    for level in (2, 3, 4, 5):
        res = solve_lowest(mesh_triangle(t, level), 2)
        if prev is not None:
            assert np.all(res.values <= prev + 1e-10 * prev)
        prev = res.values


def test_scale_covariance():
    t = Triangle([(0, 0), (1.1, 0.1), (0.3, 0.8)])
    res = solve_lowest(mesh_triangle(t, 3), 3)
    scaled = solve_lowest(mesh_triangle(t.scaled(2.5), 3), 3)
    np.testing.assert_allclose(scaled.values * 2.5**2, res.values, rtol=1e-10)


def test_orthonormality_and_residuals():
    mesh = mesh_triangle(unit_equilateral(), 5)
    res = solve_lowest(mesh, 4)
    forms = assemble(mesh)
    gram = res.vectors.T @ (forms.mass @ res.vectors)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)
    assert np.all(res.residuals < 1e-10)
    # constrained vertices carry zero coefficients
    assert np.all(res.vectors[mesh.dirichlet_mask()] == 0.0)


def test_residuals_bound_the_mass_inverse_norm():
    # the lumped-mass residual is a guaranteed upper bound, at most 2x off
    mesh = mesh_triangle(FanTriangle(0.0, 2.5).triangle, 5)
    res = solve_lowest(mesh, 4)
    forms = assemble(mesh)
    idx = np.flatnonzero(~mesh.dirichlet_mask())
    kk = forms.stiffness[idx][:, idx].tocsc()
    mm = forms.mass[idx][:, idx].tocsc()
    mlu = splu(mm)
    for j in range(4):
        v = res.vectors[idx, j]
        r = kk @ v - res.values[j] * (mm @ v)
        exact = math.sqrt(float(r @ mlu.solve(r)))
        assert exact <= res.residuals[j] <= 2.0 * exact


def test_cache_slices_the_largest_solve(monkeypatch):
    monkeypatch.setattr(fem, "_SOLVE_CACHE", collections.OrderedDict())
    calls = []
    original = fem.solve_lowest

    def counted(mesh, k, dirichlet_edges=(0, 1, 2)):
        calls.append(k)
        return original(mesh, k, dirichlet_edges)

    monkeypatch.setattr(fem, "solve_lowest", counted)
    t = FanTriangle(0.0, 2.5).triangle
    key = fem._tri_key(t)
    big = fem._solve_cached(key, 5, 6, (0, 1, 2))
    sliced = fem._solve_cached(key, 5, 2, (0, 1, 2))
    assert calls == [6]
    fresh = original(mesh_triangle(t, 5), 2)
    np.testing.assert_allclose(sliced.values, fresh.values, rtol=1e-12)
    assert sliced.vectors.shape[1] == len(sliced.residuals) == 2
    assert sliced.energies.shape == (2, 3)
    for n in (1, 2):
        np.testing.assert_allclose(
            sliced.energies[:n].sum(axis=0)[1:] / sliced.energies[:n, 0].sum(),
            fresh.energies[:n].sum(axis=0)[1:] / fresh.energies[:n, 0].sum(),
            rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(sliced.values, big.values[:2])
    # only a request for more modes than the entry holds solves again
    more = fem._solve_cached(key, 5, 7, (0, 1, 2))
    assert calls == [6, 7]
    assert fem._solve_cached(key, 5, 3, (0, 1, 2)).values.tolist() == \
        more.values[:3].tolist()
    assert calls == [6, 7]


def test_solve_validation():
    mesh = mesh_triangle(unit_equilateral(), 2)
    with pytest.raises(ValueError):
        solve_lowest(mesh, 0)
    with pytest.raises(ValueError):
        solve_lowest(mesh, 3)  # only 3 interior vertices at level 2


def test_mixed_boundary_lowers_tone():
    t = Triangle([(0, 0), (1, 0), (0, 1)])
    full = solve_extrapolated(t, 1, 5)[0][0]
    mixed = solve_extrapolated(t, 1, 5, dirichlet_edges=(1, 2))[0][0]
    assert mixed < full
    # reflecting across the Neumann leg doubles the triangle: lambda_1 there
    # is 5 pi^2 over squared leg length sqrt(2)^2
    assert mixed == pytest.approx(2.5 * math.pi**2, rel=1e-4)


def test_domain_monotonicity():
    rng = np.random.default_rng(42)
    outer = Triangle([(0, 0), (2, 0), (0.3, 1.6)])
    lam_outer = solve_extrapolated(outer, 1, 5)[0][0]
    for _ in range(10):
        w = rng.dirichlet((2.0, 2.0, 2.0), size=3)
        try:
            inner = Triangle(w @ outer.vertices)
        except ValueError:
            continue
        lam_inner = solve_extrapolated(inner, 1, 5)[0][0]
        assert lam_inner >= lam_outer * (1 - 0.002)


def test_half_equilateral_antisym_tone():
    # all-Dirichlet half of the sidelength-4 equilateral picks out the
    # antisymmetric fundamental of the full triangle
    half = FanTriangle(1.0, 2 * EQUILATERAL_APEX).triangle
    vals = solve_extrapolated(half, 1, 6)[0]
    assert vals[0] == pytest.approx(sigma(2, 1, sidelength=4.0), rel=1e-5)


def test_extrapolate_validation():
    t = unit_equilateral()
    r3 = solve_lowest(mesh_triangle(t, 3), 2)
    r4 = solve_lowest(mesh_triangle(t, 4), 2)
    r5 = solve_lowest(mesh_triangle(t, 5), 2)
    extrapolate(r3, r4)
    with pytest.raises(ValueError):
        extrapolate(r3, r5)
    other = solve_lowest(mesh_triangle(Triangle([(0, 0), (1, 0), (0, 1)]), 4), 2)
    with pytest.raises(ValueError):
        extrapolate(r3, other)
    mixed = solve_lowest(mesh_triangle(t, 4), 2, dirichlet_edges=(0, 1))
    with pytest.raises(ValueError):
        extrapolate(r3, mixed)
    with pytest.raises(ValueError):
        solve_extrapolated(t, 1, 0)


def test_solve_extrapolated_deterministic():
    t = unit_equilateral()
    v1, e1, _ = solve_extrapolated(t, 2, 5)
    v2, e2, _ = solve_extrapolated(t, 2, 5)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(e1, e2)


def test_rayleigh_equilateral():
    # 3-fold symmetry makes the ground state's energy tensor isotropic
    rd = rayleigh_data(FanTriangle(0.0, EQUILATERAL_APEX), 1, 5)
    assert rd.gamma_n == pytest.approx(0.5, abs=1e-6)
    assert abs(rd.delta_n) < 1e-7
    assert rd.n == 1


def test_rayleigh_subequilateral():
    rd = rayleigh_data(FanTriangle(0.0, 2.5), 2, 5)
    assert 0.0 < rd.gamma_n < 1.0
    assert abs(rd.delta_n) < 1e-7  # mirror-symmetric triangle and mesh
    d = json.loads(rd.to_json())
    assert set(d) == {"gamma_n", "delta_n", "n"}


def test_rayleigh_refuses_cluster():
    with pytest.raises(ValueError, match="cluster"):
        rayleigh_data(FanTriangle(0.0, EQUILATERAL_APEX), 2, 4)
    with pytest.raises(ValueError):
        rayleigh_data(FanTriangle(0.0, 2.5), 0, 4)


def test_classify_second_mode():
    assert classify_second_mode(IsoscelesAperture(math.pi / 4), 5) == "symmetric"
    assert classify_second_mode(IsoscelesAperture(math.pi / 2), 5) == "antisymmetric"
    with pytest.raises(ValueError):
        classify_second_mode(IsoscelesAperture(math.pi / 3 + 1e-4), 5)
