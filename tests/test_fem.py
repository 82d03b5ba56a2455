import collections
import itertools
import json
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, subspace_angles
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, splu

from trispec import fem
from trispec.equilateral import SIGMA_COEFF
from trispec.fem import (
    MAX_LEVEL,
    inertia,
    mesh_triangle,
    assemble,
    rayleigh_data,
    richardson,
    solve_extrapolated,
    solve_family_pair,
    solve_lowest,
    solve_pair,
)
from trispec.geometry import (EQUILATERAL_APEX, Triangle, fan_triangle,
                              half_triangle)
from trispec.isosceles import sweep
from trispec.transplant import theorem1_verify

from _fresh import fresh_python


def unit_equilateral():
    return Triangle([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])


def fan_equilateral():
    return fan_triangle(EQUILATERAL_APEX)


def lattice_mesh(mesh):
    """Vertices, CCW element triples and edge flags of a mesh, from the lattice.

    Element triples list the up, then the down elements; flags[v, e] marks
    vertex v as lying on input edge e.
    """
    n, i, j = fem._lattice(mesh.level)
    v0, v1, v2 = mesh.triangle.vertices
    vertices = v0 + np.outer(i / n, v1 - v0) + np.outer(j / n, v2 - v0)
    row = n + 1 - j
    up = np.flatnonzero(i + j < n)
    down = np.flatnonzero(i + j < n - 1)
    elements = np.vstack((
        np.column_stack((up, up + 1, up + row[up])),
        np.column_stack((down + 1, down + 1 + row[down], down + row[down]))))
    if mesh.triangle.signed_area < 0:
        # Parent is clockwise; swap two local vertices so every element is CCW.
        elements = elements[:, [0, 2, 1]]
    return vertices, elements, fem._on_edges(n, i, j)


def test_mesh_counts():
    t = unit_equilateral()
    for level in range(5):
        mesh = mesh_triangle(t, level)
        assert mesh == (t, level)
        vertices, elements, flags = lattice_mesh(mesh)
        n = 2 ** level
        assert len(vertices) == (n + 1) * (n + 2) // 2
        assert len(elements) == 4 ** level
        for e in range(3):
            assert int(flags[:, e].sum()) == n + 1
    with pytest.raises(ValueError):
        mesh_triangle(t, -1)
    with pytest.raises(ValueError):
        mesh_triangle(t, MAX_LEVEL + 1)


def test_mesh_elements_cover():
    t = Triangle([(0.2, -0.3), (2.0, 0.1), (0.5, 1.7)])
    for tri in (t, Triangle(t.vertices[::-1])):  # CCW and CW parents
        for level in range(5):
            mesh = mesh_triangle(tri, level)
            assert mesh == (tri, level)
            vertices, elements, flags = lattice_mesh(mesh)
            n = 2 ** level
            p = vertices[elements]
            e01 = p[:, 1] - p[:, 0]
            e02 = p[:, 2] - p[:, 0]
            areas = 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0])
            np.testing.assert_allclose(areas, tri.area / 4 ** level,
                                       rtol=1e-12)
            # every vertex in some element; n + 1 on each edge, corners on two
            np.testing.assert_array_equal(np.unique(elements),
                                          np.arange(len(vertices)))
            np.testing.assert_array_equal(flags.sum(axis=0), n + 1)
            assert np.all(flags.sum(axis=1) <= 2)


def test_dirichlet_mask():
    # free vertices: all but the 3n boundary, the n + 1 on edge 0, or all
    mesh = mesh_triangle(unit_equilateral(), 3)
    nv = (2 ** 3 + 1) * (2 ** 3 + 2) // 2
    assert assemble(mesh, (0, 1, 2)).free.size == nv - 3 * 2 ** 3
    assert assemble(mesh, (0,)).free.size == nv - (2 ** 3 + 1)
    np.testing.assert_array_equal(assemble(mesh, ()).free, np.arange(nv))


def polarized(mesh, edges):
    """Total and y-y matrices recovered from energies by polarization.

    E(e_i + e_j) - E(e_i) - E(e_j) = 2 K_ij for each symmetric form K.
    """
    n = assemble(mesh, edges).free.size
    unit = np.eye(n)
    pairs = (unit[:, :, None] + unit[:, None, :]).reshape(n, n * n)
    single = fem._energies(mesh, edges, unit)
    both = fem._energies(mesh, edges, pairs).reshape(n, n, 2)
    return np.moveaxis(both - single[:, None] - single[None, :], 2, 0) / 2.0


def test_assemble_single_element():
    mesh = mesh_triangle(Triangle([(0, 0), (1, 0), (0, 1)]), 0)
    forms = assemble(mesh, ())
    k = forms.stiffness.toarray()
    np.testing.assert_allclose(
        k, 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]), atol=1e-15)
    m = forms.mass.toarray()
    np.testing.assert_allclose(
        m, (np.ones((3, 3)) + np.eye(3)) / 24.0, atol=1e-16)
    total, kyy = polarized(mesh, ())
    np.testing.assert_allclose(total, k, atol=1e-15)
    np.testing.assert_allclose(
        kyy, 0.5 * np.array([[1, 0, -1], [0, 0, 0], [-1, 0, 1]]), atol=1e-15)


def test_assemble_invariants():
    mesh = mesh_triangle(Triangle([(0.1, 0.2), (1.9, -0.1), (0.4, 1.5)]), 3)
    forms = assemble(mesh, ())
    # constants have zero Dirichlet energy; total mass is the area
    ones = np.ones(forms.free.size)
    np.testing.assert_allclose(forms.stiffness @ ones, 0.0, atol=1e-12)
    np.testing.assert_allclose(fem._energies(mesh, (), ones[:, None]), 0.0,
                               atol=1e-12)
    assert ones @ (forms.mass @ ones) == pytest.approx(mesh.triangle.area, rel=1e-12)
    # x-x plus y-y energies add up to the full gradient energy
    rng = np.random.default_rng(0)
    u = rng.normal(size=forms.free.size)
    (total, yy), = fem._energies(mesh, (), u[:, None])
    assert total == pytest.approx(u @ (forms.stiffness @ u), rel=1e-12)
    assert total - yy >= 0
    assert yy >= 0


def element_forms(mesh):
    """Reference P1 forms on every vertex, summed element by element."""
    vertices, elements, _ = lattice_mesh(mesh)
    p = vertices[elements]                     # (ne, 3, 2)
    # grad phi_i = perp(p_{i+2} - p_{i+1}) / (2A), perp(x, y) = (-y, x).
    edges = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    e01 = p[:, 1] - p[:, 0]
    e02 = p[:, 2] - p[:, 0]
    area2 = e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0]
    grads = np.empty_like(edges)
    grads[:, :, 0] = -edges[:, :, 1]
    grads[:, :, 1] = edges[:, :, 0]
    grads /= area2[:, None, None]
    area = 0.5 * area2
    gx = grads[:, :, 0]
    gy = grads[:, :, 1]
    local = {
        "stiffness": np.einsum("eid,ejd->eij", grads, grads),
        "stiffness_yy": gy[:, :, None] * gy[:, None, :],
        "stiffness_xy": 0.5 * (gx[:, :, None] * gy[:, None, :]
                               + gy[:, :, None] * gx[:, None, :]),
        "mass": np.broadcast_to((np.ones((3, 3)) + np.eye(3)) / 12.0,
                                (len(area), 3, 3)),
    }
    nv = len(vertices)
    forms = {}
    for name, mats in local.items():
        full = np.zeros((nv, nv))
        for a in range(3):
            for b in range(3):
                np.add.at(full, (elements[:, a], elements[:, b]),
                          area * mats[:, a, b])
        forms[name] = full
    return forms


@pytest.mark.parametrize("orientation", [1, -1])
def test_stencil_forms_match_element_assembly(orientation):
    t = Triangle(np.array([(0.1, 0.2), (1.9, -0.1), (0.4, 1.5)])[::orientation])
    mesh = mesh_triangle(t, 3)
    ref = element_forms(mesh)
    flags = lattice_mesh(mesh)[2]
    # every Dirichlet subset, including (0, 1, 2) and (1, 2) used by the
    # pipelines and () for the full vertex set
    for r in range(4):
        for edges in itertools.combinations(range(3), r):
            forms = assemble(mesh, edges)
            idx = np.flatnonzero(~flags[:, list(edges)].any(axis=1))
            np.testing.assert_array_equal(forms.free, idx)
            for name in ("stiffness", "mass"):
                full = ref[name]
                want = full[np.ix_(idx, idx)]
                got = getattr(forms, name)
                assert got.format == "csc"
                np.testing.assert_allclose(
                    got.toarray(), want, rtol=1e-13,
                    atol=1e-13 * np.abs(full).max(), err_msg=name)
            # the family's residual bound reads the stencil's lumped mass
            element_area = t.area / 4 ** mesh.level
            np.testing.assert_allclose(
                element_area * (fem._stencil(3, edges).lumped / 6.0),
                ref["mass"].sum(axis=1)[idx], rtol=1e-13)
            u = np.random.default_rng(r).normal(size=(idx.size, 2))
            energies = fem._energies(mesh, edges, u)
            for f, name in enumerate(("stiffness", "stiffness_yy")):
                want = np.sum(u * (ref[name][np.ix_(idx, idx)] @ u), axis=0)
                np.testing.assert_allclose(energies[:, f], want, rtol=1e-12,
                                           atol=1e-13)


@pytest.mark.parametrize("b", [1.8, 2.5, 4.0])
def test_fan_modes_carry_no_x_y_energy(b):
    # the y-energy share is all the transplant needs because the fan and
    # its lattice are mirror-symmetric: each Dirichlet mode is even or odd
    # in x, so the x-y energy of the first n modes vanishes
    for level in (4, 5):
        mesh = mesh_triangle(fan_triangle(b), level)
        res = solve_lowest(mesh, 7)
        free = assemble(mesh, (0, 1, 2)).free
        ref = element_forms(mesh)
        v = res.vectors
        energy = {name: np.sum(v * (ref[name][np.ix_(free, free)] @ v),
                               axis=0)
                  for name in ("stiffness", "stiffness_xy")}
        for n in range(1, 7):
            gap = (res.values[n] - res.values[n - 1]) / res.values[n]
            if gap < fem.CLUSTER_RTOL:
                continue
            assert abs(energy["stiffness_xy"][:n].sum()) \
                <= 1e-12 * energy["stiffness"][:n].sum(), (level, n)


def test_stencils_are_small_read_only_integers():
    stencil = fem._stencil(5, (1, 2))
    for name in ("laplacians", "mass", "lumped"):
        assert getattr(stencil, name).dtype == np.int8, name
    assert stencil.indptr.dtype == stencil.indices.dtype == np.int32
    assert not any(array.flags.writeable for array in stencil)
    # a level-8 stencil held its entries as float64 in 8.35 MiB
    assert sum(array.nbytes for array in fem._stencil(8, (0, 1, 2))) \
        <= 3 * 2 ** 20


def reference_stencil(level, dirichlet_edges):
    """fem._stencil built from the full (vertices, 7) neighbour table."""
    n, i, j = fem._lattice(level)
    v = np.arange(i.size, dtype=np.int32)
    row = (n + 1 - j)[:, None]
    on_edge = fem._on_edges(n, i, j)
    free = ~on_edge[:, list(dirichlet_edges)].any(axis=1)
    neighbours = v[:, None] \
        + np.array([-1, -1, 0, 0, 0, 1, 1], dtype=np.int32) * row \
        + np.array([-1, 0, -1, 0, 1, -1, 0], dtype=np.int32)
    present = np.column_stack((j > 0, j > 0, i > 0, np.ones_like(free),
                               i + j < n, i > 0, i + j < n))
    mult = np.where(on_edge, np.int8(1), np.int8(2))
    lap = np.zeros((3, v.size, len(fem._SLOT_EDGES)), dtype=np.int8)
    for s, d in enumerate(fem._SLOT_EDGES):
        if d >= 0:
            lap[d, :, s] = -mult[:, d] * present[:, s]
            lap[d, :, 3] -= lap[d, :, s]
    keep = present & free[:, None] \
        & free[np.where(present, neighbours, v[:, None])]
    renumber = np.cumsum(free, dtype=np.int32) - 1
    laplacians = lap[:, keep]
    return fem._Stencil(
        free=np.flatnonzero(free),
        indptr=np.concatenate(([0], np.cumsum(keep.sum(axis=1)[free]))
                              ).astype(np.int32),
        indices=renumber[neighbours[keep]],
        laplacians=laplacians,
        mass=np.abs(laplacians).sum(axis=0, dtype=np.int8),
        lumped=lap[:, free, 3].sum(axis=0, dtype=np.int8))


@pytest.mark.parametrize("level", range(7))
def test_stencil_equals_the_neighbour_table_build(level):
    for r in range(4):
        for edges in itertools.combinations(range(3), r):
            got = fem._stencil(level, edges)
            for name, want in reference_stencil(level, edges)._asdict().items():
                have = getattr(got, name)
                assert have.dtype == want.dtype, (level, edges, name)
                np.testing.assert_array_equal(have, want,
                                              err_msg=f"{level} {edges} {name}")


def test_stencil_build_keeps_only_vertex_length_work_arrays():
    # the neighbour-table build peaked at 3.3x its result at level 8
    fem._stencil.cache_clear()
    tracemalloc.start()
    try:
        stencil = fem._stencil(8, (0, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(array.nbytes for array in stencil)


def test_heap_release_is_a_no_op_without_malloc_trim(monkeypatch):
    class NoTrim:  # a C library without malloc_trim (macOS, musl)
        pass

    monkeypatch.setattr(fem.ctypes, "CDLL", lambda name: NoTrim())
    fem._malloc_trim.cache_clear()
    try:
        assert fem._malloc_trim() is None
        fem._release_heap()
    finally:
        fem._malloc_trim.cache_clear()


FACTOR_PEAK_SCRIPT = """
import json
from trispec import fem
from trispec.geometry import Triangle
mesh = fem.mesh_triangle(Triangle([[-1, 0], [1, 0], [0.3, 2.1]]), 8)
stiffness = fem.assemble(mesh, (0, 1, 2)).stiffness  # held, as solve_lowest does
lu = fem._factor(stiffness)
with open("/proc/self/status") as fh:
    kib = dict(line.split()[:2] for line in fh if line.startswith("Vm"))
print(json.dumps([int(kib["VmHWM:"]), int(kib["VmRSS:"])]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak and resident set from /proc")
def test_factorization_peaks_at_the_lu_it_leaves():
    # SuperLU's default panel work arrays peaked 10.7 MB above the level-8
    # LU.  A fresh process, so no earlier solve has set the peak; VmHWM, not
    # ru_maxrss, which exec carries over from the forking test process.
    proc = fresh_python("-c", FACTOR_PEAK_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    peak, resident = json.loads(proc.stdout)
    assert peak - resident <= 2 * 1024  # KiB


@pytest.mark.parametrize("level", [3, 6])
def test_assembly_equals_the_float_stencil_build(level):
    # the forms are bitwise those of the stencil entries held as float64
    t = Triangle([(0.1, 0.2), (1.9, -0.1), (0.4, 1.5)])
    mesh = mesh_triangle(t, level)
    weights = fem._weights(t)
    element_area = t.area / 4 ** level
    for r in range(4):
        for edges in itertools.combinations(range(3), r):
            stencil = fem._stencil(level, edges)
            laplacians = stencil.laplacians.astype(float)
            n = stencil.free.size

            def csc(data):
                return sparse.csc_matrix(
                    (data, stencil.indices, stencil.indptr), shape=(n, n))

            forms = assemble(mesh, edges)
            for got, data in (
                    (forms.stiffness, weights[0] @ laplacians),
                    (forms.mass,
                     element_area * (np.abs(laplacians).sum(axis=0) / 12.0))):
                np.testing.assert_array_equal(got.indptr, stencil.indptr)
                np.testing.assert_array_equal(got.indices, stencil.indices)
                np.testing.assert_array_equal(got.data, data)
            # the full-mesh row sums of the mass are diag(sum_d L_d) / 6
            np.testing.assert_array_equal(
                stencil.lumped, csc(laplacians.sum(axis=0)).diagonal())
            u = np.random.default_rng(r).normal(size=(n, 3))
            quad = [np.sum(u * (csc(lap) @ u), axis=0) for lap in laplacians]
            np.testing.assert_array_equal(fem._energies(mesh, edges, u),
                                          np.column_stack(quad) @ weights.T)


@pytest.mark.parametrize("level", [3, 5])
def test_prolongation_is_the_coarse_function(level):
    # the P1 spaces nest, so every form takes the same value on a coarse
    # vector and on its interpolation one level up
    t = Triangle([(0.1, 0.2), (1.9, -0.1), (0.4, 1.5)])
    coarse_mesh, fine_mesh = mesh_triangle(t, level - 1), mesh_triangle(t, level)
    for seed, edges in enumerate(((0, 1, 2), (1, 2), (0,))):
        coarse = assemble(coarse_mesh, edges)
        fine = assemble(fine_mesh, edges)
        x = np.random.default_rng(seed).normal(size=coarse.free.size)
        px = fem._prolong(level, edges, x)
        assert px.shape == fine.free.shape
        for name in ("stiffness", "mass"):
            want = x @ (getattr(coarse, name) @ x)
            got = px @ (getattr(fine, name) @ px)
            assert got == pytest.approx(want, rel=1e-13), name
        np.testing.assert_allclose(
            fem._energies(fine_mesh, edges, px[:, None]),
            fem._energies(coarse_mesh, edges, x[:, None]), rtol=1e-13)


def counting_eigsh(monkeypatch):
    """Patch fem.eigsh to record, per call, its keywords, the state of its
    restart generator on entry and how many times it applied OPinv."""
    calls = []
    original = fem.eigsh

    def eigsh(A, **kwargs):
        op = kwargs["OPinv"]
        record = dict(kwargs, steps=0)
        if isinstance(kwargs.get("rng"), np.random.Generator):
            record["rng_state"] = kwargs["rng"].bit_generator.state
        calls.append(record)

        def matvec(x):
            record["steps"] += 1
            return op.matvec(x)

        kwargs["OPinv"] = LinearOperator(op.shape, matvec=matvec,
                                         dtype=op.dtype)
        return original(A, **kwargs)

    monkeypatch.setattr(fem, "eigsh", eigsh)
    return calls


def test_arpack_restarts_are_seeded(monkeypatch):
    # ARPACK draws a new start vector when Lanczos meets an invariant
    # subspace early; every solve must draw it from the same seed
    calls = counting_eigsh(monkeypatch)
    mesh = mesh_triangle(fan_triangle(2.5), 5)
    first = solve_lowest(mesh, 3)
    solve_lowest(mesh, 3, start=first.vectors.sum(axis=1))
    assert len(calls) == 2
    assert "rng_state" in calls[0]
    assert calls[0]["rng_state"] == calls[1]["rng_state"]


@pytest.mark.parametrize("t", [Triangle([(-1.0, 0.0), (1.0, 0.0), (0.4, 2.1)]),
                               fan_triangle(2.5)])
def test_pair_starts_the_fine_solve_from_the_coarse_modes(t, monkeypatch):
    calls = counting_eigsh(monkeypatch)
    fine = solve_pair(t, 6, 7)[1]
    cold = solve_lowest(mesh_triangle(t, 7), 6)
    assert len(calls) == 3
    np.testing.assert_allclose(fine.values, cold.values, rtol=1e-12)
    # calls: coarse, warm fine, cold fine
    assert calls[1]["steps"] < calls[2]["steps"]


def test_reversed_vertex_order_keeps_eigenvalues():
    t = Triangle([(0.1, 0.2), (1.9, -0.1), (0.4, 1.5)])
    rev = Triangle(t.vertices[::-1])
    # reversing maps input edges 0, 1, 2 to 1, 0, 2
    for edges, rev_edges in (((0, 1, 2), (0, 1, 2)), ((1, 2), (0, 2))):
        a = solve_lowest(mesh_triangle(t, 5), 4, edges)
        b = solve_lowest(mesh_triangle(rev, 5), 4, rev_edges)
        np.testing.assert_allclose(b.values, a.values, rtol=1e-12)


def residual_norms(forms, res):
    """Mass-inverse norm sqrt(r^T M^-1 r) of r = K v - lambda M v, per mode."""
    r = forms.stiffness @ res.vectors - (forms.mass @ res.vectors) * res.values
    return np.sqrt(np.sum(r * splu(forms.mass).solve(r), axis=0))


def test_eigsh_path_matches_dense():
    half = half_triangle(1.2)
    mesh = mesh_triangle(half, 5)
    res = solve_lowest(mesh, 5, (1, 2))
    forms = assemble(mesh, (1, 2))
    assert forms.free.size > fem.DENSE_CUTOFF
    dense = eigh(forms.stiffness.toarray(), forms.mass.toarray(),
                 eigvals_only=True, subset_by_index=(0, 4))
    np.testing.assert_allclose(res.values, dense, rtol=1e-10)
    assert np.all(residual_norms(forms, res) < 1e-10)


def test_right_isosceles_tones():
    # half of the unit square: exact tones pi^2 (p^2 + q^2), p != q
    t = Triangle([(0, 0), (1, 0), (0, 1)])
    vals, err = solve_extrapolated(t, 2, 6)
    assert vals[0] == pytest.approx(5 * math.pi**2, rel=1e-5)
    assert vals[1] == pytest.approx(10 * math.pi**2, rel=1e-5)
    assert np.all(err > 0)


def test_equilateral_tones():
    coarse, fine = solve_pair(unit_equilateral(), 3, 6)
    vals, err = richardson(coarse.values, fine.values)
    assert vals[0] == pytest.approx(3 * SIGMA_COEFF, rel=1e-5)
    assert vals[1] == pytest.approx(7 * SIGMA_COEFF, rel=1e-5)
    assert vals[2] == pytest.approx(7 * SIGMA_COEFF, rel=1e-5)
    # the degenerate pair stays a tight cluster discretely
    assert abs(fine.values[2] - fine.values[1]) < 1e-8 * fine.values[1]
    # the extrapolation increment is a conservative error estimate
    exact = np.array([3, 7, 7]) * SIGMA_COEFF
    assert np.all(np.abs(vals - exact) < err)


def test_discrete_upper_bounds():
    t = unit_equilateral()
    exact = np.array([3, 7, 7]) * SIGMA_COEFF
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
    scaled = solve_lowest(mesh_triangle(Triangle(t.vertices * 2.5), 3), 3)
    np.testing.assert_allclose(scaled.values * 2.5**2, res.values, rtol=1e-10)


@pytest.mark.parametrize("level", [4, 6])  # dense, and shift-invert Lanczos
def test_power_of_two_scales_are_exact(level):
    t = Triangle([(0, 0), (1.1, 0.1), (0.3, 0.8)])
    big = Triangle(np.ldexp(t.vertices, 300))
    for unit, large in zip(solve_pair(t, 3, level), solve_pair(big, 3, level)):
        np.testing.assert_array_equal(np.ldexp(large.values, 600),
                                      unit.values)
        np.testing.assert_array_equal(np.ldexp(large.vectors, 300),
                                      unit.vectors)


def test_values_that_overflow_are_refused():
    # at unit scale the values are near 49.3 and 98.7: only the first fits
    # below the largest float on legs of 1e-153
    tiny = Triangle([(0, 0), (1e-153, 0), (0, 1e-153)])
    assert solve_lowest(mesh_triangle(tiny, 4), 1).values[0] < math.inf
    with pytest.raises(ValueError, match="too small"):
        solve_lowest(mesh_triangle(tiny, 4), 6)


def test_orthonormality_and_residuals():
    mesh = mesh_triangle(unit_equilateral(), 5)
    res = solve_lowest(mesh, 4)
    forms = assemble(mesh, (0, 1, 2))
    # one coefficient per free vertex of the forms
    assert res.vectors.shape == (forms.free.size, 4)
    gram = res.vectors.T @ (forms.mass @ res.vectors)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)
    assert np.all(residual_norms(forms, res) < 1e-10)


def test_lumped_mass_brackets_the_consistent_mass():
    # L/4 <= M <= L on the free vertices, L the stencil's lumped mass: so
    # twice a residual's lumped dual norm, the family's gate, bounds its
    # mass-inverse norm from above and is at most twice that norm
    for level in (2, 3, 4, 5):
        for edges in ((0, 1, 2), (1, 2), ()):
            stencil = fem._stencil(level, edges)
            mass = fem._csc(stencil, stencil.mass / 12.0).toarray()
            ratios = eigh(mass, np.diag(stencil.lumped / 6.0),
                          eigvals_only=True)
            assert ratios.min() >= 0.25 * (1 - 1e-12), (level, edges)
            assert ratios.max() <= 1 + 1e-12, (level, edges)


def test_solve_validation():
    mesh = mesh_triangle(unit_equilateral(), 2)
    with pytest.raises(ValueError):
        solve_lowest(mesh, 0)
    with pytest.raises(ValueError):
        solve_lowest(mesh, 3)  # only 3 interior vertices at level 2


def test_mixed_boundary_lowers_tone():
    t = Triangle([(0, 0), (1, 0), (0, 1)])
    full = solve_extrapolated(t, 1, 5)[0][0]
    mixed = richardson(*(solve_lowest(mesh_triangle(t, level), 1, (1, 2)).values
                         for level in (4, 5)))[0][0]
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
    half = Triangle([(-1.0, 0.0), (1.0, 0.0), (1.0, 2 * EQUILATERAL_APEX)])
    vals = solve_extrapolated(half, 1, 6)[0]
    assert vals[0] == pytest.approx(7 * SIGMA_COEFF / 16.0, rel=1e-5)


def test_extrapolate_validation():
    with pytest.raises(ValueError):
        solve_extrapolated(unit_equilateral(), 1, 0)


def test_pair_meshes_the_fine_level_before_solving(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_lowest called")

    monkeypatch.setattr(fem, "solve_lowest", refuse)
    with pytest.raises(ValueError, match="level must be in"):
        solve_pair(unit_equilateral(), 1, fem.MAX_LEVEL + 1)


def test_solve_extrapolated_deterministic():
    t = unit_equilateral()
    v1, e1 = solve_extrapolated(t, 2, 5)
    v2, e2 = solve_extrapolated(t, 2, 5)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(e1, e2)


def equilateral_gammas():
    fan = fan_equilateral()
    return rayleigh_data(fan, *solve_pair(fan, 7, 5))


def test_rayleigh_equilateral():
    # 3-fold symmetry makes the energy tensor of every cluster-closed
    # group of modes isotropic
    gammas = equilateral_gammas()
    assert len(gammas) == 6
    for n, gamma in enumerate(gammas, start=1):
        if n not in (2, 5):
            assert gamma == pytest.approx(0.5, abs=1e-12), n


def test_rayleigh_subequilateral():
    fan = fan_triangle(2.5)
    gammas = rayleigh_data(fan, *solve_pair(fan, 7, 5))
    assert len(gammas) == 6
    assert all(0.0 < gamma < 1.0 for gamma in gammas)


def test_rayleigh_refuses_cluster():
    # the clusters q = 7, 7 and 13, 13 are ranks 2, 3 and 5, 6 at both
    # levels; the share is basis-dependent inside one, so it is withheld
    gammas = equilateral_gammas()
    assert [n for n, gamma in enumerate(gammas, start=1)
            if gamma is None] == [2, 5]


def test_gamma_out_of_range_is_an_internal_fault(monkeypatch):
    # a share outside [0, 1] is a fault of the solver, not a degenerate
    # rank: it must not silently drop the transplant branch
    energies = fem._energies

    def faulty(mesh, dirichlet_edges, vecs):
        e = energies(mesh, dirichlet_edges, vecs)
        e[:, 1] = 2.0 * e[:, 0]
        return e

    monkeypatch.setattr(fem, "_energies", faulty)
    with pytest.raises(RuntimeError, match=r"out of \[0, 1\]"):
        theorem1_verify(2.5, 2, 5)


def test_energies_are_computed_only_where_gamma_is_read(monkeypatch):
    calls = []
    energies = fem._energies

    def counted(*args):
        calls.append(args[0].level)
        return energies(*args)

    monkeypatch.setattr(fem, "_energies", counted)
    sweep(np.linspace(math.pi / 6, 2 * math.pi / 3, 5), 6)
    solve_extrapolated(fan_triangle(2.5), 2, 5)
    assert calls == []
    for b in (1.8, 2.5):
        theorem1_verify(b, 6, 5)
    # one rayleigh_data per apex: each level's energies once
    assert calls == [4, 5, 4, 5]
    assert fem.EigenResult._fields == ("level", "values", "vectors")
    assert fem.FemForms._fields == ("free", "stiffness", "mass")


# Half triangles of an aperture grid: the Dirichlet half carries the
# antisymmetric tones (k = 1), the free-axis half the symmetric ones (k = 2).
HALF_PROBLEMS = (((0, 1, 2), 1), ((1, 2), 2))


def halves(alphas):
    return [half_triangle(a) for a in alphas]


def family_values(triangles, k, level, edges):
    """One level of a family from its Chebyshev members, by the engine."""
    meshes = [mesh_triangle(t, level) for t in triangles]
    return fem._solve_family(meshes, k, edges, *fem._family_weights(triangles),
                             None)[0]


@pytest.mark.parametrize("level", [5, 6])
def test_inertia_counts_eigenvalues_below_the_shift(level):
    problems = ((fan_triangle(2.5), (0, 1, 2)),
                (half_triangle(1.0), (1, 2)))
    for t, edges in problems:
        mesh = mesh_triangle(t, level)
        vals = solve_lowest(mesh, 6, edges).values
        forms = assemble(mesh, edges)
        for j in range(1, 6):
            assert vals[j] - vals[j - 1] > 1e-6 * vals[j]
            shift = 0.5 * (vals[j - 1] + vals[j])
            assert inertia(forms.stiffness, forms.mass, shift) == j


def test_inertia_refuses_a_factorization_that_left_the_diagonal(monkeypatch):
    # K - M has a zero diagonal block, so no diagonal pivot exists there
    K = sparse.csc_matrix([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    M = sparse.identity(3, format="csc")
    releases, release = [], fem._release_heap
    monkeypatch.setattr(fem, "_release_heap",
                        lambda: releases.append(release()))
    with pytest.raises(RuntimeError, match="off the diagonal"):
        inertia(K, M, 1.0)
    # the refused factorization's heap goes back too
    assert len(releases) == 1
    assert [inertia(K, M, s) for s in (-2.0, 0.5, 3.5)] == [0, 1, 3]
    assert len(releases) == 4


def test_a_solve_that_does_not_converge_gives_its_heap_back(monkeypatch):
    class Factor:
        """A factorization that can be watched by weak reference."""

        def __init__(self, lu):
            self.lu = lu

        def solve(self, x):
            return self.lu.solve(x)

    factors, freed = [], []
    factor, release = fem._factor, fem._release_heap

    def watched(A):
        lu = Factor(factor(A))
        factors.append(weakref.ref(lu))
        return lu

    def eigsh(*args, **kwargs):
        # the operator stays in this frame, as in ARPACK's own
        raise ArpackNoConvergence("no convergence", np.empty(0),
                                  np.empty((0, 0)))

    def watched_release():
        freed.append(factors[-1]() is None)
        release()

    monkeypatch.setattr(fem, "_factor", watched)
    monkeypatch.setattr(fem, "eigsh", eigsh)
    monkeypatch.setattr(fem, "_release_heap", watched_release)
    mesh = mesh_triangle(fan_triangle(2.5), 6)
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_lowest(mesh, 3)
    # one release, after the LU is gone
    assert freed == [True]


def test_loewner_transport_bounds_neighbouring_apertures():
    # K(a) >= m K(b) with m the least weight ratio, and M scales by the
    # element area, so lambda_j(a) >= m e(b) / e(a) lambda_j(b)
    alphas = np.linspace(0.6, 2.0, 8)
    for edges, k in HALF_PROBLEMS:
        solved = [(t, solve_lowest(mesh_triangle(t, 5), k + 1, edges).values)
                  for t in halves(alphas)]
        for (ta, va), (tb, vb) in itertools.permutations(solved, 2):
            wa, wb = fem._weights(ta)[0], fem._weights(tb)[0]
            used = wb > 0
            m = np.min(wa[used] / wb[used])
            assert np.all(va >= m * tb.area / ta.area * vb * (1 - 1e-12))


@pytest.mark.parametrize("level", [5, 6])
def test_solve_family_matches_direct_solves(level):
    windows = [(math.pi / 6.0, 2.0 * math.pi / 3.0)]
    if level == 6:
        # the equilateral, where lambda_s and lambda_a cross, in the middle
        windows.append((math.pi / 3.0 - 0.2, math.pi / 3.0 + 0.2))
    for lo, hi in windows:
        family = halves(np.linspace(lo, hi, 21))
        for edges, k in HALF_PROBLEMS:
            values = family_values(family, k, level, edges)
            direct = np.array([solve_lowest(mesh_triangle(t, level), k,
                                            edges).values for t in family])
            np.testing.assert_allclose(values, direct, rtol=1e-10)


def test_only_family_snapshots_stop_early_on_a_short_basis(monkeypatch):
    # a snapshot only spans basis directions; every other solve keeps
    # eigsh's default basis and converges to machine precision
    calls = counting_eigsh(monkeypatch)
    family = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, 21))
    for edges, k in HALF_PROBLEMS:
        del calls[:]
        family_values(family, k, 5, edges)
        assert len(calls) >= fem.FAMILY_SNAPSHOTS
        for call in calls:
            assert call["k"] == k + 1
            assert call["ncv"] == 2 * (k + 1) + 1
            assert call["tol"] == fem.SNAPSHOT_RTOL
    del calls[:]
    fan = fan_triangle(2.5)
    solve_pair(fan, 3, 6)
    solve_lowest(mesh_triangle(fan, 6), 3)
    assert len(calls) == 3
    for call in calls:
        assert "ncv" not in call and "tol" not in call


def test_family_reads_snapshots_as_basis_directions_only(monkeypatch):
    # a snapshot solve spans the modes of a full solve to well inside the
    # family's gate, on the dense path (level 4) and on Lanczos's (level 6)
    t = half_triangle(1.0)
    for edges, k in HALF_PROBLEMS:
        for level in (4, 6):
            mesh = mesh_triangle(t, level)
            snapshot = solve_lowest(mesh, k + 1, edges,
                                    rtol=fem.SNAPSHOT_RTOL)
            full = solve_lowest(mesh, k + 1, edges)
            assert np.all(np.diff(snapshot.values) > 0)
            assert np.max(subspace_angles(snapshot.vectors,
                                          full.vectors)) < 1e-6
    # so the family's values do not depend on the signs or the scale of
    # the snapshot vectors
    family = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, 21))
    original = fem.solve_lowest

    def solve(mesh, k, dirichlet_edges=(0, 1, 2), start=None, rtol=None):
        res = original(mesh, k, dirichlet_edges, start, rtol)
        # column j scaled by (-2.5)^(j+1): alternating signs, no unit norm
        return res._replace(vectors=res.vectors
                            * (-2.5) ** np.arange(1, k + 1))

    for edges, k in HALF_PROBLEMS:
        values = family_values(family, k, 6, edges)
        monkeypatch.setattr(fem, "solve_lowest", solve)
        np.testing.assert_allclose(family_values(family, k, 6, edges), values,
                                   rtol=1e-10)
        monkeypatch.undo()


def test_families_skip_the_directions_no_member_weights(monkeypatch):
    # right triangles with the right angle at vertex 0, 1 and 2: each leaves
    # another direction unweighted, together they weight all three; half
    # triangles never weight their hypotenuse's (direction 2)
    heights = np.linspace(0.8, 1.25, 4)
    right = ([Triangle([(0, 0), (1, 0), (0, h)]) for h in heights]
             + [Triangle([(0, 0), (1, 0), (1, h)]) for h in heights]
             + [Triangle([(0, 0), (1, h), (0, h)]) for h in heights])
    half = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, 21))
    built = []
    original = fem._laplacian_matrices

    def laplacians(*args):
        matrices = original(*args)
        built.append(len(matrices))
        return matrices

    monkeypatch.setattr(fem, "_laplacian_matrices", laplacians)
    for family, edges, k, used in ((right, (0, 1, 2), 2, 3),
                                   (half, (1, 2), 2, 2)):
        weights, _ = fem._family_weights(family)
        assert np.count_nonzero(np.any(weights > 0, axis=0)) == used
        del built[:]
        values = family_values(family, k, 5, edges)
        assert built == [used]
        direct = np.array([solve_lowest(mesh_triangle(t, 5), k,
                                        edges).values for t in family])
        np.testing.assert_allclose(values, direct, rtol=1e-10)


def test_warm_started_family_keeps_its_snapshots(monkeypatch):
    # snapshots start from the one before or from their Ritz vectors: fewer
    # steps, the same snapshots, the same values
    family = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, 21))
    initial = len(fem._chebyshev_members(len(family), fem.FAMILY_SNAPSHOTS))
    calls = counting_eigsh(monkeypatch)
    original = fem.solve_lowest
    for edges, k in HALF_PROBLEMS:
        runs = {}
        for warm in (True, False):
            starts = []

            def solve(mesh, k, dirichlet_edges=(0, 1, 2), start=None, rtol=None):
                starts.append(start)
                return original(mesh, k, dirichlet_edges,
                                start if warm else None, rtol)

            monkeypatch.setattr(fem, "solve_lowest", solve)
            del calls[:]
            values = family_values(family, k, 6, edges)
            runs[warm] = (values, starts, sum(c["steps"] for c in calls))
        (values, starts, steps), (_, cold_starts, cold_steps) = \
            runs[True], runs[False]
        # greedy members joined after the initial snapshots
        assert len(starts) == len(cold_starts) > initial
        assert starts[0] is None
        assert all(start is not None for start in starts[1:])
        assert steps < cold_steps
        direct = np.array([original(mesh_triangle(t, 6), k, edges).values
                           for t in family])
        np.testing.assert_allclose(values, direct, rtol=1e-10)


def test_gate_refuses_ritz_values_that_skip_the_fundamental():
    triangles = halves([0.8, 1.0, 1.2])
    meshes = [mesh_triangle(t, 5) for t in triangles]
    family = fem._family_weights(triangles)
    for edges, k in HALF_PROBLEMS:
        solved = [(res, residual_norms(assemble(mesh, edges), res))
                  for mesh in meshes
                  for res in [solve_lowest(mesh, k + 2, edges)]]

        def count(a, sigma, edges=edges):
            forms = assemble(meshes[a], edges)
            return inertia(forms.stiffness, forms.mass, sigma)

        def claims(first_skipping):
            # from this member on, modes 2..k+1 pose as the k lowest
            top, above = [], []
            for i, (res, resid) in enumerate(solved):
                j = int(i >= first_skipping)
                top.append(np.max(res.values[j:j + k] + resid[j:j + k]))
                above.append(res.values[j + k])
            return np.array(top), np.array(above)

        assert fem._first_unproven(count, k, *claims(3), *family) is None
        # refused where the skip starts, also past an anchor whose count
        # is carried over
        for first in (0, 2):
            assert fem._first_unproven(count, k, *claims(first),
                                       *family) == first


def carries(triangles, top, above, a, i):
    """The gate's transport: a count of k at anchor a proves member i."""
    wa, wi = fem._weights(triangles[a])[0], fem._weights(triangles[i])[0]
    used = wa > 0
    m = np.min(wi[used] / wa[used])
    shift = top[a] + fem.ANCHOR_SHIFT * (above[a] - top[a])
    return m * triangles[a].area / triangles[i].area * shift > top[i]


def test_gate_covers_the_family_with_fewer_counts(monkeypatch):
    family = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, 80))
    original_gate, original_inertia = fem._first_unproven, fem.inertia
    for edges, k in HALF_PROBLEMS:
        gated, counts = [], []

        def inertia(K, M, sigma):
            counts.append((sigma, original_inertia(K, M, sigma)))
            return counts[-1][1]

        def gate(*args):
            del counts[:]
            gated.append((args, original_gate(*args)))
            return gated[-1][1]

        monkeypatch.setattr(fem, "inertia", inertia)
        monkeypatch.setattr(fem, "_first_unproven", gate)
        family_values(family, k, 5, edges)
        (_, _, top, above, *_), result = gated[-1]
        assert result is None
        # every member is carried by an anchor whose count is k
        shift = top + fem.ANCHOR_SHIFT * (above - top)
        anchors = [int(np.flatnonzero(shift == sigma)[0])
                   for sigma, count in counts if count == k]
        for i in range(len(family)):
            assert any(carries(family, top, above, a, i) for a in anchors), i
        # a member-by-member scan counts at every member its last anchor
        # does not carry: 7 and 3 counts here, the cover 3 and 2
        scan, anchor = 0, None
        for i in range(len(family)):
            if anchor is None or not carries(family, top, above, anchor, i):
                scan, anchor = scan + 1, i
        assert len(counts) < scan


def test_family_counts_on_the_pencils_it_holds(monkeypatch):
    # only the snapshot solves assemble forms; every inertia count is made
    # on the family's own direction Laplacians and reference mass
    family = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, 21))
    assembled, counted = [], []
    original_assemble, original_inertia = fem.assemble, fem.inertia

    def assemble(*args):
        assembled.append(args)
        return original_assemble(*args)

    def inertia(*args):
        counted.append(args)
        return original_inertia(*args)

    monkeypatch.setattr(fem, "assemble", assemble)
    monkeypatch.setattr(fem, "inertia", inertia)
    solved = recording_solves(monkeypatch, family)
    for edges, k in HALF_PROBLEMS:
        family_values(family, k, 5, edges)
    assert counted
    assert len(assembled) == len(solved)


def test_lowest_eigenpairs_match_the_full_eigh():
    # the Ritz pass solves only the pairs it reads; the full eigh is the
    # reference, vectors up to sign
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 12, 12))
    stack = a @ a.transpose(0, 2, 1) + np.eye(12)
    values, vectors = fem._lowest_eigenpairs(stack, 3)
    full_values, full_vectors = np.linalg.eigh(stack)
    # backward-stable solvers: errors of a few eps times the largest value
    np.testing.assert_allclose(values, full_values[:, :3], rtol=0,
                               atol=1e-13 * full_values.max())
    overlap = np.einsum("bij,bij->bj", vectors, full_vectors[:, :, :3])
    np.testing.assert_allclose(np.abs(overlap), 1.0, rtol=1e-12)


@pytest.mark.parametrize("size", [21, 1])
def test_ritz_block_size_changes_no_decision(size, monkeypatch):
    family = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, size))
    original = fem.solve_lowest
    for edges, k in HALF_PROBLEMS:
        runs = []
        for block in (fem._RITZ_BLOCK, 1, 5):
            calls = []

            def solve(mesh, k, dirichlet_edges=(0, 1, 2), start=None, rtol=None):
                calls.append((family.index(mesh.triangle), start))
                return original(mesh, k, dirichlet_edges, start, rtol)

            monkeypatch.setattr(fem, "solve_lowest", solve)
            monkeypatch.setattr(fem, "_RITZ_BLOCK", block)
            runs.append((family_values(family, k, 5, edges), calls))
        (values, calls), others = runs[0], runs[1:]
        for other_values, other_calls in others:
            assert [i for i, _ in other_calls] == [i for i, _ in calls]
            for (_, start), (_, other_start) in zip(calls, other_calls):
                assert (start is None) == (other_start is None)
                if start is not None:
                    np.testing.assert_array_equal(other_start, start)
            np.testing.assert_allclose(other_values, values, rtol=1e-13)


def test_a_stalled_basis_is_refused(monkeypatch):
    # with no residual allowed, the worst member of a family whose members
    # are all snapshots cannot join the basis again
    monkeypatch.setattr(fem, "FAMILY_RTOL", 0.0)
    with pytest.raises(RuntimeError, match="stalled"):
        family_values(halves([0.8, 1.0, 1.2]), 1, 5, (0, 1, 2))


def test_refuted_member_becomes_a_snapshot(monkeypatch):
    family = halves(np.linspace(0.6, 2.0, 21))
    solved, gated = [], []
    original_solve, original_gate = fem.solve_lowest, fem._first_unproven

    def solve(mesh, k, dirichlet_edges=(0, 1, 2), start=None, rtol=None):
        solved.append(mesh.triangle)
        return original_solve(mesh, k, dirichlet_edges, start, rtol)

    def gate(*args):
        # member 10 is neither a Chebyshev nor a greedy snapshot here
        gated.append(args)
        return 10 if len(gated) == 1 else original_gate(*args)

    monkeypatch.setattr(fem, "solve_lowest", solve)
    monkeypatch.setattr(fem, "_first_unproven", gate)
    values = family_values(family, 1, 5, (0, 1, 2))
    assert solved.count(family[10]) == 1 and len(gated) == 2
    direct = [original_solve(mesh_triangle(t, 5), 1).values for t in family]
    np.testing.assert_allclose(values, direct, rtol=1e-10)
    # a snapshot the gate refutes is not solved again
    monkeypatch.setattr(fem, "_first_unproven", lambda *args: 0)
    with pytest.raises(RuntimeError, match="not proven"):
        family_values(family, 1, 5, (0, 1, 2))


@pytest.mark.parametrize("window", [
    (math.pi / 6.0, 2.0 * math.pi / 3.0),
    # the equilateral, where lambda_s and lambda_a cross, in the middle
    (math.pi / 3.0 - 0.2, math.pi / 3.0 + 0.2)])
def test_solve_family_pair_matches_direct_solves(window):
    family = halves(np.linspace(*window, 21))
    for edges, k in HALF_PROBLEMS:
        pair = solve_family_pair(family, k, 6, edges)
        for level, values in zip((5, 6), pair):
            direct = np.array([solve_lowest(mesh_triangle(t, level), k,
                                            edges).values for t in family])
            np.testing.assert_allclose(values, direct, rtol=1e-10)


def recording_solves(monkeypatch, family):
    """Patch fem.solve_lowest to record (level, member, start) per call."""
    calls = []
    original = fem.solve_lowest

    def solve(mesh, k, dirichlet_edges=(0, 1, 2), start=None, rtol=None):
        calls.append((mesh.level, family.index(mesh.triangle), start))
        return original(mesh, k, dirichlet_edges, start, rtol)

    monkeypatch.setattr(fem, "solve_lowest", solve)
    return calls


def restricted(level, edges, vector):
    """A free-vertex vector of level at the vertices of level-1."""
    _, i, j = fem._lattice(level)
    free = fem._stencil(level, edges).free
    return vector[(i[free] % 2 == 0) & (j[free] % 2 == 0)]


def test_fine_family_starts_from_the_coarse_snapshots(monkeypatch):
    family = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, 21))
    for edges, k in HALF_PROBLEMS:
        calls = recording_solves(monkeypatch, family)
        solve_family_pair(family, k, 6, edges)
        coarse = [member for level, member, _ in calls if level == 5]
        fine = [(member, start) for level, member, start in calls
                if level == 6]
        assert [level for level, _, _ in calls] == \
            [5] * len(coarse) + [6] * len(fine)
        assert [member for member, _ in fine[:len(coarse)]] == coarse
        for _, start in fine[:len(coarse)]:
            # a P1 function of the coarse lattice, interpolated
            np.testing.assert_allclose(
                fem._prolong(6, edges, restricted(6, edges, start)), start,
                rtol=0, atol=1e-14 * np.max(np.abs(start)))
        # members the gates add later start from their fine Ritz vectors
        assert all(start is not None for _, start in fine)


def test_fine_family_needs_fewer_ritz_passes(monkeypatch):
    family = halves(np.linspace(math.pi / 6.0, 2.0 * math.pi / 3.0, 80))
    original_solve, original_pairs = fem.solve_lowest, fem._lowest_eigenpairs
    solving, blocks = [], collections.Counter()

    def solve(mesh, *args):
        solving[:] = [mesh.level]
        return original_solve(mesh, *args)

    def pairs(matrices, count):
        # a Ritz pass follows a snapshot solve of its own level and makes
        # one call per block of members, the same number in every pass
        blocks[solving[0]] += 1
        return original_pairs(matrices, count)

    monkeypatch.setattr(fem, "solve_lowest", solve)
    monkeypatch.setattr(fem, "_lowest_eigenpairs", pairs)
    for edges, k in HALF_PROBLEMS:
        blocks.clear()
        solve_family_pair(family, k, 6, edges)
        warm = blocks[6]
        blocks.clear()
        family_values(family, k, 6, edges)
        assert 0 < warm < blocks[6]


def test_refuted_fine_member_becomes_a_snapshot(monkeypatch):
    family = halves(np.linspace(0.6, 2.0, 21))
    gated = []
    original_gate = fem._first_unproven
    calls = recording_solves(monkeypatch, family)

    def gate(*args):
        # member 10 is a snapshot at neither level here; a gate follows the
        # snapshot solves of its own level
        fine = calls[-1][0] == 6
        first_fine = fine and not gated
        if fine:
            gated.append(args)
        return 10 if first_fine else original_gate(*args)

    monkeypatch.setattr(fem, "_first_unproven", gate)
    pair = solve_family_pair(family, 1, 6, (0, 1, 2))
    assert [member for level, member, _ in calls].count(10) == 1
    assert (6, 10) in [(level, member) for level, member, _ in calls]
    assert len(gated) == 2
    monkeypatch.undo()
    for level, values in zip((5, 6), pair):
        direct = [solve_lowest(mesh_triangle(t, level), 1).values
                  for t in family]
        np.testing.assert_allclose(values, direct, rtol=1e-10)
    # the fine family took the coarse snapshots, so a refuted one is not
    # solved again
    calls = recording_solves(monkeypatch, family)
    monkeypatch.setattr(
        fem, "_first_unproven",
        lambda *args: 0 if calls[-1][0] == 6 else original_gate(*args))
    with pytest.raises(RuntimeError, match="not proven .* at level 6"):
        solve_family_pair(family, 1, 6, (0, 1, 2))


def test_solve_family_pair_validation(monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_lowest called")

    monkeypatch.setattr(fem, "solve_lowest", refuse)
    family = halves([1.0, 1.2])
    with pytest.raises(ValueError, match="level >= 1"):
        solve_family_pair(family, 1, 0, (0, 1, 2))
    # the fine level is refused before the coarse family is solved
    with pytest.raises(ValueError, match="level must be in"):
        solve_family_pair(family, 1, MAX_LEVEL + 1, (0, 1, 2))


def test_solve_family_validation(monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_lowest called")

    # both refused before any snapshot is solved
    monkeypatch.setattr(fem, "solve_lowest", refuse)
    with pytest.raises(ValueError, match="obtuse"):
        solve_family_pair([Triangle([(0, 0), (1, 0), (-0.2, 0.5)])], 1, 4,
                          (0, 1, 2))
    with pytest.raises(ValueError, match="k must"):
        solve_family_pair(halves([1.0]), 0, 4, (0, 1, 2))
