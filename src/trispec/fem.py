"""P1 finite elements on uniformly refined triangles.

Meshes are the barycentric lattice of a single triangle (4^level congruent
elements), assembly uses the exact stiffness and mass formulas for linear
elements (no quadrature error), and the generalized symmetric pencil on the
interior degrees of freedom is solved by shift-invert Lanczos at shift 0.
Discrete eigenvalues are upper bounds for the true ones (conforming
subspace) and converge at O(h^2), which Richardson extrapolation removes.

Directional stiffness forms (the y-y and symmetrized x-y energies) are
assembled alongside, since the transplantation conditions are driven by the
fraction of Dirichlet energy carried by those derivatives.
"""

import collections
import json
import math

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
# splu is not called here; perfbench/tracing.py still wraps trispec.fem.splu
# by name, so the name stays.
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, splu  # noqa: F401

from .geometry import Triangle

__all__ = [
    "Mesh",
    "FemForms",
    "EigenResult",
    "RayleighData",
    "mesh_triangle",
    "assemble",
    "solve_lowest",
    "extrapolate",
    "solve_extrapolated",
    "rayleigh_data",
    "classify_second_mode",
]

MAX_LEVEL = 10
ARPACK_MAXITER = 500
# Below this many interior unknowns a dense solve is cheaper and avoids
# ARPACK's k < n-1 restrictions on tiny problems.
DENSE_CUTOFF = 360
# Relative gap under which two discrete eigenvalues count as one cluster.
CLUSTER_RTOL = 1e-6
# Entries of the solver cache, one per (triangle, level, Dirichlet edges).
SOLVE_CACHE_SIZE = 1024


class Mesh:
    """Uniform refinement of a triangle into 4^level congruent elements.

    edge_flags[v, e] marks vertex v as lying on input edge e, where edge e
    joins input vertices e and (e+1) mod 3.  Boundary conditions are
    imposed per input edge, so a mixed problem just drops some edges from
    the Dirichlet set.
    """

    def __init__(self, triangle, vertices, elements, edge_flags, level):
        self.triangle = triangle
        self.vertices = vertices
        self.elements = elements
        self.edge_flags = edge_flags
        self.level = level

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    def dirichlet_mask(self, dirichlet_edges=(0, 1, 2)):
        """Boolean mask of vertices constrained by the given edge set."""
        mask = np.zeros(self.num_vertices, dtype=bool)
        for e in dirichlet_edges:
            mask |= self.edge_flags[:, e]
        return mask

    def to_text(self):
        """Indexed-triangle text format: v lines then e lines."""
        lines = [f"# mesh level {self.level}: "
                 f"{self.num_vertices} vertices, {self.num_elements} elements"]
        for x, y in self.vertices:
            lines.append(f"v {x!r} {y!r}")
        for a, b, c in self.elements:
            lines.append(f"e {a} {b} {c}")
        return "\n".join(lines) + "\n"


def mesh_triangle(t, level):
    """Mesh a triangle by the barycentric lattice with 2^level subdivisions.

    Equivalent to applying uniform 4-way (red) refinement `level` times;
    element count 4^level, vertex count (2^l + 1)(2^l + 2)/2.
    """
    if not (0 <= level <= MAX_LEVEL):
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    v0, v1, v2 = t.vertices
    n = 1 << level
    # Vertex (i, j) sits at v0 + (i/n)(v1 - v0) + (j/n)(v2 - v0), i + j <= n,
    # indexed row-major by j.
    offsets = np.zeros(n + 2, dtype=np.int64)
    for j in range(n + 1):
        offsets[j + 1] = offsets[j] + (n + 1 - j)
    num_vertices = int(offsets[n + 1])
    vertices = np.empty((num_vertices, 2))
    edge_flags = np.zeros((num_vertices, 3), dtype=bool)
    for j in range(n + 1):
        i = np.arange(n + 1 - j)
        idx = offsets[j] + i
        s = i / n
        u = j / n
        vertices[idx] = v0 + np.outer(s, v1 - v0) + np.outer(u, v2 - v0)
        edge_flags[idx, 0] = j == 0            # edge v0-v1
        edge_flags[idx[i + j == n], 1] = True  # edge v1-v2
        edge_flags[offsets[j], 2] = True       # edge v2-v0

    up = []
    down = []
    for j in range(n):
        i = np.arange(n - j)
        a = offsets[j] + i
        b = a + 1
        c = offsets[j + 1] + i
        up.append(np.column_stack((a, b, c)))
        if n - j - 1 > 0:
            i2 = np.arange(n - j - 1)
            down.append(np.column_stack((offsets[j] + i2 + 1,
                                         offsets[j + 1] + i2 + 1,
                                         offsets[j + 1] + i2)))
    elements = np.vstack(up + down).astype(np.int64)
    if t.signed_area < 0:
        # Parent is clockwise; swap two local vertices so every element is CCW.
        elements = elements[:, [0, 2, 1]]
    return Mesh(t, vertices, elements, edge_flags, level)


class FemForms:
    """Assembled global matrices on the full vertex set (CSR)."""

    def __init__(self, stiffness, mass, stiffness_yy, stiffness_xy):
        self.stiffness = stiffness
        self.mass = mass
        self.stiffness_yy = stiffness_yy
        self.stiffness_xy = stiffness_xy


def assemble(mesh):
    """Exact P1 stiffness, mass, and directional stiffness matrices."""
    v = mesh.vertices
    e = mesh.elements
    p = v[e]                                   # (ne, 3, 2)
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
    k_full = area[:, None, None] * (np.einsum("eid,ejd->eij", grads, grads))
    k_yy = area[:, None, None] * (gy[:, :, None] * gy[:, None, :])
    k_xy = area[:, None, None] * 0.5 * (gx[:, :, None] * gy[:, None, :]
                                        + gy[:, :, None] * gx[:, None, :])
    m_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m_full = area[:, None, None] * m_local[None, :, :]

    rows = np.repeat(e, 3, axis=1).ravel()
    cols = np.tile(e, (1, 3)).ravel()
    nv = mesh.num_vertices

    def build(local):
        mat = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv))
        return mat.tocsr()

    return FemForms(build(k_full), build(m_full), build(k_yy), build(k_xy))


class EigenResult:
    """Lowest-k discrete eigenpairs of one mesh.

    values ascend; vectors are full-vertex coefficient columns (zero on the
    constrained boundary), mass-orthonormal.  residuals[j] bounds the
    mass-inverse norm of K v_j - values[j] M v_j from above by twice its
    lumped-mass dual norm (see solve_lowest).  energies[j] holds the
    total, y-y and x-y stiffness energies of vectors[:, j].  Every array is
    per mode, so the first k' < k modes are leading(k').
    """

    def __init__(self, mesh, values, vectors, residuals, energies,
                 dirichlet_edges):
        self.mesh = mesh
        self.values = values
        self.vectors = vectors
        self.residuals = residuals
        self.energies = energies
        self.dirichlet_edges = tuple(dirichlet_edges)

    @property
    def level(self):
        return self.mesh.level

    def leading(self, k):
        """The first k modes, as views into this result's arrays."""
        return EigenResult(self.mesh, self.values[:k], self.vectors[:, :k],
                           self.residuals[:k], self.energies[:k],
                           self.dirichlet_edges)


def solve_lowest(mesh, k, dirichlet_edges=(0, 1, 2)):
    """Smallest k eigenpairs of the Dirichlet (or mixed) pencil on the mesh.

    Edges listed in dirichlet_edges carry the zero condition; the rest are
    natural (Neumann).  Deterministic: fixed ARPACK start vector, ascending
    sort, M-orthonormalization, sign fixed by the largest component.

    The reported residual of mode j is 2 ||r_j|| in the dual norm of the
    lumped (row-sum) mass L, r_j = K v_j - lambda_j M v_j.  Each element
    mass dominates a quarter of its lumped mass, so M >= L/4 and this is a
    guaranteed upper bound on the mass-inverse norm sqrt(r^T M^-1 r); since
    M <= L it is at most twice that norm.  No mass factorization is needed.
    The per-mode stiffness energies (total, y-y, x-y) come from the forms
    assembled here, so energy fractions need no second assembly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    forms = assemble(mesh)
    free = ~mesh.dirichlet_mask(dirichlet_edges)
    idx = np.flatnonzero(free)
    nfree = idx.size
    if k >= nfree:
        raise ValueError(f"k={k} too large for {nfree} free vertices")
    kk = forms.stiffness[idx][:, idx].tocsc()
    mm = forms.mass[idx][:, idx].tocsc()

    if nfree <= DENSE_CUTOFF or k >= nfree - 1:
        vals, vecs = eigh(kk.toarray(), mm.toarray(),
                          subset_by_index=(0, k - 1))
    else:
        v0 = np.full(nfree, 1.0 / math.sqrt(nfree))
        try:
            vals, vecs = eigsh(kk, k=k, M=mm, sigma=0.0, which="LM",
                               v0=v0, maxiter=ARPACK_MAXITER)
        except ArpackNoConvergence as err:
            raise RuntimeError(
                f"eigensolver did not converge within {ARPACK_MAXITER} "
                f"iterations at level {mesh.level}") from err
    order = np.argsort(vals)
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])

    # Re-orthonormalize in the mass inner product; ARPACK is close already,
    # a Cholesky of the small Gram matrix tightens it to machine precision.
    gram = vecs.T @ (mm @ vecs)
    chol = np.linalg.cholesky((gram + gram.T) / 2.0)
    vecs = np.linalg.solve(chol, vecs.T).T
    for col in range(vecs.shape[1]):
        pivot = int(np.argmax(np.abs(vecs[:, col])))
        if vecs[pivot, col] < 0:
            vecs[:, col] = -vecs[:, col]

    lumped = np.asarray(forms.mass.sum(axis=1)).ravel()[idx]
    r = kk @ vecs - (mm @ vecs) * vals
    resid = 2.0 * np.sqrt(np.sum(r * r / lumped[:, None], axis=0))

    full_vecs = np.zeros((mesh.num_vertices, k))
    full_vecs[idx] = vecs
    energies = np.column_stack([
        np.sum(full_vecs * (form @ full_vecs), axis=0)
        for form in (forms.stiffness, forms.stiffness_yy, forms.stiffness_xy)])
    return EigenResult(mesh, vals, full_vecs, resid, energies, dirichlet_edges)


def extrapolate(coarse, fine):
    """Richardson-extrapolate assuming O(h^2): fine + (fine - coarse)/3.

    Requires the same triangle and fine.level = coarse.level + 1.
    """
    if fine.level != coarse.level + 1:
        raise ValueError("fine level must be coarse level + 1")
    if not np.allclose(fine.mesh.triangle.vertices,
                       coarse.mesh.triangle.vertices, rtol=0, atol=1e-14):
        raise ValueError("extrapolation requires the same triangle")
    if fine.dirichlet_edges != coarse.dirichlet_edges:
        raise ValueError("extrapolation requires the same boundary conditions")
    k = min(len(fine.values), len(coarse.values))
    return fine.values[:k] + (fine.values[:k] - coarse.values[:k]) / 3.0


def _tri_key(t):
    return tuple(map(float, t.vertices.ravel()))


# (triangle key, level, Dirichlet edges) -> the largest-k EigenResult solved
# so far, least recently used first.
_SOLVE_CACHE = collections.OrderedDict()


def _solve_cached(tri_key, level, k, dirichlet_edges):
    """The lowest k modes, sliced from the cached solve of this problem.

    Only a request for more modes than the entry holds solves again, and
    its result replaces the entry.  Slicing changes nothing: the Cholesky
    re-orthonormalization is triangular and signs are fixed per column, so
    the leading columns do not depend on the trailing ones.
    """
    key = (tri_key, level, dirichlet_edges)
    res = _SOLVE_CACHE.get(key)
    if res is None or len(res.values) < k:
        t = Triangle(np.array(tri_key).reshape(3, 2))
        res = solve_lowest(mesh_triangle(t, level), k, dirichlet_edges)
        _SOLVE_CACHE[key] = res
    _SOLVE_CACHE.move_to_end(key)
    if len(_SOLVE_CACHE) > SOLVE_CACHE_SIZE:
        _SOLVE_CACHE.popitem(last=False)
    return res if len(res.values) == k else res.leading(k)


def solve_extrapolated(t, k, level, dirichlet_edges=(0, 1, 2)):
    """Solve at level-1 and level, extrapolate.

    Returns (values, err_estimate, fine_result); the error estimate is the
    extrapolation increment |fine - coarse|/3 per eigenvalue, the standard
    proxy for the remaining discretization error.  Both levels come from the
    solver cache, which keeps one solve per (triangle, level, Dirichlet
    edges) and slices it to k modes; asking for the largest k first avoids
    re-solving.  fine_result.residuals are the lumped-mass upper bounds of
    solve_lowest.
    """
    if level < 1:
        raise ValueError("extrapolated solve needs level >= 1")
    key = _tri_key(t)
    edges = tuple(sorted(dirichlet_edges))
    coarse = _solve_cached(key, level - 1, k, edges)
    fine = _solve_cached(key, level, k, edges)
    values = extrapolate(coarse, fine)
    err = np.abs(fine.values[:k] - coarse.values[:k]) / 3.0
    return values, err, fine


class RayleighData:
    """Energy fractions of the first n discrete eigenfunctions.

    gamma_n is the y-derivative share of the total Dirichlet energy,
    delta_n the symmetrized cross x-y share; both dimensionless,
    gamma_n in [0, 1] and |delta_n| <= 1/2 by Cauchy-Schwarz.
    """

    def __init__(self, gamma_n, delta_n, n):
        if not (0.0 <= gamma_n <= 1.0):
            raise ValueError("gamma_n out of [0, 1]")
        if abs(delta_n) > 0.5:
            raise ValueError("|delta_n| exceeds 1/2")
        self.gamma_n = float(gamma_n)
        self.delta_n = float(delta_n)
        self.n = int(n)

    def to_json(self):
        return json.dumps({"gamma_n": self.gamma_n, "delta_n": self.delta_n,
                           "n": self.n})


def _energy_fractions(t, n, level):
    res = _solve_cached(_tri_key(t), level, n + 1, (0, 1, 2))
    gap = (res.values[n] - res.values[n - 1]) / res.values[n]
    if gap < CLUSTER_RTOL:
        raise ValueError(
            f"ranks {n} and {n + 1} form a degenerate cluster at level {level}; "
            "choose n so the cluster is not split")
    total, yy, xy = np.sum(res.energies[:n], axis=0)
    return float(yy / total), float(xy / total)


def rayleigh_data(f, n, level):
    """Extrapolated gamma_n, delta_n for the fan triangle T(a, b).

    Solves n+1 modes at level-1 and level; refuses to split a degenerate
    cluster (the fractions are basis-dependent inside one).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = f.triangle
    g_coarse, d_coarse = _energy_fractions(t, n, level - 1)
    g_fine, d_fine = _energy_fractions(t, n, level)
    gamma = g_fine + (g_fine - g_coarse) / 3.0
    delta = d_fine + (d_fine - d_coarse) / 3.0
    return RayleighData(gamma, delta, n)


def classify_second_mode(t, level, alpha_tol=1e-3):
    """Symmetry class of the second mode of an isosceles triangle.

    Solves the two half-triangle problems: full Dirichlet gives the lowest
    antisymmetric tone, Neumann on the symmetry line gives the symmetric
    tones (the first of which is the fundamental).  Near the equilateral
    aperture the classes cross and the question is ill-posed; raises there.
    """
    if abs(t.alpha - math.pi / 3.0) < alpha_tol:
        raise ValueError("aperture too close to pi/3: second mode is degenerate")
    half = t.half_triangle
    anti, anti_err, _ = solve_extrapolated(half, 1, level, (0, 1, 2))
    sym, sym_err, _ = solve_extrapolated(half, 2, level, (1, 2))
    lam_a = anti[0]
    lam_s = sym[1]
    err = anti_err[0] + sym_err[1]
    if abs(lam_s - lam_a) < 3.0 * err:
        raise ValueError("half-triangle tones too close to classify at this level")
    return "symmetric" if lam_s < lam_a else "antisymmetric"
