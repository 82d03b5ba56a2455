"""P1 finite elements on uniformly refined triangles, built from lattice stencils.

A mesh of level L is the barycentric lattice of one triangle with 2^L
subdivisions per side: 4^L congruent elements, the up triangles translates
of one element and the down triangles its point reflections.  Every lattice
edge is parallel to one of the three sides, and what an element adds to a
gradient form with constant coefficients depends only on the direction of
the edge it couples.  So the stiffness (cotangent weights) and its y-y part
are each sum_d w_d(T) L_d over three edge-direction lattice Laplacians L_d,
which give each edge weight 1 on the boundary and 2 inside (the number of
elements sharing it); the mass is (area / 4^L) sum_d |L_d| / 12.  These
are the exact formulas for linear elements (no quadrature error).

The L_d, restricted to the vertices off the Dirichlet edges, come from
index arithmetic on the lattice and are cached per (level, Dirichlet
edges), so assembling a triangle means computing six weights and one
matrix-vector product per form.  Every stencil entry is a small integer,
so the cache holds int8 arrays (the L_d, and the numerators of the mass
and its row sums) with int32 indices; floats are formed only when a
triangle's forms are assembled.  The generalized symmetric pencil on those
vertices is solved by shift-invert Lanczos at shift 0; the stiffness is
factored once per solve by a symmetric-mode sparse LU (minimum-degree
ordering of K + K^T, no pivoting, since K is positive definite) that
takes one column per panel, so it needs no panel work arrays.  Discrete
eigenvalues are upper bounds for the true ones (conforming subspace) and
converge at O(h^2), which richardson removes from a solve_pair of
consecutive levels; it is the one extrapolation here.  Eigenvectors are
kept on the free vertices only, in the order of the forms.

Triangles without an obtuse angle have nonnegative weights w_d, so a family
of them on one lattice (the half triangles of an aperture sweep) is solved
at once by solve_family_pair, at two consecutive levels, each level by a
Rayleigh-Ritz projection onto the eigenvectors of direct solves at a few
members (_solve_family).  Its values are upper bounds on the P1 values, as
a direct solve's are.  Each pass over the members works on blocks of them:
the k+1 lowest eigenpairs of each reduced pencil, and the residuals of all
the block's Ritz vectors from a few sparse products with many columns.
That no mode was skipped is proven by Sylvester inertia counts of
K - sigma M (inertia) on the pencils the family holds, carried from member
to member by the Loewner order of their stiffnesses; the counts go to the
anchors that carry the longest runs of members.  So a snapshot needs only
the accuracy of a basis direction, not of an eigenpair: the Ritz values
are upper bounds whatever the basis, a basis too poor for a member shows
in that member's Ritz residual, and the inertia cover proves completeness.
Snapshots are therefore solved to SNAPSHOT_RTOL with a short Krylov basis,
every other solve to machine precision.  Every solve returns its values
ascending and its vectors as Lanczos (or the dense eigh) leaves them, with
no sign convention: the family re-orthonormalizes every snapshot against
its basis, and gamma reads modes only through ratios of their energies.
A family assembles its reduced forms only from the direction Laplacians
some member weights: a right angle leaves its hypotenuse's direction
unweighted, so a family of half triangles needs two of the three.

Lanczos starts from the constant vector unless the caller holds a close
guess of the wanted modes.  Uniform refinement nests the P1 spaces, so a
solve_pair starts its fine solve from the coarse modes interpolated onto
the fine lattice (_prolong).  A family starts each Chebyshev snapshot from
the one before it and each later one from the member's own Ritz vectors.
solve_family_pair solves the coarse family first; the fine one
then takes the coarse snapshot members first, each started from its own
coarse Ritz vectors, interpolated, so it needs fewer Ritz passes and
shift-invert steps.  A start changes how many steps a solve takes, not
what it converges to, and the coarse family only chooses the fine
family's first snapshots: every fine value passes the same gates.

A factorization's heap goes back to the OS when its solve ends
(_release_heap, glibc's malloc_trim): the allocator would otherwise keep
the large blocks a sparse LU frees, and the next factorization would not
reuse them.  So a process peaks at its import floor plus its largest
solve, however many solves it runs.  With one-column panels the
factorization itself peaks at the LU it leaves, which is most of a solve's
memory: a fem --n 6 solve pair peaks at about 105 MB at level 8, 240 MB at
level 9 and 830 MB at MAX_LEVEL, whose LU alone is about 550 MB.
"""

import collections
import ctypes
import functools
import math

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, get_lapack_funcs
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from .geometry import Triangle

__all__ = [
    "Mesh",
    "FemForms",
    "EigenResult",
    "mesh_triangle",
    "assemble",
    "solve_lowest",
    "solve_pair",
    "inertia",
    "solve_family_pair",
    "richardson",
    "solve_extrapolated",
    "rayleigh_data",
]

MAX_LEVEL = 10
ARPACK_MAXITER = 500
# Seed of the generator ARPACK draws a restart vector from when Lanczos
# finds an invariant subspace before it has k modes.
ARPACK_SEED = 0
# Below this many interior unknowns a dense solve is cheaper and avoids
# ARPACK's k < n-1 restrictions on tiny problems.
DENSE_CUTOFF = 360
# Relative gap under which two discrete eigenvalues count as one cluster.
CLUSTER_RTOL = 1e-6
# Stencils kept, one per (level, Dirichlet edges); a pipeline uses at most
# two levels and two boundary sets.
STENCIL_CACHE_SIZE = 16
# Direct solves a family basis starts from, Chebyshev-spaced over the
# members; a shorter family solves every member.
FAMILY_SNAPSHOTS = 8
# Largest residual / Ritz value the family basis may leave on any member.
FAMILY_RTOL = 1e-5
# Relative tolerance of a family's snapshot solves: a snapshot only spans
# basis directions, which must be accurate well inside the residual gate's
# FAMILY_RTOL, not to machine precision.
SNAPSHOT_RTOL = FAMILY_RTOL / 1000
# Mass norm below which a unit snapshot direction counts as in the basis.
BASIS_DROP = 1e-8
# Where an inertia count puts its shift, as a fraction of the way from the
# top claimed eigenvalue to the next Ritz value: far enough to carry the
# count over many members, short of the next eigenvalue.
ANCHOR_SHIFT = 0.9
# Members per block of a family's Ritz pass: one set of many-column
# residual products each; few enough that the block's vectors add little
# to peak memory.
_RITZ_BLOCK = 8


def _lattice(level):
    """n = 2^level and the lattice coordinates (i, j) of every vertex, int32.

    Vertex (i, j), i + j <= n, sits at v0 + (i/n)(v1 - v0) + (j/n)(v2 - v0).
    Vertices are numbered row-major by j: row j has n + 1 - j vertices, so
    vertex (i, j + 1) is vertex (i, j) plus n + 1 - j.
    """
    n = 1 << level
    j = np.repeat(np.arange(n + 1, dtype=np.int32), np.arange(n + 1, 0, -1))
    i = np.arange(j.size, dtype=np.int32) - (j * (n + 1) - j * (j - 1) // 2)
    return n, i, j


def _on_edges(n, i, j):
    """(vertices, 3) flags: on input edge e, which joins vertices e and e+1."""
    return np.column_stack((j == 0, i + j == n, i == 0))


# Uniform refinement of a triangle into 4^level congruent elements.  Only
# the triangle and the level are stored; every lattice quantity follows from
# the level.  Boundary conditions are imposed per input edge e, which joins
# input vertices e and (e+1) mod 3, so a mixed problem just drops some edges
# from the Dirichlet set.
Mesh = collections.namedtuple("Mesh", "triangle level")


def mesh_triangle(t, level):
    """Mesh a triangle by the barycentric lattice with 2^level subdivisions.

    Equivalent to applying uniform 4-way (red) refinement `level` times;
    element count 4^level, vertex count (2^l + 1)(2^l + 2)/2.
    """
    if not (0 <= level <= MAX_LEVEL):
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    return Mesh(t, level)


# Free vertices of one (level, Dirichlet edges) and, in one int32 CSC pattern
# over them (indptr, indices), the entries of the direction Laplacians
# (laplacians[d], shape (3, nnz)) and the numerators of sum_d |L_d| / 12
# (mass); lumped holds the numerators of that mass's full-mesh row sums at
# the free vertices, whose denominator is 6 (the lumped mass of a family's
# residual bound, _solve_family).  All three are int8: an L_d
# entry is at most 4 in size, a numerator at most 12.  Masses are for
# elements of unit area.
_Stencil = collections.namedtuple(
    "_Stencil", "free indptr indices laplacians mass lumped")

# Neighbour slots of lattice vertex (i, j), in ascending vertex order:
# (i, j-1), (i+1, j-1), (i-1, j), itself, (i+1, j), (i-1, j+1), (i, j+1).
# The edge to slot s is parallel to input edge _SLOT_EDGES[s]; -1 marks the
# diagonal.  The neighbour in slot s is vertex v + _SLOT_ROWS[s] * (n + 1 - j)
# + _SLOT_STEPS[s] (see _lattice).
_SLOT_EDGES = (2, 1, 0, -1, 0, 1, 2)
_SLOT_ROWS = (-1, -1, 0, 0, 0, 1, 1)
_SLOT_STEPS = (-1, 0, -1, 0, 1, -1, 0)


@functools.lru_cache(maxsize=STENCIL_CACHE_SIZE)
def _stencil(level, dirichlet_edges):
    """The _Stencil of one level on the vertices off the Dirichlet edges.

    Built one neighbour slot at a time, so that no work array is larger
    than one entry per vertex: a first pass counts each column's entries,
    a second writes each slot's entries after those of the slots before it.
    """
    n, i, j = _lattice(level)
    on_edge = _on_edges(n, i, j)
    free = ~on_edge[:, list(dirichlet_edges)].any(axis=1)
    row = n + 1 - j
    # Where each slot has a vertex; the diagonal counts at free vertices
    # only, so that entries(3) lists each free vertex once.
    below, left, right = j > 0, i > 0, i + j < n
    present = (below, below, left, free, right, left, right)
    del i, j
    # A vertex's edges parallel to input edge d lie on that edge exactly
    # when the vertex does: weight 1 there, 2 inside.
    mult = np.where(on_edge, np.int8(1), np.int8(2))
    del on_edge

    def entries(s):
        """Columns and rows of slot s's entries: both ends free."""
        cols = np.flatnonzero(free & present[s]).astype(np.int32)
        rows = cols + (_SLOT_ROWS[s] * row[cols] + _SLOT_STEPS[s])
        keep = free[rows]
        return cols[keep], rows[keep]

    renumber = np.cumsum(free, dtype=np.int32) - 1
    # Entries per column, then where each column's next entry goes.
    fill = np.zeros(free.size, dtype=np.int32)
    for s in range(len(_SLOT_EDGES)):
        fill[entries(s)[0]] += 1
    indptr = np.concatenate(([0], np.cumsum(fill[free]))).astype(np.int32)
    fill[free] = indptr[:-1]
    indices = np.empty(indptr[-1], dtype=np.int32)
    laplacians = np.zeros((3, indices.size), dtype=np.int8)
    mass = np.empty(indices.size, dtype=np.int8)
    # Diagonal of each L_d (the weights of the vertex's direction-d edges)
    # and of the mass numerators (their sum).
    diagonal = np.zeros((3, free.size), dtype=np.int8)
    for s, d in enumerate(_SLOT_EDGES):
        if d >= 0:
            diagonal[d] += mult[:, d] * present[s]
    diagonal_mass = diagonal.sum(axis=0, dtype=np.int8)
    for s, d in enumerate(_SLOT_EDGES):
        cols, rows = entries(s)
        at = fill[cols]
        indices[at] = renumber[rows]
        if d >= 0:
            laplacians[d, at] = -mult[cols, d]
            mass[at] = mult[cols, d]
        else:
            laplacians[:, at] = diagonal[:, cols]
            mass[at] = diagonal_mass[cols]
        fill[cols] += 1
    stencil = _Stencil(np.flatnonzero(free), indptr, indices, laplacians,
                       mass, diagonal_mass[free])
    for array in stencil:
        array.flags.writeable = False
    return stencil


def _prolong(level, dirichlet_edges, coarse_vector):
    """Interpolate a free-vertex vector of level-1 onto the free vertices.

    Fine vertex (i, j) is the midpoint of the coarse vertices
    (i//2 + c, j//2) and ((i+1)//2 - c, (j+1)//2), c = i & j & 1: the two
    ends of the coarse edge it halves, which differ by (1, 0), (0, 1) or
    (1, -1), or one coarse vertex twice when i and j are even.  Coarse
    vertices on Dirichlet edges count as 0.  This is the P1 function
    itself, so every form takes the same value on it at both levels.
    """
    edges = tuple(sorted(dirichlet_edges))
    free = _stencil(level, edges).free
    m = 1 << (level - 1)
    full = np.zeros((m + 1) * (m + 2) // 2)
    full[_stencil(level - 1, edges).free] = coarse_vector
    _, i, j = _lattice(level)
    i, j = i[free], j[free]
    c = i & j & 1

    def at(a, b):
        return full[b * (m + 1) - b * (b - 1) // 2 + a]

    return 0.5 * (at(i // 2 + c, j // 2) + at((i + 1) // 2 - c, (j + 1) // 2))


def _csc(stencil, data):
    n = stencil.free.size
    return sparse.csc_matrix((data, stencil.indices, stencil.indptr),
                             shape=(n, n))


def _laplacian_matrices(stencil, directions=slice(None)):
    """The stencil's direction Laplacians (those selected) as float CSCs."""
    return [_csc(stencil, lap.astype(float))
            for lap in stencil.laplacians[directions]]


def _weights(t):
    """Weights of the direction Laplacians in the stiffness forms, (2, 3).

    Row f is the total (f = 0) or y-y (1) form with constant coefficient
    C; column d is the direction of input edge d, which joins vertices d
    and d+1.  An element couples the ends a, b of its direction-d edge by
    area * g_a^T C g_b, g the barycentric gradients, and that is the same
    on every element of every level: gradients scale as 2^level and areas
    as 4^-level.
    """
    p = t.vertices
    # grad phi_i = perp(p_{i+2} - p_{i+1}) / (2A), perp(x, y) = (-y, x).
    edges = p[[2, 0, 1]] - p[[1, 2, 0]]
    a = np.column_stack((-edges[:, 1], edges[:, 0])) / (2.0 * t.signed_area)
    b = a[[1, 2, 0]]
    return -t.area * np.array([
        a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1],
        a[:, 1] * b[:, 1]])


# P1 forms of one triangle on the free vertices of one boundary set: free
# lists the free vertices, stiffness and mass (CSC) are the pencil on them.
FemForms = collections.namedtuple("FemForms", "free stiffness mass")


def assemble(mesh, dirichlet_edges):
    """Exact P1 forms of the mesh on the vertices off the Dirichlet edges.

    With no Dirichlet edges the forms cover every vertex.
    """
    stencil = _stencil(mesh.level, tuple(sorted(dirichlet_edges)))
    weights = _weights(mesh.triangle)
    element_area = mesh.triangle.area / 4 ** mesh.level
    return FemForms(stencil.free,
                    _csc(stencil, weights[0] @ stencil.laplacians),
                    _csc(stencil, element_area * (stencil.mass / 12.0)))


# Lowest-k discrete eigenpairs of one problem at one mesh level.  values
# ascend; vectors are coefficient columns on the free vertices (assemble's
# forms.free), mass-orthonormal to the solver's accuracy, signs arbitrary.
EigenResult = collections.namedtuple("EigenResult", "level values vectors")


# Columns per SuperLU panel.  Its panel work arrays take the panel width
# times the row count, and on lattice pencils wide panels only cost: at
# level 8 the default factorization peaks 10.7 MB above the LU it leaves
# and takes 30 % longer, while one-column panels peak at the LU itself.
_PANEL_SIZE = 1


def _factor(A):
    """Symmetric-mode sparse LU: minimum-degree order of A + A^T, no pivoting."""
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                panel_size=_PANEL_SIZE, options={"SymmetricMode": True})


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # no C library handle, or not glibc
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_heap():
    """Give the C heap's free pages back to the OS.

    A sparse LU frees its blocks when it is dropped, but glibc keeps large
    freed blocks in the heap (its mmap threshold grows with them), and the
    next factorization does not reuse them: without this, each large solve
    in a process adds to the peak.  Nothing where malloc_trim is missing.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def solve_lowest(mesh, k, dirichlet_edges=(0, 1, 2), start=None, rtol=None):
    """Smallest k eigenpairs of the Dirichlet (or mixed) pencil on the mesh.

    Edges listed in dirichlet_edges carry the zero condition; the rest are
    natural (Neumann).  start, a vector on the free vertices, is where
    Lanczos starts; None starts from the constant vector, and the dense
    path (small problems) ignores it.  A start close to the span of the
    wanted modes saves shift-invert steps.  Deterministic: the start
    vector is fixed by the arguments and ARPACK's restart generator by
    ARPACK_SEED.  Returns the values ascending and the vectors as Lanczos
    or eigh leaves them: M-orthonormal to the solver's accuracy, signs
    arbitrary.

    rtol sets only where Lanczos stops and how large a basis it keeps.
    None converges to machine precision with eigsh's default Krylov basis.
    A solve whose modes only span a basis (a family's snapshots) passes a
    relative tolerance instead, and Lanczos then keeps a basis of 2k + 1
    vectors, eigsh's default without its floor of 20, and stops at that
    tolerance; the dense path solves as always.

    The pencil solved is that of the triangle scaled by 2^-e into
    diameters [1/2, 1), e the binary exponent of its diameter: the
    stiffness does not depend on scale and the mass scales by 4^-e, so
    values come back times 4^-e and vectors times 2^-e (a start goes in
    times 2^e), and the result is the same to the bit as at unit scale, on
    a triangle of any size.
    Raises ValueError where a value overflows (a triangle that small has
    no eigenvalue below the largest float) or fewer than k come back.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # scaling by a power of two is exact, short of overflow and underflow
    e = math.frexp(mesh.triangle.diameter)[1]
    forms = assemble(mesh._replace(triangle=Triangle(
        np.ldexp(mesh.triangle.vertices, -e))), dirichlet_edges)
    nfree = forms.free.size
    if k >= nfree:
        raise ValueError(f"k={k} too large for {nfree} free vertices")
    kk = forms.stiffness
    mm = forms.mass

    if nfree <= DENSE_CUTOFF or k >= nfree - 1:
        vals, vecs = eigh(kk.toarray(), mm.toarray(),
                          subset_by_index=(0, k - 1))
    else:
        # K is symmetric positive definite; its factor serves every
        # shift-invert step at shift 0.
        lu = _factor(kk)
        # scaled after the factorization: a copy made before it fragments
        # the heap, which then keeps a few MB the next large solve does not
        # reuse
        start = (np.full(nfree, 1.0 / math.sqrt(nfree)) if start is None
                 else np.ldexp(start, e))
        # eigsh's defaults (ncv = max(2k + 1, 20), tol = 0) unless a
        # tolerance asks for a short basis.
        short = ({} if rtol is None
                 else {"ncv": min(2 * k + 1, nfree), "tol": rtol})
        try:
            vals, vecs = eigsh(
                kk, k=k, M=mm, sigma=0.0, which="LM", v0=start,
                maxiter=ARPACK_MAXITER,
                rng=np.random.default_rng(ARPACK_SEED),
                OPinv=LinearOperator(kk.shape, matvec=lu.solve,
                                     dtype=kk.dtype), **short)
        except ArpackNoConvergence as err:
            # chained without its traceback: eigsh's frames hold the LU,
            # which must be freed before the heap is trimmed
            raise RuntimeError(
                f"eigensolver did not converge within {ARPACK_MAXITER} "
                f"iterations at level {mesh.level}"
            ) from err.with_traceback(None)
        finally:
            del lu
            _release_heap()
    order = np.argsort(vals)
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    with np.errstate(over="ignore"):
        np.ldexp(vals, -2 * e, out=vals)
    if vals.size < k or not np.all(np.isfinite(vals)):
        raise ValueError(
            f"{k} eigenvalues of {mesh.triangle} at level {mesh.level} do "
            "not fit in a float: the triangle is too small")
    np.ldexp(vecs, -e, out=vecs)
    return EigenResult(mesh.level, vals, vecs)


def inertia(K, M, sigma):
    """Number of eigenvalues of the pencil (K, M) below sigma.

    Sylvester's law of inertia on the symmetric-mode sparse LU of
    K - sigma M (_factor, as in solve_lowest): with diagonal pivots the
    factorization is P (K - sigma M) P^T = L D L^T with U = D L^T, so the
    count is the number of negative entries of U's diagonal.  Refused when
    SuperLU left the diagonal (perm_r != perm_c), since U then carries no
    inertia.
    """
    lu = _factor(sparse.csc_matrix(K - sigma * M))
    try:
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise RuntimeError("the factorization pivoted off the diagonal; "
                               "inertia unknown")
        return int(np.count_nonzero(lu.U.diagonal() < 0))
    finally:
        del lu
        _release_heap()


def _family_weights(triangles):
    """Stiffness weights (members, 3) and areas (members,) of a family.

    Both are the same at every level.  Refuses negative weights.
    """
    weights = np.array([_weights(t)[0] for t in triangles])
    if np.any(weights < 0):
        raise ValueError("a family solve needs triangles without obtuse "
                         "angles (every stiffness weight >= 0)")
    return weights, np.array([t.area for t in triangles])


def _first_unproven(count, k, top, above, weights, areas):
    """First member where the k lowest eigenvalues are not proven < top.

    count(a, sigma) is the number of eigenvalues of member a below sigma
    (an inertia count).  top[i] bounds the k claimed eigenvalues of member
    i from above and above[i] > top[i] is where its next one is expected.
    Member i is proven when lambda_{k+1}(i) > top[i].  A count k at an
    anchor a with shift s (ANCHOR_SHIFT of the way from top[a] to
    above[a]) proves lambda_{k+1}(a) >= s.  Since K(i) >= m K(a) in the Loewner
    order, m the least ratio w_d(i) / w_d(a) over the weights w_d(a) > 0,
    and the masses scale by the element areas e,
    lambda_{k+1}(i) >= m e(a) / e(i) s: the anchor carries member i when
    that clears top[i].

    The counts form a cover.  From the first member not yet proven, the
    count goes to the anchor among those that carry it whose run of
    carried or proven members reaches furthest.  When that anchor's count
    refutes it, the first member gets its own count, so what is returned
    is always the first member that no count proves.  weights (members, 3)
    and areas are the family's stiffness weights and triangle areas.
    Returns None when every member is proven.
    """
    shift = top + ANCHOR_SHIFT * (above - top)
    # ratio[a, i, d] = w_d(i) / w_d(a), infinite where w_d(a) = 0.
    ratio = np.divide(weights[None, :, :], weights[:, None, :],
                      out=np.full((len(top),) + weights.shape, np.inf),
                      where=weights[:, None, :] > 0)
    carries = (above > top)[:, None] & (
        ratio.min(axis=2) * areas[:, None] / areas[None, :] * shift[:, None]
        > top[None, :])

    def proves(a):
        return count(a, shift[a]) == k

    proven = np.zeros(len(top), dtype=bool)
    while not proven.all():
        i = int(np.argmin(proven))
        anchors = np.flatnonzero(carries[:, i])
        if anchors.size == 0:
            return i
        # Each anchor's run ends at its first member from i on that is
        # neither proven nor carried; a closing False bounds the search.
        covered = np.hstack((proven[i:] | carries[anchors, i:],
                             np.zeros((anchors.size, 1), dtype=bool)))
        a = int(anchors[np.argmax(np.argmin(covered, axis=1))])
        if not proves(a):
            carries[a] = False
            if a == i or not carries[i, i] or not proves(i):
                return i
            a = i
        proven |= carries[a]
    return None


def _chebyshev_members(count, most):
    """Up to `most` distinct Chebyshev-Lobatto indices into range(count)."""
    if count <= most:
        return list(range(count))
    nodes = (1.0 - np.cos(np.pi * np.arange(most) / (most - 1))) / 2.0
    return sorted(set(np.rint((count - 1) * nodes).astype(int).tolist()))


def _orthonormal_extension(basis, vecs, mass):
    """basis with the new directions of vecs, all mass-orthonormal columns.

    Twice: block Gram-Schmidt against the basis, then an eigen-decomposition
    of the remainder's Gram matrix; the first round drops directions whose
    mass norm fell below BASIS_DROP of the (unit) input, since the basis
    already holds them.
    """
    for _ in range(2):
        vecs = vecs - basis @ (basis.T @ (mass @ vecs))
        norms, dirs = np.linalg.eigh(vecs.T @ (mass @ vecs))
        keep = norms > BASIS_DROP ** 2
        vecs = vecs @ (dirs[:, keep] / np.sqrt(norms[keep]))
    return np.hstack((basis, vecs))


def _lowest_eigenpairs(matrices, count):
    """The count lowest eigenpairs of each symmetric matrix of a stack.

    LAPACK's syevr on one matrix at a time, asked for those pairs only;
    values (matrices, count) ascend, vectors are (matrices, n, count).
    """
    syevr = get_lapack_funcs("syevr", (matrices,))
    values = np.empty((len(matrices), count))
    vectors = np.empty((len(matrices), matrices.shape[1], count))
    for a, w, z in zip(matrices, values, vectors):
        pairs = syevr(a, range="I", iu=count, lower=1)
        if pairs[-1] != 0:
            raise RuntimeError(f"syevr failed with info {pairs[-1]}")
        w[:], z[:] = pairs[0][:count], pairs[1]
    return values, vectors


def solve_family_pair(triangles, k, level, dirichlet_edges):
    """Lowest k P1 eigenvalues of every triangle at level-1 and at level.

    Every triangle of one level and boundary set has its pencil on the same
    lattice: K = sum_d w_d L_d and M = e M_ref, e the element area.  The
    triangles must have no obtuse angle (w_d >= 0).  Their weights and
    areas are the same at every level, so they are computed once, and both
    levels are meshed before either is solved, as in solve_pair.  Each
    level is one reduced-basis family (_solve_family).  The coarse family
    starts from its Chebyshev members.  The fine family takes the coarse
    family's snapshot members first, in the order the coarse one took them,
    each started from its own final coarse Ritz vectors, summed and
    interpolated (_prolong); members the gates add later start from their
    fine Ritz vectors.  The coarse solve only chooses those snapshots and
    starts: every fine value comes from the fine basis, under the same
    residual gate and inertia cover.

    Returns (coarse, fine), each an array (len(triangles), k).
    """
    if level < 1:
        raise ValueError("family pair needs level >= 1")
    edges = tuple(sorted(dirichlet_edges))
    fine_meshes = [mesh_triangle(t, level) for t in triangles]
    weights, areas = _family_weights(triangles)
    coarse, starts = _solve_family(
        [mesh_triangle(t, level - 1) for t in triangles], k, edges,
        weights, areas, None)
    first = [(i, _prolong(level, edges, start)) for i, start in starts]
    return coarse, _solve_family(fine_meshes, k, edges, weights, areas,
                                 first)[0]


def _solve_family(meshes, k, dirichlet_edges, weights, areas, first):
    """Lowest k P1 eigenvalues of each mesh of one level, and the starts.

    weights and areas are the family's (_family_weights).  The basis starts
    from direct solve_lowest solves of k+1 modes: at the (member, start
    vector) pairs first lists, in that order, or where first is None at up
    to FAMILY_SNAPSHOTS Chebyshev-spaced members (all of them in a shorter
    family), each started from the modes of the one before it.  Then the
    member whose worst Ritz pair has the largest residual / value joins it,
    started from its own Ritz vectors, until none exceeds FAMILY_RTOL.  The
    Ritz values are upper bounds on the P1 values (the basis is a subspace
    of the P1 space).

    The residual of a Ritz pair (lambda, v) is 2 ||r|| in the dual norm of
    the lumped (row-sum) mass L at the free vertices (_Stencil.lumped),
    r = K v - lambda M v.  Each element mass dominates a quarter of its
    lumped mass, so M >= L/4 and this is a guaranteed upper bound on the
    mass-inverse norm sqrt(r^T M^-1 r); since M <= L it is at most twice
    that norm, and no mass factorization is needed.  It is computed from
    each Ritz vector by the member's stencil forms: a Gram expansion of
    ||r||^2 cancels at small residuals and may round below the true one,
    and the gate's bound must stay an upper bound.

    A pass over the members goes by blocks of _RITZ_BLOCK: the k+1 lowest
    eigenpairs of each member's weighted reduced Laplacians
    (_lowest_eigenpairs, which computes no others), then the block's Ritz
    vectors side by side through one product per weighted direction
    Laplacian and one mass product.  The block size changes how many
    columns each product has, no decision, and values only by rounding.
    The reduced matrices, the Ritz blocks and the residual products keep
    only the directions d with w_d > 0 at some member (a direction no
    member weights adds nothing to any stiffness); _first_unproven reads
    every weight.

    No mode may be skipped: _first_unproven certifies every member with
    inertia counts transported in the Loewner order, each on the member's
    pencil sum_d w_d L_d - sigma e M_ref built from the used direction
    Laplacians and the reference mass held here.  A member it refutes
    becomes a snapshot; a snapshot it refutes raises RuntimeError.

    A snapshot's modes only span basis directions.  Whatever the basis, the
    Ritz values are upper bounds, the residual gate measures each member's
    Ritz pairs themselves and the inertia cover proves that none was
    skipped; so each snapshot is solved to SNAPSHOT_RTOL, well inside
    FAMILY_RTOL, with a short Krylov basis (solve_lowest's rtol), not to
    machine precision.  Snapshots enter the basis through
    _orthonormal_extension, which normalizes them itself, so their signs
    and scale do not matter; the start they give the next snapshot changes
    only its step count.

    Returns the values (len(meshes), k) and the starts: per snapshot
    member, in the order taken, (member, the sum of its final k+1 Ritz
    vectors), where a solve of it would start.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    level = meshes[0].level
    edges = tuple(sorted(dirichlet_edges))
    scale = areas / 4 ** level
    stencil = _stencil(level, edges)
    used = np.any(weights > 0, axis=0)
    laplacians = _laplacian_matrices(stencil, used)
    used_weights = weights[:, used]
    mass = _csc(stencil, stencil.mass / 12.0)
    lumped = stencil.lumped / 6.0

    def count(a, sigma):
        stiffness = sum(w * lap for w, lap in zip(used_weights[a], laplacians))
        return inertia(stiffness, scale[a] * mass, sigma)

    basis = np.zeros((stencil.free.size, 0))
    values = np.empty((len(meshes), k + 1))
    resid = np.empty((len(meshes), k))
    taken = []
    todo = first or [(i, None) for i in
                     _chebyshev_members(len(meshes), FAMILY_SNAPSHOTS)]
    previous = None
    while True:
        for i, start in todo:
            res = solve_lowest(meshes[i], k + 1, edges,
                               previous if start is None else start,
                               SNAPSHOT_RTOL)
            previous = res.vectors.sum(axis=1)
            basis = _orthonormal_extension(
                basis, res.vectors * math.sqrt(scale[i]), mass)
        taken.extend(i for i, _ in todo)
        dim = basis.shape[1]
        reduced = np.array([basis.T @ (lap @ basis) for lap in laplacians])
        # Per member, the basis coefficients of its k+1 Ritz vectors summed:
        # where a solve of it would start.
        ritz_sums = np.empty((len(meshes), dim))
        for lo in range(0, len(meshes), _RITZ_BLOCK):
            block = slice(lo, lo + _RITZ_BLOCK)
            w = used_weights[block]
            # The k+1 lowest Ritz pairs of (K, M_ref); the values of (K, M)
            # are mu / e.
            mu, y = _lowest_eigenpairs(
                np.einsum("bd,dij->bij", w, reduced), k + 1)
            ritz_sums[block] = y.sum(axis=2)
            # The block's k lowest Ritz vectors side by side, member-major.
            u = basis @ y[:, :, :k].transpose(1, 0, 2).reshape(dim, -1)
            r = sum(c * (lap @ u)
                    for c, lap in zip(np.repeat(w, k, axis=0).T, laplacians))
            r -= (mass @ u) * mu[:, :k].ravel()
            values[block] = mu / scale[block, None]
            resid[block] = 2.0 / scale[block, None] * np.sqrt(
                np.sum(r * r / lumped[:, None], axis=0)).reshape(-1, k)
        rel = np.max(resid / values[:, :k], axis=1)
        worst = int(np.argmax(rel))
        if rel[worst] > FAMILY_RTOL:
            if worst in taken:
                raise RuntimeError(
                    f"reduced basis stalled at family member {worst} at "
                    f"level {level}")
            todo = [(worst, basis @ ritz_sums[worst])]
            continue
        bad = _first_unproven(count, k,
                              np.max(values[:, :k] + resid, axis=1),
                              values[:, k], weights, areas)
        if bad is None:
            return values[:, :k].copy(), [(i, basis @ ritz_sums[i])
                                          for i in taken]
        if bad in taken:
            raise RuntimeError(
                f"mode completeness not proven for family member {bad} at "
                f"level {level}")
        todo = [(bad, basis @ ritz_sums[bad])]


def solve_pair(t, k, level):
    """The lowest k Dirichlet modes of t at level-1 and at level, as
    (coarse, fine).

    Both levels are meshed before either is solved, so a level past
    MAX_LEVEL is refused before the coarse solve.  The fine solve starts
    from the sum of the coarse modes, interpolated.
    """
    if level < 1:
        raise ValueError("extrapolated solve needs level >= 1")
    fine_mesh = mesh_triangle(t, level)
    coarse = solve_lowest(mesh_triangle(t, level - 1), k)
    start = _prolong(level, (0, 1, 2), coarse.vectors.sum(axis=1))
    return coarse, solve_lowest(fine_mesh, k, start=start)


def richardson(coarse, fine):
    """Richardson-extrapolate values at consecutive levels, assuming O(h^2).

    Returns (fine + (fine - coarse)/3, err); err is the extrapolation
    increment |fine - coarse|/3 per eigenvalue, the standard proxy for the
    remaining discretization error.
    """
    diff = fine - coarse
    return fine + diff / 3.0, np.abs(diff) / 3.0


def solve_extrapolated(t, k, level):
    """Solve k Dirichlet modes at level-1 and level, extrapolate.

    Returns (values, err_estimate) as richardson gives them; callers that
    need the discrete solves themselves use solve_pair.
    """
    coarse, fine = solve_pair(t, k, level)
    return richardson(coarse.values, fine.values)


def _energies(mesh, dirichlet_edges, vecs):
    """Total and y-y stiffness energies of each column of vecs, (k, 2)."""
    stencil = _stencil(mesh.level, tuple(sorted(dirichlet_edges)))
    quad = [np.sum(vecs * (lap @ vecs), axis=0)
            for lap in _laplacian_matrices(stencil)]
    return np.column_stack(quad) @ _weights(mesh.triangle).T


def _y_shares(t, res):
    """y-energy share of the first n modes of one level of t, n = 1..k-1;
    None where modes n and n+1 form a degenerate cluster."""
    energies = _energies(mesh_triangle(t, res.level), (0, 1, 2), res.vectors)
    shares = []
    for n in range(1, res.values.size):
        if (res.values[n] - res.values[n - 1]) / res.values[n] < CLUSTER_RTOL:
            shares.append(None)
        else:
            total, yy = np.sum(energies[:n], axis=0)
            shares.append(float(yy / total))
    return shares


def rayleigh_data(t, coarse, fine):
    """Extrapolated gamma_n, n = 1..k-1, from a k-mode solve_pair of t.

    gamma_n is the y-derivative share of the total Dirichlet energy of the
    first n modes, dimensionless and in [0, 1]; one outside raises
    RuntimeError.  It reads the first n modes of each level; mode n+1
    shows whether they split a degenerate cluster, and gamma_n is None
    where they do at either level (the share is basis-dependent inside
    one).  Each level's energies (v^T L_d v combined by the weights of the
    total and y-y forms) are computed once.  No x-y form is kept: the only
    triangle whose share is read is the fan T(0, b), and on its
    mirror-symmetric lattice every mode is even or odd in x, so its x-y
    energy vanishes.
    """
    gammas = []
    for n, shares in enumerate(zip(_y_shares(t, coarse), _y_shares(t, fine)),
                               start=1):
        gamma = None if None in shares else richardson(*shares)[0]
        if gamma is not None and not (0.0 <= gamma <= 1.0):
            raise RuntimeError(f"gamma_{n} = {gamma!r} out of [0, 1]")
        gammas.append(gamma)
    return gammas
