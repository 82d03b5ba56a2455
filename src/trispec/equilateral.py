"""Exact spectrum of the equilateral triangle via its lattice of mode indices.

Every Dirichlet eigenvalue of the unit-sidelength equilateral triangle is
(16 pi^2 / 9) (m^2 + mn + n^2) for a pair of integers m, n >= 1, so ranking,
counting and summing eigenvalues reduce to exact integer arithmetic on the
quadratic form q = m^2 + mn + n^2.  Antisymmetric modes (odd across the
axis of symmetry) are carried by the strict half m > n; the diagonal m = n
is symmetric.  This module provides the exact enumeration, an exact
counting function, the closed-form counting and eigenvalue bounds, and the
integer verifications the eigenvalue-sum comparisons reduce to.
"""

import math
from collections import namedtuple

import numpy as np

from .reports import combine, make_report

__all__ = [
    "SIGMA_COEFF",
    "Mode",
    "enumerate_modes",
    "counting_exact",
    "counting_bounds",
    "antisym_counting_upper",
    "eigenvalue_bounds",
    "antisym_bounds",
    "tail_ratio",
    "exact_sum_q",
    "verify_lemma_explicit",
    "verify_compequilateral",
]

# Eigenvalue per unit of the quadratic form, at sidelength 1.
SIGMA_COEFF = 16.0 * math.pi**2 / 9.0

# Counting uses strict inequality; values within this relative band of the
# threshold are excluded, so a lambda equal to an eigenvalue up to float
# rounding never counts its own mode.  The band sits well below the 1e-12
# perturbations the consistency tests apply and well above 1-ulp noise.
COUNTING_GUARD = 1e-13

# Closed-form bound validity thresholds.
COUNTING_BOUNDS_MIN = 48.0 * math.pi**2
EIGENVALUE_BOUNDS_MIN_J = 17
ANTISYM_BOUNDS_MIN_J = 9


# Lattice index m, n >= 1 of one eigenfunction and its q = m^2 + mn + n^2;
# the mode is antisymmetric when m > n.
Mode = namedtuple("Mode", "m n q")


def _modes_up_to(qmax, mode_class):
    modes = []
    m = 1
    while m * m + m + 1 <= qmax:
        n = 1
        while m * m + m * n + n * n <= qmax:
            if mode_class == "full" or m > n:
                modes.append(Mode(m, n, m * m + m * n + n * n))
            n += 1
        m += 1
    modes.sort(key=lambda mode: (mode.q, mode.m))
    return modes


def enumerate_modes(n_max, mode_class):
    """The n_max lowest modes of the class, "full" or "antisym".

    Sorted ascending by exact q, ties by ascending m (rank inside a
    degenerate cluster is conventional, not spectral).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if mode_class not in ("full", "antisym"):
        raise ValueError(f"unknown mode class {mode_class!r}")
    qmax = 16
    while True:
        modes = _modes_up_to(qmax, mode_class)
        if len(modes) >= n_max:
            return modes[:n_max]
        qmax *= 2


def counting_exact(lam, mode_class):
    """Number of eigenvalues of the class strictly below lam, at sidelength 1.

    Exact lattice count, one row m at a time: the row holds the n >= 1 with
    q = m^2 + mn + n^2 < 9 lam / (16 pi^2), the threshold shrunk by
    COUNTING_GUARD so boundary values resolve to strict exclusion.  The
    last such n starts from the quadratic formula in floats and is then
    stepped by the exact comparison; antisymmetric modes keep n < m.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if mode_class not in ("full", "antisym"):
        raise ValueError(f"unknown mode class {mode_class!r}")
    r2 = lam * (1.0 - COUNTING_GUARD) / SIGMA_COEFF
    count = 0
    m = 1
    while m * m + m + 1 < r2:
        n = int((math.sqrt(4.0 * r2 - 3.0 * m * m) - m) / 2.0)
        while m * m + m * n + n * n >= r2:
            n -= 1
        while m * m + m * (n + 1) + (n + 1) * (n + 1) < r2:
            n += 1
        count += n if mode_class == "full" else min(n, m - 1)
        m += 1
    return count


def counting_bounds(lam):
    """Closed-form (lower, upper) bounds for the full counting function.

    Valid for lam > 48 pi^2; raises below that.
    """
    if lam <= COUNTING_BOUNDS_MIN:
        raise ValueError("counting bounds require lam > 48 pi^2")
    s = math.sqrt(lam)
    main = math.sqrt(3.0) / (16.0 * math.pi) * lam
    upper = main - math.sqrt(3.0) / (4.0 * math.pi) * s + 0.5
    lower = main - (6.0 - math.sqrt(3.0)) / (4.0 * math.pi) * s - 0.5
    return lower, upper


def antisym_counting_upper(lam):
    """Closed-form upper bound for the antisymmetric counting function."""
    if lam <= COUNTING_BOUNDS_MIN:
        raise ValueError("antisymmetric counting bound requires lam > 48 pi^2")
    s = math.sqrt(lam)
    return (math.sqrt(3.0) / (32.0 * math.pi) * lam
            - math.sqrt(3.0) / (4.0 * math.pi) * s + 0.75)


def eigenvalue_bounds(j):
    """Closed-form (lower, upper) bounds for the j-th eigenvalue, j >= 17.

    The upper bound uses the rounded coefficient 29.03 (> 16 pi / sqrt(3))
    exactly as printed, since that is the constant the tail comparisons
    chain with.
    """
    if j < EIGENVALUE_BOUNDS_MIN_J:
        raise ValueError("eigenvalue bounds require j >= 17")
    c = 16.0 * math.pi / math.sqrt(3.0)
    lower = c * (j - 0.5) + 8.0 * math.sqrt(0.25 * c * (j - 0.5) + 1.0) + 8.0
    upper = 29.03 * j + 9.9 * math.sqrt(29.03 * j + 39.0) + 64.0
    return lower, upper


def antisym_bounds(j):
    """Closed-form lower bound for the j-th antisymmetric eigenvalue, j >= 9."""
    if j < ANTISYM_BOUNDS_MIN_J:
        raise ValueError("antisymmetric eigenvalue bound requires j >= 9")
    return 58.0 * j + 8.0 * math.sqrt(58.0 * j - 28.0) - 12.0


def tail_ratio(n):
    """Lower bound for (antisymmetric sum growth)/(full sum growth) at rank n.

    Ratio of the antisymmetric eigenvalue lower bound to the full eigenvalue
    upper bound; exceeding 11/6 for all n >= 110 is what extends the exact
    rank-110 sum comparison to every rank.
    """
    return antisym_bounds(n) / eigenvalue_bounds(n)[1]


def exact_sum_q(n, mode_class="full"):
    """Exact integer sum of q over the n lowest modes of the class."""
    return sum(mode.q for mode in enumerate_modes(n, mode_class))


def verify_lemma_explicit():
    """Exact integer check of the per-rank comparison 6 q^a_j > 11 q_j.

    Verified for j in {1, 2, 3} and {5, ..., 110}; confirms the single
    failure at j = 4 and that the rank-4 partial sums still compare.
    Integer arithmetic throughout.
    """
    full = enumerate_modes(110, "full")
    anti = enumerate_modes(110, "antisym")
    checks = []
    for j in range(1, 111):
        q = full[j - 1].q
        qa = anti[j - 1].q
        if j == 4:
            # The one documented exception: the comparison must fail here.
            rep = make_report(
                "rank 4: 6*q_antisym <= 11*q_full (documented exception)",
                6 * qa, 11 * q, mode="<=",
                j=j, q_full=q, q_antisym=qa,
            )
        else:
            rep = make_report(
                f"rank {j}: 6*q_antisym > 11*q_full",
                6 * qa, 11 * q,
                j=j, q_full=q, q_antisym=qa,
            )
        checks.append(rep)
    sum_q4 = sum(mode.q for mode in full[:4])
    sum_qa4 = sum(mode.q for mode in anti[:4])
    checks.append(make_report(
        "rank-4 partial sums: 6*sum(q_antisym) > 11*sum(q_full)",
        6 * sum_qa4, 11 * sum_q4,
        sum_q_full=sum_q4, sum_q_antisym=sum_qa4,
    ))
    return combine(
        "per-rank antisymmetric/full comparison with the single rank-4 exception",
        checks, exception_rank=4)


def verify_compequilateral(n_max):
    """Verify sum(antisym) > 11/6 sum(full) for the n lowest eigenvalues.

    Every exact integer partial sum up to min(n_max, 110) must clear, and
    the report compares the one with the least margin; beyond that the
    closed-form tail ratio is checked against 11/6 on a geometric grid of
    ranks up to 10^6, which extends the comparison term by term.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n_exact = min(n_max, 110)
    full = enumerate_modes(n_exact, "full")
    anti = enumerate_modes(n_exact, "antisym")
    checks = []
    sums = []
    sq = sqa = 0
    for n in range(1, n_exact + 1):
        sq += full[n - 1].q
        sqa += anti[n - 1].q
        sums.append((6 * sqa - 11 * sq, n, sqa, sq))
    # every partial sum must clear, so the one with the least margin is judged
    margin, rank, sqa, sq = min(sums)
    checks.append(make_report(
        f"exact partial sums up to rank {n_exact}: 6*sum(q_antisym) > 11*sum(q_full)",
        6 * sqa, 11 * sq,
        worst_rank=rank, worst_margin=margin,
    ))
    # Tail: the per-rank ratio bound must clear 11/6 from rank 110 on.
    grid = np.geomspace(110.0, 1e6, 200)
    grid[0] = 110.0
    ratios = np.array([tail_ratio(n) for n in grid])
    jmin = int(np.argmin(ratios))
    checks.append(make_report(
        "tail ratio bound exceeds 11/6 on a geometric rank grid [110, 1e6]",
        float(ratios[jmin]), 11.0 / 6.0,
        at_rank=float(grid[jmin]), ratio_at_110=float(ratios[0]),
    ))
    return combine(
        "antisymmetric eigenvalue sums exceed 11/6 of the full sums for every rank",
        checks)
