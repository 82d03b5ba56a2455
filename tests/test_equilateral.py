import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from trispec.equilateral import (
    COUNTING_GUARD,
    SIGMA_COEFF,
    Mode,
    antisym_bounds,
    antisym_counting_upper,
    counting_bounds,
    counting_exact,
    eigenvalue_bounds,
    enumerate_modes,
    exact_sum_q,
    tail_ratio,
    verify_compequilateral,
    verify_lemma_explicit,
)

from _table1 import ANTISYM_MODES, FULL_MODES


def qs(modes):
    """The q values of the modes in rank order."""
    return np.array([mode.q for mode in modes])


def test_mode_index():
    # every mode carries its lattice form; the antisymmetric class is the
    # strict half m > n
    for cls in ("full", "antisym"):
        for m, n, q in enumerate_modes(200, cls):
            assert m >= 1 and n >= 1
            assert q == m * m + m * n + n * n
            assert cls == "full" or m > n


def test_enumerate_small():
    t = enumerate_modes(3, "full")
    assert qs(t).tolist() == [3, 7, 7]
    assert [(m.m, m.n) for m in t] == [(1, 1), (1, 2), (2, 1)]
    a = enumerate_modes(2, "antisym")
    assert qs(a).tolist() == [7, 13]
    assert [(m.m, m.n) for m in a] == [(2, 1), (3, 1)]
    with pytest.raises(ValueError):
        enumerate_modes(0, "full")
    # the symmetric class has no reader; only full and antisym enumerate
    for bad in ("bogus", "sym"):
        with pytest.raises(ValueError):
            enumerate_modes(3, bad)


def test_enumerate_order_invariants():
    for cls in ("full", "antisym"):
        t = enumerate_modes(200, cls)
        q = qs(t)
        assert np.all(q[1:] >= q[:-1])
        # ties break by ascending first index
        for j in range(199):
            if q[j] == q[j + 1]:
                assert t[j].m < t[j + 1].m
        # deterministic
        t2 = enumerate_modes(200, cls)
        assert [(m.m, m.n) for m in t] == [(m.m, m.n) for m in t2]


def cluster_multisets(pairs, qs, normalize=False):
    groups = defaultdict(Counter)
    for (m, n), q in zip(pairs, qs):
        key = (min(m, n), max(m, n)) if normalize else (m, n)
        groups[int(q)][key] += 1
    return dict(groups)


def test_reference_table_full():
    table = enumerate_modes(110, "full")
    ref_qs = [m * m + m * n + n * n for m, n in FULL_MODES]
    assert qs(table).tolist() == ref_qs
    ours = cluster_multisets([(m.m, m.n) for m in table], qs(table))
    ref = cluster_multisets(FULL_MODES, ref_qs)
    assert ours == ref


def test_reference_table_antisym():
    table = enumerate_modes(110, "antisym")
    ref_qs = [m * m + m * n + n * n for m, n in ANTISYM_MODES]
    assert qs(table).tolist() == ref_qs
    # reference prints the mirrored half, so compare unordered pairs
    ours = cluster_multisets([(m.m, m.n) for m in table], qs(table), normalize=True)
    ref = cluster_multisets(ANTISYM_MODES, ref_qs, normalize=True)
    assert ours == ref


def test_reference_table_sums():
    assert exact_sum_q(110, "full") == 11730
    assert exact_sum_q(110, "antisym") == 23888
    assert sum(m * m + m * n + n * n for m, n in FULL_MODES) == 11730
    assert sum(m * m + m * n + n * n for m, n in ANTISYM_MODES) == 23888


def test_counting_exact_values():
    assert counting_exact(100.0, "full") == 1
    assert counting_exact(12 * SIGMA_COEFF, "full") == 3
    assert counting_exact(3 * SIGMA_COEFF, "full") == 0  # exact eigenvalue never counts itself
    assert counting_exact(7 * SIGMA_COEFF, "antisym") == 0
    with pytest.raises(ValueError):
        counting_exact(0.0, "full")
    with pytest.raises(ValueError):
        counting_exact(10.0, "sym")


def test_counting_matches_enumeration():
    # N(lambda_j) < j <= N(lambda_j (1 + 1e-12)) pins the counting function
    # to the ranked eigenvalues on both sides of each threshold.
    for cls in ("full", "antisym"):
        lams = qs(enumerate_modes(110, cls)) * SIGMA_COEFF
        for j, lam in zip(range(1, 111), lams):
            assert counting_exact(lam, cls) < j
            assert counting_exact(lam * (1 + 1e-12), cls) >= j


def reference_count(lam, mode_class="full"):
    """Lattice count by visiting every point below the threshold."""
    r2 = lam * (1.0 - COUNTING_GUARD) / SIGMA_COEFF
    count = 0
    m = 1
    while m * m + m + 1 < r2:
        n = 1
        while m * m + m * n + n * n < r2:
            if mode_class == "full" or m > n:
                count += 1
            n += 1
        m += 1
    return count


def test_counting_matches_point_by_point_reference():
    lams = [float(lam) for lam in np.geomspace(48.0 * math.pi**2, 1e6, 201)[1:]]
    for cls in ("full", "antisym"):
        eigs = qs(enumerate_modes(110, cls)) * SIGMA_COEFF
        near = [lam * (1 + s) for lam in eigs for s in (-1e-12, 0.0, 1e-12)]
        for lam in lams + near:
            assert counting_exact(lam, cls) == reference_count(lam, cls)


def test_counting_partition():
    # every mode is sym or antisym, and sym splits as mirrored antisym + diagonal
    for lam in (100.0, 500.0, 2500.0, 12345.6):
        n_full = counting_exact(lam, "full")
        n_anti = counting_exact(lam, "antisym")
        r2 = lam / SIGMA_COEFF
        n_diag = sum(1 for m in range(1, int(math.isqrt(int(r2 / 3))) + 2)
                     if 3 * m * m < r2 * (1 - 1e-13))
        assert n_full == 2 * n_anti + n_diag


def test_counting_bounds_sandwich():
    for lam in np.geomspace(48.5 * math.pi**2, 1e6, 60):
        lo, hi = counting_bounds(lam)
        n = counting_exact(lam, "full")
        assert lo <= n <= hi
        assert counting_exact(lam, "antisym") <= antisym_counting_upper(lam)
    with pytest.raises(ValueError):
        counting_bounds(48 * math.pi**2)
    with pytest.raises(ValueError):
        antisym_counting_upper(400.0)


def test_eigenvalue_bounds_sandwich():
    lams = qs(enumerate_modes(110, "full")) * SIGMA_COEFF
    for j in range(17, 111):
        lo, hi = eigenvalue_bounds(j)
        assert lo <= lams[j - 1] <= hi
    with pytest.raises(ValueError):
        eigenvalue_bounds(16)


def test_antisym_bounds_lower():
    lams = qs(enumerate_modes(110, "antisym")) * SIGMA_COEFF
    for j in range(9, 111):
        assert antisym_bounds(j) <= lams[j - 1]
    with pytest.raises(ValueError):
        antisym_bounds(8)


def test_tail_ratio():
    assert tail_ratio(110) > 11 / 6
    assert tail_ratio(110) == pytest.approx(1.8339, abs=5e-4)
    # ratio keeps growing along the tail
    grid = np.geomspace(110, 1e7, 50)
    vals = [tail_ratio(n) for n in grid]
    assert min(vals) == vals[0]
    assert all(v > 11 / 6 for v in vals)


def test_verify_lemma_explicit():
    out = verify_lemma_explicit()
    assert out["verdict"] == "pass"
    assert out["exception_rank"] == 4
    assert len(out["checks"]) == 111
    rank4 = out["checks"][3]
    assert rank4["mode"] == "<="
    assert rank4["lhs"] == 126 and rank4["rhs"] == 132
    assert "exception" in rank4["claim"]
    # the whole argument is integer arithmetic
    for c in out["checks"]:
        assert isinstance(c["lhs"], int) and isinstance(c["rhs"], int)
        assert isinstance(c["margin"], int)
        assert c["verdict"] == "pass"
    # rank-4 partial sums: 6*60 > 11*29
    sums = out["checks"][110]
    assert sums["lhs"] == 360 and sums["rhs"] == 319


def test_verify_compequilateral():
    out = verify_compequilateral(110)
    assert out["verdict"] == "pass"
    exact, tail = out["checks"]
    assert exact["verdict"] == "pass" and tail["verdict"] == "pass"
    assert exact_sum_q(110, "antisym") == 23888 and exact_sum_q(110) == 11730
    # the rank-1 sums have the least margin, and they are the ones compared
    assert exact["worst_rank"] == 1
    assert exact["lhs"] == 6 * 7 and exact["rhs"] == 11 * 3
    assert exact["margin"] == exact["worst_margin"] == 9
    assert tail["lhs"] > 11 / 6
    short = verify_compequilateral(n_max=1)
    assert short["verdict"] == "pass"
    assert short["checks"][0]["lhs"] == 42 and short["checks"][0]["rhs"] == 33
    with pytest.raises(ValueError):
        verify_compequilateral(0)


def test_spectrum_table():
    t = enumerate_modes(5, "full")
    assert t == [Mode(1, 1, 3), Mode(1, 2, 7), Mode(2, 1, 7), Mode(2, 2, 12),
                 Mode(1, 3, 13)]
    assert exact_sum_q(2) == 10
    assert enumerate_modes(5, "full") == t
