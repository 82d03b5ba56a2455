"""Acceptance gate: the twelve headline checks, one printed line apiece.

Run with -s (or read captured output) for the per-criterion PASS/FAIL lines.
Every tolerance here is pinned; none is tuned to make a run green.
"""

import math
import time
from collections import Counter, defaultdict

import numpy as np

from _sweeps import default_grid, find_min
from _table1 import ANTISYM_MODES, FULL_MODES
from trispec.certify import Sector, bessel_zero, lemma62_verify, sector_eigenvalue
from trispec.equilateral import (
    SIGMA_COEFF,
    antisym_counting_upper,
    counting_bounds,
    counting_exact,
    enumerate_modes,
    tail_ratio,
    verify_lemma_explicit,
)
from trispec.fem import solve_extrapolated
from trispec.geometry import Triangle, fan_triangle, rectangle_minimizers
from trispec.isosceles import scaled, sweep, verify_monotonicity
from trispec.transplant import theorem1_verify

PI = math.pi
LAM1_EQ = 16.0 * PI**2 / 3.0
LAM2_EQ = 7.0 * 16.0 * PI**2 / 9.0
SQRT3 = math.sqrt(3.0)


def criterion(num, label, ok):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def _clusters(pairs):
    out = defaultdict(Counter)
    for m, n in pairs:
        out[m * m + m * n + n * n][tuple(sorted((m, n)))] += 1
    return dict(out)


def test_criterion_1_exact_spectrum():
    t0 = time.perf_counter()
    full = enumerate_modes(110, "full")
    anti = enumerate_modes(110, "antisym")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    for table, ref in ((full, FULL_MODES), (anti, ANTISYM_MODES)):
        ours = _clusters([(mode.m, mode.n) for mode in table])
        ok = ok and ours == _clusters(ref)
        ok = ok and all(int(mode.q) == mode.q for mode in table)
    criterion(1, f"exact spectrum matches the published clusters "
                 f"({elapsed:.2f}s)", ok)


def test_criterion_2_per_rank_comparison():
    full = enumerate_modes(110, "full")
    anti = enumerate_modes(110, "antisym")
    ok = all(6 * anti[j - 1].q > 11 * full[j - 1].q
             for j in range(1, 111) if j != 4)
    ok = ok and not (6 * anti[3].q > 11 * full[3].q)
    ok = ok and (6 * sum(mode.q for mode in anti[:4])
                 > 11 * sum(mode.q for mode in full[:4]))
    report = verify_lemma_explicit()
    ok = ok and report["verdict"] == "pass" and report["exception_rank"] == 4
    criterion(2, "per-rank comparison with the single rank-4 exception", ok)


def test_criterion_3_counting_sandwich():
    t0 = time.perf_counter()
    lams = np.geomspace(48.0 * PI**2, 1e6, 201)[1:]
    ok = True
    for lam in lams:
        lam = float(lam)
        lo, hi = counting_bounds(lam)
        count = counting_exact(lam, "full")
        ok = ok and lo < count < hi
        ok = ok and counting_exact(lam, "antisym") <= antisym_counting_upper(lam)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    criterion(3, f"counting sandwich on 200 leveled heights "
                 f"({elapsed:.2f}s)", ok)


def test_criterion_4_tail_ratio():
    grid = np.geomspace(110.0, 1e6, 400)
    grid[0] = 110.0
    ok = all(tail_ratio(float(n)) > 11.0 / 6.0 for n in grid)
    ok = ok and abs(tail_ratio(110.0) - 1.8339) < 5e-4
    criterion(4, "closed-form tail ratio exceeds 11/6 from rank 110 on", ok)


def test_criterion_5_fem_calibration():
    t = Triangle([(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0)])
    vals, _ = solve_extrapolated(t, 3, 8)
    ok = abs(vals[0] - LAM1_EQ) < 0.005 * LAM1_EQ
    ok = ok and abs(vals[1] - LAM2_EQ) < 0.005 * LAM2_EQ
    ok = ok and abs(vals[2] - LAM2_EQ) < 0.005 * LAM2_EQ
    ok = ok and abs(vals[1] - vals[2]) < 0.005 * LAM2_EQ
    criterion(5, "level-8 calibration against the exact equilateral tones", ok)


def test_criterion_6_low_sum_sweep():
    ok = True
    for b in (1.8, 2.0, 2.5, 3.0, 4.0):
        for report in theorem1_verify(b, 6, 7):
            lead = report["checks"][0]
            ok = ok and report["verdict"] == "pass"
            ok = ok and lead["margin"] >= 3.0 * lead["fem_error"] > 0.0
    criterion(6, "low-sum comparison beats the equilateral target at 3x "
                 "the FEM error", ok)


def test_criterion_7_second_tone_grid():
    ok = True
    worst = math.inf
    # apex heights log-uniform in (sqrt(3), 8]
    for b in np.geomspace(SQRT3, 8.0, 51)[1:]:
        b = float(b)
        d2 = 1.0 + b * b
        vals, errs = solve_extrapolated(fan_triangle(b), 2, 6)
        margin = vals[1] * d2 - LAM2_EQ
        worst = min(worst, margin)
        ok = ok and margin > 3.0 * errs[1] * d2 and vals[1] * d2 > 122.84
    vals, _ = solve_extrapolated(fan_triangle(SQRT3), 2, 6)
    ok = ok and abs(vals[1] * 4.0 - LAM2_EQ) < 0.01 * LAM2_EQ
    criterion(7, f"second tone beats the equilateral value on the grid "
                 f"(worst margin {worst:.3f}), equality at sqrt(3)", ok)


def test_criterion_8_certified_enclosure():
    t0 = time.perf_counter()
    report = lemma62_verify(fem_level=8)
    elapsed = time.perf_counter() - t0
    iv = report["interval"]
    ok = report["verdict"] == "pass"
    ok = ok and iv["epsilon"] < 0.009
    ok = ok and 19.65 < iv["lower"] and iv["upper"] < 20.03
    ok = ok and iv["lower"] > 19.35
    h = 2.5
    outer = Sector(math.sqrt(1.0 + h * h), 2.0 * math.atan(1.0 / h))
    exclusion = sector_eigenvalue(outer, 2, 1)
    ok = ok and abs(exclusion / 21.6 - 1.0) < 0.01
    fem_checks = [c for c in report["checks"] if c["claim"].startswith("FEM")]
    ok = ok and len(fem_checks) == 2
    ok = ok and all(c["verdict"] == "pass" for c in fem_checks)
    ok = ok and elapsed < 30.0
    criterion(8, f"certified enclosure, exclusion, and FEM containment "
                 f"({elapsed:.1f}s)", ok)


def test_criterion_9_sector_constants():
    nu = PI / (2.0 * math.atan(1.0 / 2.5))
    j2 = bessel_zero(nu, 2)
    ok = abs(j2 * j2 - 126.0) < 1.0
    ok = ok and abs(j2 / 2.5 - 4.49) < 0.01
    criterion(9, "sector frequency constants at apex height 5/2", ok)


def test_criterion_10_figure_labels():
    targets = [
        ("side", "lambda1", (1.30, 1.44, 8), 48.03),
        ("side", "lambda_s", (1.15, 1.31, 9), 120.04),
        ("perimeter", "lambda_s", (0.77, 0.91, 8), 1071.6),
        ("perimeter", "lambda_a", (1.19, 1.33, 8), 1073.7),
        ("area", "lambda_s", (0.54, 0.66, 7), 48.88),
    ]
    ok = True
    for scaling, which, (lo, hi, pts), label in targets:
        _, value = find_min(
            scaled(sweep(np.linspace(lo, hi, pts), 6), scaling), which)
        ok = ok and abs(value - label) < 0.01 * label
    # dotted-line values: exact constants at the stated apertures
    s = sweep([PI / 3.0, PI / 2.0], 6)
    side = s.tones
    area = scaled(s, "area").tones
    per = scaled(s, "perimeter").tones
    # columns: lambda1, lambda_a, lambda_s
    dotted = [
        (side[0, 0], 3.0 * SIGMA_COEFF),
        (side[0, 1], 7.0 * SIGMA_COEFF),
        (side[1, 1], 10.0 * PI**2),
        (area[1, 1], 5.0 * PI**2),
        (area[0, 0], 4.0 * PI**2 / SQRT3),
        (per[0, 2], 112.0 * PI**2),
        (per[0, 0], 48.0 * PI**2),
        (area[0, 2], 28.0 * PI**2 / (3.0 * SQRT3)),
    ]
    for got, exact in dotted:
        ok = ok and abs(got - exact) < 5e-3 * exact
    criterion(10, "figure minima within 1% and dotted values at their "
                  "stated apertures", ok)


def test_criterion_11_class_order_and_monotonicity(fine_table):
    s = sweep(default_grid(), 6)
    lambda_a, lambda_s = s.tones[:, 1], s.tones[:, 2]
    below = s.alpha < PI / 3.0
    above = s.alpha > PI / 3.0
    ok = bool(np.all(lambda_s[below] < lambda_a[below]))
    ok = ok and bool(np.all(lambda_a[above] < lambda_s[above]))
    report = verify_monotonicity(fine_table)
    ok = ok and report["verdict"] == "pass"
    criterion(11, "class order swaps across pi/3; claimed monotone "
                  "intervals verified", ok)


def test_criterion_12_rectangle_counterexample():
    mins = rectangle_minimizers()
    phi2 = mins["lambda2"]["phi"]
    phi12 = mins["lambda12"]["phi"]
    ok = phi2 < PI / 4.0 and phi12 < PI / 4.0
    ok = ok and abs(phi2 - 0.6155) < 1e-4
    # stationarity oracles: tan^4(phi) = 1/4 and 2/5
    ok = ok and abs(phi2 - math.atan(0.25**0.25)) < 1e-15
    ok = ok and abs(phi12 - math.atan(0.4**0.25)) < 1e-15
    criterion(12, "rectangle minimizers of the second tone and the "
                  "two-tone sum sit strictly below the square", ok)
