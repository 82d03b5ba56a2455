"""Seeded request lists for each workload, and the checks on their outputs.

A workload is a list of CLI argument vectors; trispec sees only those.  The
checks here are written against the public output formats and recompute
every reference value they need (equilateral lattice spectra, counting
functions, disc and Li-Yau bounds) without importing trispec.
"""

import json
import math
import random

import numpy as np

# Eigenvalue per unit of m^2 + mn + n^2 for the unit-side equilateral.
SIGMA_COEFF = 16.0 * math.pi ** 2 / 9.0
J01 = 2.404825557695773  # first zero of the Bessel function J_0

THEOREM1_APEXES = (1.8, 2.0, 2.5, 3.0, 4.0)
THEOREM1_NUDGE = 0.04    # verdicts were checked to stay "pass" at +-0.05
SWEEP_POINTS = 80
SWEEP_SLACK = 0.02       # total room the shifted grid gives up in [pi/6, 2pi/3]
MAX_SPACING = 0.02
FEM_N = 6
FEM_LEVEL = 8
LATTICE_N = 200


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _theorem1(rng):
    reqs = []
    for base in THEOREM1_APEXES:
        b = round(base + rng.uniform(-THEOREM1_NUDGE, THEOREM1_NUDGE), 6)
        reqs.append(["verify", "theorem1", "--b", repr(b), "--n", "6",
                     "--level", "7"])
    return reqs


def _aperture_sweep(rng):
    width = math.pi / 2.0 - rng.uniform(0.0, SWEEP_SLACK)
    lo = math.pi / 6.0 + rng.uniform(0.0, math.pi / 2.0 - width)
    hi = lo + width
    return [["verify", "monotonicity", "--level", "6", "--alpha-min",
             repr(lo), "--alpha-max", repr(hi), "--alpha-steps",
             str(SWEEP_POINTS)]]


def _placed(rng, vertices, scale):
    """Rotate by a seeded angle, scale, and translate by a seeded offset."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    return [[round(scale * (c * x - s * y) + dx, 12),
             round(scale * (s * x + c * y) + dy, 12)] for x, y in vertices]


def _fine_certify(rng):
    side = rng.uniform(0.6, 1.6)
    equilateral = _placed(rng, [(0.0, 0.0), (1.0, 0.0),
                                (0.5, math.sqrt(3.0) / 2.0)], side)
    # A scalene fan triangle with base (-1,0)-(1,0) and apex (a, b).
    apex = (rng.uniform(-0.6, 0.6), rng.uniform(1.2, 2.8))
    scalene = _placed(rng, [(-1.0, 0.0), (1.0, 0.0), apex],
                      rng.uniform(0.5, 1.5))
    return [
        ["certify", "--level", "8"],
        ["lattice", "--n", str(LATTICE_N)],
        ["fem", json.dumps(equilateral), "--n", str(FEM_N),
         "--level", str(FEM_LEVEL)],
        ["fem", json.dumps(scalene), "--n", str(FEM_N),
         "--level", str(FEM_LEVEL)],
    ]


GENERATORS = {
    "theorem1": _theorem1,
    "aperture_sweep": _aperture_sweep,
    "fine_certify": _fine_certify,
}


def requests(workload, seed):
    """The argv lists one pass of the workload dispatches, in order."""
    return GENERATORS[workload](_rng(workload, seed))


# ---------------------------------------------------------------- checks

class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def equilateral_qs(count):
    """Lowest `count` values of m^2 + mn + n^2 over m, n >= 1, ascending."""
    m = np.arange(1, 64)
    q = np.sort((m[:, None] ** 2 + m[:, None] * m[None, :]
                 + m[None, :] ** 2).ravel())
    return [int(x) for x in q[:count]]


def _report(text, code):
    _require(code == 0, f"exit code {code}, expected 0")
    report = json.loads(text)
    _require(report["verdict"] == "pass",
             f"verdict {report['verdict']!r}, expected 'pass'")
    return report


def _check_theorem1(argv, text, code):
    report = _report(text, code)
    b = float(argv[argv.index("--b") + 1])
    n_max = int(argv[argv.index("--n") + 1])
    _require(report["apexes"] == [b], "apexes do not echo --b")
    cases = report["checks"]
    _require([c["n"] for c in cases] == list(range(1, n_max + 1)),
             "one case per n expected")
    qs = equilateral_qs(n_max)
    for case in cases:
        n = case["n"]
        _require(case["verdict"] == "pass", f"n={n}: case not passing")
        _require(_close(case["target"], SIGMA_COEFF * sum(qs[:n])),
                 f"n={n}: equilateral target is not the lattice value")
        _require(_close(case["diameter_squared"], 1.0 + b * b),
                 f"n={n}: squared diameter is not 1 + b^2")
        first = case["checks"][0]
        _require(_close(first["lhs"], case["fem_sum"] * (1.0 + b * b)),
                 f"n={n}: compared value is not the scaled FEM sum")
        _require(case["fem_sum"] > 0 and case["fem_err"] > 0,
                 f"n={n}: FEM sum or error not positive")
    return None


def _check_monotonicity(argv, text, code):
    report = _report(text, code)
    lo = float(argv[argv.index("--alpha-min") + 1])
    hi = float(argv[argv.index("--alpha-max") + 1])
    steps = int(argv[argv.index("--alpha-steps") + 1])
    _require(report["points"] == steps, "point count differs from the grid")
    _require(_close(report["spacing"], (hi - lo) / (steps - 1), 1e-9),
             "reported spacing differs from the grid")
    _require(report["spacing"] <= MAX_SPACING, "grid spacing above 0.02")
    _require(all(c["verdict"] == "pass" for c in report["checks"]),
             "a monotonicity check is not passing")
    return None


def _check_certify(argv, text, code):
    report = _report(text, code)
    box = report["interval"]
    _require(19.65 < box["lower"] < box["upper"] < 20.03,
             "enclosure outside the published window")
    fem = [c for c in report["checks"] if c["claim"].startswith("FEM")]
    _require(len(fem) == 2 and all(box["lower"] < c["lhs"] < box["upper"]
                                   for c in fem),
             "FEM second tone not inside the enclosure")
    return None


def _lattice_count(lam, antisym):
    r2 = lam / SIGMA_COEFF
    m = np.arange(1, int(math.sqrt(r2)) + 2)
    q = m[:, None] ** 2 + m[:, None] * m[None, :] + m[None, :] ** 2
    inside = q < r2
    if antisym:
        inside &= m[:, None] > m[None, :]
    return int(np.count_nonzero(inside))


def _check_lattice(argv, text, code):
    _require(code == 0, f"exit code {code}, expected 0")
    n = int(argv[argv.index("--n") + 1])
    lines = text.splitlines()
    _require(len(lines) == n + 1, "one row per sample expected")
    lams = np.geomspace(48.0 * math.pi ** 2, 1e6, n + 1)[1:]
    for lam_ref, line in zip(lams, lines[1:]):
        lam, count, lower, upper, ca, ua, ok = line.split(",")
        lam = float(lam)
        _require(lam == float(lam_ref), "sample point moved")
        _require(ok == "1", f"row at lam={lam!r} not ok")
        _require(float(lower) < int(count) < float(upper)
                 and int(ca) <= float(ua), f"bounds violated at lam={lam!r}")
        _require(int(count) == _lattice_count(lam, False)
                 and int(ca) == _lattice_count(lam, True),
                 f"count differs from the lattice at lam={lam!r}")
    return None


def _area_inradius(tri):
    (x0, y0), (x1, y1), (x2, y2) = tri
    area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    perimeter = (math.dist(tri[0], tri[1]) + math.dist(tri[1], tri[2])
                 + math.dist(tri[2], tri[0]))
    return area, 2.0 * area / perimeter


def _fem_output(argv, text, code):
    _require(code == 0, f"exit code {code}, expected 0")
    out = json.loads(text)
    tri = json.loads(argv[1])
    n = int(argv[argv.index("--n") + 1])
    _require(out["triangle"] == [[float(x), float(y)] for x, y in tri],
             "triangle not echoed")
    vals, errs = out["values"], out["errors"]
    _require(len(vals) == n and len(errs) == n, "wrong number of values")
    # Richardson values inside a degenerate cluster need not be sorted.
    _require(all(e >= 0 for e in errs), "negative error estimate")
    return tri, vals, errs


def _check_fem_equilateral(argv, text, code):
    """Values within 3x their error of the exact lattice spectrum.

    Returns the largest relative deviation from the exact values.
    """
    tri, vals, errs = _fem_output(argv, text, code)
    side = math.dist(tri[0], tri[1])
    exact = [SIGMA_COEFF * q / side ** 2 for q in equilateral_qs(len(vals))]
    for v, e, x in zip(vals, errs, exact):
        _require(abs(v - x) <= 3.0 * e,
                 f"value {v!r} misses exact {x!r} by more than 3x {e!r}")
    return max(abs(v - x) / x for v, x in zip(vals, exact))


def _check_fem_bounds(argv, text, code):
    """Faber-Krahn and inscribed-disc bounds on lambda_1, Li-Yau on sums."""
    tri, vals, _ = _fem_output(argv, text, code)
    area, inradius = _area_inradius(tri)
    _require(math.pi * J01 ** 2 / area < vals[0] < (J01 / inradius) ** 2,
             "lambda_1 outside the Faber-Krahn / inscribed-disc bracket")
    for k in range(1, len(vals) + 1):
        _require(sum(vals[:k]) >= 2.0 * math.pi * k * k / area,
                 f"first-{k} sum below the Li-Yau bound")
    return None


def check(workload, index, argv, text, code):
    """Raise CheckError unless the output of request `index` is right.

    Returns the exact relative error where the request has an exact
    reference, else None.
    """
    if workload == "theorem1":
        return _check_theorem1(argv, text, code)
    if workload == "aperture_sweep":
        return _check_monotonicity(argv, text, code)
    return (_check_certify, _check_lattice, _check_fem_equilateral,
            _check_fem_bounds)[index](argv, text, code)
