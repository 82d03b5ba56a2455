"""Command-line front end for the verification pipelines and data emitters.

Subcommands
-----------
spectrum   exact equilateral tables (CSV)
lattice    counting oracle against the closed-form bounds (CSV)
verify     one of: lemma-explicit, compequilateral, theorem1, theorem2,
           condch, monotonicity, observation (JSON report)
fem        single-triangle eigenvalue solve (JSON)
certify    certified enclosure of the second tone of the apex-5/2 isosceles
           triangle T(0, 5/2), optionally checked against FEM (JSON)
sweep      isosceles tone curves over an aperture grid (CSV)
rectangle  diameter-normalized rectangle minimizers (JSON)
gamma      energy fractions of the low eigenfunctions of a fan triangle (JSON)

Exit codes: 0 all checks pass, 1 any check fails, 2 inconclusive (margin
inside the FEM error bar), 64 usage error.  Identical invocations produce
byte-identical output on any core count; there is no environment-variable
configuration.  Each subcommand runs with every OpenBLAS in the process
(numpy's and scipy's) at one thread, and the caller's thread counts come
back afterwards: every dense product trispec forms is too small to gain from
a second thread, and a threaded BLAS sums in an order that depends on the
thread count, which moved the last digits of level-8 output.
"""

import argparse
import contextlib
import ctypes
import math
import sys

import numpy as np

from .certify import lemma62_verify
from .equilateral import (
    antisym_counting_upper,
    counting_bounds,
    counting_exact,
    enumerate_modes,
    verify_compequilateral,
    verify_lemma_explicit,
)
from .fem import rayleigh_data, solve_extrapolated, solve_pair
from .geometry import fan_triangle, rectangle_minimizers, triangle_from_json
from .isosceles import (
    ALPHA_MAX,
    ALPHA_MIN,
    observation_crossing,
    sweep,
    verify_monotonicity,
)
from .reports import combine, make_report, to_json
from .transplant import condCh_verify, theorem1_verify, theorem2_verify

__all__ = ["dispatch", "main"]

VERIFY_TARGETS = ("lemma-explicit", "compequilateral", "theorem1", "theorem2",
                  "condch", "monotonicity", "observation")
EXIT_BY_VERDICT = {"pass": 0, "fail": 1, "inconclusive": 2}
THEOREM1_APEXES = (1.8, 2.0, 2.5, 3.0, 4.0)


# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy ship
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS loaded in this
    process; empty without OpenBLAS or without /proc."""
    try:
        with open("/proc/self/maps") as fh:
            # only a mapping's path, its sixth field, can hold "openblas"
            paths = dict.fromkeys(line.split(maxsplit=5)[5].rstrip("\n")
                                  for line in fh if "openblas" in line)
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # mapped, but no longer loadable by that path
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread, then give the
    caller's thread counts back, also when the body raises."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); the contract wants 64 with usage text
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _validate(args):
    """Reject out-of-range flag values; flags a subcommand lacks are skipped."""
    n = getattr(args, "n", None)
    level = getattr(args, "level", None)
    steps = getattr(args, "steps", None)
    b = getattr(args, "b", None)
    tol = getattr(args, "tol", None)
    alpha_min = getattr(args, "alpha_min", None)
    alpha_max = getattr(args, "alpha_max", None)
    if n is not None and n < 1:
        raise ValueError("--n must be >= 1")
    if level is not None and level < 2:
        raise ValueError("--level must be >= 2")
    if steps is not None and steps < 2:
        raise ValueError("--alpha-steps must be >= 2")
    if b is not None and not (b > 0):
        raise ValueError("--b must be positive")
    if tol is not None and not (tol >= 0):
        raise ValueError("--tol must be nonnegative")
    if (alpha_min, alpha_max) != (None, None):
        # verify fills an unset end of the window from the default one
        lo = ALPHA_MIN if alpha_min is None else alpha_min
        hi = ALPHA_MAX if alpha_max is None else alpha_max
        if not (lo < hi):
            raise ValueError(f"--alpha-min ({lo:g}) must lie below "
                             f"--alpha-max ({hi:g})")


def _alpha_grid(args, steps):
    """Uniform aperture grid from the verify flags; unset ones default to
    the isosceles window and the given number of steps."""
    lo = args.alpha_min if args.alpha_min is not None else ALPHA_MIN
    hi = args.alpha_max if args.alpha_max is not None else ALPHA_MAX
    n = args.steps if args.steps is not None else steps
    return np.linspace(lo, hi, n)


def _parser():
    p = _Parser(prog="trispec", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("spectrum", help="exact equilateral spectrum table")
    sp.add_argument("--n", type=int, default=110, help="number of ranks")
    sp.add_argument("--class", dest="mode_class", default="full",
                    choices=("full", "antisym"))

    la = sub.add_parser("lattice", help="counting oracle vs bounds")
    la.add_argument("--n", type=int, default=200, help="number of samples")

    ve = sub.add_parser("verify", help="run one verification pipeline")
    ve.add_argument("target", choices=VERIFY_TARGETS)
    ve.add_argument("--n", type=int, default=None)
    ve.add_argument("--level", type=int, default=None)
    ve.add_argument("--b", type=float, default=None,
                    help="apex height (condch: interval endpoint)")
    ve.add_argument("--alpha-min", type=float, default=None)
    ve.add_argument("--alpha-max", type=float, default=None)
    ve.add_argument("--alpha-steps", dest="steps", type=int, default=None)

    fe = sub.add_parser("fem", help="solve one triangle")
    fe.add_argument("triangle", help="JSON array of three [x, y] pairs")
    fe.add_argument("--n", type=int, default=1, help="number of eigenvalues")
    fe.add_argument("--level", type=int, default=6)
    fe.add_argument("--tol", type=float, default=None,
                    help="exit 2 if any error estimate exceeds this")

    ce = sub.add_parser("certify", help="certified second-tone enclosure")
    ce.add_argument("--level", type=int, default=None,
                    help="also cross-check against FEM at this level")

    sw = sub.add_parser("sweep", help="isosceles tone curves")
    sw.add_argument("--alpha-min", type=float, default=ALPHA_MIN)
    sw.add_argument("--alpha-max", type=float, default=ALPHA_MAX)
    sw.add_argument("--alpha-steps", dest="steps", type=int, default=31)
    sw.add_argument("--level", type=int, default=6)
    sw.add_argument("--scaling", default="side",
                    choices=("side", "diameter", "perimeter", "area"))

    rc = sub.add_parser("rectangle", help="rectangle minimizers below pi/4")
    rc.add_argument("--tol", type=float, default=0.0,
                    help="safety margin required of both minimizers")

    ga = sub.add_parser("gamma", help="energy fractions of a fan triangle")
    ga.add_argument("--b", type=float, default=2.5, help="apex height")
    ga.add_argument("--n", type=int, default=1, help="number of modes pooled")
    ga.add_argument("--level", type=int, default=7)

    for cmd in (sp, la, sw):
        cmd.add_argument("--format", default="csv", choices=("csv", "json"))
    for cmd in (sp, la, ve, fe, ce, sw, rc, ga):
        cmd.add_argument("--out", default=None, help="write here, not stdout")
    return p


def _cmd_spectrum(args):
    table = enumerate_modes(args.n, args.mode_class)
    if args.format == "json":
        rows = [{"j": j, "m": m.m, "n": m.n, "q": m.q}
                for j, m in enumerate(table.modes, start=1)]
        return to_json({"class": args.mode_class, "modes": rows}) + "\n", 0
    return table.to_csv(), 0


def _cmd_lattice(args):
    lams = np.geomspace(48.0 * math.pi**2, 1e6, args.n + 1)[1:]
    lines = ["lam,count,lower,upper,count_antisym,upper_antisym,ok"]
    all_ok = True
    for lam in lams:
        lam = float(lam)
        count = counting_exact(lam, "full")
        lo, hi = counting_bounds(lam)
        ca = counting_exact(lam, "antisym")
        ha = antisym_counting_upper(lam)
        ok = lo < count < hi and ca <= ha
        all_ok = all_ok and ok
        lines.append(f"{lam!r},{count},{lo!r},{hi!r},{ca},{ha!r},{int(ok)}")
    return "\n".join(lines) + "\n", 0 if all_ok else 1


def _verify_theorem1(args):
    bs = [args.b] if args.b is not None else list(THEOREM1_APEXES)
    n_max = args.n if args.n is not None else 6
    level = args.level if args.level is not None else 7
    cases = []
    for b in bs:
        cases.extend(theorem1_verify(b, n_max, level))
    return combine(
        "low-sum comparison against the equilateral across apex heights",
        cases, apexes=bs, n_max=n_max, level=level)


def _cmd_verify(args):
    target = args.target
    if target == "lemma-explicit":
        report = verify_lemma_explicit()
    elif target == "compequilateral":
        report = verify_compequilateral(args.n if args.n is not None else 110)
    elif target == "theorem1":
        report = _verify_theorem1(args)
    elif target == "theorem2":
        report = theorem2_verify(args.b if args.b is not None else 2.5,
                                 args.level if args.level else 7)
    elif target == "condch":
        report = condCh_verify(args.b if args.b is not None else 2.5)
    elif target == "monotonicity":
        table = sweep(_alpha_grid(args, 80), "side",
                      args.level if args.level else 6)
        report = verify_monotonicity(table)
    else:
        grid = None
        if (args.alpha_min, args.alpha_max, args.steps) != (None, None, None):
            # 41 keeps pi/3 off the uniform grid, where the gap degenerates
            grid = _alpha_grid(args, 41)
        report = observation_crossing(grid, args.level if args.level else 7)
    return to_json(report) + "\n", EXIT_BY_VERDICT[report["verdict"]]


def _cmd_fem(args):
    t = triangle_from_json(args.triangle)
    vals, errs = solve_extrapolated(t, args.n, args.level)
    out = {"triangle": t.vertices.tolist(), "level": args.level,
           "values": list(vals), "errors": list(errs)}
    code = 0
    if args.tol is not None and float(np.max(errs)) > args.tol:
        code = 2
    return to_json(out) + "\n", code


def _cmd_certify(args):
    report = lemma62_verify(fem_level=args.level)
    return to_json(report) + "\n", EXIT_BY_VERDICT[report["verdict"]]


def _cmd_sweep(args):
    grid = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    table = sweep(grid, args.scaling, args.level)
    if args.format == "json":
        payload = {"scaling": table.scaling,
                   "alpha": list(table.alpha),
                   "lambda1": list(table.lambda1),
                   "lambda_a": list(table.lambda_a),
                   "lambda_s": list(table.lambda_s)}
        return to_json(payload) + "\n", 0
    return table.to_csv(), 0


def _cmd_rectangle(args):
    mins = rectangle_minimizers()
    checks = [
        make_report(
            f"aspect angle minimizing {name} lies strictly below the square",
            entry["phi"], math.pi / 4.0 - args.tol, mode="<", value=entry["value"])
        for name, entry in sorted(mins.items())
    ]
    report = combine("the square is not the diameter-normalized minimizer",
                     checks, minimizers=mins)
    return to_json(report) + "\n", EXIT_BY_VERDICT[report["verdict"]]


def _cmd_gamma(args):
    data = rayleigh_data(*solve_pair(fan_triangle(args.b), args.n + 1,
                                     args.level), args.n)
    out = {"b": args.b, "n": data.n, "level": args.level,
           "gamma_n": data.gamma_n, "delta_n": data.delta_n}
    return to_json(out) + "\n", 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "lattice": _cmd_lattice,
    "verify": _cmd_verify,
    "fem": _cmd_fem,
    "certify": _cmd_certify,
    "sweep": _cmd_sweep,
    "rectangle": _cmd_rectangle,
    "gamma": _cmd_gamma,
}


def dispatch(argv):
    """Parse argv, run the subcommand, return the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 64
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr)
        return 64
    try:
        _validate(args)
        with _one_blas_thread():
            text, code = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"trispec {args.command}: {exc}", file=sys.stderr)
        return 64
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"trispec {args.command}: {exc}", file=sys.stderr)
        return 64
    return code


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
