"""Command-line front end for the verification pipelines and data emitters.

Subcommands
-----------
spectrum   exact equilateral tables (CSV or JSON)
lattice    counting oracle against the closed-form bounds (CSV)
verify     one verification pipeline (JSON report); a target takes only
           the flags it reads, after its name:
             lemma-explicit
             compequilateral  --n 110
             theorem1         --b (unset: five apexes) --n 6 --level 7
             theorem2         --b 2.5 --level 7
             condch           --b 2.5
             monotonicity     --level 6 --alpha-min pi/6 --alpha-max 2pi/3
                              --alpha-steps 80
             observation      --level 7, that window in 41 steps (no
                              window flag: 40 apertures straddling pi/3)
fem        single-triangle eigenvalue solve (JSON)
certify    certified enclosure of the second tone of the apex-5/2 isosceles
           triangle T(0, 5/2), optionally checked against FEM (JSON)
sweep      isosceles tone curves over an aperture grid (CSV or JSON)
rectangle  diameter-normalized rectangle minimizers (JSON)
gamma      y-energy share of the low eigenfunctions of a fan triangle (JSON)

`--help` after a subcommand or target lists its flags and their defaults.
`--level` lies in [3, 10]: each FEM command also solves level - 1, and
level 2 is the coarsest mesh with an interior vertex; sweep, monotonicity
and observation take [6, 10], the levels a sweep accepts.  Exit codes: 0 all
checks pass, 1 any check fails, 2 inconclusive (margin inside the FEM
error bar), 64 usage error (also a flag out of range, or one the
subcommand does not read, and a triangle whose squared diameter overflows
a float, or whose eigenvalues do).  FEM values scale exactly with the
triangle, whatever its size.  Identical invocations produce
byte-identical output on any core count; there is no environment-variable
configuration.  Each subcommand runs with every OpenBLAS in the process
(numpy's and scipy's) at one thread, and the caller's thread counts come
back afterwards: every dense product trispec forms is too small to gain from
a second thread, and a threaded BLAS sums in an order that depends on the
thread count, which moved the last digits of level-8 output.  Each library
also stops the worker threads it started at load, which would otherwise
spin idle through the request; it starts them again on its next threaded
call.  The thread counts are process-wide, so a dispatch must not race the
caller's own BLAS calls on another thread.
"""

import argparse
import contextlib
import ctypes
import functools
import math
import sys

import numpy as np

from .certify import lemma62_verify
from .equilateral import (
    SIGMA_COEFF,
    antisym_counting_upper,
    counting_bounds,
    counting_exact,
    enumerate_modes,
    verify_compequilateral,
    verify_lemma_explicit,
)
from .fem import MAX_LEVEL, rayleigh_data, solve_extrapolated, solve_pair
from .geometry import fan_triangle, rectangle_minimizers, triangle_from_json
from .isosceles import (
    ALPHA_MAX,
    ALPHA_MIN,
    COLUMNS,
    OBSERVATION_STEPS,
    SCALINGS,
    SWEEP_MIN_LEVEL,
    observation_crossing,
    scaled,
    sweep,
    verify_monotonicity,
)
from .reports import combine, make_report, to_json
from .transplant import condCh_verify, theorem1_verify, theorem2_verify

__all__ = ["dispatch", "main"]

EXIT_BY_VERDICT = {"pass": 0, "fail": 1, "inconclusive": 2}


# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy ship
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls():
    """(get, set, shutdown) functions of each OpenBLAS loaded in this
    process; empty without OpenBLAS or without /proc.  shutdown stops the
    library's worker threads, and is None where the build does not export
    it."""
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
                # what OpenBLAS's own fork handler calls; the next
                # threaded call, or thread-count call, starts the pool again
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                controls.append((get, set_, shutdown))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread and its idle
    worker threads stopped, then give the caller's thread counts back, also
    when the body raises."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _, _ in controls]

    def set_threads(counts):
        # setting a count restarts a stopped pool, so stop it after each
        for (_, set_, shutdown), count in zip(controls, counts):
            set_(count)
            if shutdown is not None:
                shutdown()

    set_threads([1] * len(controls))
    try:
        yield
    finally:
        set_threads(saved)


class _Parser(argparse.ArgumentParser):
    # argparse would exit 2; the contract wants 64 with usage text
    def error(self, message):
        self.exit(64, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def parse_known_args(self, args, namespace):
        # argparse hands a subcommand's unread flags up to the root, which
        # would report them under its own usage line; refuse them here.
        # parse_args and the subcommand action pass both arguments.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _checked(convert, accepts, requirement):
    """argparse type: the flag's text converted, refused unless accepted."""
    def parse(text):
        value = convert(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}")
        return value
    parse.__name__ = convert.__name__  # argparse: "invalid int value: ..."
    return parse


_COUNT = _checked(int, lambda n: n >= 1, ">= 1")


def _levels(lowest):
    """argparse type of a --level that lies in [lowest, MAX_LEVEL]."""
    return _checked(int, lambda level: lowest <= level <= MAX_LEVEL,
                    f"in [{lowest}, {MAX_LEVEL}]")


# every FEM command also solves level - 1, and level 2 is the coarsest mesh
# with an interior vertex
_LEVEL = _levels(3)
# the leaves that run isosceles.sweep, which refuses coarser levels
_SWEEP_LEVEL = _levels(SWEEP_MIN_LEVEL)
_STEPS = _checked(int, lambda steps: steps >= 2, ">= 2")
# NaN fails every comparison, so these refuse it too; an infinite value
# would only reach the report as an invalid JSON number
_POSITIVE = _checked(float, lambda x: 0 < x < math.inf, "positive and finite")
_NONNEGATIVE = _checked(float, lambda x: 0 <= x < math.inf,
                        "nonnegative and finite")


class _Window(argparse.Action):
    """Store a window flag, which drops observation's straddling grid."""

    def __call__(self, parser, namespace, values, option_string):
        setattr(namespace, self.dest, values)
        namespace.straddle = False


def _add_window(cmd, steps, action="store"):
    cmd.add_argument("--alpha-min", type=float, default=ALPHA_MIN,
                     action=action, help="smallest aperture")
    cmd.add_argument("--alpha-max", type=float, default=ALPHA_MAX,
                     action=action, help="largest aperture")
    cmd.add_argument("--alpha-steps", dest="steps", type=_STEPS,
                     default=steps, action=action, help="number of apertures")


def _aperture_grid(args):
    """Uniform aperture grid of the window flags."""
    if not (args.alpha_min < args.alpha_max):
        raise ValueError(f"--alpha-min ({args.alpha_min:g}) must lie below "
                         f"--alpha-max ({args.alpha_max:g})")
    return np.linspace(args.alpha_min, args.alpha_max, args.steps)


def _verdict(report):
    """A report's JSON text and the exit code of its verdict."""
    return to_json(report) + "\n", EXIT_BY_VERDICT[report["verdict"]]


@functools.cache
def _parser():
    """The command tree, built once per process."""
    p = _Parser(prog="trispec", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(group, name, handler, help):
        """Subcommand or verify target that runs handler(args)."""
        cmd = group.add_parser(
            name, help=help, description=help,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--out", help="write here, not stdout")
        return cmd

    sp = command(sub, "spectrum", _cmd_spectrum, "exact equilateral spectrum")
    sp.add_argument("--n", type=_COUNT, default=110, help="number of ranks")
    sp.add_argument("--class", dest="mode_class", default="full",
                    choices=("full", "antisym"), help="mode class")

    la = command(sub, "lattice", _cmd_lattice, "counting oracle vs bounds")
    la.add_argument("--n", type=_COUNT, default=200, help="number of samples")

    targets = sub.add_parser("verify", help="run one verification pipeline"
                             ).add_subparsers(dest="target", required=True)

    def target(name, report, help):
        return command(targets, name, lambda args: _verdict(report(args)),
                       help)

    target("lemma-explicit", lambda args: verify_lemma_explicit(),
           "explicit eigenvalue bounds of the equilateral triangle")
    target("compequilateral", lambda args: verify_compequilateral(args.n),
           "equilateral sum comparison at every rank").add_argument(
        "--n", type=_COUNT, default=110, help="ranks checked exactly")
    t1 = target("theorem1", _verify_theorem1,
                "first-n sums of fan triangles against the equilateral")
    t1.add_argument("--b", type=_POSITIVE, nargs=1,
                    default=(1.8, 2.0, 2.5, 3.0, 4.0), help="one apex height")
    t1.add_argument("--n", type=_COUNT, default=6, help="largest n")
    t1.add_argument("--level", type=_LEVEL, default=7, help="mesh level")
    t2 = target("theorem2", lambda args: theorem2_verify(args.b, args.level),
                "second tone of a fan triangle against the equilateral")
    t2.add_argument("--b", type=_POSITIVE, default=2.5, help="apex height")
    t2.add_argument("--level", type=_LEVEL, default=7, help="mesh level")
    target("condch", lambda args: condCh_verify(args.b),
           "two-tone bound reduced to its endpoint").add_argument(
        "--b", type=_POSITIVE, default=2.5, help="interval endpoint")
    mo = target("monotonicity", lambda args: verify_monotonicity(
        sweep(_aperture_grid(args), args.level)),
        "claimed monotone intervals of the isosceles tones")
    mo.add_argument("--level", type=_SWEEP_LEVEL, default=6,
                    help="mesh level")
    _add_window(mo, 80)
    ob = target("observation", lambda args: observation_crossing(
        None if args.straddle else _aperture_grid(args), args.level),
        "second-mode class crossing at pi/3; with no window flag, on 40 "
        "apertures straddling it")
    ob.add_argument("--level", type=_SWEEP_LEVEL, default=7,
                    help="mesh level")
    _add_window(ob, OBSERVATION_STEPS, _Window)
    ob.set_defaults(straddle=True)

    fe = command(sub, "fem", _cmd_fem, "solve one triangle")
    fe.add_argument("triangle", help="JSON array of three [x, y] pairs")
    fe.add_argument("--n", type=_COUNT, default=1, help="number of values")
    fe.add_argument("--level", type=_LEVEL, default=6, help="mesh level")
    fe.add_argument("--tol", type=_NONNEGATIVE,
                    help="exit 2 if any error estimate exceeds this")

    command(sub, "certify", _cmd_certify, "certified second-tone enclosure"
            ).add_argument("--level", type=_LEVEL,
                           help="also cross-check against FEM at this level")

    sw = command(sub, "sweep", _cmd_sweep, "isosceles tone curves")
    _add_window(sw, 31)
    sw.add_argument("--level", type=_SWEEP_LEVEL, default=6,
                    help="mesh level")
    sw.add_argument("--scaling", default="side", choices=SCALINGS,
                    help="length normalized to 1")

    command(sub, "rectangle", _cmd_rectangle,
            "rectangle minimizers below pi/4").add_argument(
        "--tol", type=_NONNEGATIVE, default=0.0,
        help="safety margin required of both minimizers")

    ga = command(sub, "gamma", _cmd_gamma,
                 "y-energy share of the low modes of a fan triangle")
    ga.add_argument("--b", type=_POSITIVE, default=2.5, help="apex height")
    ga.add_argument("--n", type=_COUNT, default=1, help="modes pooled")
    ga.add_argument("--level", type=_LEVEL, default=7, help="mesh level")

    for cmd in (sp, sw):
        cmd.add_argument("--format", default="csv", choices=("csv", "json"),
                         help="output format")
    return p


def _cmd_spectrum(args):
    modes = enumerate_modes(args.n, args.mode_class)
    if args.format == "json":
        rows = [{"j": j, "m": m, "n": n, "q": q}
                for j, (m, n, q) in enumerate(modes, start=1)]
        return to_json({"class": args.mode_class, "modes": rows}) + "\n", 0
    lines = ["j,m,n,q,lambda,class"]
    for j, (m, n, q) in enumerate(modes, start=1):
        lines.append(f"{j},{m},{n},{q},{q * SIGMA_COEFF!r},"
                     f"{'antisym' if m > n else 'sym'}")
    return "\n".join(lines) + "\n", 0


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
    cases = []
    for b in args.b:
        cases.extend(theorem1_verify(b, args.n, args.level))
    return combine(
        "low-sum comparison against the equilateral across apex heights",
        cases, apexes=args.b, n_max=args.n, level=args.level)


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
    return _verdict(lemma62_verify(fem_level=args.level))


def _cmd_sweep(args):
    s = scaled(sweep(_aperture_grid(args), args.level), args.scaling)
    if args.format == "json":
        payload = {"scaling": args.scaling, "alpha": s.alpha.tolist(),
                   **dict(zip(COLUMNS, s.tones.T.tolist()))}
        return to_json(payload) + "\n", 0
    # repr of a Python float is the shortest string that parses back to
    # the same double; numpy 2 scalars would print np.float64(...).
    lines = [f"# scaling: {args.scaling}", ",".join(("alpha", *COLUMNS))]
    lines.extend(",".join(map(repr, row))
                 for row in np.column_stack((s.alpha, s.tones)).tolist())
    return "\n".join(lines) + "\n", 0


def _cmd_rectangle(args):
    mins = rectangle_minimizers()
    checks = [
        make_report(
            f"aspect angle minimizing {name} lies strictly below the square",
            entry["phi"], math.pi / 4.0 - args.tol, mode="<", value=entry["value"])
        for name, entry in sorted(mins.items())
    ]
    return _verdict(combine(
        "the square is not the diameter-normalized minimizer",
        checks, minimizers=mins))


def _cmd_gamma(args):
    fan = fan_triangle(args.b)
    gamma = rayleigh_data(fan, *solve_pair(fan, args.n + 1, args.level))[-1]
    if gamma is None:
        raise ValueError(
            f"ranks {args.n} and {args.n + 1} form a degenerate cluster; "
            "choose n so the cluster is not split")
    out = {"b": args.b, "n": args.n, "level": args.level, "gamma_n": gamma}
    return to_json(out) + "\n", 0


def dispatch(argv):
    """Parse argv, run the subcommand, return the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        return int(exc.code or 0)
    try:
        with _one_blas_thread():
            text, code = args.handler(args)
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
