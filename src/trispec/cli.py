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
byte-identical output; there is no environment-variable configuration.
"""

import argparse
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
from .fem import rayleigh_data, solve_extrapolated
from .geometry import FanTriangle, rectangle_minimizers, triangle_from_json
from .isosceles import observation_crossing, sweep, verify_monotonicity
from .reports import combine, make_report, to_json
from .transplant import condCh_verify, theorem1_verify, theorem2_verify

VERIFY_TARGETS = ("lemma-explicit", "compequilateral", "theorem1", "theorem2",
                  "condch", "monotonicity", "observation")
EXIT_BY_VERDICT = {"pass": 0, "fail": 1, "inconclusive": 2}
THEOREM1_APEXES = (1.8, 2.0, 2.5, 3.0, 4.0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); the contract wants 64 with usage text
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


class RunConfig:
    """Validated flag settings for one invocation."""

    def __init__(self, args):
        self.command = args.command
        self.target = getattr(args, "target", None)
        self.triangle = getattr(args, "triangle", None)
        self.n = getattr(args, "n", None)
        self.level = getattr(args, "level", None)
        self.alpha_min = getattr(args, "alpha_min", None)
        self.alpha_max = getattr(args, "alpha_max", None)
        self.steps = getattr(args, "steps", None)
        self.b = getattr(args, "b", None)
        self.tol = getattr(args, "tol", None)
        self.mode_class = getattr(args, "mode_class", "full")
        self.scaling = getattr(args, "scaling", "side")
        self.out = getattr(args, "out", None)
        self.format = getattr(args, "format", None)

    def validate(self):
        if self.n is not None and self.n < 1:
            raise ValueError("--n must be >= 1")
        if self.level is not None and self.level < 2:
            raise ValueError("--level must be >= 2")
        if self.steps is not None and self.steps < 2:
            raise ValueError("--alpha-steps must be >= 2")
        if self.b is not None and not (self.b > 0):
            raise ValueError("--b must be positive")
        if self.tol is not None and self.tol < 0:
            raise ValueError("--tol must be nonnegative")
        if self.alpha_min is not None and self.alpha_max is not None \
                and not (self.alpha_min < self.alpha_max):
            raise ValueError("--alpha-min must lie below --alpha-max")
        return self

    def alpha_grid(self, lo, hi, steps):
        """Uniform grid from the alpha flags, with the given defaults."""
        lo = self.alpha_min if self.alpha_min is not None else lo
        hi = self.alpha_max if self.alpha_max is not None else hi
        n = self.steps if self.steps is not None else steps
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
    sw.add_argument("--alpha-min", type=float, default=math.pi / 6.0)
    sw.add_argument("--alpha-max", type=float, default=2.0 * math.pi / 3.0)
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


def _cmd_spectrum(cfg):
    table = enumerate_modes(cfg.n, cfg.mode_class)
    if cfg.format == "json":
        rows = [{"j": j, "m": m.m, "n": m.n, "q": m.q}
                for j, m in enumerate(table.modes, start=1)]
        return to_json({"class": cfg.mode_class, "modes": rows}) + "\n", 0
    return table.to_csv(), 0


def _cmd_lattice(cfg):
    lams = np.geomspace(48.0 * math.pi**2, 1e6, cfg.n + 1)[1:]
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


def _verify_theorem1(cfg):
    bs = [cfg.b] if cfg.b is not None else list(THEOREM1_APEXES)
    n_max = cfg.n if cfg.n is not None else 6
    level = cfg.level if cfg.level is not None else 7
    cases = []
    for b in bs:
        # Largest n first: every smaller n is then served from the solver
        # cache by slicing.  The report still lists n in ascending order.
        descending = [theorem1_verify(FanTriangle(0.0, b), n, level=level)
                      for n in range(n_max, 0, -1)]
        cases.extend(reversed(descending))
    return combine(
        "low-sum comparison against the equilateral across apex heights",
        cases, apexes=bs, n_max=n_max, level=level)


def _cmd_verify(cfg):
    target = cfg.target
    if target == "lemma-explicit":
        report = verify_lemma_explicit()
    elif target == "compequilateral":
        report = verify_compequilateral(cfg.n if cfg.n is not None else 110)
    elif target == "theorem1":
        report = _verify_theorem1(cfg)
    elif target == "theorem2":
        report = theorem2_verify(cfg.b if cfg.b is not None else 2.5,
                                 level=cfg.level if cfg.level else 7)
    elif target == "condch":
        report = condCh_verify(cfg.b if cfg.b is not None else 2.5)
    elif target == "monotonicity":
        grid = cfg.alpha_grid(math.pi / 6.0, 2.0 * math.pi / 3.0, 80)
        table = sweep(grid, "side", cfg.level if cfg.level else 6)
        report = verify_monotonicity(table)
    else:
        grid = None
        if (cfg.alpha_min, cfg.alpha_max, cfg.steps) != (None, None, None):
            # 41 keeps pi/3 off the uniform grid, where the gap degenerates
            grid = cfg.alpha_grid(math.pi / 6.0, 2.0 * math.pi / 3.0, 41)
        report = observation_crossing(
            grid=grid, level=cfg.level if cfg.level else 7)
    return to_json(report) + "\n", EXIT_BY_VERDICT[report["verdict"]]


def _cmd_fem(cfg):
    t = triangle_from_json(cfg.triangle)
    level = cfg.level if cfg.level is not None else 6
    vals, errs, _ = solve_extrapolated(t, cfg.n, level)
    out = {"triangle": t.vertices.tolist(), "level": level,
           "values": list(vals), "errors": list(errs)}
    code = 0
    if cfg.tol is not None and float(np.max(errs)) > cfg.tol:
        code = 2
    return to_json(out) + "\n", code


def _cmd_certify(cfg):
    report = lemma62_verify(fem_level=cfg.level)
    return to_json(report) + "\n", EXIT_BY_VERDICT[report["verdict"]]


def _cmd_sweep(cfg):
    grid = cfg.alpha_grid(math.pi / 6.0, 2.0 * math.pi / 3.0, 31)
    table = sweep(grid, cfg.scaling, cfg.level if cfg.level else 6)
    if cfg.format == "json":
        payload = {"scaling": table.scaling,
                   "alpha": list(table.alpha),
                   "lambda1": list(table.lambda1),
                   "lambda_a": list(table.lambda_a),
                   "lambda_s": list(table.lambda_s)}
        return to_json(payload) + "\n", 0
    return table.to_csv(), 0


def _cmd_rectangle(cfg):
    mins = rectangle_minimizers()
    tol = cfg.tol or 0.0
    checks = [
        make_report(
            f"aspect angle minimizing {name} lies strictly below the square",
            entry["phi"], math.pi / 4.0 - tol, mode="<", value=entry["value"])
        for name, entry in sorted(mins.items())
    ]
    report = combine("the square is not the diameter-normalized minimizer",
                     checks, minimizers=mins)
    return to_json(report) + "\n", EXIT_BY_VERDICT[report["verdict"]]


def _cmd_gamma(cfg):
    data = rayleigh_data(FanTriangle(0.0, cfg.b), cfg.n, cfg.level)
    out = {"b": cfg.b, "n": data.n, "level": cfg.level,
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
        cfg = RunConfig(args).validate()
        text, code = _HANDLERS[cfg.command](cfg)
    except ValueError as exc:
        print(f"trispec {args.command}: {exc}", file=sys.stderr)
        return 64
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
