"""End-to-end tests of the command-line surface."""

import ctypes
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from trispec import cli, fem, isosceles
from trispec.cli import dispatch
from trispec.equilateral import SIGMA_COEFF, enumerate_modes
from trispec.isosceles import scale_factor
from trispec.reports import combine, make_report, to_json

from _fresh import fresh_python

SQRT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def bundled_openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy and scipy
    bundle, found from the wheels' library folders rather than the CLI's own
    lookup."""
    controls = []
    for pkg in (np, scipy):
        libdir = (Path(pkg.__file__).resolve().parent.parent
                  / f"{pkg.__name__}.libs")
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for get_name, set_name in cli._BLAS_THREAD_SYMBOLS:
                if hasattr(lib, get_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                    controls.append((get, set_))
                    break
    return controls


def blas_threads(controls):
    return [get() for get, _ in controls]


def set_blas_threads(controls, count):
    for _, set_ in controls:
        set_(count)


@pytest.fixture
def blas():
    """The bundled OpenBLAS controls, each set to two threads; the counts
    found are restored afterwards."""
    controls = bundled_openblas()
    if not controls:
        pytest.skip("no bundled OpenBLAS loaded")
    saved = blas_threads(controls)
    set_blas_threads(controls, 2)
    yield controls
    for (_, set_), count in zip(controls, saved):
        set_(count)


def test_unknown_command(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 64
    assert "usage" in err


def test_no_arguments(capsys):
    code, out, err = run(capsys)
    assert code == 64
    assert "usage" in err


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    for name in ("spectrum", "lattice", "verify", "fem", "certify",
                 "sweep", "rectangle", "gamma"):
        assert name in out


def test_bad_flag_value(capsys):
    tri = "[[0, 0], [1, 0], [0, 1]]"
    cases = [
        (("spectrum", "--n", "0"), "--n"),
        (("fem", tri, "--level", "1"), "--level"),
        (("sweep", "--alpha-steps", "1"), "--alpha-steps"),
        (("gamma", "--b", "-1"), "--b"),
        (("rectangle", "--tol", "-1"), "--tol"),
        # a NaN tolerance would turn the gate off or fail every check
        (("fem", tri, "--level", "4", "--tol", "nan"), "--tol"),
        (("rectangle", "--tol", "nan"), "--tol"),
        (("sweep", "--alpha-min", "2", "--alpha-max", "1"), "--alpha-min"),
        # the endpoint one float above sqrt(3) leaves no grid between them
        (("verify", "condch", "--b", "1.7320508075688774"),
         "too close to sqrt(3)"),
        # an infinite value is refused on the leaf's usage line; condch
        # warned and blamed sqrt(3), and rectangle printed -Infinity
        (("verify", "condch", "--b", "inf"), "trispec verify condch: error: "
         "argument --b: must be positive and finite"),
        (("gamma", "--b", "inf"), "argument --b: must be positive and finite"),
        (("rectangle", "--tol", "inf"),
         "argument --tol: must be nonnegative and finite"),
        # 1e200 squared overflows, which printed NaN nine times under exit 1
        (("verify", "condch", "--b", "1e200"), "too large"),
        # a triangle whose squared diameter overflows
        (("fem", "[[0,0],[1e155,0],[0,1e155]]", "--level", "4"),
         "squared diameter overflows"),
        # its sixth value overflows, which printed "values": [] under exit 0
        (("fem", "[[0,0],[1e-153,0],[0,1e-153]]", "--n", "6", "--level",
          "4"), "too small"),
        # a right triangle whose area underflows, once called degenerate
        (("fem", "[[0,0],[1e-162,0],[0,1e-162]]"), "too small"),
    ]
    for argv, flag in cases:
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert flag in err, argv
        assert out == ""


def test_a_level_past_the_cap_is_refused_before_solving(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_lowest called")

    monkeypatch.setattr(fem, "solve_lowest", refuse)
    for argv in (("fem", "[[0,0],[1,0],[0,1]]", "--level", "11"),
                 ("verify", "theorem1", "--b", "2.5", "--level", "11")):
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert f"argument --level: must be in [3, {fem.MAX_LEVEL}]" in err
        assert out == ""


def test_one_sided_window_is_refused_before_solving(capsys, monkeypatch):
    # verify fills the unset end from the default window [pi/6, 2pi/3]
    def refuse(*args):
        raise AssertionError("solve_family_pair called")

    monkeypatch.setattr(isosceles, "solve_family_pair", refuse)
    cases = [(("verify", "monotonicity", "--alpha-min", "2.5"), "--alpha-min"),
             (("verify", "observation", "--alpha-max", "0.3"), "--alpha-max")]
    for argv, flag in cases:
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert flag in err, argv
        assert out == ""


# The flags every verify target shared, and those each target reads.
SHARED_VERIFY_FLAGS = {"--n": "3", "--level": "5", "--b": "2.5",
                       "--alpha-min": "0.6", "--alpha-max": "2.0",
                       "--alpha-steps": "80"}
WINDOW = ("--alpha-min", "--alpha-max", "--alpha-steps")
VERIFY_FLAGS = {
    "lemma-explicit": (),
    "compequilateral": ("--n",),
    "theorem1": ("--b", "--n", "--level"),
    "theorem2": ("--b", "--level"),
    "condch": ("--b",),
    "monotonicity": ("--level", *WINDOW),
    "observation": ("--level", *WINDOW),
}


@pytest.mark.parametrize("target, flag", [
    (target, flag) for target, reads in VERIFY_FLAGS.items()
    for flag in SHARED_VERIFY_FLAGS if flag not in reads])
def test_verify_refuses_a_flag_its_target_ignores(capsys, target, flag):
    code, out, err = run(capsys, "verify", target, flag,
                         SHARED_VERIFY_FLAGS[flag])
    assert code == 64
    assert err.startswith(f"usage: trispec verify {target} ")
    assert flag in err
    assert out == ""


# Every leaf of the command tree, and the positionals a leaf requires.
LEAVES = ["spectrum", "lattice", *(f"verify {t}" for t in VERIFY_FLAGS),
          "fem", "certify", "sweep", "rectangle", "gamma"]
POSITIONALS = {"fem": ("[[0, 0], [1, 0], [0, 1]]",)}


@pytest.mark.parametrize("leaf", LEAVES)
def test_an_unread_flag_is_reported_by_its_leaf(capsys, leaf):
    prog = f"trispec {leaf}"
    code, out, err = run(capsys, *leaf.split(), *POSITIONALS.get(leaf, ()),
                         "--bogus", "1")
    assert code == 64
    assert err.startswith(f"usage: {prog} ")
    assert f"\n{prog}: error: unrecognized arguments: --bogus 1\n" in err
    assert out == ""


# The leaves that run isosceles.sweep, and so take its coarsest level.
SWEEP_LEAVES = ("sweep", "verify monotonicity", "verify observation")


@pytest.mark.parametrize("leaf", [
    "fem", "certify", "sweep", "gamma", "verify theorem1", "verify theorem2",
    "verify monotonicity", "verify observation"])
def test_level_2_gets_the_leaf_usage_line(capsys, leaf):
    # level 1, which a level-2 solve also meshes, has no interior vertex
    prog = f"trispec {leaf}"
    lowest = isosceles.SWEEP_MIN_LEVEL if leaf in SWEEP_LEAVES else 3
    code, out, err = run(capsys, *leaf.split(), *POSITIONALS.get(leaf, ()),
                         "--level", "2")
    assert code == 64
    assert err.startswith(f"usage: {prog} ")
    assert (f"\n{prog}: error: argument --level: must be in "
            f"[{lowest}, {fem.MAX_LEVEL}]\n") in err
    assert out == ""


@pytest.mark.parametrize("leaf", SWEEP_LEAVES)
def test_a_sweep_leaf_refuses_a_coarse_level_with_its_usage_line(
        capsys, monkeypatch, leaf):
    # the form of a level past the cap, before any solve
    def refuse(*args):
        raise AssertionError("solve_family_pair called")

    monkeypatch.setattr(isosceles, "solve_family_pair", refuse)
    prog = f"trispec {leaf}"
    for level in (isosceles.SWEEP_MIN_LEVEL - 1, 4, fem.MAX_LEVEL + 1):
        code, out, err = run(capsys, *leaf.split(), "--level", str(level))
        assert code == 64, level
        assert err.startswith(f"usage: {prog} "), level
        assert (f"\n{prog}: error: argument --level: must be in "
                f"[{isosceles.SWEEP_MIN_LEVEL}, {fem.MAX_LEVEL}]\n") in err
        assert out == ""


@pytest.mark.parametrize("target, defaults", [
    ("lemma-explicit", ()),
    ("compequilateral", ("(default: 110)",)),
    ("theorem1", ("(default: (1.8, 2.0, 2.5, 3.0, 4.0))", "(default: 6)",
                  "(default: 7)")),
    ("theorem2", ("(default: 2.5)", "(default: 7)")),
    ("condch", ("(default: 2.5)",)),
    ("monotonicity", ("(default: 6)", f"(default: {math.pi / 6.0!r})",
                      f"(default: {2.0 * math.pi / 3.0!r})",
                      "(default: 80)")),
    ("observation", ("(default: 7)", f"(default: {math.pi / 6.0!r})",
                     f"(default: {2.0 * math.pi / 3.0!r})",
                     "(default: 41)", "straddling")),
])
def test_verify_help_lists_the_target_defaults(capsys, target, defaults):
    code, out, err = run(capsys, "verify", target, "--help")
    assert code == 0
    assert out.startswith(f"usage: trispec verify {target} ")
    options = {line.split()[0] for line in out.splitlines()
               if line.startswith("  -")}
    assert options == {"-h,", "--out", *VERIFY_FLAGS[target]}
    for text in defaults:
        assert text in out


def test_non_numeric_triangle_is_a_usage_error(capsys):
    # numpy would read the string and the boolean as coordinates
    for text in ('{"a": 1}', '[[0,0],[1,0],[0,"1"]]', "[[0,0],[1,0],[0,true]]"):
        code, out, err = run(capsys, "fem", text)
        assert code == 64, text
        assert out == ""
        assert err.startswith("trispec fem: vertices must be numbers"), err
        assert err.count("\n") == 1


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "lattice", "--n", "2", "--out", str(path))
    assert code == 64
    assert out == ""
    assert err.startswith("trispec lattice: ")
    assert str(path) in err
    assert not path.exists()


def test_deep_validation_error(capsys):
    code, out, err = run(capsys, "verify", "theorem2", "--b", "1.0")
    assert code == 64
    assert "sqrt(3)" in err


def test_spectrum_matches_table(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "12", "--class", "antisym")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    modes = enumerate_modes(12, "antisym")
    assert [[int(cell) for cell in row[:4]] for row in rows] == [
        [j, *mode] for j, mode in enumerate(modes, start=1)]
    assert [float(row[4]) for row in rows] == [m.q * SIGMA_COEFF for m in modes]
    assert {row[5] for row in rows} == {"antisym"}
    first = out.splitlines()[1].split(",")
    assert first[:4] == ["1", "2", "1", "7"]


SPECTRUM_6_CSV = """\
j,m,n,q,lambda,class
1,1,1,3,52.637890139143245,sym
2,1,2,7,122.82174365800091,sym
3,2,1,7,122.82174365800091,antisym
4,2,2,12,210.55156055657298,sym
5,1,3,13,228.0975239362874,sym
6,3,1,13,228.0975239362874,antisym
"""


SPECTRUM_6_JSON = """\
{
  "class": "full",
  "modes": [
    {
      "j": 1,
      "m": 1,
      "n": 1,
      "q": 3
    },
    {
      "j": 2,
      "m": 1,
      "n": 2,
      "q": 7
    },
    {
      "j": 3,
      "m": 2,
      "n": 1,
      "q": 7
    },
    {
      "j": 4,
      "m": 2,
      "n": 2,
      "q": 12
    },
    {
      "j": 5,
      "m": 1,
      "n": 3,
      "q": 13
    },
    {
      "j": 6,
      "m": 3,
      "n": 1,
      "q": 13
    }
  ]
}
"""


def test_spectrum_text_is_pinned(capsys):
    assert run(capsys, "spectrum", "--n", "6") == (0, SPECTRUM_6_CSV, "")
    assert run(capsys, "spectrum", "--n", "6", "--format", "json") == (
        0, SPECTRUM_6_JSON, "")


def test_spectrum_json(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "full"
    assert len(doc["modes"]) == 8
    assert doc["modes"][0] == {"j": 1, "m": 1, "n": 1, "q": 3}


def test_lattice_sandwich(capsys):
    code, out, err = run(capsys, "lattice", "--n", "25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("lam,count,lower,upper")
    assert len(lines) == 26
    assert all(row.endswith(",1") for row in lines[1:])


def test_verify_lemma_explicit(capsys):
    code, out, err = run(capsys, "verify", "lemma-explicit")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["exception_rank"] == 4
    rank4 = [c for c in doc["checks"] if c.get("j") == 4]
    assert len(rank4) == 1 and "exception" in rank4[0]["claim"]


def test_reports_share_one_shape(capsys):
    for argv in (("verify", "lemma-explicit"), ("verify", "compequilateral"),
                 ("verify", "condch"), ("certify",)):
        code, out, err = run(capsys, *argv)
        assert code == 0, argv
        keys = list(json.loads(out))
        assert keys[:4] == ["claim", "branch", "verdict", "checks"], argv


def test_a_heuristic_check_makes_its_report_heuristic(capsys):
    # the certified endpoint of theorem2's chain is a heuristic enclosure
    code, out, err = run(capsys, "verify", "theorem2", "--b", "2.0",
                         "--level", "5")
    report = json.loads(out)
    assert report["checks"][3]["heuristic"] is True
    assert list(report)[-1] == "heuristic" and report["heuristic"] is True
    # the caller's value wins; with no heuristic check there is no key
    checks = [make_report("a", 1.0, 0.0), combine("b", [], heuristic=True)]
    assert combine("c", checks, heuristic=False)["heuristic"] is False
    assert "heuristic" not in combine("c", checks[:1])
    for argv in (("verify", "observation"),
                 ("verify", "theorem1", "--n", "2", "--level", "5")):
        code, out, err = run(capsys, *argv)
        assert '"heuristic"' not in out, argv


def test_to_json_refuses_numbers_json_lacks():
    for value in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ValueError, match="JSON"):
            to_json({"claim": "c", "lhs": value})
    assert json.loads(to_json({"lhs": np.float64(1.5)})) == {"lhs": 1.5}


def test_verify_exit_codes(capsys):
    code, out, err = run(capsys, "verify", "condch")
    assert code == 0
    # large endpoints up to the overflow refusal pass; 1e100 is refused
    for b in ("1e10", "1e60"):
        code, out, err = run(capsys, "verify", "condch", "--b", b)
        assert code == 0, b
        assert json.loads(out)["verdict"] == "pass", b
    code, out, err = run(capsys, "verify", "condch", "--b", "1e100")
    assert code == 64 and "too large" in err and out == ""
    # equality endpoint: margin sits inside the error bar by design
    code, out, err = run(capsys, "verify", "theorem1",
                         "--b", repr(SQRT3), "--n", "1", "--level", "6")
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"


def test_theorem1_solves_each_problem_once(capsys, monkeypatch):
    counts = {"solve_lowest": 0, "assemble": 0}

    def counting(name):
        original = getattr(fem, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(fem, name, counting(name))
    fem._stencil.cache_clear()
    code, out, err = run(capsys, "verify", "theorem1", "--b", "2.5",
                         "--n", "3", "--level", "5")
    assert code == 0
    # one solve and one assembly per level, of n_max + 1 modes
    assert counts == {"solve_lowest": 2, "assemble": 2}
    # one stencil build per (level, Dirichlet edges)
    assert fem._stencil.cache_info().misses == 2
    assert [case["n"] for case in json.loads(out)["checks"]] == [1, 2, 3]


def test_theorem1_solve_failure_is_a_usage_error(capsys):
    # level 2 has 3 free vertices, too few for the n_max + 1 = 3 modes
    code, out, err = run(capsys, "verify", "theorem1", "--b", "2.5",
                         "--n", "2", "--level", "3")
    assert code == 64
    assert out == ""
    assert "k=3 too large for 3 free vertices" in err


def test_output_does_not_depend_on_earlier_runs(capsys):
    for argv, before in (
            (("verify", "theorem2", "--level", "5"),
             ("verify", "theorem1", "--b", "2.5", "--n", "3", "--level", "5")),
            (("gamma", "--n", "2", "--level", "5"),
             ("verify", "theorem1", "--b", "2.5", "--n", "4", "--level", "5"))):
        first = run(capsys, *argv)
        run(capsys, *before)
        assert run(capsys, *argv) == first, argv


def test_handlers_run_on_one_blas_thread(capsys, monkeypatch, blas, request):
    caller = blas_threads(blas)
    assert caller == [2] * len(blas)
    seen = []

    def handler(args):
        seen.append(blas_threads(blas))
        if args.n == 2:
            raise ValueError("rejected")
        if args.n == 3:
            raise RuntimeError("escapes")
        return "ok\n", 0

    # the command tree binds each handler when it is built: build it anew
    # around the stand-in, and again after the stand-in is gone
    monkeypatch.setattr(cli, "_cmd_lattice", handler)
    cli._parser.cache_clear()
    request.addfinalizer(cli._parser.cache_clear)
    assert run(capsys, "lattice", "--n", "1") == (0, "ok\n", "")
    assert blas_threads(blas) == caller
    assert run(capsys, "lattice", "--n", "2") == (
        64, "", "trispec lattice: rejected\n")
    assert blas_threads(blas) == caller
    with pytest.raises(RuntimeError, match="escapes"):
        dispatch(["lattice", "--n", "3"])
    assert blas_threads(blas) == caller
    assert seen == [[1] * len(blas)] * 3


def test_without_proc_maps_handlers_run_as_they_are(capsys, monkeypatch):
    expected = run(capsys, "lattice", "--n", "2")

    def no_maps(path, *args, **kwargs):
        raise OSError(f"no such file: {path}")

    monkeypatch.setattr(cli, "open", no_maps, raising=False)
    assert cli._openblas_thread_controls() == []
    assert run(capsys, "lattice", "--n", "2") == expected


def test_output_does_not_depend_on_blas_threads(capsys, blas):
    # a level-8 scalene solve, whose last digits moved with the thread count
    argv = ("fem", "[[-1,0],[1,0],[0.3,2.1]]", "--n", "6", "--level", "8")
    set_blas_threads(blas, 1)
    one = run(capsys, *argv)
    set_blas_threads(blas, 2)
    two = run(capsys, *argv)
    assert one[0] == 0
    assert one == two


@pytest.mark.parametrize("side", ["1e90", "1e-60"])
def test_fem_values_scale_with_the_triangle(capsys, side):
    # 1e90 printed lambda s^2 = 3777 and 1e-60 raised ArpackError
    def values(leg):
        code, out, err = run(capsys, "fem", f"[[0,0],[{leg},0],[0,{leg}]]",
                             "--n", "2", "--level", "6")
        assert (code, err) == (0, "")
        return np.array(json.loads(out)["values"])

    s = float(side)
    np.testing.assert_allclose(values(side) * s * s, values("1"), rtol=1e-12)


ONE_THREAD_SCRIPT = """
import contextlib, io, json, os
import numpy as np
from scipy.linalg import blas
from trispec import cli
controls = cli._openblas_thread_controls()
if not controls or any(shutdown is None for _, _, shutdown in controls):
    print(json.dumps(None))
    raise SystemExit
for _, set_, _ in controls:
    set_(2)
caller = [get() for get, _, _ in controls]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.dispatch(["spectrum", "--n", "3"])
threads = len(os.listdir("/proc/self/task"))
after = [get() for get, _, _ in controls]
a = np.random.default_rng(0).random((400, 400))
gap = float(np.max(np.abs(a @ a - blas.dgemm(1.0, a, a))))
print(json.dumps({"code": code, "threads": threads, "caller": caller,
                  "after": after, "gap": gap}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU")
def test_dispatch_stops_the_idle_blas_threads():
    # numpy's and scipy's OpenBLAS each start worker threads at load, which
    # spun idle through every request
    proc = fresh_python("-c", ONE_THREAD_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    if seen is None:
        pytest.skip("no OpenBLAS with blas_thread_shutdown_ loaded")
    assert seen["code"] == 0
    assert seen["threads"] == 1
    assert seen["after"] == seen["caller"] == [2] * len(seen["caller"])
    # the stopped pools start again for a threaded product
    assert seen["gap"] < 1e-9


def test_module_entry_point():
    def cli(*argv):
        return fresh_python("-m", "trispec.cli", *argv)

    proc = cli("lattice", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("lam,count,lower,upper,")
    assert proc.stderr == ""
    proc = cli()
    assert proc.returncode == 64
    assert "usage" in proc.stderr


COLD_START_SCRIPT = """
import contextlib, io, json, sys
from trispec.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    codes = [dispatch(argv) for argv in (
        ["rectangle"], ["certify"],
        ["verify", "theorem1", "--n", "2", "--level", "4"])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_cold_start_loads_no_optimizer():
    proc = fresh_python("-c", COLD_START_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"][:2] == [0, 0]
    assert "scipy.optimize" not in doc["modules"]
    subpackages = {m.split(".")[1] for m in doc["modules"]
                   if m.startswith("scipy.")}
    subpackages = {m for m in subpackages if not m.startswith("_")}
    assert subpackages <= {"linalg", "sparse", "special", "version"}


LAZY_SPECIAL_SCRIPT = """
import contextlib, io, json, sys
from trispec.cli import dispatch


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return dispatch(list(argv))


codes = [run("verify", "theorem1", "--b", "2.5", "--n", "3", "--level", "5"),
         run("verify", "monotonicity", "--level", "6"),
         run("fem", "[[0,0],[1,0],[0.5,0.8]]")]
before = "scipy.special" in sys.modules
codes += [run("certify"), run("verify", "theorem2")]
print(json.dumps({"codes": codes, "before": before,
                  "after": "scipy.special" in sys.modules}))
"""


def test_only_bessel_functions_load_scipy_special():
    proc = fresh_python("-c", LAZY_SPECIAL_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc == {"codes": [0] * 5, "before": False, "after": True}


def test_fem_equilateral(capsys):
    tri = json.dumps([[0, 0], [1, 0], [0.5, SQRT3 / 2.0]])
    code, out, err = run(capsys, "fem", tri, "--n", "3", "--level", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][0] == pytest.approx(16.0 * math.pi**2 / 3.0,
                                             rel=1e-4)
    assert doc["values"][1] == pytest.approx(doc["values"][2], rel=1e-3)
    # an unreachable error demand downgrades the exit, not the output
    code2, out2, err = run(capsys, "fem", tri, "--n", "3", "--level", "6",
                           "--tol", "1e-15")
    assert code2 == 2
    assert json.loads(out2)["values"] == doc["values"]


def test_certify(capsys):
    code, out, err = run(capsys, "certify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["interval"]["lower"] > 19.35


def test_sweep_csv_and_out(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", "--alpha-min", "0.8",
                         "--alpha-max", "1.0", "--alpha-steps", "4",
                         "--scaling", "area", "--level", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# scaling: area"
    assert len(lines) == 6
    path = tmp_path / "sweep.csv"
    code2 = dispatch(["sweep", "--alpha-min", "0.8", "--alpha-max", "1.0",
                      "--alpha-steps", "4", "--scaling", "area",
                      "--level", "6", "--out", str(path)])
    capsys.readouterr()
    assert code2 == 0
    assert path.read_text() == out


def test_sweep_scalings_multiply_the_side_columns(capsys):
    def columns(scaling):
        code, out, err = run(capsys, "sweep", "--alpha-min", "0.8",
                             "--alpha-max", "1.9", "--alpha-steps", "3",
                             "--scaling", scaling, "--level", "6")
        assert code == 0
        rows = [[float(cell) for cell in line.split(",")]
                for line in out.splitlines()[2:]]
        return np.array(rows).T

    side = columns("side")
    for scaling in ("diameter", "perimeter", "area"):
        other = columns(scaling)
        np.testing.assert_array_equal(other[0], side[0])
        fac = np.array([scale_factor(a, scaling) for a in side[0].tolist()])
        for got, unit in zip(other[1:], side[1:]):
            np.testing.assert_array_equal(got, unit * fac)


def test_the_command_tree_is_built_once():
    assert cli._parser() is cli._parser()


def test_rectangle(capsys):
    code, out, err = run(capsys, "rectangle")
    assert code == 0
    doc = json.loads(out)
    phis = [c["lhs"] for c in doc["checks"]]
    assert all(p < math.pi / 4.0 for p in phis)
    assert doc["minimizers"]["lambda2"]["phi"] == pytest.approx(0.6155,
                                                                abs=1e-3)
    # an impossible safety margin must flip the verdict to fail
    code2, out2, err = run(capsys, "rectangle", "--tol", "1.0")
    assert code2 == 1
    assert json.loads(out2)["verdict"] == "fail"


def test_gamma(capsys):
    code, out, err = run(capsys, "gamma", "--b", "2.5", "--level", "6")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"b", "n", "level", "gamma_n"}
    assert 0.0 < doc["gamma_n"] < 1.0


def test_gamma_refuses_a_split_cluster(capsys):
    # ranks 2 and 3 of the equilateral fan are the cluster q = 7, 7
    code, out, err = run(capsys, "gamma", "--b", "1.7320508075688772",
                         "--n", "2", "--level", "5")
    assert code == 64 and out == ""
    assert "ranks 2 and 3 form a degenerate cluster" in err


# Fields of the x-y energy share, which vanishes on every fan triangle.
X_Y_FIELDS = ("delta_n", "better_sign", "factor_right_plus",
              "factor_right_minus")


def test_reports_carry_no_x_y_share(capsys):
    for argv in (("verify", "theorem1", "--b", "2.5", "--n", "6",
                  "--level", "5"),
                 ("gamma", "--b", "2.5", "--n", "6", "--level", "5")):
        code, out, err = run(capsys, *argv)
        assert code in (0, 2), argv
        json.loads(out)
        for field in X_Y_FIELDS:
            assert f'"{field}"' not in out, (argv, field)


def test_byte_determinism(capsys):
    a = run(capsys, "spectrum", "--n", "40")
    b = run(capsys, "spectrum", "--n", "40")
    assert a == b
    a = run(capsys, "verify", "theorem2", "--b", "2.0", "--level", "6")
    b = run(capsys, "verify", "theorem2", "--b", "2.0", "--level", "6")
    assert a == b


# The peak is VmHWM: ru_maxrss would start at the forking test process's
# peak, which exec carries over, and hide both solves under it.
TWO_SOLVES_SCRIPT = """
import contextlib, io, json
from trispec.cli import dispatch
readings = []
for triangle in ("[[-1,0],[1,0],[0.3,2.1]]", "[[0,0],[1.2,0.1],[0.4,1.5]]"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(["fem", triangle, "--n", "6", "--level", "8"])
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))
    readings.append([code, peak])
print(json.dumps(readings))
"""


def has_malloc_trim():
    try:
        return hasattr(ctypes.CDLL(None), "malloc_trim")
    except OSError:
        return False


@pytest.mark.skipif(
    not has_malloc_trim(),
    reason="the C library has no malloc_trim, so freed heap stays mapped "
           "and the peak depends on the allocator")
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak from /proc")
def test_a_second_large_solve_does_not_raise_the_peak():
    # without the release each level-8 factorization left about 11 MB of
    # heap that the next one did not reuse
    proc = fresh_python("-c", TWO_SOLVES_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    (code1, peak1), (code2, peak2) = json.loads(proc.stdout)
    assert code1 == code2 == 0
    assert peak2 - peak1 < 3 * 1024  # KiB
