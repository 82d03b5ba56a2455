"""End-to-end tests of the command-line surface."""

import collections
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trispec import fem
from trispec.cli import dispatch
from trispec.equilateral import enumerate_modes

SQRT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


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
    code, out, err = run(capsys, "spectrum", "--n", "0")
    assert code == 64
    assert "--n" in err


def test_deep_validation_error(capsys):
    code, out, err = run(capsys, "verify", "theorem2", "--b", "1.0")
    assert code == 64
    assert "sqrt(3)" in err


def test_spectrum_matches_table(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "12", "--class", "antisym")
    assert code == 0
    assert out == enumerate_modes(12, "antisym").to_csv()
    first = out.splitlines()[1].split(",")
    assert first[:4] == ["1", "2", "1", "7"]


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


def test_verify_exit_codes(capsys):
    code, out, err = run(capsys, "verify", "condch")
    assert code == 0
    # equality endpoint: margin sits inside the error bar by design
    code, out, err = run(capsys, "verify", "theorem1",
                         "--b", repr(SQRT3), "--n", "1", "--level", "6")
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"


def test_theorem1_solves_each_problem_once(capsys, monkeypatch):
    monkeypatch.setattr(fem, "_SOLVE_CACHE", collections.OrderedDict())
    counts = {"solve_lowest": 0, "assemble": 0}

    def counting(name):
        original = getattr(fem, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(fem, name, counting(name))
    code, out, err = run(capsys, "verify", "theorem1", "--b", "2.5",
                         "--n", "3", "--level", "5")
    assert code == 0
    # one solve and one assembly per level, at the largest k requested
    assert counts == {"solve_lowest": 2, "assemble": 2}
    assert [case["n"] for case in json.loads(out)["checks"]] == [1, 2, 3]


def test_module_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "trispec.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    proc = cli("lattice", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("lam,count,lower,upper,")
    assert proc.stderr == ""
    proc = cli()
    assert proc.returncode == 64
    assert "usage" in proc.stderr


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
    assert 0.0 < doc["gamma_n"] < 1.0
    assert abs(doc["delta_n"]) < 1e-10  # isosceles symmetry kills the cross term


def test_byte_determinism(capsys):
    a = run(capsys, "spectrum", "--n", "40")
    b = run(capsys, "spectrum", "--n", "40")
    assert a == b
    a = run(capsys, "verify", "theorem2", "--b", "2.0", "--level", "6")
    b = run(capsys, "verify", "theorem2", "--b", "2.0", "--level", "6")
    assert a == b
