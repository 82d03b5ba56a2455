"""Fast tests of the benchmark itself (no solve above level 6).

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

SMALL = [
    ["verify", "theorem1", "--b", "2.5", "--n", "2", "--level", "5"],
    ["fem", json.dumps([[0, 0], [0.8, 0], [0.4, 0.4 * math.sqrt(3)]]),
     "--n", "3", "--level", "5"],
    ["sweep", "--alpha-steps", "3", "--level", "6"],
    ["certify"],
    ["lattice", "--n", "20"],
    ["fem", "[[0, 0]]"],
    ["verify"],
]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_requests_are_deterministic_in_the_seed(workload):
    assert workloads.requests(workload, 7) == workloads.requests(workload, 7)
    assert workloads.requests(workload, 7) != workloads.requests(workload, 8)


def test_generated_inputs_stay_in_their_ranges():
    for seed in range(50):
        heights = [float(r[3]) for r in workloads.requests("theorem1", seed)]
        assert all(abs(b - base) <= workloads.THEOREM1_NUDGE
                   for b, base in zip(heights, workloads.THEOREM1_APEXES))
        (sweep,) = workloads.requests("aperture_sweep", seed)
        lo, hi = float(sweep[5]), float(sweep[7])
        assert math.pi / 6 <= lo < hi <= 2 * math.pi / 3 + 1e-15
        assert (hi - lo) / (int(sweep[9]) - 1) <= workloads.MAX_SPACING
        tri = json.loads(workloads.requests("fine_certify", seed)[2][1])
        sides = [math.dist(tri[i], tri[(i + 1) % 3]) for i in range(3)]
        assert max(sides) - min(sides) < 1e-9


def test_equilateral_qs():
    assert workloads.equilateral_qs(8) == [3, 7, 7, 12, 13, 13, 19, 19]


def test_layer_metrics_self_time_and_ratios():
    spans = [
        {"name": "fem.solve_extrapolated", "start": 0.0, "end": 10.0,
         "parent": None, "attrs": None},
        {"name": "fem.solve_lowest", "start": 1.0, "end": 9.0, "parent": 0,
         "attrs": {"problem": [[0.0], 5, [0, 1, 2]]}},
        {"name": "fem.eigsh", "start": 2.0, "end": 7.0, "parent": 1,
         "attrs": {"dofs": 100}},
        {"name": "fem.solve_lowest", "start": 9.0, "end": 9.5, "parent": 0,
         "attrs": {"problem": [[0.0], 5, [0, 1, 2]]}},
    ]
    m = tracing.layer_metrics(spans)
    assert m["fem.solve_lowest.calls"] == 2
    assert m["fem.distinct_problems"] == 1
    assert m["fem.solve_useful_ratio"] == 0.5
    assert m["fem.lookup_hit_ratio"] == 0.0
    assert m["fem.solve_lowest.self_s"] == pytest.approx(3.5)
    assert m["fem.eigsh.dofs_per_s"] == pytest.approx(20.0)
    assert set(m) | {"trace.overhead_s"} == set(tracing.PER_LAYER_UNITS)


def test_install_and_uninstall_restore_every_name():
    sys.path.insert(0, str(run.ROOT / "src"))
    import trispec.cli as cli
    import trispec.fem as fem

    originals = (fem.solve_lowest, fem.eigsh, cli.solve_extrapolated,
                 cli.to_json)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fem.solve_lowest is not originals[0]
        assert fem.eigsh is not originals[1]
        assert cli.solve_extrapolated is fem.solve_extrapolated
    finally:
        tracer.uninstall()
    assert (fem.solve_lowest, fem.eigsh, cli.solve_extrapolated,
            cli.to_json) == originals


def test_wrappers_leave_outputs_and_exit_codes_unchanged(tmp_path):
    plain = run.run_pass(SMALL)
    traced = run.run_pass(SMALL, tmp_path / "spans.jsonl")
    assert plain is not None and traced is not None
    codes = [r["code"] for r in plain["results"]]
    assert codes == [0, 0, 0, 0, 0, 64, 64]
    assert [(r["code"], r["stdout"]) for r in traced["results"]] == \
        [(r["code"], r["stdout"]) for r in plain["results"]]
    names = {s["name"] for s in traced["spans"]}
    assert {"fem.solve_lowest", "fem.eigsh", "fem.rayleigh_data",
            "certify.boundary_sup", "isosceles.sweep",
            "equilateral.counting_exact", "reports.to_json"} <= names
    assert all(s["request"] in range(len(SMALL)) for s in traced["spans"])


def test_checks_accept_real_output_and_reject_tampered_output():
    equilateral = SMALL[1]
    result = run.run_pass([equilateral])["results"][0]
    err = workloads._check_fem_equilateral(equilateral, result["stdout"], 0)
    assert 0 < err < 1e-3
    out = json.loads(result["stdout"])
    out["values"][0] *= 1.01
    with pytest.raises(workloads.CheckError):
        workloads._check_fem_equilateral(equilateral, json.dumps(out), 0)
    with pytest.raises(workloads.CheckError):
        workloads._check_fem_equilateral(equilateral, result["stdout"], 2)


def test_lattice_check_recounts_independently():
    argv = SMALL[4]
    text = run.run_pass([argv])["results"][0]["stdout"]
    workloads._check_lattice(argv, text, 0)
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[1] = str(int(fields[1]) + 1)
    lines[5] = ",".join(fields)
    with pytest.raises(workloads.CheckError):
        workloads._check_lattice(argv, "\n".join(lines) + "\n", 0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_level_profile_splits_one_solve():
    import profile_levels

    row = profile_levels.profile((5,), 1)[5]
    assert row["dofs"] == 31 * 30 // 2
    assert row["fem.eigsh"] > 0 and row["self"] > 0
    assert row["total"] > row["fem.eigsh"] + row["fem.assemble"]
