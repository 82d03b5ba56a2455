"""Per-level profile of one FEM solve, split by layer.

    python3 perfbench/profile_levels.py

Meshes T(0, 2.5) and solves its lowest six Dirichlet modes at each level
with the tracing wrappers installed, then prints a markdown table of the
medians over repeats: free DOFs, mesh, assemble, eigsh, the residual-only
mass LU (splu), the rest of solve_lowest (restriction, Gram/Cholesky,
residual products) and the total.  Run from the root of a checkout.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import trispec.fem as fem  # noqa: E402
from trispec.geometry import FanTriangle  # noqa: E402

from tracing import Tracer  # noqa: E402

APEX = 2.5
K = 6
LEVELS = (6, 7, 8, 9)  # level 9 repeated within 4 % on 2 CPUs
REPEATS = 3
COLUMNS = ("fem.mesh_triangle", "fem.assemble", "fem.eigsh", "fem.splu")


def profile(levels, repeats):
    """{level: {"dofs": n, <span name>: median s, "self": s, "total": s}}."""
    tracer = Tracer()
    tracer.install()
    try:
        for level in levels:
            for rep in range(repeats):
                tracer.request = (level, rep)
                mesh = fem.mesh_triangle(FanTriangle(0.0, APEX).triangle,
                                         level)
                fem.solve_lowest(mesh, K)
    finally:
        tracer.uninstall()
    rows = {}
    for level in levels:
        per_rep = []
        for rep in range(repeats):
            spans = [s for s in tracer.spans if s[4] == (level, rep)]
            times = {name: sum(s[2] - s[1] for s in spans if s[0] == name)
                     for name in COLUMNS + ("fem.solve_lowest",)}
            times["self"] = times["fem.solve_lowest"] - sum(
                times[n] for n in COLUMNS[1:])
            times["total"] = times["fem.solve_lowest"] \
                + times["fem.mesh_triangle"]
            per_rep.append(times)
        row = {k: statistics.median(t[k] for t in per_rep) for k in per_rep[0]}
        row["dofs"] = next(s[5]["dofs"] for s in tracer.spans
                           if s[0] == "fem.eigsh" and s[4] == (level, 0))
        rows[level] = row
    return rows


def _ms(seconds):
    return f"{seconds * 1e3:.0f} ms" if seconds < 1 else f"{seconds:.2f} s"


def main():
    rows = profile(LEVELS, REPEATS)
    print(f"solve_lowest on T(0, {APEX}) with k = {K}, median of "
          f"{REPEATS}:\n")
    print("| level | free DOFs | mesh | assemble | eigsh | mass LU "
          "(residuals only) | rest of solve_lowest | total |")
    print("|---|---|---|---|---|---|---|---|")
    for level, r in rows.items():
        print(f"| {level} | {r['dofs']} | " + " | ".join(
            _ms(r[k]) for k in COLUMNS + ("self", "total")) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
