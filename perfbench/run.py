"""trispec benchmark: time to verdict per workload, from cold workers.

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload theorem1 aperture_sweep fine_certify \
        --seed 1 --seconds 40 --trace 0

Run from the root of a trispec checkout.  Each pass starts a fresh worker
process (perfbench/worker.py) with `src` on its path, so imports and solver
caches are cold as they are for a CLI user; passes run one at a time, as
many as bring the run nearest --seconds.  Every output is checked
(workloads.py).

--trace 0 reports the end-to-end metrics (medians over passes).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
from the traced ones (tracing.py), plus the tracing overhead; traced output
must be byte-identical to untraced output.  Lines starting with '#' are a
human-readable summary with the run metadata; the last line is the result.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT = 170  # a whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, nargs="+",
                   choices=sorted(workloads.GENERATORS),
                   help="one or more; each prints its own result line")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_pass(requests, trace_path=None, timeout=WORKER_TIMEOUT):
    """Run one worker to completion; return its result dict, or None."""
    job = json.dumps({"spawned": time.clock_gettime(time.CLOCK_MONOTONIC),
                      "requests": requests,
                      "trace": None if trace_path is None else str(trace_path)})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=job,
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    out = json.loads(proc.stdout)
    if trace_path is not None:
        out["spans"] = tracing.read_jsonl(trace_path)
        trace_path.unlink()
    return out


def _digest(result):
    return hashlib.sha256(
        f"{result['code']}\0{result['stdout']}".encode()).hexdigest()


def check_passes(workload, requests, passes):
    """Count failed requests; return (attempted, failed, exact_rel_err)."""
    attempted = failed = 0
    exact = []
    memo = {}
    reference = None
    for p in passes:
        attempted += len(requests)
        if p is None:
            failed += len(requests)
            continue
        digests = [_digest(r) for r in p["results"]]
        for i, (argv, r, d) in enumerate(zip(requests, p["results"],
                                             digests)):
            if (i, d) not in memo:
                try:
                    if r["error"] is not None:
                        raise workloads.CheckError(r["error"])
                    memo[i, d] = (True, workloads.check(
                        workload, i, argv, r["stdout"], r["code"]))
                except (workloads.CheckError, ValueError, KeyError,
                        IndexError, TypeError) as exc:
                    print(f"request {i} {argv[:2]} failed: {exc}",
                          file=sys.stderr)
                    memo[i, d] = (False, None)
            ok, err = memo[i, d]
            # Every pass, traced or not, must print the same bytes.
            same = reference is None or d == reference[i]
            if not same:
                print(f"request {i} output differs between passes",
                      file=sys.stderr)
            failed += not (ok and same)
            if err is not None:
                exact.append(err)
        reference = reference or digests
    return attempted, failed, max(exact) if exact else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _timing_line(name, values, unit):
    return (f"# {name} = {statistics.median(values):.6g} {unit} "
            f"(median of {len(values)} passes; max {max(values):.6g})")


def run_workload(workload, seed, seconds, trace):
    """Run passes of one workload, print its summary and result lines."""
    requests = workloads.requests(workload, seed)
    passes, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        want_trace = bool(trace) and len(passes) % 2 == 1
        trace_path = (OUT / f"spans-{os.getpid()}-{len(passes)}.jsonl"
                      if want_trace else None)
        result = run_pass(requests, trace_path,
                          WORKER_TIMEOUT - (t0 - start))
        durations.append(time.perf_counter() - t0)
        passes.append(result)
        traced.append(want_trace)
        if result is None:
            break
        if trace and len(passes) < 2:
            continue
        # Stop where the run length is nearest `seconds`: another pass
        # starts only if at least half of it fits.
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) / 2 > seconds:
            break

    attempted, failed, exact_err = check_passes(workload, requests, passes)
    ok = [p for p in passes if p is not None]
    plain = [p for p, t in zip(passes, traced) if p is not None and not t]
    with_trace = [p for p, t in zip(passes, traced) if p is not None and t]

    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "passes": len(passes),
            "traced_passes": len(with_trace),
            "requests_per_pass": len(requests),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "commit": _commit()}
    if ok:
        meta.update(ok[0]["versions"], trispec=ok[0]["trispec"])
    print("# meta " + json.dumps(meta, sort_keys=True))

    metrics = {}
    if plain and not trace:
        for name, unit in END_TO_END_UNITS.items():
            values = [p[name] for p in (ok if name == "setup_s" else plain)]
            print(_timing_line(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    elif plain and with_trace:
        layers = tracing.median_metrics(
            [tracing.layer_metrics(p["spans"]) for p in with_trace])
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in with_trace)
            - statistics.median(p["wall_s"] for p in plain))
        print(_timing_line("wall_s untraced", [p["wall_s"] for p in plain],
                           "s"))
        print(_timing_line("wall_s traced",
                           [p["wall_s"] for p in with_trace], "s"))
        for name, unit in tracing.PER_LAYER_UNITS.items():
            print(f"# {name} = {layers[name]:.6g} {unit}")
            metrics[name] = {"value": layers[name], "unit": unit}
    print(f"# failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} requests)")
    if exact_err is not None:
        print(f"# exact_rel_err = {exact_err:.6g} ratio")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def main(argv=None):
    args = _args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "trispec" / "cli.py").is_file():
        print(f"no trispec sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for workload in args.workload:
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
