"""One pass of a workload in a fresh process, so trispec's caches start cold.

Reads a JSON job from stdin: {"spawned": <CLOCK_MONOTONIC at spawn>,
"requests": [argv, ...], "trace": <JSONL path or null>}.  Imports trispec,
feeds each argv through `trispec.cli.dispatch` with stdout captured, and
writes one JSON object to stdout: set-up, wall and CPU time, peak RSS, the
library versions, and each request's exit code, output or exception.
"""

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy
import scipy
import trispec.cli

# Everything above is the set-up a CLI user pays on each invocation.
_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas(pkg):
    """BLAS name, version and thread count as `pkg` was built and loaded."""
    info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                          pkg.__name__ + ".libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in _THREAD_SYMBOLS:
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _cpu_seconds():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def run(job):
    tracer = None
    if job["trace"] is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for i, argv in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = i
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = trispec.cli.dispatch(argv)
            results.append({"code": code, "stdout": buf.getvalue(),
                            "error": None})
        except Exception:  # a raising request is a failed one; go on
            results.append({"code": None, "stdout": buf.getvalue(),
                            "error": traceback.format_exc()})
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(job["trace"])
    return {
        "setup_s": _READY - job["spawned"],
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trispec": os.path.dirname(trispec.__file__),
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas_numpy": _blas(numpy), "blas_scipy": _blas(scipy)},
        "results": results,
    }


if __name__ == "__main__":
    out = run(json.load(sys.stdin))
    sys.stdout.write(json.dumps(out) + "\n")
