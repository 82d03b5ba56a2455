"""A new interpreter for tests that need a cold process."""

import os
import subprocess
import sys
from pathlib import Path


def fresh_python(*args):
    """Run a new interpreter that imports trispec from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)
