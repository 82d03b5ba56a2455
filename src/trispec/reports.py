"""Uniform shape for verification reports.

Every check in this package reports the same way: a claim string, the two
compared values, a margin measured into the passing region, and a verdict.
Checks backed by FEM values carry an error estimate and use a three-sigma
style policy: pass only when the margin clears 3x the estimate, fail only
when it is violated by more than 3x, inconclusive in between.  Exact
(integer or closed-form) checks pass strictly.
"""

import json

__all__ = ["make_report", "combine", "to_json"]

_MODES = (">", ">=", "<", "<=", "==")


def _clean(x):
    """Coerce numpy scalars to plain Python numbers, keep ints exact."""
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return x
    if hasattr(x, "item"):
        x = x.item()
    return float(x) if isinstance(x, float) else x


def make_report(claim, lhs, rhs, mode=">", tol=0.0, fem_err=0.0, branch=None, **extra):
    """Build one verification report dict.

    mode is the asserted relation lhs REL rhs ('==' uses tol).  margin is
    positive inside the passing region.  A positive fem_err switches to the
    3x-margin policy and can yield verdict 'inconclusive'.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown comparison mode {mode!r}")
    lhs, rhs = _clean(lhs), _clean(rhs)
    if mode in (">", ">="):
        margin = lhs - rhs
    elif mode in ("<", "<="):
        margin = rhs - lhs
    else:
        margin = tol - abs(lhs - rhs)
    if fem_err > 0.0 and mode != "==":
        if margin >= 3.0 * fem_err:
            verdict = "pass"
        elif margin <= -3.0 * fem_err:
            verdict = "fail"
        else:
            verdict = "inconclusive"
    else:
        if mode in (">", "<"):
            verdict = "pass" if margin > 0 else "fail"
        else:
            verdict = "pass" if margin >= 0 else "fail"
    rep = {
        "claim": claim,
        "branch": branch,
        "lhs": lhs,
        "rhs": rhs,
        "mode": mode,
        "margin": _clean(margin),
        "verdict": verdict,
    }
    if fem_err > 0.0:
        rep["fem_error"] = float(fem_err)
    for key, val in extra.items():
        rep[key] = _clean(val)
    return rep


def combine(claim, checks, branch=None, **extra):
    """Roll subreports into one: fail dominates, then inconclusive.

    A report that rests on a heuristic check is heuristic too: it ends with
    heuristic=True when any check carries it, unless the caller passes its
    own heuristic value.
    """
    verdicts = [c["verdict"] for c in checks]
    if "fail" in verdicts:
        verdict = "fail"
    elif "inconclusive" in verdicts:
        verdict = "inconclusive"
    else:
        verdict = "pass"
    rep = {"claim": claim, "branch": branch, "verdict": verdict, "checks": checks}
    for key, val in extra.items():
        rep[key] = _clean(val)
    if "heuristic" not in rep and any(c.get("heuristic") for c in checks):
        rep["heuristic"] = True
    return rep


def to_json(report):
    """Serialize a report (or any nested dict) deterministically.

    NaN and infinities are refused (ValueError): JSON has no such numbers.
    """
    return json.dumps(report, indent=2, sort_keys=False, allow_nan=False)
