"""Checks of taximeasure's outputs against the references in each operation.

check_inprocess (for a whole round of outputs) and check_cli (for one CLI
process) give the operations that failed, with reasons, and the correct
significant digits of every operation that passed a check against a
reference value.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import refs

# One relative tolerance for every magnitude: quadrature against a
# reference, and the lam / lam^2 / lam^3 scale law.  It is the quadrature's
# own rel_tol (1e-9) with a factor 10 of headroom, and it is never widened.
REL_TOL = 1e-8
# Oracle sums that are exact in exact arithmetic (polyline on monotone spans,
# frustum on linear spans) differ from the reference by rounding only.
EXACT_TOL = 1e-11
# Observed convergence order of the midpoint disk sum.
ORDER_RANGE = (1.8, 2.2)
# Values printed by the CLI's text output carry 10 significant digits.
PRINT_TOL = 1e-9

POWER = {"arclength": 1, "surface": 2, "volume": 3}
_NONFINITE = re.compile(r"\b(inf|nan|infinity)\b", re.IGNORECASE)


def rel_err(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref != 0.0 else math.inf


def digits(err: float) -> float:
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))


def _is_number(v) -> bool:
    return isinstance(v, float) and math.isfinite(v)


def _order(e1: float, e2: float, ratio: float) -> float:
    if e1 <= 0.0 or e2 <= 0.0:
        return math.nan
    return math.log(e1 / e2) / math.log(ratio)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def _check_value(op, out, tol, fails, good):
    if not _is_number(out):
        fails[op["id"]] = f"no value: {out!r}"
        return
    e = rel_err(out, op["ref"])
    if e > tol:
        fails[op["id"]] = f"relative error {e:.3g} against reference {op['ref']!r}"
    else:
        good[op["id"]] = digits(e)


def _check_table(op, out, fails, good):
    if not isinstance(out, list) or not out:
        fails[op["id"]] = f"no table: {out!r}"
        return
    ref = op["ref"]
    reference = out[0][2]
    e = rel_err(reference, ref)
    if e > REL_TOL:
        fails[op["id"]] = f"table reference error {e:.3g}"
        return
    if [row[0] for row in out] != op["ns"]:
        fails[op["id"]] = "table rows do not match ns"
        return
    for n, oracle, row_ref, abs_error in out:
        if row_ref != reference or abs_error != abs(oracle - reference):
            fails[op["id"]] = f"row n={n} is inconsistent"
            return
    if op["quantity"] == "volume":
        for (n1, o1, _, _), (n2, o2, _, _) in zip(out, out[1:]):
            p = _order(abs(o1 - ref), abs(o2 - ref), n2 / n1)
            if not ORDER_RANGE[0] <= p <= ORDER_RANGE[1]:
                fails[op["id"]] = f"observed order {p:.3f} between n={n1} and n={n2}"
                return
    else:
        worst = max(rel_err(row[1], ref) for row in out)
        if worst > EXACT_TOL:
            fails[op["id"]] = f"exact oracle off by {worst:.3g}"
            return
    good[op["id"]] = digits(e)


def check_inprocess(ops, outputs):
    """outputs[i] is the output of ops[i]: a float, a table (list of rows) or
    ["error", type, message]."""
    fails: dict[str, str] = {}
    good: dict[str, float] = {}
    by_id = dict(zip((op["id"] for op in ops), outputs))
    for op, out in zip(ops, outputs):
        if isinstance(out, list) and out and out[0] == "error":
            fails[op["id"]] = f"{out[1]}: {out[2][:160]}"
            continue
        if op["kind"] == "measure":
            _check_value(op, out, REL_TOL, fails, good)
        elif op["kind"] == "table":
            _check_table(op, out, fails, good)
        elif op.get("check") == "exact":
            _check_value(op, out, EXACT_TOL, fails, good)
        elif not _is_number(out):
            fails[op["id"]] = f"no value: {out!r}"

    # Scale law against the same input at lam = 1.
    base = {op["group"]: by_id[op["id"]] for op in ops
            if op.get("group") and op.get("lam") == 1.0}
    for op in ops:
        group, lam = op.get("group"), op.get("lam")
        if not group or lam == 1.0 or op["id"] in fails or not _is_number(base.get(group)):
            continue
        expect = base[group] * lam ** POWER[op["quantity"]]
        e = rel_err(by_id[op["id"]], expect)
        if e > REL_TOL:
            fails[op["id"]] = f"scale law off by {e:.3g} at lam={lam:g}"
            good.pop(op["id"], None)

    # Observed order of the midpoint disk sum over each (n, 2n) pair.
    pairs: dict[str, list] = {}
    for op in ops:
        if op.get("check") == "order":
            pairs.setdefault(op["pair"], []).append(op)
    for members in pairs.values():
        a, b = sorted(members, key=lambda o: o["n"])
        if a["id"] in fails or b["id"] in fails:
            continue
        p = _order(abs(by_id[a["id"]] - a["ref"]), abs(by_id[b["id"]] - b["ref"]),
                   b["n"] / a["n"])
        if not ORDER_RANGE[0] <= p <= ORDER_RANGE[1]:
            for o in (a, b):
                fails[o["id"]] = f"observed order {p:.3f}"
    return fails, good


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _verify_references() -> dict:
    """Closed form of every case that `taximeasure verify` prints."""
    out = {}
    for r in (1.0, 2.5):
        for kind in ("taxicab_quadrant", "euclidean_quadrant", "euclidean_parabola"):
            out[("arclength", f"{kind}_r{r:g}")] = 2.0 * r
    out[("arclength", "taxicab_halfcircle_r1")] = 4.0
    for r in (0.5, 1.0, 2.0):
        p = {"r": r}
        out[("surface", f"sphere_r{r:g}")] = refs.shape_closed_form("sphere", "surface", p)
        out[("volume", f"sphere_r{r:g}")] = refs.shape_closed_form("sphere", "volume", p)
    out[("surface", "cylinder_r1_h2")] = refs.shape_closed_form(
        "cylinder", "surface", {"r": 1.0, "h": 2.0})
    for r, h in ((1.0, 1.0), (2.0, 3.0), (1.0, 2.0), (0.5, 4.0)):
        out[("volume", f"cylinder_r{r:g}_h{h:g}")] = refs.shape_closed_form(
            "cylinder", "volume", {"r": r, "h": h})
    for a, h in ((1.0, 3.0), (1.0, 1.0), (2.0, 5.0)):
        for q in ("surface", "volume"):
            out[(q, f"paraboloid_a{a:g}_h{h:g}")] = refs.shape_closed_form(
                "paraboloid", q, {"a": a, "h": h})
    for label, (a, b, s) in (("circle", (1.0, 1.0, 2.0)), ("hexagon", (2.0, 1.0, 4.0)),
                             ("octagon", (2.0, 1.5, 5.0))):
        for q in ("surface", "volume"):
            out[("ellipsoid", f"ellipsoid_{q}_{label}")] = refs.shape_closed_form(
                "ellipsoid", q, {"a": a, "b": b, "s": s})
    return out


def _check_verify(stdout: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    expected = _verify_references()
    seen = {(row["suite"], row["case"]) for row in rows}
    if seen != set(expected):
        return f"verify cases differ: missing {sorted(set(expected) - seen)[:3]}, " \
               f"extra {sorted(seen - set(expected))[:3]}"
    for row in rows:
        ref = expected[(row["suite"], row["case"])]
        if row["pass"] != "true":
            return f"verify case {row['case']} did not pass"
        if rel_err(float(row["analytic"]), ref) > PRINT_TOL:
            return f"verify case {row['case']}: analytic {row['analytic']} != {ref!r}"
        if abs(float(row["quadrature"]) - ref) > 1e-8 + PRINT_TOL * abs(ref):
            return f"verify case {row['case']}: quadrature {row['quadrature']} != {ref!r}"
    return None


def _midpoint_bound(op) -> tuple[float, float]:
    """Interval that the midpoint disk sum of a piecewise-linear profile must
    lie in: on a segment of slope m the midpoint rule for 2 f^2 falls short by
    m^2 dx^3 / 6 per cell, so the whole sum falls short of the exact volume by
    at most max(m^2) W h^2 / 6 with h = W / n."""
    verts = refs.catalog_vertices(op["profile"]["name"], op["profile"]["params"])
    w = verts[-1][0] - verts[0][0]
    m2 = max(((y1 - y0) / (x1 - x0)) ** 2 for (x0, y0), (x1, y1) in zip(verts, verts[1:]))
    short = m2 * w * (w / op["n"]) ** 2 / 6.0
    ref = op["ref"]
    slack = 1e-12 * abs(ref)
    return ref - short * (1.0 + 1e-6) - slack, ref + slack


def check_cli(op, code: int, stdout: str, stderr: str):
    """(reason it failed or None, digits or None) for one CLI process."""
    if "Traceback" in stderr:
        return f"exit {code} with a traceback", None
    if code not in (0, 2, 3, 4, 5):
        return f"undocumented exit code {code}", None
    if code == 0 and _NONFINITE.search(stdout):
        return "non-finite value printed with exit 0", None
    check = op["check"]
    if check == "exit":
        if code != op["exit"]:
            return f"exit {code}, expected {op['exit']}", None
        if not stderr.startswith("error: "):
            return "no error message on stderr", None
        return None, None
    if check == "finite_or_error":
        return None, None
    if code != 0:
        return f"exit {code}: {stderr.strip()[:160]}", None
    if check == "verify":
        return _check_verify(stdout), None
    if check == "table":
        rows = list(csv.reader(io.StringIO(stdout)))[1:]
        ns = [int(r[0]) for r in rows]
        vals = [float(r[1]) for r in rows]
        reference = float(rows[0][2])
        ref = op["ref"]
        if rel_err(reference, ref) > PRINT_TOL:
            return f"table reference {reference!r} != {ref!r}", None
        if op["quantity"] == "volume":
            for n1, n2, o1, o2 in zip(ns, ns[1:], vals, vals[1:]):
                p = _order(abs(o1 - ref), abs(o2 - ref), n2 / n1)
                if not ORDER_RANGE[0] <= p <= ORDER_RANGE[1]:
                    return f"observed order {p:.3f} between n={n1} and n={n2}", None
        elif max(rel_err(v, ref) for v in vals) > PRINT_TOL:
            return "exact oracle rows differ from the reference", None
        return None, None

    report = json.loads(stdout)
    key = "analytic" if check in ("shape", "shape_oracle") else "quadrature"
    value = report.get(key)
    if not _is_number(value):
        return f"no {key} value", None
    tol = REL_TOL if key == "quadrature" else 1e-12
    e = rel_err(value, op["ref"])
    if e > tol:
        return f"{key} relative error {e:.3g}", None
    if check == "shape_oracle":
        oracle = report.get("oracle")
        if not _is_number(oracle):
            return "no oracle value", None
        if op["quantity"] == "volume":
            lo, hi = _midpoint_bound(op)
            if not lo <= oracle <= hi:
                return f"disk oracle {oracle!r} outside [{lo!r}, {hi!r}]", None
        elif rel_err(oracle, op["ref"]) > EXACT_TOL:
            return f"exact oracle off by {rel_err(oracle, op['ref']):.3g}", None
    return None, digits(e)
