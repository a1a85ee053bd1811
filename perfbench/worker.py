"""Measuring process for the in-process workloads (quad_solve, oracle_sweep).

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py PLAN.json RESULT.json --seconds S [--trace]
    python3 perfbench/worker.py PLAN.json --setup-only

It imports taximeasure from the checkout's src/ directory, builds every input
through the package's own constructors, then runs whole rounds over the
operation list for about --seconds (at least one round), timing each call on
its own.  With --trace it runs untraced rounds for half the time,
installs the wrappers from tracing.py, builds the inputs again and runs
traced rounds for the other half.

The result file holds, per round, each operation's time and output, plus the
process's peak resident set.  Checking the outputs is run.py's job.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_package():
    if not os.path.isfile(os.path.join(SRC, "taximeasure", "__init__.py")):
        raise SystemExit(f"taximeasure sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import taximeasure
    from taximeasure import measures, oracles, profiles, shapes

    if not os.path.abspath(taximeasure.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported taximeasure from {taximeasure.__file__}, not from {SRC}")
    return {"profiles": profiles, "shapes": shapes, "measures": measures, "oracles": oracles}


def build_profile(mods, spec):
    """A profile from the plan's plain-data description, through the
    package's constructors."""
    profiles, shapes = mods["profiles"], mods["shapes"]
    if "shape" in spec:
        return shapes.revolution_profile(shapes.parse_shape_spec(spec))
    if "sin" in spec:
        import numpy as np

        from taximeasure.geometry import Interval

        s, L, lam = spec["sin"]

        def evaluate(x):
            return lam * s * (np.sin(x / lam) + 1.5)

        def derivative(x):
            return s * np.cos(x / lam)

        return profiles.ProfileFunction(evaluate, derivative, Interval(0.0, lam * L),
                                        label=f"sin(s={s}, L={L}, lam={lam})")
    return profiles.parse_profile_spec(spec)


_MEASURES = {"arclength": "arclength_functional", "surface": "surface_of_revolution",
             "volume": "volume_of_revolution"}
_ORACLES = {"arclength": "polyline_arclength_oracle", "surface": "frustum_surface_oracle",
            "volume": "disk_volume_oracle"}


def build_ops(mods, plan):
    """One zero-argument callable per operation.  Functions are looked up on
    their module at call time, so installed wrappers take effect."""
    measures, oracles = mods["measures"], mods["oracles"]
    built = {}
    calls = []
    for op in plan["ops"]:
        key = json.dumps(op["profile"], sort_keys=True)
        if key not in built:
            built[key] = build_profile(mods, op["profile"])
        prof = built[key]
        q = op["quantity"]
        if op["kind"] == "measure":
            calls.append(lambda p=prof, name=_MEASURES[q]: getattr(measures, name)(p))
        elif op["kind"] == "oracle":
            calls.append(lambda p=prof, name=_ORACLES[q], n=op["n"]:
                         getattr(oracles, name)(p, n=n))
        elif op["kind"] == "table":
            calls.append(lambda p=prof, q=q, ns=tuple(op["ns"]):
                         [list(row) for row in oracles.convergence_table(q, p, None, ns)])
        else:
            raise SystemExit(f"unknown op kind {op['kind']!r}")
    return calls


# CPython 3.11 keeps frames in 16 KiB chunks and frees a chunk as soon as the
# frame that opened it returns, so a recursion (the adaptive Simpson) that
# keeps crossing a chunk boundary pays an mmap/munmap pair per crossing.
# Where the boundary falls depends on the caller's stack depth: one solve
# took 0.3 s at one depth and 2.8 s a few frames deeper.  Each round is
# therefore run from a different depth, stepping through about one chunk
# (16 steps of 10 frames of ~100 bytes), so that an operation's median does
# not hang on the depth this file happens to call from.
PAD_STEPS = 16
PAD_FRAMES_PER_STEP = 10


def _at_depth(frames: int, fn):
    if frames == 0:
        return fn()
    return _at_depth(frames - 1, fn)


def _round(calls, errors):
    clock = time.perf_counter
    row_t, row_o = [], []
    for call in calls:
        t0 = clock()
        try:
            out = call()
        except errors as exc:
            out = ["error", type(exc).__name__, str(exc)]
        row_t.append(clock() - t0)
        row_o.append(out)
    return row_t, row_o


def run_rounds(calls, errors, seconds: float):
    """Whole rounds over calls: at least one, and another only while it is
    expected to end within seconds of the start."""
    times: list[list[float]] = []
    outputs: list[list] = []
    t_start = time.perf_counter()
    while True:
        depth = len(times) % PAD_STEPS * PAD_FRAMES_PER_STEP
        row_t, row_o = _at_depth(depth, lambda: _round(calls, errors))
        times.append(row_t)
        outputs.append(row_o)
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(times) + 1) / len(times) > seconds:
            return times, outputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result", nargs="?")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    mods = import_package()
    calls = build_ops(mods, plan)
    if args.setup_only:
        return 0

    from taximeasure.errors import TaximeasureError

    errors = (TaximeasureError, ArithmeticError, ValueError, MemoryError)
    result = {}
    if not args.trace:
        result["times"], result["outputs"] = run_rounds(calls, errors, args.seconds)
    else:
        import tracing

        half = args.seconds / 2.0
        result["times"], result["outputs"] = run_rounds(calls, errors, half)
        tracer = tracing.Tracer()
        tracing.install(tracer, mods)
        traced_calls = build_ops(mods, plan)
        setup_spans = len(tracer.spans)
        base = tracer.counters()
        t_times, t_outputs = run_rounds(traced_calls, errors, half)
        result["traced_times"], result["traced_outputs"] = t_times, t_outputs
        counters = tracer.counters()
        result["trace"] = {
            "setup": tracing.layer_totals(tracer.spans[:setup_spans]),
            "rounds": tracing.layer_totals(
                [[n, a, b, p - setup_spans if p >= 0 else -1, e]
                 for n, a, b, p, e in tracer.spans[setup_spans:]]),
            "counters": {k: counters[k] - base[k] for k in counters},
        }
        spans_path = os.path.splitext(args.result)[0] + ".spans.jsonl"
        tracer.dump(spans_path)
        result["spans_file"] = spans_path
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
