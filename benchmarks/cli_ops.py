#!/usr/bin/env python3
"""Compare two checkouts on the cold CLI processes of perfbench's cli_cold.

    python3 benchmarks/cli_ops.py --parent DIR --change DIR [--seed 401]
        [--reps 7] [--check-seeds 400-409[,...]] [--pairs 10] [--seconds 30]
        [--out FILE]

Each checkout is a directory with src/taximeasure and perfbench/ (a `git
archive` of a commit, or this repository).  The operations come from this
repository's perfbench/workloads.py, imported and not changed.  Run it from
anywhere; it writes nothing into either checkout except what perfbench/run.py
writes under .perfbench_out/ for --pairs.

1. Timing.  Each operation of cli_cold at --seed runs --reps times on each
   side, the sides taking turns to go first, as one `python3 -m taximeasure`
   process timed from spawn to exit, with perfbench's child environment (one
   BLAS thread, a filled bytecode cache).  Per operation the output holds
   each side's median and quartiles in ms, whether exit code and stdout were
   equal on both sides, and whether the process loaded numpy and inspect.
2. Outputs.  Each cli_cold operation of each --check-seeds seed (ranges
   joined by commas, such as 1-3,400-409) runs once
   more on each side through a probe that records exit code, stdout and the
   loaded modules.  The quad_solve and oracle_sweep operations of each of
   those seeds run as one round of each side's `perfbench/worker.py PLAN
   RESULT --seconds 0`.  The output counts the operations whose exit code
   and stdout, or whose in-process output, differ, and gives for each
   differing in-process output the largest difference of its floats from
   the parent's, relative to the parent's largest |float|; for a differing
   stdout with the same exit code, the same figure for the numbers of each
   line, the largest over the lines.  Where such an
   operation stores a float reference, it also gives each side's relative
   errors against it (one per value, one per row's oracle for a table), so
   that a rounding-level move reads as closer to or farther from the truth.
3. Pairs.  --pairs alternated pairs of `perfbench/run.py --workload W
   --seed S --seconds T --trace 0` per workload, seeds 400+, 300+ and 500+
   for cli_cold, quad_solve and oracle_sweep; each metric's median and
   quartiles per side and the pairs the change won.  For quad_solve and
   oracle_sweep also each operation's median and quartiles per side, over
   the runs' per-operation medians, so that a move in op_p50_ms can be
   traced to the calls that made it.  Then one `--trace 1` run of
   oracle_sweep per side, at the first oracle_sweep seed, gives the
   layers an oracle call spends its time in (TRACED).
4. Memory.  Each oracle call of oracle_sweep at --seed runs, in one
   process per side and in the workload's order, after a warm-up call: the
   median minor page faults (ru_minflt) of three calls, and the tracemalloc
   peak of one more, in MB.

The result also gives each checkout's lines of src/taximeasure/*.py and the
net change, in total and per file, and its count of public names
(len(taximeasure.__all__), read in a child process on that checkout's src),
so a change that only simplifies can report its net source lines, where they
went and its public surface, from the same run that shows its outputs are
unchanged.

The last line of standard output is the JSON result, also written to --out.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")
PAIR_SEEDS = {"cli_cold": 400, "quad_solve": 300, "oracle_sweep": 500}
TRACED = ("oracles.self_ms", "kernels.sum_ms", "profiles.eval_ms")
# A number as the CLI prints it.
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
BETTER = {"setup_s": "lower", "wall_s": "lower", "op_p50_ms": "lower",
          "peak_rss_mb": "lower", "accuracy_digits": "higher"}

# Runs the CLI and reports on its last stderr line which of the watched
# modules the process loaded.
PROBE = """
import sys
from taximeasure.cli import main
try:
    code = main(sys.argv[1:])
finally:
    print("numpy" in sys.modules, "inspect" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


# Runs from a checkout's root; prints the memory figures of step 4 as JSON.
MEMORY_PROBE = """
import json, resource, statistics, sys, tracemalloc
sys.path.insert(0, "perfbench")
import worker, workloads
mods = worker.import_package()
ops = [op for op in workloads.build("oracle_sweep", int(sys.argv[1])) if op["kind"] == "oracle"]
out = {}
for op, call in zip(ops, worker.build_ops(mods, {"ops": ops})):
    call()
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out[op["id"]] = {"minflt": statistics.median(faults), "tracemalloc_peak_mb": peak / 1e6}
print(json.dumps(out))
"""


def child_env(checkout: str, cache: str) -> dict:
    """perfbench/run.py's child environment, for the given checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = cache
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def source_lines(checkout: str) -> dict[str, int]:
    """Lines of each of the checkout's src/taximeasure/*.py, by file name."""
    lines = {}
    for path in glob.glob(os.path.join(checkout, "src", "taximeasure", "*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[os.path.basename(path)] = sum(1 for _ in fh)
    return lines


def line_changes(dirs: dict) -> dict:
    """Source lines per side and the net change, in total and per file (a
    file missing on one side has 0 lines there)."""
    lines = {side: source_lines(dirs[side]) for side in SIDES}

    def entry(counts):
        return {**counts, "net": counts["change"] - counts["parent"]}

    names = sorted(set(lines["parent"]) | set(lines["change"]))
    return {**entry({side: sum(lines[side].values()) for side in SIDES}),
            "files": {name: entry({side: lines[side].get(name, 0) for side in SIDES})
                      for name in names}}


def public_names(dirs: dict, envs: dict) -> dict:
    """len(taximeasure.__all__) per side, and the net change."""
    counts = {}
    for side in SIDES:
        _, _, out, _ = run([sys.executable, "-c",
                            "import taximeasure; print(len(taximeasure.__all__))"],
                           dirs[side], envs[side])
        counts[side] = int(out)
    return {**counts, "net": counts["change"] - counts["parent"]}


def run(cmd: list[str], checkout: str, env: dict) -> tuple[int, float, str, str]:
    """(exit code, seconds from spawn to exit, stdout, stderr) of one process."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=checkout)
        code = proc.wait()
        seconds = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return code, seconds, out.read().decode(), err.read().decode()


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "n": len(xs)}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def probe(checkout: str, env: dict, argv: list[str]) -> dict:
    code, _, out, err = run([sys.executable, "-c", PROBE, *argv], checkout, env)
    *_, loaded = err.splitlines() or [""]
    numpy, inspect = (word == "True" for word in loaded.split())
    return {"exit": code, "stdout": out, "numpy": numpy, "inspect": inspect}


def time_ops(dirs: dict, envs: dict, seed: int, reps: int) -> list[dict]:
    rows = []
    for op in workloads.build("cli_cold", seed):
        times = {side: [] for side in SIDES}
        outputs = {side: set() for side in SIDES}
        for rep in range(reps):
            for side in (SIDES if rep % 2 == 0 else SIDES[::-1]):
                code, sec, out, _ = run([sys.executable, "-m", "taximeasure", *op["argv"]],
                                        dirs[side], envs[side])
                times[side].append(sec * 1e3)
                outputs[side].add((code, out))
        probes = {side: probe(dirs[side], envs[side], op["argv"]) for side in SIDES}
        row = {"id": op["id"],
               "same_exit_and_stdout": (len(outputs["parent"]) == 1
                                        and outputs["parent"] == outputs["change"])}
        for side in SIDES:
            q = quartiles(times[side])
            row[side] = {"median_ms": q["median"], "q1_ms": q["q1"], "q3_ms": q["q3"],
                         **{k: probes[side][k] for k in ("exit", "numpy", "inspect")}}
        rows.append(row)
        print(f"{op['id']}: parent {row['parent']['median_ms']:.1f} ms, "
              f"change {row['change']['median_ms']:.1f} ms", file=sys.stderr)
    return rows


def worker_outputs(checkout: str, env: dict, plan: str, result: str) -> list:
    """The outputs of one round of the plan's operations, run in-process by
    the checkout's perfbench/worker.py."""
    code, _, _, err = run([sys.executable, os.path.join("perfbench", "worker.py"), plan,
                           result, "--seconds", "0"], checkout, env)
    if code != 0:
        raise SystemExit(f"{checkout}: worker failed: {err[-800:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)["outputs"][0]


def _leaves(out) -> list:
    return [x for item in out for x in _leaves(item)] if isinstance(out, list) else [out]


def rel_diff(parent, change) -> float | None:
    """The largest difference between the floats at the same place in two
    outputs, relative to the largest |float| of parent's, so that an error
    column is scaled by the values it is the error of; None where the
    outputs differ in more than finite float values."""
    a, b = _leaves(parent), _leaves(change)
    if len(a) != len(b):
        return None
    diff = scale = 0.0
    for x, y in zip(a, b):
        if not (isinstance(x, float) and isinstance(y, float)):
            if x != y:
                return None
            continue
        scale = max(scale, abs(x))
        if x != y and not (math.isnan(x) and math.isnan(y)):
            if not math.isfinite(y - x):
                return None
            diff = max(diff, abs(y - x))
    return diff / scale if scale else None


def stdout_rel_diff(parent: str, change: str) -> float | None:
    """rel_diff of the numbers on each pair of lines of two stdouts, so that
    a report's error column is scaled by the values on its line; the largest
    over the lines, or None where the lines differ in more than numbers."""
    a, b = parent.splitlines(), change.splitlines()
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        if NUMBER.split(x) != NUMBER.split(y):
            return None
        diff = rel_diff([float(v) for v in NUMBER.findall(x)],
                        [float(v) for v in NUMBER.findall(y)])
        if diff is None:
            return None
        worst = max(worst, diff)
    return worst


def ref_errors(op: dict, out) -> list[float] | None:
    """The relative errors against op's float ref of the values in out: the
    value itself, or the oracle column of a table; None without a float ref
    or for an error."""
    ref = op.get("ref")
    if not isinstance(ref, float):
        return None
    if isinstance(out, float):
        return [checks.rel_err(out, ref)]
    if isinstance(out, list) and out and all(isinstance(row, list) for row in out):
        return [checks.rel_err(row[1], ref) for row in out]
    return None


def check_outputs(dirs: dict, envs: dict, seeds: list[int]) -> dict:
    differ = []
    rel = {}
    ref_err = {}
    n = 0
    with tempfile.TemporaryDirectory() as tmp:
        plan, result = os.path.join(tmp, "plan.json"), os.path.join(tmp, "result.json")
        for seed in seeds:
            for op in workloads.build("cli_cold", seed):
                got = [probe(dirs[side], envs[side], op["argv"]) for side in SIDES]
                n += 1
                if (got[0]["exit"], got[0]["stdout"]) != (got[1]["exit"], got[1]["stdout"]):
                    key = f"seed {seed} {op['id']}"
                    differ.append(key)
                    if got[0]["exit"] == got[1]["exit"]:
                        rel[key] = stdout_rel_diff(got[0]["stdout"], got[1]["stdout"])
            for workload in ("quad_solve", "oracle_sweep"):
                ops = workloads.build(workload, seed)
                with open(plan, "w", encoding="utf-8") as fh:
                    json.dump({"ops": ops}, fh)
                got = [worker_outputs(dirs[side], envs[side], plan, result) for side in SIDES]
                n += len(ops)
                for op, a, b in zip(ops, *got):
                    # Compared as JSON text, so that NaN equals NaN and
                    # floats compare bit for bit.
                    if json.dumps(a) != json.dumps(b):
                        key = f"seed {seed} {workload} {op['id']}"
                        differ.append(key)
                        rel[key] = rel_diff(a, b)
                        errs = dict(zip(SIDES, (ref_errors(op, a), ref_errors(op, b))))
                        if errs["parent"] is not None or errs["change"] is not None:
                            ref_err[key] = errs
    return {"seeds": seeds, "operations": n, "differ": differ,
            "max_rel_diff": rel, "rel_err_vs_ref": ref_err}


def oracle_memory(dirs: dict, envs: dict, seed: int) -> dict:
    out = {}
    for side in SIDES:
        code, _, stdout, err = run([sys.executable, "-c", MEMORY_PROBE, str(seed)],
                                   dirs[side], envs[side])
        if code != 0:
            raise SystemExit(f"{side}: memory probe failed: {err[-800:]}")
        out[side] = json.loads(stdout)
    return out


def perfbench_run(checkout: str, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """The result of one perfbench/run.py in the checkout."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} failed: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def op_medians_ms(checkout: str, workload: str, seed: int) -> dict:
    """Each operation's median time in ms over the rounds of the last
    untraced in-process run at seed, from the worker's result file."""
    path = os.path.join(checkout, ".perfbench_out",
                        f"{workload}-seed{seed}-trace0.result.json")
    with open(path, encoding="utf-8") as fh:
        times = json.load(fh)["times"]
    ids = [op["id"] for op in workloads.build(workload, seed)]
    return {i: statistics.median(col) * 1e3 for i, col in zip(ids, zip(*times))}


def run_pairs(dirs: dict, pairs: int, seconds: float) -> dict:
    out = {}
    for workload, seed0 in PAIR_SEEDS.items():
        runs = []
        per_op = {side: {} for side in SIDES}
        for i in range(pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = perfbench_run(dirs[side], workload, seed0 + i, seconds, 0)
                runs.append({"pair": i, "side": side, "seed": seed0 + i,
                             "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                if workload != "cli_cold":
                    for op, ms in op_medians_ms(dirs[side], workload, seed0 + i).items():
                        per_op[side].setdefault(op, []).append(ms)
                print(f"{workload} pair {i} {side}: "
                      f"op_p50_ms {runs[-1]['metrics']['op_p50_ms']:.4g}", file=sys.stderr)
        summary = {}
        for metric, better in BETTER.items():
            vals = {side: [r["metrics"][metric] for r in runs if r["side"] == side]
                    for side in SIDES}
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            summary[metric] = {**{side: quartiles(vals[side]) for side in SIDES},
                               "change_wins": wins, "pairs": pairs}
        out[workload] = {"runs": runs, "summary": summary}
        if workload != "cli_cold":
            out[workload]["op_ms"] = {op: {side: quartiles(per_op[side][op]) for side in SIDES}
                                      for op in per_op["parent"]}
    traced = {}
    for side in SIDES:
        result = perfbench_run(dirs[side], "oracle_sweep", PAIR_SEEDS["oracle_sweep"],
                               seconds, 1)
        traced[side] = {k: result["metrics"][k]["value"] for k in TRACED}
    out["oracle_sweep"]["traced"] = traced
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=401, help="cli_cold seed timed")
    parser.add_argument("--reps", type=int, default=7, help="processes per operation and side")
    parser.add_argument("--check-seeds", default="400-409",
                        help="first-last seeds whose outputs are compared, "
                             "several ranges joined by commas")
    parser.add_argument("--pairs", type=int, default=10,
                        help="perfbench/run.py pairs per workload (0: none)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="perfbench/run.py --seconds")
    parser.add_argument("--out", help="also write the JSON result here")
    args = parser.parse_args(argv)

    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seeds = []
    for span in args.check_seeds.split(","):
        first, last = (int(s) for s in span.split("-"))
        seeds += range(first, last + 1)
    with tempfile.TemporaryDirectory() as cache:
        envs = {side: child_env(dirs[side], os.path.join(cache, side)) for side in SIDES}
        for side in SIDES:  # fill each side's bytecode cache, untimed
            run([sys.executable, "-m", "taximeasure", "verify"], dirs[side], envs[side])
        ops = time_ops(dirs, envs, args.seed, args.reps)
        outputs = check_outputs(dirs, envs, seeds)
        memory = oracle_memory(dirs, envs, args.seed)
        names = public_names(dirs, envs)

    medians = {side: [row[side]["median_ms"] for row in ops] for side in SIDES}
    result = {
        "seed": args.seed, "reps": args.reps,
        "op_p50_ms": {side: statistics.median(medians[side]) for side in SIDES},
        "sum_of_medians_s": {side: sum(medians[side]) / 1e3 for side in SIDES},
        "numpy_free_ops": {side: sum(not row[side]["numpy"] for row in ops)
                           for side in SIDES},
        "inspect_free_ops": {side: sum(not row[side]["inspect"] for row in ops)
                             for side in SIDES},
        "all_same_exit_and_stdout": all(row["same_exit_and_stdout"] for row in ops),
        "ops": ops,
        "outputs": outputs,
        "oracle_memory": memory,
        "source_lines": line_changes(dirs),
        "public_names": names,
    }
    if args.pairs:
        result["workloads"] = run_pairs(dirs, args.pairs, args.seconds)
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
