#!/usr/bin/env python3
"""Benchmark of taximeasure: one workload per run.

    python3 perfbench/run.py --workload {cli_cold,quad_solve,oracle_sweep}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from src/ and
writes its files under .perfbench_out/.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  See
perfbench/README.md for the workloads, the metrics and how steady they are.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh processes timed for setup_s, half before the measured rounds and
# half after, so the samples span the run; the median is reported.
SETUP_SAMPLES = 8

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"), ("accuracy_digits", "digits"))
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.verify_s", "s"), ("cli.measure_s", "s"), ("cli.table_s", "s"),
    ("profiles.parse_us", "us"), ("shapes.parse_us", "us"),
    ("profiles.eval_calls", "count"), ("profiles.eval_points", "count"),
    ("profiles.eval_ms", "ms"), ("measures.self_ms", "ms"),
    ("quadrature.kink_scan_ms", "ms"), ("quadrature.kink_scan_points", "count"),
    ("quadrature.integrate_ms", "ms"), ("quadrature.samples", "count"),
    ("quadrature.us_per_sample", "us"), ("quadrature.subdivisions", "count"),
    ("quadrature.pieces", "count"), ("oracles.self_ms", "ms"), ("oracles.cells", "count"),
    ("kernels.sum_ms", "ms"), ("kernels.ns_per_cell", "ns"), ("kernels.bytes_computed", "B"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # The program reads these; the benchmark measures its defaults.
    env.pop("TAXI_QUAD_TOL", None)
    env.pop("TAXI_BACKEND", None)
    # Children use cached bytecode, as an installed CLI does, whatever the
    # caller's setting; the cache lives with the benchmark's outputs, and an
    # untimed warm-up process fills it (see warm_up).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    # All load is one thread: taximeasure makes no BLAS calls, but importing
    # NumPy starts a BLAS thread pool that otherwise spends ~0.1 CPU-s of
    # every cold process on the other core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], out_path: str, err_path: str):
    """Run one process to its end; (exit code, seconds, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def warm_up(cmd: list[str], tag: str) -> None:
    """One untimed process that runs the workload's code paths, so that every
    timed process finds the bytecode cache filled, also for the modules
    imported lazily on first use."""
    code, _, _ = run_child(cmd, f"{tag}.warm.out", f"{tag}.warm.err")
    if code not in (0, 1):
        raise SystemExit(f"warm-up process failed ({code}): {read(tag + '.warm.err')[-400:]}")


def setup_samples(cmd: list[str], tag: str) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES // 2):
        code, seconds, _ = run_child(cmd, f"{tag}.setup.out", f"{tag}.setup.err")
        if code != 0:
            raise SystemExit(f"set-up process failed ({code}): {read(tag + '.setup.err')[-400:]}")
        samples.append(seconds)
    return samples


def per_op_medians(times: list[list[float]]) -> list[float]:
    return [statistics.median(col) for col in zip(*times)]


def end_to_end(setup_s, times, peak_rss_mb, good) -> dict:
    medians = per_op_medians(times)
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "op_p50_ms": statistics.median(medians) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "accuracy_digits": min(good.values()) if good else 0.0,
    }


def layer_metrics(layers: dict, counters: dict, rounds: int, cli: dict | None = None) -> dict:
    """Per-layer metrics per round of the workload."""
    def g(key):
        return layers.get(key, 0.0) / rounds

    samples = g("quadrature.samples")
    cells = g("kernels.cells")
    integrate_ms = g("quadrature.integrate.s") * 1e3
    sum_ms = g("kernels.self_s") * 1e3
    parse = {k: (layers.get(f"{k}.parse.s", 0.0) / layers[f"{k}.parse.calls"] * 1e6
                 if layers.get(f"{k}.parse.calls") else 0.0) for k in ("profiles", "shapes")}
    out = {
        "cli.import_s": 0.0, "cli.verify_s": 0.0, "cli.measure_s": 0.0, "cli.table_s": 0.0,
        "profiles.parse_us": parse["profiles"], "shapes.parse_us": parse["shapes"],
        "profiles.eval_calls": counters["eval_calls"] / rounds,
        "profiles.eval_points": counters["eval_points"] / rounds,
        "profiles.eval_ms": counters["eval_s"] / rounds * 1e3,
        "measures.self_ms": g("measures.self_s") * 1e3,
        "quadrature.kink_scan_ms": g("quadrature.kink_scan.s") * 1e3,
        "quadrature.kink_scan_points": g("quadrature.points"),
        "quadrature.integrate_ms": integrate_ms,
        "quadrature.samples": samples,
        "quadrature.us_per_sample": integrate_ms * 1e3 / samples if samples else 0.0,
        "quadrature.subdivisions": g("quadrature.subdivisions"),
        "quadrature.pieces": g("quadrature.pieces"),
        "oracles.self_ms": g("oracles.self_s") * 1e3,
        "oracles.cells": cells,
        "kernels.sum_ms": sum_ms,
        "kernels.ns_per_cell": sum_ms * 1e6 / cells if cells else 0.0,
        "kernels.bytes_computed": g("kernels.bytes"),
    }
    if cli:
        out.update(cli)
    return out


def add_layers(into: dict, layers: dict) -> None:
    for k, v in layers.items():
        into[k] = into.get(k, 0.0) + v


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def run_inprocess(args, ops, tag):
    plan_path = f"{tag}.plan.json"
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops}, fh)
    worker = os.path.join(HERE, "worker.py")
    setup_cmd = [sys.executable, worker, plan_path, "--setup-only"]
    warm_up([sys.executable, worker, plan_path, f"{tag}.warm.json", "--seconds", "0"], tag)
    setup = setup_samples(setup_cmd, tag)

    result_path = f"{tag}.result.json"
    cmd = [sys.executable, worker, plan_path, result_path, "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    code, _, _ = run_child(cmd, f"{tag}.worker.out", f"{tag}.worker.err")
    if code != 0:
        raise SystemExit(f"worker failed ({code}): {read(tag + '.worker.err')[-800:]}")
    setup_s = statistics.median(setup + setup_samples(setup_cmd, tag))
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    problems = []
    rounds = res["outputs"]
    for i, row in enumerate(rounds[1:], 2):
        if row != rounds[0]:
            problems.append(f"round {i} gave other outputs than round 1")
    fails, good = checks.check_inprocess(ops, rounds[0])
    n_rounds = len(rounds)
    summary = {"setup_s": setup_s, "times": res["times"], "peak_rss_mb": res["peak_rss_mb"]}
    if args.trace:
        traced = res["traced_outputs"]
        if any(row != rounds[0] for row in traced):
            problems.append("traced outputs differ from untraced outputs")
        n_traced = len(traced)
        layers = dict(res["trace"]["rounds"])
        for k, v in res["trace"]["setup"].items():
            if ".parse." in k:  # parsing happens once, at set-up
                layers[k] = v
        summary["layers"] = layer_metrics(layers, res["trace"]["counters"], n_traced)
        summary["traced_times"] = res["traced_times"]
        summary["spans_file"] = res["spans_file"]
        n_rounds += n_traced
    return fails, good, problems, n_rounds, summary


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def cli_rounds(ops, seconds, tag, traced: bool):
    """Whole rounds of CLI processes, one at a time: at least one round, and
    another only while it is expected to end within seconds of the start."""
    launcher = [sys.executable, os.path.join(HERE, "cli_launch.py"), f"{tag}.launch.json"]
    plain = [sys.executable, "-m", "taximeasure"]
    times, outputs, rss, traces = [], [], 0.0, []
    t_start = time.perf_counter()
    while True:
        row_t, row_o = [], []
        for op in ops:
            cmd = (launcher if traced else plain) + op["argv"]
            code, sec, peak = run_child(cmd, f"{tag}.op.out", f"{tag}.op.err")
            row_t.append(sec)
            row_o.append((code, read(f"{tag}.op.out"), read(f"{tag}.op.err")))
            rss = max(rss, peak)
            if traced:
                with open(f"{tag}.launch.json", encoding="utf-8") as fh:
                    traces.append(json.load(fh))
                os.remove(f"{tag}.launch.json")
        times.append(row_t)
        outputs.append(row_o)
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(times) + 1) / len(times) > seconds:
            return times, outputs, rss, traces


def run_cli(args, ops, tag):
    setup_cmd = [sys.executable, "-c", "import taximeasure.cli"]
    warm_up([sys.executable, "-m", "taximeasure", "verify"], tag)
    setup = setup_samples(setup_cmd, tag)
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    times, outputs, rss, _ = cli_rounds(ops, seconds, tag, traced=False)
    setup_s = statistics.median(setup + setup_samples(setup_cmd, tag))

    problems = []
    first = [(code, out) for code, out, _ in outputs[0]]
    for i, row in enumerate(outputs[1:], 2):
        if [(code, out) for code, out, _ in row] != first:
            problems.append(f"round {i} gave other outputs than round 1")
    fails, good = {}, {}
    for op, (code, out, err) in zip(ops, outputs[0]):
        reason, d = checks.check_cli(op, code, out, err)
        if reason:
            fails[op["id"]] = reason
        elif d is not None:
            good[op["id"]] = d
    n_rounds = len(outputs)
    summary = {"setup_s": setup_s, "times": times, "peak_rss_mb": rss}
    if args.trace:
        t_times, t_outputs, _, traces = cli_rounds(ops, seconds, tag, traced=True)
        if any([(code, out) for code, out, _ in row] != first for row in t_outputs):
            problems.append("traced outputs differ from untraced outputs")
        layers, counters = {}, {"eval_calls": 0, "eval_points": 0, "eval_s": 0.0}
        per_command: dict[str, list[float]] = {}
        for t in traces:
            add_layers(layers, t["layers"])
            for k in counters:
                counters[k] += t["counters"][k]
            per_command.setdefault(t["command"], []).append(t["main_s"])
        n_traced = len(t_outputs)
        cli = {"cli.import_s": statistics.median(t["import_s"] for t in traces)}
        for command in ("verify", "measure", "table"):
            cli[f"cli.{command}_s"] = statistics.median(per_command.get(command, [0.0]))
        summary["layers"] = layer_metrics(layers, counters, n_traced, cli)
        summary["traced_times"] = t_times
        spans_file = f"{tag}.spans.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for k, t in enumerate(traces):
                tracing.write_spans(fh, t["spans"], process=k)
        summary["spans_file"] = spans_file
        n_rounds += n_traced
    return fails, good, problems, n_rounds, summary


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="taximeasure benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "taximeasure", "__init__.py")):
        print(f"error: no taximeasure sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    ops = workloads.build(args.workload, args.seed)
    runner = run_cli if args.workload == "cli_cold" else run_inprocess
    fails, good, problems, n_rounds, summary = runner(args, ops, tag)

    expected = {op["id"] for op in ops if op["fault"]}
    unexpected = sorted(set(fails) - expected)
    for op in ops:
        if op["id"] in fails:
            label = op["fault"] or "UNEXPECTED"
            print(f"failed [{label}] {op['id']}: {fails[op['id']]}")
    for p in problems:
        print(f"problem: {p}")
    correct = not unexpected and not problems

    e2e = end_to_end(summary["setup_s"], summary["times"], summary["peak_rss_mb"], good)
    units = dict(END_TO_END + PER_LAYER)
    for name, _ in END_TO_END:
        print(f"{args.workload} {name} = {e2e[name]:.6g} {units[name]}")
    if args.trace:
        traced = end_to_end(summary["setup_s"], summary["traced_times"],
                            summary["peak_rss_mb"], good)
        overhead = traced["wall_s"] - e2e["wall_s"]
        lines = [f"{name} = {summary['layers'][name]:.6g} {unit}" for name, unit in PER_LAYER]
        lines.append(f"trace.overhead_s = {overhead:.6g} s "
                     f"(traced wall_s {traced['wall_s']:.6g} - untraced {e2e['wall_s']:.6g})")
        lines.append(f"spans: {summary['spans_file']}")
        with open(f"{tag}.layers.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print("\n".join(lines))
        metrics = {name: {"value": summary["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    n_failed = len(fails) * n_rounds
    print(f"{args.workload}: {len(ops)} operations x {n_rounds} rounds, "
          f"attempted {len(ops) * n_rounds}, failed {n_failed}")
    result = {"correct": correct, "attempted": len(ops) * n_rounds, "failed": n_failed,
              "metrics": metrics}
    with open(f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
