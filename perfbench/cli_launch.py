"""Run taximeasure.cli.main with the tracing wrappers installed.

    python3 perfbench/cli_launch.py TRACE.json ARG...

Behaves like `python3 -m taximeasure ARG...` (same output, same exit code,
same traceback on an uncaught exception) and writes the spans, the layer
totals and the time taken to import taximeasure.cli to TRACE.json.
"""

import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import taximeasure.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402

import tracing  # noqa: E402
from taximeasure import measures, oracles, profiles, shapes  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer, {"profiles": profiles, "shapes": shapes, "measures": measures,
                             "oracles": oracles, "cli": cli})
    idx = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(idx, {"command": argv[0] if argv else ""})
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "command": argv[0] if argv else "",
                       "main_s": tracer.spans[idx][2] - tracer.spans[idx][1],
                       "layers": tracing.layer_totals(tracer.spans),
                       "counters": tracer.counters(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
