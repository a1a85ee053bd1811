"""Reference figures of this machine for perfbench/README.md.

    python3 perfbench/reference_figures.py

Prints the median and range over 10 runs of: a cold `python3 -c pass`, a cold
`import taximeasure.cli`, a cold `taximeasure verify`, an in-process
`verify`, and the shares of an in-process `verify` under cProfile that go to
the disk oracle, np.union1d and quadrature.integrate (the shares overlap).
"""

import contextlib
import cProfile
import io
import pstats
import statistics
import subprocess
import sys
import time

import run

REPEAT = 10


def cold(cmd):
    """Wall times of REPEAT processes, after one untimed run that fills the
    bytecode cache; the environment is the one run.py gives its children."""
    env = run.child_env()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, env=env)
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, env=env)
        times.append(time.perf_counter() - t0)
    return times


def show(label, times):
    print(f"{label:34s} median {statistics.median(times):.3f} s  "
          f"range {min(times):.3f}-{max(times):.3f} s")


def main() -> int:
    py = sys.executable
    show("cold python -c pass", cold([py, "-c", "pass"]))
    show("cold import taximeasure.cli", cold([py, "-c", "import taximeasure.cli"]))
    show("cold taximeasure verify", cold([py, "-m", "taximeasure", "verify"]))

    sys.path.insert(0, run.SRC)
    from taximeasure import cli

    times = []
    for _ in range(REPEAT):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            cli.main(["verify"])
            times.append(time.perf_counter() - t0)
    show("in-process verify", times)

    prof = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        prof.runcall(cli.main, ["verify"])
    stats = pstats.Stats(prof).stats
    total = max(v[3] for v in stats.values())
    for label, fn in (("disk_volume_oracle", "disk_volume_oracle"), ("np.union1d", "union1d"),
                      ("quadrature.integrate", "integrate")):
        cum = max((v[3] for (path, _, name), v in stats.items()
                   if name == fn and (fn != "integrate" or path.endswith("quadrature.py"))),
                  default=0.0)
        print(f"cProfile share of verify, {label:22s} {100 * cum / total:.0f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
