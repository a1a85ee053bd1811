"""Spans and counters recorded around the calls into each taximeasure module.

install() patches the public functions of the package's modules from
outside: every wrapper calls the original with the same arguments and returns
its result unchanged, so traced and untraced runs compute identical values.

Spans (name, start, end, parent, extra) are kept in memory and written out
when the run ends.  Profile evaluate/derivative calls are far too many for a
span each (a quadrature solve makes up to 5e5 scalar calls), so they are
aggregated into counters: calls, points and time.

This module imports numpy but not taximeasure; install() takes the package
modules as arguments.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.eval_calls = 0
        self.eval_points = 0
        self.eval_s = 0.0

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra: dict | None = None) -> None:
        self.spans[idx][2] = _clock()
        if extra:
            self.spans[idx][4] = extra
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Span around fn.  before(args) may return replacement args and a
        state object; after(state, result) returns the span's extra dict."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, state = before(args)
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, after(state, result) if after is not None else None)

        return wrapper

    # -- profile evaluations ----------------------------------------------
    def counted(self, fn):
        def wrapper(x):
            t0 = _clock()
            out = fn(x)
            self.eval_s += _clock() - t0
            self.eval_calls += 1
            self.eval_points += x.size if isinstance(x, np.ndarray) else 1
            return out

        return wrapper

    def counters(self) -> dict:
        return {"eval_calls": self.eval_calls, "eval_points": self.eval_points,
                "eval_s": self.eval_s}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            write_spans(fh, self.spans)


def write_spans(fh, spans, **fields) -> None:
    """One JSON line per span; fields (such as the process) go on every line."""
    for name, t0, t1, parent, extra in spans:
        fh.write(json.dumps({**fields, "name": name, "start": t0, "end": t1,
                             "parent": parent, "extra": extra}) + "\n")


def _counting(fn, box: list):
    def g(x):
        box[0] += 1
        return fn(x)

    return g


def install(tracer: Tracer, mods: dict) -> None:
    """Wrap the package's public entry points.

    mods maps short names to the imported modules: profiles, shapes,
    measures, oracles and optionally cli.  The wrappers are bound where the
    callers look the names up (for example measures.integrate, which
    measures imported from quadrature)."""
    profiles, shapes = mods["profiles"], mods["shapes"]
    measures, oracles = mods["measures"], mods["oracles"]

    orig_post_init = profiles.ProfileFunction.__post_init__

    def post_init(self):
        orig_post_init(self)
        object.__setattr__(self, "evaluate", tracer.counted(self.evaluate))
        object.__setattr__(self, "derivative", tracer.counted(self.derivative))

    profiles.ProfileFunction.__post_init__ = post_init

    parse_profile = tracer.wrap("profiles.parse", profiles.parse_profile_spec)
    profiles.parse_profile_spec = parse_profile
    shapes.parse_shape_spec = tracer.wrap("shapes.parse", shapes.parse_shape_spec)
    if "cli" in mods:
        mods["cli"].parse_profile_spec = parse_profile

    def count_first_arg(args):
        box = [0]
        return (_counting(args[0], box),) + tuple(args[1:]), box

    def scan_after(box, result):
        return {"points": box[0]}

    def integrate_after(box, result):
        extra = {"samples": box[0]}
        if result is not None:
            extra["subdivisions"] = result.subdivisions
            extra["pieces"] = len(result.split_points) + 1
        return extra

    measures.detect_sign_changes = tracer.wrap(
        "quadrature.kink_scan", measures.detect_sign_changes, count_first_arg, scan_after)
    measures.integrate = tracer.wrap(
        "quadrature.integrate", measures.integrate, count_first_arg, integrate_after)
    for name in ("arclength_functional", "surface_of_revolution", "volume_of_revolution"):
        setattr(measures, name, tracer.wrap(f"measures.{name}", getattr(measures, name)))

    def kernel_before(args):
        return args, args

    def kernel_after(args, result):
        xs, ys = args[0], args[1]
        return {"cells": int(xs.size) - 1, "bytes": int(xs.nbytes + ys.nbytes)}

    for name in ("polyline_sum", "frustum_sum", "disk_sum"):
        setattr(oracles, name, tracer.wrap(f"kernels.{name}", getattr(oracles, name),
                                           kernel_before, kernel_after))
    for name in ("polyline_arclength_oracle", "frustum_surface_oracle", "disk_volume_oracle"):
        wrapped = tracer.wrap(f"oracles.{name}", getattr(oracles, name))
        setattr(oracles, name, wrapped)
        # convergence_table looks its oracle up in this table.
        for kind, fn in list(oracles._ORACLES.items()):
            if fn is wrapped.__wrapped__:
                oracles._ORACLES[kind] = wrapped
    oracles.convergence_table = tracer.wrap("oracles.convergence_table",
                                            oracles.convergence_table)


def layer_totals(spans: list[list]) -> dict:
    """Sum durations, self times and extras by layer over a list of spans.

    A span's self time is its duration minus that of its direct children;
    children of one parent run one after another, so they never overlap."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, extra in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0.0) + v

    for i, (name, t0, t1, parent, extra) in enumerate(spans):
        layer = name.split(".")[0]
        dur = t1 - t0
        add(f"{name}.s", dur)
        add(f"{name}.calls", 1)
        add(f"{layer}.self_s", dur - child[i])
        for k, v in (extra or {}).items():
            if isinstance(v, (int, float)):
                add(f"{layer}.{k}", v)
    return out
