"""Operation lists of the three workloads, built from a seed.

Each operation is plain data (JSON-ready); the measuring process turns it
into calls on taximeasure, and run.py checks its output against the
reference stored in the operation.  Nothing here imports taximeasure.

Every workload has a fixed block, which does not depend on the seed and holds
the operations that fail because of a known fault (FAULTS), and a seeded
block, whose operations must pass for every seed.  Seeded values jitter
around fixed centres, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import json
import random

import refs

MAGNITUDES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
SEEDED_PL_MAGNITUDES = (1e-6, 1e-3, 1.0)
QUANTITIES = ("arclength", "surface", "volume")

# Fixed inputs of quad_solve at lam = 1.  Shapes are built through
# parse_shape_spec and revolution_profile, the rest through parse_profile_spec.
QUAD_CATALOG = (
    ("linear", {"catalog": "linear",
                "params": {"slope": -1.0, "intercept": 1.0, "lo": 0.0, "hi": 1.0}}),
    ("ecq", {"catalog": "euclidean_circle_quadrant", "params": {"r": 1.0}}),
    ("epq", {"catalog": "euclidean_parabola_quadrant", "params": {"r": 1.0}}),
    ("sphere", {"shape": "sphere", "params": {"r": 1.0}}),
    ("cylinder", {"shape": "cylinder", "params": {"r": 1.0, "h": 2.0}}),
    ("paraboloid", {"shape": "paraboloid", "params": {"a": 1.0, "h": 3.0}}),
    ("ellipsoid", {"shape": "ellipsoid", "params": {"a": 2.0, "b": 1.5, "s": 5.0}}),
)

# quad_solve operations left out because each fails after exhausting the
# 5e5-sample budget (F-large-mag) and costs 0.5-8 s; one cheaper one stays
# (paraboloid arc length at 1e6).  ellipsoid/arclength/1e6 is left out too:
# it takes 0.4-2.2 s depending on the call depth (see worker.py), up to half
# of it in mmap/munmap system calls.
QUAD_DROPPED = {
    ("ecq", q, lam) for q in QUANTITIES for lam in (1e3, 1e6)
} | {
    ("epq", q, lam) for q in ("surface", "volume") for lam in (1e3, 1e6)
} | {
    ("cylinder", "arclength", 1e6), ("cylinder", "surface", 1e3), ("cylinder", "surface", 1e6),
    ("sphere", "surface", 1e6), ("sphere", "volume", 1e6),
    ("paraboloid", "surface", 1e3), ("paraboloid", "surface", 1e6),
    ("paraboloid", "volume", 1e6),
    ("ellipsoid", "surface", 1e3), ("ellipsoid", "surface", 1e6),
    ("ellipsoid", "arclength", 1e6),
}

# Fixed sin-family inputs f = s (sin x + 1.5) on [0, L]; run at the three
# smallest magnitudes (every larger one fails with F-large-mag after 1-4 s).
SIN_FIXED_MAGNITUDES = (1e-6, 1e-3, 1.0)
# Centres of the seeded sin-family inputs, run at lam = 1.
SIN_SEEDED = ((0.3, 3.0), (0.8, 8.0), (1.5, 12.0), (2.0, 5.0))
# Vertex counts of the seeded piecewise-linear profiles.
PL_VERTICES = (3, 6, 12, 24, 40)

# F-split-dup: a piecewise-linear profile whose bisected sign change of f'
# lands just below a declared breakpoint, so a piece ends short of the kink;
# the arc length is right but takes ~6e3 samples where ~250 would do.
SPLIT_DUP = {"piecewise_linear": [[0.0, 0.251], [0.721, 1.704], [1.552, 0.979],
                                  [1.827, 1.572]]}


def _scaled(spec: dict, lam: float) -> dict:
    if "piecewise_linear" in spec:
        return {"piecewise_linear": [[lam * x, lam * y] for x, y in spec["piecewise_linear"]]}
    key = "shape" if "shape" in spec else "catalog"
    params = {k: (v if k == "slope" else lam * v) for k, v in spec["params"].items()}
    return {key: spec[key], "params": params}


def _reference(spec: dict, quantity: str, stored: dict) -> float:
    if "piecewise_linear" in spec:
        return refs.PL_MEASURES[quantity]([tuple(v) for v in spec["piecewise_linear"]])
    if "sin" in spec:
        s, L, lam = spec["sin"]
        return refs.sin_measure(quantity, s, L, lam, stored)
    if "shape" in spec:
        name, params = refs.shape_profile(spec["shape"], spec["params"])
    else:
        name, params = spec["catalog"], spec["params"]
    return refs.catalog_measure(name, quantity, params, stored)


def _jitter(rng: random.Random, centre: float, width: float = 0.05) -> float:
    return round(centre * (1.0 + rng.uniform(-width, width)), 6)


def _random_pl(rng: random.Random, n: int, monotone: bool) -> dict:
    xs = [0.0]
    for _ in range(n - 1):
        xs.append(round(xs[-1] + rng.uniform(0.2, 1.0), 6))
    if monotone:
        ys = [round(rng.uniform(0.1, 0.5), 6)]
        for _ in range(n - 1):
            ys.append(round(ys[-1] + rng.uniform(0.05, 1.0), 6))
        if rng.random() < 0.5:
            ys.reverse()
    else:
        ys = [round(rng.uniform(0.2, 2.0), 6) for _ in range(n)]
    return {"piecewise_linear": [[x, y] for x, y in zip(xs, ys)]}


def _measure(op_id, spec, quantity, lam, group, stored):
    return {"id": op_id, "kind": "measure", "profile": spec, "quantity": quantity,
            "lam": lam, "group": group, "ref": _reference(spec, quantity, stored)}


def quad_solve(seed: int) -> list[dict]:
    stored = refs.load_store()
    rng = random.Random(seed)
    ops = []
    for name, base in QUAD_CATALOG:
        for q in QUANTITIES:
            for lam in MAGNITUDES:
                if (name, q, lam) in QUAD_DROPPED:
                    continue
                ops.append(_measure(f"{name}/{q}/{lam:g}", _scaled(base, lam), q, lam,
                                    f"{name}/{q}", stored))
    for s, L in refs.FIXED_SIN:
        for q in QUANTITIES:
            for lam in SIN_FIXED_MAGNITUDES:
                ops.append(_measure(f"sin{s:g}x{L:g}/{q}/{lam:g}", {"sin": [s, L, lam]}, q, lam,
                                    f"sin{s:g}x{L:g}/{q}", stored))
    ops.append(_measure("split_dup/arclength/1", SPLIT_DUP, "arclength", 1.0, None, stored))

    for k, (s0, L0) in enumerate(SIN_SEEDED):
        s, L = _jitter(rng, s0), _jitter(rng, L0)
        for q in QUANTITIES:
            ops.append(_measure(f"seeded_sin{k}/{q}/1", {"sin": [s, L, 1.0]}, q, 1.0,
                                None, stored))
    for n in PL_VERTICES:
        mono = _random_pl(rng, n, monotone=True)
        wavy = _random_pl(rng, n, monotone=False)
        for lam in SEEDED_PL_MAGNITUDES:
            for q in QUANTITIES:
                if (q, lam) == ("surface", 1e-6):
                    continue  # F-small-mag, with an error that depends on the seed
                ops.append(_measure(f"pl{n}/{q}/{lam:g}", _scaled(mono, lam), q, lam,
                                    f"pl{n}/{q}", stored))
            # f' changes sign here; only the volume skips the kink scan.
            ops.append(_measure(f"pl{n}wavy/volume/{lam:g}", _scaled(wavy, lam), "volume",
                                lam, f"pl{n}wavy/volume", stored))
    return ops


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------

def oracle_sweep(seed: int) -> list[dict]:
    stored = refs.load_store()
    rng = random.Random(seed)
    r = _jitter(rng, 1.0, 0.3)
    a = _jitter(rng, 1.0, 0.3)
    profiles = {
        "sphere": {"shape": "sphere", "params": {"r": r}},
        "paraboloid": {"shape": "paraboloid", "params": {"a": a, "h": _jitter(rng, 3.0, 0.1)}},
        "ellipsoid": {"shape": "ellipsoid",
                      "params": {"a": 2.0 * a, "b": 1.5 * a, "s": 5.0 * a}},
        "ecq": {"catalog": "euclidean_circle_quadrant", "params": {"r": _jitter(rng, 1.0, 0.3)}},
        "epq": {"catalog": "euclidean_parabola_quadrant", "params": {"r": _jitter(rng, 1.0, 0.3)}},
        "pl2000": _random_pl(rng, 2000, monotone=False),
        "pl5000": _random_pl(rng, 5000, monotone=False),
    }
    ops = []

    def oracle(name, q, n, check, pair=None):
        spec = profiles[name]
        ops.append({"id": f"{name}/{q}/{n}", "kind": "oracle", "profile": spec, "quantity": q,
                    "n": n, "check": check, "pair": pair,
                    "ref": _reference(spec, q, stored)})

    # Sizes are either small (<= 1e4 cells: every array stays under glibc's
    # 128 KiB mmap threshold and in L2) or far beyond the caches (>= 1e6
    # cells).  Sizes between were left out: their time follows the host's
    # page-fault cost, which changed by up to 1.8x from one hour to the next.
    # The polyline sum telescopes on monotone spans and the frustum sum is
    # exact on linear spans: every partition gives the exact value.
    for name, n in (("sphere", 2_000_000), ("ecq", 1_000), ("epq", 10_000),
                    ("ellipsoid", 10_000), ("pl2000", 1_000_000), ("pl5000", 5_000)):
        oracle(name, "arclength", n, "exact")
    for name, n in (("sphere", 1_000), ("paraboloid", 2_000_000), ("ellipsoid", 10_000),
                    ("pl2000", 8_000), ("pl5000", 3_000_000)):
        oracle(name, "surface", n, "exact")
    # The midpoint disk sum converges as n^-2: each (n, 2n) pair gives an
    # observed order.
    for name, n in (("ecq", 1_000), ("sphere", 1_000_000), ("ellipsoid", 5_000),
                    ("paraboloid", 4_000)):
        oracle(name, "volume", n, "order", pair=f"{name}/volume")
        oracle(name, "volume", 2 * n, "order", pair=f"{name}/volume")
    for name, q, ns in (("sphere", "volume", [1_000, 4_000, 16_000, 64_000]),
                        ("ecq", "arclength", [1_000, 10_000, 100_000]),
                        ("paraboloid", "surface", [10, 100, 1_000])):
        spec = profiles[name]
        ops.append({"id": f"table/{name}/{q}", "kind": "table", "profile": spec,
                    "quantity": q, "ns": ns, "ref": _reference(spec, q, stored)})
    return ops


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _j(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def cli_cold(seed: int) -> list[dict]:
    stored = refs.load_store()
    rng = random.Random(seed)
    ops = [{"id": "verify", "argv": ["verify"], "check": "verify"}]

    a = _jitter(rng, 1.0, 0.3)
    shapes = (
        ("circle", {"r": _jitter(rng, 1.0, 0.3)}, ("circumference", "area")),
        ("sphere", {"r": _jitter(rng, 1.0, 0.3)}, ("surface", "volume")),
        ("cylinder", {"r": _jitter(rng, 1.0, 0.3), "h": _jitter(rng, 2.0, 0.3)},
         ("surface", "volume")),
        ("paraboloid", {"a": a, "h": _jitter(rng, 3.0 * a, 0.1)}, ("surface", "volume")),
        ("ellipsoid", {"a": 2.0 * a, "b": 1.5 * a, "s": 5.0 * a}, ("surface", "volume")),
    )
    for shape, params, quantities in shapes:
        spec = _j({"shape": shape, "params": params})
        for q in quantities:
            ref = refs.shape_closed_form(shape, q, params)
            base = ["measure", "--quantity", q, "--shape", spec, "--json"]
            ops.append({"id": f"shape/{shape}/{q}", "argv": base, "check": "shape", "ref": ref})
            if (shape, q) == ("circle", "area"):
                # No oracle is defined for the flat circle area: exit 2.
                ops.append({"id": f"shape/{shape}/{q}/oracle", "argv": base + ["--oracle", "64"],
                            "check": "exit", "exit": 2})
                continue
            n = rng.choice((512, 1024, 2048, 4096))
            ops.append({"id": f"shape/{shape}/{q}/oracle", "argv": base + ["--oracle", str(n)],
                        "check": "shape_oracle", "ref": ref, "n": n, "quantity": q,
                        "profile": dict(zip(("name", "params"),
                                            refs.shape_profile(shape, params)))})

    profiles = (
        ("linear", {"slope": _jitter(rng, -1.0, 0.3), "intercept": 2.0, "lo": 0.0, "hi": 1.0}),
        ("euclidean_circle_quadrant", {"r": _jitter(rng, 1.0, 0.3)}),
        ("euclidean_parabola_quadrant", {"r": _jitter(rng, 1.0, 0.3)}),
        ("taxicab_circle_upper", {"r": _jitter(rng, 1.0, 0.3)}),
        ("taxicab_parabola", {"a": a, "h": _jitter(rng, 3.0 * a, 0.1)}),
        ("taxicab_ellipse_upper", {"a": 2.0 * a, "b": 1.5 * a, "s": 5.0 * a}),
    )
    for k, (name, params) in enumerate(profiles):
        q = QUANTITIES[k % 3]
        ops.append({"id": f"profile/{name}/{q}",
                    "argv": ["measure", "--quantity", q, "--json",
                             "--profile", _j({"catalog": name, "params": params})],
                    "check": "profile", "ref": refs.catalog_measure(name, q, params, stored)})

    tcu = {"catalog": "taxicab_circle_upper", "params": {"r": _jitter(rng, 1.0, 0.3)}}
    for q, ns in (("arclength", "4,16,64"), ("surface", "4,16,64"),
                  ("volume", "16,64,256,1024")):
        ops.append({"id": f"table/{q}", "argv": ["table", "--profile", _j(tcu),
                                                  "--quantity", q, "--ns", ns],
                    "check": "table", "quantity": q,
                    "ref": refs.catalog_measure("taxicab_circle_upper", q, tcu["params"])})

    hostile = (
        ("bad_json", ["measure", "--quantity", "volume", "--shape", '{"shape": "sphere", '], 2),
        ("unknown_shape", ["measure", "--quantity", "volume",
                           "--shape", _j({"shape": "torus", "params": {"r": 1}})], 2),
        ("unknown_profile", ["measure", "--quantity", "arclength",
                             "--profile", _j({"catalog": "spiral", "params": {}})], 2),
        ("missing_param", ["measure", "--quantity", "volume",
                           "--shape", _j({"shape": "cylinder", "params": {"r": 1}})], 2),
        ("negative_radius", ["measure", "--quantity", "surface",
                             "--shape", _j({"shape": "sphere", "params": {"r": -1}})], 3),
        ("paraboloid_h_lt_a", ["measure", "--quantity", "volume",
                               "--shape", _j({"shape": "paraboloid",
                                              "params": {"a": 2, "h": 1}})], 3),
        ("zero_cells", ["measure", "--quantity", "volume", "--oracle", "0",
                        "--profile", _j(tcu)], 3),
        ("table_not_increasing", ["table", "--profile", _j(tcu), "--quantity", "volume",
                                  "--ns", "64,16"], 3),
    )
    for name, argv, code in hostile:
        ops.append({"id": f"hostile/{name}", "argv": argv, "check": "exit", "exit": code})

    # Extreme magnitudes that the program handles.
    for name, shape, q, params in (
            ("sphere_1e100", "sphere", "volume", {"r": 1e100}),
            ("sphere_1e-100", "sphere", "surface", {"r": 1e-100})):
        ops.append({"id": f"extreme/{name}",
                    "argv": ["measure", "--quantity", q, "--json",
                             "--shape", _j({"shape": shape, "params": params})],
                    "check": "shape", "ref": refs.shape_closed_form(shape, q, params)})
    # F-cli-overflow: each fails every time.
    ops.append({"id": "overflow/sphere_1e200",
                "argv": ["measure", "--quantity", "volume",
                         "--shape", _j({"shape": "sphere", "params": {"r": 1e200}})],
                "check": "finite_or_error"})
    ops.append({"id": "overflow/cylinder_1e300",
                "argv": ["measure", "--quantity", "volume",
                         "--shape", _j({"shape": "cylinder", "params": {"r": 1e300, "h": 1e300}})],
                "check": "finite_or_error"})
    ops.append({"id": "overflow/ecq_1e-300",
                "argv": ["measure", "--quantity", "arclength", "--json",
                         "--profile", _j({"catalog": "euclidean_circle_quadrant",
                                          "params": {"r": 1e-300}})],
                "check": "profile", "ref": 2e-300})
    return ops


BUILDERS = {"cli_cold": cli_cold, "quad_solve": quad_solve, "oracle_sweep": oracle_sweep}

# Operations that fail every time because of a fault in the program; their
# inputs do not depend on the seed.  Any other failure makes a run incorrect.
FAULTS = {
    **{f"quad_solve:{i}": "F-small-mag" for i in (
        "ecq/arclength/1e-06", "ecq/surface/1e-06", "epq/surface/1e-06",
        "paraboloid/surface/1e-06", "ellipsoid/surface/1e-06",
        "sin0.5x6/arclength/1e-06", "sin0.5x6/surface/1e-06", "sin1x20/surface/1e-06",
        "sin3x2/surface/1e-06",
        "sin0.5x6/volume/1e-06", "sin1x20/volume/1e-06", "sin3x2/volume/1e-06",
        "sin0.5x6/volume/0.001", "sin1x20/volume/0.001", "sin3x2/volume/0.001")},
    **{f"quad_solve:{i}": "F-large-mag" for i in (
        "paraboloid/arclength/1e+06",)},
    **{f"cli_cold:{i}": "F-cli-overflow" for i in (
        "overflow/sphere_1e200", "overflow/cylinder_1e300", "overflow/ecq_1e-300")},
}


def build(workload: str, seed: int) -> list[dict]:
    ops = BUILDERS[workload](seed)
    for op in ops:
        op["fault"] = FAULTS.get(f"{workload}:{op['id']}")
    return ops
