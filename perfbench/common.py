"""Paths, the child-process environment and the seeded inputs of every workload.

Nothing here imports airylab: the inputs are generated from the seed alone,
and the program receives only what this module produces.
"""

import csv
import io
import os
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("studies", "fredholm-grid", "finite-n", "painleve")
LAYERS = ("special", "numerics", "fredholm", "equilibrium", "ensemble", "idpii", "cli")

# Each study with the exit code airylab documents for it.  crosschecks exits 1
# because crosscheck-twlocal fails at S = 1 (the criterion-9 residual S/2).
STUDY_EXIT = {
    "theorem1": 0,
    "theorem2": 0,
    "theorem3": 0,
    "crosschecks": 1,
    "fredholm": 0,
    "idpii-solve": 0,
    "eqmeasure": 0,
}

GAUSSIAN = (2.0, 4.0, 2.0)  # V = 2(1+x)^2: semicircle on [-2, 0], c_V = 2
QUARTIC = (0.0, 0.0, 0.5, 0.0, 0.05)
DEFORMATION = (0.0, -1.0)

# fredholm-grid: Nystrom size per temperature; each row also runs 2m once, at
# its middle s.  The size of the zeta grid, and so the time and memory of a
# determinant, follows s; the narrow middle stratum keeps the largest one,
# 2m at T = 4000, nearly the same for every seed.
FT_M = {0.125: 40, 1.0: 80, 8.0: 80, 4000.0: 160}
FT_S_EDGES = (-12.0, -1.0, 1.0, 12.0)
AIRY_M = (40, 80, 160, 320)
# The classical determinant breaks down beyond: det(I - K) comes out negative
# at s = 10 for m = 40 and at s = 12 for m = 160 and 320 (a FOUND line in
# CHANGES.md).  The grid stops where every m still gives a positive value.
AIRY_S_MAX = 8.0
AIRY_POINTS = 100_000
AIRY_RANGE = 28.0

FINITE_N = (64, 128, 256, 512)
EDGE_PAIRS = 12   # (u, v) pairs per point, each evaluated both ways
EDGE_DIAG = 4     # diagonal points per point

# painleve: the theorem2 temperature (t/c_V)^{-3/2} for t = 1, c_V = 2
PII_TEMPS = (1.0, 2.0 ** 1.5)
PII_GRIDS = ((0.04, 2800), (0.02, 5600))
PII_S_POINTS = 4
# I and P are read where both grids store a layer (every 0.02 in S on the
# default grid, 0.01 on the fine one): interp_I is linear in S between layers,
# which alone costs ~1e-6 in I midway and would hide the solver's own error.
PII_LAYER = 0.02
PII_UV = 4


BLAS_THREADS = "1"


def child_env():
    """Environment of every process the benchmark starts.

    airylab comes from the checkout's src/.  BLAS gets one thread: with two,
    a pass's time hinges on the second core being free, and on a shared
    2-core machine a finite-n pass took 7 to 13 s beside one busy process
    against 3.7 to 4.0 s with one thread.  The worker-count override of the
    CLI is removed so that every study runs in one process.
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("AIRYLAB_WORKERS", None)
    return env


def csv_rows(data):
    """The records of a study's CSV output, as dictionaries."""
    return list(csv.DictReader(io.StringIO(data.decode()))) if data else []


def _strata(rng, edges):
    """One uniform draw between each pair of neighbouring edges, ascending.

    Stratifying keeps the cost of a pass, which depends on where the draws
    fall, nearly the same for every seed.
    """
    return [rng.uniform(a, b) for a, b in zip(edges, edges[1:])]


def _even(lo, hi, k):
    return [lo + (hi - lo) * j / k for j in range(k + 1)]


def make_inputs(workload, seed):
    """The workload's inputs for one seed, as a JSON-ready dictionary."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "studies":
        return {"s_list": [rng.uniform(-0.5, 1.0), rng.uniform(1.5, 3.0)]}
    if workload == "fredholm-grid":
        dets = []
        for T, m in FT_M.items():
            ss = _strata(rng, FT_S_EDGES)
            dets += [["ft", s, T, m] for s in ss] + [["ft", ss[1], T, 2 * m]]
        ss = _strata(rng, _even(-12.0, AIRY_S_MAX, 3))
        dets += [["airy", s, None, m] for m in AIRY_M for s in ss]
        return {"dets": dets, "airy_seed": rng.randrange(2 ** 32),
                "airy_points": AIRY_POINTS, "airy_range": AIRY_RANGE}
    if workload == "finite-n":
        points = []
        for name, coeffs in (("gaussian", GAUSSIAN), ("quartic", QUARTIC)):
            for n in FINITE_N:
                pairs = [[rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
                         for _ in range(EDGE_PAIRS)]
                diag = [rng.uniform(-2.0, 2.0) for _ in range(EDGE_DIAG)]
                points.append({"potential": name, "coeffs": list(coeffs), "n": n,
                               "s": rng.uniform(-3.0, 3.0), "pairs": pairs, "diag": diag})
        return {"deformation": list(DEFORMATION), "points": points}
    # painleve
    return {"temps": list(PII_TEMPS), "grids": [list(g) for g in PII_GRIDS],
            "S": [round(S / PII_LAYER) * PII_LAYER for S in _strata(rng, _even(0.0, 3.0, PII_S_POINTS))],
            "kinf": [{"s": rng.uniform(-0.5, 0.7), "u": _strata(rng, _even(-2.0, 2.0, PII_UV))}
                     for _ in PII_TEMPS]}
