"""One pass over a workload: the calls into airylab whose time the benchmark measures.

Every function here runs inside a fresh worker process (worker.py), after
airylab is imported.  A pass returns its raw outputs for the checks, which
run later in the parent, and counts the operations it attempted and the ones
that raised.  Within a pass no operation repeats.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import HERE, STUDY_EXIT, child_env, csv_rows


class Ops:
    """Counts attempted and failed operations; a failed one yields None."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises counts as failed
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}{args}: {exc!r}")
            return None


def prepare(workload, inputs, passdir):
    """Untimed preparation, counted in setup_s."""
    if workload == "studies":
        cfg = os.path.join(passdir, "config.json")
        with open(cfg, "w") as fh:
            fh.write('{"s_list": [%r, %r]}\n' % tuple(inputs["s_list"]))
        return {"config": cfg}
    if workload == "fredholm-grid":
        rng = np.random.default_rng(inputs["airy_seed"])
        r = inputs["airy_range"]
        return {"x": rng.uniform(-r, r, inputs["airy_points"])}
    return {}


def run_pass(workload, inputs, prepared, passdir, traced):
    ops = Ops()
    if workload == "studies":
        outputs = _studies(inputs, prepared, passdir, traced, ops)
    elif workload == "fredholm-grid":
        outputs = _fredholm_grid(inputs, prepared, ops)
    elif workload == "finite-n":
        outputs = _finite_n(inputs, ops)
    else:
        outputs = _painleve(inputs, ops)
    return outputs, ops


def _studies(inputs, prepared, passdir, traced, ops):
    """The seven CLI studies, one after another, each in a fresh process."""
    env = child_env()
    out = {}
    for study, expected in STUDY_EXIT.items():
        outdir = os.path.join(passdir, study)
        args = [study, "--config", prepared["config"], "--out", outdir]
        if traced:
            spans = os.path.join(passdir, f"spans-{study}.jsonl")
            cmd = [sys.executable, str(HERE / "traced_cli.py"), spans] + args
        else:
            cmd = [sys.executable, "-m", "airylab.cli"] + args
        with open(os.path.join(passdir, f"{study}.stderr"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        path = Path(outdir, f"{study}.csv")
        data = path.read_bytes() if path.exists() else b""
        rows = csv_rows(data)
        ops.attempted += len(rows)
        ops.failed += sum(r["verdict"] != "pass" for r in rows)
        if code != expected:
            ops.attempted += not rows
            ops.failed += 1
            ops.errors.append(f"{study} exited {code}, expected {expected}")
        out[study] = {"exit": code, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                      "csv": data}
    return out


def _fredholm_grid(inputs, prepared, ops):
    from airylab.fredholm import fredholm_det_airy, fredholm_det_ft
    from airylab.special import airy_ai, airy_ai_prime

    dets = [ops(fredholm_det_ft, s, T, m) if kind == "ft" else ops(fredholm_det_airy, s, m)
            for kind, s, T, m in inputs["dets"]]
    x = prepared["x"]
    return {"dets": dets, "ai": ops(airy_ai, x), "aip": ops(airy_ai_prime, x)}


def _finite_n(inputs, ops):
    from airylab.ensemble import (DeformationQ, build_tables, kernel_trace, log_lstat_det,
                                  log_lstat_gamma, norming_ratio, rescaled_edge_kernel)
    from airylab.equilibrium import Potential, build_equilibrium

    Q = DeformationQ(inputs["deformation"])
    eqs = {}
    out = []
    for pt in inputs["points"]:
        name, n = pt["potential"], pt["n"]
        if name not in eqs:
            eqs[name] = eq = ops(build_equilibrium, Potential(pt["coeffs"]))
            out.append({"equilibrium": name, "a": eq.a, "c_v": eq.c_v, "ell": eq.ell,
                        "shift": eq.shift, "V": eq.V.poly.coeffs.copy()})
        eq = eqs[name]
        tables = ops(build_tables, eq, Q, n, pt["s"])
        if tables is None:
            continue
        grid, t_und, t_def, lsig = tables
        calls = [tuple(p) for p in pt["pairs"]] + [(v, u) for u, v in pt["pairs"]] \
            + [(u, u) for u in pt["diag"]]
        out.append({
            "point": pt, "nodes": grid.nodes.size,
            "und": (t_und.alpha, t_und.log_h), "def": (t_def.alpha, t_def.log_h),
            "gamma": ops(log_lstat_gamma, t_def, t_und, n),
            "det": ops(log_lstat_det, grid, t_und, n, lsig),
            "trace": ops(kernel_trace, grid, t_und, n, grid.log_w_und),
            "rho": ops(norming_ratio, eq, t_def, n),
            "edge": [(u, v, ops(rescaled_edge_kernel, eq, t_def, n, u, v)) for u, v in calls],
        })
    return out


def _painleve(inputs, ops):
    from airylab.idpii import interp_I, interp_P, k_infinity, solve_idpii

    out = []
    for T, kinf in zip(inputs["temps"], inputs["kinf"]):
        t_param = T ** (-2.0 / 3.0)
        for h_xi, n_steps in inputs["grids"]:
            sol = ops(solve_idpii, T, h_xi=h_xi, n_steps=n_steps)
            if sol is None:
                continue
            us = kinf["u"]
            out.append({
                "T": T, "h_xi": h_xi, "n_steps": n_steps, "S_max": sol.S_grid[0],
                "xi": sol.xi_grid, "phi0": sol.Phi[0].copy(), "dphi0": sol.dPhi[0].copy(),
                "I": [ops(interp_I, sol, S) for S in inputs["S"]],
                "P": [ops(interp_P, sol, S) for S in inputs["S"]],
                "K": [[ops(k_infinity, sol, u, v, kinf["s"], t_param) for v in us] for u in us],
            })
    return out
