"""Correctness checks of every pass's outputs, run after the timed passes.

check(workload, inputs, outputs) returns a list of failure messages, empty
when every output that was produced is correct.  An operation that raised
left None in the outputs; it is counted as failed by the pass and skipped
here.  References come from oracles.py and are computed once per run, since
every pass of a run has the same inputs.

Tolerances sit well above what the program reaches today (measured figures
in the comments) and well below a shift of 1e-7 in any checked value.
"""

import math

import numpy as np

import oracles
from common import STUDY_EXIT, csv_rows

# Determinants are compared in absolute terms, as in criterion 7: a Nystrom
# determinant is accurate to about 1e-16 absolute, so one far below 1 carries
# few correct digits (classical, s = 8, m = 40: 8e-4 relative at 2e-19).
DET_TOL = 2e-9        # against the reference; worst today 3.9e-10 (T = 1/8, m = 40)
LOG_DET_TOL = 1e-6    # theorem1's log target (about 0.1 to 4 in size) against the reference
DET_SELF_TOL = 1e-8   # m against 2m; worst today 3.9e-10
AIRY_TOL = 1e-12      # relative to the envelope; worst today 8e-14
ALPHA_TOL = 1e-12     # Hermite alpha_k; worst today 1e-14
LOG_H_TOL = 2e-11     # Hermite log h_k; worst today 1.4e-12 at n = 512
ROUTE_TOL = 1e-8      # relative two-route gap of log L_n; worst today 2.3e-10
TRACE_TOL = 1e-10     # relative kernel_trace - n; worst today 1e-13
EDGE_TOL = 1e-9       # relative, edge kernel against the Christoffel-Darboux form
RHO_TOL = 1e-12
PII_RES_TOL = 2e-8    # I and P, default grid against twice the resolution; worst 2.3e-9
PII_TW_TOL = 1e-6     # drift-free identity on S in [0, 3]; worst today 2.1e-7
PII_DATA_TOL = 2e-12  # initial layer against scipy's Airy values; worst 3.3e-13
EQ_TOL = 1e-9


def check(workload, inputs, outputs):
    return {"studies": _studies, "fredholm-grid": _fredholm_grid,
            "finite-n": _finite_n, "painleve": _painleve}[workload](inputs, outputs)


# ------------------------------------------------------------ fredholm-grid

def _fredholm_grid(inputs, outputs):
    fails = []
    refs = {}
    for kind, s, T, m in inputs["dets"]:
        if (kind, s, T) not in refs:
            refs[kind, s, T] = oracles.det_ft(s, T) if kind == "ft" else oracles.det_airy(s)
    rng = np.random.default_rng(inputs["airy_seed"])
    r = inputs["airy_range"]
    x = rng.uniform(-r, r, inputs["airy_points"])
    ref_ai, ref_aip = oracles.airy_scipy(x)
    env_ai, env_aip = oracles.airy_envelope(x, ref_ai, ref_aip)
    sample = np.argsort(np.abs(x))[::-max(1, x.size // 64)][:64]  # spread over |x|
    mp_ai, mp_aip = oracles.airy_mpmath(x[sample])
    for p, out in enumerate(outputs):
        rows = {}
        for (kind, s, T, m), d in zip(inputs["dets"], out["dets"]):
            if d is None:
                continue
            if not 0.0 < d <= 1.0:
                fails.append(f"pass {p}: det {kind} s={s} T={T} m={m} = {d} outside (0, 1]")
            if not abs(d - refs[kind, s, T]) <= DET_TOL:
                fails.append(f"pass {p}: det {kind} s={s} T={T} m={m} = {d!r}, "
                             f"reference {refs[kind, s, T]!r}")
            rows.setdefault((kind, T, m), []).append((s, d))
        for (kind, T, m), row in rows.items():
            vals = [d for _, d in sorted(row)]
            if len(vals) > 1 and not all(a > b for a, b in zip(vals, vals[1:])):
                fails.append(f"pass {p}: det {kind} T={T} m={m} not decreasing in s: {vals}")
            twice = dict(rows.get((kind, T, 2 * m), []))
            for s, d in row:
                if s in twice and not abs(d - twice[s]) <= DET_SELF_TOL:
                    fails.append(f"pass {p}: det {kind} s={s} T={T}: m={m} gives {d!r}, "
                                 f"2m gives {twice[s]!r}")
        for label, val, ref, env, mp in (("Ai", out["ai"], ref_ai, env_ai, mp_ai),
                                         ("Ai'", out["aip"], ref_aip, env_aip, mp_aip)):
            if val is None:
                continue
            err = np.abs(val - ref) / env
            if not np.all(err <= AIRY_TOL):
                i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
                fails.append(f"pass {p}: {label}({x[i]!r}) = {val[i]!r}, scipy {ref[i]!r}")
            err = np.abs(val[sample] - mp) / env[sample]
            if not np.all(err <= AIRY_TOL):
                i = int(np.argmax(err))
                fails.append(f"pass {p}: {label}({x[sample][i]!r}) = {val[sample][i]!r}, "
                             f"mpmath {mp[i]!r}")
    return fails


# ----------------------------------------------------------------- finite-n

def _weighted_values(alpha, log_h, n, x, log_w_half):
    """Phat_k(x) e^{log_w_half}, k <= n, from the recurrence data alone."""
    sqrt_beta = np.exp(0.5 * np.diff(log_h))  # sqrt(beta_k), k = 1..K-1
    u = np.exp(log_w_half - 0.5 * log_h[0])
    u_prev = np.zeros_like(u)
    vals = [u]
    for k in range(n):
        lower = sqrt_beta[k - 1] * u_prev if k else 0.0
        u, u_prev = ((x - alpha[k]) * u - lower) / sqrt_beta[k], u
        vals.append(u)
    return np.array(vals), sqrt_beta


def edge_kernel_cd(V, c_v, alpha, log_h, n, u, v):
    """The rescaled edge kernel by the Christoffel-Darboux formula.

    K_n(x, y) = sqrt(beta_n) (Phat_n(x) Phat_{n-1}(y) - Phat_{n-1}(x) Phat_n(y)) / (x - y),
    a different sum from the program's sum_k Phat_k(x) Phat_k(y).  Near the
    diagonal, where the quotient cancels, the sum itself.
    """
    scale = c_v * float(n) ** (2.0 / 3.0)
    x = np.array([u, v], dtype=float) / scale
    V_x = np.polynomial.polynomial.polyval(x, V)
    U, sqrt_beta = _weighted_values(alpha, log_h, n, x, -0.5 * n * V_x)
    if abs(u - v) < 0.05:
        return float(np.sum(U[:n, 0] * U[:n, 1])) / scale
    cd = sqrt_beta[n - 1] * (U[n, 0] * U[n - 1, 1] - U[n - 1, 0] * U[n, 1]) / (x[0] - x[1])
    return float(cd) / scale


def _finite_n(inputs, outputs):
    fails = []
    for p, out in enumerate(outputs):
        eqs = {}
        for rec in out:
            if "equilibrium" in rec:
                eqs[rec["equilibrium"]] = rec
                if rec["equilibrium"] == "gaussian":
                    for key, ref in oracles.GAUSSIAN_EQ.items():
                        if not abs(rec[key] - ref) <= EQ_TOL:
                            fails.append(f"pass {p}: Gaussian {key} = {rec[key]!r}, closed form {ref!r}")
                continue
            pt = rec["point"]
            n, name, tag = pt["n"], pt["potential"], f"pass {p}: {pt['potential']} n={pt['n']}"
            eq = eqs[name]
            alpha_u, log_h_u = rec["und"]
            alpha_d, log_h_d = rec["def"]
            if name == "gaussian":
                ha, hh = oracles.hermite_table(n, alpha_u.size)
                if not np.max(np.abs(alpha_u - ha)) <= ALPHA_TOL:
                    fails.append(f"{tag}: alpha off Hermite by {np.max(np.abs(alpha_u - ha)):.2e}")
                if not np.max(np.abs(log_h_u - hh)) <= LOG_H_TOL:
                    fails.append(f"{tag}: log h off Hermite by {np.max(np.abs(log_h_u - hh)):.2e}")
            g, d = rec["gamma"], rec["det"]
            if g is not None and d is not None and not abs(g - d) <= ROUTE_TOL * (1 + abs(g)):
                fails.append(f"{tag}: routes disagree, gamma {g!r} det {d!r}")
            if g is not None:
                ref = float(np.sum(log_h_d[:n] - log_h_u[:n]))
                if not abs(g - ref) <= 1e-12 * (1 + abs(ref)):
                    fails.append(f"{tag}: log_lstat_gamma {g!r} is not the norming ratio {ref!r}")
            if rec["trace"] is not None and not abs(rec["trace"] - n) <= TRACE_TOL * n:
                fails.append(f"{tag}: kernel_trace {rec['trace']!r} != n")
            rho = rec["rho"]
            ref = 4.0 * math.pi / eq["a"] * math.exp(2.0 * n * eq["ell"] - log_h_d[n - 1])
            if rho is not None and not (0.0 < rho < 1.0 and abs(rho - ref) <= RHO_TOL * ref):
                fails.append(f"{tag}: norming ratio {rho!r}, expected {ref!r}")
            values = {}
            for u, v, k in rec["edge"]:
                if k is None:
                    continue
                values[u, v] = k
                ref = edge_kernel_cd(eq["V"], eq["c_v"], alpha_d, log_h_d, n, u, v)
                if not abs(k - ref) <= EDGE_TOL * max(abs(ref), 1e-3):
                    fails.append(f"{tag}: edge kernel ({u}, {v}) = {k!r}, CD form {ref!r}")
                if u == v and not k > 0:
                    fails.append(f"{tag}: edge kernel diagonal ({u}) = {k!r} not positive")
            for (u, v), k in values.items():
                if (v, u) in values and not abs(values[v, u] - k) <= 1e-14 * max(abs(k), 1e-3):
                    fails.append(f"{tag}: edge kernel not symmetric at ({u}, {v})")
    return fails


# ----------------------------------------------------------------- painleve

def _painleve(inputs, outputs):
    fails = []
    S_points = inputs["S"]
    h = 0.05
    stencils = [[math.log(oracles.det_ft(-(S + j * h), 1.0)) for j in (-2, -1, 0, 1, 2)]
                for S in S_points]
    d2 = [(-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h) for f in stencils]
    for p, out in enumerate(outputs):
        by_T = {}
        for rec in out:
            T, tag = rec["T"], f"pass {p}: T={rec['T']:.6g} h_xi={rec['h_xi']}"
            by_T.setdefault(T, []).append(rec)
            arg = T ** (2.0 / 3.0) * rec["xi"] + rec["S_max"] * T ** (-1.0 / 3.0)
            ai, aip = oracles.airy_scipy(arg)
            err = max(np.max(np.abs(rec["phi0"] - T ** (1.0 / 6.0) * ai)),
                      np.max(np.abs(rec["dphi0"] - T ** (-1.0 / 6.0) * aip)))
            if not err <= PII_DATA_TOL:
                fails.append(f"{tag}: data at S_max off scipy's Airy values by {err:.2e}")
            K = rec["K"]
            for i, row in enumerate(K):
                for j, k in enumerate(row):
                    if k is None or K[j][i] is None:
                        continue
                    if not abs(k - K[j][i]) <= 1e-12 * max(abs(k), 1e-3):
                        fails.append(f"{tag}: K_inf not symmetric at ({i}, {j})")
                    if i == j and not k > 0:
                        fails.append(f"{tag}: K_inf diagonal {k!r} not positive")
            if T == 1.0 and rec["h_xi"] == inputs["grids"][0][0]:
                for S, I, ref in zip(S_points, rec["I"], d2):
                    if I is not None and not abs(ref + I) <= PII_TW_TOL:
                        fails.append(f"{tag}: d2/dS2 log L = {ref!r} but -I({S}) = {-I!r}")
        for T, recs in by_T.items():
            if len(recs) != 2:
                continue
            for key in ("I", "P"):
                for S, a, b in zip(S_points, recs[0][key], recs[1][key]):
                    if a is not None and b is not None and not abs(a - b) <= PII_RES_TOL:
                        fails.append(f"pass {p}: T={T:.6g} {key}({S}) = {a!r} on the default "
                                     f"grid, {b!r} at twice the resolution")
    return fails


# ------------------------------------------------------------------ studies

def _aux(row):
    return dict(kv.split("=", 1) for kv in row["aux"].split(";") if kv)


def _studies(inputs, outputs):
    fails = []
    s_list = inputs["s_list"]
    ft1 = {s: oracles.det_ft(s, 1.0) for s in s_list}
    # theorem1 target: log det at (-s c_V / t, t^3 / c_V^3) = (-2 s, 1/8) here
    target = {s: math.log(oracles.det_ft(-2.0 * s, 0.125)) for s in s_list}
    first = outputs[0]
    for p, out in enumerate(outputs):
        for study, expected in STUDY_EXIT.items():
            res = out[study]
            if res["exit"] != expected:
                fails.append(f"pass {p}: {study} exited {res['exit']}, expected {expected}")
            if res["csv"] != first[study]["csv"]:
                fails.append(f"pass {p}: {study}.csv differs from pass 0")
        for row in csv_rows(out["fredholm"]["csv"]):
            s = float(row["params"].split(";")[0])
            ref = ft1.get(s, math.nan)
            if not abs(float(row["value"]) - ref) <= DET_TOL:
                fails.append(f"pass {p}: fredholm s={s}: {row['value']} against {ref!r}")
        for row in csv_rows(out["theorem1"]["csv"]):
            if row["study"] != "theorem1" or row["verdict"] == "failed":
                continue
            s = float(row["params"].split(";")[1])
            ref = target.get(s, math.nan)
            if not abs(float(_aux(row)["target"]) - ref) <= LOG_DET_TOL:
                fails.append(f"pass {p}: theorem1 {row['params']} target {_aux(row)['target']}"
                             f" against {ref!r}")
        for row in csv_rows(out["eqmeasure"]["csv"]):
            if row["study"] == "eqmeasure-data":
                got = dict(_aux(row), a=row["value"])
                for key, ref in oracles.GAUSSIAN_EQ.items():
                    if not abs(float(got[key]) - ref) <= EQ_TOL:
                        fails.append(f"pass {p}: eqmeasure {key} = {got[key]}, closed form {ref!r}")
            else:
                x = float(row["params"])
                ref = float(oracles.semicircle_density(x))
                if not abs(float(row["value"]) - ref) <= 1e-12:
                    fails.append(f"pass {p}: density({x}) = {row['value']}, semicircle {ref!r}")
    return fails
