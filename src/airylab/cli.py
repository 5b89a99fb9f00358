"""Configuration, study runners, result records, and the command-line interface.

The batch front end reads a JSON configuration, runs one of the studies
(limit of the multiplicative statistic, edge-kernel convergence, norming
constant corrections, or the cross-check battery), and writes the results as
CSV or JSON records.  Output is deterministic: records are sorted by study,
then by the text of each parameter (so n = 128 comes before n = 16), and
floats are printed with 17 significant digits, so that a rerun with the same
configuration is byte-identical.

CSV column order (stable): study, params, value, aux, verdict, config_hash.
Exit codes: 0 all checks pass, 1 some check failed, 2 configuration error,
3 I/O error, 4 internal numeric failure.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from .equilibrium import Potential, build_equilibrium, szego_q0, q0_limit
from .ensemble import (DeformationQ, build_grid, build_tables, deformed_table, kernel_trace,
                       log_lstat_det, log_lstat_gamma, norming_ratio,
                       rescaled_edge_kernel, undeformed_table)
from .errors import DomainError
from .fredholm import fredholm_det_ft
from .idpii import interp_P, k_infinity, limit_coordinates, solve_idpii, tw_local_check
from .special import f_beta_quad


class ConfigError(Exception):
    """Invalid, malformed, or missing configuration (exit code 2)."""


_DEFAULTS = {
    "potential": [2.0, 4.0, 2.0],
    "deformation": [0.0, -1.0],
    "deformation2": [0.0, -1.0, 0.0, -0.1],
    "n_list": [16, 32, 64],
    "s_list": [0.0, 1.0],
    "t_param": 1.0,
    "idpii_s_max": 12.0,
}


def _is_number(v):
    """An int or float that is a finite float; a bool, though an int, is not a number here."""
    try:  # math.isfinite raises OverflowError on an int beyond the float range
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


class LabConfig:
    """Validated study configuration; fields mirror the default dictionary."""

    def __init__(self, data):
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        merged = dict(_DEFAULTS)
        merged.update(data)
        n_list = merged["n_list"]
        if not (isinstance(n_list, list) and n_list and all(map(_is_count, n_list))
                and all(a < b for a, b in zip(n_list, n_list[1:]))):
            raise ConfigError("'n_list' must be a nonempty list of strictly ascending "
                              "positive integers")
        # the numbers are stored as floats, so that 1 and 1.0 hash alike
        for key in ("potential", "deformation", "deformation2", "s_list"):
            val = merged[key]
            if not (isinstance(val, list) and val and all(map(_is_number, val))):
                raise ConfigError(f"'{key}' must be a nonempty list of finite numbers")
            merged[key] = [float(v) for v in val]
        # a repeated s would repeat rows, and give theorem3 zero-width s-differences
        if len(set(merged["s_list"])) < len(merged["s_list"]):
            raise ConfigError("'s_list' must not repeat an entry")
        # a potential or deformation the model refuses is a configuration error
        for key, model in (("potential", Potential), ("deformation", DeformationQ),
                           ("deformation2", DeformationQ)):
            try:
                model(merged[key])
            except DomainError as exc:
                raise ConfigError(f"'{key}' is refused: {exc}") from exc
        for key in ("t_param", "idpii_s_max"):
            if not _is_number(merged[key]):
                raise ConfigError(f"'{key}' must be a finite number")
            merged[key] = float(merged[key])
        if not merged["t_param"] > 0:
            raise ConfigError("'t_param' must be positive")
        for key, val in merged.items():
            setattr(self, key, val)

    def to_dict(self):
        return {k: getattr(self, k) for k in _DEFAULTS}

    def hash(self):
        """SHA-256 of the canonical JSON form of the values; equal configs hash equally."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def parse_config(path):
    """Read and validate a JSON configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"unreadable configuration {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    return LabConfig(data)


class ResultRecord:
    """One study result: parameter tuple, value, auxiliaries, verdict."""

    def __init__(self, study, params, value, aux=None, verdict="pass", config_hash=""):
        self.study = study
        self.params = tuple(params)
        self.value = value
        self.aux = dict(aux or {})
        self.verdict = verdict
        self.config_hash = config_hash

    def sort_key(self):
        return (self.study,) + tuple(str(p) for p in self.params)


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _fmt_map(d):
    return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(d.items()))


def emit(records, fmt, path):
    """Write records as CSV (fixed column order) or a JSON array."""
    records = sorted(records, key=lambda r: r.sort_key())
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["study", "params", "value", "aux", "verdict", "config_hash"])
            for r in records:
                writer.writerow([r.study, ";".join(_fmt(p) for p in r.params),
                                 _fmt(r.value), _fmt_map(r.aux), r.verdict, r.config_hash])
    elif fmt == "json":
        payload = [{"study": r.study, "params": [_fmt(p) for p in r.params],
                    "value": _fmt(r.value), "aux": {k: _fmt(v) for k, v in sorted(r.aux.items())},
                    "verdict": r.verdict, "config_hash": r.config_hash}
                   for r in records]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format: {fmt}")


def _failed(study, params, exc):
    """The record of a point that raised: no value, the error text, verdict 'failed'."""
    return ResultRecord(study, params, float("nan"), {"error": str(exc)}, "failed")


def _sweep(study, s, n_list, limit, point, bound):
    """A convergence study over n at fixed s: limit() once, then point(limit, n)
    -> (value, error, aux, ok) for each n.  A limit that raised fails every n
    (a ConfigError ends the study), a point that raised only its own.  Two or
    more errors give <study>-summary: strictly decreasing in n, log-log slope <= bound."""
    try:
        lim = limit()
    except ConfigError:
        raise
    except Exception as exc:
        return [_failed(study, (n, s), exc) for n in n_list]
    records, ns, errs = [], [], []
    for n in n_list:
        try:
            value, err, aux, ok = point(lim, n)
        except Exception as exc:
            records.append(_failed(study, (n, s), exc))
            continue
        records.append(ResultRecord(study, (n, s), value, aux, "pass" if ok else "fail"))
        ns.append(n)
        errs.append(err)
    if len(errs) >= 2:
        decreasing = all(a > b for a, b in zip(errs, errs[1:]))
        slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
        records.append(ResultRecord(f"{study}-summary", (s,), slope,
                                    {"decreasing": int(decreasing)},
                                    "pass" if decreasing and slope <= bound else "fail"))
    return records


def _deformation(cfg, key, eq):
    """The deformation under key, its sign condition checked over the support [-a, 0] too."""
    try:
        return DeformationQ(getattr(cfg, key), eq.a)
    except DomainError as exc:
        raise ConfigError(f"'{key}' is refused over the support [{-eq.a:.6g}, 0]: {exc}") from exc


def _setup(cfg):
    """Equilibrium, deformation Q and effective t = -Q'(0) / c_V of a configuration."""
    eq = build_equilibrium(Potential(cfg.potential))
    Q = _deformation(cfg, "deformation", eq)
    return eq, Q, Q.t / eq.c_v


def _solve_idpii(cfg, t, s_read):
    """The id-PII solution at t on S in [min(-2, lowest S of s_read), idpii_s_max],
    in RK4 steps of at most 0.005; an S above idpii_s_max is a configuration error."""
    S_read, T, _, _ = limit_coordinates(np.asarray(s_read, dtype=float), t)
    above = [float(S) for S in S_read if S > cfg.idpii_s_max]
    if above:
        raise ConfigError(f"id-PII at t = {t}, T = {T} is read at S = {above}, above "
                          f"idpii_s_max = {cfg.idpii_s_max}")
    S_min = min([-2.0] + S_read.tolist())
    # the slack keeps a width that is a whole number of steps, such as
    # (14.06 + 2) / 0.005 = 3212.0000000000005 in floats, from rounding up to one more
    n_steps = math.ceil((cfg.idpii_s_max - S_min) / 0.005 - 1e-9)
    try:
        return solve_idpii(T, S_min=S_min, S_max=cfg.idpii_s_max, n_steps=n_steps)
    except DomainError as exc:
        raise ConfigError(f"id-PII at t = {t}, T = {T} on S in [{S_min}, "
                          f"idpii_s_max = {cfg.idpii_s_max}]: {exc}") from exc


def _limit_det(sigma, T_L, where):
    """L(sigma, T_L); a point outside the Nystrom domain is a configuration error of where."""
    try:
        return fredholm_det_ft(sigma, T_L)
    except DomainError as exc:
        raise ConfigError(f"{where} reads L(sigma = {sigma}, T_L = {T_L}): {exc}") from exc


def _theorem1_target(s, t):
    """The n-independent limit log L(sigma, T_L) at the limit coordinates of (s, t)."""
    _, _, sigma, T_L = limit_coordinates(s, t)
    return float(np.log(_limit_det(sigma, T_L, f"theorem1 at s = {s}, t = {t}")))


def run_theorem1(cfg):
    """Per (n, s): both finite-n routes against the limiting log-determinant."""
    eq, Q, t_eff = _setup(cfg)

    undeformed = {}  # n -> (grid, undeformed table): neither depends on s

    def point(s, tgt, n):
        if n in undeformed:
            grid, t_und = undeformed[n]
            t_def, lsig = deformed_table(grid, Q, n, s)
        else:
            grid, t_und, t_def, lsig = build_tables(eq, Q, n, s)
            undeformed[n] = grid, t_und
        lg, ld = log_lstat_gamma(t_def, t_und, n), log_lstat_det(grid, t_und, n, lsig)
        err = abs(lg - tgt)
        routes_ok = abs(lg - ld) <= 1e-6 * (1.0 + abs(lg))
        return lg, err, {"route_det": ld, "target": tgt, "error": err}, routes_ok

    return [r for s in cfg.s_list
            for r in _sweep("theorem1", s, cfg.n_list, lambda: _theorem1_target(s, t_eff),
                            functools.partial(point, s), -0.3)]


def run_theorem2(cfg):
    """Sup over a 5x5 grid of the finite-n edge kernel minus its limit."""
    eq, Q, t_eff = _setup(cfg)
    s = cfg.s_list[0]
    sol = _solve_idpii(cfg, t_eff, [s])
    us = np.linspace(-2.0, 2.0, 5)
    # both kernels are symmetric to the bit, so the pairs u <= v give the sup
    pairs = [(u, v) for i, u in enumerate(us) for v in us[i:]]

    def point(limit, n):
        t_def = deformed_table(build_grid(eq, n), Q, n, s)[0]
        sup = max(abs(rescaled_edge_kernel(eq, t_def, n, u, v) - k)
                  for (u, v), k in zip(pairs, limit))
        return sup, sup, {}, True

    return _sweep("theorem2", s, cfg.n_list,
                  lambda: [k_infinity(sol, u, v, s, t_eff) for u, v in pairs], point, -0.2)


def run_theorem3(cfg):
    """Norming-constant corrections c_n = n^{1/3}(1/2 - rho_n) and Q-universality."""
    eq, Q1, t_eff = _setup(cfg)
    Q2 = _deformation(cfg, "deformation2", eq)
    if abs(Q1.t - Q2.t) > 1e-12:
        raise ConfigError("the two deformations must share t = -Q'(0)")
    # only the s-differences read the solution, and one s has none
    sol = _solve_idpii(cfg, t_eff, cfg.s_list) if len(cfg.s_list) >= 2 else None

    records = []
    c_by_q = {}
    for label, Q in (("Q1", Q1), ("Q2", Q2)):
        for s in cfg.s_list:
            for n in cfg.n_list:
                try:  # one failing point does not end the study
                    r = norming_ratio(eq, deformed_table(build_grid(eq, n), Q, n, s)[0], n)
                except Exception as exc:
                    records.append(_failed("theorem3", (label, n, s), exc))
                    continue
                c_n = n ** (1.0 / 3.0) * (0.5 - r)
                c_by_q[(label, n, s)] = c_n
                records.append(ResultRecord("theorem3", (label, n, s), r,
                                            {"c_n": c_n}, "pass"))
    for n in cfg.n_list:
        for s in cfg.s_list:
            if ("Q1", n, s) in c_by_q and ("Q2", n, s) in c_by_q:
                diff = abs(c_by_q[("Q1", n, s)] - c_by_q[("Q2", n, s)])
                records.append(ResultRecord("theorem3-universality", (n, s), diff, {}, "pass"))
    # s-differences of c_n against the antiderivative route, offset-free
    if sol is not None:
        pred = {}
        for s in cfg.s_list:
            S, T, _, _ = limit_coordinates(s, t_eff)
            pred[s] = t_eff * T * (interp_P(sol, S) - S ** 2 / (4.0 * T))  # t T = t^{-1/2}
        s0 = cfg.s_list[0]
        for s in cfg.s_list[1:]:
            for n in cfg.n_list:
                if ("Q1", n, s) in c_by_q and ("Q1", n, s0) in c_by_q:
                    dc = c_by_q[("Q1", n, s)] - c_by_q[("Q1", n, s0)]
                    dp = pred[s] - pred[s0]
                    records.append(ResultRecord("theorem3-sdiff", (n, s0, s), dc,
                                                {"predicted": dp, "error": abs(dc - dp)},
                                                "pass"))
    return records


def run_crosschecks(cfg):
    """Trace identity, Szego limit, the Fermi-Dirac integral F_{-1/2}(0) that
    the Szego limit reads, Fredholm convergence, and the local
    Tracy-Widom-type consistency check."""
    records = []
    eq, Q, _ = _setup(cfg)

    n0 = cfg.n_list[0]
    grid = build_grid(eq, n0)
    t_und = undeformed_table(grid, n0)
    tr = kernel_trace(grid, t_und, n0, grid.log_w_und)
    records.append(ResultRecord("crosscheck-trace", (n0,), tr,
                                {"target": float(n0)},
                                "pass" if abs(tr - n0) <= 1e-8 * n0 else "fail"))

    q0 = 64 ** (1.0 / 3.0) * szego_q0(eq, Q.poly, 64, 0.0)
    q0_lim = q0_limit(0.0, Q.t, eq.a)
    ratio = q0 / q0_lim
    records.append(ResultRecord("crosscheck-szego", (64,), ratio, {"q0": q0, "limit": q0_lim},
                                "pass" if 0.85 <= ratio <= 1.15 else "fail"))

    # the F_{-1/2}(0) that q0_limit reads above, against its closed form
    # sqrt(pi) (1 - 2^{-1/2}) zeta(3/2), correctly rounded from 30 digits
    fm12, fm12_exact = f_beta_quad(-0.5, 0.0), 1.356187790306202
    poly_err = abs(fm12 - fm12_exact)
    records.append(ResultRecord("crosscheck-polylog", (), poly_err,
                                {"quad": fm12, "target": fm12_exact},
                                "pass" if poly_err <= 1e-12 else "fail"))

    # the convergence table and the stencil share (s, T = 1, m = 80) at s = 0
    # and -1; the stencil's -0.0 is the key 0.0, and the determinant there is
    # the same to the bit
    @functools.cache
    def det(s, T, m):
        return fredholm_det_ft(s, T, m)

    conv = max(abs(det(s, T, 40) - det(s, T, 80))
               for s in (-1.0, 0.0, 1.0) for T in (0.125, 1.0, 8.0))
    records.append(ResultRecord("crosscheck-fredholm", (), conv, {},
                                "pass" if conv < 1e-8 else "fail"))

    sol = _solve_idpii(cfg, 1.0, (0.0, 1.0))  # at t = 1, S = s and T = T_L = 1
    spacing = 0.05
    for S in (0.0, 1.0):
        _, _, sigma, T_L = limit_coordinates(S + spacing * np.arange(-2.0, 3.0), 1.0)
        stencil = [float(np.log(det(x, T_L, 80))) for x in sigma.tolist()]
        res = tw_local_check(sol, S, stencil, spacing)
        records.append(ResultRecord("crosscheck-twlocal", (S,), res, {},
                                    "pass" if res <= 2e-3 else "fail"))
    return records


def _run_fredholm(cfg):
    """L(s, t^3) for s in s_list, the temperature of the idpii-solve solution at t."""
    T_L = limit_coordinates(0.0, cfg.t_param)[3]
    return [ResultRecord("fredholm", (s, T_L),
                         _limit_det(s, T_L, f"fredholm at t_param = {cfg.t_param}"), {}, "pass")
            for s in cfg.s_list]


def _run_idpii_solve(cfg):
    sol = _solve_idpii(cfg, cfg.t_param, ())
    stride = max(1, sol.S_grid.size // 50)
    return [ResultRecord("idpii", (float(S),), float(I),
                         {"P": float(P), "truncated": int(flag)}, "pass")
            for S, I, P, flag in zip(sol.S_grid[::stride], sol.I_of_S[::stride],
                                     sol.P_of_S[::stride], sol.truncation_flags[::stride])]


def _run_eqmeasure(cfg):
    eq = build_equilibrium(Potential(cfg.potential))
    recs = [ResultRecord("eqmeasure-data", (), eq.a,
                         {"c_v": eq.c_v, "ell": eq.ell, "shift": eq.shift}, "pass")]
    for x in np.linspace(-eq.a, 0.0, 21):
        recs.append(ResultRecord("eqmeasure-density", (float(x),),
                                 float(eq.density(x)), {}, "pass"))
    return recs


_STUDIES = {
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "theorem3": run_theorem3,
    "crosschecks": run_crosschecks,
    "fredholm": _run_fredholm,
    "idpii-solve": _run_idpii_solve,
    "eqmeasure": _run_eqmeasure,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="airylab",
                                     description="Edge-statistics numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _STUDIES:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config else LabConfig({})
        records = _STUDIES[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    config_hash = cfg.hash()
    for r in records:
        r.config_hash = config_hash

    out_path = os.path.join(args.out, f"{args.command}.{args.format}")
    try:
        os.makedirs(args.out, exist_ok=True)
        emit(records, args.format, out_path)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3

    failed = [r for r in records if r.verdict != "pass"]
    print(f"{len(records)} records written to {out_path}; {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
