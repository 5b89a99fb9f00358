"""Tests of the benchmark itself, at small sizes.

Each workload's check passes on the program's real outputs and fails on a
perturbed one; the oracles agree with independent computations; the traced
run records a span for every public function of the seven layers.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import passes  # noqa: E402
from common import STUDY_EXIT, WORKLOADS, child_env, make_inputs  # noqa: E402
from tracer import layer_metrics  # noqa: E402


# ------------------------------------------------------------------ oracles

def test_scipy_airy_matches_mpmath():
    x = np.array([-27.3, -9.1, -2.2, 0.0, 1.7, 4.4, 5.5, 9.3, 26.0])
    ai, aip = oracles.airy_scipy(x)
    mp_ai, mp_aip = oracles.airy_mpmath(x)
    env_ai, env_aip = oracles.airy_envelope(x, mp_ai, mp_aip)
    assert np.all(np.abs(ai - mp_ai) / env_ai < 1e-13)
    assert np.all(np.abs(aip - mp_aip) / env_aip < 1e-13)


def test_hermite_table_matches_discrete_stieltjes():
    # Gauss-Hermite quadrature is exact for the low moments of e^{-2n(1+x)^2}
    n, K = 5, 6
    y, w = np.polynomial.hermite.hermgauss(40)
    x = y / math.sqrt(2.0 * n) - 1.0
    w = w / math.sqrt(2.0 * n)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    alpha, log_h = [], []
    for k in range(K):
        h = np.sum(w * p * p)
        a = np.sum(w * x * p * p) / h
        alpha.append(a)
        log_h.append(math.log(h))
        beta = h / math.exp(log_h[-2]) if k else 0.0
        p, p_prev = (x - a) * p - beta * p_prev, p
    ha, hh = oracles.hermite_table(n, K)
    assert np.allclose(alpha, ha, atol=1e-13)
    assert np.allclose(log_h, hh, atol=1e-12)


def test_reference_determinants():
    # F_2(0) of Tracy-Widom and the finite-T determinant's approach to it
    assert abs(oracles.det_airy(0.0) - 0.96937282835526) < 1e-12
    assert abs(oracles.det_ft(0.0, 1e7) - oracles.det_airy(0.0)) < 1e-3
    vals = [oracles.det_ft(s, 1.0) for s in (-2.0, 0.0, 2.0)]
    assert 1.0 > vals[0] > vals[1] > vals[2] > 0.0


# ------------------------------------------------------------------- inputs

def _shape(obj):
    """The inputs with every number replaced: what is left is the work of a pass."""
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    return obj if isinstance(obj, str) or obj is None else type(obj).__name__


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        a = make_inputs(workload, 3)
        assert a == make_inputs(workload, 3)
        assert a != make_inputs(workload, 4)
        assert _shape(a) == _shape(make_inputs(workload, 4))
        assert json.loads(json.dumps(a)) == a


def test_benchmark_json_matches_the_metrics_printed():
    from run import TRACE_UNITS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == TRACE_UNITS
    assert {m["name"] for m in bench["end_to_end"]} == {"pass_s", "setup_s", "peak_rss_mb"}


# --------------------------------------------------------- checks, perturbed

def _fails(workload, inputs, out):
    return checks.check(workload, inputs, [out])


def test_fredholm_grid_check_catches_perturbations():
    inputs = {"dets": [["ft", -3.0, 8.0, 40], ["ft", 1.0, 8.0, 40], ["ft", 1.0, 8.0, 80],
                       ["airy", -1.0, None, 40], ["airy", -1.0, None, 80]],
              "airy_seed": 5, "airy_points": 2000, "airy_range": 28.0}
    out, ops = passes.run_pass("fredholm-grid", inputs,
                               passes.prepare("fredholm-grid", inputs, None), None, False)
    assert ops.failed == 0 and ops.attempted == 7
    assert _fails("fredholm-grid", inputs, out) == []
    for i in range(len(inputs["dets"])):
        bad = copy.deepcopy(out)
        bad["dets"][i] += 1e-7
        assert _fails("fredholm-grid", inputs, bad), i
    bad = copy.deepcopy(out)
    bad["ai"][17] *= 1 + 1e-9
    assert _fails("fredholm-grid", inputs, bad)
    bad = copy.deepcopy(out)
    bad["dets"][0], bad["dets"][1] = bad["dets"][1], bad["dets"][0]
    assert any("decreasing" in f for f in _fails("fredholm-grid", inputs, bad))


@pytest.fixture(scope="module")
def finite_n():
    inputs = {"deformation": [0.0, -1.0], "points": [
        {"potential": "gaussian", "coeffs": [2.0, 4.0, 2.0], "n": 24, "s": 0.7,
         "pairs": [[0.3, -1.1], [1.5, 1.52]], "diag": [0.4]},
        {"potential": "quartic", "coeffs": [0.0, 0.0, 0.5, 0.0, 0.05], "n": 16, "s": -1.2,
         "pairs": [[-0.5, 0.9]], "diag": [-1.0]}]}
    out, ops = passes.run_pass("finite-n", inputs, {}, None, False)
    assert ops.failed == 0
    return inputs, out


def test_finite_n_check_passes(finite_n):
    assert _fails("finite-n", *finite_n) == []


@pytest.mark.parametrize("field, index", [("und", 0), ("und", 1), ("def", 0), ("def", 1)])
def test_finite_n_check_catches_a_changed_recurrence_coefficient(finite_n, field, index):
    inputs, out = finite_n
    bad = copy.deepcopy(out)
    rec = bad[1]  # the Gaussian point
    rec[field][index][5] += 1e-7
    assert _fails("finite-n", inputs, bad)


@pytest.mark.parametrize("key", ["gamma", "det", "trace", "rho"])
def test_finite_n_check_catches_shifted_values(finite_n, key):
    inputs, out = finite_n
    for i in (1, 3):  # both potentials
        bad = copy.deepcopy(out)
        bad[i][key] += 1e-7
        assert _fails("finite-n", inputs, bad), (key, i)


def test_finite_n_check_catches_a_wrong_edge_kernel(finite_n):
    inputs, out = finite_n
    for j in range(len(out[1]["edge"])):
        bad = copy.deepcopy(out)
        u, v, k = bad[1]["edge"][j]
        bad[1]["edge"][j] = (u, v, k * (1 + 1e-7))
        assert _fails("finite-n", inputs, bad), j


def test_finite_n_check_catches_wrong_equilibrium_data(finite_n):
    inputs, out = finite_n
    bad = copy.deepcopy(out)
    bad[0]["ell"] += 1e-7
    assert _fails("finite-n", inputs, bad)


@pytest.fixture(scope="module")
def painleve():
    inputs = make_inputs("painleve", 0)
    inputs["temps"], inputs["kinf"] = inputs["temps"][:1], inputs["kinf"][:1]
    out, ops = passes.run_pass("painleve", inputs, {}, None, False)
    assert ops.failed == 0
    return inputs, out


def test_painleve_check_passes(painleve):
    assert _fails("painleve", *painleve) == []


@pytest.mark.parametrize("grid", [0, 1])
def test_painleve_check_catches_a_shifted_integral(painleve, grid):
    inputs, out = painleve
    bad = copy.deepcopy(out)
    bad[grid]["I"][2] += 1e-7
    assert _fails("painleve", inputs, bad)


def test_painleve_check_catches_bad_data_and_asymmetry(painleve):
    inputs, out = painleve
    bad = copy.deepcopy(out)
    bad[0]["phi0"][500] += 1e-9
    assert _fails("painleve", inputs, bad)
    bad = copy.deepcopy(out)
    bad[1]["K"][0][2] += 1e-7
    assert any("symmetric" in f for f in _fails("painleve", inputs, bad))
    bad = copy.deepcopy(out)
    bad[0]["P"][1] += 1e-7
    assert _fails("painleve", inputs, bad)


@pytest.fixture(scope="module")
def studies(tmp_path_factory):
    """Real eqmeasure, fredholm and theorem1 records; the other studies left empty."""
    inputs = {"s_list": [0.25, 2.0]}
    tmp = tmp_path_factory.mktemp("studies")
    cfg = passes.prepare("studies", inputs, str(tmp))["config"]
    out = {}
    for study, code in STUDY_EXIT.items():
        data = b""
        if study in ("eqmeasure", "fredholm"):
            subprocess.run([sys.executable, "-m", "airylab.cli", study, "--config", cfg,
                            "--out", str(tmp)], env=child_env(), check=True,
                           stdout=subprocess.DEVNULL)
            data = (tmp / f"{study}.csv").read_bytes()
        out[study] = {"exit": code, "wall_s": 1.0, "rss_mb": 1.0, "csv": data}
    head = "study,params,value,aux,verdict,config_hash\r\n"
    rows = [f"theorem1,16;{s!r},-0.5,error=0.1;route_det=-0.5;target="
            f"{math.log(oracles.det_ft(-2.0 * s, 0.125))!r},pass,abc\r\n"
            for s in inputs["s_list"]]
    out["theorem1"]["csv"] = (head + "".join(rows)).encode()
    return inputs, out


def test_studies_check_passes(studies):
    inputs, out = studies
    assert checks.check("studies", inputs, [out, copy.deepcopy(out)]) == []


def _edit_csv(out, study, old, new):
    bad = copy.deepcopy(out)
    data = bad[study]["csv"].decode()
    assert old in data
    bad[study]["csv"] = data.replace(old, new, 1).encode()
    return bad


def test_studies_check_catches_perturbations(studies):
    inputs, out = studies
    bad = copy.deepcopy(out)
    bad["crosschecks"]["exit"] = 0
    assert checks.check("studies", inputs, [bad])
    # a rerun that is not byte-identical
    bad = _edit_csv(out, "eqmeasure", "pass", "pass ")
    assert any("differs" in f for f in checks.check("studies", inputs, [out, bad]))
    rows = out["fredholm"]["csv"].decode().splitlines()
    value = rows[1].split(",")[2]
    bad = _edit_csv(out, "fredholm", value, repr(float(value) + 1e-7))
    assert checks.check("studies", inputs, [bad])
    target = out["theorem1"]["csv"].decode().split("target=")[1].split(",")[0]
    bad = _edit_csv(out, "theorem1", target, repr(float(target) + 1e-5))
    assert checks.check("studies", inputs, [bad])
    density = out["eqmeasure"]["csv"].decode().splitlines()[5].split(",")[2]
    bad = _edit_csv(out, "eqmeasure", "," + density + ",", "," + repr(float(density) + 1e-7) + ",")
    assert checks.check("studies", inputs, [bad])


# ------------------------------------------------------------------- tracer

TRACED_CALLS = textwrap.dedent("""
    import importlib, inspect, json, sys
    sys.path[:0] = [{bench!r}, {src!r}]
    from common import LAYERS
    from tracer import Tracer, install
    tracer = Tracer()
    names = install(tracer)
    # public functions of airylab still bound unwrapped, under any module's name
    unwrapped = [f"{{layer}}.{{attr}}" for layer in LAYERS
                 for attr, val in vars(importlib.import_module("airylab." + layer)).items()
                 if inspect.isfunction(val) and val.__module__.startswith("airylab")
                 and not attr.startswith("_") and not hasattr(val, "span_name")]
    from airylab import cli, ensemble, equilibrium, fredholm, idpii, special
    fredholm.fredholm_det_ft(0.5, 8.0, 40)
    fredholm.fredholm_det_ft(-0.0, 8.0, 40)
    fredholm.fredholm_det_ft(0.0, 8.0, 40)
    fredholm.fredholm_det_airy(0.0, 40)
    eq = equilibrium.build_equilibrium(equilibrium.Potential([2.0, 4.0, 2.0]))
    Q = ensemble.DeformationQ([0.0, -1.0])
    grid, t_und, t_def, lsig = ensemble.build_tables(eq, Q, 16, 0.0)
    ensemble.log_lstat_det(grid, t_und, 16, lsig)
    ensemble.rescaled_edge_kernel(eq, t_def, 16, 0.1, 0.2)
    sol = idpii.solve_idpii(1.0, h_xi=0.25, n_steps=400)
    idpii.k_infinity(sol, 0.1, 0.2, 0.0, 1.0)
    cfg = cli.LabConfig({{}})
    cli.emit(cli._STUDIES["eqmeasure"](cfg), "csv", {out!r} + ".csv")
    tracer.dump({out!r})
    print(json.dumps({{"names": names, "unwrapped": unwrapped}}))
""")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trace") / "spans.jsonl")
    code = TRACED_CALLS.format(bench=str(BENCH), src=str(ROOT / "src"), out=out)
    res = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                         capture_output=True, text=True)
    from tracer import load_spans

    return json.loads(res.stdout.strip().splitlines()[-1]), load_spans(out)


def test_every_public_function_is_wrapped(traced):
    result, _ = traced
    assert result["unwrapped"] == []
    names = set(result["names"])
    assert {"special.airy_ai", "numerics.gauss_legendre", "fredholm.fredholm_det_ft",
            "equilibrium.build_equilibrium", "ensemble.log_lstat_det", "idpii.solve_idpii",
            "cli.emit", "cli.main"} <= names
    assert {"cli.study:" + s for s in STUDY_EXIT} <= names


def test_traced_run_records_spans_under_every_binding(traced):
    _, spans = traced
    seen = {sp[2] for sp in spans}
    for name in ("special.airy_ai", "special.airy_ai_prime", "special.logistic",
                 "special.log_logistic", "special.fermi_weight",
                 "numerics.gauss_legendre", "numerics.lu_logdet", "numerics.map_log_linear",
                 "numerics.map_semi_infinite",
                 "fredholm.fredholm_det_ft", "fredholm.fredholm_det_airy",
                 "fredholm.build_nystrom", "fredholm.build_nystrom_airy",
                 "equilibrium.build_equilibrium", "equilibrium.solve_support",
                 "equilibrium.lagrange_constant",
                 "ensemble.build_tables", "ensemble.build_grid", "ensemble.stieltjes_recurrence",
                 "ensemble.weighted_values", "ensemble.log_lstat_det",
                 "ensemble.rescaled_edge_kernel", "ensemble.log_sigma",
                 "idpii.solve_idpii", "idpii.k_infinity", "idpii.interp_phi",
                 "cli.emit", "cli.study:eqmeasure"):
        assert name in seen, name
    # airy_ai called from fredholm and from idpii is nested in their spans
    parents = {sp[0]: sp for sp in spans}
    airy_parents = {parents[sp[1]][2] for sp in spans
                    if sp[2] == "special.airy_ai" and sp[1] in parents}
    assert {"fredholm.build_nystrom", "fredholm.build_nystrom_airy",
            "idpii.solve_idpii"} <= airy_parents


def test_layer_metrics_from_a_traced_run(traced):
    _, spans = traced
    m = layer_metrics([spans])
    assert m["fredholm.dets"] == 4 and m["fredholm.distinct_dets"] == 3  # -0.0 is 0.0
    assert m["numerics.gauss_legendre_calls"] == 4
    assert m["numerics.gauss_legendre_distinct"] == 1
    assert m["idpii.solves"] == 1 and m["idpii.rk4_steps"] == 400
    assert m["ensemble.recurrence_calls"] == 2 and m["ensemble.edge_kernel_calls"] == 1
    assert m["ensemble.deformation_flops"] == 2 * 16 ** 2 * m["ensemble.grid_nodes"]
    assert m["cli.records"] == 22 and m["equilibrium.builds"] == 2
    assert 0 < m["fredholm.assembly_self_s"] < m["fredholm.det_s"]
    assert m["special.airy_points"] > 0 and m["special.airy_ns_per_point"] > 0
    assert m["cli.study_self_s"] > 0


def test_layer_metrics_arithmetic():
    spans = [(1, 0, "special.airy_ai", 1.0, 3.0, {"points": 10}),
             (2, 0, "numerics.lu_logdet", 3.5, 4.0, None),
             (0, -1, "fredholm.fredholm_det_ft", 0.0, 5.0, {"key": ["ft", 0.0, 1.0, 80, 10.0]}),
             (3, -1, "fredholm.fredholm_det_ft", 6.0, 7.0, {"key": ["ft", 0.0, 1.0, 80, 10.0]})]
    m = layer_metrics([spans, spans])
    assert m["fredholm.dets"] == 4 and m["fredholm.distinct_dets"] == 2
    assert m["fredholm.assembly_self_s"] == pytest.approx(2 * (5.0 - 2.5 + 1.0))
    assert m["special.airy_ns_per_point"] == pytest.approx(1e9 * 4.0 / 20)


# ---------------------------------------------------------------------- run

def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "painleve",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
