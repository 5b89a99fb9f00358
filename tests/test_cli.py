"""Tests for configuration handling, record emission, and the CLI front end."""

import inspect
import json
import os

import numpy as np
import pytest

from airylab import cli, ensemble, equilibrium, fredholm
from airylab.cli import (ConfigError, LabConfig, ResultRecord, emit, main,
                         parse_config, run_theorem1)
from airylab.ensemble import build_tables, rescaled_edge_kernel
from airylab.errors import BreakdownError
from airylab.idpii import k_infinity, limit_coordinates


def write_config(tmp_path, data):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return str(p)


class TestConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"potential": [2.0, 4.0, 2.0]}))
        assert cfg.n_list == [16, 32, 64]
        assert cfg.t_param == 1.0

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, {"potenial": [1.0]}))

    def test_invalid_t_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, {"t_param": -1.0}))

    def test_unsorted_n_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, {"n_list": [32, 16]}))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"s_list": [0.5], "idpii_s_max": 40}))
        again = LabConfig(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()
        assert again.hash() == cfg.hash()

    def test_hash_depends_on_content(self):
        a = LabConfig({"s_list": [0.0]})
        b = LabConfig({"s_list": [1.0]})
        assert a.hash() != b.hash()
        assert LabConfig({"s_list": [0.0]}).hash() == a.hash()

    def test_hash_is_by_value(self):
        # ints are stored as the floats they equal, so the spelling of a number
        # does not change the hash
        cfg = LabConfig({"t_param": 1, "potential": [2, 4, 2], "s_list": [0, 1]})
        assert cfg.t_param == 1.0 and isinstance(cfg.t_param, float)
        assert all(isinstance(v, float) for v in cfg.potential + cfg.s_list)
        assert cfg.hash() == LabConfig({}).hash()
        assert LabConfig({"idpii_s_max": 12}).hash() == LabConfig({"idpii_s_max": 12.0}).hash()

    def test_seven_keys(self):
        assert sorted(cli._DEFAULTS) == ["deformation", "deformation2", "idpii_s_max",
                                         "n_list", "potential", "s_list", "t_param"]


class TestEmission:
    def make_records(self):
        return [
            ResultRecord("study", (2, 0.5), 1.0 / 3.0, {"x": np.pi}, "pass", "abc"),
            ResultRecord("study", (1, 0.5), 2.0 / 7.0, {}, "fail", "abc"),
        ]

    def test_empty_csv_has_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines == ["study,params,value,aux,verdict,config_hash"]

    def test_records_sorted_by_params(self, tmp_path):
        path = tmp_path / "r.csv"
        emit(self.make_records(), "csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[1].startswith("study,1;")
        assert lines[2].startswith("study,2;")

    def test_parameters_sort_as_text(self, tmp_path):
        # the sort key is the text of each parameter, not its number
        cfg = write_config(tmp_path, {"n_list": [16, 128, 512]})
        assert main(["theorem1", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "theorem1.csv").read_text().splitlines()[1:]
        n = [r.split(",")[1].split(";")[0] for r in rows if r.startswith("theorem1,")]
        assert n == ["128", "128", "16", "16", "512", "512"]

    def test_float_round_trip_17_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        emit(self.make_records(), "csv", str(path))
        row = path.read_text().strip().splitlines()[2].split(",")
        assert float(row[2]) == 1.0 / 3.0

    def test_csv_and_json_carry_identical_values(self, tmp_path):
        recs = self.make_records()
        emit(recs, "csv", str(tmp_path / "r.csv"))
        emit(recs, "json", str(tmp_path / "r.json"))
        csv_vals = [line.split(",")[2]
                    for line in (tmp_path / "r.csv").read_text().strip().splitlines()[1:]]
        json_vals = [r["value"] for r in json.loads((tmp_path / "r.json").read_text())]
        assert csv_vals == json_vals

    def test_rerun_is_byte_identical(self, tmp_path):
        emit(self.make_records(), "csv", str(tmp_path / "a.csv"))
        emit(self.make_records(), "csv", str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([], "xml", str(tmp_path / "r.xml"))


class TestRunners:
    def test_theorem1_small_run(self):
        cfg = LabConfig({"n_list": [4, 8], "s_list": [0.0]})
        records = run_theorem1(cfg)
        rows = [r for r in records if r.study == "theorem1"]
        assert len(rows) == 2
        for r in rows:
            assert r.verdict == "pass"  # route agreement
            assert abs(r.value - r.aux["route_det"]) <= 1e-6 * (1 + abs(r.value))
        summary = [r for r in records if r.study == "theorem1-summary"]
        assert len(summary) == 1

    def test_theorem1_point_past_the_recurrence_range_fails(self):
        # e^{-nV/2} is subnormal on the support at n = 768: that point fails
        # with the guard's message, the others of its s still run
        records = run_theorem1(LabConfig({"n_list": [16, 768], "s_list": [0.0]}))
        rows = {r.params[0]: r for r in records if r.study == "theorem1"}
        assert rows[16].verdict == "pass"
        assert rows[768].verdict == "failed"
        assert "build_grid at n=768" in rows[768].aux["error"]

    def test_theorem1_point_past_the_det_accuracy_fails(self, monkeypatch):
        # the target refuses |s| > 12 by itself; a stand-in lets the points run
        monkeypatch.setattr(cli, "_theorem1_target", lambda s, t: -1.0)
        records = run_theorem1(LabConfig({"n_list": [16, 32], "s_list": [-30.0, 0.0]}))
        rows = {r.params: r for r in records if r.study == "theorem1"}
        for n in (16, 32):
            assert rows[(n, -30.0)].verdict == "failed"
            assert f"log_lstat_det at n={n}" in rows[(n, -30.0)].aux["error"]
            assert "1 - lambda_max" in rows[(n, -30.0)].aux["error"]
            assert rows[(n, 0.0)].verdict == "pass"
            assert np.isfinite(rows[(n, 0.0)].aux["route_det"])

    def test_theorem2_limit_kernel_computed_once(self, monkeypatch):
        # K_inf does not depend on n: one 5 x 5 grid, not one per n, read on
        # its 15 symmetric pairs u <= v
        calls = []
        real = cli.k_infinity

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "k_infinity", counting)
        records = cli.run_theorem2(LabConfig({"n_list": [4, 8, 16], "s_list": [0.0]}))
        assert len(calls) == 15
        assert len([r for r in records if r.study == "theorem2"]) == 3

    def test_theorem2_kernels_are_symmetric_to_the_bit(self):
        # theorem2 reads only u <= v of its grid, so the sup rests on this
        cfg = LabConfig({})
        eq, Q, t_eff = cli._setup(cfg)
        s = cfg.s_list[0]
        sol = cli._solve_idpii(cfg, t_eff, [s])
        us = np.linspace(-2.0, 2.0, 5)
        for u in us:
            for v in us:
                assert k_infinity(sol, u, v, s, t_eff) == k_infinity(sol, v, u, s, t_eff)
        for n in (16, 64, 256):
            t_def = build_tables(eq, Q, n, s)[2]
            for u in us:
                for v in us:
                    assert (rescaled_edge_kernel(eq, t_def, n, u, v)
                            == rescaled_edge_kernel(eq, t_def, n, v, u))

    def test_theorem2_failed_limit_fails_every_n(self, monkeypatch):
        def failing(*args):
            raise BreakdownError("K_inf is not finite")

        monkeypatch.setattr(cli, "k_infinity", failing)
        records = cli.run_theorem2(LabConfig({"n_list": [4, 8], "s_list": [0.0]}))
        assert {r.params for r in records} == {(4, 0.0), (8, 0.0)}
        assert all(r.study == "theorem2" and r.verdict == "failed"
                   and r.aux["error"] == "K_inf is not finite" for r in records)

    @pytest.mark.parametrize("s", [0.5, -1.3])
    def test_theorem3_one_s_solves_no_idpii(self, monkeypatch, s):
        # only the s-differences read the solution, and one s has none; so
        # the solve does not run
        calls = []
        monkeypatch.setattr(cli, "solve_idpii", lambda *a, **k: calls.append(a))
        records = cli.run_theorem3(LabConfig({"n_list": [4, 8], "s_list": [s]}))
        assert calls == []
        assert {r.study for r in records} == {"theorem3", "theorem3-universality"}
        assert all(r.verdict == "pass" for r in records)


class TestTablesWhereRead:
    """Each study runs the Stieltjes recurrences whose tables it reads."""

    # n_list [16, 32], s_list [0, 1]: theorem1 reads the s-independent
    # undeformed table once per n and the deformed one per (n, s); theorem2
    # and theorem3 (two deformations) only the deformed one; crosschecks only
    # the undeformed one, at the first n
    @pytest.mark.parametrize("study, calls", [
        ("theorem1", 2 + 2 * 2), ("theorem2", 2), ("theorem3", 2 * 2 * 2),
        ("crosschecks", 1), ("fredholm", 0), ("idpii-solve", 0), ("eqmeasure", 0),
    ])
    def test_recurrences_per_study(self, monkeypatch, study, calls):
        count = []
        recurrence = ensemble.stieltjes_recurrence

        def spy(*args, **kwargs):
            count.append(1)
            return recurrence(*args, **kwargs)

        monkeypatch.setattr(ensemble, "stieltjes_recurrence", spy)
        cli._STUDIES[study](LabConfig({"n_list": [16, 32], "s_list": [0.0, 1.0]}))
        assert len(count) == calls

    def test_theorem3_builds_one_grid_per_n(self, monkeypatch):
        ns = []
        build_grid = cli.build_grid

        def spy(eq, n):
            ns.append(n)
            return build_grid(eq, n)

        monkeypatch.setattr(cli, "build_grid", spy)
        cli.run_theorem3(LabConfig({"n_list": [16, 32], "s_list": [0.0, 1.0]}))
        assert ns == [16, 32]


class _Solved(Exception):
    """Ends a study at its id-PII solve, whose arguments the spy has kept."""


def _idpii_window(monkeypatch, study, data):
    """(S_min, S_max, h_xi, n_steps) of the one solve_idpii call of study on
    data, the solver's defaults filled in."""
    calls = []
    signature = inspect.signature(cli.solve_idpii)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        raise _Solved

    monkeypatch.setattr(cli, "solve_idpii", spy)
    with pytest.raises(_Solved):
        cli._STUDIES[study](LabConfig(data))
    (args,) = calls
    return args["S_min"], args["S_max"], args["h_xi"], args["n_steps"]


class TestIdPiiWindow:
    @pytest.mark.parametrize("data, window", [
        ({}, (-2.0, 12.0, 0.04, 2800)),
        ({"idpii_s_max": 40.0}, (-2.0, 40.0, 0.04, 8400)),
        # 16.06 / 0.005 is 3212.0000000000005 in floats: a plain ceiling gives 3213 steps
        ({"idpii_s_max": 14.06}, (-2.0, 14.06, 0.04, 3212)),
    ])
    def test_steps_of_0_005(self, monkeypatch, data, window):
        assert _idpii_window(monkeypatch, "theorem2", data) == window

    def test_default_step_is_0_005_to_the_bit(self, monkeypatch):
        S_min, S_max, _, n_steps = _idpii_window(monkeypatch, "idpii-solve", {})
        assert (S_min - S_max) / n_steps == -0.005

    def test_window_reaches_the_lowest_s_read(self, monkeypatch):
        s_list = [-1.3, 0.4, 2.7]
        S_min, S_max, _, n_steps = _idpii_window(monkeypatch, "theorem3", {"s_list": s_list})
        t = cli._setup(LabConfig({}))[2]
        S_read = [limit_coordinates(s, t)[0] for s in s_list]
        assert S_min == min(S_read) < -2.0 and max(S_read) <= S_max == 12.0
        assert (S_max - S_min) / n_steps <= 0.005 < (S_max - S_min) / (n_steps - 1)


class TestTheorem1Target:
    """The limit det(I - K) does not depend on n: one determinant per s."""

    CFG = {"n_list": [4, 8], "s_list": [0.0, 1.0]}

    def test_one_determinant_per_s(self, monkeypatch):
        calls = []
        real = cli.fredholm_det_ft

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "fredholm_det_ft", counting)
        records = run_theorem1(LabConfig(self.CFG))
        assert len(calls) == len(self.CFG["s_list"])
        assert len({c[0] for c in calls}) == len(self.CFG["s_list"])
        targets = {r.params[1]: r.aux["target"] for r in records if r.study == "theorem1"}
        assert len(targets) == 2

    def test_failed_target_fails_every_n_of_its_s(self, monkeypatch):
        real = cli.fredholm_det_ft

        def failing(s, T):
            if s != 0.0:  # the target of s = 1
                raise BreakdownError("det(I - K) is not positive")
            return real(s, T)

        monkeypatch.setattr(cli, "fredholm_det_ft", failing)
        records = run_theorem1(LabConfig(self.CFG))
        rows = {r.params: r for r in records if r.study == "theorem1"}
        assert len(rows) == 4
        for n in self.CFG["n_list"]:
            assert rows[(n, 1.0)].verdict == "failed"
            assert "not positive" in rows[(n, 1.0)].aux["error"]
            assert rows[(n, 0.0)].verdict == "pass"
        summary = [r.params for r in records if r.study == "theorem1-summary"]
        assert summary == [(0.0,)]


class TestCrosscheckDeterminants:
    def test_each_determinant_computed_once(self, monkeypatch):
        # the convergence table and the twlocal stencil, both at m = 80 there,
        # share (s, T, m) = (0, 1, 80) and (-1, 1, 80); the stencil asks for
        # s = -(0 + 0 * 0.05) = -0.0, the same determinant as s = 0.0.  So 9
        # (s, T) pairs at m = 40 and 80 and 10 stencil points, 2 of them shared
        calls = []
        real = cli.fredholm_det_ft

        def counting(s, T, m):  # the map scale L keeps its default
            calls.append((s, T, m))
            return real(s, T, m)

        monkeypatch.setattr(cli, "fredholm_det_ft", counting)
        records = cli.run_crosschecks(LabConfig({}))
        assert len(calls) == len(set(calls)) == 9 * 2 + 10 - 2
        assert {r.study for r in records} >= {"crosscheck-fredholm", "crosscheck-twlocal"}


class TestCrosscheckPolylog:
    def test_checks_the_value_the_szego_limit_reads(self):
        # F_{-1/2}(0) = sqrt(pi) (1 - 2^{-1/2}) zeta(3/2), which q0_limit reads at s = 0
        records = cli.run_crosschecks(LabConfig({}))
        assert len(records) == 6
        (row,) = [r for r in records if r.study == "crosscheck-polylog"]
        assert row.params == () and row.verdict == "pass" and row.value <= 1e-12
        assert row.aux["target"] == 1.356187790306202
        assert row.value == abs(row.aux["quad"] - row.aux["target"])


class TestMain:
    def test_eqmeasure_exit_zero(self, tmp_path):
        code = main(["eqmeasure", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "eqmeasure.csv").exists()

    def test_config_error_exit_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"t_param": -2.0}))
        assert main(["eqmeasure", "--config", str(p)]) == 2

    # fredholm_L, fredholm_m, idpii_h_xi and idpii_n_steps are no longer
    # keys: those cases are refused as unknown keys
    @pytest.mark.parametrize("text", [
        '{"t_param": "1"}', '{"t_param": true}', '{"t_param": Infinity}',
        '{"fredholm_L": NaN}', '{"idpii_h_xi": "0.04"}',
        '{"workers": "2"}', '{"workers": 1.0}', '{"fredholm_m": "80"}',
        '{"fredholm_m": 0}', '{"idpii_n_steps": 2800.5}',
        '{"n_list": [16, "32"]}', '{"n_list": [0, 16]}', '{"n_list": [16, 32.0]}',
        '{"s_list": [0.0, null]}', '{"s_list": [NaN]}', '{"potential": [2.0, false]}',
        '{"deformation": "0, -1"}', '{"out_dir": 5}',
    ])
    def test_malformed_value_exit_two(self, tmp_path, text, capsys):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["fredholm", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["t_param", "s_list", "potential"])
    def test_int_beyond_float_range_exit_two(self, tmp_path, key, capsys):
        # a 400-digit int is finite as an int, but has no float
        big = 10 ** 400
        value = {"t_param": big, "s_list": [0.0, big], "potential": [2.0, 4.0, big]}[key]
        cfg = write_config(tmp_path, {key: value})
        assert main(["fredholm", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{key}'" in err

    def test_missing_config_exit_two(self):
        assert main(["eqmeasure", "--config", "/no/such/file.json"]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exit_two(self, tmp_path, kind, capsys):
        p = tmp_path / "config.json"
        if kind == "directory":
            p.mkdir()
        else:
            p.write_bytes('{"s_list": [0.5], "out_dir": "r\xe9sultats"}'.encode("latin-1"))
        assert main(["eqmeasure", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_out_dir_key_gone(self, tmp_path):
        # the output directory is the --out flag alone
        assert main(["eqmeasure", "--config", write_config(tmp_path, {"out_dir": "."}),
                     "--out", str(tmp_path)]) == 2

    def test_workers_option_gone(self, tmp_path):
        # every study runs in one process; the key and the flag are unknown
        assert main(["eqmeasure", "--config", write_config(tmp_path, {"workers": 2}),
                     "--out", str(tmp_path)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["eqmeasure", "--out", str(tmp_path), "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", [
        ("fredholm_m", 80), ("idpii_s_min", -2.0), ("idpii_h_xi", 0.04), ("idpii_n_steps", 2800),
    ])
    def test_solver_key_gone(self, tmp_path, capsys, key, value):
        # m = 80 and h_xi = 0.04 are the solvers' own defaults, and the id-PII
        # window and its steps follow from idpii_s_max and the S a study reads
        cfg = write_config(tmp_path, {key: value})
        assert main(["eqmeasure", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration keys" in err and key in err

    @pytest.mark.parametrize("study", ["theorem2", "theorem3"])
    def test_idpii_window_below_minus_two_exit_zero(self, tmp_path, study):
        # theorem2 reads the solution at s_list[0] T, theorem3 at every s T;
        # T = 2^{3/2} on the default potential puts s = -1.3 at S = -3.68
        cfg = write_config(tmp_path, {"s_list": [-1.3, 0.4, 2.7]})
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("study, data", [
        ("theorem3", {"s_list": [0.0, 5.0]}),  # S = 5 T = 14.1 at T = 2^{3/2}
        ("crosschecks", {"idpii_s_max": 0.5}),  # S = 0 and 1 at T = 1
    ])
    def test_s_above_idpii_s_max_exit_two(self, tmp_path, capsys, study, data):
        cfg = write_config(tmp_path, data)
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "above idpii_s_max" in err
        assert not (tmp_path / f"{study}.csv").exists()

    @pytest.mark.parametrize("study", ["theorem1", "theorem2", "eqmeasure"])
    @pytest.mark.parametrize("data, key", [
        ({"potential": [1.0, 0.0, -1.0]}, "potential"),
        ({"deformation": [0.0, 1.0]}, "deformation"),
        # Q = -x ((x - 3.03)^2 - 1e-4) is positive on (3.02, 3.04) only
        ({"deformation": [0.0, -9.1808, 6.06, -1.0]}, "deformation"),
    ])
    def test_refused_potential_or_deformation_exit_two(self, tmp_path, capsys, study,
                                                       data, key):
        cfg = write_config(tmp_path, data)
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{key}'" in err
        assert not (tmp_path / f"{study}.csv").exists()

    @pytest.mark.parametrize("study, key", [
        ("theorem1", "deformation"), ("theorem3", "deformation"), ("theorem3", "deformation2"),
    ])
    def test_deformation_sign_fails_on_the_support_exit_two(self, tmp_path, capsys, study,
                                                           key):
        # 0.01 x^2 has the support [-28.3, 0], and Q = -x + 0.01 x^3 turns
        # negative left of x = -10, past the [-6, 6] that the configuration checks
        data = {"potential": [0.0, 0.0, 0.01], key: [0.0, -1.0, 0.0, 0.01], "n_list": [16, 32]}
        cfg = write_config(tmp_path, data)
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{key}'" in err
        assert "[-28.2843, 0]" in err and "x = -10, " in err
        assert not (tmp_path / f"{study}.csv").exists()

    # idpii_s_min, idpii_n_steps, idpii_h_xi, fredholm_L and fredholm_m are
    # no longer keys: the first six cases are refused as unknown keys
    @pytest.mark.parametrize("study, data, key", [
        ("idpii-solve", {"idpii_s_min": 5.0, "idpii_s_max": 1.0}, "idpii_s_min"),
        ("idpii-solve", {"idpii_n_steps": 2801}, "idpii_n_steps"),
        ("idpii-solve", {"idpii_h_xi": 0.0}, "idpii_h_xi"),
        ("idpii-solve", {"idpii_h_xi": -0.04}, "idpii_h_xi"),
        ("fredholm", {"fredholm_L": -10.0}, "fredholm_L"),
        ("fredholm", {"fredholm_m": 1}, "fredholm_m"),
        # the window's bottom is -2 at least, and the solver needs S_max above it
        ("idpii-solve", {"idpii_s_max": -3.0}, "idpii_s_max"),
    ])
    def test_refused_solver_setting_exit_two(self, tmp_path, capsys, study, data, key):
        cfg = write_config(tmp_path, data)
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
        assert not (tmp_path / f"{study}.csv").exists()

    @pytest.mark.parametrize("data, names", [
        ({"t_param": 100}, ["T = 0.001", "S_max = 12", "= 120"]),
        ({"idpii_s_max": 150}, ["T = 1", "S_max = 150", "= 150"]),
    ])
    def test_idpii_start_underflow_exit_two(self, tmp_path, capsys, data, names):
        # Ai(S_max T^{-1/3}) underflows past about 104: the march from a zero
        # start would give I = 0 and P = S^2 / (4T) on every row
        cfg = write_config(tmp_path, data)
        assert main(["idpii-solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "underflows" in err
        assert all(name in err for name in names)
        assert not (tmp_path / "idpii-solve.csv").exists()

    def test_idpii_temperature_past_the_airy_domain_exit_two(self, tmp_path, capsys):
        # t_param = 0.1 is T = 10^{3/2}: the lowest start argument
        # T^{2/3} xi_lo + S_max T^{-1/3} = -296.2 is below Ai's domain [-200, inf)
        cfg = write_config(tmp_path, {"t_param": 0.1})
        assert main(["idpii-solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "T = 31.6228" in err and "-296.205" in err
        assert not (tmp_path / "idpii-solve.csv").exists()

    @pytest.mark.parametrize("study", ["theorem1", "theorem2"])
    def test_repeated_n_exit_two(self, tmp_path, capsys, study):
        # a repeated n would write its rows twice and fit a slope over one n
        cfg = write_config(tmp_path, {"n_list": [16, 16]})
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'n_list'" in err
        assert not (tmp_path / f"{study}.csv").exists()

    @pytest.mark.parametrize("study", ["theorem1", "fredholm", "theorem3"])
    def test_repeated_s_exit_two(self, tmp_path, capsys, study):
        # a repeated s would write its rows twice, and theorem3 an s-difference
        # over zero width
        cfg = write_config(tmp_path, {"s_list": [0.0, 0.0]})
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'s_list'" in err
        assert not (tmp_path / f"{study}.csv").exists()

    @pytest.mark.parametrize("data, names", [
        # t = 1/2 on the default potential: s = 7 is sigma = -s/t = -14, past
        # |sigma| <= 12; s = 0 runs first and still no file is written
        ({"s_list": [0.0, 7.0], "n_list": [16]}, ["s = 7.0", "t = 0.5", "sigma = -14.0"]),
        # t = 50/2 = 25: T_L = t^3 = 15625, past the 8000 of the Nystrom matrix
        ({"s_list": [0.0], "n_list": [16], "deformation": [0.0, -50.0]},
         ["s = 0.0", "t = 25.0", "T_L = 15625.0"]),
    ], ids=["sigma", "T_L"])
    def test_theorem1_target_outside_the_nystrom_domain_exit_two(self, tmp_path, capsys,
                                                                   data, names):
        cfg = write_config(tmp_path, data)
        assert main(["theorem1", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and all(name in err for name in names)
        assert not (tmp_path / "theorem1.csv").exists()

    def test_theorem1_one_n_exit_zero_without_summary(self, tmp_path):
        # a convergence summary needs two n, as in theorem2
        cfg = write_config(tmp_path, {"n_list": [16]})
        assert main(["theorem1", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "theorem1.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",", 1)[0] for row in rows] == ["theorem1", "theorem1"]

    def test_every_row_carries_the_config_hash(self, tmp_path):
        data = {"s_list": [0.5, 1], "t_param": 2}
        assert main(["fredholm", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "fredholm.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert {row.rsplit(",", 1)[1] for row in rows} == {LabConfig(data).hash()}

    def test_fredholm_at_the_idpii_temperature(self, tmp_path):
        # the id-PII solution at T = t^{-3/2} belongs to L(., t^3), as does
        # theorem1's target at t, so fredholm evaluates L(s, t^3)
        data = {"s_list": [0.0, 1.0], "t_param": 2}
        assert main(["fredholm", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path), "--format", "json"]) == 0
        recs = json.loads((tmp_path / "fredholm.json").read_text())
        assert [[float(p) for p in r["params"]] for r in recs] == [[0.0, 8.0], [1.0, 8.0]]
        for r, s in zip(recs, (0.0, 1.0)):
            assert float(r["value"]) == fredholm.fredholm_det_ft(s, 8.0, 80, 10.0)

    def test_fredholm_temperature_out_of_range_exit_two(self, tmp_path, capsys):
        # t = 21 gives T = 9261, past the 8000 the Nystrom matrix accepts
        cfg = write_config(tmp_path, {"t_param": 21})
        assert main(["fredholm", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "t_param" in err
        assert not (tmp_path / "fredholm.csv").exists()

    def test_io_error_exit_three(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        # output "directory" is an existing regular file
        code = main(["eqmeasure", "--out", str(blocker)])
        assert code == 3

    def test_json_format_flag(self, tmp_path):
        code = main(["fredholm", "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        data = json.loads((tmp_path / "fredholm.json").read_text())
        assert all(0.0 < float(r["value"]) <= 1.0 for r in data)

    def test_numeric_failure_exit_four_names_the_determinant(self, tmp_path, monkeypatch,
                                                             capsys):
        # one eigenvalue of K at 2: det(I - K) = -1, refused by lu_logdet itself
        monkeypatch.setattr(fredholm, "build_nystrom",
                            lambda s, T, m, L: np.diag(np.r_[2.0, np.zeros(m - 1)]))
        assert main(["fredholm", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "numeric failure" in err and "s=0.0, T=1.0, m=80" in err

    def test_equilibrium_guard_exit_four(self, tmp_path, monkeypatch, capsys):
        # a support shifted by 1e-6 trips the Euler-Lagrange guard
        real = equilibrium.solve_support
        monkeypatch.setattr(equilibrium, "solve_support",
                            lambda V: tuple(b + 1e-6 for b in real(V)))
        assert main(["eqmeasure", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "numeric failure" in err and "equilibrium stage" in err
        assert "[2.0, 4.0, 2.0]" in err and "Euler-Lagrange" in err

    def test_non_regular_potential_exit_four(self, tmp_path, capsys):
        # h dips below zero between its real roots -1.778 and -1.743, inside
        # the support [-3.954, 0]; its minimum there is -3.1e-4
        cfg = write_config(tmp_path, {"potential": [0.0, 0.0, -0.85, 0.3, 0.25]})
        assert main(["eqmeasure", "--config", cfg, "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "numeric failure" in err and "not one-cut regular" in err
        assert "h has the real roots [-1.778" in err
        assert not (tmp_path / "eqmeasure.csv").exists()

    def test_deterministic_output_bytes(self, tmp_path):
        for sub in ("one", "two"):
            d = tmp_path / sub
            assert main(["eqmeasure", "--out", str(d)]) == 0
        a = (tmp_path / "one" / "eqmeasure.csv").read_bytes()
        b = (tmp_path / "two" / "eqmeasure.csv").read_bytes()
        assert a == b
