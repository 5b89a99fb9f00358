"""Tests for configuration handling, record emission, and the CLI front end."""

import json
import os

import numpy as np
import pytest

from airylab import cli, fredholm
from airylab.cli import (ConfigError, LabConfig, ResultRecord, emit, main,
                         parse_config, run_theorem1)
from airylab.errors import BreakdownError


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
        cfg = parse_config(write_config(tmp_path, {"s_list": [0.5], "fredholm_m": 40}))
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
        assert LabConfig({"fredholm_L": 10}).hash() == LabConfig({"fredholm_L": 10.0}).hash()


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
        cfg = LabConfig({"n_list": [4, 8], "s_list": [0.0], "fredholm_m": 40})
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
        records = run_theorem1(LabConfig({"n_list": [16, 768], "s_list": [0.0],
                                          "fredholm_m": 40}))
        rows = {r.params[0]: r for r in records if r.study == "theorem1"}
        assert rows[16].verdict == "pass"
        assert rows[768].verdict == "failed"
        assert "build_tables at n=768" in rows[768].aux["error"]

    def test_equilibrium_built_once_per_potential(self, monkeypatch):
        built = []
        real = cli.build_equilibrium

        def counting(V):
            built.append(tuple(V.poly.coeffs))
            return real(V)

        monkeypatch.setattr(cli, "build_equilibrium", counting)
        cli._equilibrium.cache_clear()
        try:
            run_theorem1(LabConfig({"n_list": [4, 8], "s_list": [0.0, 1.0],
                                    "fredholm_m": 40}))
            run_theorem1(LabConfig({"n_list": [4], "s_list": [0.0], "fredholm_m": 40,
                                    "potential": [0.0, 0.0, 0.5, 0.0, 0.05]}))
        finally:
            cli._equilibrium.cache_clear()
        assert built == [(2.0, 4.0, 2.0), (0.0, 0.0, 0.5, 0.0, 0.05)]

    def test_theorem2_limit_kernel_computed_once(self, monkeypatch):
        # K_inf does not depend on n: one 5 x 5 grid, not one per n
        calls = []
        real = cli.k_infinity

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "k_infinity", counting)
        records = cli.run_theorem2(LabConfig({"n_list": [4, 8, 16], "s_list": [0.0],
                                              "idpii_h_xi": 0.25, "idpii_n_steps": 400}))
        assert len(calls) == 25
        assert len([r for r in records if r.study == "theorem2"]) == 3

    @pytest.mark.parametrize("s", [0.5, -1.3])
    def test_theorem3_one_s_solves_no_idpii(self, monkeypatch, s):
        # only the s-differences read the solution, and one s has none; so
        # neither the solve nor its window check runs (-1.3 T = -3.7 lies
        # below idpii_s_min = -2 at T = 2^{3/2})
        calls = []
        monkeypatch.setattr(cli, "solve_idpii", lambda *a, **k: calls.append(a))
        records = cli.run_theorem3(LabConfig({"n_list": [4, 8], "s_list": [s]}))
        assert calls == []
        assert {r.study for r in records} == {"theorem3", "theorem3-universality"}
        assert all(r.verdict == "pass" for r in records)


class TestTheorem1Target:
    """The limit det(I - K) does not depend on n: one determinant per s."""

    CFG = {"n_list": [4, 8], "s_list": [0.0, 1.0], "fredholm_m": 40}

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

        def failing(s, T, m, L):
            if s != 0.0:  # the target of s = 1
                raise BreakdownError("det(I - K) is not positive")
            return real(s, T, m, L)

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
        # with fredholm_m = 80 the convergence table and the twlocal stencil
        # share (s, T, m) = (0, 1, 80) and (-1, 1, 80); the stencil asks for
        # s = -(0 + 0 * 0.05) = -0.0, the same determinant as s = 0.0.  So 9
        # (s, T) pairs at m = 40 and 80 and 10 stencil points, 2 of them shared
        calls = []
        real = cli.fredholm_det_ft

        def counting(s, T, m, L):
            calls.append((s, T, m, L))
            return real(s, T, m, L)

        monkeypatch.setattr(cli, "fredholm_det_ft", counting)
        records = cli.run_crosschecks(LabConfig({}))
        assert len(calls) == len(set(calls)) == 9 * 2 + 10 - 2
        assert {r.study for r in records} >= {"crosscheck-fredholm", "crosscheck-twlocal"}


class TestMain:
    def test_eqmeasure_exit_zero(self, tmp_path):
        code = main(["eqmeasure", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "eqmeasure.csv").exists()

    def test_config_error_exit_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"t_param": -2.0}))
        assert main(["eqmeasure", "--config", str(p)]) == 2

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

    def test_workers_option_gone(self, tmp_path):
        # every study runs in one process; the key and the flag are unknown
        assert main(["eqmeasure", "--config", write_config(tmp_path, {"workers": 2}),
                     "--out", str(tmp_path)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["eqmeasure", "--out", str(tmp_path), "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("study, data", [
        ("theorem2", {"s_list": [-1.3, 0.4, 2.7]}),
        ("theorem3", {"s_list": [-1.3, 0.4, 2.7]}),
        ("crosschecks", {"idpii_s_min": 0.5}),
    ])
    def test_idpii_window_missing_an_s_exit_two(self, tmp_path, study, data, capsys):
        # theorem2 reads the solution at s_list[0] T, theorem3 at every s T
        # (T = 2^{3/2} on the default potential), crosschecks at S = 0 and 1
        cfg = write_config(tmp_path, data)
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "idpii_s_min" in err

    @pytest.mark.parametrize("study", ["theorem1", "theorem2", "eqmeasure"])
    @pytest.mark.parametrize("data, key", [
        ({"potential": [1.0, 0.0, -1.0]}, "potential"),
        ({"deformation": [0.0, 1.0]}, "deformation"),
    ])
    def test_refused_potential_or_deformation_exit_two(self, tmp_path, capsys, study,
                                                       data, key):
        cfg = write_config(tmp_path, data)
        assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{key}'" in err
        assert not (tmp_path / f"{study}.csv").exists()

    def test_every_row_carries_the_config_hash(self, tmp_path):
        data = {"s_list": [0.5, 1], "t_param": 2}
        assert main(["fredholm", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "fredholm.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert {row.rsplit(",", 1)[1] for row in rows} == {LabConfig(data).hash()}

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

    def test_deterministic_output_bytes(self, tmp_path):
        for sub in ("one", "two"):
            d = tmp_path / sub
            assert main(["eqmeasure", "--out", str(d)]) == 0
        a = (tmp_path / "one" / "eqmeasure.csv").read_bytes()
        b = (tmp_path / "two" / "eqmeasure.csv").read_bytes()
        assert a == b
