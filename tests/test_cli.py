import csv
import io
import json

import numpy as np
import pytest

from twoway_shrink import SigmaContext, HyperParams, build_design, load_table, ure_value
from twoway_shrink.cli import main, load_report


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def complete_agg_csv(tmp_path):
    lines = ["row,col,count,mean"]
    vals = [[1.0, 2.0, 0.5], [3.0, 1.5, 2.5], [0.0, 1.0, 2.0]]
    for i, row in enumerate(("a", "b", "c")):
        for j, col in enumerate(("x", "y", "z")):
            lines.append(f"{row},{col},1,{vals[i][j]}")
    return write(tmp_path / "complete.csv", "\n".join(lines) + "\n")


@pytest.fixture
def raw_csv(tmp_path):
    rows = ["row,col,value"]
    rng = np.random.default_rng(0)
    for i in ("a", "b", "c"):
        for j in ("x", "y"):
            for _ in range(3):
                rows.append(f"{i},{j},{rng.normal():.6f}")
    return write(tmp_path / "raw.csv", "\n".join(rows) + "\n")


@pytest.fixture
def disconnected_csv(tmp_path):
    lines = ["row,col,count,mean"]
    for row in ("a", "b"):
        for col in ("x", "y"):
            lines.append(f"{row},{col},1,1.0")
    for row in ("c", "d"):
        for col in ("z", "w"):
            lines.append(f"{row},{col},1,2.0")
    return write(tmp_path / "disc.csv", "\n".join(lines) + "\n")


@pytest.fixture
def missing_agg_csv(tmp_path):
    lines = ["row,col,count,mean"]
    rng = np.random.default_rng(3)
    for i, row in enumerate(("a", "b", "c", "d")):
        for j, col in enumerate(("x", "y", "z")):
            if (i, j) in ((1, 2), (3, 0)):
                continue
            lines.append(f"{row},{col},{rng.integers(1, 5)},{rng.normal():.5f}")
    return write(tmp_path / "missing.csv", "\n".join(lines) + "\n")


class TestFitCommand:
    def test_wls_matches_closed_form(self, complete_agg_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "fit", "--input", complete_agg_csv, "--schema", "agg",
            "--method", "wls", "--sigma2", "1.0", "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        eta = np.array(report["eta_complete"])
        y = np.array([[1.0, 2.0, 0.5], [3.0, 1.5, 2.5], [0.0, 1.0, 2.0]])
        classical = y.mean(1, keepdims=True) + y.mean(0, keepdims=True) - y.mean()
        np.testing.assert_allclose(eta, classical, atol=1e-10)
        assert report["method"] == "wls"
        assert report["row_labels"] == ["a", "b", "c"]

    def test_disconnected_exit_2_names_components(self, disconnected_csv, capsys):
        code = main([
            "fit", "--input", disconnected_csv, "--schema", "agg",
            "--method", "ure", "--sigma2", "1.0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "component 1" in err and "component 2" in err
        assert "'a'" in err and "'b'" in err

    def test_ure_objective_self_consistent(self, missing_agg_csv, tmp_path):
        out = tmp_path / "rep.json"
        code = main([
            "fit", "--input", missing_agg_csv, "--schema", "agg",
            "--method", "ure", "--sigma2", "1.0", "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert report["loss"] == "q"
        table = load_table(missing_agg_csv, "agg", sigma2=1.0)
        hp = HyperParams(
            report["hp"]["mu"],
            report["hp"]["lambda_a"] if report["hp"]["lambda_a"] is not None else np.inf,
            report["hp"]["lambda_b"] if report["hp"]["lambda_b"] is not None else np.inf,
        )
        ctx = SigmaContext(build_design(table), hp, mode="fast", sigma2=1.0)
        recomputed = ure_value(ctx, table.y_observed, hp.mu, qmode="qmatrix")
        assert report["objective"] == pytest.approx(recomputed, rel=1e-12)

    def test_completed_loss_built_once(self, missing_agg_csv, tmp_path, monkeypatch):
        from twoway_shrink import estimators, risk_metrics

        built = []
        original = risk_metrics.q_matrix

        def counted(design):
            built.append(design)
            return original(design)

        monkeypatch.setattr(risk_metrics, "q_matrix", counted)
        monkeypatch.setattr(estimators, "q_matrix", counted)
        out = tmp_path / "rep.json"
        code = main([
            "fit", "--input", missing_agg_csv, "--schema", "agg",
            "--method", "ure", "--sigma2", "1.0", "--out", str(out),
        ])
        assert code == 0
        assert len(built) == 1
        report = load_report(out)
        table = load_table(missing_agg_csv, "agg", sigma2=1.0)
        design = build_design(table)
        assert report["diagnostics"]["lambda1_q"] == risk_metrics.lambda1_q(design)
        assert report["diagnostics"]["a2_statistic"] == risk_metrics.a2_statistic(table)

    def test_estimate_sigma2_from_raw(self, raw_csv, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "fit", "--input", raw_csv, "--method", "ml", "--estimate-sigma2",
            "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert report["diagnostics"]["sigma2_source"] == "pooled"
        assert report["diagnostics"]["sigma2"] > 0

    def test_weighted_loss_path(self, complete_agg_csv, tmp_path):
        out = tmp_path / "w.json"
        code = main([
            "fit", "--input", complete_agg_csv, "--schema", "agg",
            "--method", "ure", "--sigma2", "1.0", "--loss", "weighted",
            "--out", str(out),
        ])
        assert code == 0
        assert load_report(out)["method"] == "ure-weighted"

    def test_weighted_requires_ure(self, complete_agg_csv):
        for method in ("wls", "ml"):
            code = main([
                "fit", "--input", complete_agg_csv, "--schema", "agg",
                "--method", method, "--sigma2", "1.0", "--loss", "weighted",
            ])
            assert code == 2

    def test_weighted_rejects_missing_cells(self, missing_agg_csv, capsys):
        code = main([
            "fit", "--input", missing_agg_csv, "--schema", "agg",
            "--method", "ure", "--sigma2", "1.0", "--loss", "weighted",
        ])
        assert code == 2
        assert "fully observed" in capsys.readouterr().err

    def test_missing_sigma2_is_validation_error(self, complete_agg_csv):
        code = main([
            "fit", "--input", complete_agg_csv, "--schema", "agg",
            "--method", "ure",
        ])
        assert code == 2

    def test_report_roundtrip_stable(self, missing_agg_csv, tmp_path):
        out = tmp_path / "rep.json"
        main([
            "fit", "--input", missing_agg_csv, "--schema", "agg",
            "--method", "ure", "--sigma2", "1.0", "--out", str(out),
        ])
        raw = out.read_text()
        reloaded = json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n"
        assert reloaded == raw


class TestDiagnoseCommand:
    def test_complete_lambda1_one(self, complete_agg_csv, capsys):
        code = main([
            "diagnose", "--input", complete_agg_csv, "--schema", "agg",
            "--sigma2", "1.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "connected: True" in out
        lam = [l for l in out.splitlines() if l.startswith("lambda1(Q):")][0]
        assert float(lam.split(":")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_complete_table_builds_no_q(self, complete_agg_csv, tmp_path, capsys,
                                        monkeypatch):
        # On a complete table Q is the projector onto col(Z): lambda1 is 1.
        from twoway_shrink import estimators, risk_metrics

        built = []
        original = risk_metrics.q_matrix

        def counted(design):
            built.append(design)
            return original(design)

        monkeypatch.setattr(risk_metrics, "q_matrix", counted)
        monkeypatch.setattr(estimators, "q_matrix", counted)
        common = ["--input", complete_agg_csv, "--schema", "agg", "--sigma2", "1.0"]
        for method, loss in (("ure", "auto"), ("ml", "ss"), ("ure", "weighted"),
                             ("wls", "auto")):
            out = tmp_path / f"{method}-{loss}.json"
            argv = ["fit", *common, "--method", method, "--loss", loss,
                    "--out", str(out)]
            assert main(argv) == 0
            assert load_report(out)["diagnostics"]["lambda1_q"] == 1.0
        assert main(["diagnose", *common]) == 0
        assert "lambda1(Q): 1.0\n" in capsys.readouterr().out
        assert built == []

    def test_missing_table_diagnostics_build_no_q(self, missing_agg_csv, tmp_path,
                                                  capsys, monkeypatch):
        # lambda1(Q) comes from (r+c+1)-order grams: only the URE fit, whose
        # criterion reads the completed loss, builds Q, and it builds it once.
        from twoway_shrink import estimators, risk_metrics
        from twoway_shrink.tables import DesignSet

        def forbidden(*args):
            raise AssertionError("completed loss built")

        common = ["--input", missing_agg_csv, "--schema", "agg", "--sigma2", "1.0"]
        with monkeypatch.context() as m:
            m.setattr(risk_metrics, "q_matrix", forbidden)
            m.setattr(estimators, "q_matrix", forbidden)
            m.setattr(DesignSet, "completion_map", property(forbidden))
            for method in ("ml", "wls"):
                out = tmp_path / f"{method}.json"
                assert main(["fit", *common, "--method", method, "--out", str(out)]) == 0
                assert load_report(out)["diagnostics"]["lambda1_q"] > 1.0
            assert main(["diagnose", *common]) == 0
            assert "lambda1(Q): " in capsys.readouterr().out

        built = []
        original = risk_metrics.q_matrix

        def counted(design):
            built.append(design)
            return original(design)

        monkeypatch.setattr(risk_metrics, "q_matrix", counted)
        monkeypatch.setattr(estimators, "q_matrix", counted)
        out = tmp_path / "ure.json"
        assert main(["fit", *common, "--method", "ure", "--out", str(out)]) == 0
        assert len(built) == 1

    def test_missing_lambda1_above_one(self, missing_agg_csv, capsys):
        main([
            "diagnose", "--input", missing_agg_csv, "--schema", "agg",
            "--sigma2", "1.0",
        ])
        out = capsys.readouterr().out
        lam = [l for l in out.splitlines() if l.startswith("lambda1(Q):")][0]
        assert float(lam.split(":")[1]) > 1.0

    def test_nu_matches_hand_count(self, missing_agg_csv, capsys):
        main([
            "diagnose", "--input", missing_agg_csv, "--schema", "agg",
            "--sigma2", "1.0",
        ])
        out = capsys.readouterr().out
        table = load_table(missing_agg_csv, "agg", sigma2=1.0)
        k = table.k_observed
        nu_line = [l for l in out.splitlines() if "imbalance" in l][0]
        assert float(nu_line.split(":")[1]) == k.max() / k.min()


class TestDisconnectedTable:
    MESSAGE = (
        "design is disconnected; component 1: rows ['a', 'b'], cols ['x', 'y']; "
        "component 2: rows ['c', 'd'], cols ['z', 'w']\n"
    )

    def test_diagnose_names_components(self, disconnected_csv, capsys):
        code = main(["diagnose", "--input", disconnected_csv, "--schema", "agg",
                     "--sigma2", "1.0"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out == (
            "table: 4 x 4, observed cells: 8\nconnected: False\n" + self.MESSAGE
        )
        assert err == ""

    @pytest.mark.parametrize("method", ["ure", "ml", "wls"])
    def test_fit_exit_2(self, disconnected_csv, method, capsys):
        code = main(["fit", "--input", disconnected_csv, "--schema", "agg",
                     "--method", method, "--sigma2", "1.0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: " + self.MESSAGE


class TestSimulateCommand:
    def _config(self, tmp_path, extra=""):
        cfg = (
            "r=5\nc=5\ncount_law=constant:1\n"
            "effect_a=normal:0.5\neffect_b=normal:0.5\n"
            "sigma2=1.0\nn_reps=6\nestimators=wls,ure\nname=t\n" + extra
        )
        path = tmp_path / "cfg.txt"
        path.write_text(cfg)
        return str(path)

    def test_compare_deterministic(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main([
                "simulate", "--study", "compare", "--config", cfg,
                "--seed", "7", "--out", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "scenario,estimator,size,mean_loss,se,gap"
        assert len(lines) == 3

    def test_concentration_study(self, tmp_path, capsys):
        cfg = self._config(tmp_path, extra="lt_grid=0,0;0.5,0.5\n")
        code = main([
            "simulate", "--study", "concentration", "--config", cfg, "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "scenario,estimator,size,mean_loss,se,gap"
        assert "lt=0,0" in out

    def test_concentration_one_replicate_empty_se(self, tmp_path, capsys):
        cfg = self._config(tmp_path, extra="lt_grid=0,0;0.5,0.5\nn_reps=1\n")
        code = main([
            "simulate", "--study", "concentration", "--config", cfg, "--seed", "1",
        ])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 2
        assert all(row[3] != "" and row[4] == "" for row in rows)

    def test_oracle_gap_study(self, tmp_path):
        cfg = self._config(tmp_path, extra="sizes=4x4,6x6\n")
        out = tmp_path / "gap.csv"
        code = main([
            "simulate", "--study", "oracle-gap", "--config", cfg,
            "--seed", "2", "--out", str(out), "--jobs", "2",
        ])
        assert code == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "scenario,estimator,size,mean_loss,se,gap"
        assert any("p_exceed_ure" in ln for ln in lines)
        assert any(",oracle,4x4," in ln for ln in lines)
        assert any(",ure,6x6," in ln for ln in lines)

    @pytest.mark.parametrize("names", ["wls,foo", "wls,ure,wls"])
    def test_bad_estimator_names_exit_2(self, tmp_path, names, capsys):
        cfg = self._config(tmp_path, extra=f"estimators={names}\n")
        code = main([
            "simulate", "--study", "compare", "--config", cfg, "--seed", "1",
        ])
        assert code == 2
        assert "wls, ebmle, ure, oracle" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("r=5\ncount_law=bogus:1\n")
        code = main([
            "simulate", "--study", "compare", "--config", str(path), "--seed", "1",
        ])
        assert code == 2


    @pytest.mark.parametrize("line", [
        "count_law=uniform",
        "count_law=uniform:1",
        "count_law=twopoint:1",
        "count_law=constant:1,2",
        "effect_a=twogroup:1,2,0.5,9",
        "effect_b=normal:1,2",
        "effect_a=normal:x",
    ])
    def test_malformed_law_exit_2(self, tmp_path, line, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(f"r=4\nc=4\nn_reps=2\n{line}\n")
        code = main([
            "simulate", "--study", "compare", "--config", str(path), "--seed", "1",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_law_defaults_and_arguments(self):
        from twoway_shrink.cli import _parse_count_law, _parse_effect_law
        from twoway_shrink.simulation import (
            Constant, NormalEffects, TwoGroup, TwoPoint, UniformCounts,
        )

        assert _parse_count_law("constant") == Constant(1)
        assert _parse_count_law("uniform:2,7") == UniformCounts(2, 7)
        assert _parse_count_law("twopoint") == TwoPoint()
        assert _parse_count_law("twopoint-anti:1,20,0.9") == TwoPoint(
            1, 20, 0.9, anti_effect=True
        )
        assert _parse_effect_law("normal") == NormalEffects(1.0)
        assert _parse_effect_law("twogroup:0,5,0.1") == TwoGroup(0.0, 5.0, 0.1)


class TestNumericFailureExit:
    def test_exit_3_on_numeric_error(self, complete_agg_csv, monkeypatch):
        from twoway_shrink import cli
        from twoway_shrink.linear_core import NumericError

        def boom(*a, **kw):
            raise NumericError("synthetic factorization failure")

        monkeypatch.setattr(cli, "FitEngine", boom)
        code = main([
            "fit", "--input", complete_agg_csv, "--schema", "agg",
            "--method", "ure", "--sigma2", "1.0",
        ])
        assert code == 3
