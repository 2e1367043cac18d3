import csv
import io
import json

import numpy as np
import pytest

from twoway_shrink import SigmaContext, HyperParams, build_design, load_table, ure_value
from twoway_shrink.cli import main


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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
        from twoway_shrink import risk_metrics

        built = []
        original = risk_metrics.q_matrix

        def counted(design):
            built.append(design)
            return original(design)

        monkeypatch.setattr(risk_metrics, "q_matrix", counted)
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

    @pytest.mark.parametrize("command, extra", [
        ("fit", ["--method", "ml"]),
        ("diagnose", []),
    ])
    def test_sigma2_and_estimate_sigma2_together_exit_2(self, raw_csv, command,
                                                        extra, capsys):
        # The given --sigma2 used to be dropped for the pooled estimate.
        code = main([command, "--input", raw_csv, "--sigma2", "5",
                     "--estimate-sigma2", *extra])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: give --sigma2 or --estimate-sigma2, not both\n"

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


class TestCsvErrors:
    def test_estimate_sigma2_needs_raw_input(self, complete_agg_csv, capsys):
        code = main(["fit", "--input", complete_agg_csv, "--schema", "agg",
                     "--estimate-sigma2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --estimate-sigma2 needs replicate-level (raw) input\n"

    @pytest.mark.parametrize("schema, text, message", [
        ("agg", "row,col,count,mean\na,x,1,0.5\na,y,1\n",
         "error: line 3: 3 fields where the header 'row,col,count,mean' has 4\n"),
        ("raw", "row,col,value\na,x,0.5,1\n",
         "error: line 2: 4 fields where the header 'row,col,value' has 3\n"),
        ("agg", "row,col,count,mean\na,x,1,0.5\na,y,1,0.1\nb,x,1,0.2\na,x,2,0.3\n",
         "error: duplicate cell (row 'a', col 'x') in aggregated input\n"),
        ("agg", "row,col,count,mean\na,y,1.5,0.1\n",
         "error: line 2: column 'count': invalid literal for int() with base 10: "
         "'1.5'\n"),
        ("raw", "row,col,value\na,x,0.5\na,y,abc\n",
         "error: line 3: column 'value': could not convert string to float: 'abc'\n"),
        ("agg", "row,col,count,mean\na,x,1,0.5\na,y,1,nan\n",
         "error: line 3: column 'mean': means of observed cells must be finite, "
         "got nan\n"),
        ("agg", "row,col,count,mean\na,x,1,0.5\na,y,-1,0.1\n",
         "error: line 3: column 'count': counts must be nonnegative, got -1\n"),
        ("raw", "row,col,value\na,x,0.5\na,y, inf\n",
         "error: line 3: column 'value': values must be finite, got 'inf'\n"),
    ])
    def test_fit_exit_2_names_what_was_written(self, tmp_path, capsys, schema, text,
                                                message):
        path = write(tmp_path / "bad.csv", text)
        code = main(["fit", "--input", path, "--schema", schema, "--sigma2", "1.0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == message


class TestReadersAgree:
    def test_raw_and_agg_reports_match(self, tmp_path):
        rng = np.random.default_rng(5)
        cells = [(f"r{i}", f"c{j}") for i in (3, 0, 2, 1) for j in (1, 2, 0)
                 if (i, j) not in ((0, 2), (1, 1))]
        values = rng.normal(0.0, 2.0, len(cells)).tolist()
        raw = write(tmp_path / "raw.csv", "row,col,value\n" + "".join(
            f"{a},{b},{v!r}\n" for (a, b), v in zip(cells, values)))
        agg = write(tmp_path / "agg.csv", "row,col,count,mean\n" + "".join(
            f"{a},{b},1,{v!r}\n" for (a, b), v in zip(cells, values)))
        texts = []
        for path, schema in ((raw, "raw"), (agg, "agg")):
            out = tmp_path / f"{schema}.json"
            code = main(["fit", "--input", path, "--schema", schema, "--method", "ure",
                         "--sigma2", "1.0", "--out", str(out)])
            assert code == 0
            sha = load_report(out)["provenance"]["input_sha256"]
            texts.append(out.read_text().replace(sha, "<sha256>"))
        assert texts[0] == texts[1]

    def test_agg_csv_with_byte_order_mark(self, complete_agg_csv, tmp_path, capsys):
        text = open(complete_agg_csv, encoding="utf-8").read()
        marked = tmp_path / "marked.csv"
        marked.write_text(text, encoding="utf-8-sig")
        outs = []
        for path in (complete_agg_csv, str(marked)):
            code = main(["diagnose", "--input", path, "--schema", "agg", "--sigma2", "1.0"])
            assert code == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]


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
        from twoway_shrink import risk_metrics

        built = []
        original = risk_metrics.q_matrix

        def counted(design):
            built.append(design)
            return original(design)

        monkeypatch.setattr(risk_metrics, "q_matrix", counted)
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
        # lambda1(Q) comes from (r+c)-order effects grams: only the URE fit, whose
        # criterion reads the completed loss, builds Q, and it builds it once.
        from twoway_shrink import risk_metrics
        from twoway_shrink.tables import DesignSet

        def forbidden(*args):
            raise AssertionError("completed loss built")

        common = ["--input", missing_agg_csv, "--schema", "agg", "--sigma2", "1.0"]
        with monkeypatch.context() as m:
            m.setattr(risk_metrics, "q_matrix", forbidden)
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
    def _config(self, tmp_path, extra="", estimators="wls,ure"):
        # A key in ``extra`` replaces the base line of that key: a config
        # may give each key once.
        base = ["r=5", "c=5", "count_law=constant:1", "effect_a=normal:0.5",
                "effect_b=normal:0.5", "sigma2=1.0", "n_reps=6",
                f"estimators={estimators}", "name=t"]
        given = {line.partition("=")[0] for line in extra.splitlines()}
        cfg = "".join(line + "\n" for line in base
                      if line.partition("=")[0] not in given) + extra
        path = tmp_path / "cfg.txt"
        path.write_text(cfg)
        return str(path)

    @pytest.mark.parametrize("frac", ["-0.3", "nan", "1.0"])
    def test_missing_frac_outside_the_unit_interval(self, tmp_path, capsys, frac):
        cfg = self._config(tmp_path, extra=f"missing_frac={frac}\n")
        code = main(["simulate", "--study", "compare", "--config", cfg])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: missing_frac must lie in [0, 1), got {float(frac)!r}\n"

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

    def test_config_comment_and_blank_lines_are_skipped(self, tmp_path, capsys):
        plain = self._config(tmp_path)
        commented = tmp_path / "commented.txt"
        lines = open(plain, encoding="utf-8").read().splitlines()
        commented.write_text("# a comment\n\n" + "\n  # indented\n".join(lines) + "\n")
        outs = []
        for cfg in (plain, str(commented)):
            code = main(["simulate", "--study", "compare", "--config", cfg, "--seed", "7"])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_config_byte_order_mark_is_skipped(self, tmp_path, capsys):
        plain = self._config(tmp_path)
        marked = tmp_path / "marked.txt"
        marked.write_text(open(plain, encoding="utf-8").read(), encoding="utf-8-sig")
        outs = []
        for cfg in (plain, str(marked)):
            code = main(["simulate", "--study", "compare", "--config", cfg, "--seed", "7"])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("line", ["n_rep=3", "missing_fraction=0.3", "seed=4"])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, line):
        cfg = self._config(tmp_path, extra=line + "\n")
        code = main(["simulate", "--study", "compare", "--config", cfg, "--seed", "7"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        key = line.partition("=")[0]
        assert err.startswith(f"error: unknown config key {key!r}; known keys: r, c, ")

    def test_every_known_config_key_is_accepted(self, tmp_path, capsys):
        from twoway_shrink.cli import CONFIG_KEYS

        cfg = self._config(tmp_path, extra=(
            "missing_frac=0.1\nmu_true=0.5\ntau=0.1\nsizes=4x4\nlt_grid=0,0;1,1\n"
        ))
        keys = {line.partition("=")[0] for line in open(cfg, encoding="utf-8")}
        assert keys == set(CONFIG_KEYS)
        code = main(["simulate", "--study", "compare", "--config", cfg, "--seed", "7"])
        assert code == 0

    @pytest.mark.parametrize("line, message", [
        ("sigma2=-1", "sigma2 must be a positive finite number, got -1.0"),
        ("mu_true=nan", "mu_true must be finite, got nan"),
    ])
    def test_invalid_sigma2_or_mu_true_exit_2(self, tmp_path, capsys, line, message):
        cfg = self._config(tmp_path, extra=line + "\n")
        code = main(["simulate", "--study", "compare", "--config", cfg, "--seed", "7"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_repeated_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "repeated.txt"
        path.write_text("r=5\nc=4\n# r again\nr=6\nn_reps=2\n")
        code = main(["simulate", "--study", "compare", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: config key 'r' given twice, on lines 1 and 4\n"

    def test_config_line_without_equals_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, extra="n_reps 6\n")
        code = main(["simulate", "--study", "compare", "--config", cfg, "--seed", "7"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: bad config line (want key=value): 'n_reps 6'\n"

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

    def test_concentration_repeated_pair_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, extra="lt_grid=0.5,0.5;0.2,0.2;0.5,0.50\n")
        code = main([
            "simulate", "--study", "concentration", "--config", cfg, "--seed", "1",
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "more than once" in err

    def test_concentration_no_replicates_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, extra="lt_grid=0,0;0.5,0.5\nn_reps=0\n")
        code = main([
            "simulate", "--study", "concentration", "--config", cfg, "--seed", "1",
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: N must be positive\n"

    @pytest.mark.parametrize("names", ["wls,foo", "wls,ure,wls"])
    def test_concentration_bad_estimator_names_exit_2(self, tmp_path, names, capsys):
        cfg = self._config(tmp_path, extra="lt_grid=0,0;0.5,0.5\n", estimators=names)
        code = main([
            "simulate", "--study", "concentration", "--config", cfg, "--seed", "1",
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "wls, ebmle, ure, oracle" in err

    @pytest.mark.parametrize("names", ["wls,ure", "wls,foo", "wls,ebmle,ure,oracle,ure"])
    def test_oracle_gap_rejects_other_estimators(self, tmp_path, names, capsys):
        # The study always fits all four; a config naming others must not
        # be accepted silently.
        cfg = self._config(tmp_path, extra="sizes=4x4\n", estimators=names)
        code = main([
            "simulate", "--study", "oracle-gap", "--config", cfg, "--seed", "2",
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "oracle-gap always fits wls, ebmle, ure, oracle" in err

    def test_oracle_gap_study(self, tmp_path):
        cfg = self._config(
            tmp_path, extra="sizes=4x4,6x6\n", estimators="oracle, ure,ebmle,wls"
        )
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

    @pytest.mark.parametrize("study, jobs", [
        ("compare", "0"), ("compare", "-5"), ("oracle-gap", "0"),
    ])
    def test_jobs_below_one_exit_2(self, tmp_path, study, jobs, capsys):
        cfg = self._config(tmp_path, extra="sizes=4x4\n",
                           estimators="wls,ebmle,ure,oracle")
        code = main(["simulate", "--study", study, "--config", cfg, "--jobs", jobs])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: n_jobs must be positive, got {jobs}\n"

    def test_oracle_gap_repeated_size_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, extra="sizes=4x3, 4x3\n",
                           estimators="wls,ebmle,ure,oracle")
        code = main(["simulate", "--study", "oracle-gap", "--config", cfg])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: sizes lists 4x3 more than once\n"

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

    def test_too_few_observed_cells_exit_2(self, tmp_path, capsys):
        path = tmp_path / "sparse.txt"
        path.write_text("r=5\nc=5\nmissing_frac=0.9\nn_reps=3\n")
        code = main(["simulate", "--study", "compare", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == ("error: r=5, c=5 with missing_frac=0.9 leaves 3 observed "
                       "cells; a connected design needs r+c-1 = 9\n")

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

    @pytest.mark.parametrize("command", [
        ["fit", "--method", "ml", "--sigma2", "1.0"],
        ["diagnose", "--sigma2", "1.0"],
    ])
    def test_exit_3_when_the_pencil_eigensolve_fails(self, missing_agg_csv, command,
                                                     monkeypatch, capsys):
        from twoway_shrink import risk_metrics

        def fail(a):
            raise np.linalg.LinAlgError("synthetic eigensolve failure")

        monkeypatch.setattr(risk_metrics.np.linalg, "eigvalsh", fail)
        code = main([command[0], "--input", missing_agg_csv, "--schema", "agg",
                     *command[1:]])
        assert code == 3
        assert "synthetic eigensolve failure" in capsys.readouterr().err


class TestUnfactorableCandidate:
    """With counts in the thousands the WLS-limit candidate's capacitance
    matrix is not positive definite in float64; the fit skips it and the
    CLI writes its report."""

    @pytest.mark.parametrize("method", ["ure", "ml"])
    def test_fit_exit_0(self, tmp_path, method):
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 2000, (20, 20))
        means = rng.normal(0, 1, (20, 20))
        lines = ["row,col,count,mean"] + [
            f"r{i},c{j},{counts[i, j]},{float(means[i, j])!r}"
            for i in range(20) for j in range(20)
        ]
        path = write(tmp_path / "large.csv", "\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        code = main(["fit", "--input", path, "--schema", "agg", "--sigma2", "1.0",
                     "--method", method, "--out", str(out)])
        assert code == 0
        report = load_report(out)
        assert np.isfinite(report["objective"])
        assert np.asarray(report["eta_complete"]).shape == (20, 20)
