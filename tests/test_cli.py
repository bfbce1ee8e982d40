"""Command-line interface: subcommands, exit codes, golden message strings."""

from __future__ import annotations

import importlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulse_iv
from pulse_iv.cli import main
from pulse_iv.data import CsvSchema, DesignView, center, load_csv
from pulse_iv.estimators import EstimatorSpec, estimate
from pulse_iv.sem import e1_model, model_to_json, sample_stack


def run_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's ``pulse_iv``."""
    src = str(Path(pulse_iv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture()
def e1_config(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(model_to_json(e1_model())))
    return path


def write_invalid_instrument_csv(path, n=400, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2))
    x = a @ np.array([1.0, 0.5]) + rng.normal(size=n)
    y = 0.5 * x + a @ np.array([0.9, -0.7]) + rng.normal(size=n)
    with open(path, "w") as fh:
        fh.write("y,x1,a1,a2\n")
        for i in range(n):
            fh.write(f"{y[i]:.17g},{x[i]:.17g},{a[i, 0]:.17g},{a[i, 1]:.17g}\n")


def write_weak_instrument_csv(path):
    """Just-identified data with a weak instrument and weak confounding: PULSE accepts OLS."""
    rng = np.random.default_rng(1)
    n = 60
    a = rng.normal(size=(n, 1))
    x = 0.2 * a[:, 0] + rng.normal(size=n)
    y = x + rng.normal(size=n)
    with open(path, "w") as fh:
        fh.write("y,x1,a1\n")
        for i in range(n):
            fh.write(f"{y[i]:.17g},{x[i]:.17g},{a[i, 0]:.17g}\n")


class TestSimulate:
    def test_shape_and_columns(self, e1_config, tmp_path, capsys):
        out = tmp_path / "sample.csv"
        code = main(
            ["simulate", "--sem", str(e1_config), "--n", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a1,x1,y"
        assert len(lines) == 6
        manifest = json.loads((tmp_path / "sample.csv.manifest.json").read_text())
        assert manifest["seed"] == 1 and manifest["n"] == 5

    def test_determinism(self, e1_config, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "simulate",
                        "--sem",
                        str(e1_config),
                        "--n",
                        "50",
                        "--seed",
                        "7",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_hard_intervention_constant_column(self, e1_config, tmp_path):
        interv = tmp_path / "do.json"
        interv.write_text(json.dumps({"kind": "hard", "mean": [3.0]}))
        out = tmp_path / "do.csv"
        code = main(
            [
                "simulate",
                "--sem",
                str(e1_config),
                "--n",
                "20",
                "--seed",
                "2",
                "--intervene",
                str(interv),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        ds = load_csv(out, CsvSchema("y", ("x1",), ("a1",)))
        np.testing.assert_allclose(ds.a[:, 0], 3.0)

    def test_bad_config_exits_with_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        out = tmp_path / "x.csv"
        code = main(
            ["simulate", "--sem", str(bad), "--n", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 3

    def test_asymmetric_anchor_cov_is_rejected_before_sampling(self, tmp_path, capsys):
        doc = model_to_json(e1_model())
        doc["anchor_cov"] = [[1.0, 0.1], [0.1001, 1.0]]
        doc["m"] = [[0.0, 1.0], [0.0, 0.5]]
        sem = tmp_path / "sem.json"
        sem.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--sem", str(sem), "--n", "5", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "anchor_cov must be symmetric" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["sem", "intervene"])
    def test_hard_intervention_without_mean_is_data_error(self, tmp_path, capsys, route):
        doc = model_to_json(e1_model())
        block = {"kind": "hard"}
        args = ["simulate", "--n", "5", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        sem = tmp_path / "sem.json"
        if route == "sem":
            doc["intervention"] = block
        else:
            interv = tmp_path / "do.json"
            interv.write_text(json.dumps(block))
            args += ["--intervene", str(interv)]
        sem.write_text(json.dumps(doc))
        code = main(args + ["--sem", str(sem)])
        captured = capsys.readouterr()
        assert code == 3
        assert "data error" in captured.err and "mean" in captured.err

    def test_invalid_intervention_json_exits_three(self, e1_config, tmp_path, capsys):
        interv = tmp_path / "do.json"
        interv.write_text("{]")
        args = ["simulate", "--sem", str(e1_config), "--n", "5", "--seed", "1"]
        code = main(args + ["--intervene", str(interv), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "invalid JSON" in capsys.readouterr().err


    def test_unwritable_out_is_data_error(self, e1_config, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / "x.csv"
        args = ["simulate", "--sem", str(e1_config), "--n", "5", "--seed", "1", "--out", str(out)]
        assert main(args) == 3
        assert capsys.readouterr().err == f"data error: cannot write {out}: File exists\n"


class TestEstimate:
    def test_round_trip_matches_in_process(self, e1_config, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "200", "--seed", "3", "--out", str(data)])
        json_out = tmp_path / "report.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data),
                "--target",
                "y",
                "--endogenous",
                "x1",
                "--instruments",
                "a1",
                "--estimator",
                "ols,tsls,pulse",
                "--json",
                str(json_out),
            ]
        )
        assert code == 0
        doc = json.loads(json_out.read_text())
        ds = center(load_csv(data, CsvSchema("y", ("x1",), ("a1",))))
        expected = float(estimate(DesignView(ds), EstimatorSpec("ols")).alpha[0])
        reported = doc["estimates"][0]["alpha"]["x1"]
        assert reported == float(f"{expected:.10g}")
        assert doc["centering"] == "all"

    def test_ols_accepted_message_verbatim(self, tmp_path, capsys):
        data = tmp_path / "weak.csv"
        write_weak_instrument_csv(data)
        code = main(
            [
                "estimate",
                "--data",
                str(data),
                "--target",
                "y",
                "--endogenous",
                "x1",
                "--instruments",
                "a1",
                "--estimator",
                "pulse",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Warning: The OLS is accepted." in captured.out.splitlines()

    def test_fallback_none_exits_five(self, tmp_path, capsys):
        data = tmp_path / "invalid.csv"
        write_invalid_instrument_csv(data)
        code = main(
            [
                "estimate",
                "--data",
                str(data),
                "--target",
                "y",
                "--endogenous",
                "x1",
                "--instruments",
                "a1,a2",
                "--estimator",
                "pulse",
                "--fallback",
                "none",
            ]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert "Warning: TSLS outside interior of acceptance region." in captured.out.splitlines()

    def test_fallback_estimator_used_when_requested(self, tmp_path, capsys):
        data = tmp_path / "invalid.csv"
        write_invalid_instrument_csv(data)
        code = main(
            [
                "estimate",
                "--data",
                str(data),
                "--target",
                "y",
                "--endogenous",
                "x1",
                "--instruments",
                "a1,a2",
                "--estimator",
                "pulse",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Warning: TSLS outside interior of acceptance region." in captured.out.splitlines()

    def test_pulse_label_is_parsed_like_the_others(self, e1_config, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "200", "--seed", "3", "--out", str(data)])
        args = ["estimate", "--data", str(data), "--target", "y"]
        args += ["--endogenous", "x1", "--instruments", "a1"]
        reports = {}
        for spelling in ("pulse", "Pulse"):
            out = tmp_path / f"{spelling}.json"
            assert main([*args, "--estimator", f"ols,{spelling}", "--json", str(out)]) == 0
            reports[spelling] = json.loads(out.read_text())["estimates"][1]
        assert reports["Pulse"].pop("estimator") == "Pulse"
        assert reports["pulse"].pop("estimator") == "pulse"
        assert reports["Pulse"] == reports["pulse"]

    @pytest.mark.parametrize("estimator", ["ols", "pulse", "tsls,liml"])
    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--precision", "0"], "precision_n"),
            (["--precision", str(2**1024)], "precision_n"),
            (["--fallback", "ols"], "fallback"),
            (["--pmin", "2"], "p_min"),
        ],
    )
    def test_pulse_flags_are_checked_whichever_estimators_run(
        self, e1_config, tmp_path, capsys, estimator, flags, error
    ):
        data = tmp_path / "data.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "200", "--seed", "3", "--out", str(data)])
        capsys.readouterr()
        args = ["estimate", "--data", str(data), "--target", "y", "--endogenous", "x1"]
        args += ["--instruments", "a1", "--estimator", estimator, *flags]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and error in captured.err

    def test_out_of_domain_estimator_value_is_usage_error(self, e1_config, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "200", "--seed", "3", "--out", str(data)])
        capsys.readouterr()
        args = ["estimate", "--data", str(data), "--target", "y"]
        args += ["--endogenous", "x1", "--instruments", "a1", "--estimator", "ols,fuller:nan"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "fuller" in captured.err and "non-finite" not in captured.err
        assert captured.out == ""

    def test_non_numeric_estimator_value_is_usage_error(self, e1_config, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "200", "--seed", "3", "--out", str(data)])
        capsys.readouterr()
        args = ["estimate", "--data", str(data), "--target", "y"]
        args += ["--endogenous", "x1", "--instruments", "a1", "--estimator", "ols,kclass:abc"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: estimator 'kclass:abc': kclass requires a number as its kappa, got 'abc'\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "labels, message",
        [
            ("", "empty estimators; name at least one"),
            (" , ", "empty estimators; name at least one"),
            ("ols,ols", "estimators repeat ols: 'ols' and 'ols'"),
            ("pulse,liml,PULSE", "estimators repeat pulse: 'pulse' and 'PULSE'"),
            ("fuller,fuller:4", "estimators repeat fuller:4: 'fuller' and 'fuller:4'"),
        ],
        ids=["empty", "blank", "twice", "case", "default-value"],
    )
    def test_empty_or_repeated_estimator_list_is_usage_error(
        self, e1_config, tmp_path, capsys, labels, message
    ):
        data = tmp_path / "data.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "200", "--seed", "3", "--out", str(data)])
        capsys.readouterr()
        args = ["estimate", "--data", str(data), "--target", "y"]
        args += ["--endogenous", "x1", "--instruments", "a1", "--estimator", labels]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_unwritable_json_is_data_error(self, e1_config, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "200", "--seed", "3", "--out", str(data)])
        capsys.readouterr()
        report = tmp_path / "missing" / "r.json"
        args = ["estimate", "--data", str(data), "--target", "y", "--endogenous", "x1"]
        args += ["--instruments", "a1", "--estimator", "ols", "--json", str(report)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == f"data error: cannot write {report}: No such file or directory\n"
        assert "ols" in captured.out  # the table came first

    def test_intercept_counts_toward_dof(self, e1_config, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "64", "--seed", "4", "--out", str(data)])
        json_out = tmp_path / "j.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data),
                "--target",
                "y",
                "--endogenous",
                "x1",
                "--instruments",
                "a1",
                "--intercept",
                "--estimator",
                "ols",
                "--json",
                str(json_out),
            ]
        )
        assert code == 0
        doc = json.loads(json_out.read_text())
        # one instrument plus the constant: chi-squared with two dof
        assert doc["estimates"][0]["threshold"] == pytest.approx(5.9915, abs=5e-5)
        assert "const" in doc["coefficients"]

    def test_intercept_gn_counts_only_excluded_instruments(self, tmp_path, capsys):
        """The constant is partialled out of G_n like the centering it replaces, so
        only the residual degrees of freedom differ: n - q - 1 against n - q."""
        rng = np.random.default_rng(21)
        n, q = 300, 2
        a = rng.normal(size=(n, q))
        x = 5.0 + 0.1 * a[:, 0] + rng.normal(size=n)
        y = x + rng.normal(size=n)
        data = tmp_path / "data.csv"
        rows = ["y,x1,a1,a2", *(",".join(repr(float(v)) for v in r) for r in zip(y, x, *a.T))]
        data.write_text("\n".join(rows) + "\n")
        g = {}
        for flag in ("--center", "--intercept"):
            json_out = tmp_path / f"{flag}.json"
            assert main(["estimate", "--data", str(data), "--target", "y", "--endogenous", "x1",
                         "--instruments", "a1,a2", flag, "--estimator", "ols",
                         "--json", str(json_out)]) == 0
            g[flag] = json.loads(json_out.read_text())["weak_instruments"]["min_eigenvalue"]
        assert g["--intercept"] == pytest.approx(g["--center"] * (n - q - 1) / (n - q), rel=1e-6)

    def test_missing_column_exits_three(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("y,x1\n1,2\n3,4\n")
        code = main(
            [
                "estimate",
                "--data",
                str(data),
                "--target",
                "y",
                "--endogenous",
                "x1",
                "--instruments",
                "a1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "a1" in captured.err

    def test_single_row_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("y,x1,a1\n1.0,2.0,3.0\n")
        args = ["--data", str(data), "--target", "y", "--endogenous", "x1", "--instruments", "a1"]
        for command in ("estimate", "diagnose"):
            assert main([command, *args]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "two rows" in err

    def test_header_only_file_exits_three_without_warning(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("y,x1,a1\n")
        args = ["--data", "empty.csv", "--target", "y", "--endogenous", "x1", "--instruments", "a1"]
        proc = run_python("-m", "pulse_iv.cli", "estimate", *args, cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "data error: empty.csv contains no data rows\n"

    @staticmethod
    def _duplicated_instrument(tmp_path):
        rng = np.random.default_rng(5)
        data = tmp_path / "dup.csv"
        with open(data, "w") as fh:
            fh.write("y,x1,a1,a2\n")
            for _ in range(30):
                y, x, a = rng.normal(size=3)
                fh.write(f"{y},{x},{a},{a}\n")  # duplicated instrument column
        return data, ["estimate", "--data", str(data), "--target", "y", "--endogenous", "x1",
                      "--instruments", "a1,a2"]

    def test_singular_gram_exits_four(self, tmp_path, capsys):
        _, args = self._duplicated_instrument(tmp_path)
        for label in ("tsls", "pulse"):
            code = main([*args, "--estimator", label])
            captured = capsys.readouterr()
            assert code == 4
            assert "SingularGram: Gram matrix A^T A" in captured.err

    def test_ols_needs_no_regular_instrument_gram(self, tmp_path, capsys):
        """OLS on a singular ``A^T A`` is reported, without a test statistic."""
        data, args = self._duplicated_instrument(tmp_path)
        report = tmp_path / "r.json"
        assert main([*args, "--estimator", "ols", "--json", str(report)]) == 0
        assert "weak instruments: unavailable" in capsys.readouterr().out
        (row,) = json.loads(report.read_text())["estimates"]
        assert row["test_statistic"] is None and row["accepted"] is None
        table = np.loadtxt(data, delimiter=",", skiprows=1)
        y, x = table[:, 0] - table[:, 0].mean(), table[:, 1] - table[:, 1].mean()
        assert row["alpha"]["x1"] == pytest.approx((x @ y) / (x @ x), rel=1e-9)


class TestExperiment:
    def test_robustness_design_outputs(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(
            [
                "experiment",
                "--design",
                "robustness-e1",
                "--reps",
                "3",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        csv_text = (out / "robustness-e1.csv").read_text().splitlines()
        assert csv_text[0] == "rep,kappa,estimate,wcmspe"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7

    def test_invalid_config_json_exits_three(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{]")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_invalid_design_exits_two(self, tmp_path, capsys):
        code = main(["experiment", "--design", "bogus", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "robustness-e1" in captured.err

    def test_config_file(self, tmp_path):
        cfg = {
            "design": "underid-e3",
            "repetitions": 4,
            "master_seed": 9,
            "n_values": [100],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "underid-e3.csv").exists()

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ({"design": "underid-e3", "bogus": 1}, "bogus"),
            ({"design": "underid-e3", "repetitions": "2"}, "repetitions"),
            ([1, 2], "JSON object"),
            ({"design": "underid-e3", "repetitions": 2.5}, "repetitions"),
            ({"design": "underid-e3", "n_values": 5}, "n_values"),
            ({"repetitions": 2}, "design"),
            ({"design": "robustness-e1", "n_values": [100, 5000]}, "one n"),
            ({"design": "mv-fixed", "sample_size": 0, "repetitions": 1, "n_models": 1}, "sample_size"),
            ({"design": "underid-e3", "p_min": 1.5}, "p_min"),
            ({"design": "robustness-e1", "n_values": [0]}, "n_values"),
            (
                {"design": "underid-e3", "estimators": ["pulse", "pulse"], "repetitions": 3,
                 "n_values": [100]},
                "repeat",
            ),
            ({"design": "underid-e3", "estimators": ["bogus"]}, "bogus"),
            ({"design": "underid-e3", "estimators": ["kclass"]}, "kclass requires kappa"),
            ({"design": "underid-e3", "estimators": ["kclass:nan"]}, "finite kappa"),
            ({"design": "underid-e3", "estimators": ["kclass:abc"]}, "'kclass:abc': kclass"),
            ({"design": "underid-e3", "estimators": ["pulse", "PULSE"]}, "repeat pulse"),
            ({"design": "underid-e3", "estimators": ["fuller", "fuller:4"]}, "repeat fuller:4"),
            ({"design": "robustness-e1", "estimators": ["ols"]}, "does not read estimators"),
            (
                {"design": "mv-fixed", "n_values": [1000], "n_models": 1, "repetitions": 1},
                "does not read n_values",
            ),
            ({"design": "underid-e3", "n_values": [1], "repetitions": 2}, "n=1 and q=1"),
            (
                {"design": "mv-fixed", "sample_size": 2, "n_models": 1, "repetitions": 1},
                "n=2 and q=2",
            ),
            (
                {"design": "univariate", "allow_extensions": True, "q_values": [1, 30],
                 "rho_values": [0.5], "r2_values": [0.1], "n_values": [30], "repetitions": 1},
                "n=30 and q=30",
            ),
            ({"design": "robustness-e1", "n_values": [1]}, "n=1 and q=1"),
            ({"design": "mv-fixed", "noise_triples": [[1.0, 0.1, 0.1]], "n_models": 1,
              "repetitions": 2}, "noise triple [1.0, 0.1, 0.1]: |eta| must be < 1"),
            ({"design": "mv-fixed", "noise_triples": [[0.99, 0.99, 0.1]], "n_models": 1,
              "repetitions": 2}, "noise triple [0.99, 0.99, 0.1]: noise_cov must be positive"),
        ],
    )
    def test_malformed_config_is_data_error(self, tmp_path, capsys, doc, needle):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and needle in err
        assert not out.exists()

    def test_robustness_accepts_the_smallest_n_above_q(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"design": "robustness-e1", "n_values": [2], "repetitions": 2}))
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        assert len((out / "robustness-e1.csv").read_text().splitlines()) == 1 + 2 * 3

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ({"design": "underid-e3", "n_values": []}, "n_values"),
            ({"design": "underid-e3", "estimators": []}, "estimators"),
            ({"design": "mv-fixed", "n_models": 0}, "n_models"),
        ],
    )
    def test_empty_grid_is_data_error(self, tmp_path, capsys, doc, needle):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and needle in err
        assert not out.exists()

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["experiment", "--out", str(tmp_path)]) == 2

    def test_threads_default_from_environment(self, tmp_path, monkeypatch):
        """PULSE_THREADS no longer sets a default: a run with it set writes the same CSV."""
        args = ["experiment", "--design", "underid-e3", "--reps", "3", "--seed", "1"]
        plain = tmp_path / "plain"
        assert main([*args, "--out", str(plain)]) == 0
        monkeypatch.setenv("PULSE_THREADS", "2")
        threaded = tmp_path / "threaded"
        assert main([*args, "--out", str(threaded)]) == 0
        csv_bytes = (threaded / "underid-e3.csv").read_bytes()
        assert csv_bytes == (plain / "underid-e3.csv").read_bytes()

    def test_workers_write_the_same_files(self, tmp_path):
        args = ["experiment", "--design", "underid-e3", "--reps", "3", "--seed", "1"]
        assert main([*args, "--out", str(tmp_path / "one")]) == 0
        assert main([*args, "--workers", "2", "--out", str(tmp_path / "two")]) == 0
        for name in ("underid-e3.csv", "manifest.json"):
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        args = ["experiment", "--design", "underid-e3", "--workers", workers, "--out", str(out)]
        assert main(args) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_file_is_data_error_before_any_cell_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        from pulse_iv import experiments

        samples = []

        def counted(*args, **kwargs):
            samples.append(args)
            return sample_stack(*args, **kwargs)

        monkeypatch.setattr(experiments, "sample_stack", counted)
        out = tmp_path / "afile"
        out.write_text("kept\n")
        args = ["experiment", "--design", "underid-e3", "--reps", "2", "--out", str(out)]
        assert main(args) == 3
        assert capsys.readouterr().err == f"data error: cannot write {out}: File exists\n"
        assert samples == []  # no cell ran
        assert out.read_text() == "kept\n"
        assert main([*args[:-1], str(tmp_path / "dir")]) == 0
        assert samples  # the count sees the study's sampler

    def test_threads_flag_and_environment_are_gone(self, tmp_path, monkeypatch, capsys):
        args = ["experiment", "--design", "underid-e3", "--reps", "2", "--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--threads", "2", "--out", str(tmp_path / "flag")])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        monkeypatch.setenv("PULSE_THREADS", "two")
        out = tmp_path / "env"
        assert main([*args, "--out", str(out)]) == 0
        assert (out / "underid-e3.csv").exists()


class TestDiagnose:
    def test_prints_identification_and_gn(self, e1_config, tmp_path, capsys):
        data = tmp_path / "d.csv"
        main(["simulate", "--sem", str(e1_config), "--n", "100", "--seed", "5", "--out", str(data)])
        code = main(
            [
                "diagnose",
                "--data",
                str(data),
                "--target",
                "y",
                "--endogenous",
                "x1",
                "--instruments",
                "a1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "identification: just" in captured.out
        assert "min eigenvalue" in captured.out

    def test_rank_deficient_gn_prints_zero(self, tmp_path, capsys):
        # q = 1 < d1 = 2: G_n has rank one, so its smallest eigenvalue is exactly 0
        rng = np.random.default_rng(8)
        a1 = rng.normal(size=8)
        x1, x2 = a1 + rng.normal(size=8), 0.5 * a1 + rng.normal(size=8)
        y = x1 - x2 + rng.normal(size=8)
        data = tmp_path / "d.csv"
        rows = ["y,x1,x2,a1", *(",".join(repr(float(v)) for v in r) for r in zip(y, x1, x2, a1))]
        data.write_text("\n".join(rows) + "\n")
        code = main(["diagnose", "--data", str(data), "--target", "y",
                     "--endogenous", "x1,x2", "--instruments", "a1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "identification: under" in captured.out
        assert "min eigenvalue = 0.0000\n" in captured.out


def test_cli_import_leaves_scipy_linalg_unloaded():
    proc = run_python("-c", "import sys, pulse_iv.cli; print('scipy.linalg' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_leaves_the_process_pool_unloaded():
    # the experiment's worker pool imports these on first use, not every estimate process
    code = "import sys, pulse_iv.cli; print([m in sys.modules for m in ('multiprocessing', 'concurrent.futures.process')])"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False]\n"


GOLDEN = Path(__file__).resolve().parent / "golden"


#: Each PULSE branch: how its data is written, its instruments, the estimators
#: (every kind the data admits, PULSE last) and any further flags; and the
#: intercept route, whose included ``const`` makes LIML residualise ``W1`` too.
_PINNED = {
    "search": (
        lambda path: main(["simulate", "--sem", "e1.json", "--n", "200", "--seed", "3",
                           "--out", str(path)]),
        "a1",
        "ols,tsls,kclass:0.5,anchor:1,liml,fuller,fuller:1,modified-tsls,pulse",
        [],
    ),
    "ols-accepted": (
        write_weak_instrument_csv,
        "a1",
        "ols,tsls,kclass:0.5,anchor:1,liml,fuller,fuller:1,modified-tsls,pulse",
        [],
    ),
    "fallback": (
        write_invalid_instrument_csv,
        "a1,a2",
        "ols,tsls,kclass:0.5,anchor:1,liml,fuller,fuller:1,pulse",
        ["--fallback", "tsls"],
    ),
    "intercept": (
        write_invalid_instrument_csv,
        "a1,a2",
        "ols,tsls,liml,fuller:1,pulse",
        ["--intercept"],
    ),
}


@pytest.mark.parametrize("branch", sorted(_PINNED))
def test_estimate_output_is_pinned(branch, e1_config, tmp_path, monkeypatch, capsys):
    """``estimate`` prints and reports, byte for byte, what ``tests/golden`` holds
    for each PULSE branch next to every other kind, and for the intercept route."""
    write_data, instruments, estimators, flags = _PINNED[branch]
    monkeypatch.chdir(tmp_path)
    write_data(tmp_path / "data.csv")
    capsys.readouterr()
    args = ["estimate", "--data", "data.csv", "--target", "y", "--endogenous", "x1"]
    args += ["--instruments", instruments, "--estimator", estimators, *flags]
    assert main([*args, "--json", "report.json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"estimate-{branch}.txt").read_text()
    assert (tmp_path / "report.json").read_text() == (GOLDEN / f"estimate-{branch}.json").read_text()


def test_the_package_logger_has_one_null_handler_and_changes_no_output(
    e1_config, tmp_path, monkeypatch, capsys
):
    """``pulse_iv``'s logger keeps one ``NullHandler`` across re-imports, and with
    logging switched on at every level the CLI prints what ``tests/golden`` holds."""
    logger = logging.getLogger("pulse_iv")
    importlib.reload(pulse_iv)
    importlib.reload(pulse_iv)
    assert [type(handler) for handler in logger.handlers] == [logging.NullHandler]
    root = logging.getLogger()
    handler, level = logging.StreamHandler(), root.level  # the stderr that capsys captures
    root.addHandler(handler)
    root.setLevel(logging.DEBUG)
    try:
        test_estimate_output_is_pinned("search", e1_config, tmp_path, monkeypatch, capsys)
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
