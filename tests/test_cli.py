import dataclasses
import json

import numpy as np
import pytest

from sdr import cli
from sdr.cli import main


def _toy_csv(tmp_path, name="toy.csv", bad_cell=False):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 5.0, size=(60, 3))
    y = x @ np.array([1.0, -1.0, 0.5]) + 0.05 * rng.standard_normal(60)
    lines = ["a,b,c,target"]
    for row, t in zip(x, y):
        lines.append(",".join(f"{v:.8f}" for v in row) + f",{t:.8f}")
    if bad_cell:
        lines[10] = lines[10].replace(lines[10].split(",")[1], "oops", 1)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestSimulate:
    def test_byte_identical_reports(self, tmp_path):
        args = ["simulate", "--methods", "pca", "--trials", "1", "--seed", "7",
                "--spectrum", "fast", "--alignment", "well", "--ntrain", "150"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("report.csv", "report.json", "table.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_alignment_alias_accepted(self, tmp_path):
        code = main(["simulate", "--methods", "pca", "--trials", "1",
                     "--seed", "1", "--spectrum", "fast",
                     "--alignment", "misaligned", "--ntrain", "150",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert rows[1].startswith("fast,mis,150,pca,")

    def test_empty_method_list_usage_error(self, tmp_path):
        code = main(["simulate", "--methods", "", "--trials", "1",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_method_usage_error(self, tmp_path):
        code = main(["simulate", "--methods", "zebra", "--trials", "1",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_repeated_method_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "--methods", "pca,pca", "--trials", "1",
                     "--out", str(out)])
        assert code == 2
        assert "names a method twice" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_config_error(self, tmp_path):
        code = main(["simulate", "--methods", "pca", "--trials", "0",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_zero_k_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--methods", "pca", "--trials", "1",
                     "--k", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "K must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("file_config, message", [
        ({"spectrum": "medium"}, "unknown spectrum kind 'medium'"),
        *(({"ntrain": n}, f"n_train={n} splits into") for n in range(2, 8)),
    ], ids=["spectrum-medium", *(f"ntrain-{n}" for n in range(2, 8))])
    def test_config_file_value_outside_flag_choices_exit_2(
            self, tmp_path, capsys, file_config, message):
        # a config file skips argparse's choices; the run is refused up front
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(file_config))
        code = main(["simulate", "--config", str(config), "--methods", "pca",
                     "--trials", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_report_json_key_order(self, tmp_path):
        # pinned: a field added to a record dataclass changes report.json
        assert main(["simulate", "--methods", "ols", "--trials", "1",
                     "--spectrum", "fast", "--alignment", "well",
                     "--ntrain", "150", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc) == ["config", "notes", "settings"]
        assert list(doc["config"]) == [
            "methods", "spectra", "alignments", "train_sizes", "n_trials", "k",
            "n_test", "seed", "score", "gamma_grid"]
        setting = doc["settings"][0]
        assert list(setting) == ["spectrum", "alignment", "n_train", "methods"]
        summary = setting["methods"][0]
        assert list(summary) == ["method", "mean_train_mse", "mean_test_mse",
                                 "n_ok", "n_failed", "trials"]
        assert list(summary["trials"][0]) == ["trial", "seed", "train_mse",
                                              "test_mse", "hyperparams", "error"]

    def test_config_file_precedence(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"methods": "pca", "trials": 2,
                                      "spectrum": "fast", "alignment": "well",
                                      "ntrain": 150, "seed": 3}))
        out1 = tmp_path / "one"
        assert main(["simulate", "--config", str(config),
                     "--out", str(out1)]) == 0
        report = json.loads((out1 / "report.json").read_text())
        assert report["config"]["n_trials"] == 2
        out2 = tmp_path / "two"
        assert main(["simulate", "--config", str(config), "--trials", "1",
                     "--out", str(out2)]) == 0
        report = json.loads((out2 / "report.json").read_text())
        assert report["config"]["n_trials"] == 1  # CLI wins

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDR_SEED", "11")
        out_env = tmp_path / "env"
        assert main(["simulate", "--methods", "pca", "--trials", "1",
                     "--spectrum", "fast", "--alignment", "well",
                     "--ntrain", "150", "--out", str(out_env)]) == 0
        monkeypatch.delenv("SDR_SEED")
        out_flag = tmp_path / "flag"
        assert main(["simulate", "--methods", "pca", "--trials", "1",
                     "--seed", "11", "--spectrum", "fast",
                     "--alignment", "well", "--ntrain", "150",
                     "--out", str(out_flag)]) == 0
        assert ((out_env / "report.csv").read_bytes()
                == (out_flag / "report.csv").read_bytes())


class TestSweep:
    def test_curve_files_and_row_counts(self, tmp_path):
        code = main(["sweep-gamma", "--trials", "1", "--alignment", "well",
                     "--gamma-grid", "0.01,1,100", "--seed", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "gamma_curves.csv").read_text().splitlines()
        assert rows[0] == "method,alignment,gamma,test_mse"
        assert len(rows) - 1 == 3 * 3  # 3 methods x |grid|
        refs = (tmp_path / "gamma_refs.csv").read_text().splitlines()
        assert len(refs) - 1 == 2

    def test_gamma_curves_json_key_order(self, tmp_path):
        # pinned: a field added to SweepCurves changes gamma_curves.json
        assert main(["sweep-gamma", "--trials", "1", "--alignment", "well",
                     "--gamma-grid", "1", "--k", "2", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gamma_curves.json").read_text())
        assert [list(entry) for entry in doc] == [
            ["alignment", "gammas", "test_mse", "pca_ref", "ols_ref"]]

    def test_small_ntrain_in_config_file_exit_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ntrain": 1}))
        code = main(["sweep-gamma", "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert ("n_train=1 splits into 1 fit and 0 validation rows"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_bad_gamma_grid(self, tmp_path):
        assert main(["sweep-gamma", "--gamma-grid", "-1",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "trial count must be >= 1"),
        (["--trials", "-3"], "trial count must be >= 1"),
        (["--k", "0"], "K must lie in [1, 100], got 0"),
        (["--k", "101"], "K must lie in [1, 100], got 101"),
    ])
    def test_bad_trials_or_k_config_error(self, tmp_path, capsys, flags, message):
        code = main(["sweep-gamma", *flags, "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRealData:
    def test_runs_and_writes(self, tmp_path):
        csv_path = _toy_csv(tmp_path)
        out = tmp_path / "out"
        code = main(["real-data", "--data", str(csv_path), "--response",
                     "target", "--methods", "pca,pls", "--k", "1",
                     "--k-max", "2", "--seed", "0", "--out", str(out)])
        assert code == 0
        rows = (out / "curves.csv").read_text().splitlines()
        assert rows[0] == "method,K,train_mse,test_mse"
        assert len(rows) - 1 == 2 * 2
        assert (out / "spectrum.csv").exists()
        assert (out / "real_data.json").exists()

    def test_csv_with_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" starts the header with a BOM: the first column
        # keeps its name, so it can be dropped, and the reports are those of
        # the same file without the BOM
        plain = _toy_csv(tmp_path)
        marked = tmp_path / "bom.csv"
        marked.write_text("\ufeff" + plain.read_text(), encoding="utf-8")
        assert marked.read_bytes()[:4] == b"\xef\xbb\xbfa"
        for path, out in ((plain, "plain"), (marked, "bom")):
            code = main(["real-data", "--data", str(path), "--response",
                         "target", "--drop", "a", "--methods", "pca,pls",
                         "--k-max", "2", "--out", str(tmp_path / out)])
            assert code == 0
        for name in ("curves.csv", "spectrum.csv", "real_data.json"):
            assert ((tmp_path / "bom" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    def test_real_data_json_key_order(self, tmp_path):
        # pinned: a field added to CurvePoint changes real_data.json
        assert main(["real-data", "--data", str(_toy_csv(tmp_path)),
                     "--response", "target", "--methods", "pls", "--k", "1",
                     "--k-max", "1", "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "real_data.json").read_text())
        assert list(doc) == ["feature_names", "n_train", "n_test", "note",
                             "spectrum", "points"]
        assert list(doc["points"][0]) == ["method", "k", "train_mse",
                                          "test_mse", "hyperparams", "error"]

    def test_missing_response_exit_2(self, tmp_path, capsys):
        csv_path = _toy_csv(tmp_path)
        code = main(["real-data", "--data", str(csv_path),
                     "--response", "quality", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "quality" in capsys.readouterr().err

    def test_column_named_twice_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "twice.csv"
        csv_path.write_text("a,y,b,y\n1,2,3,4\n5,6,7,8\n", encoding="utf-8")
        code = main(["real-data", "--data", str(csv_path), "--response", "y",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "column 'y' is named twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_numeric_cell_exit_2_with_coordinates(self, tmp_path, capsys):
        csv_path = _toy_csv(tmp_path, bad_cell=True)
        code = main(["real-data", "--data", str(csv_path),
                     "--response", "target", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 10" in err and "'b'" in err

    @pytest.mark.parametrize("cell, column", [
        ("nan", "b"), ("inf", "b"), ("-Infinity", "b"), ("NaN", "target")])
    def test_non_finite_cell_exit_2_with_coordinates(self, tmp_path, capsys,
                                                     cell, column):
        csv_path = _toy_csv(tmp_path)
        lines = csv_path.read_text().splitlines()
        fields = lines[10].split(",")
        fields[("a", "b", "c", "target").index(column)] = cell
        lines[10] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["real-data", "--data", str(csv_path),
                     "--response", "target", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"non-finite cell at row 10, column {column!r}: {cell!r}" in err

    def test_drop_leaving_no_feature_exit_2(self, tmp_path, capsys):
        csv_path = _toy_csv(tmp_path)
        code = main(["real-data", "--data", str(csv_path), "--response",
                     "target", "--drop", "a,b,c", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no feature column left" in capsys.readouterr().err

    def test_repeated_method_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["real-data", "--data", str(_toy_csv(tmp_path)),
                     "--response", "target", "--methods", "pls,pca,pls",
                     "--out", str(out)])
        assert code == 2
        assert "names a method twice" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_data_and_response(self, tmp_path):
        assert main(["real-data", "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["real-data", "--data", str(tmp_path / "nope.csv"),
                     "--response", "y", "--out", str(tmp_path)]) == 2

    def test_too_few_rows_to_split_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("a,b,c,target\n" + "".join(
            f"{i},{i * i},{7 - i},{2 * i}\n" for i in range(5)), encoding="utf-8")
        code = main(["real-data", "--data", str(csv_path), "--response",
                     "target", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "3 fit, 1 validation and 1 test rows" in err

    def test_smallest_k_above_p_exit_2(self, tmp_path, capsys):
        csv_path = _toy_csv(tmp_path)
        out = tmp_path / "o"
        code = main(["real-data", "--data", str(csv_path), "--response",
                     "target", "--k", "5", "--out", str(out)])
        assert code == 2
        assert "K=5 exceeds P=3" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_directory_as_data_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["real-data", "--data", str(tmp_path), "--response", "y",
                     "--out", str(out)])
        assert code == 2
        assert "directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, bad_cell", [
        (["--response", "quality"], False),
        (["--response", "target"], True),
        (["--response", "target", "--k", "5"], False)],
        ids=["missing-response", "non-numeric-cell", "smallest-k-above-p"])
    def test_rejected_input_leaves_no_output_directory(self, tmp_path, flags,
                                                       bad_cell):
        out = tmp_path / "o"
        csv_path = _toy_csv(tmp_path, bad_cell=bad_cell)
        assert main(["real-data", "--data", str(csv_path), *flags,
                     "--out", str(out)]) == 2
        assert not out.exists()


class TestOracleCheck:
    def test_passes_within_time_budget(self, capsys):
        import time
        t0 = time.monotonic()
        assert main(["oracle-check"]) == 0
        assert time.monotonic() - t0 < 60.0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_perturbation_fails(self, capsys, monkeypatch):
        from sdr import linalg, oracles

        def perturbed(s, k):
            pairs = linalg.sym_eig_topk(s, k)
            return linalg.EigenPairs(pairs.values + 1e-3, pairs.vectors)

        monkeypatch.setattr(oracles, "sym_eig_topk", perturbed)
        assert main(["oracle-check"]) == 1
        captured = capsys.readouterr()
        assert "FAIL eigen_reconstruction" in captured.out
        assert "failed oracles" in captured.err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["simulate", "--frobnicate"]) == 2

    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    @pytest.mark.parametrize("command", ["simulate", "sweep-gamma", "real-data"])
    def test_negative_seed_exit_2_before_any_output(self, tmp_path, capsys,
                                                    monkeypatch, command,
                                                    from_env):
        out = tmp_path / "o"
        args = [command, "--trials", "1", "--out", str(out)]
        if command == "real-data":
            args = [command, "--data", str(_toy_csv(tmp_path)),
                    "--response", "target", "--out", str(out)]
        if from_env:
            monkeypatch.setenv("SDR_SEED", "-1")
        else:
            args += ["--seed", "-1"]
        assert main(args) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_seed_env_is_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDR_SEED", "")
        assert main(["simulate", "--methods", "ols", "--trials", "1",
                     "--spectrum", "fast", "--alignment", "well",
                     "--ntrain", "40", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["seed"] == 0


class TestConfigFile:
    """A config file's keys are flag names, read by the flag parser."""

    def _run(self, tmp_path, command, file_config, *flags):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(file_config))
        return main([command, "--config", str(config), *flags,
                     "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("file_config", [
        {"trials": 1.7}, {"ntrain": 150.9}, {"k": True}, {"trails": 2},
        {"tri": 1}, {"seed": "x"}, {"gamma-grid": ["1", "x"]}],
        ids=["float-trials", "float-ntrain", "bool-k", "unknown-key",
             "abbreviated-key", "text-seed", "bad-gamma"])
    def test_bad_value_or_key_exit_2(self, tmp_path, capsys, file_config):
        code = self._run(tmp_path, "simulate", file_config, "--methods",
                         "pca", "--spectrum", "fast", "--alignment", "well")
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreadable_or_non_object_file_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert self._run(tmp_path, "simulate", [1, 2]) == 2
        assert "flat JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_lists_and_null(self, tmp_path):
        # a list is comma-joined; null leaves the setting at its default
        code = self._run(tmp_path, "simulate", {
            "methods": ["pca", "ols"], "trials": 1, "spectrum": "fast",
            "alignment": "well", "ntrain": 150, "k": None,
            "gamma-grid": [0, 1, "inf"]})
        assert code == 0
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert doc["config"]["methods"] == ["pca", "ols"]
        assert doc["config"]["k"] == 15
        assert doc["config"]["gamma_grid"] == ["0.0", "1.0", "inf"]

    def test_list_valued_drop(self, tmp_path):
        code = self._run(tmp_path, "real-data", {"drop": ["c"]},
                         "--data", str(_toy_csv(tmp_path)),
                         "--response", "target", "--methods", "ols")
        assert code == 0
        doc = json.loads((tmp_path / "o" / "real_data.json").read_text())
        assert doc["feature_names"] == ["a", "b"]

    def test_data_and_response_from_file_only(self, tmp_path):
        code = self._run(tmp_path, "real-data", {
            "data": str(_toy_csv(tmp_path)), "response": "target",
            "methods": "pca", "k-max": 1})
        assert code == 0
        rows = (tmp_path / "o" / "curves.csv").read_text().splitlines()
        assert rows[1].startswith("pca,1,")

    @pytest.mark.parametrize("second", ["flag", "key"])
    def test_second_config_exit_2(self, tmp_path, capsys, second):
        # either file alone is a valid run; one of them would go unread
        run = {"methods": "pca", "trials": 1, "spectrum": "fast",
               "alignment": "well", "ntrain": 150, "k": 2}
        first, other = tmp_path / "a.json", tmp_path / "b.json"
        other.write_text(json.dumps(run))
        args = ["simulate", "--config", str(first)]
        if second == "flag":
            first.write_text(json.dumps(run))
            args += ["--config", str(other)]
        else:
            first.write_text(json.dumps({**run, "config": str(other)}))
        assert main(args + ["--out", str(tmp_path / "o")]) == 2
        assert "one --config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestLibraryOwnsDefaultsAndChecks:
    @pytest.mark.parametrize("argv", [
        ["simulate"], ["sweep-gamma"],
        ["real-data", "--data", "x.csv", "--response", "y"]])
    def test_every_config_field_is_a_setting(self, monkeypatch, argv):
        # a config field no command passes is a setting nothing can set
        seen = []

        def record(make, **settings):
            seen.append((make, settings))
            raise cli.ConfigError("stop before the run")

        monkeypatch.setattr(cli, "_config", record)
        assert main(argv) == 2
        (make, settings), = seen
        fields = sorted(f.name for f in dataclasses.fields(make))
        assert sorted(settings) == fields

    def test_ntrain_outside_old_choices_accepted(self, tmp_path):
        assert main(["simulate", "--methods", "ols", "--trials", "1",
                     "--spectrum", "fast", "--alignment", "well",
                     "--ntrain", "40", "--out", str(tmp_path)]) == 0
        assert "fast,well,40,ols," in (tmp_path / "report.csv").read_text()

    def test_unknown_spectrum_or_alignment_flag_exit_2(self, tmp_path, capsys):
        assert main(["sweep-gamma", "--spectrum", "medium",
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown spectrum kind 'medium'" in capsys.readouterr().err
        assert main(["simulate", "--alignment", "sideways",
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown alignment 'sideways'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid", ["0,1", "0"])
    def test_sweep_grid_outside_lspca_domain_exit_2(self, tmp_path, capsys,
                                                    grid):
        code = main(["sweep-gamma", "--trials", "1", "--gamma-grid", grid,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "outside the domain (0, inf] of lspca" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--methods", "zebra"], ["--methods", ""], ["--gamma-grid", "nan"],
        ["--gamma-grid", ""], ["--gamma-grid", "1,-2"],
        ["--delimiter", ";;"]])
    def test_real_data_bad_setting_exit_2(self, tmp_path, flags):
        code = main(["real-data", "--data", str(_toy_csv(tmp_path)),
                     "--response", "target", *flags,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--out", "x"],
                                      ["--config", "nope.json"],
                                      ["--inject-perturbation"]])
    def test_oracle_check_takes_no_settings(self, flag):
        assert main(["oracle-check", *flag]) == 2
