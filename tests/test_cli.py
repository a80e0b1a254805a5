import json

import numpy as np

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

    def test_zero_trials_config_error(self, tmp_path):
        code = main(["simulate", "--methods", "pca", "--trials", "0",
                     "--out", str(tmp_path)])
        assert code == 2

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

    def test_bad_gamma_grid(self, tmp_path):
        assert main(["sweep-gamma", "--gamma-grid", "-1",
                     "--out", str(tmp_path)]) == 2


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

    def test_missing_response_exit_2(self, tmp_path, capsys):
        csv_path = _toy_csv(tmp_path)
        code = main(["real-data", "--data", str(csv_path),
                     "--response", "quality", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "quality" in capsys.readouterr().err

    def test_non_numeric_cell_exit_2_with_coordinates(self, tmp_path, capsys):
        csv_path = _toy_csv(tmp_path, bad_cell=True)
        code = main(["real-data", "--data", str(csv_path),
                     "--response", "target", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 10" in err and "'b'" in err

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


class TestOracleCheck:
    def test_passes_within_time_budget(self, capsys):
        import time
        t0 = time.monotonic()
        assert main(["oracle-check"]) == 0
        assert time.monotonic() - t0 < 60.0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_perturbation_fails(self, capsys):
        assert main(["oracle-check", "--inject-perturbation"]) == 1
        captured = capsys.readouterr()
        assert "FAIL eigen_reconstruction" in captured.out
        assert "failed oracles" in captured.err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["simulate", "--frobnicate"]) == 2
