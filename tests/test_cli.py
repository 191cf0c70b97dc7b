import json

import pytest

from qnnbench.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, main
from qnnbench.data import COLUMNS, load_dataset


class TestDataGenSynth:
    @pytest.mark.filterwarnings("ignore::qnnbench.data.DataRangeWarning")
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code = main(["data", "gen-synth", "--size", "120", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert "120 rows" in capsys.readouterr().out
        rows = load_dataset(out)
        assert len(rows) == 120

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["data", "gen-synth", "--size", "50", "--seed", "9", "--out", str(a)])
        main(["data", "gen-synth", "--size", "50", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCircuitShow:
    def test_prints_census_and_instructions(self, capsys):
        assert main(["circuit", "show", "--model", "QNN-1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "single=28 two=12 total=40" in out
        assert "p q0 2*x[0]" in out
        assert "theta[11]" in out
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 40

    def test_unknown_model_is_config_error(self, capsys):
        assert main(["circuit", "show", "--model", "QNN-9"]) == EXIT_CONFIG


class TestBenchTrain:
    def test_trains_on_synthetic_and_saves_model(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(
            [
                "bench", "train",
                "--model", "QNN-6",
                "--size", "60",
                "--seed", "4",
                "--corpus-size", "150",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["config"] == "QNN-6"
        assert len(payload["params"]) == 12
        assert len(payload["loss_history"]) == 25
        assert "holdout R2=" in capsys.readouterr().out

    def test_baseline_training(self, capsys):
        code = main(["bench", "train", "--model", "kNN", "--size", "60", "--seed", "4",
                     "--corpus-size", "150"])
        assert code == EXIT_OK
        assert "kNN size=60" in capsys.readouterr().out

    def test_out_for_baseline_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "knn.json"
        code = main(["bench", "train", "--model", "kNN", "--size", "60", "--seed", "4",
                     "--corpus-size", "150", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        captured = capsys.readouterr()
        assert "quantum models only" in captured.err
        assert captured.out == ""
        # rejected before any data is loaded: a missing CSV is not reached
        code = main(["bench", "train", "--model", "LR", "--size", "60", "--seed", "1",
                     "--data", str(tmp_path / "absent.csv"), "--out", str(out)])
        assert code == EXIT_CONFIG

    def test_missing_csv_is_data_error(self, tmp_path, capsys):
        code = main(["bench", "train", "--model", "LR", "--size", "60", "--seed", "1",
                     "--data", str(tmp_path / "absent.csv")])
        assert code == EXIT_DATA

    def test_unknown_model_is_config_error(self):
        assert main(["bench", "train", "--model", "GBM", "--size", "60", "--seed", "1",
                     "--corpus-size", "150"]) == EXIT_CONFIG

    @pytest.mark.parametrize("model", ["QNN-3", "kNN"])
    def test_matches_bench_run_holdout(self, model, tmp_path, capsys):
        out = tmp_path / "report"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 4, "sizes": [60], "models": [model],
            "data": {"synthetic": True, "corpus_size": 150}, "output_dir": str(out),
        }))
        assert main(["bench", "run", "--config", str(config_path)]) == EXIT_OK
        holdout = json.loads((out / model / "60" / "metrics.json").read_text())["holdout"]
        capsys.readouterr()
        assert main(["bench", "train", "--model", model, "--size", "60", "--seed", "4",
                     "--corpus-size", "150"]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[-1]
        assert f"holdout R2={holdout['r2']:+.4f} RMSE={holdout['rmse_kw']:.2f} kW" in line


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    out = root / "report"
    config_path = root / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "seed": 8,
                "sizes": [60],
                "models": ["QNN-6", "kNN", "LR"],
                "data": {"synthetic": True, "corpus_size": 150},
                "output_dir": str(out),
            }
        )
    )
    return config_path, out


class TestBenchRunAndCompare:
    def test_run_writes_report(self, finished_run, capsys):
        config_path, out = finished_run
        assert main(["bench", "run", "--config", str(config_path)]) == EXIT_OK
        assert (out / "summary.json").exists()
        stdout = capsys.readouterr().out
        assert "QNN-6" in stdout and "holdout" in stdout

    def test_compare_prints_table(self, finished_run, capsys):
        config_path, out = finished_run
        main(["bench", "run", "--config", str(config_path)])
        capsys.readouterr()
        assert main(["bench", "compare", "--report", str(out)]) == EXIT_OK
        table = capsys.readouterr().out
        assert "QNN-6" in table and "kNN" in table and "LR" in table

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["bench", "run", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_invalid_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "sizes": [60], "models": ["SVR"]}))
        assert main(["bench", "run", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("entry", [{"optimizer": 5}, {"optimizer": {"max_iter": 0}}])
    def test_malformed_section_is_config_error(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "sizes": [60], "models": ["QNN-6"], **entry}))
        assert main(["bench", "run", "--config", str(path)]) == EXIT_CONFIG

    def test_compare_without_report_is_data_error(self, tmp_path):
        assert main(["bench", "compare", "--report", str(tmp_path)]) == EXIT_DATA

    def test_runtime_failure_exit_code(self, tmp_path):
        # CSV with fewer rows than the requested subset size passes config
        # validation but fails during data preparation
        csv_path = tmp_path / "tiny.csv"
        lines = [",".join(COLUMNS)]
        for i in range(20):
            lines.append(f"{i * 0.1:.2f},1000.0,200.0,{5 + i * 0.1:.2f},{100 + i:.1f}")
        csv_path.write_text("\n".join(lines) + "\n")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "sizes": [60],
                    "models": ["kNN"],
                    "data": {"csv": str(csv_path)},
                }
            )
        )
        assert main(["bench", "run", "--config", str(config_path)]) == EXIT_RUNTIME
