"""Command-line surface: run artifacts, verify suites, report, answer check."""

import json
import os

import pytest

from voteloop import cli
from voteloop.cli import main
from voteloop.metrics import RoundReport, emit_metrics

BASE_ARGS = [
    "--corpus-n-train", "12",
    "--corpus-n-test", "4",
    "--k", "9",
    "--rounds", "2",
    "--eval-k", "5",
    "--seed", "3",
]


def run_cli(argv):
    return main([str(a) for a in argv])


class TestRun:
    def test_produces_artifact_set(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["run", *BASE_ARGS, "--out-dir", out]) == 0
        for name in ("metrics.csv", "summary.json", "config.json", "tasks.jsonl", "labels.jsonl"):
            assert (out / name).exists(), name
        assert (out / "checkpoints" / "round_000.policy").exists()
        assert (out / "checkpoints" / "round_002.policy").exists()
        assert (out / "datasets" / "round_001.jsonl").exists()

    def test_same_config_gives_byte_identical_metrics(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", *BASE_ARGS, "--out-dir", out_a]) == 0
        assert run_cli(["run", *BASE_ARGS, "--out-dir", out_b]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 7, "rounds": 1, "corpus_n_train": 10, "corpus_n_test": 4}))
        out = tmp_path / "run"
        assert run_cli(["run", "--config", cfg, "--rounds", "2", "--out-dir", out]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["k"] == 7  # from file
        assert echoed["rounds"] == 2  # CLI wins
        assert echoed["out_dir"] == str(out)

    def test_echoed_config_reproduces_run(self, tmp_path):
        out_a = tmp_path / "a"
        assert run_cli(["run", *BASE_ARGS, "--out-dir", out_a]) == 0
        echoed = json.loads((out_a / "config.json").read_text())
        echoed["out_dir"] = str(tmp_path / "b")
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(echoed))
        assert run_cli(["run", "--config", cfg]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_unknown_config_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 1, "turbo": True}))
        assert run_cli(["run", "--config", cfg, "--out-dir", tmp_path / "x"]) == 2
        cfg.write_text(json.dumps({"rounds": 1, "epochs": 3}))  # the removed solver knob
        assert run_cli(["run", "--config", cfg, "--out-dir", tmp_path / "x"]) == 2
        cfg.write_text(json.dumps({"rounds": 1, "workers": 2}))  # the removed parallelism knob
        assert run_cli(["run", "--config", cfg, "--out-dir", tmp_path / "x"]) == 2

    def test_echoed_config_with_the_removed_warm_start_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus_n_train": 10, "corpus_n_test": 4, "warm_start": True}))
        out = tmp_path / "x"
        assert run_cli(["run", "--config", cfg, "--out-dir", out]) == 2
        assert "config error: unknown config file key 'warm_start'" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(SystemExit):
            run_cli(["run", "--cold-start", "--out-dir", out])

    @pytest.mark.parametrize(
        "bad",
        [{"rounds": 2.9}, {"k": True}, {"k": "ten"}],
        ids=["float-for-int", "bool-for-int", "str-for-int"],
    )
    def test_config_value_of_the_wrong_type_is_rejected(self, bad, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus_n_train": 10, "corpus_n_test": 4, **bad}))
        out = tmp_path / "x"
        assert run_cli(["run", "--config", cfg, "--out-dir", out]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [{"beta": True}, {"transform": 1}])
    def test_float_str_and_bool_keys_check_their_type(self, bad):
        with pytest.raises(cli.ConfigError, match=repr(next(iter(bad)))):
            cli.effective_config(bad, {})

    def test_int_values_are_accepted_for_float_keys(self):
        config = cli.effective_config({"beta": 1, "transform": "exponential"}, {})
        assert config["beta"] == 1.0 and isinstance(config["beta"], float)

    def test_bad_config_value_is_usage_error(self, tmp_path):
        assert run_cli(["run", "--rounds", "0", "--out-dir", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "flag, value", [("--eval-k", "0"), ("--eval-k", "-3"), ("--eval-samples", "0")]
    )
    def test_bad_eval_settings_are_usage_errors(self, flag, value, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli(["run", *BASE_ARGS, flag, value, "--out-dir", out]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_out_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOTELOOP_OUT_ROOT", str(tmp_path))
        assert run_cli(["run", *BASE_ARGS, "--out-dir", "nested/run"]) == 0
        assert (tmp_path / "nested" / "run" / "metrics.csv").exists()


class TestVerify:
    @pytest.mark.parametrize(
        "suite, extra",
        [
            ("closedform", ["--count", "8"]),
            ("proposition1", ["--count", "8"]),
            ("gradients", ["--count", "5"]),
            ("answers", ["--count", "300", "--fuzz", "2000"]),
        ],
    )
    def test_suites_pass(self, suite, extra, capsys):
        assert run_cli(["verify", suite, *extra]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out

    def test_votes_suite(self, capsys):
        assert run_cli(["verify", "votes"]) == 0
        assert "counting oracle" in capsys.readouterr().out

    def test_jsonl_report_output(self, tmp_path, capsys):
        report = tmp_path / "prop1.jsonl"
        assert run_cli(["verify", "proposition1", "--count", "5", "--out", report]) == 0
        lines = [json.loads(ln) for ln in report.read_text().splitlines()]
        assert len(lines) == 5
        assert all({"suite", "instance", "pass", "beta", "distance"} <= set(rec) for rec in lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["closedform", "--count", "0"],
            ["closedform", "--count", "-3"],
            ["votes", "--count", "5"],
            ["proposition1", "--fuzz", "10"],
            ["answers", "--fuzz", "-1"],
        ],
    )
    def test_vacuous_or_ignored_options_are_usage_errors(self, argv, monkeypatch, capsys):
        def never(**kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "SUITES", {name: never for name in cli.SUITES})
        assert run_cli(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "nonsense"])
        assert err.value.code == 2


class TestReport:
    def test_reports_finished_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(["run", *BASE_ARGS, "--out-dir", out])
        capsys.readouterr()
        assert run_cli(["report", out]) == 0
        text = capsys.readouterr().out
        assert "best round" in text

    def test_best_round_matches_summary_on_a_tie(self, tmp_path, capsys):
        # Rounds 1 and 3 tie on train maj@k; both report and summary pick 1.
        accs = [0.5, 0.75, 0.6, 0.75]
        reports = [
            RoundReport(
                round_index=r,
                maj1_acc={"train": 0.4, "test": 0.4},
                majk_acc={"train": acc, "test": 0.9 - 0.1 * r},
                mean_entropy={"train": 1.0, "test": 1.0},
            )
            for r, acc in enumerate(accs)
        ]
        emit_metrics(reports, tmp_path / "metrics.csv", tmp_path / "summary.json")
        best = json.loads((tmp_path / "summary.json").read_text())["best_round"]
        assert run_cli(["report", tmp_path]) == 0
        rows = capsys.readouterr().out.splitlines()
        starred = [ln.split()[0] for ln in rows if ln.split()[0].endswith("*")]
        assert starred == [f"{best}*"] == ["1*"]

    def test_missing_directory_is_exit_2(self, tmp_path):
        assert run_cli(["report", tmp_path / "empty"]) == 2

    def test_flags_solver_trouble_from_the_run_rows(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["--backend", "softmax", "--corpus-n-train", "6", "--corpus-n-test", "2"]
        run_cli(["run", *argv, "--rounds", "2", "--out-dir", out])
        capsys.readouterr()
        assert run_cli(["report", out]) == 0
        assert "solver" not in capsys.readouterr().out
        csv = out / "metrics.csv"
        text = csv.read_text()
        edits = (
            ("1,run,solver_stalled", "2.0"),
            ("2,run,solver_unconverged", "3.0"),
            ("2,run,solver_stalled", "1.0"),
        )
        for row, value in edits:
            assert f"{row},0.0\n" in text
            text = text.replace(f"{row},0.0\n", f"{row},{value}\n")
        csv.write_text(text)
        assert run_cli(["report", out]) == 0
        flags = [ln for ln in capsys.readouterr().out.splitlines() if "solver" in ln]
        assert flags == [
            "flag: solver did not converge in "
            "round 1 (0 unconverged, 2 stalled), round 2 (3 unconverged, 1 stalled)"
        ]


class TestAnswerCheck:
    def test_equivalent_pair_exits_zero(self, capsys):
        assert run_cli(["answer", "check", "0.5", "\\frac{1}{2}"]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_different_pair_exits_one(self, capsys):
        assert run_cli(["answer", "check", "x+1", "1+x"]) == 1
        assert "different" in capsys.readouterr().out
