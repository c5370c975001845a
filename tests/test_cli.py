import inspect
import json

import pytest

from pref2constraint.cli import build_parser, main
from pref2constraint.llm import DecodingConfig, RunManifest, manifest_path_for, run_experiment
from pref2constraint.prompting import MAX_FEW_SHOT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_canonicalizes(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "s_t = 1 forall t")
        assert code == 0
        assert out.strip() == "s_t = 1 ∀ t"

    def test_pairing_error_named_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "parse", "s_t = 2 ∀ t")
        assert code == 1
        assert "PairingError" in err
        assert out == ""

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--json", "s_t=1∀t")
        payload = json.loads(out)
        assert code == 0
        assert payload["canonical"] == "s_t = 1 ∀ t"


class TestValidateData:
    def test_shipped_corpus(self, capsys):
        code, out, _ = run_cli(capsys, "validate-data")
        assert code == 0
        assert "26 records OK" in out

    def test_bad_corpus(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "text": "y"}\n', "utf-8")
        code, _, err = run_cli(capsys, "validate-data", "--data", str(path))
        assert code == 1
        assert "SchemaError" in err and "line 1" in err

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "validate-data", "--json")
        payload = json.loads(out)
        assert payload["records"] == 26 and payload["valid"]


class TestPrompt:
    def test_prompt_text(self, capsys):
        code, out, _ = run_cli(capsys, "prompt", "--target-id", "u01", "--shot", "0s")
        assert code == 0
        assert "## Frase da convertire" in out
        assert "dalle 7 alle 8,30" in out

    def test_unknown_target(self, capsys):
        code, _, err = run_cli(capsys, "prompt", "--target-id", "zzz")
        assert code == 1

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "prompt", "--target-id", "u03", "--shot", "fs", "--seed", "4")
        _, second, _ = run_cli(capsys, "prompt", "--target-id", "u03", "--shot", "fs", "--seed", "4")
        assert first == second

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "prompt", "--target-id", "u01", "--shot", "1s", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["shot"] == "1s" and len(payload["example_ids"]) == 1


class TestTag:
    def test_tagged_utterance(self, capsys):
        code, out, _ = run_cli(capsys, "tag", "--target-id", "u01")
        assert code == 0
        assert '<pref type="time">dalle 7 alle 8,30</pref>' in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "tag", "--target-id", "u01", "--json")
        payload = json.loads(out)
        assert payload["record_id"] == "u01"


class TestGround:
    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "ground", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30")
        assert code == 0
        assert "[14, 15, 16]" in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "ground", "--json", "--slot-minutes", "60", "s_t = 1 ∀ t ≤ 06:00"
        )
        payload = json.loads(out)
        assert payload["slot_minutes"] == 60
        assert payload["state"][:6] == [1] * 6
        assert payload["state"][6] is None

    def test_conflict_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "ground", "s_t = 1 ∀ t", "s_t = 0 ∀ t")
        assert code == 1
        assert "ConflictError" in err


class TestRunAndEval:
    def test_end_to_end(self, capsys, tmp_path):
        outputs = tmp_path / "run.jsonl"
        code, out, _ = run_cli(capsys, "run", "--out", str(outputs), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["completed"] == 78 and payload["failed"] == 0
        assert len(outputs.read_text("utf-8").splitlines()) == 78

        code, table, _ = run_cli(capsys, "eval", "--outputs", str(outputs))
        assert code == 0
        header = table.splitlines()[0].split()
        assert header == ["prompt", "ChrF", "Acc_Variables", "Acc_Conditions", "Acc_Avg"]
        assert len(table.splitlines()) == 4  # header + 0s/1s/fs

    def test_eval_json_single_document(self, capsys, tmp_path):
        outputs = tmp_path / "run.jsonl"
        run_cli(capsys, "run", "--out", str(outputs))
        code, out, _ = run_cli(capsys, "eval", "--outputs", str(outputs), "--json")
        assert code == 0
        payload = json.loads(out)
        assert {r["prompt"] for r in payload["reports"]} == {"0s", "1s", "fs"}

    def test_eval_report_flag_writes_file(self, capsys, tmp_path):
        outputs = tmp_path / "run.jsonl"
        run_cli(capsys, "run", "--out", str(outputs))
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "eval", "--outputs", str(outputs), "--report", str(report)
        )
        assert code == 0
        assert {r["prompt"] for r in json.loads(report.read_text("utf-8"))["reports"]} == {
            "0s", "1s", "fs",
        }

    def test_run_reports_dropped_torn_line(self, capsys, tmp_path):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text('{"record_id": "u0', "utf-8")
        code, out, err = run_cli(capsys, "run", "--out", str(outputs), "--json")
        assert code == 0
        assert json.loads(out)["completed"] == 78
        assert "dropped" in err and '{"record_id": "u0' in err

    def test_identical_stdout_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _, out_a, _ = run_cli(capsys, "run", "--out", str(a), "--json")
        _, out_b, _ = run_cli(capsys, "run", "--out", str(b), "--json")
        assert json.loads(out_a)["completed"] == json.loads(out_b)["completed"]
        assert a.read_bytes() == b.read_bytes()

    def test_run_rejects_nan_temperature(self, capsys, tmp_path):
        outputs = tmp_path / "run.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--out", str(outputs), "--temperature", "nan", "--shots", "0s"
        )
        assert code == 1
        assert "ConfigError" in err and "temperature" in err
        assert out == ""
        assert not outputs.exists() and not manifest_path_for(outputs).exists()

    @pytest.mark.parametrize(
        "bad_line",
        ["not json", '{"record_id": "u02", "shot": "0s"}'],
        ids=["bad-json", "missing-field"],
    )
    def test_run_into_corrupt_outputs_names_the_line(self, capsys, tmp_path, bad_line):
        outputs = tmp_path / "run.jsonl"
        good = {"record_id": "u01", "shot": "0s", "prompt_digest": "x", "response_text": "y"}
        outputs.write_text(json.dumps(good) + "\n" + bad_line + "\n", "utf-8")
        code, out, err = run_cli(capsys, "run", "--out", str(outputs))
        assert code == 1 and out == ""
        assert err.startswith("CorruptOutputsError: line 2: ")
        assert "Traceback" not in err

    def test_run_defaults_are_the_library_defaults(self):
        parser = build_parser()
        run = parser.parse_args(["run", "--out", "run.jsonl"])
        decoding = DecodingConfig()
        assert (run.temperature, run.top_k, run.top_p, run.max_new_tokens) == (
            decoding.temperature, decoding.top_k, decoding.top_p, decoding.max_new_tokens,
        )
        assert run.concurrency == inspect.signature(run_experiment).parameters["concurrency"].default
        few_shot_k = inspect.signature(RunManifest.create).parameters["few_shot_k"].default
        prompt = parser.parse_args(["prompt", "--target-id", "u01"])
        assert run.k == prompt.k == few_shot_k == MAX_FEW_SHOT

    def test_remote_backend_requires_endpoint(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("PREF2CONSTRAINT_ENDPOINT", raising=False)
        code, _, err = run_cli(
            capsys, "run", "--out", str(tmp_path / "r.jsonl"), "--backend", "openai"
        )
        assert code == 1
        assert "endpoint" in err


class TestScheduleCommands:
    @pytest.fixture()
    def problem_file(self, tmp_path):
        pv = [0.0] * 24
        pv[12], pv[13] = 3.0, 3.0
        payload = {
            "slot_minutes": 60,
            "pv": pv,
            "base_load": [0.0] * 24,
            "appliance": {"power_kw": 3.0, "duration_slots": 2, "contiguous": True},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload), "utf-8")
        return path

    def test_schedule(self, capsys, problem_file):
        code, out, _ = run_cli(capsys, "schedule", "--problem", str(problem_file), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["on_slots"] == [12, 13]

    def test_schedule_rejects_nan_pv(self, capsys, problem_file):
        payload = json.loads(problem_file.read_text("utf-8"))
        payload["pv"][12] = float("nan")
        problem_file.write_text(json.dumps(payload), "utf-8")
        code, out, err = run_cli(capsys, "schedule", "--problem", str(problem_file), "--json")
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_schedule_text_timeline(self, capsys, problem_file):
        code, out, _ = run_cli(capsys, "schedule", "--problem", str(problem_file))
        assert code == 0
        assert "##" in out.splitlines()[0]

    def test_check_functional_pass(self, capsys, problem_file):
        code, out, _ = run_cli(
            capsys,
            "check-functional",
            "--problem", str(problem_file),
            "--gold", "s_t = 1 ∀ 12:00 ≤ t ≤ 14:00",
            "--generated", "s_t = 1 ∀ 12:00 ≤ t ≤ 14:00",
        )
        assert code == 0
        assert out.strip() == "PASS"

    def test_check_functional_fail(self, capsys, problem_file):
        code, out, _ = run_cli(
            capsys,
            "check-functional", "--json",
            "--problem", str(problem_file),
            "--gold", "s_t = 1 ∀ 02:00 ≤ t ≤ 04:00",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is False
        assert payload["reason"]


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["schedule"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("validate-data", "parse", "prompt", "run", "eval",
                        "ground", "schedule", "check-functional"):
            assert command in out


class TestConfigPrecedence:
    def test_flag_beats_env_and_file(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "cfg"
        config.write_text("model = from-file\n", "utf-8")
        monkeypatch.setenv("PREF2CONSTRAINT_MODEL", "from-env")
        outputs = tmp_path / "r.jsonl"
        code, _, _ = run_cli(
            capsys, "run", "--out", str(outputs), "--config", str(config),
            "--model", "from-flag", "--shots", "0s",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "r.manifest.json").read_text("utf-8"))
        assert manifest["model_id"] == "from-flag"

    def test_env_beats_file(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "cfg"
        config.write_text("model = from-file\n", "utf-8")
        monkeypatch.setenv("PREF2CONSTRAINT_MODEL", "from-env")
        outputs = tmp_path / "r.jsonl"
        code, _, _ = run_cli(
            capsys, "run", "--out", str(outputs), "--config", str(config), "--shots", "0s"
        )
        assert code == 0
        manifest = json.loads((tmp_path / "r.manifest.json").read_text("utf-8"))
        assert manifest["model_id"] == "from-env"

    def test_file_used_last(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("PREF2CONSTRAINT_MODEL", raising=False)
        config = tmp_path / "cfg"
        config.write_text("# comment\nmodel = from-file\n", "utf-8")
        outputs = tmp_path / "r.jsonl"
        code, _, _ = run_cli(
            capsys, "run", "--out", str(outputs), "--config", str(config), "--shots", "0s"
        )
        assert code == 0
        manifest = json.loads((tmp_path / "r.manifest.json").read_text("utf-8"))
        assert manifest["model_id"] == "from-file"
