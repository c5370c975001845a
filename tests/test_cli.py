import inspect
import json
import math

import pytest

from pref2constraint import cli, metrics
from pref2constraint.cli import build_parser, main
from pref2constraint.dataset import mock_fixtures_path, pilot_corpus_path
from pref2constraint.llm import run_experiment
from pref2constraint.prompting import MAX_FEW_SHOT
from pref2constraint.runfile import DecodingConfig, RunManifest, manifest_path_for, read_manifest


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

    def test_ill_typed_line_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("42\n", "utf-8")
        code, out, err = run_cli(capsys, "validate-data", "--data", str(path))
        assert code == 1 and out == ""
        assert err == "SchemaError: line 1: expected a JSON object, got number\n"

    def test_line_that_is_not_utf8_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(pilot_corpus_path().read_bytes() + '{"id": "caffè"}\n'.encode("latin-1"))
        code, out, err = run_cli(capsys, "validate-data", "--data", str(path))
        assert code == 1 and out == ""
        assert err.startswith("SchemaError: line 27: not UTF-8 JSON: ")
        assert err.count("\n") == 1

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

    def test_eval_report_and_json_serialize_once_to_the_golden_bytes(
        self, capsys, tmp_path, monkeypatch, golden_dir
    ):
        outputs = tmp_path / "run.jsonl"
        run_cli(capsys, "run", "--out", str(outputs))
        serialized = []

        def counted(reports):
            serialized.append(reports)
            return metrics.reports_to_json(reports)

        monkeypatch.setattr(cli, "reports_to_json", counted)
        report = tmp_path / "both.json"
        code, out, _ = run_cli(
            capsys, "eval", "--outputs", str(outputs), "--report", str(report), "--json"
        )
        assert code == 0 and len(serialized) == 1
        golden = (golden_dir / "eval_report.json").read_text("utf-8")
        assert out == report.read_text("utf-8") == golden

    def test_eval_reads_the_manifest_once(self, capsys, tmp_path, monkeypatch):
        outputs = tmp_path / "run.jsonl"
        run_cli(capsys, "run", "--out", str(outputs))
        reads = []

        def counted(path):
            reads.append(path)
            return read_manifest(path)

        for module in (cli, metrics):
            monkeypatch.setattr(module, "read_manifest", counted)
        code, out, err = run_cli(capsys, "eval", "--outputs", str(outputs), "--json")
        assert code == 0, err
        assert {r["model_id"] for r in json.loads(out)["reports"]} == {"mock-model"}
        assert reads == [str(outputs)]

    @staticmethod
    def pilot_copy(tmp_path, edit=lambda record: record):
        """A copy of the pilot corpus with ``edit`` applied to each record's JSON object."""
        lines = pilot_corpus_path().read_text("utf-8").splitlines()
        records = [edit(json.loads(line)) for line in lines]
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), "utf-8")
        return path

    def test_eval_scores_against_the_corpus_the_run_used(self, capsys, tmp_path):
        def edit(record):
            if record["id"] == "u01":
                record["constraints"] = ["s_t = 1 ∀ t ≤ 08:30"]
            return record

        data = self.pilot_copy(tmp_path, edit)
        outputs = tmp_path / "run.jsonl"
        run = ("run", "--out", str(outputs), "--data", str(data), "--shots", "0s")
        assert run_cli(capsys, *run)[0] == 0
        default = run_cli(capsys, "eval", "--outputs", str(outputs), "--json")
        named = run_cli(capsys, "eval", "--outputs", str(outputs), "--json", "--gold", str(data))
        pilot = run_cli(
            capsys, "eval", "--outputs", str(outputs), "--json", "--gold", str(pilot_corpus_path())
        )
        assert default == named and default[0] == 0
        assert pilot[0] == 0 and pilot[1] != default[1]

    def test_eval_scores_a_corpus_with_other_ids(self, capsys, tmp_path):
        data = self.pilot_copy(tmp_path, lambda record: {**record, "id": "x" + record["id"]})
        outputs = tmp_path / "run.jsonl"
        assert run_cli(capsys, "run", "--out", str(outputs), "--data", str(data), "--shots", "0s")[0] == 0
        code, out, err = run_cli(capsys, "eval", "--outputs", str(outputs), "--json")
        assert code == 0, err
        (report,) = json.loads(out)["reports"]
        assert report["n_utterances"] == 26 and report["per_utterance"][0]["record_id"] == "xu01"

    @pytest.mark.parametrize("change", ["missing", "edited"])
    def test_eval_refuses_a_run_whose_corpus_is_gone_or_changed(self, capsys, tmp_path, change):
        data = self.pilot_copy(tmp_path)
        outputs = tmp_path / "run.jsonl"
        assert run_cli(capsys, "run", "--out", str(outputs), "--data", str(data), "--shots", "0s")[0] == 0
        if change == "missing":
            data.unlink()
        else:
            data.write_bytes(data.read_bytes() + b"\n")
        code, out, err = run_cli(capsys, "eval", "--outputs", str(outputs))
        assert code == 1 and out == ""
        assert err.startswith(f"ManifestMismatchError: {manifest_path_for(outputs)}: ")
        assert str(data) in err and "--gold" in err and err.count("\n") == 1
        gold = ("--gold", str(pilot_corpus_path()))
        assert run_cli(capsys, "eval", "--outputs", str(outputs), *gold)[0] == 0

    def test_eval_finds_the_corpus_from_another_directory(self, capsys, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        self.pilot_copy(work)
        monkeypatch.chdir(work)
        run = ("run", "--data", "corpus.jsonl", "--out", "sub/r.jsonl", "--shots", "0s")
        assert run_cli(capsys, *run)[0] == 0
        here = run_cli(capsys, "eval", "--outputs", "sub/r.jsonl", "--json")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "eval", "--outputs", "work/sub/r.jsonl", "--json")
        assert (code, out, err) == here and code == 0

    def test_eval_reads_a_corpus_path_written_relative_to_where_run_ran(
        self, capsys, tmp_path, monkeypatch
    ):
        data = self.pilot_copy(tmp_path)
        monkeypatch.chdir(tmp_path)
        outputs = tmp_path / "sub" / "r.jsonl"
        assert run_cli(capsys, "run", "--data", "corpus.jsonl", "--out", str(outputs))[0] == 0
        manifest = manifest_path_for(outputs)
        payload = json.loads(manifest.read_text("utf-8"))
        manifest.write_text(json.dumps({**payload, "dataset_path": "corpus.jsonl"}), "utf-8")
        # The folder-relative candidate exists but is another corpus, so its hash rules it out.
        (outputs.parent / "corpus.jsonl").write_bytes(data.read_bytes() + b"\n")
        code, out, err = run_cli(capsys, "eval", "--outputs", str(outputs), "--json")
        assert code == 0, err
        named = run_cli(capsys, "eval", "--outputs", str(outputs), "--json", "--gold", str(data))
        assert (code, out, err) == named

    def test_eval_without_a_manifest_scores_against_the_pilot(self, capsys, tmp_path):
        outputs = tmp_path / "run.jsonl"
        assert run_cli(capsys, "run", "--out", str(outputs), "--shots", "0s")[0] == 0
        manifest_path_for(outputs).unlink()
        default = run_cli(capsys, "eval", "--outputs", str(outputs), "--json")
        pilot = run_cli(
            capsys, "eval", "--outputs", str(outputs), "--json", "--gold", str(pilot_corpus_path())
        )
        assert default == pilot and default[0] == 0

    def test_run_reports_dropped_torn_line(self, capsys, tmp_path):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text('{"record_id": "u0', "utf-8")
        code, out, err = run_cli(capsys, "run", "--out", str(outputs), "--json")
        assert code == 0
        assert json.loads(out)["completed"] == 78
        assert "dropped" in err and '{"record_id": "u0' in err

    def test_run_and_eval_refuse_an_unterminated_malformed_line_alike(self, capsys, tmp_path):
        # It is JSON, so it is not torn: both read it like any other line.
        outputs = tmp_path / "run.jsonl"
        outputs.write_text('{"record_id": 5}', "utf-8")
        error = "CorruptOutputsError: line 1: 'record_id' must be a string, got 5\n"
        assert run_cli(capsys, "eval", "--outputs", str(outputs), "--json") == (1, "", error)
        assert run_cli(capsys, "run", "--out", str(outputs), "--json") == (1, "", error)
        assert outputs.read_text("utf-8") == '{"record_id": 5}'
        assert not manifest_path_for(outputs).exists()

    def test_resume_under_another_seed_without_a_manifest_is_refused(self, capsys, tmp_path):
        outputs = tmp_path / "r.jsonl"
        assert run_cli(capsys, "run", "--out", str(outputs), "--seed", "0")[0] == 0
        manifest_path_for(outputs).unlink()
        outputs.write_bytes(outputs.read_bytes() + b'{"record_id": "u1')  # torn last line
        before = outputs.read_bytes()
        # Under seed 7 the 1s prompt of u01 differs; a 0s-only run sends no 1s pair at all.
        for flags in [(), ("--shots", "0s")]:
            code, out, err = run_cli(capsys, "run", "--out", str(outputs), "--seed", "7", *flags)
            assert code == 1 and out == ""
            assert err.startswith("ManifestMismatchError: ") and "u01 [1s]" in err
            assert err.count("\n") == 1
            assert outputs.read_bytes() == before
            assert not manifest_path_for(outputs).exists()

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
        "flags,named",
        [(("--shots", "0s,0s"), "shot labels"), (("--concurrency", "0"), "concurrency")],
        ids=["repeated-shot", "zero-concurrency"],
    )
    def test_run_rejects_bad_settings_before_writing(self, capsys, tmp_path, flags, named):
        outputs = tmp_path / "run.jsonl"
        code, out, err = run_cli(capsys, "run", "--out", str(outputs), *flags)
        assert code == 1 and out == ""
        assert err.startswith("ConfigError: ") and named in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags,error",
        [
            (
                ("--shots", "0s,2s"),
                "PromptingError: unknown shot label '2s' (expected 0s, 1s or fs)\n",
            ),
            (
                ("--shots", "0s", "--template", "xx"),
                "UnknownTemplateError: unknown template 'xx'; available: ['en', 'it']\n",
            ),
        ],
        ids=["bad-shot", "unknown-template"],
    )
    def test_run_checks_settings_before_touching_outputs(self, capsys, tmp_path, flags, error):
        outputs = tmp_path / "run.jsonl"
        assert run_cli(capsys, "run", "--out", str(outputs), "--shots", "0s")[0] == 0
        manifest_path_for(outputs).unlink()
        outputs.write_bytes(outputs.read_bytes() + b'{"record_id": "u1')  # torn last line
        before = outputs.read_bytes()
        code, out, err = run_cli(capsys, "run", "--out", str(outputs), *flags)
        assert (code, out, err) == (1, "", error)
        assert outputs.read_bytes() == before
        assert not manifest_path_for(outputs).exists()

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

    @pytest.mark.parametrize("command", ["eval", "run"])
    def test_incomplete_manifest_is_one_line_error(self, capsys, tmp_path, command):
        outputs = tmp_path / "r.jsonl"
        good = {"record_id": "u01", "shot": "0s", "prompt_digest": "x", "response_text": "y"}
        outputs.write_text(json.dumps(good) + "\n", "utf-8")
        manifest_path_for(outputs).write_text('{"model_id": "m"}', "utf-8")
        flag = "--outputs" if command == "eval" else "--out"
        code, out, err = run_cli(capsys, command, flag, str(outputs))
        assert code == 1 and out == ""
        assert err == (
            f"CorruptManifestError: {manifest_path_for(outputs)}: missing field 'dataset_path'\n"
        )

    @pytest.mark.parametrize("command", ["eval", "run"])
    def test_outputs_line_that_is_not_an_object_is_one_line_error(self, capsys, tmp_path, command):
        outputs = tmp_path / "r.jsonl"
        good = {"record_id": "u01", "shot": "0s", "prompt_digest": "x", "response_text": "y"}
        outputs.write_text(json.dumps(good) + "\n\n\n5\n", "utf-8")
        flag = "--outputs" if command == "eval" else "--out"
        code, out, err = run_cli(capsys, command, flag, str(outputs))
        assert (code, out, err) == (
            1, "", "CorruptOutputsError: line 4: expected a JSON object, got number\n"
        )

    @pytest.mark.parametrize("command", ["eval", "run"])
    def test_manifest_decoding_that_is_not_an_object_is_one_line_error(
        self, capsys, tmp_path, command
    ):
        outputs = tmp_path / "r.jsonl"
        assert run_cli(capsys, "run", "--out", str(outputs), "--shots", "0s")[0] == 0
        manifest = manifest_path_for(outputs)
        payload = json.loads(manifest.read_text("utf-8"))
        manifest.write_text(json.dumps({**payload, "decoding": [1]}), "utf-8")
        flag = "--outputs" if command == "eval" else "--out"
        code, out, err = run_cli(capsys, command, flag, str(outputs))
        assert (code, out, err) == (
            1, "", f"CorruptManifestError: {manifest}: 'decoding' must be an object, got [1]\n"
        )

    @pytest.mark.parametrize(
        "fixtures,named",
        [
            ('{"d": 7}', "'d' must be a string, got 7"),
            ('["risposta"]', "expected a JSON object, got array"),
        ],
        ids=["number-response", "array"],
    )
    def test_run_refuses_bad_fixtures_before_writing(self, capsys, tmp_path, fixtures, named):
        path = tmp_path / "fixtures.json"
        path.write_text(fixtures, "utf-8")
        outputs = tmp_path / "run.jsonl"
        code, out, err = run_cli(capsys, "run", "--out", str(outputs), "--fixtures", str(path))
        assert (code, out, err) == (1, "", f"ConfigError: {path}: {named}\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_run_reports_a_completion_holding_a_lone_surrogate_as_one_failure(
        self, capsys, tmp_path
    ):
        fixtures = json.loads(mock_fixtures_path().read_text("utf-8"))
        fixtures[next(iter(fixtures))] = "\ud800"
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(fixtures), "utf-8")  # the surrogate as a JSON escape
        outputs = tmp_path / "sur.jsonl"
        code, out, err = run_cli(capsys, "run", "--fixtures", str(path), "--out", str(outputs))
        assert (code, out) == (0, f"completed 77, skipped 0, failed 1 -> {outputs}\n")
        (failed,) = err.splitlines()
        assert failed.startswith("failed: u") and failed.endswith(
            "]: completion holds the lone surrogate '\\ud800', which UTF-8 cannot encode"
        )
        assert len(outputs.read_bytes().splitlines()) == 77

    @pytest.mark.parametrize("command", ["eval", "run"])
    def test_manifest_with_an_unknown_decoding_setting_is_one_line_error(
        self, capsys, tmp_path, command
    ):
        outputs = tmp_path / "r.jsonl"
        assert run_cli(capsys, "run", "--out", str(outputs), "--shots", "0s")[0] == 0
        manifest = manifest_path_for(outputs)
        payload = json.loads(manifest.read_text("utf-8"))
        payload["decoding"]["repetition_penalty"] = 1.1
        manifest.write_text(json.dumps(payload), "utf-8")
        flag = "--outputs" if command == "eval" else "--out"
        code, out, err = run_cli(capsys, command, flag, str(outputs))
        assert (code, out, err) == (
            1, "", f"CorruptManifestError: {manifest}: unknown field 'repetition_penalty'\n"
        )

    @pytest.mark.parametrize("command", ["eval", "run"])
    def test_manifest_with_an_unknown_top_level_field_is_read(self, capsys, tmp_path, command):
        outputs = tmp_path / "r.jsonl"
        assert run_cli(capsys, "run", "--out", str(outputs), "--shots", "0s")[0] == 0
        manifest = manifest_path_for(outputs)
        payload = json.loads(manifest.read_text("utf-8"))
        manifest.write_text(json.dumps({**payload, "note": "pilot"}), "utf-8")
        argv = ["--outputs", str(outputs)] if command == "eval" else ["--out", str(outputs), "--shots", "0s"]
        code, _, err = run_cli(capsys, command, *argv, "--json")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "text,named",
        [
            (
                "\ufeffendpoint = http://localhost:9/v1\n",
                "line 1: unknown key '\\ufeffendpoint' (expected endpoint, api_key or model)",
            ),
            (
                "# remote\n\nendpont = http://localhost:9/v1\n",
                "line 3: unknown key 'endpont' (expected endpoint, api_key or model)",
            ),
            ("model = m\nendpoint: http://localhost:9/v1\n", "line 2: expected 'key = value'"),
        ],
        ids=["byte-order-mark", "typo", "no-equals"],
    )
    def test_run_refuses_a_config_line_it_cannot_use(self, capsys, tmp_path, text, named):
        config = tmp_path / "settings.cfg"
        config.write_text(text, "utf-8")
        outputs = tmp_path / "run.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--out", str(outputs), "--backend", "openai", "--config", str(config)
        )
        assert (code, out, err) == (1, "", f"ConfigError: {config}: {named}\n")
        assert list(tmp_path.iterdir()) == [config]

    def test_run_refuses_a_config_file_that_is_not_utf8(self, capsys, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_bytes("model = caffè\n".encode("latin-1"))
        outputs = tmp_path / "run.jsonl"
        code, out, err = run_cli(capsys, "run", "--out", str(outputs), "--config", str(config))
        assert code == 1 and out == ""
        assert err.startswith(f"ConfigError: {config}: not UTF-8 text: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [config]

    def test_resume_with_the_corpus_under_another_path(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "pilot_it.jsonl").write_bytes(pilot_corpus_path().read_bytes())
        monkeypatch.chdir(tmp_path)
        first = ["run", "--out", "r.jsonl", "--data", "pilot_it.jsonl", "--shots", "0s", "--json"]
        assert run_cli(capsys, *first)[0] == 0
        again = first[:4] + [str(tmp_path / "pilot_it.jsonl")] + first[5:]
        code, out, err = run_cli(capsys, *again)
        assert code == 0, err
        assert json.loads(out)["skipped"] == 26 and json.loads(out)["completed"] == 0

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

    @pytest.mark.parametrize("endpoint", ["file:///v1", "127.0.0.1:8000/v1"])
    def test_remote_backend_refuses_a_non_http_endpoint(self, capsys, tmp_path, endpoint):
        code, out, err = run_cli(
            capsys, "run", "--out", str(tmp_path / "r.jsonl"), "--backend", "openai",
            "--endpoint", endpoint,
        )
        assert code == 1 and out == ""
        assert err == f"ConfigError: endpoint must be an http:// or https:// URL, got {endpoint!r}\n"
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("command", ["schedule", "check-functional"])
    @pytest.mark.parametrize(
        "payload,named",
        [
            ({}, "missing field 'slot_minutes'"),
            ([1, 2], "expected a JSON object, got array"),
            ({"slot_minutes": 60, "pv": [], "base_load": []}, "missing field 'appliance'"),
            ({"slot_minutes": 60, "appliance": {}}, "missing field 'power_kw'"),
        ],
        ids=["empty", "array", "no-appliance", "no-power"],
    )
    def test_malformed_problem_is_one_line_error(self, capsys, tmp_path, command, payload, named):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload), "utf-8")
        gold = ("--gold", "s_t = 1 ∀ t") if command == "check-functional" else ()
        code, out, err = run_cli(capsys, command, "--problem", str(path), *gold)
        assert code == 1 and out == ""
        assert err == f"SchedulerError: {path}: {named}\n"

    @pytest.mark.parametrize("command", ["schedule", "check-functional"])
    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("contiguous", "false", "'contiguous' must be true or false, got \"false\""),
            ("contiguous", 0, "'contiguous' must be true or false, got 0"),
            ("duration_slots", 2.9, "'duration_slots' must be an integer, got 2.9"),
            ("duration_slots", True, "'duration_slots' must be an integer, got true"),
            ("slot_minutes", 60.0, "'slot_minutes' must be an integer, got 60.0"),
            ("forced.slot_minutes", "60", "'slot_minutes' must be an integer, got \"60\""),
            ("forced.state", 2, "'state' entries must be 0, 1 or null, got 2"),
            ("forced.state", 0.7, "'state' entries must be 0, 1 or null, got 0.7"),
            ("forced.state", False, "'state' entries must be 0, 1 or null, got false"),
            ("power_kw", "3", "'power_kw' must be a number, got \"3\""),
            ("power_kw", True, "'power_kw' must be a number, got true"),
            ("pv", "0.0", "'pv' entries must be numbers, got \"0.0\""),
            ("pv", True, "'pv' entries must be numbers, got true"),
            ("pv", None, "'pv' entries must be numbers, got null"),
            ("base_load", "0.1", "'base_load' entries must be numbers, got \"0.1\""),
            ("forced.temperature", "21", "'temperature' entries must be numbers or null, got \"21\""),
            ("forced.temperature", False, "'temperature' entries must be numbers or null, got false"),
        ],
        ids=[
            "contiguous-string", "contiguous-number", "duration-fraction", "duration-bool",
            "slot-float", "forced-slot-string", "state-2", "state-fraction", "state-bool",
            "power-string", "power-bool", "pv-string", "pv-bool", "pv-null", "base-load-string",
            "temperature-string", "temperature-bool",
        ],
    )
    def test_ill_typed_problem_field_is_one_line_error(
        self, capsys, problem_file, command, field, value, named
    ):
        payload = json.loads(problem_file.read_text("utf-8"))
        payload["forced"] = {"slot_minutes": 60, "state": [None] * 24, "temperature": [None] * 24}
        if field in ("forced.state", "forced.temperature"):
            payload["forced"][field.split(".")[1]][15] = value
        elif field in ("pv", "base_load"):
            payload[field][15] = value
        elif field == "forced.slot_minutes":
            payload["forced"]["slot_minutes"] = value
        elif field == "slot_minutes":
            payload["slot_minutes"] = value
        else:
            payload["appliance"][field] = value
        problem_file.write_text(json.dumps(payload), "utf-8")
        gold = ("--gold", "s_t = 1 ∀ t") if command == "check-functional" else ()
        code, out, err = run_cli(capsys, command, "--problem", str(problem_file), *gold)
        assert code == 1 and out == ""
        assert err == f"SchedulerError: {problem_file}: {named}\n"

    @pytest.mark.parametrize("command", ["schedule", "check-functional"])
    @pytest.mark.parametrize(
        "change,named",
        [
            ({"appliance": [2.0]}, "'appliance' must be an object, got [2.0]"),
            ({"forced": [1]}, "'forced' must be an object, got [1]"),
            ({"pv": None}, "'pv' must be an array, got null"),
            ({"base_load": "0.0"}, "'base_load' must be an array, got \"0.0\""),
            (
                {"forced": {"slot_minutes": 60, "state": 1, "temperature": [None] * 24}},
                "'state' must be an array, got 1",
            ),
            (
                {"forced": {"slot_minutes": 60, "state": [None] * 24, "temperature": None}},
                "'temperature' must be an array, got null",
            ),
        ],
        ids=[
            "appliance-array", "forced-array", "pv-null", "base-load-string", "state-number",
            "temperature-null",
        ],
    )
    def test_type_swapped_nested_field_is_one_line_error(
        self, capsys, problem_file, command, change, named
    ):
        payload = json.loads(problem_file.read_text("utf-8"))
        problem_file.write_text(json.dumps({**payload, **change}), "utf-8")
        gold = ("--gold", "s_t = 1 ∀ t") if command == "check-functional" else ()
        code, out, err = run_cli(capsys, command, "--problem", str(problem_file), *gold)
        assert (code, out, err) == (1, "", f"SchedulerError: {problem_file}: {named}\n")

    @pytest.mark.parametrize("command", ["schedule", "check-functional"])
    @pytest.mark.parametrize(
        "change,named",
        [
            ({"slot_minutes": 45}, "slot_minutes must be one of (1, 5, 15, 30, 60), got 45"),
            (
                {"appliance": {"power_kw": 0, "duration_slots": 2}},
                "appliance power must be finite and > 0 kW",
            ),
            ({"pv": [0.0] * 23}, "pv and base_load must have 24 entries"),
            (
                {"appliance": {"power_kw": 3.0, "duration_slots": 25}},
                "appliance duration exceeds the horizon",
            ),
            (
                {"forced": {"slot_minutes": 30, "state": [None] * 48, "temperature": [None] * 48}},
                "forced assignment horizon differs from problem horizon",
            ),
            (
                {"forced": {"slot_minutes": 60, "state": [None] * 5, "temperature": [None] * 24}},
                "assignment arrays must have 24 entries for 60-minute slots",
            ),
            (
                {"forced": {"slot_minutes": 60, "state": [], "temperature": []}},
                "assignment arrays must have 24 entries for 60-minute slots",
            ),
            (
                {"forced": {"slot_minutes": 60, "state": [None] * 24, "temperature": []}},
                "assignment arrays must have 24 entries for 60-minute slots",
            ),
            (
                {"forced": {"slot_minutes": 60, "state": [None] * 24,
                            "temperature": [None] * 5 + [math.nan] + [None] * 18}},
                "'temperature' entries must be finite numbers or null, got NaN",
            ),
            (
                {"forced": {"slot_minutes": 60, "state": [None] * 24,
                            "temperature": [None] * 5 + [math.inf] + [None] * 18}},
                "'temperature' entries must be finite numbers or null, got Infinity",
            ),
            (None, "not UTF-8 JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=[
            "slot-45", "power-zero", "pv-length", "long-duration", "forced-horizon",
            "forced-length-5", "forced-empty", "forced-empty-temperature",
            "temperature-nan", "temperature-infinity", "not-json",
        ],
    )
    def test_problem_error_names_the_file(self, capsys, problem_file, command, change, named):
        if change is None:
            problem_file.write_text("", "utf-8")
        else:
            payload = json.loads(problem_file.read_text("utf-8"))
            problem_file.write_text(json.dumps({**payload, **change}), "utf-8")
        gold = ("--gold", "s_t = 1 ∀ t") if command == "check-functional" else ()
        code, out, err = run_cli(capsys, command, "--problem", str(problem_file), *gold)
        assert code == 1 and out == ""
        assert err == f"SchedulerError: {problem_file}: {named}\n"

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

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (
                ["schedule"],
                '{"on_slots": [9, 10, 11], "self_consumption_kwh": 7.400000000000001, '
                '"feasible": true}\n',
            ),
            (
                ["check-functional", "--gold", "s_t = 1 ∀ 12:00 ≤ t ≤ 14:00",
                 "--generated", "s_t = 1 ∀ 12:00 ≤ t ≤ 14:00"],
                '{"passed": true, "reason": null, "schedule": {"on_slots": [11, 12, 13], '
                '"self_consumption_kwh": 7.4, "feasible": true}}\n',
            ),
            (
                ["check-functional", "--gold", "s_t = 1 ∀ 02:00 ≤ t ≤ 04:00"],
                '{"passed": false, "reason": "slot 2 must be on per gold constraints", '
                '"schedule": {"on_slots": [9, 10, 11], "self_consumption_kwh": 7.400000000000001, '
                '"feasible": true}}\n',
            ),
        ],
        ids=["schedule", "check-pass", "check-fail"],
    )
    def test_json_stdout_bytes_on_the_readme_problem(self, capsys, tmp_path, argv, stdout):
        problem = {  # the example problem file in README.md
            "slot_minutes": 60,
            "pv": [0, 0, 0, 0, 0, 0, 0, 0, 1.5, 3, 3, 3, 3, 3, 1.5] + [0] * 9,
            "base_load": [0.2] * 24,
            "appliance": {"power_kw": 2.0, "duration_slots": 3, "contiguous": True},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem), "utf-8")
        code, out, err = run_cli(capsys, *argv, "--json", "--problem", str(path))
        assert (code, out, err) == (0, stdout, "")


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
