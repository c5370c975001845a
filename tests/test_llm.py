import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pref2constraint.dataset import mock_fixtures_path, pilot_corpus_path
from pref2constraint.llm import (
    AuthError,
    CompletionRequest,
    DecodingConfig,
    MalformedBackendReply,
    ManifestMismatchError,
    MockBackend,
    MockMissError,
    ModelResponse,
    OpenAICompatBackend,
    RateLimitedError,
    RunManifest,
    ServerError,
    complete,
    manifest_path_for,
    prompt_digest,
    run_experiment,
)
from pref2constraint.metrics import CorruptOutputsError, evaluate_run

MOCK_FIXTURES = {prompt_digest("ciao"): "risposta fissa"}


def request(prompt="ciao", model="m"):
    return CompletionRequest(prompt, model)


class TestDecodingConfig:
    def test_defaults(self):
        config = DecodingConfig()
        assert (config.temperature, config.top_k, config.top_p, config.max_new_tokens) == (
            0.1,
            20,
            0.9,
            30,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"top_k": -1},
            {"max_new_tokens": 0},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecodingConfig(**kwargs)


class TestMockBackend:
    def test_hit_is_byte_exact(self):
        backend = MockBackend(MOCK_FIXTURES)
        assert backend.send(request()).text == "risposta fissa"

    def test_miss_is_distinct_error(self):
        backend = MockBackend(MOCK_FIXTURES)
        with pytest.raises(MockMissError) as excinfo:
            backend.send(request("prompt mai visto"))
        assert not isinstance(excinfo.value, MalformedBackendReply)

    def test_from_file(self, tmp_path):
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(MOCK_FIXTURES), "utf-8")
        assert MockBackend.from_file(path).send(request()).text == "risposta fissa"


class FlakyBackend:
    """Fails with the given errors, then answers."""

    name = "flaky"

    def __init__(self, errors):
        self.errors = list(errors)
        self.calls = 0

    def send(self, req):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return ModelResponse("ok", 1.0, self.name)


class TestCompleteRetries:
    def test_transient_errors_retried(self):
        backend = FlakyBackend([RateLimitedError("429"), ServerError("503")])
        naps = []
        response = complete(backend, request(), retries=3, sleep=naps.append)
        assert response.text == "ok"
        assert backend.calls == 3
        assert naps == [0.5, 1.0]

    def test_backoff_is_capped(self):
        backend = FlakyBackend([ServerError("x")] * 6)
        naps = []
        with pytest.raises(ServerError):
            complete(backend, request(), retries=5, backoff_cap=2.0, sleep=naps.append)
        assert max(naps) == 2.0

    def test_budget_exhaustion_raises_last_error(self):
        backend = FlakyBackend([RateLimitedError("slow down")] * 10)
        with pytest.raises(RateLimitedError):
            complete(backend, request(), retries=2, sleep=lambda _: None)
        assert backend.calls == 3

    def test_permanent_errors_not_retried(self):
        backend = FlakyBackend([AuthError("no")])
        with pytest.raises(AuthError):
            complete(backend, request(), retries=5, sleep=lambda _: None)
        assert backend.calls == 1

    def test_mock_miss_not_retried(self):
        backend = MockBackend({})
        with pytest.raises(MockMissError):
            complete(backend, request(), retries=5, sleep=lambda _: None)


class FakeReply:
    def __init__(self, status_code=200, payload=None, text="body"):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, reply):
        self.reply = reply
        self.last = None

    def post(self, url, json=None, headers=None, timeout=None):
        self.last = {"url": url, "json": json, "headers": headers, "timeout": timeout}
        return self.reply


class TestOpenAICompatBackend:
    def backend(self, reply):
        return OpenAICompatBackend(
            "https://llm.example/v1/", "sk-test", session=FakeSession(reply)
        )

    def test_wire_format(self):
        reply = FakeReply(payload={"choices": [{"message": {"content": "s_t = 1 ∀ t"}}]})
        backend = self.backend(reply)
        response = backend.send(request("prompt", model="modello-it"))
        assert response.text == "s_t = 1 ∀ t"
        sent = backend.session.last
        assert sent["url"] == "https://llm.example/v1/chat/completions"
        assert sent["json"]["model"] == "modello-it"
        assert sent["json"]["messages"] == [{"role": "user", "content": "prompt"}]
        assert sent["json"]["temperature"] == 0.1
        assert sent["json"]["top_p"] == 0.9
        assert sent["json"]["top_k"] == 20
        assert sent["json"]["max_tokens"] == 30
        assert sent["headers"]["Authorization"] == "Bearer sk-test"

    def test_bad_credentials(self):
        with pytest.raises(AuthError):
            self.backend(FakeReply(status_code=401)).send(request())

    def test_rate_limited_is_transient(self):
        with pytest.raises(RateLimitedError) as excinfo:
            self.backend(FakeReply(status_code=429)).send(request())
        assert excinfo.value.transient

    def test_malformed_reply(self):
        with pytest.raises(MalformedBackendReply):
            self.backend(FakeReply(payload={"choices": []})).send(request())

    def test_non_json_reply(self):
        with pytest.raises(MalformedBackendReply):
            self.backend(FakeReply(payload=None)).send(request())


VALID_ROW = {"record_id": "u01", "shot": "0s", "prompt_digest": "x", "response_text": "y"}

# A run whose backend kills the process at completion k, once the outputs
# file holds k - 1 lines or after a grace period if it never does.
DYING_RUN = """
import os, sys, time
from pathlib import Path
from pref2constraint.dataset import load_pilot_corpus, mock_fixtures_path, pilot_corpus_path
from pref2constraint.llm import MockBackend, RunManifest, run_experiment

outputs, kill_at = Path(sys.argv[1]), int(sys.argv[2])


class DyingBackend(MockBackend):
    calls = 0

    def send(self, request):
        DyingBackend.calls += 1
        if DyingBackend.calls == kill_at:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if outputs.exists() and outputs.read_bytes().count(b"\\n") >= kill_at - 1:
                    break
                time.sleep(0.01)
            os._exit(3)
        return super().send(request)


manifest = RunManifest.create(pilot_corpus_path(), "it", ("0s", "1s", "fs"), "mock-model")
backend = DyingBackend.from_file(mock_fixtures_path())
run_experiment(manifest, load_pilot_corpus(), backend, outputs, concurrency=1)
"""


@pytest.fixture()
def pilot_manifest():
    return RunManifest.create(
        dataset_path=pilot_corpus_path(),
        template_id="it",
        shot_labels=("0s", "1s", "fs"),
        model_id="mock-model",
        seed=0,
    )


def shipped_mock_backend():
    return MockBackend.from_file(mock_fixtures_path())


class TestRunExperiment:
    def test_full_run_line_count(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        summary = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert summary.completed == 78 and not summary.failures
        lines = [json.loads(l) for l in outputs.read_text("utf-8").splitlines()]
        assert len(lines) == 78
        ids = {r.id for r in pilot_records}
        assert all(line["record_id"] in ids for line in lines)
        assert all(set(line) == {"record_id", "shot", "prompt_digest", "response_text"} for line in lines)

    def test_resume_skips_existing(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        before = outputs.read_bytes()
        summary = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert summary.completed == 0 and summary.skipped == 78
        assert outputs.read_bytes() == before

    def test_resume_completes_torn_last_line(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        full = outputs.read_bytes()
        first, second = full.split(b"\n")[:2]
        outputs.write_bytes(first + b"\n" + second[:20])
        summary = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert summary.skipped == 1 and summary.completed == 77
        assert summary.dropped_tail == second[:20].decode("utf-8")
        assert outputs.read_bytes() == full
        assert [r.n_utterances for r in evaluate_run(outputs, pilot_records)] == [26, 26, 26]

    def test_resume_rejects_corrupt_complete_line(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text("not json\n", "utf-8")
        with pytest.raises(CorruptOutputsError) as excinfo:
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert excinfo.value.line_number == 1

    @pytest.mark.parametrize(
        "second_line",
        [
            "not json",
            json.dumps({"record_id": "u02", "shot": "0s", "prompt_digest": "x"}),
            json.dumps({"record_id": ["u02"], "shot": "0s", "prompt_digest": "x", "response_text": "y"}),
            json.dumps(VALID_ROW),
        ],
        ids=["bad-json", "missing-field", "non-string", "repeated-pair"],
    )
    def test_resume_and_eval_reject_the_same_line(
        self, pilot_manifest, pilot_records, tmp_path, second_line
    ):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text(json.dumps(VALID_ROW) + "\n" + second_line + "\n", "utf-8")
        before = outputs.read_bytes()
        with pytest.raises(CorruptOutputsError) as from_eval:
            evaluate_run(outputs, pilot_records, model_id="m")
        with pytest.raises(CorruptOutputsError) as from_resume:
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert from_eval.value.line_number == from_resume.value.line_number == 2
        assert outputs.read_bytes() == before

    def test_bit_reproducible(self, pilot_manifest, pilot_records, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), a, concurrency=1)
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), b, concurrency=8)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "change", [{"model_id": "other-model"}, {"seed": 7}], ids=["model_id", "seed"]
    )
    def test_resume_with_another_config_is_refused(
        self, pilot_manifest, pilot_records, tmp_path, change
    ):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        before = outputs.read_bytes(), manifest_path_for(outputs).read_bytes()
        with pytest.raises(ManifestMismatchError, match=str(outputs)):
            run_experiment(
                replace(pilot_manifest, **change), pilot_records, shipped_mock_backend(), outputs
            )
        assert (outputs.read_bytes(), manifest_path_for(outputs).read_bytes()) == before

    def test_matching_resume_keeps_first_manifest(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        first = manifest_path_for(outputs).read_bytes()
        later = replace(pilot_manifest, timestamp="2099-01-01T00:00:00+00:00")
        summary = run_experiment(later, pilot_records, shipped_mock_backend(), outputs)
        assert summary.skipped == 78 and summary.completed == 0
        assert manifest_path_for(outputs).read_bytes() == first

    def test_manifest_written_before_first_completion(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        mock = shipped_mock_backend()
        seen = []

        class Watching:
            name = "watching"

            def send(self, request):
                seen.append(manifest_path_for(outputs).exists())
                return mock.send(request)

        zero_shot = replace(pilot_manifest, shot_labels=("0s",))
        summary = run_experiment(zero_shot, pilot_records, Watching(), outputs, concurrency=1)
        assert summary.completed == 26 and seen == [True] * 26

    def test_each_line_is_on_disk_when_the_run_dies(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        kill_at = 5
        result = subprocess.run(
            [sys.executable, "-c", DYING_RUN, str(outputs), str(kill_at)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 3, result.stderr
        lines = outputs.read_text("utf-8").splitlines()
        assert len(lines) == kill_at - 1
        assert all(set(json.loads(line)) >= {"record_id", "shot"} for line in lines)

    def test_manifest_written(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        manifest_file = manifest_path_for(outputs)
        assert manifest_file.exists()
        restored = RunManifest.from_dict(json.loads(manifest_file.read_text("utf-8")))
        assert restored.model_id == "mock-model"
        assert restored.dataset_sha256 == pilot_manifest.dataset_sha256

    def test_failures_do_not_abort(self, pilot_records, tmp_path):
        manifest = RunManifest.create(
            dataset_path=pilot_corpus_path(),
            template_id="it",
            shot_labels=("0s",),
            model_id="m",
            seed=0,
        )
        outputs = tmp_path / "run.jsonl"
        summary = run_experiment(manifest, pilot_records[:3], MockBackend({}), outputs, retries=0)
        assert summary.completed == 0
        assert len(summary.failures) == 3
        assert outputs.read_text("utf-8") == ""

    def test_empty_dataset(self, pilot_manifest, tmp_path):
        outputs = tmp_path / "run.jsonl"
        summary = run_experiment(pilot_manifest, [], shipped_mock_backend(), outputs)
        assert summary.completed == 0 and not summary.failures
        assert manifest_path_for(outputs).exists()

    def test_dataset_hash_checked(self, pilot_manifest, pilot_records, tmp_path):
        stale = RunManifest(
            dataset_path=str(tmp_path / "other.jsonl"),
            dataset_sha256="0" * 64,
            template_id="it",
            shot_labels=("0s",),
            few_shot_k=5,
            model_id="m",
            decoding=DecodingConfig(),
            seed=0,
            timestamp="now",
        )
        (tmp_path / "other.jsonl").write_text("", "utf-8")
        with pytest.raises(ManifestMismatchError):
            run_experiment(stale, pilot_records, shipped_mock_backend(), tmp_path / "o.jsonl")
