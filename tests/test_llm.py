import json
import os
import re
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from pref2constraint import llm, prompting
from pref2constraint.dataset import mock_fixtures_path, pilot_corpus_path
from pref2constraint.llm import (
    AuthError,
    CompletionRequest,
    CompletionTimeoutError,
    ConfigError,
    CorruptManifestError,
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
    read_manifest,
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

    @pytest.mark.parametrize(
        "content,named",
        [
            (b"{", "not UTF-8 JSON: "),
            ('{"d": "caffè"}'.encode("latin-1"), "not UTF-8 JSON: "),
            (b'["risposta"]', "expected a JSON object, got list"),
            (b'{"d": "ok", "e": 7}', "the response for prompt digest 'e' is not a string"),
            (b'{"d": null}', "the response for prompt digest 'd' is not a string"),
        ],
        ids=["bad-json", "latin-1", "array", "number-response", "null-response"],
    )
    def test_from_file_refuses_a_malformed_file(self, tmp_path, content, named):
        path = tmp_path / "fixtures.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as excinfo:
            MockBackend.from_file(path)
        assert str(excinfo.value).startswith(f"{path}: {named}")


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
        response = complete(backend, request(), sleep=naps.append)
        assert response.text == "ok"
        assert backend.calls == 3
        assert naps == [0.5, 1.0]

    def test_three_retries_after_fixed_waits(self):
        backend = FlakyBackend([ServerError("x")] * 6)
        naps = []
        with pytest.raises(ServerError):
            complete(backend, request(), sleep=naps.append)
        assert naps == [0.5, 1.0, 2.0]

    def test_budget_exhaustion_raises_last_error(self):
        backend = FlakyBackend([RateLimitedError("slow down")] * 10)
        with pytest.raises(RateLimitedError):
            complete(backend, request(), sleep=lambda _: None)
        assert backend.calls == 4

    def test_permanent_errors_not_retried(self):
        backend = FlakyBackend([AuthError("no")])
        with pytest.raises(AuthError):
            complete(backend, request(), sleep=lambda _: None)
        assert backend.calls == 1

    def test_mock_miss_not_retried(self):
        backend = MockBackend({})
        with pytest.raises(MockMissError):
            complete(backend, request(), sleep=lambda _: None)


def completion_body(content):
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")


class LoopbackServer(ThreadingHTTPServer):
    """A chat-completions stand-in: answers each POST with ``reply`` and keeps what it got.

    ``stall`` holds the answer until ``release`` is set: before the status line
    ("headers") or after its first body byte ("body").
    """

    daemon_threads = False  # server_close joins the handler threads

    def __init__(self):
        super().__init__(("127.0.0.1", 0), LoopbackHandler)
        self.reply = None  # (status, body), set before each request
        self.stall = None
        self.release = threading.Event()
        self.received = []


class LoopbackHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        sent = self.rfile.read(int(self.headers["Content-Length"]))
        server.received.append({"path": self.path, "headers": self.headers, "json": json.loads(sent)})
        status, body = server.reply
        if server.stall == "headers":
            server.release.wait(10)
            return
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if server.stall == "body":
            self.wfile.write(body[:1])
            server.release.wait(10)
            return
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


@pytest.fixture()
def loopback(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # a proxy set in the environment must not see these
    server = LoopbackServer()
    # A short poll keeps shutdown() from waiting out serve_forever's default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()
    thread.join(10)
    assert not thread.is_alive()


class TestOpenAICompatBackend:
    def send(self, server, status=200, body=b"", prompt="ciao"):
        server.reply = (status, body)
        backend = OpenAICompatBackend(f"http://127.0.0.1:{server.server_port}/v1/", "sk-test")
        return backend.send(request(prompt, model="modello-it"))

    def test_wire_format(self, loopback):
        response = self.send(loopback, body=completion_body("s_t = 1 ∀ t"), prompt="prompt")
        assert response.text == "s_t = 1 ∀ t"
        assert response.backend == "openai-compat"
        (sent,) = loopback.received
        assert sent["path"] == "/v1/chat/completions"
        assert sent["json"]["model"] == "modello-it"
        assert sent["json"]["messages"] == [{"role": "user", "content": "prompt"}]
        assert sent["json"]["temperature"] == 0.1
        assert sent["json"]["top_p"] == 0.9
        assert sent["json"]["top_k"] == 20
        assert sent["json"]["max_tokens"] == 30
        assert sent["headers"]["Authorization"] == "Bearer sk-test"
        assert sent["headers"]["Content-Type"] == "application/json"

    @pytest.mark.parametrize("status", [401, 403])
    def test_bad_credentials(self, loopback, status):
        with pytest.raises(AuthError, match=rf"^backend rejected credentials \(HTTP {status}\)$") as excinfo:
            self.send(loopback, status, b"denied")
        assert not excinfo.value.transient

    def test_rate_limited_is_transient(self, loopback):
        with pytest.raises(RateLimitedError, match=r"^backend rate limit hit \(HTTP 429\)$") as excinfo:
            self.send(loopback, 429, b"slow down")
        assert excinfo.value.transient

    def test_server_failure_is_transient(self, loopback):
        with pytest.raises(ServerError, match=r"^backend failure \(HTTP 503\)$") as excinfo:
            self.send(loopback, 503, b"busy")
        assert excinfo.value.transient

    @pytest.mark.parametrize("status", [404, 201])
    def test_any_other_status_is_malformed(self, loopback, status):
        with pytest.raises(MalformedBackendReply, match=f"^unexpected HTTP {status}: ") as excinfo:
            self.send(loopback, status, completion_body("s_t = 1 ∀ t"))
        assert "s_t = 1" in str(excinfo.value)
        assert not excinfo.value.transient

    def test_malformed_reply(self, loopback):
        with pytest.raises(MalformedBackendReply, match="^cannot read completion from reply"):
            self.send(loopback, body=json.dumps({"choices": []}).encode("utf-8"))

    def test_non_json_reply(self, loopback):
        with pytest.raises(MalformedBackendReply, match="^cannot read completion from reply"):
            self.send(loopback, body=b"<html>not json</html>")

    def test_non_string_content(self, loopback):
        with pytest.raises(MalformedBackendReply, match="^completion content is not a string$"):
            self.send(loopback, body=completion_body(["s_t = 1 ∀ t"]))

    @pytest.mark.parametrize("stall", ["headers", "body"])
    def test_timeout_is_transient(self, loopback, monkeypatch, stall):
        monkeypatch.setattr(llm, "REQUEST_TIMEOUT_S", 0.2)
        loopback.stall = stall
        with pytest.raises(CompletionTimeoutError, match=r"^request timed out after 0.2s$") as excinfo:
            self.send(loopback, body=completion_body("late"))
        assert excinfo.value.transient

    def test_reply_cut_short_is_transient(self, loopback):
        loopback.stall = "body"
        loopback.release.set()  # the server sends one body byte and hangs up
        with pytest.raises(ServerError, match="^request failed: IncompleteRead") as excinfo:
            self.send(loopback, body=completion_body("cut"))
        assert excinfo.value.transient

    def test_timeout_while_sending_is_transient(self, monkeypatch):
        def timed_out(*args, **kwargs):
            raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr(urllib.request, "urlopen", timed_out)
        backend = OpenAICompatBackend("http://127.0.0.1:9/v1", "sk-test")
        with pytest.raises(CompletionTimeoutError):
            backend.send(request())

    def test_connection_refused_is_transient(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = OpenAICompatBackend(f"http://127.0.0.1:{port}/v1", "sk-test")
        with pytest.raises(ServerError, match="^request failed: ") as excinfo:
            backend.send(request())
        assert excinfo.value.transient


def test_cli_import_loads_no_http_library():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, pref2constraint.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


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

    def test_mismatch_names_the_differing_fields(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        zero_shot = replace(pilot_manifest, shot_labels=("0s",))
        run_experiment(zero_shot, pilot_records, shipped_mock_backend(), outputs)
        other = replace(zero_shot, model_id="other-model", seed=7)
        with pytest.raises(ManifestMismatchError, match=r"differing fields: model_id, seed\)$"):
            run_experiment(other, pilot_records, shipped_mock_backend(), outputs)

    def test_resume_accepts_the_same_dataset_under_another_path(
        self, pilot_manifest, pilot_records, tmp_path, monkeypatch
    ):
        (tmp_path / "pilot.jsonl").write_bytes(pilot_corpus_path().read_bytes())
        monkeypatch.chdir(tmp_path)
        outputs = tmp_path / "run.jsonl"
        relative = RunManifest.create("pilot.jsonl", "it", ("0s",), "mock-model")
        run_experiment(relative, pilot_records, shipped_mock_backend(), outputs)
        first = manifest_path_for(outputs).read_bytes()
        absolute = replace(relative, dataset_path=str(tmp_path / "pilot.jsonl"))
        summary = run_experiment(absolute, pilot_records, shipped_mock_backend(), outputs)
        assert summary.skipped == 26 and summary.completed == 0
        assert manifest_path_for(outputs).read_bytes() == first

    def test_manifest_file_bytes(self, pilot_records, tmp_path, monkeypatch):
        (tmp_path / "pilot.jsonl").write_bytes(pilot_corpus_path().read_bytes())
        monkeypatch.chdir(tmp_path)
        manifest = replace(
            RunManifest.create("pilot.jsonl", "it", ("0s", "fs"), "mock-model", seed=3),
            timestamp="2025-01-02T03:04:05+00:00",
        )
        run_experiment(manifest, pilot_records, shipped_mock_backend(), tmp_path / "run.jsonl")
        assert (tmp_path / "run.manifest.json").read_text("utf-8") == (
            "{\n"
            '  "dataset_path": "pilot.jsonl",\n'
            f'  "dataset_sha256": "{manifest.dataset_sha256}",\n'
            '  "template_id": "it",\n'
            '  "shot_labels": [\n'
            '    "0s",\n'
            '    "fs"\n'
            "  ],\n"
            '  "few_shot_k": 5,\n'
            '  "model_id": "mock-model",\n'
            '  "decoding": {\n'
            '    "temperature": 0.1,\n'
            '    "top_k": 20,\n'
            '    "top_p": 0.9,\n'
            '    "max_new_tokens": 30\n'
            "  },\n"
            '  "seed": 3,\n'
            '  "timestamp": "2025-01-02T03:04:05+00:00"\n'
            "}\n"
        )

    @pytest.mark.parametrize(
        "manifest_text,named",
        [
            ('{"model_id": "m"}', "missing field 'dataset_path'"),
            ("[1]", "expected a JSON object, got list"),
            ("{", "not UTF-8 JSON: "),
        ],
        ids=["missing-field", "not-an-object", "bad-json"],
    )
    def test_unreadable_manifest_is_a_domain_error(
        self, pilot_manifest, pilot_records, tmp_path, manifest_text, named
    ):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text(json.dumps(VALID_ROW) + "\n", "utf-8")
        manifest_path_for(outputs).write_text(manifest_text, "utf-8")
        message = f"{manifest_path_for(outputs)}: {named}"
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            evaluate_run(outputs, pilot_records)
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)

    def test_repeated_shot_label_in_manifest_is_corrupt(self, pilot_manifest, tmp_path):
        outputs = tmp_path / "run.jsonl"
        data = {**pilot_manifest.to_dict(), "shot_labels": ["0s", "1s", "0s"]}
        manifest_path_for(outputs).write_text(json.dumps(data), "utf-8")
        with pytest.raises(CorruptManifestError, match="shot labels must not repeat"):
            read_manifest(outputs)

    @pytest.mark.parametrize("value", [5.9, 5.0, "0", True, None], ids=repr)
    @pytest.mark.parametrize(
        "path",
        [("few_shot_k",), ("seed",), ("decoding", "top_k"), ("decoding", "max_new_tokens")],
        ids=".".join,
    )
    def test_manifest_integer_fields_must_be_json_integers(
        self, pilot_manifest, pilot_records, tmp_path, path, value
    ):
        outputs = tmp_path / "run.jsonl"
        data = pilot_manifest.to_dict()
        owner = data if len(path) == 1 else data[path[0]]
        owner[path[-1]] = value
        manifest_path_for(outputs).write_text(json.dumps(data), "utf-8")
        message = (
            f"{manifest_path_for(outputs)}: {path[-1]!r} must be an integer, got {json.dumps(value)}"
        )
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            read_manifest(outputs)
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert not outputs.exists()

    @pytest.mark.parametrize("value", [5, None, ["m"]], ids=repr)
    @pytest.mark.parametrize(
        "name", ["dataset_path", "dataset_sha256", "template_id", "model_id", "timestamp"]
    )
    def test_manifest_string_fields_must_be_json_strings(
        self, pilot_manifest, pilot_records, tmp_path, name, value
    ):
        outputs = tmp_path / "run.jsonl"
        data = {**pilot_manifest.to_dict(), name: value}
        manifest_path_for(outputs).write_text(json.dumps(data), "utf-8")
        message = f"{manifest_path_for(outputs)}: {name!r} must be a string, got {json.dumps(value)}"
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            read_manifest(outputs)
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert not outputs.exists()

    @pytest.mark.parametrize("value", ["fs", ["0s", 1], None, {"0s": "fs"}], ids=repr)
    def test_manifest_shot_labels_must_be_an_array_of_strings(
        self, pilot_manifest, pilot_records, tmp_path, value
    ):
        outputs = tmp_path / "run.jsonl"
        data = {**pilot_manifest.to_dict(), "shot_labels": value}
        manifest_path_for(outputs).write_text(json.dumps(data), "utf-8")
        message = (
            f"{manifest_path_for(outputs)}: 'shot_labels' must be an array of strings, "
            f"got {json.dumps(value)}"
        )
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            read_manifest(outputs)
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert not outputs.exists()

    @pytest.mark.parametrize("value", [True, "0.5", None], ids=repr)
    @pytest.mark.parametrize("name", ["temperature", "top_p"])
    def test_manifest_decoding_numbers_must_be_json_numbers(
        self, pilot_manifest, pilot_records, tmp_path, name, value
    ):
        outputs = tmp_path / "run.jsonl"
        data = pilot_manifest.to_dict()
        data["decoding"][name] = value
        manifest_path_for(outputs).write_text(json.dumps(data), "utf-8")
        message = f"{manifest_path_for(outputs)}: {name!r} must be a number, got {json.dumps(value)}"
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            read_manifest(outputs)
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert not outputs.exists()

    def test_each_shot_takes_a_prefix_of_one_ranking(self, pilot_manifest, pilot_records, tmp_path):
        def lines_by_pair(path):
            lines = path.read_text("utf-8").splitlines(keepends=True)
            rows = [(json.loads(line), line) for line in lines]
            return {(row["record_id"], row["shot"]): line for row, line in rows}

        clean = tmp_path / "clean.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), clean)
        expected = lines_by_pair(clean)

        one_shot = tmp_path / "one_shot.jsonl"
        one_shot_manifest = replace(pilot_manifest, shot_labels=("1s",))
        run_experiment(one_shot_manifest, pilot_records, shipped_mock_backend(), one_shot)

        resumed = tmp_path / "resumed.jsonl"
        resumed.write_text(
            "".join(line for (_, shot), line in expected.items() if shot != "fs"), "utf-8"
        )
        summary = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), resumed)
        assert summary.skipped == 52 and summary.completed == 26 and not summary.failures

        for path, count in ((one_shot, 26), (resumed, 78)):
            got = lines_by_pair(path)
            assert len(got) == count
            assert all(line == expected[pair] for pair, line in got.items())

    def test_repeated_record_id_is_refused_before_writing(
        self, pilot_manifest, pilot_records, tmp_path
    ):
        records = pilot_records + pilot_records[:1]
        outputs = tmp_path / "run.jsonl"
        with pytest.raises(prompting.PromptingError, match="duplicate record id 'u01'"):
            run_experiment(pilot_manifest, records, shipped_mock_backend(), outputs)
        assert not outputs.exists()
        assert not manifest_path_for(outputs).exists()
        torn = '{"record_id": "u01", "shot": "0s", "prompt_'  # resume would cut this off
        outputs.write_text(torn, "utf-8")
        with pytest.raises(prompting.PromptingError, match="duplicate record id 'u01'"):
            run_experiment(pilot_manifest, records, shipped_mock_backend(), outputs)
        assert outputs.read_text("utf-8") == torn
        assert not manifest_path_for(outputs).exists()

    def test_zero_shot_run_ranks_no_examples(
        self, pilot_manifest, pilot_records, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(prompting, "hashlib", None)  # drawing would need hashlib.sha256
        backend = shipped_mock_backend()
        zero_shot = replace(pilot_manifest, shot_labels=("0s",))
        summary = run_experiment(zero_shot, pilot_records, backend, tmp_path / "a.jsonl")
        assert summary.completed == 26 and not summary.failures
        one_shot = replace(pilot_manifest, shot_labels=("1s",))
        with pytest.raises(AttributeError):
            run_experiment(one_shot, pilot_records, backend, tmp_path / "b.jsonl")

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
        summary = run_experiment(manifest, pilot_records[:3], MockBackend({}), outputs)
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
