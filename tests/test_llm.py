import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from pref2constraint import dataset, llm, prompting
from pref2constraint.dataset import (
    dump_dataset,
    load_dataset,
    mock_fixtures_path,
    pilot_corpus_path,
)
from pref2constraint.llm import (
    AuthError,
    CompletionRequest,
    CompletionTimeoutError,
    MalformedBackendReply,
    MockBackend,
    MockMissError,
    ModelResponse,
    OpenAICompatBackend,
    RateLimitedError,
    RunFailure,
    ServerError,
    complete,
    prompt_digest,
    run_experiment,
)
from pref2constraint.metrics import evaluate_run
from pref2constraint.prompting import MAX_FEW_SHOT, ExamplePool, PromptSpec, ShotSetting, build_prompt
from pref2constraint.runfile import (
    ConfigError,
    CorruptManifestError,
    CorruptOutputsError,
    DecodingConfig,
    ManifestMismatchError,
    OutputsLine,
    RunManifest,
    manifest_path_for,
    parse_outputs,
    read_manifest,
)

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
            (b'["risposta"]', "expected a JSON object, got array"),
            (b'{"d": "ok", "e": 7}', "'e' must be a string, got 7"),
            (b'{"d": null}', "'d' must be a string, got null"),
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
    ("headers") or after its first body byte ("body").  With ``fixtures`` set
    (prompt digest -> completion) it answers each prompt from them instead,
    and holds the first two requests until both have arrived, for at most 10 s.
    """

    daemon_threads = False  # server_close joins the handler threads

    def __init__(self):
        super().__init__(("127.0.0.1", 0), LoopbackHandler)
        self.reply = None  # (status, body), set before each request
        self.stall = None
        self.release = threading.Event()
        self.received = []
        self.fixtures = None
        self.meet = threading.Barrier(2, timeout=10)
        self.lock = threading.Lock()


class LoopbackHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        sent = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.received.append({"path": self.path, "headers": self.headers, "json": sent})
            arrived = len(server.received)
        if server.fixtures is None:
            status, body = server.reply
        else:
            try:
                if arrived <= 2:
                    server.meet.wait()
                prompt = sent["messages"][0]["content"]
                status, body = 200, completion_body(server.fixtures[prompt_digest(prompt)])
            except threading.BrokenBarrierError:  # a status the client does not retry
                status, body = 400, b"the first two requests were never in flight together"
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
    http = "{'requests', 'urllib3', 'urllib.request', 'http.client', 'ssl'}"
    probe = f"import sys, pref2constraint.cli; print(sorted({http} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "module,unused",
    [
        ("pref2constraint", "pref2constraint."),
        ("pref2constraint.metrics", "pref2constraint.llm"),
        # Only RunManifest.create stamps a time, so only a new manifest loads datetime.
        ("pref2constraint.cli", "datetime"),
    ],
    ids=["package", "metrics", "cli-datetime"],
)
def test_an_import_loads_no_module_it_does_not_use(module, unused):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith({unused!r})))"
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
from pref2constraint.llm import MockBackend, run_experiment
from pref2constraint.runfile import RunManifest

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


def line_count(path):
    return path.read_bytes().count(b"\n") if path.exists() else 0


class WaitingMock(MockBackend):
    """The shipped mock, declared to wait on I/O, so run_experiment starts its helper threads."""

    waits = True


def waiting_mock_backend():
    return WaitingMock.from_file(mock_fixtures_path())


class GatedBackend:
    """The shipped mock, but the first request waits until ``release`` is set."""

    name = "gated"
    waits = True

    def __init__(self):
        self.release = threading.Event()
        self._mock = shipped_mock_backend()
        self._lock = threading.Lock()
        self._sent = 0

    def send(self, request):
        with self._lock:
            self._sent += 1
            first = self._sent == 1
        if first and not self.release.wait(60):
            raise AssertionError("the first request was never released")
        return self._mock.send(request)


def dumped(line):
    """The oracle for ``OutputsLine.encode``: json.dumps of the line's dict, non-ASCII kept."""
    return (json.dumps(line._asdict(), ensure_ascii=False) + "\n").encode()


# Quotes, backslashes, every character JSON escapes, DEL, the two separators
# JavaScript reads as line ends, non-BMP characters and Italian accents.
ESCAPED = '"\\/' + "".join(map(chr, range(0x20))) + "\x7f\u2028\u2029😀𝄞\U0010ffffàèéìíòóùÈ€°∀≤≥"
line_text = st.text(st.one_of(st.sampled_from(ESCAPED), st.characters(blacklist_categories=("Cs",))))


class TestOutputsLineEncode:
    def test_the_line_shape(self):
        line = OutputsLine("u01", "1s", "ab", 'è "x"\n')
        assert line.encode() == (
            b'{"record_id": "u01", "shot": "1s", "prompt_digest": "ab", '
            b'"response_text": "\xc3\xa8 \\"x\\"\\n"}\n'
        )

    @given(st.builds(OutputsLine, line_text, line_text, line_text, line_text))
    @example(OutputsLine("u01", "fs", "0" * 64, 'h_t = 21 ∀ t "\\ \x00\x1f\x7f\u2028\u2029😀 perché'))
    @example(OutputsLine("", "", "", ""))
    def test_equals_json_dumps(self, line):
        assert line.encode() == dumped(line)

    @pytest.mark.parametrize("field", range(4))
    def test_a_lone_surrogate_raises_as_json_dumps_does(self, field):
        values = ["u01", "0s", "0" * 64, "s_t = 1 ∀ t"]
        values[field] = "a\ud800b"
        line = OutputsLine(*values)
        with pytest.raises(UnicodeEncodeError):
            line.encode()
        with pytest.raises(UnicodeEncodeError):
            dumped(line)


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

    def test_a_written_line_reads_back_whole(self, pilot_records, tmp_path):
        manifest = RunManifest.create(pilot_corpus_path(), "it", ("1s",), "mock-model")
        outputs = tmp_path / "run.jsonl"
        run_experiment(manifest, pilot_records, shipped_mock_backend(), outputs)
        pool = ExamplePool(pilot_records, 0)
        example_ids = tuple(pool.select("u01", 1))
        spec = PromptSpec("it", ShotSetting.from_label("1s"), example_ids, pool.records["u01"])
        digest = prompt_digest(build_prompt(spec, [pool.records[i] for i in example_ids]))
        text = json.loads(mock_fixtures_path().read_text("utf-8"))[digest]
        rows = parse_outputs(outputs.read_bytes().splitlines(keepends=True))
        assert rows["u01", "1s"] == (1, OutputsLine("u01", "1s", digest, text))
        assert all(type(line) is OutputsLine for _, line in rows.values())

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

    @pytest.mark.parametrize("kept", [1, 78], ids=["first-line", "whole-run"])
    def test_resume_keeps_an_unterminated_last_line_that_is_json(
        self, pilot_manifest, pilot_records, tmp_path, kept
    ):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        full = outputs.read_bytes()
        outputs.write_bytes(b"\n".join(full.split(b"\n")[:kept]))
        summary = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert (summary.skipped, summary.completed, summary.dropped_tail) == (kept, 78 - kept, "")
        assert outputs.read_bytes() == full

    def test_resume_refuses_a_line_from_another_prompt_before_writing(
        self, pilot_manifest, pilot_records, tmp_path
    ):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        lines = outputs.read_bytes().splitlines(keepends=True)
        rows = [json.loads(line) for line in lines]
        for row in rows:  # two stale lines, the later one in canonical order first in the file
            if (row["record_id"], row["shot"]) in {("u02", "fs"), ("u03", "0s")}:
                row["prompt_digest"] = "0" * 64
        assert (rows[6]["record_id"], rows[6]["shot"]) == ("u03", "0s")
        stale = [rows[6], *rows[:6], *rows[7:]]
        outputs.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in stale), "utf-8")
        outputs.write_bytes(outputs.read_bytes() + b'{"record_id": "u1')  # torn last line
        before = outputs.read_bytes(), manifest_path_for(outputs).read_bytes()
        with pytest.raises(ManifestMismatchError, match=re.escape("u02 [fs]")):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert (outputs.read_bytes(), manifest_path_for(outputs).read_bytes()) == before

    @pytest.mark.parametrize(
        "shots,stray,named",
        [
            (("0s",), None, "u01 [1s]"),  # the seed-0 file, resumed as a 0s-only run
            (("0s", "1s", "fs"), "u99", "u99 [0s]"),  # a record the corpus lacks
        ],
        ids=["shot-not-sent", "record-not-in-corpus"],
    )
    def test_resume_refuses_a_pair_it_does_not_send_before_writing(
        self, pilot_manifest, pilot_records, tmp_path, shots, stray, named
    ):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        manifest_path_for(outputs).unlink()
        lines = outputs.read_bytes().splitlines(keepends=True)
        if stray:
            row = dict(json.loads(lines[0]), record_id=stray)
            lines.insert(5, (json.dumps(row, ensure_ascii=False) + "\n").encode("utf-8"))
        outputs.write_bytes(b"".join(lines) + b'{"record_id": "u1')  # torn last line
        before = outputs.read_bytes()
        manifest = replace(pilot_manifest, shot_labels=shots)
        with pytest.raises(ManifestMismatchError) as excinfo:
            run_experiment(manifest, pilot_records, shipped_mock_backend(), outputs)
        assert str(excinfo.value) == (
            f"{outputs} holds a line for {named}, a pair this run does not send"
        )
        assert outputs.read_bytes() == before
        assert not manifest_path_for(outputs).exists()

    def test_resume_refuses_a_line_whose_shot_is_no_label_before_writing(
        self, pilot_manifest, pilot_records, tmp_path
    ):
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        manifest_path_for(outputs).unlink()
        lines = outputs.read_bytes().splitlines(keepends=True)
        row = dict(json.loads(lines[0]), shot="x")
        lines.insert(5, (json.dumps(row, ensure_ascii=False) + "\n").encode("utf-8"))
        outputs.write_bytes(b"".join(lines))
        before = outputs.read_bytes()
        with pytest.raises(CorruptOutputsError) as excinfo:
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert str(excinfo.value) == "line 6: unknown shot label 'x' (expected 0s, 1s or fs)"
        assert outputs.read_bytes() == before
        assert not manifest_path_for(outputs).exists()

    def test_only_a_resume_builds_prompts_to_check(
        self, pilot_manifest, pilot_records, tmp_path, monkeypatch
    ):
        built = Counter()

        def counting_build_prompt(spec, dataset):
            built[spec.target.id, spec.shot.label] += 1
            return build_prompt(spec, dataset)

        monkeypatch.setattr(llm, "build_prompt", counting_build_prompt)
        outputs = tmp_path / "run.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert len(built) == 78 and set(built.values()) == {1}  # each sent prompt, once
        built.clear()
        summary = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert summary.skipped == 78 and summary.completed == 0
        assert len(built) == 78 and set(built.values()) == {1}  # each checked prompt, once

    def test_resume_rejects_corrupt_complete_line(self, pilot_manifest, pilot_records, tmp_path):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text("not json\n", "utf-8")
        with pytest.raises(CorruptOutputsError) as excinfo:
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert excinfo.value.line_number == 1

    @pytest.mark.parametrize(
        "row,named",
        [
            ({"record_id": "u02", "shot": "0s", "prompt_digest": None, "response_text": "y"},
             "'prompt_digest' must be a string, got null"),
            ({"record_id": "u02", "shot": "0s", "response_text": "y"},
             "missing field 'prompt_digest'"),
            # Each field is looked up and type-checked before the next is looked up.
            ({"record_id": 5}, "'record_id' must be a string, got 5"),
        ],
        ids=["null", "missing", "mistyped-before-missing"],
    )
    def test_resume_and_eval_refuse_a_line_without_a_prompt_digest(
        self, pilot_manifest, pilot_records, tmp_path, row, named
    ):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text(json.dumps(VALID_ROW) + "\n" + json.dumps(row) + "\n", "utf-8")
        before = outputs.read_bytes()
        with pytest.raises(CorruptOutputsError, match=re.escape(f"line 2: {named}")):
            evaluate_run(outputs, pilot_records, model_id="m")
        with pytest.raises(CorruptOutputsError, match=re.escape(f"line 2: {named}")):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert outputs.read_bytes() == before

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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as the interpreter allows
        try:
            summary = run_experiment(
                pilot_manifest, pilot_records, waiting_mock_backend(), b, concurrency=8
            )
        finally:
            sys.setswitchinterval(interval)
        assert summary.completed == 78 and not summary.failures
        assert a.read_bytes() == b.read_bytes()

    def test_remote_requests_overlap_and_end_with_the_bytes_of_a_mock_run(
        self, pilot_manifest, pilot_records, tmp_path, loopback
    ):
        clean = tmp_path / "clean.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), clean, concurrency=1)
        loopback.fixtures = json.loads(mock_fixtures_path().read_text("utf-8"))
        backend = OpenAICompatBackend(f"http://127.0.0.1:{loopback.server_port}/v1", "sk-test")
        outputs = tmp_path / "run.jsonl"
        summary = run_experiment(pilot_manifest, pilot_records, backend, outputs, concurrency=4)
        assert summary.completed == 78 and not summary.failures  # the first two requests met
        assert len(loopback.received) == 78
        assert outputs.read_bytes() == clean.read_bytes()

    def test_a_slow_request_holds_no_other_line_back(self, pilot_manifest, pilot_records, tmp_path):
        clean = tmp_path / "clean.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), clean, concurrency=1)
        outputs, backend, summaries = tmp_path / "run.jsonl", GatedBackend(), []
        runner = threading.Thread(
            target=lambda: summaries.append(
                run_experiment(pilot_manifest, pilot_records, backend, outputs, concurrency=4)
            )
        )
        runner.start()
        try:
            deadline = time.monotonic() + 10
            while line_count(outputs) < 77 and time.monotonic() < deadline:
                time.sleep(0.01)
            on_disk = line_count(outputs)
        finally:
            backend.release.set()
            runner.join(60)
        assert not runner.is_alive()
        assert on_disk == 77
        assert summaries[0].completed == 78
        assert outputs.read_bytes() == clean.read_bytes()

    def test_a_resumed_run_ends_with_the_bytes_of_a_clean_run(
        self, pilot_manifest, pilot_records, tmp_path, monkeypatch
    ):
        clean = tmp_path / "clean.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), clean)
        rows = [json.loads(line) for line in clean.read_text("utf-8").splitlines()]
        mock = shipped_mock_backend()

        class FailingSome:
            """Fails the requests whose prompt digest starts with 0-4."""

            name = "failing-some"

            def send(self, request):
                if prompt_digest(request.prompt) < "5":
                    raise ServerError("backend failure (HTTP 503)")
                return mock.send(request)

        monkeypatch.setattr(llm, "RETRY_WAITS_S", ())  # a ServerError fails its pair at once
        outputs = tmp_path / "run.jsonl"
        first = run_experiment(pilot_manifest, pilot_records, FailingSome(), outputs)
        failed = [(row["record_id"], row["shot"]) for row in rows if row["prompt_digest"] < "5"]
        assert failed and [(f.record_id, f.shot) for f in first.failures] == failed
        assert first.completed == 78 - len(failed)
        resumed = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert resumed.skipped == first.completed and resumed.completed == len(failed)
        assert outputs.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_a_completion_holding_a_lone_surrogate_fails_its_pair_alone(
        self, pilot_manifest, pilot_records, tmp_path, concurrency
    ):
        clean = tmp_path / "clean.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), clean)
        lines = clean.read_bytes().splitlines(keepends=True)
        broken = json.loads(lines[4])
        mock = shipped_mock_backend()

        class Surrogate:
            """The shipped mock, but one pair's completion holds a lone surrogate."""

            name = "surrogate"
            waits = True

            def send(self, request):
                if prompt_digest(request.prompt) == broken["prompt_digest"]:
                    return ModelResponse("s_t = 1 \ud800", 0.0, self.name)
                return mock.send(request)

        outputs = tmp_path / "run.jsonl"
        summary = run_experiment(
            pilot_manifest, pilot_records, Surrogate(), outputs, concurrency=concurrency
        )
        error = "completion holds the lone surrogate '\\ud800', which UTF-8 cannot encode"
        assert summary.failures == [RunFailure(broken["record_id"], broken["shot"], error)]
        assert summary.completed == 77
        assert outputs.read_bytes() == b"".join(lines[:4] + lines[5:])
        resumed = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert (resumed.skipped, resumed.completed) == (77, 1)
        assert outputs.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("waits", [True, False], ids=["waiting", "in-process"])
    @pytest.mark.parametrize(
        "crash", [RuntimeError("backend bug"), KeyboardInterrupt()], ids=["error", "interrupt"]
    )
    def test_a_crash_stops_the_run(self, pilot_manifest, pilot_records, tmp_path, crash, waits):
        mock = shipped_mock_backend()

        class CrashingThird:
            """Raises ``crash`` from the third request; counts the requests sent after it."""

            name = "crashing"

            def __init__(self):
                self.waits = waits
                self.lock = threading.Lock()
                self.sent = self.sent_after = self.returned = 0
                self.senders = set()

            def send(self, request):
                with self.lock:
                    self.senders.add(threading.get_ident())
                    self.sent += 1
                    if self.sent == 3:
                        raise crash
                    self.sent_after += self.sent > 3
                time.sleep(0.02)  # the crashing worker runs meanwhile, so it stops the run at once
                response = mock.send(request)
                with self.lock:
                    self.returned += 1
                return response

        threads = set(threading.enumerate())
        backend, outputs = CrashingThird(), tmp_path / "run.jsonl"
        with pytest.raises(type(crash)):
            run_experiment(pilot_manifest, pilot_records, backend, outputs, concurrency=4)
        assert backend.sent_after <= (3 if waits else 0)
        assert waits or backend.senders == {threading.get_ident()}
        assert set(threading.enumerate()) == threads
        assert line_count(outputs) == backend.returned  # every finished line is on disk

    @pytest.mark.parametrize("concurrency", [1, 8])
    def test_concurrency_one_starts_no_thread_and_never_rewrites(
        self, pilot_manifest, pilot_records, tmp_path, monkeypatch, concurrency
    ):
        """At concurrency 8 too, for a backend that does not declare it ``waits``."""
        clean = tmp_path / "clean.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), clean, concurrency=1)
        mock, seen = shipped_mock_backend(), set()

        class Watching:
            name = "watching"

            def send(self, request):
                seen.add((threading.get_ident(), threading.active_count()))
                return mock.send(request)

        def refuse(*args):
            raise AssertionError("os.replace called")

        monkeypatch.setattr(os, "replace", refuse)
        expected = {(threading.get_ident(), threading.active_count())}
        outputs = tmp_path / "run.jsonl"
        summary = run_experiment(
            pilot_manifest, pilot_records, Watching(), outputs, concurrency=concurrency
        )
        assert summary.completed == 78 and seen == expected
        assert outputs.read_bytes() == clean.read_bytes()

    def test_an_unfinished_rewrite_leaves_every_line_in_place(
        self, pilot_manifest, pilot_records, tmp_path, monkeypatch
    ):
        clean = tmp_path / "clean.jsonl"
        run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), clean)
        lines = clean.read_bytes().splitlines(keepends=True)
        outputs = tmp_path / "run.jsonl"
        outputs.write_bytes(b"".join(reversed(lines[1:])))  # an earlier run, out of order

        def killed(*args):
            raise OSError("killed before the replace")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed before the replace"):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert outputs.read_bytes() == b"".join(reversed(lines[1:])) + lines[0]
        monkeypatch.undo()
        summary = run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert summary.skipped == 78 and summary.completed == 0
        assert outputs.read_bytes() == clean.read_bytes()

    def test_each_piece_of_a_prompt_is_rendered_once_per_run(
        self, pilot_manifest, tmp_path, monkeypatch
    ):
        tagged, rendered = Counter(), Counter()
        tag_utterance, render_constraint = dataset.tag_utterance, dataset.render_constraint

        def counted_tag(record):
            tagged[record.id] += 1
            time.sleep(0.001)  # the other workers run meanwhile
            return tag_utterance(record)

        def counted_render(constraint):
            rendered[constraint] += 1
            time.sleep(0.001)
            return render_constraint(constraint)

        monkeypatch.setattr(dataset, "tag_utterance", counted_tag)
        monkeypatch.setattr(dataset, "render_constraint", counted_render)
        for name in ("a.jsonl", "b.jsonl"):  # a fresh load renders every piece again
            records = load_dataset(pilot_corpus_path())
            tagged.clear()
            rendered.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # threads switch as often as the interpreter allows
            try:
                summary = run_experiment(
                    pilot_manifest, records, waiting_mock_backend(), tmp_path / name, concurrency=8
                )
            finally:
                sys.setswitchinterval(interval)
            assert summary.completed == 78 and not summary.failures
            assert tagged == Counter(record.id for record in records)
            pool = ExamplePool(records, pilot_manifest.seed)
            examples = {i for record in records for i in pool.select(record.id, MAX_FEW_SHOT)}
            by_id = {record.id: record for record in records}
            assert rendered == Counter(c for i in examples for c in by_id[i].constraints)
        tagged.clear()
        copy = replace(records[0], text=records[0].text.upper())  # keeps none of its source's pieces
        assert copy.tagged == copy.tagged == tag_utterance(copy) != records[0].tagged
        assert tagged == Counter({copy.id: 1})

    def test_one_thread_at_a_time_renders(self, pilot_manifest, pilot_records, tmp_path, monkeypatch):
        build_prompt, lock = llm.build_prompt, threading.Lock()
        running = most = 0

        def watched(*args, **kwargs):
            nonlocal running, most
            with lock:
                running += 1
                most = max(most, running)
            try:
                time.sleep(0.001)  # the other workers run meanwhile
                return build_prompt(*args, **kwargs)
            finally:
                with lock:
                    running -= 1

        monkeypatch.setattr(llm, "build_prompt", watched)
        outputs = tmp_path / "run.jsonl"
        summary = run_experiment(
            pilot_manifest, pilot_records, waiting_mock_backend(), outputs, concurrency=4
        )
        assert summary.completed == 78 and not summary.failures
        assert most == 1

    def test_each_prompt_is_built_just_before_it_is_sent(
        self, pilot_manifest, pilot_records, tmp_path, monkeypatch
    ):
        mock, built, seen = shipped_mock_backend(), [], []
        build_prompt = llm.build_prompt

        def counted(*args, **kwargs):
            built.append(None)
            return build_prompt(*args, **kwargs)

        class Watching:
            name = "watching"

            def send(self, request):
                seen.append(len(built))
                return mock.send(request)

        monkeypatch.setattr(llm, "build_prompt", counted)
        outputs = tmp_path / "run.jsonl"
        summary = run_experiment(pilot_manifest, pilot_records, Watching(), outputs, concurrency=1)
        assert summary.completed == 78 and not summary.failures
        assert seen == list(range(1, 79))  # send k sees exactly k prompts built

    def test_too_few_records_fail_before_anything_is_written(self, pilot_records, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        dump_dataset(pilot_records[:4], corpus)
        manifest = RunManifest.create(corpus, "it", ("fs",), "mock-model", few_shot_k=5)
        outputs = tmp_path / "runs" / "run.jsonl"
        with pytest.raises(prompting.InsufficientDataError, match="need 5 examples"):
            run_experiment(manifest, pilot_records[:4], shipped_mock_backend(), outputs)
        assert not outputs.exists() and not manifest_path_for(outputs).exists()
        assert not outputs.parent.exists()

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

    def test_few_shot_k_is_compared_only_when_a_shot_uses_it(
        self, pilot_manifest, pilot_records, tmp_path
    ):
        outputs = tmp_path / "zero.jsonl"
        zero_shot = replace(pilot_manifest, shot_labels=("0s",), few_shot_k=9)
        run_experiment(zero_shot, pilot_records, shipped_mock_backend(), outputs)
        first = manifest_path_for(outputs).read_bytes()
        summary = run_experiment(
            replace(zero_shot, few_shot_k=5), pilot_records, shipped_mock_backend(), outputs
        )
        assert summary.skipped == 26 and summary.completed == 0
        assert manifest_path_for(outputs).read_bytes() == first
        outputs = tmp_path / "few.jsonl"
        few_shot = replace(pilot_manifest, shot_labels=("0s", "fs"), few_shot_k=5)
        run_experiment(few_shot, pilot_records, shipped_mock_backend(), outputs)
        with pytest.raises(ManifestMismatchError, match=r"differing fields: few_shot_k\)$"):
            run_experiment(
                replace(few_shot, few_shot_k=3), pilot_records, shipped_mock_backend(), outputs
            )

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

    def test_manifest_records_a_relative_corpus_from_its_own_folder(
        self, pilot_records, tmp_path, monkeypatch
    ):
        (tmp_path / "pilot.jsonl").write_bytes(pilot_corpus_path().read_bytes())
        monkeypatch.chdir(tmp_path)
        manifest = RunManifest.create("pilot.jsonl", "it", ("0s",), "mock-model")
        outputs = Path("sub") / "run.jsonl"
        run_experiment(manifest, pilot_records, shipped_mock_backend(), outputs)
        written = json.loads(manifest_path_for(outputs).read_text("utf-8"))
        expected = {**manifest.to_dict(), "dataset_path": os.path.join("..", "pilot.jsonl")}
        assert written == json.loads(json.dumps(expected))
        assert manifest.dataset_path == "pilot.jsonl"

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
            ("[1]", "expected a JSON object, got array"),
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

    @pytest.mark.parametrize(
        "labels,k,named",
        [
            ([], 5, "shot labels must not be empty"),
            (["x"], 5, "unknown shot label 'x' (expected 0s, 1s or fs)"),
            (["0s", "2s"], 5, "unknown shot label '2s' (expected 0s, 1s or fs)"),
            (["0s", "fs"], 7, "few-shot k must be in 2..5, got 7"),
        ],
        ids=["empty", "unknown", "one-unknown", "fs-k-out-of-range"],
    )
    def test_manifest_shot_labels_must_name_shot_settings(
        self, pilot_manifest, pilot_records, tmp_path, labels, k, named
    ):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text(json.dumps(VALID_ROW) + "\n", "utf-8")
        data = {**pilot_manifest.to_dict(), "shot_labels": labels, "few_shot_k": k}
        manifest_path_for(outputs).write_text(json.dumps(data), "utf-8")
        message = f"{manifest_path_for(outputs)}: {named}"
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            read_manifest(outputs)
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            evaluate_run(outputs, pilot_records)
        with pytest.raises((ConfigError, prompting.PromptingError), match=re.escape(named)):
            replace(pilot_manifest, shot_labels=tuple(labels), few_shot_k=k)

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

    @pytest.mark.parametrize(
        "value,named",
        [
            ("fs", "'shot_labels' must be an array, got \"fs\""),
            (["0s", 1], "'shot_labels' entries must be strings, got 1"),
            (None, "'shot_labels' must be an array, got null"),
            ({"0s": "fs"}, "'shot_labels' must be an array, got {\"0s\": \"fs\"}"),
        ],
        ids=["'fs'", "['0s', 1]", "None", "{'0s': 'fs'}"],
    )
    def test_manifest_shot_labels_must_be_an_array_of_strings(
        self, pilot_manifest, pilot_records, tmp_path, value, named
    ):
        outputs = tmp_path / "run.jsonl"
        data = {**pilot_manifest.to_dict(), "shot_labels": value}
        manifest_path_for(outputs).write_text(json.dumps(data), "utf-8")
        message = f"{manifest_path_for(outputs)}: {named}"
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            read_manifest(outputs)
        with pytest.raises(CorruptManifestError, match=re.escape(message)):
            run_experiment(pilot_manifest, pilot_records, shipped_mock_backend(), outputs)
        assert not outputs.exists()

    @pytest.mark.parametrize("value", [True, "0.5", None], ids=repr)
    @pytest.mark.parametrize("name", ["temperature", "top_p"])
    def test_manifest_decoding_numbers_must_be_numbers(
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
