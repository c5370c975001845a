"""Completion backends and the experiment runner.

Two backends share one interface: a remote OpenAI-compatible
chat-completions endpoint, and a deterministic mock keyed on the SHA-256
of the prompt.  The mock makes the whole pipeline runnable offline and
bit-reproducible, and doubles as a golden-prompt tripwire: any prompt
drift shows up as a missing fixture digest.

``run_experiment`` walks dataset × shot settings, sending from several
threads only to a backend that waits on I/O (the remote one), appends one
outputs line per completion as soon as it returns, skips pairs already
present in the outputs file if completed from the prompt it would send,
refuses a line of a pair it does not send, and keeps a manifest next to
the outputs (``runfile`` owns both formats).  Until the run ends the lines
are in completion order, so a killed run keeps every finished line; a run
that ends puts the file in canonical order (corpus record order, then
manifest shot order).  A failed completion is recorded and skipped; it
never aborts the remaining items.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Protocol

from .dataset import GoldRecord
from .errors import Pref2ConstraintError, encodable, read_json_object, typed
from .prompting import ExamplePool, PromptSpec, build_prompt, get_template
from .runfile import (
    ConfigError, DecodingConfig, ManifestMismatchError, OutputsLine, RunManifest, differing_fields,
    end_outputs, file_sha256, parse_outputs, read_lines, read_manifest, write_manifest,
)
# Not called here: perfbench/tracing.py wraps llm.select_examples by name, and
# perfbench/workloads.py imports llm.manifest_path_for.
from .prompting import select_examples  # noqa: F401
from .runfile import manifest_path_for  # noqa: F401


DEFAULT_CONCURRENCY = 4  # threads sending to a backend that waits, the calling one included
RETRY_WAITS_S = (0.5, 1.0, 2.0)  # pause before each retry of a transient failure
REQUEST_TIMEOUT_S = 60.0  # per remote completion request


class BackendError(Pref2ConstraintError):
    transient = False


class AuthError(BackendError):
    pass


class RateLimitedError(BackendError):
    transient = True


class ServerError(BackendError):
    transient = True


class CompletionTimeoutError(BackendError):
    transient = True


class MalformedBackendReply(BackendError):
    pass


class MockMissError(BackendError):
    """The mock has no fixture for this prompt digest (prompt drift?)."""


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    model_id: str
    decoding: DecodingConfig = DecodingConfig()


@dataclass(frozen=True)
class ModelResponse:
    text: str
    latency_ms: float
    backend: str


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class Backend(Protocol):
    """A backend whose ``send`` waits on I/O sets the class attribute ``waits = True``.

    ``run_experiment`` sends to it from up to ``concurrency`` threads.  One
    without it (``getattr(backend, "waits", False)``) answers in-process, so a
    helper thread could overlap none of its work: it is sent to from the
    calling thread alone.
    """

    name: str

    def send(self, request: CompletionRequest) -> ModelResponse: ...


class MockBackend:
    """Deterministic fixture-backed completions, keyed by prompt digest."""

    name = "mock"

    def __init__(self, responses: dict[str, str]):
        self._responses = responses

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        """Fixtures from a JSON object mapping each prompt digest to a response string."""
        return read_json_object(
            path, ConfigError, lambda data: cls({digest: typed(data, digest, "string") for digest in data})
        )

    def send(self, request: CompletionRequest) -> ModelResponse:
        digest = prompt_digest(request.prompt)
        try:
            text = self._responses[digest]
        except KeyError:
            raise MockMissError(f"no mock fixture for prompt digest {digest}") from None
        return ModelResponse(text=text, latency_ms=0.0, backend=self.name)


class OpenAICompatBackend:
    """Remote backend speaking the OpenAI chat-completions wire format."""

    name = "openai-compat"
    waits = True  # a request waits on the network, so run_experiment overlaps several

    def __init__(self, endpoint: str, api_key: str):
        if not endpoint.lower().startswith(("http://", "https://")):
            raise ConfigError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key

    def send(self, request: CompletionRequest) -> ModelResponse:
        # Imported here: the HTTP stack (ssl included) costs start-up time and memory
        # that every command but a remote run would pay for nothing.
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.decoding.temperature,
            "top_p": request.decoding.top_p,
            "max_tokens": request.decoding.max_new_tokens,
            # Not part of the original OpenAI schema, but accepted by most
            # self-hosted compatible servers; harmless where ignored.
            "top_k": request.decoding.top_k,
        }
        post = urllib.request.Request(
            f"{self.endpoint}/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"},
        )
        started = time.perf_counter()
        try:
            try:
                reply = urllib.request.urlopen(post, timeout=REQUEST_TIMEOUT_S)
            except urllib.error.HTTPError as exc:
                reply = exc  # a non-2xx status still carries a body to read
            with reply:
                status, body = reply.status, reply.read()
        except (OSError, http.client.HTTPException) as exc:
            # A timeout is bare while the reply is read, wrapped in URLError while sending.
            if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
                raise CompletionTimeoutError(f"request timed out after {REQUEST_TIMEOUT_S}s") from exc
            raise ServerError(f"request failed: {exc}") from exc
        latency_ms = (time.perf_counter() - started) * 1000
        if status in (401, 403):
            raise AuthError(f"backend rejected credentials (HTTP {status})")
        if status == 429:
            raise RateLimitedError("backend rate limit hit (HTTP 429)")
        if status >= 500:
            raise ServerError(f"backend failure (HTTP {status})")
        if status != 200:
            raise MalformedBackendReply(
                f"unexpected HTTP {status}: {body.decode('utf-8', 'replace')[:200]}"
            )
        try:
            data = json.loads(body)
            text = data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise MalformedBackendReply(f"cannot read completion from reply: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedBackendReply("completion content is not a string")
        return ModelResponse(text=text, latency_ms=latency_ms, backend=self.name)


def complete(
    backend: Backend, request: CompletionRequest, sleep: Callable[[float], None] = time.sleep
) -> ModelResponse:
    """Send one completion, retrying a transient failure after each of RETRY_WAITS_S."""
    for wait in RETRY_WAITS_S:
        try:
            return backend.send(request)
        except BackendError as exc:
            if not exc.transient:
                raise
        sleep(wait)
    return backend.send(request)


@dataclass(frozen=True)
class RunFailure:
    record_id: str
    shot: str
    error: str


@dataclass
class RunSummary:
    completed: int = 0
    skipped: int = 0
    failures: list[RunFailure] = field(default_factory=list)
    dropped_tail: str = ""  # unterminated last line cut from the outputs file


def _complete_all(
    work: list[tuple[int, PromptSpec]],
    manifest: RunManifest,
    records: dict[str, GoldRecord],
    backend: Backend,
    out: BinaryIO,
    concurrency: int,
) -> tuple[list[tuple[int, bytes]], list[tuple[int, RunFailure]]]:
    """Complete each (rank, spec) item and append its line to ``out``.

    The calling thread and, for a backend that ``waits``, up to
    ``concurrency - 1`` helper threads share one lock; any other backend is
    sent to from the calling thread alone.  Holding the lock, a worker writes
    and flushes its finished line, if it has one, takes the next item from one
    shared iterator and renders its prompt from the examples in ``records``
    (by id).  So one thread at a time fills a record's prompt pieces
    (``GoldRecord.tagged``, ``.canonical``), each once, at most one rendered
    prompt per worker is held at once, and a worker writes its line before it
    takes another item: a finished line waits on no other request, only on a
    worker that holds the lock to render or write.  Returns the (rank, line) pairs in the order written and the
    (rank, failure) pairs of the items whose completion raised a
    ``BackendError``, or held a lone surrogate (``encodable``; a backend may
    decode one from a JSON escape).  Any other exception, ``KeyboardInterrupt``
    included, stops every worker from taking another item, and is raised once
    they have all written their lines and returned.
    """
    # Measured in perfbench's `replicated` items/s (alternated pairs, shared 2-vCPU VM,
    # Python 3.11.7) against a take lock beside a queue of finished lines, drained by
    # whichever worker got a second, non-blocking write lock: a blocking write lock beside
    # the take lock cost 32-42 % and a lock-free O_APPEND write per line 3-25 % (median
    # 7 %, 10 s runs); this one lock cost 1.2 % and 2.5 % (8 s runs, seeds 1 and 13).
    # A helper thread for an in-process backend overlaps nothing: each line's flush lets
    # the other thread take the interpreter lock, a cross-CPU wake-up per line.  Sending
    # to it from the calling thread alone took `replicated` (two workers before) from
    # 10.0k to 16.4k items/s unpinned (10 of 10 pairs, 30 s runs) and from 16.1k to 16.3k
    # pinned to one CPU with `taskset -c 0` (4 of 4).
    items = iter(work)
    lock = threading.Lock()
    written: list[tuple[int, bytes]] = []
    failures: list[tuple[int, RunFailure]] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def work_loop() -> None:
        line = None  # this worker's finished (rank, line), written when it next holds the lock
        try:
            while True:
                with lock:
                    if line:
                        out.write(line[1])
                        out.flush()
                        written.append(line)
                        line = None
                    if stop.is_set() or (item := next(items, None)) is None:
                        return
                    rank, spec = item
                    prompt = build_prompt(spec, [records[i] for i in spec.example_ids])
                request = CompletionRequest(prompt, manifest.model_id, manifest.decoding)
                try:
                    text = complete(backend, request).text
                    encodable(text, "completion", MalformedBackendReply)
                except BackendError as exc:
                    failures.append((rank, RunFailure(spec.target.id, spec.shot.label, str(exc))))
                    continue
                digest = prompt_digest(prompt)
                line = rank, OutputsLine(spec.target.id, spec.shot.label, digest, text).encode()
        except BaseException as exc:  # raised by the calling thread once every worker returned
            stop.set()
            errors.append(exc)

    workers = min(concurrency, len(work)) if getattr(backend, "waits", False) else 1
    helpers = [threading.Thread(target=work_loop) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work_loop()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return written, failures


def run_experiment(
    manifest: RunManifest,
    records: list[GoldRecord],
    backend: Backend,
    outputs_path: str | Path,
    concurrency: int = DEFAULT_CONCURRENCY,
) -> RunSummary:
    """Complete every (record, shot) pair not yet in the outputs file.

    Every record's examples are drawn and every prompt spec checked before
    the manifest or any line is written, so too few records, a leak of the
    target into its examples or an unknown template writes nothing.  Then
    ``concurrency`` threads, the calling one included, send requests to a
    backend that ``waits`` on I/O, and the calling thread alone to any other;
    each renders the prompt it sends, so a run never holds every prompt.  Each
    line is appended and flushed as its completion returns, so until the run
    ends the lines are in completion order and a killed run keeps every
    finished line.  A run that ends rewrites the file once, through a
    temporary file beside it, if its lines (earlier runs' included) are not
    in canonical order: corpus record order, then manifest shot order.  So
    reruns with the mock backend are byte-reproducible at any concurrency,
    and a resumed run ends with the bytes of a clean one.
    A manifest already next to the outputs is kept if ``differing_fields``
    finds none, and refused otherwise; if there is none, ``manifest`` is
    written first (``write_manifest``).  With a manifest or without, a line
    already in the file is kept only if its ``prompt_digest`` is that of the
    prompt this run would send for its pair; the first in canonical order
    that is not raises ManifestMismatchError, as does the first line in file
    order of a pair this run does not send, both before anything is written.
    A torn last line (``runfile.read_lines``) is cut off and its pair redone.
    """
    if concurrency < 1:
        raise ConfigError(f"concurrency must be >= 1, got {concurrency}")
    outputs_path = Path(outputs_path)
    current_hash = file_sha256(manifest.dataset_path)
    if current_hash != manifest.dataset_sha256:
        raise ManifestMismatchError(
            f"dataset file {manifest.dataset_path} changed since the manifest was built"
        )
    existing = read_manifest(outputs_path)
    differing = differing_fields(existing, manifest) if existing else []
    if differing:
        raise ManifestMismatchError(
            f"{outputs_path} was run with another configuration "
            f"(differing fields: {', '.join(differing)})"
        )
    # A repeated id or unknown template fails before anything is written.
    examples = ExamplePool(records, manifest.seed)
    shots = manifest.shots
    get_template(manifest.template_id)
    lines, torn = read_lines(outputs_path) if outputs_path.exists() else ([], b"")
    done = parse_outputs(lines)
    summary = RunSummary(skipped=len(done), dropped_tail=torn.decode("utf-8", errors="replace"))

    # Examples are drawn and each spec checked here, before anything is written.
    # A prompt to send is rendered only by the worker that sends it; the prompt
    # of a pair already done is rendered here, and its line is kept only if it
    # was completed from that prompt.
    longest = max(shot.n_examples for shot in shots)
    rank: dict[tuple[str, str], int] = {}  # each pair this run sends: its canonical position
    work: list[tuple[int, PromptSpec]] = []
    for record in records:
        # One draw per record: a shot's examples are a prefix of the longest list.
        drawn = examples.select(record.id, longest)
        for shot in shots:
            pair = record.id, shot.label
            rank[pair] = len(rank)
            spec = PromptSpec(manifest.template_id, shot, tuple(drawn[: shot.n_examples]), record)
            stored = done.get(pair)
            if stored is None:
                work.append((rank[pair], spec))
                continue
            prompt = build_prompt(spec, [examples.records[e] for e in spec.example_ids])
            if stored[1].prompt_digest != prompt_digest(prompt):
                raise ManifestMismatchError(
                    f"{outputs_path} holds a line for {record.id} [{shot.label}] completed "
                    "from another prompt than this run would send"
                )
    stray = next((pair for pair in done if pair not in rank), None)
    if stray:
        raise ManifestMismatchError(
            f"{outputs_path} holds a line for {stray[0]} [{stray[1]}], a pair this run does not send"
        )

    outputs_path.parent.mkdir(parents=True, exist_ok=True)
    if existing is None:
        write_manifest(manifest, outputs_path)
    end_outputs(outputs_path, torn)
    with open(outputs_path, "ab") as out:
        appended, failures = _complete_all(work, manifest, examples.records, backend, out, concurrency)
    summary.completed = len(appended)
    summary.failures = [failure for _, failure in sorted(failures, key=lambda pair: pair[0])]

    # A kept line keeps the bytes it was read with; only an unterminated last one gains a newline.
    rows = [
        (rank[pair], lines[number - 1].removesuffix(b"\n") + b"\n")
        for pair, (number, _) in done.items()
    ] + appended
    if any(before[0] > after[0] for before, after in zip(rows, rows[1:])):
        rows.sort(key=lambda row: row[0])
        # A kill before the replace leaves the outputs file as it was.
        temporary = outputs_path.with_name(outputs_path.name + ".tmp")
        with open(temporary, "wb") as handle:
            handle.writelines(line for _, line in rows)
        os.replace(temporary, outputs_path)
    return summary
