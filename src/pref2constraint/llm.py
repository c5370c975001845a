"""Completion backends and the experiment runner.

Two backends share one interface: a remote OpenAI-compatible
chat-completions endpoint, and a deterministic mock keyed on the SHA-256
of the prompt.  The mock makes the whole pipeline runnable offline and
bit-reproducible, and doubles as a golden-prompt tripwire: any prompt
drift shows up as a missing fixture digest.

``run_experiment`` walks dataset × shot settings, appends one JSONL line
per completion ({record_id, shot, prompt_digest, response_text}), skips
pairs already present in the outputs file, and keeps a manifest next to
the outputs.  A failed completion is recorded and skipped; it never aborts
the remaining items.  Resume and evaluation read the run back through
``parse_outputs`` (evaluation by way of ``read_outputs``) and
``read_manifest``: only this module knows its format.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Protocol

from .dataset import GoldRecord
from .errors import (
    LineError, Pref2ConstraintError, int_field, json_lines, json_number, read_json_object, str_field
)
from .prompting import MAX_FEW_SHOT, ExamplePool, PromptSpec, ShotSetting, build_prompt, get_template
# Not called here: perfbench/tracing.py wraps llm.select_examples by name.
from .prompting import select_examples  # noqa: F401


DEFAULT_CONCURRENCY = 4  # completion requests in flight in run_experiment
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


class ManifestMismatchError(Pref2ConstraintError):
    pass


class CorruptManifestError(Pref2ConstraintError):
    pass


class ConfigError(Pref2ConstraintError, ValueError):
    pass


class CorruptOutputsError(LineError, ValueError):
    pass


@dataclass(frozen=True)
class DecodingConfig:
    temperature: float = 0.1
    top_k: int = 20
    top_p: float = 0.9
    max_new_tokens: int = 30

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if self.top_k < 0:
            raise ConfigError("top_k must be >= 0")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")


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
        def parse(responses: dict) -> "MockBackend":
            for digest, text in responses.items():
                if not isinstance(text, str):
                    raise TypeError(f"the response for prompt digest {digest!r} is not a string")
            return cls(responses)

        return read_json_object(path, ConfigError, parse)

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

    def __init__(self, endpoint: str, api_key: str):
        if not endpoint.lower().startswith(("http://", "https://")):
            raise ConfigError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key

    def send(self, request: CompletionRequest) -> ModelResponse:
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


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    dataset_path: str
    dataset_sha256: str
    template_id: str
    shot_labels: tuple[str, ...]
    few_shot_k: int
    model_id: str
    decoding: DecodingConfig
    seed: int
    timestamp: str

    def __post_init__(self) -> None:
        if len(set(self.shot_labels)) != len(self.shot_labels):
            raise ConfigError(f"shot labels must not repeat, got {','.join(self.shot_labels)}")

    @classmethod
    def create(
        cls,
        dataset_path: str | Path,
        template_id: str,
        shot_labels: tuple[str, ...],
        model_id: str,
        decoding: DecodingConfig = DecodingConfig(),
        seed: int = 0,
        few_shot_k: int = MAX_FEW_SHOT,
    ) -> "RunManifest":
        return cls(
            dataset_path=str(dataset_path),
            dataset_sha256=file_sha256(dataset_path),
            template_id=template_id,
            shot_labels=tuple(shot_labels),
            few_shot_k=few_shot_k,
            model_id=model_id,
            decoding=decoding,
            seed=seed,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    @property
    def shots(self) -> tuple[ShotSetting, ...]:
        return tuple(
            ShotSetting.from_label(label, self.few_shot_k) for label in self.shot_labels
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        # Every field is read before any is converted, so a KeyError names the first missing one.
        values = {f.name: data[f.name] for f in fields(cls)}
        decoding, labels = values["decoding"], values["shot_labels"]
        if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
            raise TypeError(f"'shot_labels' must be an array of strings, got {json.dumps(labels)}")
        return cls(**{
            **values,
            # Annotations are strings in this module, so this picks the fields declared str.
            **{f.name: str_field(values, f.name) for f in fields(cls) if f.type == "str"},
            "shot_labels": tuple(labels),
            "few_shot_k": int_field(values, "few_shot_k"),
            "decoding": DecodingConfig(**{
                **decoding,
                "temperature": json_number(decoding["temperature"], "'temperature' must be a number"),
                "top_k": int_field(decoding, "top_k"),
                "top_p": json_number(decoding["top_p"], "'top_p' must be a number"),
                "max_new_tokens": int_field(decoding, "max_new_tokens"),
            }),
            "seed": int_field(values, "seed"),
        })


def manifest_path_for(outputs_path: str | Path) -> Path:
    outputs_path = Path(outputs_path)
    return outputs_path.with_name(outputs_path.stem + ".manifest.json")


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


def read_manifest(outputs_path: str | Path) -> RunManifest | None:
    """The manifest kept next to an outputs file, or None if there is none."""
    manifest_file = manifest_path_for(outputs_path)
    if not manifest_file.exists():
        return None
    return read_json_object(manifest_file, CorruptManifestError, RunManifest.from_dict)


def parse_outputs(lines: Iterable[bytes]) -> dict[tuple[str, str], tuple[int, str]]:
    """{(record_id, shot): (line number, response_text)} of outputs lines, in order.

    Blank lines are skipped.  The first line that is not UTF-8 JSON with string
    ``record_id``, ``shot`` and ``response_text``, or that repeats a (record,
    shot) pair, raises CorruptOutputsError.
    """
    rows: dict[tuple[str, str], tuple[int, str]] = {}
    for line_number, data in json_lines(lines, CorruptOutputsError):
        try:
            record_id, shot, text = data["record_id"], data["shot"], data["response_text"]
            if not all(isinstance(value, str) for value in (record_id, shot, text)):
                raise TypeError("record_id, shot and response_text must be strings")
        except (KeyError, TypeError) as exc:
            raise CorruptOutputsError(f"bad outputs line: {exc}", line_number) from exc
        if (record_id, shot) in rows:
            raise CorruptOutputsError(
                f"duplicate row for record {record_id!r}, shot {shot!r}", line_number
            )
        rows[record_id, shot] = line_number, text
    return rows


def read_outputs(outputs_path: str | Path) -> dict[tuple[str, str], tuple[int, str]]:
    """``parse_outputs`` of an outputs file, less a torn last line.

    A run killed mid-write leaves an unterminated fragment as the last line.
    An unterminated last line that is not UTF-8 JSON is such a fragment and
    is left out; one that is JSON is read like any other line.
    """
    with open(outputs_path, "rb") as handle:
        lines = handle.readlines()
    if lines and not lines[-1].endswith(b"\n"):
        try:
            json.loads(lines[-1].decode("utf-8"))
        except ValueError:  # UnicodeDecodeError is one too
            lines.pop()
    return parse_outputs(lines)


def _resume(outputs_path: Path) -> tuple[set[tuple[str, str]], str]:
    """Pairs already in the outputs file, and the torn last line cut from it.

    A run killed mid-write leaves an unterminated last line.  Once the lines
    before it parse, it is cut off, so its pair is completed again and new
    lines are not appended to the fragment.
    """
    if not outputs_path.exists():
        return set(), ""
    with open(outputs_path, "rb+") as handle:
        lines = handle.readlines()
        torn = lines.pop() if lines and not lines[-1].endswith(b"\n") else b""
        done = set(parse_outputs(lines))
        if torn:
            handle.truncate(handle.tell() - len(torn))
    return done, torn.decode("utf-8", errors="replace")


def run_experiment(
    manifest: RunManifest,
    records: list[GoldRecord],
    backend: Backend,
    outputs_path: str | Path,
    concurrency: int = DEFAULT_CONCURRENCY,
) -> RunSummary:
    """Complete every (record, shot) pair not yet in the outputs file.

    Requests may run concurrently, but lines are written in deterministic
    (record, shot) order by a single writer, so reruns with the mock
    backend are byte-reproducible; each line is flushed as it is written.
    A manifest already next to the outputs must equal ``manifest`` but for
    its timestamp and dataset path (the dataset is compared by SHA-256), and
    is kept; otherwise ``manifest`` is written first.
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
    if existing is not None:
        differing = [
            f.name
            for f in fields(RunManifest)
            if f.name not in ("dataset_path", "timestamp")  # the dataset is compared by hash
            and getattr(existing, f.name) != getattr(manifest, f.name)
        ]
        if differing:
            raise ManifestMismatchError(
                f"{outputs_path} was run with another configuration "
                f"(differing fields: {', '.join(differing)})"
            )
    # A repeated id, bad shot label or unknown template fails before anything is written.
    examples = ExamplePool(records, manifest.seed)
    shots = manifest.shots
    get_template(manifest.template_id)
    done, dropped_tail = _resume(outputs_path)
    summary = RunSummary(skipped=len(done), dropped_tail=dropped_tail)

    work: list[tuple[str, str, str]] = []  # (record_id, shot label, prompt)
    for record in records:
        pending = [shot for shot in shots if (record.id, shot.label) not in done]
        # One draw per record: a shot's examples are a prefix of the longest list.
        drawn = examples.select(record.id, max((s.n_examples for s in pending), default=0))
        for shot in pending:
            spec = PromptSpec(manifest.template_id, shot, tuple(drawn[: shot.n_examples]), record)
            chosen = [examples.records[example_id] for example_id in spec.example_ids]
            work.append((record.id, shot.label, build_prompt(spec, chosen)))

    def run_one(item: tuple[str, str, str]) -> ModelResponse | BackendError:
        request = CompletionRequest(item[2], manifest.model_id, manifest.decoding)
        try:
            return complete(backend, request)
        except BackendError as exc:
            return exc

    outputs_path.parent.mkdir(parents=True, exist_ok=True)
    if existing is None:
        with open(manifest_path_for(outputs_path), "w", encoding="utf-8") as handle:
            json.dump(manifest.to_dict(), handle, ensure_ascii=False, indent=2)
            handle.write("\n")
    with open(outputs_path, "a", encoding="utf-8") as out, ThreadPoolExecutor(
        max_workers=concurrency
    ) as pool:
        for (record_id, shot_label, prompt), result in zip(work, pool.map(run_one, work)):
            if isinstance(result, BackendError):
                summary.failures.append(RunFailure(record_id, shot_label, str(result)))
                continue
            line = {
                "record_id": record_id,
                "shot": shot_label,
                "prompt_digest": prompt_digest(prompt),
                "response_text": result.text,
            }
            out.write(json.dumps(line, ensure_ascii=False) + "\n")
            out.flush()
            summary.completed += 1
    return summary
