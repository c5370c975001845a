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
``parse_outputs`` and ``read_manifest``: only this module knows its format.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Protocol

import requests

from .dataset import GoldRecord
from .errors import Pref2ConstraintError
from .prompting import MAX_FEW_SHOT, PromptSpec, ShotSetting, build_prompt, select_examples


DEFAULT_CONCURRENCY = 4  # completion requests in flight in run_experiment


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


class ConfigError(Pref2ConstraintError, ValueError):
    pass


class CorruptOutputsError(Pref2ConstraintError, ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


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
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

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

    def __init__(
        self,
        endpoint: str,
        api_key: str,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.session = session or requests.Session()

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
        started = time.perf_counter()
        try:
            reply = self.session.post(
                f"{self.endpoint}/chat/completions",
                json=payload,
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=self.timeout,
            )
        except requests.Timeout as exc:
            raise CompletionTimeoutError(f"request timed out after {self.timeout}s") from exc
        except requests.RequestException as exc:
            raise ServerError(f"request failed: {exc}") from exc
        latency_ms = (time.perf_counter() - started) * 1000
        if reply.status_code in (401, 403):
            raise AuthError(f"backend rejected credentials (HTTP {reply.status_code})")
        if reply.status_code == 429:
            raise RateLimitedError("backend rate limit hit (HTTP 429)")
        if reply.status_code >= 500:
            raise ServerError(f"backend failure (HTTP {reply.status_code})")
        if reply.status_code != 200:
            raise MalformedBackendReply(
                f"unexpected HTTP {reply.status_code}: {reply.text[:200]}"
            )
        try:
            data = reply.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise MalformedBackendReply(f"cannot read completion from reply: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedBackendReply("completion content is not a string")
        return ModelResponse(text=text, latency_ms=latency_ms, backend=self.name)


def complete(
    backend: Backend,
    request: CompletionRequest,
    retries: int = 3,
    backoff_base: float = 0.5,
    backoff_cap: float = 8.0,
    sleep: Callable[[float], None] = time.sleep,
) -> ModelResponse:
    """Send one completion, retrying transient failures with capped backoff."""
    attempt = 0
    while True:
        try:
            return backend.send(request)
        except BackendError as exc:
            if not exc.transient or attempt >= retries:
                raise
            sleep(min(backoff_cap, backoff_base * 2**attempt))
            attempt += 1


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
        data = asdict(self)
        data["shot_labels"] = list(self.shot_labels)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(
            dataset_path=data["dataset_path"],
            dataset_sha256=data["dataset_sha256"],
            template_id=data["template_id"],
            shot_labels=tuple(data["shot_labels"]),
            few_shot_k=int(data["few_shot_k"]),
            model_id=data["model_id"],
            decoding=DecodingConfig(**data["decoding"]),
            seed=int(data["seed"]),
            timestamp=data["timestamp"],
        )


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
    return RunManifest.from_dict(json.loads(manifest_file.read_text("utf-8")))


def parse_outputs(lines: Iterable[bytes]) -> dict[tuple[str, str], tuple[int, str]]:
    """{(record_id, shot): (line number, response_text)} of outputs lines, in order.

    Blank lines are skipped.  The first line that is not UTF-8 JSON with string
    ``record_id``, ``shot`` and ``response_text``, or that repeats a (record,
    shot) pair, raises CorruptOutputsError.
    """
    rows: dict[tuple[str, str], tuple[int, str]] = {}
    for line_number, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            data = json.loads(line)
            record_id, shot, text = data["record_id"], data["shot"], data["response_text"]
            if not all(isinstance(value, str) for value in (record_id, shot, text)):
                raise TypeError("record_id, shot and response_text must be strings")
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptOutputsError(f"bad outputs line: {exc}", line_number) from exc
        if (record_id, shot) in rows:
            raise CorruptOutputsError(
                f"duplicate row for record {record_id!r}, shot {shot!r}", line_number
            )
        rows[record_id, shot] = line_number, text
    return rows


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
    retries: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> RunSummary:
    """Complete every (record, shot) pair not yet in the outputs file.

    Requests may run concurrently, but lines are written in deterministic
    (record, shot) order by a single writer, so reruns with the mock
    backend are byte-reproducible; each line is flushed as it is written.
    A manifest already next to the outputs must equal ``manifest`` but for
    its timestamp, and is kept; otherwise ``manifest`` is written first.
    """
    outputs_path = Path(outputs_path)
    current_hash = file_sha256(manifest.dataset_path)
    if current_hash != manifest.dataset_sha256:
        raise ManifestMismatchError(
            f"dataset file {manifest.dataset_path} changed since the manifest was built"
        )
    existing = read_manifest(outputs_path)
    if existing is not None and replace(existing, timestamp=manifest.timestamp) != manifest:
        raise ManifestMismatchError(f"{outputs_path} was run with another configuration")
    done, dropped_tail = _resume(outputs_path)
    summary = RunSummary(skipped=len(done), dropped_tail=dropped_tail)

    work: list[tuple[str, str, str]] = []  # (record_id, shot label, prompt)
    for record in records:
        for shot in manifest.shots:
            if (record.id, shot.label) in done:
                continue
            example_ids = tuple(
                select_examples(records, record.id, shot.n_examples, manifest.seed)
            )
            spec = PromptSpec(manifest.template_id, shot, example_ids, record)
            work.append((record.id, shot.label, build_prompt(spec, records)))

    def run_one(item: tuple[str, str, str]) -> ModelResponse | BackendError:
        request = CompletionRequest(item[2], manifest.model_id, manifest.decoding)
        try:
            return complete(backend, request, retries=retries, sleep=sleep)
        except BackendError as exc:
            return exc

    outputs_path.parent.mkdir(parents=True, exist_ok=True)
    if existing is None:
        with open(manifest_path_for(outputs_path), "w", encoding="utf-8") as handle:
            json.dump(manifest.to_dict(), handle, ensure_ascii=False, indent=2)
            handle.write("\n")
    with open(outputs_path, "a", encoding="utf-8") as out, ThreadPoolExecutor(
        max_workers=max(1, concurrency)
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
