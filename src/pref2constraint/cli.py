"""Command-line pipeline: validate, parse, prompt, run, eval, ground, schedule.

One executable with subcommands; machine-readable JSON on stdout under
``--json``, human-readable text otherwise, diagnostics on stderr.  Exit
codes: 0 success, 1 domain error, 2 usage error.

Backend settings resolve with precedence flags > environment > config
file.  The config file is plain ``key = value`` lines (keys: endpoint,
api_key, model); environment variables are ``PREF2CONSTRAINT_ENDPOINT``,
``PREF2CONSTRAINT_API_KEY``, ``PREF2CONSTRAINT_MODEL``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .constraints import canonicalize, parse_constraint
from .dataset import GoldRecord, load_dataset, mock_fixtures_path, pilot_corpus_path, tag_utterance
from .errors import Pref2ConstraintError
from .grounding import Horizon, ground
from .llm import DEFAULT_CONCURRENCY, MockBackend, OpenAICompatBackend, run_experiment
from .metrics import evaluate_run, render_table, reports_to_json
from .prompting import (
    DEFAULT_TEMPLATE_ID,
    MAX_FEW_SHOT,
    SHOT_LABELS,
    ExamplePool,
    PromptSpec,
    ShotSetting,
    build_prompt,
)
from .runfile import ConfigError, DecodingConfig, RunManifest, find_corpus, read_manifest
from .scheduler import ScheduleProblem, check_functional, solve

ENV_PREFIX = "PREF2CONSTRAINT"


def _read_config_file(path: str | None) -> dict[str, str]:
    """The ``key = value`` settings of a config file; a line that is none of them is refused."""
    if not path:
        return {}
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, equals, value = (part.strip() for part in line.partition("="))
                if not equals:
                    raise ConfigError(f"{path}: line {line_number}: expected 'key = value'")
                if key.lower() not in ("endpoint", "api_key", "model"):
                    raise ConfigError(
                        f"{path}: line {line_number}: unknown key {key!r} "
                        "(expected endpoint, api_key or model)"
                    )
                values[key.lower()] = value
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return values


def _setting(flag_value: str | None, key: str, config: dict[str, str]) -> str | None:
    if flag_value:
        return flag_value
    env_value = os.environ.get(f"{ENV_PREFIX}_{key.upper()}")
    if env_value:
        return env_value
    return config.get(key)


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        print(text)


def _dataset_path(args: argparse.Namespace) -> Path:
    return Path(args.data) if args.data else pilot_corpus_path()


def cmd_validate_data(args: argparse.Namespace) -> int:
    records = load_dataset(_dataset_path(args))
    n_spans = sum(len(r.spans) for r in records)
    n_constraints = sum(len(r.constraints) for r in records)
    payload = {
        "path": str(_dataset_path(args)),
        "records": len(records),
        "spans": n_spans,
        "constraints": n_constraints,
        "valid": True,
    }
    _emit(
        args,
        payload,
        f"{len(records)} records OK ({n_spans} spans, {n_constraints} constraints)",
    )
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    canonical = canonicalize(args.text)
    _emit(args, {"input": args.text, "canonical": canonical}, canonical)
    return 0


def _target_record(records: dict[str, GoldRecord], target_id: str) -> GoldRecord:
    """The record ``target_id`` of a dataset indexed by id."""
    if target_id not in records:
        raise Pref2ConstraintError(f"record id {target_id!r} not in dataset")
    return records[target_id]


def cmd_prompt(args: argparse.Namespace) -> int:
    pool = ExamplePool(load_dataset(_dataset_path(args)), args.seed)
    target = _target_record(pool.records, args.target_id)
    shot = ShotSetting.from_label(args.shot, args.k)
    example_ids = tuple(pool.select(args.target_id, shot.n_examples))
    chosen = [pool.records[example_id] for example_id in example_ids]
    prompt = build_prompt(PromptSpec(args.template, shot, example_ids, target), chosen)
    payload = {
        "target_id": args.target_id,
        "shot": shot.label,
        "template": args.template,
        "example_ids": list(example_ids),
        "prompt": prompt,
    }
    _emit(args, payload, prompt)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _read_config_file(args.config)
    dataset_path = _dataset_path(args)
    records = load_dataset(dataset_path)
    model = _setting(args.model, "model", config) or "mock-model"
    decoding = DecodingConfig(**{f.name: getattr(args, f.name) for f in fields(DecodingConfig)})
    if args.backend == "mock":
        fixtures = Path(args.fixtures) if args.fixtures else mock_fixtures_path()
        backend = MockBackend.from_file(fixtures)
    else:
        endpoint = _setting(args.endpoint, "endpoint", config)
        api_key = _setting(args.api_key, "api_key", config)
        if not endpoint:
            raise Pref2ConstraintError(
                "remote backend needs an endpoint (flag --endpoint, env "
                f"{ENV_PREFIX}_ENDPOINT, or config file)"
            )
        backend = OpenAICompatBackend(endpoint, api_key or "")
    manifest = RunManifest.create(
        dataset_path=dataset_path,
        template_id=args.template,
        shot_labels=tuple(args.shots.split(",")),
        model_id=model,
        decoding=decoding,
        seed=args.seed,
        few_shot_k=args.k,
    )
    summary = run_experiment(
        manifest, records, backend, args.out, concurrency=args.concurrency
    )
    if summary.dropped_tail:
        print(
            f"dropped unterminated last line of {args.out}: {summary.dropped_tail!r}",
            file=sys.stderr,
        )
    for failure in summary.failures:
        print(
            f"failed: {failure.record_id} [{failure.shot}]: {failure.error}",
            file=sys.stderr,
        )
    payload = {
        "outputs": args.out,
        "completed": summary.completed,
        "skipped": summary.skipped,
        "failed": len(summary.failures),
    }
    _emit(
        args,
        payload,
        f"completed {summary.completed}, skipped {summary.skipped}, "
        f"failed {len(summary.failures)} -> {args.out}",
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    # The manifest, read once, names the gold corpus unless --gold does and
    # the model id unless --model does.
    manifest = None if args.gold and args.model is not None else read_manifest(args.outputs)
    if args.gold:
        gold_path = Path(args.gold)
    else:
        gold_path = pilot_corpus_path() if manifest is None else find_corpus(args.outputs, manifest)
    model_id = args.model
    if model_id is None:
        model_id = manifest.model_id if manifest else "unknown"
    gold = load_dataset(gold_path)
    reports = evaluate_run(args.outputs, gold, model_id=model_id, corpus_chrf=args.corpus_chrf)
    text = reports_to_json(reports) if args.report or args.json else ""
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    if args.json:
        print(text, end="")
    else:
        print(render_table(reports))
    return 0


def cmd_ground(args: argparse.Namespace) -> int:
    constraints = [parse_constraint(text) for text in args.constraints]
    assignment = ground(constraints, Horizon(args.slot_minutes))
    if args.json:
        print(json.dumps(assignment.to_dict(), ensure_ascii=False))
    else:
        on = sorted(assignment.forced_state_slots(1))
        off = sorted(assignment.forced_state_slots(0))
        temps = {
            i: v for i, v in enumerate(assignment.temperature) if v is not None
        }
        lines = [f"horizon: {assignment.horizon.num_slots} slots of {args.slot_minutes} min"]
        lines.append(f"state on : {on if on else '-'}")
        lines.append(f"state off: {off if off else '-'}")
        if temps:
            lines.append("temperature: " + ", ".join(f"slot {i}={v}" for i, v in temps.items()))
        print("\n".join(lines))
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    problem = ScheduleProblem.from_file(args.problem)
    schedule = solve(problem)
    if args.json:
        print(json.dumps(schedule.to_dict(), ensure_ascii=False))
    else:
        print(schedule.timeline(problem.horizon))
        print(
            f"on slots {sorted(schedule.on_slots)}; "
            f"self-consumption {schedule.self_consumption_kwh:.3f} kWh"
        )
    return 0


def cmd_check_functional(args: argparse.Namespace) -> int:
    problem = ScheduleProblem.from_file(args.problem)
    gold = [parse_constraint(text) for text in args.gold]
    generated = [parse_constraint(text) for text in args.generated]
    result = check_functional(gold, generated, problem)
    if args.json:
        print(json.dumps(result.to_dict(), ensure_ascii=False))
    else:
        print("PASS" if result.passed else f"FAIL: {result.reason}")
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    records = {record.id: record for record in load_dataset(_dataset_path(args))}
    tagged = tag_utterance(_target_record(records, args.target_id))
    _emit(args, {"record_id": args.target_id, "tagged": tagged}, tagged)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pref2constraint",
        description="Appliance-usage preferences to formal scheduling constraints.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.set_defaults(func=func)
        return p

    p = add("validate-data", cmd_validate_data, "validate a JSONL corpus")
    p.add_argument("--data", help="corpus path (default: shipped pilot corpus)")

    p = add("parse", cmd_parse, "parse a constraint and print its canonical form")
    p.add_argument("text", help="constraint string")

    p = add("prompt", cmd_prompt, "build one prompt")
    p.add_argument("--data", help="corpus path (default: shipped pilot corpus)")
    p.add_argument("--target-id", required=True)
    p.add_argument("--shot", choices=SHOT_LABELS, default="0s")
    p.add_argument("--k", type=int, default=MAX_FEW_SHOT, help="examples in the fs setting")
    p.add_argument("--template", default=DEFAULT_TEMPLATE_ID)
    p.add_argument("--seed", type=int, default=0)

    p = add("run", cmd_run, "run an experiment over the corpus")
    p.add_argument("--data", help="corpus path (default: shipped pilot corpus)")
    p.add_argument("--out", required=True, help="outputs JSONL path")
    p.add_argument("--backend", choices=["mock", "openai"], default="mock")
    p.add_argument("--fixtures", help="mock fixture file (default: shipped fixtures)")
    p.add_argument("--model", help="model id (or env/config)")
    p.add_argument("--endpoint", help="remote endpoint base URL (or env/config)")
    p.add_argument("--api-key", help="remote API key (or env/config)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--shots", default=",".join(SHOT_LABELS), help="comma-separated shot labels")
    p.add_argument("--k", type=int, default=MAX_FEW_SHOT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--template", default=DEFAULT_TEMPLATE_ID)
    p.add_argument("--concurrency", type=int, default=DEFAULT_CONCURRENCY)
    for f in fields(DecodingConfig):  # one flag per decoding setting, at the library's default
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)

    p = add("eval", cmd_eval, "score an outputs file against gold")
    p.add_argument("--outputs", required=True)
    p.add_argument("--gold", help="gold corpus path (default: the run's corpus, per its manifest)")
    p.add_argument("--model", help="model id for the report (default: manifest)")
    p.add_argument("--corpus-chrf", action="store_true", help="pool n-grams over utterances")
    p.add_argument("--report", help="also write the JSON report here")

    p = add("ground", cmd_ground, "ground constraints onto a slotted day")
    p.add_argument("constraints", nargs="+", help="constraint strings")
    p.add_argument("--slot-minutes", type=int, default=30)

    p = add("schedule", cmd_schedule, "solve a scheduling problem file")
    p.add_argument("--problem", required=True, help="problem JSON path")

    p = add("check-functional", cmd_check_functional, "compare generated vs gold behavior")
    p.add_argument("--problem", required=True, help="problem JSON path")
    p.add_argument("--gold", nargs="+", required=True, help="gold constraint strings")
    p.add_argument("--generated", nargs="*", default=[], help="generated constraint strings")

    p = add("tag", cmd_tag, "print the XML-tagged form of a record")
    p.add_argument("--data", help="corpus path (default: shipped pilot corpus)")
    p.add_argument("--target-id", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (Pref2ConstraintError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
