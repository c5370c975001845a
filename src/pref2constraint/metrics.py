"""Scoring for generated constraints: character n-gram F-score and accuracies.

chrF here works on whitespace-stripped strings and averages clipped n-gram
precision over the orders where the hypothesis has at least one n-gram,
and recall over the orders where the reference has one; orders empty on
both sides are skipped.  (The alternative "effective order" convention of
sacrebleu, which divides by the full order count, is deliberately not
used; the skip convention keeps chrf(x, x) = 100 for short strings.)
Scores are scaled to 0..100.

The accuracy metrics compare extracted constraints against gold per
utterance: a maximum matching under an equality predicate — variable kind
plus assigned value for ``acc_variables``, the normalized time condition
for ``acc_conditions`` — divided by the number of gold constraints, then
averaged over utterances.  ``acc_avg`` is the plain mean of the two.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .constraints import Constraint, extract_constraints, render_constraint
from .dataset import GoldRecord
from .errors import Pref2ConstraintError
# CorruptOutputsError lives in llm, which owns the run format, and is re-exported here.
from .llm import CorruptOutputsError, parse_outputs, read_manifest  # noqa: F401


class MetricsError(Pref2ConstraintError):
    pass


class EmptyInputError(MetricsError):
    pass


class MissingRecordError(MetricsError):
    pass


class MissingGoldError(MetricsError):
    pass


def _ngram_counts(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


def chrf_counts(
    reference: str, hypothesis: str, max_n: int = 6
) -> tuple[list[int], list[int], list[int]]:
    """Per-order (matched, hypothesis total, reference total) n-gram counts."""
    matched, hyp_totals, ref_totals = [], [], []
    for n in range(1, max_n + 1):
        ref_counts = _ngram_counts(reference, n)
        hyp_counts = _ngram_counts(hypothesis, n)
        overlap = sum((ref_counts & hyp_counts).values())
        matched.append(overlap)
        hyp_totals.append(sum(hyp_counts.values()))
        ref_totals.append(sum(ref_counts.values()))
    return matched, hyp_totals, ref_totals


def _combine(matched: list[int], hyp_totals: list[int], ref_totals: list[int], beta: float) -> float:
    precisions = [m / h for m, h in zip(matched, hyp_totals) if h > 0]
    recalls = [m / r for m, r in zip(matched, ref_totals) if r > 0]
    chr_p = sum(precisions) / len(precisions) if precisions else 0.0
    chr_r = sum(recalls) / len(recalls) if recalls else 0.0
    if chr_p == 0.0 and chr_r == 0.0:
        return 0.0
    beta_sq = beta * beta
    return 100.0 * (1 + beta_sq) * chr_p * chr_r / (chr_r + beta_sq * chr_p)


def strip_whitespace(text: str) -> str:
    return "".join(text.split())


def chrf(reference: str, hypothesis: str, beta: float = 1.0, max_n: int = 6) -> float:
    """Character n-gram F-score between two strings, in 0..100."""
    if beta <= 0:
        raise MetricsError(f"beta must be > 0, got {beta}")
    ref = strip_whitespace(reference)
    hyp = strip_whitespace(hypothesis)
    if not ref or not hyp:
        raise EmptyInputError("chrf needs non-empty strings after whitespace stripping")
    return _combine(*chrf_counts(ref, hyp, max_n), beta)


def _max_matching(gold_keys: list, parsed_keys: list) -> int:
    """Maximum matching size under key equality = clipped multiset overlap."""
    return sum((Counter(gold_keys) & Counter(parsed_keys)).values())


def _variable_key(constraint: Constraint):
    return (constraint.variable, constraint.value)


def _condition_key(constraint: Constraint):
    return constraint.condition


def _mean_ratio(pairs: Iterable[tuple[int, int]]) -> float:
    """Mean of matched / n_gold over the pairs with n_gold > 0, in order; 0.0 if none."""
    ratios = [matched / n_gold for matched, n_gold in pairs if n_gold]
    return sum(ratios) / len(ratios) if ratios else 0.0


def _mean_of_ratios(
    gold: list[GoldRecord],
    parsed: dict[str, list[Constraint]],
    key,
) -> float:
    pairs = []
    for record in gold:
        if record.id not in parsed:
            raise MissingRecordError(f"no parsed entry for record {record.id!r}")
        gold_keys = [key(c) for c in record.constraints]
        parsed_keys = [key(c) for c in parsed[record.id]]
        pairs.append((_max_matching(gold_keys, parsed_keys), len(gold_keys)))
    return _mean_ratio(pairs)


def acc_variables(gold: list[GoldRecord], parsed: dict[str, list[Constraint]]) -> float:
    """Mean per-utterance share of gold constraints whose variable and value were generated."""
    return _mean_of_ratios(gold, parsed, _variable_key)


def acc_conditions(gold: list[GoldRecord], parsed: dict[str, list[Constraint]]) -> float:
    """Mean per-utterance share of gold time conditions that were generated."""
    return _mean_of_ratios(gold, parsed, _condition_key)


@dataclass(frozen=True)
class UtteranceScore:
    record_id: str
    chrf: float
    n_gold: int
    n_parsed: int
    n_issues: int
    matched_variables: int
    matched_conditions: int

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "chrf": round(self.chrf, 4),
            "n_gold": self.n_gold,
            "n_parsed": self.n_parsed,
            "n_issues": self.n_issues,
            "matched_variables": self.matched_variables,
            "matched_conditions": self.matched_conditions,
        }


@dataclass(frozen=True)
class EvalReport:
    model_id: str
    shot: str
    n_utterances: int
    chrf: float
    acc_variables: float
    acc_conditions: float
    acc_avg: float
    per_utterance: tuple[UtteranceScore, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.chrf <= 100.0:
            raise MetricsError(f"chrf {self.chrf} outside 0..100")
        for name in ("acc_variables", "acc_conditions", "acc_avg"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise MetricsError(f"{name} {value} outside 0..1")

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "prompt": self.shot,
            "n_utterances": self.n_utterances,
            "chrf": round(self.chrf, 4),
            "acc_variables": round(self.acc_variables, 4),
            "acc_conditions": round(self.acc_conditions, 4),
            "acc_avg": round(self.acc_avg, 4),
            "per_utterance": [u.to_dict() for u in self.per_utterance],
        }


def gold_reference_string(record: GoldRecord) -> str:
    """Whitespace-joined canonical gold constraints, the chrF reference side."""
    return " ".join(render_constraint(c) for c in record.constraints)


def evaluate_run(
    outputs_path: str | Path,
    gold: list[GoldRecord],
    model_id: str | None = None,
    beta: float = 1.0,
    corpus_chrf: bool = False,
) -> list[EvalReport]:
    """Score an outputs file against the gold corpus, one report per shot.

    chrF is computed between each record's canonical gold constraints and
    the raw response text; the accuracies run on leniently extracted
    constraints.  With ``corpus_chrf`` the n-gram counts are pooled over
    utterances instead of averaging per-utterance scores.
    """
    if model_id is None:
        manifest = read_manifest(outputs_path)
        model_id = manifest.model_id if manifest else "unknown"

    by_id = {record.id: record for record in gold}
    responses: dict[str, dict[str, str]] = {}  # shot -> record_id -> response, in file order
    with open(outputs_path, "rb") as handle:
        for (record_id, shot), (line_number, text) in parse_outputs(handle).items():
            if record_id not in by_id:
                raise MissingGoldError(
                    f"line {line_number}: record id {record_id!r} not in gold dataset"
                )
            responses.setdefault(shot, {})[record_id] = text

    reports = []
    for shot, rows in responses.items():
        scored: list[UtteranceScore] = []
        pooled = [0] * 6, [0] * 6, [0] * 6
        for record_id, response in rows.items():
            record = by_id[record_id]
            constraints, issues = extract_constraints(response)
            reference = strip_whitespace(gold_reference_string(record))
            hypothesis = strip_whitespace(response)
            if reference and hypothesis:
                counts = chrf_counts(reference, hypothesis)
                score = _combine(*counts, beta)
                for pool, part in zip(pooled, counts):
                    for i, value in enumerate(part):
                        pool[i] += value
            else:
                score = 0.0
            gold_vars = [_variable_key(c) for c in record.constraints]
            gold_conds = [_condition_key(c) for c in record.constraints]
            scored.append(
                UtteranceScore(
                    record_id=record_id,
                    chrf=score,
                    n_gold=len(record.constraints),
                    n_parsed=len(constraints),
                    n_issues=len(issues),
                    matched_variables=_max_matching(
                        gold_vars, [_variable_key(c) for c in constraints]
                    ),
                    matched_conditions=_max_matching(
                        gold_conds, [_condition_key(c) for c in constraints]
                    ),
                )
            )
        if corpus_chrf:
            shot_chrf = _combine(*pooled, beta)
        else:
            shot_chrf = (
                sum(u.chrf for u in scored) / len(scored) if scored else 0.0
            )
        variables = _mean_ratio((u.matched_variables, u.n_gold) for u in scored)
        conditions = _mean_ratio((u.matched_conditions, u.n_gold) for u in scored)
        reports.append(
            EvalReport(
                model_id=model_id,
                shot=shot,
                n_utterances=len(scored),
                chrf=shot_chrf,
                acc_variables=variables,
                acc_conditions=conditions,
                acc_avg=(variables + conditions) / 2,
                per_utterance=tuple(scored),
            )
        )
    return reports


TABLE_COLUMNS = ("prompt", "ChrF", "Acc_Variables", "Acc_Conditions", "Acc_Avg")


def render_table(reports: list[EvalReport]) -> str:
    """Aligned plain-text report: one row per prompt setting."""
    rows = [
        (
            report.shot,
            f"{report.chrf:.4f}",
            f"{report.acc_variables:.4f}",
            f"{report.acc_conditions:.4f}",
            f"{report.acc_avg:.4f}",
        )
        for report in reports
    ]
    widths = [
        max(len(TABLE_COLUMNS[i]), *(len(row[i]) for row in rows)) if rows else len(TABLE_COLUMNS[i])
        for i in range(len(TABLE_COLUMNS))
    ]
    lines = ["  ".join(name.ljust(widths[i]) for i, name in enumerate(TABLE_COLUMNS)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def reports_to_json(reports: list[EvalReport]) -> str:
    """Canonical JSON for golden-file comparison: sorted keys, 2-space indent."""
    payload = {"reports": [report.to_dict() for report in reports]}
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class ReferenceRow:
    """One published baseline row, kept for format fixtures and identity checks."""

    model_id: str
    prompt: str
    chrf: float
    acc_variables: float
    acc_conditions: float
    acc_avg: float


# Baseline scores from an earlier prompting study on this task, stored as
# reference fixtures: they pin the report layout and the identity
# acc_avg = (acc_variables + acc_conditions) / 2 under 4-digit rounding.
# They are not reproducible here (hosted third-party models).
REFERENCE_BASELINE_ROWS = (
    ReferenceRow("Cerbero", "0s", 43.0734, 0.7381, 0.1190, 0.4286),
    ReferenceRow("Cerbero", "1s", 35.9382, 0.2619, 0.0, 0.1310),
    ReferenceRow("ChatGPT", "0s", 51.0562, 0.7857, 0.2143, 0.5),
    ReferenceRow("ChatGPT", "1s", 60.8065, 0.7857, 0.119, 0.4524),
    ReferenceRow("ChatGPT", "fs", 69.0289, 0.7619, 0.3571, 0.5595),
    ReferenceRow("LLaMAntino-3-ANITA", "0s", 37.9288, 0.5, 0.0714, 0.2857),
    ReferenceRow("LLaMAntino-3-ANITA", "1s", 66.238, 0.7222, 0.2857, 0.504),
    ReferenceRow("LLaMAntino-3-ANITA", "fs", 74.5472, 0.8571, 0.4286, 0.6429),
    ReferenceRow("Maestrale", "0s", 33.8217, 0.2063, 0.0238, 0.1151),
    ReferenceRow("Maestrale", "1s", 59.0048, 0.7619, 0.3571, 0.5595),
    ReferenceRow("IT5", "-", 47.0815, 0.4545, 0.2, 0.3273),
)
