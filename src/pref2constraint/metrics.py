"""Scoring for generated constraints: character n-gram F-score and accuracies.

chrF here is the balanced F-score (β = 1) over character n-grams of
orders 1 to 6.  It works on whitespace-stripped strings and averages
clipped n-gram precision over the orders where the hypothesis has at
least one n-gram, and recall over the orders where the reference has
one; orders empty on both sides are skipped.  (The alternative
"effective order" convention of sacrebleu, which divides by the full
order count, is deliberately not used; the skip convention keeps
chrf(x, x) = 100 for short strings.)
Scores are scaled to 0..100.  ``chrf()`` raises ``EmptyInputError`` when a
side is empty after stripping; in an ``evaluate_run`` report the same counts
give such an utterance 0.0, and ``corpus_chrf`` pools the counts of every
scored line, blank sides included.

The accuracy metrics compare extracted constraints against gold per
utterance: a maximum matching under an equality predicate — variable kind
plus assigned value for ``acc_variables``, the normalized time condition
for ``acc_conditions`` — divided by the number of gold constraints, then
averaged over utterances.  ``acc_avg`` is the plain mean of the two.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .constraints import Constraint, extract_constraints, render_constraint
from .dataset import GoldRecord
from .errors import LineError, Pref2ConstraintError
# CorruptOutputsError lives in llm, which owns the run format, and is re-exported here.
from .llm import CorruptOutputsError, read_manifest, read_outputs  # noqa: F401


class MetricsError(Pref2ConstraintError):
    pass


class EmptyInputError(MetricsError):
    pass


class MissingRecordError(MetricsError):
    pass


class MissingGoldError(MetricsError, LineError):
    pass


CHRF_ORDERS = range(1, 7)  # character n-gram orders 1..6


def ngram_counts(text: str) -> Counter[str]:
    """Every character n-gram of ``text`` of orders 1 to 6, in one Counter.

    An n-gram's length is its order, so n-grams of different orders never collide.
    """
    return Counter([text[i : i + n] for n in CHRF_ORDERS for i in range(len(text) - n + 1)])


def chrf_counts(
    reference: str, hypothesis: str, reference_grams: Counter[str] | None = None
) -> tuple[list[int], list[int], list[int]]:
    """Per-order (matched, hypothesis total, reference total) n-gram counts.

    A string of length L has max(0, L - n + 1) n-grams of order n; only the
    clipped overlap needs counting.  ``reference_grams`` is
    ``ngram_counts(reference)`` when the caller has already counted it.
    """
    if reference_grams is None:
        reference_grams = ngram_counts(reference)
    hypothesis_grams = ngram_counts(hypothesis)
    matched = [0] * len(CHRF_ORDERS)
    for gram in reference_grams.keys() & hypothesis_grams.keys():
        matched[len(gram) - 1] += min(reference_grams[gram], hypothesis_grams[gram])
    hyp_totals = [max(0, len(hypothesis) - n + 1) for n in CHRF_ORDERS]
    ref_totals = [max(0, len(reference) - n + 1) for n in CHRF_ORDERS]
    return matched, hyp_totals, ref_totals


def _combine(matched: list[int], hyp_totals: list[int], ref_totals: list[int]) -> float:
    """The F-score at β = 1 of mean precision and mean recall, in 0..100."""
    precisions = [m / h for m, h in zip(matched, hyp_totals) if h > 0]
    recalls = [m / r for m, r in zip(matched, ref_totals) if r > 0]
    chr_p = sum(precisions) / len(precisions) if precisions else 0.0
    chr_r = sum(recalls) / len(recalls) if recalls else 0.0
    if chr_p == 0.0 and chr_r == 0.0:
        return 0.0
    return 100.0 * 2.0 * chr_p * chr_r / (chr_r + chr_p)


def strip_whitespace(text: str) -> str:
    return "".join(text.split())


def chrf(reference: str, hypothesis: str) -> float:
    """Character n-gram F-score between two strings, in 0..100."""
    ref = strip_whitespace(reference)
    hyp = strip_whitespace(hypothesis)
    if not ref or not hyp:
        raise EmptyInputError("chrf needs non-empty strings after whitespace stripping")
    return _combine(*chrf_counts(ref, hyp))


def _match_counts(gold: Sequence[Constraint], extracted: Sequence[Constraint]) -> tuple[int, int]:
    """(matched variables, matched conditions) of extracted against gold constraints.

    Each is a maximum matching under key equality, which is the clipped
    multiset overlap of the keys: (variable, value) for variables, the
    normalized time condition for conditions.
    """
    variables = Counter((c.variable, c.value) for c in gold) & Counter(
        (c.variable, c.value) for c in extracted
    )
    conditions = Counter(c.condition for c in gold) & Counter(c.condition for c in extracted)
    return sum(variables.values()), sum(conditions.values())


def _mean_ratio(pairs: Iterable[tuple[int, int]]) -> float:
    """Mean of matched / n_gold over the pairs with n_gold > 0, in order; 0.0 if none."""
    ratios = [matched / n_gold for matched, n_gold in pairs if n_gold]
    return sum(ratios) / len(ratios) if ratios else 0.0


def _accuracy(gold: list[GoldRecord], parsed: dict[str, list[Constraint]], side: int) -> float:
    """Mean per-utterance share of gold matched; side 0 is variables, 1 conditions."""
    pairs = []
    for record in gold:
        if record.id not in parsed:
            raise MissingRecordError(f"no parsed entry for record {record.id!r}")
        matched = _match_counts(record.constraints, parsed[record.id])[side]
        pairs.append((matched, len(record.constraints)))
    return _mean_ratio(pairs)


def acc_variables(gold: list[GoldRecord], parsed: dict[str, list[Constraint]]) -> float:
    """Mean per-utterance share of gold constraints whose variable and value were generated."""
    return _accuracy(gold, parsed, 0)


def acc_conditions(gold: list[GoldRecord], parsed: dict[str, list[Constraint]]) -> float:
    """Mean per-utterance share of gold time conditions that were generated."""
    return _accuracy(gold, parsed, 1)


def _rounded(data: dict) -> dict:
    """``data`` with its float values rounded to 4 places, as reports carry them."""
    return {key: round(v, 4) if isinstance(v, float) else v for key, v in data.items()}


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
        return _rounded(asdict(self))


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
        data = _rounded(asdict(self))
        data["prompt"] = data.pop("shot")
        data["per_utterance"] = [u.to_dict() for u in self.per_utterance]
        return data


def gold_reference_string(record: GoldRecord) -> str:
    """Whitespace-joined canonical gold constraints, the chrF reference side."""
    return " ".join(render_constraint(c) for c in record.constraints)


def evaluate_run(
    outputs_path: str | Path,
    gold: list[GoldRecord],
    model_id: str | None = None,
    corpus_chrf: bool = False,
) -> list[EvalReport]:
    """Score an outputs file against the gold corpus, one report per shot.

    chrF is computed between each record's canonical gold constraints and
    the raw response text; the accuracies run on leniently extracted
    constraints.  With ``corpus_chrf`` the n-gram counts are pooled over
    utterances instead of averaging per-utterance scores.  Reports follow
    each shot's first line in the file, and their rows that shot's lines.
    A torn last line, left by a killed run, is skipped (``read_outputs``).
    """
    if model_id is None:
        manifest = read_manifest(outputs_path)
        model_id = manifest.model_id if manifest else "unknown"

    by_id = {record.id: record for record in gold}
    responses: dict[str, dict[str, str]] = {}  # record_id -> shot -> response
    # shot -> record_id -> score, keys in file order, values filled in record by record
    scored: dict[str, dict[str, UtteranceScore | None]] = {}
    for (record_id, shot), (line_number, text) in read_outputs(outputs_path).items():
        if record_id not in by_id:
            raise MissingGoldError(f"record id {record_id!r} not in gold dataset", line_number)
        responses.setdefault(record_id, {})[shot] = text
        scored.setdefault(shot, {})[record_id] = None

    # Record by record, so each gold reference is rendered and counted once.
    pooled = {shot: [[0] * len(CHRF_ORDERS) for _ in range(3)] for shot in scored}
    for record_id, shot_responses in responses.items():
        record = by_id[record_id]
        reference = strip_whitespace(gold_reference_string(record))
        reference_grams = ngram_counts(reference)
        for shot, response in shot_responses.items():
            constraints, issues = extract_constraints(response)
            counts = chrf_counts(reference, strip_whitespace(response), reference_grams)
            pooled[shot] = [
                [a + b for a, b in zip(pool, part)] for pool, part in zip(pooled[shot], counts)
            ]
            matched_variables, matched_conditions = _match_counts(record.constraints, constraints)
            scored[shot][record_id] = UtteranceScore(
                record_id=record_id,
                chrf=_combine(*counts),
                n_gold=len(record.constraints),
                n_parsed=len(constraints),
                n_issues=len(issues),
                matched_variables=matched_variables,
                matched_conditions=matched_conditions,
            )

    reports = []
    for shot, rows in scored.items():
        scores = tuple(rows.values())
        if corpus_chrf:
            shot_chrf = _combine(*pooled[shot])
        else:  # every shot has at least one line
            shot_chrf = sum(u.chrf for u in scores) / len(scores)
        variables = _mean_ratio((u.matched_variables, u.n_gold) for u in scores)
        conditions = _mean_ratio((u.matched_conditions, u.n_gold) for u in scores)
        reports.append(
            EvalReport(
                model_id=model_id,
                shot=shot,
                n_utterances=len(scores),
                chrf=shot_chrf,
                acc_variables=variables,
                acc_conditions=conditions,
                acc_avg=(variables + conditions) / 2,
                per_utterance=scores,
            )
        )
    return reports


TABLE_COLUMNS = ("prompt", "ChrF", "Acc_Variables", "Acc_Conditions", "Acc_Avg")


def render_table(reports: list[EvalReport]) -> str:
    """Aligned plain-text report: a header row, then one row per prompt setting."""
    rows = [TABLE_COLUMNS]
    for report in reports:
        scores = (report.chrf, report.acc_variables, report.acc_conditions, report.acc_avg)
        rows.append((report.shot, *(f"{score:.4f}" for score in scores)))
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    )


def reports_to_json(reports: list[EvalReport]) -> str:
    """Canonical JSON for golden-file comparison: sorted keys, 2-space indent."""
    payload = {"reports": [report.to_dict() for report in reports]}
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
