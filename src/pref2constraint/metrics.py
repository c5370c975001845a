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

A record's chrF reference is its canonical gold constraints joined by
spaces (``gold_reference_string``).  The record renders them once and keeps
them (``GoldRecord.canonical``): the lines its prompt example blocks show.

When one side contains the other, every n-gram of the contained side
matches, so a line where the response holds the reference, or is part of
it, costs one containment test and no search.  Otherwise only n-grams of the
reference can match, so ``chrf_counts`` scans the reference once, finding at
each offset the longest slice of up to 6 characters that the response
contains: an offset whose match is n long or more holds a matching n-gram.
Only an n-gram that repeats in the reference can match more often than the
response holds it, so ``reference_grams`` lists the repeated n-grams alone,
with their counts, and the response is searched for each to clip it.  It
keeps its last table, and a record's lines are scored one after another, so
a record builds it once, only if a line takes the scan.  No n-gram objects
are built for the response.

The accuracy metrics compare extracted constraints against gold per
utterance: a maximum matching under an equality predicate — variable kind
plus assigned value for ``acc_variables``, the normalized time condition
for ``acc_conditions`` — divided by the number of gold constraints, then
averaged over utterances.  ``acc_avg`` is the plain mean of the two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cache, lru_cache
from itertools import accumulate
from operator import add, truediv
from pathlib import Path
from typing import Iterable, Sequence

from .constraints import Constraint, extract_constraints
from .dataset import GoldRecord, load_dataset, pilot_corpus_path
from .errors import LineError, Pref2ConstraintError, encodable
from .runfile import find_corpus, read_manifest, read_outputs


class MetricsError(Pref2ConstraintError):
    pass


class EmptyInputError(MetricsError):
    pass


class MissingRecordError(MetricsError):
    pass


class MissingGoldError(MetricsError, LineError):
    pass


CHRF_ORDERS = range(1, 7)  # character n-gram orders 1..6

# Per order from 1: (n-gram, count) of the reference's repeated n-grams, up to the
# first order with none.
ReferenceGrams = list[list[tuple[str, int]]]


@lru_cache(maxsize=1)
def reference_grams(reference: str) -> ReferenceGrams:
    """Per order from 1: (n-gram, count) of the n-grams that occur more than once in ``reference``.

    Every n-gram of each order is counted, up to the first order with no repeat:
    a repeated (n+1)-gram's n-prefix repeats too, so no higher order has one.
    The last table is kept and shared, so callers only read it.
    """
    grams: ReferenceGrams = []
    for n in CHRF_ORDERS:
        counts: dict[str, int] = {}
        for i in range(len(reference) - n + 1):
            gram = reference[i : i + n]
            counts[gram] = counts.get(gram, 0) + 1
        repeated = [(gram, count) for gram, count in counts.items() if count > 1]
        if not repeated:
            break
        grams.append(repeated)
    return grams


@cache
def _totals(length: int) -> tuple[int, ...]:
    """Per order 1 to 6: the n-gram count of a string of ``length``, max(0, length - n + 1)."""
    return tuple(max(0, length - n + 1) for n in CHRF_ORDERS)


def chrf_counts(reference: str, hypothesis: str) -> tuple[list[int], list[int], list[int]]:
    """Per-order (matched, hypothesis total, reference total) n-gram counts.

    A string of length L has max(0, L - n + 1) n-grams of order n; only the
    clipped overlap needs counting.  When one side contains the other, the
    overlap is the contained side's totals, with no search: each of its
    n-gram occurrences has its own occurrence at the same offset in the
    containing side, so no count is clipped.  This holds for an empty side too.

    Otherwise only n-grams of the reference can match, so the reference is
    scanned once: at each offset, the longest reference slice of at most 6
    characters that the hypothesis contains.  The search there starts one
    shorter than the previous offset's match, since a suffix of a match is a
    match too.  An offset whose match is at least n long holds a matching
    n-gram.  Only a repeated n-gram can then be overcounted: one occurring c
    times in the reference and f times in the hypothesis, 0 < f < c,
    overlapping occurrences included (``str.count`` skips overlaps, so f is
    found with ``str.find``, up to c), gives back c - f.  No n-gram objects
    are built for the hypothesis.  The repeated n-grams come from
    ``reference_grams``, which keeps the table of the last reference.
    """
    ref_totals = _totals(len(reference))
    hyp_totals = _totals(len(hypothesis))
    if reference in hypothesis:
        return list(ref_totals), list(hyp_totals), list(ref_totals)
    if hypothesis in reference:
        return list(hyp_totals), list(hyp_totals), list(ref_totals)
    longest = [0] * 7  # match length -> number of reference offsets with that longest match
    stop = 0  # end of the previous offset's match
    end = len(reference)
    for i in range(end):
        if stop < i:
            stop = i
        cap = i + 6
        if cap > end:
            cap = end
        while stop < cap and reference[i : stop + 1] in hypothesis:
            stop += 1
        longest[stop - i] += 1
    # Per order n from 1: the offsets whose match is at least n long.
    matched = list(accumulate(reversed(longest)))[-2::-1]
    find = hypothesis.find
    for order, repeated in enumerate(reference_grams(reference)):
        for gram, count in repeated:
            found = 0
            at = find(gram)
            while at >= 0:
                found += 1
                if found == count:
                    break
                at = find(gram, at + 1)
            if found:
                matched[order] -= count - found
    return matched, list(hyp_totals), list(ref_totals)


def _combine(matched: list[int], hyp_totals: list[int], ref_totals: list[int]) -> float:
    """The F-score at β = 1 of mean precision and mean recall, in 0..100.

    A side's totals do not grow with the order, for one line and summed over
    lines alike, so its orders with n-grams are the leading positive totals:
    each mean divides over those, in order.
    """
    p_orders = len(hyp_totals) - hyp_totals.count(0)
    r_orders = len(ref_totals) - ref_totals.count(0)
    chr_p = sum(map(truediv, matched, hyp_totals[:p_orders])) / p_orders if p_orders else 0.0
    chr_r = sum(map(truediv, matched, ref_totals[:r_orders])) / r_orders if r_orders else 0.0
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
    normalized time condition for conditions.  Each gold key that is still
    among the extracted keys takes one of them out.
    """
    variables = [(c.variable, c.value) for c in extracted]
    conditions = [c.condition for c in extracted]
    matched_variables = matched_conditions = 0
    for c in gold:
        key = (c.variable, c.value)
        if key in variables:
            variables.remove(key)
            matched_variables += 1
        if c.condition in conditions:
            conditions.remove(c.condition)
            matched_conditions += 1
    return matched_variables, matched_conditions


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


def _rounded(row) -> dict:
    """The fields of dataclass ``row``, uncopied, floats rounded to 4 places as in reports."""
    values = ((f.name, getattr(row, f.name)) for f in fields(row))
    return {key: round(v, 4) if isinstance(v, float) else v for key, v in values}


# Not frozen: evaluate_run builds one per outputs line, and a frozen __init__ sets
# each field through object.__setattr__.
@dataclass(slots=True)
class UtteranceScore:
    record_id: str
    chrf: float
    n_gold: int
    n_parsed: int
    n_issues: int
    matched_variables: int
    matched_conditions: int

    def to_dict(self) -> dict:
        return _rounded(self)


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
        encodable(self.model_id, "'model_id'", MetricsError)
        if not 0.0 <= self.chrf <= 100.0:
            raise MetricsError(f"chrf {self.chrf} outside 0..100")
        for name in ("acc_variables", "acc_conditions", "acc_avg"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise MetricsError(f"{name} {value} outside 0..1")

    def to_dict(self) -> dict:
        data = _rounded(self)
        data["prompt"] = data.pop("shot")
        data["per_utterance"] = [u.to_dict() for u in self.per_utterance]
        return data


def gold_reference_string(record: GoldRecord) -> str:
    """Whitespace-joined canonical gold constraints, the chrF reference side."""
    return " ".join(record.canonical)


def evaluate_run(
    outputs_path: str | Path,
    gold: list[GoldRecord] | None = None,
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

    A ``gold`` or ``model_id`` left out comes from the run's manifest, read
    once: the corpus it names (``find_corpus``) and its model id.  Without a
    manifest they are the pilot corpus and the model id "unknown".
    """
    if gold is None or model_id is None:
        manifest = read_manifest(outputs_path)
        if gold is None:
            corpus = find_corpus(outputs_path, manifest) if manifest else pilot_corpus_path()
            gold = load_dataset(corpus)
        if model_id is None:
            model_id = manifest.model_id if manifest else "unknown"

    by_id = {record.id: record for record in gold}
    responses: dict[str, dict[str, str]] = {}  # record_id -> shot -> response
    # shot -> record_id -> score, keys in file order, values filled in record by record
    scored: dict[str, dict[str, UtteranceScore | None]] = {}
    for (record_id, shot), (line_number, line) in read_outputs(outputs_path).items():
        if record_id not in by_id:
            raise MissingGoldError(f"record id {record_id!r} not in gold dataset", line_number)
        responses.setdefault(record_id, {})[shot] = line.response_text
        scored.setdefault(shot, {})[record_id] = None

    # Record by record, so each gold reference is rendered and its repeats counted once.
    # shot -> running per-order (matched, hypothesis total, reference total) sums
    pooled = {shot: [[0] * len(CHRF_ORDERS) for _ in range(3)] for shot in scored}
    for record_id, shot_responses in responses.items():
        record = by_id[record_id]
        reference = strip_whitespace(gold_reference_string(record))
        for shot, response in shot_responses.items():
            constraints, issues = extract_constraints(response)
            hypothesis = strip_whitespace(response)
            counts = chrf_counts(reference, hypothesis)
            if corpus_chrf:
                for pool, part in zip(pooled[shot], counts):
                    pool[:] = map(add, pool, part)
            scored[shot][record_id] = UtteranceScore(
                record_id,
                _combine(*counts),
                len(record.constraints),
                len(constraints),
                len(issues),
                *_match_counts(record.constraints, constraints),
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
