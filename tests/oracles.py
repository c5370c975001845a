"""Independent brute-force oracles the tests check the library against.

Everything here is written the naive way on purpose — per-slot loops,
list-based clipping, full enumeration — and must not share code with the
implementations under test.
"""

from __future__ import annotations

import hashlib
import unicodedata
from fractions import Fraction
from itertools import combinations, permutations


def chrf_counts_oracle(
    reference: str, hypothesis: str, max_n: int = 6
) -> tuple[list[int], list[int], list[int]]:
    """Per-order (matched, hypothesis total, reference total) by list-removal clipping."""
    matched: list[int] = []
    hyp_totals: list[int] = []
    ref_totals: list[int] = []
    for n in range(1, max_n + 1):
        ref_grams = [reference[i : i + n] for i in range(len(reference) - n + 1)]
        hyp_grams = [hypothesis[i : i + n] for i in range(len(hypothesis) - n + 1)]
        pool = list(ref_grams)
        hits = 0
        for gram in hyp_grams:
            if gram in pool:
                pool.remove(gram)
                hits += 1
        matched.append(hits)
        hyp_totals.append(len(hyp_grams))
        ref_totals.append(len(ref_grams))
    return matched, hyp_totals, ref_totals


def chrf_oracle(reference: str, hypothesis: str, beta: float = 1.0, max_n: int = 6) -> float:
    """Slow chrF: list-removal clipping, skip orders absent from the side's string."""
    ref = "".join(reference.split())
    hyp = "".join(hypothesis.split())
    precisions: list[float] = []
    recalls: list[float] = []
    for matched, hyp_total, ref_total in zip(*chrf_counts_oracle(ref, hyp, max_n)):
        if hyp_total:
            precisions.append(matched / hyp_total)
        if ref_total:
            recalls.append(matched / ref_total)
    chr_p = sum(precisions) / len(precisions) if precisions else 0.0
    chr_r = sum(recalls) / len(recalls) if recalls else 0.0
    if chr_p == 0.0 and chr_r == 0.0:
        return 0.0
    return 100.0 * (1 + beta**2) * chr_p * chr_r / (chr_r + beta**2 * chr_p)


def combine_oracle(matched: list[int], hyp_totals: list[int], ref_totals: list[int]) -> float:
    """The F-score at β = 1 of mean precision and mean recall, each mean over the
    orders whose total is positive, picked out one by one."""
    precisions = [m / h for m, h in zip(matched, hyp_totals) if h > 0]
    recalls = [m / r for m, r in zip(matched, ref_totals) if r > 0]
    chr_p = sum(precisions) / len(precisions) if precisions else 0.0
    chr_r = sum(recalls) / len(recalls) if recalls else 0.0
    if chr_p == 0.0 and chr_r == 0.0:
        return 0.0
    return 100.0 * 2.0 * chr_p * chr_r / (chr_r + chr_p)


def match_counts_oracle(gold, extracted) -> tuple[int, int]:
    """(matched variables, matched conditions) by brute-force maximum matching.

    Pads the shorter side with None and tries every permutation of the
    extracted side against the gold side, counting the pairs whose keys are
    equal: (variable, value) for variables, the time condition for
    conditions.  Meant for at most 4 constraints a side.
    """
    size = max(len(gold), len(extracted))
    gold_side = list(gold) + [None] * (size - len(gold))
    extracted_side = list(extracted) + [None] * (size - len(extracted))
    best_variables = best_conditions = 0
    for order in permutations(extracted_side):
        variables = conditions = 0
        for g, e in zip(gold_side, order):
            if g is None or e is None:
                continue
            if g.variable == e.variable and g.value == e.value:
                variables += 1
            if g.condition == e.condition:
                conditions += 1
        best_variables = max(best_variables, variables)
        best_conditions = max(best_conditions, conditions)
    return best_variables, best_conditions


def prompt_oracle(template_text: str, target: str, examples) -> str:
    """A prompt filled in by string replacement, one piece of the template at a time.

    ``target`` is the tagged target utterance and ``examples`` a list of
    (tagged utterance, canonical gold lines).  The labels come from the
    template's lines: the example label is the text before " {{target}}" on
    its line, the constraints label the line after it, and the examples
    header the line above "{{examples}}".  An example block is "<example
    label> <utterance>", the constraints label and the gold lines, one per
    line; the blocks, a blank line apart, replace "{{examples}}".  With no
    examples, the header, the placeholder and the blank line after them are
    replaced by nothing.  The template is cut at each "{{target}}" first and
    each piece filled on its own, then the pieces are joined by the target,
    so a placeholder written in an utterance stays as written.
    """
    lines = template_text.split("\n")
    target_line = [i for i, line in enumerate(lines) if line.endswith(" {{target}}")][0]
    example_label = lines[target_line][: -len(" {{target}}")]
    constraints_label = lines[target_line + 1]
    examples_header = lines[lines.index("{{examples}}") - 1]
    if examples:
        blocks = []
        for utterance, gold_lines in examples:
            block = example_label + " " + utterance + "\n" + constraints_label
            for gold_line in gold_lines:
                block += "\n" + gold_line
            blocks.append(block)
        old, new = "{{examples}}", "\n\n".join(blocks)
    else:
        old, new = examples_header + "\n{{examples}}\n\n", ""
    filled = [piece.replace(old, new) for piece in template_text.split("{{target}}")]
    return target.join(filled)


def time_literal_oracle(literal: str, position: int) -> tuple[str, object]:
    """What reading a time literal that starts at ``position`` gives.

    The literal is one or two digits, optionally followed by a separator
    and two digits.  Digits of any script count, each read through
    ``unicodedata.decimal``.  Returns ("TimePoint", minutes) or
    (error class name, message): minutes past 59 are a syntax error, a
    time past 24:00 a range error.
    """
    hour_digits, minute_digits = literal, ""
    for index, char in enumerate(literal):
        if not char.isdecimal():
            hour_digits, minute_digits = literal[:index], literal[index + 1 :]
            break
    hour = minute = 0
    for char in hour_digits:
        hour = hour * 10 + unicodedata.decimal(char)
    for char in minute_digits:
        minute = minute * 10 + unicodedata.decimal(char)
    if minute >= 60:
        return (
            "ConstraintSyntaxError",
            f"invalid minutes in time literal '{literal}' (at position {position})",
        )
    if hour * 60 + minute > 24 * 60:
        return "RangeError", f"time literal '{literal}' is past 24:00"
    return "TimePoint", hour * 60 + minute


def draw_oracle(dataset, target_id: str, k: int, seed: int, draws: int = 512) -> list[str]:
    """Example selection from a fixed-length hash stream, one call per (target, k).

    Leaves out every record with the target's id and every record sharing a
    gold constraint with the first one.  Builds the whole stream of ``draws``
    indices first: draw d is the hex SHA-256 of "seed:target id:d", its first
    16 hex digits read as an integer modulo the record count, indexing the
    sorted record ids.  Then keeps each id's first appearance, drops the
    left-out ids and keeps the first k.  Raises ValueError when fewer than k
    records are left, and AssertionError if the stream is too short to pick k.
    """
    target = next((record for record in dataset if record.id == target_id), None)
    taboo = set(target.constraints) if target is not None else set()
    candidates = {
        record.id
        for record in dataset
        if record.id != target_id and not (taboo & set(record.constraints))
    }
    if k > len(candidates):
        raise ValueError(f"need {k} examples, only {len(candidates)} available")
    if k == 0:
        return []
    ids = sorted(record.id for record in dataset)
    stream = []
    for draw in range(draws):
        key = f"{seed}:{target_id}:{draw}".encode("utf-8")
        stream.append(ids[int(hashlib.sha256(key).hexdigest()[:16], 16) % len(ids)])
    first_seen = []
    for record_id in stream:
        if record_id not in first_seen:
            first_seen.append(record_id)
    picked = [record_id for record_id in first_seen if record_id in candidates]
    if len(picked) < k:
        raise AssertionError(f"{draws} draws picked only {len(picked)} of {k} examples")
    return picked[:k]


def _window_minutes(condition) -> tuple[int, int]:
    from pref2constraint.constraints import All, From, Range, Until

    if isinstance(condition, All):
        return 0, 1440
    if isinstance(condition, Range):
        return condition.start.minutes, condition.end.minutes
    if isinstance(condition, From):
        return condition.start.minutes, 1440
    if isinstance(condition, Until):
        return 0, condition.end.minutes
    raise AssertionError(condition)


def ground_oracle(constraints, slot_minutes: int):
    """Per-slot containment check for every slot and constraint.

    Returns (state, temperature, conflicts) where conflicts is a list of
    (slot index, variable name) pairs in first-seen order.
    """
    from pref2constraint.constraints import Variable

    num_slots = 1440 // slot_minutes
    state: list[int | None] = [None] * num_slots
    temperature: list[float | None] = [None] * num_slots
    conflicts: list[tuple[int, str]] = []
    for constraint in constraints:
        lo, hi = _window_minutes(constraint.condition)
        for slot in range(num_slots):
            slot_start = slot * slot_minutes
            slot_end = slot_start + slot_minutes
            if not (lo <= slot_start and slot_end <= hi):
                continue
            if constraint.variable is Variable.STATE:
                value = constraint.value.value
                if state[slot] is None:
                    state[slot] = value
                elif state[slot] != value:
                    conflicts.append((slot, "state"))
            else:
                value = constraint.value.value
                if temperature[slot] is None:
                    temperature[slot] = value
                elif temperature[slot] != value:
                    conflicts.append((slot, "temperature"))
    return state, temperature, conflicts


def schedule_oracle(problem):
    """Enumerate every admissible placement and keep the best one.

    Considers all contiguous windows (or all slot combinations for a
    non-contiguous appliance), filters by the forced slots with explicit
    per-slot checks, scores exactly in Fraction with a separate per-slot
    loop over each slot's on and off value, and breaks exact ties toward
    the lexicographically smallest sorted slot list.  Returns None when
    nothing is admissible, else the slots and their exact score.
    """
    n = problem.horizon.num_slots
    duration = problem.appliance.duration_slots
    appliance_kwh = Fraction(problem.appliance.power_kw * problem.horizon.slot_minutes / 60.0)
    pv = [Fraction(value) for value in problem.pv]
    base_load = [Fraction(value) for value in problem.base_load]

    if problem.appliance.contiguous:
        candidates = [
            list(range(start, start + duration)) for start in range(0, n - duration + 1)
        ]
    else:
        candidates = [list(combo) for combo in combinations(range(n), duration)]

    # Each slot's exact self-consumption with the appliance on, and with it off.
    on = [min(p, b + appliance_kwh) for p, b in zip(pv, base_load)]
    off = [min(p, b) for p, b in zip(pv, base_load)]

    def admissible(slots: set[int]) -> bool:
        for slot in range(n):
            forced = problem.forced.state[slot]
            if forced == 1 and slot not in slots:
                return False
            if forced == 0 and slot in slots:
                return False
        return True

    def score(slots: set[int]) -> Fraction:
        total = Fraction(0)
        for slot in range(n):
            total += on[slot] if slot in slots else off[slot]
        return total

    best = None
    best_score = None
    for candidate in candidates:
        slots = set(candidate)
        if not admissible(slots):
            continue
        value = score(slots)
        if best is None or value > best_score or (value == best_score and candidate < best):
            best = candidate
            best_score = value
    if best is None:
        return None
    return sorted(best), best_score
