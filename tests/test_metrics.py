import dataclasses
import json
import random
import string
from collections import Counter
from operator import add

import pytest
from hypothesis import example, given, strategies as st

from pref2constraint.constraints import extract_constraints, parse_constraint
from pref2constraint.dataset import GoldRecord, mock_fixtures_path, pilot_corpus_path
from pref2constraint.llm import MockBackend, run_experiment
from pref2constraint.metrics import (
    EmptyInputError,
    EvalReport,
    MissingGoldError,
    MissingRecordError,
    TABLE_COLUMNS,
    _combine,
    _match_counts,
    acc_conditions,
    acc_variables,
    chrf,
    chrf_counts,
    evaluate_run,
    gold_reference_string,
    reference_grams,
    render_table,
    reports_to_json,
    strip_whitespace,
)
from pref2constraint.prompting import SHOT_LABELS
from pref2constraint.runfile import CorruptOutputsError, RunManifest

from oracles import chrf_counts_oracle, chrf_oracle, combine_oracle, match_counts_oracle
from reference_rows import REFERENCE_BASELINE_ROWS


def record(record_id, *constraint_texts):
    constraints = tuple(parse_constraint(t) for t in constraint_texts)
    return GoldRecord(record_id, f"frase {record_id}", (), constraints, tuple(constraint_texts))


class TestChrf:
    def test_identical_strings_score_100(self):
        for text in ("a", "ab", "s_t = 1 ∀ t", "vincolo di prova", "xy" * 40):
            assert chrf(text, text) == pytest.approx(100.0)

    def test_disjoint_alphabets_score_0(self):
        assert chrf("abc", "xyz") == 0.0

    def test_two_char_swap_scores_50(self):
        # order 1: P = R = 1; order 2: P = R = 0; means 0.5 -> F 50
        assert chrf("ab", "ba") == pytest.approx(50.0)

    def test_whitespace_ignored(self):
        assert chrf("s_t = 1 ∀ t", "s_t=1∀t") == pytest.approx(100.0)

    def test_empty_after_strip_raises(self):
        with pytest.raises(EmptyInputError):
            chrf("   ", "abc")
        with pytest.raises(EmptyInputError):
            chrf("abc", "\n\t ")

    def test_symmetric_at_beta_1(self):
        a, b = "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30", "s_t = 1 forall 7 <= t <= 8,30"
        assert chrf(a, b) == pytest.approx(chrf(b, a))

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(7)
        alphabet = string.ascii_lowercase[:6] + " ∀≤"
        for _ in range(50):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30)))
            if not a.strip() or not b.strip():
                continue
            assert chrf(a, b) == pytest.approx(chrf_oracle(a, b), abs=1e-9)

    @given(
        st.text(alphabet="ab∀ ", min_size=1, max_size=20).filter(str.strip),
        st.text(alphabet="ab∀ ", min_size=1, max_size=20).filter(str.strip),
    )
    def test_oracle_equivalence_property(self, a, b):
        assert chrf(a, b) == pytest.approx(chrf_oracle(a, b), abs=1e-9)

    @given(st.text(alphabet="ab∀≤è", max_size=24), st.text(alphabet="ab∀≤è", max_size=24))
    @example("", "")
    @example("∀", "")
    @example("è", "è")
    @example("aaaa", "aa")
    # Overlapping occurrences, where str.count undercounts the hypothesis side.
    @example("aaaa", "aaa")
    @example("abababab", "ababa")
    @example("aaa∀aaa", "aaaa")
    # Repeats at orders 2 and up, found in the hypothesis fewer times than in the reference.
    @example("abcabc", "cab")
    @example("aaaa", "aab")
    @example("abababab", "babba")
    # Characters repeated in the reference, held fewer times by the hypothesis.
    @example("0:00", "0")
    @example("aaab", "ab")
    @example("0:00", "x0")
    @example("aaab", "bxa")
    @example("0:00", "x1")
    def test_counts_equal_oracle_property(self, a, b):
        assert chrf_counts(a, b) == chrf_counts_oracle(a, b)
        assert chrf_counts(a, b) == chrf_counts(a, b, reference_grams(a))

    @given(
        st.text(alphabet="ab∀", max_size=6),
        st.text(alphabet="ab∀", max_size=12),
        st.text(alphabet="ab∀", max_size=6),
        st.integers(0, 12),
        st.integers(0, 12),
    )
    # Overlapping repeats under containment.
    @example("a", "aaaa", "", 0, 0)
    @example("x", "abab", "x", 0, 0)
    @example("", "aaaa", "", 0, 3)
    # An empty reference inside a hypothesis; an empty hypothesis inside a reference.
    @example("ab", "", "a", 0, 0)
    @example("", "ab∀", "", 2, 1)
    def test_contained_counts_equal_oracle_property(self, prefix, reference, suffix, i, j):
        # The closed form: the response holds the reference, or is part of it.
        for hypothesis in (prefix + reference + suffix, reference[i:j]):
            assert chrf_counts(reference, hypothesis) == chrf_counts_oracle(reference, hypothesis)

    def test_counts_equal_oracle_on_long_hypotheses(self):
        rng = random.Random(16)
        for _ in range(40):
            reference = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 60)))
            hypothesis = "".join(rng.choice("abc") for _ in range(rng.randrange(200, 401)))
            assert chrf_counts(reference, hypothesis) == chrf_counts_oracle(reference, hypothesis)

    def test_pilot_references_against_every_pilot_response(self, pilot_records):
        # Every canonical reference against every mock response, as eval strips them.
        references = [strip_whitespace(gold_reference_string(r)) for r in pilot_records]
        responses = json.loads(mock_fixtures_path().read_text("utf-8")).values()
        hypotheses = [strip_whitespace(text) for text in responses]
        assert (len(references), len(hypotheses)) == (26, 78)
        for reference in references:
            grams = reference_grams(reference)
            for hypothesis in hypotheses:
                expected = chrf_counts_oracle(reference, hypothesis)
                assert chrf_counts(reference, hypothesis, grams) == expected

    def test_combine_equals_oracle_exactly_on_pilot_counts(self, pilot_records):
        # Every canonical reference against every mock response, one by one and pooled.
        references = [strip_whitespace(gold_reference_string(r)) for r in pilot_records]
        responses = json.loads(mock_fixtures_path().read_text("utf-8")).values()
        hypotheses = [strip_whitespace(text) for text in responses]
        assert (len(references), len(hypotheses)) == (26, 78)
        pooled = [[0] * 6 for _ in range(3)]
        for reference in references:
            pooled_reference = [[0] * 6 for _ in range(3)]
            for hypothesis in hypotheses:
                counts = chrf_counts(reference, hypothesis)
                assert _combine(*counts) == combine_oracle(*counts)
                for pools in (pooled, pooled_reference):
                    for pool, part in zip(pools, counts):
                        pool[:] = map(add, pool, part)
            assert _combine(*pooled_reference) == combine_oracle(*pooled_reference)
        assert _combine(*pooled) == combine_oracle(*pooled)

    COUNTS = st.lists(st.integers(0, 40), min_size=6, max_size=6)

    @given(COUNTS, COUNTS, COUNTS)
    @example([0] * 6, [0] * 6, [0] * 6)
    @example([3] * 6, [1, 0, 0, 0, 0, 0], [7, 6, 5, 4, 3, 2])
    def test_combine_equals_oracle_exactly_on_non_increasing_totals(self, matched, hyp, ref):
        # Totals as chrf_counts and pooling give them: non-increasing with the order.
        hyp_totals, ref_totals = sorted(hyp, reverse=True), sorted(ref, reverse=True)
        matched = [min(m, h, r) for m, h, r in zip(matched, hyp_totals, ref_totals)]
        assert _combine(matched, hyp_totals, ref_totals) == combine_oracle(
            matched, hyp_totals, ref_totals
        )

    def test_reference_grams_keep_only_repeats_up_to_the_first_clean_order(self):
        assert reference_grams("abab") == [[("a", 2), ("b", 2)], [("ab", 2)]]
        assert reference_grams("aaaa") == [[("a", 4)], [("aa", 3)], [("aaa", 2)]]
        # "s_t=1∀t" repeats "t" only; a reference with no repeat has an empty table.
        assert reference_grams("s_t=1∀t") == [[("t", 2)]]
        assert reference_grams("ab∀") == reference_grams("") == []
        # Order 7 is past chrF's orders, though "a" * 8 repeats it.
        assert [len(order) for order in reference_grams("a" * 8)] == [1] * 6

    @given(st.text(alphabet="ab∀", max_size=16))
    @example("abcabc")
    @example("abcabcabc")
    @example("aabaab∀aab")
    def test_reference_grams_equal_a_counter_cut_at_the_first_clean_order(self, reference):
        # Per order 1 to 6, (n-gram, count) of each repeated n-gram, in first-seen order.
        expected = []
        for n in range(1, 7):
            counts = Counter(reference[i : i + n] for i in range(len(reference) - n + 1))
            expected.append([(gram, count) for gram, count in counts.items() if count > 1])
        cut = next((n for n, order in enumerate(expected) if not order), len(expected))
        assert reference_grams(reference) == expected[:cut]
        # Past the cut no order repeats, so the cut drops nothing.
        assert not any(expected[cut:])

    def test_score_range(self):
        rng = random.Random(11)
        for _ in range(100):
            a = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 15)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 15)))
            assert 0.0 <= chrf(a, b) <= 100.0 + 1e-9


GOLD = [
    record("u1", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30", "h_t = 21 ∀ t"),
    record("u2", "s_t = 0 ∀ t ≤ 06:00"),
]


class TestAccuracies:
    POOL = (
        "s_t = 1 ∀ t",
        "s_t = 0 ∀ t",
        "h_t = 21 ∀ t",
        "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30",
        "h_t = 21 ∀ 07:00 ≤ t ≤ 08:30",
        "s_t = 0 ∀ t ≤ 06:00",
        "h_t = 19 ∀ t ≥ 22:00",
        "s_t = 1 ∀ t ≥ 22:00",
    )

    def test_match_counts_equal_brute_force_matching(self):
        rng = random.Random(16)
        pool = [parse_constraint(text) for text in self.POOL]
        for _ in range(400):
            gold = [rng.choice(pool) for _ in range(rng.randrange(5))]
            extracted = [rng.choice(pool) for _ in range(rng.randrange(5))]
            assert _match_counts(gold, extracted) == match_counts_oracle(gold, extracted)

    def test_perfect_parse_scores_1(self):
        parsed = {r.id: list(r.constraints) for r in GOLD}
        assert acc_variables(GOLD, parsed) == 1.0
        assert acc_conditions(GOLD, parsed) == 1.0

    def test_hand_case_three_quarters(self):
        # u1: one of two gold constraints matched -> 0.5; u2: matched -> 1.0
        parsed = {
            "u1": [parse_constraint("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30")],
            "u2": [parse_constraint("s_t = 0 ∀ t ≤ 06:00")],
        }
        assert acc_variables(GOLD, parsed) == 0.75
        assert acc_conditions(GOLD, parsed) == 0.75

    def test_all_empty_scores_0(self):
        parsed = {"u1": [], "u2": []}
        assert acc_variables(GOLD, parsed) == 0.0
        assert acc_conditions(GOLD, parsed) == 0.0

    def test_missing_record_raises(self):
        with pytest.raises(MissingRecordError):
            acc_variables(GOLD, {"u1": []})

    def test_condition_matching_is_canonical(self):
        gold = [record("u1", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30")]
        parsed = {"u1": [parse_constraint("h_t = 30 forall 7 <= t <= 8,30")]}
        # different variable and value, same normalized condition
        assert acc_conditions(gold, parsed) == 1.0
        assert acc_variables(gold, parsed) == 0.0

    def test_from_until_distinct(self):
        gold = [record("u1", "s_t = 1 ∀ t ≥ 18:00")]
        parsed = {"u1": [parse_constraint("s_t = 1 ∀ t ≤ 18:00")]}
        assert acc_conditions(gold, parsed) == 0.0
        assert acc_variables(gold, parsed) == 1.0

    def test_variable_matching_needs_value_too(self):
        gold = [record("u1", "s_t = 1 ∀ t")]
        parsed = {"u1": [parse_constraint("s_t = 0 ∀ t")]}
        assert acc_variables(gold, parsed) == 0.0

    def test_no_double_counting(self):
        gold = [record("u1", "s_t = 1 ∀ t")]
        parsed = {"u1": [parse_constraint("s_t = 1 ∀ t"), parse_constraint("s_t = 1 ∀ t")]}
        assert acc_variables(gold, parsed) == 1.0

    def test_adding_correct_parse_never_decreases(self):
        gold = [record("u1", "s_t = 1 ∀ t", "h_t = 21 ∀ t")]
        partial = {"u1": [parse_constraint("s_t = 1 ∀ t")]}
        fuller = {"u1": [parse_constraint("s_t = 1 ∀ t"), parse_constraint("h_t = 21 ∀ t")]}
        assert acc_variables(gold, fuller) >= acc_variables(gold, partial)
        assert acc_conditions(gold, fuller) >= acc_conditions(gold, partial)


class TestReferenceRows:
    def test_avg_is_mean_of_accuracies(self):
        # published 4-digit rounding leaves at most 5e-5 of slack; the tiny
        # extra term absorbs binary float representation of the boundary case
        for row in REFERENCE_BASELINE_ROWS:
            expected = (row.acc_variables + row.acc_conditions) / 2
            assert abs(expected - row.acc_avg) <= 5e-5 + 1e-12, row

    def test_eleven_complete_rows(self):
        assert len(REFERENCE_BASELINE_ROWS) == 11

    def test_scores_in_range(self):
        for row in REFERENCE_BASELINE_ROWS:
            assert 0.0 <= row.chrf <= 100.0
            for value in (row.acc_variables, row.acc_conditions, row.acc_avg):
                assert 0.0 <= value <= 1.0


def write_outputs(path, rows):
    path.write_text(
        "\n".join(json.dumps(row, ensure_ascii=False) for row in rows) + "\n", "utf-8"
    )


class TestEvaluateRun:
    def test_perfect_run(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        rows = [
            {
                "record_id": r.id,
                "shot": "0s",
                "prompt_digest": "x",
                "response_text": gold_reference_string(r),
            }
            for r in GOLD
        ]
        write_outputs(outputs, rows)
        (report,) = evaluate_run(outputs, GOLD, model_id="perfect")
        assert report.chrf == pytest.approx(100.0)
        assert report.acc_variables == 1.0
        assert report.acc_conditions == 1.0
        assert report.acc_avg == 1.0
        assert report.n_utterances == 2

    def test_reports_keyed_by_shot_in_first_seen_order(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        rows = []
        for shot in ("0s", "1s", "fs"):
            for r in GOLD:
                rows.append(
                    {
                        "record_id": r.id,
                        "shot": shot,
                        "prompt_digest": "x",
                        "response_text": gold_reference_string(r),
                    }
                )
        write_outputs(outputs, rows)
        reports = evaluate_run(outputs, GOLD, model_id="m")
        assert [report.shot for report in reports] == ["0s", "1s", "fs"]

    INTERLEAVED = [
        ("u3", "fs", "s_t = 1 ∀ t"),
        ("u1", "0s", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30 h_t = 21 ∀ t"),
        ("u2", "fs", "s_t = 0 ∀ t ≤ 06:00"),
        ("u3", "0s", "h_t = 20 ∀ t"),
        ("u2", "1s", " "),
        ("u1", "fs", "s_t = 1 ∀ t ≥ 07:00"),
        ("u2", "0s", "s_t = 0 ∀ t ≤ 07:00"),
        ("u1", "1s", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30"),
        ("u3", "1s", "nessun vincolo"),
    ]
    ORDER_GOLD = GOLD + [record("u3", "s_t = 1 ∀ t ≥ 18:00", "h_t = 20 ∀ t")]

    def evaluate_lines(self, path, lines, corpus_chrf=False):
        write_outputs(
            path,
            [
                {"record_id": rid, "shot": shot, "prompt_digest": "x", "response_text": text}
                for rid, shot, text in lines
            ],
        )
        return evaluate_run(path, self.ORDER_GOLD, model_id="m", corpus_chrf=corpus_chrf)

    def test_interleaved_lines_keep_each_shots_file_order(self, tmp_path):
        reports = self.evaluate_lines(tmp_path / "run.jsonl", self.INTERLEAVED)
        assert [report.shot for report in reports] == ["fs", "0s", "1s"]
        for report in reports:
            in_file = [rid for rid, shot, _ in self.INTERLEAVED if shot == report.shot]
            assert [u.record_id for u in report.per_utterance] == in_file

    def test_a_row_is_a_dataclass_whose_dict_is_its_rounded_fields(self, tmp_path):
        row = self.evaluate_lines(tmp_path / "run.jsonl", self.INTERLEAVED)[0].per_utterance[0]
        assert dataclasses.replace(row) == row != dataclasses.astuple(row)
        assert row.to_dict() == {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in dataclasses.asdict(row).items()
        }

    def test_shot_major_lines_score_as_interleaved(self, tmp_path):
        shots = ["fs", "0s", "1s"]
        shot_major = sorted(self.INTERLEAVED, key=lambda line: shots.index(line[1]))
        assert shot_major != self.INTERLEAVED
        interleaved_path, shot_major_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert reports_to_json(
            self.evaluate_lines(interleaved_path, self.INTERLEAVED, corpus_chrf=True)
        ) == reports_to_json(self.evaluate_lines(shot_major_path, shot_major, corpus_chrf=True))

        def rows(path, lines):
            return {
                (report.shot, u.record_id): u
                for report in self.evaluate_lines(path, lines)
                for u in report.per_utterance
            }

        assert rows(interleaved_path, self.INTERLEAVED) == rows(shot_major_path, shot_major)

    def test_empty_response_scores_zero_not_error(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        write_outputs(
            outputs,
            [{"record_id": "u2", "shot": "0s", "prompt_digest": "x", "response_text": "  "}],
        )
        (report,) = evaluate_run(outputs, GOLD, model_id="m")
        assert report.chrf == 0.0
        assert report.acc_variables == 0.0

    def test_unknown_record_raises(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        write_outputs(
            outputs,
            [{"record_id": "nope", "shot": "0s", "prompt_digest": "x", "response_text": "y"}],
        )
        with pytest.raises(MissingGoldError):
            evaluate_run(outputs, GOLD, model_id="m")

    def test_corrupt_line_reports_number(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        outputs.write_text('{"record_id": "u1"}\n', "utf-8")
        with pytest.raises(CorruptOutputsError) as excinfo:
            evaluate_run(outputs, GOLD, model_id="m")
        assert excinfo.value.line_number == 1

    @pytest.mark.parametrize(
        "field,value", [("record_id", ["u1"]), ("shot", ["0s"]), ("response_text", 3)]
    )
    def test_wrongly_typed_field_reports_number(self, tmp_path, field, value):
        outputs = tmp_path / "run.jsonl"
        row = {"record_id": "u1", "shot": "0s", "prompt_digest": "x", "response_text": "y"}
        write_outputs(outputs, [row, {**row, "shot": "1s", field: value}])
        with pytest.raises(CorruptOutputsError) as excinfo:
            evaluate_run(outputs, GOLD, model_id="m")
        assert excinfo.value.line_number == 2

    def test_duplicate_pair_reports_second_line(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        row = {"record_id": "u1", "shot": "0s", "prompt_digest": "x", "response_text": "y"}
        write_outputs(outputs, [row, {**row, "record_id": "u2"}, {**row, "shot": "1s"}, row])
        with pytest.raises(CorruptOutputsError, match="duplicate") as excinfo:
            evaluate_run(outputs, GOLD, model_id="m")
        assert excinfo.value.line_number == 4

    @pytest.mark.parametrize(
        "tail",
        [
            b'{"record_id": "u2", "sh',
            b'{"record_id": "u2", "shot": "0s", "prompt_digest": "x", "response_text": "\xe2\x88',
        ],
        ids=["mid-key", "mid-character"],
    )
    def test_torn_last_line_is_skipped(self, tmp_path, tail):
        outputs = tmp_path / "run.jsonl"
        row = {"record_id": "u1", "shot": "0s", "prompt_digest": "x", "response_text": "y"}
        write_outputs(outputs, [row])
        expected = evaluate_run(outputs, GOLD, model_id="m")
        outputs.write_bytes(outputs.read_bytes() + tail)
        assert evaluate_run(outputs, GOLD, model_id="m") == expected

    def test_complete_unterminated_last_line_is_scored(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        row = {"record_id": "u1", "shot": "0s", "prompt_digest": "x", "response_text": "y"}
        write_outputs(outputs, [row, {**row, "record_id": "u2"}])
        expected = evaluate_run(outputs, GOLD, model_id="m")
        outputs.write_bytes(outputs.read_bytes().removesuffix(b"\n"))
        (report,) = evaluate_run(outputs, GOLD, model_id="m")
        assert [report] == expected and report.n_utterances == 2

    LINE = b'{"record_id": "u1", "shot": "0s", "prompt_digest": "x", "response_text": "y"}'

    @pytest.mark.parametrize(
        "lines",
        [
            # an unterminated last line that is JSON is checked like any other
            [LINE, b'{"record_id": "u2"}'],
            [LINE] * 2,
            # only the last line can be torn
            [b'{"record_id": "u1", "sh', LINE.replace(b'"u1"', b'"u2"')],
            [LINE, b'{"record_id": "u2", "sh\n'],
        ],
        ids=["missing-field", "duplicate", "torn-first-line", "terminated-fragment"],
    )
    def test_other_bad_lines_still_raise(self, tmp_path, lines):
        outputs = tmp_path / "run.jsonl"
        outputs.write_bytes(b"\n".join(lines))
        with pytest.raises(CorruptOutputsError) as excinfo:
            evaluate_run(outputs, GOLD, model_id="m")
        assert excinfo.value.line_number == (1 if lines[0].endswith(b"sh") else 2)

    def test_accuracies_equal_public_functions_on_partial_run(self, tmp_path):
        gold = [
            record("u1", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30", "h_t = 21 ∀ t ≥ 22:00", "s_t = 0 ∀ t ≤ 06:00"),
            record("u2", "s_t = 0 ∀ t ≤ 06:00"),
            record("u3"),
            record("u4", "h_t = 20 ∀ t", "s_t = 1 ∀ t ≥ 18:00"),
            record("u5", "s_t = 1 ∀ t"),
        ]
        responses = {
            "0s": [
                ("u4", "h_t = 20 ∀ t ≤ 12:00"),
                ("u3", "nessun vincolo"),
                ("u1", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30\nh_t = 21 ∀ t ≥ 22:00"),
                ("u2", "s_t = 1 ∀ t ≤ 06:00"),
            ],
            "fs": [
                ("u1", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30\nh_t = 21 ∀ t ≥ 22:00\ns_t = 0 ∀ t ≤ 06:00"),
                ("u4", "s_t = 1 ∀ t ≥ 18:00"),
            ],
        }
        outputs = tmp_path / "run.jsonl"
        write_outputs(
            outputs,
            [
                {"record_id": rid, "shot": shot, "prompt_digest": "x", "response_text": text}
                for shot, rows in responses.items()
                for rid, text in rows
            ],
        )
        by_id = {r.id: r for r in gold}
        reports = evaluate_run(outputs, gold, model_id="m")
        assert [report.shot for report in reports] == ["0s", "fs"]
        for report in reports:
            rows = responses[report.shot]
            scored_gold = [by_id[rid] for rid, _ in rows]
            parsed = {rid: extract_constraints(text)[0] for rid, text in rows}
            assert report.acc_variables == acc_variables(scored_gold, parsed)
            assert report.acc_conditions == acc_conditions(scored_gold, parsed)
            assert 0.0 < report.acc_conditions < 1.0

    def test_chrf_uses_raw_response_not_extraction(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        noisy = "Ecco il vincolo: s_t = 0 ∀ t ≤ 06:00 (spero sia utile)"
        write_outputs(
            outputs,
            [{"record_id": "u2", "shot": "0s", "prompt_digest": "x", "response_text": noisy}],
        )
        (report,) = evaluate_run(outputs, GOLD, model_id="m")
        assert report.acc_variables == 1.0  # extraction found the constraint
        assert report.chrf < 100.0  # but the prose hurts the surface score

    def test_corpus_level_flag_changes_aggregation(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        rows = [
            {"record_id": "u1", "shot": "0s", "prompt_digest": "x",
             "response_text": gold_reference_string(GOLD[0])},
            {"record_id": "u2", "shot": "0s", "prompt_digest": "x", "response_text": "zzz"},
        ]
        write_outputs(outputs, rows)
        (mean_report,) = evaluate_run(outputs, GOLD, model_id="m")
        (corpus_report,) = evaluate_run(outputs, GOLD, model_id="m", corpus_chrf=True)
        assert mean_report.chrf != pytest.approx(corpus_report.chrf)

    @pytest.mark.parametrize("seed", range(4))
    def test_per_utterance_chrf_matches_oracle(self, tmp_path, pilot_records, seed):
        rng = random.Random(seed)
        mock_texts = sorted(json.loads(mock_fixtures_path().read_text("utf-8")).values())
        responses = {}
        for r in pilot_records:
            edited = list(gold_reference_string(r))
            for _ in range(rng.randrange(6)):
                edited.insert(rng.randrange(len(edited) + 1), rng.choice("s_th=01∀≤≥:7 \n"))
            responses[r.id] = rng.choice(["".join(edited), rng.choice(mock_texts)])
        blank = rng.choice(pilot_records).id
        responses[blank] = " \n\t"
        no_gold = record("u0")
        responses[no_gold.id] = "s_t = 1 ∀ t"
        gold = pilot_records + [no_gold]
        outputs = tmp_path / "run.jsonl"
        write_outputs(
            outputs,
            [
                {"record_id": rid, "shot": "0s", "prompt_digest": "x", "response_text": text}
                for rid, text in responses.items()
            ],
        )
        (report,) = evaluate_run(outputs, gold, model_id="m")
        by_id = {r.id: r for r in gold}
        assert len(report.per_utterance) == len(gold)
        for score in report.per_utterance:
            if score.record_id in (blank, no_gold.id):
                assert score.chrf == 0.0
            else:
                reference = gold_reference_string(by_id[score.record_id])
                oracle = chrf_oracle(reference, responses[score.record_id])
                assert score.chrf == pytest.approx(oracle, abs=1e-9)

    def test_corpus_chrf_pools_blank_answers(self, tmp_path):
        outputs = tmp_path / "run.jsonl"
        rows = [
            {"record_id": "u1", "shot": "0s", "prompt_digest": "x",
             "response_text": gold_reference_string(GOLD[0])},
            {"record_id": "u2", "shot": "0s", "prompt_digest": "x", "response_text": "  "},
        ]
        write_outputs(outputs, rows)
        (mean_report,) = evaluate_run(outputs, GOLD, model_id="m")
        (corpus_report,) = evaluate_run(outputs, GOLD, model_id="m", corpus_chrf=True)
        # u1 matches every one of its n-grams; blank u2 adds only its reference n-grams
        exact = len("".join(gold_reference_string(GOLD[0]).split()))
        missed = len("".join(gold_reference_string(GOLD[1]).split()))
        orders = range(1, 7)
        matched = [exact - n + 1 for n in orders]
        references = [exact - n + 1 + missed - n + 1 for n in orders]
        assert mean_report.chrf == pytest.approx(50.0)
        assert corpus_report.chrf < 100.0
        assert corpus_report.chrf == pytest.approx(_combine(matched, matched, references))


class TestReportRendering:
    def make_report(self):
        return EvalReport(
            model_id="m",
            shot="0s",
            n_utterances=2,
            chrf=51.0562,
            acc_variables=0.7857,
            acc_conditions=0.2143,
            acc_avg=0.5,
            per_utterance=(),
        )

    def test_table_columns(self):
        table = render_table([self.make_report()])
        header = table.splitlines()[0]
        assert tuple(header.split()) == TABLE_COLUMNS
        assert "0s" in table.splitlines()[1]

    def test_pilot_table_bytes(self, tmp_path, pilot_records):
        outputs = tmp_path / "run.jsonl"
        manifest = RunManifest.create(pilot_corpus_path(), "it", SHOT_LABELS, "mock-model")
        backend = MockBackend.from_file(mock_fixtures_path())
        run_experiment(manifest, pilot_records, backend, outputs)
        assert render_table(evaluate_run(outputs, pilot_records)) == (
            "prompt  ChrF     Acc_Variables  Acc_Conditions  Acc_Avg\n"
            "0s      36.7022  0.4231         0.3846          0.4038\n"
            "1s      54.2644  0.7692         0.7692          0.7692\n"
            "fs      74.3936  0.8462         0.8462          0.8462"
        )

    def test_table_without_reports_is_the_header(self):
        assert render_table([]) == "prompt  ChrF  Acc_Variables  Acc_Conditions  Acc_Avg"

    def test_json_is_single_document(self):
        payload = json.loads(reports_to_json([self.make_report()]))
        assert payload["reports"][0]["prompt"] == "0s"
        assert payload["reports"][0]["acc_avg"] == 0.5
