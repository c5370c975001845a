import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pref2constraint import constraints as grammar
from pref2constraint.constraints import (
    All,
    Binary,
    Constraint,
    ConstraintSyntaxError,
    Degrees,
    ExtractionIssue,
    From,
    IssueKind,
    PairingError,
    Range,
    RangeError,
    TimePoint,
    Until,
    Variable,
    canonicalize,
    extract_constraints,
    parse_constraint,
    render_constraint,
)

from oracles import time_literal_oracle


def tp(hour, minute=0):
    return TimePoint.of(hour, minute)


class TestStrictParse:
    def test_all_day_state(self):
        assert parse_constraint("s_t = 1 ∀ t") == Constraint(
            Variable.STATE, Binary(1), All()
        )

    def test_range_with_unicode_ops(self):
        assert parse_constraint("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30") == Constraint(
            Variable.STATE, Binary(1), Range(tp(7), tp(8, 30))
        )

    def test_from_with_ascii_spellings(self):
        assert parse_constraint("h_t = 21 forall t >= 18:00") == Constraint(
            Variable.TEMPERATURE, Degrees(21.0), From(tp(18))
        )

    def test_until(self):
        assert parse_constraint("s_t = 0 ∀ t ≤ 22:00") == Constraint(
            Variable.STATE, Binary(0), Until(tp(22))
        )

    @pytest.mark.parametrize(
        "literal,minutes",
        [("7", 420), ("07:00", 420), ("8.30", 510), ("8,30", 510), ("24:00", 1440), ("0", 0)],
    )
    def test_time_literal_forms(self, literal, minutes):
        constraint = parse_constraint(f"s_t = 1 ∀ t ≤ {literal}")
        assert constraint.condition == Until(TimePoint(minutes))

    def test_whitespace_is_optional(self):
        assert parse_constraint("h_t=21∀t") == parse_constraint("h_t = 21 ∀ t")

    def test_decimal_comma_temperature(self):
        constraint = parse_constraint("h_t = 19,5 ∀ t")
        assert constraint.value == Degrees(19.5)

    def test_binary_two_is_pairing_error(self):
        with pytest.raises(PairingError):
            parse_constraint("s_t = 2 ∀ t")

    def test_temperature_out_of_bounds(self):
        with pytest.raises(RangeError):
            parse_constraint("h_t = 95 ∀ t")

    @pytest.mark.parametrize("text,value", [("h_t = 10 ∀ t", 10.0), ("h_t = 60 ∀ t", 60.0)])
    def test_temperature_range_ends_are_allowed(self, text, value):
        assert parse_constraint(text).value == Degrees(value)

    @pytest.mark.parametrize("text", ["h_t = 9,5 ∀ t", "h_t = 60,5 ∀ t"])
    def test_temperature_just_outside_the_range(self, text):
        with pytest.raises(RangeError):
            parse_constraint(text)

    def test_reversed_range_rejected(self):
        with pytest.raises(RangeError):
            parse_constraint("s_t = 1 ∀ 09:00 ≤ t ≤ 08:00")

    def test_empty_range_rejected(self):
        with pytest.raises(RangeError):
            parse_constraint("s_t = 1 ∀ 09:00 ≤ t ≤ 09:00")

    def test_time_past_midnight_rejected(self):
        with pytest.raises(RangeError):
            parse_constraint("s_t = 1 ∀ t ≤ 24:30")

    def test_bad_minutes_rejected(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint("s_t = 1 ∀ t ≤ 8,75")

    SYNTAX_ERROR_POSITIONS = {
        "": 0,
        "s_t": 3,
        "s_t = 1": 7,
        "x_t = 1 ∀ t": 0,
        "s_t = 1 ∀ banana": 10,
        "s_t = 1 ∀ t extra": 12,
        "s_t = 1 for all t": 8,
        "S_T = 1 ∀ t": 0,
        "s_t = 1 ∀ t ≤": 13,
    }

    @pytest.mark.parametrize("text", SYNTAX_ERROR_POSITIONS)
    def test_syntax_errors_carry_position(self, text):
        with pytest.raises(ConstraintSyntaxError) as excinfo:
            parse_constraint(text)
        assert excinfo.value.position == self.SYNTAX_ERROR_POSITIONS[text]

    def test_grammar_decides_before_pairing(self):
        # Two faults: a state value of 2 and no condition.  The grammar is
        # checked first, so the syntax error wins.
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint("s_t = 2 ∀ banana")

    def test_mixed_comparator_spellings(self):
        a = parse_constraint("s_t = 1 ∀ 7 <= t ≤ 8,30")
        b = parse_constraint("s_t = 1 forall 07:00 ≤ t <= 08:30")
        assert a == b


class TestRender:
    def test_until_canonical(self):
        constraint = Constraint(Variable.STATE, Binary(0), Until(tp(22)))
        assert render_constraint(constraint) == "s_t = 0 ∀ t ≤ 22:00"

    def test_decimal_temperature(self):
        constraint = Constraint(Variable.TEMPERATURE, Degrees(19.5), All())
        assert render_constraint(constraint) == "h_t = 19.5 ∀ t"

    def test_integral_temperature_has_no_decimal_point(self):
        constraint = Constraint(Variable.TEMPERATURE, Degrees(21.0), All())
        assert render_constraint(constraint) == "h_t = 21 ∀ t"

    def test_range_zero_padded(self):
        constraint = Constraint(Variable.STATE, Binary(1), Range(tp(7), tp(8, 30)))
        assert render_constraint(constraint) == "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30"

    def test_end_of_day_renders_24(self):
        constraint = Constraint(Variable.STATE, Binary(1), Range(tp(23), TimePoint(1440)))
        assert render_constraint(constraint) == "s_t = 1 ∀ 23:00 ≤ t ≤ 24:00"


class TestCanonicalize:
    def test_italian_time_notation(self):
        assert canonicalize("s_t = 1 forall 7 <= t <= 8,30") == "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30"

    def test_whitespace_normalization(self):
        assert canonicalize("h_t=21∀t") == "h_t = 21 ∀ t"

    def test_propagates_parse_errors(self):
        with pytest.raises(PairingError):
            canonicalize("s_t = 2 ∀ t")


# --- property tests -------------------------------------------------------

time_points = st.integers(min_value=0, max_value=1440).map(TimePoint)
bounded_pairs = st.tuples(
    st.integers(min_value=0, max_value=1439), st.integers(min_value=1, max_value=1440)
).filter(lambda pair: pair[0] < pair[1])

conditions = st.one_of(
    st.just(All()),
    bounded_pairs.map(lambda pair: Range(TimePoint(pair[0]), TimePoint(pair[1]))),
    time_points.map(From),
    time_points.map(Until),
)

state_constraints = st.tuples(st.sampled_from([0, 1]), conditions).map(
    lambda pair: Constraint(Variable.STATE, Binary(pair[0]), pair[1])
)
# one-decimal temperatures inside the default bounds, so repr round-trips
temperature_constraints = st.tuples(
    st.integers(min_value=100, max_value=600), conditions
).map(lambda pair: Constraint(Variable.TEMPERATURE, Degrees(pair[0] / 10), pair[1]))

constraints_strategy = st.one_of(state_constraints, temperature_constraints)


@given(constraints_strategy)
def test_parse_render_round_trip(constraint):
    assert parse_constraint(render_constraint(constraint)) == constraint


@given(constraints_strategy)
def test_canonicalize_is_idempotent(constraint):
    text = render_constraint(constraint)
    assert canonicalize(canonicalize(text)) == canonicalize(text)


@given(
    constraints_strategy,
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30),
    st.text(
        alphabet=st.characters(
            blacklist_characters="≤≥<>=0123456789", blacklist_categories=("Cs",)
        ),
        max_size=30,
    ),
)
def test_lenient_extraction_recovers_strict_constraint(constraint, prefix, suffix):
    # Lenient ⊇ strict: the canonical string survives arbitrary surrounding
    # prose.  The suffix avoids comparators and digits, which could extend
    # the match into a different (longer) valid constraint.
    text = prefix + " " + render_constraint(constraint) + " " + suffix
    extracted, _ = extract_constraints(text)
    assert constraint in extracted


# Each letter of a canonical constraint and the letters that read as it in any case.
_CASE_VARIANTS = {"s": "sSſ", "h": "hH", "t": "tT"}


@given(constraints_strategy, st.data())
def test_lenient_extraction_reads_every_letter_case(constraint, data):
    text = "".join(
        data.draw(st.sampled_from(_CASE_VARIANTS[char])) if char in _CASE_VARIANTS else char
        for char in render_constraint(constraint)
    )
    assert extract_constraints(text) == ([constraint], [])


@given(st.sampled_from([0, 1]), st.floats(min_value=10.0, max_value=60.0))
def test_pairing_soundness(binary_value, degrees_value):
    with pytest.raises(PairingError):
        Constraint(Variable.STATE, Degrees(degrees_value), All())
    with pytest.raises(PairingError):
        Constraint(Variable.TEMPERATURE, Binary(binary_value), All())


# --- lenient extraction ---------------------------------------------------


class TestExtract:
    def test_prose_wrapped(self):
        constraints, issues = extract_constraints(
            "Il vincolo è: s_t = 1 ∀ 07:00 ≤ t ≤ 08:30."
        )
        assert constraints == [
            Constraint(Variable.STATE, Binary(1), Range(tp(7), tp(8, 30)))
        ]
        assert issues == []

    def test_empty_input(self):
        assert extract_constraints("") == ([], [])

    def test_truncated_range_reported(self):
        constraints, issues = extract_constraints("s_t = 1 ∀ 09:00 ≤ t ≤")
        assert constraints == []
        assert [issue.kind for issue in issues] == [IssueKind.TRUNCATED]

    @pytest.mark.parametrize(
        "text",
        [
            # the cut-off responses in the shipped mock fixtures
            "s_t = 1 ∀ ",
            "h_t = 45 ∀",
            "s_t = 0 ∀ 12:00 ",
            "s_t = 1 ∀ 11:45 ",
            "s_t = 1 ∀ 05:00 ",
            "s_t = 0 ∀ 18:00 ",
            "h_t = 23 ∀ 12:15",
            # cut inside the quantifier or after the first time of an interval
            "s_t = 1 for",
            "s_t = 1 fora",
            "s_t = 1 for al",
            "s_t = 1 ∀ 07",
            "s_t = 1 ∀ 07:00 ≤",
            # cut after a comparator or inside a number or time: no shorter constraint
            "s_t = 1 ∀ t ≤",
            "s_t = 1 ∀ t <",
            "s_t = 1 ∀ 07:00 ≤ t ≤ 08:3",
            "h_t = 19,",
        ],
    )
    def test_cut_off_output_is_truncated(self, text):
        constraints, issues = extract_constraints("ecco: " + text)
        assert constraints == []
        assert [issue.kind for issue in issues] == [IssueKind.TRUNCATED]

    @pytest.mark.parametrize(
        "text", ["s_t = 1 ∀ t ≤ , poi", "s_t = 1 ∀ t ≤ 8:3 circa", "s_t = 1 ∀ t ≥ 123"]
    )
    def test_comparator_or_digit_after_token_is_malformed(self, text):
        constraints, issues = extract_constraints(text)
        assert constraints == []
        assert [issue.kind for issue in issues] == [IssueKind.MALFORMED]

    def test_truncated_mid_value(self):
        constraints, issues = extract_constraints("ecco: s_t =")
        assert constraints == []
        assert [issue.kind for issue in issues] == [IssueKind.TRUNCATED]

    def test_multiple_constraints_in_order(self):
        text = "h_t = 21 forall t >= 18:00\ns_t = 0 ∀ t ≤ 06:00"
        constraints, issues = extract_constraints(text)
        assert [render_constraint(c) for c in constraints] == [
            "h_t = 21 ∀ t ≥ 18:00",
            "s_t = 0 ∀ t ≤ 06:00",
        ]
        assert issues == []

    def test_markdown_fences_and_quotes(self):
        text = "```\n«s_t = 1 for all t»\n```"
        constraints, _ = extract_constraints(text)
        assert constraints == [Constraint(Variable.STATE, Binary(1), All())]

    def test_pairing_issue_is_data_not_exception(self):
        constraints, issues = extract_constraints("s_t = 2 ∀ t")
        assert constraints == []
        assert [issue.kind for issue in issues] == [IssueKind.PAIRING]

    def test_out_of_bounds_temperature_issue(self):
        constraints, issues = extract_constraints("h_t = 95 ∀ t")
        assert constraints == []
        assert [issue.kind for issue in issues] == [IssueKind.RANGE]

    @pytest.mark.parametrize("text", ["h_t = 9,5 ∀ t", "h_t = 60,5 ∀ t"])
    def test_temperature_just_outside_the_range_is_issue(self, text):
        constraints, issues = extract_constraints(text)
        assert constraints == []
        assert [issue.kind for issue in issues] == [IssueKind.RANGE]

    @pytest.mark.parametrize("text", ["h_t = 10 ∀ t", "h_t = 60 ∀ t"])
    def test_temperature_range_ends_are_extracted(self, text):
        assert extract_constraints(text) == ([parse_constraint(text)], [])

    def test_malformed_candidate_mid_text(self):
        constraints, issues = extract_constraints("s_t = acceso ∀ t, mi pare")
        assert constraints == []
        assert [issue.kind for issue in issues] == [IssueKind.MALFORMED]

    def test_mixed_good_and_bad(self):
        text = "s_t = 2 ∀ t e poi s_t = 1 ∀ t ≥ 14:00"
        constraints, issues = extract_constraints(text)
        assert constraints == [
            Constraint(Variable.STATE, Binary(1), From(tp(14)))
        ]
        assert len(issues) == 1

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("S_T = 1 ∀ t", Constraint(Variable.STATE, Binary(1), All())),
            ("H_t = 45 ∀ t", Constraint(Variable.TEMPERATURE, Degrees(45.0), All())),
        ],
    )
    def test_upper_case_variable_is_read(self, text, expected):
        assert extract_constraints("ecco: " + text) == ([expected], [])

    def test_long_s_variable_is_read_as_s_t(self):
        # Under IGNORECASE 'ſ' (U+017F) matches 's'; it must be read as s_t, not raise.
        assert extract_constraints("ſ_t = 1 ∀ t") == (
            [Constraint(Variable.STATE, Binary(1), All())], []
        )

    def test_bare_t_does_not_steal_bounded_t(self):
        constraints, _ = extract_constraints("s_t = 1 ∀ t ≤ 22:00")
        assert constraints == [Constraint(Variable.STATE, Binary(1), Until(tp(22)))]

    def test_issue_offsets_point_into_text(self):
        text = "prefisso s_t = 1 ∀ 09:00 ≤ t ≤"
        _, issues = extract_constraints(text)
        issue = issues[0]
        assert isinstance(issue, ExtractionIssue)
        assert text[issue.start : issue.end].startswith("s_t")


class TestTimePoint:
    def test_bounds(self):
        with pytest.raises(RangeError):
            TimePoint(-1)
        with pytest.raises(RangeError):
            TimePoint(1441)

    def test_render_zero_padded(self):
        assert TimePoint(420).render() == "07:00"
        assert TimePoint(0).render() == "00:00"
        assert TimePoint(1440).render() == "24:00"


# Hours 0-99 written with one or two digits, each bare and with each
# separator and minutes 00-99, plus 23 and 23:30 in Arabic-Indic digits,
# which the grammar's \d accepts.
_HOURS = [str(hour) for hour in range(10)] + [f"{hour:02d}" for hour in range(100)]
_LITERALS = {
    "bare": _HOURS + ["\u0662\u0663"],
    **{
        separator: [f"{hour}{separator}{minute:02d}" for hour in _HOURS for minute in range(100)]
        for separator in ":.,"
    },
}
_LITERALS[":"].append("\u0662\u0663:\u0663\u0660")
_ISSUE_ERRORS = {IssueKind.MALFORMED: "ConstraintSyntaxError", IssueKind.RANGE: "RangeError"}


class TestTimeLiterals:
    PREFIX = "s_t = 1 ∀ t ≥ "

    @pytest.mark.parametrize("form", _LITERALS)
    def test_strict_parse_reads_every_literal_as_the_oracle(self, form):
        for literal in _LITERALS[form]:
            try:
                start = parse_constraint(self.PREFIX + literal).condition.start
                got = ("TimePoint", start.minutes)
            except (ConstraintSyntaxError, RangeError) as exc:
                got = (type(exc).__name__, str(exc))
            assert got == time_literal_oracle(literal, len(self.PREFIX)), literal

    @pytest.mark.parametrize("form", _LITERALS)
    def test_extraction_reads_every_literal_as_the_oracle(self, form):
        for literal in _LITERALS[form]:
            text = self.PREFIX + literal
            constraints, issues = extract_constraints(text)
            if constraints:
                assert issues == [] and len(constraints) == 1, literal
                got = ("TimePoint", constraints[0].condition.start.minutes)
            else:
                [issue] = issues
                assert (issue.start, issue.end, issue.text) == (0, len(text), text), literal
                got = (_ISSUE_ERRORS[issue.kind], issue.detail)
            assert got == time_literal_oracle(literal, len(self.PREFIX)), literal


# --- what compiles when ----------------------------------------------------


def lazy_patterns() -> tuple[list[str], list[str]]:
    """The strict prefix patterns and the lenient grammar's patterns, as strings."""
    anchor, whole, prefixes = grammar._lenient()
    return (
        [pattern.pattern for pattern in grammar._strict_prefixes()],
        [pattern.pattern for pattern in (anchor, whole, *prefixes)],
    )


# Prints every str pattern passed to re.compile while the CLI is imported.
IMPORT_PROBE = """
import json, re
seen, compile = [], re.compile
re.compile = lambda pattern, flags=0: seen.append(pattern) or compile(pattern, flags)
import pref2constraint.cli
print(json.dumps([pattern for pattern in seen if isinstance(pattern, str)]))
"""


def test_importing_the_cli_compiles_no_prefix_or_lenient_pattern():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    at_import = json.loads(result.stdout)
    strict, lenient = lazy_patterns()
    assert len(strict) == 4 and len(lenient) == 6
    assert set(at_import) & set(strict + lenient) == set()
    assert grammar._STRICT_RE.pattern in at_import


class TestCompiledOnce:
    @pytest.fixture
    def compiled(self, monkeypatch):
        """Every pattern passed to re.compile from here on, the grammar's caches emptied."""
        grammar._strict_prefixes.cache_clear()
        grammar._lenient.cache_clear()
        seen, compile = [], re.compile

        def recording(pattern, flags=0):
            seen.append(pattern)
            return compile(pattern, flags)

        monkeypatch.setattr(re, "compile", recording)
        return seen

    def test_a_valid_parse_compiles_nothing(self, compiled):
        assert parse_constraint("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30").condition == Range(tp(7), tp(8, 30))
        assert compiled == []

    def test_failed_parses_compile_the_strict_prefixes_once(self, compiled):
        for text, position in (("s_t = 1 ∀ banana", 10), ("s_t = 1 ∀ t ≤", 13)):
            with pytest.raises(ConstraintSyntaxError) as excinfo:
                parse_constraint(text)
            assert excinfo.value.position == position
        assert list(compiled) == lazy_patterns()[0]

    def test_cut_off_candidates_compile_the_lenient_grammar_once(self, compiled):
        for text in ("ecco: s_t = 1 ∀ t ≤", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:3"):
            cut = text[text.index("s_t") :]
            assert extract_constraints(text) == ([], [ExtractionIssue(
                len(text) - len(cut), len(text), cut, IssueKind.TRUNCATED,
                "candidate cut off at end of output",
            )])
        assert list(compiled) == lazy_patterns()[1]
