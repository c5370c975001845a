"""Formal appliance constraints: AST, strict parser, renderer, lenient extractor.

A constraint assigns a value to a decision variable and quantifies the
assignment over a time condition::

    s_t = 1 ∀ t                     appliance on all day
    s_t = 0 ∀ 12:00 ≤ t ≤ 15:00     appliance off inside an interval
    s_t = 1 ∀ t ≥ 22:00             appliance on from a time onward
    h_t = 19.5 ∀ t ≤ 07:00          desired temperature until a time

Two entry points with different strictness:

* :func:`parse_constraint` accepts a single constraint string and is meant
  for curated gold data.  It reports syntax errors with a character
  position.
* :func:`extract_constraints` scans raw model output (prose, markdown,
  truncated text) and never fails; rejected candidates come back as
  :class:`ExtractionIssue` values.

Both accept "∀"/"forall", "≤"/"<=", "≥"/">=" and the time literals
``H``, ``H:MM``, ``H.MM``, ``H,MM`` (dot and comma are common Italian
minute separators).  The canonical rendering uses "∀", "≤"/"≥" and
zero-padded ``HH:MM``.  Both entry points, and the extractor's test for
output cut off inside a constraint, are built from one token definition;
``docs/grammar.md`` states it in EBNF.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import Pref2ConstraintError


class ConstraintError(Pref2ConstraintError):
    """Base class for constraint construction and parse errors."""


class ConstraintSyntaxError(ConstraintError):
    """Input does not conform to the constraint grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PairingError(ConstraintError):
    """Variable and value kinds do not fit together (e.g. s_t with 2)."""


class RangeError(ConstraintError):
    """A time or temperature literal is outside its allowed range."""


# Allowed span for desired temperatures, in °C, both ends included.
MIN_TEMPERATURE_C = 10.0
MAX_TEMPERATURE_C = 60.0

MINUTES_PER_DAY = 1440


@dataclass(frozen=True, order=True)
class TimePoint:
    """A time of day in minutes since midnight; 1440 means end-of-day 24:00."""

    minutes: int

    def __post_init__(self) -> None:
        if not 0 <= self.minutes <= MINUTES_PER_DAY:
            raise RangeError(f"time of day out of range: {self.minutes} minutes")

    @classmethod
    def of(cls, hour: int, minute: int = 0) -> "TimePoint":
        return cls(hour * 60 + minute)

    def render(self) -> str:
        return f"{self.minutes // 60:02d}:{self.minutes % 60:02d}"


@dataclass(frozen=True)
class All:
    """The assignment holds for every t."""


@dataclass(frozen=True)
class Range:
    """The assignment holds for start ≤ t ≤ end."""

    start: TimePoint
    end: TimePoint

    def __post_init__(self) -> None:
        if not self.start.minutes < self.end.minutes:
            raise RangeError(
                f"time range must satisfy start < end, got "
                f"{self.start.render()} .. {self.end.render()}"
            )


@dataclass(frozen=True)
class From:
    """The assignment holds for t ≥ start."""

    start: TimePoint


@dataclass(frozen=True)
class Until:
    """The assignment holds for t ≤ end."""

    end: TimePoint


TimeCondition = All | Range | From | Until


class Variable(Enum):
    STATE = "s_t"
    TEMPERATURE = "h_t"


@dataclass(frozen=True)
class Binary:
    """On/off value for the appliance state variable."""

    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise PairingError(f"state value must be 0 or 1, got {self.value}")


@dataclass(frozen=True)
class Degrees:
    """Desired temperature in °C."""

    value: float

    def render(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(float(self.value))


ConstraintValue = Binary | Degrees


@dataclass(frozen=True)
class Constraint:
    """One formal constraint: variable, assigned value, time condition."""

    variable: Variable
    value: ConstraintValue
    condition: TimeCondition

    def __post_init__(self) -> None:
        if self.variable is Variable.STATE and not isinstance(self.value, Binary):
            raise PairingError("s_t only takes the binary values 0 or 1")
        if self.variable is Variable.TEMPERATURE and not isinstance(self.value, Degrees):
            raise PairingError("h_t only takes temperature values in °C")


def check_bounds(constraint: Constraint) -> None:
    """Raise RangeError if a temperature assignment falls outside 10..60 °C."""
    if isinstance(constraint.value, Degrees):
        v = constraint.value.value
        if not MIN_TEMPERATURE_C <= v <= MAX_TEMPERATURE_C:
            raise RangeError(
                f"temperature {v} outside allowed range "
                f"[{MIN_TEMPERATURE_C}, {MAX_TEMPERATURE_C}]"
            )


# The constraint grammar, written once.  A token lists its spellings, each
# a sequence of atoms: the whole-token pattern joins the atoms, and the
# cut-off pattern matches any prefix of a spelling that the text ends
# inside.  The guard of a number, time or bare 't' keeps a match from
# stopping where the text goes on with more of a literal (a digit, or a
# separator and a digit) or with a comparator, so "t ≤ 8:3" is never read
# as "t ≤ 8" and "t ≤" never as "t".  Hours take one or two digits,
# minutes exactly two; "24:00" is the only valid hour-24 literal.


class _Token(NamedTuple):
    spellings: tuple[tuple[str, ...], ...]
    guard: str = ""

    @property
    def full(self) -> str:
        return "(?:" + "|".join("".join(atoms) for atoms in self.spellings) + ")" + self.guard

    @property
    def cut(self) -> str:
        return "(?:" + "|".join(_nested(atoms) for atoms in self.spellings) + r")\Z"


def _nested(atoms: Sequence[str]) -> str:
    """Pattern for any non-empty prefix of *atoms*: ``a(?:b(?:c)?)?``."""
    head, *rest = atoms
    return f"{head}(?:{_nested(rest)})?" if rest else head


_LITERAL_ENDS = r"(?![:.,]?\d)"
_VAR = _Token((("[sh]", "_", "t"),))
_EQ = _Token((("=",),))
_NUMBER = _Token(((r"\d+", "[.,]", r"\d+"), (r"\d+",)), _LITERAL_ENDS)
_TIME = _Token(((r"\d{1,2}", "[:.,]", r"\d", r"\d"), (r"\d{1,2}",)), _LITERAL_ENDS)
_LE = _Token((("≤",), ("<", "=")))
_GE = _Token((("≥",), (">", "=")))
_T = _Token((("t",),), "(?![A-Za-z0-9_])")
_BARE_T = _Token(_T.spellings, _T.guard + r"(?!\s*[<>≤≥])")

# Condition forms, longest first.  A form's time literals are, in order,
# the arguments of its condition class.
_FORMS: tuple[tuple[type, tuple[_Token, ...]], ...] = (
    (Range, (_TIME, _LE, _T, _LE, _TIME)),
    (From, (_T, _GE, _TIME)),
    (Until, (_T, _LE, _TIME)),
    (All, (_BARE_T,)),
)


def _grammar(quantifier: _Token) -> tuple[str, list[str]]:
    """The whole-constraint pattern and one prefix pattern per form.

    Tokens are separated by optional whitespace.  The whole pattern
    captures ``var``, ``val`` and the condition, named after its class.  A
    prefix pattern always matches: the longest run of whole tokens of its
    form, plus a cut-off last token when the text ends inside one.
    """
    sep = r"\s*"
    head = (_VAR, _EQ, _NUMBER, quantifier)
    whole = sep.join(
        ("", f"(?P<var>{_VAR.full})", _EQ.full, f"(?P<val>{_NUMBER.full})", quantifier.full)
    )
    forms = "|".join(
        f"(?P<{cls.__name__}>{sep.join(token.full for token in tokens)})"
        for cls, tokens in _FORMS
    )
    prefixes = [
        sep + "(?:" + _nested([f"(?:{t.full}{sep}|{t.cut})" for t in head + tokens]) + ")?"
        for _, tokens in _FORMS
    ]
    return f"{whole}{sep}(?:{forms})", prefixes


# Strict spelling for curated data; the lenient one adds "for all" and any
# letter case for model output.  Import compiles only what a successful
# strict parse reads; the rest compiles once, on first use.
_STRICT = _grammar(_Token((("∀",), tuple("forall"))))
_LENIENT = _grammar(_Token((("∀",), ("f", "o", "r", r"\s*", "a", "l", "l"))))
_STRICT_RE = re.compile(_STRICT[0])
_TIME_LITERALS = re.compile(_TIME.full)


@functools.cache
def _strict_prefixes() -> tuple[re.Pattern[str], ...]:
    """Where a failed strict parse stops; compiled on the first failure."""
    return tuple(map(re.compile, _STRICT[1]))


@functools.cache
def _lenient() -> tuple[re.Pattern[str], re.Pattern[str], tuple[re.Pattern[str], ...]]:
    """The extractor's grammar, compiled on the first extraction: where it looks
    for candidates (a variable followed by '=', in any letter case, like the
    pattern that reads from there), the whole pattern and the prefix patterns."""
    whole, prefixes = _LENIENT
    return (
        re.compile(rf"{_VAR.full}\s*{_EQ.full}", re.IGNORECASE),
        re.compile(whole, re.IGNORECASE),
        tuple(re.compile(prefix, re.IGNORECASE) for prefix in prefixes),
    )


_CONDITION_CLASSES = {cls.__name__: cls for cls, _ in _FORMS}
# Every value a literal can denote is looked up, not built: each time of day
# by its minutes, each state value and variable by its spelling.
_TIME_POINTS = tuple(map(TimePoint, range(MINUTES_PER_DAY + 1)))
_BINARY = {"0": Binary(0), "1": Binary(1)}
_VARIABLES = {variable.value: variable for variable in Variable}


def _parse_time_literal(text: str, position: int) -> TimePoint:
    """Convert a matched time literal (H, H:MM, H.MM, H,MM) to a TimePoint."""
    # _TIME matched one or two hour digits, then at most a separator and two minute digits.
    hour, minute = (int(text), 0) if len(text) <= 2 else (int(text[:-3]), int(text[-2:]))
    if minute > 59:
        raise ConstraintSyntaxError(f"invalid minutes in time literal '{text}'", position)
    total = hour * 60 + minute
    if total > MINUTES_PER_DAY:
        raise RangeError(f"time literal '{text}' is past 24:00")
    return _TIME_POINTS[total]


def _parse_value_literal(variable: Variable, text: str) -> ConstraintValue:
    if variable is Variable.STATE:
        if text not in _BINARY:
            raise PairingError(f"s_t only takes the binary values 0 or 1, got '{text}'")
        return _BINARY[text]
    return Degrees(float(text.replace(",", ".")))


def _constraint_from_match(m: re.Match[str]) -> Constraint:
    """Interpret a whole-constraint match of either spelling."""
    # Case folding, not lower(): an IGNORECASE [sh] also matches 'ſ', which folds to 's'.
    variable = _VARIABLES[m.group("var").casefold()]
    value = _parse_value_literal(variable, m.group("val"))
    # The condition group is the last one to close, and the only digits in
    # it are its time literals, in order.
    form = m.lastgroup
    times = [
        _parse_time_literal(t.group(), t.start())
        for t in _TIME_LITERALS.finditer(m.string, m.start(form), m.end(form))
    ]
    constraint = Constraint(variable, value, _CONDITION_CLASSES[form](*times))
    check_bounds(constraint)
    return constraint


def parse_constraint(text: str) -> Constraint:
    """Parse a single constraint string under the strict grammar.

    The whole string must be one constraint; whitespace around and between
    tokens is optional.  Raises ConstraintSyntaxError (with position) when
    the grammar does not match, else PairingError or RangeError.
    """
    m = _STRICT_RE.match(text)
    if m is None or text[m.end() :].strip():
        position = max(prefix.match(text).end() for prefix in _strict_prefixes())
        if m is not None:
            message = "unexpected trailing text"
        elif position == len(text):
            message = "unexpected end of text"
        else:
            message = "text does not follow the constraint grammar"
        raise ConstraintSyntaxError(message, position)
    return _constraint_from_match(m)


def render_condition(condition: TimeCondition) -> str:
    if isinstance(condition, All):
        return "t"
    if isinstance(condition, Range):
        return f"{condition.start.render()} ≤ t ≤ {condition.end.render()}"
    if isinstance(condition, From):
        return f"t ≥ {condition.start.render()}"
    return f"t ≤ {condition.end.render()}"


def render_constraint(constraint: Constraint) -> str:
    """Emit the canonical form: '∀', '≤'/'≥', zero-padded HH:MM, single spaces."""
    if isinstance(constraint.value, Binary):
        value = str(constraint.value.value)
    else:
        value = constraint.value.render()
    return f"{constraint.variable.value} = {value} ∀ {render_condition(constraint.condition)}"


def canonicalize(text: str) -> str:
    """Normalize a parsable constraint string to its canonical rendering."""
    return render_constraint(parse_constraint(text))


class IssueKind(Enum):
    TRUNCATED = "truncated"
    MALFORMED = "malformed"
    PAIRING = "pairing"
    RANGE = "range"


@dataclass(frozen=True)
class ExtractionIssue:
    """One rejected constraint candidate found in raw model output."""

    start: int
    end: int
    text: str
    kind: IssueKind
    detail: str


# Issue kind for each error that interpreting a whole match can raise.
_ISSUE_KINDS = {
    PairingError: IssueKind.PAIRING,
    RangeError: IssueKind.RANGE,
    ConstraintSyntaxError: IssueKind.MALFORMED,
}


def extract_constraints(model_output: str) -> tuple[list[Constraint], list[ExtractionIssue]]:
    """Scan raw model output for constraints; total, never raises.

    Returns every successfully parsed constraint in order of appearance,
    plus one ExtractionIssue per rejected candidate (truncated, malformed,
    bad pairing, or out-of-range literal).
    """
    anchor_re, whole_re, prefixes = _lenient()
    constraints: list[Constraint] = []
    issues: list[ExtractionIssue] = []
    pos = 0
    while (anchor := anchor_re.search(model_output, pos)) is not None:
        start = anchor.start()
        full = whole_re.match(model_output, start)
        if full is not None:
            try:
                constraints.append(_constraint_from_match(full))
            except (PairingError, RangeError, ConstraintSyntaxError) as exc:
                kind = _ISSUE_KINDS[type(exc)]
                issues.append(ExtractionIssue(start, full.end(), full.group(), kind, str(exc)))
            pos = full.end()
        elif any(prefix.fullmatch(model_output, start) for prefix in prefixes):
            snippet = model_output[start:]
            detail = "candidate cut off at end of output"
            issues.append(
                ExtractionIssue(start, len(model_output), snippet, IssueKind.TRUNCATED, detail)
            )
            break
        else:
            snippet = model_output[start : start + 40]
            detail = "candidate does not match the constraint grammar"
            issues.append(
                ExtractionIssue(start, start + len(snippet), snippet, IssueKind.MALFORMED, detail)
            )
            pos = anchor.end()
    return constraints, issues
