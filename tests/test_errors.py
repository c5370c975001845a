import json
import re

import pytest

from pref2constraint.cli import main
from pref2constraint.dataset import SchemaError, load_dataset, pilot_corpus_path
from pref2constraint.errors import (
    LineError,
    Pref2ConstraintError,
    json_lines,
    read_json_object,
    typed,
    typed_array,
)
from pref2constraint.llm import MockBackend
from pref2constraint.metrics import MissingGoldError
from pref2constraint.runfile import (
    ConfigError,
    CorruptManifestError,
    CorruptOutputsError,
    RunManifest,
    manifest_path_for,
    parse_outputs,
    read_manifest,
)
from pref2constraint.scheduler import ScheduleProblem, SchedulerError


class OddError(LineError):
    pass


def first(data):
    return data["n"]


def refuse(data):
    raise SchedulerError("no slot fits")


class TestJsonLines:
    def test_numbers_lines_from_one_and_skips_blank_ones(self):
        lines = [b'{"a": 1}\n', b"\n", b"  \t\n", b'{"b": [2]}\n', b"{}"]
        assert list(json_lines(lines, OddError, dict)) == [(1, {"a": 1}), (4, {"b": [2]}), (5, {})]

    def test_yields_what_parse_returns(self):
        assert list(json_lines([b'{"n": "x", "m": 1}\n'], OddError, first)) == [(1, "x")]

    @pytest.mark.parametrize(
        "bad", [b"{\n", '"caffè"\n'.encode("latin-1")], ids=["not-json", "latin-1"]
    )
    def test_a_line_that_is_not_utf8_json_raises_the_given_error(self, bad):
        with pytest.raises(OddError) as excinfo:
            list(json_lines([b"{}\n", b"\n", bad], OddError, dict))
        assert excinfo.value.line_number == 3
        assert str(excinfo.value).startswith("line 3: not UTF-8 JSON: ")

    @pytest.mark.parametrize(
        "line",
        [
            b'  {"a": 1}\n', b'{"a": 1}\r\n', b'{"a": 1} \t\n', '\ufeff{"a": 1}\n'.encode("utf-8"),
            b'{"a": 1} 2\n', b'{"a": 1}\x0c\n', b'{"a": NaN}\n', b'{"a": "\\ud800"}\n',
            b'{"a": "x\ty"}\n', b'{"a": }\n',
        ],
        ids=[
            "leading-spaces", "crlf", "trailing-space-tab", "bom", "extra-data", "trailing-form-feed",
            "nan", "lone-surrogate-escape", "raw-tab-in-string", "missing-value",
        ],
    )
    def test_a_line_reads_as_json_loads_reads_it(self, line):
        try:
            expected = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            with pytest.raises(OddError) as excinfo:
                list(json_lines([b"{}\n", line], OddError, dict))
            assert str(excinfo.value) == f"line 2: not UTF-8 JSON: {exc}"
        else:
            # repr, so that NaN compares equal to itself
            assert repr(list(json_lines([b"{}\n", line], OddError, dict))) == repr(
                [(1, {}), (2, expected)]
            )

    @pytest.mark.parametrize(
        "line,named",
        [
            (b"null", "null"), (b"true", "boolean"), (b"5", "number"), (b"1.5", "number"),
            (b'"x"', "string"), (b"[1, 2]", "array"),
        ],
        ids=["null", "boolean", "integer", "float", "string", "array"],
    )
    def test_a_line_that_is_not_an_object_is_named_by_its_json_type(self, line, named):
        with pytest.raises(OddError) as excinfo:
            list(json_lines([b"{}\n", line], OddError, dict))
        assert (str(excinfo.value), excinfo.value.line_number) == (
            f"line 2: expected a JSON object, got {named}", 2
        )

    @pytest.mark.parametrize(
        "parse,message",
        [
            (first, "line 1: missing field 'n'"),
            (lambda data: typed(data, "m", "string"), "line 1: 'm' must be a string, got 1"),
            (lambda data: int("x"), "line 1: invalid literal for int() with base 10: 'x'"),
            (refuse, "line 1: no slot fits"),
        ],
        ids=["key-error", "type-error", "value-error", "domain-error"],
    )
    def test_a_fault_found_by_parse_is_a_line_error(self, parse, message):
        with pytest.raises(OddError) as excinfo:
            list(json_lines([b'{"m": 1}\n'], OddError, parse))
        assert str(excinfo.value) == message

    def test_lines_before_the_fault_are_yielded(self):
        seen = []
        with pytest.raises(OddError):
            lines = [b'{"n": 1}\n', b'{"n": 2}\n', b"x\n"]
            for line_number, value in json_lines(lines, OddError, first):
                seen.append((line_number, value))
        assert seen == [(1, 1), (2, 2)]

    @pytest.mark.parametrize(
        "error", [SchemaError, CorruptOutputsError, MissingGoldError], ids=lambda e: e.__name__
    )
    def test_every_line_error_reads_alike(self, error):
        exc = error("something is off", 7)
        assert isinstance(exc, LineError) and isinstance(exc, Pref2ConstraintError)
        assert (str(exc), exc.line_number) == ("line 7: something is off", 7)
        assert "__init__" not in vars(error)

    def test_corpus_and_outputs_report_a_bad_line_the_same_way(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"\n{\n")
        with pytest.raises(SchemaError) as from_corpus:
            load_dataset(corpus)
        with pytest.raises(CorruptOutputsError) as from_outputs:
            parse_outputs([b"\n", b"{\n"])
        assert str(from_corpus.value) == str(from_outputs.value)
        assert str(from_outputs.value).startswith("line 2: not UTF-8 JSON: ")

    def test_corpus_and_outputs_report_a_line_that_is_not_an_object_the_same_way(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"5\n")
        with pytest.raises(SchemaError) as from_corpus:
            load_dataset(corpus)
        with pytest.raises(CorruptOutputsError) as from_outputs:
            parse_outputs([b"5\n"])
        assert str(from_corpus.value) == str(from_outputs.value) == (
            "line 1: expected a JSON object, got number"
        )

    @pytest.mark.parametrize(
        "line,message",
        [
            # Looked up and type-checked field by field, so the first fault is
            # named; test_cli pins a mistyped field before a missing one.
            ({"record_id": "u01", "shot": 1, "prompt_digest": None, "response_text": 2},
             "'shot' must be a string, got 1"),
            ({"record_id": "u01", "shot": "0s", "response_text": 2}, "missing field 'prompt_digest'"),
            ({"record_id": "u01", "shot": "0s", "prompt_digest": "d", "response_text": None},
             "'response_text' must be a string, got null"),
        ],
        ids=["mistyped-before-mistyped", "missing-before-mistyped", "last"],
    )
    def test_an_outputs_line_names_its_first_fault(self, line, message):
        with pytest.raises(CorruptOutputsError) as excinfo:
            parse_outputs([json.dumps(line).encode() + b"\n"])
        assert str(excinfo.value) == f"line 1: {message}"

    def test_an_outputs_line_of_strings_keeps_its_fields_and_drops_others(self):
        line = {"response_text": "r", "extra": 1, "shot": "0s", "prompt_digest": "d", "record_id": "u01"}
        ((number, parsed),) = parse_outputs([json.dumps(line).encode() + b"\n"]).values()
        assert number == 1 and parsed == ("u01", "0s", "d", "r")


class TestReadJsonObject:
    def read(self, tmp_path, content, parse=dict):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as excinfo:
            read_json_object(path, ConfigError, parse)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        return message.removeprefix(f"{path}: ")

    def test_returns_what_parse_returns(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_text('{"a": [1, 2]}', "utf-8")
        assert read_json_object(path, ConfigError, lambda data: data["a"]) == [1, 2]

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"", "not UTF-8 JSON: Expecting value: line 1 column 1 (char 0)"),
            ('{"a": "caffè"}'.encode("latin-1"), "not UTF-8 JSON: "),
            ('\ufeff{"a": 1}'.encode("utf-8"), "not UTF-8 JSON: Unexpected UTF-8 BOM"),
            (b"[1, 2]", "expected a JSON object, got array"),
            (b'"text"', "expected a JSON object, got string"),
            (b"null", "expected a JSON object, got null"),
            (b"true", "expected a JSON object, got boolean"),
            (b"5", "expected a JSON object, got number"),
            (b"1.5", "expected a JSON object, got number"),
        ],
        ids=["empty", "latin-1", "bom", "array", "string", "null", "boolean", "integer", "float"],
    )
    def test_a_file_that_is_not_a_json_object(self, tmp_path, content, message):
        assert self.read(tmp_path, content).startswith(message)

    def test_a_missing_field_is_named(self, tmp_path):
        assert self.read(tmp_path, b"{}", lambda data: data["slot_minutes"]) == (
            "missing field 'slot_minutes'"
        )

    @pytest.mark.parametrize(
        "exc", [ValueError("bad value"), TypeError("bad value"), SchedulerError("bad value")],
        ids=lambda exc: type(exc).__name__,
    )
    def test_a_fault_found_by_parse_keeps_its_message(self, tmp_path, exc):
        def parse(data):
            raise exc

        assert self.read(tmp_path, b"{}", parse) == "bad value"

    def test_an_unreadable_file_is_left_to_the_caller(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json_object(tmp_path / "absent.json", ConfigError, dict)


# A JSON value of each type, and the kinds that accept each one.
SAMPLES = {
    "null": None, "boolean": True, "integer": 5, "float": 1.5, "whole-float": 5.0,
    "string": "x", "array": [1], "object": {"a": 1},
}
ACCEPTS = {
    "object": {"object"}, "array": {"array"}, "string": {"string"}, "integer": {"integer"},
    "number": {"integer", "float", "whole-float"}, "true or false": {"boolean"},
}
MUST_BE = {
    "object": "an object", "array": "an array", "string": "a string", "integer": "an integer",
    "number": "a number", "true or false": "true or false",
}


def kind_cases(accepted: bool):
    return [
        pytest.param(kind, SAMPLES[sample], id=f"{kind.replace(' ', '-')}-{sample}")
        for kind, samples in ACCEPTS.items()
        for sample in SAMPLES
        if (sample in samples) == accepted
    ]


class TestTypedFields:
    @pytest.mark.parametrize("kind,value", kind_cases(accepted=True))
    def test_a_field_of_the_right_type_is_returned(self, kind, value):
        assert typed({"f": value}, "f", kind) == value

    @pytest.mark.parametrize("kind,value", kind_cases(accepted=False))
    def test_a_field_of_another_type_is_a_type_error_naming_it(self, kind, value):
        with pytest.raises(TypeError) as excinfo:
            typed({"f": value}, "f", kind)
        assert str(excinfo.value) == f"'f' must be {MUST_BE[kind]}, got {json.dumps(value)}"

    def test_a_boolean_is_neither_an_integer_nor_a_number(self):
        for kind, must_be in (("integer", "an integer"), ("number", "a number")):
            with pytest.raises(TypeError, match=f"^'f' must be {must_be}, got false$"):
                typed({"f": False}, "f", kind)

    def test_a_number_comes_back_as_a_float(self):
        value = typed({"f": 3}, "f", "number")
        assert (type(value), value) == (float, 3.0)
        assert type(typed({"f": 3}, "f", "integer")) is int

    @pytest.mark.parametrize("kind", list(ACCEPTS))
    def test_a_missing_field_is_a_key_error(self, kind):
        with pytest.raises(KeyError):
            typed({}, "f", kind)

    def test_an_array_of_the_kind_is_returned(self):
        assert typed_array({"f": ["a", "b"]}, "f", "string") == ["a", "b"]
        assert typed_array({"f": []}, "f", "object") == []
        numbers = typed_array({"f": [1, 2.5]}, "f", "number")
        assert numbers == [1.0, 2.5] and all(type(v) is float for v in numbers)

    @pytest.mark.parametrize(
        "kind,entries,message",
        [
            ("number", [0.0, "0.0"], "'f' entries must be numbers, got \"0.0\""),
            ("number", [True], "'f' entries must be numbers, got true"),
            ("integer", [1, 1.0], "'f' entries must be integers, got 1.0"),
            ("string", ["a", None], "'f' entries must be strings, got null"),
            ("object", [{}, [1]], "'f' entries must be objects, got [1]"),
            ("array", [5], "'f' entries must be arrays, got 5"),
            ("true or false", [0], "'f' entries must be true or false, got 0"),
        ],
        ids=["number-string", "number-bool", "integer-float", "string-null", "object-array",
             "array-number", "bool-number"],
    )
    def test_an_entry_of_another_kind_is_a_type_error_naming_the_array(self, kind, entries, message):
        with pytest.raises(TypeError) as excinfo:
            typed_array({"f": entries}, "f", kind)
        assert str(excinfo.value) == message

    def test_a_typed_array_that_is_no_array_is_named_as_one(self):
        with pytest.raises(TypeError) as excinfo:
            typed_array({"f": "ab"}, "f", "string")
        assert str(excinfo.value) == "'f' must be an array, got \"ab\""


READERS = [
    (ScheduleProblem.from_file, SchedulerError, "p.json"),
    (MockBackend.from_file, ConfigError, "fixtures.json"),
    (
        lambda path: read_manifest(path.with_name("run.jsonl")),
        CorruptManifestError,
        manifest_path_for("run.jsonl").name,
    ),
]


@pytest.mark.parametrize(
    "content,message",
    [
        (b"{", "not UTF-8 JSON: Expecting property name enclosed in double quotes"),
        ('{"a": "caffè"}'.encode("latin-1"), "not UTF-8 JSON: 'utf-8' codec can't decode"),
        (json.dumps(["risposta"]).encode("utf-8"), "expected a JSON object, got array"),
    ],
    ids=["not-json", "latin-1", "array"],
)
@pytest.mark.parametrize("read,error,name", READERS, ids=["problem", "fixtures", "manifest"])
def test_every_json_object_file_fails_one_way(tmp_path, read, error, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(error) as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: {message}")


# --- type-swap sweep --------------------------------------------------------
#
# Each JSON path of each input file is swapped in turn for a value of every JSON
# type and read through the command line.  A refused value must be one line in
# the shared grammar: the error, the file or line, and the field or JSON type,
# never a Python type or protocol name.

SWAPS = [None, True, 1, 1.5, "x", [], {}, [1], {"a": 1}]
PYTHON_NAMES = re.compile(
    r"\b(NoneType|list|dict|str|int|float|bool)\b|subscriptable|iterable|mapping|__init__"
)
# A message with one of these names the expected JSON type or a field ('missing field ...').
NAMING_WORDS = ("object", "array", "string", "integer", "number", "true or false", "field")

PROBLEM = {
    "slot_minutes": 60,
    "pv": [0.0] * 12 + [3.0, 3.0] + [0.0] * 10,
    "base_load": [0.1] * 24,
    "appliance": {"power_kw": 3.0, "duration_slots": 2, "contiguous": True},
    "forced": {"slot_minutes": 60, "state": [None] * 24, "temperature": [None] * 24},
}
CORPUS_LINE = {
    "id": "u02",
    "text": "ho bisogno che l'acqua calda sia disponibile dalle 7 alle 8,30",
    "spans": [{"start": 45, "end": 62, "kind": "time"}],
    "constraints": ["s_t = 1 ∀ 07:00 ≤ t ≤ 08:30"],
}
OUTPUTS_LINE = {"record_id": "u01", "shot": "0s", "prompt_digest": "d", "response_text": "s_t = 1 ∀ t"}


def pilot_manifest_dict() -> dict:
    manifest = RunManifest.create(pilot_corpus_path(), "it", ("0s", "1s", "fs"), "mock-model")
    return json.loads(json.dumps(manifest.to_dict()))


def json_paths(value, path=()):
    """The path of ``value`` and of each value inside it; an array's first entry stands for all."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from json_paths(value[0], path + (0,))


def swapped(document, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(document))
    owner = copy
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = value
    return copy


def write_problem(tmp_path, value):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(value), "utf-8")
    return ["schedule", "--problem", str(path)], f"{path}: "


def write_manifest(tmp_path, value):
    outputs = tmp_path / "run.jsonl"
    outputs.write_text(json.dumps(OUTPUTS_LINE) + "\n", "utf-8")
    manifest_path_for(outputs).write_text(json.dumps(value), "utf-8")
    return ["eval", "--outputs", str(outputs)], f"{manifest_path_for(outputs)}: "


def write_outputs_line(tmp_path, value):
    outputs = tmp_path / "run.jsonl"
    first = dict(OUTPUTS_LINE, shot="1s")
    outputs.write_text(json.dumps(first) + "\n" + json.dumps(value) + "\n", "utf-8")
    return ["eval", "--outputs", str(outputs)], "line 2: "


def write_corpus_line(tmp_path, value):
    corpus = tmp_path / "corpus.jsonl"
    first = dict(CORPUS_LINE, id="u01")
    corpus.write_text(
        json.dumps(first, ensure_ascii=False) + "\n" + json.dumps(value, ensure_ascii=False) + "\n",
        "utf-8",
    )
    return ["validate-data", "--data", str(corpus)], "line 2: "


INPUT_FILES = {
    "problem": (PROBLEM, write_problem),
    "manifest": (pilot_manifest_dict(), write_manifest),
    "outputs": (OUTPUTS_LINE, write_outputs_line),
    "corpus": (CORPUS_LINE, write_corpus_line),
}
SWEEP = [
    pytest.param(kind, path, value, id=f"{kind}-{'.'.join(map(str, path)) or 'root'}-{json.dumps(value)}")
    for kind, (document, _) in INPUT_FILES.items()
    for path in json_paths(document)
    for value in SWAPS
]


@pytest.mark.parametrize("kind,path,value", SWEEP)
def test_a_type_swapped_value_is_refused_in_one_grammar(capsys, tmp_path, kind, path, value):
    document, write = INPUT_FILES[kind]
    argv, where = write(tmp_path, swapped(document, path, value))
    code = main(argv)
    err = capsys.readouterr().err
    if code == 0:
        return  # a value of another type can still be a valid one
    assert code == 1, err
    error, _, message = err.partition(": ")
    assert error.isidentifier() and message.startswith(where), err
    message = message.removeprefix(where)
    assert err.count("\n") == 1 and not PYTHON_NAMES.search(message), err
    # A value rule may name its field in words: 'record id' for record_id, 'span' for spans.
    keys = {step for p in json_paths(document) for step in p if isinstance(step, str)}
    field_words = "|".join(sorted({w.rstrip("s") for key in keys for w in (key, key.split("_")[0])}))
    assert any(word in message for word in NAMING_WORDS) or re.search(
        rf"\b({field_words})s?\b", message
    ), err


# Sweep cases that no value rule lets through: each must be refused, not scored.
NEVER_VALID = {
    "manifest-shot_labels-[]",
    'manifest-shot_labels.0-"x"',
    "outputs-prompt_digest-null",
    "outputs-prompt_digest-[1]",
    'outputs-prompt_digest-{"a": 1}',
}


@pytest.mark.parametrize("kind,path,value", [case for case in SWEEP if case.id in NEVER_VALID])
def test_a_swap_to_no_valid_value_exits_1(capsys, tmp_path, kind, path, value):
    document, write = INPUT_FILES[kind]
    argv, where = write(tmp_path, swapped(document, path, value))
    assert main(argv) == 1
    assert capsys.readouterr().err.partition(": ")[2].startswith(where)


# A string no type swap reaches: one that holds a lone surrogate (a JSON escape such
# as \ud800 decodes to one), which no output file can then be written in.
SURROGATE_COMMANDS = {
    "validate-data": ["--data", "CORPUS"],
    "prompt": ["--data", "CORPUS", "--target-id", "u02", "--shot", "0s"],
    "run": ["--data", "CORPUS", "--out", "OUT", "--shots", "0s", "--concurrency", "1"],
    "eval": ["--gold", "CORPUS", "--outputs", "OUT", "--model", "m"],
}


@pytest.mark.parametrize("field", ["id", "text"])
@pytest.mark.parametrize("command", SURROGATE_COMMANDS)
def test_a_corpus_string_holding_a_lone_surrogate_is_refused_in_one_line(
    capsys, tmp_path, command, field
):
    corpus = tmp_path / "corpus.jsonl"
    lines = pilot_corpus_path().read_text("utf-8").splitlines(keepends=True)
    first = json.loads(lines[0])
    first[field] += "\ud800"
    corpus.write_text(json.dumps(first) + "\n" + "".join(lines[1:]), "utf-8")
    paths = {"CORPUS": str(corpus), "OUT": str(tmp_path / "run.jsonl")}
    assert main([command, *(paths.get(arg, arg) for arg in SURROGATE_COMMANDS[command])]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"SchemaError: line 1: {field!r} holds the lone surrogate '\\ud800', "
        "which UTF-8 cannot encode\n"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl"]


# A name given on the command line that UTF-8 cannot encode: Python decodes each
# argv byte that is not UTF-8 (a path or model named with \xff) to a lone surrogate
# (\udcff), which no manifest or report can then be written with.
NAME_COMMANDS = {
    "run-data": (["run", "--data", "c\udcff.jsonl", "--out", "run.jsonl"], "ConfigError: 'dataset_path'"),
    "run-model": (["run", "--model", "m\udcff", "--out", "run.jsonl"], "ConfigError: 'model_id'"),
    "eval-model": (
        ["eval", "--outputs", "good.jsonl", "--model", "m\udcff", "--report", "rep.json"],
        "MetricsError: 'model_id'",
    ),
}


@pytest.mark.parametrize("argv,error", NAME_COMMANDS.values(), ids=NAME_COMMANDS)
def test_a_name_utf8_cannot_encode_is_refused_in_one_line(capsys, tmp_path, monkeypatch, argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c\udcff.jsonl").write_bytes(pilot_corpus_path().read_bytes())
    assert main(["run", "--out", "good.jsonl", "--shots", "0s"]) == 0
    files = sorted(path.name for path in tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"{error} holds the lone surrogate '\\udcff', which UTF-8 cannot encode\n"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == files
    if argv[0] == "run":  # nothing was left in the way of a good run into the same --out
        assert main(["run", "--out", "run.jsonl", "--shots", "0s"]) == 0
        assert (tmp_path / "run.jsonl").read_bytes() == (tmp_path / "good.jsonl").read_bytes()


def test_a_manifest_model_id_utf8_cannot_encode_is_refused_by_eval(capsys, tmp_path):
    outputs, report = tmp_path / "run.jsonl", tmp_path / "rep.json"
    assert main(["run", "--out", str(outputs), "--shots", "0s"]) == 0
    manifest = manifest_path_for(outputs)
    data = json.loads(manifest.read_text("utf-8"))
    data["model_id"] = "\ud800"
    manifest.write_text(json.dumps(data), "utf-8")  # the surrogate as a JSON escape
    capsys.readouterr()
    assert main(["eval", "--outputs", str(outputs), "--report", str(report)]) == 1
    assert capsys.readouterr() == (
        "",
        f"CorruptManifestError: {manifest}: 'model_id' holds the lone surrogate '\\ud800', "
        "which UTF-8 cannot encode\n",
    )
    assert not report.exists()


# Values that each pass the per-value check but overflow once combined: the
# appliance's energy per slot, or the pv total that bounds self-consumption.
OVERFLOWING_PROBLEMS = {
    "power": dict(PROBLEM, appliance=dict(PROBLEM["appliance"], power_kw=1e308)),
    "pv-total": dict(PROBLEM, pv=[1e308] * 24, base_load=[1e308] * 24),
}


@pytest.mark.parametrize("command", ["schedule", "check-functional"])
@pytest.mark.parametrize("problem", OVERFLOWING_PROBLEMS.values(), ids=OVERFLOWING_PROBLEMS)
def test_a_problem_whose_energy_overflows_is_refused_in_one_line(capsys, tmp_path, problem, command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), "utf-8")
    argv = [command, "--problem", str(path), "--json"]
    if command == "check-functional":
        argv += ["--gold", "s_t = 1 ∀ 12:00 ≤ t ≤ 13:00", "--generated", "s_t = 1 ∀ 12:00 ≤ t ≤ 13:00"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"SchedulerError: {path}: ") and err.count("\n") == 1, err
