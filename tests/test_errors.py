import json

import pytest

from pref2constraint.dataset import SchemaError, load_dataset
from pref2constraint.errors import LineError, Pref2ConstraintError, json_lines, read_json_object
from pref2constraint.llm import (
    ConfigError,
    CorruptManifestError,
    CorruptOutputsError,
    MockBackend,
    manifest_path_for,
    parse_outputs,
    read_manifest,
)
from pref2constraint.metrics import MissingGoldError
from pref2constraint.scheduler import ScheduleProblem, SchedulerError


class OddError(LineError):
    pass


class TestJsonLines:
    def test_numbers_lines_from_one_and_skips_blank_ones(self):
        lines = [b'{"a": 1}\n', b"\n", b"  \t\n", b"[2]\n", b'"x"']
        assert list(json_lines(lines, OddError)) == [(1, {"a": 1}), (4, [2]), (5, "x")]

    @pytest.mark.parametrize(
        "bad", [b"{\n", '"caffè"\n'.encode("latin-1")], ids=["not-json", "latin-1"]
    )
    def test_a_line_that_is_not_utf8_json_raises_the_given_error(self, bad):
        with pytest.raises(OddError) as excinfo:
            list(json_lines([b"1\n", b"\n", bad], OddError))
        assert excinfo.value.line_number == 3
        assert str(excinfo.value).startswith("line 3: not UTF-8 JSON: ")

    def test_lines_before_the_fault_are_yielded(self):
        seen = []
        with pytest.raises(OddError):
            for line_number, value in json_lines([b"1\n", b"2\n", b"x\n"], OddError):
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
            (b"[1, 2]", "expected a JSON object, got list"),
            (b'"text"', "expected a JSON object, got str"),
            (b"null", "expected a JSON object, got NoneType"),
        ],
        ids=["empty", "latin-1", "bom", "array", "string", "null"],
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
        (json.dumps(["risposta"]).encode("utf-8"), "expected a JSON object, got list"),
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
