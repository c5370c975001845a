import json

import pytest

from pref2constraint.dataset import (
    ConstraintParseError,
    GoldRecord,
    SchemaError,
    Span,
    dump_dataset,
    load_dataset,
    tag_utterance,
)

SAMPLE_RECORD = {
    "id": "u01",
    "text": "ho bisogno che l'acqua calda sia disponibile dalle 7 alle 8,30",
    "spans": [{"start": 45, "end": 62, "kind": "time"}],
    "constraints": ["s_t = 1 ∀ 07:00 ≤ t ≤ 08:30"],
}


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n", "utf-8")


class TestLoad:
    def test_single_record(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [SAMPLE_RECORD])
        records = load_dataset(path)
        assert len(records) == 1
        record = records[0]
        assert record.id == "u01"
        assert record.spans == (Span(45, 62, "time"),)
        assert record.text[45:62] == "dalle 7 alle 8,30"
        assert len(record.constraints) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", "utf-8")
        assert load_dataset(path) == []

    def test_span_end_beyond_text(self, tmp_path):
        bad = dict(SAMPLE_RECORD, spans=[{"start": 45, "end": 63, "kind": "time"}])
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [bad])
        with pytest.raises(SchemaError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 1

    def test_missing_field(self, tmp_path):
        bad = {k: v for k, v in SAMPLE_RECORD.items() if k != "constraints"}
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [bad])
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_overlapping_spans(self, tmp_path):
        bad = dict(
            SAMPLE_RECORD,
            spans=[
                {"start": 45, "end": 62, "kind": "time"},
                {"start": 50, "end": 55, "kind": "time"},
            ],
        )
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [bad])
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_bad_gold_constraint_reports_line(self, tmp_path):
        good = SAMPLE_RECORD
        bad = dict(SAMPLE_RECORD, id="u02", constraints=["s_t = 2 ∀ t"])
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [good, bad])
        with pytest.raises(ConstraintParseError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 2

    def test_spans_without_constraints_rejected(self, tmp_path):
        bad = dict(SAMPLE_RECORD, constraints=[])
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [bad])
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [SAMPLE_RECORD, SAMPLE_RECORD])
        with pytest.raises(SchemaError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("42", "expected a JSON object, got number"),
            ("null", "expected a JSON object, got null"),
            ('["u01"]', "expected a JSON object, got array"),
            (json.dumps(dict(SAMPLE_RECORD, spans=[5])), "'spans' entries must be objects, got 5"),
            (
                json.dumps(dict(SAMPLE_RECORD, spans=[None])),
                "'spans' entries must be objects, got null",
            ),
            (
                json.dumps(dict(SAMPLE_RECORD, constraints=[5])),
                "'constraints' entries must be strings, got 5",
            ),
            (
                json.dumps(dict(SAMPLE_RECORD, constraints=[None])),
                "'constraints' entries must be strings, got null",
            ),
            (
                json.dumps(dict(SAMPLE_RECORD, spans=[{"start": True, "end": 5, "kind": "time"}])),
                "'start' must be an integer, got true",
            ),
        ],
        ids=[
            "number", "null", "array",
            "span-number", "span-null", "constraint-number", "constraint-null", "offset-true",
        ],
    )
    def test_ill_typed_line_reports_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(SAMPLE_RECORD, ensure_ascii=False) + "\n" + line + "\n", "utf-8")
        with pytest.raises(SchemaError, match=f"^line 2: {message}$") as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(json.dumps(SAMPLE_RECORD, ensure_ascii=False) + "\n{oops\n", "utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 2

    def test_line_that_is_not_utf8_reports_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        first = json.dumps(SAMPLE_RECORD, ensure_ascii=False)
        second = '{"id": "u02", "text": "un caffè", "spans": [], "constraints": []}'
        path.write_bytes(f"{first}\n".encode("utf-8") + f"{second}\n".encode("latin-1"))
        with pytest.raises(SchemaError, match="^line 2: not UTF-8 JSON: ") as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize(
        "field,value,surrogate",
        [("id", "u\ud800", "\ud800"), ("text", SAMPLE_RECORD["text"] + " \udfff!", "\udfff")],
        ids=["id", "text"],
    )
    def test_a_field_holding_a_lone_surrogate_reports_line(self, tmp_path, field, value, surrogate):
        # json.dumps writes the surrogate as the JSON escape a corpus file would hold
        path = tmp_path / "surrogate.jsonl"
        bad = {**SAMPLE_RECORD, "id": "u02", field: value}
        path.write_text(json.dumps(SAMPLE_RECORD) + "\n" + json.dumps(bad) + "\n", "utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == (
            f"line 2: {field!r} holds the lone surrogate {surrogate!r}, which UTF-8 cannot encode"
        )
        assert excinfo.value.line_number == 2

    def test_reserialize_round_trip(self, tmp_path, pilot_records):
        out = tmp_path / "copy.jsonl"
        dump_dataset(pilot_records, out)
        assert load_dataset(out) == pilot_records


class TestTagging:
    def test_time_span(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [SAMPLE_RECORD])
        record = load_dataset(path)[0]
        assert tag_utterance(record) == (
            'ho bisogno che l\'acqua calda sia disponibile <pref type="time">dalle 7 alle 8,30</pref>'
        )

    def test_zero_spans_unchanged(self):
        record = GoldRecord("x", "niente di speciale", (), (), ())
        assert tag_utterance(record) == "niente di speciale"

    def test_two_spans_keep_order(self, pilot_records):
        record = next(r for r in pilot_records if len(r.spans) == 2)
        tagged = tag_utterance(record)
        assert tagged.count("<pref") == 2
        assert tagged.count("</pref>") == 2

    def test_stripping_tags_recovers_text(self, pilot_records):
        import re

        for record in pilot_records:
            tagged = tag_utterance(record)
            assert re.sub(r"</?pref[^>]*>", "", tagged) == record.text

    def test_temperature_spans_use_temp_type(self, pilot_records):
        record = next(r for r in pilot_records if any(s.kind == "temperature" for s in r.spans))
        assert '<pref type="temp">' in tag_utterance(record)

    def test_rendered_pieces_are_kept_apart_from_the_fields(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [SAMPLE_RECORD])
        record, fresh = load_dataset(path)[0], load_dataset(path)[0]
        assert record.tagged == tag_utterance(record)
        assert record.canonical == ("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30",)
        assert record == fresh and hash(record) == hash(fresh)
        assert record.to_dict() == fresh.to_dict() == SAMPLE_RECORD


class TestPilotCorpus:
    def test_shape(self, pilot_records):
        assert len(pilot_records) >= 26
        assert all(record.constraints for record in pilot_records)
        assert all(record.spans for record in pilot_records)

    def test_covers_all_condition_patterns(self, pilot_records):
        from pref2constraint.constraints import All, From, Range, Until

        kinds = {type(c.condition) for r in pilot_records for c in r.constraints}
        assert kinds == {All, Range, From, Until}

    def test_covers_both_variables(self, pilot_records):
        from pref2constraint.constraints import Variable

        variables = {c.variable for r in pilot_records for c in r.constraints}
        assert variables == {Variable.STATE, Variable.TEMPERATURE}
