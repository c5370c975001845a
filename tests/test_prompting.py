import hashlib
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from oracles import draw_oracle, prompt_oracle
from pref2constraint import dataset, prompting
from pref2constraint.constraints import parse_constraint
from pref2constraint.dataset import GoldRecord, load_pilot_corpus, resource_path
from pref2constraint.prompting import (
    MAX_FEW_SHOT,
    ExamplePool,
    InsufficientDataError,
    LeakageError,
    PromptSpec,
    PromptingError,
    ShotSetting,
    UnknownExampleError,
    UnknownTemplateError,
    build_prompt,
    get_template,
    select_examples,
)


TEMPLATE_IDS = sorted(path.stem for path in resource_path("templates").glob("*.txt"))


def spec_for(records, target_id, shot, seed=0, template="it"):
    target = next(r for r in records if r.id == target_id)
    example_ids = tuple(select_examples(records, target_id, shot.n_examples, seed))
    return PromptSpec(template, shot, example_ids, target)


class TestShotSetting:
    def test_labels(self):
        assert ShotSetting(0).label == "0s"
        assert ShotSetting(1).label == "1s"
        assert ShotSetting(5).label == "fs"

    def test_few_shot_bounds(self):
        with pytest.raises(PromptingError):
            ShotSetting.from_label("fs", 1)
        with pytest.raises(PromptingError):
            ShotSetting.from_label("fs", 6)

    def test_from_label(self):
        assert ShotSetting.from_label("fs", 3).n_examples == 3
        with pytest.raises(PromptingError):
            ShotSetting.from_label("2s")


class TestBuildPrompt:
    def test_zero_shot_has_no_examples(self, pilot_records):
        prompt = build_prompt(spec_for(pilot_records, "u01", ShotSetting(0)), pilot_records)
        template = get_template("it")
        assert template.examples_header not in prompt
        assert prompt.count(template.example_label) == 1  # the target line only
        markers = [m for m in template.section_markers if m != template.examples_header]
        positions = [prompt.index(m) for m in markers]
        assert positions == sorted(positions)

    def test_one_shot_block_count(self, pilot_records):
        prompt = build_prompt(spec_for(pilot_records, "u01", ShotSetting(1)), pilot_records)
        template = get_template("it")
        assert prompt.count(template.example_label) == 2
        assert prompt.count(template.constraints_label) == 2

    def test_few_shot_blocks_sit_between_format_and_target(self, pilot_records):
        prompt = build_prompt(spec_for(pilot_records, "u01", ShotSetting(5)), pilot_records)
        template = get_template("it")
        assert prompt.count(template.example_label) == 6
        positions = [prompt.index(m) for m in template.section_markers]
        assert positions == sorted(positions)

    def test_deterministic(self, pilot_records):
        spec = spec_for(pilot_records, "u05", ShotSetting(5), seed=3)
        assert build_prompt(spec, pilot_records) == build_prompt(spec, pilot_records)

    def test_target_constraints_never_leak(self, pilot_records):
        from pref2constraint.constraints import render_constraint

        for shot in (ShotSetting(0), ShotSetting(1), ShotSetting(5)):
            spec = spec_for(pilot_records, "u01", shot)
            prompt = build_prompt(spec, pilot_records)
            target_block = prompt[prompt.rindex(get_template("it").section_markers[-1]):]
            for constraint in spec.target.constraints:
                assert render_constraint(constraint) not in target_block

    def test_leakage_error(self, pilot_records):
        target = pilot_records[0]
        with pytest.raises(LeakageError):
            PromptSpec("it", ShotSetting(1), (target.id,), target)

    def test_unknown_example(self, pilot_records):
        spec = PromptSpec("it", ShotSetting(1), ("nope",), pilot_records[0])
        with pytest.raises(UnknownExampleError):
            build_prompt(spec, pilot_records)

    def test_unknown_template(self, pilot_records):
        spec = PromptSpec("xx", ShotSetting(0), (), pilot_records[0])
        with pytest.raises(UnknownTemplateError):
            build_prompt(spec, pilot_records)

    def test_spec_example_count_checked(self, pilot_records):
        with pytest.raises(PromptingError):
            PromptSpec("it", ShotSetting(5), ("u02",), pilot_records[0])

    def test_english_template(self, pilot_records):
        prompt = build_prompt(
            spec_for(pilot_records, "u01", ShotSetting(1), template="en"), pilot_records
        )
        template = get_template("en")
        assert prompt.count(template.example_label) == 2
        positions = [prompt.index(m) for m in template.section_markers]
        assert positions == sorted(positions)

    def test_placeholders_inside_utterances_are_kept(self):
        def prompt_for(example_text, target_text):
            target = GoldRecord("t", target_text, (), (), ())
            constraint = parse_constraint("s_t = 1 ∀ t")
            example = GoldRecord("e", example_text, (), (constraint,), ("s_t = 1 ∀ t",))
            return build_prompt(PromptSpec("it", ShotSetting(1), ("e",), target), [target, example])

        plain = prompt_for("scrivi XX qui", "accendi alle 7 YY")
        assert prompt_for("scrivi {{target}} qui", "accendi alle 7 {{examples}}") == (
            plain.replace("XX", "{{target}}").replace("YY", "{{examples}}")
        )

    def test_every_template_declares_markers(self):
        for template_id in TEMPLATE_IDS:
            assert len(get_template(template_id).section_markers) == 5


@pytest.mark.parametrize("template_id", TEMPLATE_IDS)
class TestTemplateContract:
    """What every ``templates/*.txt`` file must hold for build_prompt to use it."""

    def test_five_sections_in_order(self, template_id):
        template = get_template(template_id)
        assert len(set(template.section_markers)) == 5  # five distinct headings
        assert template.section_markers[3] == template.examples_header
        lines = template.text.split("\n")
        target_line = lines.index(f"{template.example_label} {{{{target}}}}")
        assert lines.index(template.section_markers[-1]) < target_line

    @pytest.mark.parametrize("shot", [ShotSetting(0), ShotSetting(1), ShotSetting(5)])
    def test_prompt_blocks(self, pilot_records, template_id, shot):
        template = get_template(template_id)
        spec = spec_for(pilot_records, "u01", shot, template=template_id)
        prompt = build_prompt(spec, pilot_records)
        k = shot.n_examples
        assert prompt.count(template.example_label) == k + 1
        assert prompt.count(template.constraints_label) == k + 1
        assert (template.examples_header in prompt) == (k > 0)
        assert "{{" not in prompt


@pytest.mark.parametrize("template_id", ["", "IT", "../data/pilot_it"])
def test_template_id_must_name_a_template_file(template_id):
    with pytest.raises(UnknownTemplateError) as caught:
        get_template(template_id)
    assert str(caught.value) == f"unknown template {template_id!r}; available: {TEMPLATE_IDS}"


class TestSelectExamples:
    def test_zero(self, pilot_records):
        assert select_examples(pilot_records, "u01", 0, seed=7) == []

    def test_seeded_determinism(self, pilot_records):
        first = select_examples(pilot_records, "u01", 1, seed=7)
        second = select_examples(pilot_records, "u01", 1, seed=7)
        assert first == second and len(first) == 1

    def test_different_seeds_differ_somewhere(self, pilot_records):
        selections = {
            tuple(select_examples(pilot_records, "u01", 5, seed=s)) for s in range(10)
        }
        assert len(selections) > 1

    def test_target_never_selected(self, pilot_records):
        for seed in range(25):
            for record in pilot_records[:5]:
                chosen = select_examples(pilot_records, record.id, 5, seed)
                assert record.id not in chosen

    def test_examples_never_reveal_target_constraints(self, pilot_records):
        by_id = {r.id: r for r in pilot_records}
        for seed in range(4):
            for record in pilot_records:
                for chosen in select_examples(pilot_records, record.id, 5, seed):
                    assert not set(by_id[chosen].constraints) & set(record.constraints)

    def test_insufficient_data(self, pilot_records):
        with pytest.raises(InsufficientDataError):
            select_examples(pilot_records[:3], "u01", 5, seed=0)


def scaled_corpus(records, copies):
    """The records copied under fresh ids: every gold constraint has `copies` times the holders."""
    return [replace(r, id=f"{r.id}-copy{copy}") for copy in range(copies) for r in records]


def selections(dataset, target_id, k, seed):
    """(select_examples, ExamplePool.select, oracle) results; "raises" for a raised error."""
    results = []
    for select, error in (
        (lambda: select_examples(dataset, target_id, k, seed), InsufficientDataError),
        (lambda: ExamplePool(dataset, seed).select(target_id, k), InsufficientDataError),
        (lambda: draw_oracle(dataset, target_id, k, seed), ValueError),
    ):
        try:
            results.append(select())
        except error:
            results.append("raises")
    return results


class TestExamplePool:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_oracle_on_scaled_corpus(self, pilot_records, seed):
        corpus = scaled_corpus(pilot_records, 4)
        pool = ExamplePool(corpus, seed)
        for record in corpus:
            chosen = {k: pool.select(record.id, k) for k in range(MAX_FEW_SHOT + 1)}
            for k, ids in chosen.items():
                assert ids == select_examples(corpus, record.id, k, seed)
                assert ids == draw_oracle(corpus, record.id, k, seed)
                assert all(ids[:j] == chosen[j] for j in range(k + 1))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_raises_exactly_when_oracle_runs_short(self, pilot_records, seed):
        corpus = scaled_corpus(pilot_records, 4)
        raised = 0
        for size in range(MAX_FEW_SHOT + 3):
            dataset = corpus[:size]
            for target_id in [r.id for r in dataset] + ["not-in-corpus"]:
                for k in range(MAX_FEW_SHOT + 1):
                    new, pooled, expected = selections(dataset, target_id, k, seed)
                    assert new == pooled == expected
                    raised += expected == "raises"
        assert raised > 0

    def test_repeated_id_is_refused(self, pilot_records):
        # a second copy reusing the ids of other records: its first id is u02
        shifted = [
            replace(r, id=pilot_records[(i + 1) % len(pilot_records)].id)
            for i, r in enumerate(pilot_records)
        ]
        dataset = pilot_records + shifted
        with pytest.raises(PromptingError, match="duplicate record id 'u02'"):
            ExamplePool(dataset, 3)
        for k in (0, 5):
            with pytest.raises(PromptingError, match="duplicate record id 'u02'"):
                select_examples(dataset, "u01", k, seed=3)

    def test_negative_k_rejected(self, pilot_records):
        with pytest.raises(PromptingError):
            ExamplePool(pilot_records, 0).select("u01", -1)

    def test_record_sharing_two_constraints_is_left_out_once(self):
        texts = ("s_t = 1 ∀ t", "h_t = 21 ∀ t")
        constraints = tuple(parse_constraint(text) for text in texts)
        dataset = [GoldRecord(record_id, "x", (), constraints, texts) for record_id in ("t", "twin")]
        dataset += [GoldRecord(f"free{i}", "x", (), (), ()) for i in range(3)]
        assert sorted(ExamplePool(dataset, 0).select("t", 3)) == ["free0", "free1", "free2"]
        with pytest.raises(InsufficientDataError, match="only 3 records are available"):
            ExamplePool(dataset, 0).select("t", 4)

    def test_known_answer(self, pilot_records):
        assert ExamplePool(pilot_records, 0).select("u01", 5) == ["u13", "u26", "u16", "u21", "u04"]

    def test_record_order_does_not_matter(self, pilot_records):
        shuffled = list(pilot_records)
        random.Random(5).shuffle(shuffled)
        assert shuffled != pilot_records
        for seed in range(4):
            pool, shuffled_pool = ExamplePool(pilot_records, seed), ExamplePool(shuffled, seed)
            for record in pilot_records:
                for k in range(MAX_FEW_SHOT + 1):
                    assert pool.select(record.id, k) == shuffled_pool.select(record.id, k)

    @pytest.mark.parametrize("target_id", ["u01", "u13"])
    def test_first_pick_is_uniform(self, pilot_records, target_id):
        first_picks = Counter(
            ExamplePool(pilot_records, seed).select(target_id, 1)[0] for seed in range(2000)
        )
        target = next(r for r in pilot_records if r.id == target_id)
        free = [
            r.id
            for r in pilot_records
            if r.id != target_id and not set(r.constraints) & set(target.constraints)
        ]
        assert set(first_picks) <= set(free)
        expected = 2000 / len(free)
        chi_square = sum((first_picks[i] - expected) ** 2 / expected for i in free)
        # Wilson-Hilferty approximation of the chi-square 0.999 quantile (z = 3.0902)
        df, z = len(free) - 1, 3.0902
        assert chi_square < df * (1 - 2 / (9 * df) + z * (2 / (9 * df)) ** 0.5) ** 3

    def test_about_one_hash_per_pick(self, pilot_records, monkeypatch):
        digests = []

        class CountedHash:
            """A SHA-256 object that counts each digest taken, copies included."""

            def __init__(self, inner):
                self._inner = inner

            def update(self, data):
                self._inner.update(data)

            def copy(self):
                return CountedHash(self._inner.copy())

            def digest(self):
                digests.append(None)
                return self._inner.digest()

        def sha256(data=b""):
            return CountedHash(hashlib.sha256(data))

        monkeypatch.setattr(prompting, "hashlib", SimpleNamespace(sha256=sha256))
        corpus = scaled_corpus(pilot_records, 80)
        pool = ExamplePool(corpus, 0)
        for record in corpus:
            assert len(pool.select(record.id, 5)) == 5
        assert len(digests) <= 1.2 * 5 * len(corpus)


class TestRecordPieces:
    def test_each_piece_is_rendered_once_with_the_same_bytes(self, monkeypatch):
        records = load_pilot_corpus()  # fresh records: those of the shared fixture keep their pieces
        specs = [
            spec_for(records, record.id, ShotSetting(n), template=template)
            for template in TEMPLATE_IDS
            for record in records
            for n in (0, 1, MAX_FEW_SHOT)
        ]

        def plain(spec):  # every piece rendered anew, on copies that keep nothing
            copies = [replace(record) for record in records]
            return build_prompt(replace(spec, target=replace(spec.target)), copies)

        plain_prompts = [plain(spec) for spec in specs]
        tagged, rendered = Counter(), Counter()
        tag_utterance, render_constraint = dataset.tag_utterance, dataset.render_constraint

        def counted_tag(record):
            tagged[record.id] += 1
            return tag_utterance(record)

        def counted_render(constraint):
            rendered[constraint] += 1
            return render_constraint(constraint)

        monkeypatch.setattr(dataset, "tag_utterance", counted_tag)
        monkeypatch.setattr(dataset, "render_constraint", counted_render)
        assert [build_prompt(spec, records) for spec in specs] == plain_prompts
        assert tagged == Counter({record.id: 1 for record in records})
        # Each example record renders its gold constraints once, for every template.
        by_id = {record.id: record for record in records}
        examples = {example_id for spec in specs for example_id in spec.example_ids}
        assert rendered == Counter(c for i in examples for c in by_id[i].constraints)


def template_text(template_id):
    return (resource_path("templates") / f"{template_id}.txt").read_text(encoding="utf-8")


def oracle_prompt(spec, examples):
    shown = [(record.tagged, record.canonical) for record in examples]
    return prompt_oracle(template_text(spec.template_id), spec.target.tagged, shown)


@pytest.mark.parametrize("template_id", TEMPLATE_IDS)
class TestPromptOracle:
    """``build_prompt`` joins pieces split once; the oracle fills the template by ``replace``."""

    @pytest.mark.parametrize("n", range(MAX_FEW_SHOT + 1))
    def test_every_pilot_target_and_shot(self, pilot_records, template_id, n):
        pool = ExamplePool(pilot_records, 0)
        for target in pilot_records:
            spec = PromptSpec(template_id, ShotSetting(n), tuple(pool.select(target.id, n)), target)
            examples = [pool.records[i] for i in spec.example_ids]
            assert build_prompt(spec, examples) == oracle_prompt(spec, examples)

    @pytest.mark.parametrize("n", [0, 1, 2, MAX_FEW_SHOT])
    def test_utterances_holding_placeholders(self, template_id, n):
        gold = parse_constraint("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30")
        texts = [
            "{{target}}",
            "accendi {{examples}} alle 7",
            "{{examples}}{{target}}\n\n{{examples}}",
            "spegni {{target}} e {{examples}} dopo le 23",
            "nulla",
            "{{ target }} {{example}} {{examples",
            "## Esempi\n{{examples}}\n\n## Examples\n{{examples}}\n\n",
        ]
        records = [
            GoldRecord(f"r{i}", text, (), (gold,), ("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30",))
            for i, text in enumerate(texts)
        ]
        for target in records:
            others = [record for record in records if record is not target][:n]
            spec = PromptSpec(template_id, ShotSetting(n), tuple(r.id for r in others), target)
            prompt = build_prompt(spec, others)
            assert prompt == oracle_prompt(spec, others)
            assert prompt.count(target.text) >= 1


class TestGoldenPrompts:
    @pytest.mark.parametrize("label,n_blocks", [("0s", 1), ("1s", 2), ("fs", 6)])
    def test_byte_identical_to_golden(self, pilot_records, golden_dir, label, n_blocks):
        shot = ShotSetting.from_label(label)
        prompt = build_prompt(spec_for(pilot_records, "u01", shot, seed=0), pilot_records)
        golden = (golden_dir / f"prompt_{label}.txt").read_text(encoding="utf-8")
        assert prompt == golden
        assert prompt.count("Frase:") == n_blocks
