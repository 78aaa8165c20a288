import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qtriage.backend import CompletionRequest, ConfigError
from qtriage.model import (
    LABELS,
    DatasetError,
    DatasetSpec,
    Question,
    cloze_to_mcq,
    load_dataset,
    normalize_number,
    relabel_choices,
    restrict_choices,
    save_dataset,
)


class TestNormalizeNumber:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("1,000", "1000"),
            ("$1000", "1000"),
            ("1000.0", "1000"),
            ("18", "18"),
            ("3.50", "3.5"),
            ("-0.0", "0"),
            ("  42 ", "42"),
            ("€2,500.00", "2500"),
        ],
    )
    def test_canonical_forms(self, raw, expected):
        assert normalize_number(raw) == expected

    def test_non_numeric_returns_none(self):
        assert normalize_number("twelve") is None
        assert normalize_number("") is None


class TestLoadDataset:
    def write(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        return p

    def test_basic_mcq_line(self, tmp_path):
        p = self.write(tmp_path, [
            {"id": "q1", "question": "2+2?", "choices": ["3", "4", "5", "6"], "gold": "B"}
        ])
        qs = load_dataset(p)
        assert len(qs) == 1
        assert qs[0].labels() == ("A", "B", "C", "D")
        assert qs[0].gold == "B"
        assert dict(qs[0].choices)["B"] == "4"

    def test_duplicate_choice_content_errors_with_line(self, tmp_path):
        p = self.write(tmp_path, [
            {"id": "q1", "question": "pick", "choices": ["x", "x"]}
        ])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(p)

    def test_duplicate_id_errors(self, tmp_path):
        rec = {"id": "q1", "question": "pick", "choices": ["a", "b"]}
        p = self.write(tmp_path, [rec, rec])
        with pytest.raises(DatasetError, match="duplicate question id"):
            load_dataset(p)

    def test_malformed_json_names_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "q1"}\nnot json\n')
        with pytest.raises(DatasetError, match="line 1|line 2"):
            load_dataset(p)

    def test_missing_field_named(self, tmp_path):
        p = self.write(tmp_path, [{"id": "q1", "choices": ["a"]}])
        with pytest.raises(DatasetError, match="question"):
            load_dataset(p)

    def test_cloze_line(self, tmp_path):
        p = self.write(tmp_path, [{"id": "g1", "question": "apples?", "gold": "18"}])
        qs = load_dataset(p, schema="cloze-jsonl")
        assert qs[0].kind == "cloze"
        assert qs[0].choices == ()
        assert qs[0].gold == "18"

    def test_cloze_gold_normalized(self, tmp_path):
        p = self.write(tmp_path, [{"id": "g1", "question": "cash?", "gold": "1,000"}])
        qs = load_dataset(p, schema="cloze-jsonl")
        assert qs[0].gold == "1000"

    @pytest.mark.parametrize("gold", ["inf", "-Infinity", "nan", "sNaN", float("nan")])
    def test_non_finite_cloze_gold_is_not_numeric(self, tmp_path, gold):
        p = self.write(tmp_path, [{"id": "g1", "question": "how many?", "gold": gold}])
        with pytest.raises(DatasetError, match="line 1: field 'gold' is not numeric"):
            load_dataset(p, schema="cloze-jsonl")

    def test_round_trip(self, tmp_path):
        p = self.write(tmp_path, [
            {"id": "q1", "question": "a?", "choices": ["x", "y"], "gold": "A"},
            {"id": "q2", "question": "b?", "choices": ["p", "q", "r"]},
        ])
        qs = load_dataset(p)
        out = tmp_path / "out.jsonl"
        save_dataset(out, qs)
        assert load_dataset(out) == qs


class TestRelabelChoices:
    def test_order_preserved(self):
        assert relabel_choices(["7", "3"]) == [("A", "7"), ("B", "3")]

    def test_singleton(self):
        assert relabel_choices(["x"]) == [("A", "x")]

    def test_empty_errors(self):
        with pytest.raises(DatasetError, match="mcq question needs choices"):
            Question(id="q", text="t?", choices=tuple(relabel_choices([])))

    def test_duplicates_error(self):
        with pytest.raises(DatasetError, match="duplicate choice content ' a '"):
            Question(id="q", text="t?", choices=tuple(relabel_choices(["a", " a "])))

    def test_27_contents_rejected(self):
        contents = [f"opt{i}" for i in range(27)]
        with pytest.raises(DatasetError, match="26"):
            relabel_choices(contents)

    def test_26_contents_ok(self):
        labels = [lab for lab, _ in relabel_choices([f"opt{i}" for i in range(26)])]
        assert labels[0] == "A" and labels[-1] == "Z"

    @given(st.lists(st.text(min_size=1), min_size=1, max_size=26, unique_by=lambda s: " ".join(s.split())))
    def test_labels_are_prefix_of_alphabet(self, contents):
        try:
            choices = relabel_choices(contents)
        except DatasetError:
            # whitespace-only contents normalize to empty and may collide
            return
        labels = [lab for lab, _ in choices]
        assert labels == [chr(ord("A") + i) for i in range(len(contents))]


class TestClozeToMcq:
    def cloze(self, gold):
        return Question(id="g1", text="how many?", kind="cloze", gold=gold)

    def test_dedup_first_appearance_and_gold(self):
        q, mapping = cloze_to_mcq(self.cloze("18"), ["18", "18", "20", "18", "16"])
        assert q.choices == (("A", "18"), ("B", "20"), ("C", "16"))
        assert q.gold == "A"
        assert mapping.origin == "g1"

    def test_gold_absent_when_not_sampled(self):
        q, _ = cloze_to_mcq(self.cloze("7"), ["5", "9"])
        assert q.choices == (("A", "5"), ("B", "9"))
        assert q.gold is None

    def test_all_equal_priors_give_singleton(self):
        q, _ = cloze_to_mcq(self.cloze("4"), ["4", "4", "4"])
        assert q.choices == (("A", "4"),)
        assert q.gold == "A"

    def test_empty_priors_error(self):
        with pytest.raises(DatasetError):
            cloze_to_mcq(self.cloze("4"), [])

    @given(st.lists(st.integers(min_value=0, max_value=30).map(str), min_size=1, max_size=20))
    def test_choices_are_dedup_in_first_occurrence_order(self, priors):
        q, _ = cloze_to_mcq(self.cloze(priors[0]), priors)
        contents = [c for _, c in q.choices]
        expected = []
        for p in priors:
            if p not in expected:
                expected.append(p)
        assert contents == expected
        assert len(contents) == len(set(priors))


@given(st.data())
def test_to_new_and_to_original_are_inverse_over_the_kept_choices(data):
    if data.draw(st.booleans(), label="cloze"):
        originals = data.draw(st.lists(st.integers(0, 99).map(str), min_size=1, max_size=10))
        _, mapping = cloze_to_mcq(Question(id="c", text="?", kind="cloze"), originals)
    else:
        n = data.draw(st.integers(1, 26), label="choices")
        q = Question(id="m", text="?", choices=tuple((LABELS[i], f"c{i}") for i in range(n)))
        kept = data.draw(st.lists(st.sampled_from(q.choices), min_size=1, unique=True))
        _, mapping = restrict_choices(q, kept)
        originals = list(q.labels())
    for new, orig in mapping.forward:
        assert mapping.to_new(mapping.to_original(new)) == new
        assert mapping.to_original(mapping.to_new(orig)) == orig
    for dropped in set(originals) - {orig for _, orig in mapping.forward}:
        with pytest.raises(KeyError):
            mapping.to_new(dropped)


class TestDatasetSpec:
    def test_valid(self):
        spec = DatasetSpec(name="d", divide_base=5)
        assert (spec.divide_base, spec.mu, spec.nu) == (5, Fraction(4, 5), Fraction(3, 5))

    def test_nu_must_be_below_mu(self):
        with pytest.raises(DatasetError):
            DatasetSpec(name="d", divide_base=5, mu=Fraction(3, 5), nu=Fraction(4, 5))

    def test_divide_base_minimum(self):
        with pytest.raises(DatasetError):
            DatasetSpec(name="d", divide_base=1)


# A valid value of each kind that checks itself when made; each refusal changes its fields.
VALID = {
    Question: {"id": "q1", "text": "t?", "choices": (("A", "x"), ("B", "y")), "gold": "A"},
    DatasetSpec: {"name": "d", "divide_base": 5},
    CompletionRequest: {"prompt": "p", "temperature": 0.7, "max_output_tokens": 8,
                        "sample_index": 0, "question_id": "q1", "phase": "divide"},
}


@pytest.mark.parametrize("kind, changes, error, refusal", [
    (Question, {"kind": "essay"}, DatasetError, "question q1: unknown kind 'essay'"),
    (Question, {"kind": "cloze", "gold": None}, DatasetError,
     "question q1: cloze question must have no choices"),
    (Question, {"kind": "cloze", "choices": (), "gold": "1,000"}, DatasetError,
     "question q1: cloze gold '1,000' is not a normalized number"),
    (Question, {"choices": ()}, DatasetError, "question q1: mcq question needs choices"),
    (Question, {"choices": (("A", "x"), ("C", "y"))}, DatasetError,
     "question q1: labels ('A', 'C') are not contiguous from 'A'"),
    (Question, {"choices": (("A", "x"), ("B", " \t"))}, DatasetError,
     "question q1: empty choice content"),
    (Question, {"choices": (("A", "x y"), ("B", " x  y "))}, DatasetError,
     "question q1: duplicate choice content ' x  y '"),
    (Question, {"gold": "C"}, DatasetError, "question q1: gold 'C' not among labels"),
    (DatasetSpec, {"divide_base": 1}, DatasetError, "divide_base must be >= 2, got 1"),
    (DatasetSpec, {"mu": Fraction(0)}, DatasetError, "mu must be in (0, 1], got 0"),
    (DatasetSpec, {"nu": Fraction(4, 5)}, DatasetError,
     "nu must be in [0, mu), got nu=4/5 mu=4/5"),
    (CompletionRequest, {"temperature": float("nan")}, ConfigError,
     "temperature nan outside [0, 2]"),
    (CompletionRequest, {"max_output_tokens": -3}, ConfigError,
     "max_output_tokens must be positive"),
    (CompletionRequest, {"sample_index": -2}, ConfigError, "sample_index must be non-negative"),
    (CompletionRequest, {"phase": ""}, ConfigError, "unknown phase ''"),
])
def test_a_value_that_breaks_its_checks_cannot_be_made(kind, changes, error, refusal):
    kind(**VALID[kind])
    with pytest.raises(error) as info:
        kind(**{**VALID[kind], **changes})
    assert str(info.value) == refusal
