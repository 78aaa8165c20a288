import pytest
from hypothesis import given, strategies as st

from qtriage.extraction import (
    extract_choice_answer,
    extract_numeric_answer,
)

LABELS_AE = set("ABCDE")


class TestChoiceExtraction:
    def test_answer_is_paren(self):
        r = extract_choice_answer("Working it out... so the answer is (B).", LABELS_AE)
        assert r.value == "B" and r.rule_id == "answer-phrase"

    def test_last_answer_phrase_wins(self):
        r = extract_choice_answer("Option C is wrong; the answer is D", LABELS_AE)
        assert r.value == "D"

    def test_colon_form(self):
        assert extract_choice_answer("Answer: E", LABELS_AE).value == "E"

    def test_unparsed(self):
        r = extract_choice_answer("I cannot decide.", LABELS_AE)
        assert not r.is_parsed

    def test_paren_label_in_final_line(self):
        text = "Discussing (A) and (B) here.\nFinal pick: (C)"
        assert extract_choice_answer(text, LABELS_AE).value == "C"

    def test_bare_label_adjacent_to_punctuation(self):
        text = "Reasoning...\nTherefore B."
        assert extract_choice_answer(text, LABELS_AE).value == "B"

    @pytest.mark.parametrize("ending", ["", "\n", "\r\n", "\r"])
    def test_bare_label_on_last_line_with_any_line_ending(self, ending):
        r = extract_choice_answer(f"Reasoning...\nI pick B{ending}", LABELS_AE)
        assert r.value == "B" and r.rule_id == "bare-label"

    def test_label_outside_set_ignored(self):
        r = extract_choice_answer("the answer is F", set("AB"))
        assert not r.is_parsed

    def test_answer_is_a_prose_not_matched(self):
        r = extract_choice_answer("the answer is a tricky thing to find", LABELS_AE)
        assert not r.is_parsed

    def test_pure_and_total(self):
        for text in ("", "\n\n", "()", "(Z)", "123"):
            r1 = extract_choice_answer(text, LABELS_AE)
            r2 = extract_choice_answer(text, LABELS_AE)
            assert r1 == r2

    @given(st.text(alphabet=st.characters(blacklist_categories=("Lu",)), max_size=200))
    def test_prefix_prose_never_changes_result(self, prose):
        # last-match semantics: prepending non-answer prose is inert
        base = "the answer is (C)."
        with_prefix = prose.replace("answer", "reply") + "\n" + base
        assert extract_choice_answer(with_prefix, LABELS_AE).value == "C"


class TestNumericExtraction:
    def test_answer_cue_with_commas(self):
        r = extract_numeric_answer("...the answer is 1,000 dollars.")
        assert r.value == "1000"

    def test_last_answer_cue_wins(self):
        r = extract_numeric_answer("18 apples minus 2 gives the answer is 16")
        assert r.value == "16"

    def test_no_number_unparsed(self):
        assert not extract_numeric_answer("no numeric result").is_parsed

    def test_last_number_of_final_line_fallback(self):
        assert extract_numeric_answer("step 1\nwe get 12 then 42").value == "42"

    def test_last_number_of_a_crlf_final_line(self):
        r = extract_numeric_answer("step 1\r\nwe get 12 then 42\r\n")
        assert r.value == "42" and r.rule_id == "last-number"

    def test_trailing_decimal_normalized(self):
        assert extract_numeric_answer("the answer is 16.0").value == "16"
