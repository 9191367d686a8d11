"""Answer extraction, equivalence, and self-consistency voting."""

import random
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnav.answers import answers_equivalent, extract_answer, majority_vote
from qnav.core import DatasetKind

MATH = DatasetKind.MATH_BOXED
NUM = DatasetKind.ELEMENTARY_MATH_NUMERIC
CHOICE = DatasetKind.MULTIPLE_CHOICE
YESNO = DatasetKind.YES_NO


class TestBoxedExtraction:
    def test_simple(self):
        assert extract_answer("So we get \\boxed{42}.", MATH) == "42"

    def test_without_backslash(self):
        assert extract_answer("final: boxed{17}", MATH) == "17"

    def test_last_occurrence_wins(self):
        text = "First guess \\boxed{3}. Correcting: \\boxed{5}."
        assert extract_answer(text, MATH) == "5"

    def test_nested_boxes_resolve_innermost(self):
        assert extract_answer("\\boxed{\\boxed{7}}", MATH) == "7"

    def test_balanced_inner_braces_survive(self):
        assert extract_answer("\\boxed{\\frac{3}{4}}", MATH) == "\\frac{3}{4}"

    def test_unbalanced_braces_yield_none(self):
        assert extract_answer("\\boxed{42", MATH) is None

    def test_no_marker(self):
        assert extract_answer("the result is 42", MATH) is None


class TestNumericExtraction:
    def test_simple(self):
        assert extract_answer("The answer is 7.", NUM) == "7"

    def test_negative_and_decimal(self):
        assert extract_answer("the answer is -2.5", NUM) == "-2.5"

    def test_currency_and_commas(self):
        assert extract_answer("The answer is $1,736.", NUM) == "1,736"

    def test_simple_fraction(self):
        assert extract_answer("The answer is 3/4.", NUM) == "3/4"

    def test_spaced_fraction_is_a_number(self):
        answer = extract_answer("The answer is 3 / 4", NUM)
        assert answer == "3 / 4"
        assert answers_equivalent(answer, "0.75", NUM)
        assert answers_equivalent(answer, "3/4", NUM)

    def test_colon_variant(self):
        assert extract_answer("the answer is: 12", NUM) == "12"

    def test_last_occurrence_wins(self):
        text = "The answer is 3. No wait, the answer is 9."
        assert extract_answer(text, NUM) == "9"

    def test_no_marker(self):
        assert extract_answer("we compute 3+4=7", NUM) is None


class TestChoiceExtraction:
    def test_parenthesized(self):
        assert extract_answer("The answer is (B).", CHOICE) == "B"

    def test_bare_lowercase(self):
        assert extract_answer("so the answer is c", CHOICE) == "C"

    def test_half_parenthesized(self):
        assert extract_answer("The answer is (a", CHOICE) == "A"

    def test_word_after_letter_blocks_match(self):
        assert extract_answer("The answer is Boston.", CHOICE) is None

    def test_last_occurrence_wins(self):
        text = "The answer is (A). Actually the answer is (D)."
        assert extract_answer(text, CHOICE) == "D"

    def test_out_of_range_letter(self):
        assert extract_answer("The answer is (Z).", CHOICE) is None


class TestYesNoExtraction:
    def test_marker_form(self):
        assert extract_answer("The answer is YES.", YESNO) == "yes"

    def test_marker_last_occurrence(self):
        text = "The answer is yes... on reflection, the answer is no."
        assert extract_answer(text, YESNO) == "no"

    def test_bare_token_fallback_on_last_line(self):
        assert extract_answer("Let me check.\n\nNO", YESNO) == "no"
        assert extract_answer("YES", YESNO) == "yes"

    def test_bare_fallback_ignores_earlier_lines(self):
        assert extract_answer("yes this is tricky\nfinal word: no", YESNO) == "no"

    def test_embedded_words_do_not_match(self):
        assert extract_answer("Yesterday we did nothing", YESNO) is None

    def test_no_token(self):
        assert extract_answer("maybe", YESNO) is None


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        extract_answer("text", "not_a_kind")


class TestEquivalence:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("0.5", "1/2"),
            ("1,736", "1736"),
            ("\\frac{1}{2}", "0.5"),
            ("$14", "14"),
            ("3.0", "3"),
            ("-2", "-2.0"),
            ("{7}", "7"),
            ("7.", "7"),
        ],
    )
    def test_numeric_equivalent(self, a, b):
        assert answers_equivalent(a, b, NUM)
        assert answers_equivalent(a, b, MATH)
        assert answers_equivalent(b, a, NUM)

    @pytest.mark.parametrize("a,b", [("7", "8"), ("0.5", "0.51"), ("1.0", "1.00001")])
    def test_numeric_distinct(self, a, b):
        assert not answers_equivalent(a, b, NUM)

    def test_tight_tolerance(self):
        assert answers_equivalent("1.0", "1.0000000001", NUM)  # within 1e-9 relative
        assert not answers_equivalent("1.0", "1.00001", NUM)

    def test_unparseable_falls_back_to_exact_text(self):
        assert answers_equivalent("x+1", "x+1", MATH)
        assert not answers_equivalent("x+1", "x+2", MATH)

    def test_choice_case_blind(self):
        assert answers_equivalent("b", "B", CHOICE)
        assert not answers_equivalent("B", "C", CHOICE)

    def test_yesno_case_blind(self):
        assert answers_equivalent("YES", "yes", YESNO)
        assert not answers_equivalent("yes", "no", YESNO)


# Answer spellings per kind, grouped into equivalence classes.
VOTE_POOLS = {
    NUM: [["7", "7.0", "07", "14/2"], ["8"], ["1/2", "0.5"], ["-3", "-3.0"], ["nan"]],
    MATH: [["\\frac{1}{2}", "1/2", "0.5"], ["\\frac{3}{4}", "0.75", "3 / 4"], ["x+1"], ["nan"]],
    CHOICE: [["A", "a"], ["B", "b"], ["C"]],
    YESNO: [["yes", "YES", "Yes"], ["no", "NO"]],
}


@st.composite
def vote_inputs(draw):
    """(answers, kind, seed): 1-9 answers drawn from a few classes, so repeats and ties are common."""
    kind = draw(st.sampled_from(sorted(VOTE_POOLS, key=lambda k: k.value)))
    spellings = [s for pool in VOTE_POOLS[kind] for s in pool]
    answers = draw(st.lists(st.sampled_from(spellings), min_size=1, max_size=9))
    return answers, kind, draw(st.integers(0, 2**32 - 1))


class TestMajorityVote:
    @given(vote_inputs())
    def test_index_names_the_winners_first_position(self, inputs):
        answers, kind, seed = inputs
        v = majority_vote(answers, kind, seed=seed)
        assert answers[v.index] == v.winner
        assert answers.index(v.winner) == v.index

    def test_clear_majority(self):
        result = majority_vote(["7", "7", "8"], NUM)
        assert result.winner == "7"
        assert result.tie_broken is False

    def test_nan_answers_pool_votes(self):
        result = majority_vote(["nan", "nan", "7"], NUM, seed=0)
        assert (result.winner, result.index, result.tie_broken) == ("nan", 0, False)

    def test_equivalent_answers_pool_votes(self):
        result = majority_vote(["1/2", "0.7", "0.5"], NUM)
        assert result.winner == "1/2"  # first-seen representative of the class
        assert result.tie_broken is False

    def test_half_and_decimal_beat_odd_one_out(self):
        result = majority_vote(["0.5", "0.7", "1/2"], NUM)
        assert result.winner == "0.5"
        assert result.tie_broken is False

    def test_tie_is_flagged_and_seed_deterministic(self):
        a = majority_vote(["7", "8"], NUM, seed=5)
        b = majority_vote(["7", "8"], NUM, seed=5)
        assert a.tie_broken is True
        assert a == b
        assert a.winner in {"7", "8"}

    def test_tie_break_matches_seeded_choice(self):
        answers = ["7", "8", "9"]
        result = majority_vote(answers, NUM, seed=11)
        assert result.winner == random.Random(11).choice(["7", "8", "9"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([], NUM)

    def test_against_group_counting_oracle(self):
        # Pools whose members are mutually equivalent but distinct across
        # pools; group counting gives an independent expected outcome.
        pools = [["7", "7.0", "07"], ["8"], ["1/2", "0.5"], ["-3", "-3.0"]]
        rng = random.Random(42)
        for trial in range(300):
            answers = [
                rng.choice(pools[rng.randrange(len(pools))])
                for _ in range(rng.randint(1, 9))
            ]
            result = majority_vote(answers, NUM, seed=trial)

            group_of = {}
            counts = {}
            first_seen = {}
            for ans in answers:
                for gi, pool in enumerate(pools):
                    if ans in pool:
                        group_of[ans] = gi
                        counts[gi] = counts.get(gi, 0) + 1
                        first_seen.setdefault(gi, ans)
                        break
            best = max(counts.values())
            tied_reps = [first_seen[g] for g in sorted(first_seen) if counts[g] == best]
            tied_reps.sort(key=answers.index)
            assert result.tie_broken == (len(tied_reps) > 1)
            if len(tied_reps) == 1:
                assert result.winner == tied_reps[0]
            else:
                assert result.winner == random.Random(trial).choice(tied_reps)


# Pieces of LLM replies: answer markers, braces, signs, decimal points,
# fraction bars and exponent marks, and numbers up to 13 digits, so that
# exponents far outside float range are common.
REPLY_PIECES = st.one_of(
    st.sampled_from(["\\boxed{", "boxed{", "\\frac{", "{", "}", "}{", "The answer is ", "the answer is: ", "$",
                     "(", ")", ",", ".", "/", "-", "+", "e", "E", "e-", " ", "\n", "yes", "No", "b", "inf", "nan"]),
    st.integers(0, 10**13).map(str),
    st.text(max_size=3),
)
REPLIES = st.lists(REPLY_PIECES, max_size=40).map("".join)
KINDS = st.sampled_from(list(DatasetKind))
# Each example's calls take microseconds; expanding 1e-10000000 exactly took 8.8 s.
BUDGET = settings(deadline=timedelta(seconds=1))


class TestMalformedReplies:
    """No reply text makes extraction, equivalence or the vote raise or stall."""

    @BUDGET
    @given(REPLIES, KINDS)
    @example("The answer is \\boxed{1e309}.", MATH)
    def test_extract_answer_returns_none_or_text(self, text, kind):
        answer = extract_answer(text, kind)
        assert answer is None or isinstance(answer, str)

    @BUDGET
    @given(REPLIES, REPLIES, KINDS)
    @example("1e309", "7", MATH)
    @example("1e309", "1e400", NUM)
    @example("1e-10000000", "0", MATH)
    @example("1e999999999", "-1e999999999", MATH)
    @example("1" * 4000 + "/3", "7", MATH)
    def test_answers_equivalent_returns_a_bool(self, a, b, kind):
        assert answers_equivalent(a, b, kind) in (True, False)

    @BUDGET
    @given(st.lists(REPLIES, min_size=1, max_size=9), KINDS, st.integers(0, 2**32 - 1))
    @example(["1e309", "7", "1e309"], MATH, 0)
    def test_majority_vote_names_one_of_its_answers(self, answers, kind, seed):
        v = majority_vote(answers, kind, seed=seed)
        assert answers[v.index] == v.winner
