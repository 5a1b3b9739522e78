import itertools
import random

import pytest

from graph2text.errors import EvalError
from graph2text.metrics import (
    clipped_ngram_counts,
    corpus_bleu,
    corpus_rouge_l,
    evaluate_corpus,
    lcs_length,
    rouge_l,
)


def brute_force_lcs(a, b) -> int:
    """Plain recursion on the LCS definition; exponential, for short inputs."""
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + brute_force_lcs(a[:-1], b[:-1])
    return max(brute_force_lcs(a[:-1], b), brute_force_lcs(a, b[:-1]))


class TestBleu:
    def test_identical_corpus_scores_100(self):
        hyps = [["the", "cat", "sat"], ["a", "dog", "ran", "far"]]
        assert corpus_bleu(hyps, hyps) == pytest.approx(100.0)

    def test_disjoint_tokens_near_zero(self):
        hyps = [["x", "y", "z", "w"]]
        refs = [["a", "b", "c", "d"]]
        assert corpus_bleu(hyps, refs) < 1e-6

    def test_modified_unigram_clipping(self):
        # "the the the" vs "the cat": count(the)=3 clipped to 1 -> 1/3
        clipped, total = clipped_ngram_counts(["the", "the", "the"], [["the", "cat"]], 1)
        assert (clipped, total) == (1, 3)

    def test_hand_computed_score(self):
        import math

        # hyp "the cat sat", ref "the cat sat down": p1 = 3/3, p2 = 2/2,
        # p3 = 1/1, the 4-gram order is vacuous and drops out, and the
        # brevity penalty is exp(1 - 4/3)
        score = corpus_bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
        assert score == pytest.approx(100.0 * math.exp(1.0 - 4.0 / 3.0))

    def test_brevity_penalty(self):
        import math

        hyp = [["the", "cat", "sat", "on"]]
        ref = [["the", "cat", "sat", "on", "a", "mat", "today", "ok"]]
        # all n-gram precisions are 1; BP = exp(1 - 8/4)
        assert corpus_bleu(hyp, ref) == pytest.approx(100.0 * math.exp(-1.0))

    def test_multiple_references_clip_over_all(self):
        hyps = [["a", "a"]]
        refs = [[["a", "b"], ["a", "a", "c"]]]
        clipped, total = clipped_ngram_counts(hyps[0], refs[0], 1)
        assert (clipped, total) == (2, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvalError):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_corpus_permutation_invariant(self):
        hyps = [["a", "b", "c", "d"], ["x", "y", "z", "q"], ["m", "n", "o", "p"]]
        refs = [["a", "b", "c", "e"], ["x", "y", "w", "q"], ["m", "n", "o", "p"]]
        base = corpus_bleu(hyps, refs)
        order = [2, 0, 1]
        assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == pytest.approx(base)


class TestRougeL:
    def test_identical_is_100(self):
        assert rouge_l(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert rouge_l(["a", "b"], ["x", "y"]) == 0.0

    def test_hand_computed_example(self):
        # LCS("a b c d", "a c d") = 3; P = 3/4, R = 1, F = 6/7
        assert rouge_l(["a", "b", "c", "d"], ["a", "c", "d"]) == pytest.approx(600.0 / 7.0)

    def test_empty_rejected(self):
        with pytest.raises(EvalError, match="non-empty references"):
            rouge_l(["a"], [])

    def test_empty_hypothesis_scores_zero(self):
        # generate writes an empty line when <EOS> wins the first step
        assert rouge_l([], ["a"]) == 0.0
        assert rouge_l([], [["a"], ["b", "c"]]) == 0.0
        report = evaluate_corpus([[], ["a", "b"]], [["a"], ["a", "b"]])
        assert [e["rouge_l"] for e in report.per_example] == [0.0, 100.0]

    def test_multiple_references_take_best(self):
        score = rouge_l(["a", "b"], [["x", "y"], ["a", "b"]])
        assert score == pytest.approx(100.0)

    def test_corpus_mean(self):
        hyps = [["a", "b"], ["x"]]
        refs = [["a", "b"], ["x"]]
        assert corpus_rouge_l(hyps, refs) == pytest.approx(100.0)


class TestLcs:
    def test_exhaustive_short_sequences(self):
        alphabet = "abc"
        sequences = [
            list(s)
            for length in range(0, 4)
            for s in itertools.product(alphabet, repeat=length)
        ]
        for a in sequences:
            for b in sequences:
                assert lcs_length(a, b) == brute_force_lcs(a, b)

    def test_random_sequences_up_to_length_8(self):
        rng = random.Random(17)
        alphabet = ["a", "b", "c"]
        for _ in range(400):
            a = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            b = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)


class TestReport:
    def test_self_evaluation_is_perfect(self):
        hyps = [["a", "b"], ["c", "d", "e"]]
        report = evaluate_corpus(hyps, hyps)
        assert report.bleu == pytest.approx(100.0)
        assert report.rouge_l == pytest.approx(100.0)
        assert len(report.per_example) == 2
        assert set(report.as_dict()) == {"bleu", "rouge_l", "per_example"}

    def test_scores_equal_the_corpus_functions_bitwise(self):
        rng = random.Random(3)
        alphabet = "abcdefg"
        hyps = [[rng.choice(alphabet) for _ in range(rng.randint(1, 9))] for _ in range(7)]
        refs = [
            [[rng.choice(alphabet) for _ in range(rng.randint(1, 9))] for _ in range(k % 3 + 1)]
            for k in range(7)
        ]
        refs[0] = refs[0][0]  # a single reference given as bare tokens
        report = evaluate_corpus(hyps, refs)
        assert report.rouge_l == corpus_rouge_l(hyps, refs)
        assert report.bleu == corpus_bleu(hyps, refs)
        assert [e["rouge_l"] for e in report.per_example] == [
            rouge_l(h, r) for h, r in zip(hyps, refs)
        ]
        assert [e["index"] for e in report.per_example] == list(range(7))

    @pytest.mark.parametrize("score", [evaluate_corpus, corpus_bleu, corpus_rouge_l])
    def test_empty_corpus_and_length_mismatch_rejected(self, score):
        with pytest.raises(EvalError, match="cannot score an empty corpus"):
            score([], [])
        with pytest.raises(EvalError, match="2 hypotheses but 1 references"):
            score([["a"], ["b"]], [["a"]])
