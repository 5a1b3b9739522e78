"""Corpus-level BLEU and LCS-based ROUGE-L over tokenized sentences.

Both metrics accept one reference per hypothesis or a list of references:
BLEU clips n-gram counts against all references, ROUGE-L takes the best
reference per pair. Scores are reported on a 0-100 scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import EvalError

_ZERO_COUNT_EPS = 1e-9
_BLEU_MAX_N = 4


@dataclass
class EvalReport:
    bleu: float
    rouge_l: float
    per_example: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"bleu": self.bleu, "rouge_l": self.rouge_l, "per_example": self.per_example}


def _normalize_reference(reference) -> list[list]:
    """Accept tokens or list[tokens]; return list[tokens]."""
    if reference and isinstance(reference[0], (list, tuple)):
        return [list(r) for r in reference]
    return [list(reference)]


def _normalize_references(hypotheses, references) -> list[list[list]]:
    """One normalized reference list per hypothesis of a non-empty corpus."""
    if len(references) != len(hypotheses):
        raise EvalError(f"{len(hypotheses)} hypotheses but {len(references)} references")
    if not hypotheses:
        raise EvalError("cannot score an empty corpus")
    return [_normalize_reference(ref) for ref in references]


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def clipped_ngram_counts(hypothesis, references, n: int) -> tuple[int, int]:
    """Modified n-gram precision counts: matches clipped per n-gram by the
    maximum reference count, over the total hypothesis n-grams."""
    hyp_counts = _ngrams(hypothesis, n)
    max_ref: Counter = Counter()
    for ref in references:
        for gram, count in _ngrams(ref, n).items():
            if count > max_ref[gram]:
                max_ref[gram] = count
    clipped = sum(min(count, max_ref[gram]) for gram, count in hyp_counts.items())
    return clipped, sum(hyp_counts.values())


def _closest_ref_length(hyp_len: int, references) -> int:
    return min((abs(len(r) - hyp_len), len(r)) for r in references)[1]


def corpus_bleu(hypotheses, references) -> float:
    """Geometric mean of corpus-level modified n-gram precisions, orders 1
    to 4, times the brevity penalty.

    Zero-count precisions get an epsilon numerator so the score stays
    defined; orders for which the whole corpus has no n-grams at all (every
    hypothesis shorter than n) are left out of the mean, so identical short
    corpora still score 100.
    """
    return _bleu(hypotheses, _normalize_references(hypotheses, references))


def _bleu(hypotheses, refs) -> float:
    clipped = [0] * _BLEU_MAX_N
    totals = [0] * _BLEU_MAX_N
    hyp_len = 0
    ref_len = 0
    for hyp, ref_list in zip(hypotheses, refs):
        hyp = list(hyp)
        hyp_len += len(hyp)
        ref_len += _closest_ref_length(len(hyp), ref_list)
        for n in range(1, _BLEU_MAX_N + 1):
            c, t = clipped_ngram_counts(hyp, ref_list, n)
            clipped[n - 1] += c
            totals[n - 1] += t
    log_precision_sum = 0.0
    orders = 0
    for c, t in zip(clipped, totals):
        if t == 0:
            continue
        orders += 1
        log_precision_sum += math.log((c if c > 0 else _ZERO_COUNT_EPS) / t)
    if hyp_len == 0 or orders == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision_sum / orders)


def lcs_length(a, b) -> int:
    """Longest common subsequence length by dynamic programming."""
    a, b = list(a), list(b)
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[len(b)]


def rouge_l(hypothesis, reference) -> float:
    """Sentence-level ROUGE-L F1 (beta = 1) on a 0-100 scale; with several
    references the best one counts."""
    return _rouge_l(list(hypothesis), _normalize_reference(reference))


def _rouge_l(hypothesis: list, ref_list: list[list]) -> float:
    """An empty hypothesis scores 0; an empty reference is an error."""
    if any(not r for r in ref_list):
        raise EvalError("ROUGE-L needs non-empty references")
    best = 0.0
    for ref in ref_list:
        lcs = lcs_length(hypothesis, ref)
        if lcs == 0:
            continue
        precision = lcs / len(hypothesis)
        recall = lcs / len(ref)
        best = max(best, 2.0 * precision * recall / (precision + recall))
    return 100.0 * best


def corpus_rouge_l(hypotheses, references) -> float:
    refs = _normalize_references(hypotheses, references)
    return sum(_rouge_l(list(h), r) for h, r in zip(hypotheses, refs)) / len(hypotheses)


def evaluate_corpus(hypotheses, references) -> EvalReport:
    """BLEU, mean ROUGE-L and per-example ROUGE-L; each sentence is scored once."""
    refs = _normalize_references(hypotheses, references)
    scores = [_rouge_l(list(h), r) for h, r in zip(hypotheses, refs)]
    return EvalReport(
        bleu=_bleu(hypotheses, refs),
        rouge_l=sum(scores) / len(hypotheses),
        per_example=[{"index": i, "rouge_l": score} for i, score in enumerate(scores)],
    )
