import random
from collections import Counter

import pytest

from graph2text.data import linearize
from graph2text.errors import EmptyCorpus
from graph2text.synth import gradcheck_pair, overfit_corpus
from graph2text.vocab import (
    MASK,
    SPECIALS,
    UNK_ID,
    Vocabulary,
    build_vocab,
    mask_graph,
    mask_text,
)

from conftest import make_pair, random_graph


class TestVocabulary:
    def test_build_min_freq(self):
        pair = make_pair(("a",), {(1, 1): "a"}, "a a b")
        vocab = build_vocab([pair], min_freq=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.encode("b") == UNK_ID

    def test_min_freq_one_keeps_all(self, two_triple_pair):
        vocab = build_vocab([two_triple_pair], min_freq=1)
        lin = linearize(two_triple_pair.graph)
        for tok in list(lin.tokens) + list(two_triple_pair.text):
            assert tok in vocab

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([], min_freq=1)

    def test_specials_at_reserved_ids(self, simple_pair):
        vocab = build_vocab([simple_pair])
        for i, tok in enumerate(SPECIALS):
            assert vocab.encode(tok) == i
            assert vocab.decode(i) == tok

    def test_ordering_frequency_then_lexicographic(self):
        pair = make_pair(("b",), {(1, 1): "c"}, "a a b c")
        vocab = build_vocab([pair])
        # freq: b=3 (head and tail of the self-loop plus text), a=2, c=2;
        # the a/c tie breaks lexicographically
        assert vocab.decode(len(SPECIALS)) == "b"
        assert vocab.decode(len(SPECIALS) + 1) == "a"
        assert vocab.decode(len(SPECIALS) + 2) == "c"

    @pytest.mark.parametrize("min_freq", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_counting_linearized_tokens_on_random_graphs(self, seed, min_freq):
        rng = random.Random(seed)
        corpus = []
        for _ in range(rng.randint(1, 6)):
            entities, relations = random_graph(rng)
            text = " ".join(rng.choice(entities + ["and", "<M>", "<SEP>"]).split()[0]
                            for _ in range(rng.randint(1, 12)))
            corpus.append(make_pair(entities, relations, text))
        vocab = build_vocab(corpus, min_freq=min_freq)
        assert vocab.id_to_token == reference_vocab_tokens(corpus, min_freq)

    @pytest.mark.parametrize("corpus", [overfit_corpus(20), [gradcheck_pair()]],
                             ids=["overfit", "gradcheck"])
    def test_equals_counting_linearized_tokens_on_synth_corpora(self, corpus):
        assert build_vocab(corpus).id_to_token == reference_vocab_tokens(corpus, 1)

    def test_save_load_roundtrip(self, tmp_path, two_triple_pair):
        vocab = build_vocab([two_triple_pair])
        vocab.save(tmp_path / "vocab.txt")
        loaded = Vocabulary.load(tmp_path / "vocab.txt")
        assert loaded.id_to_token == vocab.id_to_token


def reference_vocab_tokens(corpus, min_freq):
    """The vocabulary by its definition: count the tokens of each pair's
    linearization and text that are not special, keep those with count >=
    min_freq, by count descending then lexicographically."""
    counts = Counter()
    for pair in corpus:
        counts.update(t for t in linearize(pair.graph).tokens + pair.text if t not in SPECIALS)
    kept = sorted((t for t, c in counts.items() if c >= min_freq), key=lambda t: (-counts[t], t))
    return list(SPECIALS) + kept


class TestMaskText:
    def test_zero_probabilities_identity(self, two_triple_pair):
        masked = mask_text(two_triple_pair, random.Random(0), 0.0, 0.0)
        assert masked.corrupted == two_triple_pair.text
        assert not any(masked.masked_flags)

    def test_all_ones_merges_to_single_mask(self):
        pair = make_pair(("a",), {(1, 1): "r"}, "v w x y z")
        masked = mask_text(pair, random.Random(0), 1.0, 1.0)
        assert masked.corrupted == (MASK,)
        assert all(masked.masked_flags)

    def test_unmasked_tokens_keep_order(self, two_triple_pair):
        rng = random.Random(5)
        masked = mask_text(two_triple_pair, rng, 0.4, 0.2)
        survivors = [t for t in masked.corrupted if t != MASK]
        expected = [
            t for t, f in zip(masked.original, masked.masked_flags) if not f
        ]
        assert survivors == expected

    def test_deterministic_per_seed(self, two_triple_pair):
        a = mask_text(two_triple_pair, random.Random(42))
        b = mask_text(two_triple_pair, random.Random(42))
        assert a == b

    def test_length_never_grows(self, two_triple_pair):
        for seed in range(30):
            masked = mask_text(two_triple_pair, random.Random(seed))
            assert len(masked.corrupted) <= len(masked.original)

    def test_monte_carlo_rates(self):
        # one mention position and one plain position, sampled many times
        pair = make_pair(("a",), {(1, 1): "r"}, "a b")
        rng = random.Random(123)
        entity_hits = other_hits = trials = 0
        for _ in range(10_000):
            masked = mask_text(pair, rng)
            trials += 1
            entity_hits += masked.masked_flags[0]
            other_hits += masked.masked_flags[1]
        assert 0.38 <= entity_hits / trials <= 0.42
        assert 0.18 <= other_hits / trials <= 0.22


class TestMaskGraph:
    def test_zero_probabilities_identity(self, two_triple_pair):
        lin = linearize(two_triple_pair.graph)
        masked = mask_graph(lin, random.Random(0), 0.0, 0.0)
        assert masked.corrupted == lin.tokens
        assert sum(masked.indicators) == 0

    def test_all_ones_masks_every_unit_token(self, two_triple_pair):
        lin = linearize(two_triple_pair.graph)
        masked = mask_graph(lin, random.Random(0), 1.0, 1.0)
        unit_positions = set()
        for s in list(lin.entity_positions.values()) + list(lin.relation_positions.values()):
            unit_positions |= s
        assert sum(masked.indicators) == len(unit_positions)
        for p in unit_positions:
            assert masked.corrupted[p - 1] == MASK
        for marker in ("<H>", "<R>", "<T>"):
            assert marker in masked.corrupted

    def test_length_preserved(self, two_triple_pair):
        lin = linearize(two_triple_pair.graph)
        for seed in range(30):
            masked = mask_graph(lin, random.Random(seed))
            assert len(masked.corrupted) == lin.m
            for i, flag in enumerate(masked.indicators):
                assert (masked.corrupted[i] == MASK) == bool(flag)

    def test_markers_never_masked(self, two_triple_pair):
        lin = linearize(two_triple_pair.graph)
        masked = mask_graph(lin, random.Random(1), 1.0, 1.0)
        for p, tok in enumerate(lin.tokens, start=1):
            if tok in ("<H>", "<R>", "<T>"):
                assert masked.corrupted[p - 1] == tok

    def test_monte_carlo_unit_rates(self):
        pair = make_pair(("a", "b"), {(1, 2): "r"}, "a b")
        lin = linearize(pair.graph)
        rng = random.Random(77)
        ent_hits = rel_hits = trials = 0
        for _ in range(5_000):
            masked = mask_graph(lin, rng)
            trials += 1
            # entity 1 occupies position 2, relation position 4
            ent_hits += masked.indicators[1]
            rel_hits += masked.indicators[3]
        assert 0.38 <= ent_hits / trials <= 0.42
        assert 0.18 <= rel_hits / trials <= 0.22
