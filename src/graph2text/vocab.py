"""Vocabulary construction, token/id mapping, and the two corruption schemes.

Tokenization is whitespace plus case-folding, applied upstream at corpus
load time; this module only counts and maps tokens.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .data import GraphTextPair, LinearizedGraph
from .errors import EmptyCorpus

PAD, BOS, EOS, UNK = "<PAD>", "<BOS>", "<EOS>", "<UNK>"
SEP, MASK = "<SEP>", "<M>"
SPECIALS = (PAD, BOS, EOS, UNK, "<H>", "<R>", "<T>", SEP, MASK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
SEP_ID, MASK_ID = 7, 8


class Vocabulary:
    """Dense token/id mapping with reserved special tokens at ids 0-8."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if tuple(tokens[: len(SPECIALS)]) != SPECIALS:
            raise ValueError("vocabulary must start with the reserved special tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.id_to_token = tokens
        self.token_to_id = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode_tokens(self, tokens) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, idx: int) -> str:
        return self.id_to_token[idx]

    def decode_ids(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        return cls(tokens)


def build_vocab(corpus: list[GraphTextPair], min_freq: int = 1) -> Vocabulary:
    """Count the tokens of linearized graphs and texts; keep those with
    frequency >= min_freq, ordered by frequency desc then lexicographic.

    A graph's tokens are counted from its triples' blocks, which are its
    linearization without the markers, so no linearization is built here.
    """
    if not corpus:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for pair in corpus:
        for _, _, tokens in pair.graph.triple_blocks():
            counts.update(tokens)
        counts.update(pair.text)
    for special in SPECIALS:
        counts.pop(special, None)
    kept = sorted((t for t, c in counts.items() if c >= min_freq), key=lambda t: (-counts[t], t))
    return Vocabulary(list(SPECIALS) + kept)


@dataclass(frozen=True)
class MaskedText:
    """A corrupted text with its reconstruction target.

    Runs of consecutive masked tokens collapse to a single mask placeholder,
    so ``corrupted`` may be shorter than ``original``. ``masked_flags[i]`` is
    True iff original position i+1 was masked.
    """

    corrupted: tuple[str, ...]
    original: tuple[str, ...]
    masked_flags: tuple[bool, ...]


@dataclass(frozen=True)
class MaskedGraph:
    """A corrupted linearized graph, position-aligned with the original.

    No merging happens on the graph side: ``corrupted`` has the same length m
    as ``original`` and ``indicators[i] == 1`` exactly where it holds a mask.
    """

    corrupted: tuple[str, ...]
    indicators: tuple[int, ...]
    original: tuple[str, ...]


def mask_text(
    pair: GraphTextPair,
    rng: random.Random,
    p_entity: float = 0.40,
    p_other: float = 0.20,
) -> MaskedText:
    """Mask entity-mention tokens with p_entity and others with p_other,
    merging consecutive masks into one placeholder."""
    mention_positions: set[int] = set()
    for positions in pair.entity_mentions.values():
        mention_positions.update(positions)

    flags = []
    for pos in range(1, pair.n + 1):
        p = p_entity if pos in mention_positions else p_other
        flags.append(rng.random() < p)

    corrupted: list[str] = []
    previous_masked = False
    for tok, masked in zip(pair.text, flags):
        if masked:
            if not previous_masked:
                corrupted.append(MASK)
        else:
            corrupted.append(tok)
        previous_masked = masked
    return MaskedText(tuple(corrupted), tuple(pair.text), tuple(flags))


def mask_graph(
    lin: LinearizedGraph,
    rng: random.Random,
    p_entity: float = 0.40,
    p_relation: float = 0.20,
) -> MaskedGraph:
    """Select whole units (entities with p_entity, relations with p_relation)
    and replace every token at their positions with the mask placeholder.

    Length is preserved and marker tokens are never touched; decisions are
    drawn for entities in index order, then relations in (i, j) order.
    """
    corrupted = list(lin.tokens)
    indicators = [0] * lin.m
    for i in sorted(lin.entity_positions):
        if rng.random() < p_entity:
            for p in sorted(lin.entity_positions[i]):
                corrupted[p - 1] = MASK
                indicators[p - 1] = 1
    for key in sorted(lin.relation_positions):
        if rng.random() < p_relation:
            for p in sorted(lin.relation_positions[key]):
                corrupted[p - 1] = MASK
                indicators[p - 1] = 1
    return MaskedGraph(tuple(corrupted), tuple(indicators), tuple(lin.tokens))
