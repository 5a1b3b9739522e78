"""Deterministic synthetic corpora sized for desk-scale checks and demos."""

from __future__ import annotations

from .data import GraphTextPair, KnowledgeGraph, find_entity_mentions
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .model import ModelSettings, Seq2SeqModel, build_model
from .vocab import build_vocab

_NAMES = ("ada", "bo", "cy", "dex", "eli", "fay", "gus", "ivy", "jo", "kim", "lee", "max")
_RELATIONS = ("likes", "visits", "knows", "helps")


def _pair(entities, relations, text: str) -> GraphTextPair:
    graph = KnowledgeGraph(entities, relations)
    tokens = tuple(text.split())
    return GraphTextPair(graph, tokens, find_entity_mentions(graph.entities, tokens))


def gradcheck_pair() -> GraphTextPair:
    """One pair with 3 entities, 2 triples, and an 8-token text."""
    return _pair(
        ("ada", "bo", "cy"),
        {(1, 2): "likes", (2, 3): "visits"},
        "ada likes bo and bo visits cy now",
    )


def overfit_corpus(num_pairs: int = 20) -> list[GraphTextPair]:
    """Distinct small graphs whose texts are a fixed function of the graph,
    so that memorization is a meaningful training target."""
    pairs = []
    for k in range(num_pairs):
        head = _NAMES[k % len(_NAMES)]
        tail = _NAMES[(k * 5 + 3) % len(_NAMES)]
        rel = _RELATIONS[k % len(_RELATIONS)]
        if k % 5 == 4:
            third = _NAMES[(k * 7 + 1) % len(_NAMES)]
            rel2 = _RELATIONS[(k + 2) % len(_RELATIONS)]
            pairs.append(
                _pair(
                    (head, tail, third),
                    {(1, 2): rel, (2, 3): rel2},
                    f"{head} {rel} the {tail} and {tail} {rel2} {third}",
                )
            )
        else:
            pairs.append(
                _pair((head, tail), {(1, 2): rel}, f"{head} {rel} the {tail}")
            )
    return pairs


def toy_configs(
    variant: str = "joint",
    d_model: int = 16,
    num_heads: int = 2,
    num_layers: int = 2,
    d_ff: int = 8,
    max_input_len: int = 22,
    max_output_len: int = 10,
) -> tuple[EncoderConfig, DecoderConfig]:
    """Configs for a toy model with ``num_layers`` encoder and decoder layers."""
    return ModelSettings(
        variant, d_model, num_layers, num_layers, num_heads, d_ff, max_input_len, max_output_len
    ).configs()


def build_toy_model(
    corpus: list[GraphTextPair] | None = None,
    variant: str = "joint",
    seed: int = 0,
    **config_overrides,
) -> tuple[Seq2SeqModel, list[GraphTextPair]]:
    """A 2+2 layer, d_model-16 model over a vocabulary built from ``corpus``
    (default: the single gradient-check pair)."""
    if corpus is None:
        corpus = [gradcheck_pair()]
    vocab = build_vocab(corpus, min_freq=1)
    enc, dec = toy_configs(variant=variant, **config_overrides)
    return build_model(vocab, enc, dec, seed=seed), corpus
