"""Seeded synthetic graph-text corpora, one size distribution per workload.

Every corpus is a list of blocks. Within a block, the entity count and the
text length are stratified samples: block slot k draws from the k-th of
``block`` equal slices of the allowed range, with seeded jitter, and the
slots are then shuffled. Each block thus carries the whole size range and a
nearly fixed total amount of work, so timings from different seeds compare,
while the seed still decides every graph, word and pairing.

Graphs are a chain over a random entity order plus ``|V| // 2`` extra
directed edges, which gives about 8.5 linearized tokens per triple. Texts
name the triples' heads, relations and tails in a random order, joined by
filler words, and are cut or padded to the drawn length.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    """Size distribution of one workload's corpus."""

    blocks: int
    block: int
    entities: tuple[int, int]
    text_tokens: tuple[int, int]


# Word pools are fixed in size, so the vocabulary size varies little by seed.
_ENTITY_WORDS = 400
_RELATION_WORDS = 120
_FILLER_WORDS = 200


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3))
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    span = hi - lo + 1
    values = [lo + int(span * (k + rng.random()) / count) for k in range(count)]
    rng.shuffle(values)
    return values


def _record(rng: random.Random, pools: dict, num_entities: int, text_len: int) -> dict:
    entities: list[str] = []
    while len(entities) < num_entities:
        surface = " ".join(rng.sample(pools["entity"], rng.randint(1, 3)))
        if surface not in entities:
            entities.append(surface)
    order = list(range(1, num_entities + 1))
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))
    used = set(edges)
    while len(edges) < num_entities - 1 + num_entities // 2:
        head, tail = rng.sample(range(1, num_entities + 1), 2)
        if (head, tail) not in used:
            used.add((head, tail))
            edges.append((head, tail))
    triples = [
        [h, " ".join(rng.sample(pools["relation"], rng.randint(1, 2))), t] for h, t in edges
    ]

    text: list[str] = []
    mention_order = list(triples)
    rng.shuffle(mention_order)
    for h, rel, t in mention_order:
        if len(text) >= text_len:
            break
        text += entities[h - 1].split() + rel.split() + entities[t - 1].split()
        text.append(rng.choice(pools["filler"]))
    while len(text) < text_len:
        text.append(rng.choice(pools["filler"]))
    return {"entities": entities, "triples": triples, "text": " ".join(text[:text_len])}


def make_records(shape: Shape, seed: int) -> list[dict]:
    """The corpus as JSONL-ready records, block after block."""
    rng = random.Random(seed)
    taken: set[str] = set()
    pools = {
        "entity": _words(rng, _ENTITY_WORDS, taken),
        "relation": _words(rng, _RELATION_WORDS, taken),
        "filler": _words(rng, _FILLER_WORDS, taken),
    }
    records = []
    for _ in range(shape.blocks):
        sizes = zip(
            _stratified(rng, *shape.entities, shape.block),
            _stratified(rng, *shape.text_tokens, shape.block),
        )
        records.extend(_record(rng, pools, n, t) for n, t in sizes)
    return records


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def describe(corpus, linearize) -> dict:
    """Size distribution of a loaded corpus: min, mean and max per property."""

    def summary(values):
        return {"min": min(values), "mean": round(statistics.fmean(values), 2), "max": max(values)}

    linearized = [linearize(pair.graph).m for pair in corpus]
    return {
        "pairs": len(corpus),
        "entities": summary([pair.graph.num_entities for pair in corpus]),
        "triples": summary([pair.graph.num_relations for pair in corpus]),
        "linearized_tokens": summary(linearized),
        "text_tokens": summary([pair.n for pair in corpus]),
        "relation_grid_rows": summary([pair.graph.num_entities**2 for pair in corpus]),
    }
