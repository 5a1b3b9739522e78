import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from graph2text.autograd import Tensor, add, backward, embedding_lookup, matmul, scale
from graph2text.data import GraphTextPair, KnowledgeGraph, find_entity_mentions
from graph2text.encoder import EncoderInput


def make_pair(entities, relations, text: str) -> GraphTextPair:
    graph = KnowledgeGraph(entities, relations)
    tokens = tuple(text.split())
    return GraphTextPair(graph, tokens, find_entity_mentions(graph.entities, tokens))


def random_graph(rng):
    """Entities and relations of a random graph with multi-token surfaces,
    self-loops and shared words; every entity is in some triple."""
    words = ["ann", "bo", "cy", "of", "the"]
    n = rng.randint(1, 7)
    entities = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 3))) for _ in range(n)]
    relations = {}
    for _ in range(rng.randint(1, 2 * n)):
        key = (rng.randint(1, n), rng.randint(1, n))
        relations[key] = " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
    linked = {i for key in relations for i in key}
    relations.update({(i, i): "self" for i in range(1, n + 1) if i not in linked})
    return entities, relations


def three_position_pair() -> GraphTextPair:
    """A graph whose first entity (three tokens, emitted twice) and first
    relation (three tokens) pool 6 and 3 positions: weights that are not
    powers of two, so the pooling rounds."""
    return make_pair(
        ("ada lovelace king", "bo", "cy dee"),
        {(1, 2): "likes a lot", (2, 3): "visits", (3, 1): "is near"},
        "ada lovelace king likes a lot bo who visits cy dee",
    )


def pool_input(entity_1=frozenset({3}), entity_2=frozenset({1, 2})) -> EncoderInput:
    """Four graph tokens: entity 1 at position 3, entity 2 at positions 1
    and 2, and the relation (2, 1) at position 4 (by default)."""
    return EncoderInput(
        ids=(5, 6, 7, 8),
        graph_len=4,
        entity_positions={1: entity_1, 2: entity_2},
        relation_positions={(2, 1): frozenset({4})},
    )


def unit_mean(h: Tensor, positions) -> Tensor:
    """Reference pooling of one unit: the (1, d) sum of the rows of ``h`` at
    the 1-based ``positions``, then scaled by one over their count (the
    pooling matrices weight each row first and sum after)."""
    rows = embedding_lookup(h, np.asarray(sorted(positions), dtype=np.int64) - 1)
    return scale(matmul(Tensor(np.ones((1, len(positions)))), rows), 1.0 / len(positions))


def rows_at(rows: dict[int, Tensor], count: int) -> Tensor:
    """A (count, d) tensor holding each (1, d) row at its index and zeros
    elsewhere; placement through one-hot columns is exact."""
    eye = np.eye(count)
    d = next(iter(rows.values())).shape[1]
    out = Tensor(np.zeros((count, d)))
    for k, row in rows.items():
        out = add(out, matmul(Tensor(eye[:, k : k + 1]), row))
    return out


def identity_pools(nv: int) -> tuple:
    """Pools of ``relation_biased_attention_op`` in which every (i, j) is an
    edge, in row-major order, with P = I over the rows (z; the |V|*|V|
    relation rows) and S = I: with h = 0 the op returns exactly the
    attention of z over the row-major relation grid q_grid."""
    rows, cols = np.divmod(np.arange(nv * nv), nv)
    return np.eye(nv + nv * nv), (rows, cols), np.eye(nv)


def store_gradients(store, build_loss) -> dict[str, np.ndarray]:
    store.zero_grads()
    backward(build_loss())
    return {name: t.grad.copy() for name, t in store.items()}


def assert_gradient_gate(grads, reference) -> None:
    """Per parameter: worst |difference| <= 1e-12 * max |reference gradient|.

    Bit-equal gradients pass: each caller shows that its reference ran.
    """
    for name, ref in reference.items():
        worst = np.abs(grads[name] - ref).max()
        assert worst <= 1e-12 * np.abs(ref).max(), name


@pytest.fixture
def simple_pair() -> GraphTextPair:
    return make_pair(
        ("alan bean", "apollo 12"),
        {(1, 2): "mission"},
        "alan bean flew on apollo 12",
    )


@pytest.fixture
def two_triple_pair() -> GraphTextPair:
    return make_pair(
        ("ada", "bo", "cy"),
        {(1, 2): "likes", (2, 3): "visits"},
        "ada likes bo and bo visits cy now",
    )
