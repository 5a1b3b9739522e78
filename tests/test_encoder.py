import numpy as np
import pytest

from graph2text import autograd as ag
from graph2text import encoder
from graph2text.autograd import (
    ParamStore,
    Tensor,
    _layer_norm_forward,
    add,
    embedding_lookup,
    grad_check,
    matmul,
    multihead_attention_op,
    no_grad,
    relation_biased_attention_op,
    weighted_sum,
)
from graph2text.data import linearize, unit_sequence
from graph2text.encoder import (
    AGG_WEIGHT_NAMES,
    ATTENTION_WEIGHTS,
    EncoderConfig,
    EncoderInput,
    encode,
    key_mask,
    sublayer_params,
)
from graph2text.errors import EmptyPoolError, LengthError
from graph2text.objectives import loss_finetune, loss_ot_alignment
from graph2text.synth import build_toy_model, overfit_corpus

from conftest import (
    assert_gradient_gate,
    identity_pools,
    make_pair,
    pool_input,
    rows_at,
    store_gradients,
    three_position_pair,
    unit_mean,
)


def toy_input(model, pair, text_tokens=None) -> EncoderInput:
    return model.encoder_input(linearize(pair.graph), text_tokens)


def pooled(h: Tensor, inp: EncoderInput) -> tuple[Tensor, Tensor]:
    """Entity and relation vectors as the aggregation sublayer pools them:
    z = P[:|V|] @ h and r = P[|V|:] @ h, one row of r per edge, whose 0-based
    (head, tail) index arrays follow the relations in ascending (i, j)."""
    pool, (rows, cols), _ = inp.pools
    nv = inp.num_entities
    relations = sorted(inp.relation_positions)
    assert rows.tolist() == [i - 1 for i, _ in relations]
    assert cols.tolist() == [j - 1 for _, j in relations]
    return matmul(Tensor(pool[:nv]), h), matmul(Tensor(pool[nv:]), h)


def attention_core(z, q_grid, *weights_and_heads) -> Tensor:
    """The relation-biased attention alone, of (|V|, d) ``z`` and
    (|V|*|V|, d) ``q_grid`` arrays."""
    nv, d = np.shape(z)
    rows = np.vstack([z, q_grid])
    return relation_biased_attention_op(
        np.zeros((nv, d)), rows, rows, identity_pools(nv), *weights_and_heads
    )


def entity_pools(inp: EncoderInput) -> tuple:
    """``inp``'s P and edges with S = I: with h = 0 the op returns the
    attention output of each entity."""
    return (*inp.pools[:2], np.eye(inp.num_entities))


def scatter_reference(inp: EncoderInput) -> np.ndarray:
    """S built position by position from the entity map: row p - 1 of
    column i - 1 is 1 for each position p of entity i."""
    scatter = np.zeros((len(inp.ids), inp.num_entities))
    for i, positions in inp.entity_positions.items():
        for p in positions:
            scatter[p - 1, i - 1] = 1.0
    return scatter


@pytest.fixture
def model_and_input(two_triple_pair):
    model, corpus = build_toy_model()
    return model, toy_input(model, corpus[0])


class TestEncoderInputValidation:
    def test_positions_outside_graph_span_rejected(self):
        with pytest.raises(ValueError):
            EncoderInput(
                ids=(4, 9, 5, 9, 6, 9, 7, 11),
                graph_len=6,
                entity_positions={1: frozenset({2}), 2: frozenset({8})},
                relation_positions={(1, 2): frozenset({4})},
            )

    def test_entity_keys_must_be_dense(self):
        with pytest.raises(ValueError):
            EncoderInput(
                ids=(4, 9, 5, 9, 6, 9),
                graph_len=6,
                entity_positions={1: frozenset({2}), 3: frozenset({6})},
                relation_positions={},
            )

    def test_padding_length_checked(self):
        with pytest.raises(ValueError):
            EncoderInput(
                ids=(4, 9, 5, 9, 6, 9),
                graph_len=6,
                entity_positions={1: frozenset({2}), 2: frozenset({6})},
                relation_positions={(1, 2): frozenset({4})},
                padding=np.zeros(3, dtype=bool),
            )


class TestVanillaAttention:
    """The fused self-attention sublayer: x + attention(LN(x), LN(x))."""

    def _params(self, model):
        return sublayer_params(model.store, "enc.0.ln1", "enc.0.attn", ATTENTION_WEIGHTS)

    def test_single_token_equals_value_projection(self, model_and_input):
        model, _ = model_and_input
        gain, bias, wq, wk, wv, wo = self._params(model)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 16)))
        out = multihead_attention_op(x, None, gain, bias, wq, wk, wv, wo, num_heads=2)
        normed = _layer_norm_forward(x.data, gain.data, bias.data)[0]
        expected = x.data + (normed @ wv.data) @ wo.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_all_padded_but_one_key(self, model_and_input):
        model, _ = model_and_input
        gain, bias, wq, wk, wv, wo = self._params(model)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 16)))
        blocked = key_mask(np.array([True, False, True, True]))
        out = multihead_attention_op(x, None, gain, bias, wq, wk, wv, wo, 2, blocked)
        only_key = _layer_norm_forward(x.data[1:2], gain.data, bias.data)[0]
        expected = x.data + (only_key @ wv.data) @ wo.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        # probe the row-stochasticity through a uniform-value trick: with
        # wv = 0 the output is the residual alone; with values equal to a
        # constant row c, it adds c @ wo exactly iff weights sum to one.
        rng = np.random.default_rng(2)
        d = 8
        x = Tensor(rng.normal(size=(5, d)))
        gain, bias = Tensor(np.ones(d)), Tensor(np.zeros(d))
        wq, wk = Tensor(rng.normal(size=(d, d))), Tensor(rng.normal(size=(d, d)))
        wv = Tensor(np.zeros((d, d)))
        wo = Tensor(np.eye(d))
        out = multihead_attention_op(x, None, gain, bias, wq, wk, wv, wo, 2)
        assert np.array_equal(out.data, x.data)
        ones_values = Tensor(np.ones((d, d)))
        memory = Tensor(np.ones((5, d)))
        out = multihead_attention_op(x, memory, gain, bias, wq, wk, ones_values, wo, 2)
        assert np.allclose(out.data, x.data + d, atol=1e-9)


class TestPooling:
    def test_single_position_entity_is_exact_row(self, model_and_input):
        model, inp = model_and_input
        rng = np.random.default_rng(3)
        h = Tensor(rng.normal(size=(len(inp.ids), 16)))
        z, _ = pooled(h, inp)
        # entity 1 ("ada") occupies exactly position 2
        assert np.array_equal(z.data[0], h.data[1])

    def test_absent_relation_is_zero_vector(self, model_and_input):
        # an absent relation has no edge, so it adds nothing: the op's
        # relation terms are those of the edges alone
        model, inp = model_and_input
        h = Tensor(np.random.default_rng(4).normal(size=(len(inp.ids), 16)))
        _, r = pooled(h, inp)
        _, edges, _ = inp.pools
        pairs = list(zip(*(e.tolist() for e in edges)))
        assert pairs == [(0, 1), (1, 2)]  # no (1,1) self-loop
        assert r.shape == (2, 16)
        assert not np.array_equal(r.data[0], np.zeros(16))  # (1,2) exists

    def test_union_pooling_is_mean(self, model_and_input):
        model, inp = model_and_input
        h = Tensor(np.random.default_rng(5).normal(size=(len(inp.ids), 16)))
        z, _ = pooled(h, inp)
        positions = sorted(inp.entity_positions[2])  # "bo" at two positions
        expected = h.data[[p - 1 for p in positions]].mean(axis=0)
        assert np.allclose(z.data[1], expected, atol=1e-15)

    def test_empty_entity_positions_rejected(self, model_and_input):
        model, inp = model_and_input
        bad = EncoderInput.__new__(EncoderInput)
        object.__setattr__(bad, "ids", inp.ids)
        object.__setattr__(bad, "graph_len", inp.graph_len)
        object.__setattr__(bad, "entity_positions", {1: frozenset(), **{k: v for k, v in inp.entity_positions.items() if k != 1}})
        object.__setattr__(bad, "relation_positions", inp.relation_positions)
        object.__setattr__(bad, "padding", None)
        with pytest.raises(EmptyPoolError):
            bad.pools

    def test_rows_follow_unit_sequence(self, two_triple_pair):
        model, _ = build_toy_model()
        for pair in [two_triple_pair, three_position_pair()] + overfit_corpus(20):
            lin = linearize(pair.graph)
            inp = model.encoder_input(lin, pair.text)
            pool, (rows, cols), _ = inp.pools
            units = unit_sequence(pair.graph)
            assert pool.shape == (len(units), len(inp.ids))
            for row, (kind, key) in zip(pool, units):
                positions = (lin.entity_positions[key] if kind == "entity"
                             else lin.relation_positions[key])
                expected = np.zeros(len(inp.ids))
                expected[[p - 1 for p in positions]] = 1.0 / len(positions)
                assert np.array_equal(row, expected)
            relations = [key for kind, key in units if kind == "relation"]
            assert rows.tolist() == [i - 1 for i, _ in relations]
            assert cols.tolist() == [j - 1 for _, j in relations]
            assert rows.dtype == cols.dtype == np.int64

    def test_scatter_read_off_pool(self):
        # S is (P[:|V|] > 0).T, exactly the position-by-position scatter,
        # also where two entities share a position
        model, corpus = build_toy_model()
        pairs = corpus + overfit_corpus(20) + [three_position_pair()]
        inputs = [toy_input(model, pair, pair.text) for pair in pairs]
        for inp in inputs + [pool_input(entity_1=frozenset({1, 3, 4}))]:
            scatter = inp.pools[2]
            assert scatter.dtype == np.float64
            assert np.array_equal(scatter, scatter_reference(inp))


class TestPoolsBuiltOnce:
    """``EncoderInput.pools`` calls ``pooling_matrices`` once per input,
    whoever reads it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = encoder.pooling_matrices

        def spy(inp):
            calls.append(inp)
            return original(inp)

        monkeypatch.setattr(encoder, "pooling_matrices", spy)
        return calls

    def test_ot_alignment_pools_once(self, calls):
        model, corpus = build_toy_model()
        loss_ot_alignment(model, corpus[0])
        assert len(calls) == 1

    def test_second_encode_reuses_pools(self, calls):
        model, corpus = build_toy_model()
        inp = toy_input(model, corpus[0], corpus[0].text)
        with no_grad():
            first = encode(inp, model.encoder_config, model.store)
            second = encode(inp, model.encoder_config, model.store)
        assert calls == [inp]
        assert np.array_equal(first.data, second.data)

    def test_seq_variant_never_pools(self, calls):
        model, corpus = build_toy_model(variant="seq")
        with no_grad():
            encode(toy_input(model, corpus[0], corpus[0].text), model.encoder_config, model.store)
            loss_finetune(model, corpus[0])
        assert calls == []


def layer_zero_agg(model) -> list:
    """Encoder layer 0's relation-biased attention weights, in op order."""
    return [model.store[f"enc.0.agg.{name}"] for name in AGG_WEIGHT_NAMES]


def relation_attention_loop(z, q_grid, wqs, wks, wvs, wkr, wvr, num_heads) -> np.ndarray:
    """The paper's relation-biased attention, one head and one (i, j) at a
    time: logit(i, j) = (z_i Wqs)·(z_j Wks + q_ij Wkr)/sqrt(d_k) and output(i)
    = sum_j softmax_j(logit)(i, j) (z_j Wvs + q_ij Wvr), per head block."""
    nv, d = z.shape
    d_k = d // num_heads
    out = np.zeros((nv, d))
    for h in range(num_heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        for i in range(nv):
            query = z[i] @ wqs[:, cols]
            logits, values = np.zeros(nv), np.zeros((nv, d_k))
            for j in range(nv):
                q_ij = q_grid[i * nv + j]
                logits[j] = query @ (z[j] @ wks[:, cols] + q_ij @ wkr[:, cols]) / np.sqrt(d_k)
                values[j] = z[j] @ wvs[:, cols] + q_ij @ wvr[:, cols]
            weights = np.exp(logits - logits.max())
            out[i, cols] = (weights / weights.sum()) @ values
    return out


class TestStructureAttention:
    @pytest.mark.parametrize("nv", [1, 3, 20])
    @pytest.mark.parametrize("d, num_heads", [(16, 2), (64, 4)])
    def test_matches_per_head_loop(self, nv, d, num_heads):
        rng = np.random.default_rng(nv * d)
        z, q_grid = rng.normal(size=(nv, d)), rng.normal(size=(nv * nv, d))
        weights = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in AGG_WEIGHT_NAMES]
        with no_grad():
            out = attention_core(z, q_grid, *weights, num_heads).data
        ref = relation_attention_loop(z, q_grid, *weights, num_heads)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_single_entity_no_loop(self):
        model, corpus = build_toy_model()
        rng = np.random.default_rng(6)
        z = rng.normal(size=(1, 16))
        q = np.zeros((1, 16))
        out = attention_core(z, q, *layer_zero_agg(model), 2)
        # softmax over a single key is 1; with q = 0 the output is z @ Wvs
        assert np.allclose(out.data, z @ model.store["enc.0.agg.wvs"].data, atol=1e-12)

    def test_zero_value_weights_zero_output(self, model_and_input):
        model, inp = model_and_input
        model.store["enc.0.agg.wvs"].data[:] = 0.0
        model.store["enc.0.agg.wvr"].data[:] = 0.0
        rng = np.random.default_rng(7)
        h = Tensor(rng.normal(size=(len(inp.ids), 16)))
        out = relation_biased_attention_op(
            np.zeros((3, 16)), h, h, entity_pools(inp), *layer_zero_agg(model), 2
        )
        assert np.array_equal(out.data, np.zeros((3, 16)))

    def test_gradients_of_all_five_weights(self):
        model, corpus = build_toy_model()
        inp = toy_input(model, corpus[0])
        rng = np.random.default_rng(8)
        h = Tensor(rng.normal(size=(len(inp.ids), 16)))
        readout = rng.normal(size=(3, 16))
        store = ParamStore()
        for name in ("wqs", "wks", "wvs", "wkr", "wvr"):
            store.add(name, rng.normal(size=(16, 16)) * 0.3)

        def f():
            out = relation_biased_attention_op(
                np.zeros((3, 16)), h, h, entity_pools(inp), *(store[n] for n in AGG_WEIGHT_NAMES), 2
            )
            return weighted_sum(out, readout)

        report = grad_check(f, store, tol=1e-4)
        assert report.passed, report.format()


def grid_relation_attention_op(h, ent_rows, rel_rows, pools, wqs, wks, wvs, wkr, wvr, num_heads):
    """The aggregation sublayer in its earlier grid form, kept as the
    reference of the edge form: a (|V|*|V|, d) relation grid ``q_grid``,
    zero but at each edge's row-major row i*|V| + j, and entity i run as a
    batch of one query over its own row of keys and values, (|V|, heads,
    |V|, d_k): the entity keys and values broadcast over i, plus row i of
    the grid's offsets. The softmax attention and its backward are written
    out here, apart from the shared core."""
    operands = tuple(map(ag.as_tensor, (h, ent_rows, rel_rows, wqs, wks, wvs, wkr, wvr)))
    h, ent_rows, rel_rows, wqs, wks, wvs, wkr, wvr = operands
    pool, (rows, cols), scatter = pools
    nv, d_model = scatter.shape[1], h.data.shape[1]
    scaling = 1.0 / np.sqrt(d_model // num_heads)
    p_ent, p_rel, grid_rows = pool[:nv], pool[nv:], rows * nv + cols
    z = p_ent @ ent_rows.data
    q_grid = np.zeros((nv * nv, d_model))
    q_grid[grid_rows] = p_rel @ rel_rows.data
    q = ag._split_heads((z @ wqs.data)[:, None], num_heads)
    keys, vals = (
        ag._split_heads(z @ w_ent.data, num_heads)
        + ag._split_heads((q_grid @ w_rel.data).reshape(nv, nv, d_model), num_heads)
        for w_ent, w_rel in ((wks, wkr), (wvs, wvr))
    )
    scores = (q @ keys.swapaxes(-1, -2)) * scaling
    exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = exp / exp.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        g_context = ag._split_heads((scatter.T @ g)[:, None], num_heads)
        g_probs = g_context @ vals.swapaxes(-1, -2)
        g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)) * scaling
        g_keys, g_vals = g_scores.swapaxes(-1, -2) @ q, probs.swapaxes(-1, -2) @ g_context
        g_zq = ag._merge_heads(g_scores @ keys).reshape(nv, d_model)
        g_zk, g_zv = ag._merge_heads(g_keys.sum(axis=0)), ag._merge_heads(g_vals.sum(axis=0))
        g_qk, g_qv = (ag._merge_heads(m).reshape(nv * nv, d_model) for m in (g_keys, g_vals))
        return (
            g,
            p_ent.T @ (g_zq @ wqs.data.T + g_zk @ wks.data.T + g_zv @ wvs.data.T),
            p_rel.T @ (g_qk @ wkr.data.T + g_qv @ wvr.data.T)[grid_rows],
            z.T @ g_zq, z.T @ g_zk, z.T @ g_zv, q_grid.T @ g_qk, q_grid.T @ g_qv,
        )

    out = h.data + scatter @ ag._merge_heads(probs @ vals).reshape(nv, d_model)
    return ag._make(out, operands, backward_fn)


def random_graph_pair(rng, num_entities: int) -> tuple:
    """A random graph over ``num_entities`` entities with self-loops and
    repeated heads: each entity heads 0-3 edges to random tails, and an
    entity left out of every triple gets a self-loop."""
    relations = {}
    for head in range(1, num_entities + 1):
        for tail in rng.choice(num_entities, size=rng.integers(0, 4), replace=False):
            relations[(head, int(tail) + 1)] = f"rel{len(relations) % 3}"
    linked = {i for edge in relations for i in edge}
    relations.update({(i, i): "self" for i in range(1, num_entities + 1) if i not in linked})
    return [f"ent{i}" for i in range(num_entities)], relations


EDGE_FORM_GRAPHS = {
    # entity 1 heads three edges, two of them from a self-loop's entity;
    # entities 3 and 4 head no edge
    "three-out-edges": (("ada", "bo", "cy", "dee"),
                        {(1, 1): "is", (1, 2): "likes", (1, 3): "sees", (1, 4): "knows",
                         (2, 3): "helps"}),
    "self-loops": (("ada", "bo", "cy"), {(1, 1): "is", (2, 2): "likes", (3, 3): "knows",
                                         (3, 1): "sees"}),
    "one-entity": (("ada",), {(1, 1): "likes"}),
    # distinct labels: with one label, the rel variant's relation rows would
    # be equal, every score of a row would gain the same bias, and the Wkr
    # gradient would be zero up to rounding
    "complete": (("ada", "bo", "cy"),
                 {(i, j): f"rel{i}{j}" for i in range(1, 4) for j in range(1, 4)}),
}


class TestEdgeFormMatchesGrid:
    """The edge-form op against the grid form it replaced, on graphs with
    self-loops, a head entity of three edges, entities that head none, one
    entity and a complete graph: the output and the gradients of all eight
    operands agree within the 1e-12 gate."""

    @pytest.mark.parametrize("graph", [*EDGE_FORM_GRAPHS, "random-0", "random-1", "random-2"])
    @pytest.mark.parametrize("variant", ["joint", "rel"])
    def test_output_and_gradients(self, graph, variant):
        rng = np.random.default_rng(sorted(EDGE_FORM_GRAPHS).index(graph)
                                    if graph in EDGE_FORM_GRAPHS else 10 + int(graph[-1]))
        if graph in EDGE_FORM_GRAPHS:
            entities, relations = EDGE_FORM_GRAPHS[graph]
        else:
            entities, relations = random_graph_pair(rng, 7)
        pair = make_pair(entities, relations, " ".join(entities))
        model, _ = build_toy_model(corpus=[pair], variant=variant, max_input_len=200)
        inp = toy_input(model, pair, pair.text)
        pools = inp.pools
        store = ParamStore()
        store.add("h", rng.normal(size=(len(inp.ids), 16)))
        if variant == "rel":
            # the rel variant pools rows of its two learned tables
            ids = np.asarray(inp.ids)
            store.add("ent_rows", rng.normal(size=model.store["struct.ent_emb"].shape)[ids])
            store.add("rel_rows", rng.normal(size=model.store["struct.rel_emb"].shape)[ids])
        for name in AGG_WEIGHT_NAMES:
            store.add(name, rng.normal(size=(16, 16)) * 0.3)
        readout = rng.normal(size=(len(inp.ids), 16))
        outputs = []

        def loss(op):
            def build():
                rows = ("h", "h") if variant == "joint" else ("ent_rows", "rel_rows")
                outputs.append(op(store["h"], *(store[n] for n in rows), pools,
                                  *(store[n] for n in AGG_WEIGHT_NAMES), 2))
                return weighted_sum(outputs[-1], readout)
            return build

        grads = store_gradients(store, loss(relation_biased_attention_op))
        reference = store_gradients(store, loss(grid_relation_attention_op))
        assert len(store) == (6 if variant == "joint" else 8)
        out, ref = (o.data for o in outputs)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        assert_gradient_gate(grads, reference)


class TestResidualFuse:
    """The op's residual step: ``h`` plus the entity outputs scattered onto
    their token positions."""

    def test_non_entity_positions_bitwise_unchanged(self, model_and_input):
        model, inp = model_and_input
        rng = np.random.default_rng(9)
        h = Tensor(rng.normal(size=(len(inp.ids), 16)))
        out = relation_biased_attention_op(h, h, h, inp.pools, *layer_zero_agg(model), 2)
        entity_rows = {p - 1 for s in inp.entity_positions.values() for p in s}
        for row in range(len(inp.ids)):
            if row not in entity_rows:
                assert np.array_equal(out.data[row], h.data[row])
            else:
                assert not np.array_equal(out.data[row], h.data[row])

    def test_zero_struct_vectors_identity(self, model_and_input):
        model, inp = model_and_input
        model.store["enc.0.agg.wvs"].data[:] = 0.0
        model.store["enc.0.agg.wvr"].data[:] = 0.0
        h = Tensor(np.random.default_rng(10).normal(size=(len(inp.ids), 16)))
        out = relation_biased_attention_op(h, h, h, inp.pools, *layer_zero_agg(model), 2)
        assert np.array_equal(out.data, h.data)

    def test_multi_position_entity_gets_same_vector(self, model_and_input):
        model, inp = model_and_input
        h = Tensor(np.zeros((len(inp.ids), 16)))
        unit_rows = Tensor(np.random.default_rng(11).normal(size=(len(inp.ids), 16)))
        weights = layer_zero_agg(model)
        out = relation_biased_attention_op(h, unit_rows, unit_rows, inp.pools, *weights, 2)
        z_tilde = relation_biased_attention_op(
            np.zeros((3, 16)), unit_rows, unit_rows, entity_pools(inp), *weights, 2
        )
        rows = sorted(p - 1 for p in inp.entity_positions[2])
        assert np.array_equal(out.data[rows[0]], z_tilde.data[1])
        assert np.array_equal(out.data[rows[1]], z_tilde.data[1])


class TestAggregationSublayer:
    """The fused op against the generic path it replaces: each unit's mean
    placed in a (|V| + |V|*|V|, d) entity-and-grid block with zero rows for
    absent relations, the attention, the scatter matmul and the residual
    add."""

    def test_matches_grid_scatter_add(self):
        pair = three_position_pair()
        model, _ = build_toy_model(corpus=[pair], max_input_len=64)
        inp = toy_input(model, pair, pair.text)
        nv, length = inp.num_entities, len(inp.ids)
        # row of each unit in the entity-and-grid block
        unit_rows = {i - 1: p for i, p in inp.entity_positions.items()}
        unit_rows.update({nv + (i - 1) * nv + (j - 1): p
                          for (i, j), p in inp.relation_positions.items()})
        rng = np.random.default_rng(16)
        store = ParamStore()
        store.add("h", rng.normal(size=(length, 16)))
        for name in AGG_WEIGHT_NAMES:
            store.add(name, rng.normal(size=(16, 16)) * 0.3)
        weights = [store[n] for n in AGG_WEIGHT_NAMES]
        readout = rng.normal(size=(length, 16))
        scatter = scatter_reference(inp)
        outputs = []

        def build():
            h = store["h"]
            outputs.append(relation_biased_attention_op(h, h, h, inp.pools, *weights, 2))
            return weighted_sum(outputs[-1], readout)

        def build_reference():
            h = store["h"]
            units = rows_at({row: unit_mean(h, p) for row, p in unit_rows.items()}, nv + nv * nv)
            z_tilde = relation_biased_attention_op(
                np.zeros((nv, 16)), units, units, identity_pools(nv), *weights, 2
            )
            outputs.append(add(h, matmul(Tensor(scatter), z_tilde)))
            return weighted_sum(outputs[-1], readout)

        grads = store_gradients(store, build)
        reference = store_gradients(store, build_reference)
        h = store["h"].data
        dense = np.zeros((nv + nv * nv, length))
        for row, positions in unit_rows.items():
            dense[row, [p - 1 for p in positions]] = 1.0 / len(positions)
        looped = h + scatter @ relation_attention_loop(
            dense[:nv] @ h, dense[nv:] @ h, *(w.data for w in weights), 2
        )
        assert len(outputs) == 2  # the reference ran
        for out in (o.data for o in outputs):
            assert np.abs(out - looped).max() <= 1e-12 * np.abs(looped).max()
        assert_gradient_gate(grads, reference)


class TestEncode:
    def test_output_shape(self, model_and_input):
        model, inp = model_and_input
        out = encode(inp, model.encoder_config, model.store)
        assert out.shape == (len(inp.ids), 16)

    def test_over_length_rejected(self, two_triple_pair):
        model, corpus = build_toy_model(max_input_len=4)
        inp_long = model.encoder_input(linearize(corpus[0].graph))
        with pytest.raises(LengthError):
            encode(inp_long, model.encoder_config, model.store)

    def test_seq_equals_joint_with_zero_structure_weights(self):
        for seed in range(10):
            model, corpus = build_toy_model(seed=seed)
            inp = toy_input(model, corpus[0])
            for layer in range(model.encoder_config.num_layers):
                model.store[f"enc.{layer}.agg.wvs"].data[:] = 0.0
                model.store[f"enc.{layer}.agg.wvr"].data[:] = 0.0
            seq_cfg = EncoderConfig(
                num_layers=2, num_heads=2, d_model=16, d_ff=8,
                max_input_len=22, variant="seq",
            )
            with no_grad():
                joint = encode(inp, model.encoder_config, model.store)
                seq = encode(inp, seq_cfg, model.store)
            assert np.array_equal(joint.data, seq.data)

    def test_rel_variant_runs_and_differs(self):
        model, corpus = build_toy_model(variant="rel")
        inp = toy_input(model, corpus[0])
        with no_grad():
            out = encode(inp, model.encoder_config, model.store)
        assert out.shape == (len(inp.ids), 16)
        assert "struct.ent_emb" in model.store

    def test_rel_variant_gradients(self):
        model, corpus = build_toy_model(variant="rel", d_model=8, num_layers=1, d_ff=8)
        inp = toy_input(model, corpus[0])
        rng = np.random.default_rng(13)
        readout = rng.normal(size=(len(inp.ids), 8))

        def f():
            return weighted_sum(encode(inp, model.encoder_config, model.store), readout)

        report = grad_check(f, model.store, tol=1e-4)
        assert report.passed, report.worst()

    def test_rel_variant_matches_per_unit_reference(self, monkeypatch):
        # the "rel" unit vectors come from the pooling matrix inside each
        # layer's aggregation op; the reference pools the table rows one unit
        # at a time and feeds them to every layer's op with P = I
        pair = three_position_pair()
        model, _ = build_toy_model(corpus=[pair], variant="rel", max_input_len=64)
        inp = toy_input(model, pair, pair.text)
        assert max(len(p) for p in inp.entity_positions.values()) >= 3
        store, nv = model.store, inp.num_entities
        readout = np.random.default_rng(15).normal(size=(len(inp.ids), 16))

        def reference_units():
            ent_rows = embedding_lookup(store["struct.ent_emb"], np.asarray(inp.ids))
            rel_rows = embedding_lookup(store["struct.rel_emb"], np.asarray(inp.ids))
            z = {i - 1: unit_mean(ent_rows, p) for i, p in inp.entity_positions.items()}
            q_grid = {nv + (i - 1) * nv + j - 1: unit_mean(rel_rows, p)
                      for (i, j), p in inp.relation_positions.items()}
            return rows_at({**z, **q_grid}, nv + nv * nv)

        outputs = []

        def build():
            outputs.append(encode(inp, model.encoder_config, store))
            return weighted_sum(outputs[-1], readout)

        grads = store_gradients(store, build)
        units, reference_calls = [], []
        original = encoder.relation_biased_attention_op

        def per_unit_op(h, ent_rows, rel_rows, pools, *rest):
            # P = I over the stacked (z; q_grid) rows, the real scatter
            reference_calls.append(h)
            pools = (*identity_pools(nv)[:2], pools[2])
            return original(h, units[-1], units[-1], pools, *rest)

        monkeypatch.setattr(encoder, "relation_biased_attention_op", per_unit_op)

        def build_reference():
            units.append(reference_units())
            return build()

        reference = store_gradients(store, build_reference)
        assert len(reference_calls) == model.encoder_config.num_layers
        out, ref_out = (o.data for o in outputs)
        assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
        assert_gradient_gate(grads, reference)

    def test_unit_relabeling_permutes_pooled_rows_and_keeps_text_rows(self):
        # same tokens, same positions, but the entity indexing is permuted
        # (relations relabeled consistently); pooled rows must permute and
        # text rows must be bitwise unchanged.
        pair = make_pair(("ada", "bo", "cy"), {(1, 2): "likes", (2, 3): "visits"},
                         "ada likes bo now")
        model, _ = build_toy_model(corpus=[pair])
        lin = linearize(pair.graph)
        text_ids = model.vocab.encode_tokens(pair.text)
        base = model.encoder_input(lin, pair.text)

        perm = {1: 3, 2: 1, 3: 2}
        relabeled = EncoderInput(
            ids=base.ids,
            graph_len=base.graph_len,
            entity_positions={perm[i]: s for i, s in lin.entity_positions.items()},
            relation_positions={(perm[i], perm[j]): s for (i, j), s in lin.relation_positions.items()},
        )
        with no_grad():
            h_base = encode(base, model.encoder_config, model.store)
            h_relabeled = encode(relabeled, model.encoder_config, model.store)
            z_base, _ = pooled(h_base, base)
            z_relab, _ = pooled(h_base, relabeled)
        for i in range(1, 4):
            assert np.array_equal(z_base.data[i - 1], z_relab.data[perm[i] - 1])
        text_rows = range(base.graph_len + 1, len(base.ids))
        for row in text_rows:
            assert np.array_equal(h_base.data[row], h_relabeled.data[row])

    def test_full_encoder_gradient_check(self):
        model, corpus = build_toy_model()
        inp = toy_input(model, corpus[0])
        readout = np.random.default_rng(14).normal(size=(len(inp.ids), 16))

        def f():
            return weighted_sum(encode(inp, model.encoder_config, model.store), readout)

        report = grad_check(f, model.store, tol=1e-4)
        assert report.passed, report.worst()
