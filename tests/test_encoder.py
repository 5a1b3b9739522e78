import numpy as np
import pytest

from graph2text import encoder
from graph2text.autograd import (
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
from graph2text.data import linearize
from graph2text.encoder import (
    AGG_WEIGHT_NAMES,
    ATTENTION_WEIGHTS,
    EncoderConfig,
    EncoderInput,
    encode,
    key_mask,
    pooling_matrices,
    scatter_matrix,
    sublayer_params,
)
from graph2text.errors import EmptyPoolError, LengthError
from graph2text.synth import build_toy_model

from conftest import (
    assert_gradient_gate,
    make_pair,
    rows_at,
    store_gradients,
    three_position_pair,
    unit_mean,
)


def toy_input(model, pair, text_tokens=None) -> EncoderInput:
    return model.encoder_input(linearize(pair.graph), text_tokens)


def pooled(h: Tensor, inp: EncoderInput) -> tuple[Tensor, Tensor]:
    """Entity vectors and relation grid as ``encode`` pools them."""
    p_ent, p_rel = pooling_matrices(inp, h.shape[0])
    return matmul(Tensor(p_ent), h), matmul(Tensor(p_rel), h)


def fused(h: Tensor, z_tilde: Tensor, inp: EncoderInput) -> Tensor:
    """The residual step of ``encode``: entity vectors added onto their
    token positions."""
    return add(h, matmul(Tensor(scatter_matrix(inp, h.shape[0])), z_tilde))


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
        model, inp = model_and_input
        h = Tensor(np.random.default_rng(4).normal(size=(len(inp.ids), 16)))
        _, q = pooled(h, inp)
        nv = inp.num_entities
        grid = q.data.reshape(nv, nv, 16)
        assert np.array_equal(grid[0, 0], np.zeros(16))  # no (1,1) self-loop
        assert not np.array_equal(grid[0, 1], np.zeros(16))  # (1,2) exists

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
            pooling_matrices(bad, len(inp.ids))


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
            out = relation_biased_attention_op(z, q_grid, *weights, num_heads).data
        ref = relation_attention_loop(z, q_grid, *weights, num_heads)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_single_entity_no_loop(self):
        model, corpus = build_toy_model()
        rng = np.random.default_rng(6)
        z = Tensor(rng.normal(size=(1, 16)))
        q = Tensor(np.zeros((1, 16)))
        out = relation_biased_attention_op(z, q, *layer_zero_agg(model), 2)
        # softmax over a single key is 1; with q = 0 the output is z @ Wvs
        assert np.allclose(out.data, z.data @ model.store["enc.0.agg.wvs"].data, atol=1e-12)

    def test_zero_value_weights_zero_output(self, model_and_input):
        model, inp = model_and_input
        model.store["enc.0.agg.wvs"].data[:] = 0.0
        model.store["enc.0.agg.wvr"].data[:] = 0.0
        rng = np.random.default_rng(7)
        h = Tensor(rng.normal(size=(len(inp.ids), 16)))
        z, q = pooled(h, inp)
        out = relation_biased_attention_op(z, q, *layer_zero_agg(model), 2)
        assert np.array_equal(out.data, np.zeros((3, 16)))

    def test_gradients_of_all_five_weights(self):
        model, corpus = build_toy_model()
        inp = toy_input(model, corpus[0])
        rng = np.random.default_rng(8)
        h = Tensor(rng.normal(size=(len(inp.ids), 16)))
        readout = rng.normal(size=(3, 16))
        from graph2text.autograd import ParamStore

        store = ParamStore()
        for name in ("wqs", "wks", "wvs", "wkr", "wvr"):
            store.add(name, rng.normal(size=(16, 16)) * 0.3)

        def f():
            z, q = pooled(h, inp)
            out = relation_biased_attention_op(z, q, *(store[n] for n in AGG_WEIGHT_NAMES), 2)
            return weighted_sum(out, readout)

        report = grad_check(f, store, tol=1e-4)
        assert report.passed, report.format()


class TestResidualFuse:
    def test_non_entity_positions_bitwise_unchanged(self, model_and_input):
        model, inp = model_and_input
        rng = np.random.default_rng(9)
        h = Tensor(rng.normal(size=(len(inp.ids), 16)))
        z_tilde = Tensor(rng.normal(size=(3, 16)))
        out = fused(h, z_tilde, inp)
        entity_rows = {p - 1 for s in inp.entity_positions.values() for p in s}
        for row in range(len(inp.ids)):
            if row not in entity_rows:
                assert np.array_equal(out.data[row], h.data[row])
            else:
                assert not np.array_equal(out.data[row], h.data[row])

    def test_zero_struct_vectors_identity(self, model_and_input):
        model, inp = model_and_input
        h = Tensor(np.random.default_rng(10).normal(size=(len(inp.ids), 16)))
        out = fused(h, Tensor(np.zeros((3, 16))), inp)
        assert np.array_equal(out.data, h.data)

    def test_multi_position_entity_gets_same_vector(self, model_and_input):
        model, inp = model_and_input
        h = Tensor(np.zeros((len(inp.ids), 16)))
        z_tilde = Tensor(np.random.default_rng(11).normal(size=(3, 16)))
        out = fused(h, z_tilde, inp)
        rows = sorted(p - 1 for p in inp.entity_positions[2])
        assert np.array_equal(out.data[rows[0]], z_tilde.data[1])
        assert np.array_equal(out.data[rows[1]], z_tilde.data[1])


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
        # the "rel" unit vectors come from one matmul per table with the
        # pooling matrices; the reference pools the table rows one unit at a
        # time and feeds them to every layer's structure attention
        pair = three_position_pair()
        model, _ = build_toy_model(corpus=[pair], variant="rel", max_input_len=64)
        inp = toy_input(model, pair, pair.text)
        assert max(len(p) for p in inp.entity_positions.values()) >= 3
        store, nv = model.store, inp.num_entities
        readout = np.random.default_rng(15).normal(size=(len(inp.ids), 16))

        def reference_units():
            ent_rows = embedding_lookup(store["struct.ent_emb"], np.asarray(inp.ids))
            rel_rows = embedding_lookup(store["struct.rel_emb"], np.asarray(inp.ids))
            z = rows_at({i - 1: unit_mean(ent_rows, p)
                         for i, p in inp.entity_positions.items()}, nv)
            q_grid = rows_at({(i - 1) * nv + j - 1: unit_mean(rel_rows, p)
                              for (i, j), p in inp.relation_positions.items()}, nv * nv)
            return z, q_grid

        outputs = []

        def build():
            outputs.append(encode(inp, model.encoder_config, store))
            return weighted_sum(outputs[-1], readout)

        grads = store_gradients(store, build)
        units = []
        original = encoder.relation_biased_attention_op
        monkeypatch.setattr(encoder, "relation_biased_attention_op",
                            lambda z, q_grid, *rest: original(*units[-1], *rest))

        def build_reference():
            units.append(reference_units())
            return build()

        reference = store_gradients(store, build_reference)
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
