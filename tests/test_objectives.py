import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from graph2text import objectives
from graph2text.autograd import (
    Tensor,
    _toposort,
    backward,
    cosine_cost,
    grad_check,
    no_grad,
    slice_view,
)
from graph2text.data import linearize, unit_sequence
from graph2text.decoder import teacher_forced_states
from graph2text.errors import Graph2TextError, MarginalError, NumericError
from graph2text.objectives import (
    LossBundle,
    OTConfig,
    alignment_embeddings,
    combined_pretrain_loss,
    ipot,
    loss_finetune,
    loss_graph_reconstruction,
    loss_ot_alignment,
    loss_text_reconstruction,
    uniform_marginals,
)
from graph2text.synth import build_toy_model, overfit_corpus
from graph2text.vocab import MASK_ID, SEP_ID, mask_graph

from conftest import (
    assert_gradient_gate,
    rows_at,
    store_gradients,
    three_position_pair,
    unit_mean,
)


def exact_uniform_square_ot(C: np.ndarray) -> float:
    """Exact optimum for uniform marginals on a square cost matrix: the
    minimizers are permutation matrices scaled by 1/p (Birkhoff extreme
    points), so enumerate all p! of them."""
    p = C.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(p)):
        best = min(best, sum(C[i, perm[i]] for i in range(p)) / p)
    return best


class TestIpot:
    def test_zero_cost_matrix(self):
        C = np.zeros((3, 4))
        plan = ipot(C, *uniform_marginals(3, 4), OTConfig(outer_n=50))
        assert plan.cost(C) == 0.0

    def test_two_by_two_antidiagonal(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = ipot(C, *uniform_marginals(2, 2), OTConfig(outer_n=2000))
        assert np.allclose(plan.matrix, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6)
        assert plan.cost(C) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_random_square_near_permutation_optimum(self, seed):
        rng = np.random.default_rng(seed)
        p = 3 + seed % 3
        C = rng.uniform(0.0, 2.0, size=(p, p))
        plan = ipot(C, *uniform_marginals(p, p), OTConfig(outer_n=2000))
        opt = exact_uniform_square_ot(C)
        assert plan.cost(C) <= opt * 1.01 + 1e-12
        assert plan.cost(C) >= opt - 1e-9

    def test_marginal_feasibility_random_rectangular(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            p, q = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            C = rng.uniform(0.0, 2.0, size=(p, q))
            a = rng.uniform(0.5, 1.5, size=p)
            a /= a.sum()
            b = rng.uniform(0.5, 1.5, size=q)
            b /= b.sum()
            plan = ipot(C, a, b, OTConfig(outer_n=2000))
            row_violation, col_violation = plan.marginal_violation()
            assert row_violation < 1e-3
            assert col_violation < 1e-3

    def test_cost_does_not_worsen_with_more_iterations(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            p, q = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            C = rng.uniform(0.0, 2.0, size=(p, q))
            a, b = uniform_marginals(p, q)
            early = ipot(C, a, b, OTConfig(outer_n=10)).cost(C)
            late = ipot(C, a, b, OTConfig(outer_n=2000)).cost(C)
            assert late <= early + 1e-9

    def test_nonpositive_marginals_rejected(self):
        C = np.zeros((2, 2))
        with pytest.raises(MarginalError):
            ipot(C, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(MarginalError):
            ipot(C, np.array([0.7, 0.7]), np.array([0.5, 0.5]))

    def test_nan_cost_rejected(self):
        C = np.zeros((2, 2))
        C[0, 0] = np.nan
        with pytest.raises(NumericError):
            ipot(C, *uniform_marginals(2, 2))

    def test_underflowing_kernel_rejected(self):
        # exp(-C/beta) is 0.0 for every entry, so the scaling divides 0 by 0
        C = np.random.default_rng(3).uniform(0.8, 1.0, size=(4, 6))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="beta"):
                ipot(C, *uniform_marginals(4, 6), OTConfig(beta=1e-3))

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    def test_beta_must_be_positive(self, beta):
        with pytest.raises(ValueError, match="^beta must be positive"):
            OTConfig(beta=beta)

    def test_plan_nonnegative(self):
        rng = np.random.default_rng(5)
        C = rng.uniform(0, 2, size=(4, 6))
        plan = ipot(C, *uniform_marginals(4, 6), OTConfig())
        assert (plan.matrix >= 0).all()


@pytest.fixture
def toy():
    model, corpus = build_toy_model()
    return model, corpus[0]


@pytest.fixture
def small():
    # 1 layer, d_model 8: fast finite-difference sweeps; the acceptance suite
    # re-runs these checks at the full toy size
    model, corpus = build_toy_model(num_layers=1, d_model=8, d_ff=8)
    return model, corpus[0]


class TestTextReconstruction:
    def test_loss_well_defined_without_masking(self, toy):
        model, pair = toy
        loss = loss_text_reconstruction(model, pair, random.Random(0), 0.0, 0.0)
        assert math.isfinite(loss.item()) and loss.item() > 0

    def test_bit_deterministic_given_seed(self, toy):
        model, pair = toy
        a = loss_text_reconstruction(model, pair, random.Random(9))
        b = loss_text_reconstruction(model, pair, random.Random(9))
        assert a.item() == b.item()


class TestGraphReconstruction:
    def test_no_masked_units_zero_loss_zero_grads(self, toy):
        model, pair = toy
        loss = loss_graph_reconstruction(model, pair, random.Random(0), 0.0, 0.0)
        assert loss.item() == 0.0
        model.store.zero_grads()
        backward(loss)
        assert all(np.array_equal(t.grad, np.zeros_like(t.data)) for _, t in model.store.items())

    def test_uniform_logits_loss_is_log_vocab(self, toy):
        model, pair = toy
        # zero embeddings make the tied head emit uniform logits everywhere
        model.store["tok_emb"].data[:] = 0.0
        loss = loss_graph_reconstruction(model, pair, random.Random(1), 1.0, 1.0)
        assert abs(loss.item() - math.log(len(model.vocab))) < 1e-9

    def test_encoder_input_is_graph_sep_text(self, toy, monkeypatch):
        # the corrupted graph tokens, <SEP> and the text, with the clean
        # graph's unit position maps, as one would lay them out by hand
        model, pair = toy
        l_graph = objectives.frozen_losses(model, pair)["l_graph"]
        seen, masks = [], []
        encode = model.encode
        monkeypatch.setattr(model, "encode", lambda inp: seen.append(inp) or encode(inp))
        monkeypatch.setattr(
            objectives, "mask_graph", lambda *a: masks.append(mask_graph(*a)) or masks[-1]
        )
        l_graph()
        lin = linearize(pair.graph)
        [masked] = masks
        ids = model.vocab.encode_tokens(masked.corrupted) + [SEP_ID]
        ids += model.vocab.encode_tokens(pair.text)
        [inp] = seen
        assert MASK_ID in inp.ids[: lin.m]
        assert inp.ids == tuple(ids)
        assert inp.graph_len == lin.m
        assert inp.entity_positions == lin.entity_positions
        assert inp.relation_positions == lin.relation_positions


class TestOTAlignment:
    def test_identical_embeddings_zero_loss(self):
        # cost of aligning a distribution with itself under cosine distance
        # is zero when graph vectors equal text vectors
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(4, 8))
        C = cosine_cost(Tensor(vectors), Tensor(vectors))
        plan = ipot(C.data, *uniform_marginals(4, 4), OTConfig(outer_n=200))
        assert plan.cost(C.data) < 1e-6

    def test_loss_in_cosine_range(self, toy):
        model, pair = toy
        loss = loss_ot_alignment(model, pair)
        assert 0.0 <= loss.item() <= 2.0 + 1e-9

    def test_atoms_are_units_and_text_tokens(self, toy):
        model, pair = toy
        with no_grad():
            graph_vectors, text_vectors = alignment_embeddings(model, pair)
        units = pair.graph.num_entities + pair.graph.num_relations
        assert graph_vectors.shape == (units, 16)
        assert text_vectors.shape == (pair.n, 16)


def reference_alignment_embeddings(model, pair):
    """``alignment_embeddings`` with its graph vectors pooled one unit at a
    time, in ``unit_sequence`` order."""
    lin = linearize(pair.graph)
    inp = model.encoder_input(lin)
    enc_states = model.encode(inp)
    units = unit_sequence(pair.graph)
    rows = {
        k: unit_mean(enc_states, lin.entity_positions[key] if kind == "entity"
                     else lin.relation_positions[key])
        for k, (kind, key) in enumerate(units)
    }
    targets = model.target_ids(pair.text)
    dec_states = teacher_forced_states(
        targets, enc_states, model.store, model.decoder_config, inp.padding
    )
    return rows_at(rows, len(units)), slice_view(dec_states, slice(0, pair.n))


class TestPooledAlignment:
    """The graph atoms come from one matmul with the pooling matrices; they
    must equal per-unit means within rounding (losses within 1e-12 relative,
    gradients within 1e-12 of their largest entry, at as-initialized weights)."""

    def test_graph_vectors_match_per_unit_means(self):
        for variant in ("joint", "rel"):
            for pair in [three_position_pair()] + overfit_corpus(20):
                model, _ = build_toy_model(corpus=[pair], variant=variant,
                                           max_input_len=64, max_output_len=32)
                with no_grad():
                    graph_vectors, text_vectors = alignment_embeddings(model, pair)
                    ref_graph, ref_text = reference_alignment_embeddings(model, pair)
                assert np.array_equal(text_vectors.data, ref_text.data)
                worst = np.abs(graph_vectors.data - ref_graph.data).max()
                assert worst <= 1e-12 * np.abs(ref_graph.data).max()
                lin = linearize(pair.graph)
                for k, (kind, key) in enumerate(unit_sequence(pair.graph)):
                    positions = (lin.entity_positions[key] if kind == "entity"
                                 else lin.relation_positions[key])
                    if len(positions) == 1:
                        assert np.array_equal(graph_vectors.data[k], ref_graph.data[k])

    @pytest.mark.parametrize("variant", ["joint", "rel"])
    def test_ot_loss_and_gradients_match_per_unit_reference(self, variant, monkeypatch):
        pair = three_position_pair()
        model, _ = build_toy_model(corpus=[pair], variant=variant,
                                   max_input_len=64, max_output_len=32)
        assert max(len(p) for p in linearize(pair.graph).entity_positions.values()) >= 3
        losses = []

        def build():
            losses.append(loss_ot_alignment(model, pair))
            return losses[-1]

        grads = store_gradients(model.store, build)
        reference_calls = []

        def spy(*args):
            reference_calls.append(args)
            return reference_alignment_embeddings(*args)

        monkeypatch.setattr(objectives, "alignment_embeddings", spy)
        reference = store_gradients(model.store, build)
        assert len(reference_calls) == 1
        ours, ref = (loss.item() for loss in losses)
        assert abs(ours - ref) <= 1e-12 * ref
        assert_gradient_gate(grads, reference)


class TestCombinedLoss:
    def test_weights_one_zero_zero_equals_text_loss(self, toy):
        model, pair = toy
        bundle = combined_pretrain_loss(model, pair, random.Random(4), (1.0, 0.0, 0.0))
        reference = loss_text_reconstruction(model, pair, random.Random(4))
        assert bundle.total.item() == reference.item()
        assert bundle.l_graph.item() == 0.0
        assert bundle.l_ot.item() == 0.0

    def test_all_zero_weights(self, toy):
        model, pair = toy
        bundle = combined_pretrain_loss(model, pair, random.Random(4), (0.0, 0.0, 0.0))
        assert bundle.total.item() == 0.0
        model.store.zero_grads()
        backward(bundle.total)
        assert all(np.array_equal(t.grad, np.zeros_like(t.data)) for _, t in model.store.items())

    def test_total_matches_component_recomputation(self, toy):
        model, pair = toy
        weights = (0.7, 1.3, 0.25)
        bundle = combined_pretrain_loss(model, pair, random.Random(5), weights)
        # recompute each component independently with the same draw order
        rng = random.Random(5)
        l_text = loss_text_reconstruction(model, pair, rng)
        l_graph = loss_graph_reconstruction(model, pair, rng)
        l_ot = loss_ot_alignment(model, pair)
        expected = weights[0] * l_text.item() + weights[1] * l_graph.item() + weights[2] * l_ot.item()
        assert abs(bundle.total.item() - expected) < 1e-12
        assert bundle.l_text.item() == l_text.item()
        assert bundle.l_graph.item() == l_graph.item()

    def test_bit_deterministic(self, toy):
        model, pair = toy
        a = combined_pretrain_loss(model, pair, random.Random(6))
        b = combined_pretrain_loss(model, pair, random.Random(6))
        assert a.total.item() == b.total.item()
        assert a.components() == b.components()

    def test_negative_weights_rejected(self, toy):
        model, pair = toy
        with pytest.raises(ValueError):
            combined_pretrain_loss(model, pair, random.Random(0), (-1.0, 0.0, 0.0))
        with pytest.raises(ValueError):  # a NaN weight would drop its component unseen
            combined_pretrain_loss(model, pair, random.Random(0), (float("nan"), 1.0, 1.0))

    def test_all_components_nonnegative(self, toy):
        model, pair = toy
        bundle = combined_pretrain_loss(model, pair, random.Random(8))
        for value in bundle.components().values():
            assert value >= 0.0 and math.isfinite(value)


class TestFinetuneLoss:
    def test_uniform_logits_log_vocab(self, toy):
        model, pair = toy
        model.store["tok_emb"].data[:] = 0.0
        loss = loss_finetune(model, pair)
        assert abs(loss.item() - math.log(len(model.vocab))) < 1e-9

    @pytest.mark.parametrize("variant", ["seq", "joint", "rel"])
    def test_one_graph_node_per_sublayer(self, variant):
        model, corpus = build_toy_model(variant=variant)
        loss = loss_finetune(model, corpus[0])
        ops = Counter(
            node._backward_fn.__qualname__.split(".")[0]
            for node in _toposort(loss) if node._backward_fn is not None
        )
        enc, dec = model.encoder_config.num_layers, model.decoder_config.num_layers
        aggregating = 0 if variant == "seq" else enc
        assert ops["layer_norm"] == 2  # the final norms of encoder and decoder
        assert ops["multihead_attention_op"] == enc + 2 * dec
        assert ops["ffn_op"] == enc + dec
        assert ops["relation_biased_attention_op"] == aggregating
        # pooling, scatter and residual adds live inside the sublayer nodes;
        # what is left is the two token + position embedding sums and the
        # tied output projection
        assert ops["add"] == 2
        assert ops["matmul"] == 1


class TestFrozenLosses:
    @pytest.mark.parametrize("name", ["l_text", "l_graph", "l_ot", "l_finetune"])
    def test_gradient_check(self, small, name):
        model, pair = small
        report = grad_check(objectives.frozen_losses(model, pair)[name], model.store, tol=1e-4)
        assert report.passed, report.worst()

    def test_each_closure_bit_deterministic(self, toy):
        model, pair = toy
        losses = objectives.frozen_losses(model, pair)
        assert list(losses) == ["l_text", "l_graph", "l_ot", "l_finetune"]
        for name, f in losses.items():
            assert np.array_equal(f().data, f().data), name

    def test_graph_loss_masks_a_unit(self, toy):
        model, pair = toy
        assert objectives.frozen_losses(model, pair)["l_graph"]().item() > 0

    def test_plan_solved_once_and_frozen(self, toy, monkeypatch):
        model, pair = toy
        calls = []
        solve = objectives.ipot
        monkeypatch.setattr(objectives, "ipot", lambda *a: calls.append(a) or solve(*a))
        losses = objectives.frozen_losses(model, pair)
        assert len(calls) == 1
        for f in losses.values():
            f()
        assert len(calls) == 1

    def test_no_masking_seed_rejected(self, toy, monkeypatch):
        model, pair = toy
        monkeypatch.setattr(objectives, "loss_graph_reconstruction", lambda *a: Tensor(0.0))
        with pytest.raises(Graph2TextError, match="no masking seed"):
            objectives.frozen_losses(model, pair)
