import math
import random

import numpy as np
import pytest

from graph2text import autograd as ag
from graph2text.autograd import ParamStore, Tensor, backward, grad_check, no_grad
from graph2text.errors import EmptyPoolError, ShapeError, UsageError
from graph2text.objectives import combined_pretrain_loss, loss_finetune
from graph2text.synth import build_toy_model, overfit_corpus
from graph2text.training import clip_gradients

from conftest import assert_gradient_gate, identity_pools, pool_input, store_gradients


def check_scalar_fn(build, arrays, tol=1e-6, eps=1e-6):
    """Finite-difference oracle for a scalar function of named arrays."""
    store = ParamStore()
    for name, value in arrays.items():
        store.add(name, np.array(value, dtype=np.float64))
    report = grad_check(lambda: build(store), store, eps=eps, tol=tol)
    assert report.passed, report.format()


class TestBasicOps:
    def test_matmul_identity(self):
        m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ag.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):  # no batched or broadcast operands
            ag.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 2))))

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 2), (2,)), ((3, 2), ()), ((1, 2), (3, 2))])
    def test_add_unequal_shapes_rejected(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            ag.add(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    def test_scale_zero_kills_gradient(self):
        store = ParamStore()
        x = store.add("x", np.array([1.0, -2.0]))
        store.zero_grads()
        loss = ag.weighted_sum(ag.scale(x, 0.0), np.ones(2))
        backward(loss)
        assert np.array_equal(x.grad, np.zeros(2))

    def test_slice_backward_scatters(self):
        store = ParamStore()
        x = store.add("x", np.arange(6.0).reshape(3, 2))
        store.zero_grads()
        backward(ag.weighted_sum(ag.slice_view(x, slice(1, 3)), np.ones((2, 2))))
        assert np.array_equal(x.grad, np.array([[0, 0], [1, 1], [1, 1.0]]))

    def test_weighted_sum_matches_numpy_bitwise(self):
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
        store = ParamStore()
        t = store.add("x", x)
        store.zero_grads()
        out = ag.weighted_sum(t, w)
        assert out.shape == ()
        assert out.item() == float((x * w).sum())
        backward(out)
        assert np.array_equal(t.grad, w)
        with pytest.raises(ShapeError):
            ag.weighted_sum(t, w[:, :3])


def attention_weights(logits: np.ndarray, blocked=None) -> np.ndarray:
    """The (n, n) attention probabilities that the fused attention ops form
    for (n, n) ``logits``: one head, identity keys and unit scaling, so the
    scores are the logits."""
    eye = np.eye(logits.shape[0])[None]
    return ag._softmax_attention(logits[None], eye, eye, 1.0, blocked)[0][0]


def attention_arrays(rng, lq: int, lk: int, d: int) -> dict:
    """Queries ``x``, a ``memory`` to attend over, and one attention
    sublayer's layer-norm and projection parameters."""
    arrays = {
        "x": rng.normal(size=(lq, d)),
        "memory": rng.normal(size=(lk, d)),
        "gain": rng.normal(size=d) + 1.5,
        "bias": rng.normal(size=d) * 0.1,
    }
    for name in ("wq", "wk", "wv", "wo"):
        arrays[name] = rng.normal(size=(d, d)) * 0.5
    return arrays


def attention_loss(s, readout, num_heads, blocked=None, memory=True) -> Tensor:
    weights = (s[k] for k in ("gain", "bias", "wq", "wk", "wv", "wo"))
    out = ag.multihead_attention_op(
        s["x"], s["memory"] if memory else None, *weights, num_heads, blocked
    )
    return ag.weighted_sum(out, readout)


class TestSoftmax:
    """The softmax inside the fused attention ops."""

    def test_symmetric(self):
        out = attention_weights(np.zeros((2, 2)))
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_large_inputs_stable(self):
        out = attention_weights(np.array([[1000.0, 0.0], [0.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] > 1 - 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        blocked = rng.random((1, 7, 7)) < 0.4
        blocked[0, np.arange(7), np.arange(7)] = False
        out = attention_weights(rng.normal(size=(7, 7)) * 3, blocked)
        assert out.min() >= 0
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        assert (out[blocked[0]] == 0.0).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        readout = rng.normal(size=(4, 4))
        blocked = np.zeros((1, 4, 4), dtype=bool)
        blocked[0, 0, 1] = True
        check_scalar_fn(
            lambda s: attention_loss(s, readout, 1, blocked),
            attention_arrays(rng, 4, 4, 4),
        )


class TestSharedAttentionCore:
    """Every fused attention op runs the one softmax-attention forward and
    backward."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("_softmax_attention", "_softmax_attention_backward"):
            def spy(*args, _original=getattr(ag, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(ag, name, spy)
        return calls

    @pytest.mark.parametrize("memory", [False, True])
    def test_multihead_attention_op(self, calls, memory):
        rng = np.random.default_rng(21)
        s = {k: Tensor(v, requires_grad=True) for k, v in attention_arrays(rng, 3, 3, 4).items()}
        backward(attention_loss(s, rng.normal(size=(3, 4)), 2, memory=memory))
        assert calls == ["_softmax_attention", "_softmax_attention_backward"]

    def test_relation_biased_attention_op(self, calls):
        rng = np.random.default_rng(22)
        z = rng.normal(size=(3, 4))
        weights = [rng.normal(size=(4, 4)) for _ in range(5)]
        rows = Tensor(np.vstack([z, rng.normal(size=(9, 4))]), requires_grad=True)
        out = ag.relation_biased_attention_op(
            np.zeros((3, 4)), rows, rows, identity_pools(3), *weights, 2
        )
        backward(ag.weighted_sum(out, rng.normal(size=(3, 4))))
        assert calls == ["_softmax_attention", "_softmax_attention_backward"]


def _out_of_place_attention(q, k, v, scaling, blocked=None, dense_edges=None):
    """Reference attention core: every step allocates its own array. The
    optional ``dense_edges`` (bias, values) hold each edge's score bias at
    (query, key) of a (..., len_q, len_k) array and its values at (query,
    key) of a (..., len_q, len_k, d_k) array, zero off the edges."""
    scores = q @ k.swapaxes(-1, -2)
    if dense_edges is not None:
        scores = scores + dense_edges[0]
    scores = scores * scaling
    if blocked is not None:
        scores = np.where(blocked, -np.inf, scores)
    scores = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    context = probs @ v
    if dense_edges is not None:
        for key in range(k.shape[-2]):  # ascending keys: the order of the edges
            context = context + probs[..., key, None] * dense_edges[1][..., key, :]
    return probs, context


def _out_of_place_attention_backward(g_context, q, k, v, probs, scaling, dense_edges=None):
    g_probs = g_context @ v.swapaxes(-1, -2)
    if dense_edges is not None:
        g_probs = g_probs + (g_context[..., :, None, :] * dense_edges[1]).sum(axis=-1)
    g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)) * scaling
    grads = (g_scores @ k, g_scores.swapaxes(-1, -2) @ q, probs.swapaxes(-1, -2) @ g_context)
    if dense_edges is None:
        return grads
    return (*grads, g_scores, probs[..., None] * g_context[..., :, None, :])


class TestInPlaceAttentionCore:
    """The attention core writes its (..., heads, len_q, len_k) temporaries
    into one array and matches the out-of-place formulas bit for bit, with
    and without edge terms."""

    # (rows, cols) sorted by row, then column: a self-loop, a query heading
    # three edges, and queries that head none
    EDGES = (np.array([0, 1, 1, 1, 3]), np.array([0, 0, 2, 4, 3]))

    @pytest.mark.parametrize("case", ["heads", "edges"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bitwise_equal_to_out_of_place(self, case, masked):
        rng = np.random.default_rng(31)
        scaling = 1.0 / math.sqrt(3)
        # heads: queries over a longer memory; edges: self-attention with edge terms
        q_shape, kv_shape = ((2, 5, 3), (2, 6, 3)) if case == "heads" else ((2, 5, 3), (2, 5, 3))
        q, k, v = rng.normal(size=q_shape), rng.normal(size=kv_shape), rng.normal(size=kv_shape)
        edges = dense = None
        if case == "edges":
            rows, cols = self.EDGES
            bias, values = rng.normal(size=(2, len(rows))), rng.normal(size=(2, len(rows), 3))
            edges = (rows, cols, bias, values)
            dense = (np.zeros((2, 5, 5)), np.zeros((2, 5, 5, 3)))
            dense[0][:, rows, cols], dense[1][:, rows, cols] = bias, values
        blocked = None
        if masked:
            blocked = rng.random(q_shape[-2:-1] + kv_shape[-2:-1]) < 0.4
            blocked[:, 0] = False  # every query keeps one key
        originals = [a.copy() for a in (q, k, v)]
        probs, context = ag._softmax_attention(q, k, v, scaling, blocked, edges)
        ref_probs, ref_context = _out_of_place_attention(q, k, v, scaling, blocked, dense)
        assert probs.tobytes() == ref_probs.tobytes()
        assert context.tobytes() == ref_context.tobytes()
        if masked:
            assert (probs[..., blocked] == 0.0).all()
        g_context = rng.normal(size=context.shape)
        grads = ag._softmax_attention_backward(g_context, q, k, v, probs, scaling, edges)
        reference = _out_of_place_attention_backward(g_context, q, k, v, ref_probs, scaling, dense)
        if edges is not None:
            # the dense bias and values gradients, read at the edges
            reference = (*reference[:3], *(m[:, rows, cols] for m in reference[3:]))
        assert len(grads) == len(reference) == (3 if edges is None else 5)
        for got, want in zip(grads, reference):
            assert got.tobytes() == want.tobytes()
        for before, after in zip(originals, (q, k, v)):
            assert np.array_equal(before, after)
        assert probs.tobytes() == ref_probs.tobytes()  # the backward left probs alone


class TestFixedPointExamples:
    def test_layer_norm_constant_vector(self):
        gain = Tensor(np.full(4, 2.0))
        bias = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        out = ag.layer_norm(Tensor(np.full((1, 4), 7.0)), gain, bias)
        assert np.allclose(out.data, bias.data, atol=1e-3)

    def test_cross_entropy_confident_model(self):
        logits = np.full((1, 4), -30.0)
        logits[0, 2] = 30.0
        loss = ag.cross_entropy(Tensor(logits), [2])
        assert loss.item() < 1e-12

    def test_cross_entropy_out_of_range(self):
        with pytest.raises(IndexError):
            ag.cross_entropy(Tensor(np.zeros((1, 4))), [9])

    def test_embedding_out_of_range(self):
        with pytest.raises(IndexError):
            ag.embedding_lookup(Tensor(np.zeros((4, 2))), np.array([5]))

    def test_uniform_logits_entropy(self):
        loss = ag.cross_entropy(Tensor(np.zeros((2, 16))), [3, 9])
        assert abs(loss.item() - math.log(16)) < 1e-12


class TestIndexMeanPool:
    """Mean pooling over position sets, as a matmul with the encoder's
    pooling matrices."""

    def test_single_position_exact_copy(self):
        h = Tensor(np.arange(12.0).reshape(4, 3))
        out = ag.matmul(Tensor(pool_input().pools[0]), h)
        assert np.array_equal(out.data[0], h.data[2])

    def test_two_equal_rows(self):
        h = Tensor(np.array([[1.0, 2.0], [1.0, 2.0], [9.0, 9.0], [5.0, 5.0]]))
        out = ag.matmul(Tensor(pool_input().pools[0]), h)
        assert np.array_equal(out.data[1], np.array([1.0, 2.0]))

    def test_empty_positions(self):
        with pytest.raises(EmptyPoolError):
            pool_input(entity_1=frozenset()).pools

    def test_gradient(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3))
        pool = pool_input(entity_1=frozenset({1, 3, 4})).pools[0]
        check_scalar_fn(
            lambda s: ag.weighted_sum(ag.matmul(Tensor(pool[:2]), s["h"]), w),
            {"h": rng.normal(size=(4, 3))},
        )


class TestCosineCost:
    def test_identical_rows_cost_zero(self):
        a = np.array([[1.0, 2.0, 3.0]])
        out = ag.cosine_cost(Tensor(a), Tensor(a))
        assert abs(out.data[0, 0]) < 1e-12

    def test_opposite_rows_cost_two(self):
        a = np.array([[1.0, -2.0]])
        out = ag.cosine_cost(Tensor(a), Tensor(-a))
        assert abs(out.data[0, 0] - 2.0) < 1e-12

    def test_one_node_on_its_operands(self):
        store = ParamStore()
        a = store.add("a", np.ones((2, 3)))
        b = store.add("b", np.arange(12.0).reshape(4, 3))
        out = ag.cosine_cost(a, b)
        assert out.shape == (2, 4)
        assert out._parents == (a, b)

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(2, 2))
        out = ag.cosine_cost(Tensor(a), Tensor(b)).data
        for i in range(3):
            for j in range(2):
                expected = 1.0 - a[i] @ b[j] / (
                    np.linalg.norm(a[i]) * np.linalg.norm(b[j]) + 1e-12
                )
                assert abs(out[i, j] - expected) < 1e-12


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(Tensor(np.zeros(3)))

    def test_double_backward_raises(self):
        store = ParamStore()
        x = store.add("x", np.ones(2))
        store.zero_grads()
        loss = ag.weighted_sum(x, np.ones(2))
        backward(loss)
        with pytest.raises(UsageError):
            backward(loss)

    def test_backward_releases_the_graph_and_stays_single_use(self):
        corpus = overfit_corpus(2)
        model, _ = build_toy_model(corpus=corpus)
        model.store.zero_grads()
        loss = loss_finetune(model, corpus[0])
        order = ag._toposort(loss)
        assert order and all(node._parents for node in order)
        backward(loss)
        assert all(node._backward_fn is None and node._parents == () for node in order)
        with pytest.raises(UsageError):
            backward(loss)

    def test_reusing_a_backpropagated_node_raises(self):
        # the node lost its parents, so a new graph on it would drop x's gradient
        store = ParamStore()
        x = store.add("x", np.array([[3.0]]))
        store.zero_grads()
        y = ag.matmul(x, x)
        backward(ag.weighted_sum(y, np.ones((1, 1))))
        with pytest.raises(UsageError, match="already backpropagated"):
            backward(ag.weighted_sum(y, np.ones((1, 1))))
        assert np.array_equal(x.grad, [[6.0]])

    def test_sum_of_squares_gradient(self):
        # x @ x.T of a (1, 3) row is its sum of squares; x reaches it twice
        store = ParamStore()
        x = store.add("x", np.array([[1.0, -2.0, 3.0]]))

        def sum_of_squares():
            return ag.weighted_sum(ag.matmul(store["x"], ag.transpose(store["x"])), np.ones((1, 1)))

        report = grad_check(sum_of_squares, store)
        assert report.max_rel_err < 1e-8
        store.zero_grads()
        backward(sum_of_squares())
        assert np.allclose(x.grad, 2 * x.data)

    def test_constant_function_zero_gradient(self):
        store = ParamStore()
        store.add("x", np.ones(3))
        report = grad_check(lambda: Tensor(5.0), store)
        assert report.max_rel_err == 0.0

    def test_shared_subgraph_accumulates(self):
        store = ParamStore()
        x = store.add("x", np.array([[3.0]]))
        store.zero_grads()
        y = ag.matmul(x, x)                                  # x^2
        loss = ag.weighted_sum(ag.add(y, y), np.ones((1, 1)))  # 2 x^2
        backward(loss)
        assert np.allclose(x.grad, [[12.0]])

    def test_no_grad_builds_no_graph(self):
        store = ParamStore()
        x = store.add("x", np.ones(2))
        with no_grad():
            out = ag.add(x, x)
        assert out._backward_fn is None


def _dictionary_backward(loss: Tensor) -> None:
    """Reference sweep that keeps each pending gradient in a dictionary keyed
    by ``id()``, sums a node's contributions there, and copies a leaf's
    first contribution; leaves sit in the topological order with the
    interior nodes."""
    order, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent.in_graph:
                stack.append((parent, False))
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._backward_fn is None:
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if parent.in_graph:
                grads[id(parent)] = grads[id(parent)] + pg if id(parent) in grads else pg


class TestGradientsOnTensors:
    """A gradient lives only in its tensor's ``grad``: interior nodes hold it
    until their backward function consumes it, leaves add into one buffer."""

    @pytest.mark.parametrize("task", ["pretrain", "finetune"])
    @pytest.mark.parametrize("variant", ["seq", "joint", "rel"])
    def test_bitwise_equal_to_dictionary_sweep(self, variant, task):
        corpus = overfit_corpus(5)
        model, _ = build_toy_model(corpus=corpus, variant=variant)
        losses = []

        def build():
            total = None
            for k, pair in enumerate(corpus):
                if task == "pretrain":
                    bundle = combined_pretrain_loss(model, pair, random.Random(k))
                    losses.append(bundle.components())
                    loss = bundle.total
                else:
                    loss = loss_finetune(model, pair)
                losses.append(loss.item())
                total = loss if total is None else ag.add(total, loss)
            return ag.scale(total, 1.0 / len(corpus))

        grads = store_gradients(model.store, build)
        model.store.zero_grads()
        _dictionary_backward(build())
        half = len(losses) // 2
        assert losses[:half] == losses[half:]
        for name, t in model.store.items():
            assert np.array_equal(grads[name], t.grad), name

    def test_parameter_buffers_survive_backward_and_clipping(self):
        corpus = overfit_corpus(2)
        model, _ = build_toy_model(corpus=corpus)
        model.store.zero_grads()
        buffers = {name: id(t.grad) for name, t in model.store.items()}
        backward(loss_finetune(model, corpus[1]))
        assert {name: id(t.grad) for name, t in model.store.items()} == buffers
        assert clip_gradients(model.store, 1e-6) > 1e-6  # the clip fires
        assert {name: id(t.grad) for name, t in model.store.items()} == buffers

    def test_free_leaves_get_their_own_buffers(self):
        # add passes one array to both parents; neither leaf may hold it
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        backward(ag.weighted_sum(ag.add(x, y), np.array([5.0, 6.0])))
        assert x.grad is not y.grad
        assert np.array_equal(x.grad, [5.0, 6.0]) and np.array_equal(y.grad, [5.0, 6.0])

    def test_order_holds_interior_nodes_that_release_their_gradients(self):
        store = ParamStore()
        x = store.add("x", np.array([[3.0]]))
        store.zero_grads()
        y = ag.matmul(x, Tensor(np.array([[2.0]])))
        loss = ag.weighted_sum(ag.add(y, y), np.ones((1, 1)))
        order = ag._toposort(loss)  # y, add(y, y), loss: x and the constant stay out
        assert len(order) == 3 and order[0] is y and order[2] is loss
        backward(loss)
        assert all(node.grad is None for node in order)
        assert np.array_equal(x.grad, [[4.0]])

    def test_scalar_leaf_loss_gets_gradient_one(self):
        store = ParamStore()
        x = store.add("x", np.array(2.5))
        store.zero_grads()
        assert ag._toposort(x) == []
        backward(x)
        assert x.grad == 1.0


def _random_op_case(seed: int):
    """One randomly shaped composition of the ops, operands of equal shape."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    arrays = {
        "a": rng.normal(size=(n, d)),
        "c": rng.normal(size=(n, d)),
        "b": rng.normal(size=(d, n)),
        "bias": rng.normal(size=d),
        "gain": rng.normal(size=d) + 1.5,
        "w1": rng.normal(size=(d, 2 * d)),
        "b1": rng.normal(size=2 * d),
        "w2": rng.normal(size=(2 * d, d)),
        "b2": rng.normal(size=d),
        "wq": rng.normal(size=(d, d)),
        "wk": rng.normal(size=(d, d)),
        "wv": rng.normal(size=(d, d)),
        "wo": rng.normal(size=(d, d)),
    }
    blocked = rng.random((1, n, n)) < 0.3
    blocked[0, np.arange(n), np.arange(n)] = False  # every query keeps one key
    w = rng.normal(size=(n, n))

    def build(s):
        x = ag.add(s["a"], s["c"])
        x = ag.layer_norm(x, s["gain"], s["bias"])
        x = ag.ffn_op(x, s["gain"], s["bias"], s["w1"], s["b1"], s["w2"], s["b2"])
        x = ag.multihead_attention_op(
            x, None, s["gain"], s["bias"], s["wq"], s["wk"], s["wv"], s["wo"], 1, blocked
        )
        y = ag.matmul(x, s["b"])                # (n, n)
        z = ag.matmul(y, ag.transpose(s["b"]))  # (n, d)
        z = ag.scale(ag.cosine_cost(z, s["c"]), 3.0)  # (n, n)
        # normalizing columns, then rows, couples every entry of z
        return ag.weighted_sum(ag.log_softmax(ag.log_softmax(z, axis=0), axis=-1), w)

    return build, arrays


class TestOpGradientsProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_compositions(self, seed):
        build, arrays = _random_op_case(seed)
        check_scalar_fn(build, arrays, tol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_attention_op(self, seed):
        # cross-attention: gradients reach x (residual and layer norm), the
        # memory, the layer-norm gain and bias, and all four projections
        rng = np.random.default_rng(seed)
        arrays = attention_arrays(rng, 3, 4, 4)
        readout = rng.normal(size=(3, 4))
        blocked = np.zeros((1, 3, 4), dtype=bool)
        blocked[0, :, -1] = True
        check_scalar_fn(lambda s: attention_loss(s, readout, 2, blocked), arrays, tol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_self_attention_shared_input(self, seed):
        rng = np.random.default_rng(100 + seed)
        arrays = attention_arrays(rng, 4, 4, 4)
        del arrays["memory"]
        readout = rng.normal(size=(4, 4))
        check_scalar_fn(lambda s: attention_loss(s, readout, 2, memory=False), arrays, tol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_relation_biased_attention_op(self, seed):
        rng = np.random.default_rng(200 + seed)
        nv, d = 3, 4
        # P = I over the rows (z; q), S = I and h = 0: the op is the
        # attention alone, and the rows get the z and q gradients
        arrays = {"rows": np.vstack([rng.normal(size=(nv, d)), rng.normal(size=(nv * nv, d))])}
        for name in ("wqs", "wks", "wvs", "wkr", "wvr"):
            arrays[name] = rng.normal(size=(d, d)) * 0.5
        arrays["h"] = np.zeros((nv, d))
        readout = rng.normal(size=(nv, d))

        def build(s):
            out = ag.relation_biased_attention_op(
                s["h"], s["rows"], s["rows"], identity_pools(nv),
                s["wqs"], s["wks"], s["wvs"], s["wkr"], s["wvr"], 2,
            )
            return ag.weighted_sum(out, readout)

        check_scalar_fn(build, arrays, tol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_ffn_op(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, d, h = 3, 4, 5
        arrays = {
            "x": rng.normal(size=(n, d)),
            "gain": rng.normal(size=d) + 1.5,
            "bias": rng.normal(size=d) * 0.1,
            "w1": rng.normal(size=(d, h)) * 0.5,
            "b1": rng.normal(size=h) * 0.1,
            "w2": rng.normal(size=(h, d)) * 0.5,
            "b2": rng.normal(size=d) * 0.1,
        }
        readout = rng.normal(size=(n, d))

        def build(s):
            out = ag.ffn_op(*(s[k] for k in ("x", "gain", "bias", "w1", "b1", "w2", "b2")))
            return ag.weighted_sum(out, readout)

        check_scalar_fn(build, arrays, tol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_embedding_and_cross_entropy(self, seed):
        rng = np.random.default_rng(400 + seed)
        ids = rng.integers(0, 5, size=6)
        targets = rng.integers(0, 5, size=6)
        arrays = {"table": rng.normal(size=(5, 4)), "proj": rng.normal(size=(4, 5))}

        def build(s):
            rows = ag.embedding_lookup(s["table"], ids)
            return ag.cross_entropy(ag.matmul(rows, s["proj"]), targets)

        check_scalar_fn(build, arrays, tol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_cosine_cost_gradients(self, seed):
        rng = np.random.default_rng(500 + seed)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(2, 4))}
        w = rng.normal(size=(3, 2))

        def build(s):
            return ag.weighted_sum(ag.cosine_cost(s["a"], s["b"]), w)

        check_scalar_fn(build, arrays, tol=1e-5)


def _pow_gelu(v, slope):
    """Reference tanh-GELU with its cube taken by numpy's general ``pow``."""
    t = np.tanh(ag._GELU_C * (v + 0.044715 * v**3))
    y = 0.5 * v * (1.0 + t)
    if not slope:
        return y, None
    d_inner = ag._GELU_C * (1.0 + 3 * 0.044715 * v**2)
    return y, 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner


def _perturbed_toy(corpus, seed):
    """A toy model whose weights move by N(0, 0.3), so FFN pre-activations
    reach the range where the GELU cube matters."""
    model, _ = build_toy_model(corpus)
    rng = np.random.default_rng(seed)
    for _, t in model.store.items():
        t.data += rng.normal(0.0, 0.3, size=t.data.shape)
    return model


def _assert_some_bits_moved(grads, reference) -> None:
    """The cube swap must change some gradient bits, or the reference never ran."""
    assert any(not np.array_equal(grads[name], ref) for name, ref in reference.items())


class TestGeluCube:
    """The multiplication-form cube rounds differently from ``pow``; every
    path that runs it must stay within rounding of the ``pow`` reference."""

    POINTS = np.array([0.0, 1e-8, -1e-8, 1.0, -1.0, 4.0, -4.0, 10.0, -10.0, 40.0, -40.0])

    def test_helper_matches_pow_reference(self):
        x = np.concatenate([self.POINTS, np.random.default_rng(7).normal(size=4000) * 3])
        y, dy = ag._gelu(x, slope=True)
        ref_y, ref_dy = _pow_gelu(x, slope=True)
        # absolute, not relative: in the negative tail (x near -4) the output
        # is tiny and the relative difference reaches 3e-11
        bound = 1e-15 * np.maximum(1.0, np.abs(x))
        assert (np.abs(y - ref_y) <= bound).all()
        assert (np.abs(dy - ref_dy) <= bound).all()
        assert np.array_equal(ag._gelu(x, slope=False)[0], y)

    def test_gelu_op_uses_helper(self):
        # a zero gain makes the layer norm emit its bias, and identity
        # weights with zero biases make the FFN its GELU, exactly; on a zero
        # input the residual adds nothing, and the bias gradient is the slope
        n = len(self.POINTS)
        x, gain = Tensor(np.zeros((1, n))), Tensor(np.zeros(n))
        bias = Tensor(self.POINTS.copy(), requires_grad=True)
        eye, zero = Tensor(np.eye(n)), Tensor(np.zeros(n))
        out = ag.ffn_op(x, gain, bias, eye, zero, eye, zero)
        backward(ag.weighted_sum(out, np.ones((1, n))))
        y, dy = ag._gelu(self.POINTS, slope=True)
        assert np.array_equal(out.data[0], y)
        assert np.array_equal(bias.grad, dy)

    def test_ffn_op_matches_pow_reference(self, monkeypatch):
        rng = np.random.default_rng(11)
        n, d, h = 32, 16, 64
        store = ParamStore()
        for name, shape in (("x", (n, d)), ("gain", (d,)), ("bias", (d,)), ("w1", (d, h)),
                            ("b1", (h,)), ("w2", (h, d)), ("b2", (d,))):
            store.add(name, rng.normal(size=shape) * 1.5)
        readout = rng.normal(size=(n, d))

        def build():
            out = ag.ffn_op(*(store[k] for k in ("x", "gain", "bias", "w1", "b1", "w2", "b2")))
            outputs.append(out.data)
            return ag.weighted_sum(out, readout)

        outputs = []
        grads = store_gradients(store, build)
        monkeypatch.setattr(ag, "_gelu", _pow_gelu)
        reference = store_gradients(store, build)
        out, ref_out = outputs
        assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
        assert len(reference) == 7
        _assert_some_bits_moved(grads, reference)
        assert_gradient_gate(grads, reference)

    def test_pretrain_bundle_matches_pow_reference(self, monkeypatch):
        corpus = overfit_corpus(5)
        model = _perturbed_toy(corpus, seed=3)
        pair = corpus[4]  # three entities, two triples
        bundles = []

        def build():
            bundles.append(combined_pretrain_loss(model, pair, random.Random(5)))
            return bundles[-1].total

        grads = store_gradients(model.store, build)
        monkeypatch.setattr(ag, "_gelu", _pow_gelu)
        reference = store_gradients(model.store, build)
        ours, ref = (b.components() for b in bundles)
        for name, value in ref.items():
            assert value > 0, name
            assert abs(ours[name] - value) <= 1e-12 * value, name
        _assert_some_bits_moved(grads, reference)
        assert_gradient_gate(grads, reference)

    def test_finetune_loss_matches_pow_reference(self, monkeypatch):
        corpus = overfit_corpus(5)
        model = _perturbed_toy(corpus, seed=5)
        losses = []

        # all five pairs: on one pair only a handful of GELU inputs round
        # differently under the two cubes, too few for the gate to see a
        # difference once other rounding moves
        def build():
            total = loss_finetune(model, corpus[0])
            for pair in corpus[1:]:
                total = ag.add(total, loss_finetune(model, pair))
            losses.append(total)
            return total

        grads = store_gradients(model.store, build)
        monkeypatch.setattr(ag, "_gelu", _pow_gelu)
        reference = store_gradients(model.store, build)
        ours, ref = (loss.item() for loss in losses)
        assert abs(ours - ref) <= 1e-12 * ref
        _assert_some_bits_moved(grads, reference)
        assert_gradient_gate(grads, reference)
