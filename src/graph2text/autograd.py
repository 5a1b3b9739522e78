"""Dense float64 tensors with reverse-mode differentiation.

Single-threaded by design: a computation graph belongs to one thread, and a
graph can be backpropagated exactly once. Gradients accumulate into leaf
tensors created with ``requires_grad=True``; call ``ParamStore.zero_grads``
before the first of the backward passes whose gradients are to be summed.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ShapeError, UsageError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad=False):
        if type(data) is np.ndarray and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def in_graph(self) -> bool:
        # a consumed node stays in the graph so that reuse can be caught
        return self.requires_grad or self._backward_fn is not None or self._consumed

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def _make(data, parents, backward_fn):
    """Create a result tensor, recording the node when grads are on."""
    out = Tensor(data)
    if _grad_enabled and any(p.in_graph for p in parents):
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# arithmetic and shape manipulation (operands of equal shape; no broadcasting)

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add needs operands of equal shape, got {a.data.shape} + {b.data.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def weighted_sum(x, weights) -> Tensor:
    """The scalar ``sum(x * weights)`` for a constant array ``weights`` of
    the shape of ``x``."""
    x = as_tensor(x)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != x.data.shape:
        raise ShapeError(f"weighted_sum got {x.data.shape} vs weights {weights.shape}")
    return _make(np.asarray((x.data * weights).sum()), (x,), lambda g: (g * weights,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}")
    return _make(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a) -> Tensor:
    """Reverse the axes; backward reverses them back."""
    a = as_tensor(a)
    return _make(np.transpose(a.data), (a,), lambda g: (np.transpose(g),))


def slice_view(a, key) -> Tensor:
    """Basic (non-fancy) slicing; backward scatters into a zero tensor."""
    a = as_tensor(a)
    data = a.data[key]

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _make(data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# neural-net primitives

def _log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    y = _log_softmax(x.data, axis)

    def backward_fn(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _make(y, (x,), backward_fn)


_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5
_COSINE_EPS = 1e-12


def _gelu(v: np.ndarray, slope: bool):
    """Tanh-form GELU of ``v``; returns (gelu(v), d gelu/dv or None).

    The cube is formed by multiplication: numpy's general ``pow`` costs
    about 50 times more per element. The derivative is formed only when
    ``slope`` asks for it, so forward-only callers skip it.
    """
    t = np.tanh(_GELU_C * (v + 0.044715 * (v * v * v)))
    y = 0.5 * v * (1.0 + t)
    if not slope:
        return y, None
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * v**2)
    return y, 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm over the last axis; returns (y, xhat, inv_std)."""
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv_std
    return xhat * gain + bias, xhat, inv_std


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray):
    """Gradients (x, gain, bias) of a layer norm whose output gradient is ``g``."""
    d = g.shape[-1]
    lead = tuple(range(g.ndim - 1))
    dxhat = g * gain
    dx = inv_std * (
        dxhat
        - dxhat.sum(axis=-1, keepdims=True) / d
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    )
    return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm expects gain/bias of shape ({d},)")
    y, xhat, inv_std = _layer_norm_forward(x.data, gain.data, bias.data)
    return _make(y, (x, gain, bias), lambda g: _layer_norm_backward(g, xhat, inv_std, gain.data))


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of a (V, d) table; backward scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError("embedding table must be 2-d")
    data = table.data[ids]

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(data, (table,), backward_fn)


def cross_entropy(logits, target_ids) -> Tensor:
    """Mean negative log-likelihood of one target id per row of the logits."""
    logits = as_tensor(logits)
    targets = np.asarray(target_ids, dtype=np.int64)
    if logits.data.ndim != 2 or targets.ndim != 1 or logits.data.shape[0] != targets.shape[0]:
        raise ShapeError(f"cross_entropy got logits {logits.data.shape}, targets {targets.shape}")
    n, vocab = logits.data.shape
    if targets.min() < 0 or targets.max() >= vocab:
        raise IndexError("target id outside the vocabulary")
    log_probs = _log_softmax(logits.data, axis=1)
    rows = np.arange(n)
    loss = -log_probs[rows, targets].sum() / n

    def backward_fn(g):
        grad = np.exp(log_probs)
        grad[rows, targets] -= 1.0
        grad *= g / n
        return (grad,)

    return _make(np.asarray(loss), (logits,), backward_fn)


def cosine_cost(a, b) -> Tensor:
    """Pairwise cosine distance: C[i, j] = 1 - <a_i, b_j> / (|a_i||b_j| + eps).

    Rows must not be exactly zero; eps (1e-12) only guards the division.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(f"cosine_cost got {a.data.shape} vs {b.data.shape}")
    norm_a = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    norm_b = np.sqrt((b.data * b.data).sum(axis=1, keepdims=True))
    dots = a.data @ b.data.T
    denom = norm_a @ norm_b.T + _COSINE_EPS

    def backward_fn(g):
        g_dots = -g / denom
        g_denom = g * dots / (denom * denom)
        # d|a_i| / d a_i = a_i / |a_i|, and likewise for b
        g_a = g_dots @ b.data + (g_denom @ norm_b) * a.data / norm_a
        g_b = g_dots.T @ a.data + (g_denom.T @ norm_a) * b.data / norm_b
        return g_a, g_b

    return _make(1.0 - dots / denom, (a, b), backward_fn)


def _ffn_forward(x, gain, bias, w1, b1, w2, b2, slope: bool = False):
    """Pre-LN feed-forward sublayer ``x + FFN(LN(x))``, GELU (tanh form),
    on the rows of ``x``; returns (out, (normed, xhat, inv_std, activation,
    GELU slope or None))."""
    normed, xhat, inv_std = _layer_norm_forward(x, gain, bias)
    act, d_act = _gelu(normed @ w1 + b1, slope)
    return x + (act @ w2 + b2), (normed, xhat, inv_std, act, d_act)


def ffn_op(x, gain, bias, w1, b1, w2, b2) -> Tensor:
    """Pre-LN feed-forward sublayer with its residual, fused into one node."""
    operands = tuple(map(as_tensor, (x, gain, bias, w1, b1, w2, b2)))
    _, gain, _, w1, _, w2, _ = operands
    out, (normed, xhat, inv_std, act, d_act) = _ffn_forward(
        *[t.data for t in operands], slope=_grad_enabled
    )

    def backward_fn(g):
        g_pre = (g @ w2.data.T) * d_act
        g_x, g_gain, g_bias = _layer_norm_backward(g_pre @ w1.data.T, xhat, inv_std, gain.data)
        return g + g_x, g_gain, g_bias, normed.T @ g_pre, g_pre.sum(axis=0), act.T @ g, g.sum(axis=0)

    return _make(out, operands, backward_fn)


def relation_biased_attention_op(
    h, ent_rows, rel_rows, pools, wqs, wks, wvs, wkr, wvr, num_heads: int
) -> Tensor:
    """The aggregation sublayer ``h + S @ attention(z, r)``, fused into one node.

    ``pools`` is ``EncoderInput.pools``, the constants (P, (rows, cols), S):
    the (|V|+|E|, len) unit mean-pooling matrix, each relation's 0-based head
    and tail entity, and the (len, |V|) entity scatter S = (P[:|V|] > 0).T.
    With z = P[:|V|] @ ``ent_rows`` and r = P[|V|:] @ ``rel_rows``, per head:
    logit(i, j) = (q_i·k_j + [(i, j) in E] q_i·rk_ij)/sqrt(d_k), output(i) =
    sum_j p_ij (v_j + [(i, j) in E] rv_ij) for p = softmax_j(logit), q, k, v =
    z Wqs, z Wks, z Wvs, rk, rv = r Wkr, r Wvr. Head outputs are concatenated.
    """
    operands = tuple(map(as_tensor, (h, ent_rows, rel_rows, wqs, wks, wvs, wkr, wvr)))
    h, ent_rows, rel_rows, wqs, wks, wvs, wkr, wvr = operands
    pool, (rows, cols), scatter = pools
    nv, d_model = scatter.shape[1], h.data.shape[1]
    if pool.shape[0] != nv + len(rows) or scatter.shape[0] != h.data.shape[0]:
        raise ShapeError(f"pooling {pool.shape} and scatter {scatter.shape} disagree")
    if d_model % num_heads != 0:
        raise ShapeError(f"d_model {d_model} not divisible by {num_heads} heads")
    scaling = 1.0 / math.sqrt(d_model // num_heads)
    z, r = pool[:nv] @ ent_rows.data, pool[nv:] @ rel_rows.data
    q, k, v = (_split_heads(z @ w.data, num_heads) for w in (wqs, wks, wvs))
    rk, rv = (_split_heads(r @ w.data, num_heads) for w in (wkr, wvr))
    edges = (rows, cols, (q[:, rows] * rk).sum(axis=-1), rv)
    probs, context = _softmax_attention(q, k, v, scaling, edges=edges)

    def backward_fn(g):
        g_q, g_k, g_v, g_bias, g_rv = _softmax_attention_backward(
            _split_heads(scatter.T @ g, num_heads), q, k, v, probs, scaling, edges
        )
        g_bias = g_bias[..., None]
        np.add.at(g_q, (slice(None), rows), g_bias * rk)
        g_zq, g_zk, g_zv, g_rk, g_rv = map(_merge_heads, (g_q, g_k, g_v, g_bias * q[:, rows], g_rv))
        g_z = g_zq @ wqs.data.T + g_zk @ wks.data.T + g_zv @ wvs.data.T
        return (g, pool[:nv].T @ g_z, pool[nv:].T @ (g_rk @ wkr.data.T + g_rv @ wvr.data.T),
                z.T @ g_zq, z.T @ g_zk, z.T @ g_zv, r.T @ g_rk, r.T @ g_rv)

    out = h.data + scatter @ _merge_heads(context)
    return _make(out, operands, backward_fn)


def _split_heads(m: np.ndarray, num_heads: int) -> np.ndarray:
    """(..., len, d_model) -> (..., heads, len, d_k): the packed head blocks
    of the projection side by side become a leading heads axis (a view)."""
    *lead, length, d_model = m.shape
    return m.reshape(*lead, length, num_heads, d_model // num_heads).swapaxes(-2, -3)


def _merge_heads(m: np.ndarray) -> np.ndarray:
    """Inverse of ``_split_heads``: (..., heads, len, d_k) -> (..., len, d_model)."""
    *lead, num_heads, length, d_k = m.shape
    return m.swapaxes(-2, -3).reshape(*lead, length, num_heads * d_k)


def _softmax_attention(q, k, v, scaling: float, blocked=None, edges=None):
    """Scaled dot-product attention over split heads; ``q``, ``k`` and ``v``
    broadcast as (..., heads, len, d_k) and blocked positions get exactly
    zero weight. ``edges`` (rows, cols, bias, values) adds ``bias[..., e]``
    to the score of distinct pair (rows[e], cols[e]) before scaling and
    ``values[..., e, :]`` to its value. Returns (probs, context), whose
    (..., heads, len_q, len_k) temporaries are written into one array."""
    probs = q @ k.swapaxes(-1, -2)
    if edges is not None:
        rows, cols, bias, values = edges
        probs[..., rows, cols] += bias
    probs *= scaling
    if blocked is not None:
        np.copyto(probs, -np.inf, where=blocked)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    context = probs @ v
    if edges is not None:
        # np.add.at, not +=: one query may head several edges
        np.add.at(context, (..., rows, slice(None)), probs[..., rows, cols, None] * values)
    return probs, context


def _softmax_attention_backward(g_context, q, k, v, probs, scaling: float, edges=None):
    """Gradients (q, k, v), and with ``edges`` (bias, values), of
    ``_softmax_attention``'s context whose gradient is ``g_context``. Blocked
    positions have zero ``probs`` and so pass no gradient. The score
    gradient is formed in place in the array of the probability gradient."""
    g_scores = g_context @ v.swapaxes(-1, -2)
    if edges is not None:
        rows, cols, _, values = edges
        g_edge_context = g_context[..., rows, :]
        g_scores[..., rows, cols] += (g_edge_context * values).sum(axis=-1)
    g_scores -= (g_scores * probs).sum(axis=-1, keepdims=True)
    g_scores *= probs
    g_scores *= scaling
    grads = (g_scores @ k, g_scores.swapaxes(-1, -2) @ q, probs.swapaxes(-1, -2) @ g_context)
    if edges is None:
        return grads
    return (*grads, g_scores[..., rows, cols], probs[..., rows, cols, None] * g_edge_context)


def _attention_forward(x, gain, bias, wq, wk, wv, wo, num_heads, kv=None, cache=None, blocked=None):
    """Pre-LN attention sublayer ``x + attention(LN(x), ...)`` on rows ``x``
    of shape (..., len, d_model).

    Self-attention (``kv`` None) projects keys and values from LN(x) and
    appends them after ``cache``, the (keys, values) of earlier positions,
    when one is given. Cross-attention takes ``kv``, keys and values already
    split into heads. Returns (out, keys, values, (normed, xhat, inv_std,
    queries, probs, context)).
    """
    normed, xhat, inv_std = _layer_norm_forward(x, gain, bias)
    q = _split_heads(normed @ wq, num_heads)
    if kv is None:
        k, v = _split_heads(normed @ wk, num_heads), _split_heads(normed @ wv, num_heads)
        if cache is not None:
            k, v = np.concatenate([cache[0], k], axis=-2), np.concatenate([cache[1], v], axis=-2)
    else:
        k, v = kv
    probs, heads_context = _softmax_attention(q, k, v, 1.0 / math.sqrt(q.shape[-1]), blocked)
    context = _merge_heads(heads_context)
    return x + context @ wo, k, v, (normed, xhat, inv_std, q, probs, context)


def multihead_attention_op(
    x, memory, gain, bias, wq, wk, wv, wo, num_heads: int, blocked=None
) -> Tensor:
    """Pre-LN attention sublayer with its residual, fused into one node:
    ``x + attention(LN(x), LN(x))`` when ``memory`` is None, else
    ``x + attention(LN(x), memory)``.

    ``blocked`` is an optional boolean array broadcastable to
    (1, len_q, len_k): blocked key positions get -inf logits and therefore
    exactly zero attention weight. Head blocks live side by side in the
    (d_model, d_model) projection matrices; head outputs are concatenated and
    passed through the output projection ``wo``.
    """
    x, gain, bias, wq, wk, wv, wo = map(as_tensor, (x, gain, bias, wq, wk, wv, wo))
    self_attention = memory is None
    sources = (x,) if self_attention else (x, as_tensor(memory))
    d_model = x.data.shape[1]
    if sources[-1].data.shape[1] != d_model or wq.data.shape != (d_model, d_model):
        raise ShapeError("attention operands disagree on d_model")
    if d_model % num_heads != 0:
        raise ShapeError(f"d_model {d_model} not divisible by {num_heads} heads")
    scaling = 1.0 / math.sqrt(d_model // num_heads)
    kv = None
    if not self_attention:
        rows = sources[1].data
        kv = (_split_heads(rows @ wk.data, num_heads), _split_heads(rows @ wv.data, num_heads))
    out, k, v, (normed, xhat, inv_std, q, probs, context) = _attention_forward(
        x.data, gain.data, bias.data, wq.data, wk.data, wv.data, wo.data, num_heads,
        kv=kv, blocked=blocked,
    )
    kv_rows = normed if self_attention else sources[1].data

    def backward_fn(g):
        g_q, g_k, g_v = map(_merge_heads, _softmax_attention_backward(
            _split_heads(g @ wo.data.T, num_heads), q, k, v, probs, scaling
        ))
        g_normed = g_q @ wq.data.T
        g_kv_rows = g_k @ wk.data.T + g_v @ wv.data.T
        if self_attention:
            g_normed = g_normed + g_kv_rows
        g_x, g_gain, g_bias = _layer_norm_backward(g_normed, xhat, inv_std, gain.data)
        g_sources = (g + g_x,) if self_attention else (g + g_x, g_kv_rows)
        g_weights = (normed.T @ g_q, kv_rows.T @ g_k, kv_rows.T @ g_v, context.T @ g)
        return (*g_sources, g_gain, g_bias, *g_weights)

    return _make(out, (*sources, gain, bias, wq, wk, wv, wo), backward_fn)


# ---------------------------------------------------------------------------
# backward pass and parameter store

def _toposort(root: Tensor) -> list[Tensor]:
    """The nodes with a backward function that ``root`` depends on, each
    after its parents; leaves and constants never enter the order."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)] if root._backward_fn is not None else []
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
            if id(parent) not in visited and parent._backward_fn is not None:
                stack.append((parent, False))
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``: into a new array on an interior node (a
    backward function may pass one array to several parents), in place into
    a leaf's buffer; a constant takes nothing. A node whose graph was
    already backpropagated has lost its parents and cannot pass ``g`` on."""
    if t._backward_fn is not None:
        t.grad = g if t.grad is None else t.grad + g
    elif t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g
    elif t._consumed:
        raise UsageError("an operand's graph was already backpropagated; rebuild the forward pass")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar; may run once per computation graph.
    An interior node holds its gradient until its backward function runs;
    then it drops that function and its parents, which frees the arrays the
    function saved, so the graph is released as the sweep goes."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._consumed:
        raise UsageError("backward was already called on this graph; rebuild the forward pass")
    _accumulate(loss, np.ones_like(loss.data))
    loss._consumed = True
    for node in reversed(_toposort(loss)):
        g, node.grad = node.grad, None
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            _accumulate(parent, pg)
        node._backward_fn, node._parents, node._consumed = None, (), True


class ParamStore:
    """Named trainable leaf tensors with stable iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise UsageError(f"parameter {name!r} already registered")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def num_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grads(self) -> None:
        """Zero each parameter's gradient buffer, in place once it exists,
        so one buffer per parameter serves the whole run."""
        for t in self._params.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            else:
                t.grad.fill(0.0)


# ---------------------------------------------------------------------------
# finite-difference gradient checking

class GradCheckReport:
    """Per-parameter maximum relative error of analytic vs numeric gradients."""

    def __init__(self, per_param: dict[str, float], tol: float):
        self.per_param = per_param
        self.tol = tol
        self.max_rel_err = max(per_param.values()) if per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def worst(self) -> str:
        if not self.per_param:
            return "(no parameters)"
        name = max(self.per_param, key=self.per_param.get)
        return f"{name}: {self.per_param[name]:.3e}"

    def format(self) -> str:
        lines = [f"{name}: {err:.3e}" for name, err in self.per_param.items()]
        lines.append(f"max relative error {self.max_rel_err:.3e} (tol {self.tol:.1e})")
        return "\n".join(lines)


def grad_check(f, store: ParamStore, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of the scalar ``f()`` against central
    differences, element by element, for every parameter in the store.

    ``f`` must be deterministic: it is re-evaluated 2 per element with the
    parameter perturbed in place. The error measure is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1)``, i.e. relative
    above magnitude one and absolute below it, which keeps finite-difference
    round-off from drowning genuinely tiny gradients.
    """
    store.zero_grads()
    backward(f())
    analytic = {name: t.grad.copy() for name, t in store.items()}

    per_param: dict[str, float] = {}
    two_eps = 2.0 * eps
    with no_grad():
        for name, t in store.items():
            flat = t.data.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            worst = 0.0
            for k in range(flat.size):
                original = flat[k]
                flat[k] = original + eps
                f_plus = float(f().data)
                flat[k] = original - eps
                f_minus = float(f().data)
                flat[k] = original
                numeric = (f_plus - f_minus) / two_eps
                a_k = a_flat[k]
                err = abs(a_k - numeric) / max(abs(a_k), abs(numeric), 1.0)
                if err > worst:
                    worst = err
            per_param[name] = worst
    return GradCheckReport(per_param, tol)
