"""Pre-training losses (text/graph reconstruction, transport alignment),
the proximal-point transport solver, and the fine-tuning loss."""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .autograd import (
    Tensor,
    add,
    cosine_cost,
    cross_entropy,
    embedding_lookup,
    matmul,
    no_grad,
    scale,
    slice_view,
    weighted_sum,
)
from . import encoder
from .data import GraphTextPair, linearize
from .decoder import lm_logits, teacher_forced_states
from .errors import Graph2TextError, MarginalError, NumericError, ShapeError
from .model import Seq2SeqModel
from .vocab import mask_graph, mask_text


@dataclass(frozen=True)
class OTConfig:
    """Solver constants: proximal kernel strength and iteration counts."""

    beta: float = 1.0
    inner_k: int = 1
    outer_n: int = 10

    def __post_init__(self):
        if not self.beta > 0:  # NaN too
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.inner_k < 1 or self.outer_n < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling matrix with its row/column marginal targets."""

    matrix: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (len(self.row_marginals), len(self.col_marginals)):
            raise ShapeError("plan shape disagrees with marginal lengths")
        if not np.isfinite(self.matrix).all():
            raise NumericError(
                "transport plan has non-finite entries: the proximal kernel exp(-C/beta) "
                "underflows when beta is small against the costs; raise OTConfig.beta"
            )
        if (self.matrix < 0).any():
            raise NumericError("transport plan has negative entries")

    def cost(self, cost_matrix: np.ndarray) -> float:
        return float((self.matrix * cost_matrix).sum())

    def marginal_violation(self) -> tuple[float, float]:
        row = np.abs(self.matrix.sum(axis=1) - self.row_marginals).max()
        col = np.abs(self.matrix.sum(axis=0) - self.col_marginals).max()
        return float(row), float(col)


def uniform_marginals(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full(p, 1.0 / p), np.full(q, 1.0 / q)


def ipot(C: np.ndarray, a: np.ndarray, b: np.ndarray, cfg: OTConfig = OTConfig()) -> TransportPlan:
    """Inexact proximal point iteration for the optimal transport plan.

    Starting from the all-ones matrix, each of the ``outer_n`` iterations
    re-weights by the proximal kernel exp(-C/beta) and applies ``inner_k``
    alternating marginal-scaling updates before rebuilding the plan. No
    gradient flows through the solver; callers treat the plan as a constant.
    """
    C = np.asarray(C, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.isnan(C).any() or np.isinf(C).any():
        raise NumericError("cost matrix contains non-finite entries")
    if C.ndim != 2 or C.shape != (len(a), len(b)):
        raise ShapeError(f"cost matrix {C.shape} does not match marginals ({len(a)}, {len(b)})")
    if (a <= 0).any() or (b <= 0).any():
        raise MarginalError("marginals must be strictly positive")
    if abs(a.sum() - 1.0) > 1e-8 or abs(b.sum() - 1.0) > 1e-8:
        raise MarginalError("marginals must each sum to one")

    kernel = np.exp(-C / cfg.beta)
    plan = np.ones_like(C)
    sigma = b.copy()
    for _ in range(cfg.outer_n):
        Q = kernel * plan
        for _ in range(cfg.inner_k):
            delta = a / (Q @ sigma)
            sigma = b / (Q.T @ delta)
        plan = delta[:, None] * Q * sigma[None, :]
    return TransportPlan(plan, a, b)


@dataclass
class LossBundle:
    """The three pre-training losses and their weighted total."""

    l_text: Tensor
    l_graph: Tensor
    l_ot: Tensor
    total: Tensor

    def __post_init__(self):
        for name, value in self.components().items():
            if not math.isfinite(value) or value < 0:
                raise NumericError(f"loss component {name} is {value}")

    def components(self) -> dict[str, float]:
        return {
            "l_text": self.l_text.item(),
            "l_graph": self.l_graph.item(),
            "l_ot": self.l_ot.item(),
        }


def loss_text_reconstruction(
    model: Seq2SeqModel,
    pair: GraphTextPair,
    rng: random.Random,
    p_entity: float = 0.40,
    p_other: float = 0.20,
) -> Tensor:
    """Decode the original text from the complete graph plus a corrupted text."""
    lin = linearize(pair.graph)
    masked = mask_text(pair, rng, p_entity, p_other)
    return _text_loss(model, pair, model.encoder_input(lin, masked.corrupted))


def _text_loss(model: Seq2SeqModel, pair: GraphTextPair, inp: encoder.EncoderInput) -> Tensor:
    """Cross-entropy of decoding the pair's text from the encoded ``inp``."""
    states = model.encode(inp)
    targets = model.target_ids(pair.text)
    logits, _ = model.decode_train(targets, states, inp.padding)
    return cross_entropy(logits, targets)


def loss_graph_reconstruction(
    model: Seq2SeqModel,
    pair: GraphTextPair,
    rng: random.Random,
    p_entity: float = 0.40,
    p_relation: float = 0.20,
) -> Tensor:
    """Predict the masked unit tokens of a corrupted graph given the text.

    A vocabulary projection tied to the embedding table reads the encoder's
    final states at each masked graph position; with nothing masked the loss
    is exactly zero with zero gradient.
    """
    lin = linearize(pair.graph)
    masked = mask_graph(lin, rng, p_entity, p_relation)
    masked_rows = [i for i, flag in enumerate(masked.indicators) if flag]
    if not masked_rows:
        return Tensor(0.0)
    inp = model.encoder_input(dataclasses.replace(lin, tokens=masked.corrupted), pair.text)
    states = model.encode(inp)
    picked = embedding_lookup(states, np.asarray(masked_rows, dtype=np.int64))
    logits = lm_logits(picked, model.store)
    targets = np.asarray(
        [model.vocab.encode(masked.original[r]) for r in masked_rows], dtype=np.int64
    )
    return cross_entropy(logits, targets)


def alignment_embeddings(model: Seq2SeqModel, pair: GraphTextPair) -> tuple[Tensor, Tensor]:
    """Pooled unit vectors from the encoder and per-token decoder vectors.

    The encoder sees only the linearized graph; its states pooled by the
    rows of P (``inp.pools[0]``) are the graph atoms, in ``unit_sequence``
    order. The decoder is teacher-forced on the text, and only the states
    for the text tokens themselves (not the end marker) become transport
    atoms.
    """
    lin = linearize(pair.graph)
    inp = model.encoder_input(lin)
    enc_states = model.encode(inp)
    graph_vectors = matmul(Tensor(inp.pools[0]), enc_states)
    targets = model.target_ids(pair.text)
    dec_states = teacher_forced_states(
        targets, enc_states, model.store, model.decoder_config, inp.padding
    )
    text_vectors = slice_view(dec_states, slice(0, pair.n))
    return graph_vectors, text_vectors


def loss_ot_alignment(
    model: Seq2SeqModel,
    pair: GraphTextPair,
    cfg: OTConfig = OTConfig(),
    frozen_plan: TransportPlan | None = None,
) -> Tensor:
    """Transport cost between graph-unit and text-token embeddings.

    The plan is solved on the current cosine costs and then held constant, so
    gradients flow only through the cost matrix. Pass ``frozen_plan`` to skip
    the solve (used by finite-difference checks, which must not let the plan
    respond to parameter perturbations).
    """
    graph_vectors, text_vectors = alignment_embeddings(model, pair)
    costs = cosine_cost(graph_vectors, text_vectors)
    if frozen_plan is None:
        a, b = uniform_marginals(*costs.shape)
        frozen_plan = ipot(costs.data, a, b, cfg)
    elif frozen_plan.matrix.shape != costs.shape:
        raise ShapeError("frozen plan shape does not match the cost matrix")
    return weighted_sum(costs, frozen_plan.matrix)


def loss_finetune(model: Seq2SeqModel, pair: GraphTextPair) -> Tensor:
    """Plain graph-to-text generation loss: encode the graph, decode the text."""
    return _text_loss(model, pair, model.encoder_input(linearize(pair.graph)))


def combined_pretrain_loss(
    model: Seq2SeqModel,
    pair: GraphTextPair,
    rng: random.Random,
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
    ot_config: OTConfig = OTConfig(),
) -> LossBundle:
    """Weighted sum of the three pre-training losses on one pair.

    Components with weight zero are skipped entirely and reported as zero.
    """
    if not all(w >= 0 for w in weights):  # NaN too
        raise ValueError("loss weights must be >= 0")
    w_text, w_graph, w_ot = weights
    zero = Tensor(0.0)
    l_text = loss_text_reconstruction(model, pair, rng) if w_text > 0 else zero
    l_graph = loss_graph_reconstruction(model, pair, rng) if w_graph > 0 else zero
    l_ot = loss_ot_alignment(model, pair, ot_config) if w_ot > 0 else zero
    total = zero
    for weight, loss in ((w_text, l_text), (w_graph, l_graph), (w_ot, l_ot)):
        if weight > 0:
            total = add(total, scale(loss, weight))
    return LossBundle(l_text, l_graph, l_ot, total)


def frozen_losses(model: Seq2SeqModel, pair: GraphTextPair) -> dict[str, Callable[[], Tensor]]:
    """The four losses on ``pair`` as deterministic closures for finite-difference
    checks: text masking from seed 7, graph masking from the first seed in 0-999
    that masks a unit, and a transport plan solved once here and then frozen."""
    with no_grad():
        for graph_seed in range(1000):
            if loss_graph_reconstruction(model, pair, random.Random(graph_seed)).item() > 0:
                break
        else:
            raise Graph2TextError("no masking seed produced a non-empty corruption")
        graph_vectors, text_vectors = alignment_embeddings(model, pair)
        costs = cosine_cost(graph_vectors, text_vectors).data
        plan = ipot(costs, *uniform_marginals(*costs.shape), OTConfig())
    return {
        "l_text": lambda: loss_text_reconstruction(model, pair, random.Random(7)),
        "l_graph": lambda: loss_graph_reconstruction(model, pair, random.Random(graph_seed)),
        "l_ot": lambda: loss_ot_alignment(model, pair, frozen_plan=plan),
        "l_finetune": lambda: loss_finetune(model, pair),
    }
