"""Structure-aware Transformer encoder.

Each layer runs vanilla multi-head self-attention, then (for the "joint"
variant) an aggregation sublayer that pools token states into entity/relation
vectors, attends among entities with relation-biased attention, and adds the
result back onto entity token positions, then the feed-forward sublayer.
Each sublayer, with its residual and (attention, feed-forward) its pre-layer
norm, is a single fused autograd node. Variant "seq" skips the aggregation
sublayer; variant "rel" pools rows of learned entity/relation embedding
tables through the same sublayer instead of token states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autograd import (
    ParamStore,
    Tensor,
    add,
    embedding_lookup,
    ffn_op,
    layer_norm,
    multihead_attention_op,
    relation_biased_attention_op,
    slice_view,
)
from .errors import EmptyPoolError, LengthError

VARIANT_JOINT = "joint"
VARIANT_SEQ = "seq"
VARIANT_REL = "rel"
VARIANTS = (VARIANT_JOINT, VARIANT_SEQ, VARIANT_REL)


def require_sizes(cfg, names) -> None:
    """Raise ``ValueError`` naming the first of the ``names`` fields of
    ``cfg`` that is below 1."""
    for name in names:
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(cfg, name)}")


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int
    num_heads: int
    d_model: int
    d_ff: int
    max_input_len: int = 600
    variant: str = VARIANT_JOINT

    def __post_init__(self):
        require_sizes(self, ("num_layers", "num_heads", "d_model", "d_ff", "max_input_len"))
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass(frozen=True)
class EncoderInput:
    """Token ids with the graph span and its unit position maps.

    ``ids[:graph_len]`` are the linearized-graph tokens; position maps are
    1-based and may only reference the graph span. ``padding`` marks padded
    positions (True = pad) and may be None when nothing is padded.
    """

    ids: tuple[int, ...]
    graph_len: int
    entity_positions: dict[int, frozenset[int]]
    relation_positions: dict[tuple[int, int], frozenset[int]]
    padding: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))
        if not 0 < self.graph_len <= len(self.ids):
            raise ValueError(f"graph_len {self.graph_len} outside [1, {len(self.ids)}]")
        nv = len(self.entity_positions)
        if sorted(self.entity_positions) != list(range(1, nv + 1)):
            raise ValueError("entity position map must have dense keys 1..|V|")
        for key, positions in list(self.entity_positions.items()) + list(
            self.relation_positions.items()
        ):
            for p in positions:
                if not 1 <= p <= self.graph_len:
                    raise ValueError(f"unit {key} position {p} outside the graph span")
        if self.padding is not None and len(self.padding) != len(self.ids):
            raise ValueError("padding mask length differs from ids")

    @property
    def num_entities(self) -> int:
        return len(self.entity_positions)

    @cached_property
    def pools(self) -> tuple:
        """``pooling_matrices(self)``, built once on first use."""
        return pooling_matrices(self)


def key_mask(padding) -> np.ndarray | None:
    """The attention ``blocked`` mask of keys with ``padding`` (True = pad)."""
    return None if padding is None else np.asarray(padding, dtype=bool).reshape(1, 1, -1)


ATTENTION_WEIGHTS = ("wq", "wk", "wv", "wo")
FFN_WEIGHTS = ("w1", "b1", "w2", "b2")
AGG_WEIGHT_NAMES = ("wqs", "wks", "wvs", "wkr", "wvr")


def sublayer_params(params, norm: str, block: str, names) -> list:
    """A pre-LN sublayer's operands in the order its fused op takes them:
    the gain and bias of layer norm ``norm``, then the ``names`` weights of
    ``block``. ``params`` is a ``ParamStore`` or a dict of arrays."""
    return [params[f"{norm}.g"], params[f"{norm}.b"]] + [params[f"{block}.{n}"] for n in names]


def pooling_matrices(inp: EncoderInput) -> tuple:
    """The (|V|+|E|, len) mean-pooling matrix P of the units, one row per unit
    in ``unit_sequence`` order (entities 1..|V|, then relations in ascending
    (i, j)), their edges (i - 1, j - 1) as (rows, cols) index arrays and the
    entity scatter S: the ``pools`` of ``relation_biased_attention_op``.

    A unit's row carries weight 1/|positions| at each of its positions, so a
    matmul against the hidden states performs the mean pooling (a
    single-position unit copies its row exactly).
    """
    nv = inp.num_entities
    relations = sorted(inp.relation_positions)
    units = [inp.entity_positions.get(i) for i in range(1, nv + 1)]
    units += [inp.relation_positions[key] for key in relations]
    pool = np.zeros((len(units), len(inp.ids)))
    for row, positions in enumerate(units):
        if not positions:
            unit = f"entity {row + 1}" if row < nv else f"relation {relations[row - nv]}"
            raise EmptyPoolError(f"{unit} has no positions to pool")
        weight = 1.0 / len(positions)
        for p in positions:
            pool[row, p - 1] = weight
    edges = tuple(np.array(relations, dtype=np.int64).reshape(-1, 2).T - 1)
    return pool, edges, scatter_matrix(pool, nv)


def scatter_matrix(pool: np.ndarray, num_entities: int) -> np.ndarray:
    """The (len, |V|) 0/1 matrix mapping entity vectors onto their token
    positions: where an entity's row of ``pool`` is nonzero."""
    return (pool[:num_entities] > 0).T.astype(np.float64, order="C")


def encode(inp: EncoderInput, cfg: EncoderConfig, store: ParamStore) -> Tensor:
    """Run the full encoder stack; returns the (len, d_model) final states."""
    length = len(inp.ids)
    if length > cfg.max_input_len:
        raise LengthError(f"input length {length} exceeds max_input_len {cfg.max_input_len}")
    ids = np.asarray(inp.ids, dtype=np.int64)
    x = add(embedding_lookup(store["tok_emb"], ids), slice_view(store["enc.pos_emb"], slice(0, length)))

    aggregate = cfg.variant != VARIANT_SEQ
    if cfg.variant == VARIANT_REL:
        # the units pool rows of the learned tables instead of token states
        table_rows = [embedding_lookup(store[n], ids) for n in ("struct.ent_emb", "struct.rel_emb")]

    blocked = key_mask(inp.padding)
    for layer in range(cfg.num_layers):
        p = f"enc.{layer}"
        h = multihead_attention_op(
            x, None, *sublayer_params(store, f"{p}.ln1", f"{p}.attn", ATTENTION_WEIGHTS),
            cfg.num_heads, blocked,
        )
        if aggregate:
            unit_rows = table_rows if cfg.variant == VARIANT_REL else (h, h)
            h = relation_biased_attention_op(
                h, *unit_rows, inp.pools, *(store[f"{p}.agg.{n}"] for n in AGG_WEIGHT_NAMES),
                cfg.num_heads,
            )
        x = ffn_op(h, *sublayer_params(store, f"{p}.ln2", f"{p}.ffn", FFN_WEIGHTS))
    return layer_norm(x, store["enc.final_ln.g"], store["enc.final_ln.b"])
