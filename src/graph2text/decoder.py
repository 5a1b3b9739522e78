"""Transformer decoder with causal self-attention, cross-attention over the
encoder states, a tied language-model head, and beam-search generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .autograd import (
    ParamStore,
    Tensor,
    _attention_forward,
    _ffn_forward,
    _layer_norm_forward,
    _log_softmax,
    _split_heads,
    add,
    embedding_lookup,
    layer_norm,
    matmul,
    slice_view,
    transpose,
)
from .encoder import (
    ATTENTION_WEIGHTS,
    FFN_WEIGHTS,
    key_mask,
    require_sizes,
    sublayer_params,
)
from .errors import LengthError
from .vocab import BOS_ID, EOS_ID


@dataclass(frozen=True)
class DecoderConfig:
    num_layers: int
    num_heads: int
    d_model: int
    d_ff: int
    max_output_len: int = 64

    def __post_init__(self):
        require_sizes(self, ("num_layers", "num_heads", "d_model", "d_ff", "max_output_len"))
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 5
    length_penalty: float = 1.0
    max_len: int = 64

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not self.length_penalty >= 0:  # NaN too
            raise ValueError("length_penalty must be >= 0")
        require_sizes(self, ("max_len",))


def _sublayers(params, layer: int) -> tuple[list, list, list]:
    """Operands of decoder layer ``layer``'s self-attention, cross-attention
    and feed-forward sublayers, from a ``ParamStore`` or a dict of arrays."""
    p = f"dec.{layer}"
    return (
        sublayer_params(params, f"{p}.ln1", f"{p}.self", ATTENTION_WEIGHTS),
        sublayer_params(params, f"{p}.ln2", f"{p}.cross", ATTENTION_WEIGHTS),
        sublayer_params(params, f"{p}.ln3", f"{p}.ffn", FFN_WEIGHTS),
    )


def lm_logits(states: Tensor, store: ParamStore) -> Tensor:
    """Project onto the vocabulary with the tied input embedding table."""
    return matmul(states, transpose(store["tok_emb"]))


def teacher_forced_states(
    target_ids,
    encoder_states: Tensor,
    store: ParamStore,
    cfg: DecoderConfig,
    encoder_padding: np.ndarray | None = None,
) -> Tensor:
    """Final decoder states of a teacher-forced pass over the targets.

    The decoder reads <BOS> followed by the targets shifted right; row i of
    the result is the contextual vector of the position that predicts
    target i.
    """
    target_ids = np.asarray(target_ids, dtype=np.int64)
    n = len(target_ids)
    if n > cfg.max_output_len:
        raise LengthError(f"target length {n} exceeds max_output_len {cfg.max_output_len}")
    x = add(
        embedding_lookup(store["tok_emb"], np.concatenate([[BOS_ID], target_ids[:-1]])),
        slice_view(store["dec.pos_emb"], slice(0, n)),
    )
    causal = np.triu(np.ones((n, n), dtype=bool), k=1)[None]
    blocked = key_mask(encoder_padding)
    # the sublayer ops are looked up on the encoder module, so that a wrapper
    # installed there (as the bench trace does) sees the decoder's calls too
    for layer in range(cfg.num_layers):
        self_attn, cross, ffn = _sublayers(store, layer)
        x = encoder.multihead_attention_op(x, None, *self_attn, cfg.num_heads, causal)
        x = encoder.multihead_attention_op(x, encoder_states, *cross, cfg.num_heads, blocked)
        x = encoder.ffn_op(x, *ffn)
    return layer_norm(x, store["dec.final_ln.g"], store["dec.final_ln.b"])


def decode_train(
    target_ids,
    encoder_states: Tensor,
    store: ParamStore,
    cfg: DecoderConfig,
    encoder_padding: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Teacher-forced pass over the target sequence; returns (logits, states).

    Position i of the logits predicts target i, and row i of the states is
    the contextual vector for that same position (see ``teacher_forced_states``).
    """
    states = teacher_forced_states(target_ids, encoder_states, store, cfg, encoder_padding)
    return lm_logits(states, store), states


def _top_tokens(logprobs: np.ndarray, k: int) -> list[tuple[int, int]]:
    """(row, token) for the ``k`` most likely tokens of every row, ties toward
    the lower id: the head of a stable argsort of -logprobs per row, found by
    a partition instead of a sort of the whole vocabulary."""
    k = min(k, logprobs.shape[1])
    kth = -np.partition(-logprobs, k - 1, axis=1)[:, k - 1 : k]
    rows, tokens = np.nonzero(logprobs >= kth)  # ids ascend within a row
    order = np.lexsort((tokens, -logprobs[rows, tokens], rows))
    taken = [0] * len(logprobs)
    picked = []
    for row, token in zip(rows[order].tolist(), tokens[order].tolist()):
        if taken[row] < k:
            taken[row] += 1
            picked.append((row, token))
    return picked


def beam_search(step_logprobs, beam: BeamConfig) -> list[int]:
    """Generic beam search over a batched step function.

    ``step_logprobs(parent_rows, last_tokens)`` extends a block of prefixes by
    one token each and returns an ``(n, V)`` array: row i of the result is
    the log probability vector of the token after prefix i, where prefix i is
    row ``parent_rows[i]`` of the previous call's block followed by
    ``last_tokens[i]``. The first call extends a single empty root row with
    <BOS>; each later call appends one generated token, so every row of
    a call has the same length. All live hypotheses, and for beams above one
    the greedy rollout as one extra row, advance in one call per step.

    A hypothesis ends when it emits ``EOS_ID`` or reaches ``max_len`` tokens;
    its score is the sum of token log probabilities divided by
    length**length_penalty, the length counting every emitted token including
    the end marker. Token-level ties break toward the lower id. The greedy
    rollout is always scored as a candidate, so the result never ranks below
    greedy.
    """

    def penalized(logprob_sum: float, length: int) -> float:
        return logprob_sum / (length ** beam.length_penalty)

    # (logprob_sum, prefix, row of the last block holding its next-token log probs)
    live: list[tuple[float, list[int], int]] = [(0.0, [], 0)]
    greedy: tuple[float, list[int], int] | None = (0.0, [], 0) if beam.beam_size > 1 else None
    greedy_result: tuple[float, list[int]] | None = None  # set when the rollout ends
    finished: list[tuple[float, list[int]]] = []
    parents, tokens = [0], [BOS_ID]
    for _ in range(beam.max_len):
        block = step_logprobs(np.asarray(parents), np.asarray(tokens))
        candidates: list[tuple[float, float, list[int], int]] = []
        if live:
            live_lp = block[[row for _, _, row in live]]
            for k, token in _top_tokens(live_lp, beam.beam_size):
                logprob_sum, prefix, row = live[k]
                total = logprob_sum + float(live_lp[k, token])
                seq = prefix + [token]
                candidates.append((penalized(total, len(seq)), total, seq, row))
        candidates.sort(key=lambda c: (-c[0], c[2]))
        live = []
        for score, total, seq, row in candidates:
            if seq[-1] == EOS_ID:
                finished.append((score, seq))
            elif len(live) < beam.beam_size:
                live.append((total, seq, row))
            if len(live) >= beam.beam_size and len(finished) >= beam.beam_size:
                break
        if greedy is not None:
            total, prefix, row = greedy
            lp = block[row]
            token = int(np.argmax(lp))  # np.argmax takes the first (lowest id) maximum
            total += float(lp[token])
            prefix = prefix + [token]
            greedy = (total, prefix, row)
            if token == EOS_ID or len(prefix) == beam.max_len:
                greedy_result = (penalized(total, len(prefix)), prefix)
                greedy = None
        extended = live + ([greedy] if greedy is not None else [])
        if not extended:
            break
        parents = [row for _, _, row in extended]
        tokens = [prefix[-1] for _, prefix, _ in extended]
        live = [(total, seq, k) for k, (total, seq, _) in enumerate(live)]
        if greedy is not None:
            greedy = (greedy[0], greedy[1], len(live))
    finished.extend((penalized(total, len(seq)), seq) for total, seq, _ in live)
    if beam.beam_size > 1:
        finished.append(greedy_result)
    finished.sort(key=lambda c: (-c[0], len(c[1]), c[1]))
    return finished[0][1]


def generate(
    encoder_states: Tensor,
    store: ParamStore,
    cfg: DecoderConfig,
    beam: BeamConfig,
    encoder_padding: np.ndarray | None = None,
) -> list[int]:
    """Beam-search decode from <BOS>; returns generated ids without markers.

    Decoding is incremental and runs the same sublayer forward helpers as
    the training ops. The encoder states pass through each layer's
    cross-attention K/V projections once. Each layer caches the
    self-attention K/V of every row as (rows, heads, t, d_k); a step gathers
    the cache by parent row and the self-attention helper appends the new
    position, so the decoder runs only for the newest position of every
    row, all rows as one block.
    """
    w = {name: store[name].data for name in store.names() if name.startswith("dec.")}
    tok_emb = store["tok_emb"].data
    heads = cfg.num_heads
    memory = encoder_states.data
    blocked = key_mask(encoder_padding)
    layers = [_sublayers(w, layer) for layer in range(cfg.num_layers)]
    cross_kv = [
        (_split_heads(memory @ w[f"dec.{layer}.cross.wk"], heads),
         _split_heads(memory @ w[f"dec.{layer}.cross.wv"], heads))
        for layer in range(cfg.num_layers)
    ]
    empty = np.zeros((1, heads, 0, cfg.d_model // heads))
    self_kv = [(empty, empty)] * cfg.num_layers

    def step_logprobs(parent_rows: np.ndarray, last_tokens: np.ndarray) -> np.ndarray:
        t = self_kv[0][0].shape[2]
        x = tok_emb[last_tokens] + w["dec.pos_emb"][t]
        for layer, (self_attn, cross, ffn) in enumerate(layers):
            # each row is the newest position of its own prefix: (rows, 1, d)
            cached_keys, cached_values = self_kv[layer]
            cache = (cached_keys[parent_rows], cached_values[parent_rows])
            x, keys, values, _ = _attention_forward(x[:, None, :], *self_attn, heads, cache=cache)
            self_kv[layer] = (keys, values)
            # rows take the place of query positions: (heads, rows, d_k)
            x = _attention_forward(x[:, 0], *cross, heads, kv=cross_kv[layer], blocked=blocked)[0]
            x = _ffn_forward(x, *ffn)[0]
        states = _layer_norm_forward(x, w["dec.final_ln.g"], w["dec.final_ln.b"])[0]
        return _log_softmax(states @ tok_emb.T, axis=-1)

    effective = BeamConfig(
        beam_size=beam.beam_size,
        length_penalty=beam.length_penalty,
        max_len=min(beam.max_len, cfg.max_output_len),
    )
    sequence = beam_search(step_logprobs, effective)
    return [t for t in sequence if t != EOS_ID]
