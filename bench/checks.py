"""Correctness checks the benchmark runs outside its timed region.

- ``gradient_probe``: central finite differences of a few sampled parameter
  elements on one batch, against the gradient that ``backward`` gives.
- ``reference_generate``: beam search with a full-recompute step built on
  ``decode_train`` + ``log_softmax``. It keeps its own copy of the search so
  that a faster ``generate`` (cached or batched decoding) is held to the ids
  of the plain path: the score of a hypothesis is its summed token
  log-probabilities over length**length_penalty, ties break toward lower
  token ids, and with more than one beam the greedy rollout is a candidate.
"""

from __future__ import annotations

import math
import random

import numpy as np

from graph2text import autograd, data, objectives
from graph2text.vocab import EOS_ID

FD_EPS = 1e-5
FD_TOL = 1e-4


def _batch_loss(model, batch, task, seed, plans):
    """Mean loss over ``batch``, deterministic across calls: masks come from
    fresh seeded generators and transport plans are held fixed."""
    total = None
    for k, pair in enumerate(batch):
        if task == "pretrain":
            rng = random.Random(seed * 1_000 + k)
            loss = autograd.add(
                autograd.add(
                    objectives.loss_text_reconstruction(model, pair, rng),
                    objectives.loss_graph_reconstruction(model, pair, rng),
                ),
                objectives.loss_ot_alignment(model, pair, frozen_plan=plans[k]),
            )
        else:
            loss = objectives.loss_finetune(model, pair)
        total = loss if total is None else autograd.add(total, loss)
    return autograd.scale(total, 1.0 / len(batch))


def _frozen_plans(model, batch, task):
    if task != "pretrain":
        return None
    plans = []
    with autograd.no_grad():
        for pair in batch:
            graph_vectors, text_vectors = objectives.alignment_embeddings(model, pair)
            costs = autograd.cosine_cost(graph_vectors, text_vectors).data
            plans.append(objectives.ipot(costs, *objectives.uniform_marginals(*costs.shape)))
    return plans


def gradient_probe(model, batch, task, seed, elements=4):
    """Return (element, analytic, numeric, error) for each probed element;
    the error is |a - n| / max(|a|, |n|, 1), as in ``grad_check``."""
    plans = _frozen_plans(model, batch, task)
    store = model.store
    store.zero_grads()
    autograd.backward(_batch_loss(model, batch, task, seed, plans))
    rng = np.random.default_rng(seed)
    names = store.names()
    probes = []
    for name in rng.choice(names, size=min(elements, len(names)), replace=False):
        tensor = store[name]
        grad = tensor.grad.reshape(-1)
        live = np.flatnonzero(grad)
        k = int(rng.choice(live)) if live.size else int(rng.integers(grad.size))
        analytic = float(grad[k])
        flat = tensor.data.reshape(-1)
        original = flat[k]
        with autograd.no_grad():
            flat[k] = original + FD_EPS
            plus = _batch_loss(model, batch, task, seed, plans).item()
            flat[k] = original - FD_EPS
            minus = _batch_loss(model, batch, task, seed, plans).item()
            flat[k] = original
        numeric = (plus - minus) / (2 * FD_EPS)
        error = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        probes.append((f"{name}[{k}]", analytic, numeric, error))
    store.zero_grads()
    return probes


def finite_records(records) -> list[bool]:
    """Per training step: are all logged losses finite?"""
    keys = ("l_text", "l_graph", "l_ot", "total")
    return [all(math.isfinite(record[key]) for key in keys) for record in records]


def finite_params(model) -> bool:
    return all(np.isfinite(tensor.data).all() for _, tensor in model.store.items())


def _reference_search(step, beam_size, length_penalty, max_len):
    def penalized(total, length):
        return total / (length**length_penalty) if length > 0 else total

    live = [(0.0, [])]
    finished = []
    for _ in range(max_len):
        candidates = []
        for total, prefix in live:
            logprobs = step(prefix)
            for token in np.argsort(-logprobs, kind="stable")[:beam_size]:
                seq = prefix + [int(token)]
                extended = total + float(logprobs[token])
                candidates.append((penalized(extended, len(seq)), extended, seq))
        candidates.sort(key=lambda c: (-c[0], c[2]))
        live = []
        for score, total, seq in candidates:
            if seq[-1] == EOS_ID:
                finished.append((score, seq))
            elif len(live) < beam_size:
                live.append((total, seq))
            if len(live) >= beam_size and len(finished) >= beam_size:
                break
        if not live:
            break
    finished.extend((penalized(total, len(seq)), seq) for total, seq in live if seq)
    if beam_size > 1:
        prefix, total = [], 0.0
        for _ in range(max_len):
            logprobs = step(prefix)
            token = int(np.argmax(logprobs))
            total += float(logprobs[token])
            prefix.append(token)
            if token == EOS_ID:
                break
        finished.append((penalized(total, len(prefix)), prefix))
    finished.sort(key=lambda c: (-c[0], len(c[1]), c[1]))
    return [t for t in finished[0][1] if t != EOS_ID]


def reference_generate(model, graph, beam) -> list[int]:
    """Ids that full-recompute beam search decodes for ``graph``."""
    inp = model.encoder_input(data.linearize(graph))
    max_len = min(beam.max_len, model.decoder_config.max_output_len)
    with autograd.no_grad():
        states = model.encode(inp)

        def step(prefix):
            # decode_train reads <BOS> + targets[:-1]; row len(prefix) of its
            # logits predicts the token after the prefix
            logits, _ = model.decode_train(np.asarray(prefix + [EOS_ID]), states, inp.padding)
            last = autograd.slice_view(logits, slice(len(prefix), len(prefix) + 1))
            return autograd.log_softmax(last, axis=-1).data[0]

        return _reference_search(step, beam.beam_size, beam.length_penalty, max_len)
