"""Span tracing of graph2text from outside the package.

Each layer is a public function, wrapped where its caller looks the name up
(``graph2text.training.backward`` is the ``backward`` that ``train`` calls).
Nothing under ``src/`` changes. A span records its name, start, end, parent
span and the operation (optimizer step or sentence) it belongs to; a layer's
self time is its span time minus the time of its child spans. Spans stay in
memory until ``write_spans``.

A target that no longer exists, or is no longer callable, leaves its layer
absent instead of failing the run; wrappers pass any arguments through, so a
changed signature is tolerated as well. A counter hook that cannot read a
changed return value turns its counter absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter

# (layer, targets): a target is "module:attribute" or "module:Class.method"
# inside the graph2text package, named where the caller looks it up.
LAYERS = (
    ("training.train", ("training:train",)),
    ("model.generate", ("model:Seq2SeqModel.generate",)),
    ("data.load_corpus", ("data:load_corpus",)),
    ("data.linearize", ("data:linearize", "objectives:linearize", "model:linearize")),
    ("model.encoder_input", ("model:Seq2SeqModel.encoder_input",)),
    ("vocab.mask_text", ("objectives:mask_text",)),
    ("vocab.mask_graph", ("objectives:mask_graph",)),
    ("encoder.encode", ("model:encode",)),
    ("encoder.pooling_matrices", ("encoder:pooling_matrices",)),
    ("encoder.scatter_matrix", ("encoder:scatter_matrix",)),
    ("decoder.decode_train", ("model:decode_train",)),
    ("decoder.generate", ("model:generate",)),
    ("decoder.beam_search", ("decoder:beam_search",)),
    ("decoder.lm_logits", ("decoder:lm_logits", "objectives:lm_logits")),
    ("objectives.combined_pretrain_loss", ("training:combined_pretrain_loss",)),
    ("objectives.loss_text_reconstruction", ("objectives:loss_text_reconstruction",)),
    ("objectives.loss_graph_reconstruction", ("objectives:loss_graph_reconstruction",)),
    ("objectives.loss_ot_alignment", ("objectives:loss_ot_alignment",)),
    ("objectives.alignment_embeddings", ("objectives:alignment_embeddings",)),
    ("objectives.ipot", ("objectives:ipot",)),
    ("objectives.loss_finetune", ("training:loss_finetune",)),
    ("autograd.multihead_attention_op", ("encoder:multihead_attention_op",)),
    ("autograd.relation_biased_attention_op", ("encoder:relation_biased_attention_op",)),
    ("autograd.ffn_op", ("encoder:ffn_op",)),
    ("autograd.layer_norm", ("encoder:layer_norm", "decoder:layer_norm")),
    ("autograd.cross_entropy", ("objectives:cross_entropy",)),
    ("autograd.backward", ("training:backward",)),
    ("training.clip_gradients", ("training:clip_gradients",)),
    ("training.adam_step", ("training:adam_step",)),
    ("training.save_checkpoint", ("training:save_checkpoint",)),
    ("metrics.evaluate_corpus", ("metrics:evaluate_corpus",)),
)

# The step function handed to beam_search; wrapped per call, not patched.
STEP_LAYER = "decoder.step"

# counter -> (how the reported value is formed from its samples, unit)
COUNTERS = {
    "decoder.step.prefix_tokens": ("sum per op", "tokens/op"),
    "objectives.ipot.marginal_violation_max": ("max", "mass"),
    "training.clip_fired_share": ("mean", "ratio"),
}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(f"graph2text.{module_name}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


@contextlib.contextmanager
def step_clock(stamps: list):
    """Append ``perf_counter()`` to ``stamps`` as each optimizer step ends,
    that is after each ``adam_step`` that ``train`` makes. Without that
    function nothing is stamped and the caller must cope."""
    try:
        owner, attr, original = _resolve("training:adam_step")
    except (ImportError, AttributeError):
        yield
        return

    @functools.wraps(original)
    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.append(perf_counter())
        return result

    setattr(owner, attr, stamped)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Installs span wrappers, collects spans and folds them into per-layer
    calls and self time."""

    def __init__(self):
        self.op_id = 0
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in COUNTERS}
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS:
            found = 0
            for target in targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    self.absent.setdefault(layer, f"{target}: {exc}")
                    continue
                if not callable(original):
                    self.absent.setdefault(layer, f"{target} is not callable")
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original, _HOOKS.get(layer)))
                found += 1
            if found:
                self.absent.pop(layer, None)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def wrap(self, layer: str, fn, hook=None):
        tracer = self
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        before, after = (hook.before, hook.after) if hook else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = tracer._guarded(hook, before, (args, kwargs), args, kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (layer, start, end, parent, tracer.op_id)
                tracer.calls[layer] += 1
                tracer.self_s[layer] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                tracer._guarded(hook, after, None, result, args, kwargs)
            return result

        return traced

    def _guarded(self, hook, fn, fallback, *args):
        """Run a hook; if it cannot read a changed argument list or return
        value, mark its counter absent and carry on with ``fallback``."""
        if hook.counter in self.absent:
            return fallback
        try:
            return fn(self, *args)
        except Exception as exc:
            self.absent[hook.counter] = f"hook failed: {exc!r}"
            return fallback

    # -- results ------------------------------------------------------------

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent == -1)

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Calls and self milliseconds per operation for every layer, and
        every counter; layers and counters that are absent read 0."""
        metrics = {}
        layers = [layer for layer, _ in LAYERS] + [STEP_LAYER]
        for layer in layers:
            metrics[f"{layer}.calls"] = (self.calls.get(layer, 0) / ops, "count/op")
            metrics[f"{layer}.self_ms"] = (1e3 * self.self_s.get(layer, 0.0) / ops, "ms/op")
        for name, (kind, unit) in COUNTERS.items():
            values = self.samples[name]
            if not values:
                value = 0.0
            elif kind == "sum per op":
                value = sum(values) / ops
            elif kind == "max":
                value = max(values)
            else:
                value = sum(values) / len(values)
            metrics[name] = (value, unit)
        return metrics

    def write_spans(self, path) -> None:
        """One JSON array per span: [name, start_us, end_us, parent, op], with
        times from the first span's start and parent as a 0-based line index
        (-1 for a root)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, op in self.spans:
                start_us = round(1e6 * (start - origin), 3)
                end_us = round(1e6 * (end - origin), 3)
                fh.write(json.dumps([layer, start_us, end_us, parent, op]) + "\n")


class _Hook:
    """Optional argument rewrite before a call and reading of its result
    after it; ``counter`` names what turns absent if either fails."""

    def __init__(self, counter, before=None, after=None):
        self.counter, self.before, self.after = counter, before, after


def _wrap_step_function(tracer, args, kwargs):
    """beam_search(step_logprobs, beam): trace each call of the step function
    and count the decoder input positions it is fed (<BOS> + prefix)."""
    step = args[0]
    if not callable(step):
        raise TypeError("first argument of beam_search is not a step function")
    traced_step = tracer.wrap(STEP_LAYER, step)
    counter = "decoder.step.prefix_tokens"

    def counted(prefix, *rest, **kw):
        if counter not in tracer.absent:
            try:
                tracer.samples[counter].append(len(prefix) + 1)
            except TypeError as exc:
                tracer.absent[counter] = f"prefix has no length: {exc}"
        return traced_step(prefix, *rest, **kw)

    return (counted, *args[1:]), kwargs


def _ipot_violation(tracer, plan, args, kwargs):
    tracer.samples["objectives.ipot.marginal_violation_max"].append(max(plan.marginal_violation()))


def _clip_fired(tracer, norm, args, kwargs):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    tracer.samples["training.clip_fired_share"].append(float(float(norm) > max_norm))


def _next_step(tracer, result, args, kwargs):
    """An optimizer step ends with its Adam update: later spans belong to
    the next step."""
    tracer.op_id += 1


_HOOKS = {
    "decoder.beam_search": _Hook("decoder.step.prefix_tokens", before=_wrap_step_function),
    "objectives.ipot": _Hook("objectives.ipot.marginal_violation_max", after=_ipot_violation),
    "training.clip_gradients": _Hook("training.clip_fired_share", after=_clip_fired),
    "training.adam_step": _Hook("op_id", after=_next_step),
}
