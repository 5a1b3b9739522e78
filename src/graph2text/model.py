"""Encoder-decoder model assembly: parameter construction and forwarding."""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .autograd import ParamStore, Tensor, no_grad
from .data import GraphTextPair, LinearizedGraph, linearize
from .decoder import BeamConfig, DecoderConfig, decode_train, generate
from .encoder import (
    AGG_WEIGHT_NAMES,
    ATTENTION_WEIGHTS,
    VARIANT_JOINT,
    VARIANT_REL,
    VARIANT_SEQ,
    EncoderConfig,
    EncoderInput,
    encode,
)
from .vocab import EOS_ID, SEP_ID, Vocabulary


def _has_type_of(value, default) -> bool:
    """True when ``value`` has the type of ``default``: a float accepts an
    int, a bool is never a number, and a tuple matches element by element."""
    if isinstance(default, tuple):
        return (
            isinstance(value, tuple)
            and len(value) == len(default)
            and all(_has_type_of(v, d) for v, d in zip(value, default))
        )
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


@dataclass
class ModelSettings:
    """The eight flat settings that define the encoder-decoder.

    Run configs and checkpoint manifests store these keys; ``configs`` and
    ``of`` translate between them and the encoder/decoder configs. Every
    field (a subclass's too) must have its default's type and pass those
    configs' checks, or construction raises ``ValueError`` naming the field.
    """

    variant: str = VARIANT_JOINT
    d_model: int = 64
    encoder_layers: int = 2
    decoder_layers: int = 2
    num_heads: int = 4
    d_ff: int = 128
    max_input_len: int = 600
    max_output_len: int = 64

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type_of(value, f.default):
                raise ValueError(
                    f"{f.name} must have the type of its default {f.default!r}, got {value!r}"
                )
        self.configs()  # the encoder and decoder configs check the ranges

    def configs(self) -> tuple[EncoderConfig, DecoderConfig]:
        enc = EncoderConfig(
            num_layers=self.encoder_layers, num_heads=self.num_heads, d_model=self.d_model,
            d_ff=self.d_ff, max_input_len=self.max_input_len, variant=self.variant,
        )
        dec = DecoderConfig(
            num_layers=self.decoder_layers, num_heads=self.num_heads, d_model=self.d_model,
            d_ff=self.d_ff, max_output_len=self.max_output_len,
        )
        return enc, dec

    @classmethod
    def of(cls, model: Seq2SeqModel) -> ModelSettings:
        enc, dec = model.encoder_config, model.decoder_config
        return cls(
            variant=enc.variant, d_model=enc.d_model, encoder_layers=enc.num_layers,
            decoder_layers=dec.num_layers, num_heads=enc.num_heads, d_ff=enc.d_ff,
            max_input_len=enc.max_input_len, max_output_len=dec.max_output_len,
        )


@dataclass
class Seq2SeqModel:
    """Vocabulary, configs, and one parameter store for the whole network.

    The token embedding table is shared by the encoder input, decoder input,
    and the output head.
    """

    vocab: Vocabulary
    encoder_config: EncoderConfig
    decoder_config: DecoderConfig
    store: ParamStore

    def encode(self, inp: EncoderInput) -> Tensor:
        return encode(inp, self.encoder_config, self.store)

    def decode_train(self, target_ids, encoder_states, encoder_padding=None):
        return decode_train(
            target_ids, encoder_states, self.store, self.decoder_config, encoder_padding
        )

    def generate(self, inp: EncoderInput, beam: BeamConfig) -> list[int]:
        with no_grad():  # nothing backpropagates through decoding
            states = self.encode(inp)
        return generate(states, self.store, self.decoder_config, beam, inp.padding)

    def encoder_input(self, lin: LinearizedGraph, text_tokens=None) -> EncoderInput:
        """Ids for ``graph [<SEP> text]`` with the graph's unit position maps."""
        ids = self.vocab.encode_tokens(lin.tokens)
        if text_tokens is not None:
            ids = ids + [SEP_ID] + self.vocab.encode_tokens(text_tokens)
        return EncoderInput(
            ids=tuple(ids),
            graph_len=lin.m,
            entity_positions=lin.entity_positions,
            relation_positions=lin.relation_positions,
        )

    def target_ids(self, text_tokens) -> np.ndarray:
        """Decoder targets: the text followed by the end-of-sequence marker."""
        return np.asarray(self.vocab.encode_tokens(text_tokens) + [EOS_ID], dtype=np.int64)

    def generate_text(self, pair_or_graph, beam: BeamConfig) -> list[str]:
        graph = pair_or_graph.graph if isinstance(pair_or_graph, GraphTextPair) else pair_or_graph
        ids = self.generate(self.encoder_input(linearize(graph)), beam)
        return self.vocab.decode_ids(ids)


def parameter_shapes(encoder_config: EncoderConfig, decoder_config: DecoderConfig, vocab_size: int):
    """Yield ``(name, shape)`` for every parameter of the model in creation
    order: the one place that says which parameters a model has. It is lazy,
    so a reader stops where a checkpoint's list ends, however many layers the
    settings claim. Each (d_model, d_model) attention matrix packs the
    per-head (d_model, d_k) blocks side by side."""
    enc, dec = encoder_config, decoder_config
    d = enc.d_model

    def norm(prefix):
        return [(f"{prefix}.g", (d,)), (f"{prefix}.b", (d,))]

    def attention(prefix, names=ATTENTION_WEIGHTS):
        return [(f"{prefix}.{n}", (d, d)) for n in names]

    def ffn(prefix, d_ff):
        return [(f"{prefix}.w1", (d, d_ff)), (f"{prefix}.b1", (d_ff,)),
                (f"{prefix}.w2", (d_ff, d)), (f"{prefix}.b2", (d,))]

    yield "tok_emb", (vocab_size, d)
    yield "enc.pos_emb", (enc.max_input_len, d)
    for layer in range(enc.num_layers):
        p = f"enc.{layer}"
        yield from norm(f"{p}.ln1") + attention(f"{p}.attn")
        if enc.variant != VARIANT_SEQ:
            yield from attention(f"{p}.agg", AGG_WEIGHT_NAMES)
        yield from norm(f"{p}.ln2") + ffn(f"{p}.ffn", enc.d_ff)
    yield from norm("enc.final_ln")
    if enc.variant == VARIANT_REL:
        yield from [("struct.ent_emb", (vocab_size, d)), ("struct.rel_emb", (vocab_size, d))]
    yield "dec.pos_emb", (dec.max_output_len, d)
    for layer in range(dec.num_layers):
        p = f"dec.{layer}"
        yield from norm(f"{p}.ln1") + attention(f"{p}.self") + norm(f"{p}.ln2")
        yield from attention(f"{p}.cross") + norm(f"{p}.ln3") + ffn(f"{p}.ffn", dec.d_ff)
    yield from norm("dec.final_ln")


def parameter_count(encoder_config: EncoderConfig, decoder_config: DecoderConfig,
                    vocab_size: int) -> int:
    """The number of values in the parameter table, in closed form: every
    layer of a stack has the same shapes, so the table is a one-layer
    model's plus, per stack, its extra layers times one layer's size. It
    walks three one- or two-layer tables, whatever the layer counts."""

    def size(encoder_layers, decoder_layers):
        enc = dataclasses.replace(encoder_config, num_layers=encoder_layers)
        dec = dataclasses.replace(decoder_config, num_layers=decoder_layers)
        return sum(math.prod(shape) for _, shape in parameter_shapes(enc, dec, vocab_size))

    base = size(1, 1)
    return (base + (encoder_config.num_layers - 1) * (size(2, 1) - base)
            + (decoder_config.num_layers - 1) * (size(1, 2) - base))


def build_model(
    vocab: Vocabulary,
    encoder_config: EncoderConfig,
    decoder_config: DecoderConfig,
    seed: int = 0,
) -> Seq2SeqModel:
    """A model with freshly drawn parameters. A table larger than physical
    memory raises ``MemoryError`` before anything is allocated."""
    if encoder_config.d_model != decoder_config.d_model:
        raise ValueError("encoder and decoder must share d_model")
    nbytes = 8 * parameter_count(encoder_config, decoder_config, len(vocab))
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform does not say
        memory = None
    if memory is not None and nbytes > memory:
        raise MemoryError(
            f"Unable to allocate {nbytes} bytes for the model's parameters: "
            f"physical memory is {memory} bytes"
        )
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in parameter_shapes(encoder_config, decoder_config, len(vocab)):
        if name.endswith(".g"):  # layer-norm gains
            store.add(name, np.ones(shape))
        elif name.endswith((".b", ".b1", ".b2")):  # biases
            store.add(name, np.zeros(shape))
        else:  # weights and embeddings
            store.add(name, rng.normal(0.0, 0.02, size=shape))
    return Seq2SeqModel(vocab, encoder_config, decoder_config, store)
