"""Structure-aware graph-to-text generation at desk scale.

A numpy-backed library covering the full pipeline: knowledge-graph
linearization with position tracking, a reverse-mode differentiated tensor
core, a Transformer encoder with per-layer entity/relation aggregation, a
decoder with beam search, three pre-training objectives (text and graph
reconstruction plus transport-based embedding alignment), fine-tuning,
generation, and BLEU/ROUGE-L evaluation.
"""

from .data import (
    GraphTextPair,
    KnowledgeGraph,
    LinearizedGraph,
    find_entity_mentions,
    linearize,
    load_corpus,
    unit_sequence,
)
from .vocab import (
    MaskedGraph,
    MaskedText,
    Vocabulary,
    build_vocab,
    mask_graph,
    mask_text,
)
from .autograd import ParamStore, Tensor, backward, grad_check, no_grad
from .encoder import EncoderConfig, EncoderInput, encode
from .decoder import BeamConfig, DecoderConfig, beam_search, decode_train, generate
from .model import Seq2SeqModel, build_model
from .objectives import (
    LossBundle,
    OTConfig,
    TransportPlan,
    combined_pretrain_loss,
    ipot,
    loss_finetune,
    loss_graph_reconstruction,
    loss_ot_alignment,
    loss_text_reconstruction,
    uniform_marginals,
)
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    load_checkpoint,
    lr_at,
    read_checkpoint,
    save_checkpoint,
    train,
)
from .metrics import EvalReport, corpus_bleu, corpus_rouge_l, evaluate_corpus, lcs_length, rouge_l

__version__ = "0.1.0"
