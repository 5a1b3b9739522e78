"""Command-line entry point: pretrain, finetune, generate, eval, gradcheck,
and linearize, wired over JSON run configs and checkpoint directories.

Exit codes: 0 success, 1 user/config error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .autograd import grad_check
from .data import linearize, load_corpus, unit_sequence
from .decoder import BeamConfig
from .errors import (
    CheckpointError,
    CorpusParseError,
    EmptyCorpus,
    EvalError,
    LengthError,
)
from .metrics import evaluate_corpus
from .model import ModelSettings, build_model
from .objectives import OTConfig, frozen_losses
from .synth import gradcheck_pair, toy_configs
from .training import TrainConfig, load_checkpoint, train
from .vocab import build_vocab

_USER_ERRORS = (
    CorpusParseError,
    EmptyCorpus,
    CheckpointError,
    EvalError,
    LengthError,
    MemoryError,  # a model that the run config sizes beyond memory
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
    ValueError,
)


@dataclass
class RunConfig(ModelSettings):
    """Flat union of model, optimizer, solver, and decoding settings."""

    learning_rate: float = 3e-5
    warmup_ratio: float = 0.1
    max_grad_norm: float = 1.0
    adam_eps: float = 1e-8
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    batch_size: int = 8
    epochs: int = 1
    seed: int = 13
    min_freq: int = 1
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    ot_beta: float = 1.0
    ot_inner_k: int = 1
    ot_outer_n: int = 10
    beam_size: int = 5
    length_penalty: float = 1.0
    checkpoint_every: int = 1

    def __post_init__(self):
        # every key is checked, whichever command reads the config
        super().__post_init__()
        self.train_config("pretrain")
        BeamConfig(self.beam_size, self.length_penalty, self.max_output_len)

    @classmethod
    def from_file(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"config {path} is not a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"config {path} has unknown keys: {sorted(unknown)}")
        if isinstance(raw.get("weights"), list):
            raw["weights"] = tuple(float(w) if type(w) is int else w for w in raw["weights"])
        return cls(**raw)

    def train_config(self, task: str) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate, warmup_ratio=self.warmup_ratio,
            max_grad_norm=self.max_grad_norm, adam_eps=self.adam_eps,
            adam_betas=(self.adam_beta1, self.adam_beta2), batch_size=self.batch_size,
            epochs=self.epochs, seed=self.seed, task=task, loss_weights=self.weights,
            ot_config=OTConfig(self.ot_beta, self.ot_inner_k, self.ot_outer_n),
            checkpoint_every=self.checkpoint_every,
        )

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["weights"] = list(d["weights"])
        return d


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--weights expects three comma-separated numbers, got {text!r}")
    return tuple(float(p) for p in parts)


def _validate_lengths(cfg: RunConfig, corpus, task: str) -> None:
    longest_input = 0
    longest_target = 0
    for pair in corpus:
        m = linearize(pair.graph).m
        # pretraining encodes graph <SEP> text, fine-tuning the graph alone
        longest_input = max(longest_input, m + 1 + pair.n if task == "pretrain" else m)
        longest_target = max(longest_target, pair.n + 1)
    if longest_input > cfg.max_input_len:
        raise LengthError(
            f"corpus needs max_input_len >= {longest_input}, configured {cfg.max_input_len}"
        )
    if longest_target > cfg.max_output_len:
        raise LengthError(
            f"corpus needs max_output_len >= {longest_target}, configured {cfg.max_output_len}"
        )


def _write_resolved_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.resolved.json", "w", encoding="utf-8") as fh:
        json.dump(cfg.as_dict(), fh, indent=1, sort_keys=True)


def cmd_train(args) -> int:
    """``pretrain``, or ``finetune`` from the checkpoint ``--init``: the
    subcommand names the task."""
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "weights", None) is not None:
        cfg.weights = _parse_weights(args.weights)
    train_cfg = cfg.train_config(args.command)
    corpus = load_corpus(args.corpus)
    if not corpus:
        raise EmptyCorpus(f"corpus {args.corpus} holds no pairs")
    _validate_lengths(cfg, corpus, args.command)
    if args.command == "finetune":
        model = load_checkpoint(args.init, cfg)
    else:
        vocab = build_vocab(corpus, min_freq=cfg.min_freq)
        model = build_model(vocab, *cfg.configs(), seed=cfg.seed)
    out_dir = Path(args.out)
    _write_resolved_config(cfg, out_dir)
    train(corpus, model, train_cfg, out_dir)
    return 0


def cmd_generate(args) -> int:
    cfg = RunConfig.from_file(args.config)  # only its beam settings: the model is the checkpoint's
    model = load_checkpoint(args.ckpt)
    corpus = load_corpus(args.input)
    beam = BeamConfig(
        beam_size=cfg.beam_size if args.beam is None else args.beam,
        length_penalty=cfg.length_penalty if args.length_penalty is None else args.length_penalty,
        max_len=model.decoder_config.max_output_len,
    )
    lines = [" ".join(model.generate_text(pair, beam)) for pair in corpus]
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return 0


def _read_token_lines(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines()]


def cmd_eval(args) -> int:
    hypotheses = _read_token_lines(args.hyp)
    references = _read_token_lines(args.ref)
    report = evaluate_corpus(hypotheses, references)
    print(json.dumps(
        {"bleu": report.bleu, "rouge_l": report.rouge_l, "num_examples": len(hypotheses)}
    ))
    return 0


def cmd_gradcheck(args) -> int:
    if not 0 < args.tol < math.inf:  # NaN too
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    if args.config is None:  # the toy model's sizes, not RunConfig's defaults
        configs = toy_configs()
    else:
        configs = RunConfig.from_file(args.config).configs()
    pair = gradcheck_pair()
    model = build_model(build_vocab([pair], min_freq=1), *configs, seed=args.seed or 0)
    all_ok = True
    for name, f in frozen_losses(model, pair).items():
        report = grad_check(f, model.store, tol=args.tol)
        status = "ok" if report.passed else "FAIL"
        print(f"{name}: max_rel_err={report.max_rel_err:.3e} worst={report.worst()} [{status}]")
        all_ok = all_ok and report.passed
    return 0 if all_ok else 2


def cmd_linearize(args) -> int:
    corpus = load_corpus(args.corpus)
    for k, pair in enumerate(corpus):
        lin = linearize(pair.graph)
        print(" ".join(lin.tokens))
        for kind, key in unit_sequence(pair.graph):
            if kind == "entity":
                surface = pair.graph.entities[key - 1]
                positions = sorted(lin.entity_positions[key])
                print(f"  e{key} {surface!r}: {positions}")
            else:
                surface = pair.graph.relations[key]
                positions = sorted(lin.relation_positions[key])
                print(f"  r{key} {surface!r}: {positions}")
        if k + 1 < len(corpus):
            print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graph2text",
        description="Structure-aware graph-to-text training, generation, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run the three pre-training tasks")
    p.add_argument("--config", default=None, help="JSON run config (defaults apply)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights", default=None, help="w_text,w_graph,w_ot override")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="fine-tune from a checkpoint")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", required=True)
    p.add_argument("--init", required=True, help="checkpoint directory to start from")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode texts for a corpus of graphs")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True, help="corpus file; text fields are ignored")
    p.add_argument("--config", default=None,
                   help="JSON run config; only beam_size and length_penalty are used")
    p.add_argument("--beam", type=int, default=None, help="overrides the config's beam_size")
    p.add_argument("--length-penalty", type=float, default=None,
                   help="overrides the config's length_penalty")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="BLEU and ROUGE-L of hypotheses vs references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every loss")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("linearize", help="print linearizations with position maps")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_linearize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
