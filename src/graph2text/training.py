"""Optimization loop: Adam with warmup/decay, gradient clipping, seeded
shuffling, JSONL step logs, and bitwise checkpoint round-trips."""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import ParamStore, backward, scale
from .encoder import require_sizes
from .errors import CheckpointError, EmptyCorpus, NumericError, UsageError
from .model import ModelSettings, Seq2SeqModel, parameter_shapes
from .objectives import OTConfig, combined_pretrain_loss, loss_finetune
from .vocab import Vocabulary

TASK_PRETRAIN = "pretrain"
TASK_FINETUNE = "finetune"

# parameter name fragments that may legitimately be absent from a checkpoint
# (structure weights when initializing a richer variant from a plainer one)
_OPTIONAL_PARAM_MARKERS = (".agg.", "struct.")


@dataclass
class TrainConfig:
    learning_rate: float = 3e-5
    warmup_ratio: float = 0.1
    max_grad_norm: float = 1.0
    adam_eps: float = 1e-8
    adam_betas: tuple[float, float] = (0.9, 0.999)
    batch_size: int = 8
    epochs: int = 1
    seed: int = 13
    task: str = TASK_PRETRAIN
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    ot_config: OTConfig = field(default_factory=OTConfig)
    checkpoint_every: int = 1

    def __post_init__(self):
        # each bound keeps the update finite and descending; written so that
        # NaN fails it too
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError("warmup_ratio must lie in [0, 1]")
        if not self.max_grad_norm > 0:
            raise ValueError(f"max_grad_norm must be positive, got {self.max_grad_norm}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")
        if not all(0.0 <= beta < 1.0 for beta in self.adam_betas):
            raise ValueError(f"adam_betas must each lie in [0, 1), got {self.adam_betas}")
        if not all(0.0 <= w < math.inf for w in self.loss_weights):
            raise ValueError(f"loss_weights must be finite and >= 0, got {self.loss_weights}")
        if self.task not in (TASK_PRETRAIN, TASK_FINETUNE):
            raise ValueError(f"unknown task {self.task!r}")
        require_sizes(self, ("batch_size", "epochs", "checkpoint_every"))


class AdamState:
    """First/second moment accumulators per parameter plus the step count."""

    def __init__(self, store: ParamStore):
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.step = 0


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup to the peak rate, then linear decay to zero."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = cfg.warmup_ratio * total_steps
    if step < warmup:
        return cfg.learning_rate * step / warmup
    if total_steps == warmup:
        return cfg.learning_rate
    return cfg.learning_rate * (total_steps - step) / (total_steps - warmup)


def global_grad_norm(store: ParamStore) -> float:
    total = 0.0
    for _, t in store.items():
        total += float((t.grad * t.grad).sum())
    return math.sqrt(total)


def clip_gradients(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients in place so their global norm is at most max_norm.

    Returns the pre-clip norm.
    """
    norm = global_grad_norm(store)
    if norm > max_norm:
        factor = max_norm / norm
        for _, t in store.items():
            t.grad *= factor
    return norm


def adam_step(store: ParamStore, state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update from the gradients, with the moments
    updated in place."""
    beta1, beta2 = cfg.adam_betas
    state.step += 1
    correction1 = 1.0 - beta1**state.step
    correction2 = 1.0 - beta2**state.step
    for name, t in store.items():
        if t.grad is None:
            raise UsageError(f"parameter {name!r} has no gradient; run backward first")
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * t.grad
        v *= beta2
        v += (1.0 - beta2) * (t.grad * t.grad)
        t.data -= lr * (m / correction1) / (np.sqrt(v / correction2) + cfg.adam_eps)


def _pair_rng(seed: int, step: int, index: int) -> random.Random:
    return random.Random(((seed * 1_000_003 + step) * 1_000_003 + index) % (2**63))


def train(
    corpus,
    model: Seq2SeqModel,
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Run the optimization loop and return the per-step log records.

    Batches are shuffled per epoch with a seeded generator; each record holds
    {step, lr, l_text, l_graph, l_ot, total}. A non-finite loss component or
    gradient norm raises ``NumericError`` naming the step before the update
    is applied. With an output directory, the log is streamed to log.jsonl
    and checkpoints are written at epoch boundaries (every
    ``checkpoint_every`` epochs and always at the last).
    """
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    out_path = Path(out_dir) if out_dir is not None else None
    log_fh = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        log_fh = open(out_path / "log.jsonl", "w", encoding="utf-8")

    order_rng = random.Random(cfg.seed)
    state = AdamState(model.store)
    batches_per_epoch = math.ceil(len(corpus) / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    records: list[dict] = []
    step = 0
    try:
        for epoch in range(cfg.epochs):
            indices = list(range(len(corpus)))
            order_rng.shuffle(indices)
            for b in range(batches_per_epoch):
                batch = indices[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                model.store.zero_grads()
                total = None
                sums = {"l_text": 0.0, "l_graph": 0.0, "l_ot": 0.0}
                for k, idx in enumerate(batch):
                    pair = corpus[idx]
                    try:
                        if cfg.task == TASK_PRETRAIN:
                            bundle = combined_pretrain_loss(
                                model, pair, _pair_rng(cfg.seed, step, k),
                                cfg.loss_weights, cfg.ot_config,
                            )
                            loss = bundle.total
                            for key, value in bundle.components().items():
                                sums[key] += value
                        else:
                            loss = loss_finetune(model, pair)
                            sums["l_text"] += loss.item()
                    except NumericError as exc:
                        raise NumericError(f"step {step}, pair {idx}: {exc}") from exc
                    # backpropagated at once, so only one pair's graph is alive
                    total = loss.item() if total is None else total + loss.item()
                    backward(scale(loss, 1.0 / len(batch)))
                norm = clip_gradients(model.store, cfg.max_grad_norm)
                lr = lr_at(step, total_steps, cfg)
                record = {
                    "step": step,
                    "lr": lr,
                    "l_text": sums["l_text"] / len(batch),
                    "l_graph": sums["l_graph"] / len(batch),
                    "l_ot": sums["l_ot"] / len(batch),
                    "total": total * (1.0 / len(batch)),
                }
                # NaN > max_norm is False, so a non-finite norm never clips:
                # stop before the update reaches a parameter or the log
                checked = dict(record, grad_norm=norm)
                for name in ("l_text", "l_graph", "l_ot", "total", "grad_norm"):
                    if not math.isfinite(checked[name]):
                        raise NumericError(f"step {step}: {name} is {checked[name]}")
                adam_step(model.store, state, lr, cfg)
                records.append(record)
                if log_fh is not None:
                    log_fh.write(json.dumps(record) + "\n")
                step += 1
            if out_path is not None and (
                (epoch + 1) % cfg.checkpoint_every == 0 or epoch + 1 == cfg.epochs
            ):
                save_checkpoint(model, out_path / "checkpoints" / f"epoch-{epoch + 1}")
    finally:
        if log_fh is not None:
            log_fh.close()
    return records


# ---------------------------------------------------------------------------
# checkpointing

def model_config_dict(model: Seq2SeqModel) -> dict:
    return dict(dataclasses.asdict(ModelSettings.of(model)), vocab_size=len(model.vocab))


def save_checkpoint(model: Seq2SeqModel, path: str | Path) -> Path:
    """Write manifest.json, vocab.txt, and params.bin (raw little-endian f64)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    model.vocab.save(path / "vocab.txt")
    manifest = {
        "model": model_config_dict(model),
        "vocab_file": "vocab.txt",
        "params": [
            {"name": name, "shape": list(t.data.shape), "dtype": "f64"}
            for name, t in model.store.items()
        ],
    }
    with open(path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    with open(path / "params.bin", "wb") as fh:
        for _, t in model.store.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return path


def _read_manifest(path: Path) -> dict:
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise CheckpointError(f"missing manifest: {manifest_path}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError("manifest is not a JSON object")
    for key in ("model", "vocab_file", "params"):
        if key not in manifest:
            raise CheckpointError(f"manifest lacks '{key}'")
    if not isinstance(manifest["model"], dict):
        raise CheckpointError("manifest 'model' is not an object")
    if not isinstance(manifest["vocab_file"], str):
        raise CheckpointError("manifest 'vocab_file' is not a string")
    if not isinstance(manifest["params"], list):
        raise CheckpointError("manifest 'params' is not a list")
    return manifest


def _read_params(path: Path, manifest: dict, table) -> dict[str, np.ndarray]:
    """The arrays of params.bin, each manifest entry checked against the next
    ``(name, shape)`` of the iterator ``table`` before its array is read."""
    bin_path = path / "params.bin"
    if not bin_path.is_file():
        raise CheckpointError(f"missing parameter file: {bin_path}")
    raw = np.fromfile(bin_path, dtype="<f8")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in manifest["params"]:
        if not isinstance(entry, dict) or "name" not in entry or "shape" not in entry:
            raise CheckpointError(f"manifest params entry {entry!r} lacks a name or a shape")
        name, shape = entry["name"], entry["shape"]
        want, expected = next(table, (None, None))
        if name != want:
            implied = "no more parameters" if want is None else repr(want)
            raise CheckpointError(f"manifest lists {name!r} where the settings imply {implied}")
        if entry.get("dtype") != "f64":
            raise CheckpointError(f"unsupported dtype {entry.get('dtype')!r}")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"shape of {name!r} is not a list of sizes: {shape!r}")
        size = math.prod(shape)  # exact: np.prod wraps at int64
        if offset + size > raw.size:
            raise CheckpointError("parameter file is truncated")
        if tuple(shape) != expected:
            raise CheckpointError(f"shape of {name!r} is {tuple(shape)}, expected {expected}")
        arrays[name] = raw[offset : offset + size].reshape(shape).astype(np.float64)
        offset += size
    missing = next(table, None)
    if missing is not None:
        raise CheckpointError(f"checkpoint lacks parameter {missing[0]!r}")
    # np.fromfile drops a partial trailing value, so compare bytes, not values
    if bin_path.stat().st_size != 8 * offset:
        raise CheckpointError("parameter file has trailing bytes beyond the manifest")
    return arrays


@dataclass(frozen=True)
class Checkpoint:
    """A checkpoint directory's contents, each part checked on reading."""

    settings: ModelSettings
    vocab: Vocabulary
    arrays: dict[str, np.ndarray]


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint directory once: the manifest's model settings
    (types and ranges checked), the vocabulary (checked against the
    manifest's ``vocab_size``) and the parameter arrays, whose names, order
    and shapes must be exactly the ``parameter_shapes`` of those settings."""
    path = Path(path)
    manifest = _read_manifest(path)
    model_section = manifest["model"]
    try:
        settings = ModelSettings(
            **{f.name: model_section[f.name] for f in dataclasses.fields(ModelSettings)}
        )
    except KeyError as exc:
        raise CheckpointError(f"manifest 'model' lacks {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"manifest 'model': {exc}") from exc
    # a bare file name: any other path leaves the directory, and ".." is no file
    vocab_path = path / manifest["vocab_file"]
    if vocab_path.name != manifest["vocab_file"] or not vocab_path.is_file():
        raise CheckpointError(
            f"vocab_file {manifest['vocab_file']!r} is not a file in the checkpoint directory"
        )
    try:  # a UnicodeDecodeError is a ValueError too
        vocab = Vocabulary.load(vocab_path)
    except ValueError as exc:
        raise CheckpointError(f"vocabulary {vocab_path}: {exc}") from exc
    size = model_section.get("vocab_size")
    if type(size) is not int or size != len(vocab):
        raise CheckpointError(f"vocabulary size {len(vocab)} disagrees with manifest {size!r}")
    table = parameter_shapes(*settings.configs(), len(vocab))
    return Checkpoint(settings, vocab, _read_params(path, manifest, table))


def load_checkpoint(path: str | Path, settings: ModelSettings | None = None) -> Seq2SeqModel:
    """Build the model that ``settings`` (the checkpoint's own when None)
    describe, with the checkpoint's vocabulary and arrays and no random draw.
    A ``.agg.``/``struct.`` weight that the checkpoint lacks (a plainer
    variant) is zero-filled, so the first forward pass reproduces the plain
    model; any other missing parameter or differing shape is a
    ``CheckpointError``, and extra arrays are ignored. ``tok_emb`` comes
    first, so nothing wider than the checkpoint's arrays is allocated."""
    ckpt = read_checkpoint(path)
    settings = ckpt.settings if settings is None else settings
    configs = settings.configs()
    store = ParamStore()
    for name, shape in parameter_shapes(*configs, len(ckpt.vocab)):
        array = ckpt.arrays.get(name)
        if array is None and any(marker in name for marker in _OPTIONAL_PARAM_MARKERS):
            array = np.zeros(shape)
        if array is None:
            raise CheckpointError(f"checkpoint lacks parameter {name!r}")
        if array.shape != shape:
            raise CheckpointError(f"shape of {name!r} is {array.shape}, expected {shape}")
        store.add(name, array)  # read_checkpoint's own copy: no two models share it
    return Seq2SeqModel(ckpt.vocab, *configs, store)
