#!/usr/bin/env python3
"""Check that a change keeps the parameters, losses, gradients, decoded ids
and training runs of the code it replaces, at as-initialized weights.

    PYTHONPATH=src python tools/equivalence.py --save ref.npz      # before
    PYTHONPATH=src python tools/equivalence.py --against ref.npz   # after

Run ``--save`` on one checkout and ``--against`` on another; each imports
``graph2text`` from ``PYTHONPATH``. Inputs are the 10-pair toy corpus under
the ``seq``, ``joint`` and ``rel`` variants (d_model 16), and the first 8
pairs of the two training bench corpora at seed 3 under ``joint`` and
``rel`` with the bench's d_model-64 model. For each input set the script
records the vocabulary's token list and every as-initialized parameter
array. For each pair it records the mention map as sorted (entity,
position) rows, the pretrain bundle (total and its three components) under
``random.Random(k)`` and the finetune loss, each with every parameter
gradient; for the first 4 pairs of each input set it also records the
beam-1 and beam-5 ids.

It also trains a fresh toy model for 2 epochs at batch 3 (10 pairs, so the
last batch holds 1) for each variant and task, and records a SHA-256 digest
of the step records and the trained parameters, and one of the checkpoint
``save_checkpoint`` writes. Each trained model also goes through save ->
``load_checkpoint`` -> save, which must write the same bytes twice.

Through ``cli.main`` it pretrains a toy checkpoint per variant and runs
``finetune --init`` from it for seq->joint, joint->rel, rel->joint and
joint->joint (same corpus and training settings, so the structure weights
that a plainer checkpoint lacks start at zero), and records a SHA-256
digest of each run's ``log.jsonl`` and of its final ``params.bin`` and
``manifest.json``.

``--against`` prints, per input set and overall, how many arrays are bit
identical, the worst loss difference relative to the loss, the worst
per-parameter max|grad difference| / max|reference grad|, and how many
records compared exactly (ids, set-up records, initial parameters,
digests) differ; it names the first set-up records (vocabularies and
mention maps) that differ, so a set-up change fails by name. The
gate: losses within 1e-12 relative, gradients within 1e-12 of the
reference's largest, every exact record equal and the same set of records.
The exit status is 0 when the gate holds and the round trips are byte
identical, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

# Pinned before numpy loads: a multi-threaded BLAS may sum in another order
# on each run, and the records must repeat bit for bit.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from graph2text import autograd, cli, data, objectives, synth, training  # noqa: E402
from graph2text.decoder import BeamConfig, DecoderConfig  # noqa: E402
from graph2text.encoder import EncoderConfig  # noqa: E402
from graph2text.model import build_model  # noqa: E402
from graph2text.vocab import build_vocab  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import corpus  # noqa: E402  (bench/corpus.py, read only)

GATE = 1e-12
SETUP_RECORDS = ("/vocab", "/mentions")
VARIANTS = ("seq", "joint", "rel")
TOY_PAIRS = 10
BENCH_SEED = 3
BENCH_PAIRS = 8
BEAM_PAIRS = 4
BEAM_SIZES = (1, 5)
# 10 toy pairs at batch 3: three full batches and a ragged one of 1
TRAIN = dict(learning_rate=1e-3, batch_size=3, epochs=2)
# the training workloads of bench/run.py, with its model and transport settings
BENCH_SHAPES = {
    "pretrain_webnlg": corpus.Shape(1, 64, (2, 8), (8, 30)),
    "finetune_large_graph": corpus.Shape(1, 64, (16, 24), (40, 63)),
}
# (checkpoint variant, fine-tuned variant) of each ``finetune --init`` run
INIT_RUNS = (("seq", "joint"), ("joint", "rel"), ("rel", "joint"), ("joint", "joint"))
TOY_SETTINGS = dict(d_model=16, num_heads=2, encoder_layers=2, decoder_layers=2, d_ff=8,
                    max_input_len=64, max_output_len=10)
BENCH_ENCODER = dict(num_layers=2, num_heads=4, d_model=64, d_ff=128, max_input_len=600)
BENCH_DECODER = DecoderConfig(num_layers=2, num_heads=4, d_model=64, d_ff=128, max_output_len=64)
OT_CONFIG = objectives.OTConfig(beta=1.0, inner_k=1, outer_n=10)


def input_sets():
    """Yield (name, model, pairs) for each input set."""
    toy = synth.overfit_corpus(TOY_PAIRS)
    for variant in VARIANTS:
        model, _ = synth.build_toy_model(corpus=toy, variant=variant, max_input_len=64)
        yield f"toy-{variant}", model, toy
    for name, shape in BENCH_SHAPES.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.jsonl"
            corpus.write_jsonl(corpus.make_records(shape, BENCH_SEED), path)
            pairs = data.load_corpus(path)
        for variant in ("joint", "rel"):
            encoder = EncoderConfig(**BENCH_ENCODER, variant=variant)
            model = build_model(build_vocab(pairs), encoder, BENCH_DECODER, seed=BENCH_SEED)
            yield f"{name}-seed{BENCH_SEED}-{variant}", model, pairs[:BENCH_PAIRS]


def gradients(model, loss, prefix: str, records: dict) -> None:
    """Backpropagate ``loss`` from zeroed gradients and record every
    parameter's gradient under ``prefix``."""
    model.store.zero_grads()
    autograd.backward(loss)
    for name, tensor in model.store.items():
        records[f"{prefix}/grad/{name}"] = tensor.grad.copy()


def digest(*chunks: bytes) -> np.ndarray:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return np.frombuffer(h.digest(), dtype=np.uint8)


def checkpoint_bytes(path: Path) -> list[bytes]:
    return [(path / name).read_bytes() for name in ("manifest.json", "params.bin", "vocab.txt")]


def record_training(records: dict) -> list[str]:
    """Record the digests of a 2-epoch run per variant and task; return the
    runs whose save -> load_checkpoint -> save changed a byte."""
    toy = synth.overfit_corpus(TOY_PAIRS)
    changed = []
    for variant in VARIANTS:
        for task in (training.TASK_PRETRAIN, training.TASK_FINETUNE):
            name = f"train-{variant}-{task}"
            model, _ = synth.build_toy_model(corpus=toy, variant=variant, max_input_len=64)
            log = training.train(toy, model, training.TrainConfig(task=task, **TRAIN))
            params = [t.data.tobytes() for _, t in model.store.items()]
            records[f"{name}/digest"] = digest(json.dumps(log).encode(), *params)
            with tempfile.TemporaryDirectory() as tmp:
                saved = training.save_checkpoint(model, Path(tmp) / "saved")
                resaved = training.save_checkpoint(
                    training.load_checkpoint(saved), Path(tmp) / "resaved"
                )
                records[f"{name}/checkpoint_digest"] = digest(*checkpoint_bytes(saved))
                if checkpoint_bytes(resaved) != checkpoint_bytes(saved):
                    changed.append(name)
    return changed


def run_cli(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"graph2text {argv[0]} exited {code}")


def record_finetune_init(records: dict) -> None:
    """Record the digests of each ``finetune --init`` run of INIT_RUNS, each
    from a checkpoint that ``pretrain`` wrote with the same settings."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_path = tmp / "toy.jsonl"
        corpus.write_jsonl([
            {"entities": list(pair.graph.entities), "text": " ".join(pair.text),
             "triples": [list(triple) for triple in pair.graph.triples()]}
            for pair in synth.overfit_corpus(TOY_PAIRS)
        ], corpus_path)
        for variant in VARIANTS:
            config = tmp / f"{variant}.json"
            config.write_text(json.dumps(dict(TOY_SETTINGS, **TRAIN, variant=variant)))
            run_cli("pretrain", "--config", str(config), "--corpus", str(corpus_path),
                    "--out", str(tmp / f"pre-{variant}"))
        for source, target in INIT_RUNS:
            out = tmp / f"ft-{source}-{target}"
            run_cli("finetune", "--config", str(tmp / f"{target}.json"),
                    "--corpus", str(corpus_path),
                    "--init", str(tmp / f"pre-{source}" / "checkpoints" / "epoch-2"),
                    "--out", str(out))
            final = out / "checkpoints" / "epoch-2"
            for key, path in (("log", out / "log.jsonl"), ("params", final / "params.bin"),
                              ("manifest", final / "manifest.json")):
                records[f"finetune-init-{source}-{target}/{key}_digest"] = digest(
                    path.read_bytes())


def record_all() -> tuple[dict[str, np.ndarray], list[str]]:
    records: dict[str, np.ndarray] = {}
    for set_name, model, pairs in input_sets():
        records[f"{set_name}/vocab"] = np.asarray(model.vocab.id_to_token)
        for name, tensor in model.store.items():
            records[f"{set_name}/init/{name}"] = tensor.data.copy()
        for k, pair in enumerate(pairs):
            key = f"{set_name}/{k}"
            records[f"{key}/mentions"] = np.asarray(sorted(
                (i, p) for i, positions in pair.entity_mentions.items() for p in positions
            ), dtype=np.int64).reshape(-1, 2)
            bundle = objectives.combined_pretrain_loss(
                model, pair, random.Random(k), ot_config=OT_CONFIG
            )
            for component, value in (*bundle.components().items(), ("total", bundle.total.item())):
                records[f"{key}/pretrain/loss/{component}"] = np.asarray(value)
            gradients(model, bundle.total, f"{key}/pretrain", records)
            loss = objectives.loss_finetune(model, pair)
            records[f"{key}/finetune/loss"] = loss.data.copy()
            gradients(model, loss, f"{key}/finetune", records)
            if k < BEAM_PAIRS:
                inp = model.encoder_input(data.linearize(pair.graph))
                for size in BEAM_SIZES:
                    beam = BeamConfig(beam_size=size, length_penalty=1.0, max_len=pair.n + 1)
                    records[f"{key}/beam{size}_ids"] = np.asarray(
                        model.generate(inp, beam), dtype=np.int64
                    )
    record_finetune_init(records)
    return records, record_training(records)


def compare(records: dict, reference: dict) -> bool:
    """Print the comparison per input set and overall; True when the gate holds
    for every record."""
    missing = sorted(set(reference) - set(records))
    extra = sorted(set(records) - set(reference))
    sets: dict[str, dict] = {}
    setup, setup_differ = 0, []
    for key in sorted(set(records) & set(reference)):
        got, want = records[key], reference[key]
        stats = sets.setdefault(key.split("/", 1)[0], dict(
            arrays=0, identical=0, loss=0.0, grad=0.0, grad_at="-", ids=0, ids_differ=0,
            exact=0, exact_differ=0))
        stats["arrays"] += 1
        same = got.shape == want.shape and got.dtype == want.dtype
        identical = same and got.tobytes() == want.tobytes()
        stats["identical"] += identical
        if "/grad/" not in key and "/loss" not in key:  # ids, set-up, parameters, digests
            kind = "ids" if key.endswith("_ids") else "exact"
            stats[kind] += 1
            stats[f"{kind}_differ"] += not identical
            if key.endswith(SETUP_RECORDS):
                setup += 1
                if not identical:
                    setup_differ.append(key)
        elif not same:
            stats["grad"], stats["grad_at"] = float("inf"), key
        elif "/grad/" in key:
            diff, scale = np.abs(got - want).max(initial=0.0), np.abs(want).max(initial=0.0)
            ratio = 0.0 if diff == 0.0 else diff / scale if scale > 0.0 else float("inf")
            if not ratio <= stats["grad"]:  # NaN too
                stats["grad"], stats["grad_at"] = ratio, key
        else:
            diff = abs(float(got) - float(want))
            rel = 0.0 if diff == 0.0 else diff / abs(float(want)) if want != 0.0 else float("inf")
            if not rel <= stats["loss"]:
                stats["loss"] = rel
    print(f"{'input set':<36} {'bit-identical':>15} {'loss rel':>10} {'grad ratio':>10} "
          f"{'ids differ':>10} {'exact differ':>12}")
    for name, s in sets.items():
        print(f"{name:<36} {s['identical']:>7}/{s['arrays']:<7} {s['loss']:>10.2e} "
              f"{s['grad']:>10.2e} {s['ids_differ']:>4}/{s['ids']:<5} "
              f"{s['exact_differ']:>5}/{s['exact']:<6}")
    total = {field: sum(s[field] for s in sets.values()) for field in
             ("arrays", "identical", "ids", "ids_differ", "exact", "exact_differ")}
    worst_loss = max((s["loss"] for s in sets.values()), default=0.0)
    worst = max(sets.values(), key=lambda s: s["grad"], default=dict(grad=0.0, grad_at="-"))
    print(f"bit-identical arrays: {total['identical']} of {total['arrays']}")
    print(f"worst relative loss difference: {worst_loss:.3e}")
    print(f"worst max|grad difference| / max|reference grad|: {worst['grad']:.3e} "
          f"({worst['grad_at']})")
    print(f"id sequences that differ: {total['ids_differ']} of {total['ids']}")
    print(f"vocabularies and mention maps that differ: {len(setup_differ)} of {setup}"
          + (f" {setup_differ[:3]}" if setup_differ else ""))
    print(f"set-up records, initial parameters and digests that differ: "
          f"{total['exact_differ']} of {total['exact']}")
    if missing or extra:
        print(f"records missing: {len(missing)} {missing[:3]}; extra: {len(extra)} {extra[:3]}")
    return (not missing and not extra and worst_loss <= GATE and worst["grad"] <= GATE
            and total["ids_differ"] == 0 and total["exact_differ"] == 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", type=Path, metavar="FILE.npz", help="record the reference")
    mode.add_argument("--against", type=Path, metavar="FILE.npz",
                      help="compare with a reference recorded by --save")
    args = parser.parse_args(argv)
    records, changed = record_all()
    runs = len(VARIANTS) * 2
    print(f"save -> load_checkpoint -> save byte-identical: {runs - len(changed)} of {runs}"
          + (f" (changed: {', '.join(changed)})" if changed else ""))
    if args.save:
        np.savez_compressed(args.save, **records)
        print(f"saved {len(records)} arrays to {args.save}")
        return 1 if changed else 0
    with np.load(args.against) as saved:
        reference = {key: saved[key] for key in saved.files}
    passed = compare(records, reference) and not changed
    print(f"verdict: {'PASS' if passed else 'FAIL'} (gate {GATE:.0e}, byte-identical round trips)")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
