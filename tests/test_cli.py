import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from graph2text import cli, training
from graph2text.autograd import GradCheckReport
from graph2text.cli import RunConfig, main
from graph2text.data import KnowledgeGraph, load_corpus
from graph2text.errors import CheckpointError
from graph2text.model import ModelSettings, Seq2SeqModel, build_model
from graph2text.objectives import frozen_losses
from graph2text.synth import gradcheck_pair
from graph2text.training import save_checkpoint
from graph2text.vocab import build_vocab

TINY_CONFIG = {
    "d_model": 16,
    "num_heads": 2,
    "encoder_layers": 1,
    "decoder_layers": 1,
    "d_ff": 8,
    "max_input_len": 32,
    "max_output_len": 10,
    "learning_rate": 1e-3,
    "warmup_ratio": 0.0,
    "batch_size": 4,
    "epochs": 2,
    "seed": 5,
}


def write_corpus(path: Path, n: int = 4) -> Path:
    names = ["ada", "bo", "cy", "dex", "eli", "fay"]
    rels = ["likes", "visits"]
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(n):
            head, tail = names[k % 6], names[(k + 2) % 6]
            rel = rels[k % 2]
            record = {
                "entities": [head, tail],
                "triples": [[1, rel, 2]],
                "text": f"{head} {rel} the {tail}",
            }
            fh.write(json.dumps(record) + "\n")
    return path


def write_config(path: Path, **overrides) -> Path:
    cfg = dict(TINY_CONFIG)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def edit_manifest(path: Path, edit) -> None:
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


@pytest.fixture
def corpus_file(tmp_path):
    return write_corpus(tmp_path / "corpus.jsonl")


@pytest.fixture
def config_file(tmp_path):
    return write_config(tmp_path / "config.json")


class TestPretrain:
    def test_success_populates_run_dir(self, tmp_path, corpus_file, config_file):
        out = tmp_path / "run"
        code = main(["pretrain", "--config", str(config_file),
                     "--corpus", str(corpus_file), "--out", str(out)])
        assert code == 0
        assert (out / "log.jsonl").is_file()
        assert (out / "config.resolved.json").is_file()
        assert (out / "checkpoints" / "epoch-2" / "params.bin").is_file()

    def test_missing_corpus_exits_1_and_names_path(self, tmp_path, config_file, capsys):
        code = main(["pretrain", "--config", str(config_file),
                     "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope.jsonl" in capsys.readouterr().err

    def test_weights_flag_disables_components(self, tmp_path, corpus_file, config_file):
        out = tmp_path / "run"
        code = main(["pretrain", "--config", str(config_file), "--corpus", str(corpus_file),
                     "--out", str(out), "--weights", "1,0,0"])
        assert code == 0
        for line in (out / "log.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert rec["l_graph"] == 0.0
            assert rec["l_ot"] == 0.0
            assert rec["l_text"] > 0.0

    def test_bad_config_key_exits_1(self, tmp_path, corpus_file):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nonsense_key": 1}))
        code = main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_config_not_an_object_exits_1(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("5")
        code = main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["batch_size", "epochs", "checkpoint_every"])
    def test_training_size_below_one_exits_1(self, tmp_path, corpus_file, field, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{field: 0})
        code = main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{field} must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "log.jsonl").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("adam_eps", 0.0, "adam_eps must be positive, got 0.0"),
        ("adam_beta1", 1.0, "adam_betas must each lie in [0, 1), got (1.0, 0.999)"),
        ("adam_beta2", 1.0, "adam_betas must each lie in [0, 1), got (0.9, 1.0)"),
        ("max_grad_norm", -1.0, "max_grad_norm must be positive, got -1.0"),
        ("ot_beta", float("nan"), "beta must be positive, got nan"),
        ("weights", [float("inf"), 1, 1], "loss_weights must be finite and >= 0, got (inf, 1.0, 1.0)"),
        ("weights", [1.0, -1.0, 1.0], "loss_weights must be finite and >= 0, got (1.0, -1.0, 1.0)"),
    ])
    def test_update_breaking_setting_exits_1(self, tmp_path, corpus_file, key, value, message, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        code = main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("weights", ["nan,1,1", "1,-1,1"])
    def test_bad_weights_flag_exits_1(self, tmp_path, corpus_file, config_file, weights, capsys):
        code = main(["pretrain", "--config", str(config_file), "--corpus", str(corpus_file),
                     "--out", str(tmp_path / "o"), "--weights", weights])
        assert code == 1
        assert "error: loss_weights must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, field", [
        ("num_heads", 0, "num_heads"), ("d_model", 0, "d_model"),
        ("encoder_layers", -1, "num_layers"), ("d_ff", 0, "d_ff"),
    ])
    def test_model_size_below_one_exits_1(self, tmp_path, corpus_file, key, value, field, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        code = main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {field} must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("d_model", "16"), ("num_heads", 2.0), ("epochs", "2"), ("learning_rate", "0.1"),
        ("weights", 5), ("seed", True),
    ])
    def test_wrong_typed_value_exits_1(self, tmp_path, corpus_file, key, value, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        code = main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {key} must have the type of its default" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unused_beam_settings_checked(self, tmp_path, corpus_file, capsys):
        # pretrain decodes nothing, but a config it accepts must also serve
        # generate: both beam settings are checked before anything is written
        cfg = write_config(tmp_path / "cfg.json", beam_size=0, length_penalty=-1.0)
        code = main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: beam_size must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_int_accepted_for_float_and_kept_in_resolved_config(self, tmp_path, corpus_file):
        cfg = write_config(tmp_path / "cfg.json", learning_rate=1, weights=[1, 0, 2])
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(out)]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["learning_rate"] == 1 and type(resolved["learning_rate"]) is int
        assert resolved["weights"] == [1.0, 0.0, 2.0]

    def test_over_length_corpus_exits_1(self, tmp_path, corpus_file, capsys):
        cfg = write_config(tmp_path / "cfg.json", max_input_len=4)
        code = main(["pretrain", "--config", str(cfg),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "max_input_len" in capsys.readouterr().err

    def test_determinism_byte_identical_artifacts(self, tmp_path, corpus_file, config_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["pretrain", "--config", str(config_file),
                         "--corpus", str(corpus_file), "--out", str(out)]) == 0
            outs.append(out)
        for artifact in ("log.jsonl", "config.resolved.json", "checkpoints/epoch-2/params.bin",
                         "checkpoints/epoch-2/manifest.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


class TestRunConfig:
    def test_keys_and_defaults(self):
        assert RunConfig().as_dict() == {
            "variant": "joint", "d_model": 64, "encoder_layers": 2, "decoder_layers": 2,
            "num_heads": 4, "d_ff": 128, "max_input_len": 600, "max_output_len": 64,
            "learning_rate": 3e-5, "warmup_ratio": 0.1, "max_grad_norm": 1.0,
            "adam_eps": 1e-8, "adam_beta1": 0.9, "adam_beta2": 0.999, "batch_size": 8,
            "epochs": 1, "seed": 13, "min_freq": 1, "weights": [1.0, 1.0, 1.0],
            "ot_beta": 1.0, "ot_inner_k": 1, "ot_outer_n": 10, "beam_size": 5,
            "length_penalty": 1.0, "checkpoint_every": 1,
        }

    def test_model_settings_round_trip(self):
        settings = ModelSettings(variant="rel", d_model=16, encoder_layers=1, decoder_layers=3,
                                 num_heads=2, d_ff=8, max_input_len=40, max_output_len=12)
        enc, dec = settings.configs()
        assert (enc.num_layers, dec.num_layers, enc.variant) == (1, 3, "rel")
        assert (enc.max_input_len, dec.max_output_len) == (40, 12)
        model = build_model(build_vocab([gradcheck_pair()]), enc, dec)
        assert ModelSettings.of(model) == settings


class TestFinetuneAndGenerate:
    def _pretrained(self, tmp_path, corpus_file, config_file) -> Path:
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(config_file),
                     "--corpus", str(corpus_file), "--out", str(out)]) == 0
        return out / "checkpoints" / "epoch-2"

    def test_finetune_from_checkpoint(self, tmp_path, corpus_file, config_file):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        out = tmp_path / "ft"
        code = main(["finetune", "--config", str(config_file), "--corpus", str(corpus_file),
                     "--init", str(ckpt), "--out", str(out)])
        assert code == 0
        assert (out / "log.jsonl").is_file()

    def test_finetune_draws_no_random_numbers(self, tmp_path, corpus_file, config_file,
                                              monkeypatch, capsys):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)

        def refuse(*args, **kwargs):
            raise AssertionError("finetune built a random model")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        code = main(["finetune", "--config", str(config_file), "--corpus", str(corpus_file),
                     "--init", str(ckpt), "--out", str(tmp_path / "ft")])
        assert code == 0, capsys.readouterr().err

    def test_finetune_reads_init_parameters_once(self, tmp_path, corpus_file, config_file,
                                                 monkeypatch):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        reads = []
        original = training._read_params

        def spy(path, *args):
            reads.append(path)
            return original(path, *args)

        monkeypatch.setattr(training, "_read_params", spy)
        code = main(["finetune", "--config", str(config_file), "--corpus", str(corpus_file),
                     "--init", str(ckpt), "--out", str(tmp_path / "ft")])
        assert code == 0
        assert reads == [ckpt]

    def test_finetune_reads_init_manifest_once(self, tmp_path, corpus_file, config_file,
                                               monkeypatch):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        reads = []
        original = training._read_manifest

        def spy(path):
            reads.append(path)
            return original(path)

        monkeypatch.setattr(training, "_read_manifest", spy)
        code = main(["finetune", "--config", str(config_file), "--corpus", str(corpus_file),
                     "--init", str(ckpt), "--out", str(tmp_path / "ft")])
        assert code == 0
        assert reads == [ckpt]

    @pytest.mark.parametrize("edit", [
        lambda m, ckpt: m["model"].update(num_heads=0),
        lambda m, ckpt: m["model"].update(variant="bogus"),
        lambda m, ckpt: m["model"].pop("d_ff"),
        lambda m, ckpt: m["model"].update(vocab_size=m["model"]["vocab_size"] + 1),
        lambda m, ckpt: m.update(vocab_file=str(ckpt / "vocab.txt")),
        # the weights are a joint model's; the settings must imply exactly them
        lambda m, ckpt: m["model"].update(variant="seq"),
        lambda m, ckpt: next(e for e in m["params"] if ".agg." in e["name"]).update(
            name="enc.0.agg.renamed"),
        # each would size one parameter at 2**40 rows or columns
        lambda m, ckpt: m["model"].update(d_model=2**40),
        lambda m, ckpt: m["model"].update(d_ff=2**40),
        lambda m, ckpt: m["model"].update(max_input_len=2**40),
        lambda m, ckpt: m["model"].update(max_output_len=2**40),
    ], ids=["num-heads-zero", "variant-bogus", "model-lacks-key", "vocab-size", "vocab-file",
            "variant-seq", "agg-renamed", "d-model-huge", "d-ff-huge", "max-input-len-huge",
            "max-output-len-huge"])
    def test_finetune_rejects_what_generate_rejects(self, tmp_path, corpus_file, config_file,
                                                     capsys, edit):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        edit_manifest(ckpt, lambda manifest: edit(manifest, ckpt))
        capsys.readouterr()
        for argv in (["generate", "--ckpt", str(ckpt), "--input", str(corpus_file),
                      "--out", str(tmp_path / "hyp.txt")],
                     ["finetune", "--config", str(config_file), "--corpus", str(corpus_file),
                      "--init", str(ckpt), "--out", str(tmp_path / "ft")]):
            assert main(argv) == 1, argv[0]
            assert capsys.readouterr().err.startswith("error: "), argv[0]

    def test_finetune_shape_mismatch_exits_1(self, tmp_path, corpus_file, config_file):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        bigger = write_config(tmp_path / "big.json", d_model=32)
        code = main(["finetune", "--config", str(bigger), "--corpus", str(corpus_file),
                     "--init", str(ckpt), "--out", str(tmp_path / "ft")])
        assert code == 1

    def test_finetune_params_with_stray_bytes_exits_1(self, tmp_path, corpus_file, config_file,
                                                      capsys):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        with open(ckpt / "params.bin", "ab") as fh:
            fh.write(b"\x00\x01\x02")
        code = main(["finetune", "--config", str(config_file), "--corpus", str(corpus_file),
                     "--init", str(ckpt), "--out", str(tmp_path / "ft")])
        assert code == 1
        assert "trailing bytes" in capsys.readouterr().err

    def test_generate_params_name_not_string_exits_1(self, tmp_path, corpus_file, config_file,
                                                     capsys):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["params"][0]["name"] = ["tok_emb"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code = main(["generate", "--ckpt", str(ckpt), "--input", str(corpus_file),
                     "--out", str(tmp_path / "hyp.txt")])
        assert code == 1
        assert ("manifest lists ['tok_emb'] where the settings imply 'tok_emb'"
                in capsys.readouterr().err)

    def test_seq_checkpoint_into_joint_config(self, tmp_path, corpus_file):
        seq_cfg = write_config(tmp_path / "seq.json", variant="seq")
        out = tmp_path / "pre_seq"
        assert main(["pretrain", "--config", str(seq_cfg),
                     "--corpus", str(corpus_file), "--out", str(out)]) == 0
        joint_cfg = write_config(tmp_path / "joint.json", variant="joint", epochs=1)
        code = main(["finetune", "--config", str(joint_cfg), "--corpus", str(corpus_file),
                     "--init", str(out / "checkpoints" / "epoch-2"),
                     "--out", str(tmp_path / "ft_joint")])
        assert code == 0

    def test_generate_writes_one_line_per_record(self, tmp_path, corpus_file, config_file):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        hyp = tmp_path / "hyp.txt"
        code = main(["generate", "--ckpt", str(ckpt), "--input", str(corpus_file),
                     "--beam", "2", "--length-penalty", "1.0", "--out", str(hyp)])
        assert code == 0
        assert len(hyp.read_text().splitlines()) == 4

    def test_generate_empty_input(self, tmp_path, corpus_file, config_file):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        hyp = tmp_path / "hyp.txt"
        code = main(["generate", "--ckpt", str(ckpt), "--input", str(empty),
                     "--out", str(hyp)])
        assert code == 0
        assert hyp.read_text() == ""

    def test_generate_bad_checkpoint_exits_1(self, tmp_path, corpus_file):
        code = main(["generate", "--ckpt", str(tmp_path / "missing"),
                     "--input", str(corpus_file), "--out", str(tmp_path / "h")])
        assert code == 1

    def test_generate_malformed_manifest_exits_1(self, tmp_path, corpus_file, config_file, capsys):
        ckpt = self._pretrained(tmp_path, corpus_file, config_file)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["model"]["d_ff"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code = main(["generate", "--ckpt", str(ckpt), "--input", str(corpus_file),
                     "--out", str(tmp_path / "h")])
        assert code == 1
        assert "manifest 'model' lacks 'd_ff'" in capsys.readouterr().err


# the CI smoke run's model and corpus
D8_CONFIG = {"d_model": 8, "num_heads": 2, "encoder_layers": 1, "decoder_layers": 2, "d_ff": 8,
             "max_input_len": 22, "max_output_len": 10}
ONE_PAIR = {"entities": ["ada", "bo"], "triples": [[1, "likes", 2]], "text": "ada likes bo"}


@pytest.fixture(scope="module")
def d8_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("d8")
    (root / "one.jsonl").write_text(json.dumps(ONE_PAIR) + "\n")
    (root / "small.json").write_text(json.dumps(D8_CONFIG))
    assert main(["pretrain", "--config", str(root / "small.json"),
                 "--corpus", str(root / "one.jsonl"), "--out", str(root / "pre")]) == 0
    return root


def _mutate_model_key(key):
    def mutate(path, rng):
        def edit(manifest):
            value = manifest["model"][key]
            if isinstance(value, str):
                candidates = ["bogus", "seq", "rel", "", 5, None]
            else:
                candidates = [0, -1, 1, value // 2, value + 1, 2 * value, 2**40, float(value),
                              str(value), True, None, [value]]
            if rng.random() < 0.15:
                del manifest["model"][key]
            else:
                manifest["model"][key] = rng.choice(candidates)
        edit_manifest(path, edit)
    return mutate


def _mutate_params_entry(index):
    def mutate(path, rng):
        def edit(manifest):
            entry = manifest["params"][index]
            field = rng.choice(["name", "shape", "dtype"])
            shape = entry["shape"]
            candidates = {
                "name": [manifest["params"][index - 1]["name"], "bogus", [entry["name"]], None],
                "shape": [shape[::-1], [], [2 * shape[0]] + shape[1:], shape + [1],
                          [3, 6148914691236517206], [-1] + shape[1:], [True] + shape[1:],
                          str(shape[0])],
                "dtype": ["f32", "<f8", None],
            }[field]
            if rng.random() < 0.15:
                del entry[field]
            else:
                entry[field] = rng.choice(candidates)
        edit_manifest(path, edit)
    return mutate


def _mutate_vocab_file(path, rng):
    value = rng.choice([str(path / "vocab.txt"), f"../{path.name}/vocab.txt", "..", ".", "",
                        "missing.txt", "manifest.json", "params.bin", 5, None])
    edit_manifest(path, lambda manifest: manifest.update(vocab_file=value))


def _mutate_vocab_lines(path, rng):
    lines = (path / "vocab.txt").read_text(encoding="utf-8").splitlines()
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(["delete", "copy", "swap", "blank", "append", "insert", "bytes"])
    if kind == "bytes":
        (path / "vocab.txt").write_bytes(b"\xff\xfe" + (path / "vocab.txt").read_bytes())
        return
    if kind == "delete":
        del lines[i]
    elif kind == "copy":
        lines[i] = lines[j]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "blank":
        lines[i] = ""
    elif kind == "append":
        lines.append("zed")
    else:
        lines.insert(i, "zed")
    (path / "vocab.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mutate_params_length(path, rng):
    params = path / "params.bin"
    raw = params.read_bytes()
    cut = rng.choice([1, 3, 8, 16, len(raw)])
    if rng.random() < 0.5:
        params.write_bytes(raw[:-cut])
    else:
        params.write_bytes(raw + bytes(rng.randrange(256) for _ in range(min(cut, 24))))


MUTATIONS = {
    **{f"model-{key}": _mutate_model_key(key) for key in
       ("variant", "d_model", "encoder_layers", "decoder_layers", "num_heads", "d_ff",
        "max_input_len", "max_output_len", "vocab_size")},
    "params-first": _mutate_params_entry(0),
    "params-last": _mutate_params_entry(-1),
    "vocab-file": _mutate_vocab_file,
    "vocab-lines": _mutate_vocab_lines,
    "params-length": _mutate_params_length,
}


class TestCheckpointMutations:
    """Seeded mutations of every file of a checkpoint directory, read by
    ``generate`` and by ``finetune --init``: each command exits 0 or 1, an
    exit 1 prints an ``error:`` line, and a checkpoint that
    ``read_checkpoint`` rejects fails both commands."""

    DRAWS = 8

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutated_checkpoint_exits_0_or_1(self, d8_dir, tmp_path, capsys, mutation):
        root = d8_dir
        for draw in range(self.DRAWS):
            rng = random.Random(f"{mutation}-{draw}")
            ckpt = tmp_path / f"ckpt-{draw}"
            shutil.copytree(root / "pre" / "checkpoints" / "epoch-1", ckpt)
            MUTATIONS[mutation](ckpt, rng)
            try:
                training.read_checkpoint(ckpt)
                rejected = False
            except CheckpointError:
                rejected = True
            codes = []
            for argv in (["generate", "--ckpt", str(ckpt), "--input", str(root / "one.jsonl"),
                          "--out", str(tmp_path / f"hyp-{draw}.txt")],
                         ["finetune", "--config", str(root / "small.json"),
                          "--corpus", str(root / "one.jsonl"), "--init", str(ckpt),
                          "--out", str(tmp_path / f"ft-{draw}")]):
                capsys.readouterr()
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1), (draw, argv[0], code, err)
                if code == 1:
                    assert any(line.startswith("error: ") for line in err.splitlines()), (
                        draw, argv[0], err)
                codes.append(code)
            if rejected:
                assert codes == [1, 1], (draw, codes)


class TestHugeLayerCount:
    """The checkpoint reader walks the parameter table only as far as the
    manifest's list reaches, so a layer count of 2**40 costs nothing."""

    @pytest.mark.parametrize("key", ["encoder_layers", "decoder_layers"])
    def test_rejected_at_once(self, d8_dir, tmp_path, capsys, key):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(d8_dir / "pre" / "checkpoints" / "epoch-1", ckpt)
        edit_manifest(ckpt, lambda manifest: manifest["model"].update({key: 2**40}))
        for argv in (["generate", "--ckpt", str(ckpt), "--input", str(d8_dir / "one.jsonl"),
                      "--out", str(tmp_path / "hyp.txt")],
                     ["finetune", "--config", str(d8_dir / "small.json"),
                      "--corpus", str(d8_dir / "one.jsonl"), "--init", str(ckpt),
                      "--out", str(tmp_path / "ft")]):
            capsys.readouterr()
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            assert code == 1, argv[0]
            assert capsys.readouterr().err.startswith("error: "), argv[0]
            assert elapsed < 1.0, (argv[0], elapsed)


class TestFinetuneSizedByConfig:
    """``finetune --init`` compares the run config's parameter table with the
    checkpoint before it allocates anything sized by the config."""

    @pytest.mark.parametrize("key, name", [
        ("d_model", "tok_emb"), ("d_ff", "enc.0.ffn.w1"),
        ("max_input_len", "enc.pos_emb"), ("max_output_len", "dec.pos_emb"),
    ])
    def test_huge_size_names_the_parameter(self, d8_dir, tmp_path, capsys, key, name):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(dict(D8_CONFIG, **{key: 2**40})))
        capsys.readouterr()
        code = main(["finetune", "--config", str(cfg), "--corpus", str(d8_dir / "one.jsonl"),
                     "--init", str(d8_dir / "pre" / "checkpoints" / "epoch-1"),
                     "--out", str(tmp_path / "ft")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error: shape of {name!r} is "), err
        assert str(2**40) in err
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("key, name", [
        ("encoder_layers", "enc.1.ln1.g"), ("decoder_layers", "dec.2.ln1.g"),
    ])
    def test_huge_layer_count_rejected_at_once(self, d8_dir, tmp_path, capsys, key, name):
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps(dict(D8_CONFIG, **{key: 2**40})))
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["finetune", "--config", str(cfg), "--corpus", str(d8_dir / "one.jsonl"),
                     "--init", str(d8_dir / "pre" / "checkpoints" / "epoch-1"),
                     "--out", str(tmp_path / "ft")])
        elapsed = time.perf_counter() - start
        assert code == 1
        assert capsys.readouterr().err == f"error: checkpoint lacks parameter {name!r}\n"
        assert elapsed < 1.0, elapsed


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at 4 TiB while a test runs, so that
    an array sized 2**40 fails to allocate even where the kernel would
    overcommit it; the old limit is restored afterwards."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2**42 if soft == resource.RLIM_INFINITY else min(soft, 2**42)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestConfigBeyondMemory:
    """A model that the run config sizes beyond memory is a user error."""

    @pytest.mark.parametrize("key", ["d_model", "d_ff", "max_input_len", "max_output_len"])
    @pytest.mark.parametrize("command", ["pretrain", "gradcheck"])
    def test_exits_1_and_writes_nothing(self, d8_dir, tmp_path, capsys, address_space_cap,
                                        command, key):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(dict(D8_CONFIG, **{key: 2**40})))
        argv = [command, "--config", str(cfg)]
        if command == "pretrain":
            argv += ["--corpus", str(d8_dir / "one.jsonl"), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not (tmp_path / "out").exists()


# Runs ``main(argv)`` under a 2 GiB address-space cap and prints its exit
# code and wall time: a regression that walks a 2**40-layer table then fails
# fast at the cap instead of exhausting the host.
CAPPED_MAIN = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**31, resource.getrlimit(resource.RLIMIT_AS)[1]))
from graph2text.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "seconds": time.perf_counter() - start}))
"""


class TestLayerCountBeyondMemory:
    """``pretrain`` and ``gradcheck`` size the parameter table in closed form
    before they allocate it, so 2**40 layers exit 1 at once."""

    @pytest.mark.parametrize("key", ["encoder_layers", "decoder_layers"])
    @pytest.mark.parametrize("command", ["pretrain", "gradcheck"])
    def test_exits_1_at_once_and_writes_nothing(self, d8_dir, tmp_path, command, key):
        pytest.importorskip("resource")
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps(dict(D8_CONFIG, **{key: 2**40})))
        argv = [command, "--config", str(cfg)]
        if command == "pretrain":
            argv += ["--corpus", str(d8_dir / "one.jsonl"), "--out", str(tmp_path / "out")]
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], capture_output=True,
                             text=True, env=env, timeout=60)
        result = json.loads(run.stdout.splitlines()[-1])
        assert result["code"] == 1, run.stderr
        assert run.stderr.startswith("error: Unable to allocate "), run.stderr
        assert "for the model's parameters" in run.stderr
        assert result["seconds"] < 1.0, result
        assert not (tmp_path / "out").exists()


class TestLinearizedOnce:
    def test_pretrain_linearizes_each_graph_once(self, tmp_path, monkeypatch):
        """Over a 2-epoch ``pretrain`` run (length check, three losses per
        pair and step), each graph's linearization is built once."""
        built = []
        prop = KnowledgeGraph.__dict__["linearized"]
        original = prop.func

        def counting(graph):
            built.append(graph)
            return original(graph)

        monkeypatch.setattr(prop, "func", counting)  # the function behind the real cache
        corpus = tmp_path / "three.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in CORPUS_RECORDS + [ONE_PAIR]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(D8_CONFIG, epochs=2, batch_size=2)))
        assert main(["pretrain", "--config", str(config), "--corpus", str(corpus),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 3
        assert len({id(graph) for graph in built}) == 3


CORPUS_RECORDS = [
    ONE_PAIR,
    {"entities": ["cy", "dex lee", "eli"], "triples": [[1, "knows", 2], [2, "helps", 3]],
     "text": "cy knows dex lee", "mentions": {"1": [1], "2": [3, 4]}},
]
CORPUS_VALUES = [None, True, 0, -1, 2, 3, 2**40, 1.5, "", " ", "ada", "\ud800", "a\udfffb",
                 "é ö", "w " * 30, [], {}, [1], ["ada"], ["\ud800"], [[1, "likes", 2]],
                 {"1": [1]}, {"0": [1]}]


def _mutated_corpus(rng) -> bytes:
    """The two records of CORPUS_RECORDS with one seeded edit: a field, an
    element of a list, a mention or the raw bytes of a line."""
    records = json.loads(json.dumps(CORPUS_RECORDS))
    record = rng.choice(records)
    kind = rng.choice(["field", "drop", "element", "mention", "bytes"])
    if kind == "field":
        record[rng.choice(["entities", "triples", "text", "mentions"])] = rng.choice(CORPUS_VALUES)
    elif kind == "drop":
        del record[rng.choice(sorted(record))]
    elif kind == "element":
        items = record[rng.choice(["entities", "triples"])]
        i = rng.randrange(len(items))
        if isinstance(items[i], list) and rng.random() < 0.7:
            items[i][rng.randrange(3)] = rng.choice(CORPUS_VALUES)
        else:
            items[i] = rng.choice(CORPUS_VALUES)
    elif kind == "mention":
        record.setdefault("mentions", {})[rng.choice(["1", "2", "3", "0", "x"])] = rng.choice(
            CORPUS_VALUES)
    lines = [json.dumps(r).encode() for r in records]
    if kind == "bytes":
        i = rng.randrange(len(lines))
        lines[i] = rng.choice([
            lines[i][: rng.randrange(len(lines[i]))], b"[]", b"null", b"{}", b"",
            b"\xff" + lines[i], b"\xef\xbb\xbf" + lines[i], lines[i].replace(b"1", b"1e400"),
            lines[i].replace(b"1", b"NaN", 1),
        ])
    return b"\n".join(lines) + b"\n"


class TestCorpusMutations:
    """Seeded edits of a corpus read by ``linearize`` and ``pretrain``: each
    command exits 0 or 1, an exit 1 prints an ``error:`` line, and a
    ``pretrain`` that exits 1 writes nothing under ``--out``."""

    DRAWS = 200

    def test_mutated_corpus_exits_0_or_1(self, d8_dir, tmp_path, capsys):
        for draw in range(self.DRAWS):
            corpus = tmp_path / f"corpus-{draw}.jsonl"
            corpus.write_bytes(_mutated_corpus(random.Random(f"corpus-{draw}")))
            out = tmp_path / f"pre-{draw}"
            codes = {}
            for argv in (["linearize", "--corpus", str(corpus)],
                         ["pretrain", "--config", str(d8_dir / "small.json"),
                          "--corpus", str(corpus), "--out", str(out)]):
                capsys.readouterr()
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1), (draw, argv[0], code, err)
                if code == 1:
                    assert any(line.startswith("error: ") for line in err.splitlines()), (
                        draw, argv[0], err)
                codes[argv[0]] = code
            if codes["pretrain"] == 1:
                assert not out.exists(), draw

    def test_lone_surrogate_rejected_at_load(self, d8_dir, tmp_path, capsys):
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_text(json.dumps(ONE_PAIR) + "\n"
                          + json.dumps(dict(ONE_PAIR, entities=["\ud800x", "bo"])) + "\n")
        ckpt = d8_dir / "pre" / "checkpoints" / "epoch-1"
        for argv in (["linearize", "--corpus", str(corpus)],
                     ["pretrain", "--config", str(d8_dir / "small.json"), "--corpus", str(corpus),
                      "--out", str(tmp_path / "out")],
                     ["generate", "--ckpt", str(ckpt), "--input", str(corpus),
                      "--out", str(tmp_path / "out")]):
            capsys.readouterr()
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert err == "error: line 2: string holds '\\ud800', which UTF-8 cannot encode\n", err
            assert not (tmp_path / "out").exists(), argv[0]

    @pytest.mark.parametrize("second_line", [
        b"\xff" + json.dumps(ONE_PAIR).encode(),
        json.dumps(ONE_PAIR).encode().replace(b'"bo"', b'"bo\xff"'),
    ], ids=["before-record", "inside-string"])
    def test_bytes_not_utf8_rejected_at_load(self, d8_dir, tmp_path, capsys, second_line):
        corpus = tmp_path / "not-utf8.jsonl"
        corpus.write_bytes(json.dumps(ONE_PAIR).encode() + b"\n" + second_line + b"\n")
        ckpt = d8_dir / "pre" / "checkpoints" / "epoch-1"
        for argv in (["linearize", "--corpus", str(corpus)],
                     ["pretrain", "--config", str(d8_dir / "small.json"), "--corpus", str(corpus),
                      "--out", str(tmp_path / "out")],
                     ["generate", "--ckpt", str(ckpt), "--input", str(corpus),
                      "--out", str(tmp_path / "out")]):
            capsys.readouterr()
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert err == "error: line 2: bytes b'\\xff' are not UTF-8\n", err
            assert not (tmp_path / "out").exists(), argv[0]


class TestCorpusLengths:
    """Pretraining encodes ``graph <SEP> text``, fine-tuning the graph
    alone; ONE_PAIR's graph is 6 tokens and its text 3."""

    @pytest.mark.parametrize("command, needed", [("pretrain", 10), ("finetune", 6)])
    def test_max_input_len_boundary(self, d8_dir, tmp_path, capsys, command, needed):
        corpus = d8_dir / "one.jsonl"
        for max_input_len, want in ((needed, 0), (needed - 1, 1)):
            run = tmp_path / str(max_input_len)
            cfg = run / "cfg.json"
            run.mkdir()
            cfg.write_text(json.dumps(dict(D8_CONFIG, max_input_len=max_input_len)))
            argv = [command, "--config", str(cfg), "--corpus", str(corpus),
                    "--out", str(run / "out")]
            if command == "finetune":
                model = build_model(build_vocab(load_corpus(corpus)),
                                    *RunConfig.from_file(str(cfg)).configs())
                argv += ["--init", str(save_checkpoint(model, run / "init"))]
            capsys.readouterr()
            assert main(argv) == want, (command, max_input_len, capsys.readouterr().err)
            if want:
                assert f"corpus needs max_input_len >= {needed}" in capsys.readouterr().err


class TestGenerateBeamSettings:
    """``generate`` reads beam_size and length_penalty from ``--config``;
    ``--beam`` and ``--length-penalty`` override them when given."""

    @pytest.fixture
    def run(self, tmp_path, corpus_file, monkeypatch):
        model = build_model(build_vocab(load_corpus(corpus_file)), *RunConfig(**TINY_CONFIG).configs())
        ckpt = save_checkpoint(model, tmp_path / "ckpt")
        beams = []

        def spy(self, pair_or_graph, beam):
            beams.append((beam.beam_size, beam.length_penalty))
            return ["x"]

        monkeypatch.setattr(Seq2SeqModel, "generate_text", spy)

        def run(*extra):
            beams.clear()
            code = main(["generate", "--ckpt", str(ckpt), "--input", str(corpus_file),
                         "--out", str(tmp_path / "hyp.txt"), *extra])
            return code, sorted(set(beams))  # one beam for all four records

        return run

    def test_defaults_without_config(self, run):
        assert run() == (0, [(5, 1.0)])

    def test_config_read(self, run, tmp_path):
        cfg = write_config(tmp_path / "beam.json", beam_size=3, length_penalty=0.5)
        assert run("--config", str(cfg)) == (0, [(3, 0.5)])

    def test_flags_override_config(self, run, tmp_path):
        cfg = write_config(tmp_path / "beam.json", beam_size=3, length_penalty=0.5)
        assert run("--config", str(cfg), "--beam", "2") == (0, [(2, 0.5)])
        assert run("--config", str(cfg), "--length-penalty", "2.0") == (0, [(3, 2.0)])

    @pytest.mark.parametrize("key, value", [
        ("beam_size", 0), ("length_penalty", -1.0), ("length_penalty", float("nan")),
    ])
    def test_bad_beam_setting_exits_1(self, run, tmp_path, key, value, capsys):
        cfg = write_config(tmp_path / "beam.json", **{key: value})
        assert run("--config", str(cfg)) == (1, [])
        assert f"{key} must be >= " in capsys.readouterr().err
        assert not (tmp_path / "hyp.txt").exists()


    def test_unused_training_and_model_settings_checked(self, run, tmp_path, capsys):
        # the model is the checkpoint's and nothing trains, yet every key
        # of the config is checked
        cfg = write_config(tmp_path / "cfg.json", learning_rate=-1.0, num_heads=0)
        assert run("--config", str(cfg)) == (1, [])
        assert "error: num_heads must be at least 1, got 0" in capsys.readouterr().err
        cfg = write_config(tmp_path / "cfg.json", learning_rate=-1.0)
        assert run("--config", str(cfg)) == (1, [])
        assert "error: learning_rate must be positive" in capsys.readouterr().err
        assert not (tmp_path / "hyp.txt").exists()


class TestFullPipeline:
    def test_pretrain_finetune_generate_eval_roundtrip(self, tmp_path, capsys):
        # the whole pipeline at a size small enough to memorize in seconds:
        # pretrain -> finetune until it overfits -> generate -> score
        corpus = write_corpus(tmp_path / "corpus.jsonl", n=4)
        pre_cfg = write_config(tmp_path / "pre.json", epochs=2)
        ft_cfg = write_config(
            tmp_path / "ft.json", epochs=250, learning_rate=5e-3, warmup_ratio=0.0,
        )
        assert main(["pretrain", "--config", str(pre_cfg), "--corpus", str(corpus),
                     "--out", str(tmp_path / "pre")]) == 0
        assert main(["finetune", "--config", str(ft_cfg), "--corpus", str(corpus),
                     "--init", str(tmp_path / "pre" / "checkpoints" / "epoch-2"),
                     "--out", str(tmp_path / "ft")]) == 0
        hyp = tmp_path / "hyp.txt"
        assert main(["generate", "--ckpt", str(tmp_path / "ft" / "checkpoints" / "epoch-250"),
                     "--input", str(corpus), "--beam", "1", "--out", str(hyp)]) == 0
        expected = [json.loads(l)["text"] for l in corpus.read_text().splitlines()]
        assert hyp.read_text().splitlines() == expected

        ref = tmp_path / "ref.txt"
        ref.write_text("\n".join(expected) + "\n")
        assert main(["eval", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu"] == pytest.approx(100.0)


class TestEval:
    def test_identical_files_bleu_100(self, tmp_path, capsys):
        text = "the cat sat on the mat\na dog ran far away today\n"
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text(text)
        ref.write_text(text)
        code = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu"] == pytest.approx(100.0)
        assert report["rouge_l"] == pytest.approx(100.0)
        assert report["num_examples"] == 2

    def test_empty_hypothesis_line_scores_zero(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("\na b\n")
        ref.write_text("a b\na b\n")
        assert main(["eval", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rouge_l"] == pytest.approx(50.0)
        assert report["num_examples"] == 2

    def test_empty_reference_line_exits_1(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b\n")
        ref.write_text("\n")
        assert main(["eval", "--hyp", str(hyp), "--ref", str(ref)]) == 1
        assert "non-empty references" in capsys.readouterr().err

    def test_length_mismatch_exits_1(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b\n")
        ref.write_text("a b\nc d\n")
        assert main(["eval", "--hyp", str(hyp), "--ref", str(ref)]) == 1


class TestGradcheckCommand:
    def test_small_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "small.json", d_model=8, encoder_layers=1,
                           decoder_layers=1, d_ff=8, max_input_len=22, max_output_len=10)
        code = main(["gradcheck", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 4

    def test_config_sets_both_depths(self, tmp_path, monkeypatch):
        stores = []

        def spy(f, store, tol):
            stores.append(sorted(store.names()))
            return GradCheckReport({}, tol)

        monkeypatch.setattr(cli, "grad_check", spy)
        cfg = write_config(tmp_path / "small.json", d_model=8, encoder_layers=1,
                           decoder_layers=2, d_ff=8, max_input_len=22, max_output_len=10)
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        assert len(stores) == 4
        for names in stores:
            assert any(n.startswith("dec.1.") for n in names)
            assert not any(n.startswith("dec.2.") for n in names)
            assert any(n.startswith("enc.0.") for n in names)
            assert not any(n.startswith("enc.1.") for n in names)

    def test_impossible_tolerance_fails_with_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "small.json", d_model=8, encoder_layers=1,
                           decoder_layers=1, d_ff=8, max_input_len=22, max_output_len=10)
        code = main(["gradcheck", "--config", str(cfg), "--tol", "1e-18"])
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, tol, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "frozen_losses", no_sweep)
        monkeypatch.setattr(cli, "grad_check", no_sweep)
        assert main(["gradcheck", "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("error: --tol must be finite and positive")

    def test_checks_the_closures_of_frozen_losses(self, tmp_path, monkeypatch):
        built, checked = [], []

        def frozen_spy(model, pair):
            built.append(frozen_losses(model, pair))
            return built[-1]

        def grad_check_spy(f, store, tol):
            checked.append(f)
            return GradCheckReport({}, tol)

        monkeypatch.setattr(cli, "frozen_losses", frozen_spy)
        monkeypatch.setattr(cli, "grad_check", grad_check_spy)
        cfg = write_config(tmp_path / "small.json", d_model=8, encoder_layers=1,
                           decoder_layers=1, d_ff=8, max_input_len=22, max_output_len=10)
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        [losses] = built
        assert len(checked) == 4
        assert all(f is g for f, g in zip(checked, losses.values()))


class TestLinearize:
    def test_prints_marker_line_and_positions(self, tmp_path, capsys):
        corpus = tmp_path / "one.jsonl"
        record = {
            "entities": ["alan bean", "apollo 12"],
            "triples": [[1, "mission", 2]],
            "text": "alan bean flew on apollo 12",
        }
        corpus.write_text(json.dumps(record) + "\n")
        assert main(["linearize", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "<H> alan bean <R> mission <T> apollo 12" in out
        assert "e1 'alan bean': [2, 3]" in out
        assert "r(1, 2) 'mission': [5]" in out

    def test_malformed_mentions_exit_1(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        record = {"entities": ["ada", "bo"], "triples": [[1, "likes", 2]],
                  "text": "ada likes bo", "mentions": [1]}
        corpus.write_text(json.dumps(record) + "\n")
        assert main(["linearize", "--corpus", str(corpus)]) == 1
        assert "line 1: 'mentions' must be an object" in capsys.readouterr().err
