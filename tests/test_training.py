import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from graph2text import training
from graph2text.autograd import ParamStore, add, backward, scale
from graph2text.errors import CheckpointError, NumericError, UsageError
from graph2text.model import ModelSettings, parameter_count, parameter_shapes
from graph2text.objectives import combined_pretrain_loss, loss_finetune
from graph2text.synth import build_toy_model, overfit_corpus
from graph2text.training import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    global_grad_norm,
    load_checkpoint,
    lr_at,
    model_config_dict,
    read_checkpoint,
    save_checkpoint,
    train,
)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["batch_size", "epochs", "checkpoint_every"])
    def test_size_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
            TrainConfig(**{field: 0})
        TrainConfig(**{field: 1})

    # each of these writes non-finite parameters or ascends the loss
    @pytest.mark.parametrize("overrides, message", [
        ({"learning_rate": float("nan")}, "learning_rate must be positive"),
        ({"adam_eps": 0.0}, "adam_eps must be positive"),
        ({"adam_eps": float("nan")}, "adam_eps must be positive"),
        ({"adam_betas": (1.0, 0.999)}, "adam_betas must each lie in"),
        ({"adam_betas": (0.9, 1.0)}, "adam_betas must each lie in"),
        ({"adam_betas": (-0.1, 0.999)}, "adam_betas must each lie in"),
        ({"max_grad_norm": 0.0}, "max_grad_norm must be positive"),
        ({"max_grad_norm": -1.0}, "max_grad_norm must be positive"),
        ({"loss_weights": (float("nan"), 1.0, 1.0)}, "loss_weights must be finite and >= 0"),
        ({"loss_weights": (float("inf"), 1.0, 1.0)}, "loss_weights must be finite and >= 0"),
        ({"loss_weights": (1.0, -1.0, 1.0)}, "loss_weights must be finite and >= 0"),
    ])
    def test_update_breaking_settings_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            TrainConfig(**overrides)

    def test_optimizer_bounds_inclusive_edges_accepted(self):
        TrainConfig(adam_betas=(0.0, 0.0), adam_eps=1e-300, max_grad_norm=1e-300)


class TestLrSchedule:
    def setup_method(self):
        self.cfg = TrainConfig(learning_rate=1e-3, warmup_ratio=0.1)

    def test_step_zero_is_zero(self):
        assert lr_at(0, 100, self.cfg) == 0.0

    def test_warmup_end_is_peak(self):
        assert lr_at(10, 100, self.cfg) == pytest.approx(1e-3)

    def test_final_step_is_zero(self):
        assert lr_at(100, 100, self.cfg) == 0.0

    def test_linear_in_both_phases(self):
        assert lr_at(5, 100, self.cfg) == pytest.approx(5e-4)
        assert lr_at(55, 100, self.cfg) == pytest.approx(1e-3 * 45 / 90)

    def test_no_warmup_starts_at_peak(self):
        cfg = TrainConfig(learning_rate=1e-3, warmup_ratio=0.0)
        assert lr_at(0, 100, cfg) == pytest.approx(1e-3)


def reference_adam(params, grads_per_step, lr, betas=(0.9, 0.999), eps=1e-8):
    """Independent re-implementation of the published update equations."""
    beta1, beta2 = betas
    theta = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        for k, g in enumerate(grads):
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            m_hat = m[k] / (1 - beta1**t)
            v_hat = v[k] / (1 - beta2**t)
            theta[k] = theta[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestAdam:
    def test_zero_gradient_no_motion(self):
        store = ParamStore()
        p = store.add("p", np.array([1.0, 2.0]))
        store.zero_grads()
        state = AdamState(store)
        adam_step(store, state, 0.01, TrainConfig())
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude_is_lr(self):
        store = ParamStore()
        p = store.add("p", np.array([0.0]))
        store.zero_grads()
        p.grad = np.array([1.0])
        adam_step(store, AdamState(store), 0.25, TrainConfig())
        # bias correction makes the first step exactly lr / (1 + eps')
        assert p.data[0] == pytest.approx(-0.25, rel=1e-6)

    def test_missing_gradient_rejected(self):
        store = ParamStore()
        store.add("p", np.array([0.0]))
        with pytest.raises(UsageError):
            adam_step(store, AdamState(store), 0.1, TrainConfig())

    def test_buffers_and_moments_live_for_the_run(self):
        corpus = overfit_corpus(2)
        model, _ = build_toy_model(corpus=corpus)
        store, state = model.store, AdamState(model.store)
        store.zero_grads()
        buffers = {name: id(t.grad) for name, t in store.items()}
        moments = {name: (id(state.m[name]), id(state.v[name])) for name, _ in store.items()}
        for pair in corpus:
            store.zero_grads()
            backward(loss_finetune(model, pair))
            adam_step(store, state, 1e-3, TrainConfig())
        assert {name: id(t.grad) for name, t in store.items()} == buffers
        assert {name: (id(state.m[name]), id(state.v[name])) for name, _ in store.items()} == moments
        assert any(t.grad.any() for _, t in store.items())
        store.zero_grads()
        assert {name: id(t.grad) for name, t in store.items()} == buffers
        assert not any(t.grad.any() for _, t in store.items())

    def test_matches_reference_on_random_problem(self):
        rng = np.random.default_rng(0)
        initial = [rng.normal(size=10), rng.normal(size=(2, 5))]
        grad_seq = [[rng.normal(size=10), rng.normal(size=(2, 5))] for _ in range(7)]
        lr = 3e-3
        store = ParamStore()
        a = store.add("a", initial[0].copy())
        b = store.add("b", initial[1].copy())
        state = AdamState(store)
        cfg = TrainConfig(learning_rate=lr)
        for grads in grad_seq:
            a.grad, b.grad = grads[0].copy(), grads[1].copy()
            adam_step(store, state, lr, cfg)
        expected = reference_adam(initial, grad_seq, lr)
        assert np.abs(a.data - expected[0]).max() < 1e-12
        assert np.abs(b.data - expected[1]).max() < 1e-12


class TestClipping:
    def test_norm_unchanged_when_small(self):
        store = ParamStore()
        p = store.add("p", np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        norm = clip_gradients(store, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_scales_down_to_max_norm(self):
        store = ParamStore()
        p = store.add("p", np.zeros(2))
        q = store.add("q", np.zeros(1))
        p.grad = np.array([3.0, 0.0])
        q.grad = np.array([4.0])
        clip_gradients(store, 1.0)
        assert global_grad_norm(store) <= 1.0 + 1e-12
        assert p.grad[0] == pytest.approx(0.6)


class TestTrainLoop:
    def test_single_pair_single_step(self):
        corpus = overfit_corpus(1)
        model, _ = build_toy_model(corpus=corpus)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=1, epochs=1, task="finetune")
        records = train(corpus, model, cfg)
        assert len(records) == 1
        assert set(records[0]) == {"step", "lr", "l_text", "l_graph", "l_ot", "total"}

    def test_identical_seeds_identical_logs(self, tmp_path):
        corpus = overfit_corpus(6)
        logs = []
        for run in range(2):
            model, _ = build_toy_model(corpus=corpus)
            cfg = TrainConfig(
                learning_rate=1e-3, batch_size=3, epochs=2, seed=99, task="pretrain",
            )
            records = train(corpus, model, cfg, tmp_path / f"run{run}")
            logs.append(records)
        assert logs[0] == logs[1]
        a = (tmp_path / "run0" / "log.jsonl").read_bytes()
        b = (tmp_path / "run1" / "log.jsonl").read_bytes()
        assert a == b

    def test_loss_decreases_over_windows(self):
        corpus = overfit_corpus(8)
        model, _ = build_toy_model(corpus=corpus)
        cfg = TrainConfig(
            learning_rate=3e-3, warmup_ratio=0.0, batch_size=8, epochs=200,
            seed=3, task="finetune",
        )
        records = train(corpus, model, cfg)
        losses = [r["total"] for r in records]
        windows = [np.mean(losses[i : i + 100]) for i in range(0, 200, 100)]
        assert windows[1] <= windows[0]

    def test_nan_parameter_stops_finetune_before_update(self, tmp_path):
        corpus = overfit_corpus(4)
        model, _ = build_toy_model(corpus=corpus)
        model.store["dec.final_ln.g"].data[0] = np.nan
        before = {name: t.data.copy() for name, t in model.store.items()}
        cfg = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=1, task="finetune")
        with pytest.raises(NumericError, match=r"^step 0: l_text is nan$"):
            train(corpus, model, cfg, tmp_path)
        for name, t in model.store.items():
            np.testing.assert_array_equal(t.data, before[name])
        assert (tmp_path / "log.jsonl").read_text() == ""
        assert not (tmp_path / "checkpoints").exists()

    def test_nan_gradient_stops_training(self, monkeypatch):
        corpus = overfit_corpus(2)
        model, _ = build_toy_model(corpus=corpus)

        def poisoned_backward(loss):
            backward(loss)
            model.store["dec.0.ffn.b1"].grad[0] = np.nan

        monkeypatch.setattr(training, "backward", poisoned_backward)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=1, epochs=1, task="finetune")
        with pytest.raises(NumericError, match=r"^step 0: grad_norm is nan$"):
            train(corpus, model, cfg)

    def test_nan_parameter_names_step_and_pair_in_pretrain(self):
        corpus = overfit_corpus(2)
        model, _ = build_toy_model(corpus=corpus)
        model.store["dec.final_ln.g"].data[0] = np.nan
        cfg = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=1, task="pretrain")
        with pytest.raises(NumericError, match=r"^step 0, pair \d+: "):
            train(corpus, model, cfg)

    def test_pretrain_logs_all_components(self):
        corpus = overfit_corpus(2)
        model, _ = build_toy_model(corpus=corpus)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=1, task="pretrain")
        records = train(corpus, model, cfg)
        rec = records[0]
        assert rec["l_text"] > 0 and rec["l_graph"] >= 0 and rec["l_ot"] > 0
        expected = rec["l_text"] + rec["l_graph"] + rec["l_ot"]
        assert rec["total"] == pytest.approx(expected, rel=1e-9)


def whole_batch_train(corpus, model, cfg):
    """Reference loop: each batch's pair losses chained with ``add`` into one
    graph, then one ``backward`` from their mean, clipping and Adam."""
    order_rng, state = random.Random(cfg.seed), AdamState(model.store)
    batches_per_epoch = math.ceil(len(corpus) / cfg.batch_size)
    records, step = [], 0
    for _ in range(cfg.epochs):
        indices = list(range(len(corpus)))
        order_rng.shuffle(indices)
        for b in range(batches_per_epoch):
            batch = indices[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            model.store.zero_grads()
            total, sums = None, {"l_text": 0.0, "l_graph": 0.0, "l_ot": 0.0}
            for k, idx in enumerate(batch):
                if cfg.task == "pretrain":
                    bundle = combined_pretrain_loss(
                        model, corpus[idx], training._pair_rng(cfg.seed, step, k),
                        cfg.loss_weights, cfg.ot_config,
                    )
                    loss = bundle.total
                    for key, value in bundle.components().items():
                        sums[key] += value
                else:
                    loss = loss_finetune(model, corpus[idx])
                    sums["l_text"] += loss.item()
                total = loss if total is None else add(total, loss)
            mean_loss = scale(total, 1.0 / len(batch))
            backward(mean_loss)
            clip_gradients(model.store, cfg.max_grad_norm)
            lr = lr_at(step, cfg.epochs * batches_per_epoch, cfg)
            records.append({"step": step, "lr": lr, **{key: value / len(batch)
                            for key, value in sums.items()}, "total": mean_loss.item()})
            adam_step(model.store, state, lr, cfg)
            step += 1
    return records


class TestStreamedBackward:
    """``train`` backpropagates each pair as soon as its loss is built."""

    @pytest.mark.parametrize("task", ["pretrain", "finetune"])
    @pytest.mark.parametrize("variant", ["joint", "rel", "seq"])
    def test_bitwise_equal_to_whole_batch_backward(self, variant, task):
        corpus = overfit_corpus(7)  # batches of 3, 3 and a ragged 1
        cfg = TrainConfig(learning_rate=1e-2, batch_size=3, epochs=2, seed=5, task=task)
        streamed, _ = build_toy_model(corpus=corpus, variant=variant)
        reference, _ = build_toy_model(corpus=corpus, variant=variant)
        records = train(corpus, streamed, cfg)
        expected = whole_batch_train(corpus, reference, cfg)
        assert json.dumps(records) == json.dumps(expected)
        for name, t in streamed.store.items():
            assert t.data.tobytes() == reference.store[name].data.tobytes(), name

    @pytest.mark.parametrize("task", ["pretrain", "finetune"])
    def test_one_pair_graph_alive_at_a_time(self, task):
        pair = overfit_corpus(1)[0]
        peaks = []
        for batch_size in (1, 4):
            model, _ = build_toy_model(corpus=[pair])
            cfg = TrainConfig(learning_rate=1e-3, batch_size=batch_size, task=task)
            tracemalloc.start()
            try:
                train([pair] * batch_size, model, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a step that kept every pair's graph until one backward grew ~4x
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestParameterTable:
    @pytest.mark.parametrize("variant", ["seq", "joint", "rel"])
    def test_build_model_draws_the_table(self, variant):
        model, _ = build_toy_model(corpus=overfit_corpus(3), variant=variant)
        table = parameter_shapes(model.encoder_config, model.decoder_config, len(model.vocab))
        assert [(name, t.data.shape) for name, t in model.store.items()] == list(table)
        for name, t in model.store.items():
            if name.endswith(".g"):
                assert np.all(t.data == 1.0), name
            elif name.endswith((".b", ".b1", ".b2")):
                assert np.all(t.data == 0.0), name
            else:
                assert 0.01 < t.data.std() < 0.03, name

    @pytest.mark.parametrize("variant", ["seq", "joint", "rel"])
    @pytest.mark.parametrize("encoder_layers, decoder_layers", [(1, 1), (1, 3), (4, 1), (3, 2)])
    def test_closed_form_count_equals_the_walked_table(self, variant, encoder_layers,
                                                       decoder_layers):
        settings = ModelSettings(variant=variant, d_model=8, num_heads=2, d_ff=6,
                                 encoder_layers=encoder_layers, decoder_layers=decoder_layers,
                                 max_input_len=11, max_output_len=7)
        table = parameter_shapes(*settings.configs(), 13)
        assert parameter_count(*settings.configs(), 13) == sum(
            math.prod(shape) for _, shape in table)


class TestCheckpoint:
    def _trained_model(self):
        corpus = overfit_corpus(3)
        model, _ = build_toy_model(corpus=corpus)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=3, epochs=1, task="finetune")
        train(corpus, model, cfg)
        return model, corpus

    def test_roundtrip_bitwise(self, tmp_path):
        model, corpus = self._trained_model()
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        for name, t in model.store.items():
            assert np.array_equal(loaded.store[name].data, t.data)
        assert loaded.vocab.id_to_token == model.vocab.id_to_token
        assert model_config_dict(loaded) == model_config_dict(model)

    def test_roundtrip_forward_identical(self, tmp_path):
        from graph2text.objectives import loss_finetune

        model, corpus = self._trained_model()
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loss_finetune(loaded, corpus[0]).item() == loss_finetune(model, corpus[0]).item()

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        model, _ = self._trained_model()
        path = save_checkpoint(model, tmp_path / "ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint built a random model")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(path)
        assert loaded.store.names() == model.store.names()

    def test_truncated_params_rejected(self, tmp_path):
        model, _ = self._trained_model()
        path = save_checkpoint(model, tmp_path / "ckpt")
        raw = (path / "params.bin").read_bytes()
        (path / "params.bin").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("load", [load_checkpoint,
                                      lambda path: load_checkpoint(
                                          path, ModelSettings(variant="rel", d_model=16,
                                                              num_heads=2, d_ff=8,
                                                              max_input_len=22,
                                                              max_output_len=10))],
                             ids=["load_checkpoint", "load_checkpoint_with_settings"])
    def test_partial_trailing_value_rejected(self, tmp_path, load):
        # np.fromfile drops the 3 stray bytes; the size check must not
        model, _ = self._trained_model()
        path = save_checkpoint(model, tmp_path / "ckpt")
        with open(path / "params.bin", "ab") as fh:
            fh.write(b"\x00\x01\x02")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load(path)

    def test_manifest_shape_mismatch_rejected(self, tmp_path):
        model, _ = self._trained_model()
        path = save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["params"][0]["shape"] = [2, 2]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["model"].pop("d_ff"), "manifest 'model' lacks 'd_ff'"),
        (lambda m: m["params"][0].pop("name"), "lacks a name or a shape"),
        (lambda m: m["params"][0].pop("shape"), "lacks a name or a shape"),
        (lambda m: m.update(params=5), "manifest 'params' is not a list"),
        (lambda m: m.update(model=5), "manifest 'model' is not an object"),
        (lambda m: m["params"][0].update(shape=5), "is not a list of sizes"),
        (lambda m: m["model"].update(d_model="16"),
         "manifest 'model': d_model must have the type of its default 64, got '16'"),
        (lambda m: m["model"].update(max_input_len=600.0),
         "manifest 'model': max_input_len must have the type of its default 600, got 600.0"),
        (lambda m: m["model"].update(num_heads=0),
         "manifest 'model': num_heads must be at least 1, got 0"),
        (lambda m: m.update(vocab_file=5), "manifest 'vocab_file' is not a string"),
        (lambda m: m["params"][0].update(name=["tok_emb"]),
         r"manifest lists \['tok_emb'\] where the settings imply 'tok_emb'"),
        # a repeat of the first entry past the end of params.bin: the table,
        # not the file size, rejects it
        (lambda m: m["params"].append(dict(m["params"][0])),
         "manifest lists 'tok_emb' where the settings imply no more parameters"),
        # 3 * 6148914691236517206 = 2**64 + 2, which np.prod wraps to 2 values
        (lambda m: m["params"][0].update(shape=[3, 6148914691236517206]),
         "parameter file is truncated"),
        # equal to the vocabulary's size, but not an int
        (lambda m: m["model"].update(vocab_size=float(m["model"]["vocab_size"])),
         r"vocabulary size (\d+) disagrees with manifest \1\.0"),
        # the entries must be the settings' parameter table, in its order
        (lambda m: m["params"].insert(1, m["params"].pop(2)),
         "manifest lists 'enc.0.ln1.g' where the settings imply 'enc.pos_emb'"),
        (lambda m: m["params"].append({"name": "extra", "shape": [0], "dtype": "f64"}),
         "manifest lists 'extra' where the settings imply no more parameters"),
        (lambda m: m["params"].pop(), "checkpoint lacks parameter 'dec.final_ln.b'"),
        (lambda m: m["params"][0].update(shape=[2, 8]),
         r"shape of 'tok_emb' is \(2, 8\), expected \(\d+, 16\)"),
        (lambda m: m["model"].update(variant="rel"),
         "manifest lists 'dec.pos_emb' where the settings imply 'struct.ent_emb'"),
    ], ids=["model-lacks-key", "entry-lacks-name", "entry-lacks-shape", "params-not-list",
            "model-not-object", "shape-not-list", "d-model-not-int", "max-input-len-float",
            "num-heads-zero", "vocab-file-not-string", "name-not-string", "name-twice",
            "shape-size-past-int64", "vocab-size-float", "entries-reordered", "entry-extra",
            "entry-missing", "shape-mismatch", "variant-rel"])
    def test_malformed_manifest_rejected(self, tmp_path, edit, message):
        model, _ = self._trained_model()
        path = save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("vocab_file", [
        lambda path: str(path / "vocab.txt"),
        lambda path: f"../{path.name}/vocab.txt",
        lambda path: "..",
    ], ids=["absolute", "separator", "parent"])
    def test_vocab_file_must_be_a_bare_name(self, tmp_path, vocab_file):
        # each of these names the checkpoint's own vocabulary, or a directory
        model, _ = self._trained_model()
        path = save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["vocab_file"] = vocab_file(path)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="is not a file in the checkpoint directory"):
            read_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda text: text + text.splitlines()[-1] + "\n",  # the last token again
        lambda text: text.encode("utf-8") + b"\xff\xfe\n",  # not UTF-8
    ], ids=["duplicate-token", "not-utf-8"])
    def test_rejected_vocabulary_is_checkpoint_error(self, tmp_path, corrupt):
        model, _ = self._trained_model()
        path = save_checkpoint(model, tmp_path / "ckpt")
        vocab_path = path / "vocab.txt"
        content = corrupt(vocab_path.read_text(encoding="utf-8"))
        if isinstance(content, bytes):
            vocab_path.write_bytes(content)
        else:
            vocab_path.write_text(content, encoding="utf-8")
        with pytest.raises(CheckpointError, match=r"vocabulary .*vocab\.txt: "):
            read_checkpoint(path)

    def test_read_checkpoint_returns_settings_vocab_and_arrays(self, tmp_path):
        model, _ = self._trained_model()
        ckpt = read_checkpoint(save_checkpoint(model, tmp_path / "ckpt"))
        assert ckpt.settings == ModelSettings.of(model)
        assert ckpt.vocab.id_to_token == model.vocab.id_to_token
        assert list(ckpt.arrays) == model.store.names()
        for name, t in model.store.items():
            assert ckpt.arrays[name].tobytes() == t.data.tobytes()

    def test_two_loads_share_no_array(self, tmp_path):
        # a model trains its parameters in place; a second model from the
        # same checkpoint must start from the saved values
        corpus = overfit_corpus(3)
        model, _ = build_toy_model(corpus=corpus)
        path = save_checkpoint(model, tmp_path / "ckpt")
        first, second = load_checkpoint(path), load_checkpoint(path)
        for name, t in first.store.items():
            assert not np.shares_memory(t.data, second.store[name].data), name
            t.data += 1.0
        for name, t in second.store.items():
            assert t.data.tobytes() == model.store[name].data.tobytes(), name

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path)

    def test_seq_checkpoint_into_joint_model_zero_structure(self, tmp_path):
        from graph2text.autograd import no_grad
        from graph2text.data import linearize
        from graph2text.encoder import encode

        corpus = overfit_corpus(3)
        seq_model, _ = build_toy_model(corpus=corpus, variant="seq")
        path = save_checkpoint(seq_model, tmp_path / "seq_ckpt")

        joint_settings = dataclasses.replace(ModelSettings.of(seq_model), variant="joint")
        joint_model = load_checkpoint(path, joint_settings)
        assert joint_model.vocab.id_to_token == seq_model.vocab.id_to_token
        assert ModelSettings.of(joint_model) == joint_settings
        for layer in range(2):
            for name in ("wqs", "wks", "wvs", "wkr", "wvr"):
                assert np.array_equal(
                    joint_model.store[f"enc.{layer}.agg.{name}"].data, np.zeros((16, 16))
                )
        inp_joint = joint_model.encoder_input(linearize(corpus[0].graph))
        inp_seq = seq_model.encoder_input(linearize(corpus[0].graph))
        with no_grad():
            h_joint = encode(inp_joint, joint_model.encoder_config, joint_model.store)
            h_seq = encode(inp_seq, seq_model.encoder_config, seq_model.store)
        assert np.array_equal(h_joint.data, h_seq.data)

    def test_incompatible_shapes_rejected(self, tmp_path):
        corpus = overfit_corpus(3)
        model, _ = build_toy_model(corpus=corpus)
        path = save_checkpoint(model, tmp_path / "ckpt")
        bigger = dataclasses.replace(ModelSettings.of(model), d_model=32, d_ff=16)
        with pytest.raises(CheckpointError,
                           match=r"shape of 'tok_emb' is \(\d+, 16\), expected \(\d+, 32\)"):
            load_checkpoint(path, bigger)
