"""Acceptance suite: one test per criterion, each printing one line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import math
import random
import time

import numpy as np

from graph2text.autograd import Tensor, add, grad_check, matmul, no_grad
from graph2text.cli import main as cli_main
from graph2text.data import linearize
from graph2text.decoder import BeamConfig
from graph2text.encoder import EncoderConfig, encode
from graph2text.metrics import corpus_bleu, lcs_length, rouge_l
from graph2text.objectives import OTConfig, frozen_losses, ipot, uniform_marginals
from graph2text.synth import build_toy_model, overfit_corpus
from graph2text.training import TrainConfig, load_checkpoint, save_checkpoint, train
from graph2text.vocab import mask_graph, mask_text

from conftest import make_pair


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_correctness():
    start = time.time()
    model, corpus = build_toy_model()
    pair = corpus[0]
    assert pair.graph.num_entities == 3 and pair.graph.num_relations == 2 and pair.n == 8
    assert len(model.vocab) <= 64

    errors = {}
    for name, f in frozen_losses(model, pair).items():
        result = grad_check(f, model.store, eps=1e-5, tol=1e-4)
        errors[name] = result.max_rel_err
    elapsed = time.time() - start
    ok = all(e < 1e-4 for e in errors.values()) and elapsed < 120.0
    detail = ", ".join(f"{k} max_rel_err={v:.2e}" for k, v in errors.items())
    report("1 gradient correctness", ok, f"{detail}; {elapsed:.0f}s")


def test_criterion_2_ipot_vs_exact():
    worst_gap = worst_violation = 0.0
    defaults_ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = 3 + seed % 3
        C = rng.uniform(0.0, 2.0, size=(p, p))
        a, b = uniform_marginals(p, p)
        exact = min(
            sum(C[i, perm[i]] for i in range(p)) / p
            for perm in itertools.permutations(range(p))
        )
        plan = ipot(C, a, b, OTConfig(beta=1.0, inner_k=1, outer_n=2000))
        cost = plan.cost(C)
        worst_gap = max(worst_gap, (cost - exact) / exact)
        worst_violation = max(worst_violation, *plan.marginal_violation())
        default_cost = ipot(C, a, b, OTConfig(beta=1.0, inner_k=1, outer_n=10)).cost(C)
        if not (math.isfinite(default_cost) and 0.0 <= default_cost and default_cost >= exact - 1e-9):
            defaults_ok = False
    ok = worst_gap < 0.01 and worst_violation < 1e-3 and defaults_ok
    report(
        "2 transport solver vs enumeration", ok,
        f"worst gap {worst_gap:.2e}, worst marginal violation {worst_violation:.2e}, "
        f"solver-default costs sane: {defaults_ok}",
    )


def test_criterion_3_structure_module_identities():
    # (a) pass-through outside entity spans
    model, corpus = build_toy_model()
    inp = model.encoder_input(linearize(corpus[0].graph), corpus[0].text)
    rng = np.random.default_rng(0)
    h = Tensor(rng.normal(size=(len(inp.ids), 16)))
    pool, _, scatter = inp.pools
    fused = add(h, matmul(Tensor(scatter), Tensor(rng.normal(size=(3, 16)))))
    entity_rows = {p - 1 for s in inp.entity_positions.values() for p in s}
    passthrough = all(
        np.array_equal(fused.data[r], h.data[r])
        for r in range(len(inp.ids))
        if r not in entity_rows
    )

    # (b) zeroed structure values make the joint variant equal the plain one
    zero_equiv = True
    for seed in range(10):
        m, c = build_toy_model(seed=seed)
        test_inp = m.encoder_input(linearize(c[0].graph), c[0].text)
        for layer in range(m.encoder_config.num_layers):
            m.store[f"enc.{layer}.agg.wvs"].data[:] = 0.0
            m.store[f"enc.{layer}.agg.wvr"].data[:] = 0.0
        seq_cfg = EncoderConfig(
            num_layers=2, num_heads=2, d_model=16, d_ff=8, max_input_len=22, variant="seq"
        )
        with no_grad():
            joint_out = encode(test_inp, m.encoder_config, m.store)
            seq_out = encode(test_inp, seq_cfg, m.store)
        zero_equiv = zero_equiv and np.array_equal(joint_out.data, seq_out.data)

    # (c) single-position pooling copies the row
    z = matmul(Tensor(pool), h)
    single = np.array_equal(z.data[0], h.data[next(iter(inp.entity_positions[1])) - 1])

    ok = passthrough and zero_equiv and single
    report(
        "3 structure-module identities", ok,
        f"pass-through {passthrough}, zeroed-weights equivalence {zero_equiv}, "
        f"single-position pooling {single}",
    )


def test_criterion_4_masking_statistics():
    pair = make_pair(("ada", "bo"), {(1, 2): "likes"}, "ada likes plain words here")
    # text side: position 1 is an entity mention, positions 3..5 are plain
    rng = random.Random(2024)
    entity_hits = other_hits = trials = 0
    for _ in range(10_000):
        masked = mask_text(pair, rng)
        trials += 1
        entity_hits += masked.masked_flags[0]
        other_hits += masked.masked_flags[2]
    text_entity_rate = entity_hits / trials
    text_other_rate = other_hits / trials

    lin = linearize(pair.graph)
    ent_position = next(iter(lin.entity_positions[1])) - 1
    rel_position = next(iter(lin.relation_positions[(1, 2)])) - 1
    ent_hits = rel_hits = 0
    for _ in range(10_000):
        masked = mask_graph(lin, rng)
        ent_hits += masked.indicators[ent_position]
        rel_hits += masked.indicators[rel_position]
    graph_entity_rate = ent_hits / 10_000
    graph_relation_rate = rel_hits / 10_000

    ok = (
        0.38 <= text_entity_rate <= 0.42
        and 0.18 <= text_other_rate <= 0.22
        and 0.38 <= graph_entity_rate <= 0.42
        and 0.18 <= graph_relation_rate <= 0.22
    )
    report(
        "4 masking statistics", ok,
        f"text entity {text_entity_rate:.3f}, text other {text_other_rate:.3f}, "
        f"graph entity {graph_entity_rate:.3f}, graph relation {graph_relation_rate:.3f}",
    )


def test_criterion_5_memorization_and_pretrain_direction():
    start = time.time()
    corpus = overfit_corpus(20)
    finetune_cfg = TrainConfig(
        learning_rate=3e-3, warmup_ratio=0.0, batch_size=20, epochs=500,
        seed=11, task="finetune",
    )

    def steps_to_threshold(records):
        return next((i for i, r in enumerate(records) if r["total"] < 0.1), None)

    scratch_model, _ = build_toy_model(corpus=corpus)
    scratch_records = train(corpus, scratch_model, finetune_cfg)
    scratch_steps = steps_to_threshold(scratch_records)

    beam = BeamConfig(beam_size=1, max_len=10)
    exact = sum(
        tuple(scratch_model.generate_text(pair, beam)) == pair.text for pair in corpus
    )
    overfit_elapsed = time.time() - start

    pretrained_model, _ = build_toy_model(corpus=corpus)
    pretrain_cfg = TrainConfig(
        learning_rate=3e-3, warmup_ratio=0.1, batch_size=20, epochs=200,
        seed=11, task="pretrain",
    )
    pretrain_records = train(corpus, pretrained_model, pretrain_cfg)
    assert len(pretrain_records) == 200
    warm_records = train(corpus, pretrained_model, finetune_cfg)
    warm_steps = steps_to_threshold(warm_records)

    ok = (
        scratch_steps is not None
        and scratch_steps < 500
        and exact >= 18
        and overfit_elapsed < 600.0
        and warm_steps is not None
        and warm_steps <= scratch_steps
    )
    report(
        "5 memorization and pretrain direction", ok,
        f"scratch steps to loss<0.1: {scratch_steps}, exact decodes {exact}/20, "
        f"overfit time {overfit_elapsed:.0f}s, warm steps {warm_steps} <= {scratch_steps}",
    )


def test_criterion_6_metric_oracles():
    identical = [["the", "cat", "sat", "down"], ["a", "b", "c", "d", "e"]]
    bleu_identity = corpus_bleu(identical, identical)
    rouge_identity = rouge_l(identical[0], identical[0])

    rouge_example = rouge_l(["a", "b", "c", "d"], ["a", "c", "d"])

    def brute_force_lcs(a, b):
        if not a or not b:
            return 0
        if a[-1] == b[-1]:
            return 1 + brute_force_lcs(a[:-1], b[:-1])
        return max(brute_force_lcs(a[:-1], b), brute_force_lcs(a, b[:-1]))

    rng = random.Random(6)
    alphabet = ["a", "b", "c"]
    lcs_ok = True
    short = [
        list(s) for n in range(0, 4) for s in itertools.product(alphabet, repeat=n)
    ]
    for a in short:
        for b in short:
            if lcs_length(a, b) != brute_force_lcs(a, b):
                lcs_ok = False
    for _ in range(500):
        a = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        if lcs_length(a, b) != brute_force_lcs(a, b):
            lcs_ok = False

    ok = (
        abs(bleu_identity - 100.0) < 1e-9
        and abs(rouge_identity - 100.0) < 1e-9
        and abs(rouge_example - 600.0 / 7.0) < 1e-6
        and lcs_ok
    )
    report(
        "6 metric oracles", ok,
        f"identity BLEU {bleu_identity:.6f}, identity ROUGE-L {rouge_identity:.6f}, "
        f"example ROUGE-L {rouge_example:.9f} vs {600 / 7:.9f}, LCS vs brute force {lcs_ok}",
    )


def test_criterion_7_determinism_and_persistence(tmp_path):
    config = {
        "d_model": 16, "num_heads": 2, "encoder_layers": 2, "decoder_layers": 2,
        "d_ff": 8, "max_input_len": 22, "max_output_len": 10,
        "learning_rate": 1e-3, "warmup_ratio": 0.1, "batch_size": 5, "epochs": 2,
        "seed": 31,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for pair in overfit_corpus(10):
            triples = [[i, rel, j] for (i, j), rel in sorted(pair.graph.relations.items())]
            fh.write(json.dumps({
                "entities": list(pair.graph.entities),
                "triples": triples,
                "text": " ".join(pair.text),
            }) + "\n")

    logs = []
    for name in ("run_a", "run_b"):
        code = cli_main([
            "pretrain", "--config", str(config_path),
            "--corpus", str(corpus_path), "--out", str(tmp_path / name),
        ])
        assert code == 0
        logs.append((tmp_path / name / "log.jsonl").read_text().splitlines())
    loss_columns = [
        [(json.loads(l)["l_text"], json.loads(l)["l_graph"], json.loads(l)["l_ot"],
          json.loads(l)["total"]) for l in log]
        for log in logs
    ]
    deterministic = logs[0] == logs[1] and loss_columns[0] == loss_columns[1]

    model = load_checkpoint(tmp_path / "run_a" / "checkpoints" / "epoch-2")
    save_checkpoint(model, tmp_path / "resaved")
    reloaded = load_checkpoint(tmp_path / "resaved")
    bitwise = all(
        np.array_equal(reloaded.store[name].data, t.data) for name, t in model.store.items()
    )
    pair = overfit_corpus(1)[0]
    inp = model.encoder_input(linearize(pair.graph))
    with no_grad():
        forward_equal = np.array_equal(
            encode(inp, model.encoder_config, model.store).data,
            encode(inp, reloaded.encoder_config, reloaded.store).data,
        )

    ok = deterministic and bitwise and forward_equal
    report(
        "7 determinism and persistence", ok,
        f"byte-identical logs {deterministic}, checkpoint bitwise {bitwise}, "
        f"forward reproduction {forward_equal}",
    )
