#!/usr/bin/env python3
"""graph2text benchmark: pretraining, large-graph fine-tuning and beam-5
generation on seeded synthetic corpora, timed from outside the package.

    python3 bench/run.py --workload pretrain_webnlg --seed 1 --seconds 42 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced rounds of the same work and
reports per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. bench/README.md describes the workloads and
every metric.
"""

import os

# Pinned before numpy loads: the load is one process with one BLAS thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
PACKAGE = BENCH_DIR.parent / "src" / "graph2text"
OUT_DIR = BENCH_DIR / "out"

if not (PACKAGE / "__init__.py").is_file():
    sys.exit(f"bench: no graph2text package at {PACKAGE}; run from a checkout of the repository")
sys.path.insert(0, str(PACKAGE.parent))

import numpy as np  # noqa: E402

import graph2text  # noqa: E402
from graph2text import data, metrics, training  # noqa: E402
from graph2text.decoder import BeamConfig, DecoderConfig  # noqa: E402
from graph2text.encoder import EncoderConfig  # noqa: E402
from graph2text.model import build_model  # noqa: E402
from graph2text.objectives import OTConfig  # noqa: E402
from graph2text.vocab import build_vocab  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

if Path(graph2text.__file__).resolve().parent != PACKAGE.resolve():
    sys.exit(f"bench: imported graph2text from {graph2text.__file__}, not from {PACKAGE}")


@dataclass(frozen=True)
class Workload:
    task: str  # "pretrain", "finetune" or "generate"
    shape: corpus.Shape


WORKLOADS = {
    # The paper's main training path: three losses per pair, masking and IPOT.
    "pretrain_webnlg": Workload("pretrain", corpus.Shape(1, 64, (2, 8), (8, 30))),
    # The same training layers on large matrices: O(L^2) attention and the
    # |V|^2 relation grid, without masking or IPOT.
    "finetune_large_graph": Workload("finetune", corpus.Shape(1, 64, (16, 24), (40, 63))),
    # Decoder and beam search only; max_len is the reference length + 1.
    "generate_beam5": Workload("generate", corpus.Shape(16, 16, (2, 8), (8, 30))),
}

# The default RunConfig of the command line: d_model 64, 2+2 layers, joint.
ENCODER = EncoderConfig(num_layers=2, num_heads=4, d_model=64, d_ff=128,
                        max_input_len=600, variant="joint")
DECODER = DecoderConfig(num_layers=2, num_heads=4, d_model=64, d_ff=128, max_output_len=64)
BATCH_SIZE = 8
BEAM_SIZE = 5
LENGTH_PENALTY = 1.0

# set-ups before the first round; one more follows every round, so the
# set-up samples span the run like the round samples do
SETUP_REPEATS = 3
CHECKED_SENTENCES = 4

# JSON key -> (name in the report for training, for generation, unit)
END_TO_END = {
    "setup_s": ("setup_s", "setup_s", "s"),
    "pairs_per_s": ("train_pairs_per_s", "gen_sentences_per_s", "1/s"),
    "tokens_per_s": ("train_tokens_per_s", "gen_tokens_per_s", "1/s"),
    "op_ms_p50": ("train_step_ms_p50", "gen_sentence_ms_p50", "ms"),
    "op_ms_p90": ("train_step_ms_p90", "gen_sentence_ms_p90", "ms"),
    "peak_rss_mb": ("peak_rss_mb", "peak_rss_mb", "MB"),
}


def train_config(task: str, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        task=task, seed=seed, batch_size=BATCH_SIZE, loss_weights=(1.0, 1.0, 1.0),
        ot_config=OTConfig(beta=1.0, inner_k=1, outer_n=10),
    )


def beam_for(pair) -> BeamConfig:
    return BeamConfig(beam_size=BEAM_SIZE, length_penalty=LENGTH_PENALTY, max_len=pair.n + 1)


def set_up(workload: Workload, name: str, seed: int):
    """Corpus generation, JSONL write and load, vocabulary and model build."""
    start = perf_counter()
    path = OUT_DIR / f"{name}-seed{seed}.jsonl"
    corpus.write_jsonl(corpus.make_records(workload.shape, seed), path)
    pairs = data.load_corpus(path)
    model = build_model(build_vocab(pairs), ENCODER, DECODER, seed=seed)
    return pairs, model, perf_counter() - start


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "os_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "seed": seed,
    }


@dataclass
class Round:
    seconds: float
    work: int  # pairs trained or sentences generated
    tokens: int
    op_seconds: list
    failed: list  # offsets of failed operations within the round
    outputs: list  # training: step records; generation: ids per sentence
    first_pair: int = 0  # generation: corpus index of the round's first pair
    first_op: int = 0


class Bench:
    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.tracer = spans.Tracer() if trace else None
        self.ops = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self.quality: list[tuple[float, float]] = []
        self.probes: list[tuple] = []

    def report_error(self, what: str) -> None:
        self.errors.append(what)
        print(f"bench: {what}", file=sys.stderr)

    def fail(self, op: int, what: str) -> None:
        self.failed.add(op)
        self.report_error(what)

    # -- rounds ---------------------------------------------------------------

    def train_round(self, index: int, traced: bool) -> Round:
        pairs, model = self.pairs, self.model
        steps = math.ceil(len(pairs) / BATCH_SIZE)
        cfg = train_config(self.workload.task, self.seed * 1_000 + index)
        stamps: list[float] = []
        if traced:
            self.tracer.op_id = self.ops
        start = perf_counter()
        try:
            with spans.step_clock(stamps):
                records = training.train(pairs, model, cfg, OUT_DIR / f"{self.name}-run")
        except Exception:
            records = []
            self.report_error(f"round {index} raised\n{traceback.format_exc(limit=3)}")
        end = perf_counter()
        if len(stamps) == steps:
            op_seconds = np.diff([start] + stamps).tolist()
        else:  # no per-step clock: spread the round evenly
            op_seconds = [(end - start) / steps] * steps
        failed = [k for k in range(steps) if k >= len(records)]
        for k, ok in enumerate(checks.finite_records(records)):
            if not ok:
                failed.append(k)
                self.report_error(f"round {index}, step {k}: non-finite loss {records[k]}")
        tokens = sum(pair.n + 1 for pair in pairs)
        return Round(end - start, len(pairs), tokens, op_seconds, failed, records)

    def generate_round(self, index: int, traced: bool) -> Round:
        block = self.workload.shape.block
        first = index * block % len(self.pairs)
        pairs = self.pairs[first : first + block]
        model = self.model
        outputs, op_seconds, failed = [], [], []
        start = perf_counter()
        for k, pair in enumerate(pairs):
            if traced:
                self.tracer.op_id = self.ops + k
            t0 = perf_counter()
            try:
                ids = model.generate(model.encoder_input(data.linearize(pair.graph)), beam_for(pair))
            except Exception:
                ids = None
                self.report_error(f"sentence {first + k} raised\n{traceback.format_exc(limit=3)}")
                failed.append(k)
            op_seconds.append(perf_counter() - t0)
            outputs.append(ids)
        hypotheses = [model.vocab.decode_ids(ids or []) for ids in outputs]
        report = metrics.evaluate_corpus(hypotheses, [list(pair.text) for pair in pairs])
        end = perf_counter()
        self.quality.append((report.bleu, report.rouge_l))
        tokens = sum(len(ids or []) for ids in outputs)
        return Round(end - start, len(pairs), tokens, op_seconds, failed, outputs, first)

    def run_round(self, index: int, traced: bool) -> Round:
        round_fn = self.generate_round if self.workload.task == "generate" else self.train_round
        if traced:
            self.tracer.install()
        try:
            result = round_fn(index, traced)
        finally:
            if traced:
                self.tracer.uninstall()
        for k in result.failed:
            self.failed.add(self.ops + k)
        result.first_op = self.ops
        self.ops += len(result.op_seconds)
        return result

    # -- the run ----------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        OUT_DIR.mkdir(exist_ok=True)
        setups = []
        for _ in range(SETUP_REPEATS):
            self.pairs, self.model, elapsed = set_up(self.workload, self.name, self.seed)
            setups.append(elapsed)
        if self.workload.task != "generate":
            batch = self.pairs[:BATCH_SIZE]
            self.probes = checks.gradient_probe(self.model, batch, self.workload.task, self.seed)

        rounds: list[Round] = []
        pairs_of_rounds: list[tuple[Round, Round]] = []
        # A lap (one round, or a plain/traced pair, and the set-up after it)
        # starts only if a lap of median length still ends by the deadline,
        # so the run does not overrun --seconds by a lap.
        deadline = perf_counter() + seconds
        laps: list[float] = []
        index = 0
        while not laps or perf_counter() + statistics.median(laps) <= deadline:
            lap_start = perf_counter()
            if self.trace:
                traced_first = index % 2 == 1
                a = self.run_round(index, traced_first)
                b = self.run_round(index, not traced_first)
                plain, traced = (b, a) if traced_first else (a, b)
                pairs_of_rounds.append((plain, traced))
                rounds += [a, b]
            else:
                rounds.append(self.run_round(index, False))
            setups.append(set_up(self.workload, self.name, self.seed)[2])
            laps.append(perf_counter() - lap_start)
            index += 1

        self.check(rounds, pairs_of_rounds)
        result = {
            "workload": self.name,
            "task": self.workload.task,
            "env": environment(self.seed),
            "corpus": corpus.describe(self.pairs, data.linearize),
            "vocab_size": len(self.model.vocab),
            "round_seconds": [r.seconds for r in rounds],
            "ops": self.ops,
            "failed_ops": len(self.failed),
            "errors": self.errors,
            "fd_probes": self.probes,
        }
        if self.quality:
            result["bleu_mean"] = statistics.fmean(q[0] for q in self.quality)
            result["rouge_l_mean"] = statistics.fmean(q[1] for q in self.quality)
        if self.trace:
            result["metrics"], result["traced_wall_s"], result["traced_ops"] = (
                self.layer_metrics(pairs_of_rounds))
            result["absent"] = dict(self.tracer.absent)
        else:
            result["metrics"] = self.end_to_end(setups, rounds)
            result["setup_samples_s"] = setups
        return result

    def check(self, rounds, pairs_of_rounds) -> None:
        """Correctness checks, outside the timed region."""
        for element, analytic, numeric, error in self.probes:
            if not error < checks.FD_TOL:
                self.fail(0, f"gradient probe {element}: backward {analytic:.6e}, "
                                     f"finite difference {numeric:.6e}, error {error:.2e}")
        if self.workload.task != "generate":
            if not checks.finite_params(self.model):
                self.fail(self.ops - 1, "non-finite parameter after training")
            return
        generated = [
            (r.first_op + k, self.pairs[r.first_pair + k], ids)
            for r in rounds for k, ids in enumerate(r.outputs) if ids is not None
        ]
        picks = random.Random(self.seed).sample(generated, min(CHECKED_SENTENCES, len(generated)))
        for op, pair, ids in picks:
            expected = checks.reference_generate(self.model, pair.graph, beam_for(pair))
            if ids != expected:
                self.fail(op, f"sentence {op}: generate gave {ids}, reference {expected}")
        for plain, traced in pairs_of_rounds:
            for k, (a, b) in enumerate(zip(plain.outputs, traced.outputs)):
                if a != b:
                    self.fail(traced.first_op + k, f"traced sentence {k} differs")

    def end_to_end(self, setups, rounds) -> dict:
        op_ms = 1e3 * np.asarray([s for r in rounds for s in r.op_seconds])
        # Round rates at their lower quartile, the rate three rounds in four
        # reach: on a shared host, speed-ups of 20-40 % come and go for 10-25 s
        # and shift a median when they cover half a run (bench/README.md).
        values = {
            "setup_s": statistics.median(setups),
            "pairs_per_s": float(np.percentile([r.work / r.seconds for r in rounds], 25)),
            "tokens_per_s": float(np.percentile([r.tokens / r.seconds for r in rounds], 25)),
            "op_ms_p50": float(np.percentile(op_ms, 50)),
            "op_ms_p90": float(np.percentile(op_ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {key: (value, END_TO_END[key][2]) for key, value in values.items()}

    def layer_metrics(self, pairs_of_rounds) -> dict:
        tracer = self.tracer
        traced_ops = sum(len(t.op_seconds) for _, t in pairs_of_rounds)
        traced_wall = sum(t.seconds for _, t in pairs_of_rounds)
        layer = tracer.layer_metrics(traced_ops)
        layer["trace.overhead_share"] = (
            statistics.median(t.seconds / p.seconds - 1 for p, t in pairs_of_rounds), "ratio")
        layer["trace.remainder_share"] = (1 - tracer.root_seconds() / traced_wall, "ratio")
        tracer.write_spans(OUT_DIR / f"{self.name}-spans.jsonl")

        # data.load_corpus runs once per set-up, not per operation
        setup_tracer = spans.Tracer()
        setup_tracer.install()
        try:
            set_up(self.workload, self.name, self.seed)
        finally:
            setup_tracer.uninstall()
        for key, (value, unit) in setup_tracer.layer_metrics(1).items():
            if key.startswith("data.load_corpus."):
                layer[key] = (value, unit.replace("/op", "/setup"))
        tracer.absent.update(setup_tracer.absent)
        layer["trace.layers_absent"] = (len(tracer.absent), "count")
        return layer, traced_wall, traced_ops


def print_report(bench: Bench, result: dict, seconds: float) -> None:
    env = result["env"]
    print(f"graph2text bench: workload {bench.name}, seed {bench.seed}, "
          f"{seconds:g} s, trace {int(bench.trace)}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("corpus: " + json.dumps(result["corpus"]) + f", vocab {result['vocab_size']}")
    op_word = "sentences" if bench.workload.task == "generate" else "steps"
    if bench.trace:
        layer = result["metrics"]
        print(f"per layer, per {op_word[:-1]} over {result['traced_ops']} traced {op_word} "
              f"({result['traced_wall_s']:.2f} s traced wall):")
        print(f"  {'layer':42s} {'calls':>9s} {'self ms':>10s} {'share':>7s}")
        per_op_wall = 1e3 * result["traced_wall_s"] / result["traced_ops"]
        rows = [(k[: -len(".self_ms")], layer[k[: -len("self_ms")] + "calls"][0], v)
                for k, (v, _) in layer.items() if k.endswith(".self_ms")
                and not k.startswith("data.load_corpus.")]
        for name, calls, self_ms in sorted(rows, key=lambda row: -row[2]):
            if calls:
                print(f"  {name:42s} {calls:9.2f} {self_ms:10.3f} {self_ms / per_op_wall:7.1%}")
        remainder = layer["trace.remainder_share"][0]
        print(f"  {'(outside every span)':42s} {'':9s} {remainder * per_op_wall:10.3f} "
              f"{remainder:7.1%}")
        idle = sorted(name for name, calls, _ in rows
                      if not calls and name not in bench.tracer.absent)
        print(f"  not called: {', '.join(idle) or 'none'}")
        for key, (value, unit) in layer.items():
            if not key.endswith((".calls", ".self_ms")) or key.startswith("data.load_corpus."):
                print(f"  {key} = {value:.6g} {unit}")
        for name, reason in bench.tracer.absent.items():
            print(f"  absent: {name} ({reason})")
    else:
        column = 1 if bench.workload.task == "generate" else 0
        print("end to end (untraced):")
        for key, (value, unit) in result["metrics"].items():
            print(f"  {END_TO_END[key][column]:22s} {value:12.4f} {unit:4s} (json: {key})")
        print(f"  {'failed_share':22s} {len(bench.failed) / max(bench.ops, 1):12.4f} "
              f"     ({len(bench.failed)} of {bench.ops} {op_word})")
    if "bleu_mean" in result:
        print(f"quality of the untrained model: BLEU {result['bleu_mean']:.2f}, "
              f"ROUGE-L {result['rouge_l_mean']:.2f}")
    for element, analytic, numeric, error in bench.probes:
        print(f"check: d loss / d {element}: backward {analytic:+.6e}, "
              f"finite difference {numeric:+.6e}, error {error:.1e}")
    print(f"checks: {len(bench.errors)} failure(s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench = Bench(args.workload, args.seed, bool(args.trace))
    result = bench.run(args.seconds)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_report(bench, result, args.seconds)
    print(json.dumps({
        "correct": not bench.failed,
        "attempted": bench.ops,
        "failed": len(bench.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
