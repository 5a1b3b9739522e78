import itertools
import math

import numpy as np
import pytest

from graph2text import decoder as decoder_module
from graph2text import model as model_module
from graph2text.autograd import cross_entropy, grad_check, log_softmax, no_grad
from graph2text.data import linearize
from graph2text.decoder import BeamConfig, beam_search, decode_train, generate
from graph2text.errors import LengthError
from graph2text.synth import build_toy_model, overfit_corpus
from graph2text.training import TrainConfig, train
from graph2text.vocab import EOS_ID


@pytest.fixture
def setup():
    model, corpus = build_toy_model()
    pair = corpus[0]
    inp = model.encoder_input(linearize(pair.graph))
    with no_grad():
        enc = model.encode(inp)
    return model, pair, enc


class TestDecodeTrain:
    def test_logit_shape_single_token(self, setup):
        model, pair, enc = setup
        logits, states = model.decode_train([5], enc)
        assert logits.shape == (1, len(model.vocab))
        assert states.shape == (1, 16)

    def test_causality_exact(self, setup):
        model, pair, enc = setup
        targets = model.target_ids(pair.text)
        with no_grad():
            base, _ = model.decode_train(targets, enc)
        for j in range(1, len(targets)):
            perturbed = targets.copy()
            perturbed[j] = (perturbed[j] + 1) % len(model.vocab)
            with no_grad():
                out, _ = model.decode_train(perturbed, enc)
            # logits at positions <= j read only targets < j, hence unchanged
            assert np.array_equal(out.data[: j + 1], base.data[: j + 1])

    def test_over_length_rejected(self, setup):
        model, pair, enc = setup
        with pytest.raises(LengthError):
            model.decode_train(np.zeros(99, dtype=np.int64), enc)

    def test_tied_head_is_embedding_dot_product(self, setup):
        model, pair, enc = setup
        targets = model.target_ids(pair.text)
        with no_grad():
            logits, states = model.decode_train(targets, enc)
        emb = model.store["tok_emb"].data
        for t in (0, 3, 7):
            assert np.allclose(logits.data[:, t], states.data @ emb[t], atol=1e-12)

    def test_gradient_through_decoder_and_loss(self, setup):
        model, pair, enc_unused = setup
        inp = model.encoder_input(linearize(pair.graph))
        targets = model.target_ids(pair.text)

        def f():
            states = model.encode(inp)
            logits, _ = model.decode_train(targets, states)
            return cross_entropy(logits, targets)

        report = grad_check(f, model.store, tol=1e-4)
        assert report.passed, report.worst()


def table_logprobs(table):
    """Log-probability lookup with a default distribution for unseen prefixes."""

    def logprobs(prefix):
        probs = table.get(tuple(prefix), table["default"])
        return np.log(np.asarray(probs))

    return logprobs


class PrefixRows:
    """The generated prefix behind each row of a beam_search step block.

    The first call extends the empty root row with <BOS>, which is not part
    of a prefix; each later call appends one token to a parent row's prefix.
    One tracker follows one search.
    """

    def __init__(self):
        self.rows = None

    def advance(self, parent_rows, last_tokens):
        if self.rows is None:
            self.rows = [[] for _ in parent_rows]
        else:
            self.rows = [self.rows[p] + [int(t)] for p, t in zip(parent_rows, last_tokens)]
        return self.rows


def block_step(prefix_logprobs):
    """Adapt a prefix -> log-probs function to beam_search's step protocol."""
    prefixes = PrefixRows()

    def step(parent_rows, last_tokens):
        return np.stack([prefix_logprobs(p) for p in prefixes.advance(parent_rows, last_tokens)])

    return step


def table_step_fn(table, vocab_size):
    """A fresh beam_search step function over the lookup table."""
    return block_step(table_logprobs(table))


@pytest.mark.parametrize("max_len", [0, -1])
def test_beam_config_rejects_max_len_below_one(max_len):
    with pytest.raises(ValueError, match=f"^max_len must be at least 1, got {max_len}$"):
        BeamConfig(beam_size=1, max_len=max_len)


class TestBeamSearch:
    # hand-built 3-token world: ids 0 = filler, 1 = "a", EOS_ID = 2
    def _table(self):
        return {
            (): [0.05, 0.65, 0.30],
            (1,): [0.05, 0.35, 0.60],
            (1, 1): [0.01, 0.01, 0.98],
            "default": [0.01, 0.01, 0.98],
        }

    def enumerate_best(self, table, penalty, max_len=3):
        """Exhaustive enumeration of every termination pattern's score."""
        step = table_logprobs(table)
        best_score, best_seq = -math.inf, None
        for length in range(1, max_len + 1):
            for body in itertools.product([0, 1], repeat=length - 1):
                seq = list(body) + [EOS_ID]
                score = 0.0
                for k in range(length):
                    score += step(seq[:k])[seq[k]]
                score /= length ** penalty
                if score > best_score or (score == best_score and seq < best_seq):
                    best_score, best_seq = score, seq
            # sequences that hit max_len without the end marker
            if length == max_len:
                for body in itertools.product([0, 1], repeat=max_len):
                    seq = list(body)
                    score = sum(step(seq[:k])[seq[k]] for k in range(max_len))
                    score /= max_len ** penalty
                    if score > best_score or (score == best_score and seq < best_seq):
                        best_score, best_seq = score, seq
        return best_seq

    def test_length_penalty_changes_winner(self):
        table = self._table()
        flat = beam_search(
            table_step_fn(table, 3), BeamConfig(beam_size=3, length_penalty=0.0, max_len=3)
        )
        heavy = beam_search(
            table_step_fn(table, 3), BeamConfig(beam_size=3, length_penalty=5.0, max_len=3)
        )
        assert flat == self.enumerate_best(table, 0.0)
        assert heavy == self.enumerate_best(table, 5.0)
        assert flat != heavy

    def test_beam_one_is_greedy(self):
        table = self._table()
        step = table_logprobs(table)
        out = beam_search(
            table_step_fn(table, 3), BeamConfig(beam_size=1, length_penalty=1.0, max_len=3)
        )
        greedy = []
        for _ in range(3):
            token = int(np.argmax(step(greedy)))
            greedy.append(token)
            if token == EOS_ID:
                break
        assert out == greedy

    def test_zero_penalty_is_pure_logprob_ranking(self):
        table = self._table()
        out = beam_search(
            table_step_fn(table, 3), BeamConfig(beam_size=3, length_penalty=0.0, max_len=3)
        )
        assert out == self.enumerate_best(table, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_beam_never_below_greedy(self, seed):
        rng = np.random.default_rng(seed)
        table = {"default": None}
        vocab = 4
        for length in range(0, 4):
            for prefix in itertools.product(range(vocab), repeat=length):
                p = rng.dirichlet(np.ones(vocab))
                table[prefix] = p
        table["default"] = rng.dirichlet(np.ones(vocab))
        step = table_logprobs(table)
        cfg = BeamConfig(beam_size=2, length_penalty=1.5, max_len=4)

        def penalized(seq):
            score = sum(step(seq[:k])[seq[k]] for k in range(len(seq)))
            return score / (len(seq) ** cfg.length_penalty)

        beam_seq = beam_search(table_step_fn(table, vocab), cfg)
        greedy = []
        for _ in range(cfg.max_len):
            token = int(np.argmax(step(greedy)))
            greedy.append(token)
            if token == EOS_ID:
                break
        assert penalized(beam_seq) >= penalized(greedy) - 1e-12

    def test_greedy_wins_after_its_prefix_leaves_the_beam(self):
        # (1, 0) and (1, 1) push the greedy prefix (0, 0) out of a 2-beam at
        # step 2, but only (0, 0) leads on to a likely <EOS>
        table = {
            (): [0.40, 0.35, 0.25],
            (0,): [0.34, 0.33, 0.33],
            (1,): [0.45, 0.45, 0.10],
            (0, 0): [0.0001, 0.0001, 0.9998],
            "default": [0.40, 0.30, 0.30],
        }
        out = beam_search(
            table_step_fn(table, 3), BeamConfig(beam_size=2, length_penalty=1.0, max_len=3)
        )
        assert out == [0, 0, EOS_ID] == self.enumerate_best(table, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 9, 12])
    def test_top_tokens_is_head_of_stable_argsort(self, k):
        rng = np.random.default_rng(k)
        # coarse values force ties, also across the k-th place
        block = np.round(np.log(rng.dirichlet(np.ones(9), size=6)), 1)
        expected = [
            (row, int(token))
            for row in range(len(block))
            for token in np.argsort(-block[row], kind="stable")[:k]
        ]
        assert decoder_module._top_tokens(block, k) == expected

    def test_tie_breaks_toward_lower_token_id(self):
        table = {
            (): [0.4, 0.4, 0.2],
            (0,): [1e-9, 1e-9, 1.0],
            (1,): [1e-9, 1e-9, 1.0],
            "default": [1e-9, 1e-9, 1.0],
        }
        out = beam_search(
            table_step_fn(table, 3), BeamConfig(beam_size=1, length_penalty=1.0, max_len=2)
        )
        assert out[0] == 0


class TestGenerate:
    def test_generate_returns_ids_without_markers(self, setup):
        model, pair, enc = setup
        out = generate(enc, model.store, model.decoder_config, BeamConfig(beam_size=2, max_len=6))
        assert EOS_ID not in out
        assert len(out) <= 6
        assert all(0 <= t < len(model.vocab) for t in out)

    def test_model_generate_encodes_without_a_graph(self, setup, monkeypatch):
        model, pair, _ = setup
        seen = []

        def capture(states, *args):
            seen.append(states)
            return generate(states, *args)

        monkeypatch.setattr(model_module, "generate", capture)
        model.generate(model.encoder_input(linearize(pair.graph)), BeamConfig(beam_size=2, max_len=3))
        assert len(seen) == 1 and not seen[0].in_graph

    def test_beam_one_matches_manual_greedy(self, setup):
        model, pair, enc = setup
        out = generate(enc, model.store, model.decoder_config, BeamConfig(beam_size=1, max_len=5))
        from graph2text.decoder import lm_logits, teacher_forced_states

        manual = []
        with no_grad():
            for _ in range(5):
                # the decoder reads <BOS> + manual; its last row predicts the next token
                states = teacher_forced_states(manual + [EOS_ID], enc, model.store, model.decoder_config)
                logits = lm_logits(states, model.store).data[-1]
                token = int(np.argmax(logits))
                if token == EOS_ID:
                    break
                manual.append(token)
        assert out == manual


def reference_search(prefix_logprobs, beam):
    """Beam search with one step call per prefix, kept apart from
    ``beam_search``: the score is the log-probability sum over
    length**length_penalty, ties break toward lower ids, candidates sort by
    (-score, seq), and with more than one beam the greedy rollout is a
    candidate. Returns the ids without the end marker."""

    def penalized(total, length):
        return total / (length**beam.length_penalty) if length > 0 else total

    live, finished = [(0.0, [])], []
    for _ in range(beam.max_len):
        candidates = []
        for total, prefix in live:
            logprobs = prefix_logprobs(prefix)
            for token in np.argsort(-logprobs, kind="stable")[: beam.beam_size]:
                seq = prefix + [int(token)]
                extended = total + float(logprobs[token])
                candidates.append((penalized(extended, len(seq)), extended, seq))
        candidates.sort(key=lambda c: (-c[0], c[2]))
        live = []
        for score, total, seq in candidates:
            if seq[-1] == EOS_ID:
                finished.append((score, seq))
            elif len(live) < beam.beam_size:
                live.append((total, seq))
            if len(live) >= beam.beam_size and len(finished) >= beam.beam_size:
                break
        if not live:
            break
    finished.extend((penalized(total, len(seq)), seq) for total, seq in live if seq)
    if beam.beam_size > 1:
        prefix, total = [], 0.0
        for _ in range(beam.max_len):
            logprobs = prefix_logprobs(prefix)
            token = int(np.argmax(logprobs))
            total += float(logprobs[token])
            prefix.append(token)
            if token == EOS_ID:
                break
        finished.append((penalized(total, len(prefix)), prefix))
    finished.sort(key=lambda c: (-c[0], len(c[1]), c[1]))
    return [t for t in finished[0][1] if t != EOS_ID]


def full_recompute_logprobs(model, enc, padding):
    """Next-token log probabilities of a prefix from a teacher-forced pass."""

    def logprobs(prefix):
        with no_grad():
            # decode_train reads <BOS> + targets[:-1]: row len(prefix) predicts
            # the token after the prefix
            logits, _ = model.decode_train(np.asarray(prefix + [EOS_ID]), enc, padding)
            return log_softmax(logits.data[len(prefix)], axis=-1).data

    return logprobs


def check_against_full_recompute(monkeypatch, model, enc, beam, padding=None):
    """Cached ``generate`` must give the reference ids, and every row of every
    step block must match the full recompute of its prefix within 1e-12."""
    cfg = model.decoder_config
    blocks = []
    real_search = decoder_module.beam_search

    def recording_search(step, search_beam, *args, **kwargs):
        prefixes = PrefixRows()

        def recorded(parent_rows, last_tokens):
            block = step(parent_rows, last_tokens)
            blocks.append((prefixes.advance(parent_rows, last_tokens), block.copy()))
            return block

        return real_search(recorded, search_beam, *args, **kwargs)

    monkeypatch.setattr(decoder_module, "beam_search", recording_search)
    ids = generate(enc, model.store, cfg, beam, padding)
    monkeypatch.undo()

    full = full_recompute_logprobs(model, enc, padding)
    clamped = BeamConfig(beam.beam_size, beam.length_penalty, min(beam.max_len, cfg.max_output_len))
    assert ids == reference_search(full, clamped)
    assert 1 <= len(blocks) <= clamped.max_len
    for prefixes, block in blocks:
        assert block.shape == (len(prefixes), len(model.vocab))
        assert len(prefixes) <= beam.beam_size + (beam.beam_size > 1)
        for prefix, row in zip(prefixes, block):
            assert np.max(np.abs(row - full(prefix))) <= 1e-12
    return ids


@pytest.fixture(scope="module")
def criterion5_model():
    corpus = overfit_corpus(20)
    model, _ = build_toy_model(corpus=corpus)
    cfg = TrainConfig(
        learning_rate=3e-3, warmup_ratio=0.0, batch_size=20, epochs=60, seed=11, task="finetune",
    )
    train(corpus, model, cfg)
    return model, corpus


class TestIncrementalGenerate:
    """Cached, batched ``generate`` against a full-recompute search."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("beam_size", [1, 5])
    @pytest.mark.parametrize("penalty", [0.0, 1.0, 2.0])
    def test_untrained_models(self, seed, beam_size, penalty, monkeypatch):
        model, corpus = build_toy_model(corpus=overfit_corpus(20), seed=seed)
        for pair in corpus[seed::7]:
            with no_grad():
                enc = model.encode(model.encoder_input(linearize(pair.graph)))
            beam = BeamConfig(beam_size=beam_size, length_penalty=penalty, max_len=8)
            check_against_full_recompute(monkeypatch, model, enc, beam)

    @pytest.mark.parametrize("beam_size", [1, 5])
    @pytest.mark.parametrize("penalty", [0.0, 1.0, 2.0])
    def test_criterion5_corpus(self, criterion5_model, beam_size, penalty, monkeypatch):
        model, corpus = criterion5_model
        beam = BeamConfig(beam_size=beam_size, length_penalty=penalty, max_len=10)
        ended = 0
        for pair in corpus:
            with no_grad():
                enc = model.encode(model.encoder_input(linearize(pair.graph)))
            ids = check_against_full_recompute(monkeypatch, model, enc, beam)
            ended += len(ids) < beam.max_len
        # a trained model ends sentences with <EOS>: the finished-hypothesis
        # paths of the search are exercised, not only max_len cut-offs
        assert ended >= len(corpus) // 2

    @pytest.mark.parametrize("beam_size", [1, 5])
    def test_encoder_padding(self, setup, beam_size, monkeypatch):
        model, pair, enc = setup
        padding = np.zeros(enc.shape[0], dtype=bool)
        padding[[1, 4, enc.shape[0] - 1]] = True
        beam = BeamConfig(beam_size=beam_size, length_penalty=1.0, max_len=6)
        check_against_full_recompute(monkeypatch, model, enc, beam, padding)

    @pytest.mark.parametrize("beam_size", [1, 5])
    def test_max_len_above_max_output_len(self, setup, beam_size, monkeypatch):
        model, pair, enc = setup
        cfg = model.decoder_config
        beam = BeamConfig(beam_size=beam_size, length_penalty=1.0, max_len=cfg.max_output_len + 5)
        ids = check_against_full_recompute(monkeypatch, model, enc, beam)
        assert len(ids) <= cfg.max_output_len
