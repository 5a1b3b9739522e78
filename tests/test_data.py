import copy
import json
import pickle
import random
from types import MappingProxyType

import pytest

from graph2text.data import (
    GraphTextPair,
    KnowledgeGraph,
    find_entity_mentions,
    linearize,
    load_corpus,
    unit_sequence,
)
from graph2text.errors import CorpusParseError, GraphHasNoTriples

from conftest import make_pair, random_graph


class TestKnowledgeGraph:
    def test_rejects_empty_entities(self):
        with pytest.raises(ValueError):
            KnowledgeGraph((), {(1, 1): "self"})

    def test_rejects_no_triples(self):
        with pytest.raises(GraphHasNoTriples):
            KnowledgeGraph(("a", "b"), {})

    def test_rejects_out_of_range_relation(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(("a", "b"), {(1, 5): "r"})

    def test_rejects_isolated_entity(self):
        # an entity in no triple could never receive linearized positions
        with pytest.raises(ValueError):
            KnowledgeGraph(("a", "b", "c"), {(1, 2): "r"})

    def test_self_loop_allowed(self):
        g = KnowledgeGraph(("a",), {(1, 1): "self"})
        assert g.triples() == [(1, "self", 1)]

    def test_triples_sorted(self):
        g = KnowledgeGraph(("a", "b", "c"), {(2, 1): "x", (1, 3): "y", (1, 2): "z"})
        assert [(i, j) for i, _, j in [(i, r, j) for i, r, j in g.triples()]] == [
            (1, 2), (1, 3), (2, 1),
        ]


class TestLinearize:
    def test_single_triple_positions(self, simple_pair):
        lin = linearize(simple_pair.graph)
        assert lin.tokens == ("<H>", "alan", "bean", "<R>", "mission", "<T>", "apollo", "12")
        assert lin.entity_positions[1] == frozenset({2, 3})
        assert lin.relation_positions[(1, 2)] == frozenset({5})
        assert lin.entity_positions[2] == frozenset({7, 8})

    def test_repeated_entity_unions_positions(self):
        pair = make_pair(("a", "b", "c"), {(1, 2): "r", (1, 3): "s"}, "a r b")
        lin = linearize(pair.graph)
        # entity 1 heads both triples; both <H> slots contribute
        assert lin.entity_positions[1] == frozenset({2, 8})

    def test_no_triples_raises(self):
        g = KnowledgeGraph(("a",), {(1, 1): "r"})
        object.__setattr__(g, "relations", {})
        with pytest.raises(GraphHasNoTriples):
            linearize(g)

    def test_deterministic(self, two_triple_pair):
        a = linearize(two_triple_pair.graph)
        b = linearize(two_triple_pair.graph)
        assert a.tokens == b.tokens
        assert a.entity_positions == b.entity_positions
        assert a.relation_positions == b.relation_positions

    def test_invariants_on_loaded_pairs(self, two_triple_pair):
        lin = linearize(two_triple_pair.graph)
        all_sets = list(lin.entity_positions.values()) + list(lin.relation_positions.values())
        union = set()
        for s in all_sets:
            assert s, "every unit must own at least one position"
            assert not (union & s), "position sets must be pairwise disjoint"
            union |= s
        markers = {p for p, t in enumerate(lin.tokens, start=1) if t in ("<H>", "<R>", "<T>")}
        assert not (union & markers)
        assert all(1 <= p <= lin.m for p in union)

    def test_multi_token_relation(self):
        pair = make_pair(("x", "y"), {(1, 2): "works for"}, "x works for y")
        lin = linearize(pair.graph)
        assert lin.relation_positions[(1, 2)] == frozenset({4, 5})

    def test_invariants_hold_across_a_corpus(self):
        from graph2text.synth import overfit_corpus

        for pair in overfit_corpus(20):
            lin = linearize(pair.graph)  # construction asserts the invariants
            assert set(lin.entity_positions) == set(range(1, pair.graph.num_entities + 1))
            assert set(lin.relation_positions) == set(pair.graph.relations)

    @pytest.mark.parametrize("seed", range(20))
    def test_cached_and_equal_to_a_fresh_build(self, seed):
        entities, relations = random_graph(random.Random(seed))
        graph = KnowledgeGraph(entities, relations)
        lin = linearize(graph)
        assert linearize(graph) is lin
        assert graph.linearized is lin
        fresh = linearize(KnowledgeGraph(entities, relations))
        assert fresh is not lin
        assert fresh == lin
        assert (lin.tokens, lin.entity_positions, lin.relation_positions) == reference_linearize(
            entities, relations)


class TestGraphImmutable:
    def test_relations_reject_item_assignment(self):
        graph = KnowledgeGraph(("a", "b"), {(1, 2): "r"})
        with pytest.raises(TypeError):
            graph.relations[(1, 2)] = "s"
        with pytest.raises(TypeError):
            graph.relations[(2, 1)] = "s"
        with pytest.raises(AttributeError):
            graph.relations.clear()
        assert dict(graph.relations) == {(1, 2): "r"}

    def test_pickle_and_deepcopy_rebuild_the_graph(self):
        graph = KnowledgeGraph(("a b", "c"), {(1, 2): "r s", (2, 2): "t"})
        lin = linearize(graph)
        for copied in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
            assert copied == graph
            assert dict(copied.relations) == dict(graph.relations)
            assert isinstance(copied.relations, MappingProxyType)
            assert linearize(copied) == lin

    def test_caller_dict_is_copied(self):
        relations = {(1, 2): "r"}
        graph = KnowledgeGraph(("a", "b"), relations)
        lin = linearize(graph)
        relations[(2, 1)] = "s"  # the caller's dict is not the graph's
        assert dict(graph.relations) == {(1, 2): "r"}
        assert linearize(graph) is lin


class TestUnitSequence:
    def test_entities_then_relations(self):
        g = KnowledgeGraph(("a", "b"), {(1, 2): "r"})
        assert unit_sequence(g) == [("entity", 1), ("entity", 2), ("relation", (1, 2))]

    def test_self_loop(self):
        g = KnowledgeGraph(("a",), {(1, 1): "r"})
        assert unit_sequence(g) == [("entity", 1), ("relation", (1, 1))]

    def test_relations_ascending(self):
        g = KnowledgeGraph(("a", "b", "c"), {(2, 1): "x", (1, 3): "y"})
        assert unit_sequence(g) == [
            ("entity", 1), ("entity", 2), ("entity", 3),
            ("relation", (1, 3)), ("relation", (2, 1)),
        ]

    def test_length_is_units_count(self, two_triple_pair):
        g = two_triple_pair.graph
        assert len(unit_sequence(g)) == g.num_entities + g.num_relations


class TestMentions:
    def test_exact_match(self):
        mentions = find_entity_mentions(("alan bean",), ("alan", "bean", "walked"))
        assert mentions == {1: frozenset({1, 2})}

    def test_case_folded(self):
        mentions = find_entity_mentions(("Alan",), ("alan", "walked"))
        assert mentions == {1: frozenset({1})}

    def test_multiple_occurrences(self):
        mentions = find_entity_mentions(("bo",), ("bo", "met", "bo"))
        assert mentions == {1: frozenset({1, 3})}

    @pytest.mark.parametrize("entities, text", [
        (("a a",), "a a a"),  # overlapping matches of one entity
        (("a b", "b a"), "a b a b"),  # overlapping matches of two entities
        (("a", "b c"), "a b c a b c"),  # adjacent mentions
        (("a b c d",), "a b c"),  # an entity longer than the text
        (("a b",), "a c a b"),  # first token also occurs where the rest does not follow
        (("", " ", "a"), "a  b"),  # empty and whitespace surfaces find nothing
        (("A B",), "a b"),  # case-folded
    ])
    def test_equals_sliding_window_on_edge_cases(self, entities, text):
        tokens = tuple(text.split())
        assert find_entity_mentions(entities, tokens) == sliding_window_mentions(entities, tokens)

    @pytest.mark.parametrize("seed", range(50))
    def test_equals_sliding_window_on_random_texts(self, seed):
        rng = random.Random(seed)
        words = ["a", "b", "c", "D", "e"][: rng.randint(1, 5)]  # few words: many repeats
        text = tuple(rng.choice(words) for _ in range(rng.randint(1, 30)))
        entities = []
        for _ in range(rng.randint(1, 6)):
            width = rng.randint(1, 4)
            if rng.random() < 0.5 and len(text) >= width:  # a slice of the text: a sure match
                start = rng.randrange(len(text) - width + 1)
                entities.append(" ".join(text[start : start + width]).upper())
            else:
                entities.append(" ".join(rng.choice(words) for _ in range(width)))
        if rng.random() < 0.2:
            entities.append(" " * rng.randint(0, 2))
        entities = tuple(entities)
        assert find_entity_mentions(entities, text) == sliding_window_mentions(entities, text)


def sliding_window_mentions(entities, text):
    """Reference mention search: compare every text window with every
    entity's case-folded tokens."""
    folded = [t.casefold() for t in text]
    mentions = {}
    for i, ent in enumerate(entities, start=1):
        ent_toks = [t.casefold() for t in ent.split()]
        width = len(ent_toks)
        hits = set()
        for start in range(len(folded) - width + 1):
            if folded[start : start + width] == ent_toks:
                hits.update(range(start + 1, start + width + 1))
        if hits:
            mentions[i] = frozenset(hits)
    return mentions


def reference_linearize(entities, relations):
    """Reference linearization: ``<H> head <R> relation <T> tail`` per triple
    in (i, j) order, token by token."""
    tokens, ent_pos, rel_pos = [], {}, {}

    def emit(surface):
        start = len(tokens)
        tokens.extend(surface.split())
        return set(range(start + 1, len(tokens) + 1))

    for (i, j) in sorted(relations):
        tokens.append("<H>")
        ent_pos.setdefault(i, set()).update(emit(entities[i - 1]))
        tokens.append("<R>")
        rel_pos[(i, j)] = emit(relations[(i, j)])
        tokens.append("<T>")
        ent_pos.setdefault(j, set()).update(emit(entities[j - 1]))
    return (tuple(tokens), {i: frozenset(p) for i, p in ent_pos.items()},
            {k: frozenset(p) for k, p in rel_pos.items()})


GOOD_RECORD = {"entities": ["a", "b"], "triples": [[1, "r", 2]], "text": "a r b"}


class TestLoadCorpus:
    def _write(self, tmp_path, records):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write((r if isinstance(r, str) else json.dumps(r)) + "\n")
        return path

    def test_two_line_file(self, tmp_path):
        rec = {"entities": ["a", "b"], "triples": [[1, "r", 2]], "text": "a r b"}
        path = self._write(tmp_path, [rec, rec])
        pairs = load_corpus(path)
        assert len(pairs) == 2
        assert isinstance(pairs[0], GraphTextPair)

    def test_dangling_entity_index(self, tmp_path):
        rec = {"entities": ["a", "b"], "triples": [[1, "r", 5]], "text": "a"}
        path = self._write(tmp_path, [rec])
        with pytest.raises(CorpusParseError) as err:
            load_corpus(path)
        assert err.value.line_no == 1

    def test_malformed_json_names_line(self, tmp_path):
        rec = {"entities": ["a"], "triples": [[1, "r", 1]], "text": "a"}
        path = self._write(tmp_path, [rec, "{not json"])
        with pytest.raises(CorpusParseError) as err:
            load_corpus(path)
        assert err.value.line_no == 2

    def test_computed_mentions(self, tmp_path):
        rec = {
            "entities": ["alan bean"],
            "triples": [[1, "landed", 1]],
            "text": "alan bean walked",
        }
        pairs = load_corpus(self._write(tmp_path, [rec]))
        assert pairs[0].entity_mentions == {1: frozenset({1, 2})}

    def test_explicit_mentions_override(self, tmp_path):
        rec = {
            "entities": ["a"],
            "triples": [[1, "r", 1]],
            "text": "a b a",
            "mentions": {"1": [1]},
        }
        pairs = load_corpus(self._write(tmp_path, [rec]))
        assert pairs[0].entity_mentions == {1: frozenset({1})}

    def test_text_casefolded(self, tmp_path):
        rec = {"entities": ["A"], "triples": [[1, "R", 1]], "text": "A B"}
        pairs = load_corpus(self._write(tmp_path, [rec]))
        assert pairs[0].text == ("a", "b")
        assert pairs[0].graph.entities == ("a",)

    def test_duplicate_relation_rejected(self, tmp_path):
        rec = {
            "entities": ["a", "b"],
            "triples": [[1, "r", 2], [1, "s", 2]],
            "text": "a",
        }
        with pytest.raises(CorpusParseError):
            load_corpus(self._write(tmp_path, [rec]))

    def test_mention_out_of_range(self, tmp_path):
        rec = {
            "entities": ["a"],
            "triples": [[1, "r", 1]],
            "text": "a",
            "mentions": {"1": [9]},
        }
        with pytest.raises(CorpusParseError):
            load_corpus(self._write(tmp_path, [rec]))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mentions", [1]),
            ("mentions", {"1": 3}),
            ("mentions", {"1": [True]}),
            ("triples", [[True, "r", 2]]),
            ("triples", 5),
            # range and emptiness are checked by KnowledgeGraph and GraphTextPair
            ("triples", [[1, "r", 0]]),
            ("text", " "),
            ("mentions", {"3": [1]}),
            ("mentions", {"1": [0]}),
        ],
        ids=["mentions-array", "mention-positions-scalar", "mention-position-bool",
             "triple-bool-index", "triples-scalar", "triple-index-zero", "text-blank",
             "mention-key-missing-entity", "mention-position-zero"],
    )
    def test_malformed_field_is_a_parse_error(self, tmp_path, field, value):
        rec = {"entities": ["a", "b"], "triples": [[1, "r", 2]], "text": "a r b"}
        rec[field] = value
        with pytest.raises(CorpusParseError) as err:
            load_corpus(self._write(tmp_path, [rec]))
        assert err.value.line_no == 1

    @pytest.mark.parametrize("entity", ["", " ", "\t"])
    def test_blank_entity_is_a_parse_error(self, tmp_path, entity):
        # the mention search skips a blank surface, so the graph check names the line
        rec = dict(GOOD_RECORD, entities=[entity, "b"])
        with pytest.raises(CorpusParseError, match="entity 1 has an empty surface string") as err:
            load_corpus(self._write(tmp_path, [rec]))
        assert err.value.line_no == 1

    @pytest.mark.parametrize("field, value", [
        ("entities", ["\ud800x", "b"]),
        ("triples", [[1, "r\udfff", 2]]),
        ("text", "a \ud800 b"),
    ], ids=["entity", "relation", "text"])
    def test_lone_surrogate_names_line(self, tmp_path, field, value):
        # JSON's \ud800 escape loads, but no UTF-8 file (vocab.txt) can hold it
        good = {"entities": ["a", "b"], "triples": [[1, "r", 2]], "text": "a r b"}
        bad = dict(good, **{field: value})
        assert "\\ud" in json.dumps(bad)  # ASCII on disk: only the loaded string is bad
        with pytest.raises(CorpusParseError, match="UTF-8 cannot encode") as err:
            load_corpus(self._write(tmp_path, [good, bad]))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("second_line", [
        b"\xff" + json.dumps(GOOD_RECORD).encode(),
        json.dumps(GOOD_RECORD).encode().replace(b'"a"', b'"a\xff"'),
    ], ids=["before-record", "inside-string"])
    def test_bytes_not_utf8_name_line(self, tmp_path, second_line):
        # the raw line is checked first, so a byte inside a JSON string is not
        # reported as the lone surrogate that surrogateescape decodes it to
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(json.dumps(GOOD_RECORD).encode() + b"\n" + second_line + b"\n")
        with pytest.raises(CorpusParseError, match=r"bytes b'\\xff' are not UTF-8") as err:
            load_corpus(path)
        assert err.value.line_no == 2

    def test_astral_character_from_surrogate_pair_loads(self, tmp_path):
        rec = {"entities": ["a\U0001f600", "b"], "triples": [[1, "r", 2]], "text": "a r b"}
        assert "\\ud83d\\ude00" in json.dumps(rec)
        assert load_corpus(self._write(tmp_path, [rec]))[0].graph.entities[0] == "a\U0001f600"
