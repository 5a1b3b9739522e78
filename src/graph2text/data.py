"""Knowledge-graph data model, triple linearization, and corpus loading.

Positions are 1-based everywhere in this module: token 1 is the first token
of a sequence. The tensor layer converts to 0-based row indices internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import CorpusParseError, GraphHasNoTriples

HEAD_MARKER = "<H>"
RELATION_MARKER = "<R>"
TAIL_MARKER = "<T>"
MARKERS = (HEAD_MARKER, RELATION_MARKER, TAIL_MARKER)


@dataclass(frozen=True)
class KnowledgeGraph:
    """Entity list plus a sparse map of directed relations.

    ``entities[i-1]`` is the surface string of entity i (1-based), and
    ``relations[(i, j)]`` is the surface string of the relation from entity i
    to entity j. Self-loops are allowed. Every entity must take part in at
    least one triple, otherwise it could never receive a position in the
    linearized sequence. A graph is immutable after construction
    (``relations`` is a read-only mapping), so its linearization is built
    once, on first use, and cached.
    """

    entities: tuple[str, ...]
    relations: MappingProxyType[tuple[int, int], str] = field(compare=False)

    def __init__(self, entities, relations):
        object.__setattr__(self, "entities", tuple(entities))
        relations = {(int(i), int(j)): r for (i, j), r in dict(relations).items()}
        object.__setattr__(self, "relations", MappingProxyType(relations))
        self._validate()

    def __reduce__(self):
        # a read-only mapping cannot be pickled or deep-copied; rebuild instead
        return KnowledgeGraph, (self.entities, dict(self.relations))

    def _validate(self):
        if not self.entities:
            raise ValueError("entity list must be non-empty")
        for k, ent in enumerate(self.entities, start=1):
            if not str(ent).split():
                raise ValueError(f"entity {k} has an empty surface string")
        if not self.relations:
            raise GraphHasNoTriples("graph has no triples")
        n = len(self.entities)
        referenced = set()
        for (i, j), rel in self.relations.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"relation ({i}, {j}) references a missing entity (|V|={n})")
            if not str(rel).split():
                raise ValueError(f"relation ({i}, {j}) has an empty surface string")
            referenced.update((i, j))
        missing = set(range(1, n + 1)) - referenced
        if missing:
            raise ValueError(f"entities {sorted(missing)} appear in no triple")

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def triples(self) -> list[tuple[int, str, int]]:
        """All (head, relation, tail) triples in ascending (i, j) order."""
        return [(i, self.relations[(i, j)], j) for (i, j) in sorted(self.relations)]

    def triple_blocks(self):
        """Yield ``(marker, unit, tokens)`` for each block the triples emit,
        in linearization order: per triple in (i, j) order, ``<H>`` and head
        entity i, ``<R>`` and relation (i, j), ``<T>`` and tail entity j.
        ``tokens`` is the unit's surface split on whitespace."""
        surfaces = [e.split() for e in self.entities]
        for i, rel, j in self.triples():
            yield HEAD_MARKER, i, surfaces[i - 1]
            yield RELATION_MARKER, (i, j), rel.split()
            yield TAIL_MARKER, j, surfaces[j - 1]

    @cached_property
    def linearized(self) -> LinearizedGraph:
        """``<H> head <R> relation <T> tail`` per triple in (i, j) order,
        built once on first use.

        Entities occurring in several triples are re-emitted each time; their
        position set is the union over all occurrences.
        """
        if not self.relations:
            raise GraphHasNoTriples("graph has no triples")
        tokens: list[str] = []
        ent_pos: dict[int, set[int]] = {}
        rel_pos: dict[tuple[int, int], set[int]] = {}
        for marker, unit, surface in self.triple_blocks():
            tokens.append(marker)
            positions = range(len(tokens) + 1, len(tokens) + len(surface) + 1)
            tokens.extend(surface)
            if marker == RELATION_MARKER:
                rel_pos[unit] = set(positions)
            else:
                ent_pos.setdefault(unit, set()).update(positions)
        return LinearizedGraph(
            tokens=tuple(tokens),
            entity_positions={i: frozenset(p) for i, p in ent_pos.items()},
            relation_positions={k: frozenset(p) for k, p in rel_pos.items()},
        )


@dataclass(frozen=True)
class LinearizedGraph:
    """Token sequence for a graph plus the position sets of each unit.

    ``entity_positions[i]`` is the set of 1-based token positions occupied by
    entity i across all of its occurrences; ``relation_positions[(i, j)]``
    covers only the relation's own tokens. Marker tokens belong to no unit.
    """

    tokens: tuple[str, ...]
    entity_positions: dict[int, frozenset[int]]
    relation_positions: dict[tuple[int, int], frozenset[int]]

    def __post_init__(self):
        m = len(self.tokens)
        marker_positions = {p for p, t in enumerate(self.tokens, start=1) if t in MARKERS}
        seen: set[int] = set()
        all_sets = list(self.entity_positions.items()) + list(self.relation_positions.items())
        for key, positions in all_sets:
            if not positions:
                raise ValueError(f"unit {key} has an empty position set")
            for p in positions:
                if not 1 <= p <= m:
                    raise ValueError(f"position {p} of unit {key} outside [1, {m}]")
                if p in marker_positions:
                    raise ValueError(f"unit {key} claims marker position {p}")
                if p in seen:
                    raise ValueError(f"position {p} belongs to more than one unit")
                seen.add(p)

    @property
    def m(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class GraphTextPair:
    """A knowledge graph with its target text and optional entity mentions.

    ``entity_mentions[i]`` holds the 1-based text positions whose tokens
    belong to a mention of entity i.
    """

    graph: KnowledgeGraph
    text: tuple[str, ...]
    entity_mentions: dict[int, frozenset[int]] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "text", tuple(self.text))
        if len(self.text) < 1:
            raise ValueError("text must contain at least one token")
        for i, positions in self.entity_mentions.items():
            if not 1 <= i <= self.graph.num_entities:
                raise ValueError(f"mention refers to missing entity {i}")
            for p in positions:
                if not 1 <= p <= len(self.text):
                    raise ValueError(f"mention position {p} outside [1, {len(self.text)}]")

    @property
    def n(self) -> int:
        return len(self.text)


def linearize(graph: KnowledgeGraph) -> LinearizedGraph:
    """The graph's linearization, ``graph.linearized``: computed on the first
    call for a graph and returned as the same object on every later one."""
    return graph.linearized


Unit = tuple[str, "int | tuple[int, int]"]


def unit_sequence(graph: KnowledgeGraph) -> list[Unit]:
    """Entities in index order followed by relations in ascending (i, j).

    Each element is ("entity", i) or ("relation", (i, j)); the list length is
    |V| + |E|.
    """
    units: list[Unit] = [("entity", i) for i in range(1, graph.num_entities + 1)]
    units.extend(("relation", key) for key in sorted(graph.relations))
    return units


def find_entity_mentions(entities: tuple[str, ...], text: tuple[str, ...]) -> dict[int, frozenset[int]]:
    """Exact case-folded token-sequence matches of each entity in the text.

    The text's token positions are indexed once; each entity is compared
    only at the starts where its first token occurs.
    """
    folded_text = [t.casefold() for t in text]
    starts: dict[str, list[int]] = {}
    for start, tok in enumerate(folded_text):
        starts.setdefault(tok, []).append(start)
    mentions: dict[int, frozenset[int]] = {}
    for i, ent in enumerate(entities, start=1):
        ent_toks = [t.casefold() for t in ent.split()]
        if not ent_toks:  # an empty surface matches nowhere
            continue
        width = len(ent_toks)
        hits: set[int] = set()
        for start in starts.get(ent_toks[0], ()):
            if folded_text[start : start + width] == ent_toks:
                hits.update(range(start + 1, start + width + 1))
        if hits:
            mentions[i] = frozenset(hits)
    return mentions


def _parse_record(line_no: int, record: dict) -> GraphTextPair:
    if not isinstance(record, dict):
        raise CorpusParseError(line_no, "record is not a JSON object")
    for key in ("entities", "triples", "text"):
        if key not in record:
            raise CorpusParseError(line_no, f"missing field '{key}'")

    entities = record["entities"]
    if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
        raise CorpusParseError(line_no, "'entities' must be an array of strings")
    entities = tuple(e.casefold() for e in entities)

    if not isinstance(record["triples"], list):
        raise CorpusParseError(line_no, "'triples' must be an array")
    relations: dict[tuple[int, int], str] = {}
    for t in record["triples"]:
        if not (isinstance(t, list) and len(t) == 3 and isinstance(t[1], str)):
            raise CorpusParseError(line_no, f"bad triple {t!r}; expected [head, relation, tail]")
        head, rel, tail = t
        # type(...) is int: JSON true/false load as bool, a subclass of int
        if not (type(head) is int and type(tail) is int):
            raise CorpusParseError(line_no, f"triple indices must be integers, got {t!r}")
        if (head, tail) in relations:
            raise CorpusParseError(line_no, f"duplicate relation for pair ({head}, {tail})")
        relations[(head, tail)] = rel.casefold()

    if not isinstance(record["text"], str):
        raise CorpusParseError(line_no, "'text' must be a string")
    # JSON's \ud800 escape loads as a lone surrogate, which no file can hold
    try:
        "".join((*entities, *relations.values(), record["text"])).encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start : exc.end]
        message = f"string holds {bad!r}, which UTF-8 cannot encode"
        raise CorpusParseError(line_no, message) from None
    text = tuple(record["text"].casefold().split())

    if "mentions" in record and record["mentions"] is not None:
        if not isinstance(record["mentions"], dict):
            raise CorpusParseError(line_no, "'mentions' must be an object")
        mentions: dict[int, frozenset[int]] = {}
        for key, positions in record["mentions"].items():
            try:
                idx = int(key)
            except (TypeError, ValueError):
                raise CorpusParseError(line_no, f"bad mention key {key!r}") from None
            if not isinstance(positions, list):
                raise CorpusParseError(line_no, f"mention positions {positions!r} must be an array")
            if not all(type(p) is int for p in positions):
                raise CorpusParseError(line_no, f"mention positions {positions!r} must be integers")
            mentions[idx] = frozenset(positions)
    else:
        mentions = find_entity_mentions(entities, text)

    # the range and emptiness rules live in the two constructors
    try:
        graph = KnowledgeGraph(entities, relations)
        return GraphTextPair(graph=graph, text=text, entity_mentions=mentions)
    except (ValueError, GraphHasNoTriples) as exc:
        raise CorpusParseError(line_no, str(exc)) from exc


def load_corpus(path) -> list[GraphTextPair]:
    """Read a JSONL corpus file; one graph-text pair per line, in file order."""
    pairs: list[GraphTextPair] = []
    # surrogateescape splits lines as strict decoding would, and keeps each
    # undecodable byte as a lone surrogate for the check below
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = exc.object[exc.start : exc.end].encode("utf-8", "surrogateescape")
                raise CorpusParseError(line_no, f"bytes {bad!r} are not UTF-8") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusParseError(line_no, f"invalid JSON ({exc.msg})") from exc
            pairs.append(_parse_record(line_no, record))
    return pairs
