"""N-Quads parsing and serialization (dataset interchange).

Same line grammar as N-Triples with an optional fourth position naming the
graph.  This is how an expanded dataset — base graph plus materialized
view graphs — round-trips to disk in one file.

Parsing runs the bulk, memoized :class:`~repro.rdf.ntriples.BulkParser`:
each target graph receives its triples in one ``add_ids_bulk`` (one
version bump per graph), and a parse that raises adds nothing — no
triples, no terms, no named graphs.  Serialization renders each distinct
term once per call.
"""

from __future__ import annotations

from .dataset import Dataset
from .ntriples import BulkParser, N3Memo

__all__ = ["parse_nquads", "serialize_nquads", "serialize_graph_lines"]


def parse_nquads(text: str, dataset: Dataset | None = None, *,
                 skip_bad_lines: bool = False) -> Dataset:
    """Parse an N-Quads document into a (new or given) dataset.

    With ``skip_bad_lines`` a line that fails to parse or validate is
    dropped and the rest still load — the recovery mode for a torn file.
    """
    if dataset is None:
        dataset = Dataset()
    parser = BulkParser(dataset.dictionary, quads=True,
                        skip_bad_lines=skip_bad_lines)
    parser.feed(text.split("\n")).commit(dataset.default, dataset.graph)
    return dataset


def serialize_graph_lines(dataset: Dataset) -> dict[str, list[str]]:
    """Serialized N-Quads lines per component graph, each sorted.

    Keys are graph IRI values ("" for the default graph); named-graph
    lines carry their graph label, exactly as :func:`serialize_nquads`
    emits them.  The per-graph split is what lets the persistence layer
    checksum each materialized view independently.  Empty graphs have no
    key.
    """
    n3 = N3Memo(dataset.dictionary)
    parts = [("", dataset.default, " .")]
    for name in dataset.names():
        parts.append((name.value, dataset.get_graph(name),
                      f" {name.n3()} ."))
    by_graph: dict[str, list[str]] = {}
    for key, graph, tail in parts:
        if len(graph):
            lines = [f"{n3[s]} {n3[p]} {n3[o]}{tail}"
                     for s, p, o in graph._iter_ids()]
            lines.sort()
            by_graph[key] = lines
    return by_graph


def serialize_nquads(dataset: Dataset) -> str:
    """Serialize a dataset deterministically (sorted lines)."""
    lines = [line for graph_lines in serialize_graph_lines(dataset).values()
             for line in graph_lines]
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")
