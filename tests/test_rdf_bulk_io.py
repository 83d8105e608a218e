"""Parity of the bulk, memoized RDF reader and writer with term-at-a-time I/O.

The bulk parser (:class:`repro.rdf.ntriples.BulkParser`) must build exactly
the graph a line-by-line ``_parse_term`` + ``Graph.add`` loop builds: the
same dictionary (terms in the same id order), the same id-triples in the
same insertion order, and the same errors on the same lines.  The memoized
writers must emit the bytes a per-quad ``n3()`` join emits, so saved
catalogs and their checksums do not change.
"""

from __future__ import annotations

import contextlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Sofos
from repro.cube import AnalyticalFacet
from repro.errors import CatalogCorruptError, ParseError, TermError
from repro.rdf import XSD, BlankNode, Dataset, Graph, IRI, Literal, Triple, \
    parse_ntriples, parse_ntriples_file, parse_turtle, serialize_ntriples
from repro.rdf.nquads import parse_nquads, serialize_graph_lines, \
    serialize_nquads
from repro.rdf.ntriples import _parse_term
from repro.rdf.store import STORE_ENV_VAR
from repro.rdf.triples import Quad
from repro.views.persistence import DATASET_FILE, load_expanded, \
    save_expanded

STORES = ("dict", "columnar")
PROPERTY = settings(max_examples=40, deadline=None)


@contextlib.contextmanager
def default_store(kind: str):
    """Make ``kind`` the process-wide default backend for a block."""
    before = os.environ.get(STORE_ENV_VAR)
    os.environ[STORE_ENV_VAR] = kind
    try:
        yield
    finally:
        if before is None:
            del os.environ[STORE_ENV_VAR]
        else:
            os.environ[STORE_ENV_VAR] = before


# --------------------------------------------------------------------------
# the term-at-a-time reference readers
# --------------------------------------------------------------------------

def reference_ntriples(lines, graph: Graph) -> Graph:
    """One ``_parse_term`` per token, one ``Graph.add`` per line."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        s, pos = _parse_term(line, 0, line_no)
        p, pos = _parse_term(line, pos, line_no)
        o, pos = _parse_term(line, pos, line_no)
        rest = line[pos:].strip()
        if rest != ".":
            raise ParseError(f"expected terminating '.', got {rest!r}",
                             line_no)
        graph.add(Triple(s, p, o))
    return graph


def reference_quad(line: str, line_no: int):
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    s, pos = _parse_term(line, 0, line_no)
    p, pos = _parse_term(line, pos, line_no)
    o, pos = _parse_term(line, pos, line_no)
    rest = line[pos:].strip()
    label = None
    if rest != ".":
        label, pos = _parse_term(line, pos, line_no)
        if not isinstance(label, IRI):
            raise ParseError("graph label must be an IRI", line_no)
        rest = line[pos:].strip()
        if rest != ".":
            raise ParseError(f"expected terminating '.', got {rest!r}",
                             line_no)
    Triple.validate(s, p, o)
    return Quad(s, p, o, label)


def reference_nquads(text: str, dataset: Dataset,
                     skip_bad_lines: bool = False) -> Dataset:
    for line_no, line in enumerate(text.split("\n"), start=1):
        try:
            quad = reference_quad(line, line_no)
        except (ParseError, TermError):
            if skip_bad_lines:
                continue
            raise
        if quad is not None:
            dataset.add_quad(quad)
    return dataset


def reference_lines(dataset: Dataset) -> dict[str, list[str]]:
    """Per-graph sorted lines, one ``n3()`` call per term occurrence."""
    by_graph: dict[str, list[str]] = {}
    for quad in dataset.quads():
        parts = [quad.s.n3(), quad.p.n3(), quad.o.n3()]
        if quad.graph is not None:
            parts.append(quad.graph.n3())
        key = quad.graph.value if quad.graph is not None else ""
        by_graph.setdefault(key, []).append(" ".join(parts) + " .")
    for lines in by_graph.values():
        lines.sort()
    return by_graph


def state(graph: Graph) -> tuple:
    return (list(graph.dictionary.terms()), list(graph._iter_ids()),
            list(graph.subject_ids()), len(graph))


def dataset_state(dataset: Dataset) -> tuple:
    return (list(dataset.dictionary.terms()), list(dataset.names()),
            [(list(g._iter_ids()), list(g.subject_ids()))
             for g in [dataset.default]
             + [dataset.get_graph(n) for n in dataset.names()]])


# --------------------------------------------------------------------------
# random documents: terms, and more than one spelling of each
# --------------------------------------------------------------------------

_CHARS = list("ab Z09'\"\\\n\r\t\x00\x07\x7f\x0b\x0c\x1c\x1d\x1e\x85"
              "  é€") + ["\U0001F600"]
_LANGS = ["en", "EN", "en-GB", "En-gB", "fr", "de-AT-1996"]
_DTYPES = [XSD.integer, XSD.string, IRI("http://example.org/dt#T")]

iris = st.text(alphabet="abcxyz019é%#/", min_size=1, max_size=6).map(
    lambda s: IRI("http://example.org/" + s))
bnodes = st.text(alphabet="abAB01_-.", min_size=1, max_size=4).map(BlankNode)
lexicals = st.text(alphabet=st.sampled_from(_CHARS), max_size=6)
literals = st.one_of(
    lexicals.map(Literal),
    st.tuples(lexicals, st.sampled_from(_LANGS)).map(
        lambda t: Literal(t[0], language=t[1])),
    st.tuples(lexicals, st.sampled_from(_DTYPES)).map(
        lambda t: Literal(t[0], t[1])),
)
subjects = st.one_of(iris, bnodes)
objects = st.one_of(iris, bnodes, literals)


def _escape_all(text: str) -> str:
    return "".join(f"\\u{ord(c):04X}" if ord(c) <= 0xFFFF
                   else f"\\U{ord(c):08X}" for c in text)


def spell(term, alternate: bool) -> str:
    """``term.n3()``, or another token text that parses to the same term
    (every character \\u-escaped, the language tag upper-cased, a plain
    string typed explicitly)."""
    if not alternate or not isinstance(term, Literal):
        return term.n3()
    body = f'"{_escape_all(term.lexical)}"'
    if term.language:
        return f"{body}@{term.language.upper()}"
    return f"{body}^^<{term.datatype.value}>"


spelled_triples = st.lists(
    st.tuples(subjects, iris, objects, st.booleans()), max_size=30)
labels = st.one_of(st.none(), iris)
spelled_quads = st.lists(
    st.tuples(subjects, iris, objects, st.booleans(), labels), max_size=30)


def nt_lines(items) -> list[str]:
    return [f"{s.n3()} {p.n3()} {spell(o, alt)} ." for s, p, o, alt in items]


def nq_lines(items) -> list[str]:
    return [f"{s.n3()} {p.n3()} {spell(o, alt)}"
            + (f" {g.n3()}" if g is not None else "") + " ."
            for s, p, o, alt, g in items]


_SEPARATORS = [" ", "  ", "\t", " \t "]


@st.composite
def noisy(draw, lines: list[str]) -> tuple[list[str], str]:
    """Re-lay ``lines`` out non-canonically: tabs, repeated spaces,
    leading/trailing blanks, comments, blank lines, CRLF endings."""
    out: list[str] = []
    for line in lines:
        # find the canonical line's token boundaries by parsing it back
        tokens, pos = [], 0
        body = line[:-2]
        while pos < len(body):
            _term, end = _parse_term(body, pos, 0)
            tokens.append(body[pos:end].strip())
            pos = end
        seps = [draw(st.sampled_from(_SEPARATORS)) for _ in tokens]
        text = draw(st.sampled_from(["", " ", "\t"]))
        for token, sep in zip(tokens, seps):
            text += token + sep
        out.append(text + "." + draw(st.sampled_from(["", " ", "\t"])))
        if draw(st.booleans()):
            out.append(draw(st.sampled_from(
                ["", "   ", "# a comment <http://x/a> .", "\t# indented"])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return out, ending


# --------------------------------------------------------------------------
# N-Triples
# --------------------------------------------------------------------------

class TestNTriplesParity:
    @pytest.mark.parametrize("store", STORES)
    @PROPERTY
    @given(items=spelled_triples, prefix=st.integers(0, 10))
    def test_bulk_equals_term_at_a_time(self, store, items, prefix):
        lines = nt_lines(items)
        head, tail = lines[:prefix], lines[prefix:]
        expected = reference_ntriples(tail, reference_ntriples(
            head, Graph(store=store)))
        graph = reference_ntriples(head, Graph(store=store))
        version, size = graph.version, len(graph)
        parse_ntriples("\n".join(tail), graph)
        assert state(graph) == state(expected)
        assert graph.version == version + (len(graph) > size)

    @pytest.mark.parametrize("store", STORES)
    @PROPERTY
    @given(items=spelled_triples, data=st.data())
    def test_noncanonical_layout_parses_identically(self, store, items,
                                                    data):
        lines = nt_lines(items)
        messy, ending = data.draw(noisy(lines))
        text = ending.join(messy)
        canonical = parse_ntriples("\n".join(lines), Graph(store=store))
        assert state(parse_ntriples(text, Graph(store=store))) \
            == state(canonical)
        assert state(reference_ntriples(text.splitlines(),
                                        Graph(store=store))) \
            == state(canonical)

    @PROPERTY
    @given(items=spelled_triples, data=st.data())
    def test_bad_line_raises_as_before_and_adds_nothing(self, items, data):
        lines = nt_lines(items)
        # misplaced tokens the memo already holds: a canonical line made
        # only of memo hits must still get every positional check
        misplaced = []
        for s, p, o, alt in items:
            if isinstance(o, Literal):
                misplaced.append(f"{spell(o, alt)} {p.n3()} {s.n3()} .")
                misplaced.append(f"{s.n3()} {spell(o, alt)} {s.n3()} .")
            if isinstance(s, BlankNode):
                misplaced.append(f"{s.n3()} {s.n3()} {spell(o, alt)} .")
        bad = data.draw(st.sampled_from([
            "<http://x/a> <http://x/p> <http://x/b>",
            '"lit" <http://x/p> <http://x/b> .',
            '<http://x/a> "lit" <http://x/b> .',
            '<http://x/a> <http://x/p> "bad\\q" .',
            "<http://x/a> <http://x/p> <http://x/b> <http://x/g> .",
            "<http://x/a b> <http://x/p> <http://x/b> .",
            "_:b0 <http://x/p> _:b1 . extra",
            "garbage .",
            '<http://x/a> <http://x/p> "\\uZZZZ" .',
            '<http://x/a> <http://x/p> "\\U00110000" .',
        ] + misplaced))
        at = data.draw(st.one_of(st.just(len(lines)),
                                 st.integers(0, len(lines))))
        text = "\n".join(lines[:at] + [bad] + lines[at:])

        with pytest.raises((ParseError, TermError)) as expected:
            reference_ntriples(text.splitlines(), Graph())
        graph = parse_ntriples('<http://x/seed> <http://x/p> "0" .')
        before = state(graph), graph.version
        with pytest.raises(type(expected.value)) as raised:
            parse_ntriples(text, graph)
        assert str(raised.value) == str(expected.value)
        assert getattr(raised.value, "line", None) == \
            getattr(expected.value, "line", None)
        assert (state(graph), graph.version) == before

    @pytest.mark.parametrize("line", [
        '"x" <http://x/p> <http://x/a> .',       # literal subject
        '<http://x/a> "x" <http://x/a> .',       # literal predicate
        "_:b <http://x/p> <http://x/a> .",       # fine: blank subject
        "<http://x/a> _:b <http://x/a> .",       # blank predicate
    ])
    def test_positions_checked_on_memoized_lines(self, line):
        seen = '<http://x/a> <http://x/p> "x" .\n' \
            "<http://x/a> <http://x/p> _:b .\n"
        if line.startswith("_:"):
            assert len(parse_ntriples(seen + line)) == 3
            return
        with pytest.raises(TermError):
            parse_ntriples(seen + line)

    @pytest.mark.parametrize("store", STORES)
    def test_one_version_bump_and_one_changelog_window(self, store):
        graph = parse_ntriples("<http://x/a> <http://x/p> <http://x/b> .",
                               Graph(store=store))
        log = graph.subscribe()
        version = graph.version
        text = "\n".join(f"<http://x/s{i}> <http://x/p> \"{i}\" ."
                         for i in range(50))
        parse_ntriples(text + "\n<http://x/a> <http://x/p> <http://x/b> .",
                       graph)
        assert graph.version == version + 1
        delta = log.drain()
        assert (delta.from_version, delta.to_version) == \
            (version, version + 1)
        assert len(delta.inserted) == 50 and not delta.deleted
        assert set(delta.inserted) == set(graph._iter_ids()) - {
            tuple(graph.dictionary.lookup(t) for t in
                  (IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b")))}
        log.close()

    def test_parse_adding_nothing_leaves_version(self):
        graph = parse_ntriples("<http://x/a> <http://x/p> <http://x/b> .")
        version = graph.version
        parse_ntriples("# only a comment\n\n<http://x/a> <http://x/p> "
                       "<http://x/b> .", graph)
        assert graph.version == version

    def test_file_parse_streams_the_same_graph(self, tmp_path):
        text = "\n".join(nt_lines([
            (IRI("http://x/a"), IRI("http://x/p"), Literal("a\nb"), True),
            (BlankNode("b0"), IRI("http://x/p"), Literal("x", language="EN"),
             False),
            (IRI("http://x/a"), IRI("http://x/q"), BlankNode("b0"), False),
        ])) + "\r\n# trailing comment\r\n"
        path = tmp_path / "doc.nt"
        path.write_bytes(text.encode("utf-8"))
        assert state(parse_ntriples_file(str(path))) == \
            state(parse_ntriples(text))

    def test_turtle_and_graph_constructor_insert_in_bulk(self):
        triples = [Triple(IRI(f"http://x/s{i}"), IRI("http://x/p"),
                          Literal(str(i))) for i in range(5)]
        graph = Graph(triples=triples)
        assert graph.version == 1 and list(graph) == triples
        reference = Graph()
        for t in triples:
            reference.add(t)
        assert state(graph) == state(reference)
        ttl = parse_turtle("@prefix ex: <http://x/> .\n"
                           "ex:a ex:p ex:b , ex:c ; ex:q 5 .")
        assert ttl.version == 1 and len(ttl) == 3

    def test_serialize_ntriples_matches_per_triple_n3(self):
        graph = parse_ntriples("\n".join(nt_lines([
            (IRI("http://x/a"), IRI("http://x/p"),
             Literal("q\"\\\n \x85"), False),
            (IRI("http://x/a"), IRI("http://x/p"),
             Literal("t", IRI("http://x/dt")), False),
        ])))
        assert serialize_ntriples(graph) == "".join(
            line + "\n" for line in sorted(t.n3() for t in graph))


# --------------------------------------------------------------------------
# N-Quads
# --------------------------------------------------------------------------

class TestNQuadsParity:
    @pytest.mark.parametrize("store", STORES)
    @PROPERTY
    @given(items=spelled_quads)
    def test_bulk_equals_term_at_a_time(self, store, items):
        text = "\n".join(nq_lines(items))
        with default_store(store):
            expected = reference_nquads(text, Dataset())
            parsed = parse_nquads(text)
        assert dataset_state(parsed) == dataset_state(expected)
        assert serialize_graph_lines(parsed) == reference_lines(expected)

    @PROPERTY
    @given(items=spelled_quads, data=st.data())
    def test_noncanonical_layout_parses_identically(self, items, data):
        lines = nq_lines(items)
        messy, ending = data.draw(noisy(lines))
        canonical = parse_nquads("\n".join(lines))
        assert dataset_state(parse_nquads(ending.join(messy))) \
            == dataset_state(canonical)

    @PROPERTY
    @given(items=spelled_quads, data=st.data())
    def test_skip_bad_lines_drops_exactly_the_bad_lines(self, items, data):
        lines = nq_lines(items)
        bad = data.draw(st.lists(st.sampled_from([
            '<http://x/a> <http://x/p> <http://x/b> "g" .',
            '"lit" <http://x/p> <http://x/b> <http://x/g> .',
            "<http://x/a> <http://x/p> <http://x/tor",
            '<http://x/a> <http://x/p> "bad\\q" <http://x/g2> .',
        ]), max_size=4))
        for line in bad:
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        text = "\n".join(lines)
        expected = reference_nquads(text, Dataset(), skip_bad_lines=True)
        parsed = parse_nquads(text, skip_bad_lines=True)
        assert dataset_state(parsed) == dataset_state(expected)

    def test_literal_graph_label_rejected_even_when_memoized(self):
        with pytest.raises(ParseError) as exc:
            parse_nquads('<http://x/a> <http://x/p> "g" .\n'
                         '<http://x/a> <http://x/p> <http://x/b> "g" .')
        assert exc.value.line == 2

    def test_token_as_term_and_as_graph_label(self):
        g = "<http://x/g>"
        text = "\n".join([
            f"<http://x/a> <http://x/p> <http://x/b> {g} .",   # label only
            f"<http://x/a> <http://x/p> {g} {g} .",            # both
            f"{g} <http://x/p> <http://x/a> .",                # term only
            f"{g} {g} {g} {g} .",
        ])
        parsed = parse_nquads(text)
        assert dataset_state(parsed) == \
            dataset_state(reference_nquads(text, Dataset()))
        named = parsed.get_graph(IRI("http://x/g"))
        assert len(named) == 3 and len(parsed.default) == 1
        gid = parsed.dictionary.lookup(IRI("http://x/g"))
        assert (gid, gid, gid) in set(named._iter_ids())

    def test_label_only_iri_is_not_interned(self):
        parsed = parse_nquads("<http://x/a> <http://x/p> <http://x/b> "
                              "<http://x/g> .")
        assert IRI("http://x/g") not in parsed.dictionary
        assert list(parsed.names()) == [IRI("http://x/g")]

    def test_failed_parse_creates_no_graph(self):
        dataset = Dataset()
        with pytest.raises(ParseError):
            parse_nquads("<http://x/a> <http://x/p> <http://x/b> "
                         "<http://x/g> .\n<http://x/a> <http://x/p>", dataset)
        assert list(dataset.names()) == [] and len(dataset) == 0
        assert len(dataset.dictionary) == 0

    def test_serialize_nquads_matches_per_quad_n3(self):
        dataset = Dataset()
        dataset.add_quad(Quad(IRI("http://x/a"), IRI("http://x/p"),
                              Literal("é \"", language="en"), None))
        dataset.add_quad(Quad(IRI("http://x/a"), IRI("http://x/p"),
                              BlankNode("b1"), IRI("http://x/g")))
        dataset.graph(IRI("http://x/empty"))
        lines = sorted(line for graph_lines in
                       reference_lines(dataset).values()
                       for line in graph_lines)
        assert serialize_nquads(dataset) == "\n".join(lines) + "\n"
        assert serialize_graph_lines(dataset) == reference_lines(dataset)


# --------------------------------------------------------------------------
# persistence: the saved bytes and their verification
# --------------------------------------------------------------------------

def _saved_text(catalog) -> str:
    lines = sorted(line for graph_lines in
                   reference_lines(catalog.dataset).values()
                   for line in graph_lines)
    return "\n".join(lines) + ("\n" if lines else "")


class TestSavedBytes:
    @pytest.mark.parametrize("fixture", ["tiny_dbpedia", "tiny_lubm",
                                         "tiny_swdf"])
    def test_expanded_nq_equals_term_at_a_time_serialization(
            self, fixture, request, tmp_path):
        loaded = request.getfixturevalue(fixture)
        facet = loaded.facet()
        sofos = Sofos(loaded.graph.copy(), facet, seed=0)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        text = (tmp_path / DATASET_FILE).read_text(encoding="utf-8")
        assert text == _saved_text(catalog)
        dataset, restored = load_expanded(str(tmp_path), facet)
        assert serialize_graph_lines(dataset) == reference_lines(dataset)
        assert len(restored) == len(catalog)

    @staticmethod
    def _escaped_view(tmp_path):
        """A saved catalog whose view holds escaped group-key literals;
        returns the facet, the dataset path, its text and one view line
        carrying a ``\\n`` escape."""
        graph = parse_turtle('''
            @prefix ex: <http://example.org/> .
            ex:o1 ex:of ex:a ; ex:pop 3 .
            ex:o2 ex:of ex:b ; ex:pop 4 .
            ex:a ex:name "Quote \\" and\\nbreak" .
            ex:b ex:name "Tab\\there" .
        ''')
        facet = AnalyticalFacet.from_query("names", '''
            PREFIX ex: <http://example.org/>
            SELECT ?name (SUM(?pop) AS ?total) WHERE {
              ?o ex:of ?c ; ex:pop ?pop . ?c ex:name ?name .
            } GROUP BY ?name
        ''')
        sofos = Sofos(graph, facet, seed=0)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        path = tmp_path / DATASET_FILE
        text = path.read_text(encoding="utf-8")
        assert text == _saved_text(catalog)
        view_lines = [line for line in text.splitlines()
                      if "\\n" in line and "sofos" in line]
        assert view_lines, "the view must hold the escaped group key"
        return facet, path, text, view_lines[0]

    def test_changed_escape_in_a_view_literal_is_caught(self, tmp_path):
        facet, path, text, victim = self._escaped_view(tmp_path)
        path.write_text(text.replace(victim, victim.replace("\\n", "\\r")),
                        encoding="utf-8")
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert exc.value.path == str(path)
        _dataset, restored = load_expanded(str(tmp_path), facet,
                                           recover=True)
        assert restored.recovery.base_verified
        assert len(restored.recovery.rebuilding) == 1

    def test_malformed_escape_is_a_typed_error_and_recoverable(
            self, tmp_path):
        facet, path, text, victim = self._escaped_view(tmp_path)
        path.write_text(text.replace(victim, victim.replace("\\n",
                                                            "\\uZZZZ")),
                        encoding="utf-8")
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert "invalid escape code point" in str(exc.value)
        _dataset, restored = load_expanded(str(tmp_path), facet,
                                           recover=True)
        assert restored.recovery.base_verified
        assert len(restored.recovery.rebuilding) == 1

    def test_manifest_checksums_match_reference_lines(self, tmp_path,
                                                      population_facet):
        from tests.conftest import build_population_graph
        import hashlib
        sofos = Sofos(build_population_graph(), population_facet, seed=0)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        manifest = json.loads((tmp_path / "catalog.json").read_text())
        expected = {key: hashlib.sha256(
            "\n".join(lines).encode("utf-8")).hexdigest()
            for key, lines in reference_lines(catalog.dataset).items()}
        recorded = manifest["checksums"]["graphs"]
        assert {k: v for k, v in recorded.items() if k in expected} \
            == expected
