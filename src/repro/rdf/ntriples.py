"""N-Triples parsing and serialization (line-based RDF interchange).

The parser accepts the full N-Triples 1.1 grammar for IRIs, blank nodes and
literals (including ``\\uXXXX``/``\\UXXXXXXXX`` escapes, language tags, and
datatype IRIs); comments and blank lines are skipped.

Parsing is bulk and memoized (:class:`BulkParser`, shared with
:mod:`repro.rdf.nquads`): each distinct token text runs the full term
grammar once per parse call, and a line in canonical layout whose tokens
were all seen before reuses their ids.  The parsed triples land with one
``add_ids_bulk`` per target graph, so a parse bumps the graph's version
once (or not at all when it adds nothing), and a parse that raises adds
nothing — neither triples nor dictionary terms.

Serialization walks the graph's id-triples and renders each distinct term
once per call (:class:`N3Memo`).
"""

from __future__ import annotations

import re
from typing import IO, Callable, Iterable

from ..errors import ParseError, TermError
from .dictionary import TermDictionary
from .graph import Graph
from .terms import XSD, BlankNode, IRI, Literal, Term
from .triples import Triple

__all__ = ["parse_ntriples", "parse_ntriples_file", "parse_term",
           "serialize_ntriples", "write_ntriples", "BulkParser", "N3Memo"]

_TERM_RE = re.compile(
    r"""\s*(?P<tok>
        <(?P<iri>[^<>"{}|^`\\\x00-\x20]*)>
      | _:(?P<bnode>[A-Za-z0-9_.\-]+)
      | "(?P<lex>(?:[^"\\\n\r]|\\.)*)"
        (?: @(?P<lang>[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)
          | \^\^<(?P<dtype>[^<>"{}|^`\\\x00-\x20]*)>
        )?
    )""",
    re.VERBOSE,
)

_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def unescape_string(text: str, line: int | None = None) -> str:
    """Resolve N-Triples string escapes, including \\u and \\U forms."""
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ParseError("dangling backslash in literal", line)
        esc = text[i + 1]
        if esc in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[esc])
            i += 2
        elif esc == "u":
            if i + 6 > n:
                raise ParseError("truncated \\u escape", line)
            out.append(_code_point(text[i + 2:i + 6], line))
            i += 6
        elif esc == "U":
            if i + 10 > n:
                raise ParseError("truncated \\U escape", line)
            out.append(_code_point(text[i + 2:i + 10], line))
            i += 10
        else:
            raise ParseError(f"invalid escape \\{esc}", line)
    return "".join(out)


def _code_point(digits: str, line: int | None) -> str:
    try:
        return chr(int(digits, 16))
    except ValueError:
        raise ParseError(f"invalid escape code point {digits!r}",
                         line) from None


def _match_term(text: str, pos: int, line_no: int) -> re.Match:
    m = _TERM_RE.match(text, pos)
    if m is None:
        raise ParseError(f"expected RDF term near {text[pos:pos + 30]!r}",
                         line_no, pos + 1)
    return m


def _term_from_match(m: re.Match, line_no: int) -> Term:
    if m.group("iri") is not None:
        return IRI(unescape_string(m.group("iri"), line_no))
    if m.group("bnode") is not None:
        return BlankNode(m.group("bnode"))
    lexical = unescape_string(m.group("lex"), line_no)
    lang = m.group("lang")
    dtype = m.group("dtype")
    if lang is not None:
        return Literal(lexical, language=lang)
    if dtype is not None:
        return Literal(lexical, IRI(dtype))
    return Literal(lexical, XSD.string)


def _parse_term(text: str, pos: int, line_no: int) -> tuple[Term, int]:
    m = _match_term(text, pos, line_no)
    return _term_from_match(m, line_no), m.end()


def parse_term(text: str) -> Term:
    """Parse one N-Triples-encoded term (the inverse of ``Term.n3()``).

    Used by the catalog manifest to round-trip group-index keys and
    values; trailing garbage after the term is rejected.
    """
    stripped = text.strip()
    term, pos = _parse_term(stripped, 0, 0)
    if stripped[pos:].strip():
        raise ParseError(f"trailing data after term: {stripped[pos:]!r}", 0)
    return term


class BulkParser:
    """One parse call over N-Triples or N-Quads lines.

    Keeps a memo from token text to term id, split by the positions the
    token's kind may fill (``_subj``: IRIs and blank nodes, ``_pred``:
    IRIs, ``_obj``: every term; ``_labels``: graph-label IRIs, mapped to
    their graph's pending ids).  A line in canonical layout —
    ``T1 T2 T3[ G] .`` with single spaces — whose tokens are all memo hits
    for their positions is taken from the memo.  Every other line runs
    the full line grammar (:meth:`_line`), which checks every position
    and teaches the memo the line's tokens; only a token text the memo
    lacks is unescaped and constructed.  Memo keys are complete tokens,
    and tokens are self-delimiting, so a memo hit reads the line exactly
    as the full grammar would.

    Nothing touches the dictionary or a graph until :meth:`commit`:
    terms the dictionary lacks get provisional ids past its end, in
    first-use order, and ``commit`` interns them in that same order —
    exactly the ids a triple-at-a-time ``Graph.add`` loop would assign.
    With ``skip_bad_lines`` a line that fails to parse or validate is
    dropped whole (the lenient recovery mode of catalog loading).
    """

    def __init__(self, dictionary: TermDictionary, quads: bool = False,
                 skip_bad_lines: bool = False) -> None:
        self._dictionary = dictionary
        self._first_new = len(dictionary)
        self._quads = quads
        self._skip_bad_lines = skip_bad_lines
        self._new_terms: list[Term] = []
        self._new_ids: dict[Term, int] = {}
        self._subj: dict[str, int] = {}
        self._pred: dict[str, int] = {}
        self._obj: dict[str, int] = {}
        self._labels: dict[str, list] = {}
        self._label_terms: dict[str, IRI] = {}
        #: Pending ids of the default graph, then of each named graph in
        #: order of first appearance: flat ``s, p, o, s, p, o, ...`` lists
        #: of ints, which the garbage collector does not track.
        self.default: list[int] = []
        self.named: dict[IRI, list[int]] = {}

    def feed(self, lines: Iterable[str]) -> "BulkParser":
        """Parse ``lines`` (numbered from 1) into the pending ids."""
        subj, pred, obj = self._subj.get, self._pred.get, self._obj.get
        label = self._labels.get
        add = self.default.extend
        quads = self._quads
        for line_no, line in enumerate(lines, start=1):
            head = line.split(" ", 2)
            if len(head) == 3 and head[2][-2:] == " .":
                s = subj(head[0])
                p = pred(head[1])
                if s is not None and p is not None:
                    body = head[2][:-2]
                    o = obj(body)
                    if o is not None:
                        add((s, p, o))
                        continue
                    if quads:
                        o_text, _, g_text = body.rpartition(" ")
                        o = obj(o_text)
                        bucket = label(g_text)
                        if o is not None and bucket is not None:
                            bucket.extend((s, p, o))
                            continue
            if self._skip_bad_lines:
                try:
                    self._line(line, line_no)
                except (ParseError, TermError):
                    continue
            else:
                self._line(line, line_no)
        return self

    def _line(self, raw: str, line_no: int) -> None:
        """A line the memo could not take whole: the full line grammar
        (any whitespace layout, comments), every positional check, then
        the memo learns the line's tokens."""
        line = raw.strip()
        if not line or line.startswith("#"):
            return
        s_text, s, pos = self._token(line, 0, line_no)
        p_text, p, pos = self._token(line, pos, line_no)
        o_text, o, pos = self._token(line, pos, line_no)
        rest = line[pos:].strip()
        g_text = g = None
        if self._quads and rest != ".":
            g_text, g, pos = self._token(line, pos, line_no)
            if not isinstance(g, IRI):
                raise ParseError("graph label must be an IRI", line_no)
            rest = line[pos:].strip()
        if rest != ".":
            raise ParseError(f"expected terminating '.', got {rest!r}",
                             line_no)
        Triple.validate(s, p, o)
        bucket = self.default if g is None else self._bucket(g_text, g)
        bucket.extend((self._intern(s_text, s), self._intern(p_text, p),
                       self._intern(o_text, o)))

    def _token(self, line: str, pos: int, line_no: int
               ) -> tuple[str, Term, int]:
        """Match the token at ``pos``: ``(text, term, end)``.  Only a
        token text the memo lacks is unescaped and constructed."""
        m = _match_term(line, pos, line_no)
        text = m.group("tok")
        tid = self._obj.get(text)
        if tid is not None:
            term = self._term_of(tid)
        else:
            term = self._label_terms.get(text)
            if term is None:
                term = _term_from_match(m, line_no)
        return text, term, m.end()

    def _term_of(self, tid: int) -> Term:
        if tid < self._first_new:
            return self._dictionary.decode(tid)
        return self._new_terms[tid - self._first_new]

    def _intern(self, text: str, term: Term) -> int:
        """The id of a validated token, memoized for the positions its
        kind may fill."""
        tid = self._obj.get(text)
        if tid is not None:
            return tid
        tid = self._dictionary.lookup(term)
        if tid is None:
            tid = self._new_ids.get(term)
            if tid is None:
                tid = self._first_new + len(self._new_terms)
                self._new_ids[term] = tid
                self._new_terms.append(term)
        self._obj[text] = tid
        if not isinstance(term, Literal):
            self._subj[text] = tid
            if isinstance(term, IRI):
                self._pred[text] = tid
        return tid

    def _bucket(self, text: str, name: IRI) -> list:
        bucket = self._labels.get(text)
        if bucket is None:
            bucket = self._labels[text] = self.named.setdefault(name, [])
            self._label_terms[text] = name
        return bucket

    def commit(self, graph: Graph,
               named: Callable[[IRI], Graph] | None = None) -> None:
        """Intern the new terms in first-use order, then insert.

        The default-graph triples go to ``graph`` and each named graph's
        to ``named(label)``, one ``add_ids_bulk`` per non-empty graph.
        """
        if self._new_terms:
            self._dictionary.encode_many(self._new_terms)
        if self.default:
            graph.add_ids_bulk(_triples(self.default))
        for name, ids in self.named.items():
            named(name).add_ids_bulk(_triples(ids))


def _triples(ids: list[int]):
    """Id-triples of a flat id list (zip reuses one tuple as it goes)."""
    it = iter(ids)
    return zip(it, it, it)


def parse_ntriples(text: str, graph: Graph | None = None) -> Graph:
    """Parse an N-Triples document into a (new or given) graph.

    The graph's version moves once; on a parse error nothing is added.
    """
    if graph is None:
        graph = Graph()
    BulkParser(graph.dictionary).feed(text.splitlines()).commit(graph)
    return graph


def parse_ntriples_file(path: str, graph: Graph | None = None) -> Graph:
    """Parse an N-Triples file from disk (streamed line by line)."""
    if graph is None:
        graph = Graph()
    parser = BulkParser(graph.dictionary)
    with open(path, encoding="utf-8") as handle:
        parser.feed(line.rstrip("\n") for line in handle)
    parser.commit(graph)
    return graph


class N3Memo(dict):
    """Term id → ``n3()`` text, each term rendered on first use."""

    __slots__ = ("_decode",)

    def __init__(self, dictionary: TermDictionary) -> None:
        super().__init__()
        self._decode = dictionary.decode

    def __missing__(self, tid: int) -> str:
        text = self[tid] = self._decode(tid).n3()
        return text


def serialize_ntriples(graph: Graph) -> str:
    """Serialize a graph to a deterministic (sorted) N-Triples document."""
    n3 = N3Memo(graph.dictionary)
    lines = sorted([f"{n3[s]} {n3[p]} {n3[o]} ."
                    for s, p, o in graph._iter_ids()])
    return "\n".join(lines) + ("\n" if lines else "")


def write_ntriples(graph: Graph, out: IO[str]) -> int:
    """Stream a graph to a file object; returns the number of triples."""
    n3 = N3Memo(graph.dictionary)
    count = 0
    for s, p, o in graph.match_ids(None, None, None):
        out.write(f"{n3[s]} {n3[p]} {n3[o]} .\n")
        count += 1
    return count
