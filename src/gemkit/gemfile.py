"""The .gem text format plus DOT and gluing-table exports.

Format, one statement per line, '#' starts a comment anywhere:

    gem 1
    colors 4
    vertices 8
    label 0 x1          # optional; unlabeled vertices default to their id
    c 0: 0-1 2-4 3-5 6-7
    c 1: ...

Every color line lists that color's perfect matching as a-b pairs.  A color
may be split over several 'c' lines; the canonical render emits one line
per color, colors ascending, each pair written small-large and pairs sorted.
Counts, vertex ids and colors are decimal digits (str.isdecimal), so a
superscript digit is a syntax error, not an int() failure; so is a number
longer than int() reads (sys.get_int_max_str_digits(), 4300 by default).

Lines end where str.splitlines ends them: at "\n", "\r\n" and "\r", and
also at "\v", "\f", "\x1c"-"\x1e", "\x85", "\u2028" and "\u2029"; line
numbers in errors count those lines.  Neither the parser nor the renderer
keeps a list of the file's lines: the parser splits the text about 64 KB at
a time, and the renderer joins the label lines into one string before it
builds the edge lines.

The parser reads a line at a time.  A line is split on whitespace; the body
of an edge line gets one verdict from a single regular expression and its
integers are read in one pass into a flat endpoint list per color.  Only a
line that fails is scanned token by token, to name the bad token and its
column.  Syntax problems raise ParseError (with line/column); structural
problems (bad matchings, id clashes) raise the usual validation errors.

Vertex ids are interned as each line is read: the 'vertices' line makes
one tuple(range(V)), and every endpoint and label id in range is replaced
by its object there, so a file holds one int per vertex rather than one per
token.  A count larger than the text's length cannot be matched by the
edge lines that follow, so it allocates nothing and is refused at the end.
The colors are handed to graph_from_endpoints one at a time, and each
endpoint list is freed once its involution is built.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .core import ColoredGraph, LabeledGem, graph_from_endpoints
from .errors import ColorOutOfRange, ParseError, VertexCountMismatch

_TOKEN = re.compile(r"\S+")
_PAIR = re.compile(r"^(\d+)-(\d+)$")
# the body of an edge line: a-b pairs, whitespace between pairs
_PAIRS = re.compile(r"\s*(?:\d+-\d+(?:\s+\d+-\d+)*)?\s*")

# Colorblind-friendly fixed palette for DOT edges, color index -> RGB.
DOT_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)


def _tokens(raw: str):
    """(token, 1-based column) pairs of the line with comments stripped."""
    code = raw.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]


def _column(raw: str, index: int) -> int:
    """1-based column of the line's index-th token; for error messages."""
    return _tokens(raw)[index][1]


def _number(digits: str, raw: str, line_no: int, index: int) -> int:
    """int() of the decimal digits of the line's index-th token; ParseError
    when they are more than int() reads (sys.get_int_max_str_digits())."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{len(digits)}-digit number is too long",
                         line_no, _column(raw, index)) from None


def _pair_ends(raw: str, line_no: int) -> list[int]:
    """An edge line's endpoints read token by token, raising ParseError at
    the first token that is not an a-b pair of readable numbers."""
    ends = []
    for index, (tok, col) in enumerate(_tokens(raw)[2:], start=2):
        m = _PAIR.match(tok)
        if not m:
            raise ParseError(f"expected 'a-b' pair, got {tok!r}", line_no, col)
        ends += (_number(m.group(1), raw, line_no, index),
                 _number(m.group(2), raw, line_no, index))
    return ends


def _shared_ends(body: str, ids: tuple) -> list | tuple | None:
    """The endpoints of a well-formed edge-line body.  When all are in
    range each is the int object ids holds for it, so a file's ids share
    one object each; otherwise they stay as read, for the matching check
    to refuse.  None when a number is too long for int()."""
    try:
        ends = list(map(int, body.replace("-", " ").split()))
    except ValueError:
        return None
    if ends and max(ends) < len(ids):
        return itemgetter(*ends)(ids)
    return ends


def _lines(text: str, block: int = 1 << 16):
    """The lines of text.splitlines(), without a list of them all: the text
    is split a block of about `block` characters at a time, each block cut
    just after a "\n", where every line break rule agrees a line ends."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + block) + 1 or size
        yield from text[start:end].splitlines()
        start = end


def parse_gem(text: str) -> LabeledGem:
    """The gem a .gem text describes.  Lines end where str.splitlines ends
    them, and are split from the text a block at a time, not all at once.
    Raises ParseError, with line and column, for a syntax fault, and the
    validation errors (VertexCountMismatch, LoopEdge, ...) for a well-formed
    text that does not describe a gem."""
    n_colors = None
    num_vertices = None
    ids: tuple[int, ...] = ()
    labels: dict[int, str] = {}
    endpoints: dict[int, list[int]] = {}
    saw_header = False
    for line_no, raw in enumerate(_lines(text), start=1):
        code = raw.split("#", 1)[0]
        # at most three pieces, so an edge line's pairs stay one string
        head = code.split(None, 2)
        if not head:
            continue
        word = head[0]
        if word == "c" and saw_header:
            if n_colors is None or num_vertices is None:
                raise ParseError(
                    "'colors' and 'vertices' must come before edge lines",
                    line_no, _column(raw, 0))
            if len(head) < 2:
                raise ParseError("expected: c <color>: a-b ...", line_no, _column(raw, 0))
            ctok = head[1]
            if not ctok.endswith(":") or not ctok[:-1].isdecimal():
                raise ParseError(f"expected '<color>:', got {ctok!r}",
                                 line_no, _column(raw, 1))
            color = _number(ctok[:-1], raw, line_no, 1)
            if color >= n_colors:
                raise ColorOutOfRange(
                    f"line {line_no}: color {color} not in 0..{n_colors - 1}")
            body = head[2] if len(head) == 3 else ""
            bucket = endpoints.setdefault(color, [])
            ends = _shared_ends(body, ids) if _PAIRS.fullmatch(body) else None
            if ends is None:  # the token scan names the bad or too-long token
                ends = _pair_ends(raw, line_no)
            bucket.extend(ends)
            continue
        toks = code.split()
        if not saw_header:
            if toks != ["gem", "1"]:
                raise ParseError("file must start with 'gem 1'", line_no, _column(raw, 0))
            saw_header = True
            continue
        if word == "colors":
            if len(toks) != 2 or not toks[1].isdecimal():
                raise ParseError("expected: colors <count>", line_no, _column(raw, 0))
            n_colors = _number(toks[1], raw, line_no, 1)
            continue
        if word == "vertices":
            if len(toks) != 2 or not toks[1].isdecimal():
                raise ParseError("expected: vertices <count>", line_no, _column(raw, 0))
            num_vertices = _number(toks[1], raw, line_no, 1)
            # each color's pairs name every vertex, so a count the text
            # cannot hold is refused later, and its ids are never made
            ids = tuple(range(num_vertices)) if num_vertices <= len(text) else ()
            continue
        if word == "label":
            if len(toks) != 3 or not toks[1].isdecimal():
                raise ParseError("expected: label <id> <name>", line_no, _column(raw, 0))
            if num_vertices is None:
                raise ParseError("'vertices' must come before labels", line_no, _column(raw, 0))
            vid = _number(toks[1], raw, line_no, 1)
            if vid >= num_vertices:
                raise ParseError(
                    f"label for vertex {vid} but only {num_vertices} vertices",
                    line_no, _column(raw, 1))
            if vid in labels:
                raise ParseError(f"vertex {vid} labeled twice", line_no, _column(raw, 1))
            labels[ids[vid] if vid < len(ids) else vid] = toks[2]
            continue
        raise ParseError(f"unknown statement {word!r}", line_no, _column(raw, 0))
    if not saw_header:
        raise ParseError("empty file; expected 'gem 1' header", 1, 1)
    if n_colors is None:
        raise ParseError("missing 'colors' line", 1, 1)
    if num_vertices is None:
        raise ParseError("missing 'vertices' line", 1, 1)
    # every color must match every vertex, so a count its pairs cannot
    # cover is refused before any array of that size is allocated
    for c in range(n_colors):
        missing = num_vertices - len(endpoints.get(c, ()))
        if missing > 0:
            raise VertexCountMismatch(
                f"color {c}: {missing} of {num_vertices} vertices have no edge")
    # popped one color at a time, so each list goes once its color is built
    graph = graph_from_endpoints(
        (endpoints.pop(c, []) for c in range(n_colors)), num_vertices)
    full_labels = [labels.get(v, str(v)) for v in range(num_vertices)]
    return LabeledGem(graph, full_labels)


def render_gem(gem: LabeledGem | ColoredGraph, comment: str | None = None) -> str:
    """Canonical text form: sorted pairs, one line per color."""
    if isinstance(gem, ColoredGraph):
        gem = LabeledGem(gem)
    graph = gem.graph
    lines = []
    if comment:
        lines.extend(f"# {c}".rstrip() for c in comment.splitlines())
    lines.append("gem 1")
    lines.append(f"colors {graph.n_colors}")
    lines.append(f"vertices {graph.num_vertices}")
    # the label lines as one string, not one string object per line
    labels = "\n".join([f"label {v} {name}"
                        for v, name in enumerate(gem.labels) if name != str(v)])
    if labels:
        lines.append(labels)
    for c, col in enumerate(graph.involutions):
        body = " ".join([f"{v}-{w}" for v, w in enumerate(col) if v < w])
        lines.append(f"c {c}: {body}")
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(gem: LabeledGem | ColoredGraph, name: str = "gem") -> str:
    """Graphviz source; one edge per colored edge, palette fixed by color."""
    if isinstance(gem, ColoredGraph):
        gem = LabeledGem(gem)
    graph = gem.graph
    lines = [f"graph {name} {{"]
    lines.append("  // edge colors: " + " ".join(
        f"{c}={DOT_PALETTE[c % len(DOT_PALETTE)]}" for c in range(graph.n_colors)))
    lines.append("  node [shape=circle fontsize=10];")
    for v in range(graph.num_vertices):
        lines.append(f"  {_dot_quote(gem.labels[v])};")
    for c in range(graph.n_colors):
        rgb = DOT_PALETTE[c % len(DOT_PALETTE)]
        for a, b in graph.edges(c):
            lines.append(
                f"  {_dot_quote(gem.labels[a])} -- {_dot_quote(gem.labels[b])}"
                f" [color=\"{rgb}\" penwidth=1.6];")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def export_gluings(gem: LabeledGem | ColoredGraph) -> str:
    """Tab-separated facet-gluing table of the encoded complex.

    Row per top simplex (= vertex), one column per color; the entry names
    the simplex glued along that facet.
    """
    if isinstance(gem, ColoredGraph):
        gem = LabeledGem(gem)
    graph = gem.graph
    header = "simplex\t" + "\t".join(f"color{c}" for c in range(graph.n_colors))
    rows = [header]
    for v in range(graph.num_vertices):
        partners = "\t".join(
            gem.labels[graph.involutions[c][v]] for c in range(graph.n_colors))
        rows.append(f"{gem.labels[v]}\t{partners}")
    rows.append("")
    return "\n".join(rows)
