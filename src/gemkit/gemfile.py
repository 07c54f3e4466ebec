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
Syntax problems raise ParseError (with line/column); structural problems
(bad matchings, id clashes) raise the usual validation errors.
"""

from __future__ import annotations

import re

from .core import ColoredGraph, LabeledGem, new_graph
from .errors import ColorOutOfRange, ParseError, VertexCountMismatch

_TOKEN = re.compile(r"\S+")
_PAIR = re.compile(r"^(\d+)-(\d+)$")

# Colorblind-friendly fixed palette for DOT edges, color index -> RGB.
DOT_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)


def _tokens(raw: str):
    """(token, 1-based column) pairs of the line with comments stripped."""
    code = raw.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]


def parse_gem(text: str) -> LabeledGem:
    n_colors = None
    num_vertices = None
    labels: dict[int, str] = {}
    pairs: dict[int, list] = {}
    saw_header = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        word, col0 = toks[0]
        if not saw_header:
            if word != "gem" or len(toks) != 2 or toks[1][0] != "1":
                raise ParseError("file must start with 'gem 1'", line_no, col0)
            saw_header = True
            continue
        if word == "colors":
            if len(toks) != 2 or not toks[1][0].isdigit():
                raise ParseError("expected: colors <count>", line_no, col0)
            n_colors = int(toks[1][0])
            continue
        if word == "vertices":
            if len(toks) != 2 or not toks[1][0].isdigit():
                raise ParseError("expected: vertices <count>", line_no, col0)
            num_vertices = int(toks[1][0])
            continue
        if word == "label":
            if len(toks) != 3 or not toks[1][0].isdigit():
                raise ParseError("expected: label <id> <name>", line_no, col0)
            if num_vertices is None:
                raise ParseError("'vertices' must come before labels", line_no, col0)
            vid = int(toks[1][0])
            if vid >= num_vertices:
                raise ParseError(
                    f"label for vertex {vid} but only {num_vertices} vertices",
                    line_no, toks[1][1])
            if vid in labels:
                raise ParseError(f"vertex {vid} labeled twice", line_no, toks[1][1])
            labels[vid] = toks[2][0]
            continue
        if word == "c":
            if n_colors is None or num_vertices is None:
                raise ParseError(
                    "'colors' and 'vertices' must come before edge lines",
                    line_no, col0)
            if len(toks) < 2:
                raise ParseError("expected: c <color>: a-b ...", line_no, col0)
            ctok, ccol = toks[1]
            if not ctok.endswith(":") or not ctok[:-1].isdigit():
                raise ParseError(f"expected '<color>:', got {ctok!r}", line_no, ccol)
            color = int(ctok[:-1])
            if color >= n_colors:
                raise ColorOutOfRange(
                    f"line {line_no}: color {color} not in 0..{n_colors - 1}")
            bucket = pairs.setdefault(color, [])
            for tok, col in toks[2:]:
                m = _PAIR.match(tok)
                if not m:
                    raise ParseError(f"expected 'a-b' pair, got {tok!r}", line_no, col)
                bucket.append((int(m.group(1)), int(m.group(2))))
            continue
        raise ParseError(f"unknown statement {word!r}", line_no, col0)
    if not saw_header:
        raise ParseError("empty file; expected 'gem 1' header", 1, 1)
    if n_colors is None:
        raise ParseError("missing 'colors' line", 1, 1)
    if num_vertices is None:
        raise ParseError("missing 'vertices' line", 1, 1)
    # every color must match every vertex, so a count its pairs cannot
    # cover is refused before new_graph allocates arrays of that size
    for c in range(n_colors):
        missing = num_vertices - 2 * len(pairs.get(c, ()))
        if missing > 0:
            raise VertexCountMismatch(
                f"color {c}: {missing} of {num_vertices} vertices have no edge")
    graph = new_graph(
        n_colors,
        [pairs.get(c, []) for c in range(n_colors)],
        num_vertices=num_vertices)
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
    for v, name in enumerate(gem.labels):
        if name != str(v):
            lines.append(f"label {v} {name}")
    for c in range(graph.n_colors):
        body = " ".join(f"{a}-{b}" for a, b in graph.edges(c))
        lines.append(f"c {c}: {body}")
    return "\n".join(lines) + "\n"


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
    return "\n".join(lines) + "\n"


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
    return "\n".join(rows) + "\n"
