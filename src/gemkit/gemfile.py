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
keeps a list of the file's lines: the parser reads the text about 64 KB at
a time, and the renderer joins the label lines into one string before it
builds the edge lines.

The parser reads the layout render_gem writes in bulk, and every other
line one statement at a time.  Within a block, a run of lines of the form
'label <digits> <name>' (the name one token, with no '#'), each ended by a
"\n", gets one regular-expression verdict: its tokens are read with one
split, its ids with one pass of int, and it is range- and
duplicate-checked and added as a whole.  A run that fails a check is read
again a line at a time, which names the fault.

An edge line is checked once: with its ASCII digits deleted, its body must
read "- - ... -", which refuses every other character, non-ASCII digits
included.  The body, its separators turned to commas, is then read by the
json module's C scanner, which refuses what that check lets through: an
empty digit run, a separator at either end, a leading zero and a number
longer than int() reads.  Any edge line either step refuses is scanned
token by token, which reads what is well formed and names the first bad
token and its column.  Syntax problems raise ParseError (with
line/column), as does a second 'colors' or 'vertices' line; structural
problems (bad matchings, id clashes) raise the usual validation errors.
render_gem refuses a label the parser would read back as something else,
with UnwritableLabel, before it writes anything.

Vertex ids are interned as each line is read: the 'vertices' line makes
one tuple(range(V)), and every endpoint and label id in range is replaced
by its object there, so a file holds one int per vertex rather than one per
token.  Both ways of reading an edge line give non-negative ints, so the
gather from that tuple is the line's only range test: a line it refuses
with IndexError keeps the ints as read, for the matching check to name the
fault.  A count larger than the text's length cannot be matched by the
edge lines that follow, so it allocates nothing and is refused at the end.
The colors are handed to graph_from_endpoints one at a time, and each
endpoint list is freed once its involution is built.  The exports make
each vertex's text once: export_dot quotes each label once for all its
lines, and export_gluings takes a color's partner names in one itemgetter.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter

from .core import ColoredGraph, LabeledGem, graph_from_endpoints
from .errors import (ColorOutOfRange, ParseError, UnwritableLabel,
                     VertexCountMismatch)

_TOKEN = re.compile(r"\S+")
_PAIR = re.compile(r"^(\d+)-(\d+)$")
# the layout render_gem writes: label lines, each a decimal id and a name
# with no whitespace (so no line break either) and no '#'
_NAME = re.compile(r"[^\s#]+")
_LABEL_RUN = re.compile(rf"(?:label [0-9]+ {_NAME.pattern}\n)+")
_NO_DIGITS = str.maketrans("", "", "0123456789")
# characters parse_gem reads at a time, before cutting after the next "\n"
_BLOCK = 1 << 16

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


def _canonical_pairs(body: str) -> bool:
    """Whether body, its ASCII digits deleted, reads '-', ' ', ..., '-':
    a-b pairs one space apart, but for digit runs that may be empty, which
    json refuses."""
    seps = body.translate(_NO_DIGITS)
    return seps == "- " * (len(seps) // 2) + "-"


def _edge_ends(body: str, raw: str, line_no: int, ids: tuple) -> list | tuple:
    """The endpoints of an edge line, whose pairs are body.  A body whose
    separators _canonical_pairs passes is read by the json module's C
    scanner; any other body, or one json refuses, goes to the token scan,
    which names a bad token.  Both read non-negative ints, so the gather
    from ids is the range test: when all are in range each is the int
    object ids holds for it, so a file's ids share one object each;
    otherwise they stay as read, for the matching check to refuse."""
    ends = None
    if _canonical_pairs(body):
        try:
            ends = json.loads("[" + body.replace("-", ",").replace(" ", ",") + "]")
        except ValueError:
            pass
    if ends is None:
        ends = _pair_ends(raw, line_no)
    if ends:
        try:
            return itemgetter(*ends)(ids)
        except IndexError:
            pass
    return ends


def _add_labels(labels: dict, ids: tuple, run: re.Match) -> int:
    """Add a run of canonical label lines to labels at once and return its
    number of lines; 0, adding nothing, when an id is too long for int(),
    out of range or labelled twice, for the lines to be read one at a time
    and the fault named.  _LABEL_RUN proved each line 'label <id> <name>',
    and the whitespace a name excludes is what str.split breaks on, so the
    run splits into three tokens a line."""
    tokens = run.group().split()
    names = tokens[2::3]
    try:
        vids = list(map(int, tokens[1::3]))
    except ValueError:
        return 0
    if max(vids) >= len(ids):
        return 0
    named = dict(zip(map(ids.__getitem__, vids), names))
    if len(named) < len(names) or not labels.keys().isdisjoint(named):
        return 0
    labels.update(named)
    return len(names)


def _chunks(text: str, block: int):
    """The text a block of about `block` characters at a time, each block
    cut just after a "\n", where every line break rule agrees a line ends.
    Within a block, each run of canonical label lines that starts after a
    "\n" (or at the start) comes as its re.Match, and the text around the
    runs as a list of its lines; together they hold text.splitlines()."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + block) + 1 or size
        pos = at = start
        while (at := text.find("label ", at, end)) >= 0:
            run = ((at == 0 or text[at - 1] == "\n")
                   and _LABEL_RUN.match(text, at, end))
            if run:
                if pos < at:
                    yield text[pos:at].splitlines()
                yield run
                pos = at = run.end()
            else:
                at += 1
        if pos < end:
            yield text[pos:end].splitlines()
        start = end


def parse_gem(text: str) -> LabeledGem:
    """The gem a .gem text describes.  Lines end where str.splitlines ends
    them, and are read from the text a block at a time, not all at once.
    Raises ParseError, with line and column, for a syntax fault, and the
    validation errors (VertexCountMismatch, LoopEdge, ...) for a well-formed
    text that does not describe a gem."""
    n_colors = None
    num_vertices = None
    ids: tuple[int, ...] = ()
    labels: dict[int, str] = {}
    endpoints: dict[int, list[int]] = {}
    count_lines: dict[str, int] = {}  # 'colors' and 'vertices' -> line
    saw_header = False
    line_no = 0
    for chunk in _chunks(text, _BLOCK):
        if type(chunk) is not list:  # a run of canonical label lines
            count = _add_labels(labels, ids, chunk) if ids else 0
            if count:
                line_no += count
                continue
            chunk = chunk.group().splitlines()
        for raw in chunk:
            line_no += 1
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
                endpoints.setdefault(color, []).extend(
                    _edge_ends(body, raw, line_no, ids))
                continue
            toks = code.split()
            if not saw_header:
                if toks != ["gem", "1"]:
                    raise ParseError("file must start with 'gem 1'", line_no, _column(raw, 0))
                saw_header = True
                continue
            if word in ("colors", "vertices"):
                if len(toks) != 2 or not toks[1].isdecimal():
                    raise ParseError(f"expected: {word} <count>", line_no, _column(raw, 0))
                count = _number(toks[1], raw, line_no, 1)
                if word in count_lines:
                    raise ParseError(f"second {word!r} line; the first is line "
                                     f"{count_lines[word]}", line_no, _column(raw, 0))
                count_lines[word] = line_no
                if word == "colors":
                    n_colors = count
                    continue
                num_vertices = count
                # each color's pairs name every vertex, so a count the text
                # cannot hold is refused later, and its ids are never made
                ids = tuple(range(count)) if count <= len(text) else ()
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
    # a tuple, which LabeledGem keeps without a copy
    names = tuple(map(labels.get, range(num_vertices)))
    if None in names:  # an unlabeled vertex is named by its id
        names = [str(v) if name is None else name for v, name in enumerate(names)]
    return LabeledGem(graph, names)


def render_gem(gem: LabeledGem | ColoredGraph, comment: str | None = None) -> str:
    """Canonical text form: sorted pairs, one line per color."""
    if isinstance(gem, ColoredGraph):
        gem = LabeledGem(gem)
    graph = gem.graph
    parts = [f"# {c}".rstrip() + "\n" for c in comment.splitlines()] if comment else []
    parts.append(f"gem 1\ncolors {graph.n_colors}\nvertices {graph.num_vertices}\n")
    # before anything is written, every label must be one token the parser
    # reads back, the name of its label-run lines: non-empty, and (since
    # _NAME is one character class repeated) joined they match _NAME too
    if not (all(gem.labels) and _NAME.fullmatch("".join(gem.labels))):
        v, name = next((v, name) for v, name in enumerate(gem.labels)
                       if not _NAME.fullmatch(name))
        raise UnwritableLabel(
            f"vertex {v} has label {name!r}; a .gem label must be non-empty, "
            "with no whitespace and no '#'")
    # the label lines as one string, not one string object per line
    parts.append("".join([f"label {v} {name}\n"
                          for v, name in enumerate(gem.labels) if name != str(v)]))
    for c, col in enumerate(graph.involutions):
        body = " ".join([f"{v}-{w}" for v, w in enumerate(col) if v < w])
        parts.append(f"c {c}: {body}\n")
    return "".join(parts)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


# a DOT ID written bare: letters, digits and '_', not led by a digit, and
# not one of DOT's keywords, which it reads in any case
_DOT_BARE_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def export_dot(gem: LabeledGem | ColoredGraph, name: str = "gem") -> str:
    """Graphviz source; one edge per colored edge, palette fixed by color.

    The graph's `name` is written as it is when it is a bare DOT ID, and
    quoted like the labels otherwise.
    """
    if not _DOT_BARE_ID.fullmatch(name) or name.lower() in _DOT_KEYWORDS:
        name = _dot_quote(name)
    if isinstance(gem, ColoredGraph):
        gem = LabeledGem(gem)
    graph = gem.graph
    rgbs = [DOT_PALETTE[c % len(DOT_PALETTE)] for c in range(graph.n_colors)]
    quoted = [_dot_quote(label) for label in gem.labels]
    lines = [f"graph {name} {{",
             "  // edge colors: " + " ".join(f"{c}={rgb}" for c, rgb in enumerate(rgbs)),
             "  node [shape=circle fontsize=10];"]
    lines += [f"  {q};" for q in quoted]
    for c, rgb in enumerate(rgbs):
        lines += [f'  {quoted[a]} -- {quoted[b]} [color="{rgb}" penwidth=1.6];'
                  for a, b in graph.edges(c)]
    lines += ["}", ""]
    return "\n".join(lines)


def export_gluings(gem: LabeledGem | ColoredGraph) -> str:
    """Tab-separated facet-gluing table of the encoded complex.

    Row per top simplex (= vertex), one column per color; the entry names
    the simplex glued along that facet.
    """
    if isinstance(gem, ColoredGraph):
        gem = LabeledGem(gem)
    labels = gem.labels
    # each color's partner names at once; V >= 2, so each is a tuple
    partners = [itemgetter(*col)(labels) for col in gem.graph.involutions]
    rows = ["simplex\t" + "\t".join(f"color{c}" for c in range(len(partners)))]
    rows += map("\t".join, zip(labels, *partners))
    rows.append("")
    return "\n".join(rows)
