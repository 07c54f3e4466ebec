"""Dipole moves, polyhedral gluing, and scripted move sequences.

Every move, insertion included, runs on one mutable workspace: the
involutions copied into lists and a byte per vertex marking it live.  A
script's labels resolve through its gem's own index and the live marks.
Insertion appends two vertices.  Any other move checks its preconditions,
then deletes a set of vertices paired off by a bijection phi and, for
every color outside the move's defining colors, splices the freed edge
ends together pairwise in place.  The splice trusts the preconditions
checked before it (Ferri & Gagliardi, "Crystallisation moves", 1982),
which keep interior edges phi-compatible and no survivor wired into the
removed set; it refuses only a move that would remove every vertex.

Residue preconditions ("do these vertices share a residue?") are answered
by two searches that grow from the two sides in turn, so they cost the
smaller residue, not a labelling of the whole graph.  `find_dipoles`
labels each complement once per color set.

Nothing is renumbered while moves run.  Once, at the end of a script or
after a single move, the survivors are cut out and renumbered in order
(core._restrict, as for relabel) and validated as a ColoredGraph, which
equals compacting after every step; a single move reports the old-to-new
map (-1 for removed).  Inside a script, error messages name vertices by
their ids in the script's input gem, the same from step to step.
render_move_script writes only lines that parse_move_script reads back.
parse_move_script reads every color with gemfile._number, as .gem files do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import combinations, compress

from .core import ColoredGraph, LabeledGem, _restrict
from .errors import (
    GemError,
    MissingIColoredMatching,
    MoveError,
    NotADipole,
    ParseError,
    PhiNotIsomorphism,
    PreconditionFailed,
    ResultInvalid,
    SameComponentInIHat,
    UnknownLabel,
    UnwritableLabel,
)
from .gemfile import _column, _number


@dataclass(frozen=True)
class DipoleSpec:
    """Vertices v1, v2 joined by exactly the edges of `colors`."""

    v1: int
    v2: int
    colors: frozenset


@dataclass(frozen=True)
class GlueSpec:
    """Remove lambda1 and lambda2, splicing across the `color`-matching.

    lambda2[k] is phi(lambda1[k]).  phi must be a color-preserving
    isomorphism of the induced subgraphs, and every lambda1[k] must be
    joined to its image by a `color`-colored edge.  Whether the two sides
    bound balls in the encoded complex is the caller's obligation; only the
    combinatorial preconditions are checked here.
    """

    color: int
    lambda1: tuple
    lambda2: tuple


@dataclass(frozen=True)
class CombinedSpec:
    """Simultaneous cancellation of an interlocked 2- and 3-dipole.

    pair = (v1, v2) joined by a k-colored edge, pair_image = (v1p, v2p)
    likewise; v1-v1p and v2-v2p each carry both an i- and a j-colored edge.
    """

    k: int
    i: int
    j: int
    pair: tuple
    pair_image: tuple


@dataclass(frozen=True)
class MoveResult:
    graph: ColoredGraph
    vertex_map: tuple  # old id -> new id, -1 for removed vertices
    added: tuple = ()  # ids (in the new graph) of vertices the move created


def _meet(invs, colors, side_a, side_b) -> bool:
    """True when a vertex of side_a shares a residue with one of side_b.

    Residues are the components of the `colors` edges.  One search grows
    from each side, one vertex at a time in turn: the first vertex one of
    them reaches that the other has seen answers True, and the first
    search to run out of vertices has closed its residues and answers
    False.
    """
    cols = [invs[c] for c in colors]
    seen_a, seen_b = set(side_a), set(side_b)
    if seen_a & seen_b:
        return True
    searches = ((list(seen_a), seen_a, seen_b), (list(seen_b), seen_b, seen_a))
    while True:
        for stack, seen, other in searches:
            if not stack:
                return False
            v = stack.pop()
            for col in cols:
                w = col[v]
                if w not in seen:
                    if w in other:
                        return True
                    seen.add(w)
                    stack.append(w)


def _check_dipole_colors(graph: ColoredGraph, colors) -> None:
    """Raise unless `colors` are in range and number 1 to k - 1."""
    for c in colors:
        graph._check_color(c)
    if not 1 <= len(colors) <= graph.n_colors - 1:
        raise NotADipole(
            f"a dipole involves between 1 and {graph.n_colors - 1} colors, "
            f"got {len(colors)}")


class _Workspace:
    """A graph that moves edit in place, under the ids it was loaded with."""

    __slots__ = ("graph", "invs", "live", "size")

    def __init__(self, graph: ColoredGraph):
        self.graph = graph
        self.invs = [list(col) for col in graph.involutions]
        self.live = bytearray(b"\x01") * graph.num_vertices
        self.size = graph.num_vertices

    def _require_live(self, vertices) -> None:
        for v in vertices:
            if not isinstance(v, int):
                raise MoveError(f"vertex {v!r} is not an int")
            if not (0 <= v < len(self.live) and self.live[v]):
                raise MoveError(f"vertex {v} out of range")

    # -- dipoles ---------------------------------------------------------------

    def add_dipole(self, at_vertex: int, colors: frozenset) -> tuple:
        """Insert a dipole on `colors` next to at_vertex; return its two ids.

        The first new id takes every other color at at_vertex, so its residue
        without `colors` is {v1, at_vertex}: the pair is always a dipole.
        """
        _check_dipole_colors(self.graph, colors)
        self._require_live((at_vertex,))
        v1, v2 = len(self.live), len(self.live) + 1
        for c, col in enumerate(self.invs):
            if c in colors:
                col += (v2, v1)
            else:
                u = col[at_vertex]
                col += (at_vertex, u)
                col[at_vertex], col[u] = v1, v2
        self.live += b"\x01\x01"
        self.size += 2
        return v1, v2

    def check_dipole(self, spec: DipoleSpec) -> None:
        v1, v2 = spec.v1, spec.v2
        if v1 == v2:
            raise NotADipole("the two dipole vertices coincide")
        _check_dipole_colors(self.graph, spec.colors)
        self._require_live((v1, v2))
        joined = frozenset(c for c, col in enumerate(self.invs) if col[v1] == v2)
        if joined != spec.colors:
            raise NotADipole(
                f"vertices {v1},{v2} are joined by colors {sorted(joined)}, "
                f"not exactly {sorted(spec.colors)}")
        rest = [c for c in range(self.graph.n_colors) if c not in spec.colors]
        if _meet(self.invs, rest, (v1,), (v2,)):
            raise NotADipole(
                f"vertices {v1},{v2} share a residue once colors "
                f"{sorted(spec.colors)} are deleted")

    def cancel_dipole(self, spec: DipoleSpec) -> None:
        self.check_dipole(spec)
        self._splice({spec.v1: spec.v2}, spec.colors)

    # -- polyhedral glue ---------------------------------------------------------

    def glue(self, spec: GlueSpec) -> None:
        self.graph._check_color(spec.color)
        lam1, lam2 = tuple(spec.lambda1), tuple(spec.lambda2)
        if not lam1 or len(lam1) != len(lam2):
            raise PhiNotIsomorphism(
                f"phi must pair the two sides, got {len(lam1)} and {len(lam2)} vertices")
        pos1 = {v: k for k, v in enumerate(lam1)}
        pos2 = {v: k for k, v in enumerate(lam2)}
        if len(pos1) != len(lam1) or len(pos2) != len(lam2):
            raise PhiNotIsomorphism("repeated vertex inside a glue side")
        if set(lam1) & set(lam2):
            raise SameComponentInIHat("the two glue sides overlap")
        self._require_live(lam1 + lam2)
        i = spec.color
        for u, w in zip(lam1, lam2):
            if self.invs[i][u] != w:
                raise MissingIColoredMatching(
                    f"vertices {u},{w} lack the color-{i} edge the glue crosses")
        for c, col in enumerate(self.invs):
            if c == i:
                continue
            for k, u in enumerate(lam1):
                w = lam2[k]
                p = col[u]
                q = col[w]
                if p in pos1:
                    if q != lam2[pos1[p]]:
                        raise PhiNotIsomorphism(
                            f"color {c}: edge {u}-{p} is not mirrored between "
                            f"{w} and {lam2[pos1[p]]}")
                elif q in pos2:
                    raise PhiNotIsomorphism(
                        f"color {c}: edge {w}-{q} has no preimage edge")
        rest = [c for c in range(self.graph.n_colors) if c != i]
        if _meet(self.invs, rest, lam1, lam2):
            raise SameComponentInIHat(
                f"glue sides meet the same residue of the graph without color {i}")
        self._splice(dict(zip(lam1, lam2)), {i})

    # -- combined move -----------------------------------------------------------

    def combined(self, spec: CombinedSpec) -> None:
        k, i, j = spec.k, spec.i, spec.j
        for c in (k, i, j):
            self.graph._check_color(c)
        if len({k, i, j}) != 3:
            raise PreconditionFailed(f"colors k={k}, i={i}, j={j} must be distinct")
        v1, v2 = spec.pair
        v1p, v2p = spec.pair_image
        four = (v1, v2, v1p, v2p)
        self._require_live(four)
        invs = self.invs
        if invs[k][v1] != v2:
            raise PreconditionFailed(
                f"pair clause: vertices {v1},{v2} lack a color-{k} edge")
        if invs[k][v1p] != v2p:
            raise PreconditionFailed(
                f"pair-image clause: vertices {v1p},{v2p} lack a color-{k} edge")
        for a, b in ((v1, v1p), (v2, v2p)):
            for c in (i, j):
                if invs[c][a] != b:
                    raise PreconditionFailed(
                        f"double-edge clause: vertices {a},{b} lack a color-{c} edge")
        rest3 = [c for c in range(self.graph.n_colors) if c not in (i, j, k)]
        if any(_meet(invs, rest3, (a,), (b,)) for a, b in combinations(four, 2)):
            raise PreconditionFailed(
                f"residue clause: vertices {four} must lie in four distinct "
                f"residues of the graph without colors {sorted((i, j, k))}")
        rest2 = [c for c in range(self.graph.n_colors) if c not in (i, j)]
        if _meet(invs, rest2, (v1,), (v1p,)):
            raise PreconditionFailed(
                f"separation clause: the pairs share a residue of the graph "
                f"without colors {sorted((i, j))}")
        self._splice({v1: v1p, v2: v2p}, {i, j})

    # -- splicing and compaction -------------------------------------------------

    def _splice(self, phi: dict, excluded_colors) -> None:
        """Remove phi's vertices, joining their freed edge ends pairwise.

        The move's clauses, checked first, own every rule this relies on:
        excluded colors join phi's pairs (check_dipole's joined colors,
        glue's color-i edges, combined's double-edge clause); an interior
        edge has its image (glue's mirror check, combined's pair, pair-image
        and residue clauses); no other edge enters the removed set
        (check_dipole's joined colors, glue's "no preimage" branch, `_meet`).
        """
        doomed = set(phi) | set(phi.values())
        for c, col in enumerate(self.invs):
            if c in excluded_colors:
                continue
            for u, w in phi.items():
                p, q = col[u], col[w]
                if p not in phi:
                    col[p], col[q] = q, p
        for d in doomed:
            self.live[d] = 0
        self.size -= len(doomed)
        if not self.size:
            raise ResultInvalid("the move removes every vertex")

    def compact(self):
        """(graph on dense ids, surviving old ids in order, old -> new map)."""
        survivors = list(compress(range(len(self.live)), self.live))
        if len(survivors) == len(self.live):  # an insertion: no remap
            vmap, invs = survivors, self.invs
        else:
            invs, vmap = _restrict(self.invs, survivors)
        # _splice leaves each column a fixed-point-free involution on the
        # survivors; ColoredGraph validates that all the same
        return ColoredGraph(invs), survivors, vmap


def _one_move(graph: ColoredGraph, move, *args) -> MoveResult:
    ws = _Workspace(graph)
    added = move(ws, *args) or ()
    out, _, vmap = ws.compact()
    return MoveResult(out, tuple(vmap[:graph.num_vertices]), added)


# -- dipoles -------------------------------------------------------------------


def check_dipole(graph: ColoredGraph, spec: DipoleSpec) -> None:
    """Raise NotADipole unless spec describes a genuine h-dipole."""
    _Workspace(graph).check_dipole(spec)


def find_dipoles(graph: ColoredGraph, order: int | None = None) -> list:
    """All dipoles, or all dipoles of the given order, sorted by vertex ids.

    The residues of each complement are labelled once per set of joining
    colors, and a joined pair is a dipole when its ends get two labels.
    """
    k = graph.n_colors
    if order is not None and order not in range(1, k):
        raise NotADipole(
            f"a dipole involves between 1 and {k - 1} colors, got order {order!r}")
    invs = graph.involutions
    labels: dict = {}
    out = []
    for v1 in range(graph.num_vertices):
        joined: dict = {}
        for c in range(k):
            w = invs[c][v1]
            if w > v1:
                joined.setdefault(w, set()).add(c)
        for v2 in sorted(joined):
            cols = frozenset(joined[v2])
            if len(cols) == k or (order is not None and len(cols) != order):
                continue
            if cols not in labels:
                labels[cols] = graph.components(
                    c for c in range(k) if c not in cols).labels
            if labels[cols][v1] != labels[cols][v2]:
                out.append(DipoleSpec(v1, v2, cols))
    return out


def cancel_dipole(graph: ColoredGraph, spec: DipoleSpec) -> MoveResult:
    return _one_move(graph, _Workspace.cancel_dipole, spec)


def add_dipole(graph: ColoredGraph, at_vertex: int, colors) -> MoveResult:
    """Insert an h-dipole next to `at_vertex`; `added` holds its two ids."""
    return _one_move(graph, _Workspace.add_dipole, at_vertex, frozenset(colors))


# -- polyhedral glue -----------------------------------------------------------


def polyhedral_glue(graph: ColoredGraph, spec: GlueSpec) -> MoveResult:
    return _one_move(graph, _Workspace.glue, spec)


# -- combined move --------------------------------------------------------------


def combined_move(graph: ColoredGraph, spec: CombinedSpec) -> MoveResult:
    return _one_move(graph, _Workspace.combined, spec)


# -- scripts --------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptStep:
    """One scripted move, with vertices given by label.

    kind "dipole": colors = dipole colors, groups = ((l1, l2),)
    kind "glue": colors = (i,), groups = (lambda1_labels, lambda2_labels)
    kind "combined": colors = (k, i, j), groups = ((l1, l2), (m1, m2))
    """

    kind: str
    colors: tuple
    groups: tuple
    line: int = 0


# step kind -> (number of colors, None for any; number of labels in each
# group, None for any; the shape in words)
_STEP_SHAPES = {
    "dipole": (None, (2,), "one pair of labels"),
    "glue": (1, (None, None), "one color and two label lists"),
    "combined": (3, (2, 2), "three colors and two pairs of labels"),
}


def _check_step(step_no: int, step: ScriptStep) -> None:
    """Raise MoveError, naming the step, unless it has its kind's shape:
    a tuple or list of int colors (bool and IntEnum are ints), and one of
    label groups, each a tuple or list of str labels."""
    where = f"step {step_no} (line {step.line})"
    if step.kind not in _STEP_SHAPES:
        raise MoveError(f"{where}: unknown step kind {step.kind!r}")
    n_colors, sizes, words = _STEP_SHAPES[step.kind]
    seq = (tuple, list)
    if (not isinstance(step.colors, seq) or not isinstance(step.groups, seq)
            or not all(isinstance(group, seq) for group in step.groups)
            or (n_colors is not None and len(step.colors) != n_colors)
            or len(step.groups) != len(sizes)
            or any(size is not None and len(group) != size
                   for size, group in zip(sizes, step.groups))
            or not all(isinstance(c, int) for c in step.colors)
            or not all(isinstance(l, str) for g in step.groups for l in g)):
        raise MoveError(
            f"{where}: a {step.kind} step takes {words}, got colors "
            f"{step.colors!r} and label groups {step.groups!r}")


@dataclass(frozen=True)
class ScriptResult:
    gem: LabeledGem
    trace: tuple  # vertex counts: initial, then after every step


_GLUE_RE = re.compile(r"^glue\s+(\d+)\s+\[([^\]]*)\]\s*->\s*\[([^\]]*)\]\s*$")
_COMBINED_RE = re.compile(
    r"^combined\s+(\d+)\s+\{(\d+)\s*,\s*(\d+)\}\s+\(([^)]*)\)\s+\(([^)]*)\)\s*$")


def _split_labels(blob: str, line_no: int):
    labels = tuple(s.strip() for s in blob.split(","))
    if any(not s for s in labels):
        raise ParseError("empty vertex label in list", line_no, 1)
    return labels


def parse_move_script(text: str) -> list:
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split(None, 1)[0]
        if word == "dipole":
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(
                    "expected: dipole <v1> <v2> <c1,c2,...>", line_no, 1)
            digits = parts[3].split(",")
            if not all(map(str.isdecimal, digits)):
                raise ParseError(
                    f"bad color list {parts[3]!r}", line_no, _column(raw, 3))
            colors = tuple(sorted(_number(t, raw, line_no, 3) for t in digits))
            steps.append(ScriptStep("dipole", colors, ((parts[1], parts[2]),), line_no))
        elif word == "glue":
            m = _GLUE_RE.match(line)
            if not m:
                raise ParseError(
                    "expected: glue <i> [u1,u2,...] -> [w1,w2,...]", line_no, 1)
            lam1 = _split_labels(m.group(2), line_no)
            lam2 = _split_labels(m.group(3), line_no)
            if len(lam1) != len(lam2):
                raise ParseError(
                    f"glue sides list {len(lam1)} and {len(lam2)} vertices", line_no, 1)
            colors = (_number(m.group(1), raw, line_no, 1),)
            steps.append(ScriptStep("glue", colors, (lam1, lam2), line_no))
        elif word == "combined":
            m = _COMBINED_RE.match(line)
            if not m:
                raise ParseError(
                    "expected: combined <k> {i,j} (v1,v2) (v1p,v2p)", line_no, 1)
            pair = _split_labels(m.group(4), line_no)
            image = _split_labels(m.group(5), line_no)
            if len(pair) != 2 or len(image) != 2:
                raise ParseError("combined move pairs must list 2 vertices", line_no, 1)
            colors = tuple(_number(m.group(g), raw, line_no, len(line[:m.end(g)].split()) - 1)
                           for g in (1, 2, 3))
            steps.append(ScriptStep("combined", colors, (pair, image), line_no))
        else:
            raise ParseError(f"unknown move {word!r}", line_no, _column(raw, 0))
    return steps


def _step_line(s: ScriptStep) -> str:
    if s.kind == "dipole":
        (l1, l2), = s.groups
        return f"dipole {l1} {l2} {','.join(map(str, s.colors))}"
    a, b = map(",".join, s.groups)
    if s.kind == "glue":
        return f"glue {s.colors[0]} [{a}] -> [{b}]"
    k, i, j = s.colors
    return f"combined {k} {{{i},{j}}} ({a}) ({b})"


def _reads_back(s: ScriptStep, keep=None) -> bool:
    """Whether parse_move_script reads s's line back as one step of the
    same kind, colors (as a set: it sorts a dipole's) and label groups;
    with `keep`, once every label not in keep is replaced by a plain one."""
    if keep is not None:
        s = replace(s, groups=tuple(tuple(l if l in keep else "v" for l in group)
                                    for group in s.groups))
    try:
        back, = parse_move_script(_step_line(s))
    except (ParseError, ValueError):  # ValueError: not exactly one step
        return False
    return ((back.kind, set(back.colors), back.groups)
            == (s.kind, set(s.colors), tuple(map(tuple, s.groups))))


def render_move_script(steps) -> str:
    """The script text of `steps`.  A step whose line would read back as
    anything else raises before anything is returned: UnwritableLabel names
    its first label that fails among plain ones, MoveError its colors."""
    lines = []
    for step_no, s in enumerate(steps, start=1):
        _check_step(step_no, s)
        if not _reads_back(s):
            where = f"step {step_no} (line {s.line})"
            if not _reads_back(s, keep=()):
                raise MoveError(f"{where}: colors {s.colors!r} do not read back")
            # plain labels read back, so some label's own characters do not
            label = next(l for group in s.groups for l in group
                         if not _reads_back(s, keep=(l,)))
            raise UnwritableLabel(
                f"{where}: label {label!r} does not read back from a {s.kind} line")
        lines.append(_step_line(s))
    return "\n".join(lines) + "\n"


def run_script(gem: LabeledGem, steps) -> ScriptResult:
    """Apply the steps in order on one workspace, then compact once.

    Survivors keep their labels and their relative order.
    """
    ws = _Workspace(gem.graph)

    def resolve(label: str) -> int:
        try:
            v = gem.vertex(label)
        except UnknownLabel:
            v = None
        if v is None or not ws.live[v]:
            raise MoveError(f"unknown vertex label {label!r}") from None
        return v

    trace = [ws.size]
    for step_no, step in enumerate(steps, start=1):
        _check_step(step_no, step)
        try:
            groups = [tuple(map(resolve, group)) for group in step.groups]
            if step.kind == "dipole":
                (v1, v2), = groups
                ws.cancel_dipole(DipoleSpec(v1, v2, frozenset(step.colors)))
            elif step.kind == "glue":
                ws.glue(GlueSpec(step.colors[0], *groups))
            else:
                ws.combined(CombinedSpec(*step.colors, *groups))
        except GemError as exc:
            raise type(exc)(f"step {step_no} (line {step.line}): {exc}") from exc
        trace.append(ws.size)
    graph, survivors, _ = ws.compact()
    labels = [gem.labels[v] for v in survivors]
    return ScriptResult(LabeledGem(graph, labels), tuple(trace))


def run_script_text(gem: LabeledGem, text: str) -> ScriptResult:
    return run_script(gem, parse_move_script(text))
