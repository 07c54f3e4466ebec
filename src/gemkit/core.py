"""Edge-colored regular multigraphs stored as one involution per color.

A graph on vertices 0..V-1 with colors 0..n carries, for every color c, a
fixed-point-free involution: involutions[c][v] is the unique vertex joined to
v by the c-colored edge.  That representation makes "properly edge-colored
and (n+1)-regular" true by construction; the validator only has to check
that each array really is a fixed-point-free involution.

Vertices are dense ints.  Human-readable names live in a side table
(LabeledGem), never inside the graph itself.

One int object per vertex id: every entry of every involution equal to v
is the same int object, so a graph on V vertices holds V ints however many
colors it has.  ColoredGraph owns the rule, on two paths.  Its validator,
the one public constructor (the torus builder, moves, relabel), reads each
color through itemgetter over its own tuple(range(V)) and stores what it
reads, so those callers get shared ids without doing anything themselves.
graph_from_endpoints (parse, new_graph) has each color's matching proven
once, by _matching, and stores the proven columns without a second
validation: a color whose V endpoints all lie in 0..V-1 and leave no -1
in the [-1] * V fill names every vertex exactly once, so each pair joins
two distinct vertices no other pair touches, and the column is a
fixed-point-free involution.  Its callers hand it the int objects of one
tuple(range(V)), so the columns share ids as they are.  permute_colors
reorders a graph's own columns and takes the same unvalidated path.

The residue walk (residue_counts) and the pair census behind
invariants.pair_cycles and genus_for are lists of independent tasks, the
subtree below each root color pair or one pair's cycles.  _run_split
shares such a list with one forked child per spare usable CPU when the
walk reads at least _SPLIT_VISITS vertices, os.fork exists and no second
thread is alive; otherwise, and for every task no child delivered, the
calling process runs the same task itself, so no answer depends on a
child.  No option or environment variable controls the split.
"""

from __future__ import annotations

import marshal
import os
import threading
from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import is_, itemgetter
from typing import NoReturn

from .errors import (
    ColorOutOfRange,
    DuplicateVertexInColor,
    LoopEdge,
    OddVertexCount,
    UnknownLabel,
    VertexCountMismatch,
)


@dataclass(frozen=True)
class Components:
    """Connected components with deterministic ids.

    Component ids are 0..count-1 in order of each component's smallest
    vertex, so two runs over the same graph always agree.
    """

    labels: tuple[int, ...]
    count: int

    def members(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.count)]
        for v, c in enumerate(self.labels):
            out[c].append(v)
        return out


class ColoredGraph:
    """Immutable properly edge-colored (n+1)-regular multigraph."""

    __slots__ = ("n_colors", "num_vertices", "involutions", "_hash")

    def __init__(self, involutions):
        invs = [tuple(col) for col in involutions]
        if len(invs) < 2:
            raise ColorOutOfRange(f"need at least 2 colors, got {len(invs)}")
        nv = len(invs[0])
        if nv == 0 or nv % 2:
            raise OddVertexCount(f"number of vertices must be even and positive, got {nv}")
        ids = tuple(range(nv))
        for c, col in enumerate(invs):
            # shared == col puts every partner in 0..V-1 (itemgetter wraps a
            # -1 to V-1, which fails here) and makes shared hold the objects
            # of ids, so the other two tests compare by identity: col is its
            # own inverse, with no fixed point.  nv >= 2, so each itemgetter
            # returns a tuple.
            try:
                take = itemgetter(*col)
                shared = take(ids)
                ok = (shared == col and take(shared) == ids
                      and not any(map(is_, shared, ids)))
            except (IndexError, TypeError):
                ok = False
            if not ok:
                _raise_first_bad_vertex(c, col, nv)
            invs[c] = shared
        self._store(tuple(invs))

    @classmethod
    def _of_matchings(cls, involutions) -> "ColoredGraph":
        """The graph whose columns are already proven fixed-point-free
        involutions on the int objects of one tuple(range(V)), with V even
        and positive; only their number is checked."""
        invs = tuple(involutions)
        if len(invs) < 2:
            raise ColorOutOfRange(f"need at least 2 colors, got {len(invs)}")
        graph = cls.__new__(cls)
        graph._store(invs)
        return graph

    def _store(self, invs: tuple) -> None:
        self.n_colors = len(invs)
        self.num_vertices = len(invs[0])
        self.involutions = invs
        self._hash = None

    # -- basics --------------------------------------------------------------

    def partner(self, v: int, color: int) -> int:
        self._check_color(color)
        self._check_vertex(v)
        return self.involutions[color][v]

    def colors(self) -> range:
        return range(self.n_colors)

    def edges(self, color: int) -> list[tuple[int, int]]:
        """The color's perfect matching as sorted (small, large) pairs."""
        self._check_color(color)
        col = self.involutions[color]
        return [(v, col[v]) for v in range(self.num_vertices) if v < col[v]]

    def _check_color(self, color: int) -> None:
        if not 0 <= color < self.n_colors:
            raise ColorOutOfRange(f"color {color} not in 0..{self.n_colors - 1}")

    def _check_vertex(self, v: int) -> None:
        # a negative id would index from the end of the involution
        if not 0 <= v < self.num_vertices:
            raise VertexCountMismatch(f"vertex {v} not in 0..{self.num_vertices - 1}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColoredGraph)
                and self.involutions == other.involutions)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.involutions)
        return self._hash

    def __repr__(self) -> str:
        return f"ColoredGraph(colors={self.n_colors}, vertices={self.num_vertices})"

    # -- components ----------------------------------------------------------

    def components(self, colors=None) -> Components:
        """Components of the spanning subgraph keeping only `colors` edges.

        colors=None means all colors.  Every vertex is kept, so dropping all
        colors yields num_vertices singleton components.  The first two
        colors' cycles (one color: its edges) are joined across each
        further color's edges, one _Level per color.
        """
        if colors is None:
            colors = range(self.n_colors)
        else:
            colors = sorted(set(colors))
            for c in colors:
                self._check_color(c)
        if not colors:
            return Components(tuple(range(self.num_vertices)), self.num_vertices)
        invs = self.involutions
        level = _Level.cycles(invs[colors[0]], invs[colors[:2][-1]])
        for c in colors[2:]:
            level = level.join(itemgetter(*invs[c]))
        return Components(tuple(level.labels), level.count)

    def residue_count(self, colors) -> int:
        """Number of components after keeping only the given edge colors."""
        return self.components(colors).count

    def is_connected(self) -> bool:
        return self.components().count == 1

    # -- manifold-flavored invariants -----------------------------------------

    def is_bipartite(self) -> bool:
        side = [-1] * self.num_vertices
        for start in range(self.num_vertices):
            if side[start] >= 0:
                continue
            side[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for col in self.involutions:
                    w = col[v]
                    if side[w] < 0:
                        side[w] = side[v] ^ 1
                        stack.append(w)
                    elif side[w] == side[v]:
                        return False
        return True

    def is_contracted(self) -> bool:
        """True when dropping any single color leaves a connected graph."""
        all_colors = set(range(self.n_colors))
        return all(
            self.components(all_colors - {j}).count == 1
            for j in all_colors)

    def is_crystallization(self) -> bool:
        return self.is_connected() and self.is_contracted()

    def residue_counts(self) -> dict[tuple[int, ...], int]:
        """Component count of the residue of every color subset.

        Keys are the 2^k sorted tuples of kept colors, () (num_vertices
        singletons) and the full palette included.  A one-color subset has
        num_vertices / 2 components, its edges, and a two-color subset is
        one walk of its bicolored cycles (_Level.cycles).  From there one
        depth-first walk visits the larger subsets in increasing color
        order: a subset's components are its parent's (the subset without
        its largest color) joined across the new color's edges, so each
        subset reads each vertex once.  Subsets holding the last color have
        no children and are counted, not kept.  A kept level is flat (see
        _Level), and at most k - 2 are alive at once.

        The subtrees below the root pairs (a, b) share nothing, so they are
        one task each, 2^(last - b) subsets, and _run_split shares them
        with forked children on a host with spare CPUs once the walk's
        vertex visits (V times 2^k) reach _SPLIT_VISITS.  The parent
        computes every subtree no child delivered, so the counts never
        depend on a child.
        """
        nv = self.num_vertices
        last = self.n_colors - 1
        invs = self.involutions
        # across[c](labels)[v] is the label of v's c-partner; with V >= 2
        # vertices every itemgetter here returns a tuple, never one item
        across = [itemgetter(*col) for col in invs]

        def below(a, b):
            """The counts of the subsets whose two least colors are a < b."""
            if b == last:
                return {(a, b): _Level.cycles(invs[a], invs[b], keep=False).count}
            counts = {}
            _Level.cycles(invs[a], invs[b]).walk((a, b), across, counts)
            return counts

        # largest first: the fewer colors above b, the smaller the subtree
        roots = sorted(combinations(range(last + 1), 2), key=itemgetter(1))
        parts = dict(zip(roots, _run_split(below, roots, nv << (last + 1))))
        counts = {(): nv, **{(c,): nv // 2 for c in range(last + 1)}}
        for root in sorted(parts):
            counts.update(parts[root])
        return counts

    def face_counts(self) -> tuple[int, ...]:
        """Counts (N_0, ..., N_n) of k-dimensional faces of the encoded complex.

        N_k is the number of components left after deleting, for each
        (k+1)-subset of colors, the edges of the other colors, summed over
        subsets.  In particular N_n = num_vertices.  The counts come from
        one residue_counts() walk.
        """
        return face_counts_from(self.residue_counts(), self.n_colors)

    def euler_characteristic(self) -> int:
        return euler_characteristic_from(self.face_counts())

    # -- relabeling ----------------------------------------------------------

    def relabel(self, new_id) -> "ColoredGraph":
        """Relabel vertices; new_id[v] is the new id of old vertex v."""
        new_id = list(new_id)
        if sorted(new_id) != list(range(self.num_vertices)):
            raise VertexCountMismatch("relabeling is not a bijection on vertex ids")
        invs = []
        for col in self.involutions:
            new_col = [0] * self.num_vertices
            for v, w in enumerate(col):
                new_col[new_id[v]] = new_id[w]
            invs.append(tuple(new_col))
        return ColoredGraph(invs)

    def permute_colors(self, new_color) -> "ColoredGraph":
        """Recolor edges; new_color[c] is the new color of old color c."""
        new_color = list(new_color)
        if sorted(new_color) != list(range(self.n_colors)):
            raise ColorOutOfRange("color permutation is not a bijection on colors")
        invs: list = [None] * self.n_colors
        for c, col in enumerate(self.involutions):
            invs[new_color[c]] = col
        return ColoredGraph._of_matchings(invs)


@dataclass(slots=True)
class _Level:
    """The components of one color subset, flat, with ids in order of each
    component's smallest vertex.

    order lists the vertices component by component, component i is
    order[offsets[i]:offsets[i + 1]], and labels[v] is v's component.  A
    level kept only for its count has count alone; one made by cycles()
    also has sizes, its components' vertex counts.
    """

    order: list | None
    offsets: list | None
    labels: list | tuple | None
    count: int
    sizes: list | None = None

    @classmethod
    def cycles(cls, inv_i, inv_j, keep=True) -> "_Level":
        """The {i, j}-colored cycles of the involutions inv_i and inv_j,
        each walked v, inv_i[v], inv_j[inv_i[v]], ... from its smallest
        vertex.  A doubled edge is a cycle of length 2; with inv_i == inv_j
        every edge is one, the one-color matching.  With keep=False only
        count and sizes, the cycle lengths, are made."""
        labels = [None] * len(inv_i)
        order = []
        sizes = []
        count = 0
        for start in range(len(inv_i)):
            if labels[start] is None:
                length = 0
                v = start
                while labels[v] is None:
                    w = inv_i[v]
                    labels[v] = labels[w] = count
                    if keep:
                        order += (v, w)
                    length += 2
                    v = inv_j[w]
                sizes.append(length)
                count += 1
        if not keep:
            return cls(None, None, None, count, sizes)
        return cls(order, [0, *accumulate(sizes)], labels, count, sizes)

    def walk(self, kept, across, counts) -> None:
        """Put into counts the component count of `kept`, this level's
        colors, and of every subset that adds colors above kept[-1].  A
        child is this level joined across its new color (across[c], as in
        join); the last color, len(across) - 1, ends each branch, counted
        and not kept.  Recursion by method, not by a nested function,
        leaves no reference cycle holding the getters after a walk."""
        last = len(across) - 1
        counts[kept] = self.count
        for c in range(kept[-1] + 1, last):
            self.join(across[c]).walk(kept + (c,), across, counts)
        counts[kept + (last,)] = self.join(across[last], keep=False).count

    def join(self, across, keep=True) -> "_Level":
        """The level with one more color, whose `across` getter maps labels
        to the labels of each vertex's partner.  With keep=False only the
        count is made; the result has no arrays, for a subset with no
        children."""
        order, offsets = self.order, self.offsets
        # the component across the new color, for each vertex in order
        beyond = itemgetter(*order)(across(self.labels))
        joined = [-1] * self.count
        new_order = []
        new_offsets = [0]
        count = 0
        for start in range(self.count):
            if joined[start] >= 0:
                continue
            joined[start] = count
            stack = [start]
            for comp in stack:
                a, b = offsets[comp], offsets[comp + 1]
                if keep:
                    new_order += order[a:b]
                for nxt in beyond[a:b]:
                    if joined[nxt] < 0:
                        joined[nxt] = count
                        stack.append(nxt)
            new_offsets.append(len(new_order))
            count += 1
        if not keep:
            return _Level(None, None, None, count)
        return _Level(new_order, new_offsets, itemgetter(*self.labels)(joined), count)


# Vertex visits (V times the color subsets or pairs a walk reads) below
# which _run_split stays in process.  A split costs about 3 ms of forking,
# waiting and reaping, so on a 2-CPU host the t6 pair census (105,840
# visits, 13 ms) only breaks even in a process holding t7, and the
# constant sits twice as high.  Every walk of t5 (at most 46,080 visits)
# and the t6 census stay in process; the t7 census at one cyclic order
# (322,560; 76 -> 51 ms relabelled) and the t6 residue walk (645,120) split.
_SPLIT_VISITS = 200_000


def _run_split(task, jobs, visits: int) -> list:
    """[task(*job) for job in jobs], the jobs shared with forked children.

    jobs are independent and come largest first; visits is the walk's
    size in vertex visits.  Below _SPLIT_VISITS, without os.fork, on one
    usable CPU, or while a second thread is alive (a forked child runs
    only the forking thread, and a lock another thread held stays held),
    the jobs run here, in order.  Otherwise _share splits them, and every
    job whose result no child delivered is computed here afterwards by the
    same task, so no answer depends on a child.
    """
    spare = min(_spare_cpus(), len(jobs) - 1) if visits >= _SPLIT_VISITS else 0
    done = _share(task, jobs, spare) if spare > 0 else {}
    return [done[i] if i in done else task(*job) for i, job in enumerate(jobs)]


def _spare_cpus() -> int:
    """The usable CPUs besides this process's own, 0 when forking is unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _share(task, jobs, spare: int) -> dict:
    """{i: task(*jobs[i])} for the jobs this process and up to `spare`
    forked children computed.

    The job indices wait in one pipe, filled before any fork, and each
    process claims one at a time, so a child starved of CPU holds back at
    most the job it is on while this process takes the rest.  A child
    sends its results with marshal down a pipe of its own and exits; only
    a child that exited 0 counts.  Every child is reaped, and killed first
    if this process raises, and every pipe end is closed, on every path.
    """
    # imported here, so that a process that never splits a walk does not
    # hold them
    import select
    import signal

    done = {}
    fds = set()        # the pipe ends this process holds open
    children = {}      # pid -> the read end of that child's result pipe
    try:
        claims, fill = _pipe(fds)
        # at most PIPE_BUF bytes, so the write fits the empty pipe; jobs
        # past it are left to the caller
        count = min(len(jobs), select.PIPE_BUF // 4)
        os.write(fill, b"".join(i.to_bytes(4, "big") for i in range(count)))
        _close(fill, fds)
        for _ in range(spare):
            back, reply = _pipe(fds)
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                _child(task, jobs, claims, reply, fds)
            children[pid] = back
            _close(reply, fds)
        for i in _claimed(claims):
            done[i] = task(*jobs[i])
        for pid, back in list(children.items()):
            payload = _read_all(back)
            _close(back, fds)
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status == 0:
                done.update(marshal.loads(payload))
    finally:
        for fd in fds:
            os.close(fd)
        for pid in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return done


def _child(task, jobs, claims: int, reply: int, fds: set) -> NoReturn:
    """A forked child's life: claim jobs until the pipe is empty, send
    {i: result} down `reply`, and exit without returning to the caller."""
    code = 1
    try:
        for fd in fds - {claims, reply}:
            os.close(fd)
        payload = memoryview(marshal.dumps(
            {i: task(*jobs[i]) for i in _claimed(claims)}))
        while payload:
            payload = payload[os.write(reply, payload):]
        code = 0
    finally:
        os._exit(code)


def _pipe(fds: set) -> tuple[int, int]:
    ends = os.pipe()
    fds.update(ends)
    return ends


def _close(fd: int, fds: set) -> None:
    fds.remove(fd)
    os.close(fd)


def _claimed(claims: int):
    """The job indices this process claims, one 4-byte read each, until the
    pipe is empty and its write end closed."""
    while claim := os.read(claims, 4):
        yield int.from_bytes(claim, "big")


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def face_counts_from(counts, n_colors: int) -> tuple[int, ...]:
    """(N_0, ..., N_n) from a residue_counts() map: N_h sums the counts of
    the subsets that keep n - h of the n + 1 colors."""
    out = [0] * n_colors
    for kept, count in counts.items():
        if len(kept) < n_colors:
            out[n_colors - 1 - len(kept)] += count
    return tuple(out)


def euler_characteristic_from(face_counts) -> int:
    """The alternating sum N_0 - N_1 + N_2 - ... of face counts."""
    return sum((-1) ** k * nk for k, nk in enumerate(face_counts))


def new_graph(n_colors: int, pairs_per_color, num_vertices: int | None = None) -> ColoredGraph:
    """Build a graph from one edge list per color, validating as we go.

    Vertex count defaults to 1 + the largest id mentioned.  Each color's
    pairs must tile the whole vertex set exactly once (perfect matching).
    """
    pairs_per_color = [list(p) for p in pairs_per_color]
    if len(pairs_per_color) != n_colors:
        raise ColorOutOfRange(
            f"got edge lists for {len(pairs_per_color)} colors, expected {n_colors}")
    endpoints = [[x for a, b in pairs for x in (a, b)] for pairs in pairs_per_color]
    if num_vertices is None:
        num_vertices = max([0] + [max(flat) + 1 for flat in endpoints if flat])
    # the ids are made only when some color has as many endpoints as a
    # matching needs, so a count no color can match allocates nothing
    ids = (tuple(range(num_vertices))
           if any(len(flat) == num_vertices for flat in endpoints) else ())
    return graph_from_endpoints([_interned(flat, ids) for flat in endpoints],
                                num_vertices)


def _interned(flat, ids: tuple):
    """flat's endpoints as the int objects of ids when all are in range;
    otherwise flat as given, for _matching to refuse."""
    try:
        if min(flat) >= 0:
            return itemgetter(*flat)(ids)
    except (ValueError, TypeError, IndexError):
        pass
    return flat


def graph_from_endpoints(endpoints_per_color, num_vertices: int) -> ColoredGraph:
    """Build a graph from one flat endpoint list a0, b0, a1, b1, ... per color.

    The colors are built one at a time, so an iterator of endpoint lists
    can let each list go once its involution is made.  A color whose
    num_vertices endpoints are in range and leave no -1 in the [-1] * V
    fill names every vertex once: a perfect matching.  Only a color that
    fails that verdict is walked pair by pair, in color order, to raise the
    error of its first bad pair.  The proven columns are stored without
    ColoredGraph's second validation, so they hold the endpoint objects
    as given: for one int object per vertex id, callers pass endpoints in
    0..V-1 as the objects of one tuple(range(V)), shared by every color.
    """
    if num_vertices <= 0 or num_vertices % 2:
        raise OddVertexCount(f"number of vertices must be even and positive, got {num_vertices}")
    return ColoredGraph._of_matchings(_matching(c, flat, num_vertices)
                                      for c, flat in enumerate(endpoints_per_color))


def _matching(c: int, flat, num_vertices: int) -> tuple:
    """Color c's involution from its flat endpoint list (graph_from_endpoints)."""
    if not (len(flat) == num_vertices and min(flat) >= 0 and max(flat) < num_vertices):
        _raise_first_bad_pair(c, flat, num_vertices)
    col = [-1] * num_vertices
    ends = iter(flat)
    for a, b in zip(ends, ends):
        col[a] = b
        col[b] = a
    if -1 in col:
        _raise_first_bad_pair(c, flat, num_vertices)
    return tuple(col)


def _raise_first_bad_vertex(c: int, col: tuple, nv: int) -> NoReturn:
    """Raise the error for color c's first vertex whose partner breaks the
    involution, checking the vertices in order."""
    if len(col) != nv:
        raise VertexCountMismatch(f"color {c} defined on {len(col)} vertices, expected {nv}")
    for v, w in enumerate(col):
        if not 0 <= w < nv:
            raise VertexCountMismatch(f"color {c}: partner {w} of vertex {v} out of range")
        if w == v:
            raise LoopEdge(f"color {c}: vertex {v} matched to itself")
        if col[w] != v:
            raise DuplicateVertexInColor(f"color {c}: not an involution at vertices {v}, {w}")
    # every int partner that passes the loop passes the check in __init__
    raise TypeError(f"color {c}: partners must be ints")


def _raise_first_bad_pair(c: int, flat, num_vertices: int) -> NoReturn:
    """Raise the error for color c's first pair that breaks the matching."""
    seen = set()
    ends = iter(flat)
    for a, b in zip(ends, ends):
        if not (0 <= a < num_vertices and 0 <= b < num_vertices):
            raise VertexCountMismatch(
                f"color {c}: edge {a}-{b} mentions a vertex outside 0..{num_vertices - 1}")
        if a == b:
            raise LoopEdge(f"color {c}: loop at vertex {a}")
        if a in seen:
            raise DuplicateVertexInColor(f"color {c}: vertex {a} used twice")
        if b in seen:
            raise DuplicateVertexInColor(f"color {c}: vertex {b} used twice")
        seen.update((a, b))
    # every pair was sound, so the verdict failed on too few pairs
    raise VertexCountMismatch(
        f"color {c}: {num_vertices - len(seen)} of {num_vertices} vertices have no edge")


class LabeledGem:
    """A graph plus a side table of unique human-readable vertex names."""

    __slots__ = ("graph", "labels", "_index")

    def __init__(self, graph: ColoredGraph, labels=None):
        if labels is None:
            labels = tuple(str(v) for v in range(graph.num_vertices))
        labels = tuple(labels)
        if len(labels) != graph.num_vertices:
            raise VertexCountMismatch(
                f"{len(labels)} labels for {graph.num_vertices} vertices")
        # inv[inv[v]] is v, so the index holds the graph's own id objects
        inv = graph.involutions[0]
        index = dict(zip(labels, itemgetter(*inv)(inv)))
        if len(index) < len(labels):
            seen = set()
            for name in labels:
                if name in seen:
                    raise VertexCountMismatch(f"duplicate vertex label {name!r}")
                seen.add(name)
        self.graph = graph
        self.labels = labels
        self._index = index

    def vertex(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no vertex labeled {label!r}") from None

    def label_of(self, v: int) -> str:
        self.graph._check_vertex(v)
        return self.labels[v]

    def has_label(self, label: str) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        return f"LabeledGem({self.graph!r})"
