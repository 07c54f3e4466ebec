"""Test-only oracles for the residue, isomorphism, move, .gem file and
small-cover layers.

`flood_fill_labels` labels a residue by breadth-first flood fill, the one
flood fill left in gemkit; `flood_fill_count` is its component count and
`flood_fill_bipartite` two-colors the whole graph the same way.
`per_subset_face_counts` sums one flood fill per color subset, and
`per_subset_residue_counts` keeps each subset's count.  `walked_cycle_lengths`
walks each bicolored cycle one edge at a time through `ColoredGraph.partner`.
`torus_residue_count` is the closed-form count for the n-torus gem, which
uses no labeller at all.  `lookup_torus_gem` builds that gem one vertex at
a time: every swap copies the permutation and looks the result up by
permutation, and the colors go through `graph_from_endpoints`.
`lex_signs` gives the inversion parity of each permutation in
lexicographic order from the same blocks the torus builder uses, the
certificate that builder once carried for its bipartiteness.

`brute_force_color_map` / `brute_force_isomorphic` search vertex bijections
exhaustively.  `unpruned_signature` is the canonical signature computed
without automorphism pruning: the least traversal code over every root of
every component, for every color bijection when allow_color_perm is set.

`stepwise_run_script` replays a move script the slow way: every step
labels whole residues with `ColoredGraph.components`, excises into a fresh
compacted graph and rebuilds the `LabeledGem`.  `stepwise_check_dipole`,
`stepwise_find_dipoles`, `stepwise_cancel_dipole`, `stepwise_polyhedral_glue`
and `stepwise_combined_move` are its single moves.
`combined_move_factored` performs the combined move as two dipole
cancellations.  `copying_add_dipole` inserts a dipole by copying every
color with two new entries and building a fresh ColoredGraph.

`looped_involutions` validates ColoredGraph input one vertex at a time,
the way ColoredGraph did before it checked each color in one pass, and
returns the involutions it accepts unchanged.

`token_parse_gem` reads a .gem file one token at a time, checking each pair
token on its own and building the graph with `pairwise_new_graph`, which
fills each color pair by pair and validates the result with ColoredGraph.
`edges_render_gem` writes each color line from `ColoredGraph.edges`.
`requoting_export_dot` quotes a label again for every line that names
it, and `rowwise_export_gluings` builds each row one color at a time.

`paired_product_gem` and `paired_order_two_gem` build the circle product
and the 2-vertex gem as gemkit first did: one edge list per color, read
from the base's `edges`, and `new_graph`.

`BLOCK_COLOR_MAP` and `BLOCK_MATCHINGS` transcribe the circle product's
ladder block by block: each block's base color -> product color map (the
missing key is the dropped color), and the same-label matchings between
blocks with their color.

`sheet_filter_middle_subgraph` is the cover's middle subgraph as gemkit
first built it: the vertices whose label names sheet 2..5, an index dict,
one pair list per kept color checked for closure vertex by vertex, and
`new_graph`.  `looped_relabel` relabels vertices one column entry at a time.

`guarded_cmd_build` is the CLI's build command as it was before one table
said what each name takes: an ownership table naming the one name that
reads each argument, and a hand-written guard per name with its own
"needs" message.

`STAIRCASE_INTERNAL` and `STAIRCASE_BOUNDARY` transcribe one polytope
copy's staircase triangulation by hand, as the cover module once held it:
the sheet pairs sharing a face, by color, and the facet under each
boundary (sheet, color) face.  `tabled_small_cover_gem` builds a cover gem
from them, the shared faces in one loop and the boundary faces in another.

`label_characteristic_function`, `label_word_partition` and
`label_reduction_steps` read a cover gem by its labels, as the cover module
once did: each finds a vertex by formatting `T<word>^<sheet>` and a copy by
slicing the word out of a label, where the module now renumbers the gem to
staircase ids and reads copies and sheets off the ids.

`FACET_DROPS` transcribes the six facets of the triangle product by hand,
as the cover module once held them: facet k (1-based) drops one corner of
one factor, (factor, dropped corner).  `facet_contains` is the incidence
rule the module once asked 54 times per validation, and
`incidence_facet_vertex_labels` and `incidence_validate_characteristic_function`
are facet_vertex_labels and validate_characteristic_function as they were
then, asking it for every facet at every polytope vertex.

`per_facet_dj_equivalent` decides Davis-Januszkiewicz equivalence of two
characteristic functions facet by facet: facets 1..4 carry a basis, which
forces the candidate linear map, and the map is checked on facets 5 and 6.
"""

import re
from collections import deque
from itertools import combinations, permutations
from math import factorial, prod

from gemkit import (AuditFailed, BudgetExceeded, ColorCountMismatch,
                    ColorOutOfRange, ColoredGraph, CombinedSpec,
                    DimensionUnsupported, DipoleSpec, DuplicateVertexInColor,
                    GemError, GlueSpec, GraphValidationError,
                    InvalidCharacteristicFunction, LabeledGem,
                    LoopEdge, MissingIColoredMatching, MoveError, MoveResult,
                    NotADipole, OddVertexCount, ParseError, PhiNotIsomorphism,
                    PreconditionFailed, ResultInvalid, SameComponentInIHat,
                    ScriptResult, ScriptStep, VertexCountMismatch,
                    cancel_dipole, enumerate_characteristic_functions,
                    mask_word, new_graph, validate_characteristic_function,
                    word_mask)
from gemkit.cli import _read_gem
from gemkit.constructions import (PRODUCT_BLOCKS, g1_prime, g2_prime,
                                  product_gem, s2xs1_standard, t3_standard)
from gemkit.core import graph_from_endpoints
from gemkit.gemfile import render_gem
from gemkit.small_covers import (_STAIRCASE, COVER_LABELS, _gf2_rank,
                                 small_cover_gem)
from gemkit.torus_cube import torus_gem
from gemkit.gemfile import DOT_PALETTE


def flood_fill_labels(graph, colors):
    """Component ids of the residue keeping `colors`, by breadth-first
    flood fill, numbered in order of each component's smallest vertex."""
    invs = [graph.involutions[c] for c in colors]
    labels = [None] * graph.num_vertices
    count = 0
    for start in range(graph.num_vertices):
        if labels[start] is not None:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for inv in invs:
                w = inv[v]
                if labels[w] is None:
                    labels[w] = count
                    queue.append(w)
        count += 1
    return tuple(labels)


def flood_fill_count(graph, colors):
    return max(flood_fill_labels(graph, colors)) + 1


def flood_fill_bipartite(graph):
    """Whether breadth-first flood fill two-colors every vertex so that
    each edge joins the two sides."""
    side = [None] * graph.num_vertices
    for start in range(graph.num_vertices):
        if side[start] is not None:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for inv in graph.involutions:
                w = inv[v]
                if side[w] is None:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def walked_cycle_lengths(graph, i, j):
    """Lengths of the {i, j}-colored cycles, descending: from each vertex
    not yet seen, step along one edge at a time, alternating the two
    colors, until the walk is back at its start."""
    seen = set()
    lengths = []
    for start in range(graph.num_vertices):
        if start in seen:
            continue
        v, colors, steps = start, (i, j), 0
        while True:
            seen.add(v)
            v = graph.partner(v, colors[steps % 2])
            steps += 1
            if v == start:
                break
        lengths.append(steps)
    return sorted(lengths, reverse=True)


def per_subset_residue_counts(graph):
    """{kept colors: component count}, one flood fill per subset."""
    return {kept: flood_fill_count(graph, kept)
            for size in range(graph.n_colors + 1)
            for kept in combinations(range(graph.n_colors), size)}


def per_subset_face_counts(graph):
    """face_counts summing one flood fill per proper subset."""
    all_colors = tuple(range(graph.n_colors))
    out = []
    for k in range(graph.n_colors):
        total = 0
        for kept in combinations(all_colors, graph.n_colors - 1 - k):
            total += flood_fill_count(graph, kept)
        out.append(total)
    return tuple(out)


def torus_residue_count(n, kept):
    """Components of the n-torus gem's residue on the colors `kept`.

    The n + 1 colors are the edges of the cycle 0-1-...-n-0 on the n + 1
    entry positions.  A proper subset splits into runs of r cyclically
    consecutive colors, each covering r + 1 positions, and has
    (n+1)! / prod (r+1)! components; the full palette has one.
    """
    k = n + 1
    kept = set(kept)
    if len(kept) == k:
        return 1
    gap = min(set(range(k)) - kept)
    runs = []
    run = 0
    # walk the cycle once from just after a missing color back to it
    for step in range(1, k + 1):
        if (gap + step) % k in kept:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    return factorial(k) // prod(factorial(r + 1) for r in runs)


def _perm_label(p):
    body = [str(x) for x in p]
    if len(p) > 9:
        return "p" + ".".join(body)
    return "p" + "".join(body)


def lex_signs(m):
    """Inversion parity of each permutation of m symbols, lexicographically:
    the permutations whose first entry has rank d fill the d-th run of
    (m-1)! of them, and that entry starts d inversions."""
    sign = [0]
    for size in range(2, m + 1):
        sign = [s ^ (d & 1) for d in range(size) for s in sign]
    return sign


def lookup_torus_gem(n, budget=40320):
    """Gem of the n-torus on the (n+1)! permutations of {1,..,n+1}.

    Vertices are the permutations in lexicographic order, labeled p<entries>.
    For color k in 1..n the k-partner swaps entries k and k+1.  The
    0-partner walks the palindromic swap sequence n, n-1, .., 2, 1, 2, .., n;
    that composite equals swapping entries 1 and n+1, and both versions are
    computed and compared vertex by vertex.
    """
    if n < 1:
        raise DimensionUnsupported(f"torus dimension must be >= 1, got {n}")
    count = factorial(n + 1)
    if count > budget:
        raise BudgetExceeded(f"{count} vertices exceed the budget of {budget}")
    perms = list(permutations(range(1, n + 2)))
    # endpoints as the objects of one tuple(range(V)) (graph_from_endpoints)
    ids = tuple(range(count))
    index = dict(zip(perms, ids))

    walk = list(range(n, 0, -1)) + list(range(2, n + 1))
    zero = []
    for v, p in zip(ids, perms):
        q = list(p)
        for k in walk:
            q[k - 1], q[k] = q[k], q[k - 1]
        if q[0] != p[n] or q[n] != p[0] or q[1:n] != list(p[1:n]):
            raise AuditFailed("swap walk disagrees with the direct 0-involution")
        u = index[tuple(q)]
        if v < u:
            zero += (v, u)
    endpoints = [zero]
    for k in range(1, n + 1):
        acc = []
        for v, p in zip(ids, perms):
            q = list(p)
            q[k - 1], q[k] = q[k], q[k - 1]
            u = index[tuple(q)]
            if v < u:
                acc += (v, u)
        endpoints.append(acc)
    graph = graph_from_endpoints(endpoints, count)
    if not graph.is_bipartite():
        raise AuditFailed("torus gem is not bipartite")
    return LabeledGem(graph, tuple(_perm_label(p) for p in perms))


def brute_force_color_map(g1, g2, allow_color_perm=False):
    """First color map, in lexicographic order, under which some vertex
    bijection is an isomorphism; None if there is none.  Small V only."""
    if g1.n_colors != g2.n_colors:
        raise ColorCountMismatch(
            f"cannot compare graphs with {g1.n_colors} and {g2.n_colors} colors")
    if g1.num_vertices != g2.num_vertices:
        return None
    n = g1.num_vertices
    if allow_color_perm:
        cmaps = list(permutations(range(g1.n_colors)))
    else:
        cmaps = [tuple(range(g1.n_colors))]

    def extend(vmap, used, v, cmap) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w]:
                continue
            vmap[v] = w
            ok = True
            for c in range(g1.n_colors):
                p = g1.involutions[c][v]
                q = g2.involutions[cmap[c]][w]
                if vmap[p] != -1 and vmap[p] != q:
                    ok = False
                    break
                if vmap[p] == -1 and used[q] and q != w:
                    ok = False
                    break
            if ok:
                used[w] = True
                if extend(vmap, used, v + 1, cmap):
                    return True
                used[w] = False
            vmap[v] = -1
        return False

    for cmap in cmaps:
        if extend([-1] * n, [False] * n, 0, cmap):
            return cmap
    return None


def brute_force_isomorphic(g1, g2, allow_color_perm=False) -> bool:
    """Exhaustive backtracking over vertex bijections."""
    return brute_force_color_map(g1, g2, allow_color_perm) is not None


def _code_from(graph, root, color_order, best=None):
    """Traversal code of root's component, or None once code > best is certain."""
    invs = graph.involutions
    new_id = {root: 0}
    order = [root]
    code = []
    checking = best is not None
    pos = 0
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for c in color_order:
            w = invs[c][v]
            wid = new_id.get(w)
            if wid is None:
                wid = len(order)
                new_id[w] = wid
                order.append(w)
            if checking:
                ref = best[pos]
                if wid > ref:
                    return None
                if wid < ref:
                    checking = False
            code.append(wid)
            pos += 1
    if checking and len(code) > len(best):
        return None
    return code


def _graph_code(graph, color_order):
    codes = []
    for comp in graph.components().members():
        best = None
        for root in comp:
            code = _code_from(graph, root, color_order, best)
            if code is not None:
                best = code
        codes.append(tuple(best))
    codes.sort(key=lambda code: (len(code), code))
    return codes


def unpruned_signature(graph, allow_color_perm=False) -> str:
    """Canonical signature from every root; the oracle for the pruned one."""
    if allow_color_perm:
        codes = min(_graph_code(graph, cmap)
                    for cmap in permutations(range(graph.n_colors)))
    else:
        codes = _graph_code(graph, tuple(range(graph.n_colors)))
    body = "|".join(",".join(map(str, code)) for code in codes)
    return f"{graph.n_colors};{graph.num_vertices};{body}"


# -- moves, one full relabelling and one compaction per step -----------------------


def _excise(graph, phi, excluded_colors):
    lam1 = set(phi)
    lam2 = set(phi.values())
    doomed = lam1 | lam2
    invs = [list(col) for col in graph.involutions]
    for c in range(graph.n_colors):
        if c in excluded_colors:
            continue
        col = invs[c]
        for u, w in phi.items():
            p = col[u]
            q = col[w]
            if p in lam1:
                if q != phi[p]:
                    raise ResultInvalid(
                        f"color {c}: interior edge {u}-{p} has no matching image edge")
                continue
            if p in lam2 or q in doomed:
                raise ResultInvalid(
                    f"color {c}: edge at vertex {u} crosses into the removed set")
            col[p] = q
            col[q] = p
    vmap = [-1] * graph.num_vertices
    fresh = 0
    for v in range(graph.num_vertices):
        if v not in doomed:
            vmap[v] = fresh
            fresh += 1
    new_invs = []
    for c, col in enumerate(invs):
        new_col = [0] * fresh
        for v, nv in enumerate(vmap):
            if nv == -1:
                continue
            t = vmap[col[v]]
            if t == -1:
                raise ResultInvalid(
                    f"color {c}: survivor {v} still wired into the removed set")
            new_col[nv] = t
        new_invs.append(new_col)
    try:
        out = ColoredGraph(new_invs)
    except GraphValidationError as exc:
        raise ResultInvalid(str(exc)) from exc
    return MoveResult(out, tuple(vmap))


def stepwise_check_dipole(graph, spec):
    v1, v2 = spec.v1, spec.v2
    if v1 == v2:
        raise NotADipole("the two dipole vertices coincide")
    for c in spec.colors:
        graph._check_color(c)
    if not 1 <= len(spec.colors) <= graph.n_colors - 1:
        raise NotADipole("dipole order out of range")
    joined = frozenset(
        c for c in range(graph.n_colors) if graph.involutions[c][v1] == v2)
    if joined != spec.colors:
        raise NotADipole("wrong joined colors")
    rest = [c for c in range(graph.n_colors) if c not in spec.colors]
    comps = graph.components(rest)
    if comps.labels[v1] == comps.labels[v2]:
        raise NotADipole("shared residue")


def stepwise_find_dipoles(graph, order=None):
    out = []
    for v1 in range(graph.num_vertices):
        joined = {}
        for c in range(graph.n_colors):
            w = graph.involutions[c][v1]
            if w > v1:
                joined.setdefault(w, set()).add(c)
        for v2 in sorted(joined):
            cols = joined[v2]
            if order is not None and len(cols) != order:
                continue
            if len(cols) == graph.n_colors:
                continue
            spec = DipoleSpec(v1, v2, frozenset(cols))
            try:
                stepwise_check_dipole(graph, spec)
            except NotADipole:
                continue
            out.append(spec)
    return out


def copying_add_dipole(graph, at_vertex, colors):
    """add_dipole the way it once ran: copy every color with two new
    entries, reroute the non-dipole colors at at_vertex through them and
    validate the copies as a fresh ColoredGraph."""
    colors = frozenset(colors)
    for c in colors:
        graph._check_color(c)
    if not 1 <= len(colors) <= graph.n_colors - 1:
        raise NotADipole(
            f"a dipole involves between 1 and {graph.n_colors - 1} colors, "
            f"got {len(colors)}")
    if not 0 <= at_vertex < graph.num_vertices:
        raise MoveError(f"vertex {at_vertex} out of range")
    v1 = graph.num_vertices
    v2 = v1 + 1
    invs = []
    for c, col in enumerate(graph.involutions):
        col = list(col) + [0, 0]
        if c in colors:
            col[v1], col[v2] = v2, v1
        else:
            u = col[at_vertex]
            col[at_vertex], col[v1] = v1, at_vertex
            col[v2], col[u] = u, v2
        invs.append(col)
    return MoveResult(ColoredGraph(invs), tuple(range(graph.num_vertices)),
                      added=(v1, v2))


def stepwise_cancel_dipole(graph, spec):
    stepwise_check_dipole(graph, spec)
    return _excise(graph, {spec.v1: spec.v2}, spec.colors)


def glue_sides_meet(graph, color, lam1, lam2):
    """Whether the glue sides share a residue without `color`, by full labelling."""
    comps = graph.components(c for c in range(graph.n_colors) if c != color)
    return bool({comps.labels[v] for v in lam1} & {comps.labels[v] for v in lam2})


def stepwise_polyhedral_glue(graph, spec):
    graph._check_color(spec.color)
    lam1, lam2 = tuple(spec.lambda1), tuple(spec.lambda2)
    if not lam1 or len(lam1) != len(lam2):
        raise PhiNotIsomorphism("phi must pair the two sides")
    pos1 = {v: k for k, v in enumerate(lam1)}
    pos2 = {v: k for k, v in enumerate(lam2)}
    if len(pos1) != len(lam1) or len(pos2) != len(lam2):
        raise PhiNotIsomorphism("repeated vertex inside a glue side")
    if set(lam1) & set(lam2):
        raise SameComponentInIHat("the two glue sides overlap")
    i = spec.color
    for u, w in zip(lam1, lam2):
        if graph.involutions[i][u] != w:
            raise MissingIColoredMatching("missing crossing edge")
    for c in range(graph.n_colors):
        if c == i:
            continue
        col = graph.involutions[c]
        for k, u in enumerate(lam1):
            w = lam2[k]
            p = col[u]
            q = col[w]
            if p in pos1:
                if q != lam2[pos1[p]]:
                    raise PhiNotIsomorphism("edge not mirrored")
            elif q in pos2:
                raise PhiNotIsomorphism("edge has no preimage")
    if glue_sides_meet(graph, i, lam1, lam2):
        raise SameComponentInIHat("glue sides meet the same residue")
    return _excise(graph, dict(zip(lam1, lam2)), {i})


def combined_clauses(graph, spec):
    """(residue clause holds, separation clause holds), by full labelling."""
    k, i, j = spec.k, spec.i, spec.j
    v1, v2 = spec.pair
    v1p, v2p = spec.pair_image
    comps3 = graph.components(
        c for c in range(graph.n_colors) if c not in (i, j, k))
    comps2 = graph.components(c for c in range(graph.n_colors) if c not in (i, j))
    return (len({comps3.labels[v] for v in (v1, v2, v1p, v2p)}) == 4,
            comps2.labels[v1] != comps2.labels[v1p])


def stepwise_combined_move(graph, spec):
    k, i, j = spec.k, spec.i, spec.j
    for c in (k, i, j):
        graph._check_color(c)
    if len({k, i, j}) != 3:
        raise PreconditionFailed("colors must be distinct")
    v1, v2 = spec.pair
    v1p, v2p = spec.pair_image
    if graph.involutions[k][v1] != v2:
        raise PreconditionFailed("pair clause")
    if graph.involutions[k][v1p] != v2p:
        raise PreconditionFailed("pair-image clause")
    for a, b in ((v1, v1p), (v2, v2p)):
        for c in (i, j):
            if graph.involutions[c][a] != b:
                raise PreconditionFailed("double-edge clause")
    residue, separation = combined_clauses(graph, spec)
    if not residue:
        raise PreconditionFailed("residue clause")
    if not separation:
        raise PreconditionFailed("separation clause")
    return _excise(graph, {v1: v1p, v2: v2p}, {i, j})


def stepwise_run_script(gem, steps):
    """run_script with a full relabelling, excision and LabeledGem per step."""
    def resolve(label):
        if not gem.has_label(label):
            raise MoveError(f"unknown vertex label {label!r}")
        return gem.vertex(label)

    trace = [gem.graph.num_vertices]
    for step_no, step in enumerate(steps, start=1):
        try:
            if step.kind == "dipole":
                (l1, l2), = step.groups
                spec = DipoleSpec(resolve(l1), resolve(l2), frozenset(step.colors))
                result = stepwise_cancel_dipole(gem.graph, spec)
            elif step.kind == "glue":
                lam1 = tuple(resolve(l) for l in step.groups[0])
                lam2 = tuple(resolve(l) for l in step.groups[1])
                result = stepwise_polyhedral_glue(
                    gem.graph, GlueSpec(step.colors[0], lam1, lam2))
            elif step.kind == "combined":
                k, i, j = step.colors
                pair = tuple(resolve(l) for l in step.groups[0])
                image = tuple(resolve(l) for l in step.groups[1])
                result = stepwise_combined_move(
                    gem.graph, CombinedSpec(k, i, j, pair, image))
            else:
                raise MoveError(f"unknown step kind {step.kind!r}")
        except GemError as exc:
            raise type(exc)(f"step {step_no} (line {step.line}): {exc}") from exc
        labels = [""] * result.graph.num_vertices
        for old, new in enumerate(result.vertex_map):
            if new != -1:
                labels[new] = gem.labels[old]
        gem = LabeledGem(result.graph, labels)
        trace.append(result.graph.num_vertices)
    return ScriptResult(gem, tuple(trace))


def combined_move_factored(graph, spec, labels=None):
    """The combined move as two dipole cancellations.

    First the {i,j} 2-dipole whose pair contains the smallest vertex (by
    label when labels are supplied, by id otherwise), then the {i,j,k}
    3-dipole the first cancellation creates.  Pins the one-shot rewiring
    against the textbook factorization.
    """
    k, i, j = spec.k, spec.i, spec.j
    v1, v2 = spec.pair
    v1p, v2p = spec.pair_image
    key = (lambda v: labels[v]) if labels is not None else (lambda v: v)
    first = min((v1, v2, v1p, v2p), key=key)
    if first in (v1, v1p):
        two, three = (v1, v1p), (v2, v2p)
    else:
        two, three = (v2, v2p), (v1, v1p)
    r1 = cancel_dipole(graph, DipoleSpec(two[0], two[1], frozenset((i, j))))
    a = r1.vertex_map[three[0]]
    b = r1.vertex_map[three[1]]
    r2 = cancel_dipole(r1.graph, DipoleSpec(a, b, frozenset((i, j, k))))
    vmap = tuple(
        -1 if r1.vertex_map[v] == -1 else r2.vertex_map[r1.vertex_map[v]]
        for v in range(graph.num_vertices))
    return MoveResult(r2.graph, vmap)


def looped_involutions(involutions):
    """ColoredGraph's checks vertex by vertex, in order: the involutions as
    given (as tuples), or the first refusal."""
    invs = tuple(tuple(col) for col in involutions)
    if len(invs) < 2:
        raise ColorOutOfRange(f"need at least 2 colors, got {len(invs)}")
    nv = len(invs[0])
    if nv == 0 or nv % 2:
        raise OddVertexCount(f"number of vertices must be even and positive, got {nv}")
    for c, col in enumerate(invs):
        if len(col) != nv:
            raise VertexCountMismatch(
                f"color {c} defined on {len(col)} vertices, expected {nv}")
        for v, w in enumerate(col):
            if not isinstance(w, int):
                raise TypeError(
                    f"color {c}: partners must be ints, got {w!r} at vertex {v}")
            if not 0 <= w < nv:
                raise VertexCountMismatch(f"color {c}: partner {w} of vertex {v} out of range")
            if w == v:
                raise LoopEdge(f"color {c}: vertex {v} matched to itself")
            if col[w] != v:
                raise DuplicateVertexInColor(
                    f"color {c}: not an involution at vertices {v}, {w}")
    return invs


def pairwise_new_graph(n_colors, pairs_per_color, num_vertices=None):
    """new_graph filling every color pair by pair, checking each pair."""
    pairs_per_color = [list(p) for p in pairs_per_color]
    if len(pairs_per_color) != n_colors:
        raise ColorOutOfRange(
            f"got edge lists for {len(pairs_per_color)} colors, expected {n_colors}")
    if num_vertices is None:
        num_vertices = 0
        for pairs in pairs_per_color:
            for a, b in pairs:
                num_vertices = max(num_vertices, a + 1, b + 1)
    if num_vertices <= 0 or num_vertices % 2:
        raise OddVertexCount(f"number of vertices must be even and positive, got {num_vertices}")
    invs = []
    for c, pairs in enumerate(pairs_per_color):
        col = [-1] * num_vertices
        for a, b in pairs:
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise VertexCountMismatch(
                    f"color {c}: edge {a}-{b} mentions a vertex outside 0..{num_vertices - 1}")
            if a == b:
                raise LoopEdge(f"color {c}: loop at vertex {a}")
            if col[a] != -1:
                raise DuplicateVertexInColor(f"color {c}: vertex {a} used twice")
            if col[b] != -1:
                raise DuplicateVertexInColor(f"color {c}: vertex {b} used twice")
            col[a], col[b] = b, a
        missing = col.count(-1)
        if missing:
            raise VertexCountMismatch(
                f"color {c}: {missing} of {num_vertices} vertices have no edge")
        invs.append(tuple(col))
    return ColoredGraph(invs)


_TOKEN = re.compile(r"\S+")
_PAIR = re.compile(r"^(\d+)-(\d+)$")


def _tokens(raw):
    code = raw.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]


def _number(digits, line_no, column):
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{len(digits)}-digit number is too long",
                         line_no, column) from None


def token_parse_gem(text):
    """parse_gem one token at a time: a (token, column) tuple per token."""
    n_colors = None
    num_vertices = None
    labels = {}
    pairs = {}
    first_lines = {}
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
            if len(toks) != 2 or not toks[1][0].isdecimal():
                raise ParseError("expected: colors <count>", line_no, col0)
            n_colors = _number(toks[1][0], line_no, toks[1][1])
        if word == "vertices":
            if len(toks) != 2 or not toks[1][0].isdecimal():
                raise ParseError("expected: vertices <count>", line_no, col0)
            num_vertices = _number(toks[1][0], line_no, toks[1][1])
        if word in ("colors", "vertices"):
            # a count line is read, then refused when it is not the first
            if word in first_lines:
                raise ParseError(f"second '{word}' line; the first is line "
                                 f"{first_lines[word]}", line_no, col0)
            first_lines[word] = line_no
            continue
        if word == "label":
            if len(toks) != 3 or not toks[1][0].isdecimal():
                raise ParseError("expected: label <id> <name>", line_no, col0)
            if num_vertices is None:
                raise ParseError("'vertices' must come before labels", line_no, col0)
            vid = _number(toks[1][0], line_no, toks[1][1])
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
            if not ctok.endswith(":") or not ctok[:-1].isdecimal():
                raise ParseError(f"expected '<color>:', got {ctok!r}", line_no, ccol)
            color = _number(ctok[:-1], line_no, ccol)
            if color >= n_colors:
                raise ColorOutOfRange(
                    f"line {line_no}: color {color} not in 0..{n_colors - 1}")
            bucket = pairs.setdefault(color, [])
            for tok, col in toks[2:]:
                m = _PAIR.match(tok)
                if not m:
                    raise ParseError(f"expected 'a-b' pair, got {tok!r}", line_no, col)
                bucket.append((_number(m.group(1), line_no, col),
                               _number(m.group(2), line_no, col)))
            continue
        raise ParseError(f"unknown statement {word!r}", line_no, col0)
    if not saw_header:
        raise ParseError("empty file; expected 'gem 1' header", 1, 1)
    if n_colors is None:
        raise ParseError("missing 'colors' line", 1, 1)
    if num_vertices is None:
        raise ParseError("missing 'vertices' line", 1, 1)
    for c in range(n_colors):
        missing = num_vertices - 2 * len(pairs.get(c, ()))
        if missing > 0:
            raise VertexCountMismatch(
                f"color {c}: {missing} of {num_vertices} vertices have no edge")
    graph = pairwise_new_graph(
        n_colors,
        [pairs.get(c, []) for c in range(n_colors)],
        num_vertices=num_vertices)
    full_labels = [labels.get(v, str(v)) for v in range(num_vertices)]
    return LabeledGem(graph, full_labels)


def edges_render_gem(gem, comment=None):
    """render_gem writing each color line from `ColoredGraph.edges`."""
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


def _requoted(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def requoting_export_dot(gem, name="gem"):
    """export_dot quoting a label again for every line that names it."""
    if isinstance(gem, ColoredGraph):
        gem = LabeledGem(gem)
    graph = gem.graph
    lines = [f"graph {name} {{"]
    lines.append("  // edge colors: " + " ".join(
        f"{c}={DOT_PALETTE[c % len(DOT_PALETTE)]}" for c in range(graph.n_colors)))
    lines.append("  node [shape=circle fontsize=10];")
    for v in range(graph.num_vertices):
        lines.append(f"  {_requoted(gem.labels[v])};")
    for c in range(graph.n_colors):
        rgb = DOT_PALETTE[c % len(DOT_PALETTE)]
        for a, b in graph.edges(c):
            lines.append(
                f"  {_requoted(gem.labels[a])} -- {_requoted(gem.labels[b])}"
                f" [color=\"{rgb}\" penwidth=1.6];")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def rowwise_export_gluings(gem):
    """export_gluings building each row's partner names one color at a time."""
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


def looped_relabel(graph, new_id):
    """graph.relabel(new_id), filling each new column vertex by vertex."""
    invs = []
    for col in graph.involutions:
        new_col = [0] * graph.num_vertices
        for v, w in enumerate(col):
            new_col[new_id[v]] = new_id[w]
        invs.append(new_col)
    return ColoredGraph(invs)


def sheet_filter_middle_subgraph(gem):
    """middle_subgraph by filtering the labels on sheets 2..5."""
    graph = gem.graph
    keep = [v for v in range(graph.num_vertices)
            if 2 <= int(gem.label_of(v).split("^")[1]) <= 5]
    index = {v: k for k, v in enumerate(keep)}
    pairs = []
    for c in (0, 1, 3, 4):
        acc = []
        for v in keep:
            u = graph.partner(v, c)
            if u not in index:
                raise AuditFailed(f"middle subgraph not closed under color {c}")
            if v < u:
                acc.append((index[v], index[u]))
        pairs.append(acc)
    sub = new_graph(4, pairs, num_vertices=len(keep))
    return LabeledGem(sub, tuple(gem.label_of(v) for v in keep))


def _guarded_product(args):
    if not args.file:
        raise GemError("build product-gem needs a base gem file")
    return product_gem(_read_gem(args.file))


def _guarded_torus(args):
    if args.n is None:
        raise GemError("build torus-cube needs --n")
    if args.budget is None:
        return torus_gem(args.n)
    return torus_gem(args.n, budget=args.budget)


def _guarded_small_cover(args):
    if args.lam is None:
        raise GemError("build small-cover needs --lambda")
    return small_cover_gem(args.lam)


# build name -> the gem it makes from the parsed arguments
_GUARDED_CATALOGUE = {
    "s2xs1": lambda args: s2xs1_standard(),
    "t3": lambda args: t3_standard(),
    "g1prime": lambda args: g1_prime(),
    "g2prime": lambda args: g2_prime(),
    "product-gem": _guarded_product,
    "torus-cube": _guarded_torus,
    "small-cover": _guarded_small_cover,
}

# build argument -> (how it is written, the one name that reads it)
_BUILD_OPTIONS = {
    "file": ("a base gem file", "product-gem"),
    "n": ("--n", "torus-cube"),
    "budget": ("--budget", "torus-cube"),
    "lam": ("--lambda", "small-cover"),
}


def guarded_cmd_build(args):
    """The build command's (object, lines, document) answer."""
    for dest, (written, reader) in _BUILD_OPTIONS.items():
        if getattr(args, dest) is not None and args.name != reader:
            raise GemError(f"build {args.name} does not take {written}")
    gem = _GUARDED_CATALOGUE[args.name](args)
    text = render_gem(gem)
    return ({"name": args.name, "colors": gem.graph.n_colors,
             "vertices": gem.graph.num_vertices, "gem": text}, [], text)


FACET_DROPS = ((1, 2), (1, 1), (0, 2), (0, 1), (1, 0), (0, 0))


def facet_contains(facet0, i, j):
    """Whether the 0-based facet holds the polytope vertex of corners (i, j)."""
    factor, dropped = FACET_DROPS[facet0]
    return (i, j)[factor] != dropped


def incidence_facet_vertex_labels(facet):
    """facet_vertex_labels asking facet_contains at each of the nine vertices."""
    if not isinstance(facet, int) or not 1 <= facet <= 6:
        raise InvalidCharacteristicFunction(f"facet must be 1..6, got {facet!r}")
    return tuple((i + j, j) for i in range(3) for j in range(3)
                 if facet_contains(facet - 1, i, j))


def incidence_validate_characteristic_function(masks):
    """validate_characteristic_function asking facet_contains for every facet
    at every polytope vertex."""
    try:
        vectors = iter(masks)
    except TypeError:
        raise InvalidCharacteristicFunction(
            f"need 6 facet vectors, got {masks!r}") from None
    masks = tuple(vectors)
    if len(masks) != 6:
        raise InvalidCharacteristicFunction(
            f"need 6 facet vectors, got {len(masks)}")
    for pos, m in enumerate(masks):
        if not isinstance(m, int) or not 1 <= m <= 15:
            raise InvalidCharacteristicFunction(
                f"facet {pos + 1} vector {m!r} is not a nonzero (Z/2)^4 value")
    for i in range(3):
        for j in range(3):
            around = tuple(f for f in range(6) if facet_contains(f, i, j))
            if _gf2_rank(masks[f] for f in around) != 4:
                raise InvalidCharacteristicFunction(
                    "facets %s meeting at polytope vertex (%d,%d) do not form"
                    " a basis" % (",".join(str(f + 1) for f in around),
                                  i + j, j))
    return masks


# Per copy, sheets share 3-faces as listed by color; every (sheet, color)
# pair not listed is a boundary face lying on the given 1-based facet.
STAIRCASE_INTERNAL = {1: ((2, 4), (3, 5)), 2: ((1, 2), (5, 6)),
                      3: ((2, 3), (4, 5))}
STAIRCASE_BOUNDARY = {
    (1, 0): 6, (1, 1): 4, (1, 3): 2, (1, 4): 1,
    (2, 0): 6, (2, 4): 1,
    (3, 0): 6, (3, 2): 2, (3, 4): 3,
    (4, 0): 5, (4, 2): 4, (4, 4): 1,
    (5, 0): 5, (5, 4): 3,
    (6, 0): 5, (6, 1): 2, (6, 3): 4, (6, 4): 3,
}


def tabled_small_cover_gem(masks):
    """small_cover_gem from the hand tables, without its audits."""
    if isinstance(masks, int):
        masks = enumerate_characteristic_functions()[masks - 1]
    masks = validate_characteristic_function(masks)

    def vid(w, sheet):
        return w * 6 + sheet - 1

    pairs = [[] for _ in range(5)]
    for color, joins in STAIRCASE_INTERNAL.items():
        for s, t in joins:
            pairs[color].extend((vid(w, s), vid(w, t)) for w in range(16))
    for (sheet, color), facet in STAIRCASE_BOUNDARY.items():
        step = masks[facet - 1]
        pairs[color].extend(
            (vid(w, sheet), vid(w ^ step, sheet))
            for w in range(16) if w < w ^ step)
    return LabeledGem(new_graph(5, pairs, num_vertices=96), COVER_LABELS)


def _label_word(label):
    return label[1:label.index("^")]


def label_characteristic_function(gem):
    """infer_characteristic_function by formatting and slicing labels."""
    graph = gem.graph
    first = {}
    for face, (_, facet) in _STAIRCASE.items():
        first.setdefault(facet, face)

    def across(sheet, color):
        twin = gem.label_of(graph.partner(gem.vertex(f"T0^{sheet}"), color))
        return word_mask(_label_word(twin))

    return validate_characteristic_function(
        across(*first[facet]) for facet in range(1, 7))


def label_word_partition(gem, colors, start_sheet):
    """Word classes of the bicolored cycles met from the given sheet."""
    comps = gem.graph.components(colors)
    members = comps.members()
    parts = set()
    for w in range(16):
        start = gem.vertex(f"T{mask_word(w)}^{start_sheet}")
        parts.add(frozenset(_label_word(gem.label_of(v))
                            for v in members[comps.labels[start]]))
    return parts


def label_reduction_steps(gem, form):
    """reduce_to_crystallization's four glue steps, named by label."""
    graph = gem.graph

    def partners(labels, color):
        return tuple(
            gem.label_of(graph.partner(gem.vertex(l), color)) for l in labels)

    comps = graph.components((0, 4))
    members = comps.members()
    steps = []
    for k, start in enumerate(("T0^1", "T0^6")):
        cycle = members[comps.labels[gem.vertex(start)]]
        lam = tuple(map(gem.label_of, cycle))
        steps.append(ScriptStep("glue", (2,), (lam, partners(lam, 2)), k + 1))
    row = form.rows[3]
    lam = tuple(f"T{w}^{sheet}" for sheet in (2, 4) for w in row)
    steps.append(ScriptStep("glue", (3,), (lam, partners(lam, 3)), 3))
    gone = set(row)
    col = form.column(2)
    lam = tuple(f"T{w}^{sheet}" for sheet in (2, 3) for w in col if w not in gone)
    steps.append(ScriptStep("glue", (1,), (lam, partners(lam, 1)), 4))
    return steps


def _basis_combo(basis, v):
    # the unique GF(2) combination of the 4 basis vectors giving v
    for combo in range(16):
        acc = 0
        for k in range(4):
            if combo >> k & 1:
                acc ^= basis[k]
        if acc == v:
            return combo
    raise AssertionError(f"{v} is not in the span of {basis}")


def per_facet_dj_equivalent(l1, l2):
    """Whether the map forced by facets 1..4 carries l1 to l2 on facets 5, 6."""
    m1 = validate_characteristic_function(l1)
    m2 = validate_characteristic_function(l2)
    for f in (4, 5):
        combo = _basis_combo(m1[:4], m1[f])
        image = 0
        for k in range(4):
            if combo >> k & 1:
                image ^= m2[k]
        if image != m2[f]:
            return False
    return True


# base color -> block color in the circle product; the missing key is the
# dropped color
BLOCK_COLOR_MAP = {
    "D": {1: 1, 2: 2, 3: 3},
    "C": {0: 4, 2: 2, 3: 3},
    "B": {0: 4, 1: 0, 3: 3},
    "A": {0: 4, 1: 0, 2: 1},
}

# same-label perfect matchings between the product's blocks, with their color
BLOCK_MATCHINGS = (
    ("D", "C", 0), ("C", "B", 1), ("B", "A", 2), ("A", "A'", 3),
    ("D", "D'", 4), ("D'", "C'", 0), ("C'", "B'", 1), ("B'", "A'", 2),
)


def paired_product_gem(base):
    """product_gem as pair lists, without its base checks."""
    bg = base.graph
    p2 = bg.num_vertices
    pairs = [[] for _ in range(5)]
    for k in range(8):
        j, off = k % 4, k * p2
        for c in range(4):
            if c != j:
                pairs[c if c > j else (c - 1) % 5] += [
                    (off + a, off + b) for a, b in bg.edges(c)]
    steps = [(r + j, r + j + 1, j) for r in (0, 4) for j in range(3)]
    for k1, k2, color in steps + [(3, 7, 3), (0, 4, 4)]:
        pairs[color] += [(k1 * p2 + v, k2 * p2 + v) for v in range(p2)]
    labels = [f"{base.labels[v]}^{blk}" for blk in PRODUCT_BLOCKS for v in range(p2)]
    return LabeledGem(new_graph(5, pairs, num_vertices=8 * p2), labels)


def paired_order_two_gem(n_colors):
    """order_two_gem as one pair list per color."""
    return LabeledGem(new_graph(n_colors, [[(0, 1)] for _ in range(n_colors)]),
                      ("p", "q"))
