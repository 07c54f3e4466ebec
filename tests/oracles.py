"""Test-only oracles for the isomorphism and move layers.

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
cancellations.
"""

from itertools import permutations

from gemkit import (ColorCountMismatch, ColoredGraph, CombinedSpec,
                    DipoleSpec, GemError, GlueSpec, GraphValidationError,
                    LabeledGem, MissingIColoredMatching, MoveError, MoveResult,
                    NotADipole, PhiNotIsomorphism, PreconditionFailed,
                    ResultInvalid, SameComponentInIHat, ScriptResult,
                    cancel_dipole)


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
