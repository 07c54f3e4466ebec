"""Test-only oracles for the isomorphism layer.

`brute_force_color_map` / `brute_force_isomorphic` search vertex bijections
exhaustively.  `unpruned_signature` is the canonical signature computed
without automorphism pruning: the least traversal code over every root of
every component, for every color bijection when allow_color_perm is set.
"""

from itertools import permutations

from gemkit import ColorCountMismatch


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
