"""Colored-graph isomorphism and canonical signatures.

The workhorse is the traversal code (Lins, *Gems, Computers and Attractors
for 3-Manifolds*, 1995): starting from a root, walk the graph breadth-first,
always trying colors in a fixed order, numbering vertices in discovery
order.  Because every vertex has exactly one partner per color, the walk is
fully determined by the root (and a color relabeling), so two codes are
equal exactly when a color-preserving isomorphism maps one root to the
other; the isomorphism is the pairing of discovery orders.

The canonical signature minimizes the code over the roots of each
component, and over all color bijections when allow_color_perm is set.  A
root whose code ties the best so far gives a color-preserving automorphism;
its orbits are merged into a partition of the vertices, and a root whose
orbit already holds a tried root is skipped, since its code would repeat
that root's (McKay & Piperno, "Practical graph isomorphism, II", 2014).
Such automorphisms do not depend on the color order of the walk, so one
partition serves every color bijection.

Over the color bijections (color maps), the least code found so far under
any map bounds every later walk of a connected graph.  Two maps pi0 and pi
whose sorted code lists tie give a color automorphism sigma, with
sigma[pi0[s]] = pi[s]: the pairing of their discovery orders carries each
pi0[s]-edge to a pi[s]-edge.  The least codes under pi' and sigma.pi' are
then equal for every pi', so the search keeps the set of walked maps
spread under the automorphisms found so far and skips every map in it;
it never builds the group itself.  More than MAX_COLOR_MAPS maps (9 or
more colors) raise BudgetExceeded before any walk, in isomorphic too.

isomorphic compares the pair-cycle tables (invariants.pair_cycles) under
each color map as it comes to that map, in lexicographic order, so a map
that answers ends the search before later maps are filtered.  It anchors
one root per component of g1, its smallest vertex, and for each map that
passes scans the roots of each same-size component of g2 until a code
equals the anchor's, abandoning every walk at its first difference.  The
pairing of discovery orders is the witness, replayed edge by edge before it
is returned.
"""

from __future__ import annotations

from itertools import chain, permutations
from math import factorial
from operator import itemgetter

from .core import ColoredGraph
from .errors import BudgetExceeded, ColorCountMismatch
from .invariants import pair_cycles

# the most color maps a color-permuted search enumerates: 8 colors
MAX_COLOR_MAPS = factorial(8)


def _code_from(graph: ColoredGraph, root: int, color_order, best=None,
               exact: bool = False):
    """Traversal code of root's component, abandoned early against best.

    Returns (code, discovery_order), or (None, None) once code > best is
    certain (with exact, once code != best is).  best must come from a
    component of root's size.  color_order[r] is the color of slot r.
    """
    invs = graph.involutions
    new_id = {root: 0}
    order = [root]
    code: list[int] = []
    checking = best is not None  # still tracking equality with best
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
                if wid != ref:
                    if exact or wid > ref:
                        return None, None
                    checking = False
            code.append(wid)
            pos += 1
    return code, order


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _min_component_code(graph: ColoredGraph, vertices, color_order, parent,
                         bound=None):
    """Lexicographically least traversal code over roots in one component.

    parent is a union-find forest over all vertices whose classes are
    automorphism orbits; every tie with a code found under this color order
    merges the orbits of the automorphism it gives.  bound, the least code
    of this component under another color order, abandons every walk that
    exceeds it.  A tie with bound is not a color-preserving automorphism
    but a color automorphism, which makes bound the least code here too, so
    the search stops there.  Returns None when every root's code exceeds
    bound.
    """
    best, best_order = bound, None
    tried = set()  # orbit representatives holding a root tried here
    for root in vertices:
        rep = _find(parent, root)
        if rep in tried:
            continue
        tried.add(rep)
        code, order = _code_from(graph, root, color_order, best)
        if code is None:
            continue
        if code == bound:
            return code
        if code != best:
            best, best_order = code, order
            continue
        # equal codes: best_order[i] -> order[i] is an automorphism
        for a, b in zip(best_order, order):
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[rb] = ra
                if rb in tried:
                    tried.add(ra)
    return None if best_order is None else best


def _graph_code(graph: ColoredGraph, comps, color_order, parent, bound=None):
    """Component codes sorted by (length, code).

    bound, the least code of the graph's one component under another color
    order, abandons the walks that exceed it; None when all of them do.
    """
    if bound is not None:
        code = _min_component_code(graph, comps[0], color_order, parent, bound)
        return None if code is None else [code]
    codes = [_min_component_code(graph, comp, color_order, parent)
             for comp in comps]
    codes.sort(key=lambda code: (len(code), code))
    return codes


def _color_maps(n_colors: int):
    """Every color map in lexicographic order, refused beyond MAX_COLOR_MAPS."""
    if factorial(n_colors) > MAX_COLOR_MAPS:
        raise BudgetExceeded(
            f"{n_colors}! color maps exceed the budget of {MAX_COLOR_MAPS}")
    return permutations(range(n_colors))


def _spread(covered: set, maps, generators) -> None:
    """Add to covered every map that generators, applied on the left, reach
    from maps."""
    stack = list(maps)
    while stack:
        compose = itemgetter(*stack.pop())  # sigma -> sigma.pi
        for sigma in generators:
            image = compose(sigma)
            if image not in covered:
                covered.add(image)
                stack.append(image)


def _least_color_map_codes(graph: ColoredGraph, comps, parent):
    """Component codes under the color map whose sorted code list is least.

    Each walk of a connected graph is bounded by the least code found so
    far, under any map.  When the code lists under pi0 and pi tie, pairing
    their discovery orders is a color automorphism sigma with
    sigma[pi0[s]] = pi[s].  The least codes under sigma.pi' and pi' are
    then equal for every pi', so each map that the automorphisms found so
    far carry a walked map to is skipped.
    """
    best = best_map = None
    generators: list[tuple] = []
    covered: set[tuple] = set()  # walked maps and their images
    for cmap in _color_maps(graph.n_colors):
        if cmap in covered:
            continue
        bound = best[0] if best is not None and len(comps) == 1 else None
        codes = _graph_code(graph, comps, cmap, parent, bound)
        covered.add(cmap)
        _spread(covered, [cmap], generators)
        if codes is None:
            continue
        if best is None or codes < best:
            best, best_map = codes, cmap
        elif codes == best:
            sigma = [0] * graph.n_colors
            for c0, c in zip(best_map, cmap):
                sigma[c0] = c
            generators.append(tuple(sigma))
            _spread(covered, list(covered), generators)
    return best


def _tables_match(table1, table2, cmap) -> bool:
    """Whether cmap carries each pair's cycle lengths in table1 to table2's."""
    return all(table2[min(cmap[i], cmap[j]), max(cmap[i], cmap[j])] == lengths
               for (i, j), lengths in table1.items())


def canonical_signature(graph: ColoredGraph, allow_color_perm: bool = False) -> str:
    """Hashable string equal for two graphs iff they are isomorphic
    (optionally up to a bijection of the palette).

    With allow_color_perm, more than 8 colors raise BudgetExceeded.
    """
    comps = graph.components().members()
    parent = list(range(graph.num_vertices))
    if allow_color_perm:
        codes = _least_color_map_codes(graph, comps, parent)
    else:
        codes = _graph_code(graph, comps, tuple(range(graph.n_colors)), parent)
    body = "|".join(",".join(map(str, code)) for code in codes)
    return f"{graph.n_colors};{graph.num_vertices};{body}"


def _matching_order(graph: ColoredGraph, comp, color_order, code):
    """Discovery order of the first root in comp whose code equals code."""
    for root in comp:
        found, order = _code_from(graph, root, color_order, code, exact=True)
        if found is not None:
            return order
    return None


def _anchored_map(g2: ColoredGraph, anchors, comps2, cmap):
    """Vertex map taking each anchored g1 component onto a distinct g2
    component whose code under cmap equals the anchor's, or None."""
    vmap = [-1] * g2.num_vertices
    free = list(comps2)
    for code1, order1 in anchors:
        for i, comp in enumerate(free):
            if len(comp) != len(order1):
                continue
            order2 = _matching_order(g2, comp, cmap, code1)
            if order2 is not None:
                break
        else:
            return None
        del free[i]
        for a, b in zip(order1, order2):
            vmap[a] = b
    return vmap


def _replays(g1: ColoredGraph, g2: ColoredGraph, vmap, cmap) -> bool:
    """True when vmap is a bijection carrying every c-edge to a cmap[c]-edge."""
    if sorted(vmap) != list(range(g2.num_vertices)):
        return False
    for c in range(g1.n_colors):
        inv1 = g1.involutions[c]
        inv2 = g2.involutions[cmap[c]]
        for v in range(g1.num_vertices):
            if vmap[inv1[v]] != inv2[vmap[v]]:
                return False
    return True


def isomorphic(g1: ColoredGraph, g2: ColoredGraph, allow_color_perm: bool = False):
    """Search for an isomorphism.

    Returns (vertex_map, color_map) with vertex_map[v1] = v2 and
    color_map[c1] = c2, or None.  Color maps are tried in lexicographic
    order, so color_map is the first one that admits an isomorphism.  The
    witness is verified edge-by-edge before being returned.  With
    allow_color_perm, more than 8 colors raise BudgetExceeded.
    """
    if g1.n_colors != g2.n_colors:
        raise ColorCountMismatch(
            f"cannot compare graphs with {g1.n_colors} and {g2.n_colors} colors")
    identity = tuple(range(g1.n_colors))
    cmaps = _color_maps(g1.n_colors) if allow_color_perm else [identity]
    if g1.num_vertices != g2.num_vertices:
        return None
    table1, table2 = pair_cycles(g1), pair_cycles(g2)
    # filtered as they are tried, so the first map that answers ends it
    cmaps = (cmap for cmap in cmaps if _tables_match(table1, table2, cmap))
    first = next(cmaps, None)
    if first is None:
        return None
    comps1 = g1.components().members()
    comps2 = g2.components().members()
    if sorted(map(len, comps1)) != sorted(map(len, comps2)):
        return None
    anchors = [_code_from(g1, comp[0], identity) for comp in comps1]
    for cmap in chain((first,), cmaps):
        # slot r explores color cmap[r] in g2 against color r in g1
        vmap = _anchored_map(g2, anchors, comps2, cmap)
        if vmap is not None and _replays(g1, g2, vmap, cmap):
            return tuple(vmap), tuple(cmap)
    return None
