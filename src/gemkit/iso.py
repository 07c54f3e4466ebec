"""Colored-graph isomorphism and canonical signatures.

The workhorse is the traversal code (Lins, *Gems, Computers and Attractors
for 3-Manifolds*, 1995): starting from a root, walk the graph breadth-first,
always trying colors in a fixed order, numbering vertices in discovery
order.  Because every vertex has exactly one partner per color, the walk is
fully determined by the root (and a color relabeling), so two codes are
equal exactly when a color-preserving isomorphism maps one root to the
other; the isomorphism is the pairing of discovery orders.

A walk keeps its discovery ids in a list over all vertices that its
search makes once and passes to every walk; each walk sets the entries of
the vertices it meets and resets just those, so it costs what it visits,
never O(V) per root.  While a walk has a best code to beat, it only
compares its ids with best's: a walk that ties returns a copy of best, and
one that falls below copies best's prefix and finishes without comparing.

The canonical signature minimizes the code over the roots of each
component, and over all color bijections when allow_color_perm is set.  A
root whose code ties the best so far gives a color-preserving automorphism;
its orbits are merged into a partition of the vertices, and a root whose
orbit already holds a tried root is skipped, since its code would repeat
that root's (McKay & Piperno, "Practical graph isomorphism, II", 2014).
Such automorphisms do not depend on the color order of the walk, so one
partition serves every color bijection.

Over the color bijections (color maps), the first code of the least
sorted list found so far under any map bounds every later map's walks of
the components of its size; a map whose codes for those components all
exceed it is skipped, and otherwise the components it did not bound are
walked in full.  Two maps pi0 and pi whose sorted code lists tie give a
color automorphism sigma, with sigma[pi0[s]] = pi[s]: the pairing of
their discovery orders carries each pi0[s]-edge to a pi[s]-edge.  The
least codes under pi' and sigma.pi' are then equal for every pi', so the
search keeps the set of walked maps spread under the automorphisms found
so far and skips every map in it; it never builds the group itself.  More
than MAX_COLOR_MAPS maps (9 or more colors) raise BudgetExceeded before any
walk or factorial, in isomorphic too.

isomorphic compares the pair-cycle tables (invariants.pair_cycles) under
each color map as it comes to that map, in lexicographic order, so a map
that answers ends the search before later maps are filtered.  It anchors
one root per component of g1, its smallest vertex, and for each map that
passes scans the roots of each same-size component of g2 until a code
equals the anchor's, abandoning every walk at its first difference.  The
pairing of discovery orders is the witness, replayed edge by edge before it
is returned, one color at a time by itemgetter, in one C-level pass each.
"""

from __future__ import annotations

from itertools import chain, islice, permutations
from math import factorial
from operator import itemgetter

from .core import ColoredGraph, _factorial_within
from .errors import BudgetExceeded, ColorCountMismatch
from .invariants import pair_cycles

# the most color maps a color-permuted search enumerates: 8 colors
MAX_COLOR_MAPS = factorial(8)


def _code_from(root: int, cols, seen, best=None, exact: bool = False):
    """Traversal code of root's component, abandoned early against best.

    cols[r] is the involution of slot r's color.  seen is a list of None
    over every vertex, which the walk uses for discovery ids and leaves
    all None again.  Returns (code, discovery_order), or (None, None) once
    code > best is certain (with exact, once code != best is).  best must
    come from a component of root's size.
    """
    order = [root]
    seen[root] = 0
    try:
        if best is None:
            return _walk(order, cols, seen, [], 0), order
        pos = 0
        n = 1  # the id of the next new vertex, len(order)
        add = order.append
        for v in order:
            for col in cols:
                w = col[v]
                wid = seen[w]
                if wid is None:
                    wid = seen[w] = n
                    n += 1
                    add(w)
                if wid != best[pos]:
                    if exact or wid > best[pos]:
                        return None, None
                    # below best: v's slots walk again, to the same ids
                    start = pos // len(cols)
                    return (_walk(order, cols, seen, best[:start * len(cols)],
                                  start), order)
                pos += 1
        return list(best), order
    finally:
        for w in order:
            seen[w] = None


def _walk(order, cols, seen, code, start):
    """code extended by the ids of every slot of order[start:], numbering
    each vertex first met by its place in order."""
    append, add = code.append, order.append
    n = len(order)
    for v in islice(order, start, None):
        for col in cols:
            w = col[v]
            wid = seen[w]
            if wid is None:
                wid = seen[w] = n
                n += 1
                add(w)
            append(wid)
    return code


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _min_component_code(vertices, cols, seen, parent, bound=None):
    """Lexicographically least traversal code over roots in one component.

    cols and seen are as for _code_from.  parent is a union-find forest
    over all vertices whose classes are automorphism orbits; every tie with
    a code found under cols merges the orbits of the automorphism it gives.
    bound, the least code of a component of this size under another color
    order, abandons every walk that exceeds it.  A tie with bound is not a
    color-preserving automorphism: it carries that component, recolored,
    onto this one, which makes bound the least code here too, so the search
    stops there.  Returns None when every root's code exceeds bound.
    """
    best, best_order = bound, None
    tried = set()  # orbit representatives holding a root tried here
    for root in vertices:
        rep = _find(parent, root)
        if rep in tried:
            continue
        tried.add(rep)
        code, order = _code_from(root, cols, seen, best)
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


def _graph_code(graph: ColoredGraph, comps, color_order, parent, seen,
                bound=None):
    """Component codes sorted by (length, code).

    bound, the least code in the sorted list under another color order,
    bounds the walks of the components of its size; None when all of
    their codes exceed it, since the list then exceeds the other one.
    """
    cols = [graph.involutions[c] for c in color_order]
    codes = [None] * len(comps)
    if bound is not None:
        size = len(bound) // graph.n_colors
        for i, comp in enumerate(comps):
            if len(comp) == size:
                codes[i] = _min_component_code(comp, cols, seen, parent,
                                               bound)
        if all(code is None for code in codes):
            return None
    for i, comp in enumerate(comps):
        if codes[i] is None:
            codes[i] = _min_component_code(comp, cols, seen, parent)
    codes.sort(key=lambda code: (len(code), code))
    return codes


def _color_maps(n_colors: int):
    """Every color map in lexicographic order, refused beyond MAX_COLOR_MAPS."""
    if _factorial_within(n_colors, MAX_COLOR_MAPS) is None:
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


def _least_color_map_codes(graph: ColoredGraph, comps, parent, seen):
    """Component codes under the color map whose sorted code list is least.

    The first code of the least list found so far, under any map, bounds
    each later map's components of its size (_graph_code).  When the code
    lists under pi0 and pi tie, pairing their discovery orders is a color
    automorphism sigma with sigma[pi0[s]] = pi[s].  The least codes under
    sigma.pi' and pi' are then equal for every pi', so each map that the
    automorphisms found so far carry a walked map to is skipped.
    """
    best = best_map = None
    generators: list[tuple] = []
    covered: set[tuple] = set()  # walked maps and their images
    for cmap in _color_maps(graph.n_colors):
        if cmap in covered:
            continue
        bound = None if best is None else best[0]
        codes = _graph_code(graph, comps, cmap, parent, seen, bound)
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
    seen = [None] * graph.num_vertices  # every walk's ids, reset after it
    if allow_color_perm:
        codes = _least_color_map_codes(graph, comps, parent, seen)
    else:
        codes = _graph_code(graph, comps, tuple(range(graph.n_colors)), parent,
                            seen)
    body = "|".join(",".join(map(str, code)) for code in codes)
    return f"{graph.n_colors};{graph.num_vertices};{body}"


def _matching_order(comp, cols, seen, code):
    """Discovery order of the first root in comp whose code equals code."""
    for root in comp:
        found, order = _code_from(root, cols, seen, code, exact=True)
        if found is not None:
            return order
    return None


def _anchored_map(g2: ColoredGraph, anchors, comps2, cmap, seen):
    """Vertex map taking each anchored g1 component onto a distinct g2
    component whose code under cmap equals the anchor's, or None."""
    cols = [g2.involutions[c] for c in cmap]
    vmap = [-1] * g2.num_vertices
    free = list(comps2)
    for code1, order1 in anchors:
        for i, comp in enumerate(free):
            if len(comp) != len(order1):
                continue
            order2 = _matching_order(comp, cols, seen, code1)
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
    # vmap[inv1[v]] against inv2[vmap[v]] for every v at once; V >= 2, so
    # each itemgetter returns a tuple
    by_image = itemgetter(*vmap)
    return all(itemgetter(*inv1)(vmap) == by_image(g2.involutions[c2])
               for inv1, c2 in zip(g1.involutions, cmap))


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
    seen = [None] * g1.num_vertices
    anchors = [_code_from(comp[0], g1.involutions, seen) for comp in comps1]
    for cmap in chain((first,), cmaps):
        # slot r explores color cmap[r] in g2 against color r in g1
        vmap = _anchored_map(g2, anchors, comps2, cmap, seen)
        if vmap is not None and _replays(g1, g2, vmap, cmap):
            return tuple(vmap), tuple(cmap)
    return None
