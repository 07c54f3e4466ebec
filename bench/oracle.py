"""Answers computed apart from gemkit, used to check every CLI output.

Nothing here imports gemkit.  A gem is a tuple (k, invs, labels): k colours,
invs[c][v] the c-partner of vertex v, labels[v] the vertex name.  The
routines are the plain textbook ones (stack flood fill, cycle walk,
enumeration of cyclic orders, edge-by-edge replay), written for clarity
rather than speed.
"""

from itertools import combinations, permutations


class CheckFailed(Exception):
    """An answer of the program disagrees with the independent computation."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# -- the .gem text format -----------------------------------------------------


def parse_gem_text(text):
    """(k, invs, labels) of a .gem text; every colour must pair every vertex once."""
    k = nv = None
    labels = {}
    pairs = {}
    header = False
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if not header:
            require(toks == ["gem", "1"], "gem text does not start with 'gem 1'")
            header = True
        elif toks[0] == "colors":
            k = int(toks[1])
        elif toks[0] == "vertices":
            nv = int(toks[1])
        elif toks[0] == "label":
            labels[int(toks[1])] = toks[2]
        elif toks[0] == "c":
            bucket = pairs.setdefault(int(toks[1].rstrip(":")), [])
            for tok in toks[2:]:
                a, b = tok.split("-")
                bucket.append((int(a), int(b)))
        else:
            raise CheckFailed(f"unknown gem statement {toks[0]!r}")
    require(k is not None and nv is not None, "gem text lacks colors or vertices")
    invs = []
    for c in range(k):
        col = [-1] * nv
        for a, b in pairs.get(c, ()):
            require(a != b and col[a] == -1 and col[b] == -1,
                    f"colour {c}: vertex {a} or {b} listed twice")
            col[a], col[b] = b, a
        require(-1 not in col, f"colour {c} leaves a vertex unmatched")
        invs.append(col)
    return k, invs, [labels.get(v, str(v)) for v in range(nv)]


def render_gem_text(invs, labels):
    """The .gem text in the canonical layout: one sorted line per colour."""
    lines = ["gem 1", f"colors {len(invs)}", f"vertices {len(invs[0])}"]
    lines.extend(f"label {v} {name}" for v, name in enumerate(labels) if name != str(v))
    for c, col in enumerate(invs):
        lines.append(f"c {c}: " + " ".join(f"{v}-{w}" for v, w in enumerate(col) if v < w))
    return "\n".join(lines) + "\n"


def relabel(invs, labels, new_id):
    """The same gem with vertex v renamed new_id[v]; names travel with vertices."""
    nv = len(new_id)
    out = []
    for col in invs:
        new_col = [0] * nv
        for v, w in enumerate(col):
            new_col[new_id[v]] = new_id[w]
        out.append(new_col)
    new_labels = [None] * nv
    for v, name in enumerate(labels):
        new_labels[new_id[v]] = name
    return out, new_labels


def labelled_edges(k, invs, labels):
    """The set of (label, colour, label) edges, each edge once, ends sorted."""
    out = set()
    for c in range(k):
        for v, w in enumerate(invs[c]):
            if v < w:
                a, b = sorted((labels[v], labels[w]))
                out.add((a, c, b))
    return out


# -- residues, cycles, Euler characteristic -------------------------------------


def residue_count(invs, colors):
    """Number of components of the subgraph that keeps only the given colours."""
    cols = [invs[c] for c in colors]
    nv = len(invs[0])
    seen = bytearray(nv)
    count = 0
    for start in range(nv):
        if seen[start]:
            continue
        count += 1
        seen[start] = 1
        stack = [start]
        while stack:
            v = stack.pop()
            for col in cols:
                w = col[v]
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
    return count


def is_bipartite(invs):
    nv = len(invs[0])
    side = [-1] * nv
    for start in range(nv):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for col in invs:
                w = col[v]
                if side[w] < 0:
                    side[w] = side[v] ^ 1
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def cycle_lengths(invs, i, j):
    """Lengths of the {i,j}-coloured cycles, descending."""
    a, b = invs[i], invs[j]
    nv = len(a)
    seen = bytearray(nv)
    out = []
    for start in range(nv):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = 1
            seen[a[v]] = 1
            length += 2
            v = b[a[v]]
        out.append(length)
    return sorted(out, reverse=True)


def pair_counts(invs):
    """{(i, j): number of {i,j}-coloured cycles} for every colour pair."""
    k = len(invs)
    return {(i, j): len(cycle_lengths(invs, i, j))
            for i, j in combinations(range(k), 2)}


def cycle_census(invs):
    """{(i, j): cycle lengths}; equal for two graphs that are isomorphic by colour."""
    k = len(invs)
    return {(i, j): tuple(cycle_lengths(invs, i, j))
            for i, j in combinations(range(k), 2)}


def euler_characteristic(invs):
    """Alternating sum of face counts.

    A face of dimension d is a residue of k-1-d kept colours, so there are
    V faces of dimension k-1 (no colour kept) and one count per subset below.
    """
    k = len(invs)
    chi = 0
    for size in range(k):
        faces = sum(residue_count(invs, kept) for kept in combinations(range(k), size))
        chi += (-1) ** (k - 1 - size) * faces
    return chi


def summary(invs, chi=None):
    """What `gemkit check` reports, by flood fill; a known chi skips its face count."""
    k = len(invs)
    connected = residue_count(invs, range(k)) == 1
    contracted = all(residue_count(invs, [c for c in range(k) if c != j]) == 1
                     for j in range(k))
    return {
        "vertices": len(invs[0]),
        "colors": k,
        "connected": connected,
        "bipartite": is_bipartite(invs),
        "contracted": contracted,
        "crystallization": connected and contracted,
        "chi": euler_characteristic(invs) if chi is None else chi,
    }


# -- regular genus ---------------------------------------------------------------


def canonical_orders(k):
    """Cyclic orders of 0..k-1 (k >= 3) up to rotation and reflection, least first.

    Each starts with 0 and its second entry is less than its last.
    """
    return [(0,) + p for p in permutations(range(1, k)) if p[0] < p[-1]]


def genus_at(counts, nv, perm):
    """(pairs, chi_eps, rho) of the surface carrying the cyclic order perm."""
    k = len(perm)
    pairs = [counts[tuple(sorted((perm[i], perm[(i + 1) % k])))] for i in range(k)]
    twice_chi = 2 * sum(pairs) + (2 - k) * nv  # 2 * (sum + (1 - (k - 1)) V / 2)
    require(twice_chi % 4 == 0, f"surface characteristic {twice_chi}/2 is not even")
    chi = twice_chi // 2
    return pairs, chi, 1 - chi // 2


def min_genus(counts, nv, k):
    """(rho, perm, pairs, chi_eps) minimised over canonical orders, least order on ties."""
    best = None
    for perm in canonical_orders(k):
        pairs, chi, rho = genus_at(counts, nv, perm)
        if best is None or (rho, perm) < (best[0], best[1]):
            best = (rho, perm, pairs, chi)
    return best


def torus_genus(n):
    """Closed form 1 + (n+1)!(n-3)/8 for the n-torus gem, n >= 4."""
    f = 1
    for m in range(2, n + 2):
        f *= m
    return 1 + f * (n - 3) // 8


def genus_bound(chi, rank):
    return 2 * chi + 5 * rank - 4


def stated_order(n):
    """The cyclic order of the n-torus genus formula: evens up, 1, odds down (n odd)."""
    if n % 2 == 0:
        return tuple(range(0, n + 1, 2)) + tuple(range(1, n, 2))
    return tuple(range(0, n, 2)) + (1,) + tuple(range(n, 2, -2))


# -- torus gems from the permutation rule -----------------------------------------


def check_torus_rule(k, invs, labels):
    """Colour j >= 1 swaps entries j and j+1 of the vertex's permutation; 0 swaps first and last."""
    n = k - 1
    fact = 1
    for m in range(2, n + 2):
        fact *= m
    require(len(invs[0]) == fact, f"torus gem has {len(invs[0])} vertices, not {fact}")

    def perm_of(label):
        require(label.startswith("p"), f"torus vertex label {label!r}")
        body = label[1:]
        return tuple(int(x) for x in (body.split(".") if "." in body else body))

    perms = [perm_of(l) for l in labels]
    index = {p: v for v, p in enumerate(perms)}
    require(len(index) == fact and all(sorted(p) == list(range(1, n + 2)) for p in perms),
            "torus labels are not the permutations of 1..n+1")
    for v, p in enumerate(perms):
        q = list(p)
        q[0], q[n] = q[n], q[0]
        require(invs[0][v] == index[tuple(q)], f"colour 0 at {labels[v]} breaks the rule")
        for j in range(1, k):
            q = list(p)
            q[j - 1], q[j] = q[j], q[j - 1]
            require(invs[j][v] == index[tuple(q)], f"colour {j} at {labels[v]} breaks the rule")


# -- isomorphism witnesses ---------------------------------------------------------


def replay(invs1, invs2, vmap, cmap):
    """True iff vmap, cmap carry every c-edge of graph 1 onto a cmap[c]-edge of graph 2."""
    nv = len(invs1[0])
    if len(invs2[0]) != nv or sorted(vmap) != list(range(nv)):
        return False
    if sorted(cmap) != list(range(len(invs1))):
        return False
    for c, col in enumerate(invs1):
        col2 = invs2[cmap[c]]
        for v in range(nv):
            if vmap[col[v]] != col2[vmap[v]]:
                return False
    return True


def find_witness(invs1, invs2):
    """A colour-preserving vertex map of two connected gems, or None.

    Vertex 0 of graph 1 is sent to each vertex of graph 2 in turn; the
    partners then fix the rest of the map, which is replayed.
    """
    nv = len(invs1[0])
    if len(invs2[0]) != nv:
        return None
    cmap = list(range(len(invs1)))
    for root in range(nv):
        vmap = [-1] * nv
        vmap[0] = root
        stack = [0]
        ok = True
        while stack and ok:
            v = stack.pop()
            for c, col in enumerate(invs1):
                w, image = col[v], invs2[c][vmap[v]]
                if vmap[w] == -1:
                    vmap[w] = image
                    stack.append(w)
                elif vmap[w] != image:
                    ok = False
                    break
        if ok and replay(invs1, invs2, vmap, cmap):
            return vmap
    return None
