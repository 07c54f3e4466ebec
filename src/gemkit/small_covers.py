"""Small covers over the product of two triangles.

The base polytope is the product of two triangles: a simple 4-polytope with
nine vertices and six facets, three coming from each factor.  Each facet
drops one corner of one factor, and one rule numbers them: first the four
facets through polytope vertex 0, by factor and then by dropped corner,
both descending, then the two dropping corner 0, by factor descending.  A
characteristic function places a nonzero vector of (Z/2)^4 on every facet
so that the four facets around any polytope vertex receive a basis; gluing
16 copies of the polytope indexed by (Z/2)^4 according to these vectors
yields a closed 4-manifold, the small cover.  The polytope carries a
staircase triangulation by six 4-simplices, one per lattice path from
(0,0) to (2,2), and one rule derives which simplices share a face and
which facet each boundary face lies on; so each cover inherits a colored
triangulation with 96 simplices and hence a 5-colored gem on 96 vertices.

This module enumerates the characteristic functions (normalizing the first
four facet vectors to the standard basis), builds the cover gems, tabulates
their 64-vertex middle subgraph (the {0,1,3,4}-residue through T0^2, cut
out by core._restrict) in compact row/column form, and glues each gem down
to a 52-vertex crystallization, auditing its fixed data at every step.
The readers renumber a cover gem to staircase ids (simplex `sheet` of copy
w is vertex w*6 + sheet - 1) at most once, a built cover never, and compute
on them; only COVER_LABELS spells a label T<word>^<sheet>.
"""

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product

from .core import (ColoredGraph, LabeledGem, _restrict, euler_characteristic_from,
                   face_counts_from)
from .errors import AuditFailed, InvalidCharacteristicFunction
from .invariants import bicolored_cycles
from .iso import canonical_signature
from .moves import ScriptStep, run_script


# -- the polytope ---------------------------------------------------------------

# Facet k (1-based) drops one corner of one triangle factor: (factor,
# dropped corner).  First come the four facets through polytope vertex 0,
# by factor and then by dropped corner, both descending; then the two
# (f, 0) facets, by factor descending.  Polytope vertices are named
# (i+j, j) after the corner pair (i, j) they come from.
_FACET_DROPS = tuple(sorted(product(range(2), range(3)),
                            key=lambda fd: (fd[1] == 0, -fd[0], -fd[1])))

# Corner pair (i, j) -> its four 0-based facets, ascending: the facets
# whose factor's corner is not the dropped one.
_VERTEX_FACETS = {(i, j): tuple(f for f, (factor, dropped) in enumerate(_FACET_DROPS)
                                if (i, j)[factor] != dropped)
                  for i in range(3) for j in range(3)}


def facet_vertex_labels(facet):
    """Vertex labels (i+j, j) lying on the 1-based facet."""
    if not isinstance(facet, int) or not 1 <= facet <= 6:
        raise InvalidCharacteristicFunction(f"facet must be 1..6, got {facet!r}")
    return tuple((i + j, j) for (i, j), on in _VERTEX_FACETS.items() if facet - 1 in on)


def _gf2_rank(vectors):
    pivots = {}
    for v in vectors:
        while v:
            lead = 1 << (v.bit_length() - 1)
            if lead not in pivots:
                pivots[lead] = v
                break
            v ^= pivots[lead]
    return len(pivots)


def validate_characteristic_function(masks):
    """Check six facet vectors (4-bit ints) against the vertex basis rule.

    Returns the vectors as a tuple, or raises InvalidCharacteristicFunction
    naming the offending facet or polytope vertex.
    """
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
    for (i, j), around in _VERTEX_FACETS.items():
        if _gf2_rank(masks[f] for f in around) != 4:
            raise InvalidCharacteristicFunction(
                "facets %s meeting at polytope vertex (%d,%d) do not form"
                " a basis" % (",".join(str(f + 1) for f in around), i + j, j))
    return masks


# The seven valid assignments with the standard basis on facets 1..4, as
# (facet-5, facet-6) vectors, in catalogue order.
CANONICAL_PAIRS = ((3, 12), (3, 15), (3, 13), (3, 14), (15, 12), (7, 12), (11, 12))


@cache
def enumerate_characteristic_functions():
    """All characteristic functions fixing the standard basis on facets 1..4.

    Brute force over both free facet vectors, then checked against the
    catalogue: exactly seven assignments survive the nine vertex basis
    conditions.  Returns them as 6-tuples of 4-bit ints, catalogue order.
    """
    found = set()
    for a in range(1, 16):
        for b in range(1, 16):
            try:
                validate_characteristic_function((1, 2, 4, 8, a, b))
            except InvalidCharacteristicFunction:
                continue
            found.add((a, b))
    if found != set(CANONICAL_PAIRS):
        raise AuditFailed(
            f"characteristic function search found {sorted(found)}")
    return tuple((1, 2, 4, 8, a, b) for a, b in CANONICAL_PAIRS)


def dj_equivalent(l1, l2):
    """Whether a linear automorphism of (Z/2)^4 maps one function to the other.

    Facet labels stay fixed; only the group coordinates may move.  Both
    functions span (Z/2)^4, so a linear map sending each l1(F) to l2(F)
    exists, and is invertible, exactly when the six 8-bit vectors
    l1(F)l2(F) span four dimensions: they are then the graph of that map.
    """
    m1 = validate_characteristic_function(l1)
    m2 = validate_characteristic_function(l2)
    return _gf2_rank(a << 4 | b for a, b in zip(m1, m2)) == 4


# -- cover gems -------------------------------------------------------------------

def mask_word(mask):
    """Word naming a (Z/2)^4 vector: '0' or its set coordinates, ascending."""
    if not isinstance(mask, int) or not 0 <= mask <= 15:
        raise InvalidCharacteristicFunction(f"{mask!r} is not a (Z/2)^4 value")
    return "".join(str(b + 1) for b in range(4) if mask >> b & 1) or "0"


_WORD_MASKS = {mask_word(m): m for m in range(16)}


def word_mask(word):
    """Inverse of mask_word."""
    try:
        return _WORD_MASKS[word]
    except KeyError:
        raise InvalidCharacteristicFunction(
            f"{word!r} does not name a (Z/2)^4 value") from None


# The cover gem's vertex labels T<word>^<sheet>, in vertex order, spelled
# here alone: vertex v is simplex v % 6 + 1 of copy v // 6.
COVER_LABELS = tuple(
    f"T{mask_word(w)}^{sheet}" for w in range(16) for sheet in range(1, 7))


def _require_cover_labels(gem):
    """Raise AuditFailed unless the gem's labels are COVER_LABELS in some order."""
    if set(gem.labels) != set(COVER_LABELS):
        raise AuditFailed("not a small cover gem: its labels are not the 96"
                          " T<word>^<sheet> labels")


def _staircase_ids(gem):
    """The gem's graph, renumbered unless vertex v carries COVER_LABELS[v]."""
    if gem.labels == COVER_LABELS:
        return gem.graph
    _require_cover_labels(gem)
    keep = list(map(gem.vertex, COVER_LABELS))  # old id of each new id
    return ColoredGraph(_restrict(gem.graph.involutions, keep)[0])


# Staircase triangulation of one polytope copy into six 4-simplices: sheet
# s is the simplex on the corner pairs (i, j) of _PATHS[s - 1], a lattice
# path from (0,0) to (2,2) whose step 0 raises i and step 1 raises j, and
# color c is opposite the path's c-th corner.  Where steps c-1 and c
# differ, the sheet across that face has them swapped; otherwise corner c
# alone has its f-index (f-steps before it, f the straight step), and the
# face lies on the facet dropping it.
_PATHS = sorted(set(permutations((0, 0, 1, 1))))


def _staircase():
    """(sheet, color) -> (sheet across, 1-based facet or 0 inside a copy)."""
    faces = {}
    for sheet, path in enumerate(_PATHS, 1):
        for c in range(5):
            if 0 < c < 4 and path[c - 1] != path[c]:
                turned = path[:c - 1] + (path[c], path[c - 1]) + path[c + 1:]
                faces[sheet, c] = (_PATHS.index(turned) + 1, 0)
            else:
                f = path[min(c, 3)]
                drop = (f, path[:c].count(f))
                faces[sheet, c] = (sheet, _FACET_DROPS.index(drop) + 1)
    return faces


_STAIRCASE = _staircase()


def _complements_and_chi(graph):
    """A 5-colored gem's complement residue counts (color 0..4 dropped) and
    its Euler characteristic, both read off one residue_counts() walk."""
    counts = graph.residue_counts()
    return (tuple(counts[tuple(c for c in range(5) if c != m)] for m in range(5)),
            euler_characteristic_from(face_counts_from(counts, 5)))


def small_cover_gem(masks):
    """Build the 96-vertex 5-colored gem of the cover for `masks`.

    `masks` is a characteristic function (six facet vectors) or a 1-based
    index into the canonical seven; an index outside 1..7 raises
    InvalidCharacteristicFunction.  Gem vertices are the simplices of the
    16 polytope copies, labeled T<word>^<sheet> where <word> names the
    (Z/2)^4 copy w and <sheet> the simplex 1..6, vertex w*6 + sheet - 1.
    A color sends each sheet to the one across its _STAIRCASE face, in
    copy w, or in copy w + lambda(F) for a boundary face on facet F.  The
    audit reads complement counts and chi off one residue_counts() walk.
    """
    if isinstance(masks, int):
        if not 1 <= masks <= 7:
            raise InvalidCharacteristicFunction(
                f"catalogue index must be 1..7, got {masks}")
        masks = enumerate_characteristic_functions()[masks - 1]
    masks = validate_characteristic_function(masks)

    cols = [[None] * 96 for _ in range(5)]
    for (sheet, color), (other, facet) in _STAIRCASE.items():
        step = masks[facet - 1] if facet else 0
        cols[color][sheet - 1::6] = [(w ^ step) * 6 + other - 1 for w in range(16)]
    graph = ColoredGraph(cols)
    complements, chi = _complements_and_chi(graph)
    if complements != (1, 2, 3, 2, 1):
        raise AuditFailed(f"cover gem has complement residue counts {complements}")
    if chi != 1 or graph.is_bipartite():
        raise AuditFailed("cover gem fails the basic invariant audit")
    return LabeledGem(graph, COVER_LABELS)


def infer_characteristic_function(gem):
    """Read the six facet vectors back off a cover gem.

    Each facet's vector is the copy across its first face in _STAIRCASE's
    (sheet, color) order, from copy 0.  Raises AuditFailed unless the gem
    carries exactly the cover labels.
    """
    cols = _staircase_ids(gem).involutions
    first = {}
    for face, (_, facet) in _STAIRCASE.items():
        first.setdefault(facet, face)
    return validate_characteristic_function(
        cols[color][sheet - 1] // 6
        for sheet, color in (first[facet] for facet in range(1, 7)))


# -- compact form -----------------------------------------------------------------

def _word_partition(graph, colors, sheets):
    """Copy classes of the bicolored cycles met from each sheet, one labelling."""
    comps = graph.components(colors)
    members = comps.members()
    classes = [{frozenset(v // 6 for v in members[label])
                for label in comps.labels[sheet - 1::6]} for sheet in sheets]
    if any(sorted(map(len, parts)) != [4, 4, 4, 4] for parts in classes):
        raise AuditFailed(
            f"colors {colors} cycles do not split the words into 4+4+4+4")
    return classes


# the middle subgraph's colors, renumbered 0..3 in this order, and labels
_MIDDLE_COLORS = (0, 1, 3, 4)
_MIDDLE_LABELS = frozenset(l for v, l in enumerate(COVER_LABELS) if 1 <= v % 6 <= 4)


def middle_subgraph(gem):
    """The 64-vertex part of a cover gem on sheets 2..5, colors 0, 1, 3, 4.

    It is the {0,1,3,4}-residue through T0^2, its vertices in the gem's
    order and its colors renumbered 0..3 in that order: a 4-colored gem in
    its own right.  Raises AuditFailed unless the gem carries exactly the
    cover labels and that residue holds exactly the sheet-2..5 vertices.
    """
    _require_cover_labels(gem)
    comps = gem.graph.components(_MIDDLE_COLORS)
    keep = comps.members()[comps.labels[gem.vertex(COVER_LABELS[1])]]
    labels = tuple(map(gem.label_of, keep))
    if set(labels) != _MIDDLE_LABELS:
        raise AuditFailed("the {0,1,3,4}-residue through T0^2 is not the 64"
                          " sheet-2..5 vertices")
    columns, _ = _restrict([gem.graph.involutions[c] for c in _MIDDLE_COLORS], keep)
    return LabeledGem(ColoredGraph(columns), labels)


@dataclass(frozen=True)
class CompactForm:
    """4x4 word table: rows from {0,1}-cycles, columns from {3,4}-cycles."""

    index: int   # 1-based position of the cover in the catalogue
    rows: tuple  # four rows of four subscript words

    def column(self, c):
        return tuple(row[c] for row in self.rows)


# Stored table layouts per catalogue index.  Row sets and column sets are
# recomputed from each gem and must match these cell for cell.
COMPACT_LAYOUTS = (
    (("1", "134", "234", "2"), ("0", "34", "1234", "12"),
     ("3", "4", "124", "123"), ("13", "14", "24", "23")),
    (("1", "234", "134", "2"), ("0", "1234", "34", "12"),
     ("3", "124", "4", "123"), ("13", "24", "14", "23")),
    (("1", "34", "1234", "2"), ("0", "134", "234", "12"),
     ("3", "14", "24", "123"), ("13", "4", "124", "23")),
    (("1", "1234", "34", "2"), ("0", "234", "134", "12"),
     ("3", "24", "14", "123"), ("13", "124", "4", "23")),
    (("1", "134", "2", "234"), ("0", "34", "12", "1234"),
     ("3", "4", "123", "124"), ("13", "14", "23", "24")),
    (("1", "134", "24", "23"), ("0", "34", "124", "123"),
     ("3", "4", "1234", "12"), ("13", "14", "234", "2")),
    (("1", "134", "23", "24"), ("0", "34", "123", "124"),
     ("3", "4", "12", "1234"), ("13", "14", "2", "234")),
)


@cache
def _first_middle_signature():
    """Canonical signature of the first cover's middle subgraph."""
    return canonical_signature(middle_subgraph(small_cover_gem(1)).graph)


def compact_form(gem):
    """Tabulate the middle subgraph of a cover gem in compact form.

    Recomputes the row and column word classes from the gem's cycles and
    aligns them with the stored layout for its characteristic function; any
    disagreement is a hard error.  Also checks the middle subgraph itself
    (middle_subgraph owns its 64 vertices): every {0,1}- and {3,4}-cycle of
    length 8, and a single isomorphism class shared by all covers.
    """
    gem = LabeledGem(_staircase_ids(gem), COVER_LABELS)  # the readers renumber none
    masks = infer_characteristic_function(gem)
    try:
        idx = CANONICAL_PAIRS.index(masks[4:]) + 1
    except ValueError:
        raise AuditFailed(f"no stored table layout for facet vectors {masks}")

    middle = middle_subgraph(gem)
    for a, b in ((0, 1), (2, 3)):
        if set(bicolored_cycles(middle.graph, a, b)) != {8}:
            raise AuditFailed(
                f"middle subgraph has a {a},{b} cycle of length other than 8")
    if canonical_signature(middle.graph) != _first_middle_signature():
        raise AuditFailed("middle subgraph differs from the first cover's")

    rows, rows_again = _word_partition(gem.graph, (0, 1), (2, 3))
    if rows != rows_again:
        raise AuditFailed("row classes differ between the two sheet pairs")
    cols, cols_again = _word_partition(gem.graph, (3, 4), (2, 4))
    if cols != cols_again:
        raise AuditFailed("column classes differ between the two sheet pairs")
    layout = COMPACT_LAYOUTS[idx - 1]
    for row in layout:
        if frozenset(map(word_mask, row)) not in rows:
            raise AuditFailed(f"stored row {row} is not a {{0,1}}-cycle class")
    for col in zip(*layout):
        if frozenset(map(word_mask, col)) not in cols:
            raise AuditFailed(f"stored column {col} is not a {{3,4}}-cycle class")
    return CompactForm(idx, layout)


# -- reduction to a crystallization -----------------------------------------------

def reduce_to_crystallization(gem):
    """Glue a 96-vertex cover gem down to a 52-vertex crystallization.

    Four gluings: the {0,4}-cycle through T0^1 folds onto its color-2
    partners, likewise the {0,4}-cycle through T0^6; the last table row
    (sheets 2 and 4) folds onto its color-3 partners; and the surviving
    part of the third table column (sheets 2 and 3) folds onto its color-1
    partners.  Returns the script result; its trace is (96, 88, 80, 64, 52).
    The audit reads complement counts and chi off one residue_counts() walk.
    """
    graph = _staircase_ids(gem)
    form = compact_form(LabeledGem(graph, COVER_LABELS))
    comps = graph.components((0, 4))
    members = comps.members()
    # glue sides as staircase ids, 0 and 5 being T0^1 and T0^6
    row = tuple(map(word_mask, form.rows[3]))
    # the word shared by the row and the column is already gone
    col = [w for w in map(word_mask, form.column(2)) if w not in row]
    sides = (
        (2, members[comps.labels[0]]), (2, members[comps.labels[5]]),
        (3, [w * 6 + sheet - 1 for sheet in (2, 4) for w in row]),
        (1, [w * 6 + sheet - 1 for sheet in (2, 3) for w in col]))
    steps = [
        ScriptStep("glue", (color,), (
            tuple(COVER_LABELS[v] for v in lam),
            tuple(COVER_LABELS[graph.involutions[color][v]] for v in lam)), k)
        for k, (color, lam) in enumerate(sides, 1)]

    result = run_script(gem, steps)
    final = result.gem.graph
    if result.trace != (96, 88, 80, 64, 52):
        raise AuditFailed(f"reduction trace is {result.trace}")
    # a crystallization: every complement residue is connected
    complements, chi = _complements_and_chi(final)
    if complements != (1,) * 5 or chi != 1 or final.is_bipartite():
        raise AuditFailed("reduced cover gem fails the crystallization audit")
    return result


def reduced_cover(index):
    """Build catalogue cover `index` (1-based) and reduce it."""
    return reduce_to_crystallization(small_cover_gem(index))


def classify_covers():
    """Isomorphism classes of the seven reduced covers, as 1-based index tuples."""
    classes = {}
    for i in range(1, 8):
        sig = canonical_signature(reduced_cover(i).gem.graph)
        classes.setdefault(sig, []).append(i)
    return tuple(sorted(tuple(v) for v in classes.values()))
