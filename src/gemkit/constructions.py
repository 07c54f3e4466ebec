"""Catalogue constructions.

Base 3-manifold crystallizations are shipped as .gem data files whose
loaders audit the censuses that pin them down.  The doubled-product
construction turns a 2p-vertex crystallization of a closed 3-manifold M
into a 16p-vertex gem of M x S^1; running the shipped move scripts on the
two catalogue products yields the 40-vertex crystallization of
S^2 x S^1 x S^1 and the 120-vertex crystallization of the 4-torus.  Each
scripted result is audited against its trace, its cycle census and an
independently transcribed sample of its edges before being handed out.

The product is a ladder of eight copies (blocks) of the base in two
rungs, D C B A and D' C' B' A'.  Block j of a rung (D, C, B, A are
j = 0..3) drops base color j and renames each other base color c to c if
c > j, to c - 1 if 0 < c < j, and to 4 if c = 0 < j.  The dropped colors
are made up by same-label matchings: blocks j and j+1 of a rung by color
j, A and A' by color 3, and D and D' by color 4.
"""

from __future__ import annotations

from functools import cache
from importlib.resources import files

from .core import ColoredGraph, LabeledGem, _check_walk_budget, _require_int
from .errors import AuditFailed, BaseNotCrystallization, ColorOutOfRange
from .gemfile import parse_gem
from .invariants import bicolored_cycles
from .moves import ScriptResult, parse_move_script, run_script

_DATA = files("gemkit.data")

# the consecutive color pairs of the cyclic orders (0,2,4,1,3) and (0,1,2,3,4)
_STRIDE_TWO = ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3))
_STRIDE_ONE = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))


def _data_text(name: str) -> str:
    return _DATA.joinpath(name).read_text(encoding="utf-8")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AuditFailed(what)


def _audit(gem: LabeledGem, what: str, vertices: int, cycles=()) -> LabeledGem:
    """Check the vertex count, that the gem is a bipartite crystallization,
    and the cycle lengths (descending) of each listed (pairs, lengths)."""
    g = gem.graph
    _require(g.num_vertices == vertices, f"{what}: vertex count")
    _require(g.is_crystallization(), f"{what}: must be a crystallization")
    _require(g.is_bipartite(), f"{what}: must be bipartite")
    for pairs, expected in cycles:
        for pair in pairs:
            got = bicolored_cycles(g, *pair)
            _require(got == expected,
                     f"{what}: pair {pair} has cycle lengths {got}, expected {expected}")
    return gem


def order_two_gem(n_colors: int = 4) -> LabeledGem:
    """Two vertices joined by every color: the n-sphere's smallest gem.

    Fewer than 2 colors raise ColorOutOfRange, and more than
    _MAX_WALK_COLORS, the residue walk's budget, raise BudgetExceeded before
    any column is made.
    """
    _require_int(n_colors, "number of colors", ColorOutOfRange)
    if n_colors < 2:
        raise ColorOutOfRange(f"need at least 2 colors, got {n_colors}")
    _check_walk_budget(n_colors)
    return LabeledGem(ColoredGraph([(1, 0)] * n_colors), ("p", "q"))


@cache
def s2xs1_standard() -> LabeledGem:
    """8-vertex crystallization of S^2 x S^1."""
    return _audit(parse_gem(_data_text("s2xs1.gem")), "s2xs1", 8)


@cache
def t3_standard() -> LabeledGem:
    """24-vertex crystallization of the 3-torus."""
    return _audit(parse_gem(_data_text("t3.gem")), "t3", 24, (
        (((0, 3), (0, 1), (1, 2), (2, 3)), [6] * 4),
        (((0, 2), (1, 3)), [4] * 6)))


# -- product with a circle ----------------------------------------------------

# Block names in vertex order, rung j = 0..3 then the primed rung; the
# shipped .moves files name product vertices by them (v4^D').
PRODUCT_BLOCKS = ("D", "C", "B", "A", "D'", "C'", "B'", "A'")


def product_gem(base: LabeledGem) -> LabeledGem:
    """16p-vertex gem of (base manifold) x S^1 from a 2p-vertex base.

    The base must be a 4-colored crystallization; its vertex labels are
    reused with a ^block suffix.  Block k holds vertices k*2p on: the
    base's columns shifted by k*2p and the same-label matchings' ranges
    fill it, and ColoredGraph checks the five columns once.
    """
    bg = base.graph
    if bg.n_colors != 4:
        raise BaseNotCrystallization(
            f"product base needs 4 colors, got {bg.n_colors}")
    if not bg.is_crystallization():
        raise BaseNotCrystallization(
            "product base must be connected and contracted")
    p2 = bg.num_vertices
    cols = [[None] * (8 * p2) for _ in range(5)]
    for k in range(8):
        j, off = k % 4, k * p2
        for c, col in enumerate(bg.involutions):
            if c != j:
                # the ladder rule: c - 1 mod 5 is 4 for c = 0
                cols[c if c > j else (c - 1) % 5][off:off + p2] = [off + w for w in col]
    # the same-label matchings (block, block, color): j to j+1, A-A', D-D'
    steps = [(r + j, r + j + 1, j) for r in (0, 4) for j in range(3)]
    for k1, k2, color in steps + [(3, 7, 3), (0, 4, 4)]:
        for a, b in ((k1, k2), (k2, k1)):
            cols[color][a * p2:(a + 1) * p2] = range(b * p2, (b + 1) * p2)
    graph = ColoredGraph(cols)
    labels = [f"{base.labels[v]}^{blk}" for blk in PRODUCT_BLOCKS for v in range(p2)]
    return LabeledGem(graph, labels)


# -- scripted reductions --------------------------------------------------------

# Edges actually drawn in the reference pictures of the two reduced gems,
# kept as an independent audit of the construction + script pipeline.
# Triples (vertex label, color, vertex label).

G1PRIME_DEPICTED = (
    # A-block interior
    ("v0^A", 0, "v1^A"), ("v2^A", 0, "v3^A"), ("v4^A", 0, "v6^A"), ("v5^A", 0, "v7^A"),
    ("v2^A", 1, "v3^A"), ("v4^A", 1, "v5^A"), ("v0^A", 1, "v6^A"), ("v1^A", 1, "v7^A"),
    ("v0^A", 4, "v1^A"), ("v2^A", 4, "v4^A"), ("v3^A", 4, "v5^A"), ("v6^A", 4, "v7^A"),
    # primed remnant interior
    ("v2^A'", 0, "v3^A'"), ("v2^D'", 0, "v2^C'"), ("v3^D'", 0, "v3^C'"), ("v2^B'", 0, "v3^B'"),
    ("v2^A'", 1, "v3^A'"), ("v2^D'", 1, "v3^D'"), ("v2^C'", 1, "v2^B'"), ("v3^C'", 1, "v3^B'"),
    ("v2^D'", 2, "v3^D'"), ("v2^C'", 2, "v3^C'"), ("v2^A'", 2, "v2^B'"), ("v3^A'", 2, "v3^B'"),
    # the color-3 bridge between the A block and the remnant
    ("v0^A", 3, "v2^B'"), ("v1^A", 3, "v3^B'"), ("v2^A", 3, "v2^A'"), ("v3^A", 3, "v3^A'"),
    ("v4^A", 3, "v2^D'"), ("v5^A", 3, "v3^D'"), ("v6^A", 3, "v2^C'"), ("v7^A", 3, "v3^C'"),
)

G2PRIME_DEPICTED = (
    ("v19^D'", 0, "v19^C'"), ("v19^B'", 0, "v5^B'"), ("v5^C'", 0, "v5^D'"),
    ("v0^C'", 0, "v0^D'"), ("v12^D'", 0, "v12^C'"), ("v12^B'", 0, "v0^B'"),
    ("v20^D'", 0, "v20^C'"), ("v20^B'", 0, "v17^B'"), ("v17^C'", 0, "v17^D'"),
    ("v19^A'", 0, "v5^A'"), ("v0^A'", 0, "v12^A'"), ("v17^A'", 0, "v20^A'"),
    ("v19^B'", 1, "v19^C'"), ("v5^C'", 1, "v5^B'"), ("v19^D'", 1, "v5^D'"),
    ("v12^D'", 1, "v0^D'"), ("v12^C'", 1, "v12^B'"), ("v0^B'", 1, "v0^C'"),
    ("v20^C'", 1, "v20^B'"), ("v17^B'", 1, "v17^C'"), ("v17^D'", 1, "v20^D'"),
    ("v5^A'", 1, "v0^A'"), ("v12^A'", 1, "v17^A'"), ("v20^A'", 1, "v19^A'"),
    ("v19^D'", 2, "v20^D'"), ("v19^C'", 2, "v20^C'"), ("v19^B'", 2, "v19^A'"),
    ("v5^B'", 2, "v5^A'"), ("v5^C'", 2, "v0^C'"), ("v5^D'", 2, "v0^D'"),
    ("v17^D'", 2, "v12^D'"), ("v20^A'", 2, "v20^B'"), ("v0^A'", 2, "v0^B'"),
    ("v12^C'", 2, "v17^C'"), ("v17^B'", 2, "v17^A'"), ("v12^B'", 2, "v12^A'"),
    ("v19^D'", 3, "v8^A"), ("v19^C'", 3, "v23^A"), ("v19^B'", 3, "v18^A"),
    ("v5^B'", 3, "v4^A"), ("v5^C'", 3, "v3^A"), ("v5^D'", 3, "v7^A"),
    ("v0^D'", 3, "v6^A"), ("v0^C'", 3, "v2^A"), ("v0^B'", 3, "v1^A"),
    ("v12^B'", 3, "v13^A"), ("v12^C'", 3, "v14^A"), ("v12^D'", 3, "v11^A"),
    ("v20^B'", 3, "v21^A"), ("v20^C'", 3, "v22^A"), ("v20^D'", 3, "v9^A"),
    ("v17^D'", 3, "v10^A"), ("v17^C'", 3, "v15^A"), ("v17^B'", 3, "v16^A"),
    ("v19^A'", 3, "v19^A"), ("v20^A'", 3, "v20^A"), ("v17^A'", 3, "v17^A"),
    ("v12^A'", 3, "v12^A"), ("v0^A'", 3, "v0^A"), ("v5^A'", 3, "v5^A"),
)


def _scripted(name: str, base: LabeledGem, trace, cycles, depicted) -> ScriptResult:
    """Run <name>.moves on the product of `base`, then audit the result:
    its trace, _audit with the listed cycle lengths, and the depicted
    (label, color, label) edges."""
    steps = parse_move_script(_data_text(f"{name}.moves"))
    result = run_script(product_gem(base), steps)
    _require(result.trace == trace, f"{name}: trace {result.trace}")
    gem = _audit(result.gem, name, trace[-1], cycles)
    for a, c, b in depicted:
        _require(gem.graph.involutions[c][gem.vertex(a)] == gem.vertex(b),
                 f"{name} depicted edges: expected edge {a} -{c}- {b} is absent")
    return result


@cache
def g1_prime_result() -> ScriptResult:
    """Reduction of the S^2 x S^1 product to its 40-vertex crystallization."""
    return _scripted(
        "g1prime", s2xs1_standard(), (64, 60, 56, 52, 48, 44, 40),
        ((_STRIDE_TWO, [4] * 10), (_STRIDE_ONE, [6] * 6 + [2] * 2)),
        G1PRIME_DEPICTED)


def g1_prime() -> LabeledGem:
    return g1_prime_result().gem


@cache
def g2_prime_result() -> ScriptResult:
    """Reduction of the 3-torus product to the 120-vertex 4-torus gem."""
    return _scripted(
        "g2prime", t3_standard(),
        (192, 180, 168, 156, 152, 148, 144, 140, 136, 132, 128, 124, 120),
        ((_STRIDE_TWO, [4] * 30), (_STRIDE_ONE, [6] * 20)),
        G2PRIME_DEPICTED)


def g2_prime() -> LabeledGem:
    return g2_prime_result().gem
