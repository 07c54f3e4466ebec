"""Catalogue constructions.

Base 3-manifold crystallizations are shipped as .gem data files whose
loaders assert the censuses that pin them down.  The doubled-product
construction turns a 2p-vertex crystallization of a closed 3-manifold M
into a 16p-vertex gem of M x S^1; running the shipped move scripts on the
two catalogue products yields the 40-vertex crystallization of
S^2 x S^1 x S^1 and the 120-vertex crystallization of the 4-torus.  Each
scripted result is audited against an independently transcribed sample of
its edges before being handed out.
"""

from __future__ import annotations

from functools import cache
from importlib.resources import files

from .core import ColoredGraph, LabeledGem, new_graph
from .errors import AuditFailed, BaseNotCrystallization
from .gemfile import parse_gem
from .invariants import bicolored_cycles
from .moves import ScriptResult, parse_move_script, run_script

_DATA = files("gemkit.data")


def _data_text(name: str) -> str:
    return _DATA.joinpath(name).read_text(encoding="utf-8")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AuditFailed(what)


def _check_cycle_census(graph: ColoredGraph, pair, expected: list, what: str) -> None:
    got = bicolored_cycles(graph, *pair)
    _require(got == sorted(expected, reverse=True),
             f"{what}: pair {pair} has cycle lengths {got}, expected {expected}")


def _check_depicted(gem: LabeledGem, edges, what: str) -> None:
    """Every (label, color, label) triple must be an edge of the gem."""
    for a, c, b in edges:
        va, vb = gem.vertex(a), gem.vertex(b)
        _require(gem.graph.involutions[c][va] == vb,
                 f"{what}: expected edge {a} -{c}- {b} is absent")


def order_two_gem(n_colors: int = 4) -> LabeledGem:
    """Two vertices joined by every color: the n-sphere's smallest gem."""
    graph = new_graph(n_colors, [[(0, 1)] for _ in range(n_colors)])
    return LabeledGem(graph, ("p", "q"))


@cache
def s2xs1_standard() -> LabeledGem:
    """8-vertex crystallization of S^2 x S^1."""
    gem = parse_gem(_data_text("s2xs1.gem"))
    _require(gem.graph.num_vertices == 8, "s2xs1: vertex count")
    _require(gem.graph.is_crystallization(), "s2xs1: must be a crystallization")
    _require(gem.graph.is_bipartite(), "s2xs1: must be bipartite")
    return gem


@cache
def t3_standard() -> LabeledGem:
    """24-vertex crystallization of the 3-torus."""
    gem = parse_gem(_data_text("t3.gem"))
    g = gem.graph
    _require(g.num_vertices == 24, "t3: vertex count")
    _require(g.is_crystallization(), "t3: must be a crystallization")
    _require(g.is_bipartite(), "t3: must be bipartite")
    for pair in ((0, 3), (0, 1), (1, 2), (2, 3)):
        _check_cycle_census(g, pair, [6] * 4, "t3")
    for pair in ((0, 2), (1, 3)):
        _check_cycle_census(g, pair, [4] * 6, "t3")
    return gem


# -- product with a circle ----------------------------------------------------

# Eight copies of the base, wired in a ladder of two rungs of four.  Each
# block drops one base color and renames the rest; the dropped color's
# edges are replaced by the matching to the neighbouring block.
PRODUCT_BLOCKS = ("D", "C", "B", "A", "D'", "C'", "B'", "A'")

# base color -> block color; the missing key is the dropped color
_BLOCK_COLOR_MAP = {
    "D": {1: 1, 2: 2, 3: 3},
    "C": {0: 4, 2: 2, 3: 3},
    "B": {0: 4, 1: 0, 3: 3},
    "A": {0: 4, 1: 0, 2: 1},
}

# same-label perfect matchings between blocks, with their color
_BLOCK_MATCHINGS = (
    ("D", "C", 0), ("C", "B", 1), ("B", "A", 2), ("A", "A'", 3),
    ("D", "D'", 4), ("D'", "C'", 0), ("C'", "B'", 1), ("B'", "A'", 2),
)


def product_gem(base: LabeledGem) -> LabeledGem:
    """16p-vertex gem of (base manifold) x S^1 from a 2p-vertex base.

    The base must be a 4-colored crystallization; its vertex labels are
    reused with a ^block suffix.
    """
    bg = base.graph
    if bg.n_colors != 4:
        raise BaseNotCrystallization(
            f"product base needs 4 colors, got {bg.n_colors}")
    if not bg.is_crystallization():
        raise BaseNotCrystallization(
            "product base must be connected and contracted")
    p2 = bg.num_vertices
    offset = {blk: k * p2 for k, blk in enumerate(PRODUCT_BLOCKS)}
    pairs: list[list] = [[] for _ in range(5)]
    for blk in PRODUCT_BLOCKS:
        cmap = _BLOCK_COLOR_MAP[blk.rstrip("'")]
        off = offset[blk]
        for base_color, block_color in cmap.items():
            for a, b in bg.edges(base_color):
                pairs[block_color].append((off + a, off + b))
    for blk1, blk2, color in _BLOCK_MATCHINGS:
        o1, o2 = offset[blk1], offset[blk2]
        for v in range(p2):
            pairs[color].append((o1 + v, o2 + v))
    graph = new_graph(5, pairs, num_vertices=8 * p2)
    labels = [
        f"{base.labels[v]}^{blk}"
        for blk in PRODUCT_BLOCKS
        for v in range(p2)]
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


@cache
def g1_prime_result() -> ScriptResult:
    """Reduction of the S^2 x S^1 product to its 40-vertex crystallization."""
    prod = product_gem(s2xs1_standard())
    _require(prod.graph.num_vertices == 64, "g1prime: product size")
    steps = parse_move_script(_data_text("g1prime.moves"))
    result = run_script(prod, steps)
    _require(result.trace == (64, 60, 56, 52, 48, 44, 40),
             f"g1prime: trace {result.trace}")
    g = result.gem.graph
    for pair in ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4)):
        _require(g.residue_count(pair) == 10,
                 f"g1prime: pair {pair} residue count")
    for pair in ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)):
        _require(g.residue_count(pair) == 8,
                 f"g1prime: pair {pair} residue count")
    _require(g.is_crystallization(), "g1prime: crystallization")
    _require(g.is_bipartite(), "g1prime: bipartite")
    _check_depicted(result.gem, G1PRIME_DEPICTED, "g1prime depicted edges")
    return result


def g1_prime() -> LabeledGem:
    return g1_prime_result().gem


@cache
def g2_prime_result() -> ScriptResult:
    """Reduction of the 3-torus product to the 120-vertex 4-torus gem."""
    prod = product_gem(t3_standard())
    _require(prod.graph.num_vertices == 192, "g2prime: product size")
    steps = parse_move_script(_data_text("g2prime.moves"))
    result = run_script(prod, steps)
    _require(
        result.trace == (192, 180, 168, 156, 152, 148, 144, 140, 136, 132, 128, 124, 120),
        f"g2prime: trace {result.trace}")
    g = result.gem.graph
    for pair in ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3)):
        _check_cycle_census(g, pair, [4] * 30, "g2prime")
    _require(g.is_crystallization(), "g2prime: crystallization")
    _require(g.is_bipartite(), "g2prime: bipartite")
    _check_depicted(result.gem, G2PRIME_DEPICTED, "g2prime depicted edges")
    return result


def g2_prime() -> LabeledGem:
    return g2_prime_result().gem
