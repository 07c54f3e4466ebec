"""Regular-genus machinery.

For an (n+1)-colored gem and a cyclic order eps of the colors, the graph
embeds in a surface whose Euler characteristic is

    chi_eps = sum over consecutive color pairs of the bicolored cycle count
              + (1 - n) * V / 2

and the regular genus of the graph is 1 - chi_eps/2 minimized over all
cyclic orders.  chi_eps is kept as an exact Fraction; it is only provably
an even integer when the graph encodes a closed orientable manifold, and
callers decide when to collapse it to an int.

Every bicolored-cycle question is one census of color pairs (_census,
through core._run_split): one pair, an order's k consecutive pairs, or all
C(k, 2) pairs, from whose counts the search scores every cyclic order, as
a pair's count does not depend on the order it sits in.  More than
MAX_CYCLIC_ORDERS orders (11 or more colors) raise BudgetExceeded before
any pair is walked or any factorial computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from .core import (ColoredGraph, _factorial_within, _is_int_permutation,
                   _Level, _require_int, _run_split)
from .errors import (BudgetExceeded, ColorOutOfRange, DimensionUnsupported,
                     GemError, PermutationColorMismatch)

# the most cyclic orders a genus search enumerates: 10 colors, 9!/2 orders
MAX_CYCLIC_ORDERS = factorial(9) // 2


def cyclic_permutations(n_colors: int) -> list[tuple[int, ...]]:
    """All cyclic orders of the palette up to rotation and reflection.

    Canonical form: starts with color 0 and the second entry is smaller
    than the last.  (n_colors - 1)!/2 orders in lexicographic order, (0, 1)
    alone for two colors; fewer raise ColorOutOfRange, and more than
    MAX_CYCLIC_ORDERS orders raise BudgetExceeded before the first is made.
    """
    _require_int(n_colors, "number of colors", ColorOutOfRange)
    if n_colors < 2:
        raise ColorOutOfRange(f"need at least 2 colors, got {n_colors}")
    # (k-1)!/2 orders pass the budget iff (k-1)! passes twice the budget
    if _factorial_within(n_colors - 1, 2 * MAX_CYCLIC_ORDERS) is None:
        raise BudgetExceeded(
            f"{n_colors - 1}!/2 cyclic orders exceed the budget of "
            f"{MAX_CYCLIC_ORDERS}")
    out = []
    for p in permutations(range(1, n_colors)):
        if len(p) < 2 or p[0] < p[-1]:
            out.append((0,) + p)
    return out


def check_cyclic_permutation(graph: ColoredGraph, perm) -> tuple[int, ...]:
    perm = tuple(perm)
    if not _is_int_permutation(perm, graph.n_colors):
        raise PermutationColorMismatch(
            f"{perm} is not a permutation of colors 0..{graph.n_colors - 1}")
    return perm


@dataclass(frozen=True)
class GenusReport:
    """chi and genus of the embedding surface for one cyclic color order."""

    permutation: tuple[int, ...]
    pair_counts: tuple[int, ...]  # bicolored cycle count per consecutive pair
    chi: Fraction
    genus: Fraction

    def genus_int(self) -> int:
        if self.genus.denominator != 1:
            raise ValueError(f"genus {self.genus} is not an integer")
        return int(self.genus)


def bicolored_cycles(graph: ColoredGraph, i: int, j: int) -> list[int]:
    """Lengths of the {i,j}-colored cycles, descending.

    The two matchings partition the vertices into even closed walks; a
    doubled edge shows up as a cycle of length 2.  The walk is the one
    that labels two-color residues (core._Level.cycles).
    """
    graph._check_color(i)
    graph._check_color(j)
    if i == j:
        raise ColorOutOfRange(f"need two distinct colors, got {i},{j}")
    return _census(graph, [(i, j)])[0]


def _census(graph: ColoredGraph, pairs: list) -> list[list[int]]:
    """bicolored_cycles of each pair, in order.  With spare CPUs, a census
    of at least core._SPLIT_VISITS vertex visits (V times the pairs) is
    shared with forked children; the parent walks what none delivered."""
    invs = graph.involutions
    return _run_split(
        lambda i, j: sorted(_Level.cycles(invs[i], invs[j], keep=False).sizes,
                            reverse=True),
        pairs, graph.num_vertices * len(pairs))


def pair_cycles(graph: ColoredGraph) -> dict[tuple[int, int], list[int]]:
    """{(i, j): bicolored_cycles(graph, i, j)} for every color pair i < j."""
    pairs = list(combinations(graph.colors(), 2))
    return dict(zip(pairs, _census(graph, pairs)))


def _report(perm, counts, num_vertices: int) -> GenusReport:
    """The report for `perm` from its consecutive-pair cycle counts."""
    chi = Fraction(sum(counts)) + Fraction((2 - len(perm)) * num_vertices, 2)
    return GenusReport(perm, counts, chi, 1 - chi / 2)


def genus_for(graph: ColoredGraph, perm) -> GenusReport:
    """Exact chi and genus of the surface carrying the cyclic order `perm`,
    from one _census of its k consecutive pairs."""
    perm = check_cyclic_permutation(graph, perm)
    pairs = list(zip(perm, perm[1:] + perm[:1]))
    return _report(perm, tuple(map(len, _census(graph, pairs))),
                   graph.num_vertices)


def all_genus_reports(graph: ColoredGraph) -> list[GenusReport]:
    """One report per canonical cyclic order, in cyclic_permutations order.

    The orders are made (or refused) before any pair is walked."""
    orders = cyclic_permutations(graph.n_colors)
    pairs = list(combinations(graph.colors(), 2))
    counts = dict(zip(pairs, map(len, _census(graph, pairs))))
    both = {**counts, **{(j, i): c for (i, j), c in counts.items()}}
    return [
        _report(p, tuple(both[a, b] for a, b in zip(p, p[1:] + p[:1])),
                graph.num_vertices)
        for p in orders]


def regular_genus_from(reports) -> GenusReport:
    """The minimizing report; ties broken by lexicographically least order."""
    return min(reports, key=lambda r: (r.genus, r.permutation))


def regular_genus(graph: ColoredGraph) -> GenusReport:
    """The minimizing report over all_genus_reports(graph)."""
    return regular_genus_from(all_genus_reports(graph))


def genus_lower_bound(chi: int, rank: int) -> int:
    """Lower bound for the regular genus of a closed 4-manifold in terms of
    its Euler characteristic and the rank of its fundamental group."""
    _check_rank(rank)
    _require_int(chi, "Euler characteristic", GemError)
    return 2 * chi + 5 * rank - 4


def _check_rank(rank: int) -> None:
    # a rank counts generators of the fundamental group
    _require_int(rank, "rank of the fundamental group", GemError)
    if rank < 0:
        raise GemError(f"rank of the fundamental group must be >= 0, got {rank}")


def weak_semi_simple_triples(graph: ColoredGraph, perm) -> tuple[int, ...]:
    """Residue counts of the five triples {eps_i, eps_i+2, eps_i+4}.

    These are the complements of the non-adjacent color pairs of the cyclic
    order, the triples whose residues control whether the genus at `perm`
    can reach the lower bound.  (The consecutive triples of `perm` are the
    stride-2 triples of the dual order, so the two phrasings swap under the
    pentagram duality of 5-cycles.)  Defined for 5-colored graphs only.
    """
    perm = check_cyclic_permutation(graph, perm)
    if graph.n_colors != 5:
        raise DimensionUnsupported(
            f"weak semi-simplicity check needs 5 colors, got {graph.n_colors}")
    return tuple(
        graph.residue_count((perm[i], perm[(i + 2) % 5], perm[(i + 4) % 5]))
        for i in range(5))


def weak_semi_simple_from(triples, rank: int) -> bool:
    """Whether every weak_semi_simple_triples() count equals rank + 1."""
    _check_rank(rank)
    return all(c == rank + 1 for c in triples)


def is_weak_semi_simple(graph: ColoredGraph, perm, rank: int) -> bool:
    """Whether all five stride-2 color triples of `perm` have rank+1 residues.

    When true (for some perm), the graph's manifold attains the genus lower
    bound 2*chi + 5*rank - 4.
    """
    return weak_semi_simple_from(weak_semi_simple_triples(graph, perm), rank)
