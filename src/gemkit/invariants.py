"""Regular-genus machinery.

For an (n+1)-colored gem and a cyclic order eps of the colors, the graph
embeds in a surface whose Euler characteristic is

    chi_eps = sum over consecutive color pairs of the bicolored cycle count
              + (1 - n) * V / 2

and the regular genus of the graph is 1 - chi_eps/2 minimized over all
cyclic orders.  chi_eps is kept as an exact Fraction; it is only provably
an even integer when the graph encodes a closed orientable manifold, and
callers decide when to collapse it to an int.

The bicolored cycle count of a color pair does not depend on the order it
sits in, so the search over all orders walks each of the C(k, 2) pairs once
and scores every order from that table of counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .core import ColoredGraph, _Level, _run_split
from .errors import (ColorOutOfRange, DimensionUnsupported, GemError,
                     PermutationColorMismatch)


def cyclic_permutations(n_colors: int) -> list[tuple[int, ...]]:
    """All cyclic orders of the palette up to rotation and reflection.

    Canonical form: starts with color 0 and the second entry is smaller
    than the last.  (n_colors - 1)!/2 orders in lexicographic order; two
    colors have the single order (0, 1).
    """
    out = []
    for p in permutations(range(1, n_colors)):
        if len(p) < 2 or p[0] < p[-1]:
            out.append((0,) + p)
    return out


def check_cyclic_permutation(graph: ColoredGraph, perm) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(graph.n_colors)):
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
    return _cycle_lengths(graph.involutions[i], graph.involutions[j])


def _cycle_lengths(inv_i, inv_j) -> list[int]:
    return sorted(_Level.cycles(inv_i, inv_j, keep=False).sizes, reverse=True)


def pair_cycles(graph: ColoredGraph) -> dict[tuple[int, int], list[int]]:
    """{(i, j): bicolored_cycles(graph, i, j)} for every color pair i < j.

    The pairs are one census (_census): on a host with spare CPUs, a walk
    of at least core._SPLIT_VISITS vertex visits (V times the pairs) is
    shared with forked children, and the parent walks every pair no child
    delivered, so the table never depends on a child.
    """
    return _census(graph, combinations(graph.colors(), 2))


def _census(graph: ColoredGraph, pairs) -> dict[tuple[int, int], list[int]]:
    """{(i, j): cycle lengths, descending} for the given valid color pairs,
    one task per pair (core._run_split)."""
    invs = graph.involutions
    pairs = list(pairs)
    lengths = _run_split(lambda i, j: _cycle_lengths(invs[i], invs[j]),
                         pairs, graph.num_vertices * len(pairs))
    return dict(zip(pairs, lengths))


def _report(perm, counts, num_vertices: int) -> GenusReport:
    """The report for `perm` from its consecutive-pair cycle counts."""
    chi = Fraction(sum(counts)) + Fraction((2 - len(perm)) * num_vertices, 2)
    return GenusReport(perm, counts, chi, 1 - chi / 2)


def genus_for(graph: ColoredGraph, perm) -> GenusReport:
    """Exact chi and genus of the surface carrying the cyclic order `perm`.

    The consecutive pairs of `perm` are one census, split as in
    pair_cycles."""
    perm = check_cyclic_permutation(graph, perm)
    steps = [(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:] + perm[:1])]
    census = _census(graph, dict.fromkeys(steps))
    counts = tuple(len(census[step]) for step in steps)
    return _report(perm, counts, graph.num_vertices)


def all_genus_reports(graph: ColoredGraph) -> list[GenusReport]:
    """One report per canonical cyclic order, in cyclic_permutations order."""
    counts = {pair: len(lengths) for pair, lengths in pair_cycles(graph).items()}
    return _score_orders(counts, graph.n_colors, graph.num_vertices)


def _score_orders(counts, n_colors: int, num_vertices: int) -> list[GenusReport]:
    """One report per canonical cyclic order, scored from a
    {(i, j): cycle count} table over the pairs i < j."""
    both = {**counts, **{(j, i): c for (i, j), c in counts.items()}}
    return [
        _report(p, tuple(both[a, b] for a, b in zip(p, p[1:] + p[:1])),
                num_vertices)
        for p in cyclic_permutations(n_colors)]


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
    return 2 * chi + 5 * rank - 4


def _check_rank(rank: int) -> None:
    # a rank counts generators of the fundamental group
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
