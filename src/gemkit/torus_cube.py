"""The n-torus as a gem on the permutations of n+1 symbols.

Cut the (n+1)-cube into staircase simplices, one per monotone vertex path,
and project along the main diagonal; the opposite-face identifications of
the torus match the simplices up along their facets.  The paths correspond
to permutations of {1,..,n+1}, and two simplices are adjacent across the
facet missing step k exactly when their permutations differ by swapping
entries k and k+1.  Crossing the identified outer faces swaps the first
and last entries instead, which is also what the long swap walk
n, n-1, .., 2, 1, 2, .., n does.  The resulting (n+1)-colored graph on
(n+1)! vertices is a crystallization of the n-torus.

Vertex ids are the permutations in lexicographic order, so the swap colors
follow from the block structure of that order rather than from a lookup
per vertex.  The permutations sharing their first k-1 entries fill a block
of L! consecutive ids, L = n+2-k, and inside every block swapping entries
k and k+1 acts as the same involution s_L, which swaps the first two
entries of an L-permutation.  s_L moves whole runs of (L-2)! ids: the run
whose first two entries have ranks (c0, c1) goes to the run with ranks
(c1 + [c1 >= c0], c0 - [c0 > c1]).  Each run is copied from one shared
tuple of ids, so the gem holds one int object per vertex.  The 0-color is
the swap walk composed on ids.  It is audited vertex by vertex without a
lookup table: the labels read through the 0-color (each vertex's
0-partner's label) must equal, in order, the labels of the permutations
with their first and last entries swapped, streamed from the same
lexicographic enumeration that names the vertices.  Bipartiteness is
checked by ColoredGraph.is_bipartite, the budget by core._factorial_within.
"""

from itertools import compress, permutations
from math import factorial
from operator import itemgetter, ne

from .core import ColoredGraph, LabeledGem, _factorial_within, _require_int
from .errors import AuditFailed, BudgetExceeded, DimensionUnsupported
from .invariants import pair_cycles


def _swap_involution(ids, n, k):
    """Color k's involution on the (n+1)! ids: swap entries k and k+1.
    Its entries are the objects of ids, one int object per vertex id."""
    size = n + 2 - k
    block = factorial(size)
    run = factorial(size - 2)
    s = [0] * block
    for c0 in range(size):
        for c1 in range(size - 1):
            d0 = c1 + (c1 >= c0)
            d1 = c0 - (c0 > c1)
            src = (c0 * (size - 1) + c1) * run
            dst = (d0 * (size - 1) + d1) * run
            s[src:src + run] = range(dst, dst + run)
    # block >= 2, so the getter returns a tuple
    swap = itemgetter(*s)
    col = []
    for base in range(0, len(ids), block):
        col += swap(ids[base:base + block])
    return col


def torus_gem(n, budget=40320):
    """Gem of the n-torus on the (n+1)! permutations of {1,..,n+1}.

    Vertices are the permutations in lexicographic order, labeled p<entries>
    (entries joined by "." above 9 symbols).  For color k in 1..n the
    k-partner swaps entries k and k+1; it is built by range arithmetic on
    the blocks of ids that share their first k-1 entries.  The 0-partner
    composes the palindromic swap walk n, n-1, .., 2, 1, 2, .., n on ids.
    That composite must equal swapping entries 1 and n+1: the label of
    every vertex's 0-partner is compared with the label of its permutation
    so swapped.  Any difference raises AuditFailed, as does a graph that
    ColoredGraph.is_bipartite refuses.  ColoredGraph validates every
    involution, and the budget is checked before anything is allocated by
    core._factorial_within, the gate every factorial search shares; (n+1)!
    is printed when n! is within the budget and named as (n+1)! otherwise.
    """
    _require_int(n, "torus dimension", DimensionUnsupported)
    _require_int(budget, "budget", BudgetExceeded)
    if n < 1:
        raise DimensionUnsupported(f"torus dimension must be >= 1, got {n}")
    count = _factorial_within(n + 1, budget)
    if count is None:
        below = _factorial_within(n, budget)
        shown = f"{n + 1}!" if below is None else below * (n + 1)
        raise BudgetExceeded(f"{shown} vertices exceed the budget of {budget}")
    ids = tuple(range(count))
    swaps = [None] + [_swap_involution(ids, n, k) for k in range(1, n + 1)]
    walk = list(range(n, 0, -1)) + list(range(2, n + 1))
    zero = swaps[walk[0]]
    for k in walk[1:]:
        zero = itemgetter(*zero)(swaps[k])

    symbols = [str(x) for x in range(1, n + 2)]
    sep = "." if n + 1 > 9 else ""
    labels = ["p" + sep.join(p) for p in permutations(symbols)]
    swap_ends = itemgetter(n, *range(1, n), 0)
    direct = ("p" + sep.join(p) for p in map(swap_ends, permutations(symbols)))
    bad = next(compress(ids, map(ne, itemgetter(*zero)(labels), direct)), None)
    if bad is not None:
        raise AuditFailed(
            f"swap walk disagrees with the direct 0-involution at vertex {bad}")
    graph = ColoredGraph([zero] + swaps[1:])
    if not graph.is_bipartite():
        raise AuditFailed("torus gem is not bipartite")
    return LabeledGem(graph, labels)


# the largest n that stated_permutation and expected_genus take, enough for
# a genus search over the torus pair counts to check the closed form at
# n = 4..12; larger n would spend memory or overflow before answering
_MAX_STATED_DIMENSION = 12


def _require_stated_dimension(n):
    _require_int(n, "torus dimension", DimensionUnsupported)
    if n > _MAX_STATED_DIMENSION:
        raise DimensionUnsupported(
            f"torus dimension must be <= {_MAX_STATED_DIMENSION}, got {n}")


def stated_permutation(n):
    """The color order used for the torus genus computation, by parity of n.

    n above _MAX_STATED_DIMENSION raises DimensionUnsupported."""
    _require_stated_dimension(n)
    if n < 2:
        raise DimensionUnsupported(f"no stated color order for n = {n}")
    if n % 2 == 0:
        return tuple(range(0, n + 1, 2)) + tuple(range(1, n, 2))
    return tuple(range(0, n, 2)) + (1,) + tuple(range(n, 2, -2))


def expected_genus(n):
    """Closed-form genus 1 + (n+1)!(n-3)/8 at the stated color order.

    Meaningful for n >= 4 only; below that the stated order has adjacent
    swap colors next to each other and the count is not divisible by 8.
    n above _MAX_STATED_DIMENSION raises DimensionUnsupported.
    """
    _require_stated_dimension(n)
    if n < 4:
        raise DimensionUnsupported(f"closed form needs n >= 4, got {n}")
    return 1 + factorial(n + 1) * (n - 3) // 8


def audit_cycle_lengths(gem):
    """Check the bicolored cycle lengths of a torus gem.

    True iff every bicolored cycle has length 4 or 6 and the consecutive
    color pairs of the stated order give 4-cycles only.  Swap colors that
    share an entry position give 6-cycles, all others 4-cycles, so the
    second clause needs n >= 4.  The stated order is stated_permutation's,
    so a gem of more than _MAX_STATED_DIMENSION + 1 colors that passes the
    first clause raises DimensionUnsupported.
    """
    cycles = pair_cycles(gem.graph)
    if not all(set(lengths) <= {4, 6} for lengths in cycles.values()):
        return False
    order = stated_permutation(gem.graph.n_colors - 1)
    return all(set(cycles[min(i, j), max(i, j)]) == {4}
               for i, j in zip(order, order[1:] + order[:1]))
