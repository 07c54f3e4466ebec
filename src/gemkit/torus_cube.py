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
"""

from itertools import permutations
from math import factorial

from .core import LabeledGem, graph_from_endpoints
from .errors import AuditFailed, BudgetExceeded, DimensionUnsupported
from .invariants import bicolored_cycles


def _perm_label(p):
    body = [str(x) for x in p]
    if len(p) > 9:
        return "p" + ".".join(body)
    return "p" + "".join(body)


def torus_gem(n, budget=40320):
    """Gem of the n-torus on the (n+1)! permutations of {1,..,n+1}.

    Vertices are the permutations in lexicographic order, labeled p<entries>.
    For color k in 1..n the k-partner swaps entries k and k+1.  The
    0-partner walks the palindromic swap sequence n, n-1, .., 2, 1, 2, .., n;
    that composite equals swapping entries 1 and n+1, and both versions are
    computed and compared vertex by vertex.
    """
    if n < 1:
        raise DimensionUnsupported(f"torus dimension must be >= 1, got {n}")
    count = factorial(n + 1)
    if count > budget:
        raise BudgetExceeded(f"{count} vertices exceed the budget of {budget}")
    perms = list(permutations(range(1, n + 2)))
    index = {p: v for v, p in enumerate(perms)}

    walk = list(range(n, 0, -1)) + list(range(2, n + 1))
    zero = []
    for v, p in enumerate(perms):
        q = list(p)
        for k in walk:
            q[k - 1], q[k] = q[k], q[k - 1]
        if q[0] != p[n] or q[n] != p[0] or q[1:n] != list(p[1:n]):
            raise AuditFailed("swap walk disagrees with the direct 0-involution")
        u = index[tuple(q)]
        if v < u:
            zero += (v, u)
    endpoints = [zero]
    for k in range(1, n + 1):
        acc = []
        for v, p in enumerate(perms):
            q = list(p)
            q[k - 1], q[k] = q[k], q[k - 1]
            u = index[tuple(q)]
            if v < u:
                acc += (v, u)
        endpoints.append(acc)
    graph = graph_from_endpoints(endpoints, count)
    if not graph.is_bipartite():
        raise AuditFailed("torus gem is not bipartite")
    return LabeledGem(graph, tuple(_perm_label(p) for p in perms))


def stated_permutation(n):
    """The color order used for the torus genus computation, by parity of n."""
    if n < 2:
        raise DimensionUnsupported(f"no stated color order for n = {n}")
    if n % 2 == 0:
        return tuple(range(0, n + 1, 2)) + tuple(range(1, n, 2))
    return tuple(range(0, n, 2)) + (1,) + tuple(range(n, 2, -2))


def expected_genus(n):
    """Closed-form genus 1 + (n+1)!(n-3)/8 at the stated color order.

    Meaningful for n >= 4 only; below that the stated order has adjacent
    swap colors next to each other and the count is not divisible by 8.
    """
    if n < 4:
        raise DimensionUnsupported(f"closed form needs n >= 4, got {n}")
    return 1 + factorial(n + 1) * (n - 3) // 8


def audit_cycle_lengths(gem):
    """Check the bicolored cycle lengths of a torus gem.

    True iff every bicolored cycle has length 4 or 6 and the consecutive
    color pairs of the stated order give 4-cycles only.  Swap colors that
    share an entry position give 6-cycles, all others 4-cycles, so the
    second clause needs n >= 4.
    """
    graph = gem.graph
    n = graph.n_colors - 1
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if not set(bicolored_cycles(graph, i, j)) <= {4, 6}:
                return False
    order = stated_permutation(n)
    for k in range(n + 1):
        i, j = order[k], order[(k + 1) % (n + 1)]
        if set(bicolored_cycles(graph, i, j)) != {4}:
            return False
    return True
