"""Graph container: construction, validation, residues, basic predicates,
and the factorial budget every exhaustive search shares."""

import time
from enum import IntEnum
from itertools import combinations
from math import factorial

import pytest

from gemkit import (BudgetExceeded, ColorOutOfRange, ColoredGraph,
                    CombinedSpec, DipoleSpec, DuplicateVertexInColor,
                    GemError, GlueSpec, GraphValidationError, LabeledGem,
                    LoopEdge, MoveError, OddVertexCount,
                    PermutationColorMismatch, ScriptStep, UnknownLabel,
                    VertexCountMismatch, add_dipole, bicolored_cycles,
                    cancel_dipole, check_dipole, combined_move,
                    cyclic_permutations, genus_for, invariants, iso,
                    new_graph, order_two_gem, parse_gem, polyhedral_glue,
                    product_gem, render_gem, run_script, small_cover_gem,
                    torus_gem)
from gemkit import core
from gemkit.core import _restrict, graph_from_endpoints

from conftest import (disjoint_union, limited_calls, make_rng,
                      random_colored_graph, shuffled_copy)
from oracles import (flood_fill_count, flood_fill_labels, looped_involutions,
                     looped_relabel, pairwise_new_graph, per_subset_face_counts,
                     per_subset_residue_counts, torus_residue_count)


def square_graph():
    # 4 vertices, 2 colors, one 4-cycle alternating the colors
    return new_graph(2, [[(0, 1), (2, 3)], [(1, 2), (3, 0)]])


def two_squares():
    return new_graph(2, [[(0, 1), (2, 3), (4, 5), (6, 7)],
                         [(1, 2), (3, 0), (5, 6), (7, 4)]])


class TestConstruction:
    def test_involutions_round_trip(self):
        g = square_graph()
        assert g.num_vertices == 4
        assert g.n_colors == 2
        for c in g.colors():
            for v in range(4):
                assert g.partner(g.partner(v, c), c) == v

    def test_edges_listed_once(self):
        g = square_graph()
        assert g.edges(0) == [(0, 1), (2, 3)]
        assert g.edges(1) == [(0, 3), (1, 2)]

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            new_graph(2, [[(0, 0), (2, 3)], [(0, 2), (1, 3)]], num_vertices=4)

    def test_duplicate_vertex_in_color_rejected(self):
        with pytest.raises(DuplicateVertexInColor):
            new_graph(2, [[(0, 1), (1, 2)], [(0, 1), (2, 3)]])

    def test_unmatched_vertex_rejected(self):
        # color 1 misses vertices 2 and 3
        with pytest.raises(VertexCountMismatch):
            new_graph(2, [[(0, 1), (2, 3)], [(0, 1)]])

    def test_odd_vertex_count_rejected(self):
        with pytest.raises(OddVertexCount):
            new_graph(1, [[(0, 1)]], num_vertices=3)

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(VertexCountMismatch):
            new_graph(1, [[(0, 5)]], num_vertices=2)

    def test_wrong_number_of_edge_lists_rejected(self):
        with pytest.raises(ColorOutOfRange) as err:
            new_graph(3, [[(0, 1)], [(0, 1)]])
        assert str(err.value) == "got edge lists for 2 colors, expected 3"

    @pytest.mark.parametrize("involutions, error, message", [
        ([[1, 0, 3, 2], [1, 0]], VertexCountMismatch,
         "color 1 defined on 2 vertices, expected 4"),
        ([[7, 0, 3, 2], [1, 0, 3, 2]], VertexCountMismatch,
         "color 0: partner 7 of vertex 0 out of range"),
        ([[1, 0, 3, 2], [0, 2, 1, 3]], LoopEdge,
         "color 1: vertex 0 matched to itself"),
        ([[1, 2, 3, 0], [1, 0, 3, 2]], DuplicateVertexInColor,
         "color 0: not an involution at vertices 0, 1"),
    ], ids=["length", "range", "loop", "involution"])
    def test_involution_refusals(self, involutions, error, message):
        with pytest.raises(error) as err:
            ColoredGraph(involutions)
        assert str(err.value) == message

    def test_color_index_checked(self):
        g = square_graph()
        with pytest.raises(ColorOutOfRange):
            g.partner(0, 2)
        with pytest.raises(ColorOutOfRange):
            g.edges(-1)

    @pytest.mark.parametrize("v", [-1, -24, 24, 25])
    def test_vertex_id_checked(self, v):
        # on t3 (24 vertices) -1 used to answer for vertex 23, 24 IndexError
        gem = torus_gem(3)
        with pytest.raises(VertexCountMismatch) as err:
            gem.graph.partner(v, 0)
        assert str(err.value) == f"vertex {v} not in 0..23"
        with pytest.raises(VertexCountMismatch) as err:
            gem.label_of(v)
        assert str(err.value) == f"vertex {v} not in 0..23"
        assert gem.graph.partner(23, 0) == gem.graph.involutions[0][23]
        assert gem.label_of(23) == gem.labels[23]

    def test_direct_involution_form(self):
        g = ColoredGraph([[1, 0, 3, 2], [3, 2, 1, 0]])
        assert g == square_graph()

    def test_equality_and_hash(self):
        assert square_graph() == square_graph()
        assert hash(square_graph()) == hash(square_graph())
        assert square_graph() != two_squares()


class TestComponents:
    def test_residues_of_color_subsets(self):
        g = two_squares()
        assert g.residue_count((0, 1)) == 2
        assert g.residue_count((0,)) == 4
        assert g.residue_count(()) == 8

    def test_components_labels_partition(self):
        g = two_squares()
        comp = g.components()
        assert comp.count == 2
        members = comp.members()
        assert sorted(v for part in members for v in part) == list(range(8))
        assert {frozenset(part) for part in members} == {
            frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})}

    def test_connectivity(self):
        assert square_graph().is_connected()
        assert not two_squares().is_connected()

    def test_matches_flood_fill_on_random_graphs(self, s2xs1, t3, g1p, cover1):
        # every color subset, compared id for id: (), one color, pairs with
        # and without doubled edges, and the full palette
        rng = make_rng(20260825)
        graphs = [random_colored_graph(rng, rng.choice((2, 4, 6, 10, 12, 24)),
                                       rng.randint(2, 6))
                  for _ in range(25)]
        base = random_colored_graph(rng, 12, 3)
        # color 3 repeats color 0, so every {0, 3}-cycle is a doubled edge
        graphs.append(ColoredGraph(base.involutions + base.involutions[:1]))
        graphs += [gem.graph for gem in (s2xs1, t3, g1p, cover1, torus_gem(4))]
        graphs += [shuffled_copy(rng, g)[0] for g in graphs]
        for g in graphs:
            for size in range(g.n_colors + 1):
                for kept in combinations(range(g.n_colors), size):
                    labels = flood_fill_labels(g, kept)
                    comp = g.components(kept[::-1])
                    assert comp.labels == labels, kept
                    assert comp.count == g.residue_count(kept) == max(labels) + 1
            assert g.components() == g.components(range(g.n_colors))


def assert_crystallization_is_contracted(graph):
    """Check is_crystallization against flood fills; return its verdict."""
    k = graph.n_colors
    contracted = graph.is_contracted()
    assert graph.is_connected() or not contracted
    want = flood_fill_count(graph, range(k)) == 1 and all(
        flood_fill_count(graph, [c for c in range(k) if c != j]) == 1
        for j in range(k))
    assert graph.is_crystallization() == contracted == want
    return want


class TestPredicates:
    def test_bipartite(self):
        assert square_graph().is_bipartite()
        # a triangle-ish odd cycle in two colors: 6 vertices, one 6-cycle is
        # bipartite, so use three colors with a twist instead
        g = new_graph(3, [[(0, 1), (2, 3)], [(1, 2), (3, 0)], [(0, 2), (1, 3)]])
        assert not g.is_bipartite()

    def test_contracted_and_crystallization(self, s2xs1):
        g = s2xs1.graph
        assert g.is_contracted()
        assert g.is_crystallization()
        double = new_graph(2, [[(0, 1)], [(0, 1)]])
        assert double.is_contracted()
        # dropping one color of the square leaves two disjoint edges
        assert not square_graph().is_contracted()

    @pytest.mark.parametrize("k", range(2, 8))
    def test_crystallization_is_contracted_on_random_graphs(self, k):
        rng = make_rng(400 + k)
        graphs = [random_colored_graph(rng, nv, k)
                  for nv in (2, 4, 6, 8, 12) for _ in range(8)]
        graphs += [disjoint_union(g, g) for g in graphs[:8]]
        verdicts = {assert_crystallization_is_contracted(g) for g in graphs}
        assert verdicts == {True, False}

    def test_crystallization_is_contracted_on_catalogue(
            self, s2xs1, t3, g1p, g2p, cover1, reduced1, torus4):
        rng = make_rng(47)
        verdicts = {
            assert_crystallization_is_contracted(shuffled_copy(rng, gem.graph)[0])
            for gem in (s2xs1, t3, g1p, g2p, cover1, reduced1, torus4)}
        assert verdicts == {True, False}

    def test_face_counts_and_euler(self):
        double = new_graph(2, [[(0, 1)], [(0, 1)]])
        # N_0: one residue per single kept color; N_1: the two vertices
        assert double.face_counts() == (2, 2)
        assert double.euler_characteristic() == 0

    def test_euler_characteristic_catalogue(self, s2xs1, t3):
        assert s2xs1.graph.euler_characteristic() == 0
        assert t3.graph.euler_characteristic() == 0
        assert order_two_gem(4).graph.euler_characteristic() == 0
        assert order_two_gem(5).graph.euler_characteristic() == 2


class TestResidueWalkAgainstOracle:
    """residue_counts()/face_counts() against one labelling per subset."""

    @staticmethod
    def agree(g):
        counts = g.residue_counts()
        assert counts == per_subset_residue_counts(g)
        assert len(counts) == 2 ** g.n_colors
        assert g.face_counts() == per_subset_face_counts(g)

    def test_random_graphs(self):
        rng = make_rng(20261018)
        for k in range(2, 8):
            for _ in range(6):
                g = random_colored_graph(rng, rng.choice((2, 4, 6, 10, 16)), k)
                self.agree(g)
                h = random_colored_graph(rng, rng.choice((2, 4, 8)), k)
                # disconnected, with the two parts' vertices interleaved
                both, _ = shuffled_copy(rng, disjoint_union(g, h))
                assert not both.is_connected()
                self.agree(both)

    def test_catalogue_and_tori(self, s2xs1, t3, g1p, g2p, cover1, reduced1):
        rng = make_rng(8)
        graphs = [gem.graph for gem in (s2xs1, t3, g1p, g2p, cover1, reduced1)]
        graphs += [torus_gem(n).graph for n in range(2, 6)]
        for g in graphs:
            self.agree(g)
            self.agree(shuffled_copy(rng, g)[0])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_torus_closed_form(self, n):
        # the closed form uses no labeller
        g = torus_gem(n).graph
        want = {kept: torus_residue_count(n, kept)
                for size in range(n + 2)
                for kept in combinations(range(n + 1), size)}
        assert g.residue_counts() == want
        assert g.face_counts() == tuple(
            sum(count for kept, count in want.items() if len(kept) == n - h)
            for h in range(n + 1))
        assert g.euler_characteristic() == 0

    def test_two_colors(self):
        g = square_graph()
        assert g.residue_counts() == {(): 4, (0,): 2, (1,): 2, (0, 1): 1}
        assert two_squares().residue_counts()[(0, 1)] == 2


class TestWalkBudget:
    """The residue walk refuses more than 16 colors, and then more than
    2^28 vertex visits (V times 2^k), before it walks, and face_counts and
    euler_characteristic refuse through it."""

    WIDE = (17, 26, 10**3)
    METHODS = ("residue_counts", "face_counts", "euler_characteristic")

    def test_sixteen_colors_walked(self):
        g = ColoredGraph([(1, 0)] * 16)
        assert len(g.residue_counts()) == 2 ** 16
        assert g.euler_characteristic() == 0

    def test_wide_palettes_refused_at_once(self):
        calls = [f"ColoredGraph([(1, 0)] * {k}).{method}()"
                 for k in self.WIDE for method in self.METHODS]
        rows = limited_calls(calls)
        assert [row[:2] for row in rows] == [
            ("BudgetExceeded", f"{k} colors exceed the budget of 16")
            for k in self.WIDE for _ in self.METHODS]
        for call, (_, _, seconds) in zip(calls, rows):
            assert seconds < 0.5, call

    def test_visits_past_the_budget_refused_at_once(self):
        # 16 colors on 8192 vertices: 2^29 visits, which take half a minute
        calls = [f"ColoredGraph([tuple(v ^ (1 << (c % 13)) for v in range(8192))"
                 f" for c in range(16)]).{method}()" for method in self.METHODS]
        rows = limited_calls(calls)
        assert [row[:2] for row in rows] == [
            ("BudgetExceeded",
             "536870912 vertex visits exceed the budget of 268435456")] * 3
        for call, (_, _, seconds) in zip(calls, rows):
            assert seconds < 1, call

    def test_visits_up_to_the_budget_walked(self, monkeypatch):
        # the square's two colors on four vertices plan 16 visits
        monkeypatch.setattr(core, "_MAX_WALK_VISITS", 16)
        assert square_graph().euler_characteristic() == 0
        monkeypatch.setattr(core, "_MAX_WALK_VISITS", 15)
        with pytest.raises(BudgetExceeded) as err:
            square_graph().residue_counts()
        assert str(err.value) == "16 vertex visits exceed the budget of 15"


def _outcome(build, involutions):
    """("ok", the involutions) or (the exception type, its message)."""
    try:
        return "ok", tuple(build(involutions))
    except Exception as exc:
        return type(exc), str(exc)


def _corrupt(rng, involutions, kind):
    """The involutions as lists with one seeded corruption of one color."""
    invs = [list(col) for col in involutions]
    nv = len(invs[0])
    c = rng.randrange(len(invs))
    col = invs[c]
    v = rng.randrange(nv)
    if kind == "out-of-range":
        col[v] = nv + rng.randrange(3)
    elif kind == "minus-one":
        # half the time at the partner of V - 1, which itemgetter's wrap of
        # -1 to V - 1 would take for a sound involution
        col[col[nv - 1] if rng.random() < 0.5 else v] = -1
    elif kind == "fixed-point":
        # half the time both ends of an edge, which leaves an involution
        if rng.random() < 0.5:
            col[col[v]] = col[v]
        col[v] = v
    elif kind == "non-involution":
        col[v] = rng.choice([w for w in range(nv) if w not in (v, col[v])])
    elif kind == "short":
        invs[c] = col[:rng.randrange(nv)]
    elif kind == "bool":
        col[v] = rng.random() < 0.5
    elif kind == "float":
        col[v] = float(col[v])
    return invs


class TestValidatorAgainstLoop:
    """ColoredGraph checks each color in one pass; the per-vertex loop it
    replaced (oracles.looped_involutions) must give the same refusal, type
    and message, or the same involutions."""

    @pytest.mark.parametrize("kind", [
        "valid", "out-of-range", "minus-one", "fixed-point", "non-involution",
        "short", "bool", "float"])
    def test_random_graphs(self, kind):
        rng = make_rng(f"validator:{kind}")
        refused = 0
        for _ in range(30):
            g = random_colored_graph(rng, rng.choice([4, 6, 10, 40, 300]),
                                     rng.randint(2, 5))
            invs = _corrupt(rng, g.involutions, kind)
            new = _outcome(lambda i: ColoredGraph(i).involutions, invs)
            assert new == _outcome(looped_involutions, invs)
            if new[0] == "ok":
                assert all(type(w) is int for col in new[1] for w in col)
            else:
                refused += 1
        assert refused == 0 if kind == "valid" else refused > 0

    @pytest.mark.parametrize("involutions", [
        [], [[1, 0]], [[], []], [[1, 0, 3], [1, 0, 3]], [[1, 0], ()],
        [[1, 0], [1]], [[1, 0], [1, 0, 3, 2]], [[1, 0], [-1, -2]],
        [[1, 0], [-1, 0]], [[1, 0], ["1", 0]], [[1, 0], [None, 0]],
        [[True, False], [1, 0]], [[1, 0], [1.0, 0]], [[1, 0], [2.0, 0]],
        [(1, 0), (1, 0), (0, 1)],
    ])
    def test_edge_cases(self, involutions):
        assert (_outcome(lambda i: ColoredGraph(i).involutions, involutions)
                == _outcome(looped_involutions, involutions))


class _NeverEqual(int):
    """An int whose == is always False and != is int's: it passes every
    test of the per-vertex loop but not ColoredGraph's one-pass check."""

    def __eq__(self, other):
        return False

    __hash__ = int.__hash__


class TestFirstBadVertex:
    """Every exit of the per-vertex loop that names a refused color's
    first fault, reached through ColoredGraph, message pinned."""

    @pytest.mark.parametrize("bad, error, message", [
        ([1, 0, 3], VertexCountMismatch, "color 1 defined on 3 vertices, expected 4"),
        ([1, 0, 3.0, 2], TypeError, "color 1: partners must be ints, got 3.0 at vertex 2"),
        ([1, 0, "3", 2], TypeError, "color 1: partners must be ints, got '3' at vertex 2"),
        ([1, 0, None, 2], TypeError, "color 1: partners must be ints, got None at vertex 2"),
        ([4, 0, 3, 2], VertexCountMismatch, "color 1: partner 4 of vertex 0 out of range"),
        ([1, 0, 2, 2], LoopEdge, "color 1: vertex 2 matched to itself"),
        ([1, 0, 3, 0], DuplicateVertexInColor,
         "color 1: not an involution at vertices 2, 3"),
        ([1, 0, _NeverEqual(3), _NeverEqual(2)], TypeError,
         "color 1: partners must be ints"),
    ], ids=["length", "float", "str", "none", "range", "loop", "involution",
            "int-subclass"])
    def test_each_exit(self, bad, error, message):
        with pytest.raises(error) as err:
            ColoredGraph([[1, 0, 3, 2], bad])
        assert type(err.value) is error
        assert str(err.value) == message

    def test_faults_are_named_in_vertex_order(self):
        with pytest.raises(VertexCountMismatch, match="partner 9 of vertex 0"):
            ColoredGraph([[1, 0, 3, 2], [9, 0, 3.0, 2]])
        with pytest.raises(TypeError, match="got 3.0 at vertex 2"):
            ColoredGraph([[1, 0, 3, 2], [1, 0, 3.0, 9]])


class TestSharedIds:
    """Every builder's graph holds one int object per vertex id.  Graphs of
    more than 256 vertices show it; below that CPython shares small ints
    anyway."""

    @staticmethod
    def distinct_ints(graph):
        return len({id(w) for col in graph.involutions for w in col})

    def test_builders(self, t3):
        rng = make_rng("shared ids")
        t5 = torus_gem(5)
        relabelled, perm = shuffled_copy(rng, t5.graph)
        names = [None] * t5.graph.num_vertices
        for v, name in enumerate(t5.labels):
            names[perm[v]] = name
        grown, steps = t5.graph, []
        for d in range(3):
            grown = add_dipole(grown, rng.randrange(grown.num_vertices), (d, 4)).graph
            steps.append(ScriptStep("dipole", (d, 4), ((f"d{d}a", f"d{d}b"),), 3 - d))
        labels = list(t5.labels) + [f"d{d}{s}" for d in range(3) for s in "ab"]
        text = render_gem(LabeledGem(relabelled, names))
        graphs = {
            "parse_gem": parse_gem(text).graph,
            # tabs between the pairs: every edge line goes to the token scan
            "parse_gem, token scan": parse_gem(text.replace(" ", "\t")).graph,
            "torus_gem": t5.graph,
            "product_gem": product_gem(t3).graph,
            "small_cover_gem": small_cover_gem(2).graph,
            "relabel": relabelled,
            "permute_colors": relabelled.permute_colors((3, 0, 5, 1, 4, 2)),
            "add_dipole": grown,
            "run_script": run_script(LabeledGem(grown, labels), steps[::-1]).gem.graph,
            "new_graph": random_colored_graph(rng, 400, 4),
            "new_graph, num_vertices": new_graph(
                3, [[(a, b) for a, b in zip(ends[::2], ends[1::2])]
                    for ends in (rng.sample(range(400), 400) for _ in range(3))],
                num_vertices=400),
        }
        for name, graph in graphs.items():
            assert self.distinct_ints(graph) == graph.num_vertices, name
        assert graphs["run_script"] == t5.graph


def _random_endpoints(rng, nv, k):
    """k flat endpoint lists a0, b0, a1, b1, ..., each a random perfect
    matching on the objects of one tuple(range(nv))."""
    ids = tuple(range(nv))
    return [rng.sample(ids, nv) for _ in range(k)]


def _mutate_endpoints(rng, endpoints, nv, kind):
    """The endpoint lists and vertex count with one seeded fault."""
    endpoints = [list(flat) for flat in endpoints]
    flat = rng.choice(endpoints)
    i = rng.randrange(nv)
    if kind == "duplicate":
        flat[i] = rng.choice([x for x in range(nv) if x != flat[i]])
    elif kind == "loop":
        flat[i] = flat[i ^ 1]
    elif kind == "out-of-range":
        flat[i] = nv + rng.randrange(3)
    elif kind == "missing-pair":
        del flat[i & ~1:(i & ~1) + 2]
    elif kind == "odd-count":
        nv += rng.choice((-1, 1))
    elif kind == "few-colors":
        del endpoints[rng.randrange(2):]
    return endpoints, nv


class TestProvenConstructor:
    """graph_from_endpoints stores the columns _matching proves without
    ColoredGraph's second validation: it must build the graph ColoredGraph
    builds from the same columns, or refuse as the pair-by-pair oracle
    (pairwise_new_graph, which validates with ColoredGraph) does."""

    @pytest.mark.parametrize("kind", [
        "valid", "duplicate", "loop", "out-of-range", "missing-pair",
        "odd-count", "few-colors"])
    def test_random_endpoint_lists(self, kind):
        rng = make_rng(f"proven:{kind}")
        for _ in range(30):
            nv = rng.choice([2, 4, 6, 10, 40, 300])
            endpoints, count = _mutate_endpoints(
                rng, _random_endpoints(rng, nv, rng.randint(2, 5)), nv, kind)
            pairs = [list(zip(flat[::2], flat[1::2])) for flat in endpoints]
            expected = _outcome(
                lambda p: pairwise_new_graph(len(p), p, count).involutions, pairs)
            got = _outcome(
                lambda e: graph_from_endpoints(e, count).involutions, endpoints)
            assert got == expected
            if kind == "valid":
                graph = graph_from_endpoints(endpoints, count)
                assert graph == ColoredGraph(graph.involutions)
                assert graph.n_colors == len(endpoints)
                assert graph.num_vertices == count
                assert TestSharedIds.distinct_ints(graph) == count
            else:
                assert got[0] != "ok"

    def test_count_no_color_can_match_allocates_no_ids(self):
        # _matching refuses a color without V endpoints before any column
        # or tuple(range(V)) is made; 2**62 ids would raise MemoryError
        with pytest.raises(VertexCountMismatch, match="vertices have no edge"):
            new_graph(2, [[(0, 1)], [(0, 1)]], num_vertices=2 ** 62)

    def test_permute_colors_keeps_the_columns(self):
        g = random_colored_graph(make_rng("permute"), 40, 4)
        h = g.permute_colors((2, 0, 3, 1))
        assert h == ColoredGraph([g.involutions[c] for c in (1, 3, 0, 2)])
        assert all(h.involutions[new] is g.involutions[old]
                   for old, new in enumerate((2, 0, 3, 1)))


class TestRelabelAndColorPermute:
    def test_relabel_round_trip(self):
        g = two_squares()
        perm = [3, 0, 1, 2, 7, 4, 5, 6]
        h = g.relabel(perm)
        inverse = [0] * 8
        for old, new in enumerate(perm):
            inverse[new] = old
        assert h.relabel(inverse) == g

    def test_relabel_preserves_structure(self):
        g = two_squares()
        h = g.relabel([3, 0, 1, 2, 7, 4, 5, 6])
        assert h.residue_count((0, 1)) == 2
        assert h.is_bipartite() == g.is_bipartite()

    def test_relabel_must_be_a_bijection(self):
        with pytest.raises(VertexCountMismatch):
            square_graph().relabel([0, 0, 1, 2])
        with pytest.raises(VertexCountMismatch):
            square_graph().relabel([0, 1, 2])

    def test_relabel_matches_looped_oracle_on_random_graphs(self):
        rng = make_rng("relabel")
        for k in range(2, 8):
            for _ in range(5):
                g = random_colored_graph(rng, 2 * rng.randint(1, 30), k)
                h, perm = shuffled_copy(rng, g)
                assert h == looped_relabel(g, perm)

    def test_relabel_matches_looped_oracle_on_the_catalogue(
            self, s2xs1, t3, g1p, g2p, cover1, reduced1):
        rng = make_rng("relabel catalogue")
        for gem in (s2xs1, t3, g1p, g2p, cover1, reduced1, torus_gem(5)):
            h, perm = shuffled_copy(rng, gem.graph)
            assert h == looped_relabel(gem.graph, perm)
            assert h.relabel(range(h.num_vertices)) == h

    def test_restrict_renumbers_in_the_given_order(self):
        g = two_squares()
        # the second square, walked backwards from vertex 7
        columns, vmap = _restrict(g.involutions, [7, 6, 5, 4])
        assert vmap == [-1, -1, -1, -1, 3, 2, 1, 0]
        # color 0 pairs 7-6 and 5-4, color 1 pairs 7-4 and 6-5
        assert columns == [(1, 0, 3, 2), (3, 2, 1, 0)]

    def test_restrict_to_an_open_set_is_refused(self):
        # vertex 1's color-0 partner 0 is off the list, so it comes out -1
        columns, _ = _restrict(two_squares().involutions, [1, 2])
        with pytest.raises(VertexCountMismatch):
            ColoredGraph(columns)

    def test_color_permutation_must_be_a_bijection(self):
        with pytest.raises(ColorOutOfRange):
            square_graph().permute_colors([0, 0])
        with pytest.raises(ColorOutOfRange):
            square_graph().permute_colors([1, 2])

    def test_permute_colors(self):
        g = square_graph()
        h = g.permute_colors([1, 0])
        assert h.edges(1) == g.edges(0)
        assert h.edges(0) == g.edges(1)
        assert h.permute_colors([1, 0]) == g


class TestLabeledGem:
    def test_default_labels(self):
        gem = LabeledGem(square_graph())
        assert gem.label_of(0) == "0"
        assert gem.vertex("3") == 3

    def test_custom_labels(self):
        gem = LabeledGem(square_graph(), ["a", "b", "c", "d"])
        assert gem.vertex("c") == 2
        assert gem.has_label("d")
        assert not gem.has_label("e")
        with pytest.raises(KeyError):
            gem.vertex("nope")

    def test_unknown_label_is_a_gem_error_and_a_key_error(self):
        gem = LabeledGem(square_graph(), ["a", "b", "c", "d"])
        with pytest.raises(UnknownLabel) as err:
            gem.vertex("nope")
        assert isinstance(err.value, GemError)
        assert isinstance(err.value, KeyError)
        assert str(err.value) == "no vertex labeled 'nope'"

    def test_labels_must_be_unique(self):
        with pytest.raises(VertexCountMismatch):
            LabeledGem(square_graph(), ["a", "a", "c", "d"])

    @pytest.mark.parametrize("bad", [3, None, b"c"])
    def test_labels_must_be_str(self, bad):
        with pytest.raises(GraphValidationError) as err:
            LabeledGem(square_graph(), ["a", "b", bad, 4])
        assert str(err.value) == f"vertex 2: label {bad!r} is not a str"

    def test_str_subclass_labels_accepted(self):
        class Name(str):
            pass

        gem = LabeledGem(square_graph(), [Name(c) for c in "abcd"])
        assert gem.vertex("c") == 2
        assert gem.label_of(3) == "d"

    def test_label_count_must_match(self):
        with pytest.raises(VertexCountMismatch):
            LabeledGem(square_graph(), ["a", "b"])

    def test_repr(self):
        gem = LabeledGem(square_graph(), ["a", "b", "c", "d"])
        assert repr(gem) == "LabeledGem(ColoredGraph(colors=2, vertices=4))"


# call on the 3-torus gem -> (the GemError it raises, its message); each
# argument that is not an int would otherwise index or compare as a TypeError
NON_INT_CALLS = {
    "genus_for float color": (
        lambda g: genus_for(g, (0.0, 1, 2, 3)), PermutationColorMismatch,
        "(0.0, 1, 2, 3) is not a permutation of colors 0..3"),
    "genus_for str color": (
        lambda g: genus_for(g, (0, "a", 2, 3)), PermutationColorMismatch,
        "(0, 'a', 2, 3) is not a permutation of colors 0..3"),
    "bicolored_cycles float color": (
        lambda g: bicolored_cycles(g, 0.0, 1), ColorOutOfRange,
        "color 0.0 is not an int"),
    "partner float vertex": (
        lambda g: g.partner(0.0, 1), VertexCountMismatch,
        "vertex 0.0 is not an int"),
    "partner float color": (
        lambda g: g.partner(0, 1.0), ColorOutOfRange, "color 1.0 is not an int"),
    "label_of float vertex": (
        lambda g: LabeledGem(g).label_of(1.0), VertexCountMismatch,
        "vertex 1.0 is not an int"),
    "components str color": (
        lambda g: g.components(["a"]), ColorOutOfRange,
        "color 'a' is not an int"),
    "components int and str colors": (
        lambda g: g.components([0, "a"]), ColorOutOfRange,
        "color 'a' is not an int"),
    "permute_colors float color": (
        lambda g: g.permute_colors([0.0, 1, 2, 3]), ColorOutOfRange,
        "color permutation is not a bijection on colors"),
    "relabel str vertex": (
        lambda g: g.relabel(["a"] + list(range(1, g.num_vertices))),
        VertexCountMismatch, "relabeling is not a bijection on vertex ids"),
    "check_dipole str vertex": (
        lambda g: check_dipole(g, DipoleSpec("a", 1, frozenset({0}))),
        MoveError, "vertex 'a' is not an int"),
    "add_dipole float vertex": (
        lambda g: add_dipole(g, 0.0, [0]), MoveError, "vertex 0.0 is not an int"),
    "add_dipole float color": (
        lambda g: add_dipole(g, 0, [0.0]), ColorOutOfRange,
        "color 0.0 is not an int"),
    "cancel_dipole float vertex": (
        lambda g: cancel_dipole(g, DipoleSpec(0.0, 1, frozenset({0}))),
        MoveError, "vertex 0.0 is not an int"),
    "polyhedral_glue float color": (
        lambda g: polyhedral_glue(g, GlueSpec(0.0, (0,), (g.partner(0, 0),))),
        ColorOutOfRange, "color 0.0 is not an int"),
    "polyhedral_glue str vertex": (
        lambda g: polyhedral_glue(g, GlueSpec(0, ("a",), (1,))),
        MoveError, "vertex 'a' is not an int"),
    "combined_move float color": (
        lambda g: combined_move(g, CombinedSpec(0.0, 1, 2, (0, 1), (2, 3))),
        ColorOutOfRange, "color 0.0 is not an int"),
}


class _Color(IntEnum):
    ZERO = 0
    ONE = 1


class TestNonIntArguments:
    """A color, vertex or color order that is not an int is refused by its
    gate with a GemError; bool and IntEnum stay ints."""

    @pytest.mark.parametrize("call", NON_INT_CALLS)
    def test_refused(self, torus3, call):
        fn, error, message = NON_INT_CALLS[call]
        with pytest.raises(error) as err:
            fn(torus3.graph)
        assert str(err.value) == message

    def test_bool_and_int_enum_are_ints(self, torus3):
        g = torus3.graph
        assert g.partner(True, _Color.ONE) == g.partner(1, 1)
        assert genus_for(g, (False, True, 2, 3)) == genus_for(g, (0, 1, 2, 3))
        assert bicolored_cycles(g, _Color.ZERO, True) == bicolored_cycles(g, 0, 1)
        assert g.permute_colors([_Color.ONE, False, 2, 3]) \
            == g.permute_colors([1, 0, 2, 3])
        assert LabeledGem(g).label_of(True) == LabeledGem(g).label_of(1)


def _vertices(monkeypatch, m, budget):
    return torus_gem(m - 1, budget=budget).graph.num_vertices


def _orders(monkeypatch, m, budget):
    monkeypatch.setattr(invariants, "MAX_CYCLIC_ORDERS", budget)
    return len(cyclic_permutations(m + 1))


def _maps(monkeypatch, m, budget):
    monkeypatch.setattr(iso, "MAX_COLOR_MAPS", budget)
    return len(list(iso._color_maps(m)))


# each gate on m!: what it counts, and its refusal of that count past budget
BUDGET_GATES = {
    "torus_gem": (_vertices, lambda m: factorial(m),
                  "{count} vertices exceed the budget of {budget}"),
    "cyclic_permutations": (_orders, lambda m: factorial(m) // 2,
                            "{m}!/2 cyclic orders exceed the budget of "
                            "{budget}"),
    "_color_maps": (_maps, lambda m: factorial(m),
                    "{m}! color maps exceed the budget of {budget}"),
}

# the same gates at their shipped budgets, on sizes whose factorial no
# search could compute: (call, message)
HUGE_SIZES = {
    "torus_gem": (torus_gem,
                  "{plus}! vertices exceed the budget of 40320"),
    "cyclic_permutations": (cyclic_permutations,
                            "{minus}!/2 cyclic orders exceed the budget of "
                            "181440"),
    "_color_maps": (iso._color_maps,
                    "{size}! color maps exceed the budget of 40320"),
}


class TestFactorialBudget:
    """torus_gem's vertices, the genus search's cyclic orders and the
    color-permuted search's color maps are all m! or m!/2 counts, gated by
    one rule: exactly the budget is admitted, one less is refused, and a
    size whose factorial cannot be computed is refused at once."""

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("gate", BUDGET_GATES)
    def test_exact_budget_admitted_one_less_refused(self, monkeypatch, gate,
                                                     m):
        call, count_of, message = BUDGET_GATES[gate]
        count = count_of(m)
        assert call(monkeypatch, m, count) == count
        with pytest.raises(BudgetExceeded) as err:
            call(monkeypatch, m, count - 1)
        assert str(err.value) == message.format(m=m, count=count,
                                                budget=count - 1)

    @pytest.mark.parametrize("size", (10**6, 2**70), ids=("10**6", "2**70"))
    @pytest.mark.parametrize("gate", HUGE_SIZES)
    def test_huge_sizes_refused_at_once(self, gate, size):
        call, message = HUGE_SIZES[gate]
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as err:
            call(size)
        dt = time.perf_counter() - t0
        assert str(err.value) == message.format(size=size, plus=size + 1,
                                                minus=size - 1)
        assert dt < 0.5, f"took {dt:.2f}s, budget 0.5s"
