"""n-torus gems on permutation vertices, checked against an exact
geometric oracle: the affine reflection tiling of the sum-zero hyperplane,
with simplices taken modulo the integer translation lattice, and against
the per-vertex lookup builder in `oracles`."""

import time
from enum import IntEnum
from fractions import Fraction
from math import factorial

import pytest

import gemkit.torus_cube
from gemkit import (AuditFailed, BudgetExceeded, ColoredGraph,
                    DimensionUnsupported, LabeledGem, audit_cycle_lengths,
                    bicolored_cycles, expected_genus, genus_for, isomorphic,
                    regular_genus, render_gem, stated_permutation, torus_gem)

from conftest import limited_calls
from oracles import lex_signs, lookup_torus_gem


# -- oracle ---------------------------------------------------------------------

def fundamental_simplex(n):
    """Vertices: the origin and the n averaged corner points of the tiling."""
    dim = n + 1
    verts = [tuple(Fraction(0) for _ in range(dim))]
    for k in range(1, dim):
        verts.append(tuple(
            Fraction(1 if t < k else 0) - Fraction(k, dim) for t in range(dim)))
    return tuple(verts)


def point_type(p, n):
    """Which translation class of tiling corners the point belongs to."""
    val = -p[0] * (n + 1)
    assert val.denominator == 1
    return int(val) % (n + 1)


def barycenter(simplex):
    dim = len(simplex[0])
    return tuple(
        sum(v[t] for v in simplex) / len(simplex) for t in range(dim))


def frac_key(point):
    return tuple(x - (x.numerator // x.denominator) for x in point)


def facet_plane(facet, apex):
    """The unique wall x_a - x_b = m through `facet` missing `apex`."""
    dim = len(apex)
    found = []
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            diffs = {u[a] - u[b] for u in facet}
            if len(diffs) != 1:
                continue
            m = diffs.pop()
            if m.denominator != 1 or apex[a] - apex[b] == m:
                continue
            found.append((a, b, m))
    # each wall shows up twice, once per orientation
    assert len(found) == 2, found
    return found[0]


def reflect_across(point, plane):
    a, b, m = plane
    out = list(point)
    out[a] = point[b] + m
    out[b] = point[a] - m
    return tuple(out)


def simplex_tiling_quotient(n):
    """The (n+1)-colored adjacency graph of tiles modulo translation."""
    start = fundamental_simplex(n)
    ids = {frac_key(barycenter(start)): 0}
    reps = [start]
    queue = [start]
    while queue:
        simplex = queue.pop()
        for apex in simplex:
            facet = tuple(v for v in simplex if v != apex)
            plane = facet_plane(facet, apex)
            neighbor = tuple(sorted(facet + (reflect_across(apex, plane),)))
            key = frac_key(barycenter(neighbor))
            if key not in ids:
                ids[key] = len(reps)
                reps.append(neighbor)
                queue.append(neighbor)
    size = len(reps)
    invs = [[-1] * size for _ in range(n + 1)]
    for here, simplex in enumerate(reps):
        for apex in simplex:
            facet = tuple(v for v in simplex if v != apex)
            plane = facet_plane(facet, apex)
            neighbor = tuple(sorted(facet + (reflect_across(apex, plane),)))
            there = ids[frac_key(barycenter(neighbor))]
            color = point_type(apex, n)
            assert there != here
            invs[color][here] = there
    return ColoredGraph(invs)


# -- tests ----------------------------------------------------------------------

class TestGeometricOracle:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_matches_tiling_quotient(self, n):
        oracle = simplex_tiling_quotient(n)
        assert oracle.num_vertices == factorial(n + 1)
        gem = torus_gem(n)
        assert isomorphic(oracle, gem.graph) is not None


class TestLookupOracle:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_gem_as_lookup_builder(self, n):
        fast, slow = torus_gem(n), lookup_torus_gem(n)
        assert fast.graph.involutions == slow.graph.involutions
        assert fast.labels == slow.labels

    def test_seven_torus_file_is_byte_equal(self):
        assert render_gem(torus_gem(7)) == render_gem(lookup_torus_gem(7))

    def test_wrong_swap_color_fails_the_zero_audit(self, monkeypatch):
        real = gemkit.torus_cube._swap_involution

        def crossed(ids, n, k):
            # re-pair two 2-cycles (a b)(c d) as (a c)(b d): still a
            # fixed-point-free involution, but not the swap of entries 1, 2
            col = real(ids, n, k)
            if k == 1:
                a, b = 0, col[0]
                c = next(v for v in range(len(col)) if v not in (a, b))
                d = col[c]
                col[a], col[c], col[b], col[d] = c, a, d, b
            return col

        monkeypatch.setattr(gemkit.torus_cube, "_swap_involution", crossed)
        with pytest.raises(AuditFailed, match="0-involution"):
            torus_gem(3)


class TestSignCertificate:
    """The sign certificate the builder once carried, now a test: every
    color swaps two entries, so it joins permutations of opposite parity."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_signs_are_inversion_parities(self, n):
        labels = torus_gem(n).labels
        parities = [sum(a > b for i, a in enumerate(label[1:])
                        for b in label[2 + i:]) % 2 for label in labels]
        assert lex_signs(n + 1) == parities

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_color_joins_opposite_parities(self, n):
        sign = lex_signs(n + 1)
        for col in torus_gem(n).graph.involutions:
            assert all(sign[v] != sign[w] for v, w in enumerate(col))

    def test_refused_bipartiteness_fails_the_audit(self, monkeypatch):
        checked = []

        def refuse(graph):
            checked.append(graph)
            return False

        monkeypatch.setattr(ColoredGraph, "is_bipartite", refuse)
        with pytest.raises(AuditFailed, match="^torus gem is not bipartite$"):
            torus_gem(3)
        monkeypatch.undo()
        assert checked == [torus_gem(3).graph]


class TestFamily:
    def test_shapes(self):
        for n in (1, 2, 3, 4):
            g = torus_gem(n).graph
            assert g.num_vertices == factorial(n + 1)
            assert g.n_colors == n + 1
            assert g.is_crystallization()
            assert g.is_bipartite()

    def test_smallest_is_double_edge(self):
        g = torus_gem(1).graph
        assert g.num_vertices == 2
        assert bicolored_cycles(g, 0, 1) == [2]

    def test_circle_squared(self):
        assert regular_genus(torus_gem(2).graph).genus == 1

    def test_matches_catalogue_three_torus(self, t3, torus3):
        assert regular_genus(torus3.graph).genus == 3
        assert isomorphic(torus3.graph, t3.graph) is not None

    def test_labels_are_permutation_words(self, torus3):
        assert torus3.has_label("p1234")
        assert torus3.has_label("p4321")

    def test_dimension_and_budget_guards(self):
        with pytest.raises(DimensionUnsupported):
            torus_gem(0)
        with pytest.raises(BudgetExceeded, match="^362880 vertices exceed"):
            torus_gem(8)
        with pytest.raises(BudgetExceeded, match="^5! vertices exceed"):
            torus_gem(4, budget=10)
        with pytest.raises(BudgetExceeded,
                           match="^10! vertices exceed the budget of 40320$"):
            torus_gem(9)
        assert torus_gem(4, budget=120).graph.num_vertices == 120

    @pytest.mark.parametrize("call, error, message", [
        (lambda: torus_gem(3.0), DimensionUnsupported,
         "torus dimension must be an int, got 3.0"),
        (lambda: torus_gem(None), DimensionUnsupported,
         "torus dimension must be an int, got None"),
        (lambda: torus_gem("3"), DimensionUnsupported,
         "torus dimension must be an int, got '3'"),
        (lambda: torus_gem(3, budget=2.5), BudgetExceeded,
         "budget must be an int, got 2.5"),
        (lambda: stated_permutation(4.0), DimensionUnsupported,
         "torus dimension must be an int, got 4.0"),
        (lambda: expected_genus(5.0), DimensionUnsupported,
         "torus dimension must be an int, got 5.0"),
    ], ids=["torus_gem(3.0)", "torus_gem(None)", "torus_gem('3')",
            "budget=2.5", "stated_permutation(4.0)", "expected_genus(5.0)"])
    def test_non_int_sizes_refused(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_bool_and_int_enum_are_ints(self):
        class Size(IntEnum):
            THREE = 3
        assert torus_gem(True).graph.num_vertices == 2
        assert torus_gem(Size.THREE, budget=Size.THREE * 8).graph \
            == torus_gem(3).graph
        assert stated_permutation(Size.THREE) == stated_permutation(3)

    def test_cycle_lengths_audit(self, torus4):
        assert audit_cycle_lengths(torus4)
        g = torus4.graph
        perm = stated_permutation(4)
        for k in range(5):
            pair = (perm[k], perm[(k + 1) % 5])
            assert set(bicolored_cycles(g, *pair)) == {4}

    def test_cycle_lengths_audit_refusals(self, s2xs1, torus4):
        # s2xs1 has 2-cycles; recoloring torus4 puts 6-cycles on a
        # consecutive pair of the stated order
        assert not audit_cycle_lengths(s2xs1)
        recolored = LabeledGem(torus4.graph.permute_colors((0, 1, 2, 4, 3)))
        assert set(bicolored_cycles(recolored.graph, 2, 4)) == {6}
        assert not audit_cycle_lengths(recolored)


class TestStatedPermutation:
    def test_values(self):
        assert stated_permutation(4) == (0, 2, 4, 1, 3)
        assert stated_permutation(5) == (0, 2, 4, 1, 5, 3)
        assert stated_permutation(6) == (0, 2, 4, 6, 1, 3, 5)
        with pytest.raises(DimensionUnsupported):
            stated_permutation(1)

    def test_genus_formula(self):
        assert expected_genus(4) == 16
        assert expected_genus(5) == 181
        assert expected_genus(6) == 1891
        with pytest.raises(DimensionUnsupported):
            expected_genus(3)

    def test_dimension_bound(self):
        assert gemkit.torus_cube._MAX_STATED_DIMENSION == 12
        assert expected_genus(12) == 1 + factorial(13) * 9 // 8
        assert stated_permutation(12) == (0, 2, 4, 6, 8, 10, 12,
                                          1, 3, 5, 7, 9, 11)
        for call in (expected_genus, stated_permutation):
            with pytest.raises(DimensionUnsupported) as err:
                call(13)
            assert type(err.value) is DimensionUnsupported
            assert str(err.value) == "torus dimension must be <= 12, got 13"
        # 14 colors, each adding its own nonzero vector of (Z/2)^4: every
        # bicolored cycle has length 4, and no stated order exists
        cube = LabeledGem(ColoredGraph([[v ^ c for v in range(16)]
                                        for c in range(1, 15)]))
        with pytest.raises(DimensionUnsupported,
                           match="^torus dimension must be <= 12, got 13$"):
            audit_cycle_lengths(cube)

    def test_huge_dimensions_refused_at_once(self):
        calls = ["expected_genus(10**6)", "expected_genus(2**70)",
                 "stated_permutation(2**70)"]
        rows = limited_calls(calls)
        assert [row[:2] for row in rows] == [
            ("DimensionUnsupported",
             "torus dimension must be <= 12, got 1000000"),
            ("DimensionUnsupported",
             "torus dimension must be <= 12, got 1180591620717411303424"),
            ("DimensionUnsupported",
             "torus dimension must be <= 12, got 1180591620717411303424")]
        for call, (_, _, seconds) in zip(calls, rows):
            assert seconds < 0.5, call


class TestGenusValues:
    def test_dimension_four_matches_reduced_catalogue_gem(self, torus4, g2p):
        g = torus4.graph
        assert genus_for(g, stated_permutation(4)).genus == expected_genus(4)
        assert isomorphic(g, g2p.graph, allow_color_perm=True) is not None

    def test_dimension_five(self):
        gem = torus_gem(5)
        g = gem.graph
        assert g.num_vertices == 720
        assert audit_cycle_lengths(gem)
        assert genus_for(g, stated_permutation(5)).genus == 181

    def test_dimension_six(self):
        gem = torus_gem(6)
        assert gem.graph.num_vertices == 5040
        assert genus_for(gem.graph, stated_permutation(6)).genus \
            == expected_genus(6)

    def test_dimension_six_regular_genus(self):
        # the minimum over all 360 cyclic orders, within a wall-clock budget
        g = torus_gem(6).graph
        t0 = time.perf_counter()
        rep = regular_genus(g)
        dt = time.perf_counter() - t0
        assert rep.genus == expected_genus(6)
        assert rep.permutation == (0, 2, 4, 1, 6, 3, 5)
        assert dt < 3.0, f"took {dt:.2f}s, budget 3s"

    def test_dimension_seven(self):
        gem = torus_gem(7)
        assert gem.graph.num_vertices == 40320
        assert genus_for(gem.graph, stated_permutation(7)).genus \
            == expected_genus(7)
