"""Genus machinery: cyclic orders, cycle censuses, chi and genus reports."""

from enum import IntEnum
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from gemkit import (BudgetExceeded, ColorOutOfRange, DimensionUnsupported,
                    GemError, GenusReport, PermutationColorMismatch,
                    all_genus_reports, bicolored_cycles,
                    check_cyclic_permutation, cyclic_permutations, genus_for,
                    genus_lower_bound, invariants, is_weak_semi_simple,
                    new_graph, order_two_gem, pair_cycles, product_gem,
                    reduced_cover, regular_genus, s2xs1_standard,
                    small_cover_gem, weak_semi_simple_triples)
from gemkit.core import euler_characteristic_from, face_counts_from
from gemkit.invariants import weak_semi_simple_from

from conftest import make_rng, random_colored_graph, shuffled_copy
from oracles import flood_fill_count, walked_cycle_lengths


class TestCyclicPermutations:
    def test_counts(self):
        assert len(cyclic_permutations(3)) == 1
        assert len(cyclic_permutations(4)) == 3
        assert len(cyclic_permutations(5)) == 12
        assert len(cyclic_permutations(6)) == 60

    def test_two_colors_have_one_order(self):
        assert cyclic_permutations(2) == [(0, 1)]

    @pytest.mark.parametrize("n_colors", (0, 1, -3, False, True))
    def test_fewer_than_two_colors_refused(self, n_colors):
        with pytest.raises(ColorOutOfRange) as err:
            cyclic_permutations(n_colors)
        assert type(err.value) is ColorOutOfRange
        assert str(err.value) == f"need at least 2 colors, got {n_colors}"

    def test_int_enum_is_an_int(self):
        class Count(IntEnum):
            TWO = 2
            FIVE = 5
        assert cyclic_permutations(Count.TWO) == [(0, 1)]
        assert cyclic_permutations(Count.FIVE) == cyclic_permutations(5)

    def test_non_int_color_count_refused(self):
        with pytest.raises(ColorOutOfRange) as err:
            cyclic_permutations(4.0)
        assert type(err.value) is ColorOutOfRange
        assert str(err.value) == "number of colors must be an int, got 4.0"

    def test_canonical_form(self):
        perms = cyclic_permutations(5)
        assert len(set(perms)) == 12
        for p in perms:
            assert p[0] == 0
            assert p[1] < p[-1]
            assert sorted(p) == [0, 1, 2, 3, 4]
        assert perms == sorted(perms)

    def test_rotations_and_reflections_collapse(self):
        # every permutation of 5 colors normalizes to one of the 12
        canon = set(cyclic_permutations(5))
        import itertools
        for p in itertools.permutations(range(5)):
            ring = p[p.index(0):] + p[:p.index(0)]
            if ring[1] > ring[-1]:
                ring = (ring[0],) + tuple(reversed(ring[1:]))
            assert ring in canon

    def test_check_rejects_non_permutations(self, s2xs1):
        g = s2xs1.graph
        with pytest.raises(PermutationColorMismatch):
            check_cyclic_permutation(g, (0, 1, 2))
        with pytest.raises(PermutationColorMismatch):
            check_cyclic_permutation(g, (0, 1, 2, 2))
        with pytest.raises(PermutationColorMismatch):
            check_cyclic_permutation(g, (0, 1, 2, 4))
        assert check_cyclic_permutation(g, [3, 1, 2, 0]) == (3, 1, 2, 0)


class TestBicoloredCycles:
    def test_double_edge(self):
        g = new_graph(2, [[(0, 1)], [(0, 1)]])
        assert bicolored_cycles(g, 0, 1) == [2]

    def test_square(self):
        g = new_graph(2, [[(0, 1), (2, 3)], [(1, 2), (3, 0)]])
        assert bicolored_cycles(g, 0, 1) == [4]
        assert bicolored_cycles(g, 1, 0) == [4]

    def test_lengths_cover_all_vertices(self, t3):
        g = t3.graph
        for i in range(4):
            for j in range(i + 1, 4):
                lengths = bicolored_cycles(g, i, j)
                assert sum(lengths) == g.num_vertices
                assert lengths == sorted(lengths, reverse=True)
                assert all(n % 2 == 0 for n in lengths)

    def test_same_color_rejected(self, t3):
        with pytest.raises(ColorOutOfRange):
            bicolored_cycles(t3.graph, 2, 2)

    def test_color_out_of_range_rejected(self, s2xs1):
        # a negative color must not index the involutions from the end
        for pair in ((0, 4), (0, 7), (7, 0), (0, -1), (-1, 3)):
            with pytest.raises(ColorOutOfRange):
                bicolored_cycles(s2xs1.graph, *pair)

    def test_matches_walked_cycles(self, s2xs1, t3, g1p, cover1, torus4):
        rng = make_rng(20261019)
        graphs = [random_colored_graph(rng, rng.choice((2, 4, 6, 10, 24)),
                                       rng.randint(2, 6))
                  for _ in range(25)]
        graphs += [gem.graph for gem in (s2xs1, t3, g1p, cover1, torus4)]
        graphs += [shuffled_copy(rng, g)[0] for g in graphs]
        for g in graphs:
            table = pair_cycles(g)
            assert list(table) == list(combinations(range(g.n_colors), 2))
            for (i, j), lengths in table.items():
                assert lengths == bicolored_cycles(g, i, j) \
                    == bicolored_cycles(g, j, i) == walked_cycle_lengths(g, i, j)

    def test_torus3_census(self, t3):
        g = t3.graph
        for pair in ((2, 3), (1, 2), (0, 1), (0, 3)):
            assert bicolored_cycles(g, *pair) == [6, 6, 6, 6]
        for pair in ((0, 2), (1, 3)):
            assert bicolored_cycles(g, *pair) == [4, 4, 4, 4, 4, 4]


class TestGenus:
    def test_report_is_exact(self, s2xs1):
        rep = genus_for(s2xs1.graph, (0, 1, 2, 3))
        assert isinstance(rep.chi, Fraction)
        assert isinstance(rep.genus, Fraction)
        assert rep.permutation == (0, 1, 2, 3)
        assert len(rep.pair_counts) == 4

    def test_pair_counts_are_consecutive_cycle_counts(self, t3):
        g = t3.graph
        rep = genus_for(g, (0, 2, 1, 3))
        expected = tuple(
            len(bicolored_cycles(g, *pair))
            for pair in ((0, 2), (2, 1), (1, 3), (3, 0)))
        assert rep.pair_counts == expected

    def test_order_two_gem_genus_zero(self):
        for k in (4, 5):
            rep = regular_genus(order_two_gem(k).graph)
            assert rep.genus == 0
            assert rep.chi == 2

    def test_s2xs1_regular_genus_one(self, s2xs1):
        rep = regular_genus(s2xs1.graph)
        assert rep.genus == 1
        assert rep.genus_int() == 1

    def test_t3_regular_genus_three(self, t3):
        assert regular_genus(t3.graph).genus == 3

    def test_all_reports_cover_all_orders(self, t3):
        reports = all_genus_reports(t3.graph)
        assert [r.permutation for r in reports] == cyclic_permutations(4)
        best = regular_genus(t3.graph)
        assert best.genus == min(r.genus for r in reports)

    def test_two_colors_square_genus_zero(self):
        # colors 0 and 1 form one 4-cycle: a circle, embedded in the sphere
        g = new_graph(2, [[(0, 1), (2, 3)], [(1, 2), (3, 0)]])
        rep = regular_genus(g)
        assert rep.permutation == (0, 1)
        assert rep.pair_counts == (1, 1)
        assert rep.genus == 0
        assert all_genus_reports(g) == [rep]

    def test_genus_int_rejects_halves(self):
        rep = genus_for(order_two_gem(4).graph, (0, 1, 2, 3))
        assert rep.genus_int() == 0
        # one-vertex projective plane: every bicolored pair is one 4-cycle
        g = new_graph(3, [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]])
        halfrep = genus_for(g, (0, 1, 2))
        assert halfrep.genus == Fraction(1, 2)
        with pytest.raises(ValueError):
            halfrep.genus_int()


class TestOrderBudget:
    """The genus search refuses more than MAX_CYCLIC_ORDERS orders before it
    walks a pair or scores an order."""

    def test_boundary(self, monkeypatch):
        g = order_two_gem(5).graph
        monkeypatch.setattr(invariants, "MAX_CYCLIC_ORDERS", 12)
        assert len(cyclic_permutations(5)) == 12
        assert len(all_genus_reports(g)) == 12
        assert regular_genus(g).genus == 0
        monkeypatch.setattr(invariants, "MAX_CYCLIC_ORDERS", 11)
        for search in (cyclic_permutations, all_genus_reports, regular_genus):
            with pytest.raises(BudgetExceeded, match=r"^4!/2 cyclic orders "
                               r"exceed the budget of 11$"):
                search(5 if search is cyclic_permutations else g)
        # a single order needs no search
        assert genus_for(g, (0, 1, 2, 3, 4)).genus == 0

    def test_ten_colors_are_admitted(self):
        assert invariants.MAX_CYCLIC_ORDERS == 181440
        assert len(cyclic_permutations(10)) == 181440

    def test_eleven_colors_are_refused_unscored(self, monkeypatch):
        g = order_two_gem(11).graph

        def forbidden(*args):
            raise AssertionError("the refused search walked or scored")

        monkeypatch.setattr(invariants, "_report", forbidden)
        monkeypatch.setattr(invariants, "pair_cycles", forbidden)
        for search in (all_genus_reports, regular_genus):
            with pytest.raises(BudgetExceeded, match=r"^10!/2 cyclic orders "
                               r"exceed the budget of 181440$"):
                search(g)


def canonical_orders(n_colors):
    """Every cyclic order normalized to start at 0 with ring[1] < ring[-1]."""
    out = set()
    for p in permutations(range(n_colors)):
        ring = p[p.index(0):] + p[:p.index(0)]
        if ring[1] > ring[-1]:
            ring = (ring[0],) + tuple(reversed(ring[1:]))
        out.add(ring)
    return sorted(out)


def per_order_reports(graph):
    """Oracle: each order scored from flood-filled residue counts of its
    consecutive pairs."""
    k = graph.n_colors
    out = []
    for perm in canonical_orders(k):
        counts = tuple(flood_fill_count(graph, (perm[i], perm[(i + 1) % k]))
                       for i in range(k))
        chi = Fraction(sum(counts)) + Fraction((2 - k) * graph.num_vertices, 2)
        out.append(GenusReport(perm, counts, chi, 1 - chi / 2))
    return out


def assert_search_matches_oracle(graph):
    wanted = per_order_reports(graph)
    assert all_genus_reports(graph) == wanted
    assert regular_genus(graph) == min(
        wanted, key=lambda r: (r.genus, r.permutation))


class TestGenusSearchAgainstOracle:
    def test_random_graphs(self):
        rng = make_rng(20261018)
        for _ in range(30):
            k = rng.randint(2, 6)
            g = random_colored_graph(rng, rng.choice((2, 4, 8, 12, 16)), k)
            assert_search_matches_oracle(g)
            assert_search_matches_oracle(shuffled_copy(rng, g)[0])

    def test_catalogue(self, t3, torus4, g1p, g2p):
        rng = make_rng(7)
        gems = [t3, torus4, g1p, g2p] + [reduced_cover(i).gem for i in range(1, 8)]
        for gem in gems:
            assert_search_matches_oracle(gem.graph)
            assert_search_matches_oracle(shuffled_copy(rng, gem.graph)[0])


class TestLowerBound:
    def test_values(self):
        assert genus_lower_bound(0, 2) == 6
        assert genus_lower_bound(0, 4) == 16
        assert genus_lower_bound(1, 2) == 8
        assert genus_lower_bound(2, 0) == 0

    def test_negative_rank_refused(self):
        with pytest.raises(GemError, match="must be >= 0, got -1"):
            genus_lower_bound(0, -1)

    @pytest.mark.parametrize("chi, rank, message", [
        (0, 2.5, "rank of the fundamental group must be an int, got 2.5"),
        (0.5, 2, "Euler characteristic must be an int, got 0.5"),
    ])
    def test_non_int_refused(self, chi, rank, message):
        with pytest.raises(GemError) as err:
            genus_lower_bound(chi, rank)
        assert type(err.value) is GemError
        assert str(err.value) == message

    def test_bool_is_an_int(self):
        assert genus_lower_bound(True, 2) == 8


class TestWeakSemiSimple:
    def test_needs_five_colors(self, t3):
        with pytest.raises(DimensionUnsupported):
            is_weak_semi_simple(t3.graph, (0, 1, 2, 3), 2)
        with pytest.raises(DimensionUnsupported):
            weak_semi_simple_triples(t3.graph, (0, 1, 2, 3))

    def test_triples_are_stride_two(self, g1p):
        g = g1p.graph
        perm = (0, 2, 4, 1, 3)
        triples = weak_semi_simple_triples(g, perm)
        assert triples == tuple(
            g.residue_count((perm[i], perm[(i + 2) % 5], perm[(i + 4) % 5]))
            for i in range(5))

    def test_g1_prime(self, g1p):
        assert weak_semi_simple_triples(g1p.graph, (0, 2, 4, 1, 3)) \
            == (3, 3, 3, 3, 3)

    def test_negative_rank_refused(self, g1p):
        # the triples (3, 3, 3, 3, 3) fail rank + 1 for every rank but 2
        with pytest.raises(GemError, match="must be >= 0, got -1"):
            is_weak_semi_simple(g1p.graph, (0, 2, 4, 1, 3), -1)
        with pytest.raises(GemError, match="must be >= 0, got -1"):
            weak_semi_simple_from((0, 0, 0, 0, 0), -1)
        assert is_weak_semi_simple(g1p.graph, (0, 2, 4, 1, 3), 2)

    def test_non_int_rank_refused(self, g1p):
        # rank 1.5 would otherwise answer False, as if it were a rank
        for check in (lambda: is_weak_semi_simple(g1p.graph, (0, 2, 4, 1, 3), 1.5),
                      lambda: weak_semi_simple_from((3, 3, 3, 3, 3), 1.5)):
            with pytest.raises(GemError) as err:
                check()
            assert type(err.value) is GemError
            assert str(err.value) \
                == "rank of the fundamental group must be an int, got 1.5"

    def test_g2_prime(self, g2p):
        assert weak_semi_simple_triples(g2p.graph, (0, 2, 4, 1, 3)) \
            == (5, 5, 5, 5, 5)
        assert is_weak_semi_simple(g2p.graph, (0, 2, 4, 1, 3), 4)
        assert not is_weak_semi_simple(g2p.graph, (0, 2, 4, 1, 3), 2)

    def test_reduced_cover(self, reduced1):
        assert is_weak_semi_simple(reduced1.graph, (0, 3, 2, 1, 4), 2)


# the 5-colour crystallizations and the rank m of each one's fundamental
# group: S2xS1xS1 (g1prime) and the small covers have m = 2, T4 has m = 4
CRYSTALLIZATIONS = ("g1prime", "g2prime", "t4", "g2prime shuffled",
                    *(f"cover {i}" for i in range(1, 8)))


@pytest.fixture(scope="module")
def crystallizations(g1p, g2p, torus4):
    rng = make_rng(2017)
    shuffled = shuffled_copy(rng, g2p.graph)[0].permute_colors([2, 0, 4, 1, 3])
    found = {"g1prime": (g1p.graph, 2), "g2prime": (g2p.graph, 4),
             "t4": (torus4.graph, 4), "g2prime shuffled": (shuffled, 4)}
    for i in range(1, 8):
        found[f"cover {i}"] = (reduced_cover(i).gem.graph, 2)
    return found


def triples_and_chi(graph):
    """({(i, j, k): g_ijk}, chi), both read from one residue_counts() walk."""
    counts = graph.residue_counts()
    triples = {t: counts[t] for t in combinations(range(5), 3)}
    return triples, euler_characteristic_from(face_counts_from(counts, 5))


def vertex_identity_holds(graph):
    """(a): V/2 = sum of all ten g_ijk + 3 chi - 15."""
    triples, chi = triples_and_chi(graph)
    return graph.num_vertices // 2 == sum(triples.values()) + 3 * chi - 15


def genus_identity_orders(graph):
    """The orders eps of all_genus_reports at which (b) holds:
    rho_eps = sum over i of g_{eps_i eps_i+2 eps_i+4} + 2 chi - 9."""
    triples, chi = triples_and_chi(graph)
    return [r.permutation for r in all_genus_reports(graph)
            if r.genus == sum(
                triples[tuple(sorted(r.permutation[(i + s) % 5]
                                     for s in (0, 2, 4)))]
                for i in range(5)) + 2 * chi - 9]


class TestTripleIdentities:
    """The paper's two triple-residue identities on 5-colour
    crystallizations, and weak semi-simplicity as the genus meeting its
    lower bound; g_ijk is the residue count on colours {i, j, k}."""

    @pytest.mark.parametrize("name", CRYSTALLIZATIONS)
    def test_vertex_identity(self, crystallizations, name):
        graph, _ = crystallizations[name]
        assert graph.is_crystallization()
        assert vertex_identity_holds(graph)

    @pytest.mark.parametrize("name", CRYSTALLIZATIONS)
    def test_genus_identity_at_every_order(self, crystallizations, name):
        graph, _ = crystallizations[name]
        assert genus_identity_orders(graph) == cyclic_permutations(5)
        assert len(cyclic_permutations(5)) == 12

    @pytest.mark.parametrize("name", CRYSTALLIZATIONS)
    def test_weak_semi_simple_exactly_at_the_bound(self, crystallizations,
                                                   name):
        graph, rank = crystallizations[name]
        bound = genus_lower_bound(graph.euler_characteristic(), rank)
        met = [genus_for(graph, p).genus == bound
               for p in cyclic_permutations(5)]
        assert met == [is_weak_semi_simple(graph, p, rank)
                       for p in cyclic_permutations(5)]
        # the regular genus is the bound: 6, 16 and 8
        assert any(met)
        assert regular_genus(graph).genus == bound

    @pytest.mark.parametrize("gem", [
        lambda: small_cover_gem(1), lambda: product_gem(s2xs1_standard())],
        ids=["cover gem", "s2xs1 product"])
    def test_both_fail_off_crystallizations(self, gem):
        graph = gem().graph
        assert not graph.is_crystallization()
        assert not vertex_identity_holds(graph)
        assert genus_identity_orders(graph) == []
