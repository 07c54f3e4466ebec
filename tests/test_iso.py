"""Isomorphism and canonical signatures, pinned to a brute-force oracle."""

import pytest

import gemkit.iso
from gemkit import (BudgetExceeded, ColorCountMismatch, ColoredGraph,
                    canonical_signature, isomorphic, new_graph, order_two_gem,
                    pair_cycles, torus_gem)

import oracles
from conftest import make_rng, random_colored_graph, shuffled_copy
from oracles import (brute_force_color_map, brute_force_isomorphic,
                     unpruned_signature)


def two_switch(rng, graph, color=None):
    """graph with two edges of one color re-paired, drawn until some
    pair's cycle lengths change; the color is drawn too unless given."""
    census = pair_cycles(graph)
    nv = graph.num_vertices
    while True:
        c = rng.randrange(graph.n_colors) if color is None else color
        a, x = rng.sample(range(nv), 2)
        b, y = graph.involutions[c][a], graph.involutions[c][x]
        if x == b:
            continue
        invs = [list(col) for col in graph.involutions]
        col = invs[c]
        col[a], col[x], col[b], col[y] = x, a, y, b
        out = ColoredGraph(invs)
        if pair_cycles(out) != census:
            return out


def assert_valid_witness(g1, g2, witness):
    vmap, cmap = witness
    assert sorted(vmap) == list(range(g1.num_vertices))
    assert sorted(cmap) == list(range(g1.n_colors))
    for v in range(g1.num_vertices):
        for c in range(g1.n_colors):
            assert vmap[g1.partner(v, c)] == g2.partner(vmap[v], cmap[c])


class TestAgainstBruteForce:
    def test_relabeled_copies_found(self):
        rng = make_rng(101)
        for _ in range(30):
            v = rng.choice((4, 6, 8, 10))
            k = rng.choice((3, 4, 5))
            g = random_colored_graph(rng, v, k)
            h, _ = shuffled_copy(rng, g)
            witness = isomorphic(g, h)
            assert witness is not None
            assert_valid_witness(g, h, witness)
            assert brute_force_isomorphic(g, h)

    def test_independent_pairs_agree(self):
        rng = make_rng(102)
        for _ in range(30):
            v = rng.choice((4, 6, 8))
            k = rng.choice((3, 4))
            g = random_colored_graph(rng, v, k)
            h = random_colored_graph(rng, v, k)
            fast = isomorphic(g, h)
            slow = brute_force_isomorphic(g, h)
            assert (fast is not None) == slow
            if fast is not None:
                assert_valid_witness(g, h, fast)

    def test_color_permuted_copies(self):
        rng = make_rng(103)
        for _ in range(15):
            v = rng.choice((4, 6, 8))
            k = rng.choice((3, 4))
            g = random_colored_graph(rng, v, k)
            h, _ = shuffled_copy(rng, g)
            cperm = rng.sample(range(k), k)
            h = h.permute_colors(cperm)
            witness = isomorphic(g, h, allow_color_perm=True)
            assert witness is not None
            assert_valid_witness(g, h, witness)
            assert brute_force_isomorphic(g, h, allow_color_perm=True)
            fixed = isomorphic(g, h)
            assert (fixed is not None) \
                == brute_force_isomorphic(g, h)

    def test_color_count_mismatch(self):
        g = order_two_gem(4).graph
        h = order_two_gem(5).graph
        with pytest.raises(ColorCountMismatch):
            isomorphic(g, h)
        with pytest.raises(ColorCountMismatch):
            brute_force_isomorphic(g, h)

    def test_size_mismatch_is_just_false(self, s2xs1, t3):
        assert isomorphic(s2xs1.graph, t3.graph) is None
        assert not brute_force_isomorphic(
            new_graph(2, [[(0, 1)], [(0, 1)]]),
            new_graph(2, [[(0, 1), (2, 3)], [(1, 2), (3, 0)]]))


class TestDisconnected:
    def test_swapped_components(self):
        square = [[(0, 1), (2, 3)], [(1, 2), (3, 0)]]
        hexagon = [[(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 0)]]

        def union(first, second, shift):
            return new_graph(2, [
                fa + [(a + shift, b + shift) for a, b in sa]
                for fa, sa in zip(first, second)])

        g = union(square, hexagon, 4)
        h = union(hexagon, square, 6)
        witness = isomorphic(g, h)
        assert witness is not None
        assert_valid_witness(g, h, witness)
        assert canonical_signature(g) == canonical_signature(h)


class TestSignatureLaw:
    def catalogue(self, s2xs1, t3, g1p, g2p, cover1, reduced1, torus3, torus4):
        return {
            "order2x4": order_two_gem(4).graph,
            "order2x5": order_two_gem(5).graph,
            "s2xs1": s2xs1.graph,
            "t3": t3.graph,
            "g1prime": g1p.graph,
            "g2prime": g2p.graph,
            "cover1": cover1.graph,
            "reduced1": reduced1.graph,
            "torus3": torus3.graph,
            "torus4": torus4.graph,
        }

    def test_relabeling_invariance(self, s2xs1, t3, g1p, g2p, cover1,
                                   reduced1, torus3, torus4):
        rng = make_rng(104)
        graphs = self.catalogue(s2xs1, t3, g1p, g2p, cover1, reduced1,
                                torus3, torus4)
        for name, g in graphs.items():
            sig = canonical_signature(g)
            rounds = 50 if g.num_vertices <= 64 else 10
            for _ in range(rounds):
                h, _ = shuffled_copy(rng, g)
                assert canonical_signature(h) == sig, name

    def test_equality_iff_isomorphic(self, s2xs1, t3, g1p, g2p, cover1,
                                     reduced1, torus3, torus4):
        graphs = self.catalogue(s2xs1, t3, g1p, g2p, cover1, reduced1,
                                torus3, torus4)
        names = sorted(graphs)
        for a in names:
            for b in names:
                if a >= b:
                    continue
                ga, gb = graphs[a], graphs[b]
                if ga.n_colors != gb.n_colors:
                    continue
                same_sig = canonical_signature(ga) == canonical_signature(gb)
                witness = isomorphic(ga, gb)
                assert same_sig == (witness is not None), (a, b)
                if witness is not None:
                    assert_valid_witness(ga, gb, witness)

    def test_known_equalities(self, t3, torus3, g2p, torus4):
        # the permutation-built gems coincide with the catalogue ones
        assert canonical_signature(torus3.graph) == canonical_signature(t3.graph)
        assert canonical_signature(torus4.graph, allow_color_perm=True) \
            == canonical_signature(g2p.graph, allow_color_perm=True)

    def test_color_permutation_mode(self):
        rng = make_rng(105)
        for _ in range(10):
            g = random_colored_graph(rng, 8, 4)
            h, _ = shuffled_copy(rng, g)
            h = h.permute_colors(rng.sample(range(4), 4))
            assert canonical_signature(h, allow_color_perm=True) \
                == canonical_signature(g, allow_color_perm=True)


class TestWitnessReplay:
    @pytest.mark.parametrize("name", ["t4", "g2prime"])
    def test_bad_witnesses_fail(self, name, torus4, g2p):
        g = {"t4": torus4, "g2prime": g2p}[name].graph
        h, _ = shuffled_copy(make_rng(258), g)
        vmap, cmap = isomorphic(g, h)
        assert gemkit.iso._replays(g, h, vmap, cmap)
        swapped = list(vmap)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        repeated = list(vmap)
        repeated[1] = repeated[0]
        recolored = (cmap[1], cmap[0]) + cmap[2:]
        assert not gemkit.iso._replays(g, h, swapped, cmap)
        assert not gemkit.iso._replays(g, h, repeated, cmap)
        assert not gemkit.iso._replays(g, h, vmap, recolored)
        # h re-paired in its last color only: vmap breaks two edges of
        # that color and carries every other edge
        last = g.n_colors - 1
        switched = two_switch(make_rng(259), h, color=cmap[last])
        assert all(switched.involutions[cmap[c]] == h.involutions[cmap[c]]
                   for c in range(last))
        assert not gemkit.iso._replays(g, switched, vmap, cmap)


def disjoint_union(*graphs):
    """The graphs side by side, vertex ids shifted in the order given."""
    pairs_per_color = [[] for _ in range(graphs[0].n_colors)]
    shift = 0
    for g in graphs:
        for c, col in enumerate(g.involutions):
            pairs_per_color[c] += [(v + shift, w + shift)
                                   for v, w in enumerate(col) if v < w]
        shift += g.num_vertices
    return new_graph(graphs[0].n_colors, pairs_per_color)


# two 3-colored 4-vertex components, not isomorphic even up to colors:
# K4 with a perfect matching per color, and a square with color 2 doubling 0
K4 = new_graph(3, [[(0, 1), (2, 3)], [(1, 2), (3, 0)], [(0, 2), (1, 3)]])
DOUBLED_SQUARE = new_graph(3, [[(0, 1), (2, 3)], [(1, 2), (3, 0)],
                               [(0, 1), (2, 3)]])


class TestFastPathAgainstOracle:
    """Pruned canonical_signature and anchored isomorphic vs the oracles."""

    def variants(self, rng, g):
        """g, a shuffled copy, and a shuffled and color-permuted copy."""
        shuffled, _ = shuffled_copy(rng, g)
        recolored, _ = shuffled_copy(rng, g)
        recolored = recolored.permute_colors(rng.sample(range(g.n_colors),
                                                        g.n_colors))
        return [g, shuffled, recolored]

    def random_graphs(self, rng):
        """Random graphs for k = 2..6, some of them disconnected."""
        out = []
        for k in range(2, 7):
            sizes = (4, 6, 8) if k == 6 else (4, 6, 8, 10, 12)
            for _ in range(8):
                out.append(random_colored_graph(rng, rng.choice(sizes), k))
            parts = [random_colored_graph(rng, rng.choice((2, 4, 6)), k)
                     for _ in range(rng.choice((2, 3)))]
            parts.append(parts[0])  # a repeated component
            out.append(disjoint_union(*parts))
        return out

    def test_random_signatures(self):
        rng = make_rng(106)
        graphs = self.random_graphs(rng)
        assert sum(g.components().count > 1 for g in graphs) >= 5
        for g in graphs:
            for h in self.variants(rng, g):
                for perm in (False, True):
                    assert canonical_signature(h, allow_color_perm=perm) \
                        == unpruned_signature(h, allow_color_perm=perm)

    def test_catalogue_signatures(self, s2xs1, t3, g1p, g2p, cover1,
                                  reduced1, torus3, torus4):
        rng = make_rng(107)
        graphs = TestSignatureLaw().catalogue(s2xs1, t3, g1p, g2p, cover1,
                                              reduced1, torus3, torus4)
        for name, g in graphs.items():
            variants = self.variants(rng, g)
            for h in variants:
                assert canonical_signature(h) == unpruned_signature(h), name
            # the unpruned color-permuted search costs seconds at 120
            # vertices, so it runs once, on the shuffled recolored copy
            sig = unpruned_signature(variants[-1], allow_color_perm=True)
            for h in variants:
                assert canonical_signature(h, allow_color_perm=True) \
                    == sig, name

    def test_color_perm_ties_across_maps(self):
        # recolored copies tie across color maps; a union of two recolored
        # copies of one component ties in its whole sorted code list
        rng = make_rng(111)
        for k in range(2, 7):
            for _ in range(6):
                g = random_colored_graph(rng, rng.choice((2, 4, 6)), k)
                copies = [self.variants(rng, g)[-1] for _ in range(2)]
                for h in copies + [disjoint_union(*copies),
                                   disjoint_union(g, copies[0], g)]:
                    assert canonical_signature(h, allow_color_perm=True) \
                        == unpruned_signature(h, allow_color_perm=True)

    def test_color_perm_several_components(self, monkeypatch, t3, g1p,
                                           reduced1):
        # the least code found so far bounds each map's least-size
        # components; a map whose least-size codes all exceed it is skipped
        real, skipped = gemkit.iso._graph_code, []

        def counted(*args):
            codes = real(*args)
            skipped.append(codes is None)
            return codes

        monkeypatch.setattr(gemkit.iso, "_graph_code", counted)
        rng = make_rng(118)
        t3, g1p, reduced1 = t3.graph, g1p.graph, reduced1.graph
        graphs = [disjoint_union(t3, t3.permute_colors((3, 2, 1, 0))),
                  disjoint_union(g1p, g1p.permute_colors(
                      rng.sample(range(5), 5))),
                  disjoint_union(reduced1, g1p)]
        for k in range(3, 6):
            for _ in range(4):
                parts = [random_colored_graph(rng, rng.choice((2, 4, 6)), k)
                         for _ in range(rng.choice((2, 3)))]
                parts.append(parts[0].permute_colors(rng.sample(range(k), k)))
                graphs.append(disjoint_union(*parts))
        for g in graphs:
            for h in (g, self.variants(rng, g)[-1]):
                del skipped[:]
                assert canonical_signature(h, allow_color_perm=True) \
                    == unpruned_signature(h, allow_color_perm=True)
                if h.components().count > 1 and h.num_vertices >= 48:
                    assert any(skipped)

    @pytest.mark.parametrize("parts", [1, 2])
    def test_color_automorphisms_skip_maps(self, monkeypatch, parts):
        # every color map of the 2-vertex gem ties, so the automorphisms
        # found in a few walks cover all 5! maps
        g = disjoint_union(*[order_two_gem(5).graph] * parts)
        real, walks = gemkit.iso._graph_code, []

        def counted(*args):
            walks.append(args[2])
            return real(*args)

        monkeypatch.setattr(gemkit.iso, "_graph_code", counted)
        assert canonical_signature(g, allow_color_perm=True) \
            == unpruned_signature(g, allow_color_perm=True)
        assert len(walks) <= 8

    def check_pair(self, g, h, perm):
        found = isomorphic(g, h, allow_color_perm=perm)
        first = brute_force_color_map(g, h, allow_color_perm=perm)
        assert (found is None) == (first is None)
        if found is not None:
            assert_valid_witness(g, h, found)
            assert found[1] == first

    def test_isomorphic_random_pairs(self):
        rng = make_rng(108)
        for _ in range(60):
            k = rng.choice((2, 3, 4))
            v = rng.choice((4, 6, 8))
            g = random_colored_graph(rng, v, k)
            for h in self.variants(rng, g) + [random_colored_graph(rng, v, k)]:
                for perm in (False, True):
                    self.check_pair(g, h, perm)

    def test_isomorphic_disconnected(self):
        rng = make_rng(109)
        for _ in range(20):
            k = rng.choice((2, 3))
            parts = [random_colored_graph(rng, rng.choice((2, 4)), k)
                     for _ in range(3)]
            g = disjoint_union(*parts)
            others = [disjoint_union(*parts[::-1]),
                      disjoint_union(parts[0], parts[0], parts[1])]
            for h in self.variants(rng, g) + others:
                for perm in (False, True):
                    self.check_pair(g, h, perm)

    def test_equal_size_components_in_swapped_order(self):
        rng = make_rng(110)
        assert isomorphic(K4, DOUBLED_SQUARE, allow_color_perm=True) is None
        g = disjoint_union(K4, DOUBLED_SQUARE)
        h = disjoint_union(DOUBLED_SQUARE, K4)
        recolored = disjoint_union(DOUBLED_SQUARE.permute_colors((2, 0, 1)),
                                   K4.permute_colors((2, 0, 1)))
        for other in (h, shuffled_copy(rng, h)[0], recolored):
            for perm in (False, True):
                self.check_pair(g, other, perm)
                assert canonical_signature(other, allow_color_perm=perm) \
                    == unpruned_signature(other, allow_color_perm=perm)
        assert isomorphic(g, h) is not None
        assert isomorphic(g, recolored) is None
        assert isomorphic(g, recolored, allow_color_perm=True) is not None
        assert canonical_signature(g) == canonical_signature(h)
        for twice in (disjoint_union(K4, K4),
                      disjoint_union(DOUBLED_SQUARE, DOUBLED_SQUARE)):
            for perm in (False, True):
                self.check_pair(g, twice, perm)
                assert isomorphic(g, twice, allow_color_perm=perm) is None


class TestCodeFromAgainstOracle:
    """The compare-only walk against the oracle's full walk, root by root."""

    def check(self, g, roots, rng, verdicts):
        order_of_colors = rng.sample(range(g.n_colors), g.n_colors)
        cols = [g.involutions[c] for c in order_of_colors]
        seen = [None] * g.num_vertices
        full = {}
        for root in set(roots) | set(rng.sample(range(g.num_vertices),
                                                min(8, g.num_vertices))):
            full[root] = oracles._code_from(g, root, order_of_colors)
        for root in roots:
            code, order = gemkit.iso._code_from(root, cols, seen)
            assert seen == [None] * g.num_vertices
            assert code == full[root] and order[0] == root
            assert self.replay(order, cols) == code
            # best from other roots of a component of root's size, and
            # root's own code for a tie that holds
            bests = [list(other) for other in full.values()
                     if len(other) == len(code)]
            bests = rng.sample(bests, min(3, len(bests))) + [list(code)]
            for best in bests:
                want = oracles._code_from(g, root, order_of_colors, best)
                for exact in (False, True):
                    got, order = gemkit.iso._code_from(root, cols, seen,
                                                       best, exact)
                    assert seen == [None] * g.num_vertices
                    if exact:
                        assert got == (best if full[root] == best else None)
                    else:
                        assert got == want
                    assert (got is None) == (order is None)
                    if got is not None:
                        assert self.replay(order, cols) == got
                verdicts.add((full[root] > best) - (full[root] < best))

    @staticmethod
    def replay(order, cols):
        """The code that a discovery order numbers."""
        new_id = {v: i for i, v in enumerate(order)}
        return [new_id[col[v]] for v in order for col in cols]

    def test_random_graphs(self):
        rng = make_rng(112)
        verdicts = set()
        for k in range(2, 8):
            for _ in range(6):
                g = random_colored_graph(rng, rng.choice((2, 4, 6, 8, 12)), k)
                self.check(g, range(g.num_vertices), rng, verdicts)
            union = disjoint_union(*[random_colored_graph(rng, 4, k)
                                     for _ in range(3)])
            self.check(union, range(union.num_vertices), rng, verdicts)
        assert verdicts == {-1, 0, 1}

    def test_catalogue_and_shuffled_copies(self, s2xs1, t3, g1p, g2p, cover1,
                                           reduced1, torus3, torus4):
        rng = make_rng(113)
        verdicts = set()
        graphs = TestSignatureLaw().catalogue(s2xs1, t3, g1p, g2p, cover1,
                                              reduced1, torus3, torus4)
        for g in graphs.values():
            for h in (g, shuffled_copy(rng, g)[0]):
                roots = rng.sample(range(h.num_vertices),
                                   min(24, h.num_vertices))
                self.check(h, roots, rng, verdicts)
        assert verdicts == {-1, 0, 1}

    def test_two_switched_t5(self, switched_t5):
        rng = make_rng(114)
        verdicts = set()
        self.check(switched_t5, rng.sample(range(720), 12), rng, verdicts)
        assert verdicts == {-1, 0, 1}


@pytest.fixture(scope="module")
def switched_t5():
    """t5 with two edges of one color re-paired: few automorphisms, so a
    canonical search walks most of its 720 roots."""
    return two_switch(make_rng(115), torus_gem(5).graph)


class TestLowSymmetry:
    def test_signature_against_unpruned(self, switched_t5):
        rng = make_rng(116)
        sig = canonical_signature(switched_t5)
        assert sig == unpruned_signature(switched_t5)
        for _ in range(3):
            assert canonical_signature(shuffled_copy(rng, switched_t5)[0]) \
                == sig
        assert sig != canonical_signature(torus_gem(5).graph)

    def test_isomorphic_relabellings(self, switched_t5):
        rng = make_rng(117)
        g, h = (shuffled_copy(rng, switched_t5)[0] for _ in range(2))
        witness = isomorphic(g, h)
        assert witness is not None
        assert_valid_witness(g, h, witness)
        assert isomorphic(g, torus_gem(5).graph) is None


class TestEqualPairCycleTables:
    """Non-isomorphic pairs that the pair-cycle filter lets through."""

    def test_cube_against_two_tetrahedra(self):
        # color c joins v and v xor 2^c; every color pair gives two 4-cycles
        cube = ColoredGraph([[v ^ 1 << c for v in range(8)] for c in range(3)])
        two_k4 = disjoint_union(K4, K4)
        assert pair_cycles(cube) == pair_cycles(two_k4)
        for perm in (False, True):
            assert isomorphic(cube, two_k4, allow_color_perm=perm) is None
            assert not brute_force_isomorphic(cube, two_k4, perm)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_connected_pairs(self, seed):
        rng = make_rng(seed)
        for v in (8, 10, 12):
            while True:
                g = random_colored_graph(rng, v, 3)
                h = random_colored_graph(rng, v, 3)
                if (g.is_connected() and h.is_connected()
                        and pair_cycles(g) == pair_cycles(h)
                        and not brute_force_isomorphic(g, h)):
                    break
            assert isomorphic(g, h) is None
            fast = isomorphic(g, h, allow_color_perm=True)
            assert (fast is not None) \
                == brute_force_isomorphic(g, h, allow_color_perm=True)
            if fast is not None:
                assert_valid_witness(g, h, fast)


# two vertices joined by all 9 colors: 9! color maps, over the budget
NINE_COLORS = new_graph(9, [[(0, 1)]] * 9)


class TestColorMapBudget:
    def test_nine_colors_refused_before_any_walk(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a color map was tried")

        for name in ("_code_from", "_tables_match", "pair_cycles"):
            monkeypatch.setattr(gemkit.iso, name, refused)
        with pytest.raises(BudgetExceeded, match="9! color maps"):
            canonical_signature(NINE_COLORS, allow_color_perm=True)
        with pytest.raises(BudgetExceeded, match="9! color maps"):
            isomorphic(NINE_COLORS, NINE_COLORS, allow_color_perm=True)

    def test_color_maps_are_filtered_as_they_are_tried(self, monkeypatch):
        # the identity answers, so no other map's tables are compared
        tried = []
        tables_match = gemkit.iso._tables_match

        def counted(table1, table2, cmap):
            tried.append(cmap)
            return tables_match(table1, table2, cmap)

        monkeypatch.setattr(gemkit.iso, "_tables_match", counted)
        eight = new_graph(8, [[(0, 1)]] * 8)
        assert isomorphic(eight, eight, allow_color_perm=True) \
            == ((0, 1), tuple(range(8)))
        assert tried == [tuple(range(8))]

    def test_fixed_colors_and_eight_colors_answer(self):
        assert isomorphic(NINE_COLORS, NINE_COLORS) is not None
        eight = new_graph(8, [[(0, 1)]] * 8)
        assert canonical_signature(eight, allow_color_perm=True) \
            == canonical_signature(eight)
        assert isomorphic(eight, eight, allow_color_perm=True) is not None
