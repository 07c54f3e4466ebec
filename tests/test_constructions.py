"""Catalogue graphs: the two standard bases, the circle product, reductions."""

import hashlib
from fractions import Fraction

import pytest

from gemkit import (AuditFailed, BaseNotCrystallization, BudgetExceeded,
                    ColorOutOfRange, LabeledGem, bicolored_cycles, g1_prime, g1_prime_result,
                    g2_prime, g2_prime_result, genus_for, isomorphic,
                    new_graph, order_two_gem, parse_gem, product_gem,
                    regular_genus, render_gem, run_script, s2xs1_standard,
                    t3_standard)
from gemkit.constructions import (PRODUCT_BLOCKS, _audit, _data_text,
                                  parse_move_script)
from gemkit.core import _MAX_WALK_COLORS

from conftest import limited_calls, make_rng, shuffled_copy
from oracles import (BLOCK_COLOR_MAP, BLOCK_MATCHINGS, paired_order_two_gem,
                     paired_product_gem)

# sha256 of render_gem for each catalogue product and reduction: any change
# to a product's vertex order, labels or edges shows here
RENDER_SHA256 = {
    "s2xs1 product": "f04451798b8a57fa2908a8a4e8152710e1573c766ab3770615cb055e700aef2c",
    "t3 product": "dc1dd4d54ca910d91fcca636bf9600e5e68236379f942f52df3b3ef44af3d703",
    "order-two product": "0bf9bbf3f725eceb3960dea420088dc8a2a8633b1b945a7b9b185153eeffb14e",
    "g1prime": "8c01c340863be6dd17c014d02191a7562a43ddfbe57ae8a5b2fc77e665d10ba3",
    "g2prime": "6a18fa36bfbd6ebcb0fedaea6150e3c4e6b32eeb71f1e8c5ed941ad255cc692d",
}


class TestAudit:
    def test_each_clause_refuses(self, s2xs1):
        assert _audit(s2xs1, "s2xs1", 8, ((((0, 1), (2, 3)), [6, 2]),)) \
            is s2xs1
        with pytest.raises(AuditFailed, match="^s2xs1: vertex count$"):
            _audit(s2xs1, "s2xs1", 10)
        with pytest.raises(AuditFailed, match="must be a crystallization"):
            _audit(product_gem(s2xs1), "product", 64)
        with pytest.raises(AuditFailed, match=r"pair \(0, 2\) has cycle "
                           r"lengths \[4, 4\], expected \[8\]"):
            _audit(s2xs1, "s2xs1", 8, ((((0, 1),), [6, 2]),
                                       (((0, 2),), [8])))


class TestOrderTwo:
    def test_shape(self):
        gem = order_two_gem()
        assert gem.graph.num_vertices == 2
        assert gem.graph.n_colors == 4
        assert sorted(gem.labels) == ["p", "q"]
        assert order_two_gem(5).graph.n_colors == 5

    def test_non_int_color_count_refused(self):
        with pytest.raises(ColorOutOfRange) as err:
            order_two_gem(4.0)
        assert type(err.value) is ColorOutOfRange
        assert str(err.value) == "number of colors must be an int, got 4.0"

    def test_is_sphere_like(self):
        g = order_two_gem(5).graph
        assert g.is_crystallization()
        assert g.is_bipartite()
        assert regular_genus(g).genus == 0

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_paired_builder(self, k):
        gem, paired = order_two_gem(k), paired_order_two_gem(k)
        assert gem.graph == paired.graph
        assert gem.labels == paired.labels

    # sha256 of render_gem(order_two_gem(k)), k = 2..6
    RENDER_SHA256 = {
        2: "271285d6ec40a0d683daa3779adcd1153e1e7727a2e608cd8205114a8a07407e",
        3: "c9389fe566190dedc42133d36b7d201715713e0c727992f11437c69582360512",
        4: "04681d4bc6aedf7aa64be99180a6d9d561d983df4abb0ef7862d6665af955494",
        5: "6fd184b4c95bc571611012801166ac05bd60559771b0ccc8feb11457044f4631",
        6: "4ea1cfedec78eb36c7b3ab0776d0ed1e4e889f2d576c9e29cb5314d68aac4892",
    }

    def test_renders_are_pinned(self):
        assert {k: hashlib.sha256(render_gem(order_two_gem(k)).encode())
                .hexdigest() for k in self.RENDER_SHA256} == self.RENDER_SHA256

    @pytest.mark.parametrize("k", [1, 0, -2, False])
    def test_fewer_than_two_colors_refused(self, k):
        with pytest.raises(ColorOutOfRange) as err:
            order_two_gem(k)
        assert type(err.value) is ColorOutOfRange
        assert str(err.value) == f"need at least 2 colors, got {k}"

    def test_color_budget(self):
        assert _MAX_WALK_COLORS == 16
        assert order_two_gem(16).graph.n_colors == 16
        with pytest.raises(BudgetExceeded) as err:
            order_two_gem(17)
        assert str(err.value) == "17 colors exceed the budget of 16"

    def test_huge_palettes_refused_before_allocating(self):
        calls = ["order_two_gem(10**9)", "order_two_gem(2**70)"]
        rows = limited_calls(calls)
        assert [row[:2] for row in rows] == [
            ("BudgetExceeded", "1000000000 colors exceed the budget of 16"),
            ("BudgetExceeded",
             "1180591620717411303424 colors exceed the budget of 16")]
        for call, (_, _, seconds) in zip(calls, rows):
            assert seconds < 0.5, call


class TestStandardBases:
    def test_s2xs1(self, s2xs1):
        g = s2xs1.graph
        assert g.num_vertices == 8
        assert g.n_colors == 4
        assert sorted(s2xs1.labels) == [f"v{k}" for k in range(8)]
        assert g.is_crystallization()
        assert g.is_bipartite()
        assert g.euler_characteristic() == 0
        assert regular_genus(g).genus == 1

    def test_t3(self, t3):
        g = t3.graph
        assert g.num_vertices == 24
        assert g.n_colors == 4
        assert g.is_crystallization()
        assert g.is_bipartite()
        assert g.euler_characteristic() == 0
        assert regular_genus(g).genus == 3

    def test_t3_cycle_census(self, t3):
        g = t3.graph
        for pair in ((2, 3), (1, 2), (0, 1), (0, 3)):
            assert bicolored_cycles(g, *pair) == [6] * 4
        for pair in ((0, 2), (1, 3)):
            assert bicolored_cycles(g, *pair) == [4] * 6


class TestProduct:
    def test_vertex_counts(self, s2xs1, t3):
        assert product_gem(s2xs1).graph.num_vertices == 64
        assert product_gem(t3).graph.num_vertices == 192
        assert product_gem(order_two_gem()).graph.num_vertices == 16

    def test_result_is_a_gem(self, s2xs1):
        g = product_gem(s2xs1).graph
        assert g.n_colors == 5
        assert g.is_connected()
        assert g.is_bipartite()
        assert g.euler_characteristic() == 0

    def test_blocks_restrict_to_base(self, s2xs1):
        prod = product_gem(s2xs1)
        base = s2xs1.graph
        p2 = base.num_vertices
        for pos, blk in enumerate(PRODUCT_BLOCKS):
            off = pos * p2
            cmap = BLOCK_COLOR_MAP[blk.rstrip("'")]
            for base_color, block_color in cmap.items():
                for a, b in base.edges(base_color):
                    assert prod.graph.partner(off + a, block_color) == off + b
            for v in range(p2):
                assert prod.labels[off + v] == f"{s2xs1.labels[v]}^{blk}"

    @pytest.mark.parametrize("base", [s2xs1_standard, t3_standard,
                                      order_two_gem])
    def test_matchings_join_same_labels(self, base):
        base = base()
        prod = product_gem(base)
        for blk1, blk2, color in BLOCK_MATCHINGS:
            for label in base.labels:
                v = prod.vertex(f"{label}^{blk1}")
                assert prod.graph.partner(v, color) \
                    == prod.vertex(f"{label}^{blk2}")

    @pytest.mark.parametrize("base", [s2xs1_standard, t3_standard,
                                      order_two_gem])
    def test_matches_paired_builder(self, base):
        base = base()
        rng = make_rng(f"paired product {len(base.labels)}")
        bases = [base]
        for _ in range(3):
            graph, perm = shuffled_copy(rng, base.graph)
            labels = [None] * graph.num_vertices
            for v, new in enumerate(perm):
                labels[new] = base.labels[v]
            bases.append(LabeledGem(graph, labels))
        for gem in bases:
            built, paired = product_gem(gem), paired_product_gem(gem)
            assert built.graph == paired.graph
            assert built.labels == paired.labels

    def test_renders_are_pinned(self):
        gems = {"s2xs1 product": product_gem(s2xs1_standard()),
                "t3 product": product_gem(t3_standard()),
                "order-two product": product_gem(order_two_gem()),
                "g1prime": g1_prime(), "g2prime": g2_prime()}
        assert {name: hashlib.sha256(render_gem(gem).encode()).hexdigest()
                for name, gem in gems.items()} == RENDER_SHA256

    def test_rejects_bad_bases(self, s2xs1):
        with pytest.raises(BaseNotCrystallization):
            product_gem(order_two_gem(5))
        two_spheres = new_graph(4, [
            [(0, 1), (2, 3)], [(0, 1), (2, 3)],
            [(0, 1), (2, 3)], [(0, 1), (2, 3)]])
        with pytest.raises(BaseNotCrystallization):
            product_gem(LabeledGem(two_spheres))


class TestFirstReduction:
    def test_trace(self):
        result = g1_prime_result()
        assert result.trace == (64, 60, 56, 52, 48, 44, 40)

    def test_every_stage_is_a_flat_gem(self, s2xs1):
        gem = product_gem(s2xs1)
        steps = parse_move_script(_data_text("g1prime.moves"))
        assert gem.graph.euler_characteristic() == 0
        for step in steps:
            gem = run_script(gem, [step]).gem
            g = gem.graph
            assert g.is_connected()
            assert g.is_bipartite()
            assert g.euler_characteristic() == 0
        assert g.is_crystallization()

    def test_g_vector(self, g1p):
        g = g1p.graph
        tens = {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}
        for i in range(5):
            for j in range(i + 1, 5):
                expected = 10 if (i, j) in tens else 8
                assert g.residue_count((i, j)) == expected, (i, j)

    def test_cycle_lengths(self, g1p):
        g = g1p.graph
        for pair in ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3)):
            assert bicolored_cycles(g, *pair) == [4] * 10
        for pair in ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)):
            assert bicolored_cycles(g, *pair) == [6] * 6 + [2] * 2

    def test_genus_six(self, g1p):
        g = g1p.graph
        assert genus_for(g, (0, 2, 4, 1, 3)).genus == 6
        best = regular_genus(g)
        assert best.genus == 6
        assert best.permutation == (0, 2, 4, 1, 3)

    def test_shipped_file_matches_builder(self, g1p):
        shipped = parse_gem(_data_text("g1prime.gem"))
        assert shipped.graph.num_vertices == 40
        assert shipped.graph.n_colors == 5
        assert shipped.graph == g1p.graph
        assert shipped.labels == g1p.labels


class TestSecondReduction:
    def test_trace(self):
        result = g2_prime_result()
        assert result.trace == (192, 180, 168, 156, 152, 148, 144,
                                140, 136, 132, 128, 124, 120)

    def test_every_stage_is_a_flat_gem(self, t3):
        gem = product_gem(t3)
        steps = parse_move_script(_data_text("g2prime.moves"))
        for step in steps:
            gem = run_script(gem, [step]).gem
            assert gem.graph.euler_characteristic() == 0
        g = gem.graph
        assert g.is_crystallization()
        assert g.is_bipartite()

    def test_short_cycle_pairs(self, g2p):
        g = g2p.graph
        for pair in ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3)):
            lengths = bicolored_cycles(g, *pair)
            assert lengths == [4] * 30
            assert g.residue_count(pair) == 30
        for pair in ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)):
            assert bicolored_cycles(g, *pair) == [6] * 20

    def test_genus_sixteen(self, g2p):
        g = g2p.graph
        rep = genus_for(g, (0, 2, 4, 1, 3))
        assert rep.genus == Fraction(16)
        assert regular_genus(g).genus == 16

    def test_shipped_file_matches_builder(self, g2p):
        shipped = parse_gem(_data_text("g2prime.gem"))
        assert shipped.graph.num_vertices == 120
        assert shipped.graph == g2p.graph
        assert shipped.labels == g2p.labels
