"""Covers of the product of two triangles: enumeration, gems, reduction."""

import hashlib

import pytest

from gemkit import (AuditFailed, ColoredGraph, InvalidCharacteristicFunction,
                    LabeledGem, ScriptResult, bicolored_cycles, canonical_signature, classify_covers,
                    compact_form, dj_equivalent,
                    enumerate_characteristic_functions, facet_vertex_labels,
                    g1_prime, genus_for, infer_characteristic_function,
                    isomorphic, is_weak_semi_simple, mask_word,
                    middle_subgraph, parse_gem, reduce_to_crystallization,
                    reduced_cover, regular_genus, render_gem, run_script,
                    small_cover_gem,
                    validate_characteristic_function, word_mask)
from gemkit.constructions import _data_text
from gemkit import small_covers
from gemkit.small_covers import (CANONICAL_PAIRS, COMPACT_LAYOUTS, COVER_LABELS,
                                 CompactForm)

from conftest import make_rng, shuffled_copy
from oracles import (FACET_DROPS, STAIRCASE_BOUNDARY, STAIRCASE_INTERNAL,
                     facet_contains, incidence_facet_vertex_labels,
                     incidence_validate_characteristic_function,
                     label_characteristic_function, label_reduction_steps,
                     label_word_partition, per_facet_dj_equivalent,
                     sheet_filter_middle_subgraph, tabled_small_cover_gem)


class TestPolytope:
    def test_facets_have_six_vertices(self):
        for facet in range(1, 7):
            assert len(facet_vertex_labels(facet)) == 6

    def test_nine_vertices_each_on_four_facets(self):
        on = {}
        for facet in range(1, 7):
            for v in facet_vertex_labels(facet):
                on.setdefault(v, set()).add(facet)
        assert len(on) == 9
        assert set(on) == {(i + j, j) for i in range(3) for j in range(3)}
        for v, facets in on.items():
            assert len(facets) == 4, v

    @pytest.mark.parametrize("facet", [0, 7, -1])
    def test_facet_outside_one_to_six_refused(self, facet):
        with pytest.raises(InvalidCharacteristicFunction):
            facet_vertex_labels(facet)

    def test_numbering_rule_gives_back_the_table(self):
        assert small_covers._FACET_DROPS == FACET_DROPS

    def test_vertex_facets_match_incidence(self):
        incidence = {(i, j): tuple(f for f in range(6) if facet_contains(f, i, j))
                     for i in range(3) for j in range(3)}
        # the key order too: validation reports the first vertex in it
        assert list(small_covers._VERTEX_FACETS.items()) == list(incidence.items())

    def test_vertex_labels_match_incidence_oracle(self):
        for facet in range(1, 7):
            assert facet_vertex_labels(facet) \
                == incidence_facet_vertex_labels(facet)


class TestCharacteristicFunctions:
    def test_canonical_assignments_pass(self):
        for lam in enumerate_characteristic_functions():
            assert validate_characteristic_function(lam) == lam

    def test_enumeration(self):
        lams = enumerate_characteristic_functions()
        assert len(lams) == 7
        for lam in lams:
            assert lam[:4] == (1, 2, 4, 8)
        assert tuple(lam[4:] for lam in lams) == CANONICAL_PAIRS
        assert {lam[4] for lam in lams} == {3, 15, 7, 11}
        assert {lam[5] for lam in lams} == {12, 15, 13, 14}

    def test_rejection_names_the_vertex(self):
        with pytest.raises(InvalidCharacteristicFunction) as err:
            validate_characteristic_function((1, 2, 4, 8, 7, 13))
        assert "(4,2)" in str(err.value)

    def test_shape_errors(self):
        with pytest.raises(InvalidCharacteristicFunction):
            validate_characteristic_function((1, 2, 4, 8, 3))
        with pytest.raises(InvalidCharacteristicFunction):
            validate_characteristic_function((1, 2, 4, 8, 3, 0))
        with pytest.raises(InvalidCharacteristicFunction):
            validate_characteristic_function((1, 2, 4, 8, 3, 16))

    def test_validation_matches_incidence_oracle(self):
        def outcome(validate, masks):
            try:
                value = validate(masks)
            except InvalidCharacteristicFunction as err:
                return type(err), str(err)
            return value, tuple(map(type, value))

        rng = make_rng("vertex facets")
        cases = [(1, 2, 4, 8, a, b) for a in range(1, 16) for b in range(1, 16)]
        cases += [tuple(rng.randrange(1, 16) for _ in range(6))
                  for _ in range(20000)]
        for bad in (0, 16, -1, True, 1.5, "x"):
            for pos in range(6):
                cases.append((1, 2, 4, 8, 3, 12)[:pos] + (bad,)
                             + (1, 2, 4, 8, 3, 12)[pos + 1:])
        cases += [(1, 2, 4, 8, 3), (1, 2, 4, 8, 3, 12, 1), 5, None]
        found = [outcome(validate_characteristic_function, masks)
                 for masks in cases]
        assert found == [outcome(incidence_validate_characteristic_function,
                                 masks) for masks in cases]
        # the cases reach both answers and the refusal at every vertex
        refusals = [text for kind, text in found
                    if kind is InvalidCharacteristicFunction]
        assert 0 < len(refusals) < len(found)
        assert len({t for t in refusals if "polytope vertex" in t}) == 9

    def test_words_round_trip(self):
        for mask in range(16):
            assert word_mask(mask_word(mask)) == mask
        assert mask_word(0) == "0"
        assert mask_word(13) == "134"

    @pytest.mark.parametrize("mask", [16, -1])
    def test_mask_outside_zero_to_fifteen_refused(self, mask):
        with pytest.raises(InvalidCharacteristicFunction):
            mask_word(mask)

    @pytest.mark.parametrize("word", ["9", "", "21", "00", "01", "5"])
    def test_word_that_does_not_round_trip_refused(self, word):
        with pytest.raises(InvalidCharacteristicFunction):
            word_mask(word)

    def test_linear_images_are_equivalent(self):
        rng = make_rng(41)
        lams = enumerate_characteristic_functions()
        for lam in lams:
            assert dj_equivalent(lam, lam)
        for _ in range(10):
            lam = lams[rng.randrange(7)]
            image = random_image(rng, lam)
            assert dj_equivalent(lam, image)
            assert dj_equivalent(image, lam)

    def test_catalogue_is_pairwise_inequivalent(self):
        lams = enumerate_characteristic_functions()
        for a in range(7):
            for b in range(a + 1, 7):
                assert not dj_equivalent(lams[a], lams[b]), (a + 1, b + 1)

    def test_rank_test_matches_per_facet_oracle(self):
        lams = enumerate_characteristic_functions()
        for l1 in lams:
            for l2 in lams:
                assert dj_equivalent(l1, l2) == per_facet_dj_equivalent(l1, l2)
        rng = make_rng(17)
        answers = []
        for trial in range(2000):
            # theta * lams[a] over all theta and a is every valid function
            # once, since facets 1..4 carry a basis that fixes theta
            l1 = random_image(rng, lams[rng.randrange(7)])
            if trial % 2:
                l2 = random_image(rng, l1)
            else:
                l2 = random_image(rng, lams[rng.randrange(7)])
            assert validate_characteristic_function(l2) == l2
            answer = dj_equivalent(l1, l2)
            assert answer == per_facet_dj_equivalent(l1, l2), (l1, l2)
            answers.append(answer)
        assert all(answers[1::2])
        assert 0 < sum(answers[0::2]) < 1000


def random_invertible_map(rng):
    """A random element of GL(4, Z/2) as a lookup table on 0..15."""
    while True:
        basis = [rng.randrange(1, 16) for _ in range(4)]
        table = [0] * 16
        for v in range(16):
            img = 0
            for bit in range(4):
                if v >> bit & 1:
                    img ^= basis[bit]
            table[v] = img
        if len(set(table)) == 16:
            return table


def random_image(rng, lam):
    """lam moved by a random element of GL(4, Z/2)."""
    theta = random_invertible_map(rng)
    return tuple(theta[m] for m in lam)


class TestCoverGems:
    def test_shape_and_complement_counts(self):
        for i in range(1, 8):
            g = small_cover_gem(i).graph
            assert g.num_vertices == 96
            assert g.n_colors == 5
            assert g.is_connected()
            assert not g.is_bipartite()
            assert g.euler_characteristic() == 1
            counts = tuple(
                g.residue_count(tuple(c for c in range(5) if c != j))
                for j in range(5))
            assert counts == (1, 2, 3, 2, 1)

    def test_square_pairs(self):
        for i in range(1, 8):
            g = small_cover_gem(i).graph
            for pair in ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)):
                assert bicolored_cycles(g, *pair) == [4] * 24, (i, pair)

    @pytest.mark.parametrize("build", [small_cover_gem, reduced_cover])
    @pytest.mark.parametrize("index", [0, 8, -1])
    def test_index_outside_catalogue_refused(self, build, index):
        with pytest.raises(InvalidCharacteristicFunction) as err:
            build(index)
        assert str(err.value) == f"catalogue index must be 1..7, got {index}"

    @pytest.mark.parametrize("call, shown", [
        (lambda: small_cover_gem(1.0), "1.0"),
        (lambda: small_cover_gem(None), "None"),
        (lambda: reduced_cover(2.0), "2.0"),
        (lambda: validate_characteristic_function(5), "5"),
        (lambda: dj_equivalent((1, 2, 4, 8, 3, 12), 7), "7"),
    ], ids=["small_cover_gem(1.0)", "small_cover_gem(None)",
            "reduced_cover(2.0)", "validate(5)", "dj_equivalent(..., 7)"])
    def test_non_iterable_refused(self, call, shown):
        with pytest.raises(InvalidCharacteristicFunction) as err:
            call()
        assert type(err.value) is InvalidCharacteristicFunction
        assert str(err.value) == f"need 6 facet vectors, got {shown}"

    def test_accepts_masks_directly(self):
        lam = enumerate_characteristic_functions()[0]
        assert small_cover_gem(lam).graph == small_cover_gem(1).graph

    def test_labels(self, cover1):
        assert cover1.graph.num_vertices == 96
        assert cover1.has_label("T0^1")
        assert cover1.has_label("T1234^6")
        assert cover1.labels == COVER_LABELS
        assert len(set(COVER_LABELS)) == 96

    def test_labels_in_another_vertex_order(self, cover1):
        rng = make_rng(29)
        perm = list(range(96))
        rng.shuffle(perm)
        labels = [None] * 96
        for v, w in enumerate(perm):
            labels[w] = cover1.labels[v]
        moved = LabeledGem(cover1.graph.relabel(perm), labels)
        assert infer_characteristic_function(moved) \
            == enumerate_characteristic_functions()[0]
        assert compact_form(moved) == compact_form(cover1)

    def test_infer_round_trip(self):
        lams = enumerate_characteristic_functions()
        for i in range(1, 8):
            assert infer_characteristic_function(small_cover_gem(i)) \
                == lams[i - 1]

    def test_shipped_transcription_matches(self, cover1):
        shipped = parse_gem(_data_text("cover1.gem"))
        assert shipped.graph.num_vertices == 96
        assert shipped.graph == cover1.graph
        assert isomorphic(shipped.graph, cover1.graph) is not None


def corners(sheet):
    """The five corner pairs (i, j) of the sheet's lattice path, in order."""
    out = [(0, 0)]
    for step in small_covers._PATHS[sheet - 1]:
        i, j = out[-1]
        out.append((i + 1, j) if step == 0 else (i, j + 1))
    return out


class TestStaircase:
    """The staircase map derived from the lattice paths, against the hand
    tables it replaced and the geometry it stands for."""

    def test_rule_gives_back_the_tables(self):
        internal = {}
        boundary = {}
        for (sheet, color), (other, facet) in small_covers._STAIRCASE.items():
            if facet:
                assert other == sheet
                boundary[sheet, color] = facet
            elif sheet < other:
                internal.setdefault(color, []).append((sheet, other))
        assert {c: tuple(j) for c, j in internal.items()} == STAIRCASE_INTERNAL
        # the key order too: infer_characteristic_function reads each
        # facet across its first face in this order
        assert list(boundary.items()) == list(STAIRCASE_BOUNDARY.items())
        assert len(small_covers._STAIRCASE) == 30

    def test_internal_faces_share_four_corners(self):
        for (sheet, color), (other, facet) in small_covers._STAIRCASE.items():
            if facet:
                continue
            assert small_covers._STAIRCASE[other, color] == (sheet, 0)
            face = corners(sheet)[:color] + corners(sheet)[color + 1:]
            assert set(corners(sheet)) & set(corners(other)) == set(face)
            assert len(set(face)) == 4

    def test_boundary_faces_lie_on_their_facet_alone(self):
        for (sheet, color), (_, facet) in small_covers._STAIRCASE.items():
            if not facet:
                continue
            face = corners(sheet)[:color] + corners(sheet)[color + 1:]
            on = [f + 1 for f in range(6)
                  if all(facet_contains(f, i, j) for i, j in face)]
            assert on == [facet], (sheet, color)

    def test_three_boundary_faces_per_facet(self):
        facets = [facet for _, facet in small_covers._STAIRCASE.values() if facet]
        assert sorted(facets) == [f for f in range(1, 7) for _ in range(3)]

    def test_builder_matches_tabled_builder(self):
        rng = make_rng("staircase images")
        for i, lam in enumerate(enumerate_characteristic_functions(), 1):
            for masks in [i] + [random_image(rng, lam) for _ in range(3)]:
                built = small_cover_gem(masks)
                tabled = tabled_small_cover_gem(masks)
                assert built.graph == tabled.graph, masks
                assert built.labels == tabled.labels

    # sha256 of render_gem(small_cover_gem(i)), i = 1..7
    COVER_DIGESTS = (
        "947ed5de85c4dc23d974b0cb74afd3b3b61cabc8dc9d1099b795587a5b0f33b1",
        "9cbbd3037fe5b3f0c1d27499b6f0d066117b42a6fc646067e3cc3f896f645fdb",
        "291a87d7622636eaeb4d998972fd98a867d5b58388694fe77895ced82251514c",
        "3951842b2bedc1f1039592d114f57135854098904fd643ab0df7db74224a1d8c",
        "e62c579b679ab86ff162fa3cd2b3b0baf8f517905d4c65848e5cd2aceec08b5f",
        "09317e66bd64268f285a2fc916f030308cb281f9aab0dd062ed4f23967a2cb0c",
        "a5304c98e9563e61a98c73ae084f7c0e7384a89cd1552df9c76fd3158774521e",
    )

    @pytest.mark.parametrize("index", range(1, 8))
    def test_cover_bytes_pinned(self, index):
        text = render_gem(small_cover_gem(index))
        assert hashlib.sha256(text.encode()).hexdigest() \
            == self.COVER_DIGESTS[index - 1]


# The middle subgraph of the first cover, transcribed ring by ring from the
# reference drawing: eight rings of eight vertices; within a ring colors 0
# and 1 alternate, and two spoke colors join consecutive rings positionwise.
RINGS = {
    "a": ("T134^3", "T1^3", "T1^5", "T2^5", "T2^3", "T234^3", "T234^5", "T134^5"),
    "b": ("T134^2", "T1^2", "T1^4", "T2^4", "T2^2", "T234^2", "T234^4", "T134^4"),
    "c": ("T34^2", "T0^2", "T0^4", "T12^4", "T12^2", "T1234^2", "T1234^4", "T34^4"),
    "d": ("T34^3", "T0^3", "T0^5", "T12^5", "T12^3", "T1234^3", "T1234^5", "T34^5"),
    "e": ("T4^3", "T3^3", "T3^5", "T123^5", "T123^3", "T124^3", "T124^5", "T4^5"),
    "f": ("T4^2", "T3^2", "T3^4", "T123^4", "T123^2", "T124^2", "T124^4", "T4^4"),
    "g": ("T14^2", "T13^2", "T13^4", "T23^4", "T23^2", "T24^2", "T24^4", "T14^4"),
    "h": ("T14^3", "T13^3", "T13^5", "T23^5", "T23^3", "T24^3", "T24^5", "T14^5"),
}
INNER_SPOKES = (("a", "b"), ("c", "d"), ("e", "f"), ("g", "h"))
OUTER_SPOKES = (("b", "c"), ("d", "e"), ("f", "g"), ("h", "a"))


def transcribed_middle_edges():
    edges = set()
    for ring in RINGS.values():
        for k in range(0, 8, 2):
            edges.add((0, frozenset((ring[k], ring[k + 1]))))
        for k in range(1, 8, 2):
            edges.add((1, frozenset((ring[k], ring[(k + 1) % 8]))))
    for color, pairs in ((2, INNER_SPOKES), (3, OUTER_SPOKES)):
        for r1, r2 in pairs:
            for k in range(8):
                edges.add((color, frozenset((RINGS[r1][k], RINGS[r2][k]))))
    return edges


class TestMiddleSubgraph:
    def test_matches_ring_transcription(self, cover1):
        sub = middle_subgraph(cover1)
        actual = set()
        for c in range(4):
            for u, v in sub.graph.edges(c):
                actual.add((c, frozenset((sub.label_of(u), sub.label_of(v)))))
        expected = transcribed_middle_edges()
        assert len(expected) == 128
        assert actual == expected

    def test_all_cycles_length_eight(self):
        for i in range(1, 8):
            sub = middle_subgraph(small_cover_gem(i)).graph
            assert sub.num_vertices == 64
            assert bicolored_cycles(sub, 0, 1) == [8] * 8
            assert bicolored_cycles(sub, 2, 3) == [8] * 8

    def test_matches_sheet_filter_oracle(self):
        rng = make_rng("middle")
        for i in range(1, 8):
            gem = small_cover_gem(i)
            graph, perm = shuffled_copy(rng, gem.graph)
            labels = [None] * 96
            for v, w in enumerate(perm):
                labels[w] = gem.labels[v]
            for cover in (gem, LabeledGem(graph, labels)):
                sub, want = (middle_subgraph(cover),
                             sheet_filter_middle_subgraph(cover))
                assert sub.graph == want.graph
                assert sub.labels == want.labels

    def test_identical_across_covers(self, cover1):
        first = middle_subgraph(cover1).graph
        sig = canonical_signature(first)
        for i in range(2, 8):
            other = middle_subgraph(small_cover_gem(i)).graph
            assert canonical_signature(other) == sig
            assert isomorphic(first, other) is not None


class TestCompactForm:
    def test_layout_matches_cycles(self):
        for i in range(1, 8):
            gem = small_cover_gem(i)
            form = compact_form(gem)
            assert form.index == i
            words = [w for row in form.rows for w in row]
            assert sorted(words) == sorted(mask_word(m) for m in range(16))
            for row in form.rows:
                assert len(row) == 4
            for c in range(4):
                assert len(form.column(c)) == 4

    def test_rows_follow_horizontal_cycles(self, cover1):
        form = compact_form(cover1)
        sub = middle_subgraph(cover1)
        # ring b above is a {0,1}-cycle; its words form the first row
        words = frozenset(l.split("^")[0][1:] for l in RINGS["b"])
        assert frozenset(form.rows[0]) == words

    @pytest.mark.parametrize("swap, refused", [
        # one word of row 0 traded with row 1: row 0 is no class
        (((0, 1), (1, 1)), "stored row ('1', '34', '234', '2') is not a "
                           "{0,1}-cycle class"),
        # the first two words of row 0 traded: the rows hold, but column 0
        # has 134 in place of 1
        (((0, 0), (0, 1)), "stored column ('134', '0', '3', '13') is not a "
                           "{3,4}-cycle class"),
    ])
    def test_wrong_layout_refused(self, monkeypatch, cover1, swap, refused):
        (r1, c1), (r2, c2) = swap
        layout = [list(row) for row in COMPACT_LAYOUTS[0]]
        layout[r1][c1], layout[r2][c2] = layout[r2][c2], layout[r1][c1]
        monkeypatch.setattr(small_covers, "COMPACT_LAYOUTS",
                            (tuple(map(tuple, layout)),) + COMPACT_LAYOUTS[1:])
        with pytest.raises(AuditFailed) as err:
            compact_form(cover1)
        assert str(err.value) == refused


class TestReduction:
    def test_traces_and_invariants(self):
        for i in range(1, 8):
            result = reduced_cover(i)
            assert result.trace == (96, 88, 80, 64, 52)
            g = result.gem.graph
            assert g.num_vertices == 52
            assert g.is_crystallization()
            assert not g.is_bipartite()
            assert g.euler_characteristic() == 1

    def test_first_reduced_g_vector(self, reduced1):
        g = reduced1.graph
        for pair in ((0, 3), (0, 4), (1, 4), (2, 3)):
            assert g.residue_count(pair) == 13
        assert g.residue_count((1, 2)) == 12

    def test_lambda_dependent_censuses(self):
        for i in range(1, 8):
            g = reduced_cover(i).gem.graph
            lengths_23 = bicolored_cycles(g, 2, 3)
            lengths_12 = bicolored_cycles(g, 1, 2)
            assert len(lengths_23) == 13
            assert len(lengths_12) == 12
            if i in (1, 2, 5):
                assert lengths_23 == [4] * 13
            else:
                assert lengths_23 == [6] * 2 + [4] * 9 + [2] * 2
            if i in (1, 3, 6):
                assert lengths_12 == [8] + [4] * 11
            else:
                assert lengths_12 == [6] * 3 + [4] * 8 + [2]

    def test_genus_eight_for_all(self):
        for i in range(1, 8):
            g = reduced_cover(i).gem.graph
            assert genus_for(g, (0, 3, 2, 1, 4)).genus == 8
            assert regular_genus(g).genus == 8
            assert is_weak_semi_simple(g, (0, 3, 2, 1, 4), 2)

    # sha256 of render_gem(reduced_cover(i).gem), i = 1..7: the glue
    # scripts must reduce each cover to the same file, byte for byte
    REDUCED_DIGESTS = (
        "940910b101cf1deb3a48226bdcf01f5a4335b1fb43d8c12095c0d11b756d2bd6",
        "b29fb35089f55aeac58348c62a0fb83654189bf61bc3dc96f518e1d212f56463",
        "ce87d065f60b31d032e3f332dce19ad1d0788ccdefdd94faefff8ad0a7beedd2",
        "730f64c5b01884d55152600eaf48eb80f9d16bc41ce3bd7f39c7337a5e9d74a5",
        "394bff247482ef31b77544ae110a2ee06f249f4b86a9a85a8612c3a71b5e6d18",
        "9149525a668d1466d4b595ed75d5634624fb7470a66836c68e4f393d7c31a95c",
        "6115ffa5405b4fbf6303bc4a7bd9f576a70e75ad897ca4724d9b9684f664d2bf",
    )

    @pytest.mark.parametrize("index", range(1, 8))
    def test_reduced_bytes_pinned(self, index):
        text = render_gem(reduced_cover(index).gem)
        assert hashlib.sha256(text.encode()).hexdigest() \
            == self.REDUCED_DIGESTS[index - 1]

    def test_explicit_form_argument(self, cover1):
        result = reduce_to_crystallization(cover1)
        assert result.trace == (96, 88, 80, 64, 52)
        assert result.gem.graph == reduced_cover(1).gem.graph
        assert result.gem.labels == reduced_cover(1).gem.labels


def shuffled_covers():
    """(index, gem): each catalogue cover, then two seeded shuffled copies
    of it that keep every vertex's label."""
    rng = make_rng("staircase ids")
    for i in range(1, 8):
        gem = small_cover_gem(i)
        yield i, gem
        for _ in range(2):
            graph, perm = shuffled_copy(rng, gem.graph)
            labels = [None] * 96
            for v, w in enumerate(perm):
                labels[w] = gem.labels[v]
            yield i, LabeledGem(graph, labels)


class TestStaircaseIds:
    """The readers that compute on staircase ids against the label readers
    they replaced, on the catalogue covers and shuffled copies of them
    (TestMiddleSubgraph checks the middle subgraph the same way)."""

    def test_renumbered_to_the_built_cover(self):
        for i, gem in shuffled_covers():
            assert small_covers._staircase_ids(gem) == small_cover_gem(i).graph

    def test_characteristic_function(self):
        for i, gem in shuffled_covers():
            masks = infer_characteristic_function(gem)
            assert masks == label_characteristic_function(gem)
            assert masks == enumerate_characteristic_functions()[i - 1]

    @pytest.mark.parametrize("colors, sheet", [
        ((0, 1), 2), ((0, 1), 3), ((3, 4), 2), ((3, 4), 4)])
    def test_word_partition(self, colors, sheet):
        for _, gem in shuffled_covers():
            (parts,) = small_covers._word_partition(
                small_covers._staircase_ids(gem), colors, (sheet,))
            assert {frozenset(map(mask_word, p)) for p in parts} \
                == label_word_partition(gem, colors, sheet)

    def test_renumbered_at_most_once(self, monkeypatch):
        # a 96-vertex cut is a renumbering; the middle subgraph cuts 64
        renumbered = []
        restrict = small_covers._restrict

        def counting(columns, keep):
            if len(keep) == 96:
                renumbered.append(keep)
            return restrict(columns, keep)

        monkeypatch.setattr(small_covers, "_restrict", counting)
        for i, gem in shuffled_covers():
            renumbered.clear()
            reduce_to_crystallization(gem)
            built = gem.labels == COVER_LABELS
            assert len(renumbered) == (0 if built else 1), i

    def test_middle_subgraph_renumbers_nothing(self, monkeypatch):
        # a shuffled cover's middle is cut from the gem as it is: one
        # 64-vertex cut, and no 96-vertex renumbering to check its labels
        gem = next(gem for i, gem in shuffled_covers()
                   if i == 3 and gem.labels != COVER_LABELS)
        cuts = []
        restrict = small_covers._restrict

        def counting(columns, keep):
            cuts.append(len(keep))
            return restrict(columns, keep)

        monkeypatch.setattr(small_covers, "_restrict", counting)
        sub = middle_subgraph(gem)
        assert cuts == [64]
        assert render_gem(sub) == render_gem(sheet_filter_middle_subgraph(gem))

    def test_each_color_set_labelled_once(self, monkeypatch):
        queries = []  # (graph, colors); holding the graph keeps its id unique
        components = ColoredGraph.components

        def recording(graph, colors=None):
            queries.append((graph, None if colors is None else frozenset(colors)))
            return components(graph, colors)

        monkeypatch.setattr(ColoredGraph, "components", recording)
        for i in range(1, 8):
            queries.clear()
            reduce_to_crystallization(small_cover_gem(i))
            keys = [(id(graph), colors) for graph, colors in queries]
            assert len(keys) == len(set(keys)), i

    def test_compact_form(self):
        for i, gem in shuffled_covers():
            assert compact_form(gem) == CompactForm(i, COMPACT_LAYOUTS[i - 1])

    def test_reduction(self):
        for _, gem in shuffled_covers():
            result = reduce_to_crystallization(gem)
            want = run_script(gem, label_reduction_steps(gem, compact_form(gem)))
            assert result.trace == want.trace == (96, 88, 80, 64, 52)
            assert render_gem(result.gem) == render_gem(want.gem)


class TestAuditRefusals:
    """Each audit on the fixed cover data refuses when the table or helper
    it checks is patched to disagree."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        # torn down after monkeypatch, so the real data fills them again
        yield
        small_covers.enumerate_characteristic_functions.cache_clear()
        small_covers._first_middle_signature.cache_clear()

    def test_catalogue_search(self, monkeypatch):
        monkeypatch.setattr(small_covers, "CANONICAL_PAIRS", CANONICAL_PAIRS[:-1])
        small_covers.enumerate_characteristic_functions.cache_clear()
        with pytest.raises(AuditFailed) as err:
            enumerate_characteristic_functions()
        assert str(err.value) == (
            "characteristic function search found [(3, 12), (3, 13), (3, 14),"
            " (3, 15), (7, 12), (11, 12), (15, 12)]")

    def test_complement_counts(self, monkeypatch):
        # facets 5 and 6 share a vector, so no vertex rule holds them apart
        monkeypatch.setattr(small_covers, "validate_characteristic_function",
                            tuple)
        with pytest.raises(AuditFailed) as err:
            small_cover_gem((1, 2, 4, 8, 3, 3))
        assert str(err.value) \
            == "cover gem has complement residue counts (1, 3, 5, 4, 2)"

    # the builder reads chi off its residue_counts() walk
    @pytest.mark.parametrize("owner, method, value", [
        pytest.param(small_covers, "euler_characteristic_from", 0,
                     id="euler_characteristic-0"),
        pytest.param(ColoredGraph, "is_bipartite", True, id="is_bipartite-True")])
    def test_basic_invariants(self, monkeypatch, owner, method, value):
        monkeypatch.setattr(owner, method, lambda *args: value)
        with pytest.raises(AuditFailed) as err:
            small_cover_gem(1)
        assert str(err.value) == "cover gem fails the basic invariant audit"

    def test_word_partition(self, cover1):
        with pytest.raises(AuditFailed) as err:
            small_covers._word_partition(cover1.graph, (1, 2), (2, 3))
        assert str(err.value) \
            == "colors (1, 2) cycles do not split the words into 4+4+4+4"

    def test_middle_residue(self, monkeypatch, cover1):
        # the stored labels moved one sheet down: the residue is not them
        monkeypatch.setattr(small_covers, "_MIDDLE_LABELS", frozenset(
            f"T{mask_word(w)}^{sheet}" for w in range(16) for sheet in range(1, 5)))
        for read in (middle_subgraph, compact_form):
            with pytest.raises(AuditFailed) as err:
                read(cover1)
            assert str(err.value) == ("the {0,1,3,4}-residue through T0^2 is "
                                      "not the 64 sheet-2..5 vertices")

    def test_no_stored_layout(self, monkeypatch, cover1):
        monkeypatch.setattr(small_covers, "CANONICAL_PAIRS", CANONICAL_PAIRS[1:])
        small_covers.enumerate_characteristic_functions.cache_clear()
        with pytest.raises(AuditFailed) as err:
            compact_form(cover1)
        assert str(err.value) \
            == "no stored table layout for facet vectors (1, 2, 4, 8, 3, 12)"

    @pytest.mark.parametrize("middle, refused", [
        # colors 1 and 2 swapped: the {0,1}-cycles are squares
        (lambda gem: LabeledGem(
            middle_subgraph(gem).graph.permute_colors((0, 2, 1, 3))),
         "middle subgraph has a 0,1 cycle of length other than 8"),
    ], ids=["cycles"])
    def test_middle_shape(self, monkeypatch, cover1, middle, refused):
        monkeypatch.setattr(small_covers, "middle_subgraph", middle)
        with pytest.raises(AuditFailed) as err:
            compact_form(cover1)
        assert str(err.value) == refused

    def test_middle_signature(self, monkeypatch, cover1):
        monkeypatch.setattr(small_covers, "_first_middle_signature",
                            lambda: "another gem")
        with pytest.raises(AuditFailed) as err:
            compact_form(cover1)
        assert str(err.value) == "middle subgraph differs from the first cover's"

    @pytest.mark.parametrize("colors, sheet, refused", [
        ((0, 1), 3, "row classes differ between the two sheet pairs"),
        ((3, 4), 4, "column classes differ between the two sheet pairs"),
    ], ids=["rows", "columns"])
    def test_classes_per_sheet_pair(self, monkeypatch, cover1, colors, sheet,
                                    refused):
        partition = small_covers._word_partition

        def second_sheet_disagrees(graph, at_colors, sheets):
            first, second = partition(graph, at_colors, sheets)
            if (at_colors, sheets[1]) == (colors, sheet):
                second = set()
            return [first, second]

        monkeypatch.setattr(small_covers, "_word_partition",
                            second_sheet_disagrees)
        with pytest.raises(AuditFailed) as err:
            compact_form(cover1)
        assert str(err.value) == refused

    def test_reduction_trace(self, monkeypatch, cover1):
        # the last glue left out
        monkeypatch.setattr(small_covers, "run_script",
                            lambda gem, steps: run_script(gem, steps[:-1]))
        with pytest.raises(AuditFailed) as err:
            reduce_to_crystallization(cover1)
        assert str(err.value) == "reduction trace is (96, 88, 80, 64)"

    def test_reduction_crystallization(self, monkeypatch, cover1):
        # the right trace, but the cover gem itself, which is not contracted
        monkeypatch.setattr(
            small_covers, "run_script",
            lambda gem, steps: ScriptResult(gem, (96, 88, 80, 64, 52)))
        with pytest.raises(AuditFailed) as err:
            reduce_to_crystallization(cover1)
        assert str(err.value) \
            == "reduced cover gem fails the crystallization audit"

    def test_reduction_chi(self, monkeypatch, cover1):
        # the right trace and a crystallization, but of S2xS1xS1: chi 0;
        # read as non-bipartite, so chi alone refuses it
        reduced = g1_prime()
        monkeypatch.setattr(
            small_covers, "run_script",
            lambda gem, steps: ScriptResult(reduced, (96, 88, 80, 64, 52)))
        monkeypatch.setattr(ColoredGraph, "is_bipartite", lambda graph: False)
        with pytest.raises(AuditFailed) as err:
            reduce_to_crystallization(cover1)
        assert str(err.value) \
            == "reduced cover gem fails the crystallization audit"

    def test_reduction_audit_walks_once(self, monkeypatch, cover1):
        final, calls = [], []
        script = small_covers.run_script

        def run(gem, steps):
            result = script(gem, steps)
            final.append(result.gem.graph)
            return result

        monkeypatch.setattr(small_covers, "run_script", run)
        for name in ("components", "residue_counts"):
            def counting(graph, *args, _name=name, _real=getattr(ColoredGraph, name)):
                if final and graph is final[0]:
                    calls.append(_name)
                return _real(graph, *args)
            monkeypatch.setattr(ColoredGraph, name, counting)
        reduce_to_crystallization(cover1)
        assert calls == ["residue_counts"]


@pytest.mark.parametrize("read", [compact_form, infer_characteristic_function,
                                  reduce_to_crystallization, middle_subgraph])
def test_gem_that_is_not_a_cover_refused(read):
    with pytest.raises(AuditFailed) as err:
        read(g1_prime())
    assert "not a small cover gem" in str(err.value)


class TestClassification:
    def test_four_classes(self):
        assert classify_covers() == ((1,), (2, 5), (3, 6), (4, 7))

    def test_witnessed_isomorphisms(self):
        pairs = ((2, 5), (3, 6), (4, 7))
        for a, b in pairs:
            ga = reduced_cover(a).gem.graph
            gb = reduced_cover(b).gem.graph
            assert isomorphic(ga, gb) is not None
        g1 = reduced_cover(1).gem.graph
        g2 = reduced_cover(2).gem.graph
        assert isomorphic(g1, g2) is None
        assert isomorphic(g1, g2, allow_color_perm=True) is None
