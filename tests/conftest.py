"""Shared fixtures: the catalogue graphs, built once per session."""

import random
import sys

import pytest

from gemkit import (g1_prime, g2_prime, new_graph, reduced_cover,
                    s2xs1_standard, small_cover_gem, t3_standard, torus_gem)


@pytest.fixture(scope="session")
def s2xs1():
    return s2xs1_standard()


@pytest.fixture(scope="session")
def t3():
    return t3_standard()


@pytest.fixture(scope="session")
def g1p():
    return g1_prime()


@pytest.fixture(scope="session")
def g2p():
    return g2_prime()


@pytest.fixture(scope="session")
def cover1():
    return small_cover_gem(1)


@pytest.fixture(scope="session")
def reduced1():
    return reduced_cover(1).gem


@pytest.fixture(scope="session")
def torus3():
    return torus_gem(3)


@pytest.fixture(scope="session")
def torus4():
    return torus_gem(4)


@pytest.fixture
def int_digit_limit():
    """int()'s digit limit pinned at its default, 4300, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter's int() reads numbers of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def random_colored_graph(rng, num_vertices, n_colors):
    """A random properly edge-colored regular multigraph (no loops)."""
    pairs_per_color = []
    for _ in range(n_colors):
        ids = list(range(num_vertices))
        rng.shuffle(ids)
        pairs_per_color.append(
            [(ids[k], ids[k + 1]) for k in range(0, num_vertices, 2)])
    return new_graph(n_colors, pairs_per_color)


def shuffled_copy(rng, graph):
    """A relabeled copy of `graph` under a random vertex bijection."""
    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    return graph.relabel(perm), perm


def make_rng(seed):
    return random.Random(seed)
