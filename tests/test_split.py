"""The residue walk and the pair censuses (pair_cycles, genus_for) shared
with forked children (core._run_split): the same answers as the oracles
and the single-pair walk, every child reaped and every pipe closed, and no
fork where forking is unsafe or cannot pay."""

import os
import threading
import time
from itertools import combinations

import pytest

from gemkit import bicolored_cycles, genus_for, pair_cycles, torus_gem
from gemkit import core
from gemkit.core import _Level
from gemkit.invariants import cyclic_permutations

from conftest import (disjoint_union, make_rng, random_colored_graph,
                      shuffled_copy)
from oracles import (per_subset_face_counts, per_subset_residue_counts,
                     walked_cycle_lengths)


@pytest.fixture()
def forks(monkeypatch):
    """The pids os.fork returns to the parent, on a host of three usable
    CPUs."""
    pids = []
    real_fork = os.fork

    def counted():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    return pids


@pytest.fixture()
def split_always(monkeypatch, forks):
    """Every walk of two tasks or more splits, into up to two children."""
    monkeypatch.setattr(core, "_SPLIT_VISITS", 0)
    return forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("this system lists no open descriptors")
    return sorted(os.listdir("/proc/self/fd"))


def serial_answers(g):
    """residue_counts, face_counts and pair_cycles with no child forked."""
    counts = per_subset_residue_counts(g)
    return (counts, per_subset_face_counts(g),
            {(i, j): walked_cycle_lengths(g, i, j)
             for i, j in combinations(g.colors(), 2)})


def assert_split_agrees(g):
    counts, faces, census = serial_answers(g)
    assert g.residue_counts() == counts
    assert g.face_counts() == faces
    assert pair_cycles(g) == census
    assert census == {(i, j): bicolored_cycles(g, i, j)
                      for i, j in combinations(g.colors(), 2)}
    for perm in cyclic_permutations(g.n_colors)[:6]:
        rep = genus_for(g, perm)
        assert rep.pair_counts == tuple(
            len(census[min(a, b), max(a, b)])
            for a, b in zip(perm, perm[1:] + perm[:1]))


class TestSplitAgainstOracle:
    """With the threshold at 0 every walk of two tasks or more splits."""

    def test_random_graphs(self, split_always):
        rng = make_rng(20261019)
        for k in range(2, 8):
            for _ in range(3):
                g = random_colored_graph(rng, rng.choice((2, 4, 6, 10, 16)), k)
                assert_split_agrees(g)
                h = random_colored_graph(rng, rng.choice((2, 4, 8)), k)
                both, _ = shuffled_copy(rng, disjoint_union(g, h))
                assert_split_agrees(both)
        assert split_always
        no_child_left()

    def test_catalogue(self, split_always, s2xs1, t3, g1p, g2p, cover1,
                       reduced1):
        rng = make_rng(9)
        graphs = [gem.graph for gem in (s2xs1, t3, g1p, g2p, cover1, reduced1)]
        graphs += [torus_gem(n).graph for n in range(2, 6)]
        for g in graphs:
            assert_split_agrees(g)
            assert_split_agrees(shuffled_copy(rng, g)[0])
        assert split_always
        no_child_left()

    def test_every_pipe_closed(self, split_always):
        g = torus_gem(4).graph
        before = open_fds()
        g.residue_counts()
        pair_cycles(g)
        assert len(split_always) == 4
        assert open_fds() == before


class TestSizeGuard:
    def test_t5_and_t6_census_stay_and_t6_residue_walk_splits(self, forks):
        # t5's residue walk reads 720 * 2^6 = 46,080 vertices, its census
        # 720 * 15; t6's census 5040 * 21 = 105,840 and its residue walk
        # 5040 * 2^7 = 645,120
        t5 = torus_gem(5).graph
        t5.residue_counts()
        pair_cycles(t5)
        t6 = torus_gem(6).graph
        pair_cycles(t6)
        assert forks == []
        assert t6.face_counts() == per_subset_face_counts(t6)
        assert len(forks) == 2
        no_child_left()

    def test_genus_for_stays_on_t5_and_t6_and_splits_on_t7(self, forks):
        # one cyclic order of t5 reads 720 * 6 = 4,320 vertices, of t6
        # 5040 * 7 = 35,280 and of t7 40320 * 8 = 322,560
        for n in (5, 6):
            genus_for(torus_gem(n).graph, range(n + 1))
        assert forks == []
        # rho(T^7) = 1 + 8! * 4 / 8, the conjectured bound, met at this order
        t7 = torus_gem(7).graph
        assert genus_for(t7, (0, 2, 4, 6, 1, 7, 5, 3)).genus == 20161
        assert len(forks) == 2
        no_child_left()


class TestGenusForSplits:
    def test_every_order_agrees(self, split_always):
        # each order's k pairs are one census, shared with the children
        t4 = torus_gem(4).graph
        for g in (t4, shuffled_copy(make_rng(25), t4)[0]):
            for perm in cyclic_permutations(g.n_colors):
                forked = len(split_always)
                assert genus_for(g, perm).pair_counts == tuple(
                    len(walked_cycle_lengths(g, a, b))
                    for a, b in zip(perm, perm[1:] + perm[:1]))
                assert len(split_always) == forked + 2
        no_child_left()


class TestFailures:
    def test_child_without_payload(self, monkeypatch, split_always):
        g = torus_gem(4).graph
        counts, faces, census = serial_answers(g)
        parent = os.getpid()
        cycles = _Level.cycles.__func__

        def dying(cls, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return cycles(cls, *args, **kwargs)

        monkeypatch.setattr(_Level, "cycles", classmethod(dying))
        before = open_fds()
        assert g.residue_counts() == counts
        assert g.face_counts() == faces
        assert pair_cycles(g) == census
        assert len(split_always) == 6
        no_child_left()
        assert open_fds() == before

    def test_parent_raises(self, monkeypatch, split_always):
        # each child stalls in its first job, so the parent claims the
        # other eight of ten and raises; the children are killed, not
        # waited for, and reaped, and the pipes closed
        g = torus_gem(4).graph
        parent = os.getpid()

        def failing(cls, *args, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)
            raise RuntimeError("parent failed")

        monkeypatch.setattr(_Level, "cycles", classmethod(failing))
        before = open_fds()
        start = time.monotonic()
        for walk in (g.residue_counts, lambda: pair_cycles(g)):
            with pytest.raises(RuntimeError, match="parent failed"):
                walk()
        assert time.monotonic() - start < 30
        assert len(split_always) == 4
        no_child_left()
        assert open_fds() == before

    def test_fork_fails(self, monkeypatch, split_always):
        g = torus_gem(4).graph
        counts, _, census = serial_answers(g)

        def refused():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", refused)
        before = open_fds()
        assert g.residue_counts() == counts
        assert pair_cycles(g) == census
        assert open_fds() == before


class TestNoFork:
    """Where forking is unsafe or impossible, the walk stays in process."""

    @pytest.fixture()
    def refuse_fork(self, monkeypatch):
        monkeypatch.setattr(core, "_SPLIT_VISITS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)

        def refused():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refused)

    def answers(self, g):
        return g.residue_counts(), g.face_counts(), pair_cycles(g)

    def test_second_thread_alive(self, refuse_fork):
        g = torus_gem(4).graph
        counts, faces, census = serial_answers(g)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert self.answers(g) == (counts, faces, census)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_fork_missing(self, monkeypatch, refuse_fork):
        g = torus_gem(4).graph
        want = serial_answers(g)
        monkeypatch.delattr(os, "fork")
        assert self.answers(g) == want

    def test_one_usable_cpu(self, monkeypatch, refuse_fork):
        g = torus_gem(4).graph
        want = serial_answers(g)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert self.answers(g) == want


class TestSpareCpus:
    """Without os.sched_getaffinity the spare CPUs come from os.cpu_count."""

    @pytest.mark.parametrize("cpus, spare", [(3, 2), (None, 0)])
    def test_cpu_count_fallback(self, monkeypatch, cpus, spare):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert core._spare_cpus() == spare
