"""Shared fixtures: the catalogue graphs, built once per session."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gemkit
from gemkit import (ColoredGraph, DipoleSpec, canonical_signature,
                    find_dipoles, g1_prime, g2_prime, new_graph,
                    reduced_cover, s2xs1_standard, small_cover_gem,
                    t3_standard, torus_gem)
from gemkit.moves import _Workspace

from oracles import (flood_fill_bipartite, flood_fill_count,
                     per_subset_face_counts)


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


def disjoint_union(g, h):
    """g and h side by side, h's vertices shifted past g's."""
    shift = g.num_vertices
    return ColoredGraph([list(a) + [w + shift for w in b]
                         for a, b in zip(g.involutions, h.involutions)])


def make_rng(seed):
    return random.Random(seed)


def child_env():
    """This process's environment with PYTHONPATH starting at the directory
    that holds the imported package, so a child runs the code under test."""
    package_root = str(Path(gemkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, inherited] if inherited else [package_root]))


# the child of limited_calls: cap the address space, then time each call
_LIMITED_CHILD = """
import json, resource, sys, time
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import gemkit
out = []
for call in json.loads(sys.argv[1]):
    start = time.perf_counter()
    try:
        eval(call, vars(gemkit))
        kind, message = None, ""
    except Exception as err:
        kind, message = type(err).__name__, str(err)
    out.append([kind, message, time.perf_counter() - start])
print(json.dumps(out))
"""

# the child of limited_cli: cap the address space, then time each command
# line through the CLI's main, keeping its exit code and what it wrote to
# stderr, a traceback included
_LIMITED_CLI_CHILD = """
import contextlib, io, json, resource, sys, time, traceback
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gemkit.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    out.append([code, err.getvalue(), time.perf_counter() - start])
print(json.dumps(out))
"""


def _limited_child(script, rows, limit):
    pytest.importorskip("resource")
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(rows), str(limit)],
        capture_output=True, text=True, env=child_env(), timeout=60,
        check=True)
    return [tuple(row) for row in json.loads(done.stdout)]


def limited_calls(calls, limit=1 << 29):
    """Run each call, a Python expression over gemkit's public names, in one
    child process that caps its own address space at `limit` bytes before
    it imports gemkit, so a call that allocates without bound fails there
    and not on the host.  Returns [error type name or None, message,
    seconds] per call, in order."""
    return _limited_child(_LIMITED_CHILD, calls, limit)


def limited_cli(argvs, limit=1 << 29):
    """Run each argument list through gemkit.cli.main in one child process
    that caps its own address space as limited_calls does.  Returns [exit
    code or None for an escaped exception, stderr text, seconds] per
    argument list, in order."""
    return _limited_child(_LIMITED_CLI_CHILD, argvs, limit)


def oracle_invariants(graph):
    """(chi, bipartite, component count) by the flood-fill oracles."""
    chi = sum((-1) ** h * n
              for h, n in enumerate(per_subset_face_counts(graph)))
    return (chi, flood_fill_bipartite(graph),
            flood_fill_count(graph, range(graph.n_colors)))


def fuzz_moves(rng, graph, steps):
    """Seeded dipole moves on `graph` in one _Workspace; (insertions, cancels).

    Each step inserts a dipole at a live vertex, or cancels one of the
    inserted dipoles that find_dipoles lists.  After each compaction chi,
    bipartiteness and the component count must match the start, by gemkit
    and by the oracles.  At the end every inserted dipole still there is
    cancelled in reverse, which must give back the start's signature, and
    the start itself, since no vertex of the start was removed.
    """
    k = graph.n_colors
    want = oracle_invariants(graph)
    ws = _Workspace(graph)
    inserted = []  # (v1, v2, colors) under the workspace's ids
    cancels = 0

    def compact():
        out, survivors, _ = ws.compact()
        assert (out.euler_characteristic(), out.is_bipartite(),
                out.components().count) == want
        assert oracle_invariants(out) == want
        return out, survivors

    out, survivors = compact()
    for _ in range(steps):
        listed = []
        if inserted and rng.random() < 0.4:
            pending = set(inserted)
            listed = [spec for spec in find_dipoles(out)
                      if (survivors[spec.v1], survivors[spec.v2], spec.colors)
                      in pending]
        if listed:
            spec = rng.choice(listed)
            dipole = (survivors[spec.v1], survivors[spec.v2], spec.colors)
            ws.cancel_dipole(DipoleSpec(*dipole))
            inserted.remove(dipole)
            cancels += 1
        else:
            colors = frozenset(rng.sample(range(k), rng.randint(1, k - 1)))
            inserted.append((*ws.add_dipole(rng.choice(survivors), colors),
                             colors))
        out, survivors = compact()
    for dipole in reversed(inserted):
        ws.cancel_dipole(DipoleSpec(*dipole))
        out, survivors = compact()
    assert canonical_signature(out) == canonical_signature(graph)
    assert out == graph
    return steps - cancels, cancels
