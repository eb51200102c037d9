import pathlib
import random

import pytest

from gentlekit import (from_ribbon, load_gentle, random_marked_ribbon_graph,
                       short_vectors, to_ribbon)
from gentlekit.ribbon import _ribbon_from_ends

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# declaration order of arrows in these files is load bearing: it pins the
# half-edge orders and therefore every frozen value downstream
FIXTURE_NAMES = (
    "loop", "tree", "smallrow2", "nonpalin",
    "amiot0", "amiot1", "amiot2", "twosided", "sixvertex",
)


def fixture_text(name):
    return (FIXTURES / ("%s.quiver" % name)).read_text()


def load_fixture(name):
    return load_gentle(fixture_text(name))


def definite(m):
    """Is the symmetric integer matrix m positive definite?  short_vectors
    raises ValueError exactly when it is not."""
    try:
        short_vectors(m, 0)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="session")
def quivers():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def ribbons(quivers):
    return {name: to_ribbon(gq) for name, gq in quivers.items()}


@pytest.fixture(scope="session")
def random_pool():
    """500 random marked ribbon graphs plus their quivers, fixed seed."""
    rng = random.Random(20260814)
    pool = []
    kinds = ("any", "tree", "odd1cycle")
    for k in range(500):
        g = random_marked_ribbon_graph(rng, kind=kinds[k % 3])
        pool.append((g, from_ribbon(g)))
    return pool


@pytest.fixture(scope="session")
def genus_pool():
    """200 random marked ribbon graphs past genus 1, plus their quivers,
    fixed seed: a tree on 1-6 vertices and 3-6 extra edges, each vertex's
    slots shuffled.  random_pool's generator adds at most 3 extra edges to
    a tree, so its graphs have genus 0 or 1."""
    rng = random.Random(1)
    pool = []
    for _ in range(200):
        n = rng.randint(1, 6)
        ends = [(i, rng.randrange(i)) for i in range(1, n)]
        ends += [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(3, 6))]
        g = _ribbon_from_ends(rng, n, ends)
        pool.append((g, from_ribbon(g)))
    return pool
