"""Exact-size input generator for the benchmark.

gentlekit's own ``random_marked_ribbon_graph`` only caps the number of
vertices, so it cannot build a ladder of sizes.  The graphs here have an
exact number of vertices and edges.  For quiver workloads the degree
sequence is also fixed (as even as possible): the number of reduced walks
grows exponentially with vertex degrees, and with free degrees two seeds
of the same size differ tenfold in work.  Only the tree shape, the pairing
of the extra edges and the half-edge orders (the marking) come from the
seed.

Everything in this module is stdlib only; the gentlekit classes it needs
are passed in, so importing it does not import gentlekit.
"""

import heapq


def even_degrees(nv, ne):
    """Degrees summing to 2*ne, as even as possible, largest first."""
    base, extra = divmod(2 * ne, nv)
    if base < 1:
        raise ValueError("%d edges cannot connect %d vertices" % (ne, nv))
    return [base + 1] * extra + [base] * (nv - extra)


def random_degrees(rng, nv, ne):
    """Degrees summing to 2*ne, each at least one, extra half-edges spread
    uniformly at random."""
    deg = [1] * nv
    for _ in range(2 * ne - nv):
        deg[rng.randrange(nv)] += 1
    return deg


def connected_edges(rng, degrees):
    """Edge list (u, v) of a connected multigraph with these degrees.

    A spanning tree with a random Pruefer sequence takes one to
    degree-1 half-edges per vertex; the rest are paired at random, so loops
    and parallel edges occur.
    """
    nv = len(degrees)
    ne2 = sum(degrees)
    if nv < 2 or ne2 % 2 or ne2 < 2 * (nv - 1) or min(degrees) < 1:
        raise ValueError("degree sequence %r has no connected realisation"
                         % (degrees,))
    tree = [1] * nv
    spare = [d - 1 for d in degrees]
    holders = [i for i in range(nv) for _ in range(spare[i])]
    rng.shuffle(holders)
    for i in holders[:nv - 2]:
        tree[i] += 1
        spare[i] -= 1
    pruefer = [i for i in range(nv) for _ in range(tree[i] - 1)]
    rng.shuffle(pruefer)
    left = tree[:]
    leaves = [i for i in range(nv) if left[i] == 1]
    heapq.heapify(leaves)
    ends = []
    for p in pruefer:
        leaf = heapq.heappop(leaves)
        ends.append((leaf, p))
        left[p] -= 1
        if left[p] == 1:
            heapq.heappush(leaves, p)
    ends.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    stubs = [i for i in range(nv) for _ in range(spare[i])]
    rng.shuffle(stubs)
    ends += [(stubs[k], stubs[k + 1]) for k in range(0, len(stubs), 2)]
    return ends


def cycle_edges(rng, nv, length):
    """One cycle of the given length (1 is a loop, 2 a double edge) on
    vertices 0..length-1, with a random tree hanging off it; length 0
    gives a random tree."""
    if length == 1:
        ends = [(0, 0)]
    else:
        ends = [(i, (i + 1) % length) for i in range(length)]
    return ends + [(i, rng.randrange(i)) for i in range(max(length, 1), nv)]


def ribbon_graph(RibbonGraph, rng, nv, ends):
    """Marked ribbon graph on the edge list: each vertex's half-edges get a
    random linear order, edge ids are 1..E in list order."""
    slots = [[] for _ in range(nv)]
    for eid, (u, v) in enumerate(ends, start=1):
        slots[u].append((eid, 0))
        slots[v].append((eid, 1))
    for lst in slots:
        rng.shuffle(lst)
    where = {}
    for i, lst in enumerate(slots):
        for p, tag in enumerate(lst):
            where[tag] = (i, p)
    pairs = [(eid, where[(eid, 0)], where[(eid, 1)])
             for eid in range(1, len(ends) + 1)]
    return RibbonGraph(["v%d" % i for i in range(nv)],
                       [len(lst) for lst in slots], pairs)


def newline_form(text):
    """The same quiver DSL with newlines instead of ';' terminators, the
    form README and PAPER.md document as equivalent."""
    return "".join(line.rstrip().rstrip(";") + "\n"
                   for line in text.splitlines())
