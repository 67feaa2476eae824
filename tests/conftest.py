"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's fast paths: annihilators
come from double loops over the raw element universe, diameters from
Floyd-Warshall, girths from exhaustive cycle enumeration.  They exist to
cross-check the package, so they must stay dumb.
"""

import itertools

import pytest


def ring_elements(mods):
    return list(itertools.product(*[range(n) for n in mods]))


def oracle_mul(mods, x, y):
    return tuple(a * b % n for a, b, n in zip(x, y, mods))


def oracle_add(mods, x, y):
    return tuple((a + b) % n for a, b, n in zip(x, y, mods))


def oracle_annihilator(mods, x):
    zero = tuple(0 for _ in mods)
    return {r for r in ring_elements(mods) if oracle_mul(mods, r, x) == zero}


def oracle_zero_divisors(mods):
    """Z(R) with 0 included: x such that some nonzero y kills it, plus 0."""
    zero = tuple(0 for _ in mods)
    out = {zero}
    for x in ring_elements(mods):
        ann = oracle_annihilator(mods, x)
        if x != zero and len(ann) >= 2:
            out.add(x)
    return out


def zero_divisor_set(ring):
    """Z(R) with 0 included, as the library lists it (not an oracle)."""
    return {ring.zero, *ring.nonzero_zero_divisors_with_keys()[0]}


def oracle_classes(mods):
    """Partition of Z*(R) by (frozen) annihilator set, keyed by least member."""
    zero = tuple(0 for _ in mods)
    groups = {}
    for x in ring_elements(mods):
        if x == zero:
            continue
        ann = frozenset(oracle_annihilator(mods, x))
        if ann == {zero}:
            continue
        groups.setdefault(ann, []).append(x)
    return {min(members): (ann, sorted(members)) for ann, members in groups.items()}


def floyd_warshall_diameter(graph):
    """Exact diameter via all-pairs relaxation; None when disconnected."""
    n = graph.vertex_count
    if n <= 1:
        return 0
    inf = n + 1
    dist = [[0 if i == j else (1 if graph.adj[i, j] else inf) for j in range(n)] for i in range(n)]
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    best = max(max(row) for row in dist)
    return None if best >= inf else best


def enumerated_girth(graph):
    """Shortest cycle by exhaustive DFS over simple paths.

    Each cycle is rooted at its least vertex; paths are pruned once they
    reach the best length found so far, which keeps the enumeration exact.
    """
    n = graph.vertex_count
    nbrs = graph.neighbors
    best = [None]

    def dfs(start, current, visited, length):
        for w in nbrs[current]:
            if w == start and length >= 3:
                if best[0] is None or length < best[0]:
                    best[0] = length
            elif w > start and w not in visited:
                if best[0] is None or length + 1 < best[0]:
                    visited.add(w)
                    dfs(start, w, visited, length + 1)
                    visited.remove(w)

    for s in range(n):
        dfs(s, s, {s}, 1)
    return best[0]


@pytest.fixture(scope="session")
def small_ring_ids():
    return (
        "Z4",
        "Z6",
        "Z8",
        "Z9",
        "Z12",
        "Z16",
        "Z24",
        "Z30",
        "Z2xZ2",
        "Z2xZ4",
        "Z3xZ3",
        "Z4xZ4",
        "Z2xZ3xZ5",
        "Z4xZ6",
        "Z2xZ9",
    )


@pytest.fixture(scope="session")
def generated_subrings():
    """Subrings of Z4xZ4, Z2xZ3xZ5 and Z8xZ2: each ring as a whole-ring Subring,
    whose zero-product answers the tests hold against the product ring's closed
    forms, and the subrings generated by single elements with and without 1.
    subring_generated returns the ring itself when the result fills it; the
    fixture keeps the whole-ring Subring in its place."""
    from iagraph.rings import Subring, product_ring

    out = []
    for rid in ("Z4xZ4", "Z2xZ3xZ5", "Z8xZ2"):
        ring = product_ring(rid)
        whole = Subring(ring, frozenset(ring.elements()))
        out.append(whole)
        for x in ring.elements()[1::3]:
            for gens in ([x], [ring.one, x]):
                sub = ring.subring_generated(gens)
                out.append(whole if sub is ring else sub)
    return out
