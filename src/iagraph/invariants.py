"""Graph invariants and isomorphism testing.

Every invariant reads the adjacency matrix.  Distances come from an exact
boolean matrix product: rows packed into 64-bit words, ANDed pairwise in
blocks of bounded size.  The diameter is the least k at which the reach
matrix (I | A)^k fills up, None when it stops growing first.  Girth tests
each edge for a common neighbor (a triangle, the common case) and only a
triangle-free graph falls back to BFS from every vertex.  Infinite values
are represented by ``None`` and serialized as the string ``"inf"``; no
floating point is involved anywhere.

Isomorphism is decided by backtracking over candidate vertex images, pruned
by degree and iterated neighborhood-degree refinement, with a configurable
vertex cap.  Equal adjacency matrices are accepted at once by the positional
mapping, the one the search would find.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .rings import CapExceededError

DEFAULT_ISO_VERTEX_CAP = 64


@dataclass(frozen=True)
class InvariantReport:
    vertex_count: int
    edge_count: int
    connected: bool
    diameter: int | None  # None encodes infinity
    girth: int | None  # None encodes infinity
    complete: bool
    totally_disconnected: bool
    bipartite_parts: tuple[int, int] | None
    degree_sequence: tuple[int, ...]
    degenerate: bool  # fewer than 2 vertices: diameter 0 by convention

    def to_json_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "connected": self.connected,
            "diameter": "inf" if self.diameter is None else self.diameter,
            "girth": "inf" if self.girth is None else self.girth,
            "complete": self.complete,
            "totally_disconnected": self.totally_disconnected,
            "bipartite_parts": list(self.bipartite_parts) if self.bipartite_parts else None,
            "degree_sequence": list(self.degree_sequence),
            "degenerate": self.degenerate,
        }

    @staticmethod
    def csv_header() -> list[str]:
        return [
            "vertex_count",
            "edge_count",
            "connected",
            "diameter",
            "girth",
            "complete",
            "totally_disconnected",
            "bipartite_m",
            "bipartite_n",
            "degree_sequence",
            "degenerate",
        ]

    def csv_row(self) -> list[str]:
        parts = self.bipartite_parts or ("", "")
        return [
            str(self.vertex_count),
            str(self.edge_count),
            str(self.connected).lower(),
            "inf" if self.diameter is None else str(self.diameter),
            "inf" if self.girth is None else str(self.girth),
            str(self.complete).lower(),
            str(self.totally_disconnected).lower(),
            str(parts[0]),
            str(parts[1]),
            " ".join(str(d) for d in self.degree_sequence),
            str(self.degenerate).lower(),
        ]


# ---------------------------------------------------------------------------
# connectivity / distance

# Bound on the bytes of one block of gathered word rows.
_PRODUCT_BLOCK_BYTES = 1 << 24


def _packed_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows of a boolean matrix as 64-bit words, zero-padded."""
    bits = np.packbits(matrix, axis=1)
    words = np.zeros((len(bits), -(-bits.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : bits.shape[1]] = bits
    return words.view(np.uint64)


def _rows_meet(a: np.ndarray, b: np.ndarray, mask: np.ndarray):
    """Yield (i, j, meet) over the true entries (i, j), i < j, of mask, in
    row-major blocks: meet[t] iff row i[t] of a and row j[t] of b share a true
    column.

    Blocks start at about 4096 mask entries and double, so a caller that stops
    at its first hit pays little when the hit is early; no block gathers more
    than about _PRODUCT_BLOCK_BYTES of words."""
    wa = _packed_rows(a)
    wb = wa if b is a else _packed_rows(b)
    n = max(1, mask.shape[1])
    cap = max(1, _PRODUCT_BLOCK_BYTES // (n * max(1, wa.shape[1]) * 8))
    lo, rows = 0, min(cap, -(-4096 // n))
    while lo < len(mask):
        i, j = np.nonzero(mask[lo : lo + rows])
        i += lo
        upper = j > i
        i, j = i[upper], j[upper]
        yield i, j, (wa[i] & wb[j]).any(axis=1)
        lo, rows = lo + rows, min(2 * rows, cap)


def _reach_step(reach: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The exact boolean product reach . step, for reach and step powers of one
    symmetric bool matrix with a true diagonal: the product is symmetric and
    contains reach, so only the false entries of reach above the diagonal are
    computed."""
    grown = reach.copy()
    for i, j, meet in _rows_meet(reach, step, ~reach):
        grown[i, j] = grown[j, i] = meet
    return grown


def diameter(graph: Graph) -> int | None:
    """Longest shortest-path distance; None when disconnected, 0 below 2 vertices.

    The reach matrix (I | A)^k marks the pairs at distance at most k.  Squaring
    finds the least power of two 2^t at which it fills up (or stops growing:
    disconnected); the diameter k in (2^(t-1), 2^t] is then lifted bit by bit,
    so at most 2 log2(n) products are taken."""
    n = graph.vertex_count
    if n <= 1:
        return 0
    powers = [graph.adj | np.eye(n, dtype=bool)]  # (I | A)^(2^i)
    while not powers[-1].all():
        square = _reach_step(powers[-1], powers[-1])
        if np.array_equal(square, powers[-1]):
            return None
        powers.append(square)
    if len(powers) == 1:
        return 1
    reach, k = powers[-2], 2 ** (len(powers) - 2)
    for i in range(len(powers) - 3, -1, -1):
        longer = _reach_step(reach, powers[i])
        if not longer.all():
            reach, k = longer, k + 2**i
    return k + 1


def girth(graph: Graph) -> int | None:
    """Length of a shortest cycle, None when acyclic."""
    n = graph.vertex_count
    # triangle scan first, edge by edge; almost every cyclic graph here has one
    if any(meet.any() for _, _, meet in _rows_meet(graph.adj, graph.adj, graph.adj)):
        return 3
    nbrs = graph.neighbors
    best: int | None = None
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                continue
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cand = dist[u] + dist[v] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def invariants(graph: Graph) -> InvariantReport:
    n = graph.vertex_count
    e = graph.edge_count
    diam = diameter(graph)
    return InvariantReport(
        vertex_count=n,
        edge_count=e,
        connected=diam is not None,
        diameter=diam,
        girth=girth(graph),
        complete=e == n * (n - 1) // 2,
        totally_disconnected=e == 0,
        bipartite_parts=is_complete_bipartite(graph),
        degree_sequence=tuple(graph.degree_sequence()),
        degenerate=n < 2,
    )


def is_complete_bipartite(graph: Graph) -> tuple[int, int] | None:
    """Part sizes (m, n) with m <= n iff the graph is exactly K^{m,n}: the
    neighbors of vertex 0 are one part, and then adjacency is part inequality."""
    n = graph.vertex_count
    if n < 2:
        return None
    side = graph.adj[0]
    b = int(np.count_nonzero(side))
    if b == 0 or not np.array_equal(graph.adj, side[:, None] ^ side[None, :]):
        return None
    return (min(n - b, b), max(n - b, b))


# ---------------------------------------------------------------------------
# isomorphism


def _refine_colors(neighbors, init):
    """Iterated neighborhood color refinement until stable."""
    colors = list(init)
    n = len(neighbors)
    while True:
        sig = [
            (colors[u], tuple(sorted(colors[v] for v in neighbors[u]))) for u in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def is_isomorphic(
    g: Graph, h: Graph, vertex_cap: int = DEFAULT_ISO_VERTEX_CAP
) -> tuple[bool, dict[str, str] | None]:
    """Exact isomorphism test; returns (verdict, label mapping when true)."""
    if g.vertex_count > vertex_cap or h.vertex_count > vertex_cap:
        raise CapExceededError(
            f"isomorphism cap {vertex_cap} exceeded "
            f"({g.vertex_count} vs {h.vertex_count} vertices)",
            f"isomorphism cap {vertex_cap}",
        )
    n = g.vertex_count
    if n != h.vertex_count or g.edge_count != h.edge_count:
        return False, None
    if g.degree_sequence() != h.degree_sequence():
        return False, None
    if np.array_equal(g.adj, h.adj):
        # the search below maps equal matrices by the identity: within a color
        # class it visits vertices in ascending index, each taking itself first
        return True, dict(zip(g.labels, h.labels))

    gn, hn = g.neighbors, h.neighbors
    ga, ha = g.adj.tolist(), h.adj.tolist()
    gc = _refine_colors(gn, [len(s) for s in gn])
    hc = _refine_colors(hn, [len(s) for s in hn])
    if sorted(gc) != sorted(hc):
        return False, None

    candidates = [[v for v in range(n) if hc[v] == gc[u]] for u in range(n)]
    order = sorted(range(n), key=lambda u: (len(candidates[u]), -len(gn[u])))
    mapping = [-1] * n
    used = [False] * n

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        u = order[pos]
        for v in candidates[u]:
            if used[v]:
                continue
            ok = True
            for w in order[:pos]:
                # edges and non-edges among mapped vertices must both carry over
                if ga[u][w] != ha[v][mapping[w]]:
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if backtrack(pos + 1):
                    return True
                used[v] = False
                mapping[u] = -1
        return False

    if backtrack(0):
        return True, {g.labels[u]: h.labels[mapping[u]] for u in range(n)}
    return False, None
