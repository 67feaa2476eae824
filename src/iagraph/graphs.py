"""Graph builders over finite rings.

Three element-level graphs share one adjacency idea:

* the compressed graph: vertices are the annihilator classes of the
  nonzero zero-divisors, two classes adjacent iff their annihilators meet
  beyond 0 (representative choice provably does not matter);
* the torsion graph: same adjacency but on the uncompressed elements;
* the total graph: vertices are all ring elements, x adjacent to y iff
  x + y is a zero-divisor.

Two symbolic builders scale past element enumeration, as label renderings
of one valuation core: by CRT the classes of prod Z_{p_j^e_j} are the tuples
0 <= v_j <= e_j other than all-0 and all-e, adjacent iff some v_j, w_j >= 1.
The divisor form of Z_n labels v by prod p_j^v_j (adjacency is gcd != 1); a
product of k integral domains (every e_j = 1) by its support pattern 1 - v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as cartesian

import numpy as np

from .rings import (
    CapExceededError,
    DEFAULT_ELEMENT_CAP,
    Element,
    FiniteRing,
    format_element,
)

DEFAULT_GRAPH_VERTEX_CAP = 4096


@dataclass(frozen=True)
class VertexClass:
    """One annihilator class: canonical representative, opaque key, size."""

    representative: Element
    key: object
    size: int

    @property
    def label(self) -> str:
        return format_element(self.representative)


class Graph:
    """Labeled simple undirected graph with adjacency sets."""

    __slots__ = ("labels", "neighbors", "class_sizes", "_label_index")

    def __init__(self, labels, edges, class_sizes=None):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        nbrs = [set() for _ in labels]
        for i, j in edges:
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            nbrs[i].add(j)
            nbrs[j].add(i)
        self.labels = labels
        self.neighbors = tuple(frozenset(s) for s in nbrs)
        if class_sizes is None:
            class_sizes = tuple(1 for _ in labels)
        self.class_sizes = tuple(class_sizes)
        self._label_index = None

    @classmethod
    def from_neighbors(cls, labels, neighbor_sets, class_sizes=None) -> "Graph":
        """Construct from prebuilt symmetric neighbor sets (no edge scatter)."""
        graph = cls.__new__(cls)
        graph.labels = tuple(labels)
        if len(set(graph.labels)) != len(graph.labels):
            raise ValueError("duplicate vertex labels")
        graph.neighbors = tuple(frozenset(s) for s in neighbor_sets)
        for i, nbrs in enumerate(graph.neighbors):
            if i in nbrs:
                raise ValueError(f"loop at vertex {i}")
        if class_sizes is None:
            class_sizes = tuple(1 for _ in graph.labels)
        graph.class_sizes = tuple(class_sizes)
        graph._label_index = None
        return graph

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.neighbors) // 2

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (i, j) with i < j, sorted."""
        return sorted(
            (i, j) for i, nbrs in enumerate(self.neighbors) for j in nbrs if i < j
        )

    def degree_sequence(self) -> list[int]:
        return sorted(len(s) for s in self.neighbors)

    def index(self, label: str) -> int:
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index[label]

    def edge_labels(self) -> set[frozenset[str]]:
        return {frozenset((self.labels[i], self.labels[j])) for i, j in self.edges()}

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


# ---------------------------------------------------------------------------
# element-level builders


def compress_classes(
    ring: FiniteRing, cap: int | None = DEFAULT_ELEMENT_CAP
) -> list[VertexClass]:
    """Annihilator classes of Z*(R), sorted by canonical representative.

    The representative is the lexicographically least member, which for Z_n
    is gcd(x, n), i.e. the divisor representative.
    """
    return [
        VertexClass(representative=members[0], key=key, size=len(members))
        for key, members in ring.annihilator_classes(cap)
    ]


def _neighbor_lists(adj: np.ndarray) -> list[list[int]]:
    """Column indices of the true entries of a boolean matrix, row by row."""
    ends = np.cumsum(np.count_nonzero(adj, axis=1)).tolist()
    cols = np.nonzero(adj)[1].tolist()
    return [cols[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _meet_graph(ring: FiniteRing, labels, keys, class_sizes=None) -> Graph:
    """Vertices with annihilator keys, adjacent iff their annihilators meet beyond 0."""
    adj = ring.ann_meet_matrix(keys)
    np.fill_diagonal(adj, False)
    return Graph.from_neighbors(labels, _neighbor_lists(adj), class_sizes)


def build_ia(
    ring: FiniteRing,
    cap: int | None = DEFAULT_ELEMENT_CAP,
    vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP,
) -> Graph:
    """Compressed annihilator-intersection graph of the ring."""
    classes = compress_classes(ring, cap)
    if len(classes) > vertex_cap:
        raise CapExceededError(f"{len(classes)} vertices above graph cap {vertex_cap}")
    return _meet_graph(
        ring, [c.label for c in classes], [c.key for c in classes], [c.size for c in classes]
    )


def build_torsion(
    ring: FiniteRing,
    cap: int | None = DEFAULT_ELEMENT_CAP,
    vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP,
) -> Graph:
    """Uncompressed graph on Z*(R) with the same intersection adjacency.

    Adjacency is evaluated pairwise on the keys of the elements themselves,
    not via the class partition, so this build stays an independent object
    to compare the compressed graph against.
    """
    zero = ring.zero
    verts = sorted(x for x in ring.zero_divisor_set(cap) if x != zero)
    if len(verts) > vertex_cap:
        raise CapExceededError(f"{len(verts)} vertices above graph cap {vertex_cap}")
    return _meet_graph(ring, [format_element(x) for x in verts], ring.ann_keys(verts))


def build_total(
    ring: FiniteRing,
    cap: int | None = DEFAULT_ELEMENT_CAP,
    vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP,
) -> Graph:
    """Total graph: all elements, x adjacent to y iff x + y is a zero-divisor."""
    verts = list(ring.elements(cap))
    if len(verts) > vertex_cap:
        raise CapExceededError(f"{len(verts)} vertices above graph cap {vertex_cap}")
    neighbors = []
    for start, block in ring.zero_divisor_sum_blocks(verts, verts):
        rows = np.arange(len(block))
        block[rows, rows + start] = False  # no loops
        neighbors += _neighbor_lists(block)
    return Graph.from_neighbors([format_element(x) for x in verts], neighbors)


# ---------------------------------------------------------------------------
# symbolic builders


def _valuation_graph(exponents, name) -> Graph:
    """Compressed graph of prod Z_{p_j^e_j} on its valuation tuples, adjacency one
    boolean outer product per coordinate.  Vertices are sorted by name(v), an int
    or a str, and labeled str(name(v)); name must sort the all-0 and all-e tuples,
    which are not vertices, first and last."""
    named = sorted((name(v), v) for v in cartesian(*(range(e + 1) for e in exponents)))[1:-1]
    tuples = np.array([v for _, v in named], dtype=np.int64).reshape(len(named), len(exponents))
    adj = np.zeros((len(named), len(named)), dtype=bool)
    for column in (tuples > 0).T:
        adj |= np.logical_and.outer(column, column)
    np.fill_diagonal(adj, False)
    return Graph.from_neighbors([str(key) for key, _ in named], _neighbor_lists(adj))


def build_ia_zn_symbolic(
    factorization: dict[int, int],
    vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP,
) -> Graph:
    """Compressed graph of Z_n from the factorization of n, no enumeration.

    Vertices are the divisors d of n with 1 < d < n; d and e are adjacent
    iff gcd(d, e) != 1.
    """
    if not factorization:
        raise ValueError("empty factorization")
    primes = sorted(factorization)
    for p in primes:
        if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
            raise ValueError(f"{p} is not prime")
        if factorization[p] < 1:
            raise ValueError(f"exponent {factorization[p]} below 1 for prime {p}")
    n_vertices = math.prod(e + 1 for e in factorization.values()) - 2
    if n_vertices > vertex_cap:
        raise CapExceededError(
            f"{n_vertices} divisor vertices above graph cap {vertex_cap}"
        )
    return _valuation_graph(
        [factorization[p] for p in primes],
        lambda v: math.prod(map(pow, primes, v)),
    )


def zn_symbolic_from_n(n: int, vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP) -> Graph:
    from .rings import factorize

    return build_ia_zn_symbolic(dict(factorize(n)), vertex_cap)


def build_ia_domain_product(
    k: int, vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP
) -> Graph:
    """Compressed graph of a product of k integral domains.

    Every annihilator class is determined by the support of its elements,
    so vertices are the 0/1 support vectors other than all-zero and
    all-one.  Two supports are adjacent iff their union misses a
    coordinate: the complements then share a coordinate, which carries a
    common nonzero annihilator.
    """
    if k < 2:
        raise ValueError("need at least 2 factors")
    n_vertices = 2**k - 2
    if n_vertices > vertex_cap:
        raise CapExceededError(f"{n_vertices} vertices above graph cap {vertex_cap}")
    return _valuation_graph([1] * k, lambda v: "".join("10"[i] for i in v))


# ---------------------------------------------------------------------------
# serialization


def graph_to_dot(graph: Graph, name: str = "IA") -> str:
    """DOT text: sorted vertex lines, then each edge once in sorted label order."""
    lines = [f"graph {name} {{"]
    for label in sorted(graph.labels):
        lines.append(f'  "{label}";')
    edge_pairs = sorted(
        tuple(sorted((graph.labels[i], graph.labels[j]))) for i, j in graph.edges()
    )
    for a, b in edge_pairs:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(graph: Graph, ring: str, graph_kind: str) -> dict:
    return {
        "ring": ring,
        "graph_kind": graph_kind,
        "vertices": [
            {"label": lab, "class_size": size}
            for lab, size in zip(graph.labels, graph.class_sizes)
        ],
        "edges": [[i, j] for i, j in graph.edges()],
    }
