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

Every builder checks its vertex count against the graph cap before it fills an
adjacency matrix, through ``check_graph_cap``, the one place that words the error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as cartesian

import numpy as np

from .rings import (
    CapExceededError,
    DEFAULT_ELEMENT_CAP,
    Element,
    FiniteRing,
    factorize,
    format_element,
    format_elements,
    is_prime,
    shared_support,
)

DEFAULT_GRAPH_VERTEX_CAP = 4096


def check_graph_cap(count: int, vertex_cap: int) -> None:
    """Raise the graph-cap error when a graph would have more vertices than the
    cap: one wording for every graph, divisor graphs included."""
    if count > vertex_cap:
        rule = f"graph cap {vertex_cap}"
        raise CapExceededError(f"{count} vertices above {rule}", rule)


def check_valuation_cap(exponents, vertex_cap: int) -> None:
    """The graph-cap check of the valuation graph of prod Z_{p_j^e_j}, whose
    vertices are the prod (e_j + 1) - 2 tuples other than all-0 and all-e; for
    Z_n, the divisors d of n with 1 < d < n."""
    check_graph_cap(math.prod(e + 1 for e in exponents) - 2, vertex_cap)


@dataclass(frozen=True)
class VertexClass:
    """One annihilator class: canonical representative, its position as key, size."""

    representative: Element
    key: int
    size: int

    @property
    def label(self) -> str:
        return format_element(self.representative)


class Graph:
    """Labeled simple undirected graph: one symmetric n x n boolean adjacency
    matrix ``adj`` with a false diagonal; every other view is derived from it."""

    def __init__(self, labels, edges, class_sizes=None):
        """edges is the adjacency matrix itself (a bool array, kept, not copied)
        or an iterable of (i, j) index pairs."""
        self.labels = tuple(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate vertex labels")
        if isinstance(edges, np.ndarray) and edges.dtype == bool:
            adj = edges
        else:
            pairs = np.array([(i, j) for i, j in edges], dtype=np.intp).reshape(-1, 2)
            if len(pairs) and not (0 <= pairs.min() and pairs.max() < n):
                raise ValueError(f"edge index outside 0..{n - 1}")
            adj = np.zeros((n, n), dtype=bool)
            adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = True
        if adj.shape != (n, n):
            raise ValueError(f"adjacency shape {adj.shape} for {n} vertices")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency matrix is not symmetric")
        loops = np.flatnonzero(adj.diagonal())
        if len(loops):
            raise ValueError(f"loop at vertex {loops[0]}")
        self.adj = adj
        self.class_sizes = (1,) * n if class_sizes is None else tuple(class_sizes)
        if class_sizes is not None:
            positive = all(isinstance(s, int) and s >= 1 for s in self.class_sizes)
            if len(self.class_sizes) != n or not positive:
                raise ValueError(f"class sizes must be {n} positive integers, one per vertex")

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    @cached_property
    def neighbors(self) -> list[list[int]]:
        """Ascending neighbor indices of each vertex."""
        ends = np.cumsum(np.count_nonzero(self.adj, axis=1)).tolist()
        cols = np.nonzero(self.adj)[1].tolist()
        return [cols[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (i, j) with i < j, sorted."""
        rows, cols = np.nonzero(np.triu(self.adj, 1))
        return list(zip(rows.tolist(), cols.tolist()))

    def degree_sequence(self) -> list[int]:
        return sorted(np.count_nonzero(self.adj, axis=1).tolist())

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


def _meet_graph(ring: FiniteRing, labels, positions, class_sizes=None) -> Graph:
    """Vertices at positions in elements(), adjacent iff their annihilators meet beyond 0."""
    adj = ring.ann_meet_matrix(positions)
    np.fill_diagonal(adj, False)
    return Graph(labels, adj, class_sizes)


def build_ia(
    ring: FiniteRing,
    cap: int | None = DEFAULT_ELEMENT_CAP,
    vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP,
) -> Graph:
    """Compressed annihilator-intersection graph of the ring."""
    classes = compress_classes(ring, cap)
    check_graph_cap(len(classes), vertex_cap)
    return _meet_graph(
        ring, [c.label for c in classes], [c.key for c in classes], [c.size for c in classes]
    )


def build_torsion(
    ring: FiniteRing,
    cap: int | None = DEFAULT_ELEMENT_CAP,
    vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP,
) -> Graph:
    """Uncompressed graph on Z*(R) with the same intersection adjacency.

    Adjacency is evaluated pairwise on the positions of the elements themselves,
    not via the class partition, so this build stays an independent object
    to compare the compressed graph against.
    """
    verts, at = ring.nonzero_zero_divisors_with_keys(cap)
    check_graph_cap(len(verts), vertex_cap)
    return _meet_graph(ring, format_elements(verts, ring.arity), at)


def build_total(
    ring: FiniteRing,
    cap: int | None = DEFAULT_ELEMENT_CAP,
    vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP,
) -> Graph:
    """Total graph: all elements, x adjacent to y iff x + y is a zero-divisor."""
    verts = ring.elements(cap)
    check_graph_cap(len(verts), vertex_cap)
    adj = np.empty((len(verts), len(verts)), dtype=bool)
    for start, block in ring.zero_divisor_sum_blocks(np.arange(len(verts))):
        adj[start : start + len(block)] = block
    np.fill_diagonal(adj, False)
    return Graph(format_elements(verts, ring.arity), adj)


# ---------------------------------------------------------------------------
# symbolic builders


def _valuation_graph(exponents, name) -> Graph:
    """Compressed graph of prod Z_{p_j^e_j} on its valuation tuples, adjacent iff
    their supports meet.  Vertices are sorted by name(v), an int or a str, and
    labeled str(name(v)); name must sort the all-0 and all-e tuples, which are
    not vertices, first and last."""
    named = sorted((name(v), v) for v in cartesian(*(range(e + 1) for e in exponents)))[1:-1]
    tuples = np.array([v for _, v in named], dtype=np.int64).reshape(len(named), len(exponents))
    adj = shared_support(tuples > 0)
    np.fill_diagonal(adj, False)
    return Graph([str(key) for key, _ in named], adj)


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
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if factorization[p] < 1:
            raise ValueError(f"exponent {factorization[p]} below 1 for prime {p}")
    check_valuation_cap(factorization.values(), vertex_cap)
    return _valuation_graph(
        [factorization[p] for p in primes],
        lambda v: math.prod(map(pow, primes, v)),
    )


def zn_symbolic_from_n(n: int, vertex_cap: int = DEFAULT_GRAPH_VERTEX_CAP) -> Graph:
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
    check_graph_cap(2**k - 2, vertex_cap)
    return _valuation_graph([1] * k, lambda v: "".join("10"[i] for i in v))


# ---------------------------------------------------------------------------
# serialization


def dot_rows(graph: Graph, name: str = "IA"):
    """DOT text in rows as they are rendered: the header, the sorted vertex lines,
    then each edge once in sorted label order, and the closing brace.

    Row a of the matrix permuted into label order holds, from column a + 1 on,
    ascending, the edges whose lesser label is the a-th; they make one row."""
    order = sorted(range(graph.vertex_count), key=graph.labels.__getitem__)
    quoted = [f'"{graph.labels[i]}"' for i in order]
    tails = [f"{q};\n" for q in quoted]
    yield f"graph {name} {{\n"
    yield from (f"  {tail}" for tail in tails)
    for a, (q, row) in enumerate(zip(quoted, graph.adj[np.ix_(order, order)])):
        ends = (np.flatnonzero(row[a + 1 :]) + (a + 1)).tolist()
        if ends:
            head = f"  {q} -- "
            yield head + head.join(map(tails.__getitem__, ends))
    yield "}\n"


def graph_to_dot(graph: Graph, name: str = "IA") -> str:
    """The whole DOT text of dot_rows as one string."""
    return "".join(dot_rows(graph, name))


def json_rows(graph: Graph, ring: str, graph_kind: str):
    """The text of json.dumps(graph_to_json_dict(...), indent=2) plus a newline,
    in rows as they are rendered: the header, the vertex objects, then one
    chunk per row a of the upper triangle, holding each edge [a, b] with b > a,
    ascending, and the closing brackets."""
    yield (
        f'{{\n  "ring": {json.dumps(ring)},\n'
        f'  "graph_kind": {json.dumps(graph_kind)},\n  "vertices": '
    )
    if graph.vertex_count:
        yield "[\n" + ",\n".join(
            f'    {{\n      "label": {json.dumps(lab)},\n      "class_size": {size}\n    }}'
            for lab, size in zip(graph.labels, graph.class_sizes)
        ) + "\n  ],\n  \"edges\": "
    else:
        yield '[],\n  "edges": '
    tails = [f"      {b}\n    ]" for b in range(graph.vertex_count)]
    lead = "[\n"
    for a, row in enumerate(graph.adj):
        ends = (np.flatnonzero(row[a + 1 :]) + (a + 1)).tolist()
        if ends:
            head = f"    [\n      {a},\n"
            yield lead + head + (",\n" + head).join(map(tails.__getitem__, ends))
            lead = ",\n"
    yield "[]\n}\n" if lead == "[\n" else "\n  ]\n}\n"


def graph_to_json_dict(graph: Graph, ring: str, graph_kind: str) -> dict:
    """The graph JSON payload; json_rows renders its text row by row."""
    return {
        "ring": ring,
        "graph_kind": graph_kind,
        "vertices": [
            {"label": lab, "class_size": size}
            for lab, size in zip(graph.labels, graph.class_sizes)
        ],
        "edges": np.argwhere(np.triu(graph.adj, 1)).tolist(),
    }
