"""Graph builders: compression, the three element graphs, symbolic modes, export."""

import itertools
import json
import math
import random

import numpy as np
import pytest

from iagraph.graphs import (
    Graph,
    build_ia,
    build_ia_domain_product,
    build_ia_zn_symbolic,
    build_torsion,
    build_total,
    compress_classes,
    graph_to_dot,
    graph_to_json_dict,
    json_rows,
    zn_symbolic_from_n,
)
from iagraph.invariants import is_isomorphic
from iagraph.rings import CapExceededError, Subring, factorize, format_element, product_ring
from iagraph.theorems import Caps, _RingContext, _run_checks, enumerate_product_specs

from conftest import (
    oracle_add,
    oracle_annihilator,
    oracle_zero_divisors,
    ring_elements,
    zero_divisor_set,
)


def edge_label_pairs(graph):
    return sorted(tuple(sorted(pair)) for pair in graph.edge_labels())


# ---------------------------------------------------------------------------
# compression


def test_compress_z12():
    classes = compress_classes(product_ring("Z12"))
    assert [c.representative for c in classes] == [(2,), (3,), (4,), (6,)]
    assert {c.label: c.size for c in classes} == {"2": 2, "3": 2, "4": 2, "6": 1}


def test_compress_field_empty():
    assert compress_classes(product_ring("Z7")) == []


def test_compress_representative_is_gcd():
    for n in (12, 16, 30, 36, 60):
        import math

        for c in compress_classes(product_ring(f"Z{n}")):
            rep = c.representative[0]
            assert rep == math.gcd(rep, n)
            assert n % rep == 0


# ---------------------------------------------------------------------------
# the compressed graph


def test_ia_z12_matches_known_figure():
    g = build_ia(product_ring("Z12"))
    assert g.labels == ("2", "3", "4", "6")
    assert edge_label_pairs(g) == [("2", "4"), ("2", "6"), ("3", "6"), ("4", "6")]


def test_ia_z3xz3_two_isolated_vertices():
    g = build_ia(product_ring("Z3xZ3"))
    assert g.labels == ("(0,1)", "(1,0)")
    assert g.edge_count == 0


def test_ia_z4xz4_full_adjacency():
    g = build_ia(product_ring("Z4xZ4"))
    assert g.vertex_count == 7
    assert g.edge_count == 17
    expected = [
        ("(0,1)", "(0,2)"),
        ("(0,1)", "(2,0)"),
        ("(0,1)", "(2,1)"),
        ("(0,1)", "(2,2)"),
        ("(0,2)", "(1,0)"),
        ("(0,2)", "(1,2)"),
        ("(0,2)", "(2,0)"),
        ("(0,2)", "(2,1)"),
        ("(0,2)", "(2,2)"),
        ("(1,0)", "(1,2)"),
        ("(1,0)", "(2,0)"),
        ("(1,0)", "(2,2)"),
        ("(1,2)", "(2,0)"),
        ("(1,2)", "(2,2)"),
        ("(2,0)", "(2,1)"),
        ("(2,0)", "(2,2)"),
        ("(2,1)", "(2,2)"),
    ]
    assert edge_label_pairs(g) == expected


def test_ia_prime_power_complete():
    # Z_{p^m} compresses to the complete graph on m-1 divisor classes
    for p, m in ((2, 5), (3, 3), (5, 2)):
        g = build_ia(product_ring(f"Z{p ** m}"))
        v = g.vertex_count
        assert v == m - 1
        assert g.edge_count == v * (v - 1) // 2


def test_ia_edges_from_raw_annihilators(small_ring_ids):
    """Adjacency agrees with literal annihilator-set intersection."""
    for rid in small_ring_ids:
        ring = product_ring(rid)
        mods = ring.spec.factors
        zero = ring.zero
        g = build_ia(ring)
        classes = compress_classes(ring)
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                a = oracle_annihilator(mods, classes[i].representative)
                b = oracle_annihilator(mods, classes[j].representative)
                assert g.adj[i, j] == ((a & b) != {zero}), (rid, i, j)


def test_ia_representative_independence(small_ring_ids):
    """Rebuilding adjacency from random representatives changes nothing."""
    rng = random.Random(7)
    for rid in small_ring_ids:
        ring = product_ring(rid)
        mods = ring.spec.factors
        zero = ring.zero
        g = build_ia(ring)
        raw = ring.annihilator_classes()
        for _ in range(3):
            reps = [rng.choice(members) for _, members in raw]
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    a = oracle_annihilator(mods, reps[i])
                    b = oracle_annihilator(mods, reps[j])
                    assert g.adj[i, j] == ((a & b) != {zero}), (rid, i, j)


def test_ia_vertex_count_equals_class_count(small_ring_ids):
    for rid in small_ring_ids:
        ring = product_ring(rid)
        assert build_ia(ring).vertex_count == len(compress_classes(ring))


# ---------------------------------------------------------------------------
# torsion graph


def test_torsion_z4_single_vertex():
    g = build_torsion(product_ring("Z4"))
    assert g.labels == ("2",)
    assert g.edge_count == 0


def test_torsion_z12():
    g = build_torsion(product_ring("Z12"))
    assert g.vertex_count == 7
    assert g.adj[g.labels.index("2"), g.labels.index("10")]
    assert not g.adj[g.labels.index("2"), g.labels.index("3")]


def test_torsion_z3xz3_two_disjoint_edges():
    g = build_torsion(product_ring("Z3xZ3"))
    assert g.vertex_count == 4
    assert edge_label_pairs(g) == [("(0,1)", "(0,2)"), ("(1,0)", "(2,0)")]


def test_torsion_matches_brute_force(small_ring_ids):
    for rid in small_ring_ids:
        ring = product_ring(rid)
        mods = ring.spec.factors
        zero = ring.zero
        g = build_torsion(ring)
        verts = sorted(x for x in oracle_zero_divisors(mods) if x != zero)
        assert g.vertex_count == len(verts)
        for i, x in enumerate(verts):
            for j in range(i + 1, len(verts)):
                brute = (
                    oracle_annihilator(mods, x) & oracle_annihilator(mods, verts[j])
                ) != {zero}
                assert g.adj[i, j] == brute, (rid, x, verts[j])


def test_torsion_on_subrings_matches_annihilator_sets(generated_subrings):
    """Subring keys are positions into the zero-product matrix; each pair is
    checked against the two annihilators computed row by row."""
    for sub in generated_subrings:
        g = build_torsion(sub)
        zero = sub.zero
        verts = sorted(x for x in zero_divisor_set(sub) if x != zero)
        assert g.labels == tuple(format_element(x) for x in verts), sub
        anns = [sub.annihilator_set(x) for x in verts]
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                assert g.adj[i, j] == ((anns[i] & anns[j]) != {zero}), (sub, i, j)


def test_whole_ring_subring_graph_matches_ring_graph():
    """T2.subring reads R's own graph when the S it generates is the ring
    itself.  With 1 among the generators it is, on every zn and products ring
    of order at most 120, and R as a whole-ring Subring has the closed-form
    graph label for label.  So are its Z(R) and its torsion graph: the
    inherited zero-product mask and positional keys against ProductRing's key
    forms."""
    specs = [f"Z{n}" for n in range(2, 121)]
    specs += [spec.ring_id() for spec in enumerate_product_specs(120, 3)]
    for rid in specs:
        ring = product_ring(rid)
        reps = [members[0] for _, members in ring.annihilator_classes()]
        assert ring.subring_generated([ring.one, *reps]) is ring, rid
        sub = Subring(ring, frozenset(ring.elements()))
        sub.validate_closure()
        ia, ia_sub = build_ia(ring), build_ia(sub)
        assert ia_sub.labels == ia.labels, rid
        assert np.array_equal(ia_sub.adj, ia.adj), rid
        assert zero_divisor_set(sub) == zero_divisor_set(ring), rid
        tor, tor_sub = build_torsion(ring), build_torsion(sub)
        assert tor_sub.labels == tor.labels, rid
        assert np.array_equal(tor_sub.adj, tor.adj), rid


def test_torsion_collapse_reproduces_compressed_graph(small_ring_ids):
    """Quotienting the torsion graph by the class partition gives back IA."""
    for rid in small_ring_ids:
        ring = product_ring(rid)
        g = build_ia(ring)
        tor = build_torsion(ring)
        raw = ring.annihilator_classes()
        index_of = {}
        for ci, (_, members) in enumerate(raw):
            for x in members:
                index_of[tor.labels.index(_fmt(x))] = ci
        for i in range(tor.vertex_count):
            for j in range(i + 1, tor.vertex_count):
                ci, cj = index_of[i], index_of[j]
                if ci == cj:
                    assert tor.adj[i, j], (rid, i, j)  # same class: always adjacent
                else:
                    assert tor.adj[i, j] == g.adj[ci, cj], (rid, i, j)


def _fmt(x):
    from iagraph.rings import format_element

    return format_element(x)


# ---------------------------------------------------------------------------
# total graph


def test_total_z6_example():
    g = build_total(product_ring("Z6"))
    assert g.adj[g.labels.index("4"), g.labels.index("5")]


def test_total_zero_row(small_ring_ids):
    """0 is adjacent to exactly the nonzero zero-divisors."""
    for rid in small_ring_ids[:8]:
        ring = product_ring(rid)
        g = build_total(ring)
        zset = zero_divisor_set(ring)
        zi = g.labels.index(_fmt(ring.zero))
        for x in ring.elements():
            if x == ring.zero:
                continue
            assert g.adj[zi, g.labels.index(_fmt(x))] == (x in zset), (rid, x)


def test_total_z8_splits_into_two_components():
    g = build_total(product_ring("Z8"))
    comp = _component_labels(g, g.labels.index("0"))
    assert comp == {"0", "2", "4", "6"}
    comp2 = _component_labels(g, g.labels.index("1"))
    assert comp2 == {"1", "3", "5", "7"}


def _component_labels(g, start):
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.neighbors[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return {g.labels[i] for i in seen}


# ---------------------------------------------------------------------------
# symbolic builders


def test_symbolic_z12_matches_figure():
    g = build_ia_zn_symbolic({2: 2, 3: 1})
    assert g.labels == ("2", "3", "4", "6")
    assert edge_label_pairs(g) == [("2", "4"), ("2", "6"), ("3", "6"), ("4", "6")]


def test_symbolic_three_distinct_primes():
    g = build_ia_zn_symbolic({2: 1, 3: 1, 5: 1})
    assert g.vertex_count == 6
    assert g.edge_count == 9


def test_symbolic_prime_power_complete():
    for p, m in ((2, 4), (3, 5), (7, 2)):
        g = build_ia_zn_symbolic({p: m})
        v = g.vertex_count
        assert v == m - 1
        assert g.edge_count == v * (v - 1) // 2


def test_symbolic_rejects_bad_input():
    with pytest.raises(ValueError):
        build_ia_zn_symbolic({})
    for p in (4, 1, 0, 9, 1001):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            build_ia_zn_symbolic({p: 1})
    with pytest.raises(ValueError, match="exponent 0 below 1 for prime 2"):
        build_ia_zn_symbolic({2: 0})


def test_symbolic_equals_brute_small_range():
    for n in range(2, 260):
        sym = zn_symbolic_from_n(n)
        brute = build_ia(product_ring(f"Z{n}"))
        assert set(sym.labels) == set(brute.labels), n
        assert sym.edge_labels() == brute.edge_labels(), n


# The Python pair loops the two symbolic builders used before they became
# label renderings of one valuation-tuple core, kept as references.


def reference_zn_symbolic(factorization):
    n = math.prod(p**e for p, e in factorization.items())
    ds = [1]
    for p, e in sorted(factorization.items()):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    verts = sorted(d for d in ds if 1 < d < n)
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if math.gcd(verts[i], verts[j]) != 1
    ]
    return [str(d) for d in verts], edges


def reference_domain_product(k):
    verts = sorted(v for v in itertools.product((0, 1), repeat=k) if 0 < sum(v) < k)
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if any(a == 0 and b == 0 for a, b in zip(verts[i], verts[j]))
    ]
    return ["".join(map(str, v)) for v in verts], edges


def assert_matches_reference(graph, reference):
    labels, edges = reference
    assert graph.labels == tuple(labels)
    assert graph.edges() == edges


@pytest.mark.parametrize("k", range(2, 10))
def test_domain_product_matches_pair_loop(k):
    assert_matches_reference(build_ia_domain_product(k), reference_domain_product(k))


def test_zn_symbolic_matches_pair_loop():
    for n in range(2, 3001):
        fac = dict(factorize(n))
        assert_matches_reference(build_ia_zn_symbolic(fac), reference_zn_symbolic(fac))
    fac = {2: 5, 3: 3, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1}  # 766 divisor vertices
    graph = build_ia_zn_symbolic(fac)
    assert graph.vertex_count == 766
    assert_matches_reference(graph, reference_zn_symbolic(fac))


def test_zn_symbolic_matches_pair_loop_on_random_factorizations():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    @st.composite
    def factorizations(draw):
        """At most 300 vertices: the divisor count tau(n) stays at most 302."""
        fac, tau = {}, 1
        for p in draw(st.lists(st.sampled_from(primes), min_size=1, max_size=6, unique=True)):
            top = min(6, 302 // tau - 1)
            if top < 1:
                break
            fac[p] = draw(st.integers(1, top))
            tau *= fac[p] + 1
        return fac

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(factorizations())
    def check(fac):
        assert_matches_reference(build_ia_zn_symbolic(fac), reference_zn_symbolic(fac))

    check()


def test_domain_product_k2():
    g = build_ia_domain_product(2)
    assert g.labels == ("01", "10")
    assert g.edge_count == 0


def test_domain_product_k3_matches_figure():
    g = build_ia_domain_product(3)
    assert g.vertex_count == 6
    expected = [
        ("001", "010"),
        ("001", "011"),
        ("001", "100"),
        ("001", "101"),
        ("010", "011"),
        ("010", "100"),
        ("010", "110"),
        ("100", "101"),
        ("100", "110"),
    ]
    assert edge_label_pairs(g) == expected


def test_domain_product_isomorphic_to_prime_fields():
    g = build_ia_domain_product(3)
    h = build_ia(product_ring("Z2xZ3xZ5"))
    ok, mapping = is_isomorphic(g, h)
    assert ok
    assert mapping["011"] == "(0,1,1)"  # supports line up with representative patterns


def test_domain_product_rejects_small_k():
    with pytest.raises(ValueError):
        build_ia_domain_product(1)


# ---------------------------------------------------------------------------
# graph type basics and caps


def test_graph_rejects_loops_and_duplicate_labels():
    with pytest.raises(ValueError):
        Graph(labels=["a", "b"], edges=[(0, 0)])
    with pytest.raises(ValueError):
        Graph(labels=["a", "a"], edges=[])
    for bad in ([(0, 2)], [(-1, 0)], [(0, 1, 1)]):
        with pytest.raises(ValueError):
            Graph(labels=["a", "b"], edges=bad)


def test_graph_edges_sorted_and_deduped():
    g = Graph(labels=["a", "b", "c"], edges=[(1, 0), (0, 1), (2, 1)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.edge_count == 2
    assert g.degree_sequence() == [1, 1, 2]


def test_vertex_caps():
    with pytest.raises(CapExceededError):
        build_ia_zn_symbolic({2: 9}, vertex_cap=4)
    with pytest.raises(CapExceededError):
        build_ia_domain_product(5, vertex_cap=16)
    with pytest.raises(CapExceededError):
        build_ia(product_ring("Z7000"))


# ---------------------------------------------------------------------------
# embedding of the compressed graph in the total graph


def test_every_compressed_edge_lifts_to_total(small_ring_ids):
    for rid in small_ring_ids[:10]:
        ring = product_ring(rid)
        g = build_ia(ring)
        total = build_total(ring)
        raw = ring.annihilator_classes()
        for i, j in g.edges():
            for x in raw[i][1]:
                for y in raw[j][1]:
                    at = total.labels.index(_fmt(x)), total.labels.index(_fmt(y))
                    assert total.adj[at], (rid, x, y)


# ---------------------------------------------------------------------------
# differential: the block sum scan against the plain loops it replaced


def loop_total_edges(ring):
    verts = list(ring.elements())
    zset = zero_divisor_set(ring)
    mods = ring.spec.factors
    return [
        (i, j)
        for i, x in enumerate(verts)
        for j in range(i + 1, len(verts))
        if oracle_add(mods, x, verts[j]) in zset
    ]


def loop_first_sum_outside(ring, xs, ys):
    zset = zero_divisor_set(ring)
    for x in xs:
        for y in ys:
            if oracle_add(ring.spec.factors, x, y) not in zset:
                return x, y
    return None


def loop_embed_witness(ring, g=None):
    """The T2.embed triple loop over the edges of g (the compressed graph by
    default) and the members of their classes."""
    g = build_ia(ring) if g is None else g
    raw = ring.annihilator_classes()
    for i, j in g.edges():
        pair = loop_first_sum_outside(ring, raw[i][1], raw[j][1])
        if pair is not None:
            x, y = pair
            return {
                "edge": [g.labels[i], g.labels[j]],
                "members": [format_element(x), format_element(y)],
                "sum": format_element(oracle_add(ring.spec.factors, x, y)),
            }
    return None


def test_total_matches_pair_loop(small_ring_ids, generated_subrings):
    rings = [product_ring(rid) for rid in small_ring_ids] + generated_subrings
    for ring in rings + [product_ring("Z512")]:
        g = build_total(ring)
        assert g.labels == tuple(format_element(x) for x in ring.elements())
        assert g.edges() == loop_total_edges(ring), ring


def test_sum_scan_matches_loops(small_ring_ids, generated_subrings, monkeypatch):
    """The sum scan over the members of every pair of classes, edges or not, in
    blocks of at most 7 pairs, against the pair loop; and the ideal witness, the
    scan's first hit over Z(R), against the loop's first pair."""
    monkeypatch.setattr("iagraph.rings._BLOCK_PAIRS", 7)
    for ring in [product_ring(rid) for rid in small_ring_ids] + generated_subrings:
        mods, zset = ring.spec.factors, zero_divisor_set(ring)
        raw = ring.annihilator_classes()
        position = {x: i for i, x in enumerate(ring.elements())}
        for (_, xs), (_, ys) in itertools.combinations(raw, 2):
            members = xs + ys
            at = np.array([position[x] for x in members])
            starts, blocks = zip(*ring.zero_divisor_sum_blocks(at))
            assert list(starts) == np.cumsum([0] + [len(b) for b in blocks[:-1]]).tolist()
            expected = [[oracle_add(mods, x, y) in zset for y in members] for x in members]
            assert np.concatenate(blocks).tolist() == expected, (ring, xs, ys)
        zs = sorted(zset)
        assert ring.zero_divisor_ideal_witness() == loop_first_sum_outside(ring, zs, zs), ring


def test_embed_check_matches_triple_loop(small_ring_ids, generated_subrings):
    caps = Caps(total=4096)
    rings = [product_ring(rid) for rid in small_ring_ids] + generated_subrings
    for ring in rings + [product_ring("Z4096")]:
        check = _run_checks(_RingContext(ring.spec.factors, caps, ring), ("T2.embed",)).checks[0]
        assert check.witness == loop_embed_witness(ring), ring


@pytest.mark.parametrize("block_pairs", [None, 50])
def test_embed_witness_matches_loop_on_forced_graphs(
    small_ring_ids, generated_subrings, block_pairs, monkeypatch
):
    """No real ring fails T2.embed, so the check runs on other graphs over the
    same classes: the complete graph, then that graph less each witness edge in
    turn, so that witnesses occur on later and later edges.  Blocks of 50 pairs
    split the scan inside classes, so hits from many blocks are compared."""
    if block_pairs:
        monkeypatch.setattr("iagraph.rings._BLOCK_PAIRS", block_pairs)
    caps = Caps(total=4096)
    rings = [product_ring(rid) for rid in small_ring_ids] + generated_subrings
    witnesses = 0
    for ring in rings + [product_ring("Z4096")]:
        ia = build_ia(ring)
        edges = list(itertools.combinations(range(ia.vertex_count), 2))
        while True:
            ctx = _RingContext(ring.spec.factors, caps, ring)
            ctx.ia = Graph(ia.labels, edges, ia.class_sizes)
            witness = _run_checks(ctx, ("T2.embed",)).checks[0].witness
            assert witness == loop_embed_witness(ring, ctx.ia), (ring, edges)
            if witness is None:
                break
            witnesses += 1
            edges.remove(tuple(ia.labels.index(label) for label in witness["edge"]))
    assert witnesses >= 100, witnesses


# ---------------------------------------------------------------------------
# serialization


EXPECTED_Z12_DOT = """graph IA {
  "2";
  "3";
  "4";
  "6";
  "2" -- "4";
  "2" -- "6";
  "3" -- "6";
  "4" -- "6";
}
"""


def test_dot_output_golden():
    g = build_ia(product_ring("Z12"))
    assert graph_to_dot(g) == EXPECTED_Z12_DOT


def test_dot_isolated_vertices_present():
    g = build_ia(product_ring("Z3xZ3"))
    text = graph_to_dot(g)
    assert '"(0,1)";' in text and '"(1,0)";' in text
    assert "--" not in text


def test_dot_deterministic():
    a = graph_to_dot(build_ia(product_ring("Z4xZ4")))
    b = graph_to_dot(build_ia(product_ring("Z4xZ4")))
    assert a == b


def test_json_output_golden():
    g = build_ia(product_ring("Z12"))
    payload = graph_to_json_dict(g, "Z12", "ia")
    assert payload == {
        "ring": "Z12",
        "graph_kind": "ia",
        "vertices": [
            {"label": "2", "class_size": 2},
            {"label": "3", "class_size": 2},
            {"label": "4", "class_size": 2},
            {"label": "6", "class_size": 1},
        ],
        "edges": [[0, 2], [0, 3], [1, 3], [2, 3]],
    }
    json.dumps(payload)  # must be serializable as-is


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(build_ia(product_ring("Z2")), id="empty"),
        pytest.param(build_ia(product_ring("Z4")), id="single-vertex"),
        pytest.param(build_ia(product_ring("Z2xZ3")), id="edge-free"),
        pytest.param(build_ia(product_ring("Z12")), id="ia-Z12"),
        pytest.param(zn_symbolic_from_n(720), id="zn-symbolic-720"),
        pytest.param(build_torsion(product_ring("Z2xZ12")), id="torsion-Z2xZ12"),
        pytest.param(build_total(product_ring("Z2xZ8")), id="total-Z2xZ8"),
        pytest.param(build_ia_domain_product(6), id="domain-product-6"),
    ],
)
@pytest.mark.parametrize(
    "ring", ["R", 'a"b\\c', "Z\u00e9\u2124"], ids=["plain", "escaped", "non-ascii"]
)
def test_json_rows_match_json_dumps(graph, ring):
    """The rows join to the stdlib's indent=2 text, escapes and ensure_ascii included."""
    text = "".join(json_rows(graph, ring, "kind"))
    assert text == json.dumps(graph_to_json_dict(graph, ring, "kind"), indent=2) + "\n"


def test_json_rows_cover_the_shapes():
    """The graphs of test_json_rows_match_json_dumps have the shapes their ids name."""
    assert build_ia(product_ring("Z2")).vertex_count == 0
    assert build_ia(product_ring("Z4")).vertex_count == 1
    edge_free = build_ia(product_ring("Z2xZ3"))
    assert edge_free.vertex_count > 0 and edge_free.edge_count == 0


def sorted_pair_dot(graph, name="IA"):
    """DOT rendered the way it was before the matrix serializer: sorted labels,
    then the edges as sorted label pairs, sorted."""
    lines = [f"graph {name} {{"] + [f'  "{label}";' for label in sorted(graph.labels)]
    lines += [f'  "{a}" -- "{b}";' for a, b in edge_label_pairs(graph)]
    return "\n".join(lines + ["}"]) + "\n"


def test_serialization_matches_sorted_pair_rendering():
    """Label order differs from index order: "10" sorts before "2" in Z720's
    divisor labels, "(0,10)" before "(0,2)" in Z2xZ12."""
    graphs = [
        zn_symbolic_from_n(720),
        build_total(product_ring("Z2xZ8")),
        build_torsion(product_ring("Z4xZ4")),
        build_torsion(product_ring("Z2xZ12")),
        build_ia_domain_product(6),
    ]
    for graph in (graphs[0], graphs[3]):
        assert list(graph.labels) != sorted(graph.labels)
    for graph in graphs:
        assert graph.edge_count > 0
        assert graph_to_dot(graph, "G") == sorted_pair_dot(graph, "G")
        payload = graph_to_json_dict(graph, "R", "kind")
        assert payload["edges"] == sorted(
            sorted([graph.labels.index(a), graph.labels.index(b)])
            for a, b in edge_label_pairs(graph)
        )
        assert payload["vertices"] == [
            {"label": lab, "class_size": size} for lab, size in zip(graph.labels, graph.class_sizes)
        ]
