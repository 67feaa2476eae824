"""Known answers for every benchmark output, derived without iagraph.

The answers come from number theory and from deliberately dumb
constructions:

* every law holds, except ``L4.three-primes``, which fails exactly on the
  prime cubes (their compressed graph is one edge, girth infinite);
* the compressed graph of Z_{n1} x ... x Z_{nk} has prod tau(n_i) - 2
  vertices, which fixes where ``T3.diam3`` and ``T3.card2`` apply;
* skips follow the documented cap rules at the default caps;
* graph outputs are rebuilt from their definitions with numpy and
  serialized in the documented DOT and JSON formats;
* a brute-force ring oracle in the style of the test-suite conftest gives
  annihilator classes and adjacency for small rings.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np

from plan import PRODUCT_CHECKS, SYMBOLIC_CHECKS, sorted_factor_tuples, spec_text

ALL_CHECKS = (
    "T2.ideal",
    "T2.thann",
    "T2.goldie",
    "T2.subring",
    "T2.no-Kmn",
    "T2.embed",
    "T3.vnr-or-nil",
    "T3.girth",
    "T3.diam3",
    "T3.card2",
    "T3.torsion-complete",
    "T3.torsion-diam",
    "L4.gcd-adj",
    "L4.three-primes",
    "T5.two-domains",
    "T5.n-domains",
    "T5.artinian-local",
    "T5.mixed",
)

# Documented defaults (README "Caps").
CAP_TORSION = 300
CAP_TOTAL = 200
CAP_SUBRING = 500
CAP_ISO = 64


# ---------------------------------------------------------------------------
# number theory, by trial division and sieving


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def tau(n: int) -> int:
    return math.prod(e + 1 for e in factor(n).values())


def class_count(factors) -> int:
    """Vertices of the compressed graph: annihilator classes of Z*(R)."""
    return math.prod(tau(n) for n in factors) - 2


def _smallest_prime_factors(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _exponents_upto(limit: int):
    """(n, sorted exponent list) for 2 <= n <= limit."""
    spf = _smallest_prime_factors(limit)
    for n in range(2, limit + 1):
        exps = []
        m = n
        while m > 1:
            p, e = spf[m], 0
            while m % p == 0:
                m //= p
                e += 1
            exps.append(e)
        yield n, exps


# ---------------------------------------------------------------------------
# sweep aggregates


def _stats(applicable: int, passed: int, inapplicable: int, failures=()) -> dict:
    return {
        "applicable": applicable,
        "passed": passed,
        "failed": len(failures),
        "skipped": 0,
        "inapplicable": inapplicable,
        "failures": list(failures),
        "skip_reasons": {},
    }


def _aggregate(family: str, ring_count: int, stats: dict) -> dict:
    return {
        "family": family,
        "ring_count": ring_count,
        "total_failures": sum(s["failed"] for s in stats.values()),
        "checks": dict(sorted(stats.items())),
    }


def product_sweep(max_order: int) -> dict:
    """Aggregate of the product sweep over PRODUCT_CHECKS, timing excluded."""
    specs = sorted_factor_tuples(max_order, 2, 3)
    sizes = Counter(min(class_count(f), 3) for f in specs)  # 2, or 3 meaning > 2
    count = len(specs)
    stats = {cid: _stats(count, count, 0) for cid in ("T2.goldie", "T3.girth", "T2.no-Kmn")}
    stats["T3.diam3"] = _stats(sizes[3], sizes[3], count - sizes[3])
    stats["T3.card2"] = _stats(sizes[2], sizes[2], count - sizes[2])
    assert set(stats) == set(PRODUCT_CHECKS)
    return _aggregate("products", count, stats)


def symbolic_sweep(max_n: int) -> dict:
    """Aggregate of the zn-symbolic sweep over SYMBOLIC_CHECKS, timing excluded."""
    count = max_n - 1
    above2 = exactly2 = three = 0
    cubes = []
    for n, exps in _exponents_upto(max_n):
        vertices = math.prod(e + 1 for e in exps) - 2
        above2 += vertices > 2
        exactly2 += vertices == 2
        if sum(exps) >= 3:
            three += 1
            if exps == [3]:
                cubes.append(n)
    failures = [
        {
            "ring": f"Z{n}",
            "witness": {"n": n, "vertices": 2, "connected": True, "diameter": 1, "girth": "inf"},
        }
        for n in cubes
    ]
    stats = {cid: _stats(count, count, 0) for cid in ("T3.girth", "T2.no-Kmn")}
    stats["T3.diam3"] = _stats(above2, above2, count - above2)
    stats["T3.card2"] = _stats(exactly2, exactly2, count - exactly2)
    stats["L4.three-primes"] = _stats(three, three - len(cubes), count - three, failures)
    assert set(stats) == set(SYMBOLIC_CHECKS)
    return _aggregate("zn-symbolic", count, stats)


# ---------------------------------------------------------------------------
# one ring, every check, default caps


def _is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == {n: 1}


def ring_checks(factors: tuple[int, ...]) -> list[dict]:
    """Expected check_ring(spec, "all") results, in CHECK_IDS order."""
    facs = [factor(n) for n in factors]
    order = math.prod(factors)
    arity = len(factors)
    vertices = class_count(factors)
    local = arity == 1 and len(facs[0]) == 1
    reduced = all(e == 1 for f in facs for e in f.values())
    fields = sum(len(f) for f in facs)
    all_prime = all(_is_prime(n) for n in factors)

    def result(cid, applicable=True, passed=True, witness=None, reason=""):
        if not applicable:
            passed = None
        return {
            "id": cid,
            "applicable": applicable,
            "passed": passed,
            "witness": witness,
            "skipped": False,
            "reason": reason,
        }

    def skip(cid, reason):
        return {
            "id": cid,
            "applicable": False,
            "passed": None,
            "witness": None,
            "skipped": True,
            "reason": reason,
        }

    out = [
        # the graph is complete exactly when Z(R) is an ideal, i.e. R is local;
        # a local ring's zero-divisors have a common nonzero annihilator
        result("T2.ideal", applicable=local),
        result("T2.thann", applicable=local),
        result("T2.goldie"),
    ]
    if order > CAP_SUBRING:
        out.append(skip("T2.subring", f"order {order} above subring cap {CAP_SUBRING}"))
    elif vertices > CAP_ISO:
        out.append(
            skip(
                "T2.subring",
                f"isomorphism cap {CAP_ISO} exceeded ({vertices} vs {vertices} vertices)",
            )
        )
    else:
        out.append(result("T2.subring"))
    out.append(result("T2.no-Kmn"))
    if order > CAP_TOTAL:
        out.append(skip("T2.embed", f"order {order} above total cap {CAP_TOTAL}"))
    else:
        # no edges: at most one class, or exactly two fields
        edgeless = vertices <= 1 or (vertices == 2 and reduced)
        out.append(result("T2.embed", reason="no edges (vacuous)" if edgeless else ""))
    # a reduced ring with at least two fields splits along idempotents
    out.append(result("T3.vnr-or-nil", applicable=not (reduced and fields >= 2)))
    out.append(result("T3.girth"))
    out.append(result("T3.diam3", applicable=vertices > 2))
    out.append(result("T3.card2", applicable=vertices == 2))
    for cid in ("T3.torsion-complete", "T3.torsion-diam"):
        if order > CAP_TORSION:
            out.append(skip(cid, f"order {order} above torsion cap {CAP_TORSION}"))
        else:
            out.append(result(cid))
    out.append(result("L4.gcd-adj", applicable=arity == 1))
    omega = sum(facs[0].values()) if arity == 1 else 0
    if arity == 1 and omega >= 3:
        n = factors[0]
        cube = len(facs[0]) == 1 and omega == 3
        witness = (
            {"n": n, "vertices": 2, "connected": True, "diameter": 1, "girth": "inf"}
            if cube
            else None
        )
        out.append(result("L4.three-primes", passed=not cube, witness=witness))
    else:
        out.append(result("L4.three-primes", applicable=False))
    out.append(result("T5.two-domains", applicable=arity == 2 and all_prime))
    out.append(result("T5.n-domains", applicable=arity > 2 and all_prime))
    artinian = arity >= 2 and all(len(f) == 1 and sum(f.values()) >= 2 for f in facs)
    out.append(result("T5.artinian-local", applicable=artinian))
    out.append(result("T5.mixed", applicable=arity == 2 and not all_prime))
    assert [c["id"] for c in out] == list(ALL_CHECKS)
    return out


# ---------------------------------------------------------------------------
# command outputs


def _dot(name: str, labels, edges) -> str:
    """The documented DOT form: sorted vertex lines, each edge once, sorted."""
    lines = [f"graph {name} {{"]
    lines += [f'  "{lab}";' for lab in sorted(labels)]
    pairs = sorted(tuple(sorted((labels[i], labels[j]))) for i, j in edges)
    lines += [f'  "{a}" -- "{b}";' for a, b in pairs]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graph_json(ring: str, kind: str, labels, edges) -> str:
    payload = {
        "ring": ring,
        "graph_kind": kind,
        "vertices": [{"label": lab, "class_size": 1} for lab in labels],
        "edges": [[int(i), int(j)] for i, j in edges],
    }
    return json.dumps(payload, indent=2) + "\n"


def _upper_edges(adj: np.ndarray) -> list[tuple[int, int]]:
    rows, cols = np.nonzero(np.triu(adj, 1))
    return list(zip(rows.tolist(), cols.tolist()))


def domain_product_graph(k: int):
    """Support patterns: proper nonzero 0/1 words, adjacent iff some
    coordinate is 0 in both.  2^k - 2 vertices."""
    full = 2**k - 1
    labels = [format(m, f"0{k}b") for m in range(1, full)]
    edges = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if ((i + 1) | (j + 1)) != full
    ]
    # 4^k - 3^k ordered pairs of subsets miss a coordinate; dropping pairs
    # with an empty side and the diagonal leaves each edge twice
    assert 2 * len(edges) == 4**k - 3**k - 3 * 2**k + 5
    return labels, edges


def _units_mask(values: np.ndarray, n: int) -> np.ndarray:
    return np.gcd(values, n) == 1


def total_graph(factors: tuple[int, ...]):
    """All elements in lexicographic order; x ~ y iff x + y is a non-unit."""
    elems = np.array(list(itertools.product(*[range(n) for n in factors])), dtype=np.int64)
    unit = np.ones((len(elems), len(elems)), dtype=bool)
    for c, n in enumerate(factors):
        col = elems[:, c]
        unit &= _units_mask((col[:, None] + col[None, :]) % n, n)
    edges = _upper_edges(~unit)

    def non_units(values: np.ndarray) -> int:
        units = np.ones(len(values), dtype=bool)
        for c, n in enumerate(factors):
            units &= _units_mask(values[:, c] % n, n)
        return int((~units).sum())

    # independent count: x + y = s has |R| ordered solutions for each s
    assert 2 * len(edges) == len(elems) * non_units(elems) - non_units(2 * elems)
    labels = ["(" + ",".join(map(str, x)) + ")" for x in elems.tolist()]
    return labels, edges


def zn_symbolic_graph(n: int):
    """Divisors strictly between 1 and n, adjacent iff gcd != 1."""
    divs = sorted(d for d in range(2, math.isqrt(n) + 1) if n % d == 0)
    divs = sorted(set(divs) | {n // d for d in divs})
    divs = [d for d in divs if 1 < d < n]
    assert len(divs) == tau(n) - 2
    arr = np.array(divs, dtype=np.int64)
    edges = _upper_edges(np.gcd.outer(arr, arr) != 1)
    return [str(d) for d in divs], edges


def two_power_torsion_invariants(factors: tuple[int, int]) -> dict:
    """Invariants of the torsion graph of Z_{2^a} x Z_{2^b}.

    In a chain ring Z_{2^a} two annihilators meet beyond 0 iff both are
    nonzero, i.e. both coordinates are even.  So a nonzero zero-divisor is
    adjacent to another iff they share an even coordinate: the vertices
    with both coordinates even see everyone, the rest form two cliques
    (first coordinate even, second even) with no edge between them.
    """
    a, b = factors
    universal = (a // 2) * (b // 2) - 1
    left = (a // 2) * (b - b // 2)
    right = (a - a // 2) * (b // 2)
    n = universal + left + right
    edges = (
        math.comb(universal, 2)
        + universal * (left + right)
        + math.comb(left, 2)
        + math.comb(right, 2)
    )
    degrees = sorted(
        [universal - 1 + left + right] * universal
        + [universal + left - 1] * left
        + [universal + right - 1] * right
    )
    return {
        "vertex_count": n,
        "edge_count": edges,
        "connected": True,
        "diameter": 2,
        "girth": 3,
        "complete": False,
        "totally_disconnected": False,
        "bipartite_parts": None,
        "degree_sequence": degrees,
        "degenerate": False,
    }


def parse_factors(text: str) -> tuple[int, ...]:
    return tuple(int(tok[1:]) for tok in text.split("x"))


def command_output(argv: list[str]) -> str:
    """Expected stdout of one big-graphs command (see plan.big_commands)."""
    args = dict(zip(argv[1::2], argv[2::2]))
    kind, fmt = args["--graph"], args.get("--format")
    if argv[0] == "invariants" and kind == "torsion":
        return json.dumps(two_power_torsion_invariants(parse_factors(args["--ring"])), indent=2) + "\n"
    if argv[0] != "build":
        raise ValueError(f"no known answer for {argv}")
    if kind == "domain-product":
        ring, name = f"domain-product({args['--k']})", "IA"
        labels, edges = domain_product_graph(int(args["--k"]))
    elif kind == "total":
        ring, name = args["--ring"], "total"
        labels, edges = total_graph(parse_factors(ring))
    elif kind == "zn-symbolic":
        ring, name = args["--ring"], "IA"
        labels, edges = zn_symbolic_graph(parse_factors(ring)[0])
    else:
        raise ValueError(f"no known answer for {argv}")
    if fmt == "json":
        return _graph_json(ring, kind, labels, edges)
    return _dot(name, labels, edges)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# brute-force ring oracle, in the style of the test-suite conftest


def oracle_ia_json(factors: tuple[int, ...]) -> dict:
    """The compressed graph as `iagraph build --format json` prints it.

    Annihilators come from a double loop over the element universe;
    classes are keyed by their least member; two classes are adjacent iff
    their annihilators share a nonzero element.
    """
    elems = list(itertools.product(*[range(n) for n in factors]))
    zero = tuple(0 for _ in factors)

    def ann(x):
        return frozenset(
            r for r in elems if all(a * b % n == 0 for a, b, n in zip(r, x, factors))
        )

    groups: dict[frozenset, list] = {}
    for x in elems:
        if x == zero:
            continue
        a = ann(x)
        if a != {zero}:
            groups.setdefault(a, []).append(x)
    classes = sorted((min(members), len(members), a) for a, members in groups.items())
    assert len(classes) == class_count(factors)

    def label(x):
        return str(x[0]) if len(x) == 1 else "(" + ",".join(map(str, x)) + ")"

    edges = [
        [i, j]
        for i in range(len(classes))
        for j in range(i + 1, len(classes))
        if len(classes[i][2] & classes[j][2]) > 1
    ]
    return {
        "ring": spec_text(factors),
        "graph_kind": "ia",
        "vertices": [{"label": label(rep), "class_size": size} for rep, size, _ in classes],
        "edges": edges,
    }
