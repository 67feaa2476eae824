"""Executable structural checks and exhaustive sweep machinery.

Every check encodes one law relating a finite ring to its
annihilator-intersection graph as hypothesis -> conclusion.  A check is
*inapplicable* when the hypothesis fails, *skipped* (with a reason) when a
cap prevents evaluating it, and otherwise passes or fails with a structured
witness.  Converses are only asserted where the law is an equivalence.  A
check returns only its verdict and ``_run_checks`` builds the outcome; a
plain pass and an inapplicable check are one frozen outcome per check id,
shared between reports.

Graph-side facts come from the ring's signature.  By CRT, Z_{n1} x ... x
Z_{nk} is prod Z_{p^e} over the prime powers of all its factors, so its
compressed graph depends only on the multiset of those exponents, sorted
descending: the signature.  One cache holds the ``InvariantReport`` of each
signature's valuation graph (a miss is built by ``build_ia_zn_symbolic``),
and every family reads it.  With L local factors, the signature's length:
Z(R) is an ideal iff L == 1, Z(R) has a common nonzero annihilator iff
L == 1, R = ann(x) (+) ann(y) for some x, y iff L >= 2, and R is reduced iff
every exponent is 1.  So the graph-side checks need only the graph cap.
The element-level checks (T2.subring, T2.embed, the torsion checks and
L4.gcd-adj) keep the element cap and the brute-force engine, which also
supplies the witness of a failing ring-side check; above the element cap
the closed-form facts are the witness.

Brute mode (``check_ring``) and symbolic mode (``check_zn_symbolic``) run
every check on one path, under the same caps, in the same order, with the
same reason: symbolic mode builds its ``ProductRing`` only when a check or a
witness reads the elements.  Each cap is one rule, checked in the layer
that owns it:

* graph: the vertices of any graph, in ``graphs.check_graph_cap`` (every
  builder, and the signature cache before a lookup);
* element: every element scan, in the ring's ``elements(cap)``;
* subring, total, torsion: the ring order of T2.subring, T2.embed and the
  two torsion checks, in ``_run_checks`` before the check runs, from the
  table ``_ELEMENT_CAPS``;
* iso: the vertices of an isomorphism test, in ``invariants.is_isomorphic``.

The two modes differ only in their self-check: in brute mode the first ring
of each signature within the element cap is cross-checked, its cached
report against the invariants of its brute-force graph and its closed forms
against the engine's scans; at every n divisible by 199 a zn-symbolic sweep
compares the sieve's signature of n with trial division and rebuilds the
divisor graph.  A mismatch raises ``SelfCheckError``.

Sweeps enumerate ring families deterministically and key each ring by its
shape: the signature of each factor, in factor order, or the signature
alone if no selected check reads the factors.  The T5 hypotheses read only
those per-factor signatures, so their applicability follows the shape.  A
later ring reuses its shape's first report whole, or not at all: only when
no selected check reads the ring's elements or gcd form, and none of the
first ring's checks failed or was skipped, since failures and skips name
their ring.  Any other sweep checks every ring on the full selection.

A sweep tallies by shape: a shape's clean first report is counted once,
times the shape's ring count, and a ring that reuses it is not visited at
all, except for the 199 rebuild or when a report sink takes one report per
ring (a copy of its shape's).  Every other report is counted per ring, in
ring order, so every failure keeps its witness and the first self-check
error in ring order is the one raised.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import (
    DEFAULT_GRAPH_VERTEX_CAP,
    Graph,
    build_ia,
    build_ia_zn_symbolic,
    build_torsion,
    check_graph_cap,
    zn_symbolic_from_n,
)
from .invariants import DEFAULT_ISO_VERTEX_CAP, InvariantReport, diameter, invariants, is_isomorphic
from .rings import (
    DEFAULT_ELEMENT_CAP,
    CapExceededError,
    ProductRing,
    RingSpec,
    UnsupportedVariantError,
    factorize,
    format_element,
    is_prime,
    parse_ring_spec,
)


@dataclass(frozen=True)
class Caps:
    """Work bounds per check family; anything above is skipped, never guessed."""

    element: int = DEFAULT_ELEMENT_CAP  # brute-force element enumeration (element-level checks)
    torsion: int = 300  # ring order for torsion-graph checks
    total: int = 200  # ring order for total-graph embedding checks
    subring: int = 500  # ring order for the generated-subring check
    iso: int = DEFAULT_ISO_VERTEX_CAP  # vertex count for isomorphism testing
    graph: int = DEFAULT_GRAPH_VERTEX_CAP  # vertex count for graph construction

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ValueError(f"cap {name} must be a positive integer, got {value!r}")

    @staticmethod
    def from_env(env: dict | None = None) -> "Caps":
        """Read overrides from IAGRAPH_CAPS, e.g. "element=2000,torsion=100"."""
        env = os.environ if env is None else env
        raw = env.get("IAGRAPH_CAPS", "")
        values = {}
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, num = part.partition("=")
            if name not in Caps.__dataclass_fields__ or not (num.isascii() and num.isdigit()):
                raise ValueError(f"bad IAGRAPH_CAPS entry {part!r}")
            if name in values:
                raise ValueError(f"repeated IAGRAPH_CAPS entry {name!r}")
            values[name] = int(num)
        return Caps(**values)


@dataclass(frozen=True)
class TheoremCheck:
    """One check's outcome on one ring; frozen, since reports share plain ones.
    A skip keeps the reason, which may name the ring, and the cap's rule, which
    does not: a sweep counts its skips by rule."""

    id: str
    applicable: bool
    passed: bool | None
    witness: dict | None = None
    skipped: bool = False
    reason: str = ""
    rule: str = ""

    @property
    def failed(self) -> bool:
        return self.applicable and not self.skipped and self.passed is False

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "applicable": self.applicable,
            "passed": self.passed,
            "witness": self.witness,
            "skipped": self.skipped,
            "reason": self.reason,
        }


@dataclass
class CheckStats:
    """The one outcome tally: of a check id over a sweep, or of one report."""

    applicable: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    inapplicable: int = 0
    failures: list = field(default_factory=list)
    skip_reasons: Counter = field(default_factory=Counter)

    def absorb(self, ring: str, check: TheoremCheck) -> None:
        if check.skipped:
            self.skipped += 1
            self.skip_reasons[check.rule] += 1
        elif not check.applicable:
            self.inapplicable += 1
        else:
            self.applicable += 1
            if check.passed:
                self.passed += 1
            else:
                self.failed += 1
                self.failures.append({"ring": ring, "witness": check.witness})

    def absorb_clean(self, check: TheoremCheck, count: int) -> None:
        """count rings with the same outcome, a pass or an inapplicable check."""
        if check.applicable:
            self.applicable += count
            self.passed += count
        else:
            self.inapplicable += count

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "inapplicable": self.inapplicable,
            "failures": self.failures,
            "skip_reasons": dict(sorted(self.skip_reasons.items())),
        }


@dataclass(slots=True)
class RingReport:
    ring: str
    checks: list[TheoremCheck]
    timing_ms: int = 0

    def summary(self) -> dict:
        tally = CheckStats()
        for c in self.checks:
            tally.absorb(self.ring, c)
        counts = {k: getattr(tally, k) for k in ("applicable", "passed", "failed", "skipped")}
        return {"checks": len(self.checks), **counts}

    @property
    def failures(self) -> list[TheoremCheck]:
        return [c for c in self.checks if c.failed]

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring,
            "checks": [c.to_json_dict() for c in self.checks],
            "summary": self.summary(),
            "timing_ms": self.timing_ms,
        }


def report_csv_rows(report: RingReport) -> list[list[str]]:
    return [
        [
            report.ring,
            c.id,
            str(c.applicable).lower(),
            "" if c.passed is None else str(c.passed).lower(),
            json.dumps(c.witness, sort_keys=True) if c.witness else "",
            str(c.skipped).lower(),
            c.reason,
        ]
        for c in report.checks
    ]


CSV_HEADER = ["ring", "check_id", "applicable", "passed", "witness", "skipped", "reason"]


# ---------------------------------------------------------------------------
# the signature cache and the per-ring evaluation context


class SelfCheckError(RuntimeError):
    """A self-check found a cached result or a closed form disagreeing with its
    recomputation."""


_SIGNATURE_CACHE: dict[tuple[int, ...], InvariantReport] = {}
_CROSS_CHECKED: set[tuple[int, ...]] = set()  # signatures the engine has confirmed

# The checks that read the ring's elements beyond its graph, each with the Caps
# field that bounds its ring order.
_ELEMENT_CAPS = {
    "T2.subring": "subring",
    "T2.embed": "total",
    "T3.torsion-complete": "torsion",
    "T3.torsion-diam": "torsion",
}
# Checks the ring shape does not decide: selecting one makes a sweep check every ring.
_PER_RING_CHECKS = frozenset(_ELEMENT_CAPS) | {"L4.gcd-adj"}


def _signature(factors) -> tuple[int, ...]:
    """Exponents of the prime powers of all factors, sorted descending."""
    return tuple(sorted([e for n in factors for _, e in factorize(n)], reverse=True))


def _factor_signatures(factors) -> tuple[tuple[int, ...], ...]:
    """The signature of each factor, in factor order: a products sweep's shape key."""
    return tuple(_signature((n,)) for n in factors)


def _check_graph_cap(sig, graph_cap: int) -> None:
    """Raise the cap error if the signature's valuation graph, one vertex per
    divisor d of n with 1 < d < n, has more vertices than the graph cap."""
    check_graph_cap(math.prod(e + 1 for e in sig) - 2, graph_cap)


def _signature_invariants(sig, graph_cap: int) -> InvariantReport:
    """The cached report of the signature's valuation graph, checked against the
    graph cap; a miss is built as the divisor graph of the first len(sig) primes
    raised to the exponents of sig."""
    _check_graph_cap(sig, graph_cap)
    report = _SIGNATURE_CACHE.get(sig)
    if report is None:
        factorization = dict(zip(_first_primes(len(sig)), sig))
        report = _SIGNATURE_CACHE[sig] = invariants(build_ia_zn_symbolic(factorization, graph_cap))
    return report


class _RingContext:
    """Facts about R = Z_{n1} x ... x Z_{nk}.  The graph-side facts come from the
    signature cache and the closed forms; the element-level ones come from the
    engine on demand.  Without a ring this is symbolic mode, where the ring is
    built the first time a check or a witness reads it; either way its
    elements(cap) bounds every element scan."""

    def __init__(
        self, factors: tuple[int, ...], caps: Caps, ring: ProductRing | None = None, signature=None
    ):
        self.start_ns = time.perf_counter_ns()
        self.factors = factors
        self.caps = caps
        self.signature = sig = _signature(factors) if signature is None else signature
        self.factor_signatures = (sig,) if len(factors) == 1 else _factor_signatures(factors)
        self.z_ideal = len(sig) == 1
        self.ring_id = "x".join([f"Z{n}" for n in factors])
        if ring is not None:
            self.ring = ring

    @cached_property
    def ia_inv(self) -> InvariantReport:
        """Over the graph cap, the cap error is raised inside the check that reads it."""
        return _signature_invariants(self.signature, self.caps.graph)

    # the other closed forms, in L = len(signature) local factors
    @property
    def decomposes(self) -> bool:
        """R = ann(x) (+) ann(y) for some x, y."""
        return len(self.signature) >= 2

    @property
    def reduced(self) -> bool:
        return self.signature[0] == 1

    @cached_property
    def ring(self) -> ProductRing:
        """Symbolic mode only; brute mode sets the ring in __init__."""
        return ProductRing(RingSpec(self.factors))

    @cached_property
    def ia(self) -> Graph:
        return build_ia(self.ring, self.caps.element, self.caps.graph)

    @cached_property
    def torsion(self) -> Graph:
        return build_torsion(self.ring, self.caps.element, self.caps.graph)

    @cached_property
    def z_ideal_witness(self) -> dict:
        """Why Z(R) is not an ideal, for a failing check: the engine's first pair
        with a sum outside Z(R), or the closed-form fact above the element cap."""
        try:
            pair = self.ring.zero_divisor_ideal_witness(self.caps.element)
        except CapExceededError:
            return {"local_factors": len(self.signature)}
        if pair is None:
            raise SelfCheckError(f"signature cache mismatch on z_ideal at {self.ring_id}")
        return {"non_closed_pair": [format_element(x) for x in pair]}


def _cross_check(ctx: _RingContext) -> None:
    """Compare the cached report and the closed forms of a signature with what the
    engine finds on ctx.ring; over the graph cap nothing is cached to compare."""
    ring, cap = ctx.ring, ctx.caps.element
    with contextlib.suppress(CapExceededError):
        pairs = {  # closed form or cached value, engine value
            "invariants": (ctx.ia_inv, invariants(ctx.ia)),
            "z_ideal": (ctx.z_ideal, ring.zero_divisor_ideal_witness(cap) is None),
            "common_ann_nonzero": (
                ctx.z_ideal,
                len(ring.common_annihilator_of_zero_divisors(cap)) > 1,
            ),
            "decomposes": (ctx.decomposes, ring.has_ann_direct_sum_decomposition(cap)[0]),
        }
        for name, (closed, engine) in pairs.items():
            if closed != engine:
                raise SelfCheckError(f"signature cache mismatch on {name} at {ctx.ring_id}")
        _CROSS_CHECKED.add(ctx.signature)


# ---------------------------------------------------------------------------
# the checks
#
# A check returns its verdict and _run_checks builds the outcome: None for a
# pass, a witness dict for a failure, a reason string for a vacuous pass, or
# _INAPPLICABLE when the hypothesis fails.  It raises CapExceededError when a
# cap prevents evaluating it.  An element-level check runs only once
# _run_checks has found its ring order within its cap of _ELEMENT_CAPS.

_INAPPLICABLE = object()


def _check_ideal(ctx: _RingContext):
    """Complete graph forces the zero-divisors to form an ideal."""
    if not ctx.ia_inv.complete:
        return _INAPPLICABLE
    return None if ctx.z_ideal else ctx.z_ideal_witness


def _check_thann(ctx: _RingContext):
    """A common nonzero annihilator of Z(R), which exists iff Z(R) is an ideal,
    forces a complete graph."""
    if not ctx.z_ideal:
        return _INAPPLICABLE
    ok = ctx.ia_inv.complete
    return None if ok else {"vertices": ctx.ia_inv.vertex_count, "edges": ctx.ia_inv.edge_count}


def _check_goldie(ctx: _RingContext):
    """Finite ring: Z(R) is an ideal iff the graph is complete (equivalence)."""
    ideal = ctx.z_ideal
    complete = ctx.ia_inv.complete
    if ideal == complete:
        return None
    witness = {"z_ideal": ideal, "ia_complete": complete}
    if not ideal:
        witness.update(ctx.z_ideal_witness)
    return witness


def _check_subring(ctx: _RingContext):
    """The subring S generated by the class representatives has the same graph.

    S is proper on Z_{p^k}, where it is pZ_{p^k} (the zero ring when k = 1).
    A generated S that fills R is R itself, the ring object, so it is closed
    and its graph is ctx.ia, and neither the closure scan nor a second graph
    build can tell anything.  A proper S gets both.  The isomorphism test runs
    either way, so the iso cap skips alike.
    """
    reps = [members[0] for _, members in ctx.ring.annihilator_classes(ctx.caps.element)]
    sub = ctx.ring.subring_generated(reps, cap=ctx.caps.element)
    ia_sub = ctx.ia
    if sub is not ctx.ring:
        sub.validate_closure()
        ia_sub = build_ia(sub, ctx.caps.element, ctx.caps.graph)
    ok, _ = is_isomorphic(ia_sub, ctx.ia, ctx.caps.iso)
    if ok:
        return None
    return {
        "subring_order": sub.order,
        "subring_vertices": ia_sub.vertex_count,
        "subring_edges": ia_sub.edge_count,
        "ring_vertices": ctx.ia.vertex_count,
        "ring_edges": ctx.ia.edge_count,
    }


def _check_no_kmn(ctx: _RingContext):
    """The graph is never complete bipartite with both parts above 1."""
    parts = ctx.ia_inv.bipartite_parts
    return None if parts is None or parts[0] == 1 else {"parts": list(parts)}


def _check_embed(ctx: _RingContext):
    """Every compressed edge lifts to total-graph adjacency for all member pairs.

    One sum scan of Z*(R) x Z*(R) in class order, 40 KB at the default total
    cap.  A hit is a sum outside Z(R) on an edge (i, j), i < j; one sort finds
    the least (i, j, position of x, position of y), the first hit of the loop
    over edges() and the members of each class."""
    raw = ctx.ring.annihilator_classes(ctx.caps.element)
    if not ctx.ia.edge_count:
        return "no edges (vacuous)"
    on_edge = np.triu(ctx.ia.adj, 1)
    members = [x for _, xs in raw for x in xs]
    cls = np.repeat(np.arange(len(raw)), [len(xs) for _, xs in raw])
    sums = np.concatenate([block for _, block in ctx.ring.zero_divisor_sum_blocks(members)])
    p, q = np.nonzero(on_edge[np.ix_(cls, cls)] & ~sums)
    if not len(p):
        return None
    first = np.lexsort((q, p, cls[q], cls[p]))[0]
    i, j = int(cls[p[first]]), int(cls[q[first]])
    x, y = members[p[first]], members[q[first]]
    return {
        "edge": [ctx.ia.labels[i], ctx.ia.labels[j]],
        "members": [format_element(x), format_element(y)],
        "sum": format_element(ctx.ring.add(x, y)),
    }


def _check_vnr_or_nil(ctx: _RingContext):
    """Reduced without an annihilator direct-sum split, or non-reduced:
    the graph is connected with diameter at most 3."""
    if ctx.reduced and ctx.decomposes:
        return _INAPPLICABLE
    inv = ctx.ia_inv
    ok = inv.connected and inv.diameter <= 3
    return None if ok else {"connected": inv.connected, "diameter": _num(inv.diameter)}


def _check_girth(ctx: _RingContext):
    """Girth is 3 or infinite, never anything else."""
    inv = ctx.ia_inv
    return None if inv.girth is None or inv.girth == 3 else {"girth": _num(inv.girth)}


def _check_diam3(ctx: _RingContext):
    """More than 2 vertices: connected with diameter at most 3; exactly 3: complete."""
    inv = ctx.ia_inv
    if inv.vertex_count <= 2:
        return _INAPPLICABLE
    ok = inv.connected and inv.diameter <= 3
    if inv.vertex_count == 3:
        ok = ok and inv.complete
    if ok:
        return None
    return {
        "vertices": inv.vertex_count,
        "connected": inv.connected,
        "diameter": _num(inv.diameter),
        "complete": inv.complete,
    }


def _check_card2(ctx: _RingContext):
    """Exactly 2 vertices: the single possible edge exists iff Z(R) is an ideal."""
    inv = ctx.ia_inv
    if inv.vertex_count != 2:
        return _INAPPLICABLE
    edge = inv.edge_count == 1
    return None if edge == ctx.z_ideal else {"edge": edge, "z_ideal": ctx.z_ideal}


def _check_torsion_complete(ctx: _RingContext):
    """The torsion graph is complete iff the compressed graph is complete."""
    tor = ctx.torsion
    n = tor.vertex_count
    tor_complete = tor.edge_count == n * (n - 1) // 2
    if tor_complete == ctx.ia_inv.complete:
        return None
    return {"torsion_complete": tor_complete, "ia_complete": ctx.ia_inv.complete}


def _check_torsion_diam(ctx: _RingContext):
    """Connectivity transfers both ways; diameters agree past a single vertex."""
    tor = ctx.torsion
    tor_diam = diameter(tor)
    tor_conn = tor_diam is not None
    ia_conn = ctx.ia_inv.connected
    ok = tor_conn == ia_conn
    if ok and ctx.ia_inv.vertex_count > 1:
        ok = tor_diam == ctx.ia_inv.diameter
    if ok:
        return None
    return {
        "torsion_connected": tor_conn,
        "ia_connected": ia_conn,
        "torsion_diameter": _num(tor_diam),
        "ia_diameter": _num(ctx.ia_inv.diameter),
    }


def _check_gcd_adj(ctx: _RingContext):
    """For Z_n the brute-force graph equals the divisor/gcd form, label for label.
    Both caps are decided before either graph is built."""
    if len(ctx.factors) != 1:
        return _INAPPLICABLE
    _check_graph_cap(ctx.signature, ctx.caps.graph)
    brute = ctx.ia
    symbolic = zn_symbolic_from_n(ctx.factors[0], ctx.caps.graph)
    if set(brute.labels) == set(symbolic.labels) and brute.edge_labels() == symbolic.edge_labels():
        return None
    return {
        "brute_vertices": sorted(brute.labels),
        "symbolic_vertices": sorted(symbolic.labels),
        "brute_edges": sorted(sorted(e) for e in brute.edge_labels()),
        "symbolic_edges": sorted(sorted(e) for e in symbolic.edge_labels()),
    }


def _check_three_primes(ctx: _RingContext):
    """Z_n with at least 3 prime factors (with multiplicity): connected,
    diameter at most 2, girth 3; diameter exactly 2 given 2 distinct primes."""
    if len(ctx.factors) != 1 or sum(ctx.signature) < 3:
        return _INAPPLICABLE
    inv = ctx.ia_inv
    ok = inv.connected and inv.diameter <= 2 and inv.girth == 3
    if len(ctx.signature) >= 2:  # at least two distinct primes: diameter exactly 2
        ok = ok and inv.diameter == 2
    if ok:
        return None
    return {
        "n": ctx.factors[0],
        "vertices": inv.vertex_count,
        "connected": inv.connected,
        "diameter": _num(inv.diameter),
        "girth": _num(inv.girth),
    }


_FIELD = (1,)  # a prime field's signature; a local factor Z_{p^k}'s is (k,)


def _check_two_domains(ctx: _RingContext):
    """A product of exactly two prime fields: two isolated vertices."""
    if ctx.factor_signatures != (_FIELD, _FIELD):
        return _INAPPLICABLE
    inv = ctx.ia_inv
    ok = inv.vertex_count == 2 and inv.edge_count == 0
    return None if ok else {"vertices": inv.vertex_count, "edges": inv.edge_count}


def _check_n_domains(ctx: _RingContext):
    """A product of more than two prime fields: connected, diameter 2, girth 3."""
    sigs = ctx.factor_signatures
    if len(sigs) <= 2 or any(s != _FIELD for s in sigs):
        return _INAPPLICABLE
    inv = ctx.ia_inv
    return None if inv.connected and inv.diameter == 2 and inv.girth == 3 else _inv_witness(inv)


def _check_artinian_local(ctx: _RingContext):
    """A product of local factors Z_{p^k}, each with k >= 2 (so each carries a
    nilpotent whose annihilator is the maximal ideal): connected, diameter 2,
    girth 3.  Field factors are excluded; those products belong to the
    domain-product or mixed cases."""
    sigs = ctx.factor_signatures
    if len(sigs) < 2 or any(len(s) != 1 or s[0] < 2 for s in sigs):
        return _INAPPLICABLE
    inv = ctx.ia_inv
    return None if inv.connected and inv.diameter == 2 and inv.girth == 3 else _inv_witness(inv)


def _check_mixed(ctx: _RingContext):
    """A product of two factors where at least one has a nonzero zero-divisor:
    connected, not complete, diameter at most 3, girth 3."""
    sigs = ctx.factor_signatures
    if len(sigs) != 2 or sigs == (_FIELD, _FIELD):
        return _INAPPLICABLE
    inv = ctx.ia_inv
    ok = inv.connected and not inv.complete and inv.diameter <= 3 and inv.girth == 3
    return None if ok else _inv_witness(inv)


def _num(value):
    return "inf" if value is None else value


def _inv_witness(inv: InvariantReport) -> dict:
    return {
        "vertices": inv.vertex_count,
        "edges": inv.edge_count,
        "connected": inv.connected,
        "diameter": _num(inv.diameter),
        "girth": _num(inv.girth),
        "complete": inv.complete,
    }


_CHECK_FUNCS = {
    "T2.ideal": _check_ideal,
    "T2.thann": _check_thann,
    "T2.goldie": _check_goldie,
    "T2.subring": _check_subring,
    "T2.no-Kmn": _check_no_kmn,
    "T2.embed": _check_embed,
    "T3.vnr-or-nil": _check_vnr_or_nil,
    "T3.girth": _check_girth,
    "T3.diam3": _check_diam3,
    "T3.card2": _check_card2,
    "T3.torsion-complete": _check_torsion_complete,
    "T3.torsion-diam": _check_torsion_diam,
    "L4.gcd-adj": _check_gcd_adj,
    "L4.three-primes": _check_three_primes,
    "T5.two-domains": _check_two_domains,
    "T5.n-domains": _check_n_domains,
    "T5.artinian-local": _check_artinian_local,
    "T5.mixed": _check_mixed,
}
CHECK_IDS = tuple(_CHECK_FUNCS)
# The outcomes that carry nothing of their ring, one per check id, shared by every report.
_PASSED = {cid: TheoremCheck(cid, applicable=True, passed=True) for cid in CHECK_IDS}
_NOT_APPLICABLE = {cid: TheoremCheck(cid, applicable=False, passed=None) for cid in CHECK_IDS}


def resolve_check_ids(checks) -> tuple[str, ...]:
    if isinstance(checks, str):
        checks = (checks,)
    if checks is None or checks == ("all",) or checks == ["all"]:
        return CHECK_IDS
    ids = tuple(checks)
    if not ids:
        raise ValueError("no checks selected")
    for cid in ids:
        if cid not in _CHECK_FUNCS:
            raise ValueError(f"unknown check id {cid!r}")
        if ids.count(cid) > 1:
            raise ValueError(f"repeated check id {cid!r}")
    return ids


def _run_checks(ctx: _RingContext, ids) -> RingReport:
    """Run the checks ids on one context and turn each verdict into its outcome; a
    check that would exceed a cap is reported skipped with the reason and the
    cap's rule.  In order: the ring order above the check's cap of _ELEMENT_CAPS,
    then any cap the check body meets."""
    results = []
    caps, order = ctx.caps, math.prod(ctx.factors)
    for cid in ids:
        cap_name = _ELEMENT_CAPS.get(cid)
        if cap_name and order > getattr(caps, cap_name):
            rule = f"{cap_name} cap {getattr(caps, cap_name)}"
            reason = f"order {order} above {rule}"
        else:
            try:
                verdict, reason = _CHECK_FUNCS[cid](ctx), ""
            except CapExceededError as exc:
                reason, rule = str(exc), exc.rule
        if reason:
            outcome = TheoremCheck(cid, False, None, skipped=True, reason=reason, rule=rule)
        elif verdict is None:
            outcome = _PASSED[cid]
        elif verdict is _INAPPLICABLE:
            outcome = _NOT_APPLICABLE[cid]
        elif isinstance(verdict, str):
            outcome = TheoremCheck(cid, applicable=True, passed=True, reason=verdict)
        else:
            outcome = TheoremCheck(cid, applicable=True, passed=False, witness=verdict)
        results.append(outcome)
    elapsed = (time.perf_counter_ns() - ctx.start_ns) // 1_000_000
    return RingReport(ring=ctx.ring_id, checks=results, timing_ms=int(elapsed))


def check_ring(ring, checks="all", caps: Caps | None = None) -> RingReport:
    """Run the selected checks on one product ring, brute-force mode.  The first
    ring of each signature within the element cap is cross-checked first."""
    if isinstance(ring, str):
        ring = ProductRing(parse_ring_spec(ring))
    elif isinstance(ring, RingSpec):
        ring = ProductRing(ring)
    elif not isinstance(ring, ProductRing):
        raise UnsupportedVariantError("check_ring takes a product ring; T2.subring checks subrings")
    ids = resolve_check_ids(checks)
    caps = caps or Caps()
    ctx = _RingContext(ring.spec.factors, caps, ring)
    if ctx.signature not in _CROSS_CHECKED and ring.order <= caps.element:
        _cross_check(ctx)
    return _run_checks(ctx, ids)


def check_zn_symbolic(n: int, checks="all", caps: Caps | None = None, signature=None) -> RingReport:
    """Run the selected checks on Z_n in symbolic mode: the report of check_ring
    on Z_n, without its cross-check.  A sweep passes the sieve's signature of n;
    without one, n is factorized."""
    ctx = _RingContext((n,), caps or Caps(), signature=signature)
    return _run_checks(ctx, resolve_check_ids(checks))


def symbolic_invariants(n: int, caps: Caps) -> InvariantReport:
    """Invariants of the divisor-form graph of Z_n, from the signature cache."""
    return _signature_invariants(_signature((n,)), caps.graph)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepConfig:
    family: str  # zn | zn-symbolic | products | domain-products
    max_n: int  # max modulus (zn families) / max order (products) / max k (domain products)
    max_factors: int = 3
    checks: tuple[str, ...] | str = "all"
    caps: Caps = field(default_factory=Caps)
    jobs: int = 1

    def __post_init__(self):
        if self.family not in ("zn", "zn-symbolic", "products", "domain-products"):
            raise ValueError(f"unknown sweep family {self.family!r}")
        for name in ("max_n", "max_factors"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_n < 2:
            raise ValueError("sweep bound must be at least 2")
        if self.family in ("zn", "zn-symbolic") and self.max_n > _SIEVE_MAX:
            raise ValueError(
                f"sweep bound {self.max_n} above {_SIEVE_MAX}, the Z_n sieve's int32 range"
            )
        if self.max_factors < 1:
            raise ValueError("max_factors must be at least 1")
        max_jobs = os.cpu_count() or 1
        if type(self.jobs) is not int or not 1 <= self.jobs <= max_jobs:
            raise ValueError(f"jobs must be an integer from 1 to {max_jobs}, got {self.jobs!r}")
        self.checks = resolve_check_ids(self.checks)


@dataclass
class SweepAggregate:
    family: str
    ring_count: int
    stats: dict[str, CheckStats]
    elapsed_ms: int = 0

    @property
    def total_failures(self) -> int:
        return sum(s.failed for s in self.stats.values())

    def failures_for(self, check_id: str) -> list:
        return self.stats[check_id].failures if check_id in self.stats else []

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "ring_count": self.ring_count,
            "total_failures": self.total_failures,
            "checks": {cid: s.to_json_dict() for cid, s in sorted(self.stats.items())},
            "elapsed_ms": self.elapsed_ms,
        }


def enumerate_product_specs(max_order: int, max_factors: int) -> list[RingSpec]:
    """All sorted factor tuples with 2..max_factors factors and order <= max_order,
    ascending by (order, factor count, factors)."""
    found: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], min_factor: int, budget: int) -> None:
        if len(prefix) >= 2:
            found.append(prefix)
        if len(prefix) == max_factors:
            return
        f = min_factor
        while f <= budget:
            extend(prefix + (f,), f, budget // f)
            f += 1

    extend((), 2, max_order)
    found.sort(key=lambda fac: (math.prod(fac), len(fac), fac))
    return [RingSpec(fac) for fac in found]


def _first_primes(k: int) -> list[int]:
    return list(itertools.islice(filter(is_prime, itertools.count(2)), k))


_SIEVE_MAX = 2**31 - 1  # the largest n the int32 arrays of _zn_signatures hold


def _zn_signatures(max_n: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Signature ids of 0..max_n (0 and 1 get id 0, the empty signature) and the
    signature of each id, from one smallest-prime-factor sieve.  For n in
    [L, 2L), p = spf(n) and m = n / p < L, so the exponent e(n) of p and the
    signature id of the cofactor rest(n) prime to p follow from the values at m:
    one vectorized step per block of [L, 2L) (Gries & Misra, CACM 21, 1978)."""
    spf = np.arange(max_n + 1, dtype=np.int32)
    for p in range(2, math.isqrt(max_n) + 1):
        if spf[p] == p:  # p is prime; the first prime to reach a multiple is its least
            np.minimum(spf[p * p :: p], p, out=spf[p * p :: p])
    exp, rest, ids = np.zeros((3, max_n + 1), dtype=np.int32)  # rest: the id of rest(n)
    index = {(): 0}  # signature -> id, in order of first appearance
    low = 2
    while low <= max_n:
        high = min(2 * low, low + (1 << 20), max_n + 1)  # bounded temporaries
        n = np.arange(low, high, dtype=np.int32)
        p = spf[n]
        m = n // p
        same = spf[m] == p
        exp[n] = e = np.where(same, exp[m] + 1, 1)
        rest[n] = r = np.where(same, rest[m], ids[m])
        keys, inverse = np.unique(r << 8 | e, return_inverse=True)
        sigs = list(index)
        step = [
            index.setdefault(tuple(sorted(sigs[k >> 8] + (k & 255,), reverse=True)), len(index))
            for k in keys.tolist()
        ]
        ids[n] = np.array(step, dtype=np.int32)[inverse]
        low = high
    return ids, list(index)


# Checks that read the factors beyond the signature: their count, or each one's signature.
_FACTOR_CHECKS = frozenset(cid for cid in CHECK_IDS if cid.startswith("T5.")) | {"L4.three-primes"}


@dataclass
class _SweepRings:
    """A sweep's rings in sweep order: ring i is items[i] (n for the zn families, a
    RingSpec otherwise) and has shape id shapes[i], and counts[s] rings have shape
    s.  For the zn families the shape id is the sieve's signature id of n and
    sigs[s] is that signature."""

    items: range | list
    shapes: np.ndarray
    counts: list[int]
    sigs: list | None = None

    def ring_ids(self, lo: int, hi: int):
        if self.sigs is None:
            return [spec.ring_id() for spec in self.items[lo:hi]]
        return map("Z{}".format, self.items[lo:hi])


def _sweep_rings(config: SweepConfig) -> _SweepRings:
    if config.family in ("zn", "zn-symbolic"):
        ids, sigs = _zn_signatures(config.max_n)
        counts = np.bincount(ids[2:], minlength=len(sigs)).tolist()
        return _SweepRings(range(2, config.max_n + 1), ids[2:], counts, sigs)
    if config.family == "products":
        specs = enumerate_product_specs(config.max_n, config.max_factors)
    else:
        primes = _first_primes(config.max_n)
        specs = [RingSpec(tuple(primes[:k])) for k in range(2, config.max_n + 1)]
    # the signature decides every check selected, unless one reads the factors
    key = _signature if _FACTOR_CHECKS.isdisjoint(config.checks) else _factor_signatures
    index: dict[tuple, int] = {}
    shapes = np.array([index.setdefault(key(s.factors), len(index)) for s in specs], dtype=np.int32)
    return _SweepRings(specs, shapes, np.bincount(shapes, minlength=len(index)).tolist())


def _clean(checks) -> bool:
    """No check failed or was skipped, so the report names no ring: its shape reuses it."""
    return not any(c.skipped or c.failed for c in checks)


_BLOCK = 1 << 14  # rings per scan for the rings that need work, and per pool task at most


class _ShapeSweep:
    """Evaluates the rings of one sweep that need work (see the module notes).  Its
    state lives as long as this object: one sweep, or one worker of its pool."""

    def __init__(self, config: SweepConfig, rings: _SweepRings):
        self.config, self.rings = config, rings
        self.symbolic = config.family == "zn-symbolic"
        self.seen = np.zeros(len(rings.counts), dtype=bool)
        # the shapes whose every ring is evaluated: all of them with a per-ring check
        per_ring = not _PER_RING_CHECKS.isdisjoint(config.checks)
        self.per_ring = np.full(len(rings.counts), per_ring)

    def visit(self, lo: int, hi: int):
        """(i, report) for each ring i in [lo, hi) that is evaluated, in ring order.
        A shape whose first report here is not clean makes its later rings need
        work: the scan restarts after that ring."""
        while lo < hi:
            end = min(lo + _BLOCK, hi)
            for i, shape in self._needed(lo, end):
                if self.symbolic and (i + 2) % 199 == 0:
                    self._rebuild(i + 2, shape)
                if self.seen[shape] and not self.per_ring[shape]:
                    continue  # a reused report: only the rebuild was due
                report = self._evaluate(i, shape)
                yield i, report
                if not self.seen[shape]:
                    self.seen[shape] = True
                    if not (self.per_ring[shape] or _clean(report.checks)):
                        self.per_ring[shape] = True
                        end = i + 1
                        break
            lo = end

    def _needed(self, lo: int, hi: int):
        """(i, shape) for each ring i in [lo, hi) that needs work as things stand:
        its shape's every ring is evaluated, it is the first ring of a shape not
        seen yet, or (zn-symbolic) n = i + 2 is divisible by 199."""
        shapes = self.rings.shapes[lo:hi]
        need = self.per_ring[shapes]
        unseen = np.flatnonzero(~self.seen[shapes])
        need[unseen[np.unique(shapes[unseen], return_index=True)[1]]] = True
        if self.symbolic:
            need[-(lo + 2) % 199 :: 199] = True
        at = np.flatnonzero(need)
        return zip((lo + at).tolist(), shapes[at].tolist())

    def _evaluate(self, i: int, shape: int) -> RingReport:
        item, checks, caps = self.rings.items[i], self.config.checks, self.config.caps
        if self.symbolic:  # the sieve's signature, not trial division
            return check_zn_symbolic(item, checks, caps, signature=self.rings.sigs[shape])
        return check_ring(item if isinstance(item, RingSpec) else RingSpec((item,)), checks, caps)

    def _rebuild(self, n: int, shape: int) -> None:
        """The periodic self-check: the sieve's signature of n against trial
        division, and the cached report against a rebuilt divisor graph."""
        if self.rings.sigs[shape] != _signature((n,)):
            raise SelfCheckError(f"symbolic sieve mismatch at n={n}")
        with contextlib.suppress(CapExceededError):  # over the graph cap: nothing cached
            fresh = invariants(zn_symbolic_from_n(n, self.config.caps.graph))
            if fresh != symbolic_invariants(n, self.config.caps):
                raise SelfCheckError(f"symbolic cache mismatch at n={n}")


_WORKER_SWEEP: _ShapeSweep | None = None  # a pool worker's, started empty for its pool's sweep


def _start_worker(config: SweepConfig, rings: _SweepRings) -> None:
    global _WORKER_SWEEP
    _WORKER_SWEEP = _ShapeSweep(config, rings)


def _run_in_worker(block: tuple[int, int]) -> list[tuple[int, RingReport]]:
    return list(_WORKER_SWEEP.visit(*block))


def sweep(config: SweepConfig, report_sink=None) -> SweepAggregate:
    """Run the configured family (see the module notes).  The clean first report of
    a shape is counted once for all its rings; any other evaluated report is
    aggregated in ring order.  A report_sink gets one report per ring in ring
    order, a copy of its shape's report where the ring reuses it.  With jobs > 1
    the evaluated reports stream back from a pool (imap) in blocks of rings."""
    start = time.perf_counter_ns()
    rings = _sweep_rings(config)
    total = len(rings.items)
    stats = {cid: CheckStats() for cid in config.checks}
    absorbers = [stats[cid].absorb for cid in config.checks]  # report.checks come in this order
    reuse = _PER_RING_CHECKS.isdisjoint(config.checks)
    clean: dict[int, tuple[TheoremCheck, ...]] = {}  # shape -> checks of its clean first report

    with contextlib.ExitStack() as stack:
        if config.jobs > 1:
            from multiprocessing import Pool

            pool = stack.enter_context(Pool(config.jobs, _start_worker, (config, rings)))
            size = max(1, min(_BLOCK, total // (16 * config.jobs)))  # 16 tasks per worker or more
            blocks = [(lo, min(lo + size, total)) for lo in range(0, total, size)]
            evaluated = itertools.chain.from_iterable(pool.imap(_run_in_worker, blocks))
        else:
            evaluated = _ShapeSweep(config, rings).visit(0, total)
        done = 0  # the rings before done have gone to the sink
        for i, report in itertools.chain(evaluated, [(total, None)]):
            if report_sink is not None and i > done:  # the rings between reuse their shape's
                for ring_id, shape in zip(rings.ring_ids(done, i), rings.shapes[done:i].tolist()):
                    report_sink(RingReport(ring_id, list(clean[shape])))
            done = i + 1
            if report is None:
                break
            shape = int(rings.shapes[i])
            if shape in clean:  # another worker's first ring of the shape: already counted
                pass
            elif reuse and _clean(report.checks):
                clean[shape] = tuple(report.checks)
            else:
                for absorb, check in zip(absorbers, report.checks):
                    absorb(report.ring, check)
            if report_sink is not None:
                report_sink(report)
    for shape, checks in clean.items():
        for check in checks:
            stats[check.id].absorb_clean(check, rings.counts[shape])
    elapsed = (time.perf_counter_ns() - start) // 1_000_000
    return SweepAggregate(config.family, total, stats, elapsed_ms=int(elapsed))
