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

Self-check: in brute mode the first ring of each signature within the
element cap is cross-checked, its cached report against the invariants of
its brute-force graph and its closed forms against the engine's scans; a
zn-symbolic sweep rebuilds the divisor graph of every n divisible by 199.
A mismatch raises ``SelfCheckError``.

Sweeps enumerate ring families deterministically and evaluate each ring
shape once: the signature of each factor, in factor order, or the signature
alone if no selected check reads the factors.  The T5 hypotheses read only
those per-factor signatures, so their applicability follows the shape.  A
later ring reuses the graph-side checks of its shape's first ring if none
failed or was skipped, since failures and skips name their ring.  The
element-level checks, L4.gcd-adj and the 199 rebuild run on every ring, and
the counts are aggregated in ring order; every failure keeps its witness.
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
from functools import cached_property, partial

import numpy as np

from .graphs import DEFAULT_GRAPH_VERTEX_CAP, Graph, build_ia, build_ia_zn_symbolic, build_torsion
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
            if name not in Caps.__dataclass_fields__ or not num.isdigit():
                raise ValueError(f"bad IAGRAPH_CAPS entry {part!r}")
            values[name] = int(num)
        return Caps(**values)


@dataclass(frozen=True)
class TheoremCheck:
    """One check's outcome on one ring; frozen, since reports share plain ones."""

    id: str
    applicable: bool
    passed: bool | None
    witness: dict | None = None
    skipped: bool = False
    reason: str = ""

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
            self.skip_reasons[check.reason] += 1
        elif not check.applicable:
            self.inapplicable += 1
        else:
            self.applicable += 1
            if check.passed:
                self.passed += 1
            else:
                self.failed += 1
                self.failures.append({"ring": ring, "witness": check.witness})

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

# Checks that read the ring's elements beyond its graph: not run in symbolic mode.
_ELEMENT_CHECKS = frozenset(("T2.subring", "T2.embed", "T3.torsion-complete", "T3.torsion-diam"))
# Checks a sweep runs on every ring; the others it evaluates once per ring shape.
_PER_RING_CHECKS = _ELEMENT_CHECKS | {"L4.gcd-adj"}


def _signature(factors) -> tuple[int, ...]:
    """Exponents of the prime powers of all factors, sorted descending."""
    return tuple(sorted([e for n in factors for _, e in factorize(n)], reverse=True))


def _factor_signatures(factors) -> tuple[tuple[int, ...], ...]:
    """The signature of each factor, in factor order: a products sweep's shape key."""
    return tuple(_signature((n,)) for n in factors)


def _signature_invariants(sig, graph_cap: int, noun: str) -> InvariantReport:
    """The cached report of the signature's valuation graph, checked against the
    graph cap; a miss is built as the divisor graph of the first len(sig) primes
    raised to the exponents of sig."""
    report = _SIGNATURE_CACHE.get(sig)
    count = math.prod(e + 1 for e in sig) - 2 if report is None else report.vertex_count
    if count > graph_cap:
        raise CapExceededError(f"{count} {noun} above graph cap {graph_cap}")
    if report is None:
        factorization = dict(zip(_first_primes(len(sig)), sig))
        report = _SIGNATURE_CACHE[sig] = invariants(build_ia_zn_symbolic(factorization, graph_cap))
    return report


class _RingContext:
    """Facts about R = Z_{n1} x ... x Z_{nk}.  The graph-side facts come from the
    signature cache and the closed forms; the element-level ones come from the
    engine on demand.  Without a ring this is symbolic mode: the element-level
    checks are not available, and the ring is built only for L4.gcd-adj and
    witnesses, within the element cap."""

    unavailable = frozenset()  # check ids reported as not available
    noun = "vertices"  # what the graph cap counts

    def __init__(self, factors: tuple[int, ...], caps: Caps, ring: ProductRing | None = None):
        self.start_ns = time.perf_counter_ns()
        self.factors = factors
        self.caps = caps
        self.signature = sig = _signature(factors)
        self.factor_signatures = _factor_signatures(factors)
        self.z_ideal = len(sig) == 1
        self.ring_id = "x".join([f"Z{n}" for n in factors])
        if ring is None:
            self.unavailable = _ELEMENT_CHECKS
            self.noun = "divisor vertices"
        else:
            self.ring = ring

    @cached_property
    def ia_inv(self) -> InvariantReport:
        """Over the graph cap, the cap error is raised inside the check that reads it."""
        return _signature_invariants(self.signature, self.caps.graph, self.noun)

    # the other closed forms, in L = len(signature) local factors
    @property
    def common_ann_nonzero(self) -> bool:
        return self.z_ideal

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
        order = math.prod(self.factors)
        if order > self.caps.element:
            raise CapExceededError(f"order {order} above element cap {self.caps.element}")
        return ProductRing(RingSpec(self.factors))

    @cached_property
    def ia(self) -> Graph:
        return build_ia(self.ring, self.caps.element, self.caps.graph)

    @cached_property
    def torsion(self) -> Graph:
        if self.ring.order > self.caps.torsion:
            raise CapExceededError(
                f"order {self.ring.order} above torsion cap {self.caps.torsion}"
            )
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
                ctx.common_ann_nonzero,
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
# cap prevents evaluating it.

_INAPPLICABLE = object()


def _check_ideal(ctx: _RingContext):
    """Complete graph forces the zero-divisors to form an ideal."""
    if not ctx.ia_inv.complete:
        return _INAPPLICABLE
    return None if ctx.z_ideal else ctx.z_ideal_witness


def _check_thann(ctx: _RingContext):
    """A common nonzero annihilator of Z(R) forces a complete graph."""
    if not ctx.common_ann_nonzero:
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
    """The subring S generated by class representatives and 1 has the same graph.

    S contains 1.  When S has R's order it is R itself: its members are R's
    elements, so it is closed and its graph is R's, and neither the closure
    scan nor a second graph build can tell anything.  A proper S gets both.
    The isomorphism test runs either way, so the iso cap skips alike.
    """
    if ctx.ring.order > ctx.caps.subring:
        raise CapExceededError(
            f"order {ctx.ring.order} above subring cap {ctx.caps.subring}"
        )
    reps = [members[0] for _, members in ctx.ring.annihilator_classes(ctx.caps.element)]
    sub = ctx.ring.subring_generated(reps, include_one=True, cap=ctx.caps.element)
    if sub.order == ctx.ring.order:
        ia_sub = ctx.ia
    else:
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
    """Every compressed edge lifts to total-graph adjacency for all member pairs."""
    if ctx.ring.order > ctx.caps.total:
        raise CapExceededError(f"order {ctx.ring.order} above total cap {ctx.caps.total}")
    raw = ctx.ring.annihilator_classes(ctx.caps.element)
    if not ctx.ia.edge_count:
        return "no edges (vacuous)"
    # One scan of Z*(R) x Z*(R) in class order.  A hit is a sum outside Z(R) on an
    # edge (i, j), i < j; the least (i, j, position of x, position of y) is the
    # first hit of the loop over edges() and the members of each class.
    on_edge = np.triu(ctx.ia.adj, 1)
    members = [x for _, xs in raw for x in xs]
    cls = np.repeat(np.arange(len(raw)), [len(xs) for _, xs in raw])
    firsts = []
    for start, block in ctx.ring.zero_divisor_sum_blocks(members, members):
        rows, cols = np.nonzero(~block & on_edge[np.ix_(cls[start : start + len(block)], cls)])
        hits = np.stack([cls[rows + start], cls[cols], rows + start, cols])
        firsts.append(hits[:, np.lexsort(hits[::-1])[:1]])
    firsts = np.concatenate(firsts, axis=1)
    if not firsts.shape[1]:
        return None
    i, j, p, q = firsts[:, np.lexsort(firsts[::-1])[0]].tolist()
    x, y = members[p], members[q]
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
    ok = inv.connected and inv.diameter is not None and inv.diameter <= 3
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
    ok = inv.connected and inv.diameter is not None and inv.diameter <= 3
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
    """For Z_n the brute-force graph equals the divisor/gcd form, label for label."""
    if len(ctx.factors) != 1:
        return _INAPPLICABLE
    symbolic = build_ia_zn_symbolic(dict(factorize(ctx.factors[0])), ctx.caps.graph)
    brute = ctx.ia
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
    ok = (
        inv.connected
        and inv.diameter is not None
        and inv.diameter <= 2
        and inv.girth == 3
    )
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
    ok = (
        inv.connected
        and not inv.complete
        and inv.diameter is not None
        and inv.diameter <= 3
        and inv.girth == 3
    )
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


class _CheckIds(tuple):
    """Check ids already resolved and validated, so passing them on costs no rescan."""


def resolve_check_ids(checks) -> tuple[str, ...]:
    if type(checks) is _CheckIds:
        return checks
    if isinstance(checks, str):
        checks = (checks,)
    if checks is None or checks == ("all",) or checks == ["all"]:
        return _CheckIds(CHECK_IDS)
    ids = _CheckIds(checks)
    if not ids:
        raise ValueError("no checks selected")
    for cid in ids:
        if cid not in _CHECK_FUNCS:
            raise ValueError(f"unknown check id {cid!r}")
    return ids


def _run_checks(ctx: _RingContext, ids) -> RingReport:
    """Run the checks ids on one context and turn each verdict into its outcome; a
    check it cannot evaluate, or one that would exceed a cap, is reported skipped
    with the reason."""
    results = []
    unavailable = ctx.unavailable
    for cid in ids:
        reason = "not available in symbolic mode" if cid in unavailable else ""
        if not reason:
            try:
                verdict = _CHECK_FUNCS[cid](ctx)
            except CapExceededError as exc:
                reason = str(exc)
        if reason:
            outcome = TheoremCheck(cid, applicable=False, passed=None, skipped=True, reason=reason)
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


def embedding_check(ring, caps: Caps | None = None) -> TheoremCheck:
    """Standalone entry for the total-graph embedding law."""
    return check_ring(ring, ("T2.embed",), caps).checks[0]


def check_zn_symbolic(n: int, checks="all", caps: Caps | None = None) -> RingReport:
    """Run the selected checks on Z_n in symbolic mode: the element-level checks
    are not available, and no ring is cross-checked."""
    return _run_checks(_RingContext((n,), caps or Caps()), resolve_check_ids(checks))


def symbolic_invariants(n: int, caps: Caps) -> InvariantReport:
    """Invariants of the divisor-form graph of Z_n, from the signature cache."""
    return _signature_invariants(_signature((n,)), caps.graph, "divisor vertices")


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


def _sweep_entries(config: SweepConfig):
    """(ring id, n or spec, shape) per ring, in sweep order; the shape of Z_n is
    the sieve's signature id."""
    if config.family in ("zn", "zn-symbolic"):
        ids, _ = _zn_signatures(config.max_n)
        moduli = range(2, config.max_n + 1)
        items = moduli if config.family == "zn-symbolic" else map(RingSpec, zip(moduli))
        return zip(map("Z{}".format, moduli), items, ids[2:].tolist())
    if config.family == "products":
        specs = enumerate_product_specs(config.max_n, config.max_factors)
    else:
        primes = _first_primes(config.max_n)
        specs = [RingSpec(tuple(primes[:k])) for k in range(2, config.max_n + 1)]
    if _FACTOR_CHECKS.isdisjoint(config.checks):  # the signature decides every check selected
        return [(s.ring_id(), s, _signature(s.factors)) for s in specs]
    return [(s.ring_id(), s, _factor_signatures(s.factors)) for s in specs]


class _ShapeSweep:
    """Evaluates the rings of one sweep, each shape once (see the module notes).
    The memo lives as long as this object: one sweep, or one worker of its pool."""

    def __init__(self, config: SweepConfig):
        self.checks, self.caps = config.checks, config.caps
        self.symbolic = config.family == "zn-symbolic"
        self.check = partial(check_zn_symbolic if self.symbolic else check_ring, caps=config.caps)
        self.per_ring = _CheckIds(cid for cid in config.checks if cid in _PER_RING_CHECKS)
        self.memo: dict[object, list] = {}  # shape -> its checks, None where per ring

    def __call__(self, entry) -> RingReport:
        ring_id, item, shape = entry
        template = self.memo.get(shape)
        if template is None:
            report = self.check(item, self.checks)
            if not any(c.skipped or c.failed for c in report.checks if c.id not in self.per_ring):
                self.memo[shape] = [None if c.id in self.per_ring else c for c in report.checks]
        elif self.per_ring:
            report = self.check(item, self.per_ring)
            own = iter(report.checks)
            report.checks = [next(own) if c is None else c for c in template]
        else:
            report = RingReport(ring_id, list(template))
        if self.symbolic and item % 199 == 0:  # periodic cache validation: rebuild and compare
            with contextlib.suppress(CapExceededError):  # over the graph cap: nothing cached
                fresh = invariants(build_ia_zn_symbolic(dict(factorize(item)), self.caps.graph))
                if fresh != symbolic_invariants(item, self.caps):
                    raise SelfCheckError(f"symbolic cache mismatch at n={item}")
        return report


_WORKER_SWEEP: _ShapeSweep | None = None  # a pool worker's, started empty for its pool's sweep


def _start_worker(config: SweepConfig) -> None:
    global _WORKER_SWEEP
    _WORKER_SWEEP = _ShapeSweep(config)


def _run_in_worker(entry) -> RingReport:
    return _WORKER_SWEEP(entry)


def sweep(config: SweepConfig, report_sink=None) -> SweepAggregate:
    """Run the configured family, each shape once; aggregate per-check outcomes
    in ring order.  With jobs > 1 the reports stream back from a pool (imap)."""
    entries = _sweep_entries(config)
    start = time.perf_counter_ns()
    stats = {cid: CheckStats() for cid in config.checks}

    count = 0
    with contextlib.ExitStack() as stack:
        if config.jobs > 1:
            from multiprocessing import Pool

            pool = stack.enter_context(Pool(config.jobs, _start_worker, (config,)))
            reports = pool.imap(_run_in_worker, entries, chunksize=64)
        else:
            reports = map(_ShapeSweep(config), entries)
        absorbers = [stats[cid].absorb for cid in config.checks]  # report.checks come in this order
        for report in reports:
            count += 1
            ring = report.ring
            for absorb, check in zip(absorbers, report.checks):
                absorb(ring, check)
            if report_sink is not None:
                report_sink(report)
    elapsed = (time.perf_counter_ns() - start) // 1_000_000
    return SweepAggregate(
        family=config.family, ring_count=count, stats=stats, elapsed_ms=int(elapsed)
    )
