"""Executable structural checks and exhaustive sweep machinery.

Every check encodes one law relating a finite ring to its
annihilator-intersection graph as hypothesis -> conclusion.  A check is
*inapplicable* when the hypothesis fails, *skipped* (with a reason) when a
cap prevents evaluating it, and otherwise passes or fails with a structured
witness.  Converses are only asserted where the law is an equivalence.

Sweeps enumerate ring families deterministically, run a selected set of
checks per ring, and aggregate pass/fail/skip counts; every failure keeps
its witness.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial

from .graphs import Graph, build_ia, build_ia_zn_symbolic, build_torsion
from .invariants import InvariantReport, diameter, invariants, is_isomorphic
from .rings import (
    CapExceededError,
    ProductRing,
    RingSpec,
    big_omega,
    factorize,
    format_element,
    is_prime,
    is_prime_power,
    parse_ring_spec,
    radical,
)

CHECK_IDS = (
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

SYMBOLIC_CHECK_IDS = (
    "T2.no-Kmn",
    "T3.girth",
    "T3.diam3",
    "T3.card2",
    "L4.gcd-adj",
    "L4.three-primes",
)


@dataclass(frozen=True)
class Caps:
    """Work bounds per check family; anything above is skipped, never guessed."""

    element: int = 5000  # brute-force element enumeration
    torsion: int = 300  # ring order for torsion-graph checks
    total: int = 200  # ring order for total-graph embedding checks
    subring: int = 500  # ring order for the generated-subring check
    iso: int = 64  # vertex count for isomorphism testing
    graph: int = 4096  # vertex count for graph construction

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


@dataclass
class TheoremCheck:
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
class RingReport:
    ring: str
    checks: list[TheoremCheck]
    timing_ms: int = 0

    def summary(self) -> dict:
        out = {"checks": len(self.checks), "applicable": 0, "passed": 0, "failed": 0, "skipped": 0}
        for c in self.checks:
            if c.skipped:
                out["skipped"] += 1
            elif c.applicable:
                out["applicable"] += 1
                if c.passed:
                    out["passed"] += 1
                else:
                    out["failed"] += 1
        return out

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
    rows = []
    for c in report.checks:
        rows.append(
            [
                report.ring,
                c.id,
                str(c.applicable).lower(),
                "" if c.passed is None else str(c.passed).lower(),
                json.dumps(c.witness, sort_keys=True) if c.witness else "",
            ]
        )
    return rows


CSV_HEADER = ["ring", "check_id", "applicable", "passed", "witness"]


# ---------------------------------------------------------------------------
# per-ring evaluation context (lazy, shared across checks)


class _RingContext:
    """Facts about one ring, computed at most once; check_ids are the checks it can run."""

    check_ids = frozenset(CHECK_IDS)

    def __init__(self, ring: ProductRing, caps: Caps):
        self.start_ns = time.perf_counter_ns()
        self.ring = ring
        self.caps = caps
        self.factors = ring.spec.factors
        self.ring_id = ring.spec.ring_id()

    # graph side -----------------------------------------------------------
    @cached_property
    def ia(self) -> Graph:
        return build_ia(self.ring, self.caps.element, self.caps.graph)

    @cached_property
    def ia_inv(self) -> InvariantReport:
        return invariants(self.ia)

    @cached_property
    def torsion(self) -> Graph:
        if self.ring.order > self.caps.torsion:
            raise CapExceededError(
                f"order {self.ring.order} above torsion cap {self.caps.torsion}"
            )
        return build_torsion(self.ring, self.caps.element, self.caps.graph)

    # ring side ------------------------------------------------------------
    @cached_property
    def z_ideal_witness(self):
        return self.ring.zero_divisor_ideal_witness(self.caps.element)

    @cached_property
    def z_ideal(self) -> bool:
        return self.z_ideal_witness is None

    @cached_property
    def reduced(self) -> bool:
        # fast-path specialization: Nil(R) is trivial iff every modulus is squarefree
        return all(radical(n) == n for n in self.factors)

    @cached_property
    def common_ann_nonzero(self) -> bool:
        return len(self.ring.common_annihilator_of_zero_divisors(self.caps.element)) > 1

    @cached_property
    def decomposition(self):
        return self.ring.has_ann_direct_sum_decomposition(self.caps.element)


class _ZnSymbolicContext(_RingContext):
    """Z_n with element enumeration turned off: invariants of the divisor form, and
    the closed form Z(Z_n) is an ideal iff n is a prime power, as plain attributes
    (a sweep builds one per n); the ring is built on demand, for L4.gcd-adj."""

    check_ids = frozenset(SYMBOLIC_CHECK_IDS)
    ia_inv = z_ideal = None  # shadow the base cached_property: plain, faster reads

    def __init__(self, n: int, caps: Caps):
        self.start_ns = time.perf_counter_ns()
        self.caps = caps
        self.factors = (n,)
        self.ring_id = f"Z{n}"
        self.ia_inv = symbolic_invariants(n, caps)
        self.z_ideal = len(factorize(n)) == 1

    @cached_property
    def ring(self) -> ProductRing:
        n = self.factors[0]
        if n > self.caps.element:
            raise CapExceededError(f"order {n} above element cap {self.caps.element}")
        return ProductRing(RingSpec(self.factors))


# ---------------------------------------------------------------------------
# the checks


def _check_ideal(ctx: _RingContext) -> TheoremCheck:
    """Complete graph forces the zero-divisors to form an ideal."""
    if not ctx.ia_inv.complete:
        return TheoremCheck("T2.ideal", applicable=False, passed=None)
    if ctx.z_ideal:
        return TheoremCheck("T2.ideal", applicable=True, passed=True)
    x, y = ctx.z_ideal_witness
    return TheoremCheck(
        "T2.ideal",
        applicable=True,
        passed=False,
        witness={"non_closed_pair": [format_element(x), format_element(y)]},
    )


def _check_thann(ctx: _RingContext) -> TheoremCheck:
    """A common nonzero annihilator of Z(R) forces a complete graph."""
    if not ctx.common_ann_nonzero:
        return TheoremCheck("T2.thann", applicable=False, passed=None)
    ok = ctx.ia_inv.complete
    witness = None if ok else {"vertices": ctx.ia.vertex_count, "edges": ctx.ia.edge_count}
    return TheoremCheck("T2.thann", applicable=True, passed=ok, witness=witness)


def _check_goldie(ctx: _RingContext) -> TheoremCheck:
    """Finite ring: Z(R) is an ideal iff the graph is complete (equivalence)."""
    ideal = ctx.z_ideal
    complete = ctx.ia_inv.complete
    ok = ideal == complete
    witness = None
    if not ok:
        witness = {"z_ideal": ideal, "ia_complete": complete}
        if not ideal:
            x, y = ctx.z_ideal_witness
            witness["non_closed_pair"] = [format_element(x), format_element(y)]
    return TheoremCheck("T2.goldie", applicable=True, passed=ok, witness=witness)


def _check_subring(ctx: _RingContext) -> TheoremCheck:
    """The subring generated by class representatives and 1 has the same graph."""
    if ctx.ring.order > ctx.caps.subring:
        raise CapExceededError(
            f"order {ctx.ring.order} above subring cap {ctx.caps.subring}"
        )
    reps = [members[0] for _, members in ctx.ring.annihilator_classes(ctx.caps.element)]
    sub = ctx.ring.subring_generated(reps, include_one=True, cap=ctx.caps.element)
    sub.validate_closure()
    ia_sub = build_ia(sub, ctx.caps.element, ctx.caps.graph)
    ok, _ = is_isomorphic(ia_sub, ctx.ia, ctx.caps.iso)
    witness = None
    if not ok:
        witness = {
            "subring_order": sub.order,
            "subring_vertices": ia_sub.vertex_count,
            "subring_edges": ia_sub.edge_count,
            "ring_vertices": ctx.ia.vertex_count,
            "ring_edges": ctx.ia.edge_count,
        }
    return TheoremCheck("T2.subring", applicable=True, passed=ok, witness=witness)


def _check_no_kmn(ctx: _RingContext) -> TheoremCheck:
    """The graph is never complete bipartite with both parts above 1."""
    parts = ctx.ia_inv.bipartite_parts
    ok = parts is None or parts[0] == 1
    witness = None if ok else {"parts": list(parts)}
    return TheoremCheck("T2.no-Kmn", applicable=True, passed=ok, witness=witness)


def _check_embed(ctx: _RingContext) -> TheoremCheck:
    """Every compressed edge lifts to total-graph adjacency for all member pairs."""
    if ctx.ring.order > ctx.caps.total:
        raise CapExceededError(f"order {ctx.ring.order} above total cap {ctx.caps.total}")
    raw = ctx.ring.annihilator_classes(ctx.caps.element)
    edges = ctx.ia.edges()
    if not edges:
        return TheoremCheck(
            "T2.embed", applicable=True, passed=True, reason="no edges (vacuous)"
        )
    for i, j in edges:
        pair = ctx.ring.first_sum_outside_zero_divisors(raw[i][1], raw[j][1])
        if pair is not None:
            x, y = pair
            return TheoremCheck(
                "T2.embed",
                applicable=True,
                passed=False,
                witness={
                    "edge": [ctx.ia.labels[i], ctx.ia.labels[j]],
                    "members": [format_element(x), format_element(y)],
                    "sum": format_element(ctx.ring.add(x, y)),
                },
            )
    return TheoremCheck("T2.embed", applicable=True, passed=True)


def _check_vnr_or_nil(ctx: _RingContext) -> TheoremCheck:
    """Reduced without an annihilator direct-sum split, or non-reduced:
    the graph is connected with diameter at most 3."""
    if ctx.reduced:
        decomposes, _ = ctx.decomposition
        if decomposes:
            return TheoremCheck("T3.vnr-or-nil", applicable=False, passed=None)
    inv = ctx.ia_inv
    ok = inv.connected and inv.diameter is not None and inv.diameter <= 3
    witness = None if ok else {"connected": inv.connected, "diameter": _num(inv.diameter)}
    return TheoremCheck("T3.vnr-or-nil", applicable=True, passed=ok, witness=witness)


def _check_girth(ctx: _RingContext) -> TheoremCheck:
    """Girth is 3 or infinite, never anything else."""
    inv = ctx.ia_inv
    ok = inv.girth is None or inv.girth == 3
    witness = None if ok else {"girth": _num(inv.girth)}
    return TheoremCheck("T3.girth", applicable=True, passed=ok, witness=witness)


def _check_diam3(ctx: _RingContext) -> TheoremCheck:
    """More than 2 vertices: connected with diameter at most 3; exactly 3: complete."""
    inv = ctx.ia_inv
    if inv.vertex_count <= 2:
        return TheoremCheck("T3.diam3", applicable=False, passed=None)
    ok = inv.connected and inv.diameter is not None and inv.diameter <= 3
    if inv.vertex_count == 3:
        ok = ok and inv.complete
    witness = None
    if not ok:
        witness = {
            "vertices": inv.vertex_count,
            "connected": inv.connected,
            "diameter": _num(inv.diameter),
            "complete": inv.complete,
        }
    return TheoremCheck("T3.diam3", applicable=True, passed=ok, witness=witness)


def _check_card2(ctx: _RingContext) -> TheoremCheck:
    """Exactly 2 vertices: the single possible edge exists iff Z(R) is an ideal."""
    inv = ctx.ia_inv
    if inv.vertex_count != 2:
        return TheoremCheck("T3.card2", applicable=False, passed=None)
    edge = inv.edge_count == 1
    ok = edge == ctx.z_ideal
    witness = None if ok else {"edge": edge, "z_ideal": ctx.z_ideal}
    return TheoremCheck("T3.card2", applicable=True, passed=ok, witness=witness)


def _check_torsion_complete(ctx: _RingContext) -> TheoremCheck:
    """The torsion graph is complete iff the compressed graph is complete."""
    tor = ctx.torsion
    n = tor.vertex_count
    tor_complete = tor.edge_count == n * (n - 1) // 2
    ok = tor_complete == ctx.ia_inv.complete
    witness = None
    if not ok:
        witness = {"torsion_complete": tor_complete, "ia_complete": ctx.ia_inv.complete}
    return TheoremCheck("T3.torsion-complete", applicable=True, passed=ok, witness=witness)


def _check_torsion_diam(ctx: _RingContext) -> TheoremCheck:
    """Connectivity transfers both ways; diameters agree past a single vertex."""
    tor = ctx.torsion
    tor_diam = diameter(tor)
    tor_conn = tor_diam is not None
    ia_conn = ctx.ia_inv.connected
    ok = tor_conn == ia_conn
    if ok and ctx.ia_inv.vertex_count > 1:
        ok = tor_diam == ctx.ia_inv.diameter
    witness = None
    if not ok:
        witness = {
            "torsion_connected": tor_conn,
            "ia_connected": ia_conn,
            "torsion_diameter": _num(tor_diam),
            "ia_diameter": _num(ctx.ia_inv.diameter),
        }
    return TheoremCheck("T3.torsion-diam", applicable=True, passed=ok, witness=witness)


def _check_gcd_adj(ctx: _RingContext) -> TheoremCheck:
    """For Z_n the brute-force graph equals the divisor/gcd form, label for label."""
    if len(ctx.factors) != 1:
        return TheoremCheck("L4.gcd-adj", applicable=False, passed=None)
    symbolic = build_ia_zn_symbolic(dict(factorize(ctx.factors[0])), ctx.caps.graph)
    brute = ctx.ia
    ok = set(brute.labels) == set(symbolic.labels) and brute.edge_labels() == symbolic.edge_labels()
    witness = None
    if not ok:
        witness = {
            "brute_vertices": sorted(brute.labels),
            "symbolic_vertices": sorted(symbolic.labels),
            "brute_edges": sorted(sorted(e) for e in brute.edge_labels()),
            "symbolic_edges": sorted(sorted(e) for e in symbolic.edge_labels()),
        }
    return TheoremCheck("L4.gcd-adj", applicable=True, passed=ok, witness=witness)


def _check_three_primes(ctx: _RingContext) -> TheoremCheck:
    """Z_n with at least 3 prime factors (with multiplicity): connected,
    diameter at most 2, girth 3; diameter exactly 2 given 2 distinct primes."""
    if len(ctx.factors) != 1:
        return TheoremCheck("L4.three-primes", applicable=False, passed=None)
    n = ctx.factors[0]
    if big_omega(n) < 3:
        return TheoremCheck("L4.three-primes", applicable=False, passed=None)
    inv = ctx.ia_inv
    ok = (
        inv.connected
        and inv.diameter is not None
        and inv.diameter <= 2
        and inv.girth == 3
    )
    if len(factorize(n)) >= 2:  # at least two distinct primes: diameter exactly 2
        ok = ok and inv.diameter == 2
    witness = None
    if not ok:
        witness = {
            "n": n,
            "vertices": inv.vertex_count,
            "connected": inv.connected,
            "diameter": _num(inv.diameter),
            "girth": _num(inv.girth),
        }
    return TheoremCheck("L4.three-primes", applicable=True, passed=ok, witness=witness)


def _check_two_domains(ctx: _RingContext) -> TheoremCheck:
    """A product of exactly two prime fields: two isolated vertices."""
    fac = ctx.factors
    if len(fac) != 2 or not all(is_prime(n) for n in fac):
        return TheoremCheck("T5.two-domains", applicable=False, passed=None)
    inv = ctx.ia_inv
    ok = inv.vertex_count == 2 and inv.edge_count == 0
    witness = None
    if not ok:
        witness = {"vertices": inv.vertex_count, "edges": inv.edge_count}
    return TheoremCheck("T5.two-domains", applicable=True, passed=ok, witness=witness)


def _check_n_domains(ctx: _RingContext) -> TheoremCheck:
    """A product of more than two prime fields: connected, diameter 2, girth 3."""
    fac = ctx.factors
    if len(fac) <= 2 or not all(is_prime(n) for n in fac):
        return TheoremCheck("T5.n-domains", applicable=False, passed=None)
    inv = ctx.ia_inv
    ok = inv.connected and inv.diameter == 2 and inv.girth == 3
    witness = None if ok else _inv_witness(inv)
    return TheoremCheck("T5.n-domains", applicable=True, passed=ok, witness=witness)


def _check_artinian_local(ctx: _RingContext) -> TheoremCheck:
    """A product of local factors Z_{p^k}, each with k >= 2 (so each carries a
    nilpotent whose annihilator is the maximal ideal): connected, diameter 2,
    girth 3.  Field factors are excluded; those products belong to the
    domain-product or mixed cases."""
    fac = ctx.factors
    if len(fac) < 2:
        return TheoremCheck("T5.artinian-local", applicable=False, passed=None)
    for n in fac:
        if not is_prime_power(n) or is_prime(n):
            return TheoremCheck("T5.artinian-local", applicable=False, passed=None)
    inv = ctx.ia_inv
    ok = inv.connected and inv.diameter == 2 and inv.girth == 3
    witness = None if ok else _inv_witness(inv)
    return TheoremCheck("T5.artinian-local", applicable=True, passed=ok, witness=witness)


def _check_mixed(ctx: _RingContext) -> TheoremCheck:
    """A product of two factors where at least one has a nonzero zero-divisor:
    connected, not complete, diameter at most 3, girth 3."""
    fac = ctx.factors
    if len(fac) != 2 or all(is_prime(n) for n in fac):
        return TheoremCheck("T5.mixed", applicable=False, passed=None)
    inv = ctx.ia_inv
    ok = (
        inv.connected
        and not inv.complete
        and inv.diameter is not None
        and inv.diameter <= 3
        and inv.girth == 3
    )
    witness = None if ok else _inv_witness(inv)
    return TheoremCheck("T5.mixed", applicable=True, passed=ok, witness=witness)


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


class _CheckIds(tuple):
    """Check ids already resolved and validated, so passing them on costs no rescan."""


def resolve_check_ids(checks) -> tuple[str, ...]:
    if type(checks) is _CheckIds:
        return checks
    if checks in (None, "all") or checks == ("all",) or checks == ["all"]:
        return _CheckIds(CHECK_IDS)
    ids = _CheckIds(checks)
    for cid in ids:
        if cid not in _CHECK_FUNCS:
            raise ValueError(f"unknown check id {cid!r}")
    return ids


def _run_checks(ctx: _RingContext, ids) -> RingReport:
    """Run the checks ids on one context; a check it cannot evaluate, or one
    that would exceed a cap, is reported skipped with the reason."""
    results = []
    available = ctx.check_ids
    for cid in ids:
        reason = "" if cid in available else "not available in symbolic mode"
        if not reason:
            try:
                results.append(_CHECK_FUNCS[cid](ctx))
                continue
            except CapExceededError as exc:
                reason = str(exc)
        results.append(
            TheoremCheck(cid, applicable=False, passed=None, skipped=True, reason=reason)
        )
    elapsed = (time.perf_counter_ns() - ctx.start_ns) // 1_000_000
    return RingReport(ring=ctx.ring_id, checks=results, timing_ms=int(elapsed))


def check_ring(ring, checks="all", caps: Caps | None = None) -> RingReport:
    """Run the selected checks on one ring, brute-force mode."""
    if isinstance(ring, str):
        ring = ProductRing(parse_ring_spec(ring))
    elif isinstance(ring, RingSpec):
        ring = ProductRing(ring)
    ids = resolve_check_ids(checks)
    return _run_checks(_RingContext(ring, caps or Caps()), ids)


def embedding_check(ring, caps: Caps | None = None) -> TheoremCheck:
    """Standalone entry for the total-graph embedding law."""
    return check_ring(ring, ("T2.embed",), caps).checks[0]


# ---------------------------------------------------------------------------
# symbolic-mode checking for Z_n


_SYMBOLIC_INV_CACHE: dict[tuple[int, ...], InvariantReport] = {}


def symbolic_invariants(n: int, caps: Caps) -> InvariantReport:
    """Invariants of the divisor-form graph of Z_n.

    The divisor graph depends only on the multiset of exponents in the
    factorization of n (divisors correspond to exponent vectors and gcd
    adjacency only reads those vectors), so results are cached per
    exponent signature.
    """
    fac = factorize(n)
    sig = tuple(sorted((e for _, e in fac), reverse=True))
    if sig not in _SYMBOLIC_INV_CACHE:
        _SYMBOLIC_INV_CACHE[sig] = invariants(build_ia_zn_symbolic(dict(fac), caps.graph))
    return _SYMBOLIC_INV_CACHE[sig]


def check_zn_symbolic(n: int, checks="all", caps: Caps | None = None) -> RingReport:
    """Run the symbolic-capable checks on Z_n without enumerating elements."""
    ids = resolve_check_ids(checks)
    return _run_checks(_ZnSymbolicContext(n, caps or Caps()), ids)


# ---------------------------------------------------------------------------
# sweeps


class SelfCheckError(RuntimeError):
    """A periodic self-check found a cached result disagreeing with its recomputation."""


@dataclass
class SweepConfig:
    family: str  # zn | zn-symbolic | products | domain-products
    max_n: int  # max modulus (zn families) / max order (products) / max k
    max_factors: int = 3
    checks: tuple[str, ...] | str = "all"
    caps: Caps = field(default_factory=Caps)
    jobs: int = 1

    def __post_init__(self):
        if self.family not in ("zn", "zn-symbolic", "products", "domain-products"):
            raise ValueError(f"unknown sweep family {self.family!r}")
        if self.max_n < 2:
            raise ValueError("sweep bound must be at least 2")
        if self.max_factors < 1:
            raise ValueError("max_factors must be at least 1")
        max_jobs = os.cpu_count() or 1
        if type(self.jobs) is not int or not 1 <= self.jobs <= max_jobs:
            raise ValueError(f"jobs must be an integer from 1 to {max_jobs}, got {self.jobs!r}")
        self.checks = resolve_check_ids(self.checks)


@dataclass
class CheckStats:
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
    out = []
    cand = 2
    while len(out) < k:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


def _sweep_items(config: SweepConfig):
    if config.family == "zn":
        return [RingSpec((n,)) for n in range(2, config.max_n + 1)]
    if config.family == "zn-symbolic":
        return list(range(2, config.max_n + 1))
    if config.family == "products":
        return enumerate_product_specs(config.max_n, config.max_factors)
    primes = _first_primes(config.max_factors)
    return [RingSpec(tuple(primes[:k])) for k in range(2, config.max_factors + 1)]


def _run_item(item, config: SweepConfig) -> RingReport:
    if config.family != "zn-symbolic":
        return check_ring(item, config.checks, config.caps)
    report = check_zn_symbolic(item, config.checks, config.caps)
    # periodic cache validation: rebuild the divisor graph and compare
    if item % 199 == 0:
        fresh = invariants(build_ia_zn_symbolic(dict(factorize(item)), config.caps.graph))
        if fresh != symbolic_invariants(item, config.caps):
            raise SelfCheckError(f"symbolic cache mismatch at n={item}")
    return report


def sweep(config: SweepConfig, report_sink=None) -> SweepAggregate:
    """Run the configured family; aggregate per-check outcomes deterministically.
    With jobs > 1 the reports stream back from a pool in item order (imap)."""
    items = _sweep_items(config)
    start = time.perf_counter_ns()
    stats = {cid: CheckStats() for cid in config.checks}

    count = 0
    with contextlib.ExitStack() as stack:
        if config.jobs > 1:
            from multiprocessing import Pool

            pool = stack.enter_context(Pool(config.jobs))
            reports = pool.imap(partial(_run_item, config=config), items, chunksize=64)
        else:
            reports = (_run_item(item, config) for item in items)
        for report in reports:
            count += 1
            for check in report.checks:
                stats[check.id].absorb(report.ring, check)
            if report_sink is not None:
                report_sink(report)
    elapsed = (time.perf_counter_ns() - start) // 1_000_000
    return SweepAggregate(
        family=config.family, ring_count=count, stats=stats, elapsed_ms=int(elapsed)
    )
