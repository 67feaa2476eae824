"""Harness behavior: per-check verdicts, sweeps, skips, determinism."""

import dataclasses
import json
import os
import pathlib
import re

import numpy as np
import pytest

from iagraph import theorems
from iagraph.graphs import build_ia, build_ia_zn_symbolic
from iagraph.invariants import invariants
from iagraph.rings import ProductRing, Subring, UnsupportedVariantError, factorize, product_ring
from iagraph.theorems import (
    _SIGNATURE_CACHE,
    SelfCheckError,
    _RingContext,
    CHECK_IDS,
    CSV_HEADER,
    Caps,
    CheckStats,
    SweepAggregate,
    SweepConfig,
    check_ring,
    check_zn_symbolic,
    embedding_check,
    enumerate_product_specs,
    report_csv_rows,
    resolve_check_ids,
    sweep,
    symbolic_invariants,
)


def by_id(report, cid):
    for check in report.checks:
        if check.id == cid:
            return check
    raise KeyError(cid)


# ---------------------------------------------------------------------------
# single-ring verdicts on hand-verified rings


def test_z8_local_ring_complete_side():
    report = check_ring("Z8")
    goldie = by_id(report, "T2.goldie")
    assert goldie.applicable and goldie.passed
    thann = by_id(report, "T2.thann")
    assert thann.applicable and thann.passed  # Z(Z8) is killed by 4
    ideal = by_id(report, "T2.ideal")
    assert ideal.applicable and ideal.passed


def test_z12_checks():
    report = check_ring("Z12")
    assert by_id(report, "T2.goldie").passed  # neither ideal nor complete
    diam3 = by_id(report, "T3.diam3")
    assert diam3.applicable and diam3.passed
    assert by_id(report, "T3.card2").applicable is False
    three = by_id(report, "L4.three-primes")
    assert three.applicable and three.passed  # 12 = 2*2*3, diameter exactly 2
    assert by_id(report, "T2.embed").passed
    assert by_id(report, "T2.subring").passed
    assert by_id(report, "L4.gcd-adj").passed
    assert report.failures == []


def test_z8_three_primes_girth_witness():
    """8 = 2*2*2 meets the three-factor hypothesis but compresses to a single
    edge, so the girth-3 clause fails; the harness must surface the witness."""
    check = by_id(check_ring("Z8"), "L4.three-primes")
    assert check.applicable
    assert check.passed is False
    assert check.witness["girth"] == "inf"
    assert check.witness["vertices"] == 2


def test_two_prime_fields():
    report = check_ring("Z3xZ3")
    td = by_id(report, "T5.two-domains")
    assert td.applicable and td.passed
    card2 = by_id(report, "T3.card2")
    assert card2.applicable and card2.passed  # no edge, Z(R) not an ideal
    assert by_id(report, "T5.mixed").applicable is False
    assert by_id(report, "T5.n-domains").applicable is False


def test_card2_with_edge():
    # 27 = 3^3 gives two classes joined by an edge and Z(R) an ideal
    card2 = by_id(check_ring("Z27"), "T3.card2")
    assert card2.applicable and card2.passed


def test_artinian_local_product():
    report = check_ring("Z4xZ4")
    check = by_id(report, "T5.artinian-local")
    assert check.applicable and check.passed
    assert by_id(report, "T5.mixed").applicable and by_id(report, "T5.mixed").passed
    assert by_id(report, "T2.subring").passed


def test_mixed_product_with_field_factor():
    report = check_ring("Z2xZ4")
    mixed = by_id(report, "T5.mixed")
    assert mixed.applicable and mixed.passed
    assert by_id(report, "T5.artinian-local").applicable is False


def test_n_domains():
    report = check_ring("Z2xZ3xZ5")
    check = by_id(report, "T5.n-domains")
    assert check.applicable and check.passed
    assert by_id(report, "T5.two-domains").applicable is False


def test_vnr_hypothesis_routing():
    # Z2xZ2 is reduced and splits as ann((0,1)) (+) ann((1,0)): hypothesis off
    assert by_id(check_ring("Z2xZ2"), "T3.vnr-or-nil").applicable is False
    # Z4 is not reduced: hypothesis on, conclusion holds
    vnr = by_id(check_ring("Z4"), "T3.vnr-or-nil")
    assert vnr.applicable and vnr.passed
    # a field is reduced with no zero-divisor pair at all: hypothesis on, vacuous
    vnr_field = by_id(check_ring("Z7"), "T3.vnr-or-nil")
    assert vnr_field.applicable and vnr_field.passed


def test_embed_vacuous_note():
    check = by_id(check_ring("Z6"), "T2.embed")
    assert check.passed
    assert "vacuous" in check.reason


def test_embedding_check_entry_point():
    check = embedding_check("Z4xZ4")
    assert check.id == "T2.embed"
    assert check.passed


def test_embedding_check_skip_reason():
    check = embedding_check("Z256")
    assert check.skipped and not check.applicable
    assert check.reason == "order 256 above total cap 200"


def test_diam3_three_vertices_complete():
    # 16 = 2^4 compresses to a triangle
    check = by_id(check_ring("Z16"), "T3.diam3")
    assert check.applicable and check.passed


def test_torsion_checks_small():
    for rid in ("Z9", "Z12", "Z2xZ2", "Z4xZ4", "Z30"):
        report = check_ring(rid)
        assert by_id(report, "T3.torsion-complete").passed, rid
        assert by_id(report, "T3.torsion-diam").passed, rid


def test_gcd_adj_inapplicable_for_products():
    assert by_id(check_ring("Z2xZ3"), "L4.gcd-adj").applicable is False


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError):
        check_ring("Z12", checks=("T9.bogus",))


def test_single_check_id_string_is_one_id():
    assert resolve_check_ids("T3.girth") == ("T3.girth",)
    for ring in ("Z12", "Z4xZ4"):
        one, tupled = check_ring(ring, "T3.girth"), check_ring(ring, ("T3.girth",))
        assert (one.ring, one.checks) == (tupled.ring, tupled.checks)
        assert [c.id for c in one.checks] == ["T3.girth"]
    with pytest.raises(ValueError, match="unknown check id 'T9.bogus'"):
        check_ring("Z12", "T9.bogus")


def test_summary_counts_match():
    report = check_ring("Z12")
    s = report.summary()
    assert s["checks"] == len(CHECK_IDS)
    assert s["applicable"] == sum(
        1 for c in report.checks if c.applicable and not c.skipped
    )
    assert s["passed"] + s["failed"] == s["applicable"]


def test_readme_check_table_lists_every_check_in_order():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Checks\n", 1)[1].split("\n## ", 1)[0]
    assert tuple(re.findall(r"^\| `([^`]+)` \|", section, re.M)) == CHECK_IDS


# ---------------------------------------------------------------------------
# caps and skips


def test_tiny_element_cap_skips_visibly():
    report = check_ring("Z12", caps=Caps(element=5))
    skipped = [c for c in report.checks if c.skipped]
    assert skipped, "cap should force skips"
    for c in skipped:
        assert "cap" in c.reason
    assert not any(c.failed for c in report.checks)
    # no check may claim a pass that needed enumeration; the graph-side checks
    # read the signature cache and get the verdicts of the default caps
    element_checks = {"T2.subring", "T2.embed", "T3.torsion-complete", "T3.torsion-diam", "L4.gcd-adj"}
    full = check_ring("Z12")
    for c in report.checks:
        if c.id in element_checks:
            assert c.skipped or not c.applicable, c
        else:
            assert c == by_id(full, c.id), c


def test_torsion_cap_skip_reason():
    report = check_ring("Z12", caps=Caps(torsion=5))
    check = by_id(report, "T3.torsion-complete")
    assert check.skipped and "torsion cap" in check.reason


def test_caps_from_env():
    caps = Caps.from_env({"IAGRAPH_CAPS": "element=777, torsion=42"})
    assert caps.element == 777 and caps.torsion == 42 and caps.total == 200
    with pytest.raises(ValueError):
        Caps.from_env({"IAGRAPH_CAPS": "bogus=1"})
    assert Caps.from_env({}) == Caps()


def test_caps_defaults_are_the_module_defaults():
    from iagraph.graphs import DEFAULT_GRAPH_VERTEX_CAP
    from iagraph.invariants import DEFAULT_ISO_VERTEX_CAP
    from iagraph.rings import DEFAULT_ELEMENT_CAP

    caps = Caps()
    assert (caps.element, caps.graph, caps.iso) == (5000, 4096, 64)
    assert (caps.element, caps.graph, caps.iso) == (
        DEFAULT_ELEMENT_CAP,
        DEFAULT_GRAPH_VERTEX_CAP,
        DEFAULT_ISO_VERTEX_CAP,
    )


def test_caps_must_be_positive_integers():
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ValueError):
            Caps(graph=bad)
    with pytest.raises(ValueError):
        Caps.from_env({"IAGRAPH_CAPS": "element=0"})


# ---------------------------------------------------------------------------
# symbolic mode


def test_symbolic_matches_brute_reports():
    ids = ("T3.girth", "T3.diam3", "T3.card2", "T2.no-Kmn", "L4.three-primes")
    for n in list(range(2, 150)) + [360, 1024, 4096]:
        sym = check_zn_symbolic(n, ids)
        brute = check_ring(f"Z{n}", ids)
        got = [(c.id, c.applicable, c.passed) for c in sym.checks]
        want = [(c.id, c.applicable, c.passed) for c in brute.checks]
        assert got == want, n


def test_symbolic_cache_consistency():
    for n in (60, 90, 600, 2250, 44100):
        cached = symbolic_invariants(n, Caps())
        fresh = invariants(build_ia_zn_symbolic(dict(factorize(n))))
        assert cached == fresh, n


def test_symbolic_reports_carry_timing(monkeypatch):
    """A cold cache entry (766 divisor vertices) is built inside the timed span."""
    monkeypatch.delitem(_SIGNATURE_CACHE, (5, 3, 1, 1, 1, 1, 1), raising=False)
    report = check_zn_symbolic(2**5 * 3**3 * 5 * 7 * 11 * 13 * 17, ("T3.girth",))
    assert report.ring == "Z73513440"
    assert report.to_json_dict()["timing_ms"] == report.timing_ms > 0


def test_symbolic_unavailable_checks_are_skipped():
    """Symbolic mode skips the checks that read elements beyond the graph; the
    closed forms make the ring-side graph checks available."""
    report = check_zn_symbolic(120, "all")
    for cid in ("T2.subring", "T2.embed", "T3.torsion-complete", "T3.torsion-diam"):
        check = by_id(report, cid)
        assert check.skipped and check.reason == "not available in symbolic mode", cid
    brute = check_ring("Z120")
    for cid in CHECK_IDS:
        if not by_id(report, cid).skipped:
            assert by_id(report, cid) == by_id(brute, cid), cid
    report = check_zn_symbolic(10**5, ("T2.goldie", "T3.girth"))
    for cid in ("T2.goldie", "T3.girth"):
        assert by_id(report, cid).applicable and by_id(report, cid).passed, cid


def test_symbolic_gcd_adj_runs_below_cap_and_skips_above():
    report = check_zn_symbolic(120, ("L4.gcd-adj",))
    assert by_id(report, "L4.gcd-adj").passed
    report = check_zn_symbolic(10**5, ("L4.gcd-adj",))
    check = by_id(report, "L4.gcd-adj")
    assert check.skipped and "element cap" in check.reason


def test_symbolic_graph_cap_is_a_skip_cold_and_cached(monkeypatch):
    """720 = 2^4 3^2 5 has 28 divisor vertices.  Over the graph cap the check is
    skipped, whether the signature is cold or cached under the default cap."""
    monkeypatch.delitem(_SIGNATURE_CACHE, (4, 2, 1), raising=False)
    for caps in (Caps(graph=4), Caps(), Caps(graph=4)):
        check = by_id(check_zn_symbolic(720, ("T3.girth",), caps), "T3.girth")
        if caps.graph == 4:
            assert check.skipped, check
            assert check.reason == "28 divisor vertices above graph cap 4"
        else:
            assert check.passed and (4, 2, 1) in _SIGNATURE_CACHE


def test_symbolic_sweep_over_graph_cap_rechecks_nothing():
    """796 = 4 * 199 is due for the periodic recheck; over the cap it is a skip."""
    agg = sweep(
        SweepConfig(family="zn-symbolic", max_n=800, checks=("T3.girth",), caps=Caps(graph=2))
    )
    stats = agg.stats["T3.girth"]
    assert stats.skipped + stats.passed + stats.failed + stats.inapplicable == 799
    assert stats.skip_reasons["4 divisor vertices above graph cap 2"] > 0


# ---------------------------------------------------------------------------
# the signature cache, the closed forms and the cross-check


@pytest.fixture
def cold_signatures(monkeypatch):
    """An empty signature cache and no signature cross-checked yet."""
    monkeypatch.setattr(theorems, "_SIGNATURE_CACHE", {})
    monkeypatch.setattr(theorems, "_CROSS_CHECKED", set())
    return theorems


def has_nonzero_nilpotent(ring):
    """Brute powering of every element, vectorized: x^(2^k) for k = bit length."""
    x = np.array(ring.elements(), dtype=np.int64)
    mods = np.array(ring.spec.factors, dtype=np.int64)
    for _ in range(ring.order.bit_length()):
        x = x * x % mods
    return int((x == 0).all(axis=1).sum()) > 1


def test_signature_cache_and_closed_forms_equal_the_engine(cold_signatures):
    """Every spec of order <= 300 with up to 4 factors: the cached report of the
    signature equals the invariants of the brute-force graph, and each closed
    form equals the engine's scan."""
    specs = [(n,) for n in range(2, 301)] + [s.factors for s in enumerate_product_specs(300, 4)]
    assert len(specs) == 1456
    for factors in specs:
        ring = product_ring("x".join(f"Z{n}" for n in factors))
        ctx = _RingContext(factors, Caps())
        assert ctx.ia_inv == invariants(build_ia(ring)), factors
        assert ctx.z_ideal == (ring.zero_divisor_ideal_witness() is None), factors
        common = ring.common_annihilator_of_zero_divisors()
        assert ctx.common_ann_nonzero == (len(common) > 1), factors
        assert ctx.decomposes == ring.has_ann_direct_sum_decomposition()[0], factors
        assert ctx.reduced == (not has_nonzero_nilpotent(ring)), factors
    assert len(cold_signatures._SIGNATURE_CACHE) == len({_RingContext(f, Caps()).signature for f in specs})


def test_above_element_cap_graph_checks_get_verdicts():
    """Z101xZ103 has order 10403: the graph-side checks read the signature and agree
    with a brute-force run under a larger element cap; the element-level checks
    are still skipped, each on its own cap."""
    report = check_ring("Z101xZ103")
    brute = check_ring("Z101xZ103", caps=Caps(element=20_000))
    skipped = {c.id: c.reason for c in report.checks if c.skipped}
    assert skipped == {
        "T2.subring": "order 10403 above subring cap 500",
        "T2.embed": "order 10403 above total cap 200",
        "T3.torsion-complete": "order 10403 above torsion cap 300",
        "T3.torsion-diam": "order 10403 above torsion cap 300",
    }
    for check in report.checks:
        if check.id not in skipped:
            assert check == by_id(brute, check.id), check.id
    assert by_id(report, "T5.two-domains").passed
    gcd = by_id(check_ring("Z10007"), "L4.gcd-adj")
    assert gcd.skipped and gcd.reason == "Z10007 has order 10007, above the cap 5000"


def test_products_above_element_cap_are_not_skipped():
    agg = sweep(SweepConfig(family="products", max_n=6000, max_factors=2, checks=("T3.girth",)))
    stats = agg.stats["T3.girth"]
    assert stats.skipped == 0 and stats.failed == 0 and stats.passed == agg.ring_count > 10_000


def test_failing_checks_carry_witnesses(cold_signatures, monkeypatch):
    """A poisoned entry (the complete two-vertex graph of Z8 for two local factors)
    makes T2.goldie and T2.ideal fail.  Below the element cap the engine supplies
    the first pair with a sum outside Z(R); above it the closed form is the
    witness, and the failure is never turned into a skip."""
    monkeypatch.setitem(cold_signatures._SIGNATURE_CACHE, (1, 1), invariants(build_ia_zn_symbolic({2: 3})))
    cold_signatures._CROSS_CHECKED.add((1, 1))
    ids = ("T2.ideal", "T2.goldie", "T3.card2")
    small = check_ring("Z2xZ3", ids)
    assert [c.failed for c in small.checks] == [True, True, True]
    assert by_id(small, "T2.ideal").witness == {"non_closed_pair": ["(0,1)", "(1,0)"]}
    assert by_id(small, "T2.goldie").witness == {
        "z_ideal": False,
        "ia_complete": True,
        "non_closed_pair": ["(0,1)", "(1,0)"],
    }
    assert by_id(small, "T3.card2").witness == {"edge": True, "z_ideal": False}
    large = check_ring("Z101xZ103", ids)
    assert by_id(large, "T2.ideal").witness == {"local_factors": 2}
    assert by_id(large, "T2.goldie").witness == {
        "z_ideal": False,
        "ia_complete": True,
        "local_factors": 2,
    }
    assert by_id(check_zn_symbolic(10403, ids), "T2.goldie").witness == by_id(large, "T2.goldie").witness
    assert by_id(check_zn_symbolic(6, ids), "T2.ideal").witness == {"non_closed_pair": ["2", "3"]}


def test_cross_check_catches_a_poisoned_entry(cold_signatures, monkeypatch):
    monkeypatch.setitem(cold_signatures._SIGNATURE_CACHE, (1, 1), invariants(build_ia_zn_symbolic({2: 3})))
    with pytest.raises(SelfCheckError, match="signature cache mismatch on invariants at Z2xZ3"):
        check_ring("Z2xZ3", ("T3.girth",))
    assert (1, 1) not in cold_signatures._CROSS_CHECKED
    check_zn_symbolic(6, ("T3.girth",))  # symbolic mode runs no element cross-check


def test_cross_check_once_per_signature_within_the_element_cap(cold_signatures, monkeypatch):
    calls = []
    original = cold_signatures._cross_check
    monkeypatch.setattr(cold_signatures, "_cross_check", lambda ctx: calls.append(ctx.ring_id) or original(ctx))
    for spec in ("Z101xZ103", "Z6", "Z10", "Z2xZ3", "Z12", "Z10007"):
        check_ring(spec, ("T3.girth",))
    assert calls == ["Z6", "Z12"]
    assert cold_signatures._CROSS_CHECKED == {(1, 1), (2, 1)}
    check_ring("Z8xZ3", ("T3.girth",), Caps(graph=1))  # over the graph cap: nothing to compare
    assert calls[-1] == "Z8xZ3" and (3, 1) not in cold_signatures._CROSS_CHECKED


def _closure_scans(monkeypatch):
    """Record every subring that Subring.validate_closure scans."""
    scans = []
    original = Subring.validate_closure
    monkeypatch.setattr(Subring, "validate_closure", lambda sub: scans.append(sub) or original(sub))
    return scans


def _generate(monkeypatch, members):
    """Make subring_generated return a subring of the given members."""
    monkeypatch.setattr(
        ProductRing,
        "subring_generated",
        lambda self, gens, include_one=False, cap=None: Subring(self, frozenset(members)),
    )


def test_subring_of_the_whole_ring_is_accepted_without_a_closure_scan(monkeypatch):
    scans = _closure_scans(monkeypatch)
    for rid in ("Z12", "Z4xZ6", "Z2xZ3xZ5"):
        assert by_id(check_ring(rid, ("T2.subring",)), "T2.subring").passed, rid
    assert scans == []


def test_proper_subring_is_closure_checked_and_compared(monkeypatch):
    scans = _closure_scans(monkeypatch)
    _generate(monkeypatch, [(0,), (2,), (4,), (6,)])  # 2Z_8: one edge, as Z8's graph
    assert by_id(check_ring("Z8", ("T2.subring",)), "T2.subring").passed
    assert [sub.order for sub in scans] == [4]


def test_proper_subring_that_is_not_closed_raises(monkeypatch):
    _generate(monkeypatch, [(0,), (2,)])  # 2 + 2 = 4 is outside
    with pytest.raises(ValueError, match="not closed"):
        check_ring("Z8", ("T2.subring",))


def test_whole_ring_subring_keeps_the_isomorphism_cap_skip():
    check = by_id(check_ring("Z4xZ6xZ12", ("T2.subring",)), "T2.subring")
    assert check.skipped
    assert check.reason == "isomorphism cap 64 exceeded (70 vs 70 vertices)"


def test_check_ring_takes_product_rings_only(generated_subrings):
    with pytest.raises(UnsupportedVariantError):
        check_ring(generated_subrings[0])


# ---------------------------------------------------------------------------
# sweeps


def test_zn_sweep_to_100_all_checks_known_outcome():
    """Outcome computed from the definitions: the only failures in 2..100 are
    the three-factor girth clause at the prime cubes 8 and 27."""
    agg = sweep(SweepConfig(family="zn", max_n=100, checks="all"))
    assert agg.ring_count == 99
    assert agg.total_failures == 2
    failed = {f["ring"] for f in agg.failures_for("L4.three-primes")}
    assert failed == {"Z8", "Z27"}
    for cid, stats in agg.stats.items():
        if cid != "L4.three-primes":
            assert stats.failed == 0, cid


def test_products_sweep_t5_checks_pass():
    agg = sweep(
        SweepConfig(
            family="products",
            max_n=200,
            max_factors=3,
            checks=("T5.two-domains", "T5.n-domains", "T5.artinian-local", "T5.mixed"),
        )
    )
    assert agg.total_failures == 0
    for cid in ("T5.two-domains", "T5.n-domains", "T5.artinian-local", "T5.mixed"):
        assert agg.stats[cid].applicable > 0, cid


def test_symbolic_sweep_known_failures():
    agg = sweep(
        SweepConfig(
            family="zn-symbolic",
            max_n=300,
            checks=("L4.gcd-adj", "L4.three-primes", "T3.girth", "T2.no-Kmn"),
        )
    )
    assert agg.stats["L4.gcd-adj"].failed == 0
    assert agg.stats["T3.girth"].failed == 0
    assert agg.stats["T2.no-Kmn"].failed == 0
    failed = {f["ring"] for f in agg.stats["L4.three-primes"].failures}
    assert failed == {"Z8", "Z27", "Z125"}


def test_domain_products_sweep():
    agg = sweep(SweepConfig(family="domain-products", max_n=4, max_factors=4))
    assert agg.ring_count == 3  # k = 2, 3, 4
    assert agg.total_failures == 0
    assert agg.stats["T5.two-domains"].applicable == 1
    assert agg.stats["T5.n-domains"].applicable == 2
    assert theorems._first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sweep_determinism():
    config = SweepConfig(family="zn", max_n=60, checks=("T2.goldie", "T3.girth"))
    a = sweep(config).to_json_dict()
    b = sweep(config).to_json_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="jobs=2 needs at least 2 CPUs")
def test_sweep_parallel_matches_serial():
    checks = ("T2.goldie", "T3.diam3")
    serial = sweep(SweepConfig(family="zn", max_n=50, checks=checks, jobs=1)).to_json_dict()
    parallel = sweep(SweepConfig(family="zn", max_n=50, checks=checks, jobs=2)).to_json_dict()
    serial.pop("elapsed_ms")
    parallel.pop("elapsed_ms")
    assert serial == parallel


def _reference_sweep(config):
    """Every ring through check_zn_symbolic or check_ring on its own, aggregated
    in ring order: the streamed (ring, checks) pairs and the aggregate JSON."""
    if config.family == "zn-symbolic":
        moduli = range(2, config.max_n + 1)
        reports = [check_zn_symbolic(n, config.checks, config.caps) for n in moduli]
    else:
        if config.family == "zn":
            specs = [f"Z{n}" for n in range(2, config.max_n + 1)]
        elif config.family == "products":
            specs = enumerate_product_specs(config.max_n, config.max_factors)
        else:
            primes = (2, 3, 5, 7, 11, 13)
            specs = ["x".join(f"Z{p}" for p in primes[:k]) for k in range(2, config.max_n + 1)]
        reports = [check_ring(spec, config.checks, config.caps) for spec in specs]
    stats = {cid: CheckStats() for cid in config.checks}
    for report in reports:
        for check in report.checks:
            stats[check.id].absorb(report.ring, check)
    aggregate = SweepAggregate(config.family, len(reports), stats).to_json_dict()
    return _streamed(reports), aggregate


def _streamed(reports):
    return [(r.ring, [c.to_json_dict() for c in r.checks]) for r in reports]


def _shape_sweep(config):
    reports = []
    aggregate = sweep(config, reports.append).to_json_dict()
    aggregate["elapsed_ms"] = 0
    return reports, aggregate


# The graph-side checks that read only the signature: product rings are keyed by it.
GRAPH_ONLY_CHECKS = tuple(
    cid for cid in CHECK_IDS if cid not in theorems._PER_RING_CHECKS | theorems._FACTOR_CHECKS
)
SHAPE_SWEEP_CASES = [
    SweepConfig(family="zn-symbolic", max_n=3000, checks="all"),
    SweepConfig(family="zn", max_n=200, checks="all"),
    SweepConfig(family="products", max_n=200, max_factors=3, checks="all"),
    SweepConfig(family="products", max_n=300, max_factors=3, checks=GRAPH_ONLY_CHECKS),
    SweepConfig(family="domain-products", max_n=6),
    SweepConfig(family="zn-symbolic", max_n=800, checks="all", caps=Caps(graph=2)),
]


@pytest.mark.parametrize("config", SHAPE_SWEEP_CASES, ids=lambda c: f"{c.family}-{c.max_n}")
def test_shape_sweep_matches_per_ring_reference(cold_signatures, config):
    """A sweep evaluates each ring shape once; its streamed reports and aggregate
    equal those of every ring checked on its own, from cold caches both times."""
    reports, aggregate = _shape_sweep(config)
    cold_signatures._SIGNATURE_CACHE.clear()
    cold_signatures._CROSS_CHECKED.clear()
    assert (_streamed(reports), aggregate) == _reference_sweep(config)
    assert len({id(r.checks) for r in reports}) == len(reports)  # no shared check lists


def test_theorem_checks_are_frozen():
    """A plain pass is one outcome shared by every report, so it must stay frozen."""
    check, again = (by_id(check_ring("Z12", ("T3.girth",)), "T3.girth") for _ in range(2))
    assert check is again
    with pytest.raises(dataclasses.FrozenInstanceError):
        check.passed = False


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="jobs=2 needs at least 2 CPUs")
@pytest.mark.parametrize(
    "config", [SHAPE_SWEEP_CASES[0], SHAPE_SWEEP_CASES[2]], ids=lambda c: c.family
)
def test_shape_sweep_parallel_matches_serial(config):
    serial_reports, serial = _shape_sweep(config)
    parallel_reports, parallel = _shape_sweep(dataclasses.replace(config, jobs=2))
    assert serial == parallel
    assert _streamed(serial_reports) == _streamed(parallel_reports)


@pytest.mark.parametrize("max_n", [2, 3, 4, 10**5])
def test_zn_sieve_signatures_equal_trial_division(max_n):
    """The sieve's signature of every n <= max_n against factorize's trial division."""
    ids, sigs = theorems._zn_signatures(max_n)
    assert ids.shape == (max_n + 1,) and ids.dtype == np.int32
    got = [sigs[i] for i in ids[2:].tolist()]
    assert got == [theorems._signature((n,)) for n in range(2, max_n + 1)]


@pytest.mark.parametrize("checks", [("T3.girth",), ("T3.girth", "T5.mixed")])
def test_products_sweep_cross_checks_the_first_ring_of_each_signature(cold_signatures, checks):
    """Later rings of a shape reuse its checks (keyed by the signature, or with a
    T5 check by the signature of each factor); the engine still confirms every
    signature whose first ring is within the element cap, and no other."""
    caps = Caps(element=50)
    sweep(SweepConfig(family="products", max_n=200, max_factors=3, checks=checks, caps=caps))
    first_orders = {}
    for spec in enumerate_product_specs(200, 3):
        first_orders.setdefault(theorems._signature(spec.factors), spec.order)
    expected = {sig for sig, order in first_orders.items() if order <= caps.element}
    assert cold_signatures._CROSS_CHECKED == expected
    assert expected and len(expected) < len(first_orders)


def test_sweep_skips_are_visible():
    agg = sweep(
        SweepConfig(
            family="zn",
            max_n=30,
            checks=("T3.torsion-complete",),
            caps=Caps(torsion=10),
        )
    )
    stats = agg.stats["T3.torsion-complete"]
    assert stats.skipped == 20  # n from 11 to 30
    assert any("torsion cap" in reason for reason in stats.skip_reasons)


def test_sweep_rejects_bad_config():
    with pytest.raises(ValueError):
        SweepConfig(family="nope", max_n=10)
    with pytest.raises(ValueError):
        SweepConfig(family="zn", max_n=1)
    for jobs in (0, -3, (os.cpu_count() or 1) + 1, 2.0):
        with pytest.raises(ValueError, match="jobs"):
            SweepConfig(family="zn", max_n=10, jobs=jobs)
    with pytest.raises(ValueError, match="unknown check id"):
        SweepConfig(family="zn", max_n=10, checks=("T9.nope",))
    for family in ("zn", "zn-symbolic"):  # the sieve's int32 range; a config allocates nothing
        with pytest.raises(ValueError, match="int32 range"):
            SweepConfig(family=family, max_n=2**31)
        assert SweepConfig(family=family, max_n=2**31 - 1).max_n == 2**31 - 1


def test_sweep_config_resolves_check_ids_once():
    assert SweepConfig(family="zn", max_n=10).checks == CHECK_IDS
    config = SweepConfig(family="zn", max_n=10, checks=["T3.girth"])
    assert config.checks == ("T3.girth",)
    assert resolve_check_ids(config.checks) is config.checks  # passed on without a rescan


def test_enumerate_product_specs_deterministic_order():
    specs = [s.factors for s in enumerate_product_specs(12, 3)]
    assert specs == [
        (2, 2),
        (2, 3),
        (2, 4),
        (2, 2, 2),
        (3, 3),
        (2, 5),
        (2, 6),
        (3, 4),
        (2, 2, 3),
    ]


def test_enumerate_product_specs_bounds():
    for spec in enumerate_product_specs(100, 3):
        assert 2 <= len(spec.factors) <= 3
        assert spec.order <= 100
        assert list(spec.factors) == sorted(spec.factors)


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_shape():
    payload = check_ring("Z12").to_json_dict()
    json.dumps(payload)
    assert payload["ring"] == "Z12"
    assert {c["id"] for c in payload["checks"]} == set(CHECK_IDS)
    assert payload["summary"]["failed"] == 0


def test_report_csv_rows():
    report = check_ring("Z12", checks=("T2.goldie", "T3.card2"))
    rows = report_csv_rows(report)
    assert len(rows) == 2
    assert rows[0] == ["Z12", "T2.goldie", "true", "true", "", "false", ""]
    assert rows[1] == ["Z12", "T3.card2", "false", "", "", "false", ""]
    assert CSV_HEADER == [
        "ring", "check_id", "applicable", "passed", "witness", "skipped", "reason"
    ]
    # a check skipped on a cap and an inapplicable one no longer read alike
    big = report_csv_rows(check_ring("Z1000000000000", checks=("T2.subring", "T2.ideal")))
    assert big[0][1:] == [
        "T2.subring", "false", "", "", "true", "order 1000000000000 above subring cap 500"
    ]
    assert big[1][1:] == ["T2.ideal", "false", "", "", "false", ""]


def test_witnesses_serialize():
    report = check_ring("Z8")
    for check in report.checks:
        json.dumps(check.witness)
