"""Harness behavior: per-check verdicts, sweeps, skips, determinism."""

import json
import os

import pytest

from iagraph.graphs import build_ia_zn_symbolic
from iagraph.invariants import invariants
from iagraph.rings import factorize
from iagraph.theorems import (
    _SYMBOLIC_INV_CACHE,
    CHECK_IDS,
    CSV_HEADER,
    Caps,
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


def test_summary_counts_match():
    report = check_ring("Z12")
    s = report.summary()
    assert s["checks"] == len(CHECK_IDS)
    assert s["applicable"] == sum(
        1 for c in report.checks if c.applicable and not c.skipped
    )
    assert s["passed"] + s["failed"] == s["applicable"]


# ---------------------------------------------------------------------------
# caps and skips


def test_tiny_element_cap_skips_visibly():
    report = check_ring("Z12", caps=Caps(element=5))
    skipped = [c for c in report.checks if c.skipped]
    assert skipped, "cap should force skips"
    for c in skipped:
        assert "cap" in c.reason
    assert not any(c.failed for c in report.checks)
    # no check may claim a pass that needed enumeration
    assert all(c.skipped or not c.applicable for c in report.checks)


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
    monkeypatch.delitem(_SYMBOLIC_INV_CACHE, (5, 3, 1, 1, 1, 1, 1), raising=False)
    report = check_zn_symbolic(2**5 * 3**3 * 5 * 7 * 11 * 13 * 17, ("T3.girth",))
    assert report.ring == "Z73513440"
    assert report.to_json_dict()["timing_ms"] == report.timing_ms > 0


def test_symbolic_unavailable_checks_are_skipped():
    report = check_zn_symbolic(10**5, ("T2.goldie", "T3.girth"))
    goldie = by_id(report, "T2.goldie")
    assert goldie.skipped and "symbolic" in goldie.reason
    girth_check = by_id(report, "T3.girth")
    assert girth_check.applicable and girth_check.passed


def test_symbolic_gcd_adj_runs_below_cap_and_skips_above():
    report = check_zn_symbolic(120, ("L4.gcd-adj",))
    assert by_id(report, "L4.gcd-adj").passed
    report = check_zn_symbolic(10**5, ("L4.gcd-adj",))
    check = by_id(report, "L4.gcd-adj")
    assert check.skipped and "element cap" in check.reason


def test_symbolic_graph_cap_is_a_skip_cold_and_cached(monkeypatch):
    """720 = 2^4 3^2 5 has 28 divisor vertices.  Over the graph cap the check is
    skipped, whether the signature is cold or cached under the default cap."""
    monkeypatch.delitem(_SYMBOLIC_INV_CACHE, (4, 2, 1), raising=False)
    for caps in (Caps(graph=4), Caps(), Caps(graph=4)):
        check = by_id(check_zn_symbolic(720, ("T3.girth",), caps), "T3.girth")
        if caps.graph == 4:
            assert check.skipped, check
            assert check.reason == "28 divisor vertices above graph cap 4"
        else:
            assert check.passed and (4, 2, 1) in _SYMBOLIC_INV_CACHE


def test_symbolic_sweep_over_graph_cap_rechecks_nothing():
    """796 = 4 * 199 is due for the periodic recheck; over the cap it is a skip."""
    agg = sweep(
        SweepConfig(family="zn-symbolic", max_n=800, checks=("T3.girth",), caps=Caps(graph=2))
    )
    stats = agg.stats["T3.girth"]
    assert stats.skipped + stats.passed + stats.failed + stats.inapplicable == 799
    assert stats.skip_reasons["4 divisor vertices above graph cap 2"] > 0


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
    assert rows[0][:4] == ["Z12", "T2.goldie", "true", "true"]
    assert rows[1][:4] == ["Z12", "T3.card2", "false", ""]
    assert CSV_HEADER == ["ring", "check_id", "applicable", "passed", "witness"]


def test_witnesses_serialize():
    report = check_ring("Z8")
    for check in report.checks:
        json.dumps(check.witness)
