"""Command-line surface: outputs, exit codes, determinism."""

import json
import os

import pytest

from iagraph.cli import main
from iagraph.graphs import build_ia_zn_symbolic
from iagraph.invariants import invariants
from iagraph.theorems import _SYMBOLIC_INV_CACHE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build


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


def test_build_dot(capsys):
    code, out, _ = run_cli(capsys, "build", "--ring", "Z12", "--graph", "ia", "--format", "dot")
    assert code == 0
    assert out == EXPECTED_Z12_DOT


def test_build_json(capsys):
    code, out, _ = run_cli(capsys, "build", "--ring", "Z12", "--graph", "ia", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4
    assert len(payload["edges"]) == 4
    assert payload["ring"] == "Z12"


def test_build_symbolic_and_domain_product(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--ring", "Z100000", "--graph", "zn-symbolic", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 34  # d(100000) - 2

    code, out, _ = run_cli(
        capsys, "build", "--graph", "domain-product", "--k", "3", "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 6


def test_build_torsion_and_total(capsys):
    code, out, _ = run_cli(capsys, "build", "--ring", "Z6", "--graph", "total", "--format", "dot")
    assert code == 0
    assert '"4" -- "5";' in out
    code, out, _ = run_cli(capsys, "build", "--ring", "Z12", "--graph", "torsion", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 7


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run_cli(
        capsys, "build", "--ring", "Z12", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == EXPECTED_Z12_DOT


def test_build_determinism(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "build", "--ring", "Z4xZ4", "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# invariants


def test_invariants_json(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--ring", "Z4xZ4", "--graph", "ia")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertex_count"] == 7
    assert payload["edge_count"] == 17
    assert payload["connected"] is True
    assert payload["diameter"] == 2
    assert payload["girth"] == 3


def test_invariants_inf_rendering(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--ring", "Z3xZ3")
    assert code == 0
    payload = json.loads(out)
    assert payload["diameter"] == "inf"


def test_invariants_csv(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--ring", "Z12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("vertex_count,edge_count,connected,diameter,girth")
    assert lines[1].startswith("4,4,true,2,3")


# ---------------------------------------------------------------------------
# verify


def test_verify_clean_ring_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ring", "Z12", "--checks", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0


def test_verify_failing_ring_exit_one(capsys):
    # the three-factor girth clause fails on Z8 (single edge, no cycle)
    code, out, _ = run_cli(capsys, "verify", "--ring", "Z8", "--checks", "all")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 1


def test_verify_check_subset(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--ring", "Z8", "--checks", "T2.goldie,T3.girth"
    )
    assert code == 0
    payload = json.loads(out)
    assert [c["id"] for c in payload["checks"]] == ["T2.goldie", "T3.girth"]


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--ring", "Z12", "--checks", "T2.goldie", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ring,check_id,applicable,passed,witness"
    assert lines[1].startswith("Z12,T2.goldie,true,true")


def test_verify_unknown_check_exit_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--ring", "Z12", "--checks", "T9.nope")
    assert code == 2
    assert out == ""
    assert "unknown check" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "zn", "--max", "30", "--checks", "T2.goldie"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ring_count"] == 29
    assert payload["total_failures"] == 0


def test_sweep_csv_deterministic(capsys):
    args = (
        "sweep", "--family", "zn", "--max", "20",
        "--checks", "T2.goldie,T3.girth", "--format", "csv",
    )
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    lines = first.strip().splitlines()
    assert lines[0] == "ring,check_id,applicable,passed,witness"
    assert len(lines) == 1 + 19 * 2
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_failure_exit_code(capsys):
    # n = 8 sits in range: the three-factor girth clause reports it
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "zn", "--max", "10", "--checks", "L4.three-primes"
    )
    assert code == 1
    payload = json.loads(out)
    failures = payload["checks"]["L4.three-primes"]["failures"]
    assert [f["ring"] for f in failures] == ["Z8"]


def test_sweep_symbolic_family(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "zn-symbolic", "--max", "500",
        "--checks", "T3.girth,T2.no-Kmn",
    )
    assert code == 0
    assert json.loads(out)["ring_count"] == 499


def test_sweep_products_family(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "products", "--max", "60",
        "--max-factors", "3", "--checks", "T2.goldie",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_failures"] == 0
    assert payload["ring_count"] > 30


# ---------------------------------------------------------------------------
# iso


def test_iso_isomorphic_pair(capsys):
    code, out, _ = run_cli(
        capsys, "iso", "--ring", "Z30", "--ring", "Z2xZ3xZ5", "--graph", "ia"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["mapping"]["6"] == "(0,0,1)"


def test_iso_non_isomorphic_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "iso", "--ring", "Z2xZ2", "--ring", "Z4")
    assert code == 0  # verdict printed, nothing expected
    assert json.loads(out)["isomorphic"] is False

    code, out, _ = run_cli(
        capsys, "iso", "--ring", "Z2xZ2", "--ring", "Z4", "--expect", "iso"
    )
    assert code == 1


def test_iso_expect_satisfied(capsys):
    code, _, _ = run_cli(
        capsys, "iso", "--ring", "Z30", "--ring", "Z2xZ3xZ5", "--expect", "iso"
    )
    assert code == 0


def test_iso_requires_two_rings(capsys):
    code, out, err = run_cli(capsys, "iso", "--ring", "Z30")
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# error paths


def test_parse_error_exit_two_and_silent_stdout(capsys):
    code, out, err = run_cli(capsys, "verify", "--ring", "Z1")
    assert code == 2
    assert out == ""
    assert "Z1" in err


def test_malformed_ring_exit_two(capsys):
    code, out, _ = run_cli(capsys, "build", "--ring", "Q8")
    assert code == 2
    assert out == ""


def test_usage_error_exit_two(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--family", "zn")  # missing --max
    assert code == 2


def test_cap_violation_exit_two(capsys):
    code, out, err = run_cli(
        capsys, "build", "--ring", "Z7000", "--graph", "ia"
    )
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_cap_flag_override(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--ring", "Z7000", "--graph", "ia",
        "--element-cap", "8000", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "Z7000"


def test_caps_env_var(capsys, monkeypatch):
    monkeypatch.setenv("IAGRAPH_CAPS", "element=10")
    code, out, err = run_cli(capsys, "build", "--ring", "Z12")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("IAGRAPH_CAPS", "element=9999")
    code, _, _ = run_cli(capsys, "build", "--ring", "Z12")
    assert code == 0


def test_nonpositive_cap_rejected(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ring", "Z12", "--element-cap", "0")
    assert code == 2
    assert out == ""


def test_unwritable_out_path_exit_two(tmp_path, capsys):
    target = tmp_path / "missing" / "z12.dot"
    code, out, err = run_cli(capsys, "build", "--ring", "Z12", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output") and "Traceback" not in err
    assert not target.exists()


def test_nonpositive_cap_in_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("IAGRAPH_CAPS", "element=0")
    code, out, err = run_cli(capsys, "verify", "--ring", "Z12")
    assert code == 2
    assert out == ""
    assert "cap element" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_nonpositive_jobs_rejected(capsys, jobs):
    code, out, err = run_cli(capsys, "sweep", "--family", "zn", "--max", "10", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "jobs" in err


def test_jobs_above_cpu_count_rejected(capsys):
    """Rejected while the config is built, before any worker process starts."""
    jobs = str((os.cpu_count() or 1) + 1)
    code, out, err = run_cli(capsys, "sweep", "--family", "zn", "--max", "10", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "jobs must be an integer from 1 to" in err


def test_symbolic_cache_mismatch_exits_3(capsys, monkeypatch):
    """The periodic recheck at n = 199 catches a poisoned cache entry for the primes."""
    monkeypatch.setitem(_SYMBOLIC_INV_CACHE, (1,), invariants(build_ia_zn_symbolic({2: 2})))
    code, out, err = run_cli(capsys, "sweep", "--family", "zn-symbolic", "--max", "199")
    assert code == 3
    assert out == ""
    assert err == "error: symbolic cache mismatch at n=199\n"
