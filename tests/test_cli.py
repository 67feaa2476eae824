"""Command-line surface: outputs, exit codes, determinism."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import iagraph
from iagraph import theorems
from iagraph.cli import main
from iagraph.graphs import (
    build_ia_domain_product,
    build_ia_zn_symbolic,
    graph_to_dot,
    graph_to_json_dict,
)
from iagraph.invariants import invariants
from iagraph.theorems import (
    _SIGNATURE_CACHE,
    CSV_HEADER,
    Caps,
    SweepConfig,
    report_csv_rows,
    sweep,
)


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


def test_build_streams_dot_rows(tmp_path):
    """The 15.8 MB of DOT text of domain-product(10) are written as they are
    rendered, never held whole."""
    target = tmp_path / "dp10.dot"
    tracemalloc.start()
    try:
        code = main(["build", "--graph", "domain-product", "--k", "10", "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20, peak
    assert target.read_text() == graph_to_dot(build_ia_domain_product(10))


def test_build_streams_json_rows(tmp_path):
    """The 16.7 MB of graph JSON of domain-product(10) are written as they are
    rendered, never held whole, and equal the stdlib's indent=2 text."""
    target = tmp_path / "dp10.json"
    tracemalloc.start()
    try:
        code = main(
            ["build", "--graph", "domain-product", "--k", "10", "--format", "json",
             "--out", str(target)]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20, peak
    payload = graph_to_json_dict(build_ia_domain_product(10), "domain-product(10)", "domain-product")
    assert target.read_text() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--graph", "domain-product", "--k", "13"],
        ["--graph", "total", "--ring", "Z2xZ4096"],
    ],
    ids=["graph-cap", "element-cap"],
)
def test_build_json_cap_error_writes_nothing(tmp_path, capsys, argv):
    """The graph is built before the first row, so a cap error leaves stdout
    empty and creates no --out file."""
    code, out, err = run_cli(capsys, "build", *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert "cap" in err
    target = tmp_path / "graph.json"
    code, out, _ = run_cli(capsys, "build", *argv, "--format", "json", "--out", str(target))
    assert (code, out) == (2, "")
    assert not target.exists()


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
    assert lines[0] == "ring,check_id,applicable,passed,witness,skipped,reason"
    assert lines[1].startswith("Z12,T2.goldie,true,true")


def test_verify_unknown_check_exit_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--ring", "Z12", "--checks", "T9.nope")
    assert code == 2
    assert out == ""
    assert "unknown check" in err


def test_repeated_check_id_exit_two(capsys):
    for argv, cid in (
        (("sweep", "--family", "zn", "--max", "10"), "T2.goldie"),
        (("sweep", "--family", "zn-symbolic", "--max", "30"), "L4.three-primes"),
        (("verify", "--ring", "Z8"), "T3.girth"),
    ):
        code, out, err = run_cli(capsys, *argv, "--checks", f"{cid},{cid}")
        assert (code, out, err) == (2, "", f"error: repeated check id '{cid}'\n"), argv


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
    assert lines[0] == "ring,check_id,applicable,passed,witness,skipped,reason"
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


def test_sweep_symbolic_graph_cap_skips_like_zn(capsys):
    """Over the graph cap both Z_n families skip the ring; neither aborts."""
    for family in ("zn-symbolic", "zn"):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", family, "--max", "100",
            "--graph-cap", "2", "--checks", "T3.girth",
        )
        assert code == 0, family
        assert json.loads(out)["checks"]["T3.girth"]["skipped"] == 38, family


@pytest.mark.parametrize("caps", [(), ("--graph-cap", "2")], ids=["default-caps", "graph-cap-2"])
def test_zn_and_zn_symbolic_sweeps_print_one_csv(capsys, caps):
    """Symbolic mode is brute mode without the cross-check: same rows, same reasons."""
    outputs = []
    for family in ("zn", "zn-symbolic"):
        code, out, err = run_cli(
            capsys, "sweep", "--family", family, "--max", "200", "--checks", "all",
            "--format", "csv", *caps,
        )
        outputs.append((code, out, err))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1 and outputs[0][1].count("\n") == 1 + 199 * 18


def test_sweep_products_family(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "products", "--max", "60",
        "--max-factors", "3", "--checks", "T2.goldie",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_failures"] == 0
    assert payload["ring_count"] > 30


def test_sweep_domain_products_takes_k_from_max(capsys):
    """k runs over 2..--max; --max-factors does not bound it."""
    for argv, count in ((("--max", "6"), 5), (("--max", "2", "--max-factors", "5"), 1)):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "domain-products", *argv, "--checks", "T5.n-domains"
        )
        assert code == 0
        assert json.loads(out)["ring_count"] == count, argv


def test_sweep_empty_check_selection_exit_two(capsys):
    for checks in (",", " , "):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "products", "--max", "12", "--checks", checks
        )
        assert code == 2
        assert out == ""
        assert err == "error: no checks selected\n"


def _library_csv(config):
    """The CSV a sweep prints, built from the library without the CLI."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    sweep(config, report_sink=lambda report: writer.writerows(report_csv_rows(report)))
    return buf.getvalue()


@pytest.mark.parametrize(
    "argv, config, warning",
    [
        (
            ("--family", "products", "--max", "12", "--max-factors", "1"),
            SweepConfig(family="products", max_n=12, max_factors=1),
            "warning: the sweep visited no rings\n",
        ),
        (
            ("--family", "zn", "--max", "20", "--checks", "T2.embed", "--total-cap", "1"),
            SweepConfig(family="zn", max_n=20, checks=("T2.embed",), caps=Caps(total=1)),
            "warning: every check was skipped on every ring\n",
        ),
        (
            ("--family", "zn", "--max", "20", "--checks", "T2.embed,T3.girth", "--total-cap", "1"),
            SweepConfig(family="zn", max_n=20, checks=("T2.embed", "T3.girth"), caps=Caps(total=1)),
            "",
        ),
    ],
)
def test_sweep_warns_when_nothing_was_checked(capsys, argv, config, warning):
    """The warning goes to stderr; stdout and the exit status stay as they were.
    One check evaluated on some ring is enough to stay silent."""
    code, out, err = run_cli(capsys, "sweep", *argv, "--format", "csv")
    assert code == 0
    assert out == _library_csv(config)
    assert err == warning


def test_sweep_products_above_element_cap_has_no_skips(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--family", "products", "--max", "8000", "--max-factors", "2",
        "--checks", "T3.girth",
    )
    assert code == 0 and err == ""
    stats = json.loads(out)["checks"]["T3.girth"]
    assert stats["skipped"] == 0 and stats["passed"] == json.loads(out)["ring_count"]


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


def test_iso_of_equal_specs_maps_each_vertex_to_itself(capsys):
    code, out, _ = run_cli(capsys, "iso", "--ring", "Z36", "--ring", "Z36")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    labels = ["2", "3", "4", "6", "9", "12", "18"]
    assert list(payload["mapping"].items()) == [(v, v) for v in labels]


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


@pytest.mark.parametrize(
    "ring, caps, message",
    [
        ("Z\u0661\u0662", "", "malformed ring token 'Z\u0661\u0662' in 'Z\u0661\u0662'"),
        ("Z\uff11\uff12", "", "malformed ring token 'Z\uff11\uff12' in 'Z\uff11\uff12'"),
        ("Z12", "element=\u0663", "bad IAGRAPH_CAPS entry 'element=\u0663'"),
        ("Z12", "element=\u00b2", "bad IAGRAPH_CAPS entry 'element=\u00b2'"),
    ],
    ids=["arabic-indic-spec", "fullwidth-spec", "arabic-indic-cap", "superscript-cap"],
)
def test_non_ascii_digits_rejected(capsys, monkeypatch, ring, caps, message):
    monkeypatch.setenv("IAGRAPH_CAPS", caps)
    code, out, err = run_cli(capsys, "verify", "--ring", ring)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ("verify", "--ring", "Z12", f"--{name}-cap")
            for name in ("element", "torsion", "total", "subring", "iso", "graph")
        ),
        ("build", "--graph", "domain-product", "--k"),
        ("invariants", "--graph", "domain-product", "--k"),
        ("sweep", "--family", "zn", "--max"),
        ("sweep", "--family", "products", "--max", "20", "--max-factors"),
        ("sweep", "--family", "zn", "--max", "20", "--jobs"),
    ],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
def test_non_ascii_digits_in_integer_flags_rejected(capsys, argv):
    """int() reads "\u0663" as 3; the flags take ASCII digits only."""
    code, out, err = run_cli(capsys, *argv, "\u0663")
    assert (code, out) == (2, "")
    assert f"argument {argv[-1]}: invalid int value: '\u0663'" in err


def test_closed_stdout_pipe_exits_two_without_traceback():
    """A reader that takes one line and closes the pipe ends the command with
    exit 2 and one error line, as an unwritable --out path does."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(iagraph.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "iagraph", "build", "--graph", "domain-product", "--k", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"graph IA {\n"  # about 800 KB follow: more than a pipe holds
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


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


def test_huge_zn_bound_and_out_of_memory_exit_two(capsys, monkeypatch):
    """A bound past the sieve's int32 range is rejected before the sieve runs, and
    running out of memory ends with a message; the sieve is stubbed, so nothing
    large is allocated."""

    def exhausted(max_n):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(theorems, "_zn_signatures", exhausted)
    for bound, message in (
        (2**31, "error: sweep bound 2147483648 above 2147483647, the Z_n sieve's int32 range\n"),
        (3 * 10**8, "error: out of memory: Unable to allocate 8.00 GiB\n"),
    ):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "zn-symbolic", "--max", str(bound), "--checks", "T3.girth"
        )
        assert (code, out, err) == (2, "", message)


def test_repeated_cap_in_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("IAGRAPH_CAPS", "element=10,element=20")
    code, out, err = run_cli(capsys, "verify", "--ring", "Z12", "--checks", "L4.gcd-adj")
    assert (code, out, err) == (2, "", "error: repeated IAGRAPH_CAPS entry 'element'\n")


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


def test_signature_cache_mismatch_in_products_sweep_exits_3(capsys, monkeypatch):
    """The first ring of a signature is cross-checked against the engine: a
    poisoned entry for two fields (the complete graph of Z8) stops the sweep."""
    monkeypatch.setattr(theorems, "_CROSS_CHECKED", set())
    monkeypatch.setitem(_SIGNATURE_CACHE, (1, 1), invariants(build_ia_zn_symbolic({2: 3})))
    code, out, err = run_cli(
        capsys, "sweep", "--family", "products", "--max", "30", "--checks", "T3.girth"
    )
    assert code == 3
    assert out == ""
    assert err == "error: signature cache mismatch on invariants at Z2xZ2\n"


def test_symbolic_cache_mismatch_exits_3(capsys, monkeypatch):
    """The periodic recheck at n = 199 catches a poisoned cache entry for the primes."""
    monkeypatch.setitem(_SIGNATURE_CACHE, (1,), invariants(build_ia_zn_symbolic({2: 2})))
    code, out, err = run_cli(capsys, "sweep", "--family", "zn-symbolic", "--max", "199")
    assert code == 3
    assert out == ""
    assert err == "error: symbolic cache mismatch at n=199\n"


@pytest.mark.parametrize("checks", ["all", "T3.girth"])
def test_symbolic_recheck_fires_on_reused_shapes(capsys, monkeypatch, checks):
    """Two fields poisoned with the complete graph of Z8: the shape of 398 = 2 * 199
    is first evaluated at n = 6 (with T3.girth alone it passes there and is
    reused), and the periodic rebuild at 398 still catches the entry."""
    monkeypatch.setitem(_SIGNATURE_CACHE, (1, 1), invariants(build_ia_zn_symbolic({2: 3})))
    code, out, err = run_cli(
        capsys, "sweep", "--family", "zn-symbolic", "--max", "400", "--checks", checks
    )
    assert code == 3
    assert out == ""
    assert err == "error: symbolic cache mismatch at n=398\n"


def test_symbolic_sieve_mismatch_exits_3(capsys, monkeypatch):
    """The periodic recheck compares the sieve's signature of n with trial
    division: a sieve that gives 398 = 2 * 199 the signature id of the prime 397
    stops the sweep there, whether 398 is evaluated or reuses its shape."""
    sieve = theorems._zn_signatures

    def wrong_at_398(max_n):
        ids, sigs = sieve(max_n)
        ids[398] = ids[397]
        return ids, sigs

    monkeypatch.setattr(theorems, "_zn_signatures", wrong_at_398)
    for checks in ("all", "T3.girth"):
        for jobs in ("1", "2")[: os.cpu_count() or 1]:
            code, out, err = run_cli(
                capsys, "sweep", "--family", "zn-symbolic", "--max", "400",
                "--checks", checks, "--jobs", jobs,
            )
            assert (code, out) == (3, ""), (checks, jobs)
            assert err == "error: symbolic sieve mismatch at n=398\n"


def test_signature_cache_mismatch_in_csv_sweep_exits_3(tmp_path, capsys, monkeypatch):
    """CSV rows are buffered while the sweep runs: a self-check failure leaves
    stdout empty and creates no --out file."""
    monkeypatch.setattr(theorems, "_CROSS_CHECKED", set())
    monkeypatch.setitem(_SIGNATURE_CACHE, (1, 1), invariants(build_ia_zn_symbolic({2: 3})))
    target = tmp_path / "sweep.csv"
    for out_args in ((), ("--out", str(target))):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "products", "--max", "30", "--format", "csv", *out_args
        )
        assert code == 3
        assert out == ""
        assert err == "error: signature cache mismatch on invariants at Z2xZ2\n"
    assert not target.exists()
