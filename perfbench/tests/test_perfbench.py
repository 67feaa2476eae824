"""Self-tests of the benchmark: the known-answer gate, tracing, and failure modes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import known  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

IAGRAPH = child._import_iagraph()

# Small jobs of every kind, each touching the code paths of its workload.
JOBS = [
    {"kind": "sweep", "family": "products", "max_n": 80, "max_factors": 3, "checks": list(plan.PRODUCT_CHECKS)},
    {"kind": "sweep", "family": "zn-symbolic", "max_n": 3000, "max_factors": 3, "checks": list(plan.SYMBOLIC_CHECKS)},
    {"kind": "verify", "specs": ["Z8", "Z12", "Z2xZ6", "Z4xZ4", "Z2xZ3xZ5", "Z240", "Z4xZ6xZ12", "Z30"]},
    {"kind": "cli", "argv": ["build", "--graph", "domain-product", "--k", "5", "--format", "json"]},
    {"kind": "cli", "argv": ["build", "--graph", "total", "--ring", "Z4xZ8"]},
    {"kind": "cli", "argv": ["invariants", "--graph", "torsion", "--ring", "Z4xZ16"]},
    {"kind": "cli", "argv": ["build", "--graph", "zn-symbolic", "--ring", "Z2520", "--format", "json"]},
]


def run_job(job: dict, tracer: Tracer | None = None) -> dict:
    """Run one job in this process, as a child would, and return its record."""
    if tracer is not None:
        tracer.install()
    try:
        _, _, latencies, output = child.RUNNERS[job["kind"]](IAGRAPH, job, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"output": output, "latencies_ms": latencies}
    if job["kind"] == "verify":
        record["oracle"] = child._oracle_check(IAGRAPH, job["specs"])
    return record


@pytest.fixture(scope="module")
def untraced():
    return [run_job(job) for job in JOBS]


def gate_failures(jobs, records) -> int:
    gate = run.Gate(jobs)
    gate.check_pass(records)
    assert gate.attempted > 0
    return gate.failed


def test_gate_accepts_the_program(untraced):
    assert gate_failures(JOBS, untraced) == 0


def test_verify_job_covers_skips_and_the_prime_cube(untraced):
    rings = {r["ring"]: r["checks"] for r in untraced[2]["output"]["rings"]}
    by_id = {c["id"]: c for c in rings["Z8"]}
    assert by_id["L4.three-primes"]["passed"] is False
    assert any(c["skipped"] and c["reason"].startswith("isomorphism cap") for c in rings["Z4xZ6xZ12"])
    assert any(c["skipped"] and "total cap" in c["reason"] for c in rings["Z240"])
    assert untraced[2]["oracle"], "the oracle sample is empty"


@pytest.mark.parametrize("index", [0, 1])
def test_gate_trips_on_one_perturbed_count(untraced, index):
    records = copy.deepcopy(untraced)
    records[index]["output"]["aggregate"]["checks"]["T3.diam3"]["passed"] -= 1
    assert gate_failures(JOBS, records) >= 1


def test_gate_trips_on_one_perturbed_verdict(untraced):
    records = copy.deepcopy(untraced)
    check = records[2]["output"]["rings"][3]["checks"][2]
    check["passed"] = not check["passed"]
    assert gate_failures(JOBS, records) == 1


def test_gate_trips_on_one_perturbed_skip_reason(untraced):
    records = copy.deepcopy(untraced)
    skipped = [c for r in records[2]["output"]["rings"] for c in r["checks"] if c["skipped"]]
    skipped[0]["reason"] += " "
    assert gate_failures(JOBS, records) == 1


def test_gate_trips_on_one_perturbed_oracle_edge(untraced):
    records = copy.deepcopy(untraced)
    graph = next(s["json"] for s in records[2]["oracle"] if s["json"]["edges"])
    graph["edges"].pop()
    assert gate_failures(JOBS, records) == 1


@pytest.mark.parametrize("index", [3, 4, 5, 6])
def test_gate_trips_on_one_perturbed_output_byte(untraced, index):
    text = known.command_output(JOBS[index]["argv"])
    assert known.digest(text) == untraced[index]["output"]["sha256"]
    middle = len(text) // 2
    flipped = text[:middle] + chr(ord(text[middle]) ^ 1) + text[middle + 1 :]
    records = copy.deepcopy(untraced)
    records[index]["output"]["sha256"] = known.digest(flipped)
    assert gate_failures(JOBS, records) == 1


def test_traced_run_gives_identical_checked_outputs(untraced):
    traced = [run_job(job, Tracer()) for job in JOBS]
    assert [r["output"] for r in traced] == [r["output"] for r in untraced]
    assert gate_failures(JOBS, traced) == 0


def _namespace_snapshot():
    import iagraph.rings as rings

    owners = [m for k, m in sys.modules.items() if k.split(".")[0] == "iagraph"]
    owners += [getattr(rings, name) for name in ("FiniteRing", "ProductRing", "Subring")]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_restores_every_wrapped_attribute():
    before = _namespace_snapshot()
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched
    try:
        theorems = sys.modules["iagraph.theorems"]
        cli = sys.modules["iagraph.cli"]
        assert theorems.build_ia_zn_symbolic is not before[(id(theorems), "build_ia_zn_symbolic")]
        assert cli.build_ia is not before[(id(cli), "build_ia")]
        assert len(patched) > 30
        with pytest.raises(RuntimeError, match="already installed"):
            tracer.install()
        child.RUNNERS["verify"](IAGRAPH, JOBS[2], tracer)
    finally:
        tracer.uninstall()
    after = _namespace_snapshot()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_reports_spans_per_operation():
    tracer = Tracer()
    run_job(JOBS[2], tracer)
    totals = tracer.totals()
    assert totals["theorems.check_ring"]["calls"] == len(JOBS[2]["specs"])
    assert totals["invariants.is_isomorphic"]["calls"] >= 1
    ops = {span[4] for span in tracer.spans}
    assert ops == set(range(len(JOBS[2]["specs"])))
    for name, entry in totals.items():
        assert 0 <= entry["self_s"] <= entry["s"] + 1e-9, name


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-graphs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    for workload in plan.WORKLOADS:
        assert plan.jobs(workload, 7) == plan.jobs(workload, 7)
    assert plan.jobs("verify-all", 1) != plan.jobs("verify-all", 2)
    assert sum(len(j["specs"]) for j in plan.jobs("verify-all", 3)) == plan.VERIFY_DRAW


def test_benchmark_file_lists_every_metric():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(plan.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_gate_fails_every_ring_of_a_sweep_that_raises(untraced):
    records = copy.deepcopy(untraced)
    records[0]["output"] = {"aggregate": None, "error": "RuntimeError: boom"}
    expected = known.product_sweep(JOBS[0]["max_n"])["ring_count"]
    assert gate_failures(JOBS, records) == expected
