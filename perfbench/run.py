"""iagraph benchmark: four verifier workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
    sweep-products     theorems.sweep over 2-3 factor products
    sweep-zn-symbolic  theorems.sweep over Z_n in divisor form
    verify-all         theorems.check_ring(spec, "all") on 1000 drawn specs
    big-graphs         four large cli.main commands, DOT and JSON

The load is a closed loop: one caller, one process at a time, the next
input only after the previous result.  Every job runs in a fresh child
interpreter.  With --trace 0 the run repeats passes over the same inputs
until the next pass would end after --seconds (at least one pass) and
reports medians over passes.  With --trace 1 it runs one untraced and one
traced pass and reports per-layer metrics and the tracing overhead.

Every output is checked against known answers from perfbench/known.py.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import known  # noqa: E402
import plan  # noqa: E402

CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rings_per_s": "rings/s",
    "verify_ms_p50": "ms",
    "verify_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rings.zero_divisor_ideal_witness.s": "s",
    "rings.annihilator_classes.s": "s",
    "rings.ann_sets_intersect.calls": "count",
    "rings.ann_sets_intersect.s": "s",
    "rings.subring_generated.s": "s",
    "rings.validate_closure.s": "s",
    "rings.annihilator_set.calls": "count",
    "rings.common_annihilator_of_zero_divisors.s": "s",
    "rings.factorize.hits": "count",
    "rings.factorize.misses": "count",
    "graphs.compress_classes.s": "s",
    "graphs.build_ia.s": "s",
    "graphs.build_torsion.s": "s",
    "graphs.build_total.s": "s",
    "graphs.build_ia_domain_product.s": "s",
    "graphs.build_ia_zn_symbolic.calls": "count",
    "graphs.vertices": "count",
    "graphs.edges": "count",
    "graphs.peak_rss_delta_mb": "MB",
    "graphs.graph_to_dot.s": "s",
    "graphs.graph_to_json_dict.s": "s",
    "invariants.invariants.calls": "count",
    "invariants.invariants.s": "s",
    "invariants.diameter.s": "s",
    "invariants.girth.s": "s",
    "invariants.is_complete_bipartite.s": "s",
    "invariants.is_isomorphic.calls": "count",
    "invariants.is_isomorphic.s": "s",
    "theorems.check_ring.self_s": "s",
    "theorems.check_zn_symbolic.self_s": "s",
    "theorems.symbolic_invariants.calls": "count",
    "theorems.symbolic_cache.hit_ratio": "ratio",
    "theorems.sweep.self_s": "s",
    "theorems.enumerate_product_specs.s": "s",
    "theorems.outcomes.applicable": "count",
    "theorems.outcomes.passed": "count",
    "theorems.outcomes.failed": "count",
    "theorems.outcomes.skipped": "count",
    "theorems.outcomes.inapplicable": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# children


def run_child(workload: str, seed: int, job: int, trace: bool) -> dict:
    """Spawn a fresh interpreter for one job and return its record."""
    env = {k: v for k, v in os.environ.items() if k not in ("IAGRAPH_CAPS", "PYTHONPATH")}
    request = {"workload": workload, "seed": seed, "job": job, "trace": trace}
    request["spawn_ns"] = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(request)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"job {job} of {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, trace: bool) -> list[dict]:
    return [run_child(workload, seed, i, trace) for i in range(len(plan.jobs(workload, seed)))]


# ---------------------------------------------------------------------------
# known-answer gate


class Gate:
    """Compares outputs with known answers; counts operations and failures.

    An operation is one ring verified, or one graph built and serialized.
    """

    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._expected = [self._expect(job) for job in self.jobs]

    @staticmethod
    def _expect(job: dict):
        if job["kind"] == "sweep":
            if job["family"] == "products":
                return known.product_sweep(job["max_n"])
            return known.symbolic_sweep(job["max_n"])
        if job["kind"] == "verify":
            return [
                {"ring": text, "checks": known.ring_checks(known.parse_factors(text))}
                for text in job["specs"]
            ]
        text = known.command_output(job["argv"])
        return {"exit": 0, "sha256": known.digest(text), "bytes": len(text.encode())}

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)

    def check_pass(self, records: list[dict]) -> None:
        for job, expected, record in zip(self.jobs, self._expected, records):
            getattr(self, f"_check_{job['kind']}")(job, expected, record)

    def _check_sweep(self, job, expected, record) -> None:
        got = record["output"]["aggregate"]
        rings = expected["ring_count"]
        self.attempted += rings
        if got == expected:
            return
        if got is None:
            self._fail(rings, f"{job['family']} sweep raised {record['output']['error']}")
            return
        # a lower bound on the rings whose outcome disagrees
        diffs = [abs(got.get("ring_count", 0) - rings)]
        for cid, want in expected["checks"].items():
            have = got.get("checks", {}).get(cid, {})
            for key in ("applicable", "passed", "failed", "skipped", "inapplicable"):
                diffs.append(abs(have.get(key, 0) - want[key]))
            mismatched = [f for f in have.get("failures", []) if f not in want["failures"]]
            mismatched += [f for f in want["failures"] if f not in have.get("failures", [])]
            diffs.append(len(mismatched))
        self._fail(min(rings, max(1, *diffs)), f"{job['family']} sweep aggregate differs")

    def _check_verify(self, job, expected, record) -> None:
        rings = record["output"]["rings"]
        for i, want in enumerate(expected):
            self.attempted += 1
            got = rings[i] if i < len(rings) else "missing"
            if got != want:
                self._fail(1, f"{want['ring']}: {got if isinstance(got, str) else 'checks differ'}")
        for sample in record["oracle"]:
            self.attempted += 1
            want = known.oracle_ia_json(known.parse_factors(sample["spec"]))
            if sample["exit"] != 0 or sample["json"] != want:
                self._fail(1, f"{sample['spec']}: compressed graph differs from the oracle")

    def _check_cli(self, job, expected, record) -> None:
        self.attempted += 1
        got = {k: record["output"][k] for k in expected}
        if got != expected:
            self._fail(1, f"{' '.join(job['argv'])}: output differs ({record['output']['stderr']!r})")


# ---------------------------------------------------------------------------
# metrics


def _quantile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def pass_metrics(records: list[dict]) -> dict:
    latencies = [x for r in records for x in r["latencies_ms"]]
    wall = sum(r["wall_s"] for r in records)
    return {
        "wall_s": wall,
        "rings_per_s": len(latencies) / wall,
        "verify_ms_p50": _quantile(latencies, 0.5),
        "verify_ms_p90": _quantile(latencies, 0.9),
        "verify_ms_p99": _quantile(latencies, 0.99),
        "samples": len(latencies),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }


def end_to_end(per_pass: list[dict], passes: list[list[dict]]) -> dict:
    out = {name: statistics.median(m[name] for m in per_pass) for name in END_TO_END if name != "setup_s"}
    out["setup_s"] = statistics.median(r["setup_s"] for p in passes for r in p)
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    totals: dict[str, dict[str, float]] = {}
    for record in traced:
        for name, entry in record["trace"]["totals"].items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    out = {}
    for metric in PER_LAYER:
        name, _, key = metric.rpartition(".")
        if name in totals and key in ("calls", "s", "self_s"):
            out[metric] = totals[name][key]
    calls = sum(r["trace"]["symbolic_cache"][0] for r in traced)
    hits = sum(r["trace"]["symbolic_cache"][1] for r in traced)
    outcomes = dict.fromkeys(("applicable", "passed", "failed", "skipped", "inapplicable"), 0)
    for record in traced:
        output = record["output"]
        for stats in (output.get("aggregate") or {}).get("checks", {}).values():
            for key in outcomes:
                outcomes[key] += stats[key]
        for ring in output.get("rings", []):
            for c in [] if isinstance(ring, str) else ring["checks"]:
                if c["skipped"]:
                    outcomes["skipped"] += 1
                elif not c["applicable"]:
                    outcomes["inapplicable"] += 1
                else:
                    outcomes["applicable"] += 1
                    outcomes["passed" if c["passed"] else "failed"] += 1
    out.update(
        {
            "rings.factorize.hits": sum(r["trace"]["factorize_hits"] for r in traced),
            "rings.factorize.misses": sum(r["trace"]["factorize_misses"] for r in traced),
            "graphs.vertices": sum(r["trace"]["vertices"] for r in traced),
            "graphs.edges": sum(r["trace"]["edges"] for r in traced),
            "graphs.peak_rss_delta_mb": sum(r["trace"]["rss_delta_mb"] for r in traced),
            "theorems.symbolic_invariants.calls": calls,
            "theorems.symbolic_cache.hit_ratio": hits / calls if calls else 0.0,
            "cli.output_bytes": sum(r["output"].get("bytes", 0) for r in traced),
            "trace.spans": sum(r["trace"]["spans"] for r in traced),
            "trace.overhead_s": pass_metrics(traced)["wall_s"] - pass_metrics(untraced)["wall_s"],
        }
    )
    out.update({f"theorems.outcomes.{k}": v for k, v in outcomes.items()})
    return {metric: out.get(metric, 0) for metric in PER_LAYER}


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace) -> tuple[Gate, dict, dict]:
    """Run the passes; return the gate, the metrics and extra run facts."""
    if not (ROOT / "src" / "iagraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no iagraph package under {ROOT / 'src'}")
    gate = Gate(plan.jobs(args.workload, args.seed))
    if args.trace:
        untraced = run_pass(args.workload, args.seed, trace=False)
        traced = run_pass(args.workload, args.seed, trace=True)
        for records in (untraced, traced):
            gate.check_pass(records)
        return gate, per_layer(traced, untraced), {"passes": 2}
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        records = run_pass(args.workload, args.seed, trace=False)
        gate.check_pass(records)
        passes.append(records)
        now = time.monotonic()
        if now - start + (now - began) > args.seconds:
            break
    per_pass = [pass_metrics(p) for p in passes]
    facts = {
        "passes": len(passes),
        "pass_wall_s": [round(m["wall_s"], 4) for m in per_pass],
        "latency_samples_per_pass": per_pass[0]["samples"],
        "verify_ms_p99": statistics.median(m["verify_ms_p99"] for m in per_pass),
    }
    return gate, end_to_end(per_pass, passes), facts


def main(argv=None) -> int:
    args = parse_args(argv)
    gate, metrics, facts = measure(args)
    units = PER_LAYER if args.trace else END_TO_END
    for problem in gate.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    error_rate = gate.failed / gate.attempted
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6f} {units[name]}")
    print(f"{'error_rate':45s} {error_rate:14.6f} ratio ({gate.failed}/{gate.attempted})")
    print("run " + json.dumps(facts))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
