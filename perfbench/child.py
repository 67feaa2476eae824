"""Run one benchmark job in this (fresh) interpreter and print its record.

Usage: python3 child.py '<json>' where the JSON holds the workload, seed,
job index, the parent's monotonic clock reading taken just before it
spawned this process, and whether to trace.

The record is one JSON object on stdout.  Everything after the last
result is returned (digests, conversions, the oracle sample, the span
dump) runs outside the measured window.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import pathlib
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_iagraph():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "iagraph" / "__init__.py").is_file():
        raise SystemExit(f"no iagraph package under {SRC}")
    sys.path.insert(0, str(SRC))
    import iagraph
    import iagraph.cli

    if pathlib.Path(iagraph.__file__).resolve().parent != SRC / "iagraph":
        raise SystemExit(f"imported iagraph from {iagraph.__file__}, not {SRC}")
    return iagraph


def _run_sweep(iagraph, job, tracer):
    from iagraph.theorems import SweepConfig

    config = SweepConfig(
        family=job["family"],
        max_n=job["max_n"],
        max_factors=job["max_factors"],
        checks=tuple(job["checks"]),
    )
    clock = time.perf_counter_ns
    stamps = []

    def sink(report):
        stamps.append(clock())
        if tracer is not None:
            tracer.op += 1

    start = clock()
    try:
        aggregate = iagraph.sweep(config, report_sink=sink)
    except Exception as exc:  # every ring of a sweep that raises has failed
        aggregate = f"{type(exc).__name__}: {exc}"
    end = clock()
    ends = [start] + stamps
    latencies = [(b - a) / 1e6 for a, b in zip(ends, ends[1:])] or [(end - start) / 1e6]
    if isinstance(aggregate, str):
        return start, end, latencies, {"aggregate": None, "error": aggregate}
    result = aggregate.to_json_dict()
    del result["elapsed_ms"]
    return start, end, latencies, {"aggregate": result}


def _run_verify(iagraph, job, tracer):
    clock = time.perf_counter_ns
    reports, latencies = [], []
    start = clock()
    for index, text in enumerate(job["specs"]):
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            reports.append(iagraph.check_ring(text, "all"))
        except Exception as exc:  # an operation that raises is a failed operation
            reports.append(f"{type(exc).__name__}: {exc}")
        latencies.append((clock() - t0) / 1e6)
    end = clock()
    rings = [
        r if isinstance(r, str) else {"ring": r.ring, "checks": [c.to_json_dict() for c in r.checks]}
        for r in reports
    ]
    return start, end, latencies, {"rings": rings}


def _run_cli(iagraph, job, tracer):
    clock = time.perf_counter_ns
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = iagraph.cli.main(list(job["argv"]))
    end = clock()
    text = out.getvalue()
    from known import digest

    return (
        start,
        end,
        [(end - start) / 1e6],
        {"exit": code, "stderr": err.getvalue()[-2000:], "sha256": digest(text), "bytes": len(text.encode())},
    )


RUNNERS = {"sweep": _run_sweep, "verify": _run_verify, "cli": _run_cli}


def _oracle_check(iagraph, specs) -> list[dict]:
    """Build a few small compressed graphs through the CLI for the dumb oracle."""
    import plan

    out = []
    for text in plan.oracle_sample(specs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = iagraph.cli.main(["build", "--ring", text, "--format", "json"])
        out.append({"spec": text, "exit": code, "json": json.loads(buf.getvalue()) if code == 0 else None})
    return out


def run(request: dict) -> dict:
    import plan
    from spans import Tracer, peak_rss_kb

    iagraph = _import_iagraph()
    job = plan.jobs(request["workload"], request["seed"])[request["job"]]
    setup_s = (time.monotonic_ns() - request["spawn_ns"]) / 1e9

    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    factorize = iagraph.factorize
    cache_before = factorize.cache_info()
    try:
        start, end, latencies, output = RUNNERS[job["kind"]](iagraph, job, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = peak_rss_kb() / 1024
    cache_after = factorize.cache_info()

    record = {
        "setup_s": setup_s,
        "wall_s": (end - start) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": latencies,
        "output": output,
    }
    if job["kind"] == "verify":
        record["oracle"] = _oracle_check(iagraph, job["specs"])
    if tracer is not None:
        record["trace"] = {
            "totals": tracer.totals(),
            "symbolic_cache": tracer.symbolic_cache(),
            "vertices": tracer.vertices,
            "edges": tracer.edges,
            "rss_delta_mb": tracer.rss_delta_kb / 1024,
            "factorize_hits": cache_after.hits - cache_before.hits,
            "factorize_misses": cache_after.misses - cache_before.misses,
            "spans": len(tracer.spans),
        }
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        name = f"trace-{request['workload']}-seed{request['seed']}-job{request['job']}.json.gz"
        with gzip.open(out_dir / name, "wt") as fh:
            json.dump(tracer.dump(), fh)
    return record


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
