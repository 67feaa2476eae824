"""Command-line interface.

Subcommands: build (emit a graph as DOT or JSON), invariants (report graph
invariants), verify (run checks on one ring), sweep (run checks over a ring
family), iso (compare two graphs).

Exit status: 0 on success, 1 when a requested verification fails (a failed
check, or a non-isomorphic pair under --expect iso), 2 on usage errors,
malformed ring specs, an empty check selection, caps that are not positive,
--jobs outside 1..the CPU count, an unwritable --out path, a zn or
zn-symbolic sweep bound above 2**31 - 1 (the sieve's int32 range), cap
violations, or running out of memory ("error: out of memory: ..."), and 3
when a self-check finds the signature cache or a closed form disagreeing
with a recomputation.  Nothing is written to stdout on exit 2 or 3.  A
sweep that visited no rings, or skipped every check on every ring, prints a
one-line warning on stderr; its exit status stays.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .graphs import (
    build_ia,
    build_ia_domain_product,
    build_torsion,
    build_total,
    dot_rows,
    json_rows,
    zn_symbolic_from_n,
)
from .invariants import invariants, is_isomorphic
from .rings import (
    CapExceededError,
    ProductRing,
    RingSpecError,
    UnsupportedVariantError,
    parse_ring_spec,
)
from .theorems import (
    CSV_HEADER,
    Caps,
    SelfCheckError,
    SweepConfig,
    check_ring,
    report_csv_rows,
    resolve_check_ids,
    sweep,
)

GRAPH_KINDS = ("ia", "torsion", "total", "zn-symbolic", "domain-product")
DOT_NAMES = {"ia": "IA", "torsion": "torsion", "total": "total"}


def _add_caps_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--element-cap", type=int, help="brute-force element cap")
    parser.add_argument("--torsion-cap", type=int, help="torsion-graph order cap")
    parser.add_argument("--total-cap", type=int, help="total-graph order cap")
    parser.add_argument("--subring-cap", type=int, help="generated-subring order cap")
    parser.add_argument("--iso-cap", type=int, help="isomorphism vertex cap")
    parser.add_argument("--graph-cap", type=int, help="graph construction vertex cap")


def _caps_from_args(args) -> Caps:
    """IAGRAPH_CAPS, overridden by the cap flags; Caps validates the values."""
    overrides = {}
    for name in Caps.__dataclass_fields__:
        value = getattr(args, f"{name}_cap", None)
        if value is not None:
            overrides[name] = value
    return dataclasses.replace(Caps.from_env(), **overrides)


def _build_graph(kind: str, ring_text: str | None, k: int | None, caps: Caps):
    if kind == "domain-product":
        if k is None:
            raise RingSpecError("--k is required for the domain-product graph")
        return build_ia_domain_product(k, caps.graph), f"domain-product({k})"
    if ring_text is None:
        raise RingSpecError("--ring is required for this graph kind")
    spec = parse_ring_spec(ring_text)
    if kind == "zn-symbolic":
        if spec.arity != 1:
            raise RingSpecError("zn-symbolic needs a single-factor ring, e.g. Z720")
        return zn_symbolic_from_n(spec.factors[0], caps.graph), spec.ring_id()
    ring = ProductRing(spec)
    if kind == "ia":
        return build_ia(ring, caps.element, caps.graph), spec.ring_id()
    if kind == "torsion":
        return build_torsion(ring, caps.element, caps.graph), spec.ring_id()
    if kind == "total":
        return build_total(ring, caps.element, caps.graph), spec.ring_id()
    raise RingSpecError(f"unknown graph kind {kind!r}")


def _emit(chunks, out_path: str | None) -> None:
    """Write the text chunks, as they come, to out_path or to stdout."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)


def _json_chunks(payload) -> tuple[str, str]:
    """The JSON text of a small payload (verify, sweep, invariants, iso) and its
    newline as two chunks; graph JSON streams through graphs.json_rows."""
    return json.dumps(payload, indent=2), "\n"


def _csv_writer(header):
    """A CSV writer over a text buffer, the header row written."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    return buf, writer


def _cmd_build(args) -> int:
    caps = _caps_from_args(args)
    graph, ring_id = _build_graph(args.graph, args.ring, args.k, caps)
    if args.format == "dot":
        _emit(dot_rows(graph, DOT_NAMES.get(args.graph, "IA")), args.out)
    else:
        _emit(json_rows(graph, ring_id, args.graph), args.out)
    return 0


def _cmd_invariants(args) -> int:
    caps = _caps_from_args(args)
    graph, _ = _build_graph(args.graph, args.ring, args.k, caps)
    report = invariants(graph)
    if args.format == "csv":
        buf, writer = _csv_writer(report.csv_header())
        writer.writerow(report.csv_row())
        _emit((buf.getvalue(),), args.out)
    else:
        _emit(_json_chunks(report.to_json_dict()), args.out)
    return 0


def _cmd_verify(args) -> int:
    caps = _caps_from_args(args)
    checks = resolve_check_ids(_split_checks(args.checks))
    report = check_ring(args.ring, checks, caps)
    if args.format == "csv":
        buf, writer = _csv_writer(CSV_HEADER)
        writer.writerows(report_csv_rows(report))
        _emit((buf.getvalue(),), args.out)
    else:
        _emit(_json_chunks(report.to_json_dict()), args.out)
    return 1 if report.failures else 0


def _split_checks(text: str):
    if text in (None, "", "all"):
        return "all"
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _cmd_sweep(args) -> int:
    caps = _caps_from_args(args)
    config = SweepConfig(
        family=args.family,
        max_n=args.max,
        max_factors=args.max_factors,
        checks=_split_checks(args.checks),
        caps=caps,
        jobs=args.jobs,
    )
    if args.format == "csv":
        # rows are buffered as reports arrive: the sweep can still fail (exit 2 or 3)
        buf, writer = _csv_writer(CSV_HEADER)
        aggregate = sweep(config, lambda report: writer.writerows(report_csv_rows(report)))
        _emit((buf.getvalue(),), args.out)
    else:
        aggregate = sweep(config)
        _emit(_json_chunks(aggregate.to_json_dict()), args.out)
    if not aggregate.ring_count:
        print("warning: the sweep visited no rings", file=sys.stderr)
    elif all(s.skipped == aggregate.ring_count for s in aggregate.stats.values()):
        print("warning: every check was skipped on every ring", file=sys.stderr)
    return 1 if aggregate.total_failures else 0


def _cmd_iso(args) -> int:
    caps = _caps_from_args(args)
    if len(args.ring) != 2:
        raise RingSpecError("iso needs exactly two --ring arguments")
    graphs = []
    for text in args.ring:
        graph, _ = _build_graph(args.graph, text, None, caps)
        graphs.append(graph)
    verdict, mapping = is_isomorphic(graphs[0], graphs[1], caps.iso)
    payload = {
        "rings": list(args.ring),
        "graph_kind": args.graph,
        "isomorphic": verdict,
        "mapping": mapping,
    }
    _emit(_json_chunks(payload), args.out)
    if args.expect == "iso" and not verdict:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iagraph",
        description="Annihilator-intersection graphs of finite commutative rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit a graph")
    p_build.add_argument("--ring", help="ring spec, e.g. Z12 or Z4xZ4")
    p_build.add_argument("--graph", choices=GRAPH_KINDS, default="ia")
    p_build.add_argument("--k", type=int, help="factor count for domain-product")
    p_build.add_argument("--format", choices=("dot", "json"), default="dot")
    p_build.add_argument("--out", help="output path (default stdout)")
    _add_caps_flags(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_inv = sub.add_parser("invariants", help="graph invariants report")
    p_inv.add_argument("--ring")
    p_inv.add_argument("--graph", choices=GRAPH_KINDS, default="ia")
    p_inv.add_argument("--k", type=int)
    p_inv.add_argument("--format", choices=("json", "csv"), default="json")
    p_inv.add_argument("--out")
    _add_caps_flags(p_inv)
    p_inv.set_defaults(func=_cmd_invariants)

    p_verify = sub.add_parser("verify", help="run checks on one ring")
    p_verify.add_argument("--ring", required=True)
    p_verify.add_argument("--checks", default="all", help='"all" or comma-separated ids')
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--out")
    _add_caps_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run checks over a ring family")
    p_sweep.add_argument(
        "--family",
        choices=("zn", "zn-symbolic", "products", "domain-products"),
        required=True,
    )
    p_sweep.add_argument("--max", type=int, required=True, help="max modulus/order/k")
    p_sweep.add_argument("--max-factors", type=int, default=3)
    p_sweep.add_argument("--checks", default="all")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="json")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out")
    _add_caps_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_iso = sub.add_parser("iso", help="isomorphism verdict for two rings")
    p_iso.add_argument("--ring", action="append", required=True)
    p_iso.add_argument("--graph", choices=("ia", "torsion", "total"), default="ia")
    p_iso.add_argument("--expect", choices=("iso",), help="exit 1 unless isomorphic")
    p_iso.add_argument("--out")
    _add_caps_flags(p_iso)
    p_iso.set_defaults(func=_cmd_iso)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RingSpecError, CapExceededError, UnsupportedVariantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
