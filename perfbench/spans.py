"""Span tracing around the public functions of each iagraph module.

The tracer wraps functions from outside the package.  A module-level
function is replaced under every name it is reachable by in the loaded
``iagraph`` modules (``theorems.build_ia_zn_symbolic``, ``cli.build_ia``,
the package namespace, ...), since each module looks names up in its own
globals.  A method is replaced on each class that defines it.
``uninstall`` puts every original object back.

Each span records (name, start, end, parent span, operation id); the
operation id is one ring or one command, set by the caller.  Self time is
a span's duration minus the durations of its direct children.

Known gap: ``theorems._RingContext.ia`` builds the compressed graph inline
instead of calling ``graphs.build_ia``, so on the check paths graph
construction shows up as ``rings.ann_sets_intersect`` calls and in
``theorems.check_ring`` self time, not under ``graphs.build_ia``.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# Per layer, the functions (or methods, for rings) that are wrapped.
LAYERS = {
    "rings": (
        "zero_divisor_ideal_witness",
        "annihilator_classes",
        "ann_sets_intersect",
        "subring_generated",
        "validate_closure",
        "annihilator_set",
        "common_annihilator_of_zero_divisors",
    ),
    "graphs": (
        "compress_classes",
        "build_ia",
        "build_torsion",
        "build_total",
        "build_ia_zn_symbolic",
        "build_ia_domain_product",
        "zn_symbolic_from_n",
        "graph_to_dot",
        "graph_to_json_dict",
    ),
    "invariants": ("invariants", "diameter", "girth", "is_complete_bipartite", "is_isomorphic"),
    "theorems": (
        "check_ring",
        "check_zn_symbolic",
        "symbolic_invariants",
        "sweep",
        "enumerate_product_specs",
    ),
    "cli": ("main",),
}
RING_CLASSES = ("FiniteRing", "ProductRing", "Subring")
BUILDERS = frozenset(
    f"graphs.{name}"
    for name in (
        "build_ia",
        "build_torsion",
        "build_total",
        "build_ia_zn_symbolic",
        "build_ia_domain_product",
    )
)


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    On Linux ``ru_maxrss`` carries the parent's high-water mark over
    ``exec``, so a child spawned by a large parent would report the
    parent's peak.  ``VmHWM`` counts the current process image only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.op = 0
        self.vertices = 0
        self.edges = 0
        self.rss_delta_kb = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- wrapping -------------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        builder = name in BUILDERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rss = peak_rss_kb() if builder else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
            if builder:
                self.rss_delta_kb += peak_rss_kb() - rss
                self.vertices += result.vertex_count
                self.edges += result.edge_count
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever iagraph modules refer to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import iagraph.cli  # noqa: F401  (loads every layer module)

        rings = sys.modules["iagraph.rings"]
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "iagraph"]
        for cls_name in RING_CLASSES:
            cls = getattr(rings, cls_name)
            for meth in LAYERS["rings"]:
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrap(f"rings.{meth}", vars(cls)[meth]))
        for layer, funcs in LAYERS.items():
            if layer == "rings":
                continue
            module = sys.modules[f"iagraph.{layer}"]
            for func in funcs:
                original = getattr(module, func)
                traced = self._wrap(f"{layer}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, traced)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # --- results --------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls, inclusive seconds and self seconds."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (name_id, start, end, _, _) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[idx]) / 1e9
        return out

    def symbolic_cache(self) -> tuple[int, int]:
        """(symbolic_invariants calls, calls answered without a build)."""
        build = self.names.index("graphs.build_ia_zn_symbolic")
        lookup = self.names.index("theorems.symbolic_invariants")
        built = {parent for name_id, _, _, parent, _ in self.spans if name_id == build}
        calls = [idx for idx, span in enumerate(self.spans) if span[0] == lookup]
        return len(calls), sum(1 for idx in calls if idx not in built)

    def dump(self) -> dict:
        return {"names": self.names, "spans": [list(s) for s in self.spans]}
