"""Annihilator-intersection graphs of finite commutative rings.

Rings are finite products of residue rings (and their subrings); the
toolkit compresses zero-divisors into annihilator classes, builds the
compressed intersection graph along with the torsion and total graphs,
computes graph invariants, and verifies the structural laws relating ring
and graph over exhaustive families.
"""

from .graphs import (
    Graph,
    VertexClass,
    build_ia,
    build_ia_domain_product,
    build_ia_zn_symbolic,
    build_torsion,
    build_total,
    compress_classes,
    graph_to_dot,
    graph_to_json_dict,
    zn_symbolic_from_n,
)
from .invariants import (
    InvariantReport,
    diameter,
    girth,
    invariants,
    is_complete_bipartite,
    is_isomorphic,
)
from .rings import (
    CapExceededError,
    FiniteRing,
    ProductRing,
    RingSpec,
    RingSpecError,
    Subring,
    UnsupportedVariantError,
    factorize,
    format_element,
    parse_ring_spec,
    product_ring,
)
from .theorems import (
    CHECK_IDS,
    Caps,
    RingReport,
    SelfCheckError,
    SweepAggregate,
    SweepConfig,
    TheoremCheck,
    check_ring,
    check_zn_symbolic,
    enumerate_product_specs,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CHECK_IDS",
    "CapExceededError",
    "Caps",
    "FiniteRing",
    "Graph",
    "InvariantReport",
    "ProductRing",
    "RingReport",
    "RingSpec",
    "RingSpecError",
    "SelfCheckError",
    "Subring",
    "SweepAggregate",
    "SweepConfig",
    "TheoremCheck",
    "UnsupportedVariantError",
    "VertexClass",
    "build_ia",
    "build_ia_domain_product",
    "build_ia_zn_symbolic",
    "build_torsion",
    "build_total",
    "check_ring",
    "check_zn_symbolic",
    "compress_classes",
    "diameter",
    "enumerate_product_specs",
    "factorize",
    "format_element",
    "girth",
    "graph_to_dot",
    "graph_to_json_dict",
    "invariants",
    "is_complete_bipartite",
    "is_isomorphic",
    "parse_ring_spec",
    "product_ring",
    "sweep",
    "zn_symbolic_from_n",
]
