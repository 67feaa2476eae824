"""Workloads of the iagraph benchmark and their seeded inputs.

A workload is a list of jobs.  A job is the unit of work one fresh child
interpreter runs, so the process-global caches (the symbolic invariant
cache, the ``factorize`` cache) start cold and the peak RSS covers one
job only.  One pass runs every job of the workload once.

Inputs depend only on the workload name and the seed.  Nothing here
imports ``iagraph``: the parent process derives its known answers from
the same inputs without touching the code under test.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("sweep-products", "sweep-zn-symbolic", "verify-all", "big-graphs")

# The product-sweep checks of the acceptance suite.
PRODUCT_CHECKS = ("T2.goldie", "T3.girth", "T2.no-Kmn", "T3.diam3", "T3.card2")
# The symbolic-sweep checks of the acceptance suite (test c05).
SYMBOLIC_CHECKS = ("L4.three-primes", "T3.girth", "T2.no-Kmn", "T3.diam3", "T3.card2")

PRODUCT_BOUND_BAND = (390, 410)
SYMBOLIC_BOUND_BAND = (99_000, 101_000)
VERIFY_MAX_ORDER = 300
VERIFY_DRAW = 1000
VERIFY_JOBS = 4
ORACLE_SAMPLE = 2  # per verify job
ORACLE_MAX_ORDER = 64
DOMAIN_PRODUCT_K = 10
TOTAL_ORDER_LOG2 = 9
TORSION_ORDER_LOG2 = 11


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def spec_text(factors: tuple[int, ...]) -> str:
    return "x".join(f"Z{n}" for n in factors)


def product_bound(seed: int) -> int:
    return _rng("sweep-products", seed).randint(*PRODUCT_BOUND_BAND)


def symbolic_bound(seed: int) -> int:
    return _rng("sweep-zn-symbolic", seed).randint(*SYMBOLIC_BOUND_BAND)


def sorted_factor_tuples(max_order: int, min_factors: int, max_factors: int):
    """Non-decreasing tuples of moduli >= 2 with product <= max_order."""
    out = []

    def extend(prefix, low, budget):
        if len(prefix) >= min_factors:
            out.append(prefix)
        if len(prefix) == max_factors:
            return
        for f in range(low, budget + 1):
            extend(prefix + (f,), f, budget // f)

    extend((), 2, max_order)
    return out


def verify_population() -> list[tuple[int, ...]]:
    """Z_n and 2-3 factor products of order at most VERIFY_MAX_ORDER."""
    singles = [(n,) for n in range(2, VERIFY_MAX_ORDER + 1)]
    return singles + sorted(sorted_factor_tuples(VERIFY_MAX_ORDER, 2, 3))


def verify_draw(seed: int) -> list[tuple[int, ...]]:
    """VERIFY_DRAW distinct specs, drawn without replacement, in drawn order."""
    return _rng("verify-all", seed).sample(verify_population(), VERIFY_DRAW)


def _two_power_pair(rng: random.Random, log2_order: int) -> tuple[int, int]:
    a = rng.randint(1, log2_order // 2)
    return (2**a, 2 ** (log2_order - a))


def zn_symbolic_modulus(rng: random.Random) -> int:
    """n = p^5 q^3 r * 7*11*13*17 with (p, q, r) a permutation of (2, 3, 5).

    Every choice has the exponent multiset {5, 3, 1, 1, 1, 1, 1}, so the
    divisor graph is the same up to labels: 768 divisors, 766 vertices.
    """
    p, q, r = rng.sample((2, 3, 5), 3)
    return p**5 * q**3 * r * 7 * 11 * 13 * 17


def big_commands(seed: int) -> list[list[str]]:
    """Four large single-graph commands; the seed picks specs of equal shape."""
    rng = _rng("big-graphs", seed)
    total = spec_text(_two_power_pair(rng, TOTAL_ORDER_LOG2))
    torsion = spec_text(_two_power_pair(rng, TORSION_ORDER_LOG2))
    n = zn_symbolic_modulus(rng)
    return [
        ["build", "--graph", "domain-product", "--k", str(DOMAIN_PRODUCT_K)],
        ["build", "--graph", "total", "--ring", total, "--format", "json"],
        ["invariants", "--graph", "torsion", "--ring", torsion],
        ["build", "--graph", "zn-symbolic", "--ring", f"Z{n}"],
    ]


def jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one pass, each a JSON-able dict a child can run."""
    if workload == "sweep-products":
        return [
            {
                "kind": "sweep",
                "family": "products",
                "max_n": product_bound(seed),
                "max_factors": 3,
                "checks": list(PRODUCT_CHECKS),
            }
        ]
    if workload == "sweep-zn-symbolic":
        return [
            {
                "kind": "sweep",
                "family": "zn-symbolic",
                "max_n": symbolic_bound(seed),
                "max_factors": 3,
                "checks": list(SYMBOLIC_CHECKS),
            }
        ]
    if workload == "verify-all":
        draw = [spec_text(f) for f in verify_draw(seed)]
        size = math.ceil(len(draw) / VERIFY_JOBS)
        return [
            {"kind": "verify", "specs": draw[i : i + size]}
            for i in range(0, len(draw), size)
        ]
    if workload == "big-graphs":
        return [{"kind": "cli", "argv": argv} for argv in big_commands(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def oracle_sample(specs: list[str]) -> list[str]:
    """The first ORACLE_SAMPLE specs of a verify job small enough for the dumb oracle."""
    small = (s for s in specs if math.prod(int(t[1:]) for t in s.split("x")) <= ORACLE_MAX_ORDER)
    return list(itertools.islice(small, ORACLE_SAMPLE))
