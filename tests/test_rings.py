"""Ring core: parsing, arithmetic, zero divisors, annihilators, subrings."""

import ast
import importlib.util
import math
import operator
import pathlib
import pickle
import random
import tracemalloc
from itertools import combinations_with_replacement, product as cartesian

import numpy as np
import pytest

import iagraph
from iagraph.graphs import build_torsion, build_total
from iagraph.rings import (
    DEFAULT_ELEMENT_CAP,
    CapExceededError,
    FiniteRing,
    ProductRing,
    RingSpec,
    RingSpecError,
    Subring,
    _triangular,
    factorize,
    format_element,
    is_prime,
    parse_ring_spec,
    product_ring,
)
from iagraph.theorems import Caps, _RingContext, enumerate_product_specs

from conftest import (
    oracle_add,
    oracle_annihilator,
    oracle_classes,
    oracle_mul,
    oracle_zero_divisors,
    ring_elements,
)


# ---------------------------------------------------------------------------
# parsing and number helpers


def test_parse_single_factor():
    assert parse_ring_spec("Z12").factors == (12,)


def test_parse_product():
    assert parse_ring_spec("Z4xZ4").factors == (4, 4)
    assert parse_ring_spec("Z2xZ3xZ5").factors == (2, 3, 5)


def test_parse_case_insensitive():
    assert parse_ring_spec("z2Xz3").factors == (2, 3)


def test_parse_rejects_modulus_below_two():
    with pytest.raises(RingSpecError):
        parse_ring_spec("Z1")
    with pytest.raises(RingSpecError):
        parse_ring_spec("Z0xZ4")


def test_parse_rejects_garbage():
    # Arabic-Indic, fullwidth and superscript digits
    non_ascii = ("Z\u0661\u0662", "Z\uff11\uff12", "Z4xZ\u00b2")
    for bad in ("", "Q5", "Z", "Z12x", "xZ12", "Z-3", "Z4 x Z4x") + non_ascii:
        with pytest.raises(RingSpecError):
            parse_ring_spec(bad)


def test_ring_spec_from_a_list_is_the_tuple_spec():
    spec = RingSpec([4, 6])
    assert spec == RingSpec((4, 6)) and hash(spec) == hash(RingSpec((4, 6)))
    assert spec.factors == (4, 6)


def test_parse_order_cap():
    with pytest.raises(RingSpecError):
        parse_ring_spec("Z101", max_order=100)


def test_ring_id_round_trip():
    spec = parse_ring_spec("Z4xZ6xZ25")
    assert spec.ring_id() == "Z4xZ6xZ25"
    assert spec.order == 600
    assert spec.arity == 3


def test_factorize_and_friends():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(2**12 * 5**12) == ((2, 12), (5, 12))
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_factorize_cache_stays_within_its_bound():
    bound = 1 << 16
    assert factorize.cache_info().maxsize == bound
    for n in range(2, bound + 1002):  # more distinct arguments than the bound
        factorize(n)
    assert factorize.cache_info().currsize <= bound
    assert factorize(12) == ((2, 2), (3, 1))  # an evicted entry is recomputed


def test_factorization_remultiplies():
    for n in range(2, 3000):
        assert math.prod(p**e for p, e in factorize(n)) == n


def test_subring_members_must_live_in_parent():
    """Too large, the wrong arity, negative, or equal to the modulus."""
    ring = product_ring("Z4")
    for member in ((9,), (0, 0), (-1,), (4,)):
        with pytest.raises(ValueError, match="is outside the parent ring"):
            Subring(ring, frozenset({(0,), member}))


def test_format_element():
    """The cached per-arity templates print what joining str() of each residue
    does, for every arity, huge residues and any sequence type."""
    assert format_element((7,)) == "7"
    assert format_element((2, 0)) == "(2,0)"
    rng = random.Random(4)
    for arity in range(2, 7):
        for _ in range(50):
            x = tuple(rng.choice([0, 1, rng.randrange(10**15)]) for _ in range(arity))
            expected = "(" + ",".join(str(a) for a in x) + ")"
            assert format_element(x) == format_element(list(x)) == expected
    assert format_element((10**30,)) == str(10**30)


# ---------------------------------------------------------------------------
# arithmetic


def test_mul_z12():
    assert oracle_mul((12,), (4,), (6,)) == (0,)
    assert (6,) in product_ring("Z12").annihilator_set((4,))


def test_add_product_coordinatewise():
    ring = product_ring("Z4xZ4")
    assert ring.add((2, 3), (3, 2)) == (1, 1)


def test_add_z6():
    ring = product_ring("Z6")
    assert ring.add((4,), (5,)) == (3,)


def test_arity_mismatch_rejected():
    ring = product_ring("Z4xZ4")
    with pytest.raises(ValueError, match="is not a member of"):
        ring.add((1,), (2, 3))
    with pytest.raises(ValueError, match="is not a member of"):
        ring.annihilator_key((1, 2, 3))


def test_out_of_range_rejected():
    ring = product_ring("Z4xZ4")
    with pytest.raises(ValueError, match="is not a member of"):
        ring.add((4, 0), (0, 0))


# ---------------------------------------------------------------------------
# zero divisors


def test_is_zero_divisor_z12():
    zset = product_ring("Z12").zero_divisor_set()
    assert (8,) in zset
    assert (5,) not in zset
    assert (0,) in zset


def test_is_zero_divisor_product():
    zset = product_ring("Z3xZ3").zero_divisor_set()
    assert (1, 0) in zset
    assert (1, 1) not in zset


def test_zero_divisor_lemma_sweep():
    """For 1 < k < n, k is a nonzero zero-divisor iff gcd(k, n) != 1,
    checked against the definition itself."""
    for n in range(2, 120):
        zset = product_ring(f"Z{n}").zero_divisor_set()
        brute = oracle_zero_divisors((n,))
        for k in range(1, n):
            expected = math.gcd(k, n) != 1
            assert ((k,) in zset) == expected
            assert ((k,) in brute) == expected


def test_zero_divisor_set_z12():
    ring = product_ring("Z12")
    assert ring.zero_divisor_set() == {(0,), (2,), (3,), (4,), (6,), (8,), (9,), (10,)}


def test_zero_divisor_set_field():
    assert product_ring("Z7").zero_divisor_set() == {(0,)}


def test_zero_divisor_set_product():
    got = product_ring("Z3xZ3").zero_divisor_set()
    expected = {(0, 0)} | {(a, 0) for a in (1, 2)} | {(0, b) for b in (1, 2)}
    assert got == expected


def test_zero_divisor_set_matches_oracle(small_ring_ids):
    for rid in small_ring_ids:
        ring = product_ring(rid)
        assert ring.zero_divisor_set() == oracle_zero_divisors(ring.spec.factors), rid


# ---------------------------------------------------------------------------
# annihilators


def test_annihilator_key_values():
    ring = product_ring("Z12")
    assert ring.annihilator_key((2,)) == (6,)
    assert ring.annihilator_key((10,)) == (6,)
    assert ring.annihilator_key((5,)) == (12,)
    assert ring.annihilator_key((0,)) == (1,)


def test_annihilator_key_expansion():
    ring = product_ring("Z12")
    assert ring.expand_annihilator_key((6,)) == {(0,), (6,)}
    assert ring.expand_annihilator_key((12,)) == {(0,)}
    assert ring.expand_annihilator_key((1,)) == set(ring.elements())


def test_annihilator_key_expansion_rejects_non_divisors():
    """A key entry that is not a positive divisor of its modulus encodes no ideal:
    (5,) would give {0, 5, 10}, (0,) a division by zero and (-3,) no 0."""
    ring = product_ring("Z12")
    for key in ((5,), (0,), (-3,), (24,)):
        with pytest.raises(ValueError, match="positive divisor"):
            ring.expand_annihilator_key(key)
    with pytest.raises(ValueError, match="positive divisor"):
        product_ring("Z4xZ6").expand_annihilator_key((2, 4))
    with pytest.raises(ValueError, match="arity"):
        ring.expand_annihilator_key((6, 6))


def test_annihilator_set_examples():
    ring = product_ring("Z12")
    assert ring.annihilator_set((2,)) == {(0,), (6,)}
    assert ring.annihilator_set((6,)) == {(0,), (2,), (4,), (6,), (8,), (10,)}
    prod = product_ring("Z3xZ3")
    assert prod.annihilator_set((1, 0)) == {(0, 0), (0, 1), (0, 2)}


def test_key_expansion_equals_scan_and_oracle(small_ring_ids):
    for rid in small_ring_ids:
        ring = product_ring(rid)
        for x in ring.elements():
            expanded = ring.expand_annihilator_key(ring.annihilator_key(x))
            assert expanded == ring.annihilator_set(x), (rid, x)
            assert expanded == oracle_annihilator(ring.spec.factors, x), (rid, x)


def test_annihilator_set_numpy_path_matches_oracle():
    # order 300 exercises the vectorized scan
    ring = product_ring("Z300")
    for x in [(0,), (2,), (25,), (30,), (77,), (150,), (299,)]:
        assert ring.annihilator_set(x) == oracle_annihilator((300,), x)


def test_annihilator_set_builds_one_row_only():
    # the full zero-product matrix of Z4998 alone would take 25 MB
    ring = product_ring("Z4998")
    ring.elements()
    tracemalloc.start()
    try:
        assert ring.annihilator_set((2,)) == oracle_annihilator((4998,), (2,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_same_gcd_same_annihilator_sweep():
    """k with gcd(k, n) = l > 1 has the same annihilator key as l."""
    for n in range(2, 200):
        ring = product_ring(f"Z{n}")
        for k in range(1, n):
            l = math.gcd(k, n)
            if l > 1:
                assert ring.annihilator_key((k,)) == ring.annihilator_key((l,)), (n, k)


def test_ann_intersection_nonzero():
    ring = product_ring("Z12")
    meet = ring.ann_meet_matrix([2, 3, 4, 0])  # positions, here the residues themselves
    assert meet[0, 2] and meet[2, 0]  # ann(2) meets ann(4)
    assert not meet[0, 1]  # but not ann(3)
    assert meet[0, 3]  # ann(0) = R


def test_ann_intersection_matches_set_intersection(small_ring_ids):
    for rid in small_ring_ids:
        ring = product_ring(rid)
        zero = ring.zero
        classes = ring.annihilator_classes()
        meet = ring.ann_meet_matrix([key for key, _ in classes])
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                fast = meet[i, j]
                a = oracle_annihilator(ring.spec.factors, classes[i][1][0])
                b = oracle_annihilator(ring.spec.factors, classes[j][1][0])
                assert fast == (a & b != {zero}), (rid, i, j)


def _lcm_meet(ring, keys):
    """Reference meet rule: in Z_n, ann(x) n ann(y) = (lcm(g, h)) for the keys g
    and h, nonzero iff lcm(g, h) < n; one int64 lcm table per coordinate."""
    keys = np.array(keys, dtype=np.int64).reshape(len(keys), ring.arity)
    meet = np.zeros((len(keys), len(keys)), dtype=bool)
    for c, n in enumerate(ring.spec.factors):
        meet |= np.lcm.outer(keys[:, c], keys[:, c]) < n
    return meet


def test_support_meet_rule_matches_lcm_rule():
    """Every element of every product of order <= 120 with up to 3 factors, and of
    products whose factors are not prime powers: the meet by position against the
    lcm rule on annihilator_key."""
    specs = [RingSpec((n,)) for n in range(2, 121)] + enumerate_product_specs(120, 3)
    specs += [RingSpec((12, 30)), RingSpec((6, 10, 15)), RingSpec((360, 10))]
    for spec in specs:
        ring = ProductRing(spec)
        keys = list(map(ring.annihilator_key, ring.elements(cap=None)))
        meet = ring.ann_meet_matrix(np.arange(ring.order))
        assert np.array_equal(meet, _lcm_meet(ring, keys)), spec


def test_support_meet_rule_matches_lcm_rule_past_int32():
    """In Z_n a position is the residue itself; no element list is built."""
    ring = product_ring("Z1000000000000")
    n = ring.spec.factors[0]
    divisors = [2**i * 5**j for i in range(13) for j in range(13)]
    xs = [d % n for d in divisors] + [3, 7, 123456789, n - 1, n - 2]
    keys = [ring.annihilator_key((x,)) for x in xs]
    assert np.array_equal(ring.ann_meet_matrix(xs), _lcm_meet(ring, keys))
    meet = ring.ann_meet_matrix([2, n - 2, 2**12, 5**12])
    assert meet[0, 1]
    assert not meet[2, 3]
    assert ring._element_cache is None


def test_position_meet_matches_zero_product_default(small_ring_ids):
    """ProductRing's closed-form meet by position equals the FiniteRing default,
    which reads the zero-product rows: on every position, and on Z360xZ10, whose
    3600-row integer product takes about a minute, on every 7th position and the
    least member of every class."""
    for rid in small_ring_ids + ("Z12xZ30", "Z6xZ10xZ15", "Z360xZ10"):
        ring = product_ring(rid)
        at = np.arange(ring.order)
        if ring.order > 1000:
            least = [key for key, _ in ring.annihilator_classes()]
            at = np.union1d(at[::7], least)
        expected = FiniteRing.ann_meet_matrix(ring, at)
        assert np.array_equal(ring.ann_meet_matrix(at), expected), rid


def test_intersection_contained_in_sum_annihilator(small_ring_ids):
    """ann(x) n ann(y) always sits inside ann(x + y)."""
    for rid in small_ring_ids[:8]:
        ring = product_ring(rid)
        mods = ring.spec.factors
        elems = ring.elements()
        for x in elems:
            ax = oracle_annihilator(mods, x)
            for y in elems:
                common = ax & oracle_annihilator(mods, y)
                s = ring.add(x, y)
                assert common <= oracle_annihilator(mods, s), (rid, x, y)


def test_strict_containment_witness_z6():
    ring = product_ring("Z6")
    x, y = (4,), (5,)
    common = ring.annihilator_set(x) & ring.annihilator_set(y)
    target = ring.annihilator_set(ring.add(x, y))
    assert common < target
    assert (2,) in target and (2,) not in common


def test_annihilator_classes_well_defined(small_ring_ids):
    """Adjacency cannot depend on the chosen representatives."""
    for rid in small_ring_ids:
        ring = product_ring(rid)
        mods = ring.spec.factors
        zero = ring.zero
        classes = ring.annihilator_classes()
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                verdicts = {
                    (oracle_annihilator(mods, x) & oracle_annihilator(mods, y)) != {zero}
                    for x in classes[i][1]
                    for y in classes[j][1]
                }
                assert len(verdicts) == 1, (rid, i, j)


def test_annihilator_classes_match_oracle(small_ring_ids):
    for rid in small_ring_ids:
        ring = product_ring(rid)
        got = {members[0]: members for _, members in ring.annihilator_classes()}
        expected = {rep: members for rep, (_, members) in oracle_classes(ring.spec.factors).items()}
        assert got == expected, rid


# ---------------------------------------------------------------------------
# Z(R) as an ideal, common annihilators, nilpotents


def test_zero_divisors_ideal_z8():
    assert product_ring("Z8").zero_divisor_ideal_witness() is None


def test_zero_divisors_not_ideal_z12():
    ring = product_ring("Z12")
    witness = ring.zero_divisor_ideal_witness()
    assert witness is not None
    x, y = witness
    zset = ring.zero_divisor_set()
    assert x in zset and y in zset and ring.add(x, y) not in zset


def test_zero_divisors_not_ideal_product():
    assert product_ring("Z3xZ3").zero_divisor_ideal_witness() is not None


def test_zero_divisors_absorb_multiplication(small_ring_ids):
    """r * z stays a zero-divisor for every ring element r; the ideal test
    therefore only needs additive closure."""
    for rid in small_ring_ids[:8]:
        ring = product_ring(rid)
        zset = ring.zero_divisor_set()
        for z in zset:
            for r in ring.elements():
                assert oracle_mul(ring.spec.factors, r, z) in zset, (rid, r, z)


def test_common_annihilator():
    assert product_ring("Z8").common_annihilator_of_zero_divisors() == {(0,), (4,)}
    assert product_ring("Z12").common_annihilator_of_zero_divisors() == {(0,)}
    z7 = product_ring("Z7")
    assert z7.common_annihilator_of_zero_divisors() == set(z7.elements())


def brute_nilpotents(ring):
    out = set()
    steps = max(1, ring.order.bit_length())
    for x in ring.elements():
        y = x
        for _ in range(steps):
            y = oracle_mul(ring.spec.factors, y, y)
            if y == ring.zero:
                break
        if y == ring.zero:
            out.add(x)
    return out


def test_nilpotent_set_examples():
    """The brute nilpotent scan on hand-checked rings, and the closed form of
    "reduced" (every modulus squarefree) that the checks read."""
    assert brute_nilpotents(product_ring("Z12")) == {(0,), (6,)}
    assert brute_nilpotents(product_ring("Z30")) == {(0,)}
    assert brute_nilpotents(product_ring("Z4xZ3")) == {(0, 0), (2, 0)}
    reduced = [_RingContext(f, Caps()).reduced for f in ((12,), (30,), (4, 3), (2, 3, 5))]
    assert reduced == [False, True, False, True]


def test_nilpotent_fast_path_equals_powering(small_ring_ids):
    """The closed form of "reduced" equals: no nonzero nilpotent, by brute powering."""
    rings = [product_ring(rid) for rid in small_ring_ids]
    rings += [product_ring(f"Z{n}") for n in range(2, 80)]
    for ring in rings:
        reduced = brute_nilpotents(ring) == {ring.zero}
        assert _RingContext(ring.spec.factors, Caps()).reduced == reduced, ring


# ---------------------------------------------------------------------------
# subrings


def test_subring_generated_by_one_is_whole_ring():
    ring = product_ring("Z12")
    sub = ring.subring_generated([(1,)])
    assert sub is ring


def test_subring_diagonal():
    ring = product_ring("Z2xZ2")
    sub = ring.subring_generated([(1, 1)])
    assert sub.members == frozenset({(0, 0), (1, 1)})
    assert sub.contains(ring.one)


def test_subring_mixed_generators():
    ring = product_ring("Z4xZ4")
    sub = ring.subring_generated([(2, 0), (1, 1)])
    assert sub.order == 8
    assert sub.members == frozenset(
        (a, b) for a in range(4) for b in range(4) if (a - b) % 2 == 0
    )
    sub.validate_closure()


def test_subring_closure_validation_catches_bad_sets():
    ring = product_ring("Z4xZ4")
    bad = Subring(ring, frozenset({(0, 0), (1, 1)}))  # misses (2,2) = (1,1)+(1,1)
    with pytest.raises(ValueError):
        bad.validate_closure()
    # Z2 x Z_2m with m even, of orders DEFAULT_ELEMENT_CAP and just above it
    parents = [product_ring("Z2xZ2500"), product_ring("Z2xZ2504")]
    assert [p.order for p in parents] == [DEFAULT_ELEMENT_CAP, DEFAULT_ELEMENT_CAP + 8]
    for parent in parents:
        m = parent.spec.factors[1] // 2
        Subring(parent, frozenset({(0, 0), (1, 0), (0, m), (1, m)})).validate_closure()
        for members, name in (
            ({(0, 0), (0, 1)}, r"\+"),  # (0,1) + (0,1) = (0,2)
            ({(0, 0), (1, m)}, r"\*"),  # closed under +, but (1,m)^2 = (1,0)
            # -(0,1) = (0,2m-1) is missing; a finite set closed under + is
            # closed under -, so the + scan is the one that reports it
            ({(0, 0), (1, 0), (0, 1)}, ""),
        ):
            with pytest.raises(ValueError, match="not closed under " + name):
                Subring(parent, frozenset(members)).validate_closure()


def test_subring_requires_zero():
    ring = product_ring("Z4")
    with pytest.raises(ValueError):
        Subring(ring, frozenset({(1,)}))


def test_subring_rejects_foreign_generators():
    ring = product_ring("Z4")
    with pytest.raises(ValueError):
        ring.subring_generated([(5,)])


def test_subring_member_checks():
    ring = product_ring("Z4xZ4")
    sub = ring.subring_generated([(2, 0), (1, 1)])
    with pytest.raises(ValueError, match="is not a member of"):
        sub.add((1, 0), (0, 0))
    assert sub.add((2, 0), (1, 1)) == (3, 1)


def test_subring_annihilators_are_relative():
    """ann inside the subring is the parent annihilator cut down to members."""
    ring = product_ring("Z4xZ4")
    sub = ring.subring_generated([(2, 0), (1, 1)])
    for x in sub.elements():
        expected = {
            r for r in sub.elements() if oracle_mul(ring.spec.factors, r, x) == ring.zero
        }
        assert sub.annihilator_set(x) == expected, x


def test_small_subring_of_huge_parent():
    """Subring scans cost what the members cost, whatever the parent's order."""
    parent = product_ring("Z1000000xZ1000000")
    x = (500000, 0)
    sub = Subring(parent, frozenset({parent.zero, x}))
    sub.validate_closure()
    assert sub.zero_divisor_set() == {parent.zero, x}
    assert sub.zero_divisor_ideal_witness() is None
    assert sub.annihilator_set(x) == {parent.zero, x}
    assert build_total(sub).edge_count == 1
    with pytest.raises(ValueError):
        Subring(parent, frozenset({parent.zero, (1, 0)})).validate_closure()


def test_subring_of_huge_modulus_multiplies_exactly():
    """Residue products past int64 (modulus above about 3.04e9) stay exact."""
    parent = product_ring("Z1000000000000")
    x = (500000000000,)  # x * x = 25 * 10^22 = 0 mod 10^12
    sub = Subring(parent, frozenset({parent.zero, x}))
    sub.validate_closure()
    assert sub.annihilator_set(x) == {parent.zero, x}
    assert sub.zero_divisor_set() == {parent.zero, x}
    with pytest.raises(ValueError, match="not closed under"):
        Subring(parent, frozenset({parent.zero, (3,)})).validate_closure()


def test_element_codes_past_int64_are_refused():
    """An order past 2^63 has no int64 codes.  In Z_{10^10} x Z_{10^10} the
    member (1844674407, 3709551616) has code 2^64, which wraps to 0, so 1
    would seem to kill it; the engine raises instead of answering."""
    p = ProductRing(RingSpec((10**10, 10**10)))
    s = Subring(p, frozenset({p.zero, (1, 1), (1844674407, 3709551616)}))
    with pytest.raises(CapExceededError, match="past int64 element codes"):
        s.annihilator_set((1, 1))
    with pytest.raises(CapExceededError):
        s.zero_divisor_set()
    with pytest.raises(CapExceededError):
        s.validate_closure()
    # the key closed form reads no codes
    assert p.annihilator_key((2, 5)) == (5 * 10**9, 2 * 10**9)


_EDGE = math.isqrt(int(np.iinfo(np.int64).max)) + 1  # the least modulus whose products leave int64
# moduli on both sides of that switch, and an order of 2**63, whose codes fill int64 and
# whose code sums pass it
INT64_EDGE_MODULI = ((_EDGE,), (_EDGE + 1,), (_EDGE, 3), (5, _EDGE + 1), (2**62, 2))


def _edge_rows(mods, rng):
    """Sampled element rows of a ring of these moduli: 0, 1, n // 2, n - 2, n - 1
    and 4 random residues per coordinate, all their combinations."""
    picks = [{0, 1, n // 2, n - 2, n - 1} | {rng.randrange(n) for _ in range(4)} for n in mods]
    return np.array(list(cartesian(*map(sorted, picks))), dtype=np.int64)


def test_pair_codes_match_python_ints():
    """+ and * codes against Python ints: every residue pair of small rings,
    and sampled residues, 0 and n - 1 among them, for moduli on both sides of
    the switch to Python ints at (n - 1)**2 > INT64_MAX and for an order of 2**63."""
    assert (_EDGE - 1) ** 2 <= np.iinfo(np.int64).max < _EDGE**2
    rng = random.Random(5)
    cases = [product_ring(rid) for rid in ("Z2", "Z3", "Z7", "Z12", "Z2xZ2", "Z4xZ6", "Z2xZ3xZ5")]
    cases = [(ring, ring._matrix) for ring in cases]
    for mods in INT64_EDGE_MODULI:
        cases.append((ProductRing(RingSpec(mods)), _edge_rows(mods, rng)))
    for ring, rows in cases:
        mods, strides, elems = ring.spec.factors, ring._strides, rows.tolist()
        for op, py_op in ((np.add, operator.add), (np.multiply, operator.mul)):
            expected = [
                [sum(py_op(x, y) % n * s for x, y, n, s in zip(a, b, mods, strides)) for b in elems]
                for a in elems
            ]
            assert ring._pair_codes(op, rows, rows).tolist() == expected, (ring, op)


def test_position_engine_matches_element_tuples(small_ring_ids):
    """A ProductRing code is a position in elements(): the matrix decoded from
    arange(order) equals the element tuples, the class codes gathered from
    per-coordinate tables equal the code of each element's gcd tuple, and the
    decoding inverts the codes of the sampled rows at the int64 edge (no class
    table fits there: it has n entries)."""
    for rid in small_ring_ids + ("Z4998", "Z2xZ2048", "Z2xZ3xZ5xZ7"):
        ring = product_ring(rid)
        elems, mods, strides = ring.elements(), ring.spec.factors, ring._strides
        assert ring._matrix.tolist() == [list(x) for x in elems], rid
        gcd_codes = [
            sum(math.gcd(a, n) % n * s for a, n, s in zip(x, mods, strides)) for x in elems
        ]
        assert ring._class_codes.tolist() == gcd_codes, rid
    rng = random.Random(6)
    for mods in INT64_EDGE_MODULI:
        ring, rows = ProductRing(RingSpec(mods)), _edge_rows(mods, rng)
        codes = [sum(x * s for x, s in zip(row, ring._strides)) for row in rows.tolist()]
        assert ring._rows_of(np.array(codes, dtype=np.int64)).tolist() == rows.tolist(), mods


def test_zero_divisor_gather_matches_isin_default(small_ring_ids):
    """ProductRing's Z(R) test on codes, a gather of the mask by position, equals the
    FiniteRing np.isin default on every element code and on the codes of all sums."""
    for rid in small_ring_ids:
        ring = product_ring(rid)
        mat = ring._matrix
        for codes in (np.arange(ring.order), ring._pair_codes(np.add, mat, mat)):
            gathered = ring._in_zero_divisors(codes)
            assert np.array_equal(gathered, FiniteRing._in_zero_divisors(ring, codes)), rid


def test_subring_zero_divisors_computed_internally():
    # (1,1) is a unit in the parent and stays a non-zero-divisor inside
    ring = product_ring("Z2xZ2")
    sub = ring.subring_generated([(1, 1)])
    assert sub.zero_divisor_set() == {(0, 0)}


# ---------------------------------------------------------------------------
# direct-sum decompositions of annihilators


def test_decomposition_z2xz2():
    ok, witness = product_ring("Z2xZ2").has_ann_direct_sum_decomposition()
    assert ok
    assert set(witness) == {(0, 1), (1, 0)}


def test_decomposition_z8_and_field():
    assert product_ring("Z8").has_ann_direct_sum_decomposition() == (False, None)
    assert product_ring("Z7").has_ann_direct_sum_decomposition() == (False, None)


def test_decomposition_witness_is_real(small_ring_ids):
    for rid in small_ring_ids:
        ring = product_ring(rid)
        ok, witness = ring.has_ann_direct_sum_decomposition()
        if ok:
            x, y = witness
            a = ring.annihilator_set(x)
            b = ring.annihilator_set(y)
            assert a & b == {ring.zero}
            assert len(a) * len(b) == ring.order
            sums = {ring.add(p, q) for p in a for q in b}
            assert sums == set(ring.elements())


# ---------------------------------------------------------------------------
# differential: the block engine against the plain pair loops it replaced


def loop_ideal_witness(ring):
    zset = ring.zero_divisor_set()
    zs = sorted(zset)
    for i, x in enumerate(zs):
        for y in zs[i:]:
            if oracle_add(ring.spec.factors, x, y) not in zset:
                return (x, y)
    return None


def loop_common_annihilator(ring):
    zero = ring.zero
    candidates = set(ring.elements())
    for z in sorted(ring.zero_divisor_set()):
        candidates = {r for r in candidates if oracle_mul(ring.spec.factors, r, z) == zero}
        if candidates == {zero}:
            break
    return candidates


def loop_decomposition(ring):
    zero = ring.zero
    classes = ring.annihilator_classes()
    ann_sets = [
        {r for r in ring.elements() if oracle_mul(ring.spec.factors, r, members[0]) == zero}
        for _, members in classes
    ]
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            a, b = ann_sets[i], ann_sets[j]
            if len(a) * len(b) == ring.order and a & b == {zero}:
                return True, (classes[i][1][0], classes[j][1][0])
    return False, None


def differential_rings(small_ring_ids, generated_subrings):
    return [product_ring(rid) for rid in small_ring_ids] + generated_subrings + [
        product_ring("Z4096")
    ]


def test_engine_matches_pair_loops(small_ring_ids, generated_subrings):
    for ring in differential_rings(small_ring_ids, generated_subrings):
        assert ring.zero_divisor_ideal_witness() == loop_ideal_witness(ring), ring
        assert ring.common_annihilator_of_zero_divisors() == loop_common_annihilator(ring), ring
        assert ring.has_ann_direct_sum_decomposition() == loop_decomposition(ring), ring


def test_subring_zero_divisors_and_classes_match_loops(generated_subrings):
    for sub in generated_subrings:
        zero = sub.zero
        elems = sub.elements()
        ann = {x: {r for r in elems if oracle_mul(sub.spec.factors, r, x) == zero} for x in elems}
        assert sub.zero_divisor_set() == {x for x in elems if x == zero or len(ann[x]) >= 2}
        groups = {}
        for x in sorted(sub.zero_divisor_set() - {zero}):
            groups.setdefault(frozenset(ann[x]), []).append(x)
        expected = sorted(groups.values())
        assert [members for _, members in sub.annihilator_classes()] == expected, sub
        for x in elems:
            assert sub.annihilator_set(x) == ann[x]


def loop_additive_closure(mods, seed):
    """The additive group the seed elements span, grown by the cosets of each."""
    group = {tuple(0 for _ in mods)}
    for g in seed:
        shifted, x = list(group), g
        while x not in group:
            group.update(oracle_add(mods, x, s) for s in shifted)
            x = oracle_add(mods, x, g)
    return group


def loop_subring_members(ring, gens):
    """The +/* fixpoint generation used to run: the additive closure, alternated
    with all pairwise products until stable."""
    mods = ring.spec.factors
    members = loop_additive_closure(mods, set(gens))
    while len(members) < ring.order:
        products = {oracle_mul(mods, a, b) for a in members for b in members}
        if products <= members:
            break
        members = loop_additive_closure(mods, members | products)
    return members


def test_generated_subring_is_the_ring_exactly_when_it_fills_it(monkeypatch):
    """The ring object itself when the loop closure is all of R, and a closed
    Subring of the loop's members otherwise: every generator pair of small rings.
    Zero-divisor generators whose first triangular basis already spans R take
    one triangulation and no product round."""
    for rid in ("Z8", "Z12", "Z2xZ2", "Z2xZ4", "Z4xZ4", "Z2xZ3xZ5", "Z2xZ2xZ4", "Z2xZ4xZ4"):
        ring = product_ring(rid)
        for x, y in combinations_with_replacement(ring.elements(), 2):
            members = loop_subring_members(ring, [x, y])
            sub = ring.subring_generated([x, y])
            assert (sub is ring) == (len(members) == ring.order), (rid, x, y)
            if sub is not ring:
                assert isinstance(sub, Subring) and sub.members == members, (rid, x, y)
                sub.validate_closure()
    ring = product_ring("Z2xZ3xZ5")
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(loop_subring_members(ring, gens)) == ring.order
    calls = []
    monkeypatch.setattr(
        iagraph.rings, "_triangular", lambda rows, mods: calls.append(1) or _triangular(rows, mods)
    )
    assert ring.subring_generated(gens) is ring
    assert len(calls) == 1


def loop_is_closed(mods, members):
    """Closure under +, * and additive inverse, pair by pair."""
    return all(
        oracle_add(mods, x, y) in members and oracle_mul(mods, x, y) in members
        for x in members
        for y in members
    ) and all(tuple(-a % n for a, n in zip(x, mods)) in members for x in members)


def test_subring_generation_matches_fixpoint_on_random_rings():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        """A product spec of order at most 120, generators and whether 1 joins."""
        mods, order = [], 1
        for _ in range(draw(st.integers(1, 4))):
            if order * 2 > 120:
                break
            mods.append(draw(st.integers(2, 120 // order)))
            order *= mods[-1]
        elems = ring_elements(mods)
        gens = draw(st.lists(st.sampled_from(elems), max_size=4))
        return tuple(mods), gens, draw(st.booleans())

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        mods, gens, with_one = case
        ring = ProductRing(RingSpec(mods))
        gens = [ring.one] * with_one + gens
        sub = ring.subring_generated(gens)
        assert set(sub.elements(None)) == loop_subring_members(ring, gens)
        if sub is not ring:
            sub.validate_closure()

    check()


def test_triangular_basis_spans_the_rows_additive_group():
    """Random integer rows, negative and zero ones among them: the basis is
    upper-triangular, each pivot d_i is positive and divides n_i, and the
    product of the n_i / d_i is the order of the group the rows span mod n."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        mods = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
        row = st.lists(st.integers(-30, 30), min_size=len(mods), max_size=len(mods))
        return tuple(mods), draw(st.lists(row, max_size=4))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        mods, rows = case
        basis = _triangular(rows, mods)
        assert len(basis) == len(mods)
        for i, (h, n) in enumerate(zip(basis, mods)):
            assert h[:i] == [0] * i, (mods, rows, basis)
            assert h[i] > 0 and n % h[i] == 0, (mods, rows, basis)
        residues = {tuple(a % n for a, n in zip(r, mods)) for r in rows}
        order = math.prod(n // h[i] for i, (h, n) in enumerate(zip(basis, mods)))
        assert order == len(loop_additive_closure(mods, residues)), (mods, rows, basis)

    check()


def test_validate_closure_matches_loop_on_random_sets():
    """Closed sets (generated subrings) and arbitrary sets with 0, which are mostly not."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        mods = draw(st.sampled_from([(12,), (16,), (2, 4), (2, 2, 2), (3, 6), (4, 4), (9,)]))
        ring = ProductRing(RingSpec(mods))
        elems = ring.elements()
        members = set(draw(st.lists(st.sampled_from(elems), max_size=10)))
        if draw(st.booleans()):
            members = set(ring.subring_generated(members).elements())
        return ring, frozenset(members | {ring.zero})

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        ring, members = case
        sub = Subring(ring, members)
        if loop_is_closed(ring.spec.factors, members):
            sub.validate_closure()
            for x in members:
                ann = {y for y in members if oracle_mul(ring.spec.factors, x, y) == ring.zero}
                assert sub.annihilator_set(x) == ann
        else:
            with pytest.raises(ValueError, match="not closed under"):
                sub.validate_closure()

    check()


def test_engine_memory_is_bounded():
    """|Z(Z4096)| = 2048: an unblocked |Z|^2 int64 scan alone would need 32 MB."""
    ring = product_ring("Z4096")
    tracemalloc.start()
    try:
        assert ring.zero_divisor_ideal_witness() is None
        assert ring.common_annihilator_of_zero_divisors() == {(0,), (2048,)}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_torsion_build_memory_is_bounded():
    """The torsion graph of Z2xZ2048 (3071 vertices, 3.7M edges) peaks at about
    19 MB: the 9 MB adjacency matrix plus the boolean rows the support meet ORs in."""
    tracemalloc.start()
    try:
        graph = build_torsion(product_ring("Z2xZ2048"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (graph.vertex_count, graph.edge_count) == (3071, 3665409)
    assert peak < 32 * 2**20, peak


def test_annihilator_classes_cached_and_capped():
    ring = product_ring("Z12")
    assert ring.annihilator_classes() is ring.annihilator_classes()
    with pytest.raises(CapExceededError):
        ring.annihilator_classes(cap=10)


# ---------------------------------------------------------------------------
# caps


def test_element_cap_enforced():
    ring = product_ring("Z7000")
    with pytest.raises(CapExceededError):
        ring.elements()
    with pytest.raises(CapExceededError):
        ring.zero_divisor_set()
    assert len(ring.elements(cap=None)) == 7000


def test_subring_generation_checks_the_cap_without_listing_elements():
    """The lattice path reads no element, so an uncapped call lists none; a capped
    one raises each ring type's own element-cap error."""
    ring = product_ring("Z300xZ300")
    sub = ring.subring_generated([(150, 0)], cap=None)
    assert ring._element_cache is None
    assert sub.members == {(0, 0), (150, 0)}
    with pytest.raises(CapExceededError, match=r"^Z300xZ300 has order 90000, above the cap 5000$"):
        ring.subring_generated([(150, 0)])
    big = ring.subring_generated([(1, 0)], cap=None)
    with pytest.raises(CapExceededError, match=r"^subring order 300 above the cap 299$") as info:
        big.subring_generated([(1, 0)], cap=299)
    assert info.value.rule == "element cap 299"


def test_cap_override():
    ring = product_ring("Z12")
    with pytest.raises(CapExceededError):
        ring.elements(cap=10)


def test_cap_error_names_its_rule_and_pickles():
    """Each ring-side cap error carries its rule, without the ring; the error
    survives a pickle round trip, as it must to leave a pool worker."""
    ring = product_ring("Z12")
    sub = ring.subring_generated([(2,)], cap=None)
    huge = ProductRing(RingSpec((10**10, 10**10)))
    for raise_it, rule in (
        (lambda: ring.elements(cap=10), "element cap 10"),
        (lambda: sub.elements(cap=3), "element cap 3"),
        (lambda: ring.expand_annihilator_key((1,), cap=5), "element cap 5"),
        (lambda: huge._strides, "int64 element codes"),
    ):
        with pytest.raises(CapExceededError) as info:
            raise_it()
        assert info.value.rule == rule
        again = pickle.loads(pickle.dumps(info.value))
        assert (str(again), again.rule) == (str(info.value), rule)


# ---------------------------------------------------------------------------
# names the benchmark tracer and the package namespace look up


def test_traced_ring_methods_and_exports_exist():
    """perfbench/spans.py wraps each ring method it names wherever a ring class
    defines it and skips the rest silently, so a pruned method would read 0.
    ann_sets_intersect is the one name no class defines."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    classes = [getattr(iagraph.rings, name) for name in spans.RING_CLASSES]
    assert classes == [iagraph.rings.FiniteRing, ProductRing, Subring]
    undefined = [
        name for name in spans.LAYERS["rings"] if not any(name in vars(cls) for cls in classes)
    ]
    assert undefined == ["ann_sets_intersect"]
    for name in iagraph.__all__:
        assert hasattr(iagraph, name), name


def test_no_module_imports_a_name_it_never_uses():
    """No linter is installed, so this stands in for its unused-import rule: every
    name a module of the package imports is read in that module or listed in its
    __all__ (``from __future__`` imports set compiler flags and bind nothing read)."""
    for path in sorted(pathlib.Path(iagraph.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, read, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= {e.value for e in node.value.elts}
        assert imported - read - exported == set(), path.name
