"""Finite commutative rings as direct products of residue rings.

A ring here is either Z_{n1} x ... x Z_{nk} (a ``ProductRing``) or an
element-set subring of one (a ``Subring``).  Elements are tuples of
residues, one coordinate per factor, and all arithmetic is coordinate-wise
and exact.

Element-level questions (is x.y = 0? is x + y in Z(R)? does ann(x) meet
ann(y) beyond 0? which subring do these elements generate?) go through one
brute-force engine on ``FiniteRing``:

* ``_matrix``: the elements as a cached order x arity int64 matrix;
* one mixed-radix code, sum of x_i * n_{i+1} * ... * n_k, for elements and
  for op(a_i, b_j) over pairs; ``_rows`` decodes codes back to elements.
  Codes ascend with elements().  A ring whose order passes the int64 range
  gets no codes: ``CapExceededError``, not a wrapped code;
* zero-product rows for any list of elements, and the scan of x + y in
  Z(R) over the pairs of one list, built in blocks of at most
  ``_BLOCK_PAIRS`` pairs, so memory stays bounded and a scan stops at its
  first hit.  The full order x order zero-product matrix is cached only
  where every row is needed, for the default Z(R) mask and class codes;
  ``annihilator_set`` always computes its element's own row;
* generated subrings on sorted code arrays: the additive subgroup grows by
  the cosets of each generator's multiples, and products of the generators
  that grew it are the next generators, until none falls outside; one that
  fills the ring is the ring object itself;
* ``Subring.validate_closure``, one blocked ``np.isin`` scan of the + and *
  codes against the member codes, for direct callers and for a proper
  generated subring in T2.subring;
* the annihilator classes of Z*(R), grouped once by a 1-D class code and
  cached on the ring.

The Z(R) mask, the class code, opaque annihilator keys (also read by
position as one array, for the torsion graph) and their meet matrix default
to the zero-product matrix: a key is a position in elements(), whose row is
the annihilator.  That serves any variant, since an annihilator need not be
principal per coordinate; closed forms override the default.  Product rings
use closed forms on the ``AnnKey`` g, g[i] = n_i // gcd(n_i, x_i): x is a
zero-divisor iff some g[i] < n_i, and equal keys mean equal annihilators.
ann(x) and ann(y) meet beyond 0 iff some prime p | n_i divides both
n_i // g[i] and n_i // h[i], the CRT rule ``shared_support`` evaluates for
the symbolic graphs too.  The brute-force rows are also the oracle the
closed forms are tested against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as cartesian

import numpy as np

DEFAULT_ELEMENT_CAP = 5000
DEFAULT_PARSE_ORDER_CAP = 10**12
_BLOCK_PAIRS = 4096  # most element pairs one engine block holds
_INT64_MAX = int(np.iinfo(np.int64).max)

Element = tuple[int, ...]
AnnKey = tuple[int, ...]


class RingSpecError(ValueError):
    """Malformed ring description (bad token, modulus < 2, oversized order)."""


class CapExceededError(RuntimeError):
    """An enumeration would exceed a configured cap.  ``rule`` names the cap
    and its value without the ring, e.g. "element cap 5000"; every raise sets
    it (its default lets a pickled error rebuild from its message)."""

    def __init__(self, message: str, rule: str = ""):
        super().__init__(message)
        self.rule = rule


class UnsupportedVariantError(TypeError):
    """Operation only defined for one ring variant (e.g. keys on products)."""


# ---------------------------------------------------------------------------
# integer helpers


@lru_cache(maxsize=1 << 16)  # bounded: a per-ring sweep to 10^6 would keep every n
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 2 as a sorted tuple of (prime, exponent)."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def shared_support(support: np.ndarray) -> np.ndarray:
    """Boolean matrix: [i, j] iff rows i and j of support are true in a common
    column, the OR of the columns' outer products.  By CRT, with a column per
    local prime, two classes of a product ring meet iff they share one."""
    meet = np.zeros((len(support), len(support)), dtype=bool)
    for column in support.T:
        meet[column] |= column
    return meet


# ---------------------------------------------------------------------------
# ring specification


@dataclass(frozen=True)
class RingSpec:
    """Ordered factor moduli of a product ring Z_{n1} x ... x Z_{nk}."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors:
            raise RingSpecError("a ring needs at least one factor")
        for n in self.factors:
            if not isinstance(n, int) or n < 2:
                raise RingSpecError(f"modulus {n!r} is below 2")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def arity(self) -> int:
        return len(self.factors)

    def ring_id(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)


_TOKEN = re.compile(r"^Z(\d+)$", re.ASCII)


def parse_ring_spec(text: str, max_order: int = DEFAULT_PARSE_ORDER_CAP) -> RingSpec:
    """Parse ``Z<n>(xZ<n>)*`` (case-insensitive Z, ASCII x separator)."""
    cleaned = text.strip().upper()
    if not cleaned:
        raise RingSpecError("empty ring spec")
    factors = []
    for token in cleaned.split("X"):
        m = _TOKEN.match(token)
        if not m:
            raise RingSpecError(f"malformed ring token {token!r} in {text!r}")
        n = int(m.group(1))
        if n < 2:
            raise RingSpecError(f"modulus below 2 in token {token!r}")
        factors.append(n)
    spec = RingSpec(tuple(factors))
    if spec.order > max_order:
        raise RingSpecError(f"ring order {spec.order} exceeds cap {max_order}")
    return spec


def format_element(x: Element) -> str:
    """Serialize an element: plain decimal for rank 1, (a,b,...) otherwise."""
    if len(x) == 1:
        return str(x[0])
    return "(" + ",".join(str(a) for a in x) + ")"


# ---------------------------------------------------------------------------
# rings


def _blocks(count: int, width: int):
    """Slices of range(count) whose rows hold at most _BLOCK_PAIRS pairs of `width` columns."""
    step = max(1, _BLOCK_PAIRS // max(1, width))
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


class FiniteRing:
    """Shared surface of product rings and their subrings, and the brute-force engine.

    A variant supplies its members and its parent product; checked arithmetic
    and the zero-product annihilator path are inherited."""

    spec: RingSpec

    # --- basic structure, provided by subclasses -------------------------
    @property
    def order(self) -> int:
        raise NotImplementedError

    def elements(self, cap: int | None = DEFAULT_ELEMENT_CAP) -> tuple[Element, ...]:
        """All members in ascending order, so 0 comes first."""
        raise NotImplementedError

    def contains(self, x: Element) -> bool:
        raise NotImplementedError

    def parent_product(self) -> "ProductRing":
        raise NotImplementedError

    # --- coordinate-wise arithmetic on members ----------------------------
    def _require(self, *xs: Element) -> None:
        for x in xs:
            if not self.contains(x):
                raise ValueError(f"{x} is not a member of {self!r}")

    def add(self, x: Element, y: Element) -> Element:
        self._require(x, y)
        return tuple((a + b) % n for a, b, n in zip(x, y, self.spec.factors))

    def mul(self, x: Element, y: Element) -> Element:
        self._require(x, y)
        return tuple((a * b) % n for a, b, n in zip(x, y, self.spec.factors))

    # --- annihilator data, by default from the zero-product matrix --------
    @cached_property
    def _zero_divisor_mask(self) -> np.ndarray:
        """Z(R) over elements(), 0 included."""
        mask = self._zero_product_matrix.sum(axis=1) >= 2  # killed by some nonzero member
        mask[0] = True  # 0 is in Z(R) by convention
        return mask

    @cached_property
    def _class_codes(self) -> np.ndarray:
        """Integers over elements(), equal on two zero-divisors iff their annihilators are."""
        ids: dict[bytes, int] = {}
        return np.array(
            [ids.setdefault(row.tobytes(), len(ids)) for row in self._zero_product_matrix],
            dtype=np.int64,
        )

    def ann_keys(self, xs) -> list:
        """Opaque annihilator keys of the elements xs, as ann_meet_matrix takes them:
        by default the position of each in elements(), which indexes its row."""
        return [self._index(x) for x in xs]

    def _ann_keys_at(self, positions: np.ndarray) -> np.ndarray:
        """ann_keys of the elements at these positions of elements(), as one array."""
        return positions

    def ann_meet_matrix(self, keys) -> np.ndarray:
        """Boolean matrix: [i, j] iff the annihilators of keys i and j meet beyond 0."""
        rows = self._zero_product_matrix[np.asarray(keys, dtype=np.intp)].astype(np.int64)
        return rows @ rows.T >= 2  # 0 annihilates everything; need one more

    # --- the brute-force engine ------------------------------------------
    @cached_property
    def _strides(self) -> tuple[int, ...]:
        if self.spec.order - 1 > _INT64_MAX:
            raise CapExceededError(
                f"{self.spec.ring_id()} has order {self.spec.order}, past int64 element codes",
                "int64 element codes",
            )
        mods = self.spec.factors
        return tuple(math.prod(mods[i + 1 :]) for i in range(len(mods)))

    @cached_property
    def _matrix(self) -> np.ndarray:
        """elements() as an order x arity int64 matrix; callers enforce the cap first."""
        return self._as_matrix(self.elements(cap=None))

    @cached_property
    def _codes(self) -> np.ndarray:
        """Code of each element, ascending since elements() is sorted."""
        return self._matrix @ np.array(self._strides, dtype=np.int64)

    @cached_property
    def _zero_divisor_codes(self) -> np.ndarray:
        return self._codes[self._zero_divisor_mask]

    def _as_matrix(self, xs) -> np.ndarray:
        return np.array(xs, dtype=np.int64).reshape(len(xs), self.arity)

    @cached_property
    def _positions(self) -> dict[Element, int]:
        return {x: i for i, x in enumerate(self.elements(cap=None))}

    def _index(self, x: Element) -> int:
        """Position of x in elements()."""
        try:
            return self._positions[x]
        except KeyError:
            raise ValueError(f"{x} is not a member of {self!r}") from None

    def _pair_codes(self, op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Codes of op(a_i, b_j) for element rows a_i of a and b_j of b, whose
        coordinates are residues 0 <= x < n; op is np.add or np.multiply."""
        out = np.zeros((len(a), len(b)), dtype=np.int64)
        residues = np.empty_like(out)
        for c, (n, s) in enumerate(zip(self.spec.factors, self._strides)):
            if (n - 1) ** 2 > _INT64_MAX:  # residue products overflow int64: use Python ints
                residues[...] = op.outer(a[:, c].astype(object), b[:, c].astype(object)) % n
            else:
                op.outer(a[:, c], b[:, c], out=residues)
                residues %= n
            residues *= s
            out += residues
        return out

    def _rows(self, codes: np.ndarray) -> np.ndarray:
        """Element rows of codes, the inverse of the code map."""
        return codes[:, None] // np.array(self._strides) % np.array(self.spec.factors)

    def _zero_rows(self, a: np.ndarray) -> np.ndarray:
        """Boolean rows: [i, j] iff a_i * e_j = 0, for the element rows a."""
        mat = self._matrix
        out = np.empty((len(a), len(mat)), dtype=bool)
        for rows in _blocks(len(a), len(mat)):
            out[rows] = self._pair_codes(np.multiply, a[rows], mat) == 0
        return out

    @cached_property
    def _zero_product_matrix(self) -> np.ndarray:
        """Every zero-product row; only built where all of them are needed."""
        return self._zero_rows(self._matrix)

    def zero_divisor_sum_blocks(self, xs):
        """Yield (start, block) with block[i, j] true iff xs[start + i] + xs[j] is in Z(R)."""
        a = self._as_matrix(xs)
        for rows in _blocks(len(a), len(a)):
            sums = self._pair_codes(np.add, a[rows], a)
            yield rows.start, np.isin(sums, self._zero_divisor_codes)

    # --- shared derived operations ---------------------------------------
    @property
    def arity(self) -> int:
        return self.spec.arity

    @property
    def zero(self) -> Element:
        return tuple(0 for _ in self.spec.factors)

    @property
    def one(self) -> Element:
        return tuple(1 for _ in self.spec.factors)

    def is_zero_divisor(self, x: Element) -> bool:
        return bool(self._zero_divisor_mask[self._index(x)])

    def _zero_divisors(self, cap: int | None) -> list[Element]:
        elems = self.elements(cap)
        return [elems[i] for i in np.flatnonzero(self._zero_divisor_mask)]

    def zero_divisor_set(self, cap: int | None = DEFAULT_ELEMENT_CAP) -> set[Element]:
        """Z(R), with 0 included by convention."""
        return set(self._zero_divisors(cap))

    def nonzero_zero_divisors_with_keys(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> tuple[list[Element], np.ndarray]:
        """Z*(R) in ascending order, and their annihilator keys as one array."""
        elems = self.elements(cap)
        at = np.flatnonzero(self._zero_divisor_mask)[1:]  # elements()[0] is 0
        return [elems[i] for i in at], self._ann_keys_at(at)

    def annihilator_set(self, x: Element, cap: int | None = DEFAULT_ELEMENT_CAP) -> set[Element]:
        """ann(x), its own row of the zero-product matrix, computed alone."""
        elems = self.elements(cap)
        i = self._index(x)
        row = self._pair_codes(np.multiply, self._matrix[i : i + 1], self._matrix)[0] == 0
        return {elems[j] for j in row.nonzero()[0]}

    def zero_divisor_ideal_witness(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> tuple[Element, Element] | None:
        """The first pair x <= y of Z(R) in sorted order with x + y not in Z(R),
        or None if Z(R) is an ideal.

        Additive closure is the only condition tested: Z(R) always absorbs
        ring multiplication and additive inverses, so closure under + is
        equivalent to being an ideal.  The first hit of the full square already
        has x <= y: a hit (y, x) with x < y would come after the hit (x, y).
        """
        zs = self._zero_divisors(cap)
        for start, block in self.zero_divisor_sum_blocks(zs):
            outside = ~block
            if outside.any():
                i, j = divmod(int(outside.argmax()), len(zs))
                return zs[start + i], zs[j]
        return None

    @cached_property
    def _classes(self) -> list[tuple[object, list[Element]]]:
        elems = self.elements(cap=None)
        members = np.flatnonzero(self._zero_divisor_mask)[1:]  # elements()[0] is 0
        if not len(members):
            return []
        codes = self._class_codes[members]
        by_code = np.argsort(codes, kind="stable")
        groups = np.split(members[by_code], np.flatnonzero(np.diff(codes[by_code])) + 1)
        groups.sort(key=lambda g: g[0])
        keys = self.ann_keys([elems[g[0]] for g in groups])
        return [(key, [elems[i] for i in g]) for key, g in zip(keys, groups)]

    def annihilator_classes(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> list[tuple[object, list[Element]]]:
        """Partition of Z*(R) by annihilator as (key, sorted members), sorted by
        least member.  Computed once and cached on the ring: do not mutate it."""
        self.elements(cap)
        return self._classes

    def _representative_rows(self, cap: int | None) -> tuple[list[Element], np.ndarray]:
        """Class representatives and their zero-product rows.  ann is constant on a
        class, so these rows stand for every nonzero zero-divisor."""
        reps = [members[0] for _, members in self.annihilator_classes(cap)]
        return reps, self._zero_rows(self._as_matrix(reps))

    def common_annihilator_of_zero_divisors(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> set[Element]:
        """{r in R : r.z = 0 for all z in Z(R)}; ann(0) = R adds no condition."""
        elems = self.elements(cap)
        _, rows = self._representative_rows(cap)
        return {elems[j] for j in np.flatnonzero(rows.all(axis=0))}

    def subring_generated(self, gens, cap: int | None = DEFAULT_ELEMENT_CAP) -> "FiniteRing":
        """Least subset containing gens closed under +, *, -: this ring itself
        when that is every element, a ``Subring`` otherwise.

        The members are the additive subgroup the generators span, grown on
        sorted codes: a generator outside it adds its multiples k.g up to the
        first one already inside, whose cosets are then disjoint.  Products
        distribute over sums, so the subgroup is closed under * once the
        products of the generators that grew it lie inside; those outside
        are the next round's generators.  Growth stops once the subgroup is
        the whole ring, which is then returned as it is.
        """
        self.elements(cap)  # enforce the cap before any closure work
        gens = list(gens)
        self._require(*gens)
        mods, strides = np.array(self.spec.factors), np.array(self._strides)
        group = np.zeros(1, dtype=np.int64)  # sorted codes of the subgroup so far
        basis = []  # the generators that grew it
        todo = self._as_matrix(gens)
        while len(todo) and len(group) < self.order:
            for g in todo:
                code = g @ strides
                at = group.searchsorted(code)
                if at < len(group) and group[at] == code:
                    continue
                order = int(np.lcm.reduce(mods // np.gcd(g, mods)))  # additive order of g
                ks = np.arange(order)[:, None] % mods
                multiples = self._pair_codes(np.multiply, ks, g[None])[:, 0]
                inside = np.isin(multiples[1:], group)
                index = int(inside.argmax()) + 1 if inside.any() else order
                group = np.sort(
                    self._pair_codes(np.add, self._rows(group), self._rows(multiples[:index])),
                    axis=None,
                )
                basis.append(g)
                if len(group) == self.order:  # the whole ring: every product lies inside
                    break
            else:
                basis_rows = self._as_matrix(basis)
                products = self._pair_codes(np.multiply, basis_rows, basis_rows)
                todo = self._rows(products[~np.isin(products, group)])
        if len(group) == self.order:
            return self
        return Subring(self.parent_product(), frozenset(map(tuple, self._rows(group).tolist())))

    def has_ann_direct_sum_decomposition(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> tuple[bool, tuple[Element, Element] | None]:
        """Whether R splits as ann(x) (+) ann(y) for two distinct x, y in Z*(R).

        The split is realized internally: ann(x) and ann(y) intersect only
        in 0 and their sizes multiply to |R|, which forces ann(x) + ann(y)
        to be all of R.  Same-class pairs can never qualify (their common
        annihilator is the whole nonzero annihilator), so it suffices to
        scan pairs of distinct annihilator classes, first pair first.
        """
        reps, rows = self._representative_rows(cap)
        sizes = rows.sum(axis=1)
        sized = np.triu(np.multiply.outer(sizes, sizes) == self.order, 1)
        for i, j in np.argwhere(sized):
            if np.count_nonzero(rows[i] & rows[j]) == 1:
                return True, (reps[i], reps[j])
        return False, None


class ProductRing(FiniteRing):
    """Z_{n1} x ... x Z_{nk} with coordinate-wise arithmetic."""

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self._element_cache: tuple[Element, ...] | None = None

    def __repr__(self) -> str:
        return f"ProductRing({self.spec.ring_id()})"

    @property
    def order(self) -> int:
        return self.spec.order

    def parent_product(self) -> "ProductRing":
        return self

    def contains(self, x: Element) -> bool:
        return len(x) == self.arity and all(0 <= a < n for a, n in zip(x, self.spec.factors))

    def elements(self, cap: int | None = DEFAULT_ELEMENT_CAP) -> tuple[Element, ...]:
        if cap is not None and self.order > cap:
            raise CapExceededError(
                f"{self.spec.ring_id()} has order {self.order}, above the cap {cap}",
                f"element cap {cap}",
            )
        if self._element_cache is None:
            self._element_cache = tuple(cartesian(*[range(n) for n in self.spec.factors]))
        return self._element_cache

    # --- zero divisors and annihilators, closed forms ----------------------
    def is_zero_divisor(self, x: Element) -> bool:
        """gcd test per coordinate; gcd(n, 0) = n puts 0 in Z(R) as wanted."""
        self._require(x)
        return any(math.gcd(a, n) != 1 for a, n in zip(x, self.spec.factors))

    def annihilator_key(self, x: Element) -> AnnKey:
        """Per-coordinate principal generator of ann(x): g[i] = n_i // gcd(n_i, x_i)."""
        self._require(x)
        return self.ann_keys([x])[0]

    def expand_annihilator_key(
        self, key: AnnKey, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> set[Element]:
        """All elements of the ideal encoded by a key (coordinate multiples)."""
        if len(key) != self.arity:
            raise ValueError(f"key {key} has arity {len(key)}, ring expects {self.arity}")
        size = math.prod(n // g for g, n in zip(key, self.spec.factors))
        if cap is not None and size > cap:
            raise CapExceededError(
                f"ideal of size {size} above the cap {cap}", f"element cap {cap}"
            )
        return set(cartesian(*[range(0, n, g) for g, n in zip(key, self.spec.factors)]))

    @cached_property
    def _key_matrix(self) -> np.ndarray:
        """annihilator_key of every element, one row each."""
        mods = np.array(self.spec.factors, dtype=np.int64)
        return mods // np.gcd(self._matrix, mods)

    @cached_property
    def _zero_divisor_mask(self) -> np.ndarray:
        return (self._key_matrix < np.array(self.spec.factors, dtype=np.int64)).any(axis=1)

    @cached_property
    def _class_codes(self) -> np.ndarray:
        # each key entry g lies in 1..n, so g - 1 is a coordinate and gets a code
        return (self._key_matrix - 1) @ np.array(self._strides, dtype=np.int64)

    def ann_keys(self, xs) -> list[AnnKey]:
        gcd, mods = math.gcd, self.spec.factors
        return [tuple(n // gcd(a, n) for a, n in zip(x, mods)) for x in xs]

    def _ann_keys_at(self, positions: np.ndarray) -> np.ndarray:
        return self._key_matrix[positions]

    def ann_meet_matrix(self, keys) -> np.ndarray:
        """In Z_n, ann(x) meets ann(y) in (lcm(g, h)), nonzero iff a prime p | n divides
        both n // g = gcd(n, x) and n // h: one support column per coordinate and p."""
        keys = np.array(keys, dtype=np.int64).reshape(len(keys), self.arity)
        columns = [
            (n // keys[:, c]) % p == 0
            for c, n in enumerate(self.spec.factors)
            for p, _ in factorize(n)
        ]
        return shared_support(np.stack(columns, axis=1))


class Subring(FiniteRing):
    """An element-set subring of a product ring.

    Its annihilators come from the zero-product matrix of the members, the
    default of ``FiniteRing``, never by key arithmetic.
    """

    def __init__(self, parent: ProductRing, members: frozenset[Element]):
        self.parent = parent
        self.spec = parent.spec
        self.members = members
        if parent.zero not in members:
            raise ValueError("subring must contain 0")
        self._element_cache = tuple(sorted(members))
        for x in self._element_cache:
            if not parent.contains(x):
                raise ValueError(f"{x} is outside the parent ring")

    def __repr__(self) -> str:
        return f"Subring({self.spec.ring_id()}, {len(self.members)} members)"

    @property
    def order(self) -> int:
        return len(self.members)

    def parent_product(self) -> ProductRing:
        return self.parent

    def elements(self, cap: int | None = DEFAULT_ELEMENT_CAP) -> tuple[Element, ...]:
        if cap is not None and self.order > cap:
            raise CapExceededError(
                f"subring order {self.order} above the cap {cap}", f"element cap {cap}"
            )
        return self._element_cache

    def contains(self, x: Element) -> bool:
        return x in self.members

    def validate_closure(self) -> None:
        """Raise ValueError unless the members are closed under + and *.  A finite
        set closed under + is closed under additive inverse: -x = (k - 1)x for x
        of additive order k."""
        mat = self._matrix
        for name, op in (("+", np.add), ("*", np.multiply)):
            for rows in _blocks(len(mat), len(mat)):
                if not np.isin(self._pair_codes(op, mat[rows], mat), self._codes).all():
                    raise ValueError(f"subring not closed under {name}")

    def annihilator_key(self, x: Element):
        raise UnsupportedVariantError(
            "annihilator keys are defined on product rings only; use annihilator_set"
        )


def product_ring(text_or_spec) -> ProductRing:
    """Convenience constructor from a spec string or RingSpec."""
    if isinstance(text_or_spec, RingSpec):
        return ProductRing(text_or_spec)
    return ProductRing(parse_ring_spec(text_or_spec))
