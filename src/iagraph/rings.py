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
  for op(a_i, b_j) over pairs.  Codes ascend with elements(), so a
  ``ProductRing`` code is a position: ``_matrix`` is decoded from
  arange(order) and Z(R) membership is a gather of the Z(R) mask (a subring
  keeps ``np.isin``).  A sum code adds the two codes, less n s where the
  residues reach n: no division.  A ring whose order passes the int64 range
  gets no codes: ``CapExceededError``, not a wrapped code;
* zero-product rows for any element rows, and the scan of x + y in Z(R)
  over the pairs of a list of positions (never tuples), built in blocks of
  at most ``_BLOCK_PAIRS`` pairs, so memory stays bounded and a scan stops
  at its first hit.  The full order x order zero-product matrix is cached only
  where every row is needed, for the default Z(R) mask and class codes;
  ``annihilator_set`` always computes its element's own row;
* generated subrings as lattices, outside the codes: a triangular integer
  basis of the generators and the n_i e_i, closed under the products of its
  rows, whose pivots give the order; one that fills the ring is the ring;
* ``Subring.validate_closure``, one blocked ``np.isin`` scan of the + and *
  codes against the member codes, for direct callers and for a proper
  generated subring in T2.subring;
* the annihilator classes of Z*(R), grouped by one stable argsort of a 1-D
  class code that orders them by least member, cached on the ring with the
  class index of each position and the representatives' zero-product rows.

An annihilator is keyed by a position in elements().  The Z(R) mask, the
class code and the meet matrix of a list of positions default to the
zero-product matrix, whose row at a position is that element's annihilator;
that serves any variant, since an annihilator need not be principal per
coordinate.  A product ring overrides them with closed forms on the residues
decoded from the positions: the class code is the code of the least member,
gcd(x_i, n_i) mod n_i, gathered per coordinate from a table over the residues;
x is a zero-divisor iff its class is not that of 1; and ann(x) meets ann(y)
beyond 0 iff some prime p | n_i divides both x_i and y_i (in Z_n the meet is
(lcm(n // gcd(n, x), n // gcd(n, y)))), the CRT rule ``shared_support``
evaluates for the symbolic graphs too.  ``annihilator_key``, g[i] = n_i //
gcd(n_i, x_i), and its expansion to the ideal stay standalone closed forms.
The brute-force rows are the oracle the closed forms are tested against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement as unordered_pairs, product as cartesian

import numpy as np

DEFAULT_ELEMENT_CAP = 5000
DEFAULT_PARSE_ORDER_CAP = 10**12
_BLOCK_PAIRS = 16384  # most element pairs one engine block holds
_INT64_MAX = int(np.iinfo(np.int64).max)
_WHOLE_OUTER_MAX_ROWS = 256  # shared_support's switch, near where the two ways cost the same

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
    """Operation only defined for one ring variant (e.g. check_ring on products)."""


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
    local prime, two classes of a product ring meet iff they share one.

    Up to _WHOLE_OUTER_MAX_ROWS rows a column ORs in its whole outer product,
    which costs the fewest numpy calls; above, only the rows the column selects."""
    meet = np.zeros((len(support), len(support)), dtype=bool)
    whole = len(support) <= _WHOLE_OUTER_MAX_ROWS
    for column in support.T:
        if whole:
            meet |= column[:, None] & column
        else:
            meet[np.flatnonzero(column)] |= column
    return meet


def _triangular(rows, mods) -> list[list[int]]:
    """Upper-triangular basis of the lattice of Z^k spanned by rows and the n_i e_i.

    The rows are reduced mod n.  Column c starts a pivot row at n_c e_c and
    runs Euclid between it and every row nonzero on column c, which leaves
    that row zero there; the row is reduced mod n again, and dropped if it is
    zero.  Euclid on non-negative entries keeps them non-negative, so the
    pivot d_c is positive and divides n_c; its later entries are reduced mod n_j."""
    rows, basis = [[a % m for a, m in zip(r, mods)] for r in rows], []
    for c, n in enumerate(mods):
        pivot, left = [n if j == c else 0 for j in range(len(mods))], []
        for r in rows:
            if r[c]:
                while r[c]:
                    q = pivot[c] // r[c]  # 0 makes the step a swap
                    pivot, r = r, [a - q * b for a, b in zip(pivot, r)] if q else pivot
                r = [a % m for a, m in zip(r, mods)]
            if any(r):  # a zero row adds nothing to any later column
                left.append(r)
        rows = left
        basis.append([a if j == c else a % m for j, (a, m) in enumerate(zip(pivot, mods))])
    return basis


# ---------------------------------------------------------------------------
# ring specification


@dataclass(frozen=True)
class RingSpec:
    """Ordered factor moduli of a product ring Z_{n1} x ... x Z_{nk}."""

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))  # hashable from a list too
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


@lru_cache
def _element_template(arity: int) -> str:
    return "%d" if arity == 1 else "(" + ",".join(["%d"] * arity) + ")"


def format_element(x: Element) -> str:
    """Serialize an element: plain decimal for rank 1, (a,b,...) otherwise."""
    return _element_template(len(x)) % tuple(x)


def format_elements(xs, arity: int) -> list[str]:
    """format_element of each element tuple of xs, all of the given arity."""
    return list(map(_element_template(arity).__mod__, xs))


# ---------------------------------------------------------------------------
# rings


def _blocks(count: int, width: int, first: int | None = None):
    """Slices of range(count) whose rows hold at most _BLOCK_PAIRS pairs of `width`
    columns; the first slice holds at most `first` rows."""
    step = max(1, _BLOCK_PAIRS // max(1, width))
    bounds = [0, *range(min(first or step, step), count, step), count]
    return map(slice, bounds, bounds[1:])


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

    _over_cap_text = "{ring} has order {order}, above the cap {cap}"  # the element-cap error

    def _check_order_cap(self, cap: int | None) -> None:
        """Raise the element-cap error when the order passes cap; lists nothing."""
        if cap is not None and self.order > cap:
            text = self._over_cap_text.format(ring=self.spec.ring_id(), order=self.order, cap=cap)
            raise CapExceededError(text, f"element cap {cap}")

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

    # --- annihilator data, by default from the zero-product matrix --------
    @cached_property
    def _zero_divisor_mask(self) -> np.ndarray:
        """Z(R) over elements(), 0 included."""
        mask = self._zero_product_matrix.sum(axis=1) >= 2  # killed by some nonzero member
        mask[0] = True  # 0 is in Z(R) by convention
        return mask

    @cached_property
    def _class_codes(self) -> np.ndarray:
        """Integers over elements(), equal on two nonzero zero-divisors iff their
        annihilators are, and ascending with the least member of the class; 0, at
        position 0 and in no class, gets -1.  Here an id per row, by first sight."""
        ids: dict[bytes, int] = {}
        rows = self._zero_product_matrix[1:]
        return np.array([-1] + [ids.setdefault(row.tobytes(), len(ids)) for row in rows])

    def ann_meet_matrix(self, positions) -> np.ndarray:
        """Boolean matrix: [i, j] iff the annihilators of the elements at positions
        i and j of elements() meet beyond 0."""
        rows = self._zero_product_matrix[np.asarray(positions, dtype=np.intp)].astype(np.int64)
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
        xs = self.elements(cap=None)
        return np.array(xs, dtype=np.int64).reshape(len(xs), self.arity)

    @cached_property
    def _codes(self) -> np.ndarray:
        """Code of each element, ascending since elements() is sorted."""
        return self._matrix @ np.array(self._strides, dtype=np.int64)

    def _in_zero_divisors(self, codes: np.ndarray) -> np.ndarray:
        """Boolean array: which of these element codes are codes of Z(R)."""
        return np.isin(codes, self._codes[self._zero_divisor_mask])

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
        coordinates are residues 0 <= x < n; op is np.add or np.multiply.

        A sum needs no division: code(a_i) + code(b_j) < 2^64 in uint64, less
        n s on each coordinate where the residues reach n, since a + b < 2n."""
        if op is np.add:
            a, b = a.astype(np.uint64), b.astype(np.uint64)
            strides = np.array(self._strides, dtype=np.uint64)
            out = np.add.outer(a @ strides, b @ strides)
            for c, (n, s) in enumerate(zip(self.spec.factors, self._strides)):
                out -= np.greater_equal.outer(a[:, c], np.uint64(n) - b[:, c]) * np.uint64(n * s)
            return out.view(np.int64)
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

    def zero_divisor_sum_blocks(self, at: np.ndarray, first: int | None = None):
        """Yield (start, block) with block[i, j] true iff x + y is in Z(R), for x and y
        the elements at positions at[start + i] and at[j] of elements(); the first
        block holds at most `first` rows."""
        a = self._matrix[at]
        for rows in _blocks(len(a), len(a), first):
            yield rows.start, self._in_zero_divisors(self._pair_codes(np.add, a[rows], a))

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

    def zero_divisor_set(self, cap: int | None = DEFAULT_ELEMENT_CAP) -> set[Element]:
        """Z(R), with 0 included by convention."""
        elems = self.elements(cap)
        return set(map(elems.__getitem__, np.flatnonzero(self._zero_divisor_mask).tolist()))

    def nonzero_zero_divisors_with_keys(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> tuple[list[Element], np.ndarray]:
        """Z*(R) in ascending order, and their keys, positions in elements(), as one array."""
        elems = self.elements(cap)
        at = np.flatnonzero(self._zero_divisor_mask)[1:]  # elements()[0] is 0
        return list(map(elems.__getitem__, at.tolist())), at

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
        The first block is the rows of 0 and of the least nonzero zero-divisor
        alone: 0 has no hit, and outside a local ring that next row mostly has one.
        """
        elems = self.elements(cap)
        zs = np.flatnonzero(self._zero_divisor_mask)
        for start, block in self.zero_divisor_sum_blocks(zs, first=2):
            if not block.all():
                i, j = divmod(int(block.argmin()), len(zs))
                return elems[zs[start + i]], elems[zs[j]]
        return None

    @cached_property
    def _class_order(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Z*(R) by position in elements(), in class order (classes by least member,
        members ascending), the class index of each, and where each class starts."""
        members = np.flatnonzero(self._zero_divisor_mask)[1:]  # elements()[0] is 0
        codes = self._class_codes[members]
        by_class = np.argsort(codes, kind="stable")
        starts = np.diff(codes[by_class], prepend=-1) != 0
        return members[by_class], np.cumsum(starts) - 1, np.flatnonzero(starts).tolist()

    def class_positions(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> tuple[np.ndarray, np.ndarray]:
        """The members of annihilator_classes(cap), in order, as positions in
        elements(), and the index of the class of each."""
        self.elements(cap)
        return self._class_order[:2]

    @cached_property
    def _classes(self) -> list[tuple[int, list[Element]]]:
        elems = self.elements(cap=None)
        at, _, starts = self._class_order
        members = list(map(elems.__getitem__, at.tolist()))
        groups = [members[lo:hi] for lo, hi in zip(starts, starts[1:] + [len(members)])]
        return list(zip(at[starts].tolist(), groups))

    def annihilator_classes(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> list[tuple[int, list[Element]]]:
        """Partition of Z*(R) by annihilator as (position of the least member in
        elements(), sorted members), sorted by least member.  Computed once and
        cached on the ring: do not mutate it."""
        self.elements(cap)
        return self._classes

    @cached_property
    def _representative_rows(self) -> tuple[list[Element], np.ndarray]:
        """Class representatives and their zero-product rows, built once per ring;
        callers enforce the cap first.  ann is constant on a class, so these rows
        stand for every nonzero zero-divisor."""
        at, _, starts = self._class_order
        reps = [members[0] for _, members in self._classes]
        return reps, self._zero_rows(self._matrix[at[starts]])

    def common_annihilator_of_zero_divisors(
        self, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> set[Element]:
        """{r in R : r.z = 0 for all z in Z(R)}; ann(0) = R adds no condition."""
        elems = self.elements(cap)
        _, rows = self._representative_rows
        return set(map(elems.__getitem__, np.flatnonzero(rows.all(axis=0)).tolist()))

    def subring_generated(self, gens, cap: int | None = DEFAULT_ELEMENT_CAP) -> "FiniteRing":
        """Least subset containing gens closed under +, *, -: this ring itself
        when that is every element, a ``Subring`` otherwise.

        The additive group is L / N, for L the lattice of Z^k spanned by gens
        and the n_i e_i and N that of the n_i e_i; its order is prod n_i / d_i
        for the pivots d_i of a triangular basis of L (H. Cohen, *A Course in
        Computational Algebraic Number Theory*, GTM 138, section 2.4).  L is
        closed under * once the products of its basis rows lie in it: add them
        until the pivots stop changing or L fills the ring.  The members are
        sum c_i h_i mod n over 0 <= c_i < n_i / d_i.
        """
        self._check_order_cap(cap)
        gens = list(gens)
        self._require(*gens)
        mods = self.spec.factors
        basis, sizes = _triangular(gens, mods), None
        # compare pivots, never rows: the basis is not canonical, but nested
        # lattices with equal pivots are equal
        while sizes != (sizes := [n // h[i] for i, (h, n) in enumerate(zip(basis, mods))]):
            if math.prod(sizes) == self.order:
                break  # a lattice that fills the ring is closed under * already
            products = [[a * b for a, b in zip(g, h)] for g, h in unordered_pairs(basis, 2)]
            basis = _triangular(basis + products, mods)
        if math.prod(sizes) == self.order:
            return self
        members = (
            tuple(sum(c * h[j] for c, h in zip(cs, basis)) % n for j, n in enumerate(mods))
            for cs in cartesian(*map(range, sizes))
        )
        return Subring(self.parent_product(), frozenset(members))

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
        self.elements(cap)
        reps, rows = self._representative_rows
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
        self._check_order_cap(cap)
        if self._element_cache is None:
            self._element_cache = tuple(cartesian(*[range(n) for n in self.spec.factors]))
        return self._element_cache

    # --- annihilators as ideals, closed forms -------------------------------
    def annihilator_key(self, x: Element) -> AnnKey:
        """Per-coordinate principal generator of ann(x): g[i] = n_i // gcd(n_i, x_i)."""
        self._require(x)
        return tuple(n // math.gcd(a, n) for a, n in zip(x, self.spec.factors))

    def expand_annihilator_key(
        self, key: AnnKey, cap: int | None = DEFAULT_ELEMENT_CAP
    ) -> set[Element]:
        """All elements of the ideal encoded by a key (coordinate multiples)."""
        if len(key) != self.arity:
            raise ValueError(f"key {key} has arity {len(key)}, ring expects {self.arity}")
        if not all(g > 0 and n % g == 0 for g, n in zip(key, self.spec.factors)):
            raise ValueError(f"key {key} needs a positive divisor of n_i in each coordinate")
        size = math.prod(n // g for g, n in zip(key, self.spec.factors))
        if cap is not None and size > cap:
            raise CapExceededError(
                f"ideal of size {size} above the cap {cap}", f"element cap {cap}"
            )
        return set(cartesian(*[range(0, n, g) for g, n in zip(key, self.spec.factors)]))

    # --- the engine on positions: an element's code is its position in elements()
    def _rows_of(self, codes: np.ndarray) -> np.ndarray:
        """Element rows of these codes: coordinate i is code // s_i mod n_i."""
        strides, mods = (np.array(v, dtype=np.int64) for v in (self._strides, self.spec.factors))
        return codes[:, None] // strides % mods

    @cached_property
    def _matrix(self) -> np.ndarray:
        return self._rows_of(np.arange(self.order, dtype=np.int64))

    def _in_zero_divisors(self, codes: np.ndarray) -> np.ndarray:
        return self._zero_divisor_mask[codes]

    @cached_property
    def _class_codes(self) -> np.ndarray:
        # the code of the least member of the class: gcd(x_i, n_i) mod n_i on each
        # coordinate, times its stride, gathered from one table over the residues
        codes = np.zeros(self.order, dtype=np.int64)
        for c, (n, s) in enumerate(zip(self.spec.factors, self._strides)):
            codes += (np.gcd(np.arange(n, dtype=np.int64), n) % n * s)[self._matrix[:, c]]
        return codes

    @cached_property
    def _zero_divisor_mask(self) -> np.ndarray:
        return self._class_codes != sum(self._strides)  # the class of 1 is the units

    def ann_meet_matrix(self, positions) -> np.ndarray:
        """In Z_n, ann(x) meets ann(y) in (lcm(n // gcd(n, x), n // gcd(n, y))), nonzero
        iff a prime p | n divides both gcds, that is both x and y: one support column
        per coordinate and p, read from the rows of the positions' codes."""
        rows = self._rows_of(np.asarray(positions, dtype=np.int64))
        columns = [(c, p) for c, n in enumerate(self.spec.factors) for p, _ in factorize(n)]
        c, p = np.array(columns).T
        return shared_support(rows[:, c] % p == 0)


class Subring(FiniteRing):
    """An element-set subring of a product ring.

    Its annihilators come from the zero-product matrix of the members, the
    default of ``FiniteRing``, never by closed forms.
    """

    _over_cap_text = "subring order {order} above the cap {cap}"

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
        self._check_order_cap(cap)
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


def product_ring(text_or_spec) -> ProductRing:
    """Convenience constructor from a spec string or RingSpec."""
    if isinstance(text_or_spec, RingSpec):
        return ProductRing(text_or_spec)
    return ProductRing(parse_ring_spec(text_or_spec))
