"""Finite-set combinatorics: product sets, progressions, covers, dimension.

All operations are pure functions on immutable :class:`FiniteSubset`
values; tie-breaks are resolved by the lexicographic order of normal
forms so results are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    UnsupportedOperationError,
    UsageError,
)
from .groups import GroupBackend, GroupElement, LatticeBackend, divisors

TWO_COVER_MAX_SIZE = 16
PRODUCT_TABLE_CAP = 1 << 20  # window products a ProductTable numbers


class FiniteSubset:
    """Sorted, deduplicated finite set of elements of a single backend."""

    __slots__ = ("backend", "_keys", "_keyset")

    def __init__(self, backend: GroupBackend, elements=()):
        keys = set()
        for g in elements:
            if not isinstance(g, GroupElement) or g.backend != backend:
                raise UsageError("all elements must belong to the given backend")
            keys.add(g.key)
        self.backend = backend
        self._keys = tuple(sorted(keys))
        self._keyset = frozenset(self._keys)

    @classmethod
    def _from_keys(cls, backend: GroupBackend, sorted_keys: tuple) -> "FiniteSubset":
        # fast path for keys that are already normal forms in sorted order
        obj = object.__new__(cls)
        obj.backend = backend
        obj._keys = tuple(sorted_keys)
        obj._keyset = frozenset(obj._keys)
        return obj

    @classmethod
    def from_keys(cls, backend: GroupBackend, keys) -> "FiniteSubset":
        deduped = tuple(sorted(set(keys)))
        for key in deduped:
            backend.check_key(key)
        return cls._from_keys(backend, deduped)

    @property
    def keys(self) -> tuple:
        return self._keys

    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self.backend, k) for k in self._keys)

    def contains_key(self, key: tuple) -> bool:
        return key in self._keyset

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        _check_same_backend(self, other)
        return FiniteSubset.from_keys(self.backend, self._keys + other._keys)

    def intersection(self, other: "FiniteSubset") -> "FiniteSubset":
        _check_same_backend(self, other)
        return FiniteSubset._from_keys(self.backend, tuple(k for k in self._keys if k in other._keyset))

    def is_subset(self, other: "FiniteSubset") -> bool:
        _check_same_backend(self, other)
        return self._keyset <= other._keyset

    def translate_left(self, g: GroupElement) -> "FiniteSubset":
        mul = self.backend.mul_key
        return FiniteSubset.from_keys(self.backend, (mul(g.key, k) for k in self._keys))

    def translate_right(self, g: GroupElement) -> "FiniteSubset":
        mul = self.backend.mul_key
        return FiniteSubset.from_keys(self.backend, (mul(k, g.key) for k in self._keys))

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[GroupElement]:
        backend = self.backend
        return (GroupElement(backend, k) for k in self._keys)

    def __contains__(self, g) -> bool:
        return isinstance(g, GroupElement) and g.backend == self.backend and g.key in self._keyset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSubset)
            and other.backend == self.backend
            and other._keys == self._keys
        )

    def __hash__(self) -> int:
        return hash((self.backend.spec, self._keys))

    def __repr__(self) -> str:
        shown = ", ".join(self.backend.format_key(k) for k in self._keys[:8])
        if len(self._keys) > 8:
            shown += ", ..."
        return f"FiniteSubset({self.backend.spec}, {{{shown}}}, n={len(self._keys)})"

    # -- text round trip ---------------------------------------------------

    @classmethod
    def from_text(cls, backend: GroupBackend, text: str) -> "FiniteSubset":
        """One element per line; blank lines and '#' comments are ignored."""
        keys = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            if not body.strip():
                continue
            keys.add(backend.parse_key(body, line=lineno))
        return cls.from_keys(backend, keys)

    @classmethod
    def from_file(cls, backend: GroupBackend, path) -> "FiniteSubset":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError:
                raise ParseError(f"set file {path} is not UTF-8 text") from None
        return cls.from_text(backend, text)

    def to_text(self) -> str:
        fmt = self.backend.format_key
        return "".join(fmt(k) + "\n" for k in self._keys)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _check_same_backend(A: FiniteSubset, B: FiniteSubset) -> None:
    if A.backend != B.backend:
        raise UsageError("sets belong to different backends")


def _check_nonempty_pair(A: FiniteSubset, B: FiniteSubset) -> None:
    _check_same_backend(A, B)
    if not len(A) or not len(B):
        raise DomainError("product sets are defined for non-empty sets")


def _check_element(S: FiniteSubset, g: GroupElement) -> None:
    if not isinstance(g, GroupElement) or g.backend != S.backend:
        raise UsageError("element does not belong to the set's backend")


def product_set(A: FiniteSubset, B: FiniteSubset) -> FiniteSubset:
    """The set AB = {a b : a in A, b in B}."""
    _check_nonempty_pair(A, B)
    return FiniteSubset._from_keys(A.backend, tuple(sorted(A.backend.product_keys(A.keys, B.keys))))


def product_size(A: FiniteSubset, B: FiniteSubset) -> int:
    """|AB| without materializing the product set."""
    _check_nonempty_pair(A, B)
    return len(A.backend.product_keys(A.keys, B.keys))


def deficiency(A: FiniteSubset, B: FiniteSubset) -> int:
    """|AB| - |A| - |B|; at least -1 on torsion-free backends."""
    return product_size(A, B) - len(A) - len(B)


class ProductTable:
    """The products of a window W with a second set Y, numbered once.

    ``rows[i][j]`` is the number of ``w_i y_j`` among the distinct
    products, so ``1 << rows[i][j]`` is its one-bit mask. The rows keep
    numbers, not masks: |W||Y| masks of up to |W||Y| bits would not fit
    in memory on windows with few coinciding products. Subsets are tuples
    of indices, into W on the left and into Y on the right; a product set
    is the OR of the masks of its products and its size is a popcount.
    The table takes |W||Y| ``mul_key`` calls and at most
    ``PRODUCT_TABLE_CAP`` of them.
    """

    __slots__ = ("window", "rows")

    def __init__(self, window: FiniteSubset, right: FiniteSubset):
        keys = window.keys
        if len(keys) * len(right) > PRODUCT_TABLE_CAP:
            raise ResourceLimitError(
                f"{len(keys) * len(right)} window products exceed the table cap {PRODUCT_TABLE_CAP}"
            )
        mul = window.backend.mul_key
        numbers: dict = {}
        self.window = window
        self.rows = [[numbers.setdefault(mul(a, b), len(numbers)) for b in right.keys] for a in keys]

    def subset(self, indices: tuple) -> FiniteSubset:
        keys = self.window.keys
        return FiniteSubset._from_keys(self.window.backend, tuple(keys[i] for i in indices))

    def product_size(self, A: tuple, B: tuple) -> int:
        """|AB| for one pair of index tuples."""
        mask = 0
        for i in A:
            row = self.rows[i]
            for j in B:
                mask |= 1 << row[j]
        return mask.bit_count()

    def small_products(self, A: tuple, lo: int, hi: int, bound) -> Iterator[tuple[tuple, int]]:
        """(B, |AB|) for every B of lo..hi indices with |AB| - |B| <= bound.

        The B come in the order of ``itertools.combinations`` by size, lo
        first. They are built level by level from their prefixes: a child
        ORs one column ``cols[j]``, the mask of ``A y_j``, into its
        prefix's mask. Adding an element raises |B| by 1 and never shrinks
        AB, so every B within hi elements that extends a prefix P has
        |AB| - |B| >= |AP| - hi, and P is dropped once that exceeds bound.
        """
        cols = [0] * len(self.rows[0])
        for i in A:
            cols = [c | 1 << k for c, k in zip(cols, self.rows[i])]
        n = len(cols)
        cut = bound + hi
        level = [((), 0)]
        for size in range(1, hi + 1):
            # a prefix below lo keeps room for the lo - size elements still to come
            stop = n - max(lo - size, 0)
            children = []
            for P, mask in level:
                for j in range(P[-1] + 1 if P else 0, stop):
                    child = mask | cols[j]
                    count = child.bit_count()
                    if count > cut:
                        continue
                    B = P + (j,)
                    if size >= lo and count - size <= bound:
                        yield B, count
                    if size < hi:
                        children.append((B, child))
            level = children


def boundary_set(B: FiniteSubset, g: GroupElement) -> FiniteSubset:
    """{x in B : g x not in B}; empty exactly when g B = B as sets."""
    _check_element(B, g)
    mul = B.backend.mul_key
    gk = g.key
    return FiniteSubset._from_keys(B.backend, tuple(x for x in B.keys if mul(gk, x) not in B._keyset))


def coset_classes(B: FiniteSubset, g: GroupElement) -> list[FiniteSubset]:
    """Partition of B into its intersections with right cosets <g> x."""
    _check_element(B, g)
    if g.is_identity():
        raise DomainError("coset classes require g != 1")
    backend = B.backend
    mul, inv, member = backend.mul_key, backend.inv_key, backend.in_cyclic_key
    reps: list[tuple] = []
    classes: list[list[tuple]] = []
    for x in B.keys:
        for i, rep in enumerate(reps):
            if member(mul(x, inv(rep)), g.key) is not None:
                classes[i].append(x)
                break
        else:
            reps.append(x)
            classes.append([x])
    return [FiniteSubset._from_keys(backend, tuple(members)) for members in classes]


@dataclass(frozen=True)
class ProgressionDescriptor:
    """The set {base * ratio^i : 0 <= i < length}.

    Detection and covering always return descriptors whose base commutes
    with the ratio; the parts produced by :func:`max_progression_partition`
    are one-sided strings and need not commute.
    """

    base: GroupElement
    ratio: GroupElement
    length: int

    def expand(self) -> FiniteSubset:
        backend = self.base.backend
        mul = backend.mul_key
        keys = []
        cur = self.base.key
        for _ in range(self.length):
            keys.append(cur)
            cur = mul(cur, self.ratio.key)
        return FiniteSubset.from_keys(backend, keys)

    def commutes(self) -> bool:
        return self.base * self.ratio == self.ratio * self.base


@dataclass(frozen=True)
class DimensionReport:
    """Rank of the difference lattice of a set, with a witness basis."""

    rank: int
    basis: tuple[GroupElement, ...]


def _progression_through(A: FiniteSubset, r_key: tuple) -> Optional[ProgressionDescriptor]:
    """Shortest r-progression covering A, or None.

    None is returned when some element of A has no exponent in <r>
    relative to the first element, or when the resulting base fails to
    commute with the ratio.
    """
    backend = A.backend
    if r_key == backend.identity_key:
        return None
    mul, inv, member = backend.mul_key, backend.inv_key, backend.in_cyclic_key
    a0 = A.keys[0]
    a0_inv = inv(a0)
    exps = []
    for a in A.keys:
        k = member(mul(a0_inv, a), r_key)
        if k is None:
            return None
        exps.append(k)
    lo, hi = min(exps), max(exps)
    base_key = mul(a0, backend.pow_key(r_key, lo))
    if mul(base_key, r_key) != mul(r_key, base_key):
        return None
    return ProgressionDescriptor(backend.element(base_key), backend.element(r_key), hi - lo + 1)


def _exact_ratio_hits(A: FiniteSubset) -> Iterator[ProgressionDescriptor]:
    """Descriptors expanding exactly to A, one per ratio a0^-1 y (y != a0).

    A neighbour y of a0 in an exact r-progression has a0^-1 y = r or r^-1,
    and A is an r^-1-progression whenever it is an r-progression, so these
    ratios and their inverses are all the ratios of A.
    """
    backend = A.backend
    a0_inv = backend.inv_key(A.keys[0])
    for y in A.keys[1:]:
        desc = _progression_through(A, backend.mul_key(a0_inv, y))
        if desc is not None and desc.length == len(A):
            yield desc


def detect_progression(A: FiniteSubset) -> Optional[ProgressionDescriptor]:
    """A descriptor whose expansion equals A exactly, or None."""
    if len(A) == 0:
        raise DomainError("cannot detect a progression in the empty set")
    backend = A.backend
    if len(A) == 1:
        # length-1 convention: the ratio is unused, pick the first generator
        return ProgressionDescriptor(backend.element(A.keys[0]), backend.generators[0], 1)
    return next(_exact_ratio_hits(A), None)


def progression_ratios(A: FiniteSubset) -> tuple[GroupElement, ...]:
    """All ratios r != 1 for which A itself is an r-progression."""
    if len(A) < 2:
        return ()
    backend = A.backend
    good = set()
    for desc in _exact_ratio_hits(A):
        good.add(desc.ratio.key)
        good.add(backend.inv_key(desc.ratio.key))
    return tuple(backend.element(k) for k in sorted(good))


def _cover_ratio_candidates(A: FiniteSubset) -> list[tuple]:
    """Candidate cover ratios: divisor powers of primitive roots of pair quotients.

    Any covering progression's ratio r satisfies r^m = x^-1 y for each pair
    of covered elements, so r is a divisor power of the quotient's
    primitive root on every backend where roots live in the maximal cyclic
    subgroup of the quotient.
    """
    backend = A.backend
    mul, inv = backend.mul_key, backend.inv_key
    quotients = {mul(inv(x), y) for x, y in itertools.permutations(A.keys, 2)}
    quotients.discard(backend.identity_key)
    candidates = set()
    for q in quotients:
        root, exponent = backend.primitive_root_key(q)
        for j in divisors(exponent):
            candidates.add(backend.pow_key(root, j))
    return sorted(candidates)


def _min_cover_descriptor(A: FiniteSubset) -> Optional[ProgressionDescriptor]:
    best = None
    best_key = None
    for r in _cover_ratio_candidates(A):
        desc = _progression_through(A, r)
        if desc is None:
            continue
        key = (desc.length, desc.base.key, desc.ratio.key)
        if best_key is None or key < best_key:
            best, best_key = desc, key
    return best


def min_progression_cover(A: FiniteSubset) -> Optional[int]:
    """Minimal length of a single progression containing A, or None."""
    if len(A) < 2:
        raise UsageError("progression covers are defined for |A| >= 2")
    desc = _min_cover_descriptor(A)
    return desc.length if desc is not None else None


def _part_descriptor(backend: GroupBackend, keys: tuple) -> Optional[ProgressionDescriptor]:
    if len(keys) == 1:
        return ProgressionDescriptor(backend.element(keys[0]), backend.generators[0], 1)
    return _min_cover_descriptor(FiniteSubset._from_keys(backend, keys))


def cover_by_two_progressions(
    A: FiniteSubset, budget: int
) -> Optional[tuple[ProgressionDescriptor, Optional[ProgressionDescriptor]]]:
    """Two progressions whose union contains A with total length <= budget.

    Returns (descriptor, None) when a single progression within budget
    suffices; None when no split of A works. Exhaustive over bipartitions
    of A, so |A| is capped.
    """
    if len(A) < 2:
        raise UsageError("two-progression covers are defined for |A| >= 2")
    backend = A.backend
    single = _min_cover_descriptor(A)
    if single is not None and single.length <= budget:
        return (single, None)
    if len(A) > TWO_COVER_MAX_SIZE:
        raise ResourceLimitError(f"|A| = {len(A)} exceeds the bipartition cap {TWO_COVER_MAX_SIZE}")
    first, rest = A.keys[0], A.keys[1:]
    best = None
    best_key = None
    for mask in range(1 << len(rest)):
        left = [first]
        right = []
        for i, k in enumerate(rest):
            (left if mask >> i & 1 else right).append(k)
        if not right:
            continue
        d1 = _part_descriptor(backend, tuple(left))
        if d1 is None:
            continue
        d2 = _part_descriptor(backend, tuple(right))
        if d2 is None:
            continue
        total = d1.length + d2.length
        if total > budget:
            continue
        key = (total, d1.base.key, d1.ratio.key, d2.base.key, d2.ratio.key)
        if best_key is None or key < best_key:
            best, best_key = (d1, d2), key
    return best


def dimension(A: FiniteSubset) -> DimensionReport:
    """Rank over Q of the lattice spanned by differences a - a0, with a basis."""
    if not isinstance(A.backend, LatticeBackend):
        raise UnsupportedOperationError("dimension is defined for lattice backends only")
    if len(A) == 0:
        raise DomainError("dimension of the empty set is undefined")
    # fraction-free elimination: each reduced vector is a nonzero multiple of
    # the one rational elimination gives, so pivots, rank and witness agree
    a0 = A.keys[0]
    full_rank = A.backend.dim
    echelon: list[list[int]] = []
    pivots: list[int] = []
    witness: list[GroupElement] = []
    for key in A.keys[1:]:
        vec = [x - y for x, y in zip(key, a0)]
        for row, pivot in zip(echelon, pivots):
            v = vec[pivot]
            if v:
                r = row[pivot]
                vec = [r * x - v * y for x, y in zip(vec, row)]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is not None:
            g = gcd(*vec)
            echelon.append([x // g for x in vec])
            pivots.append(pivot)
            witness.append(A.backend.element(tuple(x - y for x, y in zip(key, a0))))
            if len(echelon) == full_rank:
                break  # no later key can raise the rank
    return DimensionReport(len(echelon), tuple(witness))


def cyclic_hull_contains(A: FiniteSubset) -> Optional[tuple[GroupElement, GroupElement]]:
    """A witness (g, h) with A contained in the coset g<h>, or None.

    Every candidate h is the primitive root of one of the translated
    elements a0^-1 a; all of them are tried, so a containing coset is
    found whenever some seed's maximal cyclic subgroup carries the whole
    translated set.
    """
    if len(A) == 0:
        raise DomainError("the empty set has no cyclic hull")
    backend = A.backend
    mul, inv, member = backend.mul_key, backend.inv_key, backend.in_cyclic_key
    a0 = A.keys[0]
    a0_inv = inv(a0)
    diffs = sorted(mul(a0_inv, a) for a in A.keys)
    nontrivial = [d for d in diffs if d != backend.identity_key]
    if not nontrivial:
        return (backend.element(a0), backend.generators[0])
    for seed in nontrivial:
        root, _ = backend.primitive_root_key(seed)
        if all(member(d, root) is not None for d in nontrivial):
            return (backend.element(a0), backend.element(root))
    return None


def max_progression_partition(U: FiniteSubset, g: GroupElement) -> list[ProgressionDescriptor]:
    """Partition of U into maximal strings {h, hg, ..., h g^alpha}.

    The number of parts m satisfies |U meet Ug| = |U| - m. Parts are
    one-sided g-strings, so their bases need not commute with g.
    """
    _check_element(U, g)
    if g.is_identity():
        raise DomainError("partition requires g != 1")
    mul = U.backend.mul_key
    g_inv = U.backend.inv_key(g.key)
    parts = []
    for h in U.keys:
        if mul(h, g_inv) in U._keyset:
            continue
        length = 1
        cur = mul(h, g.key)
        while cur in U._keyset:
            length += 1
            cur = mul(cur, g.key)
        parts.append(ProgressionDescriptor(U.backend.element(h), g, length))
    return parts
