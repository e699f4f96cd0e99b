"""Finite-set combinatorics: product sets, progressions, covers, dimension.

All operations are pure functions on immutable :class:`FiniteSubset`
values; tie-breaks are resolved by the lexicographic order of normal
forms so results are deterministic.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, product
from math import gcd
from typing import Iterator, Optional

from .errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    UnsupportedOperationError,
    UsageError,
)
from .groups import GroupBackend, GroupElement, LatticeBackend

PRODUCT_TABLE_CAP = 1 << 20  # window products a ProductTable numbers
GRID_BITS_PER_PAIR = 256  # shifted grid bits per (a, b) pair that _grid may spend

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class FiniteSubset:
    """Sorted, deduplicated finite set of elements of a single backend; membership is a binary search."""

    __slots__ = ("backend", "_keys")

    def __init__(self, backend: GroupBackend, elements=()):
        keys = set()
        for g in elements:
            backend.check_element(g)
            keys.add(g.key)
        self.backend = backend
        self._keys = tuple(sorted(keys))

    @classmethod
    def _from_keys(cls, backend: GroupBackend, sorted_keys: tuple) -> "FiniteSubset":
        """The set of keys the package computed; it trusts them to be sorted, distinct normal forms."""
        obj = object.__new__(cls)
        obj.backend = backend
        obj._keys = tuple(sorted_keys)
        return obj

    @classmethod
    def from_keys(cls, backend: GroupBackend, keys) -> "FiniteSubset":
        """Raw keys, each checked before it is hashed or sorted: a non-normal form is a UsageError."""
        deduped = set()
        for key in keys:
            backend.check_key(key)
            deduped.add(key)
        return cls._from_keys(backend, tuple(sorted(deduped)))

    @property
    def keys(self) -> tuple:
        return self._keys

    def contains_key(self, key: tuple) -> bool:
        keys = self._keys
        i = bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def intersection(self, other: "FiniteSubset") -> "FiniteSubset":
        _check_same_backend(self, other)
        members = set(other._keys)
        return FiniteSubset._from_keys(self.backend, tuple(k for k in self._keys if k in members))

    def is_subset(self, other: "FiniteSubset") -> bool:
        _check_same_backend(self, other)
        return set(other._keys).issuperset(self._keys)

    def translate_left(self, g: GroupElement) -> "FiniteSubset":
        self.backend.check_element(g)
        mul = self.backend.mul_key
        return FiniteSubset._from_keys(self.backend, tuple(sorted(mul(g.key, k) for k in self._keys)))

    def translate_right(self, g: GroupElement) -> "FiniteSubset":
        self.backend.check_element(g)
        mul = self.backend.mul_key
        return FiniteSubset._from_keys(self.backend, tuple(sorted(mul(k, g.key) for k in self._keys)))

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[GroupElement]:
        backend = self.backend
        return (GroupElement(backend, k) for k in self._keys)

    def __contains__(self, g) -> bool:
        return isinstance(g, GroupElement) and g.backend == self.backend and self.contains_key(g.key)

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
        return cls.from_text(backend, "".join(_text_lines(path, "set file")))

    def to_text(self) -> str:
        fmt = self.backend.format_key
        return "".join(fmt(k) + "\n" for k in self._keys)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _text_lines(path, what: str):
    """The lines of a UTF-8 text file, read one at a time; other bytes are a ParseError naming `what`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ParseError(f"{what} {path} is not UTF-8 text") from None


def _check_same_backend(A: FiniteSubset, B: FiniteSubset) -> None:
    if A.backend != B.backend:
        raise UsageError("sets belong to different backends")


def _check_nonempty_pair(A: FiniteSubset, B: FiniteSubset) -> None:
    _check_same_backend(A, B)
    if not len(A) or not len(B):
        raise DomainError("product sets are defined for non-empty sets")


def _grid(A: FiniteSubset, B: FiniteSubset) -> Optional[tuple[int, list[int], list[int]]]:
    """AB as (mask, lo, extents): bit pos(y) of mask is set for each y in AB.

    backend.translation_parts gives AB as the union of translates s + P
    of parts P of integer d-vectors. AB lies in the box with
    lo_i = min(s_i + min_P b_i) and hi_i = max(s_i + max_P b_i) over the
    parts and their shifts. With extents n_i = hi_i - lo_i + 1,
    strides[d-1] = 1 and strides[i] = strides[i+1] n_(i+1), a key y has
    the bit pos(y) = E(y) - E(lo), where E(v) = sum v_i strides[i].

    * The encoding is injective: the digits y_i - lo_i of pos(y) lie in
      [0, n_i), so pos(y) is their mixed-radix numeral and determines y.
    * Bit order is key order: two numerals compare as their first
      differing digit, most significant first, which is the
      lexicographic order of keys.
    * The shifts are non-negative: with m the coordinatewise least corner
      of part P, P's mask has bit E(b) - E(m) >= 0 for each b in P, and E
      is linear, so the translate s + P is that mask shifted by
      E(s) + E(m) - E(lo) = sum (s_i + m_i - lo_i) strides[i], and each
      s_i + m_i is at least lo_i.

    The grid is taken only when translates * bits <= GRID_BITS_PER_PAIR |A||B|,
    with bits = n_0 ... n_(d-1) and translates the number of shifts, and
    None is returned otherwise. Each translate shifts and ORs a bits-wide
    integer, and the masks are built and read in O(bits), so against
    product_keys, which hashes one tuple per (a, b) pair, the grid's time
    and memory stay within a constant factor: at most GRID_BITS_PER_PAIR
    bits moved and held per pair. Sparse sets, whose box dwarfs |A||B|,
    keep that path, and so does a backend with no translation_parts.
    """
    parts = A.backend.translation_parts(A.keys, B.keys)
    if parts is None:
        return None
    corners, lo, hi, translates = [], None, None, 0
    for part, shifts in parts:
        if part:
            pc, sc = list(zip(*part)), list(zip(*shifts))
            least, most = list(map(min, pc)), list(map(max, pc))
            low = list(map(operator.add, least, map(min, sc)))
            high = list(map(operator.add, most, map(max, sc)))
            lo = low if lo is None else list(map(min, lo, low))
            hi = high if hi is None else list(map(max, hi, high))
            corners.append((part, shifts, least, most))
            translates += len(shifts)
    extents = [h - l + 1 for h, l in zip(hi, lo)]
    strides = [1] * len(lo)
    for i in range(len(lo) - 1, 0, -1):
        strides[i - 1] = strides[i] * extents[i]
    bits = strides[0] * extents[0]
    if translates * bits > GRID_BITS_PER_PAIR * len(A) * len(B):
        return None
    mask = 0
    for part, shifts, least, most in corners:
        origin, base, top = _dot((lo, least, most), strides, 0)
        digits = bytearray(b"0") * (top - base + 1)
        for x in _dot(part, strides, -top):
            digits[-x] = 49  # "1"; the last digit is bit 0
        part_mask = int(digits, 2)
        for off in _dot(shifts, strides, base - origin):
            mask |= part_mask << off
    return mask, lo, extents


def _dot(keys, strides: list[int], start: int) -> list[int]:
    """start + E(v) for each key v, E(v) = sum v_i strides[i]."""
    if len(strides) == 2:  # zd:2 and klein, written out: about four times faster
        s0 = strides[0]
        return [start + x * s0 + y for x, y in keys]
    return [start + sum(map(operator.mul, v, strides)) for v in keys]


def product_set(A: FiniteSubset, B: FiniteSubset) -> FiniteSubset:
    """The set AB = {a b : a in A, b in B}; on a grid, its set bits in order (see _grid)."""
    _check_nonempty_pair(A, B)
    grid = _grid(A, B)
    if grid is None:
        return FiniteSubset._from_keys(A.backend, tuple(sorted(A.backend.product_keys(A.keys, B.keys))))
    mask, lo, extents = grid
    flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)  # flags[p] is bit p
    box = product(*map(range, lo, map(operator.add, lo, extents)))  # every key of the box, in bit order
    return FiniteSubset._from_keys(A.backend, tuple(compress(box, flags)))


def product_size(A: FiniteSubset, B: FiniteSubset) -> int:
    """|AB| without materializing the product set: a popcount on a grid (see _grid)."""
    _check_nonempty_pair(A, B)
    grid = _grid(A, B)
    if grid is None:
        return len(A.backend.product_keys(A.keys, B.keys))
    return grid[0].bit_count()


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


@dataclass(frozen=True)
class ProgressionDescriptor:
    """The set {base * ratio^i : 0 <= i < length}.

    :func:`detect_progression` and the cover search build descriptors
    whose base commutes with the ratio; the parts produced by
    :func:`max_progression_partition` are one-sided strings and need not
    commute.
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


def _hull_roots(A: FiniteSubset) -> Iterator[tuple[tuple, list[int]]]:
    """(h, exps) for each cyclic group <h> that holds every a0^-1 a, a0 = A.keys[0].

    Each h is the primitive root of a nontrivial a0^-1 a, tried once, in
    the key order of those quotients; exps[i] is the k with h^k = a0^-1 a_i.
    diffs[0] is a0^-1 a0 = 1, whose exponent is 0 for every h, so it is
    not tested.
    """
    backend = A.backend
    mul, member = backend.mul_key, backend.in_cyclic_key
    a0_inv = backend.inv_key(A.keys[0])
    diffs = [mul(a0_inv, a) for a in A.keys]
    seen = set()
    for d in sorted(diffs):
        if d == backend.identity_key:
            continue
        h, _ = backend.primitive_root_key(d)
        if h in seen:
            continue
        seen.add(h)
        exps = [0]
        for x in diffs[1:]:
            k = member(x, h)
            if k is None:
                break
            exps.append(k)
        else:
            yield h, exps


def _covers(A: FiniteSubset) -> Iterator[ProgressionDescriptor]:
    """For each h of _hull_roots, the shortest cover of A with ratio in <h>.

    With g the gcd of exps, the ratio h^g gives the fewest terms,
    (max - min) / g + 1, from the base a0 h^min. The cover is kept when a0
    commutes with h^g, which holds exactly when the base does; a0 commuting
    with some h^j implies it, as h^g is a power of h^j. No shorter cover is
    lost, because a shortest cover's ratio lies in a yielded <h>: roots are
    unique on zd, free and heis, and on klein a ratio (odd, c) whose
    exponents are all even is never shortest, as its square, a power of
    the yielded root (1, 0) or (-1, 0), covers A in fewer terms.
    """
    backend = A.backend
    mul, pow_key = backend.mul_key, backend.pow_key
    a0 = A.keys[0]
    for h, exps in _hull_roots(A):
        g = gcd(*exps)
        r = pow_key(h, g)
        if mul(a0, r) != mul(r, a0):
            continue
        lo, hi = min(exps), max(exps)
        base = mul(a0, pow_key(h, lo))
        yield ProgressionDescriptor(GroupElement(backend, base), GroupElement(backend, r), (hi - lo) // g + 1)


def detect_progression(A: FiniteSubset) -> Optional[ProgressionDescriptor]:
    """A descriptor whose expansion equals A exactly, or None.

    A is exact exactly when some cover has |A| terms. Its ratio is unique
    up to inverse, because a0's neighbour in A is a0 r or a0 r^-1.
    """
    if len(A) == 0:
        raise DomainError("cannot detect a progression in the empty set")
    backend = A.backend
    if len(A) == 1:
        # length-1 convention: the ratio is unused, pick the first generator
        return ProgressionDescriptor(GroupElement(backend, A.keys[0]), backend.generators[0], 1)
    return next((desc for desc in _covers(A) if desc.length == len(A)), None)


def progression_ratios(A: FiniteSubset) -> tuple[GroupElement, ...]:
    """All ratios r != 1 for which A itself is an r-progression: r and r^-1, or none."""
    if len(A) < 2:
        return ()
    desc = detect_progression(A)
    return () if desc is None else tuple(sorted((desc.ratio, desc.ratio.inverse())))


def min_progression_cover(A: FiniteSubset) -> Optional[int]:
    """Minimal length of a single progression containing A, or None."""
    if len(A) < 2:
        raise UsageError("progression covers are defined for |A| >= 2")
    return min((desc.length for desc in _covers(A)), default=None)


def dimension(A: FiniteSubset) -> int:
    """Rank over Q of the lattice spanned by differences a - a0."""
    if not isinstance(A.backend, LatticeBackend):
        raise UnsupportedOperationError("dimension is defined for lattice backends only")
    if len(A) == 0:
        raise DomainError("dimension of the empty set is undefined")
    # fraction-free elimination: each reduced vector is a nonzero multiple of
    # the one rational elimination gives, so pivots and rank agree
    a0 = A.keys[0]
    full_rank = A.backend.dim
    echelon: list[list[int]] = []
    pivots: list[int] = []
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
            if len(echelon) == full_rank:
                break  # no later key can raise the rank
    return len(echelon)


def cyclic_hull_contains(A: FiniteSubset) -> Optional[tuple[GroupElement, GroupElement]]:
    """A witness (a0, h) with A contained in the coset a0<h>, or None.

    h is the first root that _hull_roots yields.
    """
    if len(A) == 0:
        raise DomainError("the empty set has no cyclic hull")
    backend = A.backend
    a0 = GroupElement(backend, A.keys[0])
    if len(A) == 1:
        return (a0, backend.generators[0])
    root = next(_hull_roots(A), None)
    return None if root is None else (a0, GroupElement(backend, root[0]))


def max_progression_partition(U: FiniteSubset, g: GroupElement) -> list[ProgressionDescriptor]:
    """Partition of U into maximal strings {h, hg, ..., h g^alpha}.

    The number of parts m satisfies |U meet Ug| = |U| - m. Parts are
    one-sided g-strings, so their bases need not commute with g.
    """
    U.backend.check_element(g)
    if g.is_identity():
        raise DomainError("partition requires g != 1")
    mul = U.backend.mul_key
    g_inv = U.backend.inv_key(g.key)
    members = set(U.keys)
    parts = []
    for h in U.keys:
        if mul(h, g_inv) in members:
            continue
        length = 1
        cur = mul(h, g.key)
        while cur in members:
            length += 1
            cur = mul(cur, g.key)
        parts.append(ProgressionDescriptor(GroupElement(U.backend, h), g, length))
    return parts
