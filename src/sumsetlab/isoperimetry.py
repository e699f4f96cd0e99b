"""Restricted isoperimetric minimization with exactness certificates.

The restricted value kappa_hat is the exact minimum of |XC| - |X| over
subsets X of a finite window with |X| >= n and 1 in X. Normalizing the
identity into X is sound because the objective is invariant under left
translation of X. A result is certified exact only when the value meets
the global lower bound |C| - 1, which no window enlargement can beat;
everything else is labeled a window-restricted upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError, UsageError
from .setops import FiniteSubset, ProductTable

CERTIFIED_EXACT = "certified_exact"
UPPER_BOUND_ONLY = "upper_bound_only"

BNB_WINDOW_CAP = 64
ENUM_WINDOW_CAP = 40
FRAGMENT_SAMPLE_LIMIT = 16


@dataclass(frozen=True)
class IsoInstance:
    C: FiniteSubset
    n: int
    window: FiniteSubset

    def __post_init__(self):
        if len(self.C) < 1:
            raise UsageError("C must be non-empty")
        if self.C.backend != self.window.backend:
            raise UsageError("C and the window belong to different backends")
        if not self.window.contains_key(self.C.backend.identity_key):
            raise UsageError("the window must contain the identity")
        if not 1 <= self.n <= len(self.window):
            raise UsageError("n must satisfy 1 <= n <= |window|")

    @property
    def backend(self):
        return self.C.backend


@dataclass(frozen=True)
class IsoResult:
    kappa_hat: int
    atoms: tuple[FiniteSubset, ...]
    fragments_sample: tuple[FiniteSubset, ...]
    certificate: str


def _search(inst: IsoInstance, global_lower: int, fragment_limit: int) -> tuple[int, list, list]:
    """The value, its minimum-size minimizers and its first minimizers in preorder.

    One combination-tree traversal over window subsets containing the
    identity. The products window*C are numbered once by a ProductTable, so
    XC is an int bitmask: a child's mask is its parent's OR the candidate's
    row, and |XC| is its popcount. Two admissible bounds prune subtrees that
    cannot tie the incumbent: adding one element lowers the objective by at
    most 1, and for every fixed c in C the map x -> x*c is injective, so the
    reduction is at most the number of undecided candidates whose c-product
    already lies in XC, popcount(mask & suffix_c[i]). Once the fragment
    sample is full, a node at least as large as the current atoms (the
    cutoff) has only larger descendants, which change the outputs only
    through a strictly smaller value: there the bounds prune every subtree
    that cannot beat the incumbent, and a certified value stops the search.

    A node's loop scores each child in place: it ORs the child's row into
    the mask, records the child if it ties or beats the incumbent, and
    applies both bounds to it, so only a child that passes them costs a
    call and its key tuple. The loop ends at the last child whose subtree
    still reaches n elements.
    """
    id_key = inst.backend.identity_key
    keys = inst.window.keys
    ident = keys.index(id_key)
    cands = keys[:ident] + keys[ident + 1:]
    n, total = inst.n, len(cands)
    # a row's bits are distinct, as c -> x*c is injective, so sum is OR
    per_c = [[1 << k for k in row] for row in ProductTable(inst.window, inst.C).rows]
    root = sum(per_c.pop(ident))
    rows = [sum(r) for r in per_c]
    # suffix[i][k]: the k-th c's products of cands[i:]
    acc = [0] * len(inst.C)
    suffix = [acc]
    for r in reversed(per_c):
        acc = [a | b for a, b in zip(acc, r)]
        suffix.append(acc)
    suffix.reverse()

    # the incumbent: the least objective at sizes >= n along a greedy growth
    # from {1} that adds, each step, the first candidate with the fewest new products
    mask, size = root, 1
    objs = [mask.bit_count() - 1] if n == 1 else []
    pool = list(rows)
    while size < min(total + 1, max(n, 2) + 12):
        pos = min(range(len(pool)), key=lambda p: (pool[p] & ~mask).bit_count())
        mask |= pool.pop(pos)
        size += 1
        if size >= n:
            objs.append(mask.bit_count() - size)
    best = min(objs)
    atoms: list[tuple] = []
    fragments: list[tuple] = []
    cutoff = total + 2  # larger than every node until the sample is full

    def record(X: tuple, size: int, obj: int) -> None:
        nonlocal best, atoms, fragments, cutoff
        key = tuple(sorted(X))
        if obj < best:
            best, atoms, fragments = obj, [], []
        if not atoms or size < len(atoms[0]):
            atoms = [key]
        elif size == len(atoms[0]):
            atoms.append(key)
        if len(fragments) < fragment_limit:
            fragments.append(key)
        cutoff = len(atoms[0]) if len(fragments) >= fragment_limit else total + 2

    def expand(i: int, mask: int, size: int, X: tuple) -> None:
        # every child has size + 1 elements, and the child cands[j]
        # leaves total - j - 1 undecided; from j = total + size + 1 - n
        # on, no set below it reaches n elements
        size += 1
        for j in range(i, min(total, total + size - n)):
            child = mask | rows[j]
            obj = child.bit_count() - size
            if size >= n and obj <= best:
                record(X + (cands[j],), size, obj)
            if size >= cutoff:
                if best == global_lower:
                    continue
                gap = obj - best + 1
            else:
                gap = obj - best
            if gap > 0:
                if total - j <= gap:
                    continue
                for s in suffix[j + 1]:
                    if (child & s).bit_count() < gap:
                        break
                else:
                    expand(j + 1, child, size, X + (cands[j],))
                continue
            expand(j + 1, child, size, X + (cands[j],))

    # the greedy incumbent's set lies below the root, so no bound
    # against it prunes the root; past its atoms the root can only be
    # the atom {1} at n = 1, whose value |C| - 1 is certified
    X, obj = (id_key,), root.bit_count() - 1
    if n == 1 and obj <= best:
        record(X, 1, obj)
        if cutoff <= 1 and best == global_lower:
            return best, atoms, fragments
    expand(0, root, 1, X)
    return best, atoms, fragments


def kappa_restricted(inst: IsoInstance, fragment_limit: int = FRAGMENT_SAMPLE_LIMIT) -> IsoResult:
    """Exact restricted minimum plus atoms and a bounded fragment sample.

    The fragments are the first fragment_limit minimizers in search order;
    windows above ENUM_WINDOW_CAP get none.
    """
    if len(inst.window) > BNB_WINDOW_CAP:
        raise ResourceLimitError(
            f"window of size {len(inst.window)} exceeds the search cap {BNB_WINDOW_CAP}"
        )
    if len(inst.window) > ENUM_WINDOW_CAP:
        fragment_limit = 0
    global_lower = len(inst.C) - 1
    value, atom_keys, frag_keys = _search(inst, global_lower, fragment_limit)
    backend = inst.backend
    atoms = tuple(FiniteSubset._from_keys(backend, ks) for ks in sorted(atom_keys))
    fragments = tuple(FiniteSubset._from_keys(backend, ks) for ks in frag_keys)
    certificate = CERTIFIED_EXACT if value == global_lower else UPPER_BOUND_ONLY
    return IsoResult(value, atoms, fragments, certificate)
