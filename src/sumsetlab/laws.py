"""Verifiers for the sumset inequalities, atom lemmas and example families.

Every checker returns a :class:`LawReport` whose witness payload is rich
enough to replay the check via :func:`replay`. Hypotheses are always
evaluated before conclusions, so each report carries exactly one verdict.
Conjecture-status checks never report ``violated``; they emit ``finding``.

:data:`LAWS` is the one registry of law ids: campaigns, ``sumsetlab
verify`` and :func:`replay` all run a law through its entry.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError, UnsupportedOperationError, UsageError
from .groups import GroupBackend, KleinBackend, LatticeBackend, _format_int, backend_from_spec
from .isoperimetry import CERTIFIED_EXACT, IsoInstance, kappa_restricted
from .reports import (
    LawReport,
    VERDICT_FINDING,
    VERDICT_HOLDS,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_SKIPPED,
    VERDICT_VIOLATED,
    subset_from_payload,
    subset_payload,
)
from .setops import (
    PRODUCT_TABLE_CAP,
    FiniteSubset,
    ProductTable,
    cyclic_hull_contains,
    deficiency,
    dimension,
    min_progression_cover,
    product_set,
    product_size,
    progression_ratios,
)

UNIQUE_PRODUCT_SQUARE_THRESHOLD = 216  # 6^3
EQUALITY_PAIR_CAP = 500_000
ISO_C_MAX_SIZE = 6  # largest C an atom-law campaign draws


def _binom2(x: int) -> int:
    return x * (x - 1) // 2


def _pair_witness(A: FiniteSubset, B: FiniteSubset, **extra) -> dict:
    w = {"A": subset_payload(A), "B": subset_payload(B)}
    w.update(extra)
    return w


def _hyp(law: str, witness: dict, detail: str) -> LawReport:
    return LawReport(law, VERDICT_HYPOTHESIS_NOT_MET, None, witness, detail)


# -- pairwise cardinality laws -------------------------------------------


def check_kempermann(A: FiniteSubset, B: FiniteSubset) -> LawReport:
    """|AB| >= |A| + |B| - 1 on every torsion-free backend."""
    ab = product_size(A, B)
    slack = ab - (len(A) + len(B) - 1)
    verdict = VERDICT_HOLDS if slack >= 0 else VERDICT_VIOLATED
    return LawReport("kempermann", verdict, slack, _pair_witness(A, B, product_size=ab))


def check_hls(A: FiniteSubset, B: FiniteSubset) -> LawReport:
    """|AB| >= |A| + |B| + 1 when |B| >= 4 and A avoids left cyclic cosets."""
    witness = _pair_witness(A, B)
    if len(B) < 4:
        return _hyp("hls", witness, f"|B| = {len(B)} < 4")
    if cyclic_hull_contains(A) is not None:
        return _hyp("hls", witness, "A lies in a left coset of a cyclic subgroup")
    ab = product_size(A, B)
    slack = ab - (len(A) + len(B) + 1)
    witness["product_size"] = ab
    verdict = VERDICT_HOLDS if slack >= 0 else VERDICT_VIOLATED
    return LawReport("hls", verdict, slack, witness)


def check_freiman_dim(A: FiniteSubset) -> LawReport:
    """|A^2| >= (d+1)|A| - C(d+1, 2) with d the dimension of A (lattice only)."""
    d = dimension(A)
    sq = product_size(A, A)
    rhs = (d + 1) * len(A) - _binom2(d + 1)
    slack = sq - rhs
    witness = {"A": subset_payload(A), "dimension": d, "square_size": sq}
    verdict = VERDICT_HOLDS if slack >= 0 else VERDICT_VIOLATED
    return LawReport("freiman_dim", verdict, slack, witness)


def check_ruzsa_dim(A: FiniteSubset, B: FiniteSubset) -> LawReport:
    """|AB| >= |A| + d|B| - C(d+1, 2) with d = dim(AB), for |A| >= |B|."""
    witness = _pair_witness(A, B)
    if len(A) < len(B):
        return _hyp("ruzsa_dim", witness, f"|A| = {len(A)} < |B| = {len(B)}")
    AB = product_set(A, B)
    d = dimension(AB)
    rhs = len(A) + d * len(B) - _binom2(d + 1)
    slack = len(AB) - rhs
    witness.update(dimension=d, product_size=len(AB))
    verdict = VERDICT_HOLDS if slack >= 0 else VERDICT_VIOLATED
    return LawReport("ruzsa_dim", verdict, slack, witness)


def check_gardner_gronchi(A: FiniteSubset, B: FiniteSubset) -> LawReport:
    """Discrete Brunn-Minkowski lower bound for a d-dimensional smaller set B.

    The bound rhs carries fractional powers, so the witness and slack hold
    floats, but the verdict is exact: |AB| >= rhs iff L >= 0 and
    L^d >= (|A|-d)^(d-1) (|B|-d), with L = |AB| - |A| - (d-1)|B| + C(d, 2).
    """
    witness = _pair_witness(A, B)
    if len(A) < len(B):
        return _hyp("gardner_gronchi", witness, f"|A| = {len(A)} < |B| = {len(B)}")
    AB = product_set(A, B)
    d = dimension(AB)
    if d < 1:
        return _hyp("gardner_gronchi", witness, "product set is a single point")
    if dimension(B) != d:
        return _hyp("gardner_gronchi", witness, f"B is not {d}-dimensional")
    rhs = (
        len(A)
        + (d - 1) * len(B)
        + (len(A) - d) ** ((d - 1) / d) * (len(B) - d) ** (1 / d)
        - _binom2(d)
    )
    slack = len(AB) - rhs
    witness.update(dimension=d, product_size=len(AB), rhs=rhs)
    excess = len(AB) - len(A) - (d - 1) * len(B) + _binom2(d)
    holds = excess >= 0 and excess ** d >= (len(A) - d) ** (d - 1) * (len(B) - d)
    verdict = VERDICT_HOLDS if holds else VERDICT_VIOLATED
    return LawReport("gardner_gronchi", verdict, slack, witness)


def check_equality_characterization(window: FiniteSubset, size_range: tuple[int, int]) -> LawReport:
    """Every pair at the Kempermann bound is a translated common-ratio pair.

    Exhausts pairs A, B inside the window with sizes in the given range
    (minimum size 2); verdict is violated with the first offending pair as
    witness, and the slack counts violations.

    The B side is walked once per left-translation class of A: every gA
    inside the window reuses the walk of the first A of its class. Two
    invariances make that exact. Left multiplication by g is a bijection
    AP -> gAP, so ``small_products`` yields the same (B, |AB|) list for gA
    as for A. And {x^-1 S : x in S} is the same family for S and gS, so
    A's left ratio set (see _translate_ratios) is that of gA. Each A in a
    class thus has the same tight pairs and the same violating B. A's class
    key is the least sorted tuple of quotient numbers in that family.
    """
    lo, hi = size_range
    lo = max(lo, 2)
    if hi < lo:
        raise UsageError("empty size range")
    if not _pairs_fit(len(window), lo, hi):
        raise ResourceLimitError(f"the pairs of sets exceed the enumeration cap {EQUALITY_PAIR_CAP}")
    top = min(hi, len(window))  # the largest set the window holds
    table = ProductTable(window, window)
    # quot[i][j] numbers keys[i]^-1 keys[j]: as many entries as the table, so under its cap
    mul, numbers = window.backend.mul_key, {}
    quot = [[numbers.setdefault(mul(x_inv, y), len(numbers)) for y in window.keys]
            for x_inv in map(window.backend.inv_key, window.keys)]
    combos = [combo for size in range(lo, top + 1)
              for combo in itertools.combinations(range(len(window)), size)]
    ratios: dict = {}  # only sets in a tight pair need their ratios

    def ratios_of(combo: tuple) -> tuple[frozenset, frozenset]:
        if combo not in ratios:
            ratios[combo] = _translate_ratios(table.subset(combo))
        return ratios[combo]

    walks: dict = {}  # class key -> (tight pairs, violating B in walk order)
    equality_pairs = 0
    violations = 0
    first_bad = None
    for A in combos:
        key = min(tuple(sorted(quot[i][j] for j in A)) for i in A)
        if key not in walks:
            tight, bad = 0, []
            # the walk yields every B with |AB| <= |A| + |B| - 1; only equality counts
            for B, size_ab in table.small_products(A, lo, top, len(A) - 1):
                if size_ab == len(A) + len(B) - 1:
                    tight += 1
                    if ratios_of(A)[0].isdisjoint(ratios_of(B)[1]):
                        bad.append(B)
            walks[key] = tight, bad
        tight, bad = walks[key]
        equality_pairs += tight
        violations += len(bad)
        if bad and first_bad is None:
            first_bad = {"A": subset_payload(table.subset(A)), "B": subset_payload(table.subset(bad[0]))}
    witness = {
        "window": subset_payload(window),
        "sizes": [lo, hi],
        "equality_pairs": equality_pairs,
        "first_violation": first_bad,
    }
    verdict = VERDICT_HOLDS if violations == 0 else VERDICT_VIOLATED
    return LawReport("equality", verdict, violations, witness)


def _pairs_fit(n: int, lo: int, hi: int) -> bool:
    """Whether the pairs of subsets of an n-element window, sized lo..hi, number at most EQUALITY_PAIR_CAP."""
    sets = itertools.accumulate(math.comb(n, size) for size in range(lo, min(hi, n) + 1))
    return all(count * count <= EQUALITY_PAIR_CAP for count in sets)


def _translate_ratios(S: FiniteSubset) -> tuple[frozenset, frozenset]:
    """Ratio keys of the progressions x^-1 S and S x^-1, for x in S.

    Both sets are the same for every x in S, so x is the first element. A
    pair (A, B) is a translated common-ratio pair exactly when A's left set
    meets B's right set.
    """
    x_inv = next(iter(S)).inverse()
    left, right = S.translate_left(x_inv), S.translate_right(x_inv)
    return (frozenset(r.key for r in progression_ratios(left)),
            frozenset(r.key for r in progression_ratios(right)))


# -- progression covering laws -------------------------------------------


def check_3k4(A: FiniteSubset) -> LawReport:
    """|A^2| <= 3|A| - 4 implies a covering progression of length <= 2|A| - 3.

    A theorem on the integers, a conjecture elsewhere: violations outside
    lattice backends are reported as findings.
    """
    witness = {"A": subset_payload(A)}
    if len(A) < 4:
        return _hyp("3k4", witness, f"|A| = {len(A)} < 4")
    sq = product_size(A, A)
    witness["square_size"] = sq
    if sq > 3 * len(A) - 4:
        return _hyp("3k4", witness, f"|A^2| = {sq} > 3|A| - 4 = {3 * len(A) - 4}")
    bad = VERDICT_VIOLATED if isinstance(A.backend, LatticeBackend) else VERDICT_FINDING
    return _cover_verdict("3k4", A, 2 * len(A) - 3, witness, bad, "small square without a short progression cover")


def check_corollary_AB(A: FiniteSubset) -> LawReport:
    """Nearly minimal squares force a short progression cover (unique-product form).

    With n = |A^2| - 2|A|, the hypotheses are |A| >= 6^3 and
    0 <= n <= 2^(-5/3) |A|^(1/3) - 3/2, decided in integers as
    4(2n+3)^3 <= |A|; the conclusion is a covering progression of length
    at most |A| + n + 1. The witness keeps the float bound as n_bound.
    """
    witness = {"A": subset_payload(A)}
    if not A.backend.unique_product:
        return _hyp("corollary_ab", witness, "backend lacks the unique product property")
    if len(A) < UNIQUE_PRODUCT_SQUARE_THRESHOLD:
        return _hyp("corollary_ab", witness, f"|A| = {len(A)} < 6^3 = {UNIQUE_PRODUCT_SQUARE_THRESHOLD}")
    sq = product_size(A, A)
    n = sq - 2 * len(A)
    bound = 2 ** (-5 / 3) * len(A) ** (1 / 3) - 1.5
    witness.update(square_size=sq, n=n, n_bound=bound)
    if n < 0 or 4 * (2 * n + 3) ** 3 > len(A):
        return _hyp("corollary_ab", witness, f"n = {n} outside [0, {bound:.4f}]")
    return _cover_verdict("corollary_ab", A, len(A) + n + 1, witness)


def _cover_verdict(law: str, A: FiniteSubset, bound: int, witness: dict,
                   bad: str = VERDICT_VIOLATED, detail: str = "") -> LawReport:
    """Holds when a progression of at most `bound` terms covers A; the slack is the cover length minus bound."""
    cover = min_progression_cover(A)
    witness["cover_length"] = cover
    slack = None if cover is None else cover - bound
    if slack is not None and slack <= 0:
        return LawReport(law, VERDICT_HOLDS, slack, witness)
    return LawReport(law, bad, slack, witness, detail)


# -- atom lemmas -----------------------------------------------------------


def _atom_witness(U: FiniteSubset, C: FiniteSubset, n: int) -> dict:
    # two_atom and n_atom write the k they derive over this null
    return {"U": subset_payload(U), "C": subset_payload(C), "n": n, "k": None}


def check_atom_left(U: FiniteSubset, C: FiniteSubset, n: int) -> LawReport:
    """|U meet gU| <= n - 1 for every g != 1."""
    witness = _atom_witness(U, C, n)
    worst, worst_g = _worst_overlap(U, left=True)
    slack = worst - (n - 1)
    witness["worst_g"] = U.backend.format_key(worst_g) if worst_g else None
    witness["max_intersection"] = worst
    verdict = VERDICT_HOLDS if slack <= 0 else VERDICT_VIOLATED
    return LawReport("atom_left", verdict, slack, witness)


def check_atom_right(U: FiniteSubset, C: FiniteSubset, n: int) -> LawReport:
    """(n-1)|U meet Ug| <= (n-2)|U| + 1 for every g != 1, when n >= 2."""
    witness = _atom_witness(U, C, n)
    if n < 2:
        return _hyp("atom_right", witness, "requires n >= 2")
    worst, worst_g = _worst_overlap(U, left=False)
    slack = (n - 1) * worst - ((n - 2) * len(U) + 1)
    witness["worst_g"] = U.backend.format_key(worst_g) if worst_g else None
    verdict = VERDICT_HOLDS if slack <= 0 else VERDICT_VIOLATED
    return LawReport("atom_right", verdict, slack, witness)


def check_atom_nonunique(U: FiniteSubset, C: FiniteSubset, n: int) -> LawReport:
    """An atom larger than n has every element of UC written at least twice as uc."""
    witness = _atom_witness(U, C, n)
    if len(U) <= n:
        return _hyp("atom_nonunique", witness, f"|U| = {len(U)} is not larger than n = {n}")
    mul = U.backend.mul_key
    fewest = min(Counter(mul(u, c) for u in U.keys for c in C.keys).values())
    slack = fewest - 2
    witness["min_factorizations"] = fewest
    verdict = VERDICT_HOLDS if slack >= 0 else VERDICT_VIOLATED
    return LawReport("atom_nonunique", verdict, slack, witness)


def check_two_atom_rough(U: FiniteSubset, C: FiniteSubset, n: int) -> LawReport:
    """|U| <= |C| - 1 for a 2-atom U of a set C with |C| >= 3."""
    witness = _atom_witness(U, C, n)
    if n != 2:
        return _hyp("two_atom_rough", witness, "requires n = 2")
    if len(C) < 3:
        return _hyp("two_atom_rough", witness, f"|C| = {len(C)} < 3")
    slack = len(U) - (len(C) - 1)
    verdict = VERDICT_HOLDS if slack <= 0 else VERDICT_VIOLATED
    return LawReport("two_atom_rough", verdict, slack, witness)


def check_two_atom(U: FiniteSubset, C: FiniteSubset, n: int) -> LawReport:
    """|U| <= k + 3 for a 2-atom U of C, at the least k with |UC| <= |U| + |C| + k."""
    witness = _atom_witness(U, C, n)
    if n != 2:
        return _hyp("two_atom", witness, "requires n = 2")
    return _atom_size_bound("two_atom", U, C, witness, lambda k: k + 3)


def check_n_atom(U: FiniteSubset, C: FiniteSubset, n: int) -> LawReport:
    """|U| <= n(2k + 3) for an n-atom U of C, n >= 3, at the least k with |UC| <= |U| + |C| + k."""
    witness = _atom_witness(U, C, n)
    if n < 3:
        return _hyp("n_atom", witness, "requires n >= 3")
    return _atom_size_bound("n_atom", U, C, witness, lambda k: n * (2 * k + 3))


def _atom_size_bound(law: str, U: FiniteSubset, C: FiniteSubset,
                     witness: dict, bound: Callable[[int], int]) -> LawReport:
    """|U| <= bound(k) once |C| >= 3, at k = |UC| - |U| - |C|: the least k, whose bound is the strongest."""
    if len(C) < 3:
        return _hyp(law, witness, f"|C| = {len(C)} < 3")
    k = product_size(U, C) - len(U) - len(C)
    witness["k"] = k
    slack = len(U) - bound(k)
    verdict = VERDICT_HOLDS if slack <= 0 else VERDICT_VIOLATED
    return LawReport(law, verdict, slack, witness)


def check_atom_conjecture(U: FiniteSubset, C: FiniteSubset, n: int) -> LawReport:
    """Conjecture: every n-atom has exactly n elements."""
    slack = len(U) - n
    witness = _atom_witness(U, C, n)
    if slack < 0:
        return _hyp("atom_conjecture", witness, f"|U| = {len(U)} < n = {n}")
    if slack == 0:
        return LawReport("atom_conjecture", VERDICT_HOLDS, 0, witness)
    return LawReport("atom_conjecture", VERDICT_FINDING, slack, witness, "atom larger than n")


def _worst_overlap(U: FiniteSubset, left: bool) -> tuple[int, tuple | None]:
    """The largest |U meet gU| (left) or |U meet Ug| (right) over g != 1, and the least such g.

    u != w in U lie in U meet gU as g u = w exactly when g = w u^-1, and in
    U meet Ug as u g = w exactly when g = u^-1 w: one pass over the ordered
    pairs counts every overlap. A singleton U has none: (0, None).
    """
    mul, inv = U.backend.mul_key, U.backend.inv_key
    counts: dict = {}
    for u in U.keys:
        u_inv = inv(u)
        for w in U.keys:
            if w != u:
                g = mul(w, u_inv) if left else mul(u_inv, w)
                counts[g] = counts.get(g, 0) + 1
    if not counts:
        return 0, None
    worst = max(counts.values())
    return worst, min(g for g, count in counts.items() if count == worst)


# -- three-element set expansion and the main bound ------------------------


def _noncommuting_pair(backend: GroupBackend):
    """The backend's first two generators, when they exist and do not commute."""
    pair = backend.generators[:2]
    if len(pair) < 2 or pair[0] * pair[1] == pair[1] * pair[0]:
        raise UnsupportedOperationError(
            f"backend {backend.spec} has no canonical non-commuting generator pair"
        )
    return pair


def standard_triple(backend: GroupBackend) -> FiniteSubset:
    """The set {1, g1, g2} for the backend's two non-commuting generators."""
    g1, g2 = _noncommuting_pair(backend)
    return FiniteSubset(backend, [backend.identity, g1, g2])


def check_uvk(B: FiniteSubset, d: int) -> LawReport:
    """|AB| > |B| + d for A = {1, u, v} once |B| > 4 d^3 (d >= 3)."""
    backend = B.backend
    A = standard_triple(backend)
    witness = {"B": subset_payload(B), "d": d, "A": subset_payload(A)}
    if d < 3:
        return _hyp("uvk", witness, f"d = {d} < 3")
    threshold = 4 * d ** 3
    if len(B) <= threshold:
        return _hyp("uvk", witness, f"|B| = {len(B)} <= 4 d^3 = {_format_int(threshold)}")
    ab = product_size(A, B)
    slack = ab - (len(B) + d)
    witness["product_size"] = ab
    verdict = VERDICT_HOLDS if slack >= 1 else VERDICT_VIOLATED
    return LawReport("uvk", verdict, slack, witness)


def check_main_theorem(A: FiniteSubset, B: FiniteSubset, k: int, use_general_bound: bool = False) -> LawReport:
    """|AB| > |A| + |B| + k once |B| clears the backend's size gate.

    Unique-product backends use the cubic gate 4(2k+3)^3; the general gate
    32(k+3)^6 applies otherwise or with use_general_bound. Campaign draws
    never reach the general gate: every backend has the unique product
    property and no campaign grid sets use_general_bound. At k = 1 the gate
    is 131,072, below BALL_ELEMENT_CAP, so `verify --general-bound` on a
    large enough B clears it. Instances below it are reported as
    skipped-by-scale hypothesis failures.
    """
    if k < 1:
        raise UsageError("the theorem is stated for k >= 1")
    witness = _pair_witness(A, B, k=k, use_general_bound=use_general_bound)
    if cyclic_hull_contains(A) is not None:
        return _hyp("main_theorem", witness, "A lies in a left coset of a cyclic subgroup")
    if use_general_bound or not A.backend.unique_product:
        gate = 32 * (k + 3) ** 6
        gate_name = "32(k+3)^6"
        scale_note = "skipped-by-scale: "
    else:
        gate = 4 * (2 * k + 3) ** 3
        gate_name = "4(2k+3)^3"
        scale_note = ""
    witness["gate"] = gate
    if len(B) <= gate:
        return _hyp("main_theorem", witness, f"{scale_note}|B| = {len(B)} <= {gate_name} = {_format_int(gate)}")
    ab = product_size(A, B)
    slack = ab - (len(A) + len(B) + k)
    witness["product_size"] = ab
    verdict = VERDICT_HOLDS if slack >= 1 else VERDICT_VIOLATED
    return LawReport("main_theorem", verdict, slack, witness)


# -- Klein bottle example families -----------------------------------------


def _check_family_products(family: str, m: int, products: int) -> None:
    """Raise before building a family whose product needs more than PRODUCT_TABLE_CAP multiplications."""
    if products > PRODUCT_TABLE_CAP:
        raise ResourceLimitError(
            f"the Klein {family} family at m = {m} needs more than {PRODUCT_TABLE_CAP} products, the cap"
        )


def klein_grid_sets(m: int) -> tuple[FiniteSubset, FiniteSubset]:
    """A = {1, u, v} and the m x m grid B = {u^i v^j : 0 <= i, j < m}."""
    if m < 1:
        raise DomainError("the grid family needs m >= 1")
    _check_family_products("grid", m, 3 * m * m)
    backend = backend_from_spec("klein")
    A = standard_triple(backend)
    B = FiniteSubset.from_keys(backend, ((i, j) for i in range(m) for j in range(m)))
    return A, B


def example_klein_grid(m: int) -> tuple[FiniteSubset, FiniteSubset, LawReport]:
    """Grid family with |AB| = m^2 + 2m, hence deficiency 2m - 3."""
    A, B = klein_grid_sets(m)
    ab = product_size(A, B)
    expected = m * m + 2 * m
    dfc = ab - len(A) - len(B)
    witness = {"m": m, "product_size": ab, "deficiency": dfc}
    ok = ab == expected and dfc == 2 * m - 3
    verdict = VERDICT_HOLDS if ok else VERDICT_VIOLATED
    return A, B, LawReport("klein_grid", verdict, ab - expected, witness)


def klein_union_set(m: int) -> FiniteSubset:
    """P union (vu)Q for P = {u^i : i <= 2m} and Q = {u^(2i) : i < m}."""
    if m < 1:
        raise DomainError("the union family needs m >= 1")
    _check_family_products("union", m, (3 * m + 1) ** 2)
    backend = backend_from_spec("klein")
    keys = [(i, 0) for i in range(2 * m + 1)]
    vu = backend.mul_key((0, 1), (1, 0))
    keys.extend(backend.mul_key(vu, (2 * i, 0)) for i in range(m))
    return FiniteSubset.from_keys(backend, keys)


def example_klein_union(m: int) -> tuple[FiniteSubset, LawReport]:
    """Union family with |A| = 3m + 1 and |A^2| = 10m - 1."""
    A = klein_union_set(m)
    sq = product_size(A, A)
    witness = {"m": m, "size": len(A), "square_size": sq}
    ok = len(A) == 3 * m + 1 and sq == 10 * m - 1
    verdict = VERDICT_HOLDS if ok else VERDICT_VIOLATED
    return A, LawReport("klein_union", verdict, sq - (10 * m - 1), witness)


def check_c_lower(k: int) -> LawReport:
    """Grid witness with deficiency 2m - 3 <= k at |B| = m^2, m = floor((k+3)/2).

    The conclusion |AB| > |A| + |B| + k fails on this pair, so any valid
    size gate c(k) must exceed m^2: quadratic growth in k.
    """
    if k < 1:
        raise DomainError("the witness family needs k >= 1")
    m = (k + 3) // 2
    A, B = klein_grid_sets(m)
    dfc = deficiency(A, B)
    ok = dfc == 2 * m - 3 and dfc <= k and len(B) == m ** 2
    witness = {"k": k, "m": m, "B_size": len(B), "deficiency": dfc}
    verdict = VERDICT_HOLDS if ok else VERDICT_VIOLATED
    return LawReport("c_lower", verdict, k - dfc, witness)


# -- the law registry ---------------------------------------------------------

THEOREM = "theorem"
CONJECTURE = "conjecture"


@dataclass(frozen=True)
class Law:
    """How one law id is checked, whoever asks: a campaign, ``verify`` or replay.

    ``run`` takes the named inputs as keywords and returns the reports.
    The inputs are the named sets in ``sets`` (``A``, ``B``, ``C``,
    ``window``) and the parameters in ``params`` (``d``, ``k``, ``m``,
    ``n``, ``use_general_bound``, ``sizes``); a witness names them the same
    way. Outside the atom lemmas, ``run`` calls its checker by the
    checker's name in this module, looked up at call time, so a wrapper
    installed on that name sees every call. An atom lemma's entry holds its
    checker in ``lemma``; its ``run`` (once per certified atom) and
    :func:`replay` read it from the entry at call time, so an entry
    installed with a wrapped ``lemma`` sees every call.
    """

    run: Callable[..., list[LawReport]]
    sets: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    status: str = THEOREM
    # backend -> why a campaign skips the law there and verify refuses it, or
    # None where it applies
    skip: Callable[[GroupBackend], str | None] = lambda backend: None
    # (draw, grid params) -> the drawn inputs or a skip detail, where a
    # campaign draws other than one uniform subset per named set
    sample: Callable | None = None
    # (U, C, n) -> the report on one atom U, for the atom lemmas only
    lemma: Callable[[FiniteSubset, FiniteSubset, int], LawReport] | None = None


def _lattice_only(backend: GroupBackend) -> str | None:
    return None if isinstance(backend, LatticeBackend) else "lattice backends only"


def _klein_only(backend: GroupBackend) -> str | None:
    return None if isinstance(backend, KleinBackend) else "klein-specific family"


def _needs_noncommuting_pair(backend: GroupBackend) -> str | None:
    try:
        _noncommuting_pair(backend)
    except UnsupportedOperationError:
        return "no non-commuting generator pair"
    return None


def _sample_larger_first(draw, params: dict) -> dict:
    A, B = draw.subset(), draw.subset()
    return {"A": A, "B": B} if len(A) >= len(B) else {"A": B, "B": A}


def _sample_equality(draw, params: dict) -> dict | str:
    """The ball of radius at most 2, with the widest size range under the pair cap."""
    if draw.hi < 2:
        return f"size range [{draw.lo}, {draw.hi}] is below the minimum set size 2"
    window = draw.backend.ball(min(draw.radius, 2))
    for max_size in range(min(draw.hi, 3), 1, -1):
        if _pairs_fit(len(window), 2, max_size):
            return {"window": window, "sizes": (2, max_size)}
    return "window too large for exhaustive pair enumeration"


def _sample_iso_instance(draw, params: dict) -> dict | str:
    window = draw.backend.ball(draw.iso_radius)
    if params["n"] > len(window):
        return "window smaller than n"
    if draw.lo > ISO_C_MAX_SIZE:
        return f"sizes lower bound above the |C| cap {ISO_C_MAX_SIZE}"
    return {"C": draw.subset(max_size=ISO_C_MAX_SIZE), "window": window}


def _atom_law(law: str, lemma: Callable, status: str = THEOREM) -> Law:
    """An atom lemma: its checker run on each certified atom of kappa over (C, n, window)."""

    def run(C, n, window):
        result = kappa_restricted(IsoInstance(C, n, window), fragment_limit=0)
        if result.certificate != CERTIFIED_EXACT:
            detail = f"result certificate is {result.certificate}"
            return [LawReport(law, VERDICT_SKIPPED, None, {"n": n}, detail)]
        check = LAWS[law].lemma
        return [check(U, C, n) for U in result.atoms]

    return Law(run, ("C", "window"), ("n",), status, sample=_sample_iso_instance, lemma=lemma)


LAWS: dict[str, Law] = {
    "kempermann": Law(lambda A, B: [check_kempermann(A, B)], ("A", "B")),
    "equality": Law(lambda window, sizes: [check_equality_characterization(window, sizes)],
                    ("window",), ("sizes",), sample=_sample_equality),
    "hls": Law(lambda A, B: [check_hls(A, B)], ("A", "B")),
    "freiman_dim": Law(lambda A: [check_freiman_dim(A)], ("A",), skip=_lattice_only),
    "ruzsa_dim": Law(lambda A, B: [check_ruzsa_dim(A, B)], ("A", "B"),
                     skip=_lattice_only, sample=_sample_larger_first),
    "gardner_gronchi": Law(lambda A, B: [check_gardner_gronchi(A, B)], ("A", "B"),
                           skip=_lattice_only, sample=_sample_larger_first),
    "3k4": Law(lambda A: [check_3k4(A)], ("A",),
               sample=lambda draw, params: draw.too_small(4) or {"A": draw.subset(4)}),
    "atom_left": _atom_law("atom_left", check_atom_left),
    "atom_right": _atom_law("atom_right", check_atom_right),
    "atom_nonunique": _atom_law("atom_nonunique", check_atom_nonunique),
    "two_atom_rough": _atom_law("two_atom_rough", check_two_atom_rough),
    "two_atom": _atom_law("two_atom", check_two_atom),
    "n_atom": _atom_law("n_atom", check_n_atom),
    "atom_conjecture": _atom_law("atom_conjecture", check_atom_conjecture, CONJECTURE),
    "uvk": Law(lambda B, d: [check_uvk(B, d)], ("B",), ("d",), skip=_needs_noncommuting_pair),
    "main_theorem": Law(
        lambda A, B, k, use_general_bound=False: [check_main_theorem(A, B, k, use_general_bound)],
        ("A", "B"), ("k", "use_general_bound"),
        sample=lambda draw, params: draw.too_small(2) or {"A": draw.subset(2), "B": draw.subset()},
    ),
    "corollary_ab": Law(lambda A: [check_corollary_AB(A)], ("A",)),
    "klein_grid": Law(lambda m: [example_klein_grid(m)[2]], params=("m",), skip=_klein_only),
    "klein_union": Law(lambda m: [example_klein_union(m)[1]], params=("m",), skip=_klein_only),
    "c_lower": Law(lambda k: [check_c_lower(k)], params=("k",), skip=_klein_only),
}

LAW_IDS = tuple(LAWS)
# the atom lemmas are the laws on an isoperimetric instance (C, n, window)
ATOM_LAWS = tuple(law for law, entry in LAWS.items() if "C" in entry.sets)
CONJECTURE_LAWS = frozenset(law for law, entry in LAWS.items() if entry.status == CONJECTURE)
# atom_intersection is isoperimetry's check
THEOREM_LAWS = frozenset(law for law, entry in LAWS.items() if entry.status == THEOREM) | {"atom_intersection"}


def replay(report: LawReport) -> LawReport:
    """Recompute a report from its witness payload."""
    law, w = LAWS.get(report.law), report.witness
    if law is None:
        raise UsageError(f"law {report.law!r} does not support replay")
    if law.lemma is not None:
        return law.lemma(subset_from_payload(w["U"]), subset_from_payload(w["C"]), w["n"])
    inputs = {name: subset_from_payload(w[name]) for name in law.sets}
    inputs.update((p, w[p]) for p in law.params if p in w)
    return law.run(**inputs)[0]
