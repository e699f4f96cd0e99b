"""Exact-progression ratio scans, cover lengths and the equality checker pinned to naive oracles."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from sumsetlab import laws
from sumsetlab.groups import backend_from_spec, divisors
from sumsetlab.laws import _translate_ratios, check_equality_characterization
from sumsetlab.reports import subset_payload
from sumsetlab.setops import (
    FiniteSubset,
    ProgressionDescriptor,
    detect_progression,
    min_progression_cover,
    progression_ratios,
)

BACKEND_SPECS = ("zd:1", "zd:2", "free:2", "klein", "heis")
ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

BACKENDS = {spec: backend_from_spec(spec) for spec in BACKEND_SPECS}
BALLS = {spec: backend.ball_keys(2) for spec, backend in BACKENDS.items()}


# -- oracles -----------------------------------------------------------------


def progression_through(A, r_key):
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


def oracle_exact_hits(A):
    """Descriptors expanding to A, over every ratio x^-1 y in permutation order."""
    backend = A.backend
    seen = set()
    for x, y in itertools.permutations(A.keys, 2):
        r = backend.mul_key(backend.inv_key(x), y)
        if r in seen:
            continue
        seen.add(r)
        desc = progression_through(A, r)
        if desc is not None and desc.length == len(A):
            yield desc


def oracle_detect(A):
    if len(A) == 1:
        backend = A.backend
        return (A.keys[0], backend.generators[0].key, 1)
    desc = next(oracle_exact_hits(A), None)
    return None if desc is None else (desc.base.key, desc.ratio.key, desc.length)


def oracle_ratios(A):
    if len(A) < 2:
        return ()
    return tuple(sorted({desc.ratio.key for desc in oracle_exact_hits(A)}))


def oracle_min_cover(A):
    """Shortest cover over every divisor power of the root of every pair quotient x^-1 y.

    A cover's ratio r has r^m = x^-1 y for each pair of covered elements,
    so r is such a divisor power wherever roots lie in the quotient's
    maximal cyclic subgroup.
    """
    backend = A.backend
    lengths = []
    for x, y in itertools.permutations(A.keys, 2):
        root, exponent = backend.primitive_root_key(backend.mul_key(backend.inv_key(x), y))
        for j in divisors(exponent):
            desc = progression_through(A, backend.pow_key(root, j))
            if desc is not None:
                lengths.append(desc.length)
    return min(lengths, default=None)


def oracle_common_ratio_pair(A, B):
    """True when some x^-1 A and some B y^-1 are progressions with a common ratio."""
    ratios_a = set()
    for x in A.elements():
        ratios_a.update(oracle_ratios(A.translate_left(x.inverse())))
    return any(ratios_a.intersection(oracle_ratios(B.translate_right(y.inverse()))) for y in B.elements())


# -- strategies ----------------------------------------------------------------


@st.composite
def small_sets(draw, min_size=1, max_size=5):
    """A subset of the radius-2 ball, or a progression, possibly with one extra point."""
    spec = draw(st.sampled_from(BACKEND_SPECS))
    backend, ball = BACKENDS[spec], BALLS[spec]
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(ball), min_size=min_size, max_size=max_size, unique=True))
        return FiniteSubset.from_keys(backend, keys)
    gen = draw(st.sampled_from(backend.generator_keys()))
    ratio = backend.pow_key(gen, draw(st.sampled_from((1, 2, 3, -1, -2))))
    if draw(st.booleans()):
        ratio = backend.mul_key(ratio, draw(st.sampled_from(ball)))
    if draw(st.booleans()):
        base = draw(st.sampled_from(ball))
    else:
        # a progression through the identity, which is the first key on free:k
        base = backend.pow_key(ratio, -draw(st.integers(0, 2)))
    keys, cur = [], base
    for _ in range(draw(st.integers(min_size, max_size))):
        keys.append(cur)
        cur = backend.mul_key(cur, ratio)
    if draw(st.booleans()):
        keys.append(draw(st.sampled_from(ball)))
    S = FiniteSubset.from_keys(backend, keys)
    return S if len(S) >= min_size else FiniteSubset.from_keys(backend, ball[:min_size])


@st.composite
def set_pairs(draw):
    A = draw(small_sets(min_size=2, max_size=4))
    ball = BALLS[A.backend.spec]
    if draw(st.booleans()):
        # a translate of A on either side, so common-ratio pairs are frequent
        g, mul = draw(st.sampled_from(ball)), A.backend.mul_key
        left = draw(st.booleans())
        B = FiniteSubset.from_keys(A.backend, (mul(g, a) if left else mul(a, g) for a in A.keys))
    else:
        keys = draw(st.lists(st.sampled_from(ball), min_size=2, max_size=4, unique=True))
        B = FiniteSubset.from_keys(A.backend, keys)
    return A, B


# -- properties -----------------------------------------------------------------


# on free:k the identity is the first key, so these sets start in the middle
# of their progression: a0 has two neighbours, and the first one decides
MIDDLE_START = (
    FiniteSubset.from_keys(BACKENDS["free:2"], [(-1,), (), (1,)]),
    FiniteSubset.from_keys(BACKENDS["free:2"], [(-2, -1), (), (1, 2), (1, 2, 1, 2)]),
)


@ORACLE_SETTINGS
@given(small_sets())
@example(MIDDLE_START[0])
@example(MIDDLE_START[1])
def test_detect_progression_matches_permutation_scan(A):
    desc = detect_progression(A)
    got = None if desc is None else (desc.base.key, desc.ratio.key, desc.length)
    assert got == oracle_detect(A)


@ORACLE_SETTINGS
@given(small_sets())
def test_progression_ratios_match_permutation_scan(A):
    assert tuple(r.key for r in progression_ratios(A)) == oracle_ratios(A)


@ORACLE_SETTINGS
@given(small_sets(min_size=2))
def test_min_cover_matches_pair_quotient_scan(A):
    assert min_progression_cover(A) == oracle_min_cover(A)


@ORACLE_SETTINGS
@given(set_pairs())
def test_first_element_ratios_match_all_translates(pair):
    A, B = pair
    left, _ = _translate_ratios(A)
    _, right = _translate_ratios(B)
    assert (not left.isdisjoint(right)) == oracle_common_ratio_pair(A, B)


def naive_tight_pairs(window, lo, hi):
    """Every pair with |AB| = |A| + |B| - 1, in the checker's order: A, then B, by size then lexicographically."""
    mul = window.backend.mul_key
    sets = [FiniteSubset._from_keys(window.backend, combo)
            for size in range(lo, hi + 1) for combo in itertools.combinations(window.keys, size)]
    return [(A, B) for A in sets for B in sets
            if len({mul(a, b) for a in A.keys for b in B.keys}) == len(A) + len(B) - 1]


def assert_equality_matches_oracles(window, sizes):
    """Pair count and violations against the all-translates oracle, and the first
    violation against the naive loop when no pair has a common ratio."""
    lo, hi = max(sizes[0], 2), sizes[1]
    tight = naive_tight_pairs(window, lo, hi)
    report = check_equality_characterization(window, sizes)
    assert report.witness["equality_pairs"] == len(tight)
    assert report.slack == sum(not oracle_common_ratio_pair(A, B) for A, B in tight)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_translate_ratios", lambda S: (frozenset(), frozenset()))
        report = check_equality_characterization(window, sizes)
    assert report.witness["equality_pairs"] == report.slack == len(tight)
    first = None if not tight else {"A": subset_payload(tight[0][0]), "B": subset_payload(tight[0][1])}
    assert report.witness["first_violation"] == first
    assert report.verdict == ("violated" if tight else "holds")


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(small_sets(min_size=2, max_size=6))
def test_equality_checker_matches_all_translates_oracle(window):
    assert_equality_matches_oracles(window, (2, 3))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_sets(min_size=2, max_size=6), st.sampled_from(((2, 2), (2, 3), (3, 4), (1, 3))))
def test_equality_first_violation_is_first_tight_pair_of_naive_loop(window, sizes):
    """With no common ratios, every tight pair is a violation, so the witness pins the order."""
    assert_equality_matches_oracles(window, sizes)


@st.composite
def wide_windows(draw):
    """7 to 9 elements of a non-abelian radius-2 ball, wide enough for the walk's cut to fire."""
    spec = draw(st.sampled_from(("free:2", "heis")))
    keys = draw(st.lists(st.sampled_from(BALLS[spec]), min_size=7, max_size=9, unique=True))
    return FiniteSubset.from_keys(BACKENDS[spec], keys)


# 19 tight pairs at sizes (2, 3); a walk that keeps only prefixes that are
# already tight misses some of them here, while it matches on zd and klein
FREE2_WIDE = FiniteSubset.from_keys(
    BACKENDS["free:2"], [(-1,), (-1, -2), (-1, -1), (-1, 2), (1,), (1, 2), (2,), (2, -1)]
)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(wide_windows(), st.sampled_from(((2, 3), (2, 4))))
@example(FREE2_WIDE, (2, 3))
def test_equality_checker_matches_oracles_on_wide_windows(window, sizes):
    assert_equality_matches_oracles(window, sizes)
