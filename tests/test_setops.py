"""Set combinatorics: products, progressions, covers, dimension."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab.errors import DomainError, ParseError, ResourceLimitError, UnsupportedOperationError, UsageError
from sumsetlab.groups import backend_from_spec
from sumsetlab.setops import (
    PRODUCT_TABLE_CAP,
    FiniteSubset,
    ProductTable,
    cyclic_hull_contains,
    deficiency,
    detect_progression,
    dimension,
    min_progression_cover,
    product_set,
    product_size,
    progression_ratios,
)


def zset(z1, values):
    return FiniteSubset.from_keys(z1, [(v,) for v in values])


def random_subset(rng, backend, radius, size):
    ball = backend.ball_keys(radius)
    return FiniteSubset.from_keys(backend, rng.sample(ball, min(size, len(ball))))


# -- oracles -----------------------------------------------------------------


def z_min_cover_oracle(values):
    """Brute-force minimal covering AP length: scan every ratio."""
    vals = sorted(values)
    span = vals[-1] - vals[0]
    if span == 0:
        return 1
    best = None
    for r in range(1, span + 1):
        if len({v % r for v in vals}) == 1:
            length = span // r + 1
            if best is None or length < best:
                best = length
    return best


def bounded_hull_oracle(A, search_radius=3, power_bound=8):
    """Is A inside some coset g<h>? Enumerate h over a ball, powers bounded."""
    backend = A.backend
    a0 = A.keys[0]
    a0_inv = backend.inv_key(a0)
    diffs = [backend.mul_key(a0_inv, a) for a in A.keys]
    for h in backend.ball_keys(search_radius):
        if h == backend.identity_key:
            continue
        powers = {backend.pow_key(h, k) for k in range(-power_bound, power_bound + 1)}
        if all(d in powers for d in diffs):
            return True
    return False


# -- membership ----------------------------------------------------------------


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), spec=st.sampled_from(["zd:1", "zd:2", "klein", "heis", "free:2"]))
def test_membership_and_subsets_match_python_sets(spec, data):
    # members come from the radius-2 ball and probes from the radius-3 ball, so
    # some probes sort before every member, some between two and some after all
    backend = backend_from_spec(spec)
    pool = backend.ball_keys(2)
    S_keys = data.draw(st.sets(st.sampled_from(pool), max_size=15))
    T_keys = data.draw(st.sets(st.sampled_from(pool), max_size=15))
    if data.draw(st.booleans()):
        T_keys |= S_keys
    S, T = FiniteSubset.from_keys(backend, S_keys), FiniteSubset.from_keys(backend, T_keys)
    for key in backend.ball_keys(3):
        assert S.contains_key(key) == (key in S_keys)
        assert (backend.element(key) in S) == (key in S_keys)
    assert S.is_subset(T) == (S_keys <= T_keys)
    assert T.is_subset(S) == (T_keys <= S_keys)
    assert backend.identity_key not in S and 0 not in S


# -- product sets and deficiency ----------------------------------------------


def test_product_set_interval(z1):
    A = zset(z1, [0, 1, 2])
    AB = product_set(A, A)
    assert [k[0] for k in AB.keys] == [0, 1, 2, 3, 4]
    assert deficiency(A, A) == -1


def test_product_set_klein_grid(klein):
    A = FiniteSubset.from_keys(klein, [(0, 0), (1, 0), (0, 1)])
    B = FiniteSubset.from_keys(klein, ((i, j) for i in range(3) for j in range(3)))
    assert len(product_set(A, B)) == 15
    assert deficiency(A, B) == 2 * 3 - 3


def test_product_set_free_enumerated(free2):
    A = FiniteSubset.from_keys(free2, [(), (1,)])
    B = FiniteSubset.from_keys(free2, [(), (2,)])
    AB = product_set(A, B)
    assert set(AB.keys) == {(), (1,), (2,), (1, 2)}
    assert len(AB) == 4


def test_product_set_errors(z1, klein):
    A = zset(z1, [0])
    with pytest.raises(DomainError):
        product_set(A, FiniteSubset(z1))
    with pytest.raises(UsageError):
        product_set(A, FiniteSubset.from_keys(klein, [(0, 0)]))


def right_subset(right, B):
    return FiniteSubset._from_keys(right.backend, tuple(right.keys[j] for j in B))


def test_product_table_matches_product_size(any_backend):
    rng = random.Random(41)
    window = any_backend.ball(2)
    n = len(window)

    # the square table, and a rectangular one against a random C
    for right in (window, random_subset(random.Random(43), any_backend, 3, 7)):
        table = ProductTable(window, right)
        Bs = [tuple(sorted(rng.sample(range(len(right)), rng.randint(1, 5)))) for _ in range(20)]
        for _ in range(20):
            A = tuple(sorted(rng.sample(range(n), rng.randint(1, 5))))
            expected = [product_size(table.subset(A), right_subset(right, B)) for B in Bs]
            assert [table.product_size(A, B) for B in Bs] == expected
        assert table.subset((0, n - 1)).keys == (window.keys[0], window.keys[-1])


def test_small_products_match_brute_force(any_backend):
    """The pruned walk yields exactly the filtered combinations loop, in its order."""
    rng = random.Random(47)
    window = random_subset(rng, any_backend, 3, 8)
    for right in (window, random_subset(random.Random(53), any_backend, 3, 7)):
        table = ProductTable(window, right)
        for _ in range(12):
            A = tuple(sorted(rng.sample(range(len(window)), rng.randint(1, 4))))
            lo = rng.randint(1, 3)
            hi = rng.randint(lo, 4)
            # from below the Kemperman value |A| - 1, where nothing is yielded, to well above it
            bound = len(A) - 1 + rng.randint(-1, 3)
            expected = []
            for size in range(lo, hi + 1):
                for B in itertools.combinations(range(len(right)), size):
                    size_ab = product_size(table.subset(A), right_subset(right, B))
                    if size_ab - size <= bound:
                        expected.append((B, size_ab))
            assert list(table.small_products(A, lo, hi, bound)) == expected


def test_small_products_keeps_prefixes_that_are_not_yet_tight():
    """On free:2, B = {a^-1 b, a b, b} is tight with A = {a^-1, a^-2}, while its
    lexicographic prefix {a^-1 b, a b} is not: the cut must wait for the room left to hi."""
    free2 = backend_from_spec("free:2")
    window = FiniteSubset.from_keys(free2, [(-1,), (-1, -2), (-1, -1), (-1, 2), (1,), (1, 2), (2,), (2, -1)])
    table = ProductTable(window, window)
    A, B = (0, 2), (3, 5, 6)
    assert table.product_size(A, B[:2]) - 2 > len(A) - 1
    assert (B, len(A) + len(B) - 1) in table.small_products(A, 2, 3, len(A) - 1)


def test_product_table_cap(z1):
    side = int(PRODUCT_TABLE_CAP ** 0.5)
    ProductTable(zset(z1, range(8)), zset(z1, range(8)))
    big = zset(z1, range(side + 1))
    with pytest.raises(ResourceLimitError):
        ProductTable(big, big)
    with pytest.raises(ResourceLimitError):
        ProductTable(zset(z1, range(64)), zset(z1, range(PRODUCT_TABLE_CAP // 64 + 1)))


def test_singleton_deficiency(any_backend):
    rng = random.Random(17)
    for _ in range(30):
        g = FiniteSubset.from_keys(any_backend, [rng.choice(any_backend.ball_keys(3))])
        B = random_subset(rng, any_backend, 3, rng.randint(1, 8))
        assert deficiency(g, B) == -1
        assert deficiency(B, g) == -1


def test_deficiency_translation_invariance(any_backend):
    rng = random.Random(23)
    for _ in range(25):
        A = random_subset(rng, any_backend, 2, rng.randint(1, 6))
        B = random_subset(rng, any_backend, 2, rng.randint(1, 6))
        x = any_backend.element(rng.choice(any_backend.ball_keys(2)))
        y = any_backend.element(rng.choice(any_backend.ball_keys(2)))
        assert deficiency(A.translate_left(x), B.translate_right(y)) == deficiency(A, B)


@pytest.mark.parametrize("spec, foreign", [("zd:2", "zd:3"), ("klein", "zd:2")])
def test_translate_by_a_foreign_element_is_usage_error(spec, foreign):
    A = FiniteSubset.from_keys(backend_from_spec(spec), [(0, 2), (1, 2)])
    g = backend_from_spec(foreign).generators[0]
    with pytest.raises(UsageError, match=f"^element does not belong to backend {spec}$"):
        A.translate_left(g)
    with pytest.raises(UsageError, match=f"^element does not belong to backend {spec}$"):
        A.translate_right(g)


@pytest.mark.parametrize("spec, foreign", [("zd:2", "zd:3"), ("klein", "zd:2"), ("heis", "klein"), ("free:2", "free:3")])
def test_an_element_of_another_backend_is_usage_error(spec, foreign):
    backend = backend_from_spec(spec)
    U = FiniteSubset(backend, backend.generators)
    message = f"^element does not belong to backend {spec}$"
    for g in (backend_from_spec(foreign).generators[0], backend.identity_key):
        with pytest.raises(UsageError, match=message):
            FiniteSubset(backend, [backend.identity, g])
        with pytest.raises(UsageError, match=message):
            U.translate_left(g)
        with pytest.raises(UsageError, match=message):
            U.translate_right(g)


def test_kempermann_small_fuzz(any_backend):
    rng = random.Random(31)
    for _ in range(300):
        A = random_subset(rng, any_backend, 3, rng.randint(1, 10))
        B = random_subset(rng, any_backend, 3, rng.randint(1, 10))
        assert deficiency(A, B) >= -1


# -- progression detection --------------------------------------------------------


def test_detect_progression_z(z1):
    desc = detect_progression(zset(z1, [2, 5, 8, 11]))
    assert desc is not None
    assert (desc.base.key, desc.ratio.key, desc.length) == ((2,), (3,), 4)
    assert desc.expand() == zset(z1, [2, 5, 8, 11])


def test_detect_progression_klein_even_powers(klein):
    A = FiniteSubset.from_keys(klein, [(0, 0), (2, 0), (4, 0)])
    desc = detect_progression(A)
    assert desc is not None
    assert (desc.base.key, desc.ratio.key, desc.length) == ((0, 0), (2, 0), 3)
    assert desc.expand() == A


def test_detect_progression_triple_none(klein):
    A = FiniteSubset.from_keys(klein, [(0, 0), (1, 0), (0, 1)])
    assert detect_progression(A) is None
    # oracle: no descriptor with base and ratio in ball(3) expands to A
    for base in klein.ball_keys(3):
        for ratio in klein.ball_keys(3):
            if ratio == klein.identity_key:
                continue
            if klein.mul_key(base, ratio) != klein.mul_key(ratio, base):
                continue
            keys = []
            cur = base
            for _ in range(3):
                keys.append(cur)
                cur = klein.mul_key(cur, ratio)
            assert set(keys) != set(A.keys)


def test_detect_progression_singleton_convention(any_backend):
    g = any_backend.generators[0]
    A = FiniteSubset(any_backend, [g])
    desc = detect_progression(A)
    assert desc.length == 1
    assert desc.base == g
    assert desc.expand() == A


def test_detect_round_trip_random(any_backend):
    rng = random.Random(41)
    gens = any_backend.generator_keys()
    for _ in range(40):
        ratio = any_backend.pow_key(rng.choice(gens), rng.choice((1, 2, -1)))
        length = rng.randint(2, 5)
        base = any_backend.pow_key(ratio, rng.randint(-2, 2))
        keys = []
        cur = base
        for _ in range(length):
            keys.append(cur)
            cur = any_backend.mul_key(cur, ratio)
        A = FiniteSubset.from_keys(any_backend, keys)
        desc = detect_progression(A)
        assert desc is not None
        assert desc.expand() == A
        assert desc.base * desc.ratio == desc.ratio * desc.base


def test_progression_ratios_pair(klein):
    A = FiniteSubset.from_keys(klein, [(0, 0), (2, 0)])
    ratios = {r.key for r in progression_ratios(A)}
    assert (2, 0) in ratios and (-2, 0) in ratios


# -- covering ----------------------------------------------------------------------


def test_min_cover_examples(z1, klein):
    assert min_progression_cover(zset(z1, [0, 2, 6])) == 4
    assert min_progression_cover(zset(z1, [0, 1, 2])) == 3
    A = FiniteSubset.from_keys(klein, [(0, 0), (1, 0), (0, 1)])
    assert min_progression_cover(A) is None


def test_min_cover_matches_z_oracle(z1):
    rng = random.Random(53)
    for _ in range(120):
        values = sorted(rng.sample(range(-12, 13), rng.randint(2, 6)))
        got = min_progression_cover(zset(z1, values))
        assert got == z_min_cover_oracle(values)


def test_min_cover_lattice_pair(z2):
    A = FiniteSubset.from_keys(z2, [(0, 0), (2, 4)])
    assert min_progression_cover(A) == 2


def bounded_cover_oracle(A, base_radius, ratio_radius, max_length):
    """Shortest covering progression with base and ratio in bounded balls."""
    backend = A.backend
    target = set(A.keys)
    best = None
    for base in backend.ball_keys(base_radius):
        for ratio in backend.ball_keys(ratio_radius):
            if ratio == backend.identity_key:
                continue
            if backend.mul_key(base, ratio) != backend.mul_key(ratio, base):
                continue
            keys = []
            cur = base
            for length in range(1, max_length + 1):
                keys.append(cur)
                cur = backend.mul_key(cur, ratio)
                if target <= set(keys):
                    if best is None or length < best:
                        best = length
                    break
    return best


def test_min_cover_not_beaten_by_bounded_oracle(any_backend):
    # completeness of the cyclic-root covers: no progression with base
    # and ratio in small balls covers A more tightly
    rng = random.Random(79)
    ball = any_backend.ball_keys(2)
    for _ in range(15):
        A = FiniteSubset.from_keys(any_backend, rng.sample(ball, rng.randint(2, 4)))
        got = min_progression_cover(A)
        oracle = bounded_cover_oracle(A, 3, 3, 10)
        if got is None:
            assert oracle is None
        else:
            assert oracle is None or got <= oracle


def test_detect_progression_matches_bounded_oracle(any_backend):
    # exactness: whenever a bounded-descriptor expansion equals A, detection
    # must succeed, and vice versa detection output always expands to A
    rng = random.Random(83)
    ball = any_backend.ball_keys(2)
    for _ in range(15):
        A = FiniteSubset.from_keys(any_backend, rng.sample(ball, rng.randint(2, 4)))
        desc = detect_progression(A)
        if desc is not None:
            assert desc.expand() == A
            continue
        backend = any_backend
        target = set(A.keys)
        for base in backend.ball_keys(2):
            for ratio in backend.ball_keys(2):
                if ratio == backend.identity_key:
                    continue
                if backend.mul_key(base, ratio) != backend.mul_key(ratio, base):
                    continue
                keys = []
                cur = base
                for _ in range(len(A)):
                    keys.append(cur)
                    cur = backend.mul_key(cur, ratio)
                assert set(keys) != target, (A.keys, base, ratio)


# -- dimension -----------------------------------------------------------------------


def test_dimension_examples(z2):
    z3 = backend_from_spec("zd:3")
    A = FiniteSubset.from_keys(z2, [(0, 0), (1, 0), (0, 1)])
    assert dimension(A) == 2
    B = FiniteSubset.from_keys(z3, [(0, 0, 0), (2, 4, 6), (1, 2, 3)])
    assert dimension(B) == 1
    single = FiniteSubset.from_keys(z2, [(5, -2)])
    assert dimension(single) == 0


def test_dimension_non_abelian_rejected(klein):
    with pytest.raises(UnsupportedOperationError):
        dimension(FiniteSubset.from_keys(klein, [(0, 0)]))


def test_dimension_monotone_under_products(z2):
    rng = random.Random(61)
    for _ in range(40):
        A = random_subset(rng, z2, 2, rng.randint(1, 5))
        B = random_subset(rng, z2, 2, rng.randint(1, 5))
        assert dimension(A) <= dimension(product_set(A, B))


def fraction_dimension_oracle(A):
    """Rank of rational Gaussian elimination over every difference a - a0."""
    a0 = A.keys[0]
    echelon, pivots = [], []
    for key in A.keys[1:]:
        vec = [Fraction(x - y) for x, y in zip(key, a0)]
        for row, pivot in zip(echelon, pivots):
            if vec[pivot]:
                factor = vec[pivot] / row[pivot]
                vec = [v - factor * r for v, r in zip(vec, row)]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is not None:
            echelon.append(vec)
            pivots.append(pivot)
    return len(echelon)


DIMENSION_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
LATTICES = {d: backend_from_spec(f"zd:{d}") for d in range(1, 7)}


@st.composite
def sublattice_sets(draw):
    """Points a0 + sum c_i g_i on a random sublattice of rank 0..d."""
    d = draw(st.integers(1, 6))
    rank = draw(st.integers(0, d))
    coord = st.integers(-4, 4)
    gens = [draw(st.lists(coord, min_size=d, max_size=d)) for _ in range(rank)]
    a0 = draw(st.lists(coord, min_size=d, max_size=d))
    points = [a0]
    for _ in range(draw(st.integers(0, 12))):
        coeffs = [draw(st.integers(-3, 3)) for _ in gens]
        points.append([x + sum(c * g[i] for c, g in zip(coeffs, gens)) for i, x in enumerate(a0)])
    return FiniteSubset.from_keys(LATTICES[d], [tuple(p) for p in points])


@st.composite
def wide_sets(draw):
    """Arbitrary points with coordinates up to 10^6."""
    d = draw(st.integers(1, 6))
    point = st.tuples(*[st.integers(-10**6, 10**6)] * d)
    return FiniteSubset.from_keys(LATTICES[d], draw(st.lists(point, min_size=1, max_size=12)))


@st.composite
def early_full_rank_sets(draw):
    """a0, then a0 + c_i e_i for i = d..1, then later keys: rank d is reached before them."""
    d = draw(st.integers(1, 6))
    a0 = draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d))
    steps = [draw(st.integers(1, 50)) for _ in range(d)]
    points = [tuple(a0)]
    for i in reversed(range(d)):
        points.append(tuple(x + (steps[i] if j == i else 0) for j, x in enumerate(a0)))
    first = a0[0] + steps[0] + 1
    tail = st.tuples(st.integers(first, first + 20), *[st.integers(-10**3, 10**3)] * (d - 1))
    points += draw(st.lists(tail, min_size=1, max_size=20))
    A = FiniteSubset.from_keys(LATTICES[d], points)
    assert A.keys[: d + 1] == tuple(sorted(points[: d + 1]))
    return A


@pytest.mark.parametrize("sets", [sublattice_sets(), wide_sets(), early_full_rank_sets()],
                         ids=["sublattice", "wide", "early_full_rank"])
def test_dimension_matches_fraction_elimination(sets):
    @DIMENSION_SETTINGS
    @given(sets)
    def check(A):
        assert dimension(A) == fraction_dimension_oracle(A)

    check()


# -- cyclic hull -----------------------------------------------------------------------


def test_cyclic_hull_examples(z2, free2, klein):
    A = FiniteSubset.from_keys(z2, [(0, 0), (2, 4), (3, 6)])
    witness = cyclic_hull_contains(A)
    assert witness is not None
    g, h = witness
    assert (g.key, h.key) == ((0, 0), (1, 2))
    B = FiniteSubset.from_keys(free2, [(), (1,), (2,)])
    assert cyclic_hull_contains(B) is None
    assert not bounded_hull_oracle(B)
    C = FiniteSubset.from_keys(klein, [(0, 0), (1, 0), (0, 1)])
    assert cyclic_hull_contains(C) is None
    assert not bounded_hull_oracle(C)


def test_cyclic_hull_witness_is_sound(any_backend):
    rng = random.Random(67)
    for _ in range(60):
        A = random_subset(rng, any_backend, 2, rng.randint(1, 4))
        witness = cyclic_hull_contains(A)
        if witness is None:
            continue
        g, h = witness
        for a in A:
            assert any_backend.in_cyclic(g.inverse() * a, h) is not None


def test_cyclic_hull_complete_against_bounded_oracle(any_backend):
    # soundness of returned witnesses is tested above; here: whenever the
    # bounded oracle finds a containing coset, the implementation must too
    rng = random.Random(71)
    for _ in range(40):
        A = random_subset(rng, any_backend, 2, rng.randint(1, 4))
        if cyclic_hull_contains(A) is None:
            assert not bounded_hull_oracle(A, search_radius=4, power_bound=10)


def test_cyclic_hull_singleton(any_backend):
    g = any_backend.generators[-1]
    witness = cyclic_hull_contains(FiniteSubset(any_backend, [g]))
    assert witness is not None and witness[0] == g


def test_cyclic_hull_exotic_klein_roots(klein):
    # u^2 and (1, 5) share the cyclic subgroup of (1, 5) but not of (1, 0)
    A = FiniteSubset.from_keys(klein, [(0, 0), (2, 0), (1, 5)])
    witness = cyclic_hull_contains(A)
    assert witness is not None
    assert witness[1].key == (1, 5)


# -- set text round trip ----------------------------------------------------------------


def test_set_file_round_trip(tmp_path, klein):
    S = FiniteSubset.from_keys(klein, [(0, 0), (1, -2), (3, 1)])
    path = tmp_path / "set.txt"
    S.to_file(path)
    assert FiniteSubset.from_file(klein, path) == S


def test_set_text_comments_and_blanks(z1):
    text = "# header\n\n(1)\n(2)  # trailing note\n\n"
    S = FiniteSubset.from_text(z1, text)
    assert [k[0] for k in S.keys] == [1, 2]


def test_set_text_error_position(z1):
    try:
        FiniteSubset.from_text(z1, "(1)\npear\n")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected a parse error")
