"""Backend arithmetic: normal forms, roots, cyclic membership, balls."""

import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab import setops
from sumsetlab.errors import DomainError, ParseError, ResourceLimitError, UsageError
from sumsetlab.groups import WORD_LENGTH_CAP, FreeBackend, backend_from_spec
from sumsetlab.setops import FiniteSubset, product_set, product_size


# -- oracles ---------------------------------------------------------------


def klein_rewrite_oracle(letters):
    """Normal form of a word over u, v by single-letter swaps.

    Uses v^e u^f = u^f v^(-e) for single letters (f = +-1), pushing every
    u-letter to the left, then sums exponents.
    """
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            (l1, e1), (l2, e2) = word[i], word[i + 1]
            if l1 == "v" and l2 == "u":
                word[i], word[i + 1] = (l2, e2), (l1, -e1)
                changed = True
                break
    a = sum(e for l, e in word if l == "u")
    b = sum(e for l, e in word if l == "v")
    return (a, b)


def enumerated_ball_oracle(backend, radius):
    """All normal forms of words of length <= radius, via plain recursion."""
    steps = []
    for k in backend.generator_keys():
        steps.append(k)
        steps.append(backend.inv_key(k))
    out = {backend.identity_key}

    def rec(key, depth):
        if depth == 0:
            return
        for s in steps:
            nk = backend.mul_key(key, s)
            out.add(nk)
            rec(nk, depth - 1)

    rec(backend.identity_key, radius)
    return tuple(sorted(out))


def max_exponent_oracle(backend, g_key, pool, bound):
    """Largest e <= bound with h^e == g for some h in the pool."""
    best = None
    for e in range(1, bound + 1):
        for h in pool:
            if h == backend.identity_key:
                continue
            if backend.pow_key(h, e) == g_key:
                best = e
                break
    return best


# -- multiplication, inversion, powers --------------------------------------


def test_klein_relator_and_derived_products(klein):
    u, v = klein.generators
    assert u ** -1 * v * u == v ** -1
    assert v * u == klein.parse("u v^-1")
    assert (v * u).key == (1, -1)
    assert v ** -1 * u == u * v


def test_klein_multiply_matches_rewriting_oracle(klein):
    rng = random.Random(11)
    letters = [("u", 1), ("u", -1), ("v", 1), ("v", -1)]
    for _ in range(300):
        word = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
        folded = klein.identity_key
        for letter, e in word:
            gen = (1, 0) if letter == "u" else (0, 1)
            folded = klein.mul_key(folded, klein.pow_key(gen, e))
        assert folded == klein_rewrite_oracle(word)


def test_klein_uv_squared(klein):
    uv = klein.parse("u v")
    assert uv * uv == klein.parse("u^2")
    assert (uv ** 2).key == (2, 0)


def test_identity_laws(any_backend):
    e = any_backend.identity
    for g in any_backend.ball(2):
        assert g * e == g
        assert e * g == g
        g_inv = any_backend.element(any_backend.inv_key(g.key))
        assert g * g_inv == e
        assert g_inv * g == e


def test_multiply_rejects_backend_mix(z1, klein):
    with pytest.raises(UsageError):
        z1.generators[0] * klein.generators[0]


def test_associativity_fuzz(any_backend):
    rng = random.Random("assoc:" + any_backend.spec)
    ball = any_backend.ball_keys(3)
    mul = any_backend.mul_key
    for _ in range(10_000):
        g, h, i = (rng.choice(ball) for _ in range(3))
        assert mul(mul(g, h), i) == mul(g, mul(h, i))


def test_invert_examples(z2, klein, free2):
    assert z2.parse("(3,-1)") ** -1 == z2.parse("(-3,1)")
    assert free2.parse("a b^-1") ** -1 == free2.parse("b a^-1")
    for g in klein.ball(4):
        assert g * g ** -1 == klein.identity


def test_klein_inverse_closed_form(klein):
    for a in range(-4, 5):
        for b in range(-4, 5):
            g = klein.element((a, b))
            expected = (-a, -b if a % 2 == 0 else b)
            assert klein.inv_key(g.key) == expected


def test_power_examples(z2, klein, any_backend):
    assert klein.parse("u v") ** 2 == klein.parse("u^2")
    assert (z2.parse("(1,2)") ** 3).key == (3, 6)
    assert any_backend.generators[0] ** 0 == any_backend.identity


@pytest.mark.parametrize("exponent", [0.5, 2.5, 2.0, True, "2", None])
def test_power_by_a_non_integer_is_a_usage_error(any_backend, exponent):
    # klein's pow_key would give u ** 0.5 the key (0.5, 0), which is no normal form
    with pytest.raises(UsageError, match="an exponent must be an integer, got "):
        any_backend.generators[0] ** exponent


def test_power_matches_iterated_multiply(any_backend):
    rng = random.Random(5)
    ball = any_backend.ball_keys(3)
    for _ in range(120):
        g = rng.choice(ball)
        n = rng.randint(-40, 40)
        direct = any_backend.pow_key(g, n)
        step = g if n >= 0 else any_backend.inv_key(g)
        acc = any_backend.identity_key
        for _ in range(abs(n)):
            acc = any_backend.mul_key(acc, step)
        assert direct == acc


def test_torsion_free_witness(any_backend):
    for g in any_backend.ball_keys(4):
        if g == any_backend.identity_key:
            continue
        for n in range(2, 7):
            assert any_backend.pow_key(g, n) != any_backend.identity_key


# -- primitive roots ---------------------------------------------------------


def test_primitive_root_examples(z2, free2, klein):
    root, e = z2.primitive_root(z2.parse("(4,6)"))
    assert (root.key, e) == ((2, 3), 2)
    root, e = free2.primitive_root(free2.parse("a b a b"))
    assert (str(root), e) == ("a b", 2)
    root, e = klein.primitive_root(klein.parse("u^4"))
    assert (root.key, e) == ((1, 0), 4)


def test_primitive_root_identity_rejected(any_backend):
    with pytest.raises(DomainError):
        any_backend.primitive_root(any_backend.identity)


def test_primitive_root_soundness(any_backend):
    for g in any_backend.ball(4):
        if g == any_backend.identity:
            continue
        root, e = any_backend.primitive_root(g)
        assert e >= 1
        assert root ** e == g


def test_free_primitive_root_exhaustive_subword_oracle(free2):
    # brute force: the primitive root of a cyclically reduced word is the
    # shortest prefix whose literal power reconstructs it
    rng = random.Random(3)
    ball = [k for k in free2.ball_keys(5) if k]
    for _ in range(150):
        w = rng.choice(ball)
        root, e = free2.primitive_root_key(w)
        s, core = free2._cyclic_reduce(w)
        best = None
        for length in range(1, len(core) + 1):
            if len(core) % length == 0 and core[:length] * (len(core) // length) == core:
                best = len(core) // length
                break
        assert e == best
        assert free2.pow_key(root, e) == w


def test_klein_primitive_root_deep_cases(klein):
    # even u-exponent with nonzero v-exponent: roots have even u-exponent,
    # so the maximal exponent is gcd(a/2, b)
    cases = {
        (4, 2): ((2, 1), 2),
        (8, 4): ((2, 1), 4),
        (12, 8): ((6, 4), 2),
        (6, 3): ((2, 1), 3),
        (-4, 2): ((-2, 1), 2),
        (2, 6): ((2, 6), 1),
    }
    for key, expected in cases.items():
        assert klein.primitive_root_key(key) == expected
    # exhaustive key-grid oracle: max e <= 12 with h^e = g over all small keys
    pool = [(c, d) for c in range(-12, 13) for d in range(-12, 13) if (c, d) != (0, 0)]
    for key in cases:
        root, e = klein.primitive_root_key(key)
        assert klein.pow_key(root, e) == key
        oracle = max(exp for exp in range(1, 13) for h in pool if klein.pow_key(h, exp) == key)
        assert oracle == e


def test_heisenberg_primitive_root_deep_cases(heis):
    cases = {
        (2, 2, 3): ((1, 1, 1), 2),
        (0, 0, 6): ((0, 0, 1), 6),
        (2, 4, 6): ((1, 2, 2), 2),
        (2, 4, 5): ((2, 4, 5), 1),
        (3, 6, 12): ((1, 2, 2), 3),
        (-2, 2, 1): ((-1, 1, 1), 2),
        (-2, 2, 0): ((-2, 2, 0), 1),
    }
    for key, expected in cases.items():
        assert heis.primitive_root_key(key) == expected
    pool = [
        (x, y, z)
        for x in range(-3, 4)
        for y in range(-6, 7)
        for z in range(-12, 13)
        if (x, y, z) != (0, 0, 0)
    ]
    for key in cases:
        root, e = heis.primitive_root_key(key)
        assert heis.pow_key(root, e) == key
        oracle = max(exp for exp in range(1, 13) for h in pool if heis.pow_key(h, exp) == key)
        assert oracle == e


def test_primitive_root_maximality_brute_force(any_backend):
    pool = any_backend.ball_keys(6 if any_backend.spec == "heis" else 4)
    for g in any_backend.ball_keys(3):
        if g == any_backend.identity_key:
            continue
        root, e = any_backend.primitive_root_key(g)
        oracle = max_exponent_oracle(any_backend, g, pool, 12)
        assert root in pool, f"root of {g} not inside the oracle pool"
        assert oracle == e


def heis_root_oracle(key):
    """The primitive root by trying every divisor e of gcd(x, y), largest first."""
    x, y, z = key
    t = math.gcd(x, y)
    for e in sorted((d for d in range(1, abs(t) + 1) if t % d == 0), reverse=True):
        px, py = x // e, y // e
        num = z - (e * (e - 1) // 2) * px * py
        if num % e == 0:
            return (px, py, num // e), e


def test_heisenberg_root_matches_divisor_search(heis):
    rng = random.Random(19)
    for _ in range(3000):
        if rng.random() < 0.5:
            g = (rng.randint(-200, 200), rng.randint(-200, 200), rng.randint(-10**4, 10**4))
        else:
            h = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-50, 50))
            g = heis.pow_key(h, rng.randint(1, 16))
        if g[:2] != (0, 0):
            assert heis.primitive_root_key(g) == heis_root_oracle(g), g


def test_heisenberg_root_at_large_exponents(heis):
    rng = random.Random(20)
    for _ in range(500):
        h = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-50, 50))
        if h[:2] == (0, 0) or heis.primitive_root_key(h)[1] != 1:
            continue
        e = rng.randint(1, 2**60)
        g = heis.pow_key(h, e)
        root, exponent = heis.primitive_root_key(g)
        # heis roots are unique, so a root that is its own primitive root shows e is maximal
        assert heis.pow_key(root, exponent) == g
        assert heis.primitive_root_key(root)[1] == 1
        assert (root, exponent) == (h, e)
    assert heis.primitive_root_key(heis.pow_key((3, 5, 11), 9 * 2**60)) == ((3, 5, 11), 9 * 2**60)


def test_heisenberg_root_past_2_to_the_40(heis):
    # trial division would need 2^20 steps; the closed form needs none
    assert heis.primitive_root_key((2**41, 2**41, 0)) == ((2, 2, 2 - 2**41), 2**40)


# -- cyclic membership --------------------------------------------------------


def test_in_cyclic_examples(z2, klein, free2):
    assert z2.in_cyclic(z2.parse("(6,9)"), z2.parse("(2,3)")) == 3
    assert klein.in_cyclic(klein.parse("u^2"), klein.parse("u v")) == 2
    assert free2.in_cyclic(free2.parse("a b"), free2.parse("b a")) is None


def test_in_cyclic_identity_rules(any_backend):
    e = any_backend.identity
    g = any_backend.generators[0]
    assert any_backend.in_cyclic(e, e) == 0
    assert any_backend.in_cyclic(e, g) == 0
    with pytest.raises(DomainError):
        any_backend.in_cyclic(g, e)


def test_in_cyclic_matches_bounded_brute_force(any_backend):
    ball = any_backend.ball_keys(3)
    id_key = any_backend.identity_key
    for h in ball:
        if h == id_key:
            continue
        # h^k by repeated multiplication, independent of pow_key
        powers = {id_key: 0}
        for step, sign in ((h, 1), (any_backend.inv_key(h), -1)):
            acc = id_key
            for k in range(1, 13):
                acc = any_backend.mul_key(acc, step)
                powers.setdefault(acc, sign * k)
        for g in ball:
            got = any_backend.in_cyclic_key(g, h)
            want = powers.get(g)
            assert got == want, f"in_cyclic({g}, {h}) = {got}, brute force {want}"


@pytest.mark.parametrize("spec, g, h, k", [
    ("zd:2", (2 * 10**9, 3 * 10**9), (2, 3), 10**9),
    ("zd:2", (2 * 10**9, 3 * 10**9 + 1), (2, 3), None),
    # h zero in its first coordinate: k comes from the second
    ("klein", (0, 5 * 10**9), (0, 5), 10**9),
    # odd u-exponent: an even power drops the v-coordinate
    ("klein", (2 * 10**9, 0), (1, 7), 2 * 10**9),
    ("heis", (0, 10**9, 2 * 10**9), (0, 1, 2), 10**9),
    ("heis", (0, 0, 7 * 10**9), (0, 0, 7), 10**9),
])
def test_in_cyclic_exact_at_large_exponents(spec, g, h, k):
    assert backend_from_spec(spec).in_cyclic_key(g, h) == k


# -- balls ---------------------------------------------------------------------


def test_ball_examples(z1, free2, klein):
    assert [g.key for g in z1.ball(2)] == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(free2.ball(1)) == 5
    assert len(klein.ball(0)) == 1
    assert klein.ball_keys(2) == enumerated_ball_oracle(klein, 2)
    assert len(klein.ball(2)) == 13


def test_ball_matches_word_enumeration_oracle(any_backend):
    for radius in range(4):
        assert any_backend.ball_keys(radius) == enumerated_ball_oracle(any_backend, radius)


def test_lattice_and_free_ball_closed_forms(z2, free2):
    for r in range(7):
        assert len(z2.ball_keys(r)) == 2 * r * r + 2 * r + 1
    for r in range(5):
        expected = 1 + 2 * (3 ** r - 1)  # 1 + 2k((2k-1)^r - 1)/(2k-2) at k = 2
        assert len(free2.ball_keys(r)) == expected


def test_ball_cap(any_backend):
    with pytest.raises(ResourceLimitError):
        any_backend.ball(13)
    with pytest.raises(DomainError):
        any_backend.ball(-1)


def test_ball_element_cap(monkeypatch):
    from sumsetlab import groups

    # free:2's radius-4 ball has 161 elements; a fresh backend has no cached balls
    monkeypatch.setattr(groups, "BALL_ELEMENT_CAP", 100)
    free2 = groups.FreeBackend(2)
    assert len(free2.ball_keys(3)) == 53
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="100 elements"):
            free2.ball_keys(4)
    assert 4 not in free2._ball_cache


# -- product kernels -------------------------------------------------------------

KERNEL_SPECS = ("zd:1", "zd:2", "zd:3", "klein", "heis", "free:2", "free:3")


def element_keys(backend):
    """Normal forms of a backend: small coordinates, or reduced words of up to 6 letters."""
    if isinstance(backend, FreeBackend):
        letters = [i for i in range(-backend.rank, backend.rank + 1) if i]
        return st.lists(st.sampled_from(letters), max_size=6).map(
            lambda word: functools.reduce(backend.mul_key, [(x,) for x in word], ()))
    arity = len(backend.identity_key)
    return st.tuples(*[st.integers(-9, 9)] * arity)


def assert_products_match_mul_key(backend, A, B):
    mul = backend.mul_key
    expected = {mul(a, b) for a in A for b in B}
    assert backend.product_keys(A, B) == expected
    SA, SB = FiniteSubset.from_keys(backend, A), FiniteSubset.from_keys(backend, B)
    assert product_set(SA, SB).keys == tuple(sorted(expected))
    assert product_size(SA, SB) == len(expected)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data(), spec=st.sampled_from(KERNEL_SPECS))
def test_product_keys_matches_mul_key(spec, data):
    backend = backend_from_spec(spec)
    A = data.draw(st.lists(element_keys(backend), min_size=1, max_size=10, unique=True))
    B = data.draw(st.lists(element_keys(backend), max_size=10, unique=True))
    # the identity, and inverses of A so some products cancel to the identity
    B = list(dict.fromkeys(B + [backend.identity_key] + [backend.inv_key(a) for a in A[:3]]))
    assert_products_match_mul_key(backend, A, B)
    assert_products_match_mul_key(backend, B, A)


@pytest.mark.parametrize("spec, A, B", [
    # odd negative u-exponents flip the v-exponent, even ones keep it
    ("klein", [(-3, 2), (-1, -5), (0, 0), (2, 7)], [(-1, 4), (-3, -2), (-2, 1), (0, 0)]),
    # w w^-1 cancels completely, and partial cancellation leaves a short word
    ("free:2", [(1, 2, -1), (2,), (), (-1, -1)], [(1, -2, -1), (-2, 1), (1, 1), (-2,)]),
    ("free:3", [(3, -2, 1), (-3,)], [(-1, 2, -3), (3, 3), ()]),
    ("zd:3", [(0, 0, 0), (-4, 2, 9)], [(4, -2, -9), (1, 1, 1)]),
    ("heis", [(-2, 3, -1), (1, -1, 5)], [(2, -3, -5), (-1, 1, -6), (0, 0, 0)]),
])
def test_product_keys_edge_cases(spec, A, B):
    backend = backend_from_spec(spec)
    assert_products_match_mul_key(backend, A, B)
    assert backend.identity_key in backend.product_keys(A, B)


def takes_grid(backend, A, B):
    return setops._grid(FiniteSubset.from_keys(backend, A), FiniteSubset.from_keys(backend, B)) is not None


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), spec=st.sampled_from(["zd:1", "zd:2", "zd:3", "klein"]))
def test_grid_sized_products_match_mul_key(spec, data):
    # at least 144 pairs, where dense draws take the grid and spread-out ones the set path
    backend = backend_from_spec(spec)
    A = data.draw(st.lists(element_keys(backend), min_size=12, max_size=19, unique=True))
    B = data.draw(st.lists(element_keys(backend), min_size=12, max_size=19, unique=True))
    assert_products_match_mul_key(backend, A, B)
    assert_products_match_mul_key(backend, B, A)


KLEIN_LEFT = [(c, d) for c in range(-5, 1) for d in (-2, 1)]  # u-exponents -5..0
KLEIN_RIGHT = [(c, d) for c in (-3, -1, 2) for d in range(-2, 2)]


@pytest.mark.parametrize("spec, A, B", [
    ("zd:1", [(x,) for x in range(-9, 9) if x % 3], [(x,) for x in range(-9, 14, 2)]),
    # a grid of more bits than Python's default limit on decimal digits
    ("zd:1", [(x,) for x in range(100)], [(x,) for x in range(0, 5000, 50)]),
    ("zd:3", [(x, y, z) for x in range(-1, 2) for y in range(2) for z in range(-2, 1)],
     [(x, y, z) for x in (0, 2) for y in (-1, 1) for z in (0, 3)]),
    # negative odd u-exponents on both sides, so both of B's parts are used
    ("klein", KLEIN_LEFT, KLEIN_RIGHT),
    ("klein", [(c, d) for c in (-5, -3, -1) for d in (-2, 0, 1, 3)], KLEIN_RIGHT + [(-7, 5), (-9, 0)]),
    # 1x1 and 3x5 products take the grid too; each 3x5 B holds both u-parities, and
    # each klein 1x1 row one of each, so that B's two parts are used across both orders
    ("zd:2", [(2, -1)], [(-3, 4)]),
    ("zd:2", [(0, 0), (1, 2), (-1, 1)], [(0, 1), (1, 0), (2, -1), (-3, 2), (1, 1)]),
    ("klein", [(2, 3)], [(-1, 1)]),
    ("klein", [(0, 0), (2, 2), (-2, 1)], [(0, 1), (1, 0), (2, -1), (-3, 2), (1, 1)]),
])
def test_dense_products_take_the_grid(spec, A, B):
    backend = backend_from_spec(spec)
    assert takes_grid(backend, A, B) and takes_grid(backend, B, A)
    assert_products_match_mul_key(backend, A, B)
    assert_products_match_mul_key(backend, B, A)


ORIGIN_BLOCK = {"zd:1": [(x,) for x in range(1, 13)], "zd:2": [(x, y) for x in range(3) for y in range(1, 5)],
                "klein": [(x, y) for x in range(-1, 2) for y in range(1, 5)]}


@pytest.mark.parametrize("spec, sparse", [
    ("zd:1", [(0,), (10**16,), (2 * 10**16,), (3 * 10**16,)]),
    ("zd:2", [(0, 0), (10**12, 0)]),
    ("klein", [(0, 0), (2**41, 1)]),
])
def test_sparse_products_take_the_set_path(spec, sparse):
    backend = backend_from_spec(spec)
    assert_products_match_mul_key(backend, sparse, sparse)
    # a block at the origin adds pairs, but the box is still too big
    A = sparse + ORIGIN_BLOCK[spec]
    assert not takes_grid(backend, A, A)
    assert_products_match_mul_key(backend, A, A)


@pytest.mark.parametrize("spec, A, B, top", [
    # 8 translates of A, bits = 16 + t, 128 pairs
    ("zd:1", [(y,) for y in range(16)], lambda t: [(y,) for y in range(7)] + [(t,)], lambda K: 16 * K - 16),
    # 8 translates of A, bits = 2 (16 + t), 128 pairs
    ("zd:2", [(0, y) for y in range(16)], lambda t: [(0, y) for y in range(7)] + [(1, t)], lambda K: 8 * K - 16),
    # 16 translates of each part, bits = 2 (t + 1), 128 pairs
    ("klein", [(0, y) for y in range(16)], lambda t: [(0, y) for y in range(7)] + [(1, t)], lambda K: 2 * K - 1),
])
def test_grid_size_rule_boundary(spec, A, B, top):
    """The grid is taken exactly when translates * bits <= GRID_BITS_PER_PAIR |A||B|."""
    backend = backend_from_spec(spec)
    t = top(setops.GRID_BITS_PER_PAIR)
    assert takes_grid(backend, A, B(t))
    assert not takes_grid(backend, A, B(t + 1))
    assert_products_match_mul_key(backend, A, B(t))
    assert_products_match_mul_key(backend, A, B(t + 1))


# -- parsing and printing -------------------------------------------------------


def test_round_trip_all_small_elements(any_backend):
    for g in any_backend.ball(3):
        assert any_backend.parse(str(g)) == g


def test_parse_errors(z2, klein, free2):
    with pytest.raises(ParseError):
        z2.parse("(1)")
    # re's \d and int() take any Unicode digit; coordinates and exponents are ASCII
    with pytest.raises(ParseError):
        z2.parse("(\u0663,0)")
    with pytest.raises(ParseError):
        klein.parse("u^\u0663")
    with pytest.raises(ParseError):
        z2.parse("1,2")
    with pytest.raises(ParseError):
        klein.parse("a")
    with pytest.raises(ParseError):
        free2.parse("c^2")
    with pytest.raises(ParseError):
        free2.parse("")
    err = None
    try:
        klein.parse("u ??")
    except ParseError as exc:
        err = exc
    assert err is not None and err.column == 3


def test_parse_key_integer_past_the_digit_limit_is_a_parse_error(z2, too_long_int):
    with pytest.raises(ParseError, match="digits exceeds the limit") as exc:
        z2.parse_key(f"(1, {too_long_int})", line=4)
    assert (exc.value.line, exc.value.column) == (4, 1)


def test_word_exponent_past_the_digit_limit_is_a_parse_error(klein, too_long_int):
    with pytest.raises(ParseError, match="digits exceeds the limit") as exc:
        klein.parse_key(f"v u^{too_long_int}", line=2)
    assert (exc.value.line, exc.value.column) == (2, 3)


def test_spec_parameter_past_the_digit_limit_is_a_usage_error(too_long_int):
    with pytest.raises(UsageError, match="^an integer of [0-9]+ digits exceeds the limit of [0-9]+$"):
        backend_from_spec("zd:" + too_long_int)


def test_free_word_past_the_length_cap_is_a_resource_limit(free2, klein, monkeypatch):
    assert WORD_LENGTH_CAP == 1 << 20
    assert len(free2.parse_key(f"b a^{WORD_LENGTH_CAP - 1}")) == WORD_LENGTH_CAP
    assert free2.parse_key(f"a^{WORD_LENGTH_CAP} a^-{WORD_LENGTH_CAP}") == ()
    # a Klein power is a pair of integers however large its exponent
    assert klein.parse_key(f"u^{10**30}") == (10**30, 0)
    # a refused exponent never reaches pow_key, so no long word is built first
    monkeypatch.setattr(FreeBackend, "pow_key", lambda self, a, n: pytest.fail(f"pow_key({a}, {n})"))
    with pytest.raises(ResourceLimitError, match="^a\\^1048577 has more than 1048576 letters$"):
        free2.parse_key(f"a^{WORD_LENGTH_CAP + 1}")


def test_free_word_growing_past_the_length_cap_is_a_resource_limit(free2):
    half = WORD_LENGTH_CAP // 2 + 1
    with pytest.raises(ResourceLimitError, match="^the word grows past 1048576 letters at b\\^"):
        free2.parse_key(f"a^{half} b^{half}")


def test_parse_normalizes_words(free2, klein):
    assert free2.parse("a a^-1 b").key == (2,)
    assert klein.parse("v u").key == (1, -1)
    assert str(klein.parse("u^0 v^0")) == "1"


def test_backend_spec_round_trip():
    for spec in ("zd:1", "zd:3", "free:2", "klein", "heis"):
        backend = backend_from_spec(spec)
        assert backend.spec == spec
        assert backend_from_spec(spec) is backend
    with pytest.raises(UsageError):
        backend_from_spec("zd:x")
    with pytest.raises(UsageError, match="bad numeric parameter"):
        backend_from_spec("zd:\u0661")
    with pytest.raises(UsageError):
        backend_from_spec("cyclic:5")


@pytest.mark.parametrize("spec", ["zd:0", "zd:65", "zd:1000000000000000000"])
def test_lattice_dimension_outside_1_to_64_is_a_usage_error(spec):
    with pytest.raises(UsageError, match="^lattice dimension must be between 1 and 64$"):
        backend_from_spec(spec)


def test_lattice_dimension_64_is_accepted():
    backend = backend_from_spec("zd:64")
    assert backend.identity_key == (0,) * 64
    assert backend.parse_key("(" + ",".join(["1"] * 64) + ")") == (1,) * 64


def test_check_key_rejects_malformed(z2, free2, klein, heis):
    from sumsetlab.setops import FiniteSubset

    with pytest.raises(UsageError):
        FiniteSubset.from_keys(z2, [(1,)])
    with pytest.raises(UsageError):
        FiniteSubset.from_keys(free2, [(1, -1)])  # unreduced word
    with pytest.raises(UsageError):
        FiniteSubset.from_keys(free2, [(3,)])  # letter out of range
    with pytest.raises(UsageError):
        FiniteSubset.from_keys(klein, [(1, 2, 3)])
    with pytest.raises(UsageError):
        FiniteSubset.from_keys(heis, [(1, 2)])
    assert len(FiniteSubset.from_keys(free2, [(1, 2, 1)])) == 1


# per backend: a float, a bool and a str coordinate, the wrong arity (a free
# word has none, so free:2 has an unreduced word and a letter past the rank
# in its place) and a key that is not a tuple
RAW_KEYS_THAT_ARE_NO_NORMAL_FORM = [
    ("zd:2", (0.5, 0)), ("zd:2", (True, 0)), ("zd:2", ("0", 0)), ("zd:2", (0, 0, 0)), ("zd:2", [0, 0]),
    ("klein", (0.5, 0)), ("klein", (0, True)), ("klein", ("0", 0)), ("klein", (0,)), ("klein", [0, 0]),
    ("heis", (0, 0, 0.5)), ("heis", (True, 0, 0)), ("heis", (0, "0", 0)), ("heis", (0, 0)), ("heis", [0, 0, 0]),
    ("free:2", (0.5,)), ("free:2", (True,)), ("free:2", ("a",)), ("free:2", (1, -1)), ("free:2", (3,)), ("free:2", [1]),
]


@pytest.mark.parametrize("spec, key", RAW_KEYS_THAT_ARE_NO_NORMAL_FORM, ids=repr)
def test_element_refuses_a_key_that_is_no_normal_form(spec, key):
    with pytest.raises(UsageError, match="^.* is not a "):
        backend_from_spec(spec).element(key)


@pytest.mark.parametrize("spec, key", RAW_KEYS_THAT_ARE_NO_NORMAL_FORM, ids=repr)
def test_from_keys_refuses_a_key_that_is_no_normal_form(spec, key):
    backend = backend_from_spec(spec)
    with pytest.raises(UsageError, match="^.* is not a "):
        FiniteSubset.from_keys(backend, [backend.identity_key, key])


def test_primitive_root_and_in_cyclic_refuse_an_element_of_another_backend(z2, klein):
    g, h = klein.generators
    with pytest.raises(UsageError, match="^element does not belong to backend zd:2$"):
        z2.primitive_root(g)
    with pytest.raises(UsageError, match="^element does not belong to backend zd:2$"):
        z2.in_cyclic(g, z2.generators[0])
    with pytest.raises(UsageError, match="^element does not belong to backend zd:2$"):
        z2.in_cyclic(z2.generators[0], h)


def test_heisenberg_cross_term(heis):
    x, y = heis.generators
    assert (x * y).key == (1, 1, 1)
    assert (y * x).key == (1, 1, 0)
    commutator = x * y * x ** -1 * y ** -1
    assert commutator.key == (0, 0, 1)
