"""Restricted isoperimetric search against full subset enumeration."""

import hashlib
import itertools
import json
import random

import pytest

from sumsetlab.errors import ResourceLimitError, UsageError
from sumsetlab.groups import backend_from_spec
from sumsetlab.isoperimetry import (
    CERTIFIED_EXACT,
    FRAGMENT_SAMPLE_LIMIT,
    UPPER_BOUND_ONLY,
    IsoInstance,
    kappa_restricted,
)
from sumsetlab.setops import PRODUCT_TABLE_CAP, FiniteSubset, product_size


def zset(z1, values):
    return FiniteSubset.from_keys(z1, [(v,) for v in values])


def zwindow(z1, lo, hi):
    return FiniteSubset.from_keys(z1, [(v,) for v in range(lo, hi + 1)])


def brute_force(C, n, window):
    """Exhaustive minimum of |XC| - |X| over all X in the window, |X| >= n.

    Returns the value, every minimizer, and the minimum-cardinality
    minimizers that contain the identity (the atom normalization).
    """
    mul = C.backend.mul_key
    keys = window.keys
    id_key = C.backend.identity_key
    best = None
    minimizers = []
    for s in range(n, len(keys) + 1):
        for X in itertools.combinations(keys, s):
            obj = len({mul(x, c) for x in X for c in C.keys}) - s
            if best is None or obj < best:
                best = obj
                minimizers = [X]
            elif obj == best:
                minimizers.append(X)
    sizes = [len(X) for X in minimizers]
    smallest = min(sizes)
    atoms = sorted(X for X in minimizers if len(X) == smallest and id_key in X)
    return best, minimizers, atoms


def test_kappa_n1_interval(z1):
    C = zset(z1, [0, 1, 2])
    result = kappa_restricted(IsoInstance(C, 1, zwindow(z1, -6, 6)))
    assert result.kappa_hat == 2
    assert result.certificate == CERTIFIED_EXACT
    assert [U.keys for U in result.atoms] == [((0,),)]


def test_kappa_013_matches_brute_force(z1):
    C = zset(z1, [0, 1, 3])
    window = zwindow(z1, -6, 6)
    result = kappa_restricted(IsoInstance(C, 2, window))
    value, _, atoms = brute_force(C, 2, window)
    assert result.kappa_hat == value == 3
    assert [U.keys for U in result.atoms] == atoms
    assert ((0,), (1,)) in [U.keys for U in result.atoms]
    assert result.certificate == UPPER_BOUND_ONLY


def test_kappa_012_n2(z1):
    C = zset(z1, [0, 1, 2])
    result = kappa_restricted(IsoInstance(C, 2, zwindow(z1, -6, 6)))
    assert result.kappa_hat == 2
    assert result.certificate == CERTIFIED_EXACT
    assert ((0,), (1,)) in [U.keys for U in result.atoms]


def test_kappa_matches_brute_force_random(z1):
    rng = random.Random(97)
    window = zwindow(z1, -4, 4)
    for _ in range(12):
        C = zset(z1, rng.sample(range(-3, 4), rng.randint(1, 4)))
        n = rng.randint(1, 3)
        result = kappa_restricted(IsoInstance(C, n, window))
        value, _, atoms = brute_force(C, n, window)
        assert result.kappa_hat == value
        assert [U.keys for U in result.atoms] == atoms


def test_kappa_matches_brute_force_klein(klein):
    window = klein.ball(2)
    for ckeys in ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1)]):
        C = FiniteSubset.from_keys(klein, ckeys)
        for n in (1, 2):
            result = kappa_restricted(IsoInstance(C, n, window))
            value, _, atoms = brute_force(C, n, window)
            assert result.kappa_hat == value
            assert [U.keys for U in result.atoms] == atoms


def brute_force_constrained(C, n, window):
    """Exhaustive restricted minimum over X in the window with 1 in X."""
    mul = C.backend.mul_key
    id_key = C.backend.identity_key
    rest = [k for k in window.keys if k != id_key]
    best = None
    minimizers = []
    for s in range(n, len(window.keys) + 1):
        for extra in itertools.combinations(rest, s - 1):
            X = (id_key,) + extra
            obj = len({mul(x, c) for x in X for c in C.keys}) - s
            if best is None or obj < best:
                best, minimizers = obj, [tuple(sorted(X))]
            elif obj == best:
                minimizers.append(tuple(sorted(X)))
    smallest = min(len(X) for X in minimizers)
    atoms = sorted(X for X in minimizers if len(X) == smallest)
    return best, minimizers, atoms


def preorder_minimizers(C, n, window, minimizers):
    """The minimizers in combination-tree preorder over the window's key order.

    The tree's root is the identity alone; a node's children extend it by
    one later window element each, and a node comes before its subtree.
    """
    id_key = C.backend.identity_key
    rest = [k for k in window.keys if k != id_key]
    wanted = set(minimizers)
    out = []

    def walk(i, chosen):
        X = tuple(sorted(chosen))
        if len(X) >= n and X in wanted:
            out.append(X)
        for j in range(i, len(rest)):
            walk(j + 1, chosen + [rest[j]])

    walk(0, [id_key])
    return out


def test_kappa_matches_brute_force_random_windows(any_backend):
    # arbitrary windows, not just balls: the identity plus random elements;
    # the restricted problem constrains X to contain the identity, so the
    # oracle enumerates exactly that space
    rng = random.Random("windows:" + any_backend.spec)
    ball = [k for k in any_backend.ball_keys(3) if k != any_backend.identity_key]
    for _ in range(8):
        wkeys = [any_backend.identity_key] + rng.sample(ball, min(10, len(ball)))
        window = FiniteSubset.from_keys(any_backend, wkeys)
        C = FiniteSubset.from_keys(any_backend, rng.sample(any_backend.ball_keys(2), rng.randint(1, 4)))
        n = rng.randint(1, 3)
        result = kappa_restricted(IsoInstance(C, n, window))
        value, minimizers, atoms = brute_force_constrained(C, n, window)
        assert result.kappa_hat == value
        assert [U.keys for U in result.atoms] == atoms
        # the fragment sample is the first minimizers in search order
        preorder = preorder_minimizers(C, n, window, minimizers)
        assert [F.keys for F in result.fragments_sample] == preorder[:FRAGMENT_SAMPLE_LIMIT]
        frags = kappa_restricted(IsoInstance(C, n, window), 10_000).fragments_sample
        assert sorted(F.keys for F in frags) == sorted(minimizers)


@pytest.mark.parametrize("fragment_limit", [0, 1, 2, FRAGMENT_SAMPLE_LIMIT])
def test_kappa_matches_brute_force_at_every_fragment_limit(any_backend, fragment_limit):
    # a small limit fills the sample early, so the search runs past the
    # atoms with the strict cutoff on most of its nodes; with n >= 2 and
    # |C| >= 3 most values stay above |C| - 1, where nothing else stops it
    rng = random.Random(f"limits:{any_backend.spec}:{fragment_limit}")
    radius = next(r for r in itertools.count(3) if len(any_backend.ball_keys(r)) > 20)
    ball = [k for k in any_backend.ball_keys(radius) if k != any_backend.identity_key]
    certified = 0
    for _ in range(6):
        wkeys = [any_backend.identity_key] + rng.sample(ball, rng.randint(9, 11))
        window = FiniteSubset.from_keys(any_backend, wkeys)
        C = FiniteSubset.from_keys(any_backend, rng.sample(any_backend.ball_keys(2), rng.randint(3, 5)))
        n = rng.randint(2, 4)
        result = kappa_restricted(IsoInstance(C, n, window), fragment_limit)
        value, minimizers, atoms = brute_force_constrained(C, n, window)
        assert result.kappa_hat == value
        assert [U.keys for U in result.atoms] == atoms
        preorder = preorder_minimizers(C, n, window, minimizers)
        assert [F.keys for F in result.fragments_sample] == preorder[:fragment_limit]
        certified += result.certificate == CERTIFIED_EXACT
    assert certified <= 3


def test_strict_cutoff_finds_an_improvement_by_one(z2):
    # the incumbent starts at 3 and a small sample fills with value-3 sets;
    # the first value-2 minimizer in preorder, a 7-element set, lies below
    # nodes past their atoms, and a cutoff that asked for an improvement of
    # 2 there would drop it from the sample
    window = FiniteSubset.from_keys(z2, [
        (-3, 0), (-2, -1), (-2, 0), (-2, 1), (-1, -2), (-1, -1), (-1, 0), (-1, 2), (0, -3), (0, -2), (0, -1),
        (0, 0), (0, 3), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1), (3, 0)])
    inst = IsoInstance(FiniteSubset.from_keys(z2, [(-1, 0), (-1, 1)]), 6, window)
    every = kappa_restricted(inst, 10_000)  # a sample that never fills
    assert every.kappa_hat == 2 and len(every.fragments_sample) == 28
    assert len(every.fragments_sample[0]) == 7
    for limit in (0, 1, 2, 3):
        result = kappa_restricted(inst, limit)
        assert (result.kappa_hat, result.atoms) == (every.kappa_hat, every.atoms)
        assert result.fragments_sample == every.fragments_sample[:limit]


def test_kappa_outputs_are_pinned():
    # the outputs the search wrote before the strict cutoff; zd:2 ball(4)
    # has 41 elements, above ENUM_WINDOW_CAP, so it pins the fragment-free path
    rng = random.Random("kappa-pin")
    rows = []
    for spec, radius in (("zd:2", 3), ("zd:2", 4), ("klein", 2), ("heis", 2), ("free:2", 2)):
        backend = backend_from_spec(spec)
        window, pool = backend.ball(radius), backend.ball_keys(2)
        for n, size, _ in itertools.product((2, 3), (3, 4), range(4)):
            C = FiniteSubset.from_keys(backend, rng.sample(pool, size))
            r = kappa_restricted(IsoInstance(C, n, window))
            rows.append([r.kappa_hat, r.certificate, [U.keys for U in r.atoms], [F.keys for F in r.fragments_sample]])
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert len(rows) == 80
    assert digest == "d2a69f630e2ca54dbcea0c32e5f6520cfdf22bd609a72ae5a0278d83c4dc9124"


def zbox(z2, side):
    """The side x side box of zd:2 around the origin, lower corner first."""
    lo = -(side // 2)
    return FiniteSubset.from_keys(z2, list(itertools.product(range(lo, lo + side), repeat=2)))


def test_kappa_outputs_are_pinned_at_larger_n(z2):
    # the outputs the search wrote before each child was bounded in its
    # parent's loop: deep trees with n from 5 to 12, where the test above
    # stays shallow; the 7x7 box has 49 elements, above ENUM_WINDOW_CAP,
    # and n stops at 10 on the 6x6 box and at 9 on the 7x7 box to keep
    # the test short
    rng = random.Random("kappa-pin-large")
    windows = [(z2, zbox(z2, 5), 12), (z2, zbox(z2, 6), 10), (z2, zbox(z2, 7), 9)]
    for spec, radius in (("klein", 3), ("heis", 2)):
        backend = backend_from_spec(spec)
        windows.append((backend, backend.ball(radius), 12))
    rows = []
    for backend, window, n_max in windows:
        pool = backend.ball_keys(2)
        for _ in range(5):
            n = rng.randint(5, n_max)
            C = FiniteSubset.from_keys(backend, rng.sample(pool, rng.randint(2, 4)))
            r = kappa_restricted(IsoInstance(C, n, window))
            rows.append([r.kappa_hat, r.certificate, [U.keys for U in r.atoms], [F.keys for F in r.fragments_sample]])
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert len(rows) == 25
    assert digest == "24753c41e041263e23a3ac610bbcc157c632d3e3845fd6d426416a1ab76696ec"


@pytest.mark.parametrize("L", [2, 3, 4])
def test_kappa_triangle_oracle(z2, L):
    # C = {0, -e1, -e2}: the triangle X = {x, y >= 0, x + y < L} has
    # XC = the triangle of side L + 1, so |XC| - |X| = L + 1 at
    # n = L(L + 1)/2, and no set of that size in the plane does better
    C = FiniteSubset.from_keys(z2, [(0, 0), (-1, 0), (0, -1)])
    n = L * (L + 1) // 2
    result = kappa_restricted(IsoInstance(C, n, zbox(z2, 5)))
    assert result.kappa_hat == L + 1
    assert result.atoms
    for U in result.atoms:
        assert len(U) >= n
        assert product_size(U, C) - len(U) == result.kappa_hat


def test_certified_n1_ties_keep_search_order(z1):
    # every interval through 0 ties at |C| - 1: the certified search may
    # stop expanding once the atom and the fragment sample are settled
    C = zset(z1, [0, 1, 2])
    window = zwindow(z1, -6, 6)
    result = kappa_restricted(IsoInstance(C, 1, window))
    value, minimizers, atoms = brute_force_constrained(C, 1, window)
    assert result.kappa_hat == value == 2
    assert result.certificate == CERTIFIED_EXACT
    assert [U.keys for U in result.atoms] == atoms == [((0,),)]
    preorder = preorder_minimizers(C, 1, window, minimizers)
    assert len(preorder) == 49
    assert [F.keys for F in result.fragments_sample] == preorder[:FRAGMENT_SAMPLE_LIMIT]
    assert [F.keys for F in kappa_restricted(IsoInstance(C, 1, window), 100).fragments_sample] == preorder


def test_every_atom_attains_value_and_size(z1):
    C = zset(z1, [0, 2, 5])
    result = kappa_restricted(IsoInstance(C, 2, zwindow(z1, -5, 5)))
    for U in result.atoms:
        assert len(U) >= 2
        from sumsetlab.setops import product_size

        assert product_size(U, C) - len(U) == result.kappa_hat
    sizes = {len(U) for U in result.atoms}
    assert len(sizes) == 1


def test_window_monotonicity(z1):
    C = zset(z1, [0, 1, 4])
    small = kappa_restricted(IsoInstance(C, 2, zwindow(z1, -3, 3)))
    large = kappa_restricted(IsoInstance(C, 2, zwindow(z1, -6, 6)))
    assert large.kappa_hat <= small.kappa_hat


def test_n_monotonicity(z1):
    C = zset(z1, [0, 1, 4])
    window = zwindow(z1, -5, 5)
    values = [kappa_restricted(IsoInstance(C, n, window)).kappa_hat for n in (1, 2, 3)]
    assert values == sorted(values)


def test_kempermann_floor(any_backend):
    rng = random.Random(101)
    ball = any_backend.ball_keys(2)
    window = any_backend.ball(2)
    for _ in range(12):
        C = FiniteSubset.from_keys(any_backend, rng.sample(ball, rng.randint(1, min(4, len(ball)))))
        n = rng.randint(1, 2)
        result = kappa_restricted(IsoInstance(C, n, window))
        assert result.kappa_hat >= len(C) - 1
        if n == 1:
            assert result.kappa_hat == len(C) - 1
            assert result.certificate == CERTIFIED_EXACT


def test_determinism(z1):
    C = zset(z1, [0, 1, 3])
    inst = IsoInstance(C, 2, zwindow(z1, -6, 6))
    assert kappa_restricted(inst) == kappa_restricted(inst)


def test_instance_validation(z1, klein):
    C = zset(z1, [0, 1])
    with pytest.raises(UsageError):
        IsoInstance(C, 1, zwindow(z1, 1, 5))  # identity missing
    with pytest.raises(UsageError):
        IsoInstance(C, 9, zwindow(z1, -1, 1))  # n larger than the window
    with pytest.raises(UsageError):
        IsoInstance(C, 1, klein.ball(1))  # backend mismatch
    with pytest.raises(ResourceLimitError):
        kappa_restricted(IsoInstance(C, 1, zwindow(z1, -40, 40)))
    # a 64-element window and |C| = 16385 number more than PRODUCT_TABLE_CAP products
    with pytest.raises(ResourceLimitError, match="table cap"):
        kappa_restricted(IsoInstance(zset(z1, range(PRODUCT_TABLE_CAP // 64 + 1)), 1, zwindow(z1, -31, 32)))


def test_fragments_intervals(z1):
    C = zset(z1, [0, 1, 2])
    window = zwindow(z1, -6, 6)
    inst = IsoInstance(C, 2, window)
    frags = kappa_restricted(inst, 50).fragments_sample
    assert frags
    for F in frags:
        values = [k[0] for k in F.keys]
        assert values == list(range(values[0], values[-1] + 1))
        from sumsetlab.setops import product_size

        assert product_size(F, C) - len(F) == 2


def test_fragments_zero_count(z1):
    C = zset(z1, [0, 1, 2])
    inst = IsoInstance(C, 2, zwindow(z1, -6, 6))
    assert kappa_restricted(inst, 0).fragments_sample == ()


def test_fragment_count_matches_brute_force(z1):
    C = zset(z1, [0, 1, 3])
    window = zwindow(z1, -6, 6)
    inst = IsoInstance(C, 2, window)
    frags = kappa_restricted(inst, 10_000).fragments_sample
    value, minimizers, _ = brute_force(C, 2, window)
    with_identity = [X for X in minimizers if (0,) in X]
    assert len(frags) == len(with_identity)
    assert sorted(F.keys for F in frags) == sorted(with_identity)


def test_identity_only_window(z1):
    C = zset(z1, [0, 1])
    result = kappa_restricted(IsoInstance(C, 1, z1.ball(0)))
    assert result.kappa_hat == 1
    assert result.certificate == CERTIFIED_EXACT
    assert [U.keys for U in result.atoms] == [((0,),)]
