"""Product sets compared across backends through injective homomorphisms.

An injective homomorphism phi: G -> H maps AB onto phi(A) phi(B), so each
backend's product path must give |phi(A) phi(B)| = |AB|, the image of AB
and the same deficiency. A lies in a left coset a0<h> of a cyclic subgroup
exactly when phi(A) does. One way, phi(A) lies in phi(a0)<phi(h)>. The
other way, if phi(a0^-1 A) lies in some <k>, it lies in the intersection
of <k> with phi(G), a subgroup of a cyclic group and so cyclic, <phi(h)>;
as phi is injective, a0^-1 A lies in <h>.

Covers and progressions go through phi too. A cover {b r^i : 0 <= i < L}
of A, with b commuting with r, maps to the cover {phi(b) phi(r)^i} of
phi(A), of the same length as phi is injective, with phi(b) commuting
with phi(r); so when |A| >= 2 and A has a cover, phi(A) has one no
longer. phi may add ratios outside phi(G), so the cover of phi(A) can be
shorter. A is exactly a progression when phi(A) is. One way is the case
L = |A| above. The other way, for |A| >= 2: if phi(A) = {c s^i} with c
commuting with s, then c is a term and s = (c s^i)^-1 (c s^(i+1)), a
quotient of two terms, so both lie in phi(G); as phi is injective they
are phi(b) and phi(r) with b commuting with r, and A = {b r^i}.

The embeddings: zd:2 -> klein, (i, j) -> u^(2i) v^j; zd:2 -> heis as
(i, 0, j) and as (0, i, j); zd:1 -> every backend, n -> g^n for its first
generator g, which has infinite order as every backend is torsion-free;
free:2 -> free:3, by inclusion.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab.groups import backend_from_spec
from sumsetlab.setops import (
    FiniteSubset,
    cyclic_hull_contains,
    deficiency,
    detect_progression,
    min_progression_cover,
    product_set,
    product_size,
)

Z1, Z2, F2 = (backend_from_spec(spec) for spec in ("zd:1", "zd:2", "free:2"))
HEIS = backend_from_spec("heis")
# u^(2i) commutes with v, and (i,0,j)(i',0,j') = (i+i', 0, j+j')
EMBEDDINGS = {
    "klein": lambda key: (2 * key[0], key[1]),
    "heis": lambda key: (key[0], 0, key[1]),
}
EMBEDDING_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
TARGETS = ("zd:1", "zd:2", "zd:3", "klein", "heis", "free:1", "free:2", "free:3")


def assert_embedding_keeps_products(H, phi, A, B):
    """phi(A) phi(B) on H against AB on A's backend: size, image, deficiency, cyclic hull, cover and progression."""

    def image(S):
        return FiniteSubset.from_keys(H, map(phi, S.keys))

    hA, hB = image(A), image(B)
    AB = product_set(A, B)
    assert product_size(hA, hB) == product_size(A, B) == len(AB)
    assert product_set(hA, hB).keys == image(AB).keys
    assert deficiency(hA, hB) == deficiency(A, B)
    assert (cyclic_hull_contains(hA) is None) == (cyclic_hull_contains(A) is None)
    assert (detect_progression(hA) is None) == (detect_progression(A) is None)
    cover = min_progression_cover(A) if len(A) >= 2 else None
    if cover is not None:
        image_cover = min_progression_cover(hA)
        assert image_cover is not None and image_cover <= cover


point = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
# a progression a0 + t r lies in a coset of <r>, so both answers of cyclic_hull_contains occur
zd2_sets = st.one_of(
    st.lists(point, min_size=1, max_size=10),
    st.builds(lambda a0, r, n: [(a0[0] + t * r[0], a0[1] + t * r[1]) for t in range(n)],
              point, point, st.integers(1, 6)),
).map(lambda keys: FiniteSubset.from_keys(Z2, keys))
zd1_sets = st.lists(st.integers(-12, 12), min_size=1, max_size=10).map(
    lambda ns: FiniteSubset.from_keys(Z1, [(n,) for n in ns]))
# a freely reduced word of up to 4 letters, as the product of its letters
word = st.lists(st.sampled_from(((1,), (-1,), (2,), (-2,))), max_size=4).map(
    lambda letters: functools.reduce(F2.mul_key, letters, ()))
free2_sets = st.one_of(
    st.lists(word, min_size=1, max_size=8),
    st.builds(lambda a0, r, n: [F2.mul_key(a0, F2.pow_key(r, t)) for t in range(n)], word, word, st.integers(1, 5)),
).map(lambda keys: FiniteSubset.from_keys(F2, keys))


@pytest.mark.parametrize("target", sorted(EMBEDDINGS))
@EMBEDDING_SETTINGS
@given(A=zd2_sets, B=zd2_sets)
def test_embedding_keeps_products_and_cyclic_hulls(target, A, B):
    assert_embedding_keeps_products(backend_from_spec(target), EMBEDDINGS[target], A, B)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(A=zd2_sets, B=zd2_sets)
def test_zd2_embeds_in_heis_as_its_last_two_coordinates(A, B):
    # (0,i,j)(0,i',j') = (0, i+i', j+j'): the twist x1*y2 vanishes
    assert_embedding_keeps_products(HEIS, lambda key: (0, key[0], key[1]), A, B)


@pytest.mark.parametrize("target", TARGETS)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(A=zd1_sets, B=zd1_sets)
def test_zd1_embeds_through_powers_of_a_generator(target, A, B):
    H = backend_from_spec(target)
    g = H.generator_keys()[0]
    assert_embedding_keeps_products(H, lambda key: H.pow_key(g, key[0]), A, B)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(A=free2_sets, B=free2_sets)
def test_free2_embeds_in_free3_by_inclusion(A, B):
    assert_embedding_keeps_products(backend_from_spec("free:3"), lambda key: key, A, B)
