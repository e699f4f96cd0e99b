"""Product sets compared across backends through injective homomorphisms.

An injective homomorphism phi: G -> H maps AB onto phi(A) phi(B), so each
backend's product path must give |phi(A) phi(B)| = |AB|, the image of AB
and the same deficiency. A lies in a left coset a0<h> of a cyclic subgroup
exactly when phi(A) does. One way, phi(A) lies in phi(a0)<phi(h)>. The
other way, if phi(a0^-1 A) lies in some <k>, it lies in the intersection
of <k> with phi(G), a subgroup of a cyclic group and so cyclic, <phi(h)>;
as phi is injective, a0^-1 A lies in <h>.
"""

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab.groups import backend_from_spec
from sumsetlab.setops import FiniteSubset, cyclic_hull_contains, deficiency, product_set, product_size

Z2 = backend_from_spec("zd:2")
# u^(2i) commutes with v, and (i,0,j)(i',0,j') = (i+i', 0, j+j')
EMBEDDINGS = {
    "klein": lambda key: (2 * key[0], key[1]),
    "heis": lambda key: (key[0], 0, key[1]),
}
EMBEDDING_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

point = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
# a progression a0 + t r lies in a coset of <r>, so both answers of cyclic_hull_contains occur
zd2_sets = st.one_of(
    st.lists(point, min_size=1, max_size=10),
    st.builds(lambda a0, r, n: [(a0[0] + t * r[0], a0[1] + t * r[1]) for t in range(n)],
              point, point, st.integers(1, 6)),
).map(lambda keys: FiniteSubset.from_keys(Z2, keys))


@pytest.mark.parametrize("target", sorted(EMBEDDINGS))
@EMBEDDING_SETTINGS
@given(A=zd2_sets, B=zd2_sets)
def test_embedding_keeps_products_and_cyclic_hulls(target, A, B):
    H, phi = backend_from_spec(target), EMBEDDINGS[target]

    def image(S):
        return FiniteSubset.from_keys(H, map(phi, S.keys))

    hA, hB = image(A), image(B)
    AB = product_set(A, B)
    assert product_size(hA, hB) == product_size(A, B) == len(AB)
    assert product_set(hA, hB).keys == image(AB).keys
    assert deficiency(hA, hB) == deficiency(A, B)
    assert (cyclic_hull_contains(hA) is None) == (cyclic_hull_contains(A) is None)
