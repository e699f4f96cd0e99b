"""The atom lemmas pinned to an oracle that recounts per g and per product."""

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab.groups import backend_from_spec
from sumsetlab.laws import ATOM_LAWS, LAWS
from sumsetlab.reports import (
    LawReport,
    VERDICT_FINDING,
    VERDICT_HOLDS,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_VIOLATED,
    subset_payload,
)
from sumsetlab.setops import FiniteSubset, product_set, product_size

BACKEND_SPECS = ("zd:1", "zd:2", "free:2", "klein", "heis")
ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=120, deadline=None)


# -- oracle ------------------------------------------------------------------


def support_keys(backend, ukeys, left):
    """Non-identity g in U U^-1 (left) or U^-1 U (right), in key order."""
    mul, inv = backend.mul_key, backend.inv_key
    if left:
        keys = {mul(a, inv(b)) for a in ukeys for b in ukeys}
    else:
        keys = {mul(inv(a), b) for a in ukeys for b in ukeys}
    keys.discard(backend.identity_key)
    return sorted(keys)


def oracle_report(law, U, C, n):
    """Each |U meet gU|, |U meet Ug| or factorization count recounted from scratch; ties keep the first g."""
    backend = U.backend
    mul, ukeys, ukeyset = backend.mul_key, U.keys, frozenset(U.keys)
    witness = {"U": subset_payload(U), "C": subset_payload(C), "n": n, "k": None}
    if law == "atom_left":
        worst, worst_g = 0, None
        for g in support_keys(backend, ukeys, left=True):
            inter = sum(1 for u in ukeys if mul(g, u) in ukeyset)
            if inter > worst:
                worst, worst_g = inter, g
        witness["worst_g"] = backend.format_key(worst_g) if worst_g else None
        witness["max_intersection"] = worst
        slack = worst - (n - 1)
        return LawReport(law, VERDICT_HOLDS if slack <= 0 else VERDICT_VIOLATED, slack, witness)
    if law == "atom_right":
        if n < 2:
            return LawReport(law, VERDICT_HYPOTHESIS_NOT_MET, None, witness, "requires n >= 2")
        rhs = (n - 2) * len(U) + 1
        worst_slack, worst_g = None, None
        for g in support_keys(backend, ukeys, left=False):
            inter = sum(1 for u in ukeys if mul(u, g) in ukeyset)
            slack = (n - 1) * inter - rhs
            if worst_slack is None or slack > worst_slack:
                worst_slack, worst_g = slack, g
        if worst_slack is None:
            worst_slack = -rhs
        witness["worst_g"] = backend.format_key(worst_g) if worst_g else None
        verdict = VERDICT_HOLDS if worst_slack <= 0 else VERDICT_VIOLATED
        return LawReport(law, verdict, worst_slack, witness)
    if law == "atom_nonunique":
        if len(U) <= n:
            detail = f"|U| = {len(U)} is not larger than n = {n}"
            return LawReport(law, VERDICT_HYPOTHESIS_NOT_MET, None, witness, detail)
        fewest = min(sum(1 for u in ukeys for c in C.keys if mul(u, c) == x.key) for x in product_set(U, C))
        witness["min_factorizations"] = fewest
        return LawReport(law, VERDICT_HOLDS if fewest >= 2 else VERDICT_VIOLATED, fewest - 2, witness)
    if law == "atom_conjecture":
        if len(U) < n:
            return LawReport(law, VERDICT_HYPOTHESIS_NOT_MET, None, witness, f"|U| = {len(U)} < n = {n}")
        if len(U) == n:
            return LawReport(law, VERDICT_HOLDS, 0, witness)
        return LawReport(law, VERDICT_FINDING, len(U) - n, witness, "atom larger than n")
    # two_atom_rough, two_atom and n_atom
    if law in ("two_atom_rough", "two_atom") and n != 2:
        return LawReport(law, VERDICT_HYPOTHESIS_NOT_MET, None, witness, "requires n = 2")
    if law == "n_atom" and n < 3:
        return LawReport(law, VERDICT_HYPOTHESIS_NOT_MET, None, witness, "requires n >= 3")
    if len(C) < 3:
        return LawReport(law, VERDICT_HYPOTHESIS_NOT_MET, None, witness, f"|C| = {len(C)} < 3")
    if law == "two_atom_rough":
        slack = len(U) - (len(C) - 1)
        return LawReport(law, VERDICT_HOLDS if slack <= 0 else VERDICT_VIOLATED, slack, witness)
    # the least k with |UC| <= |U| + |C| + k
    k = product_size(U, C) - len(U) - len(C)
    witness["k"] = k
    slack = len(U) - (k + 3 if law == "two_atom" else n * (2 * k + 3))
    return LawReport(law, VERDICT_HOLDS if slack <= 0 else VERDICT_VIOLATED, slack, witness)


# -- strategies ----------------------------------------------------------------


def subsets(backend, max_size):
    """A subset of the radius-2 ball, or a box a^i b^j whose translates overlap heavily."""
    ball = backend.ball_keys(2)
    scattered = st.lists(st.sampled_from(ball), min_size=1, max_size=max_size, unique=True)
    gens = backend.generator_keys()
    a, b = gens[0], gens[-1]
    box = st.tuples(st.integers(1, 4), st.integers(1, 3)).map(lambda shape: {
        backend.mul_key(backend.pow_key(a, i), backend.pow_key(b, j))
        for i in range(shape[0]) for j in range(shape[1])
    })
    return st.one_of(scattered, box).map(lambda keys: FiniteSubset.from_keys(backend, keys))


@pytest.mark.parametrize("spec", BACKEND_SPECS)
@ORACLE_SETTINGS
@given(data=st.data())
def test_overlap_laws_match_per_g_recount(spec, data):
    backend = backend_from_spec(spec)
    U = data.draw(subsets(backend, 8), label="U")
    C = data.draw(subsets(backend, 5), label="C")
    n = data.draw(st.integers(1, 4), label="n")
    for law in ATOM_LAWS:
        assert LAWS[law].lemma(U, C, n) == oracle_report(law, U, C, n)
