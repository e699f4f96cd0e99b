"""Law checkers: inequalities, atom lemmas, example families, replay."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from sumsetlab import laws
from sumsetlab.errors import DomainError, ResourceLimitError, UnsupportedOperationError
from sumsetlab.groups import backend_from_spec
from sumsetlab.isoperimetry import CERTIFIED_EXACT, IsoInstance, kappa_restricted
from sumsetlab.laws import (
    ATOM_LAWS,
    CONJECTURE_LAWS,
    LAWS,
    LAW_IDS,
    THEOREM_LAWS,
    check_3k4,
    check_c_lower,
    check_corollary_AB,
    check_equality_characterization,
    check_freiman_dim,
    check_gardner_gronchi,
    check_hls,
    check_kempermann,
    check_main_theorem,
    check_ruzsa_dim,
    check_uvk,
    example_klein_grid,
    example_klein_union,
    klein_grid_sets,
    klein_union_set,
    replay,
    standard_triple,
)
from sumsetlab.reports import (
    VERDICT_FINDING,
    VERDICT_HOLDS,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_SKIPPED,
    VERDICT_VIOLATED,
    VERDICTS,
)
from sumsetlab.setops import FiniteSubset, deficiency, product_size


def zset(z1, values):
    return FiniteSubset.from_keys(z1, [(v,) for v in values])


# -- kempermann ---------------------------------------------------------------


def test_kempermann_ap_pair(z1):
    A = zset(z1, [0, 2, 4])
    B = zset(z1, [1, 3, 5, 7])
    report = check_kempermann(A, B)
    assert report.verdict == VERDICT_HOLDS and report.slack == 0


def test_kempermann_klein_grid_slack():
    A, B = klein_grid_sets(3)
    report = check_kempermann(A, B)
    assert report.verdict == VERDICT_HOLDS
    assert report.slack == (2 * 3 - 3) + 1


def test_kempermann_random_free(free2):
    rng = random.Random(5)
    ball = free2.ball_keys(2)
    for _ in range(50):
        A = FiniteSubset.from_keys(free2, rng.sample(ball, rng.randint(1, 6)))
        B = FiniteSubset.from_keys(free2, rng.sample(ball, rng.randint(1, 6)))
        report = check_kempermann(A, B)
        assert report.verdict == VERDICT_HOLDS and report.slack >= 0


# -- equality characterization ---------------------------------------------------


def test_equality_z_window(z1):
    window = zset(z1, range(8))
    report = check_equality_characterization(window, (2, 4))
    assert report.verdict == VERDICT_HOLDS
    assert report.slack == 0
    assert report.witness["equality_pairs"] > 0


def test_equality_klein_ball(klein):
    report = check_equality_characterization(klein.ball(2), (2, 3))
    assert report.verdict == VERDICT_HOLDS
    assert report.witness["equality_pairs"] > 0


def test_equality_singletons_excluded(z1):
    window = zset(z1, range(4))
    report = check_equality_characterization(window, (1, 2))
    # lower size bound is clamped to 2
    assert report.witness["sizes"] == [2, 2]


def test_equality_enumeration_cap(z1):
    from sumsetlab.errors import ResourceLimitError

    window = zset(z1, range(30))
    with pytest.raises(ResourceLimitError):
        check_equality_characterization(window, (2, 10))


def test_equality_size_range_past_the_window(z1):
    # no set has more elements than the window, so a huge upper size costs nothing
    huge, whole = (check_equality_characterization(zset(z1, range(3)), (2, hi)) for hi in (10 ** 18, 3))
    assert huge.witness.pop("sizes") == [2, 10 ** 18]
    whole.witness.pop("sizes")
    assert huge == whole and whole.witness["equality_pairs"] > 0
    with pytest.raises(ResourceLimitError, match="^the pairs of sets exceed the enumeration cap 500000$"):
        check_equality_characterization(zset(z1, range(30)), (2, 10 ** 18))


# -- hls ---------------------------------------------------------------------------


def test_hls_klein_grid_tight():
    A, B = klein_grid_sets(2)
    report = check_hls(A, B)
    assert report.verdict == VERDICT_HOLDS and report.slack == 0


def test_hls_z_always_hypothesis_not_met(z1):
    A = zset(z1, [0, 3, 7])
    B = zset(z1, range(5))
    report = check_hls(A, B)
    assert report.verdict == VERDICT_HYPOTHESIS_NOT_MET


def test_hls_free_ball(free2):
    A = FiniteSubset.from_keys(free2, [(), (1,), (2,)])
    B = free2.ball(1)
    report = check_hls(A, B)
    assert report.verdict == VERDICT_HOLDS
    # |AB| computed by hand: B, aB, bB overlap only in the identity row
    assert report.witness["product_size"] == 11
    assert report.slack == 11 - (3 + 5 + 1)


def test_hls_small_b_gates(klein):
    A = standard_triple(klein)
    B = FiniteSubset.from_keys(klein, [(0, 0), (1, 0), (2, 0)])
    assert check_hls(A, B).verdict == VERDICT_HYPOTHESIS_NOT_MET


# -- lattice dimension laws ----------------------------------------------------------


def test_freiman_dim_simplex(z2):
    A = FiniteSubset.from_keys(z2, [(0, 0), (1, 0), (0, 1)])
    sums = {(a[0] + b[0], a[1] + b[1]) for a in A.keys for b in A.keys}
    assert len(sums) == 6
    report = check_freiman_dim(A)
    assert report.verdict == VERDICT_HOLDS
    assert report.witness["dimension"] == 2
    assert report.slack == 0


def test_freiman_dim_ap_reduces_to_kempermann(z1):
    A = zset(z1, [0, 3, 6, 9])
    report = check_freiman_dim(A)
    assert report.witness["dimension"] == 1
    assert report.slack == len(A) * 2 - 1 - (2 * len(A) - 1)


def test_freiman_dim_non_lattice_rejected(klein):
    with pytest.raises(UnsupportedOperationError):
        check_freiman_dim(standard_triple(klein))


def test_ruzsa_dim_grid_pair(z2):
    A = FiniteSubset.from_keys(z2, ((i, j) for i in range(3) for j in range(3)))
    B = FiniteSubset.from_keys(z2, [(0, 0), (1, 0), (0, 1)])
    sums = {(a[0] + b[0], a[1] + b[1]) for a in A.keys for b in B.keys}
    report = check_ruzsa_dim(A, B)
    assert report.verdict == VERDICT_HOLDS
    assert report.witness["dimension"] == 2
    assert report.witness["product_size"] == len(sums) == 15
    assert report.slack == 15 - (9 + 2 * 3 - 3)


def test_ruzsa_dim_size_hypothesis(z2):
    small = FiniteSubset.from_keys(z2, [(0, 0)])
    big = FiniteSubset.from_keys(z2, [(0, 0), (1, 0), (0, 1)])
    assert check_ruzsa_dim(small, big).verdict == VERDICT_HYPOTHESIS_NOT_MET


def test_gardner_gronchi_grid(z2):
    A = FiniteSubset.from_keys(z2, ((i, j) for i in range(3) for j in range(3)))
    sums = {(a[0] + b[0], a[1] + b[1]) for a in A.keys for b in A.keys}
    assert len(sums) == 25
    report = check_gardner_gronchi(A, A)
    assert report.verdict == VERDICT_HOLDS
    rhs = 9 + 9 + (9 - 2) ** 0.5 * (9 - 2) ** 0.5 - 1
    assert abs(report.witness["rhs"] - rhs) < 1e-9
    assert report.slack == pytest.approx(25 - rhs)


def test_gardner_gronchi_dimension_hypothesis(z2):
    A = FiniteSubset.from_keys(z2, ((i, j) for i in range(3) for j in range(3)))
    B = FiniteSubset.from_keys(z2, [(0, 0), (1, 0), (2, 0)])  # 1-dimensional
    assert check_gardner_gronchi(A, B).verdict == VERDICT_HYPOTHESIS_NOT_MET


def test_gardner_gronchi_d1_reduces_to_kempermann(z1):
    A = zset(z1, [0, 1, 2, 3])
    B = zset(z1, [0, 1])
    report = check_gardner_gronchi(A, B)
    assert report.verdict == VERDICT_HOLDS
    assert report.witness["rhs"] == pytest.approx(len(A) + len(B) - 1)


def test_gardner_gronchi_ties_hold(z2):
    # A = {(0,0), ..., (k,0), (0,1)} has |A + A| = 3|A| - 3, so L = |A| - 2 and
    # L^2 = (|A| - 2)^2: the bound is met with equality
    for k in range(1, 30):
        A = FiniteSubset.from_keys(z2, [(i, 0) for i in range(k + 1)] + [(0, 1)])
        report = check_gardner_gronchi(A, A)
        assert report.witness["product_size"] == 3 * len(A) - 3
        assert report.verdict == VERDICT_HOLDS and report.slack == pytest.approx(0)


def test_gardner_gronchi_integer_form_matches_the_float_form(monkeypatch, z2):
    # the product set loses its last `drop` (< |A| + |B| - 1) keys, so both verdicts occur; the
    # exact verdict is |AB| >= rhs up to a 1e-9 band for float rounding
    product_set = laws.product_set
    rng = random.Random(29)
    ball = z2.ball_keys(3)
    verdicts = set()
    for _ in range(150):
        A, B = (FiniteSubset.from_keys(z2, rng.sample(ball, rng.randint(4, 9))) for _ in range(2))
        A, B = (A, B) if len(A) >= len(B) else (B, A)
        for drop in range(0, 7, 2):
            monkeypatch.setattr(laws, "product_set", lambda A, B: FiniteSubset._from_keys(
                z2, product_set(A, B).keys[:-drop or None]))
            report = check_gardner_gronchi(A, B)
            if report.verdict in (VERDICT_HOLDS, VERDICT_VIOLATED):
                verdicts.add(report.verdict)
                w = report.witness
                assert (report.verdict == VERDICT_HOLDS) == (w["product_size"] >= w["rhs"] - 1e-9)
    assert verdicts == {VERDICT_HOLDS, VERDICT_VIOLATED}


# -- 3k-4 -----------------------------------------------------------------------------


def test_3k4_example_holds(z1):
    A = zset(z1, [0, 1, 2, 4])
    report = check_3k4(A)
    assert report.verdict == VERDICT_HOLDS
    assert report.witness["square_size"] == 8
    assert report.witness["cover_length"] == 5


def test_3k4_ap_trivial(z1):
    A = zset(z1, [0, 1, 2, 3, 4])
    report = check_3k4(A)
    assert report.verdict == VERDICT_HOLDS
    assert report.witness["cover_length"] == len(A)


def test_3k4_free_hypothesis_not_met(free2):
    A = FiniteSubset.from_keys(free2, [(), (1,), (2,), (1, 2)])
    report = check_3k4(A)
    assert report.verdict == VERDICT_HYPOTHESIS_NOT_MET


def test_3k4_exhaustive_small_window(z1):
    # theorem on the integers: no violations over [0..8], |A| = 4
    for combo in itertools.combinations(range(9), 4):
        report = check_3k4(zset(z1, combo))
        assert report.verdict in (VERDICT_HOLDS, VERDICT_HYPOTHESIS_NOT_MET)


# -- atom lemmas -----------------------------------------------------------------------


def certified_result(backend, ckeys, n, radius):
    C = FiniteSubset.from_keys(backend, ckeys)
    return C, kappa_restricted(IsoInstance(C, n, backend.ball(radius)), fragment_limit=0)


def lemma_reports(C, n, result):
    """Each atom lemma's report on each certified atom, through its LAWS entry."""
    assert result.certificate == CERTIFIED_EXACT
    return [LAWS[law].lemma(U, C, n) for U in result.atoms for law in ATOM_LAWS]


def test_atom_lemmas_z_interval(z1):
    C, result = certified_result(z1, [(0,), (1,), (2,)], 2, 6)
    reports = lemma_reports(C, 2, result)
    by_law = {}
    for r in reports:
        by_law.setdefault(r.law, []).append(r)
    for law in ("atom_left", "atom_right", "two_atom_rough", "two_atom", "atom_conjecture"):
        assert all(r.verdict == VERDICT_HOLDS for r in by_law[law]), law
    # |U| = 2 = n, so the non-uniqueness lemma hypothesis fails
    assert all(r.verdict == VERDICT_HYPOTHESIS_NOT_MET for r in by_law["atom_nonunique"])
    assert all(r.verdict == VERDICT_HYPOTHESIS_NOT_MET for r in by_law["n_atom"])
    # the n = 2 remark: |U meet Ug| <= 1, integer form slack 0 at the worst g
    assert max(r.slack for r in by_law["atom_right"]) == 0
    assert all(r.slack <= 0 for r in by_law["two_atom_rough"])


def test_atom_lemmas_skipped_without_certificate(z1):
    C = FiniteSubset.from_keys(z1, [(0,), (1,), (3,)])
    result = kappa_restricted(IsoInstance(C, 2, z1.ball(6)), fragment_limit=0)
    assert result.certificate != CERTIFIED_EXACT
    reports = [r for law in ATOM_LAWS for r in LAWS[law].run(C=C, n=2, window=z1.ball(6))]
    assert len(reports) == len(ATOM_LAWS)
    assert all(r.verdict == VERDICT_SKIPPED for r in reports)


def test_two_atom_derives_its_k(z1):
    # each 2-atom U of {0, 1, 2} is a pair of neighbours: |UC| = 4, so the
    # least k with |UC| <= |U| + |C| + k is -1, and |U| = 2 meets k + 3 exactly
    C, result = certified_result(z1, [(0,), (1,), (2,)], 2, 6)
    reports = lemma_reports(C, 2, result)
    two_atom = [r for r in reports if r.law == "two_atom"]
    assert two_atom and all((r.verdict, r.slack, r.witness["k"]) == (VERDICT_HOLDS, 0, -1) for r in two_atom)
    # the lemmas that use no k leave it null
    assert all(r.witness["k"] is None for r in reports if r.law not in ("two_atom", "n_atom"))


def test_atom_nonunique_counting_path(z1):
    # exercised directly: certified atoms on unique-product backends always
    # have |U| = n, so the |U| > n branch never fires through kappa results
    U = zset(z1, [0, 1, 2])
    C = zset(z1, [0, 1, 2])
    report = LAWS["atom_nonunique"].lemma(U, C, 2)
    # 0 has the single factorization 0 + 0, so a 3-set is not a 2-atom here
    assert report.verdict == VERDICT_VIOLATED
    assert report.witness["min_factorizations"] == 1
    assert report.slack == -1


def test_atom_reports_are_pinned():
    # the reports each lemma on each atom and each atom law's run wrote while
    # one function checked every lemma by comparing the law id: certified and
    # uncertified instances, n = 1..3, derived k
    rows = []
    for spec, radius in (("zd:1", 5), ("zd:2", 2), ("klein", 2), ("heis", 1)):
        backend = backend_from_spec(spec)
        window = backend.ball(radius)
        one, gens = backend.identity_key, backend.generator_keys()
        g, h = gens[0], gens[-1]
        for ckeys in ([one, g], [one, g, backend.pow_key(g, 2)], [one, g, h], [one, g, backend.pow_key(g, 3)]):
            C = FiniteSubset.from_keys(backend, ckeys)
            for n in (1, 2, 3):
                result = kappa_restricted(IsoInstance(C, n, window), fragment_limit=0)
                if result.certificate == CERTIFIED_EXACT:
                    reports = lemma_reports(C, n, result)
                else:
                    reports = [r for law in ATOM_LAWS for r in LAWS[law].run(C=C, n=n, window=window)]
                rows += [r.to_dict() for r in reports]
                for law in ATOM_LAWS:
                    rows += [r.to_dict() for r in LAWS[law].run(C=C, n=n, window=window)]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()
    assert len(rows) == 994
    assert {r["verdict"] for r in rows} == {VERDICT_HOLDS, VERDICT_HYPOTHESIS_NOT_MET, VERDICT_SKIPPED}
    assert digest == "7ada941a5286aa2d0da9c111f05ad42675d81e4dbaf4725dfccc62b3a14cdcb4"


@pytest.mark.parametrize("ckeys, n, atoms", [([(0, 0), (1, 0)], 3, 3), ([(0, 0), (1, 0), (0, 1)], 2, 0)])
def test_atom_law_runs_its_checker_once_per_atom(monkeypatch, ckeys, n, atoms):
    # every atom entry's checker counts its calls: running one law calls its
    # own checker once per certified atom and no other lemma's checker
    z2 = backend_from_spec("zd:2")
    C, window = FiniteSubset.from_keys(z2, ckeys), z2.ball(2)
    expected = {law: LAWS[law].run(C=C, n=n, window=window) for law in ATOM_LAWS}
    calls = dict.fromkeys(ATOM_LAWS, 0)
    for law in ATOM_LAWS:
        lemma = LAWS[law].lemma

        def counting(U, C, n, law=law, lemma=lemma):
            calls[law] += 1
            return lemma(U, C, n)

        monkeypatch.setitem(LAWS, law, dataclasses.replace(LAWS[law], lemma=counting))
    for law in ATOM_LAWS:
        before = dict(calls)
        assert LAWS[law].run(C=C, n=n, window=window) == expected[law]
        assert {other: calls[other] - before[other] for other in ATOM_LAWS} == {
            other: atoms if other == law else 0 for other in ATOM_LAWS}
    # replay reads the same entries: one call per atom report
    before = dict(calls)
    for law in ATOM_LAWS:
        for report in expected[law][:atoms]:
            assert replay(report) == report
    assert all(calls[law] - before[law] == atoms for law in ATOM_LAWS)
    assert all(len(reports) == max(atoms, 1) for reports in expected.values())


def test_atom_lemmas_certified_corpus(any_backend):
    gens = any_backend.generator_keys()
    radius = 6 if any_backend.spec == "zd:1" else 2
    corpus = []
    for g in gens:
        keys = [any_backend.identity_key, g, any_backend.pow_key(g, 2)]
        for n in (2, 3):
            corpus.append((keys, n))
    corpus.append(([any_backend.identity_key, gens[0]], 2))
    engaged = {law: 0 for law in ATOM_LAWS}
    for ckeys, n in corpus:
        C, result = certified_result(any_backend, ckeys, n, radius)
        for report in lemma_reports(C, n, result):
            assert report.verdict != VERDICT_VIOLATED, (report.law, report.witness)
            if report.law == "atom_conjecture":
                assert report.verdict != VERDICT_FINDING
            if report.verdict == VERDICT_HOLDS:
                engaged[report.law] += 1
    # the bounded lemmas must actually fire with their hypotheses met,
    # not pass vacuously
    for law in ("atom_left", "atom_right", "two_atom_rough", "two_atom", "n_atom", "atom_conjecture"):
        assert engaged[law] > 0, law


# -- uvk and the main bound ---------------------------------------------------------


def test_uvk_random_subset(klein):
    rng = random.Random(7)
    B = FiniteSubset.from_keys(klein, rng.sample(klein.ball_keys(8), 109))
    report = check_uvk(B, 3)
    assert report.verdict == VERDICT_HOLDS and report.slack >= 1


def test_uvk_boundary(klein):
    rng = random.Random(8)
    B = FiniteSubset.from_keys(klein, rng.sample(klein.ball_keys(8), 108))
    assert check_uvk(B, 3).verdict == VERDICT_HYPOTHESIS_NOT_MET


def test_uvk_grid_plus_one(klein):
    keys = [(i, j) for i in range(11) for j in range(10)] + [(20, 20)]
    B = FiniteSubset.from_keys(klein, keys)
    report = check_uvk(B, 3)
    assert report.verdict == VERDICT_HOLDS
    assert report.slack == report.witness["product_size"] - len(B) - 3


def test_uvk_lattice_unsupported(z2):
    B = FiniteSubset.from_keys(z2, [(0, 0)])
    with pytest.raises(UnsupportedOperationError):
        check_uvk(B, 3)


def test_main_theorem_grid():
    A, B = klein_grid_sets(23)
    report = check_main_theorem(A, B, 1)
    assert report.verdict == VERDICT_HOLDS
    assert report.witness["product_size"] == 575
    assert report.slack == 575 - (3 + 529 + 1)


def test_main_theorem_boundary(klein):
    A, B = klein_grid_sets(23)
    B500 = FiniteSubset.from_keys(klein, B.keys[:500])
    assert check_main_theorem(A, B500, 1).verdict == VERDICT_HYPOTHESIS_NOT_MET


def test_main_theorem_general_bound_skipped_by_scale():
    A, B = klein_grid_sets(23)
    report = check_main_theorem(A, B, 1, use_general_bound=True)
    assert report.verdict == VERDICT_HYPOTHESIS_NOT_MET
    assert "skipped-by-scale" in report.detail
    assert report.witness["gate"] == 32 * 4 ** 6 == 131072


def test_main_theorem_cyclic_a_gates(z1):
    A = zset(z1, [0, 1])
    B = zset(z1, range(600))
    report = check_main_theorem(A, B, 1)
    assert report.verdict == VERDICT_HYPOTHESIS_NOT_MET


# -- example families ------------------------------------------------------------------


def test_klein_grid_small_m():
    for m, expected in ((1, 3), (2, 8), (5, 35)):
        _, _, report = example_klein_grid(m)
        assert report.verdict == VERDICT_HOLDS
        assert report.witness["product_size"] == expected
        assert report.witness["deficiency"] == 2 * m - 3


def test_klein_grid_formula_midrange():
    for m in range(1, 9):
        _, _, report = example_klein_grid(m)
        assert report.verdict == VERDICT_HOLDS and report.slack == 0


def test_klein_union_small_m():
    for m, (size, square) in ((1, (4, 9)), (2, (7, 19))):
        A, report = example_klein_union(m)
        assert report.verdict == VERDICT_HOLDS
        assert (len(A), report.witness["square_size"]) == (size, square)


def test_klein_union_sits_at_ten_thirds():
    for m in range(1, 8):
        A, report = example_klein_union(m)
        assert 3 * report.witness["square_size"] == 10 * len(A) - 13


def test_klein_families_cap_their_products_at_the_table_cap(monkeypatch):
    # the grid needs 3 m^2 products and the union (3m + 1)^2
    assert len(klein_union_set(341)) == 1024
    with pytest.raises(ResourceLimitError, match="union family at m = 342 needs more than 1048576 products"):
        klein_union_set(342)
    with pytest.raises(ResourceLimitError, match="grid family at m = 592 needs more than 1048576 products"):
        klein_grid_sets(592)
    monkeypatch.setattr(laws, "PRODUCT_TABLE_CAP", 300)
    assert len(klein_grid_sets(10)[1]) == 100
    with pytest.raises(ResourceLimitError):
        klein_grid_sets(11)
    # c_lower at k builds the grid at m = (k + 3) // 2
    assert check_c_lower(18).witness["m"] == 10
    with pytest.raises(ResourceLimitError, match="grid family at m = 11 "):
        check_c_lower(19)


def test_atom_conjecture_set_below_n_is_not_an_atom(z1):
    U = FiniteSubset.from_keys(z1, [(0,), (1,)])
    C = FiniteSubset.from_keys(z1, [(0,), (1,), (2,)])
    report = LAWS["atom_conjecture"].lemma(U, C, 3)
    assert (report.verdict, report.slack, report.detail) == (VERDICT_HYPOTHESIS_NOT_MET, None, "|U| = 2 < n = 3")
    report = LAWS["atom_conjecture"].lemma(U, C, 1)
    assert (report.verdict, report.slack, report.detail) == (VERDICT_FINDING, 1, "atom larger than n")


def test_family_domain_errors():
    with pytest.raises(DomainError):
        example_klein_grid(0)
    with pytest.raises(DomainError):
        example_klein_union(0)
    with pytest.raises(DomainError):
        check_c_lower(0)


def test_c_lower_witnesses():
    w1 = check_c_lower(1).witness
    assert (w1["m"], w1["B_size"], w1["deficiency"]) == (2, 4, 1)
    w5 = check_c_lower(5).witness
    assert (w5["m"], w5["B_size"], w5["deficiency"]) == (4, 16, 5)
    for k in range(1, 12):
        report = check_c_lower(k)
        w = report.witness
        assert w["deficiency"] == 2 * w["m"] - 3 <= k
        assert report.verdict == VERDICT_HOLDS


def triangle_witness(spec, m, shear):
    """A = {(0,0), (1,0), (0,1)} and the triangle {(i, shear(i) + j) : 0 <= i < m, 0 <= j < m - i}."""
    backend = backend_from_spec(spec)
    A = FiniteSubset.from_keys(backend, [(0, 0), (1, 0), (0, 1)])
    return A, FiniteSubset.from_keys(backend, [(i, shear(i) + j) for i in range(m) for j in range(m - i)])


@pytest.mark.parametrize("spec, shear", [("zd:2", lambda i: 0), ("klein", lambda i: (i + 1) // 2)])
def test_triangle_of_side_k_plus_2_has_deficiency_k(spec, shear):
    # beyond the grid check_c_lower builds, |B| = (k+2)(k+3)/2 stays at deficiency k
    for k in range(1, 11):
        A, T = triangle_witness(spec, k + 2, shear)
        assert len(T) == (k + 2) * (k + 3) // 2
        assert deficiency(A, T) == k


def test_unsheared_klein_triangle_is_worse():
    A, T = triangle_witness("klein", 6, lambda i: 0)
    assert product_size(A, T) - len(T) == 10


# -- corollary for A = B ----------------------------------------------------------------


def test_corollary_interval_hypothesis(z1):
    A = zset(z1, range(216))
    report = check_corollary_AB(A)
    assert report.verdict == VERDICT_HYPOTHESIS_NOT_MET
    assert report.witness["n"] == -1


def test_corollary_gapped_interval(z1):
    A = zset(z1, [0] + list(range(2, 217)))
    report = check_corollary_AB(A)
    assert report.verdict == VERDICT_HOLDS
    assert report.witness["n"] == 0
    assert report.witness["cover_length"] == 217


def test_corollary_klein_progression(klein):
    A = FiniteSubset.from_keys(klein, [(i, 0) for i in range(216)])
    report = check_corollary_AB(A)
    assert report.verdict == VERDICT_HYPOTHESIS_NOT_MET
    assert report.witness["n"] == -1


def test_corollary_small_set_gates(z1):
    assert check_corollary_AB(zset(z1, range(10))).verdict == VERDICT_HYPOTHESIS_NOT_MET


def test_corollary_decides_its_size_boundary_exactly(z1):
    # |A| = 1372 = 4 (2n + 3)^3 at n = 2, where the float n_bound reads 1.9999999999999996
    A = zset(z1, [*range(1371), 1374])
    report = check_corollary_AB(A)
    assert (report.witness["n"], report.witness["cover_length"]) == (2, 1375)
    assert report.witness["n_bound"] < 2
    assert (report.verdict, report.slack) == (VERDICT_HOLDS, 0)
    # one element fewer, still n = 2: the hypothesis needs |A| >= 1372
    report = check_corollary_AB(zset(z1, [*range(1, 1371), 1374]))
    assert report.witness["n"] == 2
    assert report.verdict == VERDICT_HYPOTHESIS_NOT_MET


# -- report plumbing ---------------------------------------------------------------------


def collect_sample_reports():
    from sumsetlab.groups import backend_from_spec

    z1b = backend_from_spec("zd:1")
    A, B = klein_grid_sets(3)
    C = FiniteSubset.from_keys(z1b, [(0,), (1,), (2,)])
    result = kappa_restricted(IsoInstance(C, 2, z1b.ball(6)), fragment_limit=0)
    reports = [
        check_kempermann(A, B),
        check_hls(A, B),
        check_freiman_dim(FiniteSubset.from_keys(backend_from_spec("zd:2"), [(0, 0), (1, 0), (0, 1)])),
        check_3k4(FiniteSubset.from_keys(z1b, [(0,), (1,), (2,), (4,)])),
        check_uvk(B, 3),
        check_main_theorem(A, B, 1),
        example_klein_grid(4)[2],
        example_klein_union(4)[1],
        check_c_lower(4),
        check_equality_characterization(FiniteSubset.from_keys(z1b, [(i,) for i in range(5)]), (2, 3)),
    ]
    reports.extend(lemma_reports(C, 2, result))
    return reports


def test_reports_replay_identically():
    for report in collect_sample_reports():
        if report.verdict in (VERDICT_HOLDS, VERDICT_VIOLATED):
            again = replay(report)
            assert again.law == report.law
            assert again.verdict == report.verdict
            assert again.slack == report.slack


def test_every_report_has_single_known_verdict():
    for report in collect_sample_reports():
        assert report.verdict in VERDICTS


def test_law_status_partition():
    assert CONJECTURE_LAWS == {"atom_conjecture"}
    assert "kempermann" in THEOREM_LAWS and "uvk" in THEOREM_LAWS
    assert not (THEOREM_LAWS & CONJECTURE_LAWS)
    # the exit-code set is exactly the catalogue's non-conjecture laws
    assert THEOREM_LAWS == frozenset(LAW_IDS) - CONJECTURE_LAWS
