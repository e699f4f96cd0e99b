"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every tolerance is exact (integer equality) unless a runtime budget is
stated, in which case wall-clock time is asserted as well.
"""

import itertools
import random
import time

from sumsetlab.explorer import Campaign, hunt, run_campaign
from sumsetlab.groups import backend_from_spec
from sumsetlab.isoperimetry import CERTIFIED_EXACT, IsoInstance, kappa_restricted
from sumsetlab.laws import (
    ATOM_LAWS,
    LAWS,
    check_c_lower,
    check_equality_characterization,
    check_main_theorem,
    check_uvk,
    example_klein_grid,
    example_klein_union,
    klein_grid_sets,
)
from sumsetlab.reports import VERDICT_FINDING, VERDICT_HOLDS, VERDICT_VIOLATED
from sumsetlab.setops import FiniteSubset, min_progression_cover, product_size


def report_line(name: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{status}  {name}{timing}")


def test_criterion_01_klein_grid_family():
    start = time.perf_counter()
    ok = True
    for m in range(1, 41):
        _, _, report = example_klein_grid(m)
        ok = ok and report.verdict == VERDICT_HOLDS and report.slack == 0
        ok = ok and report.witness["product_size"] == m * m + 2 * m
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report_line("criterion 1: klein grid |AB| = m^2 + 2m for m in 1..40, < 5s", ok, elapsed)
    assert ok


def test_criterion_02_klein_union_family():
    start = time.perf_counter()
    ok = True
    for m in range(1, 41):
        A, report = example_klein_union(m)
        ok = ok and report.verdict == VERDICT_HOLDS
        ok = ok and len(A) == 3 * m + 1
        ok = ok and report.witness["square_size"] == 10 * m - 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report_line("criterion 2: klein union |A| = 3m+1, |A^2| = 10m-1 for m in 1..40, < 5s", ok, elapsed)
    assert ok


def test_criterion_03_quadratic_c_lower_witnesses():
    ok = True
    for k in range(1, 21):
        w = check_c_lower(k).witness
        m = (k + 3) // 2
        ok = ok and w["m"] == m and w["B_size"] == m * m
        ok = ok and w["deficiency"] == 2 * m - 3 and w["deficiency"] <= k
        A, B = klein_grid_sets(m)
        ok = ok and product_size(A, B) - len(A) - len(B) == w["deficiency"]
    report_line("criterion 3: c(k) witness deficiency 2*floor((k+3)/2)-3 <= k, |B| = m^2, k in 1..20", ok)
    assert ok


FUZZ_PLAN = (("zd:2", 4), ("free:2", 3), ("klein", 5), ("heis", 4))


def test_criterion_04_kempermann_fuzz():
    start = time.perf_counter()
    violations = 0
    for spec, radius in FUZZ_PLAN:
        backend = backend_from_spec(spec)
        ball = backend.ball_keys(radius)
        mul = backend.mul_key
        rng = random.Random(f"kempermann:{spec}")
        for _ in range(10_000):
            na = rng.randint(1, 12)
            nb = rng.randint(1, 12)
            A = rng.sample(ball, na)
            B = rng.sample(ball, nb)
            ab = len({mul(a, b) for a in A for b in B})
            if ab < na + nb - 1:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report_line("criterion 4: kempermann fuzz, 10^4 pairs x 4 backends, 0 violations, < 60s", ok, elapsed)
    assert ok


def test_criterion_05_equality_characterization_exhaustive():
    start = time.perf_counter()
    z1 = backend_from_spec("zd:1")
    window = FiniteSubset.from_keys(z1, [(i,) for i in range(8)])
    report = check_equality_characterization(window, (2, 4))
    elapsed = time.perf_counter() - start
    ok = report.verdict == VERDICT_HOLDS and report.slack == 0
    ok = ok and report.witness["equality_pairs"] > 0
    ok = ok and elapsed < 60.0
    report_line("criterion 5: every deficiency -1 pair in [0..7], sizes 2-4, is a common-ratio pair, < 60s", ok, elapsed)
    assert ok


def test_criterion_06_kappa_suite():
    ok = True
    for spec, radius in (("zd:1", 3), ("zd:2", 2), ("free:2", 2), ("klein", 2), ("heis", 2)):
        backend = backend_from_spec(spec)
        ball = backend.ball_keys(radius)
        window = backend.ball(1)
        rng = random.Random(f"kappa:{spec}")
        for _ in range(100):
            C = FiniteSubset.from_keys(backend, rng.sample(ball, rng.randint(1, min(10, len(ball)))))
            result = kappa_restricted(IsoInstance(C, 1, window), fragment_limit=0)
            ok = ok and result.kappa_hat == len(C) - 1
            ok = ok and result.certificate == CERTIFIED_EXACT

    z1 = backend_from_spec("zd:1")
    C = FiniteSubset.from_keys(z1, [(0,), (1,), (3,)])
    window = FiniteSubset.from_keys(z1, [(i,) for i in range(-6, 7)])
    result = kappa_restricted(IsoInstance(C, 2, window))
    ok = ok and result.kappa_hat == 3

    mul = z1.mul_key
    best = None
    minimizers = []
    for s in range(2, len(window) + 1):
        for X in itertools.combinations(window.keys, s):
            obj = len({mul(x, c) for x in X for c in C.keys}) - s
            if best is None or obj < best:
                best, minimizers = obj, [X]
            elif obj == best:
                minimizers.append(X)
    ok = ok and best == 3
    smallest = min(len(X) for X in minimizers)
    brute_atoms = sorted(X for X in minimizers if len(X) == smallest and (0,) in X)
    ok = ok and [U.keys for U in result.atoms] == brute_atoms
    ok = ok and ((0,), (1,)) in brute_atoms
    report_line("criterion 6: kappa_1 = |C|-1 certified on 100 random C x 5 backends; kappa_2({0,1,3}) = 3 with atoms matching brute force", ok)
    assert ok


def certified_corpus():
    """Certified instances across all four backend families."""
    corpus = []
    for spec, radius in (("zd:1", 6), ("zd:2", 2), ("free:2", 2), ("klein", 2), ("heis", 2)):
        backend = backend_from_spec(spec)
        window = backend.ball(radius)
        for g in backend.generator_keys():
            keys = [backend.identity_key, g, backend.pow_key(g, 2)]
            for n in (2, 3):
                corpus.append((FiniteSubset.from_keys(backend, keys), n, window))
        corpus.append((FiniteSubset.from_keys(backend, [backend.identity_key, backend.generator_keys()[0]]), 2, window))
    return corpus


def test_criterion_07_atom_lemma_suite():
    violations = []
    certified = 0
    for C, n, window in certified_corpus():
        result = kappa_restricted(IsoInstance(C, n, window), fragment_limit=0)
        if result.certificate != CERTIFIED_EXACT:
            continue
        certified += 1
        for report in (LAWS[law].lemma(U, C, n) for U in result.atoms for law in ATOM_LAWS):
            if report.verdict == VERDICT_VIOLATED:
                violations.append(report)
            if report.law == "atom_conjecture" and report.verdict == VERDICT_FINDING:
                violations.append(report)
    findings = hunt("atom_conjecture", {"backend": "zd:1", "span": 8, "n_max": 3, "x_radius": 4})
    ok = not violations and not findings and certified > 0
    report_line("criterion 7: atom lemmas hold on every certified result; conjecture scan [0..8], n <= 3, 0 findings", ok)
    assert ok


def test_criterion_08_uvk_desk_scale():
    start = time.perf_counter()
    klein = backend_from_spec("klein")
    ball8 = klein.ball_keys(8)
    rng = random.Random("uvk:klein")
    ok = True
    for _ in range(200):
        size = rng.randint(109, min(150, len(ball8)))
        B = FiniteSubset.from_keys(klein, rng.sample(ball8, size))
        report = check_uvk(B, 3)
        ok = ok and report.verdict == VERDICT_HOLDS and report.slack >= 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report_line("criterion 8: uvk klein d=3, 200 random B with 109 <= |B| <= 150 from ball(8), < 120s", ok, elapsed)
    assert ok


def test_criterion_09_main_theorem_gate():
    A, B = klein_grid_sets(23)
    report = check_main_theorem(A, B, 1)
    ok = report.verdict == VERDICT_HOLDS
    ok = ok and report.witness["product_size"] == 575
    ok = ok and report.slack == 575 - 533
    ok = ok and len(B) == 529 > 4 * 5 ** 3
    general = check_main_theorem(A, B, 1, use_general_bound=True)
    ok = ok and general.verdict == "hypothesis_not_met"
    ok = ok and "skipped-by-scale" in general.detail
    ok = ok and general.witness["gate"] == 32 * (1 + 3) ** 6
    report_line("criterion 9: main theorem via unique-product gate at |B| = 529; general bound gated skipped-by-scale", ok)
    assert ok


def test_criterion_10_3k4_exhaustive():
    start = time.perf_counter()
    z1 = backend_from_spec("zd:1")
    mul = z1.mul_key
    exceptions = 0
    hypothesis_cases = 0
    for size in (4, 5):
        for combo in itertools.combinations(range(11), size):
            keys = tuple((v,) for v in combo)
            square = len({mul(a, b) for a in keys for b in keys})
            if square > 3 * size - 4:
                continue
            hypothesis_cases += 1
            A = FiniteSubset.from_keys(z1, keys)
            cover = min_progression_cover(A)
            if cover is None or cover > 2 * size - 3:
                exceptions += 1
    elapsed = time.perf_counter() - start
    ok = exceptions == 0 and hypothesis_cases > 0 and elapsed < 60.0
    report_line("criterion 10: (3k-4) exhaustive on [0..10], |A| in {4,5}, 0 exceptions, < 60s", ok, elapsed)
    assert ok


def test_criterion_11_campaign_determinism(tmp_path):
    config = dict(
        backends=("zd:1", "klein"),
        laws=("kempermann", "klein_grid", "c_lower"),
        budget=50,
        seed=2024,
        radius=3,
        sizes=(1, 8),
    )
    streams = []
    for run_index, jobs in enumerate((1, 4, 1, 4)):
        campaign = Campaign(jobs=jobs, **config)
        path = tmp_path / f"run{run_index}.jsonl"
        run = run_campaign(campaign, store_path=path)
        streams.append(path.read_bytes())
        assert run.clean
    ok = all(stream == streams[0] for stream in streams)
    report_line("criterion 11: campaign record streams byte-identical across reruns and parallelism 1 vs 4", ok)
    assert ok
