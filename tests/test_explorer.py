"""Campaign execution, record persistence and hunts."""

import dataclasses
import hashlib
import itertools
import json
import math
import re

import pytest

from sumsetlab.errors import ParseError, ResourceLimitError, UsageError
from sumsetlab.explorer import (
    ATOM_HUNT_SUBSET_CAP,
    HUNT_3K4_SET_CAP,
    SCHEMA_VERSION,
    Campaign,
    hunt,
    load_config,
    read_records,
    run_campaign,
    sample_subset,
    summarize,
    write_records,
    _instance_rng,
    _run_law_instance,
)
from sumsetlab.groups import backend_from_spec
from sumsetlab.setops import FiniteSubset, _binomials_fit, product_size

BACKEND_SPECS = ("zd:1", "zd:2", "free:2", "klein", "heis")


def small_campaign(jobs=1, seed=42, laws=("kempermann", "klein_grid")):
    return Campaign(
        backends=("zd:1", "klein"),
        laws=laws,
        budget=25,
        seed=seed,
        jobs=jobs,
        radius=3,
        sizes=(1, 6),
    )


def test_campaign_validation():
    with pytest.raises(UsageError):
        Campaign(backends=("zd:1",), laws=("nope",))
    with pytest.raises(UsageError):
        Campaign(backends=("zd:1",), laws=("kempermann",), budget=0)
    with pytest.raises(UsageError):
        Campaign(backends=("what:1",), laws=("kempermann",))
    # uvk reports d < 3 as hypothesis_not_met, so d_values has no floor
    Campaign(backends=("klein",), laws=("uvk",), d_values=(0,))


@pytest.mark.parametrize("bad", [
    {"n_values": ()},
    {"k_values": ()},
    {"d_values": ()},
    {"m_values": ()},
    {"sizes": (5, 2)},
    {"sizes": (0, 3)},
    {"jobs": 0},
    {"jobs": -3},
    {"radius": 13},
    {"radius": -1},
    {"iso_radius": 13},
    {"n_values": (0,)},
    {"n_values": (2, 0)},
    {"k_values": (0,)},
    {"k_values": (-1,)},
    {"m_values": (0,)},
])
def test_campaign_rejects_bad_config(bad):
    with pytest.raises(UsageError):
        Campaign(backends=("klein",), laws=("uvk",), **bad)


def test_campaign_hash_ignores_jobs():
    assert small_campaign(jobs=1).hash() == small_campaign(jobs=4).hash()
    assert small_campaign(seed=1).hash() != small_campaign(seed=2).hash()


IDENTITY_CAMPAIGN = Campaign(backends=("zd:2", "klein"), laws=("kempermann", "equality"), seed=5, sizes=(2, 6))


@pytest.mark.parametrize("campaign, digest", [
    (IDENTITY_CAMPAIGN, "abe6a1cb03e91088"),
    (Campaign(backends=("heis", "free:2"), laws=("atom_left", "uvk"), budget=7, seed=11, radius=2,
              sizes=(1, 5), n_values=(2, 3), k_values=(1, 2), d_values=(3, 4), m_values=(2,),
              iso_radius=2), "e90f1c0d83fc9fe9"),
])
def test_campaign_hash_is_pinned(campaign, digest):
    # record stores written by earlier versions name their campaign by this hash
    assert campaign.hash() == digest


def _changed(value):
    if isinstance(value, int):
        return value + 1
    if isinstance(value[0], str):
        return value[::-1]
    return value[:-1] + (value[-1] + 1,)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Campaign)])
def test_every_field_but_jobs_is_campaign_identity(name):
    other = dataclasses.replace(IDENTITY_CAMPAIGN, **{name: _changed(getattr(IDENTITY_CAMPAIGN, name))})
    if name == "jobs":
        assert other.hash() == IDENTITY_CAMPAIGN.hash()
    else:
        assert other.hash() != IDENTITY_CAMPAIGN.hash()


@pytest.mark.parametrize("field, value", [("budget", "x"), ("n_values", 2), ("sizes", "18"), ("jobs", [2])])
def test_campaign_from_dict_names_a_malformed_field(field, value):
    with pytest.raises(UsageError, match=f"'{field}'"):
        Campaign.from_dict({"backends": ["zd:1"], "laws": ["kempermann"], field: value})


@pytest.mark.parametrize("field, value", [
    ("seed", float("inf")),
    ("sizes", [1.5, 2.7]),
    ("budget", True),
    ("radius", 2.9),
    ("budget", "5"),
    ("radius", 2.0),
    ("sizes", [2, 6.0]),
    ("n_values", [True, 2]),
])
def test_campaign_from_dict_rejects_non_int_numbers(field, value):
    # a float, bool or numeric string is never read as the integer it would truncate to
    with pytest.raises(UsageError, match=f"'{field}'"):
        Campaign.from_dict({"backends": ["klein"], "laws": ["uvk"], field: value})


@pytest.mark.parametrize("field, value", [
    ("radius", 2.5),
    ("budget", True),
    ("sizes", (1, 2.5)),
    ("n_values", [2, False]),
])
def test_campaign_constructor_rejects_non_int_numbers(field, value):
    # built from Python, a campaign gets the same check as from a config file
    with pytest.raises(UsageError, match=f"^campaign field '{field}' needs "):
        Campaign(backends=("zd:1",), laws=("kempermann",), **{field: value})


@pytest.mark.parametrize("names, problem", [
    ({"backends": 5, "laws": ("kempermann",)}, "campaign backends must be a string or a list, got 5"),
    ({"backends": ("zd:1",), "laws": 7}, "campaign laws must be a string or a list, got 7"),
    ({"backends": (), "laws": ("kempermann",)}, "campaign needs at least one backend"),
    ({"backends": ("zd:1",), "laws": None}, "campaign needs at least one law"),
])
def test_campaign_names_must_be_a_string_or_a_list(names, problem):
    with pytest.raises(UsageError, match=f"^{problem}$"):
        Campaign(**names)
    with pytest.raises(UsageError, match=f"^{problem}$"):
        Campaign.from_dict(names)


@pytest.mark.parametrize("names, problem", [
    ({"backends": ("zd:1", "zd:1"), "laws": ("kempermann",)}, "campaign backends repeat zd:1: 'zd:1' and 'zd:1'"),
    ({"backends": ("zd:1", "klein", " ZD:1"), "laws": ("kempermann",)},
     "campaign backends repeat zd:1: 'zd:1' and ' ZD:1'"),
    ({"backends": ("zd:1",), "laws": ("kempermann", "hls", "kempermann")},
     "campaign laws repeat kempermann: 'kempermann' and 'kempermann'"),
])
def test_campaign_rejects_a_repeated_backend_or_law(names, problem):
    # each repeat would write every record of its cells once more
    with pytest.raises(UsageError, match=f"^{re.escape(problem)}$"):
        Campaign(**names, budget=3, radius=2, sizes=(1, 3))
    with pytest.raises(UsageError, match=f"^{re.escape(problem)}$"):
        Campaign.from_dict(dict(names))


@pytest.mark.parametrize("extra, unknown", [
    ({"budjet": 2}, "['budjet']"),
    ({"Seed": 1, "hunts": [], "budget": 2}, "['Seed', 'hunts']"),
    ({"backend": "klein"}, "['backend']"),
])
def test_campaign_from_dict_names_unknown_keys(extra, unknown):
    # an unknown key would otherwise leave its field at the default unnoticed
    data = {"schema_version": 1, "backends": ["zd:1"], "laws": ["kempermann"], **extra}
    with pytest.raises(UsageError, match=f"^unknown campaign config keys: {re.escape(unknown)}$"):
        Campaign.from_dict(data)


def test_campaign_reads_one_name_as_a_tuple_of_one():
    assert Campaign(backends="zd:1", laws="kempermann") == Campaign(backends=["zd:1"], laws=("kempermann",))


def test_campaign_constructor_reads_lists_as_tuples():
    campaign = Campaign(backends=("zd:2", "klein"), laws=("kempermann", "equality"), seed=5, sizes=[2, 6])
    assert campaign == IDENTITY_CAMPAIGN
    assert campaign.hash() == "abe6a1cb03e91088"


def test_campaign_config_round_trip(tmp_path):
    config = {
        "schema_version": 1,
        "backends": ["zd:1"],
        "laws": ["kempermann"],
        "budget": 10,
        "seed": 3,
        "sizes": [1, 5],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    campaign = Campaign.from_dict(load_config(path))
    assert campaign.backends == ("zd:1",)
    assert campaign.sizes == (1, 5)
    bad = dict(config, schema_version=99)
    path.write_text(json.dumps(bad))
    with pytest.raises(UsageError):
        Campaign.from_dict(load_config(path))


def test_run_campaign_counts_and_clean(tmp_path):
    run = run_campaign(small_campaign(), store_path=tmp_path / "r.jsonl")
    assert sum(run.counts.values()) == len(run.records)
    assert run.clean
    assert run.counts.get("violated", 0) == 0
    # klein_grid runs only under the klein backend
    skipped = [r for r in run.records if r["report"]["verdict"] == "skipped"]
    assert all(r["backend"] == "zd:1" and r["law"] == "klein_grid" for r in skipped)


def test_seed_replay_identical_records(tmp_path):
    r1 = run_campaign(small_campaign(), store_path=tmp_path / "a.jsonl")
    r2 = run_campaign(small_campaign(), store_path=tmp_path / "b.jsonl")
    assert r1.records == r2.records
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_parallelism_identical_records(tmp_path):
    r1 = run_campaign(small_campaign(jobs=1), store_path=tmp_path / "a.jsonl")
    r4 = run_campaign(small_campaign(jobs=4), store_path=tmp_path / "b.jsonl")
    assert r1.records == r4.records
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_different_seeds_differ():
    r1 = run_campaign(small_campaign(seed=1))
    r2 = run_campaign(small_campaign(seed=2))
    assert r1.records != r2.records


def test_record_store_round_trip(tmp_path):
    run = run_campaign(small_campaign())
    path = tmp_path / "records.jsonl"
    write_records(path, run.records)
    assert read_records(path) == run.records
    # append-only: writing again appends rather than truncating
    write_records(path, run.records[:1])
    assert len(read_records(path)) == len(run.records) + 1


def test_summarize_shape():
    run = run_campaign(small_campaign())
    rows = summarize(run.records)
    assert [row["law"] for row in rows] == sorted({r["law"] for r in run.records})
    kemp = next(row for row in rows if row["law"] == "kempermann")
    assert kemp["holds"] == 50
    assert kemp["min_slack"] >= 0


def test_full_law_catalogue_campaign():
    # every law id has a runner; the run is clean and each law produced records
    from sumsetlab.laws import LAW_IDS

    campaign = Campaign(
        backends=("zd:2", "klein"),
        laws=tuple(LAW_IDS),
        budget=2,
        seed=5,
        radius=2,
        sizes=(1, 5),
        n_values=(1, 2),
        iso_radius=2,
    )
    run = run_campaign(campaign)
    assert run.clean
    seen = {r["law"] for r in run.records}
    assert seen == set(LAW_IDS)
    assert sum(run.counts.values()) == len(run.records)


def test_campaign_records_replay():
    from sumsetlab.laws import LAW_IDS, replay
    from sumsetlab.reports import LawReport

    campaign = Campaign(
        backends=("zd:2", "klein"),
        laws=tuple(LAW_IDS),
        budget=1,
        seed=13,
        radius=2,
        sizes=(2, 5),
        n_values=(2,),
        iso_radius=2,
    )
    run = run_campaign(campaign)
    replayed = 0
    for record in run.records:
        report = LawReport.from_dict(record["report"])
        if report.verdict not in ("holds", "violated"):
            continue
        again = replay(report)
        assert (again.verdict, again.slack) == (report.verdict, report.slack), report.law
        replayed += 1
    assert replayed > 0


def test_equality_campaign_clamps_large_windows():
    # free:2 ball(2) has 17 elements; its 816 sets of sizes 2-3 would exceed the
    # equality set cap, so the runner clamps the size range instead of failing
    campaign = Campaign(backends=("free:2",), laws=("equality",), budget=1, seed=1,
                        radius=3, sizes=(1, 8))
    run = run_campaign(campaign)
    assert run.clean
    assert run.records[0]["report"]["verdict"] == "holds"
    assert run.records[0]["report"]["witness"]["sizes"] == [2, 2]


def test_equality_campaign_skips_a_window_too_large_for_any_size_range():
    # zd:4 ball(2) has 41 elements, and its C(41, 2) = 820 sets of size 2 already exceed the set cap
    run = run_campaign(Campaign(backends=("zd:4",), laws=("equality",), budget=1, radius=2, sizes=(2, 3)))
    assert run.clean
    assert [(r["report"]["verdict"], r["report"]["detail"]) for r in run.records] == [
        ("skipped", "window too large for exhaustive pair enumeration")]


@pytest.mark.parametrize("law, config, detail", [
    ("3k4", {"radius": 1}, "minimum set size 4 exceeds the 3-element ball of radius 1"),
    ("main_theorem", {"radius": 0}, "minimum set size 2 exceeds the 1-element ball of radius 0"),
    ("equality", {"sizes": (1, 1)}, "size range [1, 1] is below the minimum set size 2"),
    ("equality", {"radius": 0}, "size range [1, 1] is below the minimum set size 2"),
])
def test_campaign_skips_sets_too_large_for_its_ball_or_sizes(law, config, detail):
    run = run_campaign(Campaign(backends=("zd:1",), laws=(law,), budget=2, **config))
    assert run.clean
    assert [(r["report"]["verdict"], r["report"]["detail"]) for r in run.records] == [("skipped", detail)] * 2


def test_atom_law_campaign_runs_clean():
    campaign = Campaign(
        backends=("zd:1",),
        laws=("atom_left", "atom_conjecture"),
        budget=6,
        seed=11,
        radius=2,
        sizes=(1, 4),
        n_values=(1, 2),
        iso_radius=3,
    )
    run = run_campaign(campaign)
    assert run.clean
    assert not any(r["report"]["verdict"] == "finding" for r in run.records)


@pytest.mark.parametrize("jobs", [1, 2])
def test_seed_free_instances_run_once_per_campaign(monkeypatch, jobs):
    """equality, klein_grid and c_lower draw nothing: each (backend, law, params) runs once,
    and the records equal those of one memo-free instance per index."""
    from sumsetlab import laws

    campaign = Campaign(backends=("klein", "zd:2"), laws=("equality", "klein_grid", "c_lower", "kempermann"),
                        budget=7, seed=3, jobs=jobs, radius=2, sizes=(1, 5))
    assert campaign.budget > len(campaign.m_values)
    expected = sorted(
        ({"schema_version": SCHEMA_VERSION, "campaign": campaign.hash(), "backend": backend, "law": law,
          "index": index, "sub": sub, "report": report.to_dict()}
         for backend in campaign.backends for law in campaign.laws for index in range(campaign.budget)
         for sub, report in enumerate(_run_law_instance(campaign, backend, law, index))),
        key=lambda r: (r["backend"], r["law"], r["index"], r["sub"]),
    )
    calls = []
    checker = laws.check_equality_characterization
    monkeypatch.setattr(laws, "check_equality_characterization",
                        lambda window, sizes: calls.append(window.backend.spec) or checker(window, sizes))
    assert run_campaign(campaign).records == expected
    assert sorted(calls) == ["klein", "zd:2"]


def test_instance_rng_is_stable():
    a = _instance_rng(7, "zd:1", "kempermann", 3).random()
    b = _instance_rng(7, "zd:1", "kempermann", 3).random()
    c = _instance_rng(7, "zd:1", "kempermann", 4).random()
    assert a == b != c


def test_sample_subset_deterministic(z1):
    r1 = sample_subset(_instance_rng(1, "zd:1", "x", 0), z1, 3, 4)
    r2 = sample_subset(_instance_rng(1, "zd:1", "x", 0), z1, 3, 4)
    assert r1 == r2
    with pytest.raises(UsageError):
        sample_subset(_instance_rng(1, "zd:1", "x", 0), z1, 1, 99)


@pytest.mark.parametrize("spec", BACKEND_SPECS)
def test_sample_subset_equals_validated_construction(spec):
    backend = backend_from_spec(spec)
    ball = backend.ball_keys(3)
    for seed in range(8):
        for size in (1, 4, len(ball)):
            drawn = sample_subset(_instance_rng(seed, spec, "x", size), backend, 3, size)
            expected = FiniteSubset.from_keys(backend, _instance_rng(seed, spec, "x", size).sample(ball, size))
            assert drawn == expected
            for key in drawn.keys:
                backend.check_key(key)


DIMENSION_CAMPAIGN = Campaign(backends=("zd:2", "zd:3"), laws=("freiman_dim", "ruzsa_dim", "gardner_gronchi"),
                              budget=20, radius=4)


def test_dimension_law_records_are_pinned():
    # the stream the rational-elimination dimension wrote; a faster dimension must keep every byte
    records = run_campaign(DIMENSION_CAMPAIGN).records
    stream = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    digest = hashlib.sha256(stream.encode("utf-8")).hexdigest()
    assert digest == "7f0829e2411e7f633d56843607ededb873ad288c88f66ae80f87f396fd761eec"


PRODUCT_LAW_CAMPAIGN = Campaign(backends=("zd:2", "klein", "heis", "free:2"),
                               laws=("kempermann", "hls", "3k4", "main_theorem", "uvk", "corollary_ab"),
                               budget=10, radius=3, sizes=(2, 12))


def test_product_law_records_are_pinned():
    # the stream that mul_key set comprehensions and uncached labels wrote; the
    # product_keys kernels and the label memo must keep every byte
    records = run_campaign(PRODUCT_LAW_CAMPAIGN).records
    stream = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    digest = hashlib.sha256(stream.encode("utf-8")).hexdigest()
    assert len(records) == 240
    assert digest == "da8c435980abb5f3215c7b2290b698ef35b5505a48f34df1fdafbf9e25e6afa3"


# -- hunts ---------------------------------------------------------------------


def test_hunt_atom_conjecture_z_small():
    findings = hunt("atom_conjecture", {"backend": "zd:1", "span": 5, "n_max": 2, "x_radius": 3})
    assert findings == []


def test_hunt_atom_conjecture_caps_before_enumerating(monkeypatch):
    from sumsetlab import laws

    def no_search(*args, **kwargs):
        raise AssertionError("the hunt searched before checking its cap")

    monkeypatch.setattr(laws, "kappa_restricted", no_search)
    # klein's radius-3 ball has 25 elements: 2^24 sets C
    with pytest.raises(ResourceLimitError):
        hunt("atom_conjecture", {"backend": "klein"})


def test_hunt_atom_conjecture_findings_are_the_law_reports(monkeypatch):
    from sumsetlab import laws
    from sumsetlab.isoperimetry import CERTIFIED_EXACT, IsoResult

    def two_element_atom(inst, fragment_limit):
        U = FiniteSubset.from_keys(inst.backend, [(0,), (1,)])
        return IsoResult(len(inst.C) - 1, (U,), (), CERTIFIED_EXACT)

    monkeypatch.setattr(laws, "kappa_restricted", two_element_atom)
    grid = {"backend": "zd:1", "span": 1, "n_max": 1, "x_radius": 1}
    findings = hunt("atom_conjecture", grid)
    # C is {0} or {0, 1} and n = 1, so the two-element atom is one finding per C
    assert [(r.verdict, r.slack, r.detail) for r in findings] == [("finding", 1, "atom larger than n")] * 2
    z1 = backend_from_spec("zd:1")
    C = FiniteSubset.from_keys(z1, [(0,), (1,)])
    assert findings[1] == laws.LAWS["atom_conjecture"].run(C=C, n=1, window=z1.ball(1))[0]
    assert findings[1].witness["k"] is None


def test_hunt_3k4_caps_before_enumerating(monkeypatch):
    from sumsetlab import explorer

    def no_check(*args, **kwargs):
        raise AssertionError("the hunt checked a set before checking its cap")

    monkeypatch.setattr(explorer, "check_3k4", no_check)
    # zd:2's radius-3 ball has 25 elements: C(25, 8) = 1,081,575 sets A
    with pytest.raises(ResourceLimitError):
        hunt("3k4", {"backend": "zd:2", "radius": 3, "sizes": [8]})


@pytest.mark.parametrize("conjecture, grid, what, cap", [
    # 2^20000 sets C and C(20001, 10000) sets A: counts past Python's digit limit
    ("atom_conjecture", {"span": 20_000}, "C", ATOM_HUNT_SUBSET_CAP),
    ("3k4", {"span": 20_000, "sizes": [10_000]}, "A", HUNT_3K4_SET_CAP),
    # universes too large to build
    ("atom_conjecture", {"span": 10 ** 20}, "C", ATOM_HUNT_SUBSET_CAP),
    ("3k4", {"span": 10 ** 20}, "A", HUNT_3K4_SET_CAP),
])
def test_hunt_cap_states_the_bound_before_building_the_universe(conjecture, grid, what, cap):
    with pytest.raises(ResourceLimitError, match=f"^the universe gives more than {cap} sets {what}, the .* hunt cap$"):
        hunt(conjecture, grid)


@pytest.mark.parametrize("n, ks", [(0, (1,)), (5, (6, 2)), (17, tuple(range(1, 18))), (40, (3, 20)), (10 ** 6, (1, 2))])
def test_binomials_fit_accepts_the_exact_sum_and_refuses_one_less(n, ks):
    total = sum(math.comb(n, k) for k in ks)
    assert _binomials_fit(n, ks, total)
    assert total == 0 or not _binomials_fit(n, ks, total - 1)


@pytest.mark.parametrize("span, message", [
    # C(cap, 1) = cap sets A pass the hunt cap and reach the product table's
    (HUNT_3K4_SET_CAP - 1, "window products exceed the table cap"),
    (HUNT_3K4_SET_CAP, f"the universe gives more than {HUNT_3K4_SET_CAP} sets A"),
])
def test_hunt_3k4_cap_boundary(span, message):
    with pytest.raises(ResourceLimitError, match=message):
        hunt("3k4", {"span": span, "sizes": [1]})


def test_hunt_3k4_cap_builds_no_huge_binomial(monkeypatch):
    comb = math.comb

    def guarded_comb(n, k):
        assert n <= HUNT_3K4_SET_CAP, f"comb({n}, {k}) past the cap"
        return comb(n, k)

    monkeypatch.setattr(math, "comb", guarded_comb)
    with pytest.raises(ResourceLimitError, match=f"^the universe gives more than {HUNT_3K4_SET_CAP} sets A"):
        hunt("3k4", {"span": 10 ** 20, "sizes": [200_000]})


def test_hunt_3k4_z():
    findings = hunt("3k4", {"backend": "zd:1", "span": 8, "sizes": [4]})
    assert findings == []


@pytest.mark.parametrize("grid", [
    {"backend": "zd:1", "span": 8, "sizes": [3, 4, 5]},
    {"backend": "klein", "radius": 2, "sizes": [4]},
])
def test_hunt_3k4_checks_only_small_squares(monkeypatch, grid):
    from sumsetlab import explorer

    checked = []
    check_3k4 = explorer.check_3k4

    def recording_check(A):
        checked.append(A)
        return check_3k4(A)

    monkeypatch.setattr(explorer, "check_3k4", recording_check)
    assert hunt("3k4", grid) == []
    backend = backend_from_spec(grid["backend"])
    universe = explorer._universe_keys(backend, grid, lambda size: True, "")
    expected = [
        A for size in grid["sizes"]
        for A in (FiniteSubset._from_keys(backend, c) for c in itertools.combinations(universe, size))
        if product_size(A, A) <= 3 * len(A) - 4
    ]
    assert checked == expected and expected


@pytest.mark.parametrize("conjecture, grid, field", [
    ("3k4", {"sizes": [-1]}, "sizes"),
    ("3k4", {"sizes": [0, 4]}, "sizes"),
    ("3k4", {"sizes": 4}, "sizes"),
    ("3k4", {"backend": "zd:1", "span": "eight"}, "span"),
    ("3k4", {"radius": [2]}, "radius"),
    ("atom_conjecture", {"n_max": "x"}, "n_max"),
    ("atom_conjecture", {"x_radius": None}, "x_radius"),
    ("3k4", {"sizes": ["four"]}, "sizes"),
    ("3k4", {"sizes": "4,5"}, "sizes"),
    ("3k4", {"backend": "zd:1", "span": -3}, "span"),
    ("3k4", {"sizes": []}, "sizes"),
    ("3k4", {"sizes": [[4]]}, "sizes"),
    ("atom_conjecture", {"backend": "zd:1", "span": 3, "n_max": 0}, "n_max"),
    ("3k4", {"backend": "zd:1", "span": 3.7}, "span"),
    ("3k4", {"backend": "zd:1", "span": 3.0}, "span"),
    ("3k4", {"sizes": [4.0, 5]}, "sizes"),
    ("3k4", {"radius": 2.9}, "radius"),
    ("3k4", {"radius": True}, "radius"),
    ("atom_conjecture", {"backend": "zd:1", "span": 2, "n_max": "2"}, "n_max"),
    ("atom_conjecture", {"backend": "zd:1", "span": 2, "x_radius": float("inf")}, "x_radius"),
    ("3k4", {"sizes": [4, True]}, "sizes"),
    ("3k4", {"radius": -1}, "radius"),
    ("atom_conjecture", {"x_radius": -1}, "x_radius"),
])
def test_hunt_rejects_malformed_grid_naming_the_field(conjecture, grid, field):
    with pytest.raises(UsageError, match=f"'{field}'"):
        hunt(conjecture, grid)


def test_hunt_grid_is_an_object():
    with pytest.raises(UsageError, match="JSON object"):
        hunt("3k4", [4, 5])


def test_hunt_unknown_conjecture():
    with pytest.raises(UsageError):
        hunt("p_equals_np", {})
    # the union family never meets the 10/3 hypothesis, so it has no hunt
    with pytest.raises(UsageError, match="unknown conjecture id 'freiman_union'"):
        hunt("freiman_union", {"m_values": [1, 2, 3]})


def test_atom_law_sizes_above_the_c_cap_are_skipped():
    campaign = Campaign(backends=("zd:1",), laws=("atom_left",), sizes=(8, 12), radius=5, iso_radius=2, budget=1)
    run = run_campaign(campaign)
    [record] = run.records
    assert record["report"]["verdict"] == "skipped"
    assert "cap 6" in record["report"]["detail"]


def test_read_records_rejects_another_schema_version(tmp_path):
    run = run_campaign(small_campaign())
    path = tmp_path / "records.jsonl"
    write_records(path, run.records[:2] + [dict(run.records[2], schema_version=99)])
    with pytest.raises(ParseError, match="schema_version 99 .* at line 3"):
        read_records(path)


def test_read_records_skips_blank_lines(tmp_path):
    run = run_campaign(small_campaign())
    path = tmp_path / "records.jsonl"
    lines = [json.dumps(record) for record in run.records[:4]]
    path.write_text("\n" + "\n \t\n".join(lines) + "\n\n   \n", encoding="utf-8")
    assert read_records(path) == run.records[:4]
    assert summarize(read_records(path)) == summarize(run.records[:4])


def test_read_records_breaks_lines_only_at_newlines(tmp_path):
    # a raw U+2028 inside a JSON string is text, not a line break, as it would be to str.splitlines
    record = run_campaign(small_campaign()).records[0]
    record = dict(record, report=dict(record["report"], detail="before\u2028after"))
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert "\u2028" in path.read_text(encoding="utf-8")
    assert read_records(path) == [record]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    with pytest.raises(ParseError, match="at line 2, column 1$"):
        read_records(path)


def test_config_integer_past_the_digit_limit_is_a_parse_error(tmp_path, too_long_int):
    # a string and a float of as many digits come first; json converts both
    path = tmp_path / "c.json"
    path.write_text(f'{{"backends": ["zd:1"], "note": "{too_long_int}", "x": {too_long_int}.5,\n'
                    f' "seed": -{too_long_int}}}\n')
    with pytest.raises(ParseError, match=f"digits exceeds the limit .* at line 2, column 10$"):
        load_config(path)


def test_read_records_integer_past_the_digit_limit_is_a_parse_error(tmp_path, too_long_int):
    run = run_campaign(small_campaign())
    path = tmp_path / "records.jsonl"
    write_records(path, run.records[:3])
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"index":1', f'"index":{too_long_int}')
    path.write_text("\n".join(lines) + "\n")
    column = lines[1].index(too_long_int) + 1
    with pytest.raises(ParseError, match=f"^record store .* digits exceeds the limit .* at line 2, column {column}$"):
        read_records(path)


@pytest.mark.parametrize("change, problem", [
    (lambda r: {"schema_version": r["schema_version"]}, "record has no 'campaign'"),
    (lambda r: {k: v for k, v in r.items() if k != "sub"}, "record has no 'sub'"),
    (lambda r: dict(r, index=[0]), "record 'index' [0] has type list, not int"),
    (lambda r: dict(r, law=7), "record 'law' 7 has type int, not str"),
    (lambda r: dict(r, report=5), "record 'report' 5 has type int, not dict"),
    (lambda r: dict(r, report=dict(r["report"], verdict="bogus")), "report verdict 'bogus' is not one of"),
    (lambda r: dict(r, report={"law": "kempermann"}), "report verdict None is not one of"),
    (lambda r: dict(r, report=dict(r["report"], slack="x")), "report slack 'x' is not a number"),
    (lambda r: dict(r, index=True), "record 'index' True has type bool, not int"),
    (lambda r: dict(r, sub=False), "record 'sub' False has type bool, not int"),
    (lambda r: dict(r, schema_version=True), "schema_version True is not 1"),
    (lambda r: dict(r, report=dict(r["report"], slack=False)), "report slack False is not a number"),
    (lambda r: dict(r, report=dict(r["report"], slack=float("nan"))), "report slack nan is not a number"),
    (lambda r: dict(r, report=dict(r["report"], slack=float("inf"))), "report slack inf is not a number"),
    (lambda r: dict(r, report=dict(r["report"], slack=float("-inf"))), "report slack -inf is not a number"),
])
def test_read_records_rejects_a_malformed_record(tmp_path, change, problem):
    run = run_campaign(small_campaign())
    path = tmp_path / "records.jsonl"
    write_records(path, run.records[:1] + [change(run.records[1])] + run.records[2:])
    with pytest.raises(ParseError, match=f"{re.escape(problem)}.* at line 2"):
        read_records(path)
