"""CLI contract: subcommands, formats, exit codes."""

import dataclasses
import json
import re

import pytest

from sumsetlab import laws
from sumsetlab.cli import build_parser, main
from sumsetlab.explorer import Campaign, run_campaign
from sumsetlab.groups import WORD_LENGTH_CAP, FreeBackend, backend_from_spec
from sumsetlab.laws import LAW_IDS, klein_grid_sets
from sumsetlab.setops import FiniteSubset


@pytest.fixture
def z_files(tmp_path):
    a = tmp_path / "A.txt"
    b = tmp_path / "B.txt"
    a.write_text("(0)\n(1)\n(2)\n")
    b.write_text("(0)\n(1)\n(2)\n")
    return str(a), str(b)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sumset_interval(z_files, capsys):
    a, b = z_files
    code, out, _ = run_cli(capsys, "sumset", a, b, "--group", "zd:1")
    assert code == 0
    assert "|AB| = 5" in out
    assert "deficiency = -1" in out


def test_sumset_klein_grid(tmp_path, capsys, write_set):
    A, B = klein_grid_sets(3)
    afile, bfile = tmp_path / "A.txt", tmp_path / "B.txt"
    write_set(A, afile)
    write_set(B, bfile)
    code, out, _ = run_cli(capsys, "sumset", str(afile), str(bfile), "--group", "klein", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 15


SPARSE_SUMSETS = {
    # grids over these boxes would need about 4 10^30 and 8 10^14 bits
    "zd:2": ("(0,0)\n(1000000000000000,1000000000000000)\n",
             ["(0,0)", "(1000000000000000,1000000000000000)", "(2000000000000000,2000000000000000)"], -1),
    "klein": ("u^99999999999999\nv\n",
              ["v^2", "u^99999999999999 v^-1", "u^99999999999999 v", "u^199999999999998"], 0),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("group", sorted(SPARSE_SUMSETS))
def test_sumset_of_far_apart_elements(tmp_path, capsys, group, fmt):
    text, product, dfc = SPARSE_SUMSETS[group]
    path = tmp_path / "A.txt"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "sumset", str(path), str(path), "--group", group, "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out) == {
            "deficiency": dfc, "product": {"backend": group, "elements": product}, "size": len(product)}
    else:
        assert out.splitlines() == product + [f"|AB| = {len(product)}", f"deficiency = {dfc}"]


def test_sumset_parse_error_has_position(tmp_path, z_files, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("(0)\nzzz\n")
    code, _, err = run_cli(capsys, "sumset", str(bad), z_files[1], "--group", "zd:1")
    assert code == 2
    assert "line 2" in err


def test_sumset_empty_file_rejected(tmp_path, z_files, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "sumset", str(empty), z_files[1], "--group", "zd:1")
    assert code == 2


def test_kappa_subcommand(z_files, capsys):
    a, _ = z_files
    code, out, _ = run_cli(capsys, "kappa", a, "--group", "zd:1", "--n", "2", "--radius", "6")
    assert code == 0
    assert "kappa_hat = 2" in out
    assert "certified_exact" in out
    code, out, _ = run_cli(capsys, "kappa", a, "--group", "zd:1", "--n", "1", "--radius", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["kappa_hat"] == 2
    assert payload["certificate"] == "certified_exact"


def test_verify_kempermann(z_files, capsys):
    a, b = z_files
    code, out, _ = run_cli(capsys, "verify", "--law", "kempermann", "--group", "zd:1",
                           "--a-file", a, "--b-file", b)
    assert code == 0
    assert "kempermann: holds" in out


def test_verify_json_stream(z_files, capsys):
    a, b = z_files
    code, out, _ = run_cli(capsys, "verify", "--law", "kempermann", "--group", "zd:1",
                           "--a-file", a, "--b-file", b, "--format", "json")
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["law"] == "kempermann" and record["verdict"] == "holds"


def test_verify_unknown_law(capsys):
    code, _, err = run_cli(capsys, "verify", "--law", "nonsense", "--group", "zd:1")
    assert code == 2
    assert "unknown law" in err


def test_verify_atom_law(tmp_path, capsys):
    c = tmp_path / "C.txt"
    c.write_text("(0)\n(1)\n(2)\n")
    code, out, _ = run_cli(capsys, "verify", "--law", "atom_left", "--group", "zd:1",
                           "--c-file", str(c), "--n", "2", "--radius", "6")
    assert code == 0
    assert "atom_left: holds" in out


def test_verify_equality(capsys):
    code, out, _ = run_cli(capsys, "verify", "--law", "equality", "--group", "zd:1",
                           "--radius", "3", "--max-size", "3")
    assert code == 0
    assert "equality: holds" in out


def test_verify_equality_past_the_set_cap_exits_2(capsys):
    # zd:4 ball(2) has 41 elements and C(41, 2) = 820 sets of size 2
    code, _, err = run_cli(capsys, "verify", "--law", "equality", "--group", "zd:4",
                           "--radius", "2", "--max-size", "2")
    assert code == 2 and "the window gives more than 707 sets, the equality cap" in err


def test_verify_family_laws(capsys):
    code, out, _ = run_cli(capsys, "verify", "--law", "klein_grid", "--group", "klein", "--m", "4")
    assert code == 0 and "klein_grid: holds" in out
    code, out, _ = run_cli(capsys, "verify", "--law", "klein_union", "--group", "klein", "--m", "4")
    assert code == 0 and "klein_union: holds" in out
    code, out, _ = run_cli(capsys, "verify", "--law", "c_lower", "--group", "klein", "--k", "6")
    assert code == 0 and "c_lower: holds" in out


def test_verify_uvk(tmp_path, capsys, write_set):
    from sumsetlab.laws import klein_grid_sets

    _, B = klein_grid_sets(11)
    bfile = tmp_path / "B.txt"
    write_set(B, bfile)
    code, out, _ = run_cli(capsys, "verify", "--law", "uvk", "--group", "klein",
                           "--b-file", str(bfile), "--d", "3")
    assert code == 0 and "uvk: holds" in out


def test_example_klein_grid(capsys):
    code, out, _ = run_cli(capsys, "example", "--name", "klein-grid", "--m", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["witness"]["product_size"] == 35


def test_example_klein_union(capsys):
    code, out, err = run_cli(capsys, "example", "--name", "klein-union", "--m", "2")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["|A| = 7", "klein_union: holds slack=0"]


def test_example_c_lower(capsys):
    assert run_cli(capsys, "example", "--name", "c-lower", "--k", "5") == (
        0, "k = 5: |B| = 16, deficiency = 5 (m = 4)\n", "")
    assert run_cli(capsys, "example", "--name", "c-lower", "--k", "5", "--format", "json") == (
        0, '{"B_size": 16, "deficiency": 5, "k": 5, "m": 4}\n', "")


def test_os_errors_exit_2(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 1, "seed": 0}))
    for argv in (
        ("sumset", str(tmp_path), str(tmp_path), "--group", "zd:1"),
        ("report", "--run", str(tmp_path)),
        ("explore", "--config", str(config), "--out", str(tmp_path / "missing" / "x.jsonl")),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error: "), argv


def test_explore_and_report(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "backends": ["zd:1", "klein"],
        "laws": ["kempermann"],
        "budget": 15,
        "seed": 9,
    }))
    out1 = tmp_path / "run1.jsonl"
    out2 = tmp_path / "run2.jsonl"
    code, _, _ = run_cli(capsys, "explore", "--config", str(config), "--out", str(out1))
    assert code == 0
    code, _, _ = run_cli(capsys, "explore", "--config", str(config), "--jobs", "4", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    code, out, _ = run_cli(capsys, "report", "--run", str(out1))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("law,holds,violated")
    assert lines[1].startswith("kempermann,30")


def test_report_flags_theorem_violations(tmp_path, capsys):
    # theorem laws never actually fail; exercise the exit-1 contract on a
    # hand-written store carrying a violated record
    store = tmp_path / "bad.jsonl"
    store.write_text(json.dumps({
        "schema_version": 1, "campaign": "x", "backend": "zd:1",
        "law": "kempermann", "index": 0, "sub": 0,
        "report": {"law": "kempermann", "verdict": "violated", "slack": -1,
                   "witness": {}, "detail": ""},
    }) + "\n")
    code, out, _ = run_cli(capsys, "report", "--run", str(store))
    assert code == 1
    assert "kempermann,0,1" in out


@pytest.mark.parametrize("verdict, code", [("violated", 1), ("finding", 0)])
def test_explore_exit_code_follows_a_theorem_violation(monkeypatch, tmp_path, capsys, verdict, code):
    # LAWS looks check_kempermann up at call time, so the patched checker runs in the campaign
    check = laws.check_kempermann
    monkeypatch.setattr(laws, "check_kempermann", lambda A, B: dataclasses.replace(check(A, B), verdict=verdict))
    config, store = tmp_path / "campaign.json", tmp_path / "run.jsonl"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 3, "seed": 4}))
    assert run_cli(capsys, "explore", "--config", str(config), "--out", str(store))[0] == code
    records = [json.loads(line) for line in store.read_text().splitlines()]
    assert [r["report"]["verdict"] for r in records] == [verdict] * 3
    report_code, out, _ = run_cli(capsys, "report", "--run", str(store))
    assert report_code == code and out.splitlines()[1].startswith(
        "kempermann,0,3,0,0" if verdict == "violated" else "kempermann,0,0,0,3")


def test_explore_missing_seed_prints_one(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "backends": ["zd:1"],
        "laws": ["kempermann"],
        "budget": 2,
    }))
    code, _, err = run_cli(capsys, "explore", "--config", str(config))
    assert code == 0
    assert "seed:" in err


def test_explore_seed_flag_stands_for_the_config_seed(tmp_path, capsys):
    data = {"backends": ["zd:1"], "laws": ["kempermann"], "budget": 2}
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "explore", "--config", str(config), "--seed", "5", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["campaign"] == Campaign.from_dict({**data, "seed": 5}).hash()


def test_out_flag_writes_file(tmp_path, z_files, capsys):
    a, b = z_files
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "sumset", a, b, "--group", "zd:1",
                           "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["size"] == 5


def test_ambient_environment_changes_nothing(monkeypatch, tmp_path, z_files, capsys):
    # every setting comes from its flag or its config key, so a variable named
    # like a flag must not change a campaign hash, a verdict or where output goes
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 2, "seed": 4}))
    # json output carries no wall clock, so two clean runs print the same
    explore = ["explore", "--config", str(config), "--format", "json"]
    clean = run_cli(capsys, *explore)
    assert clean[0] == 0 and json.loads(clean[1])["records"] == 2
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"backends": ["klein"], "laws": ["hls"], "budget": 1, "seed": 9}))
    ambient = {"GROUP": "klein", "FORMAT": "json", "OUT": str(tmp_path / "out.txt"), "N": "1", "K": "5",
               "D": "1", "M": "9", "RADIUS": "0", "SEED": "7", "JOBS": "2", "CONFIG": str(other)}
    for name, value in ambient.items():
        monkeypatch.setenv(f"SUMSETLAB_{name}", value)
    assert run_cli(capsys, *explore) == clean
    a, b = z_files
    code, out, _ = run_cli(capsys, "verify", "--law", "two_atom", "--group", "zd:1", "--c-file", a)
    assert code == 0
    assert out.startswith("two_atom: holds slack=0")
    with pytest.raises(SystemExit) as exc:
        main(["sumset", a, b])
    assert exc.value.code == 2
    assert not (tmp_path / "out.txt").exists()


# -- every registered law through verify -------------------------------------

KLEIN_VERIFY_LAWS = {"uvk", "klein_grid", "klein_union", "c_lower"}


@pytest.mark.parametrize("law", LAW_IDS)
def test_verify_runs_every_registered_law(law, tmp_path, capsys, write_set):
    group = "klein" if law in KLEIN_VERIFY_LAWS else "zd:2"
    if group == "klein":
        A, B = klein_grid_sets(11)
        sets = {"a": A, "b": B, "c": A}
    else:
        z2 = backend_from_spec("zd:2")
        sets = {
            "a": FiniteSubset.from_keys(z2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]),
            "b": FiniteSubset.from_keys(z2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
            "c": FiniteSubset.from_keys(z2, [(0, 0), (1, 0), (2, 0)]),
        }
    files = []
    for name, S in sets.items():
        path = tmp_path / f"{name}.txt"
        write_set(S, path)
        files += [f"--{name}-file", str(path)]
    code, out, err = run_cli(capsys, "verify", "--law", law, "--group", group, "--n", "2",
                             "--radius", "2", "--max-size", "3", *files)
    assert code == 0, err
    assert out.startswith(f"{law}: ")


# -- exit code 2 for malformed explore and report input -------------------------


def test_explore_malformed_json_is_a_parse_error(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text('{\n  "backends": ["zd:1"],\n  "budget": ,\n}\n')
    code, _, err = run_cli(capsys, "explore", "--config", str(config))
    assert code == 2
    assert "parse error" in err and "line 3, column 13" in err


def test_explore_config_not_a_json_object_is_a_parse_error(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text('[{"backends": ["zd:1"], "laws": ["kempermann"]}]')
    code, out, err = run_cli(capsys, "explore", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == f"parse error: campaign config {config} is not a JSON object\n"


def test_explore_non_integer_field_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": "x", "seed": 1}))
    code, _, err = run_cli(capsys, "explore", "--config", str(config))
    assert code == 2
    assert "budget" in err


def test_explore_non_string_backend_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": [5], "laws": ["kempermann"], "budget": 1, "seed": 1}))
    code, _, err = run_cli(capsys, "explore", "--config", str(config))
    assert code == 2
    assert "group spec" in err


@pytest.mark.parametrize("names", [{"backends": 5, "laws": ["kempermann"]},
                                   {"backends": ["zd:1"], "laws": 7}])
def test_explore_numeric_backends_or_laws_is_a_usage_error(tmp_path, capsys, names):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({**names, "budget": 1, "seed": 1}))
    code, _, err = run_cli(capsys, "explore", "--config", str(config))
    assert code == 2
    assert err.startswith("error: campaign ") and "must be a string or a list, got " in err


@pytest.mark.parametrize("names, repeated", [
    ({"backends": ["zd:1", " ZD:1"], "laws": ["kempermann"]}, "backends repeat zd:1"),
    ({"backends": ["zd:1"], "laws": ["kempermann", "kempermann"]}, "laws repeat kempermann"),
])
def test_explore_repeated_backend_or_law_exits_2(tmp_path, capsys, names, repeated):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({**names, "budget": 3, "radius": 2, "sizes": [1, 3], "seed": 1}))
    out = tmp_path / "records.jsonl"
    code, stdout, err = run_cli(capsys, "explore", "--config", str(config), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: campaign {repeated}: ")
    assert not out.exists()


def test_explore_klein_family_above_the_product_cap_exits_2(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["klein"], "laws": ["klein_grid"], "budget": 1,
                                  "m_values": [100000], "seed": 1}))
    code, _, err = run_cli(capsys, "explore", "--config", str(config))
    assert code == 2 and "grid family at m = 100000" in err


@pytest.mark.parametrize("argv", [
    ("example", "--name", "klein-grid", "--m", "100000"),
    ("example", "--name", "klein-union", "--m", "100000"),
    ("example", "--name", "c-lower", "--k", "100000"),
])
def test_example_above_the_product_cap_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: the Klein ")


def test_sumset_lattice_dimension_above_the_cap_exits_2(z_files, capsys):
    code, _, err = run_cli(capsys, "sumset", *z_files, "--group", "zd:1000000000000000000")
    assert code == 2 and "lattice dimension must be between 1 and 64" in err


# each integer flag after the required arguments of its command
INTEGER_FLAGS = [
    (["kappa", "c.txt", "--group", "zd:1"], flag) for flag in ("--n", "--radius")
] + [
    (["verify", "--law", "kempermann", "--group", "zd:1"], flag)
    for flag in ("--n", "--k", "--d", "--m", "--radius", "--max-size")
] + [
    (["example", "--name", "c-lower"], flag) for flag in ("--m", "--k")
] + [
    (["explore", "--config", "campaign.json"], flag) for flag in ("--seed", "--jobs")
]


@pytest.mark.parametrize("form", ["x", "\u0667", "\uff17", "1_0", " 7", "+7"],
                         ids=["letter", "arabic-indic", "fullwidth", "underscore", "space", "plus"])
@pytest.mark.parametrize("argv, flag", INTEGER_FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag in INTEGER_FLAGS])
def test_non_integer_flag_exits_2(capsys, argv, flag, form):
    # int() would read all but the letter; integer flags take the set-file grammar
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, form])
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert exc.value.code == 2
    assert errors == [f"sumsetlab {argv[0]}: error: argument {flag}: bad integer {form!r}"]
    assert getattr(build_parser().parse_args([*argv, flag, "-3"]), flag[2:].replace("-", "_")) == -3


def test_explore_stdout_is_the_summary_and_out_the_store(tmp_path, capsys):
    data = {"backends": ["zd:1"], "laws": ["kempermann"], "budget": 2, "seed": 4}
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps(data))
    run = run_campaign(Campaign.from_dict(data))
    for fmt in ("text", "json"):
        store = tmp_path / f"{fmt}.jsonl"
        code, out, _ = run_cli(capsys, "explore", "--config", str(config), "--format", fmt, "--out", str(store))
        assert code == 0
        assert [json.loads(line) for line in store.read_text().splitlines()] == run.records
        if fmt == "json":
            obj = {"campaign": run.campaign_hash, "clean": True, "counts": run.counts, "records": 2,
                   "version": run.version}
            assert out == json.dumps(obj, sort_keys=True) + "\n"
        else:
            lines = out.split("\n")
            assert lines[:4] == [f"campaign = {run.campaign_hash}", "records = 2", f"counts = {run.counts}",
                                 "clean = True"]
            assert re.fullmatch(r"wall_clock = [0-9]+\.[0-9]{3}s", lines[4]) and lines[5:] == [""]


def test_report_non_json_store_line_is_a_parse_error(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 2, "seed": 1}))
    store = tmp_path / "st.jsonl"
    run_cli(capsys, "explore", "--config", str(config), "--out", str(store))
    with open(store, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    code, _, err = run_cli(capsys, "report", "--run", str(store))
    assert code == 2
    assert "parse error" in err and "line 3, column 1" in err


@pytest.mark.parametrize("line, problem", [
    ('{"schema_version":1}', "record has no 'campaign'"),
    ('{"schema_version":1,"campaign":"c","backend":"zd:1","law":"kempermann","index":0,"sub":0,'
     '"report":{"law":"kempermann","verdict":"bogus"}}', "report verdict 'bogus' is not one of"),
    ('{"schema_version":1,"campaign":"c","backend":"zd:1","law":"kempermann","index":0,"sub":0,'
     '"report":5}', "record 'report' 5 has type int, not dict"),
])
def test_report_malformed_store_record_is_a_parse_error(tmp_path, capsys, line, problem):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 2, "seed": 1}))
    store = tmp_path / "st.jsonl"
    run_cli(capsys, "explore", "--config", str(config), "--out", str(store))
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    code, _, err = run_cli(capsys, "report", "--run", str(store))
    assert code == 2
    assert err.startswith("parse error") and problem in err and "at line 3" in err


NOT_UTF8 = b"\xff\xfe\x00"


def test_set_file_not_utf8_exits_2(tmp_path, z_files, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    code, _, err = run_cli(capsys, "sumset", str(bad), z_files[1], "--group", "zd:1")
    assert code == 2
    assert err == f"parse error: set file {bad} is not UTF-8 text\n"


def test_config_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "campaign.json"
    bad.write_bytes(NOT_UTF8)
    code, _, err = run_cli(capsys, "explore", "--config", str(bad))
    assert code == 2
    assert err == f"parse error: campaign config {bad} is not UTF-8 text\n"


def test_record_store_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 2, "seed": 1}))
    store = tmp_path / "st.jsonl"
    run_cli(capsys, "explore", "--config", str(config), "--out", str(store))
    with open(store, "ab") as fh:
        fh.write(NOT_UTF8)
    code, out, err = run_cli(capsys, "report", "--run", str(store))
    assert code == 2
    assert out == ""
    assert err == f"parse error: record store {store} is not UTF-8 text\n"


@pytest.mark.parametrize("field, text", [
    ("seed", "1e400"),
    ("sizes", "[1.5, 2.7]"),
    ("budget", "true"),
    ("radius", "2.9"),
    ("budget", '"5"'),
    ("radius", "2.0"),
    ("schema_version", "true"),
    ("schema_version", "1.0"),
    ("schema_version", '"1"'),
])
def test_explore_config_non_int_field_exits_2(field, text, tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text('{"backends": ["zd:1"], "laws": ["kempermann"], "budget": 2, "seed": 1, '
                      f'"{field}": {text}}}')
    store = tmp_path / "st.jsonl"
    code, out, err = run_cli(capsys, "explore", "--config", str(config), "--out", str(store))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: campaign field '{field}' needs ")
    assert not store.exists()


def test_report_counts_a_campaign_run_twice_into_one_store_once(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 3, "seed": 4}))
    store = tmp_path / "st.jsonl"
    for _ in range(2):
        code, _, _ = run_cli(capsys, "explore", "--config", str(config), "--out", str(store))
        assert code == 0
    assert len(store.read_text().splitlines()) == 6
    code, out, _ = run_cli(capsys, "report", "--run", str(store), "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"] == 3


def test_report_another_schema_version_is_a_parse_error(tmp_path, capsys):
    store = tmp_path / "st.jsonl"
    store.write_text(json.dumps({
        "schema_version": 99, "campaign": "x", "backend": "zd:1",
        "law": "kempermann", "index": 0, "sub": 0,
        "report": {"law": "kempermann", "verdict": "holds", "slack": 0,
                   "witness": {}, "detail": ""},
    }) + "\n")
    code, out, err = run_cli(capsys, "report", "--run", str(store))
    assert code == 2
    assert out == ""
    assert "parse error" in err and "schema_version 99" in err and "line 1" in err


@pytest.mark.parametrize("argv", [
    ["sumset", "A", "B", "--group", "zd:1"],
    ["kappa", "C", "--group", "zd:1"],
    ["verify", "--law", "kempermann", "--group", "zd:1"],
    ["example", "--name", "c-lower"],
    ["explore", "--config", "campaign.json"],
])
def test_csv_format_is_a_usage_error_outside_report(argv):
    # only report prints a table; the other commands would print text under csv
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2


def test_report_csv_format_prints_the_table(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 3, "seed": 4}))
    store = tmp_path / "st.jsonl"
    assert run_cli(capsys, "explore", "--config", str(config), "--out", str(store))[0] == 0
    code, out, _ = run_cli(capsys, "report", "--run", str(store), "--format", "csv")
    assert code == 0
    assert out == run_cli(capsys, "report", "--run", str(store), "--format", "text")[1]
    assert out.splitlines()[0].startswith("law,holds,violated")


@pytest.mark.parametrize("site", ["set file", "word exponent", "group spec", "config", "store"])
def test_integer_past_the_digit_limit_exits_2(tmp_path, z_files, capsys, too_long_int, site):
    big = tmp_path / "big.txt"
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budget": 2, "seed": 1}))
    if site == "set file":
        big.write_text(f"({too_long_int})\n")
        argv = ["sumset", str(big), z_files[1], "--group", "zd:1"]
    elif site == "word exponent":
        big.write_text(f"u^{too_long_int}\n")
        argv = ["sumset", str(big), str(big), "--group", "klein"]
    elif site == "group spec":
        argv = ["sumset", *z_files, "--group", "zd:" + too_long_int]
    elif site == "config":
        config.write_text(f'{{"backends": ["zd:1"], "laws": ["kempermann"], "seed": {too_long_int}}}')
        argv = ["explore", "--config", str(config)]
    else:
        store = tmp_path / "st.jsonl"
        run_cli(capsys, "explore", "--config", str(config), "--out", str(store))
        text = store.read_text()
        store.write_text(text.replace('"index":1', f'"index":{too_long_int}'))
        argv = ["report", "--run", str(store)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "digits exceeds the limit" in err


@pytest.mark.parametrize("group", ["heis", "zd:1", "klein"])
def test_printing_an_integer_past_the_digit_limit_exits_2(tmp_path, capsys, too_long_int, group):
    # each input parses, but a coordinate or exponent of its square has one digit too many
    nines = too_long_int[:-1]
    half = "1" + "0" * (len(nines) // 2)
    text = {"heis": f"({half},{half},0)", "zd:1": f"({nines})", "klein": f"u^{nines}"}[group]
    path = tmp_path / "big.txt"
    path.write_text(text + "\n")
    code, out, err = run_cli(capsys, "sumset", str(path), str(path), "--group", group)
    assert (code, out) == (2, "")
    assert err == f"error: cannot print an integer of more than {len(nines)} digits\n"


@pytest.mark.parametrize("argv, share, message", [
    # a gate printed in the detail
    (["verify", "--law", "main_theorem", "--group", "zd:2", "--a-file", "{zd2}", "--b-file", "{zd2}", "--k", "{ones}"],
     3, "error: cannot print an integer of more than {limit} digits"),
    (["verify", "--law", "uvk", "--group", "klein", "--b-file", "{klein}", "--d", "{ones}"],
     3, "error: cannot print an integer of more than {limit} digits"),
    # a family's product count: the message states the cap instead
    (["verify", "--law", "klein_union", "--group", "klein", "--m", "{ones}"],
     2, "error: the Klein union family at m = {ones} needs more than 1048576 products, the cap"),
    (["example", "--name", "c-lower", "--k", "{ones}"],
     2, "error: the Klein grid family at m = {half} needs more than 1048576 products, the cap"),
])
def test_a_bound_past_the_digit_limit_exits_2(tmp_path, capsys, too_long_int, argv, share, message):
    # the flag has limit / share + 2 digits and its bound about share times as many
    limit = len(too_long_int) - 1
    ones = "1" * (limit // share + 2)
    zd2, klein = tmp_path / "zd2.txt", tmp_path / "klein.txt"
    zd2.write_text("(0,0)\n(1,0)\n(0,1)\n")
    klein.write_text("u\nv\n")
    code, out, err = run_cli(capsys, *(arg.format(zd2=zd2, klein=klein, ones=ones) for arg in argv))
    assert (code, out) == (2, "")
    assert err == message.format(limit=limit, ones=ones, half=(int(ones) + 3) // 2) + "\n"


@pytest.mark.parametrize("command, flag, where", [
    ("explore", "--config", "campaign config"),
    ("report", "--run", "record store"),
])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command, flag, where):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "\n")
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: {where} {path}: JSON nested too deeply at line 1\n"


@pytest.mark.parametrize("law, group, reason", [
    ("klein_grid", "zd:1", "klein-specific family"),
    ("c_lower", "zd:2", "klein-specific family"),
    ("freiman_dim", "klein", "lattice backends only"),
    ("uvk", "zd:2", "no non-commuting generator pair"),
])
def test_verify_law_its_backend_skips_exits_2(z_files, capsys, law, group, reason):
    # the same reason a campaign records for skipping the law there; no input is read
    code, out, err = run_cli(capsys, "verify", "--law", law, "--group", group, "--a-file", z_files[0])
    assert (code, out) == (2, "")
    assert err == f"error: law {law} does not apply to {group}: {reason}\n"


@pytest.mark.parametrize("law, flags, message", [
    ("kempermann", (), "law kempermann requires --b-file"),
    ("equality", ("--max-size", "1"), "empty size range"),
    ("main_theorem", ("--b-file", "{b}", "--k", "0"), "the theorem is stated for k >= 1"),
])
def test_verify_usage_error_exits_2(z_files, capsys, law, flags, message):
    a, b = z_files
    code, out, err = run_cli(capsys, "verify", "--law", law, "--group", "zd:1", "--a-file", a,
                             *(flag.format(b=b) for flag in flags))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_3k4_with_exponents_past_the_divisor_cap(tmp_path, capsys):
    # covers take no divisors, so quotients up to 3 * 10**16 are no resource limit
    afile = tmp_path / "A.txt"
    afile.write_text("".join(f"({i * 10**16})\n" for i in range(4)))
    code, out, err = run_cli(capsys, "verify", "--law", "3k4", "--group", "zd:1", "--a-file", str(afile))
    assert (code, out, err) == (0, "3k4: holds slack=-1\n", "")


def test_verify_hls_on_heis_root_past_2_to_the_40(tmp_path, capsys):
    # (2^41, 2^41, 0) = (2, 2, 2 - 2^41)^(2^40), so A = {1, that power} lies in a cyclic subgroup
    afile, bfile = tmp_path / "A.txt", tmp_path / "B.txt"
    afile.write_text(f"(0,0,0)\n({2**41},{2**41},0)\n")
    bfile.write_text("(0,0,0)\n(0,1,0)\n(1,1,0)\n(2,0,0)\n(3,1,1)\n")
    code, out, err = run_cli(capsys, "verify", "--law", "hls", "--group", "heis",
                             "--a-file", str(afile), "--b-file", str(bfile))
    assert (code, out, err) == (0, "hls: hypothesis_not_met (A lies in a left coset of a cyclic subgroup)\n", "")


@pytest.mark.parametrize("line, message", [
    ("a^1000000000", "a^1000000000 has more than 1048576 letters"),
    ("a^600000 a^600000", "the word grows past 1048576 letters at a^600000"),
], ids=["one_factor", "two_factors"])
def test_free_word_past_the_length_cap_exits_2(tmp_path, capsys, monkeypatch, line, message):
    # pow_key is never asked for a word past the cap, so neither line allocates one
    pow_key = FreeBackend.pow_key
    monkeypatch.setattr(FreeBackend, "pow_key", lambda self, a, n: pow_key(self, a, n) if abs(n) <= WORD_LENGTH_CAP
                        else pytest.fail(f"pow_key({a}, {n})"))
    path = tmp_path / "word.txt"
    path.write_text(line + "\n")
    code, out, err = run_cli(capsys, "sumset", str(path), str(path), "--group", "free:2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, group", [("(\u0663,0)", "zd:2"), ("u^\u0663", "klein")], ids=["coordinate", "exponent"])
def test_non_ascii_digit_in_a_set_file_exits_2(tmp_path, capsys, text, group):
    path = tmp_path / "set.txt"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "sumset", str(path), str(path), "--group", group)
    assert (code, out) == (2, "") and err.startswith("parse error: ")


def test_non_ascii_digit_in_a_group_spec_exits_2(z_files, capsys):
    code, out, err = run_cli(capsys, "sumset", *z_files, "--group", "zd:\u0661")
    assert (code, out) == (2, "") and "bad numeric parameter in group spec" in err


def test_explore_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"backends": ["zd:1"], "laws": ["kempermann"], "budjet": 2, "seed": 1}))
    out = tmp_path / "records.jsonl"
    code, stdout, err = run_cli(capsys, "explore", "--config", str(config), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: unknown campaign config keys: ['budjet']\n"
    assert not out.exists()
