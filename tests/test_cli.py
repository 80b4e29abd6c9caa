import json
import os
import time

import pytest

from hhi.cli import main
from hhi.invariants import InvariantCache, InvariantKey, invariant_direct
from hhi.orbifold import OrbifoldData


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """Keep default cache files out of the repository."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HHI_CACHE", raising=False)
    return tmp_path


def test_invariant_direct(capsys):
    rc, out, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                     "-k", "1,1,1", "--no-cache")
    assert rc == 0
    assert out.strip() == "direct = 1/3"


def test_invariant_coarse_and_float(capsys):
    rc, out, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                     "-k", "1,1,1", "--coarse", "--float", "--no-cache")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "direct = 1"
    assert lines[1] == "direct ~ 1"


@pytest.mark.parametrize("method,plain,coarse", [
    ("weighted", ["weighted = -8/81"], ["weighted = -8/27"]),
    ("comb", ["comb = -1/27"], ["comb = -1/9"]),
    ("all", ["comb = -1/27", "direct = -1/27", "MATCH"],
     ["comb = -1/9", "direct = -1/9", "MATCH"]),
])
def test_invariant_coarse_methods(capsys, method, plain, coarse):
    """--coarse multiplies each method's value by r once; the default
    cache file holds the normalized values, so coarse and plain calls
    share its records."""
    args = ("invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1,1,1,1", "--method", method)
    for flags, want in (((), plain), (("--coarse",), coarse), (("--coarse",), coarse),
                        ((), plain), (("--coarse", "--no-cache"), coarse)):
        rc, out, _ = run(capsys, *args, *flags)
        assert rc == 0 and out.splitlines() == want, flags


def test_invariant_json_output(capsys):
    rc, out, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                     "-k", "1,1,1,1,1,1", "--psi", "0,0,0,0,0,1",
                     "--json", "--no-cache")
    assert rc == 0
    obj = json.loads(out)
    assert obj["direct"] == [{"coeff": "4/27", "t_exp": [0, 0, 1]},
                             {"coeff": "4/27", "t_exp": [0, 1, 0]},
                             {"coeff": "4/27", "t_exp": [1, 0, 0]}]


def test_invariant_methods_match(capsys):
    rc, out, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                     "-k", "1,1,1,1,1,1", "--method", "all", "--no-cache")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "MATCH"
    assert "comb = -1/27" in out and "direct = -1/27" in out


def test_invariant_all_notes_inapplicable_comb(capsys):
    # body markings not of age one: comb is skipped with a note, still rc 0
    rc, out, err = run(capsys, "invariant", "-r", "4", "-w", "1,1",
                       "-k", "1,1,2", "--method", "all", "--no-cache")
    assert rc == 0
    assert "comb recursion not applicable" in err
    assert "direct =" in out and "MATCH" not in out


def test_invariant_zero_by_dimension_builds_nothing(capsys):
    """Seven psi insertions exceed the dimension 6 of the nine-point
    space: the answer is zero, found without building the Euler class."""
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "invariant", "--method", "direct", "--no-cache",
                     "-r", "3", "-w", "1,1,1", "-k", "1,1,1,1,1,1,1,1,1",
                     "--psi", "0,0,0,0,0,0,0,0,7")
    assert rc == 0
    assert out.strip() == "direct = 0"
    assert time.perf_counter() - t0 < 5


def test_invariant_inadmissible_prints_zero(capsys):
    rc, out, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                       "-k", "1,1,2", "--no-cache")
    assert rc == 0
    assert out.strip() == "0"
    assert "inadmissible" in err


@pytest.mark.parametrize("method,names", [
    ("direct", ["direct"]), ("weighted", ["weighted"]), ("comb", ["comb"]),
    ("all", ["comb", "direct"])])
def test_invariant_inadmissible_json_prints_zero_per_method(capsys, method, names):
    rc, out, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                       "-k", "1,1,2,1", "--method", method, "--json", "--no-cache")
    assert rc == 0
    assert [json.loads(line) for line in out.splitlines()] == [{name: []} for name in names]
    assert "inadmissible" in err


def test_invariant_bad_usage_exits_one(capsys):
    rc, _, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1")
    assert rc == 1
    rc, _, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                     "-k", "1,1,x", "--no-cache")
    assert rc == 1
    rc, _, err = run(capsys, "invariant", "-r", "0", "-w", "1",
                     "-k", "1,1,1", "--no-cache")
    assert rc == 1
    rc, _, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                     "-k", "1,1,1", "--psi", "1,2", "--no-cache")
    assert rc == 1


def test_invariant_empty_psi_list_exits_one(capsys, isolated_cwd):
    """An empty --psi list is a wrong count, not the all-zero default."""
    assert run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1,1,1,1",
               "--psi", "") == (1, "", "error: need one psi exponent per marking\n")
    assert not (isolated_cwd / "hhi-cache.json").exists()


@pytest.mark.parametrize("args,expected", [
    (["-w", "1,1,1", "-k", "-2,1,1"], (0, "direct = 1/3\n", "")),
    (["-w", "-2,1,1", "-k", "1,1,1"], (0, "direct = 1/3\n", "")),
    (["--weights", "1,1,1", "--elements", "-1,-1,-1"], (0, "direct = 1/3*t1*t2*t3\n", "")),
    (["-w", "1,1,1", "-k", "1,1,1", "--psi", "-1,0,0"],
     (1, "", "error: psi exponents must be nonnegative\n")),
])
def test_comma_list_starting_with_minus_is_a_value(capsys, args, expected):
    """A comma list whose first entry is negative is the option's value,
    not an option name; elements and weights are taken mod r."""
    assert run(capsys, "invariant", "-r", "3", "--no-cache", *args) == expected


@pytest.mark.parametrize("args", [
    ["-w", "1,1,1", "-k", "1,,1,1"],
    ["-w", "1,1,1", "-k", "1,1,1,"],
    ["-w", "1,,1,1", "-k", "1,1,1"],
    ["-w", "1,1,1", "-k", "1,1,1", "--psi", "0,,0,0"],
])
def test_empty_list_entry_exits_one(capsys, args):
    """An empty entry in a comma list is a bad value, not a separator to
    skip: "1,,1,1" must not become the three markings "1,1,1"."""
    rc, out, err = run(capsys, "invariant", "-r", "3", "--no-cache", *args)
    assert (rc, out) == (1, "")
    assert err.splitlines()[-1].endswith(": expected a comma-separated integer list")


@pytest.mark.parametrize("elements", ["", "1", "0,0"])
@pytest.mark.parametrize("command", [
    ["invariant", "--method", "direct", "--cache", "c.json"],
    ["invariant", "--method", "weighted", "--cache", "c.json"],
    ["invariant", "--method", "comb", "--cache", "c.json"],
    ["invariant", "--method", "all", "--cache", "c.json"],
    ["euler"],
    ["weighted"],
], ids=lambda argv: "-".join(argv[:3:2]))
def test_unstable_marking_count_exits_one(capsys, isolated_cwd, command, elements):
    """Fewer than three markings has no genus-zero moduli space: a bad
    input on every command, refused before a cache file is touched."""
    assert run(capsys, *command, "-r", "3", "-w", "1,1,1", "-k", elements) == \
        (1, "", "error: need at least three markings\n")
    assert not os.listdir(isolated_cwd)


def test_unknown_subcommand_exits_one(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 1


def test_invariant_writes_default_cache(capsys, isolated_cwd):
    rc, _, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1")
    assert rc == 0
    path = isolated_cwd / "hhi-cache.json"
    assert path.exists()
    assert len(InvariantCache(str(path))) == 1


def test_cache_env_and_flag_precedence(capsys, isolated_cwd, monkeypatch):
    envpath = isolated_cwd / "env.json"
    monkeypatch.setenv("HHI_CACHE", str(envpath))
    rc, _, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1")
    assert rc == 0
    assert envpath.exists() and not (isolated_cwd / "hhi-cache.json").exists()
    flagpath = isolated_cwd / "flag.json"
    rc, _, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                   "-k", "1,1,1", "--cache", str(flagpath))
    assert rc == 0
    assert flagpath.exists()


def test_cache_hit_leaves_the_file_alone(capsys, isolated_cwd):
    """A hit adds no record, so it must not write back the snapshot it
    loaded (which would erase a record another process saved since)."""
    path = isolated_cwd / "hhi-cache.json"
    args = ("invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1", "--cache", str(path))
    assert run(capsys, *args) == (0, "direct = 1/3\n", "")
    old = 10 ** 18
    os.utime(path, ns=(old, old))
    before = path.read_bytes()
    assert run(capsys, *args) == (0, "direct = 1/3\n", "")
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == old
    rc, _, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1,1,1,1",
                   "--cache", str(path))
    assert rc == 0
    assert path.stat().st_mtime_ns != old
    assert len(InvariantCache(str(path))) == 2


def test_no_cache_writes_nothing(capsys, isolated_cwd):
    rc, _, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                   "-k", "1,1,1", "--no-cache")
    assert rc == 0
    assert list(isolated_cwd.iterdir()) == []


def test_euler_both_forms_match(capsys):
    rc, out, _ = run(capsys, "euler", "-r", "3", "-w", "1,1,1",
                     "-k", "1,1,1,1,1,1", "--form", "both")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "MATCH"
    compact = json.loads(lines[0])["compact"]
    mainthm = json.loads(lines[1])["mainthm"]
    assert compact == mainthm


def test_euler_inadmissible_exits_one(capsys):
    rc, _, err = run(capsys, "euler", "-r", "3", "-w", "1,1,1", "-k", "1,1,2")
    assert rc == 1
    assert "error" in err


def test_weighted_output(capsys):
    rc, out, _ = run(capsys, "weighted", "-r", "3", "-w", "1,1,1",
                     "-k", "1,1,1,1,1,1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["0"] == [{"coeff": "1", "t_exp": [1, 1, 1]}]
    assert obj["3"] == [{"coeff": "-8/27", "t_exp": [0, 0, 0]}]


@pytest.mark.parametrize("args,expected", [
    (["-r", "5", "-w", "1,2,2", "-k", "1,1,3,3,2"],
     '{"0": [{"coeff": "1", "t_exp": [1, 1, 1]}], '
     '"1": [{"coeff": "-3/5", "t_exp": [0, 1, 1]}, {"coeff": "-1/5", "t_exp": [1, 0, 1]}, '
     '{"coeff": "-1/5", "t_exp": [1, 1, 0]}], '
     '"2": [{"coeff": "3/25", "t_exp": [0, 0, 1]}, {"coeff": "3/25", "t_exp": [0, 1, 0]}, '
     '{"coeff": "1/25", "t_exp": [1, 0, 0]}]}\n'),
    (["-r", "2", "-w", "1", "-k", "0,0,0,0"], '{"0": [{"coeff": "1", "t_exp": [-1]}]}\n'),
])
def test_weighted_output_frozen(capsys, args, expected):
    """Full JSON of the weighted class, recorded from the build that
    multiplied Laurent coefficients factor by factor."""
    rc, out, err = run(capsys, "weighted", *args)
    assert (rc, out, err) == (0, expected, "")


def test_series_all_methods_match(capsys):
    rc, out, _ = run(capsys, "series", "--lmax", "2", "--method", "all")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "MATCH"
    assert "series I_0 = 1/3" in lines
    assert "series I_1 = -1/27" in lines
    assert "direct I_2 = 1/9" in lines
    assert "mirror I_2 = 1/9" in lines


def test_series_all_methods_lmax_16(capsys):
    """Every route is polynomial in l, so lmax 16 is cheap; summing the
    closed form over all 2^l subsets takes over a minute at this size."""
    rc, out, _ = run(capsys, "series", "--lmax", "16", "--method", "all")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "MATCH"
    by_route = {}
    for line in lines[:-1]:
        route, rest = line.split(" I_")
        ell, value = rest.split(" = ")
        by_route.setdefault(route, []).append((int(ell), value))
    assert sorted(by_route) == ["direct", "mirror", "series"]
    assert [ell for ell, _ in by_route["series"]] == list(range(17))
    assert by_route["direct"] == by_route["series"] == by_route["mirror"]


def test_series_float_rendering(capsys):
    rc, out, _ = run(capsys, "series", "--lmax", "0", "--float")
    assert rc == 0
    assert out.strip() == "series I_0 = 1/3 ~ 0.333333333333"


def test_series_float_beyond_float_range(capsys):
    """I_74 is about 7e311, past the largest float; its rendering is
    rounded from the exact value instead of raising OverflowError."""
    rc, out, _ = run(capsys, "series", "--lmax", "74", "--method", "series", "--float")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 75
    assert lines[0] == "series I_0 = 1/3 ~ 0.333333333333"
    assert lines[-1].startswith("series I_74 = 1922276465332135")
    assert lines[-1].endswith(" ~ 7.01835481391e+311")


@pytest.mark.parametrize("command", ["series", "check"])
def test_series_negative_lmax_exits_one(capsys, command):
    rc, out, err = run(capsys, command, "--lmax", "-1")
    assert rc == 1
    assert out == ""
    assert err == "error: --lmax must be nonnegative\n"


@pytest.mark.parametrize("nmax", ["-5", "0", "2"])
def test_check_nmax_below_three_exits_one(capsys, nmax):
    rc, out, err = run(capsys, "check", "--lmax", "1", "--nmax", nmax)
    assert rc == 1
    assert out == ""
    assert err == "error: --nmax must be at least 3\n"


def test_check_nmax_three_runs(capsys):
    rc, out, _ = run(capsys, "check", "--lmax", "1", "--nmax", "3")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "0 failure(s)"


def test_check_passes(capsys):
    rc, out, _ = run(capsys, "check", "--lmax", "2", "--nmax", "6")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "0 failure(s)"
    assert all(line.startswith("ok  ") for line in lines[:-1])


def test_cache_info(capsys, isolated_cwd):
    rc, out, _ = run(capsys, "cache-info")
    assert rc == 0
    assert "records: 0 (no file)" in out
    run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1")
    rc, out, _ = run(capsys, "cache-info")
    assert rc == 0
    assert "records: 1" in out
    assert "methods: direct=1 weighted=0" in out
    run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1", "--method", "weighted")
    rc, out, _ = run(capsys, "cache-info")
    assert rc == 0
    size = (isolated_cwd / "hhi-cache.json").stat().st_size
    assert out.splitlines()[1:] == ["format: hhi/1", "bytes: %d" % size, "records: 2",
                                    "methods: direct=1 weighted=1"]


def test_cache_info_bad_file(capsys, isolated_cwd):
    path = isolated_cwd / "hhi-cache.json"
    path.write_text("{\"format\": \"other/0\"}")
    rc, _, err = run(capsys, "cache-info")
    assert rc == 1
    assert "error" in err


def test_determinism(capsys):
    args = ("invariant", "-r", "4", "-w", "1,1,2", "-k", "1,1,1,2,3",
            "--method", "all", "--json", "--no-cache")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0


def test_cache_record_without_value_exits_one(capsys, isolated_cwd):
    path = isolated_cwd / "hhi-cache.json"
    record = {"key": {"r": 3, "weights": [1, 1, 1], "elements": [1, 1, 1],
                      "psi": [0, 0, 0]}, "method": "direct", "coarse": False}
    path.write_text(json.dumps({"format": "hhi/1", "records": {
        "r=3;w=1,1,1;k=1,1,1;v=0,0,0;method=direct;coarse=0": record}}))
    rc, out, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cache_non_object_file_exits_one(capsys, isolated_cwd):
    (isolated_cwd / "hhi-cache.json").write_text("[1,2]")
    rc, out, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    rc, _, err = run(capsys, "cache-info")
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cache_truncated_file_names_the_file(capsys, isolated_cwd):
    path = isolated_cwd / "hhi-cache.json"
    run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1")
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    for argv in (["invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1"], ["cache-info"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert err.startswith("error: cache hhi-cache.json is not valid JSON: ")
        assert err.count("\n") == 1
    assert out == "path: hhi-cache.json\n"


def test_cache_miss_rewrites_an_indented_file_keeping_its_records(capsys, isolated_cwd):
    """A file in the indented layout earlier versions wrote is served, and
    a miss rewrites it one record per line without losing a record."""
    path = isolated_cwd / "hhi-cache.json"
    cache = InvariantCache()
    for elems in [(1, 1, 1), (1, 1, 1, 0), (1, 1, 2, 2)]:
        invariant_direct(InvariantKey(OrbifoldData(3, (1, 1, 1), elems), (0,) * len(elems)),
                         cache=cache)
    with open(path, "w") as fh:
        json.dump({"format": "hhi/1", "records": cache.records}, fh, indent=1, sort_keys=True)
    before = path.read_bytes()
    assert run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1") == \
        (0, "direct = 1/3\n", "")
    assert path.read_bytes() == before
    rc, _, _ = run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "2,2,2")
    assert rc == 0
    text = path.read_text()
    assert text.startswith('{"format": "hhi/1", "records": {\n') and text.endswith("\n}}\n")
    assert len(text.splitlines()) == 1 + 4 + 1
    records = json.loads(text)["records"]
    assert {k: records[k] for k in cache.records} == cache.records
    assert len(records) == 4


def test_cache_changed_since_load_prints_value_and_warns(capsys, isolated_cwd, monkeypatch):
    """A cache file that stops being a cache between the load and the save
    is left alone: the value is printed, with a warning, exit 0."""
    import hhi.cli
    path = isolated_cwd / "hhi-cache.json"
    real = hhi.cli.invariant_direct

    def clobbering(key, cache=None):
        path.write_text("{]")
        return real(key, cache=cache)

    monkeypatch.setattr(hhi.cli, "invariant_direct", clobbering)
    InvariantCache(str(path)).save()
    rc, out, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1")
    assert (rc, out) == (0, "direct = 1/3\n")
    assert err.startswith("warning: cache not saved to hhi-cache.json: cache hhi-cache.json "
                          "is not valid JSON: ")
    assert err.count("\n") == 1
    assert path.read_text() == "{]"
    assert os.listdir(isolated_cwd) == ["hhi-cache.json"]


def test_cache_unwritable_path_prints_value_and_warns(capsys, isolated_cwd):
    path = isolated_cwd / "missing" / "dir" / "x.json"
    rc, out, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                       "-k", "1,1,1", "--cache", str(path))
    assert rc == 0
    assert out.strip() == "direct = 1/3"
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert not path.parent.exists()


def test_cache_path_is_directory_exits_one(capsys, isolated_cwd):
    rc, out, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1",
                       "-k", "1,1,1", "--cache", str(isolated_cwd))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("term", [
    {"t_exp": [0, 0, 0]},
    {"coeff": "1/3"},
    {"t_exp": [0, 0], "coeff": "1/3"},
    {"t_exp": [0, 0, 0], "coeff": "one third"},
    {"t_exp": [0, 0, 0], "coeff": "1/0"},
])
def test_cache_malformed_term_exits_one(capsys, isolated_cwd, term):
    """A cached value whose term lacks coeff or t_exp, has a t_exp of the
    wrong length or an unparsable coeff ends in one error line."""
    record = {"key": {"r": 3, "weights": [1, 1, 1], "elements": [1, 1, 1],
                      "psi": [0, 0, 0]}, "method": "direct", "coarse": False,
              "value": [term]}
    (isolated_cwd / "hhi-cache.json").write_text(json.dumps({"format": "hhi/1", "records": {
        "r=3;w=1,1,1;k=1,1,1;v=0,0,0;method=direct;coarse=0": record}}))
    rc, out, err = run(capsys, "invariant", "-r", "3", "-w", "1,1,1", "-k", "1,1,1")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
