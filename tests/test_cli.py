import argparse
import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from symdex import cli, sets
from symdex.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VIOLATION,
    decimal_string,
    main,
    verify_replay,
)
from symdex.extraction import MAX_TREE_DEPTH
from symdex.sets import MAX_SET_DEPTH
from symdex.vectors import NormKind, SparseVec

BOX_OVERRIDE = {"type": "box", "default_radius": "1", "overrides": {"1": "2"}}
PLAIN_BOX = {"type": "box", "default_radius": "1", "overrides": {}}
GEOMETRIC = {
    "norm": "sum",
    "label": "geometric",
    "terms": [{str(n): f"1/{2 ** n}"} for n in range(1, 11)],
}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_delta_csv_rows(tmp_path):
    infile = write(tmp_path / "box.json", BOX_OVERRIDE)
    out = tmp_path / "delta.csv"
    assert main(["delta", "--in", infile, "--out", str(out), "--format", "csv", "--n", "3"]) == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0] == "N,lower,upper,witnesses"
    values = [tuple(r.split(",")[:3]) for r in rows[1:]]
    assert values == [("0", "2", "2"), ("1", "1", "1"), ("2", "1", "1"), ("3", "1", "1")]


def test_delta_csv_decimal_column(tmp_path):
    infile = write(tmp_path / "box.json", BOX_OVERRIDE)
    out = tmp_path / "delta.csv"
    main(["delta", "--in", infile, "--out", str(out), "--format", "csv", "--n", "1", "--decimal", "3"])
    rows = out.read_text().splitlines()
    assert rows[0].endswith("lower_dec,upper_dec")
    assert rows[1].split(",")[4:] == ["2.000", "2.000"]


THIRD_BOX = {"type": "box", "default_radius": "1/3", "overrides": {}}


@pytest.mark.parametrize("digits", ["-1", "1001", "5000"])
def test_decimal_out_of_range_exits_2(tmp_path, capsys, digits):
    infile = write(tmp_path / "box.json", THIRD_BOX)
    out = tmp_path / "delta.csv"
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--in", infile, "--out", str(out), "--format", "csv", "--n", "1", "--decimal", digits])
    assert exc.value.code == 2
    assert f"argument --decimal: expected an integer from 0 to 1000, got '{digits}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "oracle"])
def test_csv_format_on_another_command_exits_2_before_the_input_is_read(tmp_path, capsys, monkeypatch, command):
    reads = []
    monkeypatch.setattr(cli, "_read_input", reads.append)
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    out = tmp_path / "out.csv"
    assert main([command, "--in", infile, "--out", str(out), "--format", "csv", "--n", "2"]) == EXIT_INVALID
    assert capsys.readouterr().err == "symdex: invalid input: csv format is only available for the delta command\n"
    assert reads == []
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/dir/out.json", "a_directory"])
def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, target):
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / target
    assert main(["delta", "--in", infile, "--out", str(out), "--n", "1"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"symdex: invalid input: cannot write {out}: ")
    assert err.count("\n") == 1
    # os.replace onto a directory fails after the temporary file is written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "box.json"]
    assert list((tmp_path / "a_directory").iterdir()) == []


@pytest.mark.parametrize("source", ["a_directory", "missing.json"])
def test_an_in_path_that_cannot_be_read_exits_2(tmp_path, capsys, source):
    (tmp_path / "a_directory").mkdir()
    infile = tmp_path / source
    out = tmp_path / "out.json"
    assert main(["delta", "--in", str(infile), "--out", str(out), "--n", "1"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"symdex: invalid input: cannot read {infile}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_exits_2(tmp_path, capsys, budget):
    infile = write(tmp_path / "geometric.json", GEOMETRIC)
    out = tmp_path / "series.json"
    with pytest.raises(SystemExit) as exc:
        main(["series", "--in", infile, "--out", str(out), "--budget", budget])
    assert exc.value.code == 2
    assert f"argument --budget: expected a positive integer, got '{budget}'" in capsys.readouterr().err
    assert not out.exists()


def test_decimal_at_the_bound(tmp_path):
    infile = write(tmp_path / "box.json", THIRD_BOX)
    out = tmp_path / "delta.csv"
    argv = ["delta", "--in", infile, "--out", str(out), "--format", "csv", "--n", "1", "--decimal", "1000"]
    assert main(argv) == EXIT_OK
    assert out.read_text().splitlines()[1].split(",")[4:] == ["0." + "3" * 1000] * 2


def test_decimal_zero_adds_integer_columns(tmp_path):
    infile = write(tmp_path / "box.json", THIRD_BOX)
    out = tmp_path / "delta.csv"
    argv = ["delta", "--in", infile, "--out", str(out), "--format", "csv", "--n", "1", "--decimal", "0"]
    assert main(argv) == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0] == "N,lower,upper,witnesses,lower_dec,upper_dec"
    # both bounds are 1/3 at N = 0 and N = 1, which round to 0
    assert [r.split(",")[:3] + r.split(",")[-2:] for r in rows[1:]] == [
        ["0", "1/3", "1/3", "0", "0"],
        ["1", "1/3", "1/3", "0", "0"],
    ]


def test_extract_report_and_determinism(tmp_path):
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["extract", "--in", infile, "--epsilon", "1/10", "--n", "4", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["outcome"] == "ok"
    xs = [step["x"] for step in report["result"]["transcript"]["steps"]]
    assert xs == [{"1": "1"}, {"2": "1"}, {"3": "1"}, {"4": "1"}]
    assert verify_replay(report) == []
    # a finite set stalls at its first step, and the partial transcript
    # is still reported
    finite = write(tmp_path / "finite.json", {"type": "finite", "points": [{}, {"1": "1"}, {"2": "1"}]})
    assert main(["extract", "--in", finite, "--out", str(out1), "--epsilon", "1/10", "--n", "2"]) == EXIT_OK
    report = json.loads(out1.read_text())
    assert report["outcome"] == "stalled"
    assert report["result"]["transcript"]["steps"] == []
    assert verify_replay(report) == []


def test_series_report_and_oracle(tmp_path):
    infile = write(tmp_path / "series.json", GEOMETRIC)
    out = tmp_path / "series_report.json"
    assert main(["series", "--in", infile, "--out", str(out), "--epsilon", "1/8"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["result"]["tail"]["M"] == 3
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", str(out), "--out", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"]["failed"] == []


def test_series_not_achievable_outcome(tmp_path):
    canonical = {
        "norm": "sup",
        "label": "canonical",
        "terms": [{str(n): "1"} for n in range(1, 9)],
    }
    infile = write(tmp_path / "canon.json", canonical)
    out = tmp_path / "canon_report.json"
    assert main(["series", "--in", infile, "--out", str(out), "--epsilon", "1/2"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["outcome"] == "not_achievable"
    assert report["result"]["lower_certificate"]["value"] == "1"
    assert verify_replay(report) == []


def test_tree_and_one_sided_reports(tmp_path):
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    tree_out = tmp_path / "tree.json"
    assert main(["tree", "--in", infile, "--out", str(tree_out), "--epsilon", "1", "--depth", "3"]) == EXIT_OK
    tree = json.loads(tree_out.read_text())
    assert len(tree["result"]["tree"]["nodes"]) == 7
    assert verify_replay(tree) == []

    seq_out = tmp_path / "seq.json"
    assert main(["one_sided", "--in", infile, "--out", str(seq_out), "--epsilon", "1", "--n", "4"]) == EXIT_OK
    seq = json.loads(seq_out.read_text())
    assert seq["result"]["sequence"] == [{"1": "1"}, {"2": "1"}, {"3": "1"}, {"4": "1"}]
    assert verify_replay(seq) == []


def test_one_sided_on_many_members_replays_no_difference_set(tmp_path):
    # 3^6 subset sign sums: past 64 members the report embeds no set of
    # pairwise differences (15,625 points in each of 16 entries before)
    subsets = {"type": "sign_sums", "mode": "subsets", "horizon": 6,
               "series": {"norm": "sup", "label": "canonical6", "terms": [{str(n): "1"} for n in range(1, 7)]}}
    infile = write(tmp_path / "subsets6.json", subsets)
    out = tmp_path / "seq.json"
    assert main(["one_sided", "--in", infile, "--out", str(out), "--epsilon", "1", "--n", "4"]) == EXIT_OK
    assert out.stat().st_size < 4096
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", str(out), "--out", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"]["failed"] == []


def one_sided_report(tmp_path, expr_json, n):
    out = tmp_path / "seq.json"
    infile = write(tmp_path / "set.json", expr_json)
    assert main(["one_sided", "--in", infile, "--out", str(out), "--epsilon", "1", "--n", str(n)]) == EXIT_OK
    return out


def family_entries(report):
    return [e for e in report["replay"] if e["kind"] == "contains"]


def test_one_sided_family_entries_need_a_box_or_at_most_64_members(tmp_path):
    # each family entry copies the set, so only boxes and sets of at most
    # 64 members get them: 2^n entries, or none
    for low, high, expected in ((-31, 32, 4), (-32, 32, 0)):
        line = {"type": "finite", "points": [{"1": str(k)} if k else {} for k in range(low, high + 1)]}
        report = json.loads(one_sided_report(tmp_path, line, 2).read_text())
        assert len(report["result"]["sequence"]) == 2
        assert len(family_entries(report)) == expected
    subsets = {"type": "sign_sums", "mode": "subsets", "horizon": 6,
               "series": {"norm": "sup", "label": "canonical6", "terms": [{str(n): "1"} for n in range(1, 7)]}}
    report = json.loads(one_sided_report(tmp_path, subsets, 4).read_text())
    assert len(report["result"]["sequence"]) == 4 and family_entries(report) == []


def test_one_sided_family_replays_in_the_input_set(tmp_path):
    # the 64 points of the 0/1 cube in 6 coordinates: the family entries name
    # the input set itself, not a set of pairwise differences (5.3 MB before)
    cube = {"type": "finite", "points": [
        {str(i + 1): "1" for i in range(6) if mask >> i & 1} for mask in range(64)
    ]}
    out = one_sided_report(tmp_path, cube, 6)
    assert out.stat().st_size < 1_000_000
    report = json.loads(out.read_text())
    entries = family_entries(report)
    assert len(entries) == 2 ** 6
    assert all(e["set"] == sets.set_to_json(sets.set_from_json(cube)) for e in entries)
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", str(out), "--out", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"] == {"checked": 70, "failed": []}


def test_one_sided_family_with_a_non_member_fails_the_oracle(tmp_path):
    out = one_sided_report(tmp_path, PLAIN_BOX, 4)
    report = json.loads(out.read_text())
    index = next(pos for pos, e in enumerate(report["replay"]) if e["kind"] == "contains" and e["vector"] != {})
    report["replay"][index]["vector"] = {"1": "2"}
    out.write_text(json.dumps(report))
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", str(out), "--out", str(verdict)]) == EXIT_VIOLATION
    assert json.loads(verdict.read_text())["result"]["failed"] == [index]


def test_extreme_command_with_envelope(tmp_path):
    envelope = {
        "set": {"type": "finite", "points": [{}, {"1": "1"}, {"2": "1"}]},
        "norm": "sup",
        "point": {"1": "1"},
    }
    infile = write(tmp_path / "extreme.json", envelope)
    out = tmp_path / "extreme_report.json"
    assert main(["extreme", "--in", infile, "--out", str(out), "--epsilon", "1/1000000"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["result"]["eps_extreme"] is True
    assert report["result"]["eps_strong_extreme"] is True


def test_extreme_command_computes_one_diameter(tmp_path, monkeypatch):
    from symdex.sets import Symmetrized

    calls = []
    diameter = Symmetrized.diameter
    monkeypatch.setattr(Symmetrized, "diameter", lambda *args: calls.append(args) or diameter(*args))
    hull = {"type": "abs_conv_hull", "points": [{"1": "1"}, {"2": "1"}]}
    envelope = {"set": hull, "norm": "euclid", "point": {"1": "1"}}
    infile = write(tmp_path / "extreme.json", envelope)
    out = tmp_path / "extreme_report.json"
    # the interval from the relaxation and the pool straddles 2*epsilon
    assert main(["extreme", "--in", infile, "--out", str(out), "--epsilon", "1/2"]) == EXIT_OK
    assert len(calls) == 1
    report = json.loads(out.read_text())
    assert (report["outcome"], report["result"]["eps_extreme"]) == ("undecided", None)
    calls.clear()
    assert main(["extreme", "--in", infile, "--out", str(out), "--epsilon", "2"]) == EXIT_OK
    assert len(calls) == 1
    report = json.loads(out.read_text())
    assert report["result"]["eps_extreme"] is True
    assert report["result"]["symmetrized_diameter"]["upper"] == "4"


def test_extreme_reports_an_undecided_interval(tmp_path):
    box = {"type": "box", "default_radius": "0", "overrides": {"1": "1", "2": "1"}}
    shifted = {"type": "translate", "base": box, "by": {"2": "1/2"}}
    envelope = {"set": {"type": "intersect", "parts": [box, shifted]}, "norm": "euclid", "point": {}}
    infile = write(tmp_path / "extreme.json", envelope)
    out = tmp_path / "extreme_report.json"
    assert main(["extreme", "--in", infile, "--out", str(out), "--epsilon", "11/10"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert (report["outcome"], report["result"]["eps_extreme"]) == ("undecided", None)
    # squared lengths: the pool pair +-e_1 and the relaxation, around (2 * 11/10)^2
    bound = report["result"]["symmetrized_diameter"]
    assert (bound["lower"], bound["upper"]) == ("4", "5")
    assert verify_replay(report) == []


def test_refine_report(tmp_path):
    infile = write(tmp_path / "box.json", BOX_OVERRIDE)
    out = tmp_path / "refined.json"
    assert main(["refine", "--in", infile, "--out", str(out), "--epsilon", "1/10", "--n", "4"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["result"]["refined"] == {
        "type": "box",
        "default_radius": "1",
        "overrides": {"1": "0"},
    }
    assert report["result"]["delta0"]["upper"] == "1"


@pytest.mark.parametrize("n, code", [(-2, EXIT_INVALID), (0, EXIT_OK)])
def test_refine_needs_a_nonnegative_list_size(tmp_path, capsys, n, code):
    infile = write(tmp_path / "box.json", BOX_OVERRIDE)
    out = tmp_path / "refined.json"
    assert main(["refine", "--in", infile, "--out", str(out), "--n", str(n)]) == code
    if code == EXIT_INVALID:
        assert "N_max must be nonnegative" in capsys.readouterr().err
    else:
        assert json.loads(out.read_text())["outcome"] == "not_found"


def test_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.json"
    assert main(["delta", "--in", str(bad), "--out", str(out)]) == EXIT_INVALID
    missing_type = write(tmp_path / "m.json", {"default_radius": "1"})
    assert main(["delta", "--in", missing_type, "--out", str(out)]) == EXIT_INVALID
    sign_sums = {"type": "sign_sums", "mode": "subsets", "horizon": "x", "series": GEOMETRIC}
    malformed = [
        {"type": "finite", "points": 5},
        sign_sums,
        {"type": "box", "default_radius": "1", "overrides": [["1", "2"]]},
    ]
    for n, obj in enumerate(malformed):
        infile = write(tmp_path / f"malformed{n}.json", obj)
        assert main(["delta", "--in", infile, "--out", str(out)]) == EXIT_INVALID
    # a report without a replay list is no report, even an empty object or a set
    for n, report in enumerate([[1, 2], {"replay": 5}, {"replay": ["x"]}, {}, PLAIN_BOX]):
        infile = write(tmp_path / f"report{n}.json", report)
        assert main(["oracle", "--in", infile, "--out", str(out)]) == EXIT_INVALID
    # an empty replay (a stalled tree, a refine that found nothing) checks nothing
    infile = write(tmp_path / "empty_replay.json", {"replay": []})
    assert main(["oracle", "--in", infile, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["result"]["checked"] == 0


def test_symmetrized_box_input_reports_its_flattened_box(tmp_path):
    # the parser builds a symmetrized box as the box it flattens to: the
    # curve is the box's, and the replay entries name that box
    raw = {"type": "symmetrized", "base": BOX_OVERRIDE, "witnesses": [{"1": "1"}, {"2": "1/2"}]}
    flat = sets.set_to_json(sets.set_from_json(raw))
    assert flat["type"] == "box"
    reports = {}
    for name, obj in (("raw", raw), ("flat", flat)):
        infile = write(tmp_path / f"{name}_input.json", obj)
        out = tmp_path / f"{name}.json"
        assert main(["delta", "--in", infile, "--out", str(out), "--n", "2"]) == EXIT_OK
        reports[name] = json.loads(out.read_text())
        verdict = tmp_path / f"{name}_verdict.json"
        assert main(["oracle", "--in", str(out), "--out", str(verdict)]) == EXIT_OK
        assert json.loads(verdict.read_text())["result"]["failed"] == []
    assert reports["raw"]["result"] == reports["flat"]["result"]
    assert reports["raw"]["replay"] == reports["flat"]["replay"]
    named = [entry["set"] for entry in reports["raw"]["replay"] if entry["kind"] == "contains"]
    assert named and all(entry == flat for entry in named)


@pytest.mark.parametrize(
    "obj",
    [
        {"type": "box", "default_radius": True},
        {"type": "box", "default_radius": "1", "overrides": {"1": False}},
        {"type": "finite", "points": [{"1": True}, {"2": "1"}]},
    ],
)
def test_a_json_boolean_is_no_scalar(tmp_path, capsys, obj):
    infile = write(tmp_path / "bool.json", obj)
    out = tmp_path / "out.json"
    assert main(["delta", "--in", infile, "--out", str(out), "--n", "1"]) == EXIT_INVALID
    assert "not a rational: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("left, right", [(True, "1"), ("0", False), (False, True)])
def test_oracle_scalar_entries_need_scalars_not_booleans(tmp_path, capsys, left, right):
    for kind in ("scalar_le", "scalar_lt"):
        report = write(tmp_path / "report.json", {"replay": [{"kind": kind, "left": left, "right": right}]})
        assert main(["oracle", "--in", report, "--out", str(tmp_path / "verdict.json")]) == EXIT_INVALID
        assert "not a rational: " in capsys.readouterr().err


def test_exponent_scalar_is_invalid_input(tmp_path):
    out = tmp_path / "out.json"
    huge = {"type": "finite", "points": [{"1": "1e-100000000"}, {"2": "1"}]}
    infile = write(tmp_path / "huge.json", huge)
    assert main(["delta", "--in", infile, "--out", str(out), "--n", "1"]) == EXIT_INVALID


def nested_set(depth: int) -> dict:
    """A unit box under ``depth - 1`` alternating negations and translations."""
    expr = PLAIN_BOX
    for level in range(depth - 1):
        if level % 2:
            expr = {"type": "translate", "base": expr, "by": {"1": "1"}}
        else:
            expr = {"type": "negate", "base": expr}
    return expr


def test_nesting_limit(tmp_path):
    out = tmp_path / "out.json"
    infile = write(tmp_path / "deep.json", nested_set(MAX_SET_DEPTH))
    assert main(["delta", "--in", infile, "--out", str(out), "--n", "1"]) == EXIT_OK
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", str(out), "--out", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"]["failed"] == []

    too_deep = write(tmp_path / "too_deep.json", nested_set(MAX_SET_DEPTH + 1))
    assert main(["delta", "--in", too_deep, "--out", str(out), "--n", "1"]) == EXIT_INVALID
    # deeper than the JSON decoder's recursion limit: written by hand
    leaf = json.dumps(PLAIN_BOX)
    very_deep = tmp_path / "very_deep.json"
    very_deep.write_text('{"type": "negate", "base": ' * 1199 + leaf + "}" * 1199)
    assert main(["delta", "--in", str(very_deep), "--out", str(out), "--n", "1"]) == EXIT_INVALID


def test_the_deepest_input_the_decoder_accepts_is_written(tmp_path, capsys):
    # an echoed field nests as deep as the JSON decoder allows: the report,
    # two levels deeper still, is written as json.dumps writes it
    infile, out = tmp_path / "deep.json", tmp_path / "out.json"

    def request(depth: int) -> int:
        deep = '{"k": ' * depth + '[-0.0, 1e400, "\\u00e9", null]' + "}" * depth
        infile.write_text('{"set": ' + json.dumps(PLAIN_BOX) + ', "extra": ' + deep + "}")
        return main(["delta", "--in", str(infile), "--out", str(out), "--n", "1"])

    good, bad = 100, 1100
    assert request(good) == EXIT_OK and request(bad) == EXIT_INVALID
    while bad - good > 1:
        mid = (good + bad) // 2
        if request(mid) == EXIT_OK:
            good = mid
        else:
            bad = mid
    assert good > 900
    assert request(good) == EXIT_OK
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    capsys.readouterr()
    assert request(good + 1) == EXIT_INVALID
    assert capsys.readouterr().err == "symdex: invalid input: input JSON nests too deeply\n"


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
    | st.floats()
    | st.text()
    | st.text(st.sampled_from("\x00\x1f\x7f\\\"\u00e9\u2028\ud7ff\U0001f600\U0010ffff"))
)
json_trees = st.recursive(
    json_leaves, lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4)
)


@given(json_trees)
@example({"": [float("nan"), float("inf"), float("-inf"), -0.0, 10 ** 40, -(10 ** 40), {}, [], [{}], True, None]})
@example({"\U0001f600\x00\u00e9": {"b": 1, "a": {"\n": "\t"}}})
@example(("tuples", (1, [2.5]), ()))
@example([])
def test_the_report_writer_writes_what_json_dumps_writes(tree):
    assert cli._json_report(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 64])
def test_tree_depth_limit_exits_2(tmp_path, capsys, depth):
    # rejected before the 2^depth node array is allocated
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    out = tmp_path / "tree.json"
    assert main(["tree", "--in", infile, "--out", str(out), "--epsilon", "1", "--depth", str(depth)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"depth must be from 1 to {MAX_TREE_DEPTH}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_budget_exit_code(tmp_path):
    overlapping = {
        "type": "sign_sums",
        "mode": "subsets",
        "horizon": 12,
        "node_budget": 3,
        "series": {
            "norm": "sup",
            "label": "wide",
            "terms": [{"1": "1", str(n + 1): "1"} for n in range(1, 13)],
        },
    }
    infile = write(tmp_path / "signs.json", overlapping)
    out = tmp_path / "out.json"
    assert main(["delta", "--in", infile, "--out", str(out), "--n", "1"]) == EXIT_BUDGET


@pytest.mark.parametrize("budget", [0, -1, "0"])
def test_a_sign_sum_node_budget_below_one_exits_2(tmp_path, capsys, budget):
    overlapping = {
        "type": "sign_sums",
        "mode": "subsets",
        "horizon": 3,
        "node_budget": budget,
        "series": {"norm": "sup", "label": "wide", "terms": [{"1": "1", str(n + 1): "1"} for n in range(1, 4)]},
    }
    infile = write(tmp_path / "signs.json", overlapping)
    out = tmp_path / "out.json"
    assert main(["delta", "--in", infile, "--out", str(out), "--n", "1"]) == EXIT_INVALID
    assert "'node_budget' must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_one_sided_family_past_the_enumeration_budget_exits_3(tmp_path, capsys, monkeypatch):
    # the family doubles per step: 1, 2, 4 members before steps 1-3, so
    # step 3 would grow it to 8, past a budget of 4
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    out = tmp_path / "seq.json"
    monkeypatch.setattr(sets, "DEFAULT_ENUM_BUDGET", 4)
    assert main(["one_sided", "--in", infile, "--out", str(out), "--epsilon", "1", "--n", "2"]) == EXIT_OK
    assert main(["one_sided", "--in", infile, "--out", str(out), "--epsilon", "1", "--n", "3"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("symdex: budget exhausted:") and "enumeration budget of 4" in err


def test_decimal_string_rounding():
    assert decimal_string(F(1, 3), 4) == "0.3333"
    assert decimal_string(F(-1, 2), 1) == "-0.5"
    assert decimal_string(F(2), 0) == "2"
    assert decimal_string(F(1, 200), 2) == "0.01"  # round half up


def test_unbounded_request_is_invalid_input(tmp_path):
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    out = tmp_path / "out.json"
    assert main(["delta", "--in", infile, "--out", str(out), "--norm", "sum"]) == EXIT_INVALID


def test_extract_stalled_outcome(tmp_path):
    finite = {"type": "finite", "points": [{}, {"1": "1"}, {"2": "1"}]}
    infile = write(tmp_path / "finite.json", finite)
    out = tmp_path / "out.json"
    assert main(["extract", "--in", infile, "--out", str(out), "--epsilon", "1/10", "--n", "2"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["outcome"] == "stalled"


def test_cli_strategy_variants(tmp_path):
    infile = write(tmp_path / "box.json", BOX_OVERRIDE)
    for strategy in ("greedy", "beam"):
        out = tmp_path / f"{strategy}.csv"
        assert main([
            "delta", "--in", infile, "--out", str(out),
            "--format", "csv", "--n", "2", "--strategy", strategy,
        ]) == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[1].split(",")[:3] == ["0", "2", "2"]
        assert rows[2].split(",")[:3] == ["1", "1", "1"]


def test_delta_on_subset_sign_sums_replays(tmp_path):
    # the best witness list uses every series index, so the conditional
    # fresh-index certificate has nothing to answer with; delta must not
    # replay a lower bound its curve does not claim
    signs = {
        "type": "sign_sums",
        "mode": "subsets",
        "horizon": 3,
        "series": {"norm": "sup", "terms": [{"1": "1"}, {"2": "1/2"}, {"3": "1/4"}]},
    }
    inputs = {
        "plain": signs,
        "negate": {"type": "negate", "base": signs},
        "symmetrized": {"type": "symmetrized", "base": signs, "witnesses": [{"1": "1"}]},
    }
    for name, obj in inputs.items():
        infile = write(tmp_path / f"{name}.json", obj)
        out, verdict = tmp_path / f"{name}_report.json", tmp_path / f"{name}_verdict.json"
        assert main(["delta", "--in", infile, "--out", str(out), "--n", "1"]) == EXIT_OK, name
        assert main(["oracle", "--in", str(out), "--out", str(verdict)]) == EXIT_OK, name
        assert json.loads(verdict.read_text())["result"]["failed"] == [], name


def test_oracle_replays_a_deep_sign_sum_membership(tmp_path):
    # 1,200 overlapping terms x_n = e_1 + e_2/n: the membership search for
    # their sum goes 1,200 terms deep
    series = {"norm": "sup", "terms": [{"1": "1", "2": f"1/{n}"} for n in range(1, 1201)]}
    total = {"1": "1200", "2": str(sum(F(1, n) for n in range(1, 1201)))}
    entry = {
        "kind": "contains",
        "set": {"type": "sign_sums", "mode": "subsets", "horizon": 1200, "series": series},
        "vector": total,
        "expected": True,
    }
    report = write(tmp_path / "report.json", {"replay": [entry]})
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", report, "--out", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"] == {"checked": 1, "failed": []}


def test_oracle_decides_a_disjoint_sign_sum_non_member_within_a_small_node_budget(tmp_path):
    # e_1 ... e_19, e_20 + e_21 with node_budget 20: the vector holds half of
    # the last term's e_21, and the term table rejects it without a search
    terms = [{str(n): "1"} for n in range(1, 20)] + [{"20": "1", "21": "1"}]
    entry = {
        "kind": "contains",
        "set": {"type": "sign_sums", "mode": "subsets", "horizon": 20, "node_budget": 20,
                "series": {"norm": "sup", "terms": terms}},
        "vector": {**{str(n): "1" for n in range(1, 21)}, "21": "1/2"},
        "expected": False,
    }
    report = write(tmp_path / "report.json", {"replay": [entry]})
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", report, "--out", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"] == {"checked": 1, "failed": []}


@pytest.mark.parametrize(
    "expected, code", [(True, EXIT_OK), (False, EXIT_VIOLATION), ("yes", EXIT_INVALID), (1, EXIT_INVALID)]
)
def test_oracle_contains_entry_needs_a_boolean_expected(tmp_path, expected, code):
    entry = {
        "kind": "contains",
        "set": {"type": "finite", "points": [{"1": "1"}]},
        "vector": {"1": "1"},
        "expected": expected,
    }
    report = write(tmp_path / "report.json", {"replay": [entry]})
    assert main(["oracle", "--in", report, "--out", str(tmp_path / "verdict.json")]) == code


BOX = sets.set_from_json(PLAIN_BOX)
E1, E2 = SparseVec.from_json({"1": "1"}), SparseVec.from_json({"1": "2"})
SUP = NormKind.SUP
# kind -> (values of a true entry, values of a false one), in table order
ENTRY_SAMPLES = {
    "contains": ((BOX, E1, True), (BOX, E1, False)),
    "norm_ge": ((E1, SUP, 1), (E1, SUP, 2)),
    "norm_le": ((E1, SUP, 1), (E1, SUP, F(1, 2))),
    "dual_norm_eq": ((E1, SUP, 1), (E1, SUP, 2)),
    "dual_pair_eq": ((E1, E2, 2), (E1, E2, 0)),
    "midpoint": ((E1, SparseVec.from_json({}), E2), (E1, E1, E2)),
    "scalar_le": ((1, 1), (2, 1)),
    "scalar_lt": ((0, 1), (1, 1)),
}


@pytest.mark.parametrize("kind", list(cli.ENTRY_KINDS))
def test_each_entry_kind_replays_a_true_entry_and_rejects_a_false_one(kind):
    true, false = ENTRY_SAMPLES[kind]
    report = json.loads(json.dumps({"replay": [cli.entry(kind, *true), cli.entry(kind, *false)]}))
    assert verify_replay(report) == [1]


@pytest.mark.parametrize(
    "kind, name, type_",
    [(kind, name, type_) for kind, (fields, _) in cli.ENTRY_KINDS.items() for name, type_ in fields],
)
def test_oracle_names_the_missing_field_of_an_entry(tmp_path, capsys, kind, name, type_):
    item = cli.entry(kind, *ENTRY_SAMPLES[kind][0])
    del item[name]
    report = write(tmp_path / "report.json", {"replay": [item]})
    code = main(["oracle", "--in", report, "--out", str(tmp_path / "verdict.json")])
    if type_ == "bool":
        # a contains entry without expected means expected: true
        assert code == EXIT_OK
    else:
        assert code == EXIT_INVALID
        assert f"a {kind} entry needs a {name!r} field" in capsys.readouterr().err


def test_oracle_rejects_the_unwritten_dual_pair_gt_kind(tmp_path, capsys):
    item = {"kind": "dual_pair_gt", "functional": {"1": "1"}, "vector": {"1": "1"}, "value": "0"}
    report = write(tmp_path / "report.json", {"replay": [item]})
    assert main(["oracle", "--in", report, "--out", str(tmp_path / "verdict.json")]) == EXIT_INVALID
    assert "unknown replay check kind 'dual_pair_gt'" in capsys.readouterr().err


def test_readme_names_every_entry_kind():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [kind for kind in cli.ENTRY_KINDS if f"| `{kind}` |" not in readme] == []


def test_oracle_parses_each_distinct_set_once(tmp_path, monkeypatch):
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    report, verdict = tmp_path / "report.json", tmp_path / "verdict.json"
    assert main(["tree", "--in", infile, "--out", str(report), "--epsilon", "1", "--depth", "5"]) == EXIT_OK
    replay = json.loads(report.read_text())["replay"]
    contains = [entry["set"] for entry in replay if entry["kind"] == "contains"]
    distinct = {json.dumps(obj, sort_keys=True) for obj in contains}
    assert len(contains) == 31 and len(distinct) == 1
    parses = []
    parse = sets.set_from_json
    monkeypatch.setattr(sets, "set_from_json", lambda obj: parses.append(obj) or parse(obj))
    assert main(["oracle", "--in", str(report), "--out", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"] == {"checked": len(replay), "failed": []}
    assert len(parses) == len(distinct)


def test_oracle_parses_each_distinct_vector_once(tmp_path, monkeypatch):
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    report, verdict = tmp_path / "report.json", tmp_path / "verdict.json"
    assert main(["tree", "--in", infile, "--out", str(report), "--epsilon", "1", "--depth", "5"]) == EXIT_OK
    replay = json.loads(report.read_text())["replay"]
    fields = [entry[name] for entry in replay for name in ("vector", "functional", "parent", "left", "right")
              if name in entry]
    distinct = {json.dumps(obj, sort_keys=True) for obj in fields}
    assert len(fields) > len(distinct)
    parses = []
    parse = SparseVec.from_json
    monkeypatch.setattr(SparseVec, "from_json", lambda obj: parses.append(obj) or parse(obj))
    assert main(["oracle", "--in", str(report), "--out", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"] == {"checked": len(replay), "failed": []}
    assert len(parses) == len(distinct)


@pytest.mark.parametrize(
    "good_vector, bad_vector",
    [({"1": "1"}, {"1": ["1"]}), ({"1": 1}, {"1": 1.0}), ({"1": "1"}, ["1"]), ({"1": "1"}, {"0": "1"})],
    ids=["unhashable_value", "float_after_int", "not_an_object", "coordinate_0"],
)
def test_oracle_rejects_a_malformed_vector_after_a_cached_one(tmp_path, capsys, good_vector, bad_vector):
    good = {"kind": "norm_ge", "vector": good_vector, "norm": "sup", "threshold": "1"}
    bad = {**good, "vector": bad_vector}
    report = write(tmp_path / "report.json", {"replay": [good, good, bad]})
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", report, "--out", str(verdict)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("symdex: invalid input:")
    assert "Traceback" not in err
    assert not verdict.exists()


@pytest.mark.parametrize(
    "bad_set",
    [{"type": "frobnicate"}, nested_set(MAX_SET_DEPTH + 1)],
    ids=["unknown_type", "too_deep"],
)
def test_oracle_rejects_a_malformed_set_after_a_cached_one(tmp_path, capsys, bad_set):
    good = {"kind": "contains", "set": PLAIN_BOX, "vector": {"1": "1"}, "expected": True}
    bad = {**good, "set": bad_set}
    report = write(tmp_path / "report.json", {"replay": [good, bad, good]})
    verdict = tmp_path / "verdict.json"
    assert main(["oracle", "--in", report, "--out", str(verdict)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("symdex: invalid input:")
    assert "Traceback" not in err
    assert not verdict.exists()


def test_oracle_does_not_take_a_cached_set_for_a_vector(tmp_path, capsys):
    contains = {"kind": "contains", "set": PLAIN_BOX, "vector": {"1": "1"}, "expected": True}
    set_as_vector = {"kind": "norm_ge", "vector": PLAIN_BOX, "norm": "sup", "threshold": "1"}
    report = write(tmp_path / "report.json", {"replay": [contains, set_as_vector]})
    assert main(["oracle", "--in", report, "--out", str(tmp_path / "verdict.json")]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("symdex: invalid input:")


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    infile = tmp_path / "latin1.json"
    infile.write_bytes(b'{"type": "box", "default_radius": "1", "overrides": {}, "label": "\xe9"}')
    out = tmp_path / "out.json"
    assert main(["delta", "--in", str(infile), "--out", str(out), "--n", "1"]) == EXIT_INVALID
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the request pipeline


@pytest.mark.parametrize("command", ["delta", "series", "oracle"])
def test_request_reads_its_input_once(tmp_path, monkeypatch, command):
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    report = tmp_path / "report.json"
    assert main(["delta", "--in", infile, "--out", str(report), "--n", "1"]) == EXIT_OK
    series = write(tmp_path / "series.json", GEOMETRIC)
    inputs = {"delta": infile, "series": series, "oracle": str(report)}
    reads = []
    read = cli._read_input
    monkeypatch.setattr(cli, "_read_input", lambda path: reads.append(path) or read(path))
    out = tmp_path / "out.json"
    assert main([command, "--in", inputs[command], "--out", str(out), "--epsilon", "1/8"]) == EXIT_OK
    assert reads == [inputs[command]]
    data = read(inputs[command])
    expected = {"sha256": hashlib.sha256(data).hexdigest()} if command == "oracle" else json.loads(data)
    assert json.loads(out.read_text())["request"]["input"] == expected


def test_request_builds_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    infile = write(tmp_path / "box.json", PLAIN_BOX)
    assert main(["delta", "--in", infile, "--out", str(tmp_path / "out.json"), "--n", "1"]) == EXIT_OK
    assert built == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate", "--in", "a.json", "--out", "b.json"], "invalid choice: 'frobnicate'"),
        (["delta", "--out", "b.json"], "the following arguments are required: --in"),
    ],
    ids=["unknown_command", "missing_in"],
)
def test_malformed_command_line_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_options_before_the_command_parse_the_same(tmp_path):
    infile = write(tmp_path / "box.json", BOX_OVERRIDE)
    after, before = tmp_path / "after.json", tmp_path / "before.json"
    options = ["--in", infile, "--n", "2", "--seed", "3"]
    assert cli.PARSER.parse_args(["delta", *options, "--out", "x"]) == cli.PARSER.parse_args(
        [*options, "--out", "x", "delta"]
    )
    assert main(["delta", *options, "--out", str(after)]) == EXIT_OK
    assert main([*options, "--out", str(before), "delta"]) == EXIT_OK
    assert after.read_bytes() == before.read_bytes()
