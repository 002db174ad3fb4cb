"""Golden reports: the demo scenarios, one ``delta`` request per set
variant the demo never reaches, and one ``extract`` request on subset
sign sums must reproduce byte for byte.

The sha256 digests pin every report and oracle verdict; the outputs do
not depend on ``PYTHONHASHSEED``. A change that alters any report byte
fails here, even when every semantic test still passes. Update the
digests only for a deliberate change of the report contents.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from symdex import cli
from symdex.cli import EXIT_OK, main

DEMO = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"

SIGN_SUMS_3 = {
    "norm": "sup",
    "label": "disjoint",
    "terms": [{"1": "1"}, {"2": "1/2"}, {"3": "1/4"}],
}

VARIANT_INPUTS = {
    "translate": {
        "type": "translate",
        "base": {"type": "finite", "points": [{}, {"1": "1"}, {"2": "1"}, {"1": "1", "2": "1"}]},
        "by": {"1": "1/2"},
    },
    "negate": {
        "type": "negate",
        "base": {"type": "sign_sums", "mode": "prefixes", "horizon": 3, "series": SIGN_SUMS_3},
    },
    "intersect": {
        "type": "intersect",
        "parts": [
            {"type": "box", "default_radius": "0", "overrides": {"1": "1", "2": "2"}},
            {
                "type": "translate",
                "base": {"type": "box", "default_radius": "0", "overrides": {"1": "1", "2": "1"}},
                "by": {"2": "1/2"},
            },
        ],
    },
    # only the zero vector survives: the pool lower witness is null
    "intersect_point": {
        "type": "intersect",
        "parts": [
            {"type": "box", "default_radius": "0", "overrides": {"1": "1"}},
            {"type": "box", "default_radius": "0", "overrides": {"2": "1"}},
        ],
    },
    "symmetrized": {
        "type": "symmetrized",
        "base": {"type": "abs_conv_hull", "points": [{"1": "1"}, {"1": "1/2", "2": "1"}]},
        "witnesses": [{"1": "1/2"}],
    },
    "abs_conv_hull": {
        "set": {"type": "abs_conv_hull", "points": [{"1": "1", "2": "1"}, {"1": "1", "2": "-1"}]},
        "norm": "sum",
    },
}

# extraction on subset sign sums: every step set is a flattened sign-sum set
SUBSET_SUMS_6 = {
    "type": "sign_sums",
    "mode": "subsets",
    "horizon": 6,
    "series": {
        "norm": "sup",
        "label": "mixed6",
        "terms": [
            {"1": "1"}, {"2": "1", "3": "-1/2"}, {"4": "1/2"}, {"5": "1"}, {"6": "3/4"}, {"7": "1"}
        ],
    },
}

DEMO_DIGESTS = {
    "delta_curve.csv": "0029e5bc865d8b2c1aff5d5e5f682c83ce8c2db832265419516e786e65c97e6d",
    "delta_curve.json": "7648fb7a1cb120a0f8b9a263f4b28d6c63536b82d638de4568e8b0e5bffb9f88",
    "extraction.json": "4f815a327d8c3f861bf78b611ae5c621f6ae25ad02be54ee48c456ece0ef5b6a",
    "refined.json": "048007628cae395eba5cc79676fcf47e89677ed800c55e127bdc58ffc1aedb67",
    "tree.json": "a1bde3efa8dbd0c4782cad04b305eea9830c473cf7d86b1bde604f985fca9028",
    "tail_geometric.json": "f6ba439d8bef68acdd9044e7374629d2b8b78444bf20e0e772a1197d27def858",
    "tail_canonical.json": "60e85727f8ad2ee601274a36f013107967606c0df1b1243a4a1e3289308ef674",
    "extreme.json": "898f4394def54e6b7c4ddf9e75cc48c4068e200308e05a79428942fa4c2bd10d",
    "one_sided.json": "9e357ea1c08c00fca796461b44881215b34915da1b71e4723ce48ceaa5dea6ad",
    "verdict_delta_curve.json": "e4e4866f9b8b8d528e3e367deb5617f76db3ae668919bcdba4b6d2e43a76e3ff",
    "verdict_extraction.json": "1e3e62b14afcb92a6f874ee3a429824e10844d22bd8efe4e9badf6e7821297d9",
    "verdict_refined.json": "479e6061841d6ee254365f2aa459563aee22111a8ec32f9be9fe94b6e780bc4d",
    "verdict_tree.json": "a6500074e932efa2079b0913f04b1eb1d8ea9d304286d55ddfd893d5cf6fd908",
    "verdict_tail_geometric.json": "f3d0a769f3e5b95566789f16b880b16b52555da1db2c1e1242252b3d7ce9780d",
    "verdict_tail_canonical.json": "0d26e0343c0722c15b1285d8c558644e608907eaf32b16066e42851d6e48643e",
    "verdict_extreme.json": "c69a6583c4a29f0518779184c93da5bc16f8ddbbf70e2e14c5db77037ec14555",
    "verdict_one_sided.json": "a1275a5aef795ab768be13581c22eb07474b59818ee77f59a9f675a3e017db59",
}

VARIANT_DIGESTS = {
    "translate": (
        "99530809c6b247526c6f5e188aa59d6607ce1321d6ec3fcfc45242ad04568a1c",
        "a23476c66cada2086ad978779e52d8d700d2fa635d9c91f8289e770a83690d68",
    ),
    "negate": (
        "1ade18f7afe83124928cadf2b6de6524211ef5a779e09a62aa79a613cc642f71",
        "7431f29d7f625cbfc76a0faa72d8bed135d02fb058ec0a23951d1c953ef2d975",
    ),
    "intersect": (
        "05f0107e589165c8ec4fe2ece94fbf00bf8cbadcfea2a12977d6287cbe53a1e5",
        "066dcc37422d652145a7c5843e4efd65fa8edd8ec9b28c572ef4b0619fa5f2c7",
    ),
    "intersect_point": (
        "2ff15e30ece23544b9061ee0ed9c836927fb7674a88121524cd63c0cfff5c44f",
        "ced3bf47515c2bf52493acfc34f158b5281ae2464e25dc02d7c85c6a46378918",
    ),
    "symmetrized": (
        "1f1fad4e762eca7640b415e5ae871e065f36e676ba1bc803a0784dedf5046900",
        "1438aa3151edcca07a55bed77cea9025c04e83eeb3707b06950242755794fe4f",
    ),
    "abs_conv_hull": (
        "834116c5c937c18650e165e9d8e7faa620401e56f3963ae99bca05943bbb4c90",
        "0dcc073bdb47adb4ea1157afa98b604537a9fab0d6b1c7e0975d00f31f9cb393",
    ),
}

# x_n = e_n + e_{n+1}: neighbouring terms share a coordinate, so the
# symmetrized sign-sum sets have no closed form. From horizon 12 on
# (3^12 > 200,000) they are not enumerable either, and their diameters
# take the relaxation upper end.
OVERLAP12 = {
    "norm": "sup",
    "label": "overlap12",
    "terms": [{str(n): "1", str(n + 1): "1"} for n in range(1, 13)],
}

OVERLAP12_REQUESTS = {
    "series": (OVERLAP12, ["series", "--epsilon", "1/8", "--seed", "11"]),
    "delta": (
        {"type": "sign_sums", "mode": "subsets", "horizon": 12, "series": OVERLAP12},
        ["delta", "--n", "1", "--seed", "0"],
    ),
}

OVERLAP12_DIGESTS = {
    "series": (
        "f5d67f951f19c7499ad403e23d49e89089843d38db19a5efee6a057d3a4feb46",
        "0e93259ea261218d0536fbb8ff133841c2c7db44b4e6362464b397d4fb56eb43",
    ),
    "delta": (
        "a54ccffbe9f741e3a37aa193d3145750b62ba8035cbf5560dec0d5d061e4e478",
        "4eae4df3745cae688c475cf230e62b8602ee3f6c253cb13238aae0892a3f5742",
    ),
}

# abs-convex hulls past ``delta --n 1``: the sum-norm hull above at N=2
# and through extraction, and a rank-deficient hull (2 generators over 3
# coordinates, so every membership LP has a redundant row)
HULL_REQUESTS = {
    "delta_n2": (VARIANT_INPUTS["abs_conv_hull"], ["delta", "--n", "2", "--seed", "0"]),
    "extract_n3": (VARIANT_INPUTS["abs_conv_hull"], ["extract", "--epsilon", "1/10", "--n", "3", "--seed", "0"]),
    "rank_deficient_delta_n2": (
        {
            "set": {"type": "abs_conv_hull", "points": [{"1": "1", "2": "1", "3": "1/2"}, {"1": "1/2", "2": "-1", "3": "1"}]},
            "norm": "sup",
        },
        ["delta", "--n", "2", "--seed", "0"],
    ),
}

HULL_DIGESTS = {
    "delta_n2": (
        "814fb0930c083a6b060e20c35bf136ea711afc3b74a199d13b611553a2ee39c9",
        "84c62fff5e246badcb571d56863bdb9540672097dc826779e495410b7aff45e9",
    ),
    "extract_n3": (
        "96d22ec494aa50c898e1a323735e4e8abd1a622a306c030ba02379b83a21425e",
        "83ad825ea5241e39749e038f40f480308dbfb8da3b7d6bd0920337141e34b2b2",
    ),
    "rank_deficient_delta_n2": (
        "0ba94ed94551547b162884925eea81f8761407d4273eaa2222e66d134b94d01d",
        "4dbbcdf084536ec6b0d054af5d6c86c410b90aab3db6c4ca1e0e3660b1d48948",
    ),
}

SUBSET_EXTRACT_DIGESTS = (
    "529898493bdfff3ef0ecd9614fbedfab43b721da7a54fe2414c70d8fe44c3e45",
    "85cc8c72208db32f12153824809f4f351fcd10f3f1ad93f418398f4f42b33f27",
)


@pytest.fixture(autouse=True)
def reports_are_json_dumps(monkeypatch):
    """Every report a golden test writes is ``json.dumps`` of the in-memory report."""
    written = []
    write = cli._json_report

    def checked(report: dict) -> str:
        text = write(report)
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
        written.append(report["command"])
        return text

    monkeypatch.setattr(cli, "_json_report", checked)
    yield
    assert written


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_demo():
    spec = importlib.util.spec_from_file_location("run_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def demo_digests() -> dict:
    """Run the demo in the current directory; digests of every report and verdict."""
    demo = _load_demo()
    assert demo.run() == EXIT_OK
    names = []
    for outname, _ in demo.REQUESTS:
        names.append(outname)
        if outname.endswith(".json"):
            names.append(f"verdict_{outname}")
    return {name: _sha256(demo.OUT / name) for name in names}


def variant_digests(root: pathlib.Path) -> dict:
    """Run ``delta --n 1`` and its oracle replay on every variant input."""
    out = {}
    for name, obj in VARIANT_INPUTS.items():
        infile = root / f"{name}.json"
        infile.write_text(json.dumps(obj))
        report, verdict = root / f"report_{name}.json", root / f"verdict_{name}.json"
        argv = ["delta", "--in", str(infile), "--n", "1", "--seed", "0", "--out", str(report)]
        assert main(argv) == EXIT_OK
        assert main(["oracle", "--in", str(report), "--out", str(verdict)]) == EXIT_OK
        out[name] = (_sha256(report), _sha256(verdict))
    return out


def test_demo_reports_are_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert demo_digests() == DEMO_DIGESTS


def test_variant_delta_reports_are_golden(tmp_path):
    assert variant_digests(tmp_path) == VARIANT_DIGESTS


def test_subset_sign_sum_extract_report_is_golden(tmp_path):
    infile = tmp_path / "subset_sums6.json"
    infile.write_text(json.dumps(SUBSET_SUMS_6))
    report, verdict = tmp_path / "report.json", tmp_path / "verdict.json"
    argv = ["extract", "--in", str(infile), "--n", "4", "--epsilon", "1/10", "--seed", "0"]
    assert main(argv + ["--out", str(report)]) == EXIT_OK
    assert main(["oracle", "--in", str(report), "--out", str(verdict)]) == EXIT_OK
    assert (_sha256(report), _sha256(verdict)) == SUBSET_EXTRACT_DIGESTS


def _without_seed(report: dict) -> dict:
    """The report without the echoed seed, the only part ``--seed`` moves."""
    del report["request"]["parameters"]["seed"]
    return report


def test_reports_do_not_depend_on_the_seed(tmp_path):
    requests = [(f"{name}.json", obj, ["delta", "--n", "1"]) for name, obj in VARIANT_INPUTS.items()]
    requests.append(("subset_sums6.json", SUBSET_SUMS_6, ["extract", "--n", "4", "--epsilon", "1/10"]))
    for name, obj, (command, *flags) in requests:
        infile = tmp_path / name
        infile.write_text(json.dumps(obj))
        reports = []
        for seed in ("0", "5"):
            out = tmp_path / f"{seed}_{name}"
            assert main([command, "--in", str(infile), *flags, "--seed", seed, "--out", str(out)]) == EXIT_OK
            reports.append(_without_seed(json.loads(out.read_text())))
        assert reports[0] == reports[1], name


def request_digests(root: pathlib.Path, requests: dict) -> dict:
    """Run each ``(input, [command, *flags])`` request and its oracle replay."""
    digests = {}
    for name, (obj, (command, *flags)) in requests.items():
        infile = root / f"{name}.json"
        infile.write_text(json.dumps(obj))
        report, verdict = root / f"report_{name}.json", root / f"verdict_{name}.json"
        assert main([command, "--in", str(infile), *flags, "--out", str(report)]) == EXIT_OK
        assert main(["oracle", "--in", str(report), "--out", str(verdict)]) == EXIT_OK
        digests[name] = (_sha256(report), _sha256(verdict))
    return digests


def test_overlapping_sign_sum_reports_are_golden(tmp_path):
    assert request_digests(tmp_path, OVERLAP12_REQUESTS) == OVERLAP12_DIGESTS


def test_hull_reports_are_golden(tmp_path):
    assert request_digests(tmp_path, HULL_REQUESTS) == HULL_DIGESTS
