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
    # only the zero vector survives: the sampled lower witness is null
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
    "extraction.json": "9aed54a936105eacfe0f33332a48d7399c9eefafbc0c8eb2de4d64d9788fc7d7",
    "refined.json": "048007628cae395eba5cc79676fcf47e89677ed800c55e127bdc58ffc1aedb67",
    "tree.json": "a1bde3efa8dbd0c4782cad04b305eea9830c473cf7d86b1bde604f985fca9028",
    "tail_geometric.json": "f6ba439d8bef68acdd9044e7374629d2b8b78444bf20e0e772a1197d27def858",
    "tail_canonical.json": "60e85727f8ad2ee601274a36f013107967606c0df1b1243a4a1e3289308ef674",
    "extreme.json": "898f4394def54e6b7c4ddf9e75cc48c4068e200308e05a79428942fa4c2bd10d",
    "one_sided.json": "53f2a1efc726998d4a5b71df1be0666693a66e939c4d57dd4693883d73efa845",
    "verdict_delta_curve.json": "0697e0ea8196a3e2fe03f8b7db1c053c7038e18616f0bb288c4d91805db09e9a",
    "verdict_extraction.json": "d5e9d67feb7b71baad5f3b61c83691bd5a908bc4939e8d6f5287891cdb5b388f",
    "verdict_refined.json": "ca0232d78951481e1cd437d343c17bd3354bafe3ac55b449b5e8a3132170607c",
    "verdict_tree.json": "be41e5cc84097df13d1c1bbd54651450ddad74fda624dcbede2b123ec827c364",
    "verdict_tail_geometric.json": "8222836a4235d8a2571dcabc3b201bc79b47ff5fe9f18930d0e147d8c6bcc5ca",
    "verdict_tail_canonical.json": "8f80495ee8374c2f23ef683a260dd161f64f6335941457984975f533a8bb7445",
    "verdict_extreme.json": "7e7db37bbd6177afa4128262fe63ef7639d90296630df6f43d51e3c619fa42c9",
    "verdict_one_sided.json": "ca8414f020811c5e966069c75986a7e0f1426f284287a4b5ef80618ba334033d",
}

VARIANT_DIGESTS = {
    "translate": (
        "99530809c6b247526c6f5e188aa59d6607ce1321d6ec3fcfc45242ad04568a1c",
        "01b314c458de6808c475b51054ca3dc0f96ab77b7cb260692f5a58d68bf6a162",
    ),
    "negate": (
        "1ade18f7afe83124928cadf2b6de6524211ef5a779e09a62aa79a613cc642f71",
        "aac89583e656c4ee1706dd7672693b2b97828dbc66329e7a8e2dfcf1553ee6ef",
    ),
    "intersect": (
        "acdfa7b0d11922e7057b8f50e804d9e0d8658eb3e2d905ff93a5c10f84ff3f95",
        "b3728fd83a50632e36086cc7495551666bb9276ac254b3d2496748f9fd2f8c46",
    ),
    "intersect_point": (
        "2ff15e30ece23544b9061ee0ed9c836927fb7674a88121524cd63c0cfff5c44f",
        "7ddc65924f3a14010ebe0ac84c9cfa237a47f3017cdd23033201a77977d4a065",
    ),
    "symmetrized": (
        "1f1fad4e762eca7640b415e5ae871e065f36e676ba1bc803a0784dedf5046900",
        "a6d1e12fbfbcbb94295e065f13b188882dcac75c66344339db84404dab542c0b",
    ),
    "abs_conv_hull": (
        "834116c5c937c18650e165e9d8e7faa620401e56f3963ae99bca05943bbb4c90",
        "4e173ad451978aa3c72c210fd5d8e229b5c850764873efc120bc7db3782ebbaf",
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
        "1c33b6c19be313b2c21e47cdbf6f6bcc2411b5cc0b9daca0bbf155462808a820",
    ),
    "delta": (
        "a54ccffbe9f741e3a37aa193d3145750b62ba8035cbf5560dec0d5d061e4e478",
        "98dbf66d74ba20358739b663e73aa0da75ae260ffcbad62180aa49ac6d191701",
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
        "07be464d735022afeabc37ce5aa57bf23e7201ddd7a4d9f6b4e87e568f4fc0ca",
    ),
    "extract_n3": (
        "02f85649cf52e7a825bafac1e938cc6fe9487189e7f4b362cb3a1df6d049241f",
        "afee30b4d56ac9a3fedc12b2fdbadbf57592d9921028c6ffdd998ae1267dfbe2",
    ),
    "rank_deficient_delta_n2": (
        "0ba94ed94551547b162884925eea81f8761407d4273eaa2222e66d134b94d01d",
        "4ce14d02bcb891cbabb9e2db5684a922e67e1f7e88806dda8f8604f7fd18db4e",
    ),
}

SUBSET_EXTRACT_DIGESTS = (
    "705a6333b1c2fe11782deb79f9aaeb1265cd7c2b3782759eb775eb2ec70167bb",
    "34053371bb5baeb4067d061464db7588e37ddebdd6f6db24c9a3ccba2b27098c",
)


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
