"""Command-line surface: artifacts, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import fockpr
from fockpr import cli, jsonio
from fockpr.pointset import IndexedPointSet

PI = repr(math.pi)


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def det3_set(tmp_path):
    path = tmp_path / "set.json"
    rc = run("generate", "--construction", "det3", "--alpha", PI,
             "--radius", 4, "--out", path)
    assert rc == 0
    return path


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(fockpr.__file__).resolve().parents[1])
    code = "import sys, fockpr.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- generate ----------------------------------------------------------------------


def test_generate_writes_a_loadable_set_and_csv(det3_set, tmp_path):
    csv_path = tmp_path / "set.csv"
    rc = run("generate", "--construction", "det3", "--alpha", PI,
             "--radius", 4, "--out", det3_set, "--csv", csv_path)
    assert rc == 0
    ps = IndexedPointSet.from_json(jsonio.load_path(det3_set))
    assert len(ps) == 147  # 49 lattice points in radius 4, three entries each
    assert set(ps.tags()) == {"A", "B", "C"}
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 148  # header + one row per entry
    assert rows[0].split(",")[:3] == ["m", "n", "tag"]


# sha256 of each output written with --seed 1 by the dict-per-entry code
# this package had before its point sets became columnar; the radii reach
# the regime where Gaussian budgets underflow and offsets collapse to +-0.0.
# opteven.json was re-pinned when its meta gained the triple_fold field,
# the only bytes that changed.
GOLDEN_GENERATE = {
    "rand3": (["--alpha", PI, "--radius", 12], {
        "rand3.json": "9319173b413fa7056f8729466a0a6539b1a8440fefff9daafdb97c8937170af5"}),
    "det3": (["--alpha", PI, "--radius", 12], {
        "det3.json": "3ed3e2620447960c275f6cf620314019b3ef0c6bda5125e7db6a169c3a12c7f3"}),
    "real2": (["--v", 0.5, "--radius", 11, "--csv", "real2.csv"], {
        "real2.json": "6782c6959f78376d4a434f1be74612fbd92ddb4de90359626bc7a876dcd8adfc",
        "real2.csv": "b122d5870d42ff1ef0808c8464e9f5ebea7ffc5d807c1a532aa3829c266dff30"}),
    "even1": (["--v", 0.5, "--radius", 11], {
        "even1.json": "d6bfdacb512afafa329aa38ee3b1036c8dfa7c527c17a5d55020558d46ec3af9"}),
    "optreal": (["--v", 0.45, "--radius", 11], {
        "optreal.json": "435df3dba1fc62a40bd30d42221ba8629ccea924149042cf168fa7a39e07221a"}),
    "opteven": (["--v", 0.45, "--radius", 11], {
        "opteven.json": "fdb336affa82a97ec436783d1bb695b087469bb7da2cbcdda79cb732f1f09ee7"}),
}


def test_generate_bytes_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got, want = {}, {}
    for construction, (args, digests) in GOLDEN_GENERATE.items():
        rc = run("generate", "--construction", construction, *args, "--seed", 1,
                 "--out", f"{construction}.json")
        assert rc == 0
        for name, digest in digests.items():
            got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            want[name] = digest
    assert got == want


def test_generate_is_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        rc = run("generate", "--construction", "rand3", "--v", 1.0,
                 "--radius", 3, "--seed", 11, "--out", path)
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_generate_seed_changes_random_output(tmp_path):
    outs = []
    for seed in (1, 2):
        path = tmp_path / f"s{seed}.json"
        assert run("generate", "--construction", "rand3", "--v", 1.0,
                   "--radius", 3, "--seed", seed, "--out", path) == 0
        outs.append(path.read_bytes())
    assert outs[0] != outs[1]


def test_generate_lines_artifact(tmp_path):
    path = tmp_path / "lines.json"
    rc = run("generate", "--construction", "lines", "--radius", 3,
             "--angles", "0,1.0,2.0", "--pitch", 0.5, "--v", 1.0, "--out", path)
    assert rc == 0
    data = jsonio.load_path(path)
    assert data["kind"] == "lines"
    assert len(data["points"]) == 6 * 6 + 1  # 2K+1 samples per line, shared origin


def test_generate_opteven_set(tmp_path):
    path = tmp_path / "even.json"
    rc = run("generate", "--construction", "opteven", "--v", 0.4,
             "--radius", 6, "--mode", "det", "--out", path)
    assert rc == 0
    ps = IndexedPointSet.from_json(jsonio.load_path(path))
    assert ps.meta.get("construction") == "opteven"


@pytest.mark.parametrize(
    "argv",
    [
        # both or neither of --alpha/--v
        ("generate", "--construction", "det3", "--radius", 3),
        ("generate", "--construction", "det3", "--alpha", PI, "--v", 1.0, "--radius", 3),
        # optreal needs --v, lines needs --angles
        ("generate", "--construction", "optreal", "--alpha", PI, "--radius", 3),
        ("generate", "--construction", "lines", "--v", 1.0, "--radius", 3),
        # explicit weight must dominate the closeness rate
        ("generate", "--construction", "det3", "--alpha", PI, "--radius", 3, "--gamma", 1.0),
    ],
)
def test_generate_usage_errors_exit_2(tmp_path, argv):
    assert run(*argv, "--out", tmp_path / "x.json") == 2


# every float flag, with the bad value in place of {}; SET is a stored det3 set
_FLOAT_FLAGS = {
    "generate --alpha": ("generate", "--construction", "det3", "--alpha={}", "--radius", 3),
    "generate --v": ("generate", "--construction", "det3", "--v={}", "--radius", 3),
    "generate --radius": ("generate", "--construction", "rand3", "--alpha", 3.14159,
                          "--radius={}"),
    "generate --gamma": ("generate", "--construction", "rand3", "--alpha", 3.14159,
                         "--radius", 2, "--gamma={}"),
    "generate --kappa": ("generate", "--construction", "det3", "--alpha", PI, "--radius", 3,
                         "--kappa={}"),
    "generate --pitch": ("generate", "--construction", "lines", "--angles", "0,1,2",
                         "--radius", 3, "--pitch={}"),
    "generate --angles": ("generate", "--construction", "lines", "--angles=1,{},2",
                          "--radius", 3),
    "certify --beta": ("certify", "--in", "SET", "--beta={}"),
    "certify --gamma": ("certify", "--in", "SET", "--beta", PI, "--gamma={}"),
    "injectivity --alpha": ("injectivity", "--dim", 2, "--subsets", 9, "--alpha={}"),
    "montecarlo --eps": ("montecarlo", "angles", "--trials", 100, "--eps={}"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", sorted(_FLOAT_FLAGS))
def test_non_finite_float_flags_exit_2_and_write_nothing(flag, value, det3_set, tmp_path):
    out = tmp_path / "out.json"
    argv = [str(a).replace("{}", value) for a in _FLOAT_FLAGS[flag]]
    argv = [str(det3_set) if a == "SET" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", out)
    assert exc.value.code == 2
    assert not out.exists()


# -- certify -----------------------------------------------------------------------


def test_certify_passes_and_reports(det3_set, tmp_path):
    report_path = tmp_path / "report.json"
    rc = run("certify", "--in", det3_set, "--beta", PI, "--out", report_path)
    assert rc == 0
    report = jsonio.load_path(report_path)
    assert report["passed"] is True
    assert report["kappa"] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < report["sup_ratio"] < 0.5
    assert report["density"] == pytest.approx(3.0, rel=0.15)
    assert set(report["closeness"]) == {"A", "B", "C"}
    assert report["angle"]["passed"] is True


def test_certify_fails_under_stricter_rate(det3_set, tmp_path):
    rc = run("certify", "--in", det3_set, "--beta", PI, "--gamma", 50,
             "--out", tmp_path / "report.json")
    assert rc == 1
    assert jsonio.load_path(tmp_path / "report.json")["passed"] is False


def test_certify_rejects_plain_point_files(tmp_path):
    lines = tmp_path / "lines.json"
    assert run("generate", "--construction", "lines", "--radius", 2, "--v", 1.0,
               "--angles", "0,1,2", "--out", lines) == 0
    assert run("certify", "--in", lines, "--beta", PI,
               "--out", tmp_path / "r.json") == 2


def test_certify_leaves_scipy_unloaded(det3_set, tmp_path):
    # certify and render run on numpy alone
    src = str(Path(fockpr.__file__).resolve().parents[1])
    code = (
        "import sys; from fockpr import cli; "
        "rc = cli.main(['certify', '--in', sys.argv[1], '--beta', '3.0', '--out', sys.argv[2]]); "
        "rc = rc or cli.main(['render', '--in', sys.argv[1], '--mesh', '--out', sys.argv[3]]); "
        "sys.exit(rc or 3 * ('scipy' in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", code, det3_set, tmp_path / "r.json", tmp_path / "r.svg"]
    assert subprocess.run([str(a) for a in argv], env=env).returncode == 0
    assert jsonio.load_path(tmp_path / "r.json")["separation_report"]["count"] == 147


def test_certify_opteven_at_bench_size(tmp_path):
    # opteven keys its B and C samples at images of the frame point; the
    # set's triple_fold metadata lets certify regroup each triple there
    path = tmp_path / "opteven.json"
    assert run("generate", "--construction", "opteven", "--v", 0.45, "--radius", 30,
               "--seed", 1, "--out", path) == 0
    assert run("certify", "--in", path, "--beta", "12.566", "--out", tmp_path / "r.json") == 0
    report = jsonio.load_path(tmp_path / "r.json")
    assert report["passed"] is True
    assert report["angle"]["count"] == 3493
    assert report["sup_ratio"] == pytest.approx(1.3994, abs=1e-4)


def test_certify_missing_input_exits_2(tmp_path):
    assert run("certify", "--in", tmp_path / "absent.json", "--beta", PI,
               "--out", tmp_path / "r.json") == 2


# sha256 of the certify report of each set of GOLDEN_GENERATE, written with
# --seed 1 by the code that read a set with json.loads and one dict per record
GOLDEN_CERTIFY = {
    "rand3": "51365413e2a63cb5226567975c6ac77863976f74f806b303a03e4ba3de00b5b0",
    "det3": "228e7dcd954a7502f5c4b5da6ff7ccefc70450e23438afc7d20f0d658354541a",
    "real2": "a523698d888bc5a0dbd8fbfec2031bee256acc4c19762a9999c26aba1a2d8648",
    "even1": "5c5b45da2f2521f4917bfdce1c60afd3a395ff37391f1032c46e06d0e18469c4",
    "optreal": "eb04518d22af750f5752b51358be68a049dd4fc1cba33ee7ea0e5df0f91d4b44",
    "opteven": "555b907a932ae714f0e821af8bedec0ed96593b429e73f5388d9b19d007eeefd",
}


def test_certify_bytes_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {}
    for construction in GOLDEN_CERTIFY:
        args = GOLDEN_GENERATE[construction][0]
        assert run("generate", "--construction", construction, *args, "--seed", 1,
                   "--out", f"{construction}.json") == 0
        assert run("certify", "--in", f"{construction}.json", "--beta", "12.566",
                   "--seed", 1, "--out", f"certify_{construction}.json") == 0
        report = (tmp_path / f"certify_{construction}.json").read_bytes()
        got[construction] = hashlib.sha256(report).hexdigest()
    assert got == GOLDEN_CERTIFY


# sha256 of the montecarlo artifact of each variant, --trials 20000 --eps 0.05
# --seed 1, written when McReport listed its fields in a hand-written to_json
GOLDEN_MONTECARLO = {
    "angles": "91b08c0e5927cc4987bc73f3f0ecbd90ce6979c7c2a174139082e3dcecf84c47",
    "mirror": "f43d1a3de070aa6828a1f918459ef1a74b2930ab3920d00f0d217c282584d25a",
}


def test_montecarlo_bytes_match_pinned_digests(tmp_path):
    got = {}
    for variant in GOLDEN_MONTECARLO:
        out = tmp_path / f"mc_{variant}.json"
        assert run("montecarlo", variant, "--trials", 20000, "--eps", 0.05,
                   "--seed", 1, "--out", out) == 0
        got[variant] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_MONTECARLO


@pytest.mark.parametrize("command", ["certify", "render"])
def test_a_point_record_without_pos_exits_2_and_names_it(det3_set, tmp_path, capsys, command):
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    del doc["points"][5]["pos"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    extra = ["--beta", PI] if command == "certify" else []
    assert run(command, "--in", path, *extra, "--out", tmp_path / "out") == 2
    assert "point record 5 lacks the field 'pos'" in capsys.readouterr().err


def test_a_fractional_index_exits_2_and_names_it(det3_set, tmp_path, capsys):
    # a cast to int64 alone would load [0.7, 0] as index (0, 0)
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    doc["points"][3]["index"] = [0.7, 0]
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    assert run("certify", "--in", path, "--beta", PI, "--out", tmp_path / "r.json") == 2
    assert "point record 3: field 'index' must hold integers" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_a_nan_position_exits_2_and_names_it(det3_set, tmp_path, capsys):
    # unchecked, a NaN position renders as cx="nan"
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    doc["points"][4]["pos"] = [math.nan, 0.1]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    assert run("render", "--in", path, "--out", tmp_path / "p.svg") == 2
    assert "point record 4: field 'pos' must hold finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("flag", ["--in", "--out"])
def test_a_directory_for_a_file_exits_2(det3_set, tmp_path, capsys, flag):
    paths = {"--in": det3_set, "--out": tmp_path / "r.json", flag: tmp_path}
    assert run("certify", "--in", paths["--in"], "--beta", PI, "--out", paths["--out"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    if flag == "--out":
        assert run("generate", "--construction", "det3", "--alpha", PI, "--radius", 2,
                   "--out", tmp_path) == 2


# -- verify ------------------------------------------------------------------------


@pytest.mark.parametrize("module", ["fock", "phaseless"])
def test_verify_suites_pass(module, tmp_path, capsys):
    out = tmp_path / "checks.json"
    rc = run("verify", module, "--out", out)
    assert rc == 0
    data = jsonio.load_path(out)
    assert data["module"] == module
    assert data["passed"] is True
    assert len(data["checks"]) >= 6
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == len(data["checks"])


# -- injectivity -------------------------------------------------------------------


def test_injectivity_pinned_instance(tmp_path):
    out = tmp_path / "inj.json"
    rc = run("injectivity", "--dim", 2, "--subsets", "9,12", "--out", out)
    assert rc == 0
    data = jsonio.load_path(out)
    assert data["source"] == "pinned-rand3"
    assert data["total_points"] == 63
    assert [row["kernel_dim"] for row in data["subsets"]] == [0, 0]
    assert all(row["match"] for row in data["subsets"])


def test_injectivity_reports_witness_when_underdetermined(tmp_path):
    out = tmp_path / "inj.json"
    rc = run("injectivity", "--dim", 2, "--subsets", "5", "--out", out)
    assert rc == 0  # kernel dim 4 = 9 - 5 matches the counting expectation
    row = jsonio.load_path(out)["subsets"][0]
    assert row["kernel_dim"] == 4
    assert "witness" in row and len(row["witness"]) == 2
    # each side is the coefficient list of one polynomial, as [re, im] pairs
    for side in row["witness"]:
        assert len(side) == 3
        assert all(len(c) == 2 and all(type(x) is float for x in c) for c in side)


def test_injectivity_on_stored_set(det3_set, tmp_path):
    out = tmp_path / "inj.json"
    rc = run("injectivity", "--in", det3_set, "--dim", 1, "--out", out)
    assert rc == 0
    data = jsonio.load_path(out)
    assert data["subsets"][0]["points"] == 147
    assert data["subsets"][0]["kernel_dim"] == 0


def test_injectivity_bad_subsets_exit_2(tmp_path):
    assert run("injectivity", "--subsets", "0", "--out", tmp_path / "x.json") == 2
    assert run("injectivity", "--subsets", "99", "--out", tmp_path / "x.json") == 2


@pytest.mark.parametrize("dim", [0, 2])
@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_injectivity_non_positive_alpha_exits_2_and_names_it(tmp_path, capsys, alpha, dim):
    out = tmp_path / "x.json"
    assert run("injectivity", f"--alpha={alpha}", "--dim", dim, "--subsets", 5, "--out", out) == 2
    assert "alpha must be positive" in capsys.readouterr().err
    assert not out.exists()


# -- montecarlo --------------------------------------------------------------------


def test_montecarlo_angles_artifact_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = run("montecarlo", "angles", "--trials", 20000, "--eps", 0.05,
                 "--seed", 3, "--out", out)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    data = jsonio.load_path(a)
    assert data["trials"] == 20000
    assert data["passed"] is True
    assert data["p_hat"] + 3.0 * data["stderr"] <= data["bound"]


def test_montecarlo_mirror_variant(tmp_path):
    out = tmp_path / "m.json"
    assert run("montecarlo", "mirror", "--trials", 20000, "--eps", 0.05,
               "--seed", 1, "--out", out) == 0
    assert jsonio.load_path(out)["passed"] is True


# -- render ------------------------------------------------------------------------


def test_render_stored_set_default_path(det3_set):
    rc = run("render", "--in", det3_set, "--mesh", "--title", "triples")
    assert rc == 0
    svg = det3_set.with_suffix(".svg")
    text = svg.read_text(encoding="ascii")
    assert text.startswith("<svg ")
    assert ">triples</text>" in text
    assert text.count('stroke="#dddddd"') > 10


def test_render_lines_artifact_array_route(tmp_path):
    lines = tmp_path / "lines.json"
    assert run("generate", "--construction", "lines", "--radius", 2, "--v", 1.0,
               "--angles", "0,1,2", "--pitch", 0.5, "--out", lines) == 0
    out = tmp_path / "pic.svg"
    assert run("render", "--in", lines, "--out", out) == 0
    assert out.read_text(encoding="ascii").count("<circle") == (6 * 4 + 1) + 1


# sha256 of each SVG written by the per-point render loops this package had
# before it formatted coordinates in bulk, for sets generated with --seed 1
GOLDEN_RENDER = {
    "rand3": (["--construction", "rand3", "--alpha", PI, "--radius", 4], ["--mesh"],
              "4dde9a588ebf5a27f2ba34282133a5ac81a31d60ccbc406603bbfb2b8bc0a06b"),
    "opteven": (["--construction", "opteven", "--v", 0.45, "--radius", 6], ["--mesh"],
                "b8cd0f888ce7a7071a5053b35837bf2bea8cb0a81f298d65226df0b8c7eda02c"),
    "optreal": (["--construction", "optreal", "--v", 0.45, "--radius", 6], ["--mesh"],
                "ab598ebdb35fd8c21af948bc116911d33440ff6665e6d7ec6c7176d65fbb35e8"),
    "lines": (["--construction", "lines", "--angles", "0,1,2", "--pitch", 0.1,
               "--radius", 3], [],
              "c1d6675aff8dbc015780a9669409055b1e9bc2aced5c0e246b7d621739e4cac6"),
}


def test_render_bytes_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got, want = {}, {}
    for name, (generate_args, render_args, digest) in GOLDEN_RENDER.items():
        assert run("generate", *generate_args, "--seed", 1, "--out", f"{name}.json") == 0
        assert run("render", "--in", f"{name}.json", *render_args, "--out", f"{name}.svg") == 0
        got[name] = hashlib.sha256((tmp_path / f"{name}.svg").read_bytes()).hexdigest()
        want[name] = digest
    assert got == want


@pytest.mark.parametrize("points", [[[0.0, 1.0], [2.0]], [[0.0, 1.0, 2.0]], [1.0, 2.0]])
def test_render_rejects_point_records_that_are_not_pairs(tmp_path, points):
    path = tmp_path / "pts.json"
    jsonio.dump_path({"points": points}, path)
    assert run("render", "--in", path, "--out", tmp_path / "p.svg") == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_rejects_plain_points_that_are_not_finite(tmp_path, capsys, bad):
    path = tmp_path / "pts.json"
    jsonio.dump_path({"points": [[0.0, 1.0], [2.0, 3.0], [1.0, bad]]}, path)
    assert run("render", "--in", path, "--out", tmp_path / "p.svg") == 2
    assert "point record 2: field 'points' must hold finite numbers" in capsys.readouterr().err


def test_render_escapes_the_title(det3_set, tmp_path):
    out = tmp_path / "titled.svg"
    assert run("render", "--in", det3_set, "--title", "A<B & C", "--out", out) == 0
    root = ElementTree.parse(out).getroot()
    assert "A<B & C" in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


def test_render_missing_input_exits_2(tmp_path):
    assert run("render", "--in", tmp_path / "absent.json") == 2
