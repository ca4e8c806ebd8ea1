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
from fockpr.phaseless import lifted_rows
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


def test_cli_import_leaves_dataclasses_csv_and_numpy_polynomial_unloaded():
    # records are NamedTuples; csv and numpy.polynomial load where they are used
    src = str(Path(fockpr.__file__).resolve().parents[1])
    code = (
        "import sys, fockpr.cli; "
        "print(' '.join(m for m in ('dataclasses', 'csv', 'numpy.polynomial') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


def test_generate_certify_and_render_leave_numpy_random_unloaded(tmp_path):
    # the set constructions draw from fockpr.rng's keyed streams, not numpy.random
    src = str(Path(fockpr.__file__).resolve().parents[1])
    code = (
        "import sys; from fockpr import cli; s, c, r, svg = sys.argv[1:]; "
        f"rc = cli.main(['generate', '--construction', 'rand3', '--alpha', '{PI}', "
        "'--radius', '4', '--out', s, '--csv', c]); "
        "rc = rc or cli.main(['certify', '--in', s, '--beta', '3.0', '--out', r]); "
        "rc = rc or cli.main(['render', '--in', s, '--mesh', '--out', svg]); "
        "sys.exit(rc or 3 * ('numpy.random' in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    names = ("set.json", "set.csv", "r.json", "r.svg")
    argv = [sys.executable, "-c", code, *(str(tmp_path / n) for n in names)]
    assert subprocess.run(argv, env=env).returncode == 0
    assert all((tmp_path / n).stat().st_size for n in names)


# -- program entry -------------------------------------------------------------------


def _child(entry: list[str], *argv) -> subprocess.CompletedProcess:
    """``python`` run on ``entry`` (``-m`` or ``-c`` and its operand) and ``argv``."""
    src = str(Path(fockpr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *entry, *map(str, argv)], env=env,
                          capture_output=True, text=True)


# the three ways in: ``python -m fockpr``, ``python -m fockpr.cli`` and the
# console script, which calls ``fockpr.cli.run``
ENTRIES = [["-m", "fockpr"], ["-m", "fockpr.cli"], ["-c", "from fockpr.cli import run; run()"]]


@pytest.mark.parametrize("entry", ENTRIES, ids=["package", "module", "script"])
def test_every_entry_exits_with_mains_code(entry, tmp_path):
    ok = _child(entry, "generate", "--construction", "det3", "--alpha", PI, "--radius", 4,
                "--out", tmp_path / "set.json")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith(f"wrote {tmp_path / 'set.json'}: construction 'det3'")
    bad = _child(entry, "certify", "--in", tmp_path / "absent.json", "--beta", 3.0,
                 "--out", tmp_path / "r.json")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")


def test_the_program_entry_freezes_the_heap_only_after_main(tmp_path):
    # main() called in a process that lives on keeps its heap collectable;
    # python -m fockpr freezes it before the shutdown collections run
    code = (
        "import atexit, gc, runpy, sys; from fockpr import cli; "
        "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0)); "
        "sys.argv[1:] = ['montecarlo', 'angles', '--trials', '200', '--eps', '0.1', "
        "'--out', sys.argv[1]]; "
        "print('after main', cli.main(sys.argv[1:]), gc.get_freeze_count()); "
        "runpy.run_module('fockpr', run_name='__main__')"
    )
    child = _child(["-c", code], tmp_path / "mc.json")
    assert child.returncode == 0, child.stderr
    probes = [line for line in child.stdout.splitlines() if not line.startswith("wrote ")]
    assert probes == ["after main 0 0", "at exit True"]


def test_the_console_script_is_the_program_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"fockpr": "fockpr.cli:run"}


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
# the only bytes that changed.  real2 (json and csv), even1 and opteven were
# re-pinned when a set came to store the unit offset alone and derive
# delta = s(home) * unit and pos = home + delta from it: their mirrored
# samples had been written as conj(s * u) and -(s * u), and where the
# product underflows the zeros now carry the sign of s * conj(u) and
# s * (-u) (equal values, opposite signed zeros); opteven's budget is now
# taken at the sample's own home, not at the frame point before the fold,
# so 456 of its deltas move in the last bit.  All six json files were
# re-pinned when delta came to be formed without numpy's SIMD loops (budgets
# by math.exp per element, delta from the real and imaginary part of unit
# apart), so the bytes no longer depend on the CPU's SIMD level: pos and
# unit keep their bits (but 9 positions of optreal), while deltas move in
# the last bit or in the sign of a zero.  Old -> new, first 12 hex digits:
# rand3 9319173b413f -> 3189db05f839, det3 3ed3e2620447 -> ea9ca3c72b05,
# real2 4b4c70c62265 -> 4bc5953b136e, even1 730ca2c26ab4 -> 77f233f3be3e,
# optreal 435df3dba1fc -> 4f11e989a49a, opteven 22153d8f8295 -> 97ffa2572774;
# real2.csv kept its digest.  All eight json files were re-pinned when a
# set's points became five columns (m, n, tag, unit_re, unit_im) in place
# of one record per sample; decoding the old and the new file of each gave
# the same m, n, tag and unit bits on every row.  Old -> new: rand3
# 3189db05f839 -> 660ff8cd75dd, det3 ea9ca3c72b05 -> 32653cf8c5b0, real2
# 4bc5953b136e -> 2b6dde39a851, even1 77f233f3be3e -> 45398be03944, optreal
# 4f11e989a49a -> 97d29b68be7e, opteven 97ffa2572774 -> a9a42271e131,
# optreal_det f6c60c3484af -> 3a03731916b5, opteven_det 27d4a47c6ed5 ->
# f70416fb6028; real2.csv kept its digest again.
GOLDEN_GENERATE = {
    "rand3": (["--construction", "rand3", "--alpha", PI, "--radius", 12], {
        "rand3.json": "660ff8cd75dd4391229816f089aa3ffff9b6fed93e96cf27eeff0642d7a1a9db"}),
    "det3": (["--construction", "det3", "--alpha", PI, "--radius", 12], {
        "det3.json": "32653cf8c5b03d5a256396ffcf84e2946745ab96326d0af5d0e68d35a3bd6f2e"}),
    "real2": (["--construction", "real2", "--v", 0.5, "--radius", 11, "--csv", "real2.csv"], {
        "real2.json": "2b6dde39a85107181d6ffed3b89fa9f6bc91c2a0763548e43f31ebc89deb8df3",
        "real2.csv": "7ba778c28ed3782e03c234747e4c1e69797a60d54d8bebd188d8075330c8685e"}),
    "even1": (["--construction", "even1", "--v", 0.5, "--radius", 11], {
        "even1.json": "45398be0394448ac0a40a959c10d1b27abd40e46105c0cc18ff68153140f6375"}),
    "optreal": (["--construction", "optreal", "--v", 0.45, "--radius", 11], {
        "optreal.json": "97d29b68be7ec2c2afee904df0c3fc66976cf3fe5540fdc3a6095a21e24cced8"}),
    "opteven": (["--construction", "opteven", "--v", 0.45, "--radius", 11], {
        "opteven.json": "a9a42271e13166273fa8af0a4af743c830a085b397e2441345f5b135316520c3"}),
    # first pinned when the fold maps of opteven came to be read from one table
    "optreal_det": (["--construction", "optreal", "--v", 0.45, "--radius", 11, "--mode", "det"], {
        "optreal_det.json": "3a03731916b5ef906ff1fdb82179ffccd3c9c4001838df864a84caad14739b70"}),
    "opteven_det": (["--construction", "opteven", "--v", 0.45, "--radius", 11, "--mode", "det"], {
        "opteven_det.json": "f70416fb602816dfe7d1106e2d3bcd8f2089d4b72dbba0507a837c339b59a1a0"}),
}


def test_generate_bytes_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got, want = {}, {}
    for name, (args, digests) in GOLDEN_GENERATE.items():
        rc = run("generate", *args, "--seed", 1, "--out", f"{name}.json")
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
             "--angles", "0,1.0,2.0", "--pitch", 0.5, "--out", path)
    assert rc == 0
    data = jsonio.load_path(path)
    assert {key: data[key] for key in ("kind", "angles", "pitch", "radius")} == {
        "kind": "lines", "angles": [0.0, 1.0, 2.0], "pitch": 0.5, "radius": 3.0
    }
    # two columns of 2K+1 samples per line, with a shared origin
    assert {key: len(col) for key, col in data["points"].items()} == {"re": 37, "im": 37}


def test_generate_lines_with_csv_exits_2_and_writes_nothing(tmp_path, capsys):
    out, csv_path = tmp_path / "lines.json", tmp_path / "lines.csv"
    assert run("generate", "--construction", "lines", "--radius", 3, "--angles", "0,1,2",
               "--out", out, "--csv", csv_path) == 2
    assert "--csv" in capsys.readouterr().err
    assert not out.exists() and not csv_path.exists()


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
        ("generate", "--construction", "optreal", "--radius", 3),
        ("generate", "--construction", "lines", "--radius", 3),
        # explicit weight must dominate the closeness rate
        ("generate", "--construction", "det3", "--alpha", PI, "--radius", 3, "--gamma", 1.0),
        # a window that holds no sample
        ("generate", "--construction", "even1", "--v", 0.5, "--radius", 0.3),
        ("generate", "--construction", "optreal", "--v", 0.45, "--radius", 0.1),
        ("generate", "--construction", "opteven", "--v", 0.45, "--radius", 0.1),
    ],
)
def test_generate_usage_errors_exit_2(tmp_path, argv):
    out = tmp_path / "x.json"
    assert run(*argv, "--out", out) == 2
    assert not out.exists()


_CONSTRUCTION_ARGS = {
    "lines": ("--angles", "0,1,2", "--radius", 3),
    "det3": ("--alpha", PI, "--radius", 3),
    "rand3": ("--alpha", PI, "--radius", 3),
    "real2": ("--v", 0.5, "--radius", 3),
    "even1": ("--v", 0.5, "--radius", 3),
    "optreal": ("--v", 0.45, "--radius", 3),
    "opteven": ("--v", 0.45, "--radius", 3),
}


@pytest.mark.parametrize(
    "construction, flag",
    [
        ("lines", ("--alpha", PI)),
        ("lines", ("--v", 1.0)),
        ("lines", ("--gamma", 8.0)),
        ("lines", ("--kappa", 0.5)),
        ("lines", ("--mode", "det")),
        ("lines", ("--csv", "x.csv")),
        ("optreal", ("--alpha", PI)),
        ("opteven", ("--alpha", PI)),
        ("optreal", ("--angles", "0,1,2")),
        ("opteven", ("--pitch", 0.5)),
        ("det3", ("--mode", "random")),
        ("rand3", ("--mode", "det")),
        ("real2", ("--angles", "0,1,2")),
        ("even1", ("--pitch", 0.1)),
    ],
)
def test_generate_rejects_a_flag_its_construction_ignores(construction, flag, tmp_path, capsys):
    # the construction's own flags are accepted, and --seed by every construction
    out = tmp_path / "x.json"
    argv = ("generate", "--construction", construction, *_CONSTRUCTION_ARGS[construction])
    assert run(*argv, "--seed", 3, "--out", out) == 0
    out.unlink()
    assert run(*argv, *flag, "--out", out) == 2
    assert f"does not use {flag[0]}" in capsys.readouterr().err
    assert not out.exists()



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


# each subcommand that takes --seed, with the rest of a command line that runs
_SEEDED = {
    "generate": ("generate", "--construction", "rand3", "--alpha", PI, "--radius", 2),
    "certify": ("certify", "--in", "SET", "--beta", PI),
    "verify": ("verify", "fock"),
    "injectivity": ("injectivity", "--dim", 2, "--subsets", 9),
    "montecarlo": ("montecarlo", "angles", "--trials", 100, "--eps", 0.1),
}


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", sorted(_SEEDED))
def test_seeds_outside_64_bits_exit_2_naming_the_flag(command, seed, det3_set, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [det3_set if a == "SET" else a for a in _SEEDED[command]]
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--seed", seed, "--out", out)
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv, "--seed", 2**64 - 1, "--out", out) == 0


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
    assert run("generate", "--construction", "lines", "--radius", 2,
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
# --seed 1 by the code that read a set with json.loads and one dict per record.
# Re-pinned when separation came to measure pairs of one home from the unit
# offsets: every report gained log10_delta (top level and separation_report),
# and the separation pair became the pair that attains it, where positions
# collapse: rand3 (-12, -12) -> (12j, 12j) at log10_delta -438.114, real2
# (-11, -11) -> (11, 11) at -368.177, optreal (-8.1+7.425j, twice) ->
# (-9.45-5.625j, twice) at -367.924.  det3 (-437.530), even1 (-0.464) and
# opteven (-0.374) keep their pair; delta, passed and every other field stay.
# Re-pinned when triangle angles came to be taken with math.atan2 from real
# parts: theta_min moves in the 14th digit (rand3, real2, even1, optreal,
# opteven) and sup_ratio in its last two digits (real2, optreal, opteven).
# Old -> new, first 12 hex digits: rand3 0c316b0e8881 -> 94f2871a720a,
# real2 c3cc930d756c -> 30433c35da18, even1 cc68a7333bd8 -> d7df6853af2f,
# optreal afdc16622e28 -> bcc165b3fa28, opteven 21dd5ab44506 -> 91283c6fd3fc;
# det3 kept its digest.
GOLDEN_CERTIFY = {
    "rand3": "94f2871a720a71b7a8b5d9ef69837e0147b19933b47c54366d223667bd4ce2f0",
    "det3": "b3c1830654f3d30e345181eccb44bfe3fa95251e90c4a89aa01cb4fd6a646a08",
    "real2": "30433c35da1802d8fd97641d63273202e95af08ba7cec8baccbb523269c2917c",
    "even1": "d7df6853af2f70275e5abd0389553b1f541b2ff84ae2b95d9f56df7c2b1d160a",
    "optreal": "bcc165b3fa282b8752bf07270fac94cfe0e95e31ae813ede52ee0d4a31bbdfc0",
    "opteven": "91283c6fd3fc8d450c85f690da7eef4b1cf7f2bcfe602438d8b0a6d45d2f776c",
}


def test_certify_bytes_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {}
    for construction in GOLDEN_CERTIFY:
        args = GOLDEN_GENERATE[construction][0]
        assert run("generate", *args, "--seed", 1,
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


_READERS = (("certify", ["--beta", PI]), ("injectivity", []), ("render", []))


def test_a_per_record_set_file_exits_2_and_names_it(det3_set, tmp_path, capsys):
    # the layout of older files: one record per sample, with its derived pos
    # and delta; it is not read, so the set must be generated anew
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    cols = doc["points"]
    doc["points"] = [
        {"index": [m, n], "tag": tag, "pos": [0.0, 0.0], "delta": [0.0, 0.0], "unit": [re, im]}
        for m, n, tag, re, im in zip(cols["m"], cols["n"], cols["tag"], cols["unit_re"],
                                     cols["unit_im"])
    ]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    for command, extra in _READERS:
        out = tmp_path / "out"
        assert run(command, "--in", path, *extra, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: field 'points' holds per-record samples; regenerate the set" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "render"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.pop("unit_re"), "field 'points' lacks the column 'unit_re'"),
        (lambda p: p["tag"].pop(), "point row 146: column 'tag' lacks it, while column 'm' has 147"),
    ],
    ids=["missing", "short"],
)
def test_a_missing_or_short_point_column_exits_2_and_names_it(
    det3_set, tmp_path, capsys, command, edit, message
):
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    edit(doc["points"])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    extra = ["--beta", PI] if command == "certify" else []
    assert run(command, "--in", path, *extra, "--out", tmp_path / "out") == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["gamma", "kappa_cap"])
def test_a_set_with_half_a_budget_exits_2(det3_set, tmp_path, capsys, key):
    # unit offsets mean nothing without both halves of the budget
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    del doc["meta"][key]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    out = tmp_path / "r.json"
    assert run("certify", "--in", path, "--beta", PI, "--gamma", 7.0, "--out", out) == 2
    kept = "kappa_cap" if key == "gamma" else "gamma"
    assert f"gives '{kept}' alone" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "keys, value",
    [
        (("window_radius",), [1]),
        (("window_radius",), None),
        (("window_radius",), math.nan),
        (("window_radius",), -2.0),
        (("lattice",), [[1.0, 0.0], [0.0, 1.0]]),
        (("lattice", "omega1"), [1.0]),
        (("lattice", "omega1"), ["1", "0"]),
        (("lattice", "shift"), [0.0, math.inf]),
        (("meta",), []),
        (("meta", "gamma"), "x"),
        (("meta", "gamma"), math.inf),
        (("meta", "kappa_cap"), -1),
        (("meta", "kappa_cap"), 1.5),
        (("meta", "sample_tags"), 5),
        (("meta", "sample_tags"), "AB"),
        (("meta", "sample_tags"), ["A", "A"]),
        (("meta", "sample_tags"), []),
        (("meta", "sample_tags"), ["Z"]),
        (("meta", "triple_fold"), [1]),
        (("meta", "triple_fold"), {"A": "rotate"}),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
)
def test_a_bad_set_header_exits_2_and_names_the_field(det3_set, tmp_path, capsys, keys, value):
    # each once raised a TypeError or IndexError, or ran on a meaningless number
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    for command, extra in _READERS:
        out = tmp_path / "out"
        assert run(command, "--in", path, *extra, "--out", out) == 2
        assert keys[-1] in capsys.readouterr().err
        assert not out.exists()


def test_a_fractional_index_exits_2_and_names_it(det3_set, tmp_path, capsys):
    # a cast to int64 alone would load [0.7, 0] as index (0, 0)
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    doc["points"]["m"][3] = 0.7
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    assert run("certify", "--in", path, "--beta", PI, "--out", tmp_path / "r.json") == 2
    assert "point row 3: column 'm' must hold integers, got 0.7" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_a_tag_that_ends_in_nul_exits_2_and_names_it(det3_set, tmp_path, capsys):
    # a numpy str column would drop the NUL and read the tag as 'B'
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    doc["points"]["tag"][5] = "B\u0000"
    path = tmp_path / "nul.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    assert run("certify", "--in", path, "--beta", PI, "--out", tmp_path / "r.json") == 2
    message = "point row 5: column 'tag' must hold strings that do not end in NUL, got 'B\\x00'"
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_a_nan_position_exits_2_and_names_it(det3_set, tmp_path, capsys):
    # unchecked, a NaN unit offset gives a NaN position, which renders as cx="nan"
    doc = json.loads(det3_set.read_text(encoding="ascii"))
    doc["points"]["unit_re"][4] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    assert run("render", "--in", path, "--out", tmp_path / "p.svg") == 2
    err = capsys.readouterr().err
    assert "point row 4: column 'unit_re' must hold finite numbers, got nan" in err
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("flag", ["--in", "--out"])
def test_a_directory_for_a_file_exits_2(det3_set, tmp_path, capsys, flag):
    paths = {"--in": det3_set, "--out": tmp_path / "r.json", flag: tmp_path}
    assert run("certify", "--in", paths["--in"], "--beta", PI, "--out", paths["--out"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    if flag == "--out":
        assert run("generate", "--construction", "det3", "--alpha", PI, "--radius", 2,
                   "--out", tmp_path) == 2


@pytest.mark.parametrize(
    "command",
    [("certify", "--gamma", 7, "--beta", 12.566), ("injectivity", "--dim", 2), ("render",)],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize(
    "doc",
    [{"lattice": {"omega1": [1, 0], "omega2": [0, 1]}, "window_radius": 3,
      "points": {"m": [], "n": [], "tag": [], "unit_re": [], "unit_im": []}},
     {"points": {"re": [], "im": []}}],
    ids=["set", "plain"],
)
def test_a_file_without_samples_exits_2_and_names_it(tmp_path, capsys, command, doc):
    # a set may be empty in memory; the commands that read one need a sample
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    out = tmp_path / "out"
    assert run(command[0], "--in", path, *command[1:], "--out", out) == 2
    assert f"error: {path}: field 'points' holds no samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [("certify", "--gamma", 7, "--beta", 12.566), ("injectivity", "--dim", 2), ("render",)],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("field", ["points", "window_radius"])
def test_a_set_file_without_a_field_exits_2_and_names_it(tmp_path, capsys, command, field):
    doc = {"lattice": {"omega1": [1, 0], "omega2": [0, 1]}, "window_radius": 3,
           "points": {"m": [0], "n": [0], "tag": ["A"], "unit_re": [0.0], "unit_im": [0.0]}}
    del doc[field]
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    out = tmp_path / "out"
    assert run(command[0], "--in", path, *command[1:], "--out", out) == 2
    assert f"error: {path}: field '{field}' is missing" in capsys.readouterr().err
    assert not out.exists()


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


# sha256 of each verify artifact written with --seed 1 by the code that found
# the Rolle point by a grid search and looked node samples up by their value;
# "special" since the critical quotient takes its closed form at the removed
# zeros, where its value at 0 is exactly -1; "phaseless" since the lifted
# rows are scaled to unit norm in place of the weight exp(-alpha|u|^2), which
# moves the sigma_min of the 63-point check from 0.390 to 0.744
GOLDEN_VERIFY = {
    "fock": "3a93a95de7b858e423d73098be883424647a6c208e832de7eb008313ccd68cd9",
    "special": "fdcddbc00eac54331d9bc1e228d2ab2866d8ea7c1b3745737422b24e70bb4c11",
    "gabor": "2a2210a2532793abecf3b1151f2c5189d7ea29650541ec111fd32320fbdd6047",
    "phaseless": "dc7f95c9e6ac890707df8c5624c268029cf90a6ca35ea1b9cd6abb6952dd3f85",
}


def test_verify_bytes_match_pinned_digests(tmp_path):
    got = {}
    for module in GOLDEN_VERIFY:
        out = tmp_path / f"verify_{module}.json"
        assert run("verify", module, "--seed", 1, "--out", out) == 0
        got[module] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_VERIFY


# -- injectivity -------------------------------------------------------------------


# sha256 of the injectivity artifacts of the pinned scattered-triple
# instance, written with --seed 1.  Re-pinned when the lifted rows were
# scaled to unit norm in place of the weight exp(-alpha|u|^2): every subset
# keeps its kernel_dim and match, and the singular values move (sigma_min
# rises 2.5 to 184 times)
GOLDEN_INJECTIVITY = {
    ("--dim", "6"): "b15bf3df319b75fcd7fc3dd3a84cec472717d96551091d829ad5bd44840b4da1",
    ("--dim", "8", "--subsets", "30,45,60,63"):
        "7eedf6be2d0a1867d0f829aa46fe6c01fa24658e2b1dbe4e0af92a64c2483f56",
}


def test_injectivity_bytes_match_pinned_digests(tmp_path):
    got = {}
    for args in GOLDEN_INJECTIVITY:
        out = tmp_path / "inj.json"
        assert run("injectivity", *args, "--seed", 1, "--out", out) == 0
        got[args] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_INJECTIVITY


def test_injectivity_pinned_instance(tmp_path):
    out = tmp_path / "inj.json"
    rc = run("injectivity", "--dim", 2, "--subsets", "9,12", "--out", out)
    assert rc == 0
    data = jsonio.load_path(out)
    assert data["source"] == "pinned-rand3"
    assert data["total_points"] == 63
    assert [row["kernel_dim"] for row in data["subsets"]] == [0, 0]
    assert all(row["match"] for row in data["subsets"])


def test_injectivity_reports_witness_when_underdetermined(tmp_path, capsys):
    out = tmp_path / "inj.json"
    rc = run("injectivity", "--dim", 2, "--subsets", "5,8", "--out", out)
    assert rc == 0  # kernel dim 4 = 9 - 5 matches the counting expectation
    # M = 8 reaches 4d - 4 with its generic kernel of 1: no search
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("M=5:") and lines[0].endswith("witness_search=run")
    assert lines[1].startswith("M=8:") and lines[1].endswith("witness_search=skipped")
    row, generic = jsonio.load_path(out)["subsets"]
    assert "witness" not in generic
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


def test_injectivity_subsets_not_an_integer_exits_2_and_names_it(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run("injectivity", "--subsets", "3,x", "--out", out) == 2
    err = capsys.readouterr().err
    assert "--subsets" in err and "'x'" in err
    assert not out.exists()


@pytest.mark.parametrize("dim", [0, 2])
@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_injectivity_non_positive_alpha_exits_2_and_names_it(tmp_path, capsys, alpha, dim):
    out = tmp_path / "x.json"
    assert run("injectivity", f"--alpha={alpha}", "--dim", dim, "--subsets", 5, "--out", out) == 2
    assert "alpha must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dim", [17, -1])
def test_injectivity_dim_outside_the_cap_exits_2_and_names_it(tmp_path, capsys, dim):
    out = tmp_path / "x.json"
    assert run("injectivity", "--dim", dim, "--subsets", 5, "--out", out) == 2
    assert "[0, 16]" in capsys.readouterr().err
    assert not out.exists()


def test_injectivity_builds_its_rows_once_for_every_subset(tmp_path, monkeypatch):
    built = []

    def counted(points, N, alpha):
        built.append(len(points))
        return lifted_rows(points, N, alpha)

    monkeypatch.setattr(cli, "lifted_rows", counted)
    assert run("injectivity", "--dim", 2, "--subsets", "5,8,9,12", "--out", tmp_path / "x.json") == 0
    assert built == [12]


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


# numpy's dispatch lowered as on an AVX2 machine, then to the SSE baseline
LOWERED_SIMD = pytest.mark.parametrize(
    "lowered",
    [("X86_V4", "AVX512_ICL", "AVX512_SPR"), ("X86_V4", "AVX512_ICL", "AVX512_SPR", "X86_V3")],
    ids=["below-X86_V4", "below-X86_V3"],
)


def run_below_simd_level(lowered, cwd, *commands) -> None:
    """Run each command through ``cli.main`` in one child whose numpy dispatches below ``lowered``.

    Features of ``lowered`` the CPU lacks are dropped from the list given
    to ``NPY_DISABLE_CPU_FEATURES``; with none left the test is skipped.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = [f for f in lowered if f in __cpu_dispatch__ and __cpu_features__.get(f)]
    if not disabled:
        pytest.skip(f"this CPU dispatches none of {lowered}")
    src = str(Path(fockpr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    code = ("import json, sys; from fockpr import cli;"
            " sys.exit(any(map(cli.main, json.load(sys.stdin))))")
    argv = json.dumps([[str(a) for a in command] for command in commands])
    child = subprocess.run([sys.executable, "-c", code], input=argv, text=True, cwd=cwd, env=env,
                           capture_output=True)
    assert child.returncode == 0, child.stderr


@LOWERED_SIMD
def test_montecarlo_bytes_do_not_depend_on_numpys_simd_level(tmp_path, monkeypatch, lowered):
    # the float32 prefilter rounds differently per SIMD level; the hit count may not
    monkeypatch.chdir(tmp_path)
    commands = [("montecarlo", variant, "--trials", 1_000_000, "--eps", 0.05, "--seed", 1,
                 "--out", f"{variant}.json") for variant in ("angles", "mirror")]
    for command in commands:
        assert run(*command) == 0
    low = tmp_path / "lowered"
    low.mkdir()
    run_below_simd_level(lowered, low, *commands)
    for name in ("angles.json", "mirror.json"):
        assert (low / name).read_bytes() == (tmp_path / name).read_bytes()


@LOWERED_SIMD
def test_generate_and_certify_bytes_do_not_depend_on_numpys_simd_level(
    tmp_path, monkeypatch, lowered
):
    # budgets, offsets and triangle angles are taken without numpy's SIMD
    # transcendentals and complex products, whose last bits move per level
    monkeypatch.chdir(tmp_path)
    commands, names = [], []
    for name, (args, digests) in GOLDEN_GENERATE.items():
        commands.append(("generate", *args, "--seed", 1, "--out", f"{name}.json"))
        commands.append(("certify", "--in", f"{name}.json", "--beta", "12.566",
                         "--seed", 1, "--out", f"certify_{name}.json"))
        names += [*digests, f"certify_{name}.json"]
    for command in commands:
        assert run(*command) == 0
    low = tmp_path / "lowered"
    low.mkdir()
    run_below_simd_level(lowered, low, *commands)
    assert [n for n in names if (low / n).read_bytes() != (tmp_path / n).read_bytes()] == []


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
    assert run("generate", "--construction", "lines", "--radius", 2,
               "--angles", "0,1,2", "--pitch", 0.5, "--out", lines) == 0
    out = tmp_path / "pic.svg"
    assert run("render", "--in", lines, "--out", out) == 0
    assert out.read_text(encoding="ascii").count("<circle") == (6 * 4 + 1) + 1


def test_render_mesh_of_a_set_without_lattice_exits_2(tmp_path, capsys):
    lines = tmp_path / "lines.json"
    assert run("generate", "--construction", "lines", "--radius", 2, "--angles", "0,1,2",
               "--out", lines) == 0
    out = tmp_path / "pic.svg"
    assert run("render", "--in", lines, "--mesh", "--out", out) == 2
    assert "no lattice" in capsys.readouterr().err
    assert not out.exists()


# sha256 of each SVG written for sets generated with --seed 1 by the per-point
# render loops this package had before it formatted coordinates in bulk;
# "lines" since three_lines sorts its points in modulus_order, and the --mesh
# ones since the mesh is one segment per lattice line (their mesh lines are
# the only bytes that changed)
GOLDEN_RENDER = {
    "rand3": (["--construction", "rand3", "--alpha", PI, "--radius", 4], ["--mesh"],
              "c029838777a80f9c043985d4acc1f739815588a42faebda0ae7c8d7b13a7666e"),
    "opteven": (["--construction", "opteven", "--v", 0.45, "--radius", 6], ["--mesh"],
                "af058fd3e49072beddbfbf546c0f8bf266dc2cbabd9ee3aec6f70260e6f263af"),
    "optreal": (["--construction", "optreal", "--v", 0.45, "--radius", 6], ["--mesh"],
                "9fac2b5e289501817061d18581ee3f6e7e2ece751443b9ca9dbbeec0b70e8c0c"),
    "lines": (["--construction", "lines", "--angles", "0,1,2", "--pitch", 0.1,
               "--radius", 3], [],
              "c31b2362fec33b2d01c558cdeab061ba08c26b735e48fb2d23be6dfea645a74c"),
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


@LOWERED_SIMD
def test_render_bytes_do_not_depend_on_numpys_simd_level(tmp_path, monkeypatch, lowered):
    # render places each sample by the set's budgets, which are taken without
    # numpy's SIMD transcendentals
    monkeypatch.chdir(tmp_path)
    commands = []
    for name, (generate_args, render_args, _) in GOLDEN_RENDER.items():
        commands.append(("generate", *generate_args, "--seed", 1, "--out", f"{name}.json"))
        commands.append(("render", "--in", f"{name}.json", *render_args, "--out", f"{name}.svg"))
    for command in commands:
        assert run(*command) == 0
    low = tmp_path / "lowered"
    low.mkdir()
    run_below_simd_level(lowered, low, *commands)
    names = [f"{name}.svg" for name in GOLDEN_RENDER]
    assert [n for n in names if (low / n).read_bytes() != (tmp_path / n).read_bytes()] == []


@pytest.mark.parametrize("points", [[[0.0, 1.0], [2.0]], [[0.0, 1.0, 2.0]], [1.0, 2.0]])
def test_render_rejects_point_records_that_are_not_pairs(tmp_path, capsys, points):
    # a list of point records, of pairs or of any other shape, is no longer read
    path = tmp_path / "pts.json"
    jsonio.dump_path({"points": points}, path)
    assert run("render", "--in", path, "--out", tmp_path / "p.svg") == 2
    assert "regenerate" in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_rejects_plain_points_that_are_not_finite(tmp_path, capsys, bad):
    path = tmp_path / "pts.json"
    jsonio.dump_path({"points": {"re": [0.0, 2.0, 1.0], "im": [1.0, 3.0, bad]}}, path)
    assert run("render", "--in", path, "--out", tmp_path / "p.svg") == 2
    message = f"point row 2: column 'im' must hold finite numbers, got {bad!r}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()


@pytest.fixture()
def lines_file(tmp_path):
    path = tmp_path / "lines.json"
    assert run("generate", "--construction", "lines", "--radius", 2, "--angles", "0,1,2",
               "--pitch", 0.5, "--out", path) == 0
    return path


@pytest.mark.parametrize("command", ["render", "injectivity"])
def test_a_pair_list_lines_file_exits_2_and_asks_to_regenerate(lines_file, tmp_path, capsys,
                                                                command):
    # the layout of older lines files: one [re, im] pair per point
    doc = json.loads(lines_file.read_text(encoding="ascii"))
    doc["points"] = [list(pair) for pair in zip(doc["points"]["re"], doc["points"]["im"])]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    out = tmp_path / "out"
    extra = ["--dim", 2] if command == "injectivity" else []
    assert run(command, "--in", path, *extra, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: field 'points' holds per-record samples; regenerate the set" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.pop("re"), "field 'points' lacks the column 're'"),
        (lambda p: p["re"].pop(),
         "point row 24: column 're' lacks it, while column 'im' has 25 rows"),
    ],
    ids=["missing-re", "short-re"],
)
@pytest.mark.parametrize("command", ["render", "injectivity"])
def test_a_missing_or_short_lines_column_exits_2_and_names_it(
    lines_file, tmp_path, capsys, command, edit, message
):
    doc = json.loads(lines_file.read_text(encoding="ascii"))
    edit(doc["points"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    out = tmp_path / "out"
    extra = ["--dim", 2] if command == "injectivity" else []
    assert run(command, "--in", path, *extra, "--out", out) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_render_escapes_the_title(det3_set, tmp_path):
    out = tmp_path / "titled.svg"
    assert run("render", "--in", det3_set, "--title", "A<B & C", "--out", out) == 0
    root = ElementTree.parse(out).getroot()
    assert "A<B & C" in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


def test_render_missing_input_exits_2(tmp_path):
    assert run("render", "--in", tmp_path / "absent.json") == 2
