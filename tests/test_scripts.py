"""The scripts in scripts/ run end to end on tiny sizes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import fockpr

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each SVG written with --radius 2 by the per-point render loops
# this package had before it formatted coordinates in bulk; three_lines.svg
# since three_lines sorts its points in modulus_order, and the meshed ones
# since the mesh is one segment per lattice line (their mesh lines are the
# only bytes that changed)
GOLDEN_GALLERY = {
    "even_optimal.svg": "0c5849f13c6554a2e0a0117ad5391745d861a9ff3b71e824aa24a3602e2707ff",
    "real_pair.svg": "f71da6018cc821c7554e779b16cd0caa39376cc835180a32da238ae4a76beb2e",
    "three_lines.svg": "c4f79960f5647ec78a7c54e49c25f4e2fd5d8f1b248b8435500d7269e697020f",
    "triple.svg": "bc0a4fbe9a07e2a667b5f88f660936c910ab448488736c9965398940dce2ead3",
}


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(fockpr.__file__).resolve().parents[1]))
    argv = [sys.executable, str(ROOT / "scripts" / name), *map(str, args)]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def test_render_gallery_writes_the_pinned_svgs(tmp_path):
    proc = run_script("render_gallery.py", "--radius", 2, "--out", tmp_path / "gallery",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "gallery").glob("*.svg")
    }
    assert got == GOLDEN_GALLERY


def test_density_scan_runs(tmp_path):
    proc = run_script("density_scan.py", "--radius", 3, "--sides", 0.45, 0.9, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("triple") == 2
    assert "even-optimal" in proc.stdout


def test_angle_margin_sweep_runs(tmp_path):
    proc = run_script("angle_margin_sweep.py", "--trials", 2000, "--eps", 0.05, 0.1,
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[:2] for line in proc.stdout.splitlines()[2:] if line.strip()]
    assert rows[:4] == [["triple", "0.050"], ["mirror", "0.050"],
                        ["triple", "0.100"], ["mirror", "0.100"]]
    assert proc.stdout.splitlines()[-1].startswith("smallest margin: ")
