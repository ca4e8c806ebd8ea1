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
# since three_lines sorts its points in modulus_order
GOLDEN_GALLERY = {
    "even_optimal.svg": "fff6d464398517352002a9061e65ae5e22eca3775c827d59cc306862cb98b805",
    "real_pair.svg": "96940032bdb1059607217b094d4847ced62ea52465080212cb6f93ab067b7c80",
    "three_lines.svg": "c4f79960f5647ec78a7c54e49c25f4e2fd5d8f1b248b8435500d7269e697020f",
    "triple.svg": "b3393833ac0e3fa6231eaa3ae7c4fef97c629644b51225cde7701ef1d7a17807",
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
