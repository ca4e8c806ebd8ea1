"""The fockpr command lines each workload runs, and the checks on their outputs.

Every ``--seed`` handed to the CLI is the workload seed.  Output paths
are relative to the run's work directory.

Why these workloads:

* ``sets-write`` builds all seven constructions at sizes where the write
  path dominates (``optreal`` at r=50 is 58k entries and 17 MB of JSON);
  it moves lattice, rng, sampler, pointset and jsonio.
* ``sets-read`` certifies every indexed artifact ``sets-write`` produces
  and renders two of them; the same pointset and jsonio layers run on
  the read side, so a change that speeds writes but slows reads shows.
* ``numerics`` runs the four verify suites, two injectivity analyses and
  both Monte Carlo experiments; pointset and jsonio do almost nothing
  here, so set-layer changes should leave it unmoved.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sets-write", "sets-read", "numerics")

ALPHA = "3.141592653589793"
LINE_ANGLES = "0,1.0471975511965976,2.0943951023931953"

# (set name, generate arguments, extra outputs besides <name>.json)
_SETS = (
    ("rand3", ["--construction", "rand3", "--alpha", ALPHA, "--radius", "12"], ()),
    ("det3", ["--construction", "det3", "--alpha", ALPHA, "--radius", "12"], ()),
    ("real2", ["--construction", "real2", "--v", "0.3", "--radius", "20", "--csv", "real2.csv"],
     ("real2.csv",)),
    ("even1", ["--construction", "even1", "--v", "0.3", "--radius", "20"], ()),
    ("optreal", ["--construction", "optreal", "--v", "0.45", "--radius", "50"], ()),
    ("opteven", ["--construction", "opteven", "--v", "0.45", "--radius", "30"], ()),
    ("lines", ["--construction", "lines", "--angles", LINE_ANGLES, "--pitch", "0.01",
               "--radius", "50"], ()),
)
INDEXED_SETS = ("rand3", "det3", "real2", "even1", "optreal", "opteven")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` follows ``python -m fockpr``."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


def generate_ops(seed: int) -> list[Op]:
    return [
        Op(f"generate {name}",
           ("generate", *args, "--seed", str(seed), "--out", f"{name}.json"),
           (f"{name}.json", *extra))
        for name, args, extra in _SETS
    ]


def ops_for(workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """``(setup, timed)`` invocations; setup output is never timed."""
    s = str(seed)
    if workload == "sets-write":
        return [], generate_ops(seed)
    if workload == "sets-read":
        timed = [
            Op(f"certify {name}",
               ("certify", "--in", f"{name}.json", "--beta", "12.566", "--seed", s,
                "--out", f"certify_{name}.json"),
               (f"certify_{name}.json",))
            for name in INDEXED_SETS
        ]
        timed += [
            Op("render optreal", ("render", "--in", "optreal.json", "--mesh", "--out", "optreal.svg"),
               ("optreal.svg",)),
            Op("render lines", ("render", "--in", "lines.json", "--out", "lines.svg"),
               ("lines.svg",)),
        ]
        return generate_ops(seed), timed
    if workload == "numerics":
        timed = [
            Op(f"verify {m}", ("verify", m, "--seed", s, "--out", f"verify_{m}.json"),
               (f"verify_{m}.json",))
            for m in ("fock", "special", "gabor", "phaseless")
        ]
        timed += [
            Op("injectivity dim6", ("injectivity", "--dim", "6", "--seed", s,
                                    "--out", "injectivity_dim6.json"),
               ("injectivity_dim6.json",)),
            Op("injectivity dim8", ("injectivity", "--dim", "8", "--subsets", "30,45,60,63",
                                    "--seed", s, "--out", "injectivity_dim8.json"),
               ("injectivity_dim8.json",)),
        ]
        timed += [
            Op(f"montecarlo {v}", ("montecarlo", v, "--trials", "2000000", "--eps", "0.05",
                                   "--seed", s, "--out", f"montecarlo_{v}.json"),
               (f"montecarlo_{v}.json",))
            for v in ("angles", "mirror")
        ]
        return [], timed
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def check_output(op: Op, rc: int, path: Path) -> str | None:
    """Problem with one output of an op that exited ``rc``, or ``None``.

    JSON must parse and, where it carries a ``passed`` verdict, agree with
    the exit code; a point set must hold points; CSV must have its header
    and rows; SVG must be one complete document.
    """
    if not path.is_file():
        return f"{path.name} was not written"
    if path.suffix == ".json":
        try:
            data = json.loads(path.read_text(encoding="ascii"))
        except ValueError as exc:
            return f"{path.name} does not parse: {exc}"
        if not isinstance(data, dict):
            return f"{path.name} is not a JSON object"
        if "passed" in data and data["passed"] != (rc == 0):
            return f"{path.name} says passed={data['passed']} but the exit code is {rc}"
        if op.command == "generate" and not data.get("points"):
            return f"{path.name} holds no points"
        return None
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["m", "n", "tag", "re", "im"] or len(rows) < 2:
            return f"{path.name} lacks the m,n,tag,re,im header or rows"
        return None
    if path.suffix == ".svg":
        text = path.read_text(encoding="ascii")
        if not (text.startswith("<svg") and text.endswith("</svg>\n")):
            return f"{path.name} is not a complete SVG document"
        return None
    return f"{path.name}: no check for this kind of output"
