"""Benchmark of the fockpr command line, end to end and per module.

    python3 perfbench/run.py --workload sets-write --seed 1 --seconds 36 --trace 0
    python3 -m pytest perfbench/tests          # the benchmark's self-tests

Run from anywhere; it uses the ``src/`` tree of the checkout it lives in
and works in ``.bench_work/`` there.  One driver process runs the
workload's invocations one at a time, each a fresh ``python -m fockpr``
child (a closed loop with one client), and repeats passes over them while
at least half of another pass fits in ``--seconds`` (at least one pass).
Inputs that a workload reads are generated first and never timed.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the median wall time of a fresh ``import fockpr.cli`` (two samples before
each pass, so they spread over the run) and the peak RSS of the children.
``--trace 1`` alternates untraced passes with traced ones, in which each
invocation runs ``fockpr.cli.main`` in its child under the wrappers of
``spans.py``, and reports the per-layer metrics, the per-subcommand split
of the untraced passes and the tracing overhead.

An op fails when its exit code is not 0, when an output is missing or
malformed, or when its exit code or output bytes differ from an earlier
run of the same op in this run (traced runs included).  Only the last two
make ``correct`` false: a command that reports a failed check or an input
error is a counted failure, not a wrong output.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the run record, the combined sha256
of the artifacts, the failed ops, each op's wall time per pass and every
metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from spans import Span, call_counts, self_times
from workloads import WORKLOADS, Op, check_output, ops_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COMMANDS = ("generate", "certify", "render", "verify", "injectivity", "montecarlo")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, from the traced run.  A name ending in ".s" is the
# self seconds of the span or tally of that name, one ending in ".calls"
# its call count; the other counts come from the wrappers in spans.py.
# Each group's comment names the figure it should move, and where.
PER_LAYER = {
    # setup_s and every wall_s
    "import.fockpr_cli_s": "s",
    "import.scipy_spatial_s": "s",
    # wall_s; the subcommand split is taken from the untraced passes
    "proc.cpu_s": "s",
    "cli.self_s": "s",
    **{f"{c}_s": "s" for c in COMMANDS},
    # generate_s on sets-write (sampler entries also peak_rss_mb)
    "lattice.window_arrays.s": "s",
    "lattice.window_points": "count",
    "rng.keyed_disk.s": "s",
    "rng.draws": "count",
    "sampler.construct.s": "s",
    "sampler.entries": "count",
    "sampler.distinct_ratio": "ratio",
    # generate_s and peak_rss_mb on sets-write, not numerics
    "pointset.add.calls": "count",
    "pointset.add.s": "s",
    "pointset.to_json.s": "s",
    "pointset.to_csv.s": "s",
    "jsonio.dumps.s": "s",
    "jsonio.bytes_out": "bytes",
    # certify_s and render_s on sets-read, not numerics
    "pointset.get.calls": "count",
    "pointset.get.s": "s",
    "pointset.from_json.s": "s",
    "pointset.points.s": "s",
    "pointset.closeness.s": "s",
    "pointset.angle.s": "s",
    "pointset.median_angle.calls": "count",
    "pointset.separation.s": "s",
    "pointset.density.s": "s",
    "jsonio.loads.s": "s",
    "jsonio.bytes_in": "bytes",
    "render.s": "s",
    "render.bytes_out": "bytes",
    # verify_s on numerics (gabor also peak_rss_mb), not sets-*
    "fock.dist.s": "s",
    "fock.dist.pairs": "count",
    "fock.quad_norm.s": "s",
    "fock.extension_norm_bound_check.s": "s",
    "special.sigma_init.s": "s",
    "special.sigma_eval.s": "s",
    "special.sigma_eval.points": "count",
    "special.ggamma_init.s": "s",
    "special.lagrange.s": "s",
    "gabor.bargmann.calls": "count",
    "gabor.bargmann_grid.calls": "count",
    "gabor.bargmann_grid.points": "count",
    "gabor.lift.s": "s",
    "gabor.fock_inner_quad.s": "s",
    "suites.fock.s": "s",
    "suites.special.s": "s",
    "suites.gabor.s": "s",
    "suites.phaseless.s": "s",
    "suites.checks": "count",
    "suites.checks_failed": "count",
    # injectivity_s on numerics, not sets-*
    "phaseless.lifted_injectivity.s": "s",
    "phaseless.lifted_rows.s": "s",
    "phaseless.hermitian_basis.calls": "count",
    "phaseless.witness_found": "count",
    "phaseless.kernel_nonzero": "count",
    # montecarlo_s on numerics
    "sampler.mc.s": "s",
    "sampler.mc.trials": "count",
    # traced minus untraced pass wall time
    "trace.overhead_s": "s",
}

# set-up samples taken before each pass, so that they spread over the run
SETUP_SAMPLES_PER_PASS = 2
IMPORTTIME_SAMPLES = 3
SETUP_WORKERS = 2
# BLAS threads of every child: with the default two threads on two cores
# the small SVDs and eigensolves of numerics ran up to twice as slow and
# far less steadily than with one
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env() -> dict[str, str]:
    env = {**os.environ, **BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- running ops -------------------------------------------------------------------


@dataclass
class OpRun:
    op: Op
    wall: float
    rc: int
    cpu: float
    maxrss_kb: int
    stderr: str
    trace: dict | None = None


def run_op(op: Op, workdir: Path, traced: bool = False) -> OpRun:
    """Run one invocation in a fresh child; outputs of earlier runs are removed first."""
    for name in op.outputs:
        (workdir / name).unlink(missing_ok=True)
    spans_path = workdir / ".spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "tracecli.py"), str(spans_path), *op.argv]
    else:
        argv = [sys.executable, "-m", "fockpr", *op.argv]
    err_path = workdir / ".stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if traced and spans_path.is_file():
        trace = json.loads(spans_path.read_text(encoding="ascii"))
        spans_path.unlink()
    return OpRun(op, wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                 err_path.read_text(errors="replace"), trace)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Checker:
    """Output checks of every op run, and the failure tally."""

    seen: dict[str, tuple[int, dict[str, str]]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, run: OpRun, workdir: Path) -> None:
        op = run.op
        self.attempted += 1
        problem = None
        if "Traceback (most recent call last)" in run.stderr:
            problem = f"{op.name} raised: {run.stderr.strip().splitlines()[-1]}"
        # exit code 2 is an input error: the command writes nothing
        digests = {}
        if run.rc in (0, 1):
            digests = {n: _sha256(workdir / n) for n in op.outputs if (workdir / n).is_file()}
        first = self.seen.get(op.name)
        if first is None:
            self.seen[op.name] = (run.rc, digests)
            if problem is None and run.rc in (0, 1):
                problem = next(
                    (p for n in op.outputs if (p := check_output(op, run.rc, workdir / n))), None
                )
        elif first != (run.rc, digests):
            problem = f"{op.name}: exit code or output bytes differ from its first run"
        if problem is not None:
            self.problems.append(problem)
        if run.rc != 0 or problem is not None:
            self.failed += 1
            last = run.stderr.strip().splitlines()[-1:] or ["no message"]
            self.failures[op.name] = problem or f"exit {run.rc}: {last[0]}"

    def artifacts_sha256(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.seen):
            rc, digests = self.seen[name]
            h.update(f"{name}\t{rc}\n".encode())
            for out in sorted(digests):
                h.update(f"{name}\t{out}\t{digests[out]}\n".encode())
        return h.hexdigest()


def run_pass(ops: list[Op], workdir: Path, checker: Checker, traced: bool) -> list[OpRun]:
    runs = []
    for op in ops:
        run = run_op(op, workdir, traced)
        checker.check(run, workdir)
        runs.append(run)
    return runs


def run_setup(ops: list[Op], workdir: Path) -> None:
    """Generate a workload's inputs, two children at a time (untimed)."""
    with ThreadPoolExecutor(max_workers=SETUP_WORKERS) as pool:
        runs = list(pool.map(lambda op: run_op(op, workdir), ops))
    bad = [f"{r.op.name}: exit {r.rc}: {r.stderr.strip()[-300:]}" for r in runs if r.rc != 0]
    if bad:
        raise RuntimeError("generating the inputs failed: " + "; ".join(bad))


def timed_passes(seconds: float, one_pass) -> list:
    """Call ``one_pass`` at least once, and again while at least half of
    another call fits in ``seconds``, so that runs last ``seconds`` on average."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took / 2 > seconds:
            return results


# -- metrics ------------------------------------------------------------------------


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each key over a list of per-pass metric dicts."""
    keys = {k for s in samples for k in s}
    return {k: statistics.median([s[k] for s in samples if k in s]) for k in sorted(keys)}


def pass_metrics(runs: list[OpRun]) -> dict[str, float]:
    """End-to-end figures of one untraced pass."""
    out = {"wall_s": sum(r.wall for r in runs)}
    for command in COMMANDS:
        out[f"{command}_s"] = sum(r.wall for r in runs if r.op.command == command)
    out["peak_rss_mb"] = max(r.maxrss_kb for r in runs) / 1024.0
    out["proc.cpu_s"] = sum(r.cpu for r in runs)
    return out


def layer_metrics(runs: list[OpRun]) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    selfs: dict[str, float] = {}
    calls: dict[str, float] = {}
    counts: dict[str, float] = {}
    for run in runs:
        if run.trace is None:
            continue
        spans = [Span(*s) for s in run.trace["spans"]]
        tallies = run.trace["tallies"]
        for src, dst in ((self_times(spans, tallies), selfs),
                         (call_counts(spans, tallies), calls),
                         (run.trace["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    out = {"cli.self_s": selfs.get("cli", 0.0),
           "gabor.lift.s": selfs.get("gabor.bargmann", 0.0) + selfs.get("gabor.bargmann_grid", 0.0)}
    entries = counts.get("sampler.entries", 0)
    out["sampler.distinct_ratio"] = counts.get("sampler.distinct", 0) / entries if entries else 0.0
    for name in PER_LAYER:
        if name in out:
            continue
        if name.endswith(".s"):
            out[name] = selfs.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif PER_LAYER[name] in ("count", "bytes"):
            out[name] = counts.get(name, 0)
    return out


def _python_wall(args: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True)
    return time.perf_counter() - t0, proc.stderr


def setup_seconds() -> float:
    """Wall seconds of one fresh ``import fockpr.cli`` process."""
    return _python_wall(["-c", "import fockpr.cli"])[0]


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def import_breakdown() -> dict[str, float]:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        cumulative = parse_importtime(_python_wall(["-X", "importtime", "-c", "import fockpr.cli"])[1])
        samples.append({"import.fockpr_cli_s": cumulative.get("fockpr.cli", 0.0),
                        "import.scipy_spatial_s": cumulative.get("scipy.spatial", 0.0)})
    return medians(samples)


def run_record(seed: int, passes: int, trace: bool) -> dict:
    import numpy as np

    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
        "passes": passes,
        "trace": int(trace),
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


# -- main ---------------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict[str, float]
    checker: Checker
    plain_passes: list[list[OpRun]]


def measure(setup_ops: list[Op], ops: list[Op], seconds: float, trace: bool, workdir: Path) -> Result:
    run_setup(setup_ops, workdir)
    checker = Checker()
    if not trace:
        setup_seconds()  # warm-up: writes the bytecode caches
        setups: list[float] = []

        def one_pass(i: int) -> list[OpRun]:
            setups.extend(setup_seconds() for _ in range(SETUP_SAMPLES_PER_PASS))
            return run_pass(ops, workdir, checker, False)

        passes = timed_passes(seconds, one_pass)
        plain = medians([pass_metrics(p) for p in passes])
        metrics = {**plain, "setup_s": statistics.median(setups)}
        return Result(metrics, checker, passes)

    imports = import_breakdown()

    def pair(i: int) -> tuple[list[OpRun], list[OpRun]]:
        # alternate which side runs first
        if i % 2:
            traced = run_pass(ops, workdir, checker, True)
            return run_pass(ops, workdir, checker, False), traced
        plain = run_pass(ops, workdir, checker, False)
        return plain, run_pass(ops, workdir, checker, True)

    passes = timed_passes(seconds, pair)
    plain = medians([pass_metrics(p) for p, _ in passes])
    layers = medians([layer_metrics(t) for _, t in passes])
    traced_wall = statistics.median(sum(r.wall for r in t) for _, t in passes)
    layers["trace.overhead_s"] = traced_wall - plain["wall_s"]
    return Result({**plain, **layers, **imports}, checker, [p for p, _ in passes])


def result_line(res: Result, trace: bool) -> dict:
    """The final JSON object: the end-to-end or the per-layer metrics."""
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not res.checker.problems,
        "attempted": res.checker.attempted,
        "failed": res.checker.failed,
        "metrics": {k: {"value": res.metrics.get(k, 0), "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (SRC / "fockpr" / "cli.py").is_file():
        print(f"error: no fockpr source tree at {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        res = measure(*ops_for(args.workload, args.seed), args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    record = run_record(args.seed, len(res.plain_passes), trace)
    print(f"workload {args.workload}: {json.dumps(record, sort_keys=True)}")
    print(f"artifacts sha256 {res.checker.artifacts_sha256()}")
    for name, why in sorted(res.checker.failures.items()):
        print(f"failed op: {name}: {why}")
    for problem in res.checker.problems:
        print(f"wrong output: {problem}")
    for runs in zip(*res.plain_passes):
        print(f"op {runs[0].op.name:24s} wall s per pass: " + " ".join(f"{r.wall:.3f}" for r in runs))
    # the subcommand split is shown in both modes, and reported with the layers
    shown = PER_LAYER if trace else {**END_TO_END, **{f"{c}_s": "s" for c in COMMANDS}}
    for name, unit in shown.items():
        print(f"{name:40s} {res.metrics.get(name, 0):14.6f} {unit}")
    print(json.dumps(result_line(res, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
