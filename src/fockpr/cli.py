"""Command-line surface: reproducible generation, certification, and checks.

Subcommands
-----------
``generate``     build a point set (``set.json``, optionally CSV)
``certify``      geometric certificates for a stored set (``report.json``)
``verify``       per-module invariant suite (fock | special | gabor | phaseless)
``injectivity``  nested-rank analysis of modulus measurements
``montecarlo``   small-angle probability bounds (angles | mirror)
``render``       SVG scatter of a stored set

Exit codes: 0 all checks passed, 1 a certification or verification
failed, 2 usage or input error.  All artifacts are canonical JSON (17
significant digits, sorted keys): identical command line and seed give
identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .lattice import Lattice, modulus_order, square_lattice
from .pointset import (
    IndexedPointSet,
    TRIPLE_TAGS,
    angle_condition,
    certify_f_closeness,
    density_estimate,
    plain_to_json,
    points_from_json,
    sample_points,
    sample_tags,
    separation,
)
from .render import render_svg
from .sampler import (
    GeneratorConfig,
    density_opt_even,
    density_opt_real,
    deterministic_triple,
    even_single,
    mc_angle_bound,
    mc_mirror_angle_bound,
    random_triple,
    real_pair,
    three_lines,
)
from .suites import pinned_injectivity_points, run_suite
from .phaseless import lifted_injectivity, lifted_rows

__all__ = ["main", "build_parser"]

_LATTICE_CONSTRUCTIONS = {
    "det3": deterministic_triple,
    "rand3": random_triple,
    "real2": real_pair,
    "even1": even_single,
}

# the optional generate flags (by argparse dest), and those each construction
# reads; --radius, --seed and --out are read by all
_GENERATE_OPTIONS = ("alpha", "v", "gamma", "kappa", "mode", "angles", "pitch", "csv")
_GENERATE_FLAGS = {
    **{name: ("alpha", "v", "gamma", "kappa", "csv") for name in _LATTICE_CONSTRUCTIONS},
    "optreal": ("v", "gamma", "kappa", "mode", "csv"),
    "opteven": ("v", "gamma", "kappa", "mode", "csv"),
    "lines": ("angles", "pitch"),
}


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: an integer in [0, 2**64), the seeds the keyed draws tell apart."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fockpr",
        description="Uniqueness sets for phase retrieval: generators, certificates, checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a point set and write it as JSON")
    g.add_argument(
        "--construction",
        required=True,
        choices=sorted(_LATTICE_CONSTRUCTIONS) + ["optreal", "opteven", "lines"],
    )
    g.add_argument("--alpha", type=_finite_float, help="weight; lattice is the square one of cell area pi/alpha")
    g.add_argument("--v", type=_finite_float, help="side length; lattice is v*(Z+iZ) (constructions pick their own frame for optreal/opteven)")
    g.add_argument("--radius", type=_finite_float, required=True, help="window radius")
    g.add_argument("--gamma", type=_finite_float, default=None, help="closeness decay rate (default 7)")
    g.add_argument("--kappa", type=_finite_float, default=None, help="closeness budget cap (default 1, or v/4 for opteven)")
    g.add_argument("--mode", choices=["random", "det"], default=None, help="offset mode for optreal/opteven (default random)")
    g.add_argument("--angles", type=lambda text: [_finite_float(a) for a in text.split(",")], default=None, help="three line angles in radians, comma separated (lines only)")
    g.add_argument("--pitch", type=_finite_float, default=None, help="sample spacing along lines (lines only, default 0.1)")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out", type=str, default="set.json")
    g.add_argument("--csv", type=str, default=None, help="also write rows m,n,tag,re,im")

    c = sub.add_parser("certify", help="geometric certificates for a stored set")
    c.add_argument("--in", dest="inp", required=True)
    c.add_argument("--beta", type=_finite_float, required=True, help="weight of the median-angle condition")
    c.add_argument("--gamma", type=_finite_float, default=None, help="closeness rate (default: the set's own)")
    c.add_argument("--seed", type=_seed, default=0, help="unused; accepted for uniform invocation")
    c.add_argument("--out", type=str, default="report.json")

    v = sub.add_parser("verify", help="run one module's invariant suite")
    v.add_argument("module", choices=["fock", "special", "gabor", "phaseless"])
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--out", type=str, default=None, help="optional JSON artifact of the check list")

    i = sub.add_parser("injectivity", help="nested-rank analysis of modulus measurements")
    i.add_argument("--in", dest="inp", default=None, help="point set JSON; omitted: a pinned scattered-triple instance")
    i.add_argument("--dim", type=int, default=6, help="polynomial degree truncation N")
    i.add_argument("--alpha", type=_finite_float, default=math.pi)
    i.add_argument("--subsets", type=str, default=None, help="comma-separated prefix sizes (default 30,45,49,60 or the full set)")
    i.add_argument("--seed", type=_seed, default=0)
    i.add_argument("--out", type=str, default="injectivity.json")

    m = sub.add_parser("montecarlo", help="small-angle probability vs the linear bound")
    m.add_argument("variant", choices=["angles", "mirror"])
    m.add_argument("--trials", type=int, required=True)
    m.add_argument("--eps", type=_finite_float, required=True)
    m.add_argument("--seed", type=_seed, default=0)
    m.add_argument("--out", type=str, default="mc.json")

    r = sub.add_parser("render", help="SVG scatter of a stored set")
    r.add_argument("--in", dest="inp", required=True)
    r.add_argument("--out", type=str, default=None, help="default: input path with .svg suffix")
    r.add_argument("--mesh", action="store_true", help="draw the lattice mesh (indexed point sets only)")
    r.add_argument("--title", type=str, default=None)
    return p


def _resolve_lattice(args: argparse.Namespace) -> Lattice:
    if (args.alpha is None) == (args.v is None):
        raise ValueError("give exactly one of --alpha (critical square lattice) or --v (side length)")
    if args.alpha is not None:
        if args.alpha <= 0:
            raise ValueError("alpha must be positive")
        return square_lattice(args.alpha)
    if args.v <= 0:
        raise ValueError("v must be positive")
    return Lattice(args.v, args.v * 1j)


def _load_set(path: str) -> IndexedPointSet | np.ndarray:
    """The set or plain point array stored at ``path``; one without samples is an error.

    A file that does not parse or load is an error that names ``path``.
    """
    try:
        obj = points_from_json(jsonio.load_path(path))
        if not len(obj):
            raise ValueError("field 'points' holds no samples")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return obj


def _cmd_generate(args: argparse.Namespace) -> int:
    reads = _GENERATE_FLAGS[args.construction]
    ignored = [f"--{dest}" for dest in _GENERATE_OPTIONS
               if getattr(args, dest) is not None and dest not in reads]
    if ignored:
        raise ValueError(f"{args.construction} does not use {', '.join(ignored)}")
    gamma = 7.0 if args.gamma is None else args.gamma
    if args.construction == "lines":
        if args.angles is None:
            raise ValueError("lines needs --angles a,b,c")
        pitch = 0.1 if args.pitch is None else args.pitch
        pts = three_lines(args.angles, radius=args.radius, pitch=pitch)
        artifact = plain_to_json(
            pts, kind="lines", angles=args.angles, pitch=pitch, radius=args.radius
        )
        jsonio.dump_path(artifact, args.out)
        print(f"wrote {args.out}: {len(pts)} points on three concurrent lines")
        return 0

    if args.construction in ("optreal", "opteven"):
        if args.v is None:
            raise ValueError(f"{args.construction} needs --v")
        maker = density_opt_real if args.construction == "optreal" else density_opt_even
        kwargs = dict(window_radius=args.radius, gamma=gamma, seed=args.seed,
                      mode=args.mode or "random")
        if args.construction == "optreal":
            kwargs["kappa_cap"] = 1.0 if args.kappa is None else args.kappa
        elif args.kappa is not None:
            kwargs["kappa_cap"] = args.kappa
        ps = maker(args.v, **kwargs)
    else:
        lat = _resolve_lattice(args)
        # the closeness rate must exceed twice a weight given explicitly, for
        # the perturbed set to inherit the lattice's uniqueness behaviour
        if args.alpha is not None and gamma <= 2.0 * args.alpha:
            raise ValueError(
                f"gamma = {gamma} must exceed twice the weight 2*alpha = {2 * args.alpha}"
            )
        cfg = GeneratorConfig(
            lat,
            window_radius=args.radius,
            gamma=gamma,
            kappa_cap=1.0 if args.kappa is None else args.kappa,
            seed=args.seed,
        )
        ps = _LATTICE_CONSTRUCTIONS[args.construction](cfg)
    if not len(ps):
        raise ValueError(f"{args.construction} holds no sample within radius {args.radius:g}")

    jsonio.dump_path(ps.to_json(), args.out)
    if args.csv:
        ps.to_csv(args.csv)
    print(
        f"wrote {args.out}: construction {ps.meta.get('construction')!r}, "
        f"{len(ps)} entries, window radius {ps.window_radius:g}"
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    obj = _load_set(args.inp)
    if not isinstance(obj, IndexedPointSet):
        raise ValueError("certify needs an indexed point set (generate one first)")
    gamma = args.gamma if args.gamma is not None else obj.meta.get("gamma")
    if gamma is None:
        raise ValueError("no closeness rate: pass --gamma (the set carries none)")
    kappa_cap = obj.meta.get("kappa_cap")
    tags = obj.tags()

    closeness = {
        tag: certify_f_closeness(obj, float(gamma), tag, kappa_cap=kappa_cap)
        for tag in sample_tags(obj) or tags
    }
    kappa = max(rep.kappa for rep in closeness.values())
    closeness_passed = all(rep.passed for rep in closeness.values())

    angle_rep = None
    if set(TRIPLE_TAGS) <= set(tags):
        angle_rep = angle_condition(obj, beta=args.beta)

    radii = tuple(obj.window_radius * f for f in (0.5, 0.75, 1.0))
    dens = density_estimate(obj, center=0j, radii=radii)
    sep = separation(obj)

    passed = closeness_passed and (angle_rep is None or angle_rep.passed)
    report = {
        "input": str(args.inp),
        "beta": args.beta,
        "gamma": float(gamma),
        "kappa": kappa,
        "sup_ratio": None if angle_rep is None else angle_rep.sup_ratio,
        "density": dens.fitted_density,
        "delta": sep.delta,
        "log10_delta": sep.log10_delta,
        "passed": passed,
        "closeness": closeness,
        "angle": angle_rep,
        "density_report": dens,
        "separation_report": sep,
    }
    jsonio.dump_path(report, args.out)
    print(
        f"wrote {args.out}: kappa={kappa:.6g} "
        + ("" if angle_rep is None else f"sup_ratio={angle_rep.sup_ratio:.6g} ")
        + f"density={dens.fitted_density:.6g} delta={sep.delta:.6g} "
        + f"log10_delta={sep.log10_delta:.6g} passed={passed}"
    )
    return 0 if passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.module, seed=args.seed)
    for res in results:
        print(res.line())
    passed = all(r.passed for r in results)
    if args.out:
        jsonio.dump_path(
            {
                "module": args.module,
                "seed": args.seed,
                "passed": passed,
                "checks": [r.to_json() for r in results],
            },
            args.out,
        )
    print(f"{args.module}: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if passed else 1


def _cmd_injectivity(args: argparse.Namespace) -> int:
    if args.inp is None:
        pts = pinned_injectivity_points(args.seed)
        source = "pinned-rand3"
    else:
        obj = _load_set(args.inp)
        pts = sample_points(obj) if isinstance(obj, IndexedPointSet) else obj
        pts = pts[modulus_order(pts)]
        source = str(args.inp)

    if args.subsets is not None:
        try:
            subsets = sorted({int(s) for s in args.subsets.split(",")})
        except ValueError as exc:
            raise ValueError(f"--subsets: {exc}") from None
    elif args.inp is None:
        subsets = [30, 45, 49, 60]
    else:
        subsets = [len(pts)]
    if any(s < 1 or s > len(pts) for s in subsets):
        raise ValueError(f"subset sizes must lie in [1, {len(pts)}]")

    # a row depends on its own point only: each subset reads a prefix of one build
    lifted = lifted_rows(pts[: subsets[-1]], args.dim, args.alpha)
    rows = []
    all_match = True
    for m_count in subsets:
        rep = lifted_injectivity(lifted[:m_count], args.alpha, seed=args.seed)
        expected = rep.generic_kernel_dim
        match = rep.kernel_dim == expected and (rep.kernel_dim > 0 or rep.sigma_min > 0)
        all_match = all_match and match
        row = {
            "points": m_count,
            "kernel_dim": rep.kernel_dim,
            "expected_kernel_dim": expected,
            "sigma_min": rep.sigma_min,
            "match": match,
        }
        if rep.witness is not None:
            row["witness_gap"] = rep.witness_gap
            row["witness"] = rep.witness
        rows.append(row)
        print(
            f"M={m_count}: kernel_dim={rep.kernel_dim} (expected {expected}) "
            f"sigma_min={rep.sigma_min:.6g} {'ok' if match else 'MISMATCH'} "
            f"witness_search={'run' if rep.witness_searched else 'skipped'}"
        )
    artifact = {
        "source": source,
        "dim": args.dim,
        "alpha": args.alpha,
        "seed": args.seed,
        "total_points": len(pts),
        "subsets": rows,
        "passed": all_match,
    }
    jsonio.dump_path(artifact, args.out)
    print(f"wrote {args.out}: passed={all_match}")
    return 0 if all_match else 1


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    runner = mc_angle_bound if args.variant == "angles" else mc_mirror_angle_bound
    rep = runner(args.trials, args.eps, seed=args.seed)
    jsonio.dump_path(rep, args.out)
    print(
        f"wrote {args.out}: p_hat={rep.p_hat:.6g} (+3se {rep.p_hat + 3 * rep.stderr:.6g}) "
        f"bound={rep.bound:.6g} passed={rep.passed}"
    )
    return 0 if rep.passed else 1


def _cmd_render(args: argparse.Namespace) -> int:
    obj = _load_set(args.inp)
    out = args.out if args.out else str(Path(args.inp).with_suffix(".svg"))
    render_svg(obj, path=out, mesh=args.mesh, title=args.title)
    print(f"wrote {out}")
    return 0


_DISPATCH = {
    "generate": _cmd_generate,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "injectivity": _cmd_injectivity,
    "montecarlo": _cmd_montecarlo,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The program entry: exit with :func:`main`'s code, without tearing the heap down.

    ``gc.freeze()`` moves every live object to the permanent generation, so
    the collections at interpreter shutdown skip them; atexit handlers, the
    flush of the standard streams and module teardown still run.  Only the
    process entry freezes: code that calls :func:`main` and lives on keeps
    its heap collectable.
    """
    rc = main()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run()
