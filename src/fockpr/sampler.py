"""Perturbed-lattice point-set constructions and small-angle experiments.

Each generator places samples inside Gaussian closeness budgets
``kappa_cap * exp(-gamma*|home|^2)`` around lattice points and records,
per sample, the absolute position, the float offset, and the offset in
units of the local budget (exact in log scale; see
:mod:`fockpr.pointset`).  Draws are addressed by ``(seed, index, label)``
through the counter-based streams of :mod:`fockpr.rng`, so a sample's
value does not depend on the window size.

Constructions:

* ``deterministic_triple`` -- equilateral triple at every lattice point;
* ``random_triple`` -- three independent disk draws per lattice point;
* ``real_pair`` -- two draws per point of a conjugation-closed lattice,
  with mirror triples (A, B, conj A') on the closed upper half plane;
* ``even_single`` -- one draw per nonzero point, with triples assembled
  from the conjugation and negation orbits on the closed first quadrant;
* ``density_opt_real`` / ``density_opt_even`` -- triples carried by an
  index-two (resp. index-four) sublattice, trading density against the
  symmetry used by the mirror constructions;
* ``three_lines`` -- equispaced samples on three concurrent lines with
  all sectors acute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, window_arrays
from .pointset import IndexedPointSet, TRIPLE_TAGS, median_angles, sample_points
from .rng import keyed_disk

__all__ = [
    "GeneratorConfig",
    "deterministic_triple",
    "random_triple",
    "real_pair",
    "even_single",
    "density_opt_real",
    "density_opt_even",
    "opt_real_lattices",
    "opt_even_lattice",
    "opt_even_sublattice_mask",
    "three_lines",
    "reflection_closure",
    "McReport",
    "mc_angle_bound",
    "mc_mirror_angle_bound",
]

_CUBE_ROOTS = (
    1.0 + 0.0j,
    complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)),
    complex(math.cos(4.0 * math.pi / 3.0), math.sin(4.0 * math.pi / 3.0)),
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Shared knobs of the perturbation generators."""

    lattice: Lattice
    window_radius: float
    gamma: float = 7.0
    kappa_cap: float = 1.0
    seed: int = 0

    def validate(self, alpha: float | None = None) -> None:
        """Sanity-check the budget; with ``alpha``, require ``gamma > 2*alpha``.

        The closeness weight must decay strictly faster than twice the
        space weight for the perturbed set to inherit the lattice's
        uniqueness behaviour; generators themselves only need positivity.
        """
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not (0.0 < self.kappa_cap <= 1.0):
            raise ValueError("kappa_cap must lie in (0, 1]")
        if not 0.0 < self.window_radius < math.inf:
            raise ValueError("window_radius must be positive and finite")
        if alpha is not None and self.gamma <= 2.0 * alpha:
            raise ValueError(
                f"gamma = {self.gamma} must exceed twice the weight 2*alpha = {2 * alpha}"
            )

    def _meta(self, construction: str, sample_tags: list[str]) -> dict:
        return {
            "construction": construction,
            "gamma": self.gamma,
            "kappa_cap": self.kappa_cap,
            "seed": self.seed,
            "sample_tags": sample_tags,
        }


def _budgets(cfg: GeneratorConfig, pts: np.ndarray) -> np.ndarray:
    """Float closeness budgets kappa_cap * exp(-gamma*|p|^2) (0 on underflow)."""
    with np.errstate(under="ignore"):
        return cfg.kappa_cap * np.exp(-cfg.gamma * np.abs(pts) ** 2)


def deterministic_triple(cfg: GeneratorConfig) -> IndexedPointSet:
    """Equilateral triple at every window point: offsets are the cube roots
    of unity scaled by the local budget, so every median angle is pi/3."""
    cfg.validate()
    idx, pts = window_arrays(cfg.lattice, cfg.window_radius)
    scale = _budgets(cfg, pts)
    ps = IndexedPointSet(cfg.lattice, cfg.window_radius, meta=cfg._meta("det3", list(TRIPLE_TAGS)))
    for tag, root in zip(TRIPLE_TAGS, _CUBE_ROOTS):
        d = scale * root
        _add_each(ps, idx, tag, pts + d, d, root)
    return ps


def random_triple(cfg: GeneratorConfig) -> IndexedPointSet:
    """Three independent area-uniform disk draws per window point."""
    cfg.validate()
    idx, pts = window_arrays(cfg.lattice, cfg.window_radius)
    scale = _budgets(cfg, pts)
    m, n = idx[:, 0], idx[:, 1]
    ps = IndexedPointSet(
        cfg.lattice, cfg.window_radius, meta=cfg._meta("rand3", list(TRIPLE_TAGS))
    )
    for label, tag in zip((1, 2, 3), TRIPLE_TAGS):
        units = keyed_disk(cfg.seed, m, n, label)
        deltas = scale * units
        _add_each(ps, idx, tag, pts + deltas, deltas, units)
    return ps


def _require_conjugation_closed(cfg: GeneratorConfig) -> None:
    if cfg.lattice.shift != 0:
        raise ValueError("construction requires an unshifted lattice")
    if not cfg.lattice.is_conjugation_closed():
        raise ValueError("construction requires a conjugation-closed lattice")


def real_pair(cfg: GeneratorConfig) -> IndexedPointSet:
    """Two draws per lattice point plus mirror triples on the upper half plane.

    Raw samples carry tags "1" and "2" at every window index (these are
    the point set; density twice the lattice density).  For every home
    point in the closed upper half plane the triple

        A = Z(home, 1),  B = Z(home, 2),  C = conj(Z(conj(home), 1))

    is recorded under tags "A", "B", "C"; for real home points C is the
    mirror image of A.  Requires a conjugation-closed lattice so the
    conjugated draw exists in the family.
    """
    cfg.validate()
    _require_conjugation_closed(cfg)
    idx, pts = window_arrays(cfg.lattice, cfg.window_radius)
    scale = _budgets(cfg, pts)
    m, n = idx[:, 0], idx[:, 1]
    ps = IndexedPointSet(cfg.lattice, cfg.window_radius, meta=cfg._meta("real2", ["1", "2"]))
    draws = []
    for label in (1, 2):
        units = keyed_disk(cfg.seed, m, n, label)
        deltas = scale * units
        draws.append((pts + deltas, deltas, units))
        _add_each(ps, idx, str(label), *draws[-1])
    here = np.flatnonzero(pts.imag >= -1e-9 * np.maximum(1.0, np.abs(pts)))
    bar = _window_rows(idx, cfg.lattice.indices_of(np.conj(pts[here])))
    for tag, (pos, delta, unit) in zip("AB", draws):
        _add_each(ps, idx[here], tag, pos[here], delta[here], unit[here])
    _add_each(ps, idx[here], "C", *(np.conj(col[bar]) for col in draws[0]))
    return ps


def even_single(cfg: GeneratorConfig) -> IndexedPointSet:
    """One draw per nonzero lattice point plus symmetry triples on the
    closed first quadrant.

    Raw samples carry tag "1" at every window index except the origin
    (density equal to the lattice density).  For every nonzero home point
    with nonnegative real and imaginary parts the triple

        A = Z(home),  B = conj(Z(conj(home))),  C = -Z(-home)

    is recorded; for real-axis home points B mirrors A.  Requires a
    conjugation-closed lattice (closure under negation included).
    """
    cfg.validate()
    _require_conjugation_closed(cfg)
    idx, pts = window_arrays(cfg.lattice, cfg.window_radius)
    scale = _budgets(cfg, pts)
    m, n = idx[:, 0], idx[:, 1]
    ps = IndexedPointSet(cfg.lattice, cfg.window_radius, meta=cfg._meta("even1", ["1"]))
    units = keyed_disk(cfg.seed, m, n, 1)
    deltas = scale * units
    pos = pts + deltas
    nonzero = (m != 0) | (n != 0)
    _add_each(ps, idx[nonzero], "1", pos[nonzero], deltas[nonzero], units[nonzero])
    tol = 1e-9 * np.maximum(1.0, np.abs(pts))
    here = np.flatnonzero(nonzero & (pts.real >= -tol) & (pts.imag >= -tol))
    bar = _window_rows(idx, cfg.lattice.indices_of(np.conj(pts[here])))
    neg = _window_rows(idx, cfg.lattice.indices_of(-pts[here]))
    _add_each(ps, idx[here], "A", pos[here], deltas[here], units[here])
    _add_each(ps, idx[here], "B", np.conj(pos[bar]), np.conj(deltas[bar]), np.conj(units[bar]))
    _add_each(ps, idx[here], "C", -pos[neg], -deltas[neg], -units[neg])
    return ps


def _add_each(ps: IndexedPointSet, idx: np.ndarray, tag: str, pos, delta, unit) -> None:
    """One ``ps.add`` per row of ``idx`` (shape (k, 2)), values taken row by row.

    ``unit`` may be one value for all rows, and a None ``pos`` means
    home + delta.  Each sample is its own O(1) :meth:`IndexedPointSet.add`
    call, the per-sample step that ``perfbench`` traces tally.
    """
    k = len(idx)
    pos = [None] * k if pos is None else pos.tolist()
    unit = np.broadcast_to(unit, k).tolist()
    for index, p, d, u in zip(idx.tolist(), pos, delta.tolist(), unit):
        ps.add(index, tag, pos=p, delta=d, unit=u)


def _window_rows(idx: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Row of each wanted lattice index (shape (k, 2)) in a window's index array."""
    pairs, inverse = np.unique(np.concatenate([idx, wanted]), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    row_of = np.full(len(pairs), -1)
    row_of[inverse[: len(idx)]] = np.arange(len(idx))
    rows = row_of[inverse[len(idx):]]
    if (rows < 0).any():
        raise KeyError(f"index {tuple(wanted[np.argmin(rows)].tolist())} is outside the window")
    return rows


# -- density-optimal variants -------------------------------------------------


def opt_real_lattices(v: float) -> tuple[Lattice, Lattice]:
    """Full frame ``v*(Z+iZ) + iv/2`` and its index-two sublattice.

    The sublattice (generated by ``v*(1-i)`` and ``v*(1+i)``, same shift)
    and its conjugate partition the full frame.
    """
    if not (0.0 < v < 0.5):
        raise ValueError("v must lie in (0, 1/2)")
    full = Lattice(v, v * 1j, shift=0.5j * v)
    sub = Lattice(v * (1 - 1j), v * (1 + 1j), shift=0.5j * v)
    return full, sub


def density_opt_real(
    v: float,
    window_radius: float,
    kappa_cap: float = 1.0,
    gamma: float = 7.0,
    seed: int = 0,
    mode: str = "random",
) -> IndexedPointSet:
    """Triples on an index-two sublattice: density ``3/(2 v^2)``.

    Placing the triple family on the sublattice whose conjugate fills the
    other half of the frame halves the density relative to the plain
    triple construction while keeping the mirror symmetry available.
    """
    _, sub = opt_real_lattices(v)
    cfg = GeneratorConfig(sub, window_radius, gamma=gamma, kappa_cap=kappa_cap, seed=seed)
    if mode == "random":
        ps = random_triple(cfg)
    elif mode == "det":
        ps = deterministic_triple(cfg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ps.meta["construction"] = "optreal"
    ps.meta["v"] = v
    return ps


def opt_even_lattice(v: float) -> Lattice:
    """Centered square frame ``v*(Z+iZ) + (v/2)*(1+i)`` (avoids the axes)."""
    if not (0.0 < v < 0.5):
        raise ValueError("v must lie in (0, 1/2)")
    return Lattice(v, v * 1j, shift=0.5 * v * (1 + 1j))


def opt_even_sublattice_mask(m, n):
    """Membership of frame index (m, n) in the index-four subfamily.

    Column classes mod 4 split by row sign so that the subfamily, its
    conjugate, its negative, and its negated conjugate partition the
    frame: columns {0, -2} mod 4 on nonnegative rows, {1, 3} mod 4
    (restricted to |column| >= 3) on negative rows.
    """
    m = np.asarray(m)
    n = np.asarray(n)
    top = (n >= 0) & (((m % 4 == 0) & (m >= 0)) | ((m % 4 == 2) & (m <= -2)))
    bot = (n <= -1) & (((m % 4 == 1) & (m <= -3)) | ((m % 4 == 3) & (m >= 3)))
    return top | bot


def density_opt_even(
    v: float,
    window_radius: float,
    kappa_cap: float | None = None,
    gamma: float = 7.0,
    seed: int = 0,
    mode: str = "random",
) -> IndexedPointSet:
    """Symmetry-orbit triples on an index-four subfamily: density ``3/(4 v^2)``.

    For every frame point ``lam`` in the subfamily, draws a, b, c close
    to ``lam`` are emitted as ``conj(a)``, ``-b``, ``-conj(c)`` homed at
    ``conj(lam)``, ``-lam``, ``-conj(lam)`` respectively.  The set's
    ``triple_fold`` metadata names those maps (each its own inverse), so
    certificates can regroup the triple at ``lam``.  With ``kappa_cap <=
    v/4`` (the default v/4) distinct home points stay at least ``v -
    2*kappa_cap >= v/2`` apart, giving the separation floor.
    """
    lat = opt_even_lattice(v)
    if kappa_cap is None:
        kappa_cap = v / 4.0
    if kappa_cap > v / 4.0:
        raise ValueError(f"kappa_cap = {kappa_cap} exceeds v/4 = {v / 4.0}")
    cfg = GeneratorConfig(lat, window_radius, gamma=gamma, kappa_cap=kappa_cap, seed=seed)
    cfg.validate()
    idx, pts = window_arrays(lat, window_radius)
    keep = opt_even_sublattice_mask(idx[:, 0], idx[:, 1])
    idx, pts = idx[keep], pts[keep]
    scale = _budgets(cfg, pts)
    m, n = idx[:, 0], idx[:, 1]
    meta = cfg._meta("opteven", list(TRIPLE_TAGS))
    meta["v"] = v
    meta["triple_fold"] = {"A": "conj", "B": "neg", "C": "negconj"}
    ps = IndexedPointSet(lat, window_radius, meta=meta)
    draws = []
    for label in (1, 2, 3):
        if mode == "random":
            units = keyed_disk(cfg.seed, m, n, label)
        elif mode == "det":
            units = np.full(len(pts), _CUBE_ROOTS[label - 1], dtype=complex)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        draws.append(units)
    ua, ub, uc = draws
    emits = (
        (m, -n - 1, "A", np.conj(scale * ua), np.conj(ua)),
        (-m - 1, -n - 1, "B", -(scale * ub), -ub),
        (-m - 1, n, "C", -np.conj(scale * uc), -np.conj(uc)),
    )
    for out_m, out_n, tag, d, u in emits:
        _add_each(ps, np.stack([out_m, out_n], axis=1), tag, None, d, u)
    return ps


# -- lines --------------------------------------------------------------------


def three_lines(angles, radius: float, pitch: float = 0.1) -> np.ndarray:
    """Equispaced samples on three concurrent lines through the origin.

    ``angles`` are the line directions (taken mod pi); all six sectors
    they cut must be strictly acute, which happens exactly when the three
    successive gaps (cyclically, summing to pi) are below pi/2.  Returns
    the origin plus ``t * exp(i*angle)`` for ``t = +-pitch, ..., +-K*pitch``
    up to the radius, ordered by modulus then argument.
    """
    angles = [float(a) % math.pi for a in angles]
    if len(angles) != 3:
        raise ValueError("exactly three line angles required")
    a = sorted(angles)
    gaps = (a[1] - a[0], a[2] - a[1], math.pi - (a[2] - a[0]))
    if min(gaps) <= 1e-12:
        raise ValueError("line angles must be distinct mod pi")
    if max(gaps) >= math.pi / 2.0:
        raise ValueError("a pair of lines spans a sector of at least a right angle")
    if radius <= 0 or pitch <= 0:
        raise ValueError("radius and pitch must be positive")
    k = int(math.floor(radius / pitch + 1e-9))
    t = pitch * np.arange(1, k + 1)
    chunks = [np.zeros(1, dtype=complex)]
    for ang in a:
        e = complex(math.cos(ang), math.sin(ang))
        chunks.append(t * e)
        chunks.append(-t * e)
    pts = np.concatenate(chunks)
    order = np.lexsort((np.angle(pts), np.abs(pts)))
    return pts[order]


def reflection_closure(obj, mode: str) -> np.ndarray:
    """Close a point family under conjugation ("half") or under
    conjugation and negation ("quarter"); exact duplicates collapse."""
    pts = sample_points(obj) if isinstance(obj, IndexedPointSet) else np.asarray(obj, dtype=complex).ravel()
    if mode == "half":
        out = np.concatenate([pts, np.conj(pts)])
    elif mode == "quarter":
        out = np.concatenate([pts, np.conj(pts), -pts, -np.conj(pts)])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return np.unique(out)


# -- Monte Carlo small-angle experiments --------------------------------------

# Trials drawn per batch.  ``Generator.random`` fills rows in order from
# one Philox stream, so the draws and the hit count do not depend on it;
# it only bounds the working set.
_MC_BATCH = 1 << 14


@dataclass(frozen=True)
class McReport:
    variant: str
    trials: int
    epsilon: float
    seed: int
    hits: int
    p_hat: float
    stderr: float
    bound: float
    passed: bool


def _mc_run(variant: str, trials: int, epsilon: float, seed: int) -> McReport:
    if trials < 1:
        raise ValueError("trials must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    remaining = trials
    while remaining > 0:
        count = min(remaining, _MC_BATCH)
        if variant == "independent":
            u = rng.random((count, 6))
            a = np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
            b = np.sqrt(u[:, 2]) * np.exp(2j * np.pi * u[:, 3])
            c = np.sqrt(u[:, 4]) * np.exp(2j * np.pi * u[:, 5])
        else:
            u = rng.random((count, 4))
            a = np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
            b = np.sqrt(u[:, 2]) * np.exp(2j * np.pi * u[:, 3])
            c = np.conj(a)
        ang = median_angles(a, b, c)
        hits += int(np.count_nonzero(ang < epsilon))
        remaining -= count
    p_hat = hits / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    bound = 4.0 * epsilon
    passed = bound >= 1.0 or (p_hat + 3.0 * stderr) <= bound
    return McReport(
        variant=variant,
        trials=trials,
        epsilon=epsilon,
        seed=seed,
        hits=hits,
        p_hat=p_hat,
        stderr=stderr,
        bound=bound,
        passed=passed,
    )


def mc_angle_bound(trials: int, epsilon: float, seed: int = 0) -> McReport:
    """Estimate P[median angle < eps] for three independent unit-disk
    draws and test it against the linear bound 4*eps."""
    return _mc_run("independent", trials, epsilon, seed)


def mc_mirror_angle_bound(trials: int, epsilon: float, seed: int = 0) -> McReport:
    """Mirror variant: the third vertex is the conjugate of the first."""
    return _mc_run("mirror", trials, epsilon, seed)
