"""Perturbed-lattice point-set constructions and small-angle experiments.

Each generator places samples inside Gaussian closeness budgets
``kappa_cap * exp(-gamma*|home|^2)`` around lattice points.  It stores,
per sample, only the offset in units of the local budget, a point of the
unit disk; the set's metadata records ``gamma`` and ``kappa_cap``, from
which :mod:`fockpr.pointset` derives the float offset and the position
(the unit offset and the budget stay exact in log scale where those
collapse).  Each generator makes its set before it enumerates the window,
so the set's one header check refuses a bad budget or radius first.
Draws are addressed by ``(seed, index, label)`` through the counter-based
streams of :mod:`fockpr.rng`, so a sample's value does not depend on the
window size.  A mirrored sample is drawn by its key too: the fold
(``pointset.FOLDS``) of the draw at the folded lattice index.

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

The Monte Carlo experiments (``mc_angle_bound``, ``mc_mirror_angle_bound``)
count exactly the trials whose float64 median angle is below epsilon; an
exact float32 prefilter (``_maybe_hits``) spares the float64 test the
trials that cannot be hits.  The float64 test takes the median angles of
the kept trials from numpy's ``arctan2`` in one pass, and decides again
with ``math.atan2`` the few within ``_MC_RECHECK`` (1e-12) of epsilon,
where the last bits of the two could disagree (``_mc_hits``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lattice import Lattice, modulus_order, window_arrays
from .pointset import (
    FOLDS,
    IndexedPointSet,
    TRIPLE_TAGS,
    median_angles,
    sample_identities,
    sample_points,
)
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
# rows of a tag that _add_each takes per Python list
_ADD_BLOCK = 1 << 12


class GeneratorConfig(NamedTuple):
    """Shared knobs of the perturbation generators; the set a generator makes checks
    the window and the budget."""

    lattice: Lattice
    window_radius: float
    gamma: float = 7.0
    kappa_cap: float = 1.0
    seed: int = 0

    def _meta(self, construction: str, sample_tags: list[str]) -> dict:
        return {
            "construction": construction,
            "gamma": self.gamma,
            "kappa_cap": self.kappa_cap,
            "seed": self.seed,
            "sample_tags": sample_tags,
        }


def deterministic_triple(cfg: GeneratorConfig) -> IndexedPointSet:
    """Equilateral triple at every window point: offsets are the cube roots
    of unity scaled by the local budget, so every median angle is pi/3."""
    return _triples(cfg, "det3", "det")


def random_triple(cfg: GeneratorConfig) -> IndexedPointSet:
    """Three independent area-uniform disk draws per window point."""
    return _triples(cfg, "rand3", "random")


def _triples(cfg: GeneratorConfig, construction: str, mode: str, **meta) -> IndexedPointSet:
    """A, B and C samples at every window point, their offsets by ``mode`` (see ``_units``)."""
    meta = {**cfg._meta(construction, list(TRIPLE_TAGS)), **meta}
    ps = IndexedPointSet(cfg.lattice, cfg.window_radius, meta=meta)
    idx, _ = window_arrays(cfg.lattice, cfg.window_radius)
    for tag, units in zip(TRIPLE_TAGS, _units(cfg, idx, mode)):
        _add_each(ps, idx, tag, units)
    return ps


def _units(cfg: GeneratorConfig, idx: np.ndarray, mode: str) -> list[np.ndarray]:
    """The A, B and C unit offsets at each lattice index of ``idx`` (shape (k, 2)).

    ``"random"`` takes the keyed draws of labels 1, 2 and 3, ``"det"`` the
    cube roots of unity.
    """
    if mode == "random":
        return [keyed_disk(cfg.seed, idx[:, 0], idx[:, 1], label) for label in (1, 2, 3)]
    if mode == "det":
        return [np.full(len(idx), root) for root in _CUBE_ROOTS]
    raise ValueError(f"unknown mode {mode!r}")


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
    ps = IndexedPointSet(cfg.lattice, cfg.window_radius, meta=cfg._meta("real2", ["1", "2"]))
    _require_conjugation_closed(cfg)
    idx, pts = window_arrays(cfg.lattice, cfg.window_radius)
    m, n = idx[:, 0], idx[:, 1]
    draws = [keyed_disk(cfg.seed, m, n, label) for label in (1, 2)]
    for label, units in zip("12", draws):
        _add_each(ps, idx, label, units)
    here = np.flatnonzero(pts.imag >= -1e-9 * np.maximum(1.0, np.abs(pts)))
    for tag, units in zip("AB", draws):
        _add_each(ps, idx[here], tag, units[here])
    _add_each(ps, idx[here], "C", _mirrored(cfg, idx[here], "conj", 1))
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
    ps = IndexedPointSet(cfg.lattice, cfg.window_radius, meta=cfg._meta("even1", ["1"]))
    _require_conjugation_closed(cfg)
    idx, pts = window_arrays(cfg.lattice, cfg.window_radius)
    m, n = idx[:, 0], idx[:, 1]
    units = keyed_disk(cfg.seed, m, n, 1)
    nonzero = (m != 0) | (n != 0)
    _add_each(ps, idx[nonzero], "1", units[nonzero])
    tol = 1e-9 * np.maximum(1.0, np.abs(pts))
    here = np.flatnonzero(nonzero & (pts.real >= -tol) & (pts.imag >= -tol))
    _add_each(ps, idx[here], "A", units[here])
    _add_each(ps, idx[here], "B", _mirrored(cfg, idx[here], "conj", 1))
    _add_each(ps, idx[here], "C", _mirrored(cfg, idx[here], "neg", 1))
    return ps


def _folded(lattice: Lattice, fold: str, idx: np.ndarray) -> np.ndarray:
    """Lattice indices (shape (k, 2)) of the ``FOLDS[fold]`` images of the points at ``idx``."""
    return lattice.indices_of(FOLDS[fold](lattice.point(idx.T)))


def _mirrored(cfg: GeneratorConfig, idx: np.ndarray, fold: str, label: int) -> np.ndarray:
    """``fold(Z(fold(home), label))`` at each home index of ``idx``: the draw at
    the folded index, taken by its key, then folded back."""
    m, n = _folded(cfg.lattice, fold, idx).T
    return FOLDS[fold](keyed_disk(cfg.seed, m, n, label))


def _add_each(ps: IndexedPointSet, idx: np.ndarray, tag: str, units: np.ndarray) -> None:
    """One ``ps.add`` per row of ``idx`` (shape (k, 2)) with the unit offset of that row.

    Each sample is its own :meth:`IndexedPointSet.add` call, one append to
    the set's typed buffers and the per-sample step that ``perfbench``
    traces tally; the set checks the rows at its next column read.  The
    columns ``m``, ``n`` and ``units`` are walked as flat ``.tolist()``
    slices of ``_ADD_BLOCK`` rows, so only one block of them is held as
    Python objects at a time.
    """
    for start in range(0, len(idx), _ADD_BLOCK):
        block = slice(start, start + _ADD_BLOCK)
        for m, n, u in zip(idx[block, 0].tolist(), idx[block, 1].tolist(), units[block].tolist()):
            ps.add((m, n), tag, u)


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
    return _triples(cfg, "optreal", mode, v=v)


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
    folds = {"A": "conj", "B": "neg", "C": "negconj"}
    meta = {**cfg._meta("opteven", list(TRIPLE_TAGS)), "v": v, "triple_fold": folds}
    ps = IndexedPointSet(lat, window_radius, meta=meta)
    idx, _ = window_arrays(lat, window_radius)
    idx = idx[opt_even_sublattice_mask(idx[:, 0], idx[:, 1])]
    for (tag, fold), units in zip(folds.items(), _units(cfg, idx, mode)):
        _add_each(ps, _folded(lat, fold, idx), tag, FOLDS[fold](units))
    return ps


# -- lines --------------------------------------------------------------------


def three_lines(angles, radius: float, pitch: float = 0.1) -> np.ndarray:
    """Equispaced samples on three concurrent lines through the origin.

    ``angles`` are the line directions (taken mod pi); all six sectors
    they cut must be strictly acute, which happens exactly when the three
    successive gaps (cyclically, summing to pi) are below pi/2.  Returns
    the origin plus ``t * exp(i*angle)`` for ``t = +-pitch, ..., +-K*pitch``
    up to the radius, in :func:`~fockpr.lattice.modulus_order`.
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
    return pts[modulus_order(pts)]


def reflection_closure(obj, mode: str) -> np.ndarray:
    """Close a point family under conjugation ("half") or under
    conjugation and negation ("quarter").

    On a set each sample and each image is the pair (home point, unit
    offset) under the map, and an image collapses only onto a sample or
    an earlier image with an equal pair, compared by value.  Samples whose
    float positions coincide, as far ones on a Gaussian budget do, all
    stay.  The positions come out samples first, then each map's new
    images.  On a plain array exact duplicates collapse, in sorted order.
    """
    if mode not in ("half", "quarter"):
        raise ValueError(f"unknown mode {mode!r}")
    folds = ["conj"] + (["neg", "negconj"] if mode == "quarter" else [])

    def closed(z: np.ndarray) -> np.ndarray:
        return np.concatenate([z] + [FOLDS[fold](z) for fold in folds])

    if not isinstance(obj, IndexedPointSet):
        return np.unique(closed(np.asarray(obj, dtype=complex).ravel()))
    homes, units = map(closed, sample_identities(obj))
    # adding 0.0 turns -0.0 into 0.0, so the pairs compare by value
    pairs = np.stack([homes.real, homes.imag, units.real, units.imag], axis=1) + 0.0
    _, first = np.unique(pairs, axis=0, return_index=True)
    return closed(sample_points(obj))[np.sort(first)]


# -- Monte Carlo small-angle experiments --------------------------------------

# Trials drawn per batch.  ``Generator.random`` fills rows in order from
# one Philox stream, so the draws and the hit count do not depend on it;
# it only bounds the working set.
_MC_BATCH = 1 << 14


class McReport(NamedTuple):
    variant: str
    trials: int
    epsilon: float
    seed: int
    hits: int
    p_hat: float
    stderr: float
    bound: float
    passed: bool


# The prefilter of ``_maybe_hits``: its angle margin (radians), the
# shortest float32 side it decides on, and the least ``epsilon + margin``
# at which it keeps every row.
_MC_MARGIN = 2e-3
_MC_SHORT_SIDE = 1e-2
_MC_FILTER_LIMIT = 1.4
# float64 median angles within this of epsilon are decided again on the
# exact form of median_angles (see _mc_hits)
_MC_RECHECK = 1e-12


def _mc_vertices(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle vertices of draws ``u``: columns (r^2, turns) per disk point.

    Six columns give three independent points; four give a and b, with
    ``c = conj(a)`` (the mirror variant).
    """
    a = np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    b = np.sqrt(u[:, 2]) * np.exp(2j * np.pi * u[:, 3])
    c = np.sqrt(u[:, 4]) * np.exp(2j * np.pi * u[:, 5]) if u.shape[1] == 6 else np.conj(a)
    return a, b, c


def _maybe_hits(u: np.ndarray, epsilon: float) -> np.ndarray:
    """Mask of the rows of draws ``u`` that can be hits, decided in float32.

    The median angle is below ``epsilon`` exactly when two of the three
    vertex angles are.  Each vertex with arms p, q passes when
    ``|cross(p, q)| < tan(epsilon + m) * dot(p, q)``, its float32 angle
    below ``epsilon + m`` (m = ``_MC_MARGIN``); a row is kept when two
    vertices pass or a side is shorter than ``s = _MC_SHORT_SIDE``.

    No hit is dropped.  The float32 points lie within about 1e-6 of the
    float64 ones (casting u, the square root, the argument 2*pi*u <= 2*pi
    and a few-ulp cos and sin, each a few times 2**-24), which lie within
    1e-15 of the true ones.  An arm of a dropped row is at least s - 3e-6
    long in truth, so its float32 copy (both ends moved, then rounded on
    subtraction) turns it by at most asin(2.3e-6 / 0.99e-2) < 2.4e-4, and a
    vertex angle moves by at most twice that.  Forming the cross and dot
    products and ``tan(epsilon + m) * dot`` in float32 moves the decided
    angle by about 1e-6 more: in all below 6e-4 < m.  So a vertex whose
    float64 angle is below ``epsilon`` passes, and a true hit is kept.
    At ``epsilon + m >= _MC_FILTER_LIMIT`` every row is kept.
    """
    if epsilon + _MC_MARGIN >= _MC_FILTER_LIMIT:
        return np.ones(len(u), dtype=bool)
    u32 = u.astype(np.float32)

    def vertex(j: int) -> tuple[np.ndarray, np.ndarray]:
        r = np.sqrt(u32[:, j])
        turn = np.float32(2.0 * np.pi) * u32[:, j + 1]
        return r * np.cos(turn), r * np.sin(turn)

    ax, ay = vertex(0)
    bx, by = vertex(2)
    cx, cy = vertex(4) if u.shape[1] == 6 else (ax, -ay)
    abx, aby, acx, acy, bcx, bcy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
    t = np.float32(math.tan(epsilon + _MC_MARGIN))
    # the arms of a, b and c are (ab, ac), (-ab, bc) and (-ac, -bc)
    pass_a = np.abs(abx * acy - aby * acx) < t * (abx * acx + aby * acy)
    pass_b = np.abs(abx * bcy - aby * bcx) < -t * (abx * bcx + aby * bcy)
    pass_c = np.abs(acx * bcy - acy * bcx) < t * (acx * bcx + acy * bcy)
    s2 = np.float32(_MC_SHORT_SIDE**2)
    short = (
        (abx * abx + aby * aby < s2) | (acx * acx + acy * acy < s2) | (bcx * bcx + bcy * bcy < s2)
    )
    return (pass_a & (pass_b | pass_c)) | (pass_b & pass_c) | short


def _mc_hits(u: np.ndarray, epsilon: float) -> int:
    """How many rows of draws ``u`` have a float64 median angle below ``epsilon``.

    The prefilter drops rows that cannot be hits.  The kept rows' median
    angles are formed in one numpy pass (``median_angles(exact=False)``),
    which lies within a few ulp of the exact one, far below
    ``_MC_RECHECK``.  A row farther than that from ``epsilon`` is decided
    on it; the rest are decided again on the exact form, so the count is
    that of the exact median angles on every machine.
    """
    a, b, c = _mc_vertices(u[_maybe_hits(u, epsilon)])
    ang = median_angles(a, b, c, exact=False)
    near = np.abs(ang - epsilon) <= _MC_RECHECK
    exact = median_angles(a[near], b[near], c[near])
    return int(np.count_nonzero(ang[~near] < epsilon) + np.count_nonzero(exact < epsilon))


def _mc_run(variant: str, trials: int, epsilon: float, seed: int) -> McReport:
    if trials < 1:
        raise ValueError("trials must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed))
    columns = 6 if variant == "independent" else 4
    hits = 0
    remaining = trials
    while remaining > 0:
        count = min(remaining, _MC_BATCH)
        # u stays bound while the next batch is drawn: freed first, its pages
        # go back to the system and fault in again for every batch
        u = rng.random((count, columns))
        hits += _mc_hits(u, epsilon)
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
