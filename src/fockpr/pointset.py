"""Indexed point sets over a lattice and their geometric certificates.

A point set stores, for each lattice index and tag, a position near the
home lattice point.  The exact offset from the home point is kept
alongside the absolute position: for Gaussian-decay offsets the absolute
position collapses onto the lattice point in floating point once the
offset drops below one ulp of the position, and the certificates below
(triangle angles, closeness constants) must survive that regime.

Certificates:

* ``certify_f_closeness`` -- least constant ``kappa`` with
  ``|p - home| <= kappa * exp(-gamma*|home|^2)`` for a tag family;
* ``angle_condition`` -- median triangle angle of each (A, B, C) triple
  against the weighted ratio ``|home| * exp(-beta*|home|^2) / angle``;
* ``separation`` -- minimal pairwise distance;
* ``density_estimate`` -- disk-count density with residuals;
* ``relative_separation_bound`` -- certified upper bound on points per
  unit disk.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lattice import Lattice, LatticeIndex

__all__ = [
    "PointEntry",
    "IndexedPointSet",
    "median_angle",
    "median_angles",
    "ClosenessReport",
    "AngleReport",
    "SeparationReport",
    "DensityReport",
    "certify_f_closeness",
    "angle_condition",
    "separation",
    "density_estimate",
    "relative_separation_bound",
    "uniform_closeness_delta",
    "sample_points",
]

TRIPLE_TAGS = ("A", "B", "C")


@dataclass(frozen=True)
class PointEntry:
    """Position of one sample.

    ``delta`` is the offset from the home lattice point as a plain float
    pair (it underflows to 0 once the offset drops below about 1e-308).
    ``unit`` is the offset divided by the local closeness budget
    ``kappa_cap * exp(-gamma*|home|^2)`` (a point of the closed unit
    disk); together with the set metadata it represents Gaussian-small
    offsets exactly in log scale, long after ``delta`` has collapsed.
    """

    pos: complex
    delta: complex | None = None
    unit: complex | None = None


class IndexedPointSet:
    """Samples keyed by (lattice index, tag)."""

    def __init__(self, lattice: Lattice, window_radius: float, meta: dict | None = None):
        if window_radius <= 0:
            raise ValueError("window_radius must be positive")
        self.lattice = lattice
        self.window_radius = float(window_radius)
        self.meta: dict = dict(meta or {})
        self._entries: dict[tuple[LatticeIndex, str], PointEntry] = {}

    # -- container ---------------------------------------------------------

    def add(
        self,
        index: tuple[int, int],
        tag: str,
        pos: complex | None = None,
        delta: complex | None = None,
        unit: complex | None = None,
    ) -> None:
        """Insert a sample; give ``pos``, ``delta``, or both (consistent)."""
        idx = LatticeIndex(int(index[0]), int(index[1]))
        home = self.lattice.point(idx)
        if abs(home) > self.window_radius + 1e-9:
            raise ValueError(f"home point {home} of index {tuple(idx)} outside window")
        if pos is None:
            if delta is None:
                raise ValueError("need pos or delta")
            pos = home + delta
        key = (idx, tag)
        if key in self._entries:
            raise ValueError(f"duplicate entry for index {tuple(idx)} tag {tag!r}")
        self._entries[key] = PointEntry(
            complex(pos),
            None if delta is None else complex(delta),
            None if unit is None else complex(unit),
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[tuple[int, int], str]) -> bool:
        (m, n), tag = key
        return (LatticeIndex(int(m), int(n)), tag) in self._entries

    def get(self, index: tuple[int, int], tag: str) -> PointEntry:
        return self._entries[(LatticeIndex(int(index[0]), int(index[1])), tag)]

    def items(self) -> Iterable[tuple[tuple[LatticeIndex, str], PointEntry]]:
        return self._entries.items()

    def tags(self) -> list[str]:
        return sorted({tag for (_, tag) in self._entries})

    def indices(self, tags: Sequence[str] | None = None) -> list[LatticeIndex]:
        """Distinct indices carrying at least one entry (of the given tags)."""
        seen: dict[LatticeIndex, None] = {}
        for (idx, tag) in self._entries:
            if tags is None or tag in tags:
                seen.setdefault(idx, None)
        return sorted(seen, key=lambda i: (i.m, i.n))

    def points(self, tags: Sequence[str] | None = None) -> np.ndarray:
        """Positions as a complex array, canonically ordered by (m, n, tag)."""
        keys = sorted(
            (k for k in self._entries if tags is None or k[1] in tags),
            key=lambda k: (k[0].m, k[0].n, k[1]),
        )
        return np.array([self._entries[k].pos for k in keys], dtype=complex)

    def offset(self, index: tuple[int, int], tag: str) -> complex:
        """Offset from home: stored delta when present, positional difference otherwise."""
        idx = LatticeIndex(int(index[0]), int(index[1]))
        e = self._entries[(idx, tag)]
        if e.delta is not None:
            return e.delta
        return e.pos - self.lattice.point(idx)

    def log_offset_magnitude(self, index: tuple[int, int], tag: str) -> float:
        """Natural log of the offset magnitude, exact in the underflow regime.

        When the entry carries a unit-disk offset and the set metadata
        records ``gamma`` and ``kappa_cap``, the magnitude is
        ``kappa_cap * |unit| * exp(-gamma*|home|^2)`` evaluated in the log
        domain; otherwise it falls back to the float offset.
        """
        idx = LatticeIndex(int(index[0]), int(index[1]))
        e = self._entries[(idx, tag)]
        gamma = self.meta.get("gamma")
        kappa_cap = self.meta.get("kappa_cap")
        if e.unit is not None and gamma is not None and kappa_cap is not None:
            au = abs(e.unit)
            if au == 0.0 or kappa_cap == 0.0:
                return -math.inf
            home = self.lattice.point(idx)
            return math.log(kappa_cap) + math.log(au) - gamma * abs(home) ** 2
        d = abs(self.offset(index, tag))
        return -math.inf if d == 0.0 else math.log(d)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        points = []
        for (idx, tag) in sorted(self._entries, key=lambda k: (k[0].m, k[0].n, k[1])):
            e = self._entries[(idx, tag)]
            rec: dict = {
                "index": [idx.m, idx.n],
                "tag": tag,
                "pos": [e.pos.real, e.pos.imag],
            }
            if e.delta is not None:
                rec["delta"] = [e.delta.real, e.delta.imag]
            if e.unit is not None:
                rec["unit"] = [e.unit.real, e.unit.imag]
            points.append(rec)
        out: dict = {
            "lattice": self.lattice.to_json(),
            "window_radius": self.window_radius,
            "points": points,
        }
        if self.meta:
            out["meta"] = dict(sorted(self.meta.items()))
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "IndexedPointSet":
        lat = Lattice.from_json(data["lattice"])
        ps = cls(lat, float(data["window_radius"]), meta=data.get("meta"))
        for rec in data["points"]:
            delta = rec.get("delta")
            unit = rec.get("unit")
            ps.add(
                tuple(rec["index"]),
                rec["tag"],
                pos=complex(rec["pos"][0], rec["pos"][1]),
                delta=None if delta is None else complex(delta[0], delta[1]),
                unit=None if unit is None else complex(unit[0], unit[1]),
            )
        return ps

    def to_csv(self, path) -> None:
        """Rows ``m,n,tag,re,im`` with 17-significant-digit floats."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "n", "tag", "re", "im"])
            for (idx, tag) in sorted(self._entries, key=lambda k: (k[0].m, k[0].n, k[1])):
                e = self._entries[(idx, tag)]
                writer.writerow(
                    [idx.m, idx.n, tag, format(e.pos.real, ".17g"), format(e.pos.imag, ".17g")]
                )


# -- triangle angles ---------------------------------------------------------


def median_angles(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Median interior angle of the triangles (a, b, c), elementwise.

    Degenerate triangles (collinear or with coincident vertices) yield 0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)

    def vertex_angle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = np.conj(u) * v
        # a vanishing arm must give 0, not arctan2(+0, -0.0) = pi
        return np.where(np.abs(w) == 0.0, 0.0, np.arctan2(np.abs(w.imag), w.real))

    ang_a = vertex_angle(b - a, c - a)
    ang_b = vertex_angle(a - b, c - b)
    ang_c = vertex_angle(a - c, b - c)
    total = ang_a + ang_b + ang_c
    hi = np.maximum(np.maximum(ang_a, ang_b), ang_c)
    lo = np.minimum(np.minimum(ang_a, ang_b), ang_c)
    return total - hi - lo


def median_angle(a: complex, b: complex, c: complex) -> float:
    return float(median_angles(np.array([a]), np.array([b]), np.array([c]))[0])


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class ClosenessReport:
    gamma: float
    tag: str
    kappa: float
    log_kappa: float
    worst_index: tuple[int, int] | None
    count: int
    window_radius: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "tag": self.tag,
            "kappa": self.kappa,
            "log_kappa": self.log_kappa,
            "worst_index": None if self.worst_index is None else list(self.worst_index),
            "count": self.count,
            "window_radius": self.window_radius,
            "passed": self.passed,
        }


def certify_f_closeness(
    ps: IndexedPointSet, gamma: float, tag: str, kappa_cap: float | None = None
) -> ClosenessReport:
    """Least ``kappa`` with ``|offset| <= kappa * exp(-gamma*|home|^2)`` on a tag family.

    Computed in the log domain so that Gaussian-small offsets at large
    home points neither underflow nor overflow.  ``passed`` means the
    constant is finite, and additionally at most ``kappa_cap`` when a cap
    is supplied.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    keys = [k for k in ps._entries if k[1] == tag]
    if not keys:
        raise ValueError(f"no entries with tag {tag!r}")
    log_terms = np.empty(len(keys))
    for i, key in enumerate(keys):
        idx, _ = key
        home = ps.lattice.point(idx)
        log_terms[i] = ps.log_offset_magnitude(idx, tag) + gamma * abs(home) ** 2
    best = int(np.argmax(log_terms))
    log_kappa = float(log_terms[best])
    kappa = math.exp(log_kappa) if log_kappa < 709.0 else math.inf
    if log_kappa == -math.inf:
        kappa, worst = 0.0, None
    else:
        worst = (keys[best][0].m, keys[best][0].n)
    passed = math.isfinite(kappa)
    if kappa_cap is not None:
        passed = passed and kappa <= kappa_cap * (1.0 + 1e-12)
    return ClosenessReport(
        gamma=gamma,
        tag=tag,
        kappa=kappa,
        log_kappa=log_kappa,
        worst_index=worst,
        count=len(keys),
        window_radius=ps.window_radius,
        passed=passed,
    )


@dataclass(frozen=True)
class AngleReport:
    beta: float
    theta_min: float
    sup_ratio: float
    worst_index: tuple[int, int] | None
    count: int
    window_radius: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.sup_ratio)

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "theta_min": self.theta_min,
            "sup_ratio": self.sup_ratio,
            "worst_index": None if self.worst_index is None else list(self.worst_index),
            "count": self.count,
            "window_radius": self.window_radius,
            "passed": self.passed,
        }


def angle_condition(ps: IndexedPointSet, beta: float) -> AngleReport:
    """Median-angle condition over all (A, B, C) triples of the set.

    For each index carrying the triple tags, the median interior angle
    ``theta`` of the triangle is computed from stored offsets (exact even
    when positions collapse in floating point: unit-disk offsets span a
    triangle similar to the true one, so the angles agree) and compared
    against the weight: ``ratio = |home| * exp(-beta*|home|^2) / theta``.
    Conventions: home == 0 contributes ratio 0 regardless of the angle; a
    degenerate triangle at home != 0 contributes ratio +inf.  An index
    carrying only part of the triple is an error, as is a window smaller
    than ``4/sqrt(beta)`` (too small to contain the extremal region of
    the weight).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if ps.window_radius < 4.0 / math.sqrt(beta):
        raise ValueError(
            f"window radius {ps.window_radius} below 4/sqrt(beta) = {4.0 / math.sqrt(beta)}"
        )
    indices = ps.indices(tags=TRIPLE_TAGS)
    if not indices:
        raise ValueError("set has no A/B/C entries")
    theta_min = math.inf
    sup_ratio = 0.0
    worst: tuple[int, int] | None = None
    for idx in indices:
        missing = [t for t in TRIPLE_TAGS if (idx, t) not in ps._entries]
        if missing:
            raise ValueError(f"index {tuple(idx)} is missing triple tags {missing}")
        home = ps.lattice.point(idx)
        entries = [ps.get(idx, t) for t in TRIPLE_TAGS]
        if all(e.unit is not None for e in entries):
            verts = [e.unit for e in entries]
        elif all(e.delta is not None for e in entries):
            verts = [e.delta for e in entries]
        else:
            verts = [e.pos for e in entries]
        theta = median_angle(*verts)
        theta_min = min(theta_min, theta)
        r = abs(home)
        if r == 0.0:
            ratio = 0.0
        elif theta == 0.0:
            ratio = math.inf
        else:
            ratio = r * math.exp(-beta * r * r) / theta
        if ratio > sup_ratio or worst is None:
            sup_ratio = ratio
            worst = (idx.m, idx.n)
    return AngleReport(
        beta=beta,
        theta_min=theta_min,
        sup_ratio=sup_ratio,
        worst_index=worst,
        count=len(indices),
        window_radius=ps.window_radius,
    )


@dataclass(frozen=True)
class SeparationReport:
    delta: float
    pair: tuple[complex, complex]
    count: int

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "pair": [[p.real, p.imag] for p in self.pair],
            "count": self.count,
        }


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, IndexedPointSet):
        return obj.points()
    return np.asarray(obj, dtype=complex).ravel()


def separation(obj: IndexedPointSet | np.ndarray) -> SeparationReport:
    """Minimal pairwise distance over all positions (coincidences give 0)."""
    pts = _as_points(obj)
    if len(pts) < 2:
        raise ValueError("separation needs at least two points")
    from scipy.spatial import cKDTree  # deferred: scipy loads only for certificates

    xy = np.stack([pts.real, pts.imag], axis=1)
    tree = cKDTree(xy)
    dists, nbrs = tree.query(xy, k=2)
    i = int(np.argmin(dists[:, 1]))
    j = int(nbrs[i, 1])
    return SeparationReport(
        delta=float(dists[i, 1]), pair=(complex(pts[i]), complex(pts[j])), count=len(pts)
    )


@dataclass(frozen=True)
class DensityReport:
    center: complex
    radii: tuple[float, ...]
    counts: tuple[int, ...]
    estimates: tuple[float, ...]
    fitted_density: float
    max_residual: float

    def to_json(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "radii": list(self.radii),
            "counts": list(self.counts),
            "estimates": list(self.estimates),
            "fitted_density": self.fitted_density,
            "max_residual": self.max_residual,
        }


def density_estimate(
    obj: IndexedPointSet | np.ndarray,
    center: complex = 0j,
    radii: Sequence[float] = (),
) -> DensityReport:
    """Disk-count density estimates ``#(|p - center| <= r) / (pi r^2)``.

    The fitted density is the estimate at the largest radius; residuals
    of the smaller radii against it quantify boundary effects.  Radii
    reaching outside a set's window would count into truncated territory
    and are rejected.
    """
    if not radii:
        raise ValueError("need at least one radius")
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if isinstance(obj, IndexedPointSet):
        reach = max(abs(complex(center)) + r for r in radii)
        if reach > obj.window_radius + 1e-9:
            raise ValueError(
                f"density disk (reach {reach}) exceeds window radius {obj.window_radius}"
            )
    pts = _as_points(obj)
    dist = np.abs(pts - complex(center)) if len(pts) else np.empty(0)
    counts = tuple(int(np.count_nonzero(dist <= r)) for r in radii)
    estimates = tuple(c / (math.pi * r * r) for c, r in zip(counts, radii))
    fitted = estimates[int(np.argmax(radii))]
    max_residual = max(abs(e - fitted) for e in estimates)
    return DensityReport(
        center=complex(center),
        radii=radii,
        counts=counts,
        estimates=estimates,
        fitted_density=fitted,
        max_residual=max_residual,
    )


def relative_separation_bound(obj: IndexedPointSet | np.ndarray) -> int:
    """Certified upper bound on the number of points in any closed unit disk.

    Checks disks of radius 1.25 on a pitch-0.25 grid covering the points;
    any unit disk is contained in one of them, so the grid maximum bounds
    the true supremum (coarsely: for the integer grid the bound is at
    most 9 while the exact supremum is 5).
    """
    pts = _as_points(obj)
    if len(pts) == 0:
        return 0
    from scipy.spatial import cKDTree

    xy = np.stack([pts.real, pts.imag], axis=1)
    tree = cKDTree(xy)
    pitch = 0.25
    xs = np.arange(xy[:, 0].min() - 1.0, xy[:, 0].max() + 1.0 + pitch, pitch)
    ys = np.arange(xy[:, 1].min() - 1.0, xy[:, 1].max() + 1.0 + pitch, pitch)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    counts = tree.query_ball_point(centers, r=1.25, return_length=True)
    return int(np.max(counts))


def sample_points(ps: IndexedPointSet) -> np.ndarray:
    """Positions of the raw sample family.

    Derived constructions store both the underlying draws and the triples
    assembled from them by symmetry; the metadata key ``sample_tags``
    names the tags that constitute the actual point set (for density and
    separation), with all tags as the fallback.
    """
    tags = ps.meta.get("sample_tags")
    return ps.points(None if tags is None else tuple(tags))


def uniform_closeness_delta(
    ps: IndexedPointSet, beta: float | None = None
) -> float | tuple[float, float]:
    """Largest offset magnitude over all entries.

    With ``beta`` given, also returns the offset shifted by half the
    square-lattice spacing at weight ``beta``:
    ``delta + sqrt(pi/(2*beta))``.
    """
    delta = 0.0
    for (idx, tag), _ in ps.items():
        delta = max(delta, abs(ps.offset(idx, tag)))
    if beta is None:
        return delta
    if beta <= 0:
        raise ValueError("beta must be positive")
    return delta, delta + math.sqrt(math.pi / (2.0 * beta))
