"""Phase retrieval logic for Gaussian-weighted polynomial spaces.

Given two functions with equal modulus on a point set, the machinery here
either certifies they agree up to a unimodular factor or produces
evidence they do not:

* ``uniqueness_product``: the weight-4a product F H (F H' - F' H) whose
  vanishing separates the two cases,
* directional derivatives of ``|F|^2 - |H|^2`` along unit directions,
  their recombination into the complex derivative, the Rolle point of an
  equal-modulus segment as a root of a real polynomial, and the
  perturbed-zero bound check built from those pieces,
* a finite-dimensional injectivity analyzer for the lifted (rank-one
  Hermitian) measurement map, with singular spectrum, kernel dimension,
  and a signature-(1,1) witness pair when the kernel is nontrivial,
  searched for only where one can exist: below the 4d - 4 injectivity
  count of generic measurements, or on a kernel larger than generic.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .fock import FockPoly, shift, wronskian

__all__ = [
    "uniqueness_product",
    "PhaseDecision",
    "phase_relation_decide",
    "directional_derivative",
    "combine_directionals",
    "RolleResult",
    "rolle_point",
    "PerturbationBoundReport",
    "zero_perturbation_bound_check",
    "LiftedReport",
    "lifted_injectivity",
    "hermitian_basis",
    "lifted_rows",
]

# Relative gap between the moduli that ``phase_relation_decide`` accepts
# as equal, and relative Wronskian norm it treats as zero.
_MODULUS_TOL = 1e-8
_WRONSKIAN_TOL = 1e-10
# Largest coefficient of the derivative along a segment, relative to the
# largest of the same sums taken in absolute value, that counts as rounding.
_ROUNDING = 1e-12
# Random kernel elements the witness search starts from.
_WITNESS_ATTEMPTS = 8
# Singular values of the lift above this fraction of the largest count
# towards its rank.
_RANK_TOL = 1e-10


def uniqueness_product(F: FockPoly, H: FockPoly) -> FockPoly:
    """F * H * (F H' - F' H), expanded at four times the common weight.

    The product vanishes identically exactly when F and H share zeros
    jointly enough to force proportionality; it is the object whose
    vanishing on a rich enough set decides phase equivalence.
    """
    if not math.isclose(F.alpha, H.alpha, rel_tol=1e-12):
        raise ValueError("weights differ")
    w = wronskian(F, H)
    mono = np.convolve(
        np.convolve(F.monomial_coeffs(), H.monomial_coeffs()), w.monomial_coeffs()
    )
    return FockPoly.from_monomial(4.0 * F.alpha, mono)


class PhaseDecision(NamedTuple):
    status: str  # equivalent | distinct | inconclusive | precondition_failed
    tau: complex | None
    max_modulus_gap: float
    wronskian_norm: float


def phase_relation_decide(
    F: FockPoly,
    H: FockPoly,
    points: Sequence[complex],
) -> PhaseDecision:
    """Decide whether equal moduli on ``points`` reflect a unimodular factor.

    Requires |F| = |H| on the points (within 1e-8 relatively);
    then: a vanishing Wronskian means H = tau * F for a constant tau,
    recovered from the largest sample and certified unimodular; a
    nonvanishing product ``uniqueness_product`` shows the functions are
    genuinely distinct; anything else is inconclusive.
    """
    pts = np.asarray(list(points), dtype=complex)
    fv = np.asarray(F(pts))
    hv = np.asarray(H(pts))
    scale = float(max(np.abs(fv).max(initial=0.0), np.abs(hv).max(initial=0.0), 1e-300))
    gap = float(np.max(np.abs(np.abs(fv) - np.abs(hv)))) if pts.size else 0.0
    w = wronskian(F, H)
    w_norm = float(np.linalg.norm(np.asarray(w.coeffs)))
    if gap > _MODULUS_TOL * scale:
        return PhaseDecision("precondition_failed", None, gap, w_norm)
    coeff_scale = max(
        float(np.linalg.norm(np.asarray(F.coeffs)))
        * float(np.linalg.norm(np.asarray(H.coeffs))),
        1e-300,
    )
    if w_norm <= _WRONSKIAN_TOL * coeff_scale:
        strength = np.minimum(np.abs(fv), np.abs(hv))
        j = int(np.argmax(strength)) if pts.size else -1
        if j < 0 or strength[j] <= _MODULUS_TOL * scale:
            return PhaseDecision("inconclusive", None, gap, w_norm)
        tau = complex(hv[j] / fv[j])
        if abs(abs(tau) - 1.0) <= 1e-8:
            return PhaseDecision("equivalent", tau, gap, w_norm)
        return PhaseDecision("inconclusive", tau, gap, w_norm)
    G = uniqueness_product(F, H)
    if float(np.linalg.norm(np.asarray(G.coeffs))) > _WRONSKIAN_TOL * coeff_scale:
        return PhaseDecision("distinct", None, gap, w_norm)
    return PhaseDecision("inconclusive", None, gap, w_norm)


def directional_derivative(F: FockPoly, H: FockPoly, theta: float, z: complex) -> float:
    """d/dt of |F|^2 - |H|^2 along direction exp(i theta), at t = 0.

    Equals Re(2 e^{i theta} (F'(z) conj F(z) - H'(z) conj H(z))).
    """
    z = complex(z)
    inner = F.derivative()(z) * np.conj(F(z)) - H.derivative()(z) * np.conj(H(z))
    return float(np.real(2.0 * cmath.exp(1j * theta) * inner))


def combine_directionals(
    r1: float, r2: float, theta1: float, theta2: float
) -> complex:
    """Recover F' conj F - H' conj H from two directional samples.

    The directional values satisfy r_j = 2(cos(theta_j) Re W - sin(theta_j) Im W)
    for the complex quantity W being recovered; two non-parallel
    directions determine W by a 2x2 solve.
    """
    gap = math.sin(theta1 - theta2)
    if abs(gap) < 1e-8:
        raise ValueError("directions are parallel; the system is singular")
    mat = np.array(
        [
            [math.cos(theta1), -math.sin(theta1)],
            [math.cos(theta2), -math.sin(theta2)],
        ]
    )
    re_w, im_w = np.linalg.solve(2.0 * mat, np.array([r1, r2]))
    return complex(re_w, im_w)


def _along(G: FockPoly, c: complex, d: complex) -> np.ndarray:
    """Coefficients in t of G(c + t d), lowest degree first."""
    return shift(G, c).monomial_coeffs() * d ** np.arange(len(G.coeffs))


class RolleResult(NamedTuple):
    point: complex
    theta: float
    residual: float


def rolle_point(
    F: FockPoly,
    H: FockPoly,
    endpoint_a: complex,
    endpoint_c: complex,
) -> RolleResult:
    """Point on [c, a] where the directional derivative of |F|^2-|H|^2 vanishes.

    Both endpoints must carry equal moduli (within 1e-10 relative).  With
    ``f(t) = |F|^2 - |H|^2`` at ``c + t(a - c)``, the derivative along the
    segment is ``f'(t) / |a - c|``, and ``f'`` is a real polynomial of
    degree at most ``2N - 1``.  Since ``f(0) = f(1)``, Rolle puts a sign
    change of ``f'`` in (0, 1); the point is the least root there at which
    ``f'`` changes sign.  When the coefficients of ``f'`` vanish to
    rounding (H a unimodular multiple of F), it is identically zero and
    the midpoint is returned.  The residual is
    :func:`directional_derivative` at the point.
    """
    a, c = complex(endpoint_a), complex(endpoint_c)
    if a == c:
        raise ValueError("endpoints coincide")
    scale = max(abs(F(a)), abs(H(a)), abs(F(c)), abs(H(c)), 1e-300)
    for pt in (a, c):
        if abs(abs(F(pt)) - abs(H(pt))) > 1e-10 * scale:
            raise ValueError(f"moduli differ at endpoint {pt}")
    npoly = np.polynomial.polynomial  # loaded on first use, not at import
    theta = cmath.phase(a - c)
    p, q = _along(F, c, a - c), _along(H, c, a - c)
    # for real t, |sum p_k t^k|^2 has the coefficients of p * conj(p)
    f = npoly.polysub(npoly.polymul(p, p.conj()), npoly.polymul(q, q.conj())).real
    size = npoly.polyadd(npoly.polymul(abs(p), abs(p)), npoly.polymul(abs(q), abs(q)))
    slope, size = npoly.polyder(f), npoly.polyder(size)
    if np.max(np.abs(slope)) <= _ROUNDING * np.max(size):
        t_star = 0.5
    else:
        roots = npoly.polyroots(slope)
        ts = np.unique(roots.real[(roots.imag == 0) & (roots.real > 0) & (roots.real < 1)])
        # the sign of f' between consecutive roots, read at the midpoints
        edges = np.concatenate(([0.0], ts, [1.0]))
        signs = np.sign(npoly.polyval(0.5 * (edges[:-1] + edges[1:]), slope))
        flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        if not flips.size:
            raise ValueError("the derivative keeps one sign along the segment: moduli differ")
        t_star = float(ts[flips[0]])
    point = c + t_star * (a - c)
    residual = directional_derivative(F, H, theta, point)
    return RolleResult(point=point, theta=theta, residual=residual)


class PerturbationBoundReport(NamedTuple):
    ok: bool
    lhs: float
    bound: float
    eta: float
    m_const: float
    sin_gap: float


def zero_perturbation_bound_check(
    F: FockPoly,
    H: FockPoly,
    z0: complex,
    theta1: float,
    theta2: float,
    p1: complex,
    p2: complex,
    epsilon: float,
) -> PerturbationBoundReport:
    """Bound |F' conj F - H' conj H| at z0 by the offsets of two nearby true zeros.

    ``p1, p2`` must be zeros (within 1e-9) of the directional derivative
    of |F|^2 - |H|^2 along ``theta1, theta2``, both within the allowed
    displacement cap of ``z0``.  The right-hand side uses the explicit
    constant M = 4 (2a+e)^2 e^{-3/2} (2a+e+1) (||F||^2 + ||H||^2).
    """
    if not math.isclose(F.alpha, H.alpha, rel_tol=1e-12):
        raise ValueError("weights differ")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha = F.alpha
    z0 = complex(z0)
    sin_gap = abs(math.sin(theta1 - theta2))
    if sin_gap < 1e-8:
        raise ValueError("directions are parallel; the bound degenerates")
    rate = 2.0 * alpha + epsilon
    eta = max(abs(complex(p1) - z0), abs(complex(p2) - z0))
    cap = rate ** -0.5
    if abs(z0) > 0:
        cap = min(cap, 1.0 / (rate * abs(z0)))
    if eta > cap * (1.0 + 1e-12):
        raise ValueError(f"displacement eta = {eta:.3e} exceeds the cap {cap:.3e}")
    deriv_scale = max(
        float(np.linalg.norm(np.asarray(F.coeffs))) ** 2,
        float(np.linalg.norm(np.asarray(H.coeffs))) ** 2,
        1e-300,
    )
    for theta, p in ((theta1, p1), (theta2, p2)):
        resid = abs(directional_derivative(F, H, theta, p))
        if resid > 1e-9 * deriv_scale:
            raise ValueError(
                f"directional derivative at {p} is {resid:.3e}, not a zero"
            )
    m_const = (
        4.0
        * rate ** 2
        / epsilon ** 1.5
        * (rate + 1.0)
        * (F.norm() ** 2 + H.norm() ** 2)
    )
    bound = (
        m_const
        * (abs(z0) + 1.0)
        * math.exp((alpha + epsilon / 2.0) * abs(z0) ** 2)
        * eta
        / sin_gap
    )
    lhs = abs(
        F.derivative()(z0) * np.conj(F(z0)) - H.derivative()(z0) * np.conj(H(z0))
    )
    return PerturbationBoundReport(
        ok=bool(lhs <= bound * (1.0 + 1e-12)),
        lhs=float(lhs),
        bound=float(bound),
        eta=float(eta),
        m_const=float(m_const),
        sin_gap=float(sin_gap),
    )


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _upper_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(dim, 1)``: the (j, k) pairs with j < k."""
    j, k = np.triu_indices(dim, 1)
    j.setflags(write=False)
    k.setflags(write=False)
    return j, k


def _hermitian_coords(x: np.ndarray) -> np.ndarray:
    """Coordinates Re sum(conj(B) * x) of x over the ``hermitian_basis`` B.

    Works on the last two axes.  Each off-diagonal coordinate is formed
    term by term, rounding exactly as the trace inner product does.
    """
    dim = x.shape[-1]
    j, k = _upper_pairs(dim)
    upper, lower = x[..., j, k], x[..., k, j]
    out = np.empty(x.shape[:-2] + (dim * dim,))
    out[..., :dim] = np.diagonal(x, axis1=-2, axis2=-1).real
    out[..., dim::2] = upper.real * _INV_SQRT2 + lower.real * _INV_SQRT2
    out[..., dim + 1 :: 2] = upper.imag * _INV_SQRT2 - lower.imag * _INV_SQRT2
    return out


def _hermitian_from_coords(coords: np.ndarray) -> np.ndarray:
    """Hermitian matrix sum(coords * B) over the ``hermitian_basis`` B.

    Inverse of ``_hermitian_coords``; works on the last axis.
    """
    dim = math.isqrt(coords.shape[-1])
    j, k = _upper_pairs(dim)
    x = np.zeros(coords.shape[:-1] + (dim, dim), dtype=complex)
    x[..., range(dim), range(dim)] = coords[..., :dim]
    x[..., j, k] = (coords[..., dim::2] + 1j * coords[..., dim + 1 :: 2]) * _INV_SQRT2
    x[..., k, j] = np.conj(x[..., j, k])
    return x


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal real basis of dim x dim Hermitian matrices.

    Diagonal units first, then for each pair j < k (row-major) the
    symmetric and antisymmetric off-diagonal elements scaled by
    1/sqrt(2); orthonormal for the trace inner product.  These are the
    matrices whose coordinates ``lifted_rows`` and the witness search
    work in.
    """
    return list(_hermitian_from_coords(np.eye(dim * dim)))


def _moment_vectors(points: np.ndarray, dim: int, alpha: float) -> np.ndarray:
    """v(u)_n = sqrt(alpha^n / n!) u^n for each point, shape (M, dim)."""
    out = np.empty((points.size, dim), dtype=complex)
    out[:, 0] = 1.0
    for n in range(1, dim):
        out[:, n] = out[:, n - 1] * points * math.sqrt(alpha / n)
    return out


def lifted_rows(points: Sequence[complex], N: int, alpha: float) -> np.ndarray:
    """Real matrix of the lifted measurement map on Hermitian matrices.

    Row for point u sends a Hermitian X to v(u)* X v(u) / |v(u)|^2,
    expressed in the orthonormal Hermitian basis: each row is scaled to
    unit norm.  A positive row scaling leaves the exact kernel unchanged;
    unit rows keep the rank decision, a cut relative to sigma_max, from
    dropping far points (a Gaussian weight exp(-alpha|u|^2) in place of
    the norm would put their rows below the cut).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    pts = np.asarray(list(points), dtype=complex)
    dim = N + 1
    v = _moment_vectors(pts, dim, alpha)
    # v* X v = <X, v v^H>: each row holds the coordinates of the rank-one lift
    lift = v[:, :, None] * np.conj(v)[:, None, :]
    rows = _hermitian_coords(lift)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class LiftedReport(NamedTuple):
    dim: int
    num_points: int
    singular_values: tuple[float, ...]
    kernel_dim: int
    rank_tol: float
    witness: tuple[tuple[complex, ...], tuple[complex, ...]] | None
    witness_gap: float | None
    witness_searched: bool

    @property
    def sigma_min(self) -> float:
        return self.singular_values[-1] if self.singular_values else 0.0


def lifted_injectivity(
    points: Sequence[complex],
    N: int,
    alpha: float,
    seed: int = 0,
) -> LiftedReport:
    """Injectivity analysis of modulus measurements at truncation degree N.

    Equal moduli of degree-N polynomials on the points is a linear
    condition on the rank-one lift; the report gives the singular
    spectrum of that real-linear map, the kernel dimension, and, when
    the kernel is nontrivial, a signature-(1,1) kernel element split
    into a concrete pair of polynomials with equal moduli on every
    point.  Evidence at truncation N only: a kernel-free truncation says
    nothing about the full space.

    The witness search runs only where a witness can exist.  For d = N + 1
    coefficients, M >= 4d - 4 generic measurements are injective (Conca,
    Edidin, Hering and Vinzant, ACHA 2015), so on M >= 4d - 4 points whose
    kernel has its generic size d^2 - M the search is skipped and
    ``witness_searched`` is false.  Below 4d - 4, or where the kernel is
    larger than generic (repeated or structured points), it runs.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if N < 0 or N > 16:
        raise ValueError("degree truncation must be in [0, 16]")
    pts = np.asarray(list(points), dtype=complex)
    if pts.size < 1:
        raise ValueError("need at least one point")
    dim = N + 1
    d_real = dim * dim
    rows = lifted_rows(pts, N, alpha)
    # one SVD for the spectrum and the kernel.  With at least d_real rows the
    # reduced V^T is already square; with fewer, the full V^T spans the kernel
    # and U is at most d_real x d_real.  A full U on many rows would be M x M.
    _u, svals, vt = np.linalg.svd(rows, full_matrices=len(rows) < d_real)
    sigma_max = float(svals[0]) if svals.size else 0.0
    rank = int(np.count_nonzero(svals > _RANK_TOL * sigma_max)) if sigma_max > 0 else 0
    kernel_dim = d_real - rank

    witness = None
    witness_gap = None
    searched = kernel_dim > 0 and (
        pts.size < 4 * dim - 4 or kernel_dim != max(0, d_real - pts.size)
    )
    if searched:
        kernel_vecs = vt[rank:, :]
        rng = np.random.default_rng(seed)
        row_scale = max(float(np.abs(rows).max()), 1e-300)
        for _ in range(_WITNESS_ATTEMPTS):
            coords = rng.standard_normal(kernel_vecs.shape[0]) @ kernel_vecs
            x_mat = _hermitian_from_coords(coords)
            # alternate between the kernel subspace and rank-2 matrices of
            # signature (1,1): a generic kernel element has full rank, and a
            # plain eigenvalue truncation would leave the kernel again
            for _ in range(80):
                eigvals, eigvecs = np.linalg.eigh(x_mat)
                if eigvals[-1] <= 0 or eigvals[0] >= 0:
                    break
                trunc = (
                    eigvals[-1] * np.outer(eigvecs[:, -1], np.conj(eigvecs[:, -1]))
                    + eigvals[0] * np.outer(eigvecs[:, 0], np.conj(eigvecs[:, 0]))
                )
                t_coords = _hermitian_coords(trunc)
                coords = (t_coords @ kernel_vecs.T) @ kernel_vecs
                drift = float(np.linalg.norm(coords - t_coords))
                x_mat = _hermitian_from_coords(coords)
                if drift <= 1e-14 * max(float(np.linalg.norm(coords)), 1e-300):
                    break
            eigvals, eigvecs = np.linalg.eigh(x_mat)
            if eigvals[-1] <= 0 or eigvals[0] >= 0:
                continue
            x_vec = math.sqrt(eigvals[-1]) * eigvecs[:, -1]
            y_vec = math.sqrt(-eigvals[0]) * eigvecs[:, 0]
            pair = np.outer(x_vec, np.conj(x_vec)) - np.outer(y_vec, np.conj(y_vec))
            # the quadratic form v* X v measures |sum conj(x_n) e_n|^2, so
            # polynomial coefficients are the conjugated eigenvectors
            x_vec = np.conj(x_vec)
            y_vec = np.conj(y_vec)
            coords = _hermitian_coords(pair)
            gap = float(np.max(np.abs(rows @ coords)))
            wron = wronskian(FockPoly(alpha, x_vec), FockPoly(alpha, y_vec))
            if gap <= 1e-8 * row_scale and float(np.linalg.norm(wron.coeffs)) > 1e-6:
                witness = (
                    tuple(complex(c) for c in x_vec),
                    tuple(complex(c) for c in y_vec),
                )
                witness_gap = gap
                break
    return LiftedReport(
        dim=dim,
        num_points=int(pts.size),
        singular_values=tuple(float(s) for s in svals),
        kernel_dim=kernel_dim,
        rank_tol=_RANK_TOL,
        witness=witness,
        witness_gap=witness_gap,
        witness_searched=searched,
    )
