"""Discretized Schrodinger operators and weighted resolvent norms.

P = h^2 Delta + V is discretized by second-order finite differences on a
box [-L, L], a complex symmetric tridiagonal matrix, with one of two
boundary treatments:

- ``dirichlet`` (small_box_operator): the literal self-adjoint box
  operator; shifted solves need t != 0 (a finite box has discrete
  spectrum);
- ``cap`` (discretize): a complex absorbing profile -i W(z) supported in
  the outer 20% of the box emulates the limiting resolvent at t = 0 and
  avoids box resonances.

The weighted norm ||<z>^-s R(lambda^2 + it) <z>^-s|| is the largest
singular value of the weighted resolvent, computed by Lanczos on A^H A
(power_norm) to a stated residual.  The weight is folded into the
factorization: W (P - w)^{-1} W, W = <z>^-s, is the inverse of the
tridiagonal W^{-1} (P - w) W^{-1}, which each shift w factors once by
LAPACK's tridiagonal LU with partial pivoting (?gttrf).  A Lanczos step
is one forward ?gttrs solve into a new vector and one adjoint solve
(trans='C') in place on it, and that vector becomes the next basis row;
the basis holds only the rows built so far.  The norm's solves are not
refined: tridiagonal LU with partial pivoting is normwise backward stable
(growth factor at most 2), and a refinement step in the same precision
does not take the forward error below cond * eps (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., sections 9.6 and 12.1);
against solves with one refinement step, every sweep norm of the four
presets agrees within 2.5e-14 relative.

The h sweep gives each h its own grid, ceil(N h_min / h) intervals for N
at the smallest h, so that the stencil's dispersion error, a function of
dz / h, is the same in every cell instead of tilting the fitted slope.

The ground-truth oracle for the free line is the explicit kernel

    (i / (2 h sqrt(w))) exp(i sqrt(w) |z - z'| / h),   Im sqrt(w) > 0,

applied in O(M) per matvec through unit-bidiagonal band solves, with a
grid-doubling convergence certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs
from scipy.linalg.blas import zaxpy

from nontrap.errors import ConfigurationError, ConvergenceError
from nontrap.smooth import falling_step

_POWER_SEED = 7
_LANCZOS_BASIS = 64     # Lanczos vectors kept before a restart
_NORM_FALLBACK_TOL = 1e-4  # relative residual accepted at maxiter
_CAP_STRENGTH = 0.5     # absorbing profile at the wall, in units of lambda2
_CAP_FRACTION = 0.2     # outer fraction of the box that absorbs
_HS_Y = 1.0             # height of the Helffer-Sjostrand contour box
_HS_CHECK_TOL = 1e-6    # relative change allowed under contour refinement
_BUMP_ORDER = 6         # derivatives returned by gaussian_bump
_SCALAR_SAMPLES = 20001  # sigma grid of scalar_spectral_bound
# Helffer-Sjostrand: nodes per chunk of work arrays, rows per GEMM block
_HS_NODE_CHUNK = 256
_HS_ROW_BLOCK = 32


# ---------------------------------------------------------------------------
# grids and discrete operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-L, L] with N intervals; interior points only."""

    L: float
    N: int

    @property
    def dz(self):
        return 2.0 * self.L / self.N

    @property
    def z(self):
        """Interior nodes (Dirichlet rows)."""
        return -self.L + self.dz * np.arange(1, self.N)

    @property
    def size(self):
        return self.N - 1


def default_cap_profile(grid: Grid1D, lambda2: float):
    """Absorbing profile W >= 0 supported in the outer 20% of the box
    (cubic ramp, lambda2 / 2 at the wall)."""
    z = grid.z
    z0 = (1.0 - _CAP_FRACTION) * grid.L
    u = np.clip((np.abs(z) - z0) / (grid.L - z0), 0.0, 1.0)
    return _CAP_STRENGTH * lambda2 * u**3


@dataclass
class DiscreteOperator:
    """Banded matrix action of P = h^2 Delta + V (+ -iW for cap)."""

    grid: Grid1D
    h: float
    V: np.ndarray
    boundary: str               # 'dirichlet' | 'cap'
    W: Optional[np.ndarray]     # absorbing profile (cap only)

    @property
    def size(self):
        return self.grid.size

    def diagonals(self):
        """(diagonal, off-diagonal) of the symmetric tridiagonal matrix
        (complex; second-order central differences)."""
        c = self.h**2 / self.grid.dz**2
        diag = np.asarray(self.V, dtype=complex).copy()
        if self.boundary == "cap":
            diag -= 1j * self.W
        diag += 2.0 * c
        return diag, np.full(self.size - 1, -c, dtype=complex)

    def real_tridiagonal(self):
        """(diag, offdiag) of the real symmetric operator (dirichlet);
        used by dense spectral routines."""
        if self.boundary != "dirichlet":
            raise ConfigurationError(
                "spectral routines need a real symmetric tridiagonal operator "
                "(dirichlet boundary)"
            )
        diag, off = self.diagonals()
        return np.real(diag), np.real(off)


def _tridiagonal_apply(diag, off, u):
    """Product of the symmetric tridiagonal matrix (diag, off) with u."""
    out = diag * u
    out[:-1] += off * u[1:]
    out[1:] += off * u[:-1]
    return out


class BandedSolver:
    """One tridiagonal LU factorization with partial pivoting (LAPACK
    ?gttrf), reusable for many forward and adjoint solves (?gttrs); one
    factorization per shift w.

    Without s the factored matrix is P - w.  Given the weight exponent s it
    is W^{-1} (P - w) W^{-1} with W = <z>^-s, which is still tridiagonal
    and whose inverse is the weighted resolvent W (P - w)^{-1} W: every
    solve then carries the weight, with no multiplication by W.

    solve_uncertified and solve_adjoint are one ?gttrs each (trans='N' and
    trans='C' on the same factors), backward stable with no residual
    contract; with overwrite_f=True a complex vector is solved in place,
    otherwise the right-hand side is left unchanged.  Only the certified
    solve computes residuals, from the diagonals of the factored matrix
    built once here."""

    def __init__(self, op: DiscreteOperator, w: complex,
                 s: Optional[float] = None):
        self.w = complex(w)
        diag, off = op.diagonals()
        diag -= self.w
        if s is not None:
            inv_weight = (1.0 + op.grid.z**2) ** (0.5 * s)
            diag *= inv_weight**2
            off *= inv_weight[:-1] * inv_weight[1:]
        self._matrix = diag, off
        gttrf, self._gttrs = get_lapack_funcs(("gttrf", "gttrs"), (diag,))
        *self._lu, info = gttrf(off, diag, off)
        if info < 0:
            raise ConfigurationError(f"gttrf: illegal argument {-info}")
        if info > 0:
            raise ConvergenceError(
                f"singular shifted factorization at w={self.w} "
                "(dirichlet at an eigenvalue? use t != 0 or cap boundary)"
            )

    def solve(self, f):
        """(P - w)^{-1} f (W (P - w)^{-1} W f given s) with residual
        verification (<= 1e-10 ||f||).

        Certified solves are not attainable arbitrarily close to a discrete
        eigenvalue (conditioning); use solve_uncertified inside norm
        iterations, which only need backward stability."""
        u = self._solve_raw(np.asarray(f, dtype=complex))
        nf = np.linalg.norm(f)
        for _ in range(3):
            res = self._residual(u, f)
            if nf == 0 or np.linalg.norm(res) <= 1e-10 * nf:
                return u
            u = u - self._solve_raw(res)
        res = self._residual(u, f)
        if nf > 0 and np.linalg.norm(res) > 1e-10 * nf:
            raise ConvergenceError(
                f"shifted solve residual {np.linalg.norm(res)/nf:.2e} "
                "exceeds 1e-10 (shift too close to the spectrum?)"
            )
        return u

    def solve_uncertified(self, f, overwrite_f=False):
        """(P - w)^{-1} f (W (P - w)^{-1} W f given s) by one raw LU solve,
        with no residual contract: normwise backward stable, and not
        refined, since a refinement step in the same precision would not
        take the forward error below cond * eps (module docstring)."""
        return self._solve_raw(np.asarray(f, dtype=complex), "N", overwrite_f)

    def solve_adjoint(self, f, overwrite_f=False):
        """(P - w)^{-H} f (W (P - w)^{-H} W f given s) by one raw LU solve
        with trans='C'."""
        return self._solve_raw(np.asarray(f, dtype=complex), "C", overwrite_f)

    def _residual(self, u, f):
        """M u - f for the factored matrix M."""
        return _tridiagonal_apply(*self._matrix, u) - f

    def _solve_raw(self, f, trans="N", overwrite=False):
        x, info = self._gttrs(*self._lu, f, trans=trans, overwrite_b=overwrite)
        if info != 0:
            raise ConvergenceError(f"gttrs failed with info={info}")
        return x


def check_resolution(model, h, L, N):
    """ConfigurationError unless the grid of discretize(model, h, L, N)
    resolves the h-oscillation at the shell (>= 10 points per wavelength
    2 pi h / lam)."""
    lam = math.sqrt(model.lambda2)
    ppw = 2.0 * math.pi * h / (lam * Grid1D(L=float(L), N=int(N)).dz)
    if ppw < 10.0:
        raise ConfigurationError(
            f"resolution violation: {ppw:.1f} points per wavelength at "
            f"h={h}, need >= 10 (increase N)"
        )


def discretize(model, h, L=200.0, N=2**15) -> DiscreteOperator:
    """Banded discretization of P with the absorbing cap profile.

    Guards (configuration errors, never silent): the grid must resolve the
    h-oscillation at the shell (check_resolution) and the box must contain
    the weight's mass (L >= 40; the cap then starts at |z| >= 32, where the
    weight <z>^-1 is below 0.05).
    """
    if L < 40.0:
        raise ConfigurationError(f"box must contain the weight's mass: L >= 40, got {L}")
    check_resolution(model, h, L, N)
    grid = Grid1D(L=float(L), N=int(N))
    V = model.potential.value(grid.z)
    return DiscreteOperator(grid=grid, h=float(h), V=V, boundary="cap",
                            W=default_cap_profile(grid, model.lambda2))


def small_box_operator(model, h, L=60.0, N=512) -> DiscreteOperator:
    """Small dense-solvable Dirichlet operator for spectral-identity work
    (functional calculus, spectral-mapping bounds).

    No resolution guard: those identities hold exactly on the discrete
    self-adjoint matrix whatever the dispersion error; resolvent-norm
    measurements must use discretize() instead."""
    grid = Grid1D(L=float(L), N=int(N))
    V = model.potential.value(grid.z)
    return DiscreteOperator(grid=grid, h=float(h), V=V, boundary="dirichlet",
                            W=None)


# ---------------------------------------------------------------------------
# Lanczos norms
# ---------------------------------------------------------------------------

@dataclass
class NormResult:
    value: float
    iterations: int
    converged: bool  # False when accepted by power_norm's maxiter fallback
    residual: float = 0.0   # some singular value lies within this of value
    # second Ritz value at the stop: a lower bound on sigma_2, which can
    # lie far below it (an unresolved top pair); not the gap below value
    sigma_2: float = 0.0


@functools.lru_cache(maxsize=4)
def _start_vector(n):
    """power_norm's unit start vector of length n, drawn from _POWER_SEED
    once per n and shared by every call as its first basis row, hence
    read-only."""
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def power_norm(apply_A: Callable, apply_AH: Callable, n: int,
               tol=1e-8, maxiter=500) -> NormResult:
    """Largest singular value of A by Lanczos on A^H A.

    This is the Golub-Kahan bidiagonalization seen from the right singular
    vectors (Golub and Kahan 1965): every step applies A^H A once and
    orthogonalizes the new vector twice against the whole basis.  The basis
    holds only the rows built so far, one more per step, up to
    _LANCZOS_BASIS vectors of length n, and then restarts from the top Ritz
    vector.  Each orthogonalization pass is classical Gram-Schmidt: the
    coefficients against every row (zdotc), then the update of the new
    vector in place (zaxpy), and the first pass's last coefficient is the
    step's diagonal entry.

    Ownership: the array that apply_AH returns is orthogonalized and
    normalized in place and kept as the next basis row, so it must be a new
    array, shared with nothing; apply_A must leave its argument, a basis
    row, unchanged.

    It stops once the top Ritz pair (theta_1, y) of the tridiagonal
    projection has residual r = |A^H A y - theta_1 y| <= tol theta_1, so
    that an eigenvalue of A^H A lies within r of theta_1.

    The stop is on r itself, not on the gap bound r^2 / (theta_1 -
    theta_2): with a near-double top singular value (an even potential at
    small h) the early Ritz vector mixes the pair while theta_2 still
    belongs to the next, well separated one, and the gap bound stops up to
    1e-6 low; the residual only falls below tol once the pair is resolved
    or the mix is that accurate.

    The start vector is drawn from a fixed seed, so results are
    deterministic.  At maxiter a residual of at most _NORM_FALLBACK_TOL
    theta_1 is accepted with converged=False, otherwise ConvergenceError is
    raised.  `iterations` counts applications of A^H A; `residual` is the
    residual bound in units of sigma, r / value, at most tol value.
    `sigma_2` is the second Ritz value at the stop, only a lower bound on
    the second singular value: the residual stop can fire before the
    Krylov space has found it, so it says nothing about the gap below
    `value`."""
    basis = [_start_vector(n)]
    alpha, beta = [], []
    for it in range(1, maxiter + 1):
        w = apply_AH(apply_A(basis[-1]))
        for gs_pass in range(2):
            c = [np.vdot(v, w) for v in basis]
            if gs_pass == 0:
                alpha.append(float(c[-1].real))
            for v, cj in zip(basis, c):
                w = zaxpy(v, w, a=-cj)
        beta.append(float(np.linalg.norm(w)))
        theta, S = eigh_tridiagonal(np.array(alpha), np.array(beta[:-1]))
        top = max(float(theta[-1]), 0.0)
        r = beta[-1] * float(abs(S[-1, -1]))
        if r <= tol * top:
            break
        if len(basis) < _LANCZOS_BASIS:
            w /= beta[-1]
            basis.append(w)
        else:  # restart from the top Ritz vector
            v = S[0, -1] * basis[0]
            for y, row in zip(S[1:, -1], basis[1:]):
                v = zaxpy(row, v, a=y)
            v /= np.linalg.norm(v)
            basis, alpha, beta = [v], [], []
    value = math.sqrt(top)
    result = NormResult(
        value, it, r <= tol * top,
        residual=r / value if value > 0.0 else math.sqrt(r),
        sigma_2=math.sqrt(max(float(theta[-2]), 0.0)) if theta.size > 1 else 0.0)
    if result.converged or r <= _NORM_FALLBACK_TOL * top:
        return result
    raise ConvergenceError(
        f"Lanczos norm: no convergence in {maxiter} iterations; estimate "
        f"{value} with relative residual {r / max(top, 1e-300):.2e}"
    )


def weighted_resolvent_norm(op: DiscreteOperator, lambda2: float, t: float,
                            s: float) -> NormResult:
    """|| <z>^-s R(lambda2 + it) <z>^-s || by power_norm's Lanczos (the
    symmetric weight of the uniform estimate), on one factorization of the
    weighted tridiagonal whose inverse is that operator (BandedSolver with
    s).  A Lanczos step is one forward raw solve into a new vector and one
    adjoint raw solve in place on it, so the step's one vector is the next
    basis row."""
    if op.boundary == "dirichlet" and t == 0.0:
        raise ConfigurationError("dirichlet boundary requires t != 0")
    solver = BandedSolver(op, complex(lambda2, t), s)
    return power_norm(solver.solve_uncertified,
                      functools.partial(solver.solve_adjoint, overwrite_f=True),
                      op.size)


# ---------------------------------------------------------------------------
# analytic free-kernel oracle
# ---------------------------------------------------------------------------

class FreeKernelOperator:
    """Weighted free resolvent on a fine grid, applied via unit-bidiagonal
    band solves (O(M) per matvec)."""

    def __init__(self, lambda2, t, h, s, L=200.0, M=2**16):
        if t <= 0:
            raise ConfigurationError("the analytic oracle needs t > 0")
        self.w = complex(lambda2, t)
        self.h = float(h)
        sq = np.sqrt(self.w)
        if sq.imag < 0:
            sq = -sq
        self.kappa = sq / h          # Im kappa > 0
        self.pref = 1j / (2.0 * h * sq)
        self.M = int(M)
        self.z = np.linspace(-L, L, self.M)
        self.dzg = self.z[1] - self.z[0]
        q = np.exp(1j * self.kappa * self.dzg)  # |q| < 1
        # I - q S (S the down shift) in lower band storage; the unit
        # diagonal row is never read
        self._band = np.zeros((2, self.M), dtype=complex)
        self._band[1, :-1] = -q
        self._tbtrs, = get_lapack_funcs(("tbtrs",), (self._band,))
        self.wr = (1.0 + self.z**2) ** (-0.5 * s)

    def _band_solve(self, u, trans):
        x, info = self._tbtrs(self._band, u, uplo="L", trans=trans, diag="U")
        if info != 0:
            raise ConvergenceError(f"tbtrs failed with info={info}")
        return x

    def _kernel_apply(self, u):
        """sum_j q^|i-j| u_j = (L^-1 + L^-T - I) u."""
        u = u.astype(complex)
        total = self._band_solve(u, "N") + self._band_solve(u, "T") - u
        return self.pref * self.dzg * total

    def apply(self, v):
        return self.wr * self._kernel_apply(self.wr * v)

    def apply_adjoint(self, v):
        # kernel is complex symmetric; adjoint = conjugate kernel
        return self.wr * np.conj(self._kernel_apply(np.conj(self.wr * v)))

    def norm(self) -> NormResult:
        return power_norm(self.apply, self.apply_adjoint, self.M)


def analytic_free_resolvent_norm(lambda2, t, h, s, L=200.0, M=2**16,
                                 certify=True) -> float:
    """Weighted free resolvent norm from the explicit kernel.

    With certify=True the value is recomputed at double resolution and the
    two must agree within 0.5% (the oracle's own convergence certificate).
    """
    base = FreeKernelOperator(lambda2, t, h, s, L=L, M=M).norm().value
    if certify:
        fine = FreeKernelOperator(lambda2, t, h, s, L=L, M=2 * M).norm().value
        if abs(fine - base) > 5e-3 * fine:
            raise ConvergenceError(
                f"oracle not grid-converged: {base} vs {fine} at doubled M"
            )
        return fine
    return base


# ---------------------------------------------------------------------------
# h sweep and scaling report
# ---------------------------------------------------------------------------

@dataclass
class SweepCell:
    h: float
    lambda2: float
    t: float
    s: float
    norm: float
    iterations: int
    mode: str


@dataclass
class ScalingReport:
    cells: List[SweepCell]
    slope: float
    intercept: float
    residual: float
    uniformity: dict            # h -> max/min over the lambda probes

    @property
    def max_uniformity_ratio(self):
        return max(self.uniformity.values()) if self.uniformity else math.inf


def _sweep_cell(model, h, lam2, s, L, N) -> SweepCell:
    op = discretize(model, h, L=L, N=N)
    res = weighted_resolvent_norm(op, lam2, 0.0, s)
    return SweepCell(h=h, lambda2=lam2, t=0.0, s=s, norm=res.value,
                     iterations=res.iterations, mode=op.boundary)


def sweep_hs(h_list):
    """The sweep's distinct h, largest first: two at least (a slope fit)."""
    hs = sorted(set(float(h) for h in h_list), reverse=True)
    if len(hs) < 2:
        raise ConfigurationError(f"h_list needs two distinct h, got {h_list}")
    return hs


def sweep_grid(N, h_min, h):
    """Grid intervals of the sweep cell at h: ceil(N h_min / h), so that
    every cell has at least the points per wavelength that N gives at the
    smallest h, h_min (check_resolution).  The ratio is taken first, so
    that the cell at h_min keeps exactly N."""
    return math.ceil(N * (h_min / h))


def h_sweep(model, h_list=(0.2, 0.14, 0.1, 0.07, 0.05), s=0.7, L=200.0,
            N=2**15, jobs=1) -> ScalingReport:
    """Sweep h, fit the scaling exponent, probe uniformity in lambda^2.

    Every cell is a norm on the absorbing-profile operator at t = 0, which
    emulates the limiting resolvent R(lambda^2 +- i0).  N is the grid at
    the smallest h; the cell at h is built on sweep_grid(N, h_min, h)
    intervals, so the stencil's dispersion error, which grows with dz / h,
    is the same in every cell and does not tilt the slope.  The fitted
    slope is of log(norm) against log(1/h) at the window center; the
    probes are three energies across the window plateau and the per-h
    max/min ratio is the uniformity certificate.
    """
    lam2 = model.lambda2
    h_list = sweep_hs(h_list)
    half = 0.5 * model.delta
    lambda_probes = [lam2 - half, lam2, lam2 + half]
    tasks = [(h, l2, sweep_grid(N, h_list[-1], h))
             for h in h_list for l2 in lambda_probes]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            futs = [
                ex.submit(_sweep_cell, model, h, l2, s, L, N_h)
                for (h, l2, N_h) in tasks
            ]
            cells = [f.result() for f in futs]
    else:
        cells = [_sweep_cell(model, h, l2, s, L, N_h)
                 for (h, l2, N_h) in tasks]
    by_h = {}
    for c in cells:
        by_h.setdefault(c.h, []).append(c.norm)
    uniformity = {h: max(v) / min(v) for h, v in by_h.items()}
    center = [c.norm for c in cells if c.lambda2 == lam2]
    hs = np.array(h_list)
    ns = np.array(center)
    coef = np.polyfit(np.log(1.0 / hs), np.log(ns), 1)
    slope, intercept = float(coef[0]), float(coef[1])
    fit = slope * np.log(1.0 / hs) + intercept
    residual = float(np.sqrt(np.mean((np.log(ns) - fit) ** 2)))
    return ScalingReport(cells=cells, slope=slope, intercept=intercept,
                         residual=residual, uniformity=uniformity)


def window_sup_norm(model, h, s=0.7, n_scan=81, L=200.0,
                    N=2**15) -> Tuple[float, float]:
    """Sup of the weighted norm over a fine lambda^2 scan of the window
    plateau, on the absorbing-profile operator at t = 0.  The uniform
    estimate is a statement about the whole window, so its failure under
    trapping is measured by the window sup (a pointwise probe would be
    resonance-position roulette).

    Returns (sup_norm, argmax_lambda2)."""
    lam2 = model.lambda2
    half = 0.5 * model.delta
    op = discretize(model, h, L=L, N=N)
    best, arg = -math.inf, lam2
    for l2 in np.linspace(lam2 - half, lam2 + half, n_scan):
        res = weighted_resolvent_norm(op, float(l2), 0.0, s)
        if res.value > best:
            best, arg = res.value, float(l2)
    return best, arg


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def _eigendecomposition(op: DiscreteOperator):
    if op.size > 4096:
        raise ConfigurationError("eigen method requires N <= 4096")
    diag, off = op.real_tridiagonal()
    return eigh_tridiagonal(diag, off)


def eigenvalues(op: DiscreteOperator):
    diag, off = op.real_tridiagonal()
    return eigh_tridiagonal(diag, off, eigvals_only=True)


def gaussian_bump(center: float, width: float):
    """(f, derivatives) for f = exp(-((x-c)/w)^2) with analytic derivatives
    via the Hermite recurrence; the clean input family for the
    Helffer-Sjostrand quadrature."""

    def deriv(j):
        def d(x):
            u = (np.asarray(x, dtype=float) - center) / width
            h_prev = np.ones_like(u)
            h = 2.0 * u
            if j == 0:
                hj = h_prev
            elif j == 1:
                hj = h
            else:
                for m in range(1, j):
                    h_prev, h = h, 2.0 * u * h - 2.0 * m * h_prev
                hj = h
            return (-1.0) ** j * hj * np.exp(-(u**2)) / width**j

        return d

    derivs = [deriv(j) for j in range(_BUMP_ORDER + 1)]
    return derivs[0], derivs


def function_of_operator(op: DiscreteOperator, f: Callable, method="eigen",
                         support: Optional[Tuple[float, float]] = None,
                         K=4, nx=200, ny=100, check=True,
                         derivatives=None) -> np.ndarray:
    """Dense matrix of f(P) for compactly supported smooth f.

    'eigen' is spectral mapping through a dense symmetric
    eigendecomposition.  'helffer_sjostrand' builds the almost-analytic
    extension f~(x+iy) = chi(y) sum_{k<=K} f^(k)(x) (iy)^k / k! and
    integrates dbar f~ against the resolvent over a contour box, reading
    only the tridiagonal of P (semiseparable resolvent recurrences, see
    _resolvent_sum); with check=True the quadrature is re-run at half
    resolution and must agree.

    'helffer_sjostrand' takes the derivatives f^(0..K+1) as callables
    (`derivatives`, e.g. gaussian_bump's); without them it raises."""
    if method == "eigen":
        vals, vecs = _eigendecomposition(op)
        return (vecs * f(vals)[None, :]) @ vecs.T
    if method != "helffer_sjostrand":
        raise ConfigurationError(f"unknown method {method!r}")
    if support is None:
        raise ConfigurationError("helffer_sjostrand needs the support of f")
    if derivatives is None or len(derivatives) < K + 2:
        raise ConfigurationError(
            f"helffer_sjostrand needs derivatives up to order {K + 1}"
        )

    val = _hs_matrix(op, derivatives, support, K, nx, ny)
    if check:
        coarse = _hs_matrix(op, derivatives, support, K, nx // 2, ny // 2)
        diff = np.linalg.norm(val - coarse, 2)
        if diff > _HS_CHECK_TOL * (1.0 + np.linalg.norm(val, 2)):
            raise ConvergenceError(
                f"Helffer-Sjostrand quadrature not converged: {diff:.2e} "
                "change under refinement"
            )
    return val


def _hs_nodes(derivatives, support, K, nx, ny):
    """Helffer-Sjostrand quadrature nodes z (Im z > 0) and weights w, such
    that f(P) = Re sum_m w_m (P - z_m)^{-1} for real f = derivatives[0] and
    symmetric P (the conjugate node's contribution is folded into the
    factor 2 of w)."""
    a, b = support
    pad = 0.5 * (b - a)
    lo, hi = a - pad, b + pad
    x_nodes = lo + (np.arange(nx) + 0.5) * (hi - lo) / nx
    dx = (hi - lo) / nx
    dtab = [np.asarray(derivatives[j](x_nodes), dtype=float) for j in range(K + 2)]
    y_nodes = (np.arange(ny) + 0.5) * (_HS_Y / ny)
    dy = _HS_Y / ny
    chi = falling_step(0.5 * _HS_Y, _HS_Y)
    fac = [math.factorial(j) for j in range(K + 2)]
    zs, ws = [], []
    for yv in y_nodes:
        cy = float(chi(yv))
        cyd = float(chi.d(yv))
        if cy == 0.0 and cyd == 0.0:
            continue
        iy = 1j * yv
        # dbar f~ = (1/2) chi f^{K+1} (iy)^K / K! + (i/2) chi' sum f^k (iy)^k / k!
        taylor = np.zeros(len(x_nodes), dtype=complex)
        for j in range(K + 1):
            taylor += dtab[j] * iy**j / fac[j]
        dbar = 0.5 * cy * dtab[K + 1] * iy**K / fac[K] + 0.5j * cyd * taylor
        keep = np.abs(dbar) > 1e-15 * np.max(np.abs(dbar))
        zs.append(x_nodes[keep] + iy)
        ws.append(dbar[keep])
    return np.concatenate(zs), (2.0 / math.pi) * dx * dy * np.concatenate(ws)


def _hs_matrix(op, derivatives, support, K, nx, ny):
    diag, off = op.real_tridiagonal()
    z, w = _hs_nodes(derivatives, support, K, nx, ny)
    return _resolvent_sum(diag, off, z, w)


def _resolvent_sum(diag, off, z, w):
    """Re sum_m w_m (T - z_m)^{-1} for the real symmetric tridiagonal T =
    tridiag(off, diag, off), without factorizing or solving per node.

    The inverse of a tridiagonal matrix is semiseparable (Meurant, SIAM J.
    Matrix Anal. Appl. 13 (1992) 707-728).  With the forward and backward
    Schur pivots

        d_0 = a_0 - z,      d_i = a_i - z - b_{i-1}^2 / d_{i-1},
        e_{n-1} = a_{n-1} - z,  e_i = a_i - z - b_i^2 / e_{i+1},

    G = (T - z)^{-1} has G_jj = 1 / (d_j + e_j - (a_j - z)) and, for i < j,
    G_ij = G_jj prod_{k=i}^{j-1} (-b_k / d_k).  Each row block [i0, i0 + B)
    takes the cumulative product P from i0, so its upper-triangle entries
    summed over the nodes are Re((1/P[rows]) @ (w G_jj P)^T): one GEMM per
    row block.  Products restart at every block so that they stay in range;
    the lower triangle follows by symmetry.  Nodes go through in chunks so
    the n x chunk work arrays stay a few MB.

    Raises ConvergenceError if the result is not finite (e.g. a real node
    at which a forward pivot vanishes)."""
    n = diag.size
    b2 = off * off
    acc = np.zeros((n, n))
    with np.errstate(all="ignore"):
        for c0 in range(0, z.size, _HS_NODE_CHUNK):
            shifted = diag[:, None] - z[None, c0:c0 + _HS_NODE_CHUNK]
            d = np.empty_like(shifted)
            e = np.empty_like(shifted)
            d[0] = shifted[0]
            for i in range(1, n):
                d[i] = shifted[i] - b2[i - 1] / d[i - 1]
            e[-1] = shifted[-1]
            for i in range(n - 2, -1, -1):
                e[i] = shifted[i] - b2[i] / e[i + 1]
            wG = w[c0:c0 + _HS_NODE_CHUNK] / (d + e - shifted)
            ratio = -off[:, None] / d[:-1]
            P = np.empty_like(shifted)
            for i0 in range(0, n, _HS_ROW_BLOCK):
                Pb = P[i0:]
                Pb[0] = 1.0
                np.cumprod(ratio[i0:], axis=0, out=Pb[1:])
                rows = 1.0 / Pb[:_HS_ROW_BLOCK]
                acc[i0:i0 + _HS_ROW_BLOCK, i0:] += (rows @ (wG[i0:] * Pb).T).real
    # rows of a block also hold entries left of the diagonal, which are not
    # G_ij: only the upper triangle is kept
    out = np.triu(acc)
    out += np.triu(out, 1).T
    if not np.all(np.isfinite(out)):
        raise ConvergenceError(
            "Helffer-Sjostrand resolvent sum is not finite (a node on the "
            "real spectrum?)"
        )
    return out


def nonchar_bound(op: DiscreteOperator, psi: Callable, lambda2: float,
                  t_list) -> float:
    """sup over t of ||(Id - psi(P)) (P - lambda2 - i t)^{-1}|| on L^2,
    by spectral mapping on the discrete spectrum."""
    return _spectral_sup(psi, lambda2, t_list, eigenvalues(op))


def scalar_spectral_bound(psi: Callable, lambda2: float, t_list,
                          sigma_range) -> float:
    """sup over t and a fine sigma grid of |1 - psi(sigma)| / |sigma - w|."""
    sig = np.linspace(sigma_range[0], sigma_range[1], _SCALAR_SAMPLES)
    return _spectral_sup(psi, lambda2, t_list, sig)


def _spectral_sup(psi, lambda2, t_list, sigma):
    """max over t in t_list and the points sigma of
    |1 - psi(sigma)| / |sigma - (lambda2 + i t)|."""
    off_char = np.abs(1.0 - psi(sigma))
    best = 0.0
    for t in t_list:
        best = max(best, float(np.max(
            off_char / np.abs(sigma - complex(lambda2, t)))))
    return best
