"""Discrete operators, shifted solves, weighted norms, functional calculus."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

from nontrap import geometry as geo
from nontrap import quantize as qz
from nontrap import resolvent as rv
from nontrap.errors import ConfigurationError, ConvergenceError
from nontrap.smooth import plateau

from conftest import apply_separable


def test_dispersion_free_operator(free_1d):
    op = rv.discretize(free_1d, 0.1, L=100.0, N=4096, boundary="dirichlet")
    diag, off = op.real_tridiagonal()
    vals = np.sort(rv.eigenvalues(op))
    N = op.grid.N
    k = np.arange(1, N)
    exact = np.sort(2.0 * op.h**2 / op.grid.dz**2 * (1.0 - np.cos(k * np.pi / N)))
    scale = max(1.0, exact.max())
    assert np.max(np.abs(vals - exact)) <= 1e-10 * scale


def test_potential_adds_diagonal(free_1d, longrange_1d):
    op0 = rv.discretize(free_1d, 0.1, L=100.0, N=4096, boundary="dirichlet")
    op1 = rv.discretize(longrange_1d, 0.1, L=100.0, N=4096, boundary="dirichlet")
    d0, o0 = op0.real_tridiagonal()
    d1, o1 = op1.real_tridiagonal()
    V = longrange_1d.potential.value(op0.grid.z)
    assert np.allclose(d1 - d0, V, atol=1e-14)
    assert np.array_equal(o0, o1)


def test_resolution_guard(free_1d):
    with pytest.raises(ConfigurationError):
        rv.discretize(free_1d, 0.01, L=100.0, N=4096)
    with pytest.raises(ConfigurationError):
        rv.discretize(free_1d, 0.1, L=20.0, N=4096)  # box too small


def test_solve_shifted_inverse_consistency(longrange_1d):
    op = rv.discretize(longrange_1d, 0.1, L=100.0, N=4096, boundary="dirichlet")
    rng = np.random.default_rng(3)
    g = rng.standard_normal(op.size) * np.exp(-((op.grid.z / 30.0) ** 2))
    w = complex(1.0, 0.05)
    f = rv._tridiagonal_apply(*op.diagonals(), g.astype(complex)) - w * g
    u = rv.BandedSolver(op, w).solve(f)
    assert np.linalg.norm(u - g) <= 1e-9 * np.linalg.norm(g)


def test_conjugation_symmetry(longrange_1d):
    """t < 0 solution is the complex conjugate of the t > 0 one (real f,
    real V, dirichlet)."""
    op = rv.discretize(longrange_1d, 0.1, L=100.0, N=4096, boundary="dirichlet")
    f = np.exp(-((op.grid.z) ** 2)).astype(complex)
    up = rv.BandedSolver(op, complex(1.0, 0.02)).solve(f)
    um = rv.BandedSolver(op, complex(1.0, -0.02)).solve(f)
    assert np.max(np.abs(um - np.conj(up))) <= 1e-9


def test_cap_solves_match_dense(longrange_1d):
    """On the complex symmetric CAP operator at t = 0, the forward, raw
    and adjoint solves agree with a dense solve."""
    op = rv.discretize(longrange_1d, 0.3, L=40.0, N=512, boundary="cap")
    w = complex(longrange_1d.lambda2, 0.0)
    diag, off = op.diagonals()
    M = np.diag(diag - w) + np.diag(off, 1) + np.diag(off, -1)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size)
    solver = rv.BandedSolver(op, w)
    for u, ref in ((solver.solve(f), np.linalg.solve(M, f)),
                   (solver.solve_uncertified(f), np.linalg.solve(M, f)),
                   (solver.solve_adjoint(f), np.linalg.solve(M.conj().T, f))):
        assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_singular_shift_raises():
    """An exactly zero pivot is reported, not divided by."""

    class ZeroOperator:
        def diagonals(self):
            return np.zeros(16, dtype=complex), np.zeros(15, dtype=complex)

    with pytest.raises(ConvergenceError, match="singular shifted factorization"):
        rv.BandedSolver(ZeroOperator(), 0.0)


def test_adjoint_symmetry_weighted_norm(longrange_1d):
    op = rv.discretize(longrange_1d, 0.1, L=100.0, N=2**14, boundary="dirichlet")
    a = rv.weighted_resolvent_norm(op, 1.0, 0.01, 0.7)
    b = rv.weighted_resolvent_norm(op, 1.0, -0.01, 0.7)
    assert a.value == pytest.approx(b.value, rel=1e-4)


def _dense_kernel(K):
    """Explicit weighted kernel matrix of a FreeKernelOperator (small M)."""
    dz = np.abs(K.z[:, None] - K.z[None, :])
    kern = K.pref * np.exp(1j * K.kappa * dz) * K.dzg
    return K.wr[:, None] * kern * K.wr[None, :]


def test_free_kernel_fast_apply_matches_dense():
    K = rv.FreeKernelOperator(1.0, 0.05, 0.1, 0.7, L=30.0, M=1000)
    Kd = _dense_kernel(K)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    assert np.linalg.norm(K.apply(v) - Kd @ v) <= 1e-10 * np.linalg.norm(Kd @ v)
    assert np.linalg.norm(K.apply_adjoint(v) - Kd.conj().T @ v) <= 1e-10 * np.linalg.norm(v)
    assert K.norm().value == pytest.approx(
        np.linalg.svd(Kd, compute_uv=False)[0], rel=1e-4
    )


def test_oracle_grid_doubling_certificate():
    n = rv.analytic_free_resolvent_norm(1.0, 0.01, 0.1, 0.7, L=200.0, M=2**14)
    assert n > 0  # certify=True already enforces < 0.5% doubling change


def test_oracle_h_halving_doubles_proportional_shift():
    """With shifts proportional to h (t = h/10) the kernel is exactly
    h^-1 times a fixed shape, so halving h doubles the norm."""
    vals = {}
    for h in (0.2, 0.1, 0.05):
        vals[h] = rv.analytic_free_resolvent_norm(
            1.0, h / 10.0, h, 0.7, L=400.0, M=2**15, certify=False
        )
    assert vals[0.1] / vals[0.2] == pytest.approx(2.0, rel=0.03)
    assert vals[0.05] / vals[0.1] == pytest.approx(2.0, rel=0.03)


def test_oracle_monotone_in_t():
    ts = [0.005, 0.02, 0.1, 0.3, 0.5]
    ns = [
        rv.analytic_free_resolvent_norm(1.0, t, 0.1, 0.7, L=200.0, M=2**14, certify=False)
        for t in ts
    ]
    assert np.all(np.diff(ns) < 0)


def test_weighted_norm_matches_oracle(free_1d):
    """Criterion-1 midpoint: cap-mode discrete norm within 2% of the
    analytic kernel value at h = 0.1, s = 0.7."""
    op = rv.discretize(free_1d, 0.1, L=200.0, N=2**15, boundary="cap")
    got = rv.weighted_resolvent_norm(op, 1.0, 1e-3, 0.7).value
    want = rv.analytic_free_resolvent_norm(1.0, 1e-3, 0.1, 0.7, L=200.0, M=2**15)
    assert abs(got - want) <= 0.02 * want


def test_unweighted_dirichlet_blowup(free_1d):
    """s = 0 with tiny t: the norm is 1/dist(lambda^2, spec), the
    unweighted blow-up that motivates the weights."""
    op = rv.small_box_operator(free_1d, 0.3, L=40.0, N=256)
    vals = rv.eigenvalues(op)
    dist = float(np.min(np.abs(vals - 1.0)))
    n = rv.weighted_resolvent_norm(op, 1.0, 1e-9, 0.0).value
    assert n == pytest.approx(1.0 / dist, rel=1e-3)


def test_large_t_resolvent_bound(free_1d):
    op = rv.discretize(free_1d, 0.1, L=200.0, N=2**15, boundary="dirichlet")
    n = rv.weighted_resolvent_norm(op, 1.0, 1.0, 0.7).value
    assert n <= 1.0 / 1.0 * 1.05


def test_h_sweep_free_slope(free_1d):
    rep = rv.h_sweep(
        free_1d, h_list=(0.2, 0.14, 0.1), L=200.0, N=2**14
    )
    assert abs(rep.slope - 1.0) <= 0.05
    assert rep.max_uniformity_ratio <= 3.0


def test_window_sup_traps_vs_free():
    """Reduced-size version of the trapping-contrast measurement."""
    free = geo.preset_model("zero")
    trap = geo.preset_model("double_bump")
    fs, _ = rv.window_sup_norm(free, 0.1, n_scan=21, L=200.0, N=2**14)
    ts, _ = rv.window_sup_norm(trap, 0.1, n_scan=21, L=200.0, N=2**14)
    assert ts >= 5.0 * fs  # full contrast is certified at h = 0.05 in acceptance


def test_quantize_cross_check_fd(longrange_1d):
    """Op(zeta^2 + V) agrees with the finite-difference P to O(dz^2) on a
    smooth test function."""
    h = 0.2
    errs = {}
    for N in (2048, 4096):
        op = rv.discretize(longrange_1d, h, L=100.0, N=N, boundary="dirichlet")
        z = op.grid.z
        u = np.exp(-(z**2) / 4.0)
        upp = (z**2 / 4.0 - 0.5) * u
        analytic = -(h**2) * upp + longrange_1d.potential.value(z) * u
        Pu = rv._tridiagonal_apply(*op.diagonals(), u.astype(complex))
        errs[N] = np.max(np.abs(Pu.real - analytic))
    assert errs[4096] <= errs[2048] / 3.0  # O(dz^2) convergence
    q = qz.GridQuantization(L=50.0, N=2048, h=h, energy_scale=0.3)
    u = np.exp(-(q.z**2) / 4.0)
    upp = (q.z**2 / 4.0 - 0.5) * u
    spec_apply = apply_separable(
        lambda z: np.ones_like(z), lambda zeta: zeta**2, q, u
    ).real + longrange_1d.potential.value(q.z) * u
    analytic = -(h**2) * upp + longrange_1d.potential.value(q.z) * u
    assert np.max(np.abs(spec_apply - analytic)) <= 1e-8


def test_function_of_operator_identity(free_1d):
    op = rv.small_box_operator(free_1d, 0.3, L=40.0, N=256)
    F = rv.function_of_operator(op, lambda s: np.ones_like(s), method="eigen")
    assert np.max(np.abs(F - np.eye(op.size))) <= 1e-10


def test_function_of_operator_linear(free_1d):
    op = rv.small_box_operator(free_1d, 0.3, L=40.0, N=256)
    F = rv.function_of_operator(op, lambda s: s, method="eigen")
    diag, off = op.real_tridiagonal()
    P = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.max(np.abs(F - P)) <= 1e-10


def test_helffer_sjostrand_matches_eigen(free_1d):
    op = rv.small_box_operator(free_1d, 0.3, L=40.0, N=256)
    f, derivs = rv.gaussian_bump(1.0, 0.5)
    A = rv.function_of_operator(op, f, method="eigen")
    B = rv.function_of_operator(
        op, f, method="helffer_sjostrand", support=(-0.5, 2.5),
        K=4, nx=100, ny=50, derivatives=derivs, check=False,
    )
    assert np.linalg.norm(A - B, 2) <= 1e-6


def test_helffer_sjostrand_refinement_check(free_1d):
    """check=True reruns the quadrature at half resolution; on the default
    200 x 100 contour grid the two agree and the result matches eigen."""
    op = rv.small_box_operator(free_1d, 0.3, L=40.0, N=256)
    f, derivs = rv.gaussian_bump(1.0, 0.5)
    A = rv.function_of_operator(op, f, method="eigen")
    B = rv.function_of_operator(
        op, f, method="helffer_sjostrand", support=(-0.5, 2.5),
        K=4, derivatives=derivs, check=True,
    )
    assert np.linalg.norm(A - B, 2) <= 1e-6


def test_helffer_sjostrand_matches_explicit_inverse(double_bump_1d):
    """The semiseparable resolvent sum equals the explicit sum over the
    quadrature nodes of w * inv(P - z)."""
    op = rv.small_box_operator(double_bump_1d, 0.3, L=8.0, N=32)
    _, derivs = rv.gaussian_bump(1.0, 0.5)
    support, K, nx, ny = (-0.5, 2.5), 4, 6, 4
    z, w = rv._hs_nodes(derivs, support, K, nx, ny)
    diag, off = op.real_tridiagonal()
    assert np.ptp(diag) > 0.1  # the potential is felt, not only the free line
    P = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eye = np.eye(op.size)
    ref = np.real(sum(wm * np.linalg.inv(P - zm * eye) for zm, wm in zip(z, w)))
    got = rv._hs_matrix(op, derivs, support, K, nx, ny)
    assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


def test_resolvent_sum_rejects_nonfinite(double_bump_1d):
    """A real node at which the first forward pivot a_0 - z vanishes makes
    the products non-finite: an error, never a NaN matrix."""
    op = rv.small_box_operator(double_bump_1d, 0.3, L=8.0, N=32)
    diag, off = op.real_tridiagonal()
    with pytest.raises(ConvergenceError):
        rv._resolvent_sum(diag, off, np.array([complex(diag[0])]),
                          np.array([1.0 + 0j]))


def test_power_norm_fallback_not_converged():
    """An estimate accepted through the maxiter fallback is marked."""
    D = np.diag(np.concatenate([np.linspace(0.0, 0.5, 7), [1.0]])).astype(complex)
    DH = D.conj().T
    res = rv.power_norm(lambda v: D @ v, lambda v: DH @ v, 8)
    assert res.converged and res.iterations < 500
    capped = rv.power_norm(lambda v: D @ v, lambda v: DH @ v, 8, tol=1e-12,
                           maxiter=6)
    assert not capped.converged and capped.iterations == 6
    assert capped.value == pytest.approx(1.0, rel=1e-4)
    # one estimate leaves no last change for the fallback to accept
    D2 = np.diag([1.0, 0.5]).astype(complex)
    with pytest.raises(ConvergenceError):
        rv.power_norm(lambda v: D2 @ v, lambda v: D2 @ v, 2, tol=1e-30,
                      maxiter=1)


def _dense_with_singular_values(sigma, rows, seed):
    """rows x len(sigma) complex matrix with the given singular values."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    U, _ = np.linalg.qr(rng.standard_normal((rows, n))
                        + 1j * rng.standard_normal((rows, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return (U * np.asarray(sigma)) @ W.conj().T


@pytest.mark.parametrize("sigma_2,rest", [(0.999, 0.9), (1.0 - 1e-6, 0.3)])
def test_lanczos_norm_near_degenerate(sigma_2, rest):
    """sigma_2 / sigma_1 = 0.999, where a power iteration's error shrinks
    by only 0.999^2 per step (its relative-change stop quit 2.7e-4 low);
    and a pair 1e-6 apart above a far rest, where a gap-aware stop
    r^2 / (theta_1 - theta_2) <= tol theta_1 quits 3e-7 low after 5 steps,
    theta_2 being the rest's top while the pair is unresolved.  The norm
    matches the dense SVD, and the reported residual and sigma_2 are
    consistent with it."""
    sigma = np.concatenate([[1.0, sigma_2], np.linspace(rest, 0.0, 118)])
    M = _dense_with_singular_values(sigma, 150, seed=5)
    MH = M.conj().T
    res = rv.power_norm(lambda v: M @ v, lambda v: MH @ v, M.shape[1])
    svd = np.linalg.norm(M, 2)
    assert res.converged
    assert abs(res.value - svd) <= 1e-9 * svd
    assert 0.0 <= res.residual <= 1e-8 * res.value  # power_norm's tol
    assert res.sigma_2 <= res.value
    assert res.sigma_2 == pytest.approx(sigma_2, rel=1e-9)


def test_lanczos_norm_matches_eigsh_on_sweep_cell(longrange_1d):
    """A sweep cell at small N against ARPACK on A^H A (tol 1e-12)."""
    h, lam2, s = 0.2, 1.0, 0.7
    op = rv.discretize(longrange_1d, h, L=40.0, N=2**11, boundary="cap")
    res = rv.weighted_resolvent_norm(op, lam2, 0.0, s)
    solver = rv.BandedSolver(op, complex(lam2, 0.0))
    weight = (1.0 + op.grid.z**2) ** (-0.5 * s)

    def gram(v):
        u = weight * solver.solve_uncertified(weight * v.ravel())
        return weight * solver.solve_adjoint(weight * u)

    B = LinearOperator((op.size, op.size), matvec=gram, dtype=complex)
    ref = math.sqrt(eigsh(B, k=1, which="LA", tol=1e-12,
                          return_eigenvectors=False)[0])
    assert res.converged
    assert abs(res.value - ref) <= 1e-8 * ref
    assert res.residual <= 1e-8 * res.value and res.sigma_2 <= res.value


def test_lanczos_basis_bounded():
    """Past the basis cap the Lanczos norm restarts instead of growing its
    basis: memory stays near _LANCZOS_BASIS vectors of length n."""
    n = 4096
    d = np.linspace(0.0, 1.0, n).astype(complex)
    maxiter = 3 * rv._LANCZOS_BASIS
    tracemalloc.start()
    try:
        res = rv.power_norm(lambda v: d * v, lambda v: d * v, n, tol=1e-30,
                            maxiter=maxiter)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not res.converged and res.iterations == maxiter
    assert res.value == pytest.approx(1.0, rel=1e-4)
    assert peak <= (rv._LANCZOS_BASIS + 16) * n * 16


def test_helffer_sjostrand_needs_derivatives(free_1d):
    """Helffer-Sjostrand without f^(0..K+1) as callables is rejected."""
    op = rv.small_box_operator(free_1d, 0.3, L=40.0, N=256)
    f, derivs = rv.gaussian_bump(1.0, 0.5)
    for given in (None, derivs[:5]):
        with pytest.raises(ConfigurationError, match="order 5"):
            rv.function_of_operator(op, f, method="helffer_sjostrand",
                                    support=(-0.5, 2.5), K=4,
                                    derivatives=given)


def test_nonchar_bound_trivial_and_windowed(free_1d):
    op = rv.small_box_operator(free_1d, 0.3, L=40.0, N=512)
    vals = rv.eigenvalues(op)
    hi = float(vals.max()) + 1.0
    ones = lambda s: np.ones_like(s)  # noqa: E731
    assert rv.nonchar_bound(op, ones, 1.0, [1e-4, 1.0]) == 0.0
    psi = plateau(0.6, 0.75, 1.25, 1.4)
    ts = np.geomspace(1e-4, 1.0, 9)
    nb = rv.nonchar_bound(op, psi, 1.0, ts)
    sb = rv.scalar_spectral_bound(psi, 1.0, ts, (0.0, hi))
    assert nb <= 4.1
    assert nb <= 1.05 * sb


def test_nonchar_bound_h_drift(free_1d):
    """Bound drift < 10% across h with dz scaled to keep the spectral span
    matched."""
    psi = plateau(0.6, 0.75, 1.25, 1.4)
    ts = np.geomspace(1e-4, 1.0, 5)
    bounds = []
    for h, N in [(0.2, 512), (0.1, 1024), (0.05, 2048)]:
        op = rv.small_box_operator(free_1d, h, L=40.0, N=N)
        bounds.append(rv.nonchar_bound(op, psi, 1.0, ts))
    b = np.array(bounds)
    assert (b.max() - b.min()) / b.max() < 0.10


def test_cap_vs_dirichlet_cross_mode(free_1d):
    """Cap-mode t=0 and dirichlet t=h/10 norms agree within a factor 2."""
    h = 0.1
    op_cap = rv.discretize(free_1d, h, L=200.0, N=2**14, boundary="cap")
    op_dir = rv.discretize(free_1d, h, L=200.0, N=2**14, boundary="dirichlet")
    n_cap = rv.weighted_resolvent_norm(op_cap, 1.0, 0.0, 0.7).value
    n_dir = rv.weighted_resolvent_norm(op_dir, 1.0, h / 10.0, 0.7).value
    assert 0.5 <= n_cap / n_dir <= 2.0


@pytest.mark.parametrize("h_list", [(0.1,), (0.1, 0.1)])
def test_h_sweep_needs_two_distinct_h(free_1d, h_list):
    """A slope through one h is meaningless: rejected before any cell."""
    with pytest.raises(ConfigurationError, match="two distinct h"):
        rv.h_sweep(free_1d, h_list=h_list, L=200.0, N=2**13)


def test_h_sweep_parallel_matches_serial(free_1d):
    a = rv.h_sweep(free_1d, h_list=(0.2, 0.1), L=200.0, N=2**13, jobs=1)
    b = rv.h_sweep(free_1d, h_list=(0.2, 0.1), L=200.0, N=2**13, jobs=2)
    na = sorted((c.h, c.lambda2, c.norm) for c in a.cells)
    nb = sorted((c.h, c.lambda2, c.norm) for c in b.cells)
    assert na == nb
