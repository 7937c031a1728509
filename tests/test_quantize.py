"""Grid quantization: symbol map, commutator law, Garding floors, norms."""

import numpy as np
import pytest

from nontrap import quantize as qz
from nontrap import resolvent as rv
from nontrap.errors import ConfigurationError

from conftest import apply_separable

L = 3 * np.pi
N = 1024


def grid(h):
    return qz.GridQuantization(L=L, N=N, h=h)


def _smooth_example_symbol():
    """sin(z)^2 exp(-zeta^2): nonnegative with smooth quadratic zeros; its
    measured floor is negative and o(h) (stronger than the sharp bound)."""
    return qz.Symbol(fn=lambda z, zeta: np.sin(z) ** 2 * np.exp(-(zeta**2)),
                     name="sin2_gauss")


def sym_zeta2():
    return qz.Symbol(
        fn=lambda z, zeta: zeta**2 + 0.0 * z,
        dz=lambda z, zeta: 0.0 * z,
        dzeta=lambda z, zeta: 2.0 * zeta,
        name="zeta2",
    )


def sym_gauss():
    return qz.Symbol(
        fn=lambda z, zeta: np.exp(-(z**2)) + 0.0 * zeta,
        dz=lambda z, zeta: -2.0 * z * np.exp(-(z**2)),
        dzeta=lambda z, zeta: 0.0 * zeta,
        name="gauss",
    )


def test_quantize_identity():
    q = grid(0.1)
    one = qz.Symbol(fn=lambda z, zeta: np.ones_like(z), name="one")
    A = qz.quantize(one, q)
    assert np.max(np.abs(A - np.eye(q.N))) <= 1e-12


def test_quantize_momentum_eigenvector():
    """Op(zeta) applied to a grid plane wave e^{iz theta/h} returns theta
    times it, exactly on the momentum grid."""
    q = grid(0.1)
    k_idx = 40
    theta = q.zeta[k_idx]
    u = np.exp(1j * q.z * theta / q.h)
    mom = qz.Symbol(fn=lambda z, zeta: zeta + 0.0 * z, name="zeta")
    A = qz.quantize(mom, q)
    assert np.max(np.abs(A @ u - theta * u)) <= 1e-8


def test_quantize_separable_fast_path_matches_matrix():
    q = grid(0.1)
    a = qz.Symbol(fn=lambda z, zeta: np.exp(-(z**2)) * np.exp(-(zeta**2)))
    A = qz.quantize(a, q)
    u = np.exp(-((q.z - 1.0) ** 2)) * np.cos(3 * q.z)
    fast = apply_separable(
        lambda z: np.exp(-(z**2)), lambda zeta: np.exp(-(zeta**2)), q, u
    )
    assert np.max(np.abs(A @ u - fast)) <= 1e-10


def test_adjoint_law_multiplier_and_diagonal():
    q = grid(0.1)
    g = qz.Symbol(fn=lambda z, zeta: np.exp(1j * zeta) * np.exp(-(zeta**2)) + 0.0 * z)
    A = qz.quantize(g, q)
    Abar = qz.quantize(
        qz.Symbol(fn=lambda z, zeta: np.conj(g.fn(z, zeta))), q
    )
    assert np.max(np.abs(A.conj().T - Abar)) <= 1e-12
    f = qz.Symbol(fn=lambda z, zeta: (1.0 + 0.3j) * np.exp(-(z**2)) + 0.0 * zeta)
    B = qz.quantize(f, q)
    Bbar = qz.quantize(qz.Symbol(fn=lambda z, zeta: np.conj(f.fn(z, zeta))), q)
    assert np.max(np.abs(B.conj().T - Bbar)) <= 1e-12


def test_aliasing_guard():
    with pytest.raises(ConfigurationError):
        qz.GridQuantization(L=L, N=N, h=0.01)  # represented band too small
    with pytest.raises(ConfigurationError):
        qz.GridQuantization(L=100.0, N=256, h=0.1)  # h-oscillation unresolved


def test_commutator_linear_symbol_exact():
    q = grid(0.1)
    mom = qz.Symbol(
        fn=lambda z, zeta: zeta + 0.0 * z,
        dz=lambda z, zeta: 0.0 * z,
        dzeta=lambda z, zeta: np.ones_like(zeta),
        name="zeta",
    )
    d = qz.commutator_defect(mom, sym_gauss(), q)
    assert d <= 1e-8


def test_commutator_self_commutes():
    q = grid(0.1)
    a = sym_gauss()
    assert qz.commutator_defect(a, a, q) <= 1e-12


def test_commutator_defect_h_scaling():
    """defect ~= h sup|f''| for (zeta^2, e^{-z^2}); halving h halves it
    within 15%, log-log slope 1 +- 0.2 over 3 halvings."""
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    ds = np.array([qz.commutator_defect(sym_zeta2(), sym_gauss(), grid(h)) for h in hs])
    assert np.all(np.abs(ds / hs - 2.0) <= 0.3)  # C close to sup|f''| = 2
    ratios = ds[:-1] / ds[1:]
    assert np.all(np.abs(ratios - 2.0) <= 0.3)  # halving within 15%
    slope = np.polyfit(np.log(hs), np.log(ds), 1)[0]
    assert abs(slope - 1.0) <= 0.2


def _complex_quantize(a, q):
    """The general construction: complex row kernels by inverse FFT."""
    rows = np.fft.ifft(a.table(q), axis=1)
    i = np.arange(q.N)
    return rows[i[:, None], (i[:, None] - i[None, :]) % q.N]


def _dense_band_defect(a, b, q, band):
    """Q D Q on the dense N x N matrices, D = (i/h)[A, B] - Op({a, b}) and
    Q the sharp projector onto |zeta| <= band."""
    A, B = _complex_quantize(a, q), _complex_quantize(b, q)
    P = _complex_quantize(qz.poisson_bracket(a, b), q)
    D = (1j / q.h) * (A @ B - B @ A) - P
    mask = (np.abs(q.zeta) <= band).astype(float)
    Q = np.fft.ifft(mask[:, None] * np.fft.fft(np.eye(q.N), axis=0), axis=0)
    return Q @ D @ Q


def sym_mixed_pair():
    """A non-separable pair whose defect is not diagonal in either basis."""
    a = qz.Symbol(
        fn=lambda z, zeta: zeta**2 + 0.3 * np.sin(z) * zeta,
        dz=lambda z, zeta: 0.3 * np.cos(z) * zeta,
        dzeta=lambda z, zeta: 2.0 * zeta + 0.3 * np.sin(z),
        name="mixed_a",
    )
    b = qz.Symbol(
        fn=lambda z, zeta: np.exp(-(z**2)) * np.cos(zeta),
        dz=lambda z, zeta: -2.0 * z * np.exp(-(z**2)) * np.cos(zeta),
        dzeta=lambda z, zeta: -np.exp(-(z**2)) * np.sin(zeta),
        name="mixed_b",
    )
    return a, b


@pytest.mark.parametrize("pair,n,frac", [("shipped", N, None),
                                         ("mixed", 256, None),
                                         ("mixed", 256, 0.3),
                                         ("mixed", 256, 0.9)])
def test_commutator_defect_matches_dense_band_product(pair, n, frac):
    """The momentum-band defect equals the Lanczos norm of the dense Q D Q
    to 1e-12 relative, and the SVD norm to 1e-9.  The shipped
    pair's defect -i h b'' is diagonal, so only the mixed pair exercises
    the off-diagonal gather."""
    a, b = (sym_zeta2(), sym_gauss()) if pair == "shipped" else sym_mixed_pair()
    q = qz.GridQuantization(L=L, N=n, h=0.1)
    band = None if frac is None else frac * q.zeta_max
    M = _dense_band_defect(a, b, q, 0.5 * q.zeta_max if band is None else band)
    MH = M.conj().T
    ref = rv.power_norm(lambda v: M @ v, lambda v: MH @ v, q.N).value
    got = qz.commutator_defect(a, b, q, band)
    assert abs(got - ref) <= 1e-12 * ref
    svd = np.linalg.norm(M, 2)
    assert abs(got - svd) <= 1e-9 * svd


def test_quantize_real_even_symbol_is_real():
    q = grid(0.1)
    a = qz.Symbol(fn=lambda z, zeta: np.exp(-(z**2)) * np.exp(-(zeta**2)))
    A = qz.quantize(a, q)
    assert A.dtype == np.float64
    assert np.max(np.abs(A - _complex_quantize(a, q))) <= 1e-15


def test_quantize_odd_or_complex_symbol_stays_complex():
    q = grid(0.1)
    odd = qz.Symbol(fn=lambda z, zeta: zeta * np.exp(-(zeta**2)) + 0.0 * z)
    g = qz.Symbol(fn=lambda z, zeta: np.exp(1j * zeta) * np.exp(-(zeta**2)) + 0.0 * z)
    f = qz.Symbol(fn=lambda z, zeta: (1.0 + 0.3j) * np.exp(-(z**2)) + 0.0 * zeta)
    for sym in (odd, g, f):
        A = qz.quantize(sym, q)
        assert np.iscomplexobj(A)
        assert np.array_equal(A, _complex_quantize(sym, q))


@pytest.mark.parametrize("h", [0.2, 0.025])
def test_garding_floor_real_path_matches_hermitian(h):
    q = grid(h)
    for sym in qz.garding_test_symbols() + [_smooth_example_symbol()]:
        ref = np.linalg.eigvalsh(qz.symmetrize(_complex_quantize(sym, q)))[0]
        assert abs(qz.garding_floor(sym, q) - ref) <= 1e-14, sym.name


def test_garding_floor_zero_symbol():
    q = grid(0.1)
    zero = qz.Symbol(fn=lambda z, zeta: np.zeros_like(z))
    assert qz.garding_floor(zero, q) == 0.0


def test_garding_floor_smooth_example():
    """The smooth quadratic-zero symbol: floors negative, |floor|/h bounded
    (in fact decaying -- stronger than the sharp Garding guarantee)."""
    hs = [0.2, 0.1, 0.05]
    floors = np.array([qz.garding_floor(_smooth_example_symbol(), grid(h))
                       for h in hs])
    assert np.all(floors < 0)
    ratios = np.abs(floors) / hs
    assert np.all(ratios <= ratios[0] * 1.05)  # no upward drift


def test_garding_floor_suite_h_stable():
    """|min-eig|/h stays within 50% drift over the sweep for each shipped
    nonnegative suite symbol."""
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    for sym in qz.garding_test_symbols():
        ratios = np.array([abs(qz.garding_floor(sym, grid(h))) / h for h in hs])
        drift = (ratios.max() - ratios.min()) / ratios.max()
        assert drift <= 0.5, f"{sym.name}: drift {drift:.2f}"


def test_garding_elliptic_floor():
    """a >= c0 > 0 quantizes with floor >= c0/2 for small h."""
    ell = qz.Symbol(fn=lambda z, zeta: 0.5 + np.sin(z) ** 2 * np.exp(-(zeta**2)))
    for h in [0.2, 0.1, 0.05]:
        assert qz.garding_floor(ell, grid(h)) >= 0.25


def test_weighted_norm_plain_l2():
    q = grid(0.1)
    u = np.exp(-(q.z**2))
    assert qz.weighted_norm(u, 0, 0, q) == pytest.approx(q.norm(u))


def test_weighted_norm_weights_cancel():
    q = grid(0.1)
    bump = np.exp(-(q.z**2)) * (np.abs(q.z) < 4.0)
    u = bump / np.sqrt(1.0 + q.z**2)
    assert qz.weighted_norm(u, 0, 1.0, q) == pytest.approx(q.norm(bump), rel=1e-12)


def test_weighted_norm_second_derivative():
    """m = 2 norm of a Gaussian agrees with the direct-derivative value."""
    q = grid(0.1)
    u = np.exp(-(q.z**2) / 2.0)
    got = qz.weighted_norm(u, 2.0, 0.0, q)
    upp = (q.z**2 - 1.0) * u  # u'' analytically
    direct = q.norm(u - q.h**2 * upp)
    assert abs(got - direct) <= 1e-6 * direct


def test_operator_norm_known_matrix():
    vals = np.concatenate([np.linspace(0.0, 2.0, N - 1), [3.0]])
    D = np.diag(vals).astype(complex)
    DH = D.conj().T
    norm = rv.power_norm(lambda v: D @ v, lambda v: DH @ v, N).value
    assert norm == pytest.approx(3.0, rel=1e-5)
