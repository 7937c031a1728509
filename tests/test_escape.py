"""Escape-function construction: constants, cutoffs, tubes, certificates."""

import math

import numpy as np
import pytest

from nontrap import escape as esc
from nontrap import flow as fl
from nontrap import geometry as geo
from nontrap.errors import ConfigurationError, ConstructionError, IntegrationError
from nontrap.smooth import falling_step


@pytest.fixture(scope="module")
def report_free(escape_free):
    return esc.verify_proposition(escape_free, n_x=300, n_interior=40, n_energy=16)


@pytest.fixture(scope="module")
def report_longrange(escape_longrange):
    return esc.verify_proposition(escape_longrange, n_x=300, n_interior=40, n_energy=16)


# -- boundary constants ------------------------------------------------------

def test_boundary_constants_free(free_1d):
    c = esc.boundary_constants(free_1d)
    assert c.M == 0.0
    assert c.x0 == pytest.approx(min(1.0 / 6.0, c.c1 / 2.0, c.eps1))
    assert c.delta1 == pytest.approx(1.25 * free_1d.delta)
    assert c.c0 > 0


def test_boundary_constants_refinement_stability():
    model = geo.preset_model("longrange_pow")
    c1 = esc.boundary_constants(model, refine=1)
    c2 = esc.boundary_constants(model, refine=2)
    assert abs(c2.M - c1.M) <= 0.25 * max(c1.M, 1e-12)
    assert c2.x0 == pytest.approx(c1.x0, rel=0.25)


# -- cutoffs -----------------------------------------------------------------

def test_cutoff_values():
    cut = esc.build_cutoffs(1.0, 15.0 / 64.0, 0.25)
    assert cut.chi_minus(0.2) == 0.0
    assert cut.chi_minus(0.9) == 1.0
    assert cut.chi_plus(-0.9) == 1.0
    assert cut.chi_plus(0.0) == 0.0
    assert cut.rho(0.3) == 1.0
    assert cut.rho(1.1) == 0.0
    assert cut.psi(1.0) == 1.0
    assert cut.psi(0.7) == 0.0 and cut.psi(1.3) == 0.0


def test_cutoff_partial_slope_inequality():
    cut = esc.build_cutoffs(1.0, 15.0 / 64.0, 0.25)
    assert esc.partial_slope_margin(cut) >= 0.0
    assert cut.chi_partial(-0.75) > 0.0
    # supported in (-7/8, 7/8)
    assert cut.chi_partial(-0.88) == 0.0
    assert cut.chi_partial(0.88) == 0.0


def test_cutoff_monotonicity():
    cut = esc.build_cutoffs(1.0, 0.2, 0.1)
    t = np.linspace(-2, 2, 801)
    assert np.all(cut.chi_minus.d(t) >= 0)
    assert np.all(cut.chi_plus.d(t) <= 0)
    s = np.linspace(0, 2, 401)
    assert np.all(cut.rho.d(s) <= 0)


def test_cutoff_slope_overflow_guard():
    with pytest.raises(ConstructionError):
        esc.build_cutoffs(1.0, 1e-3, 0.1)


# -- boundary pieces ---------------------------------------------------------

def _demo_setup():
    model = geo.preset_model("zero", delta=0.5)
    consts = esc.BoundaryConstants(M=0.0, c1=0.4, eps1=0.5,
                                   x0=1.0 / 6.0, delta1=0.625, c0=1.0)
    cutoffs = esc.build_cutoffs(1.0, consts.c1, 0.5)
    return model, consts, cutoffs


def test_boundary_piece_plateau_value():
    """x = 0.05, tau = 0.9 with all cutoffs at plateau: q_-/psi equals
    x^(-0.2) ~= 1.8206."""
    model, consts, cutoffs = _demo_setup()
    z, zeta = np.array([20.0]), np.array([-0.9])
    val, hpq = esc.eval_boundary_piece("minus", model, consts, cutoffs, 0.2, z, zeta)
    assert val[0] == pytest.approx(0.05 ** (-0.2), rel=1e-12)
    assert val[0] == pytest.approx(1.8206, abs=2e-4)
    assert hpq[0] < 0.0
    x = 0.05
    assert -(x ** (-0.8)) * hpq[0] == pytest.approx(0.2 * 2 * 0.9, rel=1e-10)


def test_boundary_piece_flow_finite_difference():
    model, consts, cutoffs = _demo_setup()
    z, zeta = np.array([20.0]), np.array([-0.9])
    val, hpq = esc.eval_boundary_piece("minus", model, consts, cutoffs, 0.2, z, zeta)
    d = 1e-6
    _, zs, cs = fl.batched_flow(model, z, zeta, 0.0, d, d)
    vp, _ = esc.eval_boundary_piece("minus", model, consts, cutoffs, 0.2,
                                    zs[-1], cs[-1])
    fd = (vp[0] - val[0]) / d
    assert abs(fd - hpq[0]) <= 1e-5 * (1 + abs(hpq[0]))


def test_boundary_piece_outside_support():
    model, consts, cutoffs = _demo_setup()
    z, zeta = np.array([20.0]), np.array([0.0])  # tau = 0
    val, hpq = esc.eval_boundary_piece("minus", model, consts, cutoffs, 0.2, z, zeta)
    assert val[0] == 0.0 and hpq[0] == 0.0


def test_boundary_piece_incoming_sign_everywhere(escape_free):
    """x^{-1+eps} H_p q_- <= 0 at every verification grid point."""
    e = escape_free
    z, zeta = esc.phase_grid(e.model, n_x=250, n_interior=40, n_energy=12)
    pc = e.pieces(z, zeta)
    weighted = pc.x ** (-1.0 + e.eps) * pc.hp_minus
    assert np.max(weighted) <= 1e-12


# -- tubes -------------------------------------------------------------------

def test_tube_time_cutoff_shape():
    T = 7.0
    t = np.linspace(-1.5, T + 2.5, 2000)
    v = esc._chi_tube(t, T)
    d = esc._chi_tube_d(t, T)
    assert np.all(v >= 0)
    assert np.all(v[(t <= -1.0) | (t >= T + 2.0)] == 0.0)
    grow = (t >= -1.0) & (t <= T + 2.0 / 3.0)
    assert np.all(d[grow] >= -1e-12)
    core = (t >= -0.5) & (t <= T + 2.0 / 3.0)
    assert np.allclose(d[core], 1.0)


def test_tubes_cover_and_certify(escape_free):
    tubes = escape_free.tubes
    assert tubes.covering.n_uncovered == 0
    assert tubes.covering.n_test > 0
    assert len(tubes.tubes) > 50


def test_tube_seed_value(escape_free):
    """At a tube seed the flow coordinates are (t, sigma) = (0, 0), so
    q_circ/psi >= chi(0) phi(0) = 1 there."""
    tb = escape_free.tubes.tubes[3]
    qv, hv = esc.eval_q_circ(escape_free.model, escape_free.tubes,
                             tb.seed[:1], tb.seed[1:])
    assert qv[0] >= 1.0 - 1e-8


def test_tube_far_point_zero(escape_free):
    qv, hv = esc.eval_q_circ(escape_free.model, escape_free.tubes,
                             np.array([900.0]), np.array([1.0]))
    assert qv[0] == 0.0 and hv[0] == 0.0


def _dense_store(model, z, zeta, t_lo, t_hi):
    """Reference flow store (RK4 step 0.05, every second step kept):
    (ts, S) with S[row, col] the state (z, zeta)."""
    ts_b, zb, cb = fl.batched_flow(model, z, zeta, 0.0, t_lo, 0.05, 2)
    ts_f, zf, cf = fl.batched_flow(model, z, zeta, 0.0, t_hi, 0.05, 2)
    ts = np.concatenate([ts_b[::-1], ts_f[1:]])
    return ts, np.concatenate([np.stack([zb, cb], axis=-1)[::-1],
                               np.stack([zf, cf], axis=-1)[1:]])


def _dense_crossings(model, ts, S, tb, w_lo, w_hi, colmask):
    """Reference crossings (t, sigma, col) of tube tb with t in
    [w_lo, w_hi]: projects every stored sample of every column onto the
    hyperplane, then masks by colmask (None keeps every column)."""
    row = np.flatnonzero((ts >= w_lo - 0.3) & (ts <= w_hi + 0.3))
    k0, k1 = int(row[0]), int(row[-1])
    block = S[k0:k1 + 1]
    sv = (block.reshape(-1, 2) @ tb.normal).reshape(block.shape[:2])
    sv -= float(tb.seed @ tb.normal)
    sign_change = np.signbit(sv[:-1]) != np.signbit(sv[1:])
    if colmask is not None:
        sign_change &= colmask[None, :]
    ks, ms = np.nonzero(sign_change)
    ks = ks + k0
    near = np.linalg.norm(S[ks, ms, :] - tb.seed, axis=1) \
        <= tb.radius * 1.5 + 0.2
    ks, ms = ks[near], ms[near]
    t_star, s_star = _dense_refine(model, ts, S, ks, ms, tb)
    # the disc norm from an explicit (1, 2) disc basis and (1,) radius array
    off = ((s_star - tb.seed) @ tb.u_p[None, :].T) / np.array([tb.radius])
    sigma = np.sqrt(np.sum(off ** 2, axis=-1))
    ok = (t_star >= w_lo) & (t_star <= w_hi)
    return t_star[ok], sigma[ok], ms[ok]


def _dense_eval_q_circ(model, coll, z, zeta, chunk=6000):
    """Reference: the dense per-tube scan that projects every stored sample
    of every chunk column onto each hyperplane, then masks by candidates."""
    qv, hp, t_hi_pt = np.zeros(z.size), np.zeros(z.size), np.zeros(z.size)
    cand = coll.bbox_candidates(np.stack([z, zeta], axis=-1))
    active = np.flatnonzero(cand.any(axis=0))
    for j, tb in enumerate(coll.tubes):
        t_hi_pt[cand[j]] = np.maximum(t_hi_pt[cand[j]], tb.T + 2.1)
    order = active[np.argsort(t_hi_pt[active])]
    phi_shape = falling_step(0.5, 1.0)
    for pos in range(0, order.size, chunk):
        idx = order[pos: pos + chunk]
        ts, S = _dense_store(model, z[idx], zeta[idx], -1.1, np.max(t_hi_pt[idx]))
        for j, tb in enumerate(coll.tubes):
            t, sigma, ms = _dense_crossings(model, ts, S, tb, *tb.window,
                                            cand[j][idx])
            ok = sigma <= 1.0
            phi = phi_shape(sigma[ok])
            np.add.at(qv, idx[ms[ok]], esc._chi_tube(t[ok], tb.T) * phi)
            np.add.at(hp, idx[ms[ok]], -esc._chi_tube_d(t[ok], tb.T) * phi)
    return qv, hp


def _dense_certify_covering(model, tubes, consts, spacing):
    """Reference covering check by the dense scan on the same test points:
    (n_test, n_uncovered, the first 16 uncovered states)."""
    z_t, zeta_t = esc._k_region_seeds(model, consts, 0.5 * spacing)
    offs = np.array([-0.9, 0.0, 0.9]) * model.delta
    z = np.repeat(z_t, 3)
    kappa, ok = geo.shell_momentum(model, z, np.tile(model.lambda2 + offs,
                                                     z_t.size))
    z, zeta = z[ok], (kappa * np.repeat(np.sign(zeta_t), 3))[ok]
    t_cov = esc._T_COV
    ts, S = _dense_store(model, z, zeta, -(t_cov + 0.1), t_cov + spacing + 0.8)
    hits = np.zeros(z.size)
    for tb in tubes:
        w_hi = min(tb.T + 0.6, t_cov + spacing + 0.7)
        _, sigma, ms = _dense_crossings(model, ts, S, tb, -t_cov, w_hi, None)
        np.add.at(hits, ms[sigma <= 0.5], 1.0)
    bad = np.flatnonzero(hits <= 0.0)
    return z.size, bad.size, np.stack([z[bad[:16]], zeta[bad[:16]]], axis=-1)


def _dense_refine(model, ts, S, ks, cols, tb):
    y0, y1 = S[ks, cols, :], S[ks + 1, cols, :]
    t0, t1 = ts[ks], ts[ks + 1]
    dt = (t1 - t0)[:, None]
    f0 = np.stack(geo.hamilton_field(model, y0[:, 0], y0[:, 1]), axis=-1) * dt
    f1 = np.stack(geo.hamilton_field(model, y1[:, 0], y1[:, 1]), axis=-1) * dt
    u = np.full(ks.shape, 0.5)
    for it in range(13):  # 12 Newton steps, then the final evaluation
        uu = u[:, None]
        h00 = 2 * uu**3 - 3 * uu**2 + 1
        h10 = uu**3 - 2 * uu**2 + uu
        h01 = -2 * uu**3 + 3 * uu**2
        h11 = uu**3 - uu**2
        y = h00 * y0 + h10 * f0 + h01 * y1 + h11 * f1
        if it == 12:
            return t0 + u * (t1 - t0), y
        d00 = 6 * uu**2 - 6 * uu
        d10 = 3 * uu**2 - 4 * uu + 1
        d01 = -6 * uu**2 + 6 * uu
        d11 = 3 * uu**2 - 2 * uu
        yd = d00 * y0 + d10 * f0 + d01 * y1 + d11 * f1
        s = (y - tb.seed) @ tb.normal
        sd = yd @ tb.normal
        step = np.where(np.abs(sd) > 1e-14, s / np.where(sd == 0, 1.0, sd), 0.0)
        u = np.clip(u - step, 0.0, 1.0)


@pytest.mark.parametrize("which", ["escape_free", "escape_longrange"])
def test_q_circ_matches_dense_scan(which, request):
    """The candidate-column locator returns exactly the dense scan's
    (q_circ, H_p q_circ), over several chunks."""
    e = request.getfixturevalue(which)
    z, zeta = esc.phase_grid(e.model, n_x=120, n_interior=20, n_energy=8)
    n_active = int(e.tubes.bbox_candidates(np.stack([z, zeta], axis=-1))
                   .any(axis=0).sum())
    chunk = n_active // 3 - 1
    assert chunk > 0
    got = esc.eval_q_circ(e.model, e.tubes, z, zeta, chunk=chunk)
    ref = _dense_eval_q_circ(e.model, e.tubes, z, zeta, chunk=chunk)
    assert np.count_nonzero(ref[0]) > 0
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("which", ["escape_free", "escape_longrange"])
def test_covering_matches_dense_scan(which, request):
    """The covering check agrees with the dense scan on the full tube list
    and, with uncovered points, on every second tube."""
    e = request.getfixturevalue(which)
    spacing = max(1.0, (4.0 / e.constants.x0) / 40.0)
    tubes = e.tubes.tubes
    for subset in (tubes, tubes[::2]):
        got = esc._certify_covering(e.model, subset, e.constants, spacing)
        ref = _dense_certify_covering(e.model, subset, e.constants, spacing)
        assert (got.n_test, got.n_uncovered) == ref[:2]
        assert np.array_equal(np.reshape(got.uncovered, (-1, 2)), ref[2])
    assert ref[1] > 0


def test_q_circ_order_invariant(escape_longrange):
    """Permuting the points of a single-chunk batch permutes the outputs
    exactly."""
    e = escape_longrange
    z, zeta = esc.phase_grid(e.model, n_x=80, n_interior=16, n_energy=6)
    perm = np.random.default_rng(3).permutation(z.size)
    q, h = esc.eval_q_circ(e.model, e.tubes, z, zeta)
    qp, hpp = esc.eval_q_circ(e.model, e.tubes, z[perm], zeta[perm])
    assert np.count_nonzero(q) > 0
    assert np.array_equal(qp, q[perm]) and np.array_equal(hpp, h[perm])


def test_tubes_fail_on_trapping(double_bump_1d):
    consts = esc.BoundaryConstants(M=0.0, c1=0.2, eps1=0.5,
                                   x0=0.1, delta1=0.125, c0=1.0)
    cutoffs = esc.build_cutoffs(1.0, 0.2, 0.1)
    with pytest.raises(IntegrationError):
        esc.build_tubes(double_bump_1d, consts, cutoffs, T_max=60.0)


# -- assembly and certificate ------------------------------------------------

def test_assemble_rejects_bad_eps(free_1d, verdict_free):
    with pytest.raises(ConfigurationError):
        esc.assemble_escape(free_1d, 0.3, verdict_free)
    with pytest.raises(ConfigurationError):
        esc.assemble_escape(free_1d, 0.25, verdict_free)
    with pytest.raises(ConfigurationError):
        esc.assemble_escape(free_1d, 0.0, verdict_free)


def test_assemble_rejects_trapping(double_bump_1d):
    with pytest.raises(ConstructionError):
        esc.assemble_escape(
            double_bump_1d, 0.2,
            verdict=fl.nontrapping_scan(double_bump_1d, n_samples=60, T_max=40.0),
        )


def test_assembled_constants_positive(escape_free):
    e = escape_free
    assert e.C > 0 and e.C_prime > 0 and e.C_dprime > 0
    assert e.c2 > 0 and e.c3 > 0
    assert e.c4 == math.inf  # 1D: the intermediate band misses the shell
    assert e.cascade["halvings_C"] <= 60
    assert e.cascade["halvings_Cp"] <= 60


def test_certificate_free(report_free):
    assert report_free.passed
    assert report_free.c_prime > 0 and report_free.c_dprime > 0
    assert report_free.n_points >= 2e4


def test_certificate_longrange_vs_free(report_free, report_longrange):
    """Construction robustness: the power-law model's constants stay within
    2x of the free ones."""
    assert report_longrange.passed
    assert 0.5 <= report_longrange.c_prime / report_free.c_prime <= 2.0
    assert 0.5 <= report_longrange.c_dprime / report_free.c_dprime <= 2.0


def test_certificate_refinement_stability(escape_free, report_free):
    fine = esc.verify_proposition(escape_free, n_x=424, n_interior=56,
                                  n_energy=23)
    assert abs(fine.c_prime - report_free.c_prime) <= 0.2 * report_free.c_prime
    assert abs(fine.c_dprime - report_free.c_dprime) <= 0.2 * report_free.c_dprime


def test_q_positivity_on_plateau(escape_free):
    e = escape_free
    z, zeta = esc.phase_grid(e.model, n_x=250, n_interior=40, n_energy=12)
    pc = e.pieces(z, zeta)
    q, _ = e.combine(pc)
    assert np.min(q) >= 0.0
    inner = (pc.psi == 1.0) & (pc.x <= 0.5 * e.constants.x0)
    assert np.all(q[inner] > 0.0)


def test_sabotaged_outgoing_constant_fails(escape_free):
    e = escape_free
    c_prime = e.C_prime
    e.C_prime = c_prime * 1e6
    try:
        with pytest.raises(ConstructionError):
            esc.verify_proposition(e, n_x=200, n_interior=30, n_energy=10)
        rep = esc.verify_proposition(e, n_x=200, n_interior=30, n_energy=10,
                                     raise_on_failure=False)
        assert not rep.passed
        taus = np.array([geo.scattering_coords(w[:1], w[1:])[1]
                         for w in rep.witnesses])
        assert np.all(taus < 0)  # witnesses live in the outgoing region
    finally:
        e.C_prime = c_prime


def test_hpq_matches_flow_finite_difference(escape_free):
    """Analytic H_p q against the flow finite difference at 1e3 random
    shell points, 1e-4 relative."""
    e = escape_free
    rng = np.random.default_rng(11)
    n = 1000
    r = np.exp(rng.uniform(np.log(1.2), np.log(60.0), n))
    sgn = rng.choice([-1.0, 1.0], n)
    z = r * sgn
    p = rng.uniform(0.91, 1.09, n)
    zeta = rng.choice([-1.0, 1.0], n) * np.sqrt(p)
    pc = e.pieces(z, zeta)
    _, hp = e.combine(pc)
    fd = esc.hpq_finite_difference(e, z, zeta, delta=1e-5)
    rel = np.abs(hp - fd) / (np.abs(hp) + np.abs(fd) + 1e-8)
    assert np.max(rel) <= 1e-4


def test_measured_collar_floors(escape_free):
    """c2 (incoming) and c3 (outgoing) floors are positive and match the
    eps * 2|tau| mechanism on the shell."""
    e = escape_free
    lo = 2.0 * e.eps * math.sqrt(e.model.lambda2 - e.model.delta)
    assert e.c2 >= 0.9 * lo
    assert e.c3 >= 0.9 * lo


def test_eval_boundary_q_includes_psi():
    model, consts, cutoffs = _demo_setup()
    z, zeta = np.array([20.0]), np.array([-0.9])
    v_psi, h_psi = esc.eval_boundary_q("minus", model, consts, cutoffs, 0.2, z, zeta)
    v, h = esc.eval_boundary_piece("minus", model, consts, cutoffs, 0.2, z, zeta)
    p = geo.symbol_p(model, z, zeta)
    psi = cutoffs.psi(p)
    assert v_psi[0] == pytest.approx(v[0] * psi[0])
    assert h_psi[0] == pytest.approx(h[0] * psi[0])
