"""Escape-function construction: constants, cutoffs, tubes, certificates."""

import math
import tracemalloc

import numpy as np
import pytest

from nontrap import escape as esc
from nontrap import flow as fl
from nontrap import geometry as geo
from nontrap.errors import ConfigurationError, ConstructionError, IntegrationError
from nontrap.smooth import falling_step

from conftest import hpq_finite_difference, integrate_flow


@pytest.fixture(scope="module")
def report_free(escape_free):
    report = esc.verify_proposition(escape_free, n_x=300, n_interior=40,
                                    n_energy=16)
    assert report.passed
    return report


@pytest.fixture(scope="module")
def report_longrange(escape_longrange):
    report = esc.verify_proposition(escape_longrange, n_x=300, n_interior=40,
                                    n_energy=16)
    assert report.passed
    return report


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
    cut = esc.build_cutoffs(1.0, 0.25)
    assert cut.chi_minus(0.2) == 0.0
    assert cut.chi_minus(0.9) == 1.0
    assert cut.chi_plus(-0.9) == 1.0
    assert cut.chi_plus(0.0) == 0.0
    assert cut.rho(0.3) == 1.0
    assert cut.rho(1.1) == 0.0
    assert cut.psi(1.0) == 1.0
    assert cut.psi(0.7) == 0.0 and cut.psi(1.3) == 0.0


def test_cutoff_monotonicity():
    cut = esc.build_cutoffs(1.0, 0.1)
    t = np.linspace(-2, 2, 801)
    assert np.all(cut.chi_minus.d(t) >= 0)
    assert np.all(cut.chi_plus.d(t) <= 0)
    s = np.linspace(0, 2, 401)
    assert np.all(cut.rho.d(s) <= 0)


# -- boundary pieces ---------------------------------------------------------

def _demo_setup():
    model = geo.preset_model("zero", delta=0.5)
    consts = esc.BoundaryConstants(M=0.0, c1=0.4, eps1=0.5,
                                   x0=1.0 / 6.0, delta1=0.625, c0=1.0)
    cutoffs = esc.build_cutoffs(1.0, 0.5)
    return model, consts, cutoffs


def _incoming_piece(model, consts, cutoffs, z, zeta):
    """boundary_pieces' incoming piece at eps = 0.2, on the chart of
    (z, zeta)."""
    return esc.boundary_pieces(model, consts, cutoffs, 0.2, z, zeta,
                               *geo.scattering_coords(z, zeta))[0]


def test_boundary_piece_plateau_value():
    """x = 0.05, tau = 0.9 with all cutoffs at plateau: q_-/psi equals
    x^(-0.2) ~= 1.8206."""
    model, consts, cutoffs = _demo_setup()
    z, zeta = np.array([20.0]), np.array([-0.9])
    val, hpq = _incoming_piece(model, consts, cutoffs, z, zeta)
    assert val[0] == pytest.approx(0.05 ** (-0.2), rel=1e-12)
    assert val[0] == pytest.approx(1.8206, abs=2e-4)
    assert hpq[0] < 0.0
    x = 0.05
    assert -(x ** (-0.8)) * hpq[0] == pytest.approx(0.2 * 2 * 0.9, rel=1e-10)


def test_boundary_piece_flow_finite_difference():
    model, consts, cutoffs = _demo_setup()
    z, zeta = np.array([20.0]), np.array([-0.9])
    val, hpq = _incoming_piece(model, consts, cutoffs, z, zeta)
    d = 1e-6
    _, zs, cs = fl.batched_flow(model, z, zeta, 0.0, d, d)
    vp, _ = _incoming_piece(model, consts, cutoffs, zs[-1], cs[-1])
    fd = (vp[0] - val[0]) / d
    assert abs(fd - hpq[0]) <= 1e-5 * (1 + abs(hpq[0]))


def test_boundary_piece_outside_support():
    model, consts, cutoffs = _demo_setup()
    z, zeta = np.array([20.0]), np.array([0.0])  # tau = 0
    val, hpq = _incoming_piece(model, consts, cutoffs, z, zeta)
    assert val[0] == 0.0 and hpq[0] == 0.0


def _per_piece_reference(chi, alpha, model, consts, cutoffs, z, zeta):
    """Reference: one boundary piece x^alpha chi(tau) rho(x/x0) on its own,
    its chart field evaluated on its own support."""
    x, tau = geo.scattering_coords(z, zeta)
    x0 = consts.x0
    rho_v = cutoffs.rho(x / x0)
    chi_v = chi(tau)
    val = x**alpha * chi_v * rho_v
    hpq = np.zeros_like(val)
    live = (chi_v != 0.0) | (chi.d(tau) != 0.0)
    live &= (rho_v != 0.0) | (cutoffs.rho.d(x / x0) != 0.0)
    if np.any(live):
        vel = geo.hamilton_field_scattering(model, z[live], zeta[live])
        xl, taul = x[live], tau[live]
        rv, rd = cutoffs.rho(xl / x0), cutoffs.rho.d(xl / x0)
        cv, cd = chi(taul), chi.d(taul)
        hpq[live] = (
            alpha * xl ** (alpha - 1.0) * vel.xdot * cv * rv
            + xl**alpha * cd * vel.taudot * rv
            + xl**alpha * cv * rd * vel.xdot / x0
        )
    return val, hpq


@pytest.mark.parametrize("grid", [dict(n_x=220, n_interior=40, n_energy=14),
                                  dict(n_x=120, n_interior=21, n_energy=8)],
                         ids=["construction", "odd_interior"])
def test_boundary_pieces_match_per_piece_reference(escape_longrange, grid):
    """One pass over the two pieces gives the per-piece values bit for
    bit, also where the grid holds z = 0 (odd n_interior)."""
    e = escape_longrange
    cut = e.cutoffs
    z, zeta, _ = esc.phase_grid(e.model, **grid)
    if grid["n_interior"] % 2:
        assert np.any(z == 0.0)
    got = esc.boundary_pieces(e.model, e.constants, cut, e.eps, z, zeta,
                              *geo.scattering_coords(z, zeta))
    assert len(got) == 2
    for (chi, alpha), (val, hpq) in zip(
            ((cut.chi_minus, -e.eps), (cut.chi_plus, e.eps)), got):
        want_val, want_hpq = _per_piece_reference(chi, alpha, e.model,
                                                  e.constants, cut, z, zeta)
        assert np.array_equal(val, want_val)
        assert np.array_equal(hpq, want_hpq)
    assert np.any(got[0][1] != 0.0) and np.any(got[1][1] != 0.0)


@pytest.mark.parametrize("preset, overrides", [
    ("zero", {}), ("longrange_pow", {}), ("well", {}),
    ("longrange_pow", {"delta": 0.183})],
    ids=["zero", "longrange_pow", "well", "longrange_pow_wide"])
def test_intermediate_band_misses_the_grids(preset, overrides):
    """No grid point near infinity (x < x0) has |tau| < 7 lam/8, the band
    of the n-dimensional construction's intermediate piece, which the 1D
    construction therefore leaves out.  In 1D tau^2 = p - V on the collar,
    and p >= lam^2 - delta > 0.8125 lam^2 (c1 > 0 needs delta below
    0.1875 lam^2) keeps tau^2 above (7 lam/8)^2 wherever V < 0.047 lam^2.
    Checked on the construction grid, the CLI's default verification grid
    and verify_proposition's default grid; double_bump's window is trapped
    and phase_grid rejects it."""
    model = geo.preset_model(preset, **overrides)
    x0 = esc.boundary_constants(model).x0
    for grid in ((220, 40, 14), (300, 40, 16), (600, 80, 40)):
        z, zeta, _ = esc.phase_grid(model, *grid)
        x, tau = geo.scattering_coords(z, zeta)
        collar = x < x0
        assert np.any(collar)
        assert not np.any(collar & (np.abs(tau) < 7.0 * model.lam / 8.0))


def test_boundary_piece_incoming_sign_everywhere(escape_free):
    """x^{-1+eps} H_p q_- <= 0 at every verification grid point."""
    e = escape_free
    z, zeta, shell = esc.phase_grid(e.model, n_x=250, n_interior=40,
                                    n_energy=12)
    pc = e.pieces(z, zeta, shell)
    weighted = pc.x ** (-1.0 + e.eps) * pc.hp_minus
    assert np.max(weighted) <= 1e-12


# -- tubes -------------------------------------------------------------------

def test_tube_time_cutoff_shape():
    T = 7.0
    t = np.linspace(-1.5, T + 2.5, 2000)
    v, d = esc._chi_tube(t, T)
    assert np.all(v >= 0)
    assert np.all(v[(t <= -1.0) | (t >= T + 2.0)] == 0.0)
    grow = (t >= -1.0) & (t <= T + 2.0 / 3.0)
    assert np.all(d[grow] >= -1e-12)
    core = (t >= -0.5) & (t <= T + 2.0 / 3.0)
    assert np.allclose(d[core], 1.0)
    # one T per point gives each point its scalar-T value exactly
    Ts = np.array([0.5, T, 79.7])[np.arange(t.size) % 3]
    v_arr, d_arr = esc._chi_tube(t, Ts)
    want = np.array([esc._chi_tube(t[k:k + 1], Ts[k]) for k in range(t.size)])
    assert np.array_equal(v_arr, want[:, 0, 0])
    assert np.array_equal(d_arr, want[:, 1, 0])


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
                             tb.seed[:1], tb.seed[1:], np.arange(1))
    assert qv[0] >= 1.0 - 1e-8


def test_tube_far_point_zero(escape_free):
    qv, hv = esc.eval_q_circ(escape_free.model, escape_free.tubes,
                             np.array([900.0]), np.array([1.0]), np.arange(1))
    assert qv[0] == 0.0 and hv[0] == 0.0


# an energy range holding every orbit: the orbit store without energy filter
_ANY_ENERGY = np.array([[-np.inf, np.inf]])


def _dense_passes(model, tubes, reach, z, zeta, shell, zone):
    """Reference for esc._tube_passes on the same orbit store, offsets and
    crossing step: every tube's crossings come from projecting every stored
    sample of every orbit onto its hyperplane (all rows and orbits, no
    window, no energy filter), and each crossing is matched to its orbit's
    members by a direct zone test; one pass per tube, in crossing order.
    Its orbits run the whole tail, not stopping at their escape."""
    w_lo, w_hi, sigma_max = zone
    t_tail = max(tb.T for tb in tubes) + w_hi + 0.1
    ts, comps, pts, orb, s = esc._shell_orbits(model, z, zeta, shell, reach,
                                               w_lo - 0.1, t_tail,
                                               _ANY_ENERGY, np.inf)
    for tb in tubes:
        level = tb.seed[0] * tb.normal[0] + tb.seed[1] * tb.normal[1]
        neg = np.signbit(comps[0] * tb.normal[0] + comps[1] * tb.normal[1]
                         - level)   # (orbit, row)
        ks, ms = np.nonzero((neg[:, :-1] != neg[:, 1:]).T)
        near = np.linalg.norm(np.stack([comps[0][ms, ks], comps[1][ms, ks]],
                                       axis=-1) - tb.seed, axis=1) \
            <= tb.radius * 1.5 + 0.2
        ks, ms = ks[near], ms[near]
        t_c, y = esc._refine_crossings(model, ts, comps, ks, ms, tb.normal,
                                       level)
        sigma = np.abs((y[:, 0] - tb.seed[0]) * tb.u_p[0]
                       + (y[:, 1] - tb.seed[1]) * tb.u_p[1]) / tb.radius
        hits = [(pts[:0], s[:0], s[:0])]
        for c, lo, hi in zip(range(t_c.size), np.searchsorted(orb, ms, "left"),
                             np.searchsorted(orb, ms, "right")):
            t = t_c[c] - s[lo:hi]
            hit = (t >= w_lo) & (t <= tb.T + w_hi) & (sigma[c] <= sigma_max)
            hits.append((pts[lo:hi][hit], t[hit],
                         np.full(int(hit.sum()), sigma[c])))
        yield (tb, *(np.concatenate(h) for h in zip(*hits)))


def _dense_eval_q_circ(model, coll, z, zeta, shell):
    """Reference q_circ: the dense passes, summed tube by tube."""
    qv, hp = np.zeros(z.size), np.zeros(z.size)
    phi_shape = falling_step(0.5, 1.0)
    for tb, i, t, sigma in _dense_passes(model, coll.tubes, coll.reach, z,
                                         zeta, shell, esc._SUPPORT_ZONE):
        phi = phi_shape(sigma)
        chi, chi_d = esc._chi_tube(t, tb.T)
        np.add.at(qv, i, chi * phi)
        np.add.at(hp, i, -chi_d * phi)
    return qv, hp


def _dense_certify_covering(model, tubes, reach, consts, spacing):
    """Reference covering check by the dense passes on the same test points:
    (n_test, n_uncovered, the first 16 uncovered states)."""
    r_max = 4.0 / consts.x0
    zs = np.arange(-r_max, r_max + 0.25 * spacing, 0.5 * spacing)
    energies = model.lambda2 + np.array([-0.9, 0.0, 0.9]) * model.delta
    z, zeta, shell = esc._shell_points(model, zs, energies)
    hits = np.zeros(z.size)
    for _, i, _, _ in _dense_passes(model, tubes, reach, z, zeta, shell,
                                    esc._COVER_ZONE):
        np.add.at(hits, i, 1.0)
    bad = np.flatnonzero(hits <= 0.0)
    return z.size, bad.size, np.stack([z[bad[:16]], zeta[bad[:16]]], axis=-1)


@pytest.mark.parametrize("which", ["escape_free", "escape_longrange"])
def test_q_circ_matches_dense_scan(which, request):
    """The windowed, energy-filtered crossing scan and the key search over
    offsets return exactly the dense scan's (q_circ, H_p q_circ) on the
    orbit store of a labelled grid."""
    e = request.getfixturevalue(which)
    z, zeta, shell = esc.phase_grid(e.model, n_x=120, n_interior=20, n_energy=8)
    got = esc.eval_q_circ(e.model, e.tubes, z, zeta, shell)
    ref = _dense_eval_q_circ(e.model, e.tubes, z, zeta, shell)
    assert np.count_nonzero(ref[0]) > 0
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("which", ["escape_free", "escape_longrange"])
def test_q_circ_unlabelled_matches_dense_scan(which, request):
    """The same on singleton labels (each point its own orbit) of an
    (x, tau) plane whose energies reach well outside the window, so that
    the energy filter drops orbits."""
    e = request.getfixturevalue(which)
    x, tau = np.meshgrid(np.geomspace(0.005, 0.999, 20),
                         np.linspace(-1.5, 1.5, 16), indexing="ij")
    z, zeta = 1.0 / x.ravel(), -tau.ravel()
    alone = np.arange(z.size)
    got = esc.eval_q_circ(e.model, e.tubes, z, zeta, alone)
    ref = _dense_eval_q_circ(e.model, e.tubes, z, zeta, alone)
    assert np.count_nonzero(ref[0]) > 0
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_q_circ_slice_plane_prefilter(escape_longrange):
    """On an 80 x 60 (x, tau) plane of singleton labels whose energies
    reach past every tube's energy range, only orbits at a tube's energy
    are flowed, yet q_circ equals the dense scan over every orbit bit for
    bit; every tube's energy range keeps a point."""
    e = escape_longrange
    x, tau = np.meshgrid(np.geomspace(1e-3, 0.999, 80),
                         np.linspace(-1.5 * e.model.lam, 1.5 * e.model.lam,
                                     60), indexing="ij")
    z, zeta = 1.0 / x.ravel(), -tau.ravel()
    alone = np.arange(z.size)
    bands = np.array([esc._disc_energy_band(e.model, tb) for tb in e.tubes.tubes])
    _, _, pts, _, _ = esc._shell_orbits(e.model, z, zeta, alone, e.tubes.reach,
                                        -1.1, 1.0, bands, np.inf)
    p = geo.symbol_p(e.model, z[pts], zeta[pts])[:, None]
    assert pts.size < np.count_nonzero(np.abs(z) <= e.tubes.reach)
    assert np.all(np.any((p >= bands[:, 0]) & (p <= bands[:, 1]), axis=0))
    got = esc.eval_q_circ(e.model, e.tubes, z, zeta, alone)
    ref = _dense_eval_q_circ(e.model, e.tubes, z, zeta, alone)
    assert np.count_nonzero(ref[0]) > 0
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


# The former per-point evaluation (each point flowed on its own at RK4 step
# 0.05) changed by at most 1.2e-8 max|q| in q and 1.61e-7 max|H_p q| in
# H_p q when its step was halved, on escape_longrange's 80/16/6 grid; the
# grouped result must stay that close to the singletons at half the step.
_GROUPED_Q_TOL, _GROUPED_HP_TOL = 1.2e-8, 1.61e-7


def test_q_circ_grouped_matches_singletons(escape_longrange, monkeypatch):
    """Shell orbits with offsets against every point flowed on its own at
    half the RK4 step (same sample spacing)."""
    e = escape_longrange
    z, zeta, shell = esc.phase_grid(e.model, n_x=80, n_interior=16, n_energy=6)
    q, h = esc.eval_q_circ(e.model, e.tubes, z, zeta, shell)
    monkeypatch.setattr(esc, "_Q_CIRC_DT", 0.5 * esc._Q_CIRC_DT)
    monkeypatch.setattr(esc, "_Q_CIRC_STRIDE", 2 * esc._Q_CIRC_STRIDE)
    qs, hs = esc.eval_q_circ(e.model, e.tubes, z, zeta, np.arange(z.size))
    assert np.count_nonzero(qs) > 0
    assert np.array_equal(q != 0.0, qs != 0.0)
    assert np.max(np.abs(q - qs)) <= _GROUPED_Q_TOL * np.max(np.abs(qs))
    assert np.max(np.abs(h - hs)) <= _GROUPED_HP_TOL * np.max(np.abs(hs))


# eval_q_circ's tracemalloc peak above its orbit store's bytes: about 4 MiB
# on the construction grid (the store's own assembly; a candidate group and
# a pair chunk stay below that); expanding every (crossing, member) pair at
# once peaks about 71 MiB above the store there
_Q_CIRC_PEAK_BUDGET = 8 * 2**20


def test_q_circ_memory_bounded(escape_longrange):
    """On the construction grid the crossing pass stays within a fixed
    budget above the orbit store: the candidate search runs a group of
    orbit columns at a time, and members are expanded in chunks."""
    e = escape_longrange
    model, tubes = e.model, e.tubes.tubes
    z, zeta, shell = esc.phase_grid(model, n_x=220, n_interior=40, n_energy=14)
    w_lo, w_hi, _ = esc._SUPPORT_ZONE
    bands = np.array([esc._disc_energy_band(model, tb) for tb in tubes])
    ts, comps, *rest = esc._shell_orbits(
        model, z, zeta, shell, e.tubes.reach, w_lo - 0.1,
        max(tb.T for tb in tubes) + w_hi + 0.1, bands, esc._stop_radius(tubes))
    store_bytes = sum(a.nbytes for a in (ts, *comps, *rest))
    del ts, comps, rest
    tracemalloc.start()
    try:
        q, _ = esc.eval_q_circ(model, e.tubes, z, zeta, shell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(q) > 0
    assert peak - store_bytes <= _Q_CIRC_PEAK_BUDGET


@pytest.mark.parametrize("which", ["escape_free", "escape_longrange"])
def test_covering_matches_dense_scan(which, request):
    """The covering check agrees with the dense scan on the full tube list
    and, with uncovered points, on every second tube."""
    e = request.getfixturevalue(which)
    spacing = max(1.0, (4.0 / e.constants.x0) / 40.0)
    tubes = e.tubes.tubes
    for subset in (tubes, tubes[::2]):
        got = esc._certify_covering(e.model, subset, e.tubes.reach,
                                    e.constants, spacing)
        ref = _dense_certify_covering(e.model, subset, e.tubes.reach,
                                      e.constants, spacing)
        assert (got.n_test, got.n_uncovered) == ref[:2]
        assert np.array_equal(np.reshape(got.uncovered, (-1, 2)), ref[2])
    assert ref[1] > 0


@pytest.fixture(scope="module")
def escape_barrier():
    """longrange_pow at amplitude 1.5: a barrier above the window reflects
    every orbit that meets it."""
    model = geo.preset_model("longrange_pow", amplitude=1.5)
    return esc.assemble_escape(
        model, 0.2, fl.nontrapping_scan(model, n_samples=300, T_max=150.0))


@pytest.mark.parametrize("which", ["escape_longrange", "escape_barrier"])
def test_orbit_store_stops_past_every_near_crossing(which, request):
    """Each orbit store, of the construction grid and of the covering
    check's points, ends once every orbit holds the escape certificate at
    the stop radius; flowing every orbit t_tail further crosses no tube's
    transversal within the prefilter distance of its seed, so the stop
    drops no crossing."""
    e = request.getfixturevalue(which)
    model, tubes = e.model, e.tubes.tubes
    spacing = max(1.0, (4.0 / e.constants.x0) / 40.0)
    energies = model.lambda2 + model.delta * np.array([-0.9, 0.0, 0.9])
    point_sets = (
        (esc.phase_grid(model, n_x=220, n_interior=40, n_energy=14),
         esc._SUPPORT_ZONE),
        (esc._shell_points(model, esc._k_axis(e.constants, 0.5 * spacing),
                           energies), esc._COVER_ZONE))
    bands = np.array([esc._disc_energy_band(model, tb) for tb in tubes])
    r_stop = esc._stop_radius(tubes)
    for (z, zeta, shell), (w_lo, w_hi, _) in point_sets:
        t_tail = max(tb.T for tb in tubes) + w_hi + 0.1
        ts, comps, _, _, _ = esc._shell_orbits(model, z, zeta, shell,
                                               e.tubes.reach, w_lo - 0.1,
                                               t_tail, bands, r_stop)
        z_end, zeta_end = comps[0][:, -1], comps[1][:, -1]
        assert np.all(fl.escape_certified(model, z_end, zeta_end, r_stop))
        _, zs, cs = fl.batched_flow(model, z_end, zeta_end, ts[-1],
                                    ts[-1] + t_tail, esc._Q_CIRC_DT,
                                    store_stride=esc._Q_CIRC_STRIDE)
        for tb in tubes:
            level = tb.seed[0] * tb.normal[0] + tb.seed[1] * tb.normal[1]
            neg = np.signbit(zs * tb.normal[0] + cs * tb.normal[1] - level)
            ks, ms = np.nonzero(neg[:-1] != neg[1:])
            dist = np.hypot(zs[ks, ms] - tb.seed[0], cs[ks, ms] - tb.seed[1])
            assert np.all(dist > esc._near_radius(tb))


def test_q_circ_order_invariant(escape_longrange):
    """Permuting the points (and their shell labels) permutes the outputs
    exactly."""
    e = escape_longrange
    z, zeta, shell = esc.phase_grid(e.model, n_x=80, n_interior=16, n_energy=6)
    perm = np.random.default_rng(3).permutation(z.size)
    q, h = esc.eval_q_circ(e.model, e.tubes, z, zeta, shell)
    qp, hpp = esc.eval_q_circ(e.model, e.tubes, z[perm], zeta[perm],
                              shell[perm])
    assert np.count_nonzero(q) > 0
    assert np.array_equal(qp, q[perm]) and np.array_equal(hpp, h[perm])


# -- shell labels and offsets ------------------------------------------------

@pytest.mark.parametrize("amplitude", [0.5, 1.5])
def test_shell_members_on_representative_orbit(amplitude):
    """Each label's first, middle and last member lie on the flowed orbit
    of its representative at their offsets: DOP853 (tol 1e-10) from the
    representative over time s lands within 1e-6 of the member.  Amplitude
    1.5 puts the barrier top above the window (reflecting orbits)."""
    model = geo.preset_model("longrange_pow", amplitude=amplitude)
    z, zeta, shell = esc.phase_grid(model, n_x=60, n_interior=12, n_energy=3)
    _, _, pts, orb, s = esc._shell_orbits(model, z, zeta, shell, 60.0,
                                          -1.1, 1.0, _ANY_ENERGY, np.inf)
    assert np.all(s >= 0.0)
    first = np.flatnonzero(np.diff(orb, prepend=-1))
    stop = np.append(first[1:], orb.size)
    assert first.size >= 2 * 3
    for a, b in zip(first, stop):
        rep = pts[a]
        for k in (a + (b - a) // 2, b - 1):
            if s[k] == 0.0:
                continue
            tr = integrate_flow(model, z[rep], zeta[rep], (0.0, s[k]))
            assert abs(tr.z[-1] - z[pts[k]]) <= 1e-6
            assert abs(tr.zeta[-1] - zeta[pts[k]]) <= 1e-6


def test_shell_orbits_near_turning_points():
    """The full-size grid on a reflecting barrier has members within about
    a sample of their turning point; each becomes its own orbit instead of
    an orbit that turns back before reaching it (which raises)."""
    model = geo.preset_model("longrange_pow", amplitude=1.5)
    z, zeta, shell = esc.phase_grid(model)
    _, _, pts, orb, s = esc._shell_orbits(model, z, zeta, shell, 60.0,
                                          -1.1, 1.0, _ANY_ENERGY, np.inf)
    assert orb.max() + 1 > np.unique(shell[np.abs(z) <= 60.0]).size
    assert np.all(s >= 0.0)


def test_shell_labels_per_side():
    """A barrier above the window ({V >= E} one interval) splits every
    energy and branch into a left and a right label."""
    model = geo.preset_model("longrange_pow", amplitude=1.5)
    z, zeta, shell = esc.phase_grid(model, n_x=60, n_interior=12, n_energy=3)
    labels = np.unique(shell)
    assert labels.size == 3 * 2 * 2
    for lab in labels:
        mem = shell == lab
        assert np.all(z[mem] < 0) or np.all(z[mem] > 0)
        assert np.all(zeta[mem] > 0) or np.all(zeta[mem] < 0)


def test_shell_labels_trapped(double_bump_1d):
    """double_bump's well between its barriers is a bounded allowed region
    at the window energies: no offset along a periodic orbit is unique."""
    with pytest.raises(ConstructionError, match="trapped"):
        esc.phase_grid(double_bump_1d, n_x=60, n_interior=12, n_energy=3)


def test_refine_crossings_residual(escape_longrange, monkeypatch):
    """Crossings stop at the stated residual; a cap of one Newton step
    leaves brackets above it and raises."""
    e = escape_longrange
    z, zeta, shell = esc.phase_grid(e.model, n_x=40, n_interior=8, n_energy=4)
    ts, comps, pts, orb, s = esc._shell_orbits(e.model, z, zeta, shell,
                                               e.tubes.reach, -1.1, 1.0,
                                               _ANY_ENERGY, np.inf)
    k0 = int(np.searchsorted(ts, 0.0))
    ks = np.searchsorted(ts, s, side="right") - 1
    ks = np.clip(ks, k0, ts.size - 2)
    t, y = esc._refine_crossings(e.model, ts, comps, ks, orb, (1.0, 0.0),
                                 z[pts])
    assert np.all(np.abs(y[:, 0] - z[pts])
                  <= esc._NEWTON_TOL * (1.0 + np.abs(z[pts])))
    monkeypatch.setattr(esc, "_NEWTON_MAX", 1)
    with pytest.raises(ConstructionError, match="Newton"):
        esc._refine_crossings(e.model, ts, comps, ks, orb, (1.0, 0.0), z[pts])


def test_tubes_fail_on_trapping(double_bump_1d):
    consts = esc.BoundaryConstants(M=0.0, c1=0.2, eps1=0.5,
                                   x0=0.1, delta1=0.125, c0=1.0)
    with pytest.raises(IntegrationError):
        esc.build_tubes(double_bump_1d, consts, T_max=60.0)


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
    assert e.C > 0 and e.C_prime > 0
    assert e.c2 > 0 and e.c3 > 0
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
    assert fine.passed
    assert abs(fine.c_prime - report_free.c_prime) <= 0.2 * report_free.c_prime
    assert abs(fine.c_dprime - report_free.c_dprime) <= 0.2 * report_free.c_dprime


def test_q_positivity_on_plateau(escape_free):
    e = escape_free
    z, zeta, shell = esc.phase_grid(e.model, n_x=250, n_interior=40,
                                    n_energy=12)
    pc = e.pieces(z, zeta, shell)
    q, _ = e.combine(pc)
    assert np.min(q) >= 0.0
    inner = (pc.psi == 1.0) & (pc.x <= 0.5 * e.constants.x0)
    assert np.all(q[inner] > 0.0)


def test_sabotaged_outgoing_constant_fails(escape_free):
    e = escape_free
    c_prime = e.C_prime
    e.C_prime = c_prime * 1e6
    try:
        rep = esc.verify_proposition(e, n_x=200, n_interior=30, n_energy=10)
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
    pc = e.pieces(z, zeta, np.arange(n))
    _, hp = e.combine(pc)
    fd = hpq_finite_difference(e, z, zeta, delta=1e-5)
    rel = np.abs(hp - fd) / (np.abs(hp) + np.abs(fd) + 1e-8)
    assert np.max(rel) <= 1e-4


def test_measured_collar_floors(escape_free):
    """c2 (incoming) and c3 (outgoing) floors are positive and match the
    eps * 2|tau| mechanism on the shell."""
    e = escape_free
    lo = 2.0 * e.eps * math.sqrt(e.model.lambda2 - e.model.delta)
    assert e.c2 >= 0.9 * lo
    assert e.c3 >= 0.9 * lo
