"""Escape-function construction: constants, cutoffs, tubes, dwell times,
certificates."""

import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest

from nontrap import escape as esc
from nontrap import flow as fl
from nontrap import geometry as geo
from nontrap.errors import ConfigurationError, ConstructionError, IntegrationError
from nontrap.smooth import falling_step

from conftest import hpq_finite_difference, integrate_flow, tube_family


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

# The tube machinery (build_tubes, eval_q_circ) builds a q_circ from flow
# tubes; no command reaches it, and these tests pin it until it is deleted.
# Their ids name each model by its escape fixture, and each runs on that
# model's tube family.
_TUBES = {"escape_free": "tubes_free", "escape_longrange": "tubes_longrange",
          "escape_barrier": "escape_barrier", "tubes_well": "tubes_well"}


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


def test_tubes_cover_and_certify(tubes_free):
    tubes = tubes_free.tubes
    assert tubes.covering.n_uncovered == 0
    assert tubes.covering.n_test > 0
    assert len(tubes.tubes) > 50


def test_tube_seed_value(tubes_free):
    """At a tube seed the flow coordinates are (t, sigma) = (0, 0), so
    q_circ/psi >= chi(0) phi(0) = 1 there."""
    seed = tubes_free.tubes.tubes.seed[3]
    qv, hv = esc.eval_q_circ(tubes_free.model, tubes_free.tubes,
                             seed[:1], seed[1:], np.arange(1))
    assert qv[0] >= 1.0 - 1e-8


def test_tube_far_point_zero(tubes_free):
    qv, hv = esc.eval_q_circ(tubes_free.model, tubes_free.tubes,
                             np.array([900.0]), np.array([1.0]), np.arange(1))
    assert qv[0] == 0.0 and hv[0] == 0.0


# an energy range holding every orbit: the orbit store without energy filter
_ANY_ENERGY = np.array([[-np.inf, np.inf]])


def _every_second(tubes):
    """The tube family's rows 0, 2, 4, ..."""
    return dataclasses.replace(tubes, **{f.name: getattr(tubes, f.name)[::2]
                                         for f in dataclasses.fields(tubes)})


# tubes whose (tube, near sample) pairs the dense reference expands at once
_DENSE_TUBE_CHUNK = 8


def _near_in_z(z_flat, seed_z, near):
    """Chunks (j, idx), _DENSE_TUBE_CHUNK tubes at a time: each tube j
    repeated once per sample of z_flat within 1.01 near[j] of seed_z[j] in
    z, and idx those samples' flat indices, found by binary search over the
    samples sorted by z.  A sample within near of a seed in the plane is
    within it in z, so it is among them."""
    by_z = np.argsort(z_flat, kind="stable")
    z_sorted = z_flat[by_z]
    for a in range(0, seed_z.size, _DENSE_TUBE_CHUNK):
        tj = np.arange(a, min(a + _DENSE_TUBE_CHUNK, seed_z.size))
        lo = np.searchsorted(z_sorted, seed_z[tj] - 1.01 * near[tj])
        n = np.searchsorted(z_sorted, seed_z[tj] + 1.01 * near[tj],
                            "right") - lo
        c, k = esc._ranges(lo, n)
        yield tj[c], by_z[k]


def _dense_passes(model, tubes, reach, z, zeta, shell, zone):
    """Reference for esc._tube_passes on the same orbit store, offsets and
    crossing step: chunks (j, i, t, sigma) in the order tube, crossing
    time, orbit.  Every stored sample of every orbit (all rows and orbits,
    no window, no energy filter) that lies within 1.5 radius + 0.2 of a
    tube's seed is projected onto that tube's hyperplane; a sign change by
    the next sample is a crossing, and each crossing is matched to its
    orbit's members by a direct zone test.  The near samples of a chunk of
    tubes are found at once (_near_in_z).  Its orbits run the whole tail,
    not stopping at their escape."""
    w_lo, w_hi, sigma_max = zone
    t_tail = tubes.T.max() + w_hi + 0.1
    ts, comps, pts, orb, s = esc._shell_orbits(model, z, zeta, shell, reach,
                                               w_lo - 0.1, t_tail,
                                               _ANY_ENERGY, np.inf)
    n_rows = ts.size - 1    # samples that start a bracket, per orbit
    level = tubes.seed[:, 0] * tubes.normal[:, 0] \
        + tubes.seed[:, 1] * tubes.normal[:, 1]
    near = tubes.radius * 1.5 + 0.2
    for j, idx in _near_in_z(comps[0][:, :-1].ravel(), tubes.seed[:, 0],
                             near):
        ms, ks = np.divmod(idx, n_rows)
        y = np.stack([comps[0][ms, ks], comps[1][ms, ks]], axis=-1)
        nrm = tubes.normal[j]
        neg0 = np.signbit(y[:, 0] * nrm[:, 0] + y[:, 1] * nrm[:, 1] - level[j])
        neg1 = np.signbit(comps[0][ms, ks + 1] * nrm[:, 0]
                          + comps[1][ms, ks + 1] * nrm[:, 1] - level[j])
        hit = (neg0 != neg1) & (np.linalg.norm(y - tubes.seed[j], axis=1)
                                <= near[j])
        srt = np.lexsort((ms[hit], ks[hit], j[hit]))
        j, ms, ks = j[hit][srt], ms[hit][srt], ks[hit][srt]
        t_c, y = esc._refine_crossings(model, ts, comps, ks, ms,
                                       tubes.normal[j], level[j])
        sigma = np.abs((y[:, 0] - tubes.seed[j, 0]) * tubes.u_p[j, 0]
                       + (y[:, 1] - tubes.seed[j, 1]) * tubes.u_p[j, 1]) \
            / tubes.radius[j]
        lo = np.searchsorted(orb, ms, "left")
        n = np.searchsorted(orb, ms, "right") - lo
        c = np.repeat(np.arange(n.size), n)
        m = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(c.size)
        t = t_c[c] - s[m]
        ok = ((t >= w_lo) & (t <= tubes.T[j[c]] + w_hi)
              & (sigma[c] <= sigma_max))
        yield j[c[ok]], pts[m[ok]], t[ok], sigma[c[ok]]


def _dense_eval_q_circ(model, coll, z, zeta, shell):
    """Reference q_circ: the dense passes, summed tube by tube."""
    qv, hp = np.zeros(z.size), np.zeros(z.size)
    phi_shape = falling_step(0.5, 1.0)
    for j, i, t, sigma in _dense_passes(model, coll.tubes, coll.reach, z,
                                        zeta, shell, esc._SUPPORT_ZONE):
        phi = phi_shape(sigma)
        chi, chi_d = esc._chi_tube(t, coll.tubes.T[j])
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
    e = request.getfixturevalue(_TUBES[which])
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
    e = request.getfixturevalue(_TUBES[which])
    x, tau = np.meshgrid(np.geomspace(0.005, 0.999, 20),
                         np.linspace(-1.5, 1.5, 16), indexing="ij")
    z, zeta = 1.0 / x.ravel(), -tau.ravel()
    alone = np.arange(z.size)
    got = esc.eval_q_circ(e.model, e.tubes, z, zeta, alone)
    ref = _dense_eval_q_circ(e.model, e.tubes, z, zeta, alone)
    assert np.count_nonzero(ref[0]) > 0
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_q_circ_slice_plane_prefilter(tubes_longrange):
    """On an 80 x 60 (x, tau) plane of singleton labels whose energies
    reach past every tube's energy range, only orbits at a tube's energy
    are flowed, yet q_circ equals the dense scan over every orbit bit for
    bit; every tube's energy range keeps a point."""
    e = tubes_longrange
    x, tau = np.meshgrid(np.geomspace(1e-3, 0.999, 80),
                         np.linspace(-1.5 * e.model.lam, 1.5 * e.model.lam,
                                     60), indexing="ij")
    z, zeta = 1.0 / x.ravel(), -tau.ravel()
    alone = np.arange(z.size)
    bands = e.tubes.tubes.band
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
# H_p q when its step was halved, on longrange_pow's 80/16/6 grid; the
# grouped result must stay that close to the singletons at half the step.
_GROUPED_Q_TOL, _GROUPED_HP_TOL = 1.2e-8, 1.61e-7


def test_q_circ_grouped_matches_singletons(tubes_longrange, monkeypatch):
    """Shell orbits with offsets against every point flowed on its own at
    half the RK4 step (same sample spacing)."""
    e = tubes_longrange
    z, zeta, shell = esc.phase_grid(e.model, n_x=80, n_interior=16, n_energy=6)
    q, h = esc.eval_q_circ(e.model, e.tubes, z, zeta, shell)
    monkeypatch.setattr(esc, "_Q_CIRC_DT", 0.5 * esc._Q_CIRC_DT)
    monkeypatch.setattr(esc, "_Q_CIRC_STRIDE", 2 * esc._Q_CIRC_STRIDE)
    qs, hs = esc.eval_q_circ(e.model, e.tubes, z, zeta, np.arange(z.size))
    assert np.count_nonzero(qs) > 0
    assert np.array_equal(q != 0.0, qs != 0.0)
    assert np.max(np.abs(q - qs)) <= _GROUPED_Q_TOL * np.max(np.abs(qs))
    assert np.max(np.abs(h - hs)) <= _GROUPED_HP_TOL * np.max(np.abs(hs))


def test_q_circ_one_pass_over_two_grids(tubes_longrange):
    """eval_q_circ over the construction grid and a verification grid in one
    pass, the verification labels offset past the construction ones, equals
    the two separate passes bit for bit."""
    e = tubes_longrange
    grids = [esc.phase_grid(e.model, n_x=220, n_interior=40, n_energy=14),
             esc.phase_grid(e.model, n_x=120, n_interior=20, n_energy=8)]
    (z, zeta, shell), (zv, zetav, shellv) = grids
    q, hp = esc.eval_q_circ(e.model, e.tubes, np.concatenate([z, zv]),
                            np.concatenate([zeta, zetav]),
                            np.concatenate([shell, shellv + shell.max() + 1]))
    parts = [esc.eval_q_circ(e.model, e.tubes, *g) for g in grids]
    assert np.count_nonzero(q) > 0
    assert np.array_equal(q, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(hp, np.concatenate([p[1] for p in parts]))


def test_kept_verification_pieces(escape_longrange):
    """assemble_escape given the verification grid's sizes keeps the same
    constants and construction pieces, and verify_proposition reads the
    kept pieces at those sizes to the report of its own evaluation."""
    e = escape_longrange
    sizes = (120, 20, 8)
    verdict = geo.trapping_verdict(e.model)
    kept = esc.assemble_escape(e.model, e.eps, verdict, verify_grid=sizes)
    assert (kept.C, kept.C_prime, kept.cascade) == (e.C, e.C_prime, e.cascade)
    assert kept.verify_sizes == sizes and e.verify_sizes is None
    assert np.array_equal(kept.grid, e.grid)
    z, zeta, shell = esc.phase_grid(e.model, *sizes)
    assert np.array_equal(kept.verify_grid, np.stack([z, zeta], axis=-1))
    fresh = e.pieces(z, zeta, shell)
    for f in dataclasses.fields(esc.PieceArrays):
        assert np.array_equal(getattr(kept.grid_pieces, f.name),
                              getattr(e.grid_pieces, f.name))
        assert np.array_equal(getattr(kept.verify_pieces, f.name),
                              getattr(fresh, f.name))
    assert esc.verify_proposition(kept, *sizes) == \
        esc.verify_proposition(e, *sizes)


# eval_q_circ's tracemalloc peak above its orbit store's bytes: about 4 MiB
# on the construction grid (the store's own assembly; a candidate group and
# a pair chunk stay below that); expanding every (crossing, member) pair at
# once peaks about 71 MiB above the store there
_Q_CIRC_PEAK_BUDGET = 8 * 2**20


def test_q_circ_memory_bounded(tubes_longrange):
    """On the construction grid the crossing pass stays within a fixed
    budget above the orbit store: the candidate search runs a group of
    orbit columns at a time, and members are expanded in chunks."""
    e = tubes_longrange
    model, tubes = e.model, e.tubes.tubes
    z, zeta, shell = esc.phase_grid(model, n_x=220, n_interior=40, n_energy=14)
    w_lo, w_hi, _ = esc._SUPPORT_ZONE
    ts, comps, *rest = esc._shell_orbits(
        model, z, zeta, shell, e.tubes.reach, w_lo - 0.1,
        tubes.T.max() + w_hi + 0.1, tubes.band, esc._stop_radius(model, tubes))
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
    """The covering check, its test points sharing one q_circ pass with a
    grid's points, agrees with the dense scan on the full tube list and,
    with uncovered points, on every second tube and on zero-length tubes
    of half the radius, where crossings inside the pass's zone but outside
    the covering zone (disc distance in (1/2, 1], tube time in [-1, -1/2)
    or (T + 0.6, T + 2]) must not cover; the grid's pieces from that pass
    equal eval_q_circ's bit for bit."""
    e = request.getfixturevalue(_TUBES[which])
    spacing = max(1.0, (4.0 / e.constants.x0) / 40.0)
    tubes = e.tubes.tubes
    short = dataclasses.replace(tubes, radius=0.5 * tubes.radius,
                                T=np.zeros_like(tubes.T))
    grid = esc.phase_grid(e.model, n_x=120, n_interior=20, n_energy=8)
    missed = []
    for subset in (tubes, _every_second(tubes), short):
        got, (q, hp) = esc._certify_covering(e.model, subset, e.tubes.reach,
                                             e.constants, spacing, grid)
        ref = _dense_certify_covering(e.model, subset, e.tubes.reach,
                                      e.constants, spacing)
        assert (got.n_test, got.n_uncovered) == ref[:2]
        assert np.array_equal(np.reshape(got.uncovered, (-1, 2)), ref[2])
        coll = types.SimpleNamespace(tubes=subset, reach=e.tubes.reach)
        q_ref, hp_ref = esc.eval_q_circ(e.model, coll, *grid)
        assert np.count_nonzero(q_ref) > 0
        assert np.array_equal(q, q_ref) and np.array_equal(hp, hp_ref)
        missed.append(ref[1])
    assert missed[0] == 0 and missed[1] > 0 and missed[2] > 0


@pytest.fixture(scope="session")
def escape_barrier():
    """The tube family of longrange_pow at amplitude 1.5, where a barrier
    above the window reflects every orbit that meets it, built with the
    construction grid on its covering check's pass."""
    model = geo.preset_model("longrange_pow", amplitude=1.5)
    return tube_family(model, grid=esc.phase_grid(model, n_x=220,
                                                  n_interior=40, n_energy=14))


@pytest.mark.parametrize("which", ["escape_longrange", "escape_barrier"])
def test_orbit_store_stops_past_every_near_crossing(which, request):
    """The orbit store shared by the construction grid and the covering
    check's points (labelled past the grid's) ends once every orbit holds
    the escape certificate at the stop radius; flowing every orbit t_tail
    further crosses no tube's transversal within the prefilter distance of
    its seed, so the stop drops no crossing."""
    e = request.getfixturevalue(_TUBES[which])
    model, tubes = e.model, e.tubes.tubes
    spacing = max(1.0, (4.0 / e.constants.x0) / 40.0)
    # the accepted family's seed spacing
    while esc._k_region_seeds(model, e.constants, spacing)[0].size < len(tubes):
        spacing *= 0.5
    energies = model.lambda2 + model.delta * np.array([-0.9, 0.0, 0.9])
    z, zeta, shell = esc._join_points(
        esc.phase_grid(model, n_x=220, n_interior=40, n_energy=14),
        esc._shell_points(model, esc._k_axis(e.constants, 0.5 * spacing),
                          energies))
    w_lo, w_hi, _ = esc._SUPPORT_ZONE
    r_stop = esc._stop_radius(model, tubes)
    t_tail = tubes.T.max() + w_hi + 0.1
    ts, comps, _, _, _ = esc._shell_orbits(model, z, zeta, shell,
                                           e.tubes.reach, w_lo - 0.1,
                                           t_tail, tubes.band, r_stop)
    z_end, zeta_end = comps[0][:, -1], comps[1][:, -1]
    assert np.all(fl.escape_certified(model, z_end, zeta_end, r_stop))
    _, zs, cs = fl.batched_flow(model, z_end, zeta_end, ts[-1],
                                ts[-1] + t_tail, esc._Q_CIRC_DT,
                                store_stride=esc._Q_CIRC_STRIDE)
    level = tubes.seed[:, 0] * tubes.normal[:, 0] \
        + tubes.seed[:, 1] * tubes.normal[:, 1]
    near = esc._near_radius(tubes)
    # a bracket start farther than near from a seed in z is farther in the
    # plane, so only the near samples need the crossing test
    for j, idx in _near_in_z(zs[:-1].ravel(), tubes.seed[:, 0], near):
        ks, ms = np.divmod(idx, zs.shape[1])
        nrm = tubes.normal[j]
        neg0 = np.signbit(zs[ks, ms] * nrm[:, 0] + cs[ks, ms] * nrm[:, 1]
                          - level[j])
        neg1 = np.signbit(zs[ks + 1, ms] * nrm[:, 0]
                          + cs[ks + 1, ms] * nrm[:, 1] - level[j])
        dist = np.hypot(zs[ks, ms] - tubes.seed[j, 0],
                        cs[ks, ms] - tubes.seed[j, 1])
        cross = neg0 != neg1
        assert np.all(dist[cross] > near[j[cross]])


def test_barrier_covering_refined_in_shared_pass(escape_barrier, monkeypatch):
    """On the barrier the first seed spacing leaves test points uncovered,
    and the next spacing flows the store again.  The accepted family (320
    tubes) equals a build without grid points, and the construction grid's
    q_circ from the shared pass equals eval_q_circ's, bit for bit, so the
    shared pass gives the values of separate passes."""
    e = escape_barrier
    stores = []
    real = esc._shell_orbits

    def counting(model, z, *args):
        stores.append(z.size)
        return real(model, z, *args)

    monkeypatch.setattr(esc, "_shell_orbits", counting)
    alone = esc.build_tubes(e.model, e.constants)
    assert len(stores) == 2 and stores[0] < stores[1]
    assert len(alone.tubes) == len(e.tubes.tubes) == 320
    for f in dataclasses.fields(esc.Tubes):
        assert np.array_equal(getattr(alone.tubes, f.name),
                              getattr(e.tubes.tubes, f.name)), f.name
    assert alone.reach == e.tubes.reach
    assert alone.covering.n_test == e.tubes.covering.n_test == stores[1]
    assert alone.covering.n_uncovered == e.tubes.covering.n_uncovered == 0
    z, zeta, shell = esc.phase_grid(e.model, n_x=220, n_interior=40,
                                    n_energy=14)
    q, hp = esc.eval_q_circ(e.model, alone, z, zeta, shell)
    assert np.count_nonzero(q) > 0
    assert np.array_equal(q, e.tubes.grid_q_circ[0])
    assert np.array_equal(hp, e.tubes.grid_q_circ[1])


def _loop_disc_points(tb):
    """One tube's disc samples: the seed, and half and full radius either
    way along u_p."""
    half, full = 0.5 * tb.radius * tb.u_p, tb.radius * tb.u_p
    return tb.seed + np.stack([np.zeros(2), half, -half, full, -full])


_LOOP_GROUP = 64  # tubes flowed together by the reference sweep


def _loop_certify_group(model, group, consts):
    """Reference sweep of a few tubes, tube by tube: their disc points
    flowed as (z, -zeta) forward in flow's segments at the incoming step,
    every column to the end, the whole history kept.  A tube is decided
    once the history holds its first sample at or past T + 2.2: every
    sample of [T + 1/2, T + 2] inside the collar band, or T extended in
    place.  Returns (reach, extensions)."""
    pts = np.concatenate([_loop_disc_points(tb) for tb in group])
    z0, c0 = pts[None, :, 0], -pts[None, :, 1]
    hist_t, hist_z, hist_c = [np.zeros(1)], [z0], [c0]
    reach, pending, t0 = 0.0, list(range(len(group))), 0.0
    extended = [0] * len(group)
    while pending:
        ts, zs, cs = fl.batched_flow(model, hist_z[-1][-1], hist_c[-1][-1],
                                     t0, t0 + fl._SEGMENT, fl.INCOMING_DT)
        hist_t.append(ts[1:]), hist_z.append(zs[1:]), hist_c.append(cs[1:])
        t0 += fl._SEGMENT
        t = np.concatenate(hist_t)
        zt_all, ct_all = np.concatenate(hist_z), np.concatenate(hist_c)
        for k in list(pending):
            tb, cols = group[k], slice(5 * k, 5 * k + 5)
            while t[-1] >= tb.T + 2.2:
                late = (t >= tb.T + 0.5) & (t <= tb.T + 2.0 + 1e-9)
                x, tau = geo.scattering_coords(zt_all[late, cols].ravel(),
                                               ct_all[late, cols].ravel())
                if (np.all(x < consts.x0 / 2.0)
                        and np.all(-tau > 2.0 * model.lam / 3.0)):
                    cut = int(np.searchsorted(t, tb.T + 2.2)) + 1
                    lo = float(zt_all[:cut, cols].min())
                    hi = float(zt_all[:cut, cols].max())
                    pad = 0.25 * tb.radius + 0.05 * (abs(lo) + abs(hi))
                    reach = max(reach, abs(lo - pad), abs(hi + pad))
                    pending.remove(k)
                    break
                extended[k] += 1
                if extended[k] > esc._MAX_EXTEND:
                    raise ConstructionError("late tube portion not disjoint")
                tb.T += max(1.0, 0.1 * tb.T)
    return reach, sum(extended)


def _loop_certify_tubes(model, tubes, consts):
    """Reference late-portion certificate, tube by tube over one reference
    sweep per group of _LOOP_GROUP tubes: (reach, extensions)."""
    reach, extensions = 0.0, 0
    for a in range(0, len(tubes), _LOOP_GROUP):
        r, n = _loop_certify_group(model, tubes[a:a + _LOOP_GROUP], consts)
        reach, extensions = max(reach, r), extensions + n
    return reach, extensions


def _loop_build_tubes(model, consts):
    """Reference construction, seed by seed: (Tubes, reach, extensions) at
    the first seed spacing whose tubes pass the covering check."""
    spacing = max(1.0, (4.0 / consts.x0) / 40.0)
    for _ in range(esc._MAX_REFINE + 1):
        z_s, zeta_s = esc._k_region_seeds(model, consts, spacing)
        r_mom = esc._MOM_FACTOR * model.delta / float(np.min(np.abs(zeta_s)))
        T_in = fl.time_to_incoming(model, z_s, zeta_s, consts.x0 / 2.0,
                                   2.0 * model.lam / 3.0, T_max=500.0)
        dZ, dC = geo.hamilton_field(model, z_s, zeta_s)
        tubes = []
        for z, zeta, T, dz, dzeta in zip(z_s, zeta_s, T_in.tolist(), dZ, dC):
            kappa = abs(float(zeta))
            T = T * (1.0 + 2.0 * esc._MOM_FACTOR * model.delta / kappa**2) + 0.5
            n_vec, grad_p = np.array([dz, dzeta]), np.array([-dzeta, dz])
            tubes.append(types.SimpleNamespace(
                seed=np.array([z, zeta]), T=T, radius=r_mom,
                normal=n_vec / np.linalg.norm(n_vec),
                u_p=grad_p / np.linalg.norm(grad_p)))
        reach, extensions = _loop_certify_tubes(model, tubes, consts)
        bands = []
        for tb in tubes:
            p = geo.symbol_p(model, *_loop_disc_points(tb).T)
            bands.append((p.min() - 0.1 * np.ptp(p), p.max() + 0.1 * np.ptp(p)))
        seed, normal = (np.array([tb.seed for tb in tubes]),
                        np.array([tb.normal for tb in tubes]))
        family = esc.Tubes(seed=seed, normal=normal,
                           u_p=np.array([tb.u_p for tb in tubes]),
                           radius=np.array([tb.radius for tb in tubes]),
                           T=np.array([tb.T for tb in tubes]),
                           level=seed[:, 0] * normal[:, 0]
                           + seed[:, 1] * normal[:, 1],
                           band=np.array(bands))
        report, _ = esc._certify_covering(model, family, reach, consts,
                                          spacing)
        if report.n_uncovered == 0:
            return family, reach, extensions
        spacing *= 0.5
    raise ConstructionError("tube covering failed")


@pytest.fixture(scope="session")
def tubes_well(well_1d):
    """well's tube family."""
    return tube_family(well_1d)


@pytest.mark.parametrize("which, extended", [
    ("escape_longrange", False), ("tubes_well", True),
    ("escape_barrier", True)])
def test_build_tubes_matches_per_seed_loop(which, extended, request):
    """The vectorized construction equals the seed-by-seed one bit for bit:
    every row of the family and the reach.  well and the barrier run the
    certificate's T extension (the barrier after one covering refinement);
    a last-bit change in u_p's normalization fails here."""
    e = request.getfixturevalue(_TUBES[which])
    want, reach, extensions = _loop_build_tubes(e.model, e.constants)
    assert (extensions > 0) == extended
    for f in dataclasses.fields(esc.Tubes):
        assert np.array_equal(getattr(e.tubes.tubes, f.name),
                              getattr(want, f.name)), f.name
    assert e.tubes.reach == reach


def test_sweep_carries_late_flags_across_segments(tubes_well, monkeypatch):
    """With 3-unit flow segments most late windows start in the segment
    before the one that decides them, so they read the flags carried over
    from it; the family still equals the reference's on the same segments
    bit for bit, extensions included."""
    monkeypatch.setattr(fl, "_SEGMENT", 3.0)
    e = tubes_well
    got = esc.build_tubes(e.model, e.constants)
    want, reach, extensions = _loop_build_tubes(e.model, e.constants)
    assert extensions > 0
    for f in dataclasses.fields(esc.Tubes):
        assert np.array_equal(getattr(got.tubes, f.name),
                              getattr(want, f.name)), f.name
    assert got.reach == reach


@pytest.mark.parametrize("which", ["escape_longrange", "tubes_well",
                                   "escape_barrier"])
def test_tube_times_are_incoming_times(which, request):
    """Each tube's T is time_to_incoming on its seed, inflated by
    1 + 2 _MOM_FACTOR delta / kappa^2, plus 1/2 and then the certificate's
    extensions (T grows by max(1, T/10)), bit for bit: the sweep reads the
    seeds' incoming times off its own samples."""
    e = request.getfixturevalue(_TUBES[which])
    tb = e.tubes.tubes
    T_in = fl.time_to_incoming(e.model, tb.seed[:, 0], tb.seed[:, 1],
                               e.constants.x0 / 2.0, 2.0 * e.model.lam / 3.0)
    kappa = np.abs(tb.seed[:, 1])
    T = T_in * (1.0 + 2.0 * esc._MOM_FACTOR * e.model.delta / kappa**2) + 0.5
    for _ in range(esc._MAX_EXTEND):
        short = T < tb.T
        T[short] += np.maximum(1.0, 0.1 * T[short])
    assert np.array_equal(T, tb.T)


def test_build_tubes_flows_once_per_spacing(tubes_longrange, monkeypatch):
    """build_tubes flows its backward orbits once, segment by segment at
    the incoming step: no flow at the old certificate's step 0.02, and none
    at the incoming step longer than one 16-unit segment.  The sweep's
    tracemalloc peak stays within 6 MB: one segment's samples of the 810
    disc columns (2 x 321 x 810 x 8 B = 4.2 MB) and the seeds' chart."""
    e = tubes_longrange
    calls, peaks = [], []
    real_flow, real_sweep = fl.batched_flow, esc._sweep_tubes

    def spy(model, z0, zeta0, t0, t1, dt, **kw):
        calls.append((dt, abs(t1 - t0)))
        return real_flow(model, z0, zeta0, t0, t1, dt, **kw)

    def measured(*args):
        tracemalloc.start()
        try:
            return real_sweep(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(fl, "batched_flow", spy)
    monkeypatch.setattr(esc, "_sweep_tubes", measured)
    coll = esc.build_tubes(e.model, e.constants)
    assert np.array_equal(coll.tubes.T, e.tubes.tubes.T)
    assert not [c for c in calls if c[0] == 0.02]
    incoming = [span for dt, span in calls if dt == fl.INCOMING_DT]
    assert incoming and max(incoming) <= 16.0
    assert len(peaks) == 1 and peaks[0] <= 6e6


def test_q_circ_order_invariant(tubes_longrange):
    """Permuting the points (and their shell labels) permutes the outputs
    exactly."""
    e = tubes_longrange
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


def test_error_messages_print_plain_floats(double_bump_1d, monkeypatch):
    """Points and energies in error messages read as plain floats, not as
    numpy scalar reprs."""
    model = geo.preset_model("longrange_pow")
    with pytest.raises(IntegrationError, match="never certified") as info:
        fl.time_to_incoming(model, [0.0], [1.0], 0.01, 0.6, T_max=1.0)
    assert "first z=0.0, zeta=1.0)" in str(info.value)
    with pytest.raises(ConstructionError, match="trapped") as shell_info:
        esc._shell_points(double_bump_1d, np.linspace(-10.0, 10.0, 201),
                          np.array([1.0]))
    assert "at energy 1.0:" in str(shell_info.value)
    monkeypatch.setattr(fl, "_DRIFT_BOUND", 0.0)
    with pytest.raises(IntegrationError, match="drifted") as drift_info:
        fl.classify_point(model, 5.0, 0.9, T_max=100.0)
    assert "at z=5.0, zeta=0.9 drifted" in str(drift_info.value)
    for e in (info, shell_info, drift_info):
        assert "np.float64" not in str(e.value)


def test_refine_crossings_residual(tubes_longrange, monkeypatch):
    """Crossings stop at the stated residual; a cap of one Newton step
    leaves brackets above it and raises."""
    e = tubes_longrange
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
            verdict=geo.trapping_verdict(double_bump_1d),
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


# -- q_circ by flow averaging ------------------------------------------------

_DWELL_MODELS = {
    "zero": ("zero", {}), "longrange_pow": ("longrange_pow", {}),
    "well": ("well", {}),
    # a barrier above the window: orbits turn, F has turning points
    "barrier": ("longrange_pow", {"amplitude": 1.5}),
    # the collar starts at |z| = 452, T_K = 731
    "slow_decay": ("longrange_pow", {"gamma": 0.5}),
}


def _dwell_model(name):
    preset, overrides = _DWELL_MODELS[name]
    model = geo.preset_model(preset, **overrides)
    return model, esc.boundary_constants(model)


# Stated before the change: -H_p F = 2 chi holds exactly, so a central
# difference of F along one RK4 step of 1e-5 each way differs from -2 chi
# only by F's rounding (|F| <= 731, about 1.6e-8 after dividing by 2e-5) and
# by the quadrature's jitter between nearby orbits; a prototype read 4.2e-8.
_DWELL_FD_TOL = 1e-6


@pytest.mark.parametrize("name", sorted(_DWELL_MODELS))
def test_dwell_time_derivative_along_flow(name):
    """-H_p F = 2 chi(|z|): F's central difference along the RK4 flow at
    every point of a small grid, each point and each flowed point its own
    orbit, through chi's plateau and fall (and, on the barrier, next to the
    turning points)."""
    model, consts = _dwell_model(name)
    z, zeta, _ = esc.phase_grid(model, n_x=120, n_interior=20, n_energy=8)
    d, alone = 1e-5, np.arange(z.size)
    F = []
    for sign in (1.0, -1.0):
        _, zs, cs = fl.batched_flow(model, z, zeta, 0.0, sign * d, d)
        F.append(esc.dwell_times(model, consts, zs[-1], cs[-1], alone)[0])
    chi = esc.dwell_cutoff(consts)(np.abs(z))
    assert np.any(chi == 1.0) and np.any((chi > 0.0) & (chi < 1.0))
    if name == "barrier":
        gap = geo.symbol_p(model, z, zeta) - model.potential.value(z)
        assert np.min(gap) < 1e-2
    assert np.max(np.abs((F[0] - F[1]) / (2.0 * d) + 2.0 * chi)) \
        <= _DWELL_FD_TOL


@pytest.mark.parametrize("name", ["longrange_pow", "barrier"])
def test_dwell_times_match_their_definition(name):
    """F and the total against chi(|z(t)|) integrated along the flow
    itself (DOP853, tol 1e-11, all points in one system) forward and
    backward until every orbit has left supp chi: F = I(T) + I(-T)
    and total = I(T) - I(-T), within 1e-7 (stated before the change), at
    32 grid points, on the barrier's reflected orbits too."""
    from scipy.integrate import solve_ivp

    model, consts = _dwell_model(name)
    z, zeta, shell = esc.phase_grid(model, n_x=40, n_interior=8, n_energy=4)
    pick = np.random.default_rng(7).choice(z.size, 32, replace=False)
    z, zeta, shell = z[pick], zeta[pick], shell[pick]
    chi = esc.dwell_cutoff(consts)
    n = z.size

    def rhs(t, y):
        return np.concatenate([2.0 * y[n:2 * n],
                               -model.potential.gradient(y[:n]),
                               chi(np.abs(y[:n]))])

    # out to the farthest point and back across supp chi, at the window's
    # lowest speed at infinity
    reach = np.max(np.abs(z)) + 4.0 / consts.x0
    T = 2.0 * reach / (2.0 * math.sqrt(model.lambda2 - model.delta)) + 20.0
    y0 = np.concatenate([z, zeta, np.zeros(n)])
    I = [solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-11,
                   atol=1e-11).y[2 * n:, -1] for t in (T, -T)]
    F, total = esc.dwell_times(model, consts, z, zeta, shell)
    assert np.max(np.abs(F - (I[0] + I[1]))) <= 1e-7
    assert np.max(np.abs(total - (I[0] - I[1]))) <= 1e-7
    if name == "barrier":  # V(0) above the window: every orbit reflects
        assert model.potential.value(np.zeros(1))[0] > model.lambda2 \
            + model.delta


def test_dwell_times_free_closed_form(free_1d):
    """On the free line F = (int_z^inf chi - int_-inf^z chi) / (2 zeta) and
    the whole weighted time is int chi / (2 |zeta|), with chi's integrals by
    adaptive quadrature, to 1e-10 (stated before the change): on a
    labelled grid and on each of its points alone."""
    from scipy.integrate import quad

    consts = esc.boundary_constants(free_1d)
    chi = esc.dwell_cutoff(consts)
    r1, r2 = 2.0 / consts.x0, 4.0 / consts.x0
    z, zeta, shell = esc.phase_grid(free_1d, n_x=60, n_interior=12,
                                    n_energy=5)

    def integral(a, b):
        return quad(lambda y: float(chi(abs(y))), a, b, epsabs=1e-13,
                    epsrel=1e-13, limit=200,
                    points=[y for y in (-r1, r1) if a < y < b])[0]

    pos, inv = np.unique(np.clip(z, -r2, r2), return_inverse=True)
    behind = np.array([integral(-r2, y) for y in pos])[inv]
    whole = integral(-r2, r2)
    want = (whole - 2.0 * behind) / (2.0 * zeta)
    for labels in (shell, np.arange(z.size)):
        F, total = esc.dwell_times(free_1d, consts, z, zeta, labels)
        assert np.max(np.abs(F - want)) <= 1e-10
        assert np.max(np.abs(total - whole / (2.0 * np.abs(zeta)))) <= 1e-10


def test_dwell_times_edge_cases(longrange_1d, well_1d, double_bump_1d):
    """Points dwell_times leaves at F = total = 0: at a turning point
    (zeta = 0), on an orbit whose turning point lies outside supp chi (a
    low energy far out, past the breakpoints), and on a bounded orbit
    below the window (the well at E < 0).  A bounded orbit at a window
    energy (between double_bump's barriers) raises."""
    for model, z, zeta in ((longrange_1d, [5.0, 1000.0], [0.0, 0.01]),
                           (well_1d, [0.0], [0.5])):
        consts = esc.boundary_constants(model)
        z, zeta = np.array(z), np.array(zeta)
        F, total = esc.dwell_times(model, consts, z, zeta, np.arange(z.size))
        assert np.all(F == 0.0) and np.all(total == 0.0)
    consts = esc.BoundaryConstants(M=0.0, c1=0.2, eps1=0.5, x0=0.1,
                                   delta1=0.125, c0=1.0)
    with pytest.raises(ConstructionError, match="trapped orbit"):
        esc.dwell_times(double_bump_1d, consts, np.zeros(1), np.ones(1),
                        np.arange(1))


@pytest.mark.parametrize("name", sorted(_DWELL_MODELS))
def test_q_circ_at_least_one_on_every_grid(name):
    """|F| <= total <= T_K (dwell_bound), so q_circ = F + T_K + 1 >= 1, on
    the construction grid, the CLI's default verification grid and
    criterion 4's two grids."""
    model, consts = _dwell_model(name)
    T_K = esc.dwell_bound(model, consts)
    for sizes in ((220, 40, 14), (300, 40, 16), (600, 80, 40),
                  (850, 110, 56)):
        F, total = esc.dwell_times(model, consts,
                                   *esc.phase_grid(model, *sizes))
        assert np.all(np.abs(F) <= total) and np.all(total <= T_K)
        assert np.min(F + T_K + 1.0) >= 1.0


@pytest.mark.parametrize("name", ["zero", "longrange_pow", "well", "barrier"])
def test_cascade_takes_no_halving(name, request):
    """H_p q_circ = -2 chi has no positive part: neither cascade stage
    halves its constant, and the escape function certifies on the CLI's
    default verification grid with c'' at least half the incoming floor."""
    fixture = {"zero": "escape_free", "longrange_pow": "escape_longrange"}
    if name in fixture:
        e = request.getfixturevalue(fixture[name])
    else:
        model, _ = _dwell_model(name)
        e = esc.assemble_escape(
            model, 0.2, geo.trapping_verdict(model))
    assert e.cascade["halvings_C"] == 0 and e.cascade["halvings_Cp"] == 0
    assert e.C == 1.0 and e.C_prime == 1.0
    report = esc.verify_proposition(e, n_x=300, n_interior=40, n_energy=16)
    assert report.passed and report.c_dprime >= 0.5 * e.c2


# dwell_times keeps about eight node arrays of one chunk alive (_PANEL_CHUNK
# panels x 16 nodes x 8 B = 256 KiB each), pieces about 40 arrays of one
# float per point; evaluating every panel of 20,000 singleton orbits at
# once would need 20,000 x 34 x 16 x 8 B = 87 MB per node array
def _pieces_peak_budget(n):
    return 16 * esc._PANEL_CHUNK * 16 * 8 + 40 * 8 * n


def test_pieces_memory_bounded_on_singletons(escape_longrange):
    """EscapeFunction.pieces on 20,000 points, each its own orbit, stays
    within a tracemalloc budget set by the panel chunk."""
    e = escape_longrange
    n = 20000
    rng = np.random.default_rng(5)
    z = rng.uniform(-100.0, 100.0, n)
    p = rng.uniform(e.model.lambda2 - e.model.delta,
                    e.model.lambda2 + e.model.delta, n)
    zeta = rng.choice([-1.0, 1.0], n) * np.sqrt(p - e.model.potential.value(z))
    tracemalloc.start()
    try:
        pc = e.pieces(z, zeta, np.arange(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.min(pc.q_circ) >= 1.0
    assert peak <= _pieces_peak_budget(n)
