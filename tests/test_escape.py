"""Escape-function construction: constants, cutoffs, shell labels, dwell
times, q_circ's evaluator, certificates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from nontrap import escape as esc
from nontrap import flow as fl
from nontrap import geometry as geo
from nontrap.errors import ConfigurationError, ConstructionError, IntegrationError

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


# -- shell labels ------------------------------------------------------------

# Stated before the change: the same DOP853 tolerance (1e-10) as the
# reference flows elsewhere, and F's quadrature error (about 1e-13 relative)
# moves the landing point by far less than this.
_MEMBER_TOL = 1e-6


@pytest.mark.parametrize("amplitude", [0.5, 1.5])
def test_shell_members_on_representative_orbit(amplitude):
    """Each label's members lie on one orbit, and q_circ's differences are
    the times between them: where chi = 1 along the way, -H_p F = 2 makes
    the flow time from the label's first member to another (q_0 - q_k)/2,
    and DOP853 (tol 1e-10) from the first member over that time lands on
    the member (its middle and last among those with |z| <= 2/x0).
    Amplitude 1.5 puts the barrier top above the window (reflecting
    orbits)."""
    model = geo.preset_model("longrange_pow", amplitude=amplitude)
    consts = esc.boundary_constants(model)
    z, zeta, shell = esc.phase_grid(model, n_x=60, n_interior=12, n_energy=3)
    q, _ = esc.eval_q_circ(model, consts, esc.dwell_bound(model, consts),
                           z, zeta, shell)
    inner = np.abs(z) <= 2.0 / consts.x0
    checked = 0
    for lab in np.unique(shell):
        mem = np.flatnonzero((shell == lab) & inner)
        if mem.size < 2:
            continue
        rep = mem[0]
        for k in (mem[mem.size // 2], mem[-1]):
            tr = integrate_flow(model, z[rep], zeta[rep],
                                (0.0, 0.5 * (q[rep] - q[k])))
            assert abs(tr.z[-1] - z[k]) <= _MEMBER_TOL
            assert abs(tr.zeta[-1] - zeta[k]) <= _MEMBER_TOL
            checked += 1
    assert checked >= 2 * 3 * 2


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

# -- q_circ's evaluator ------------------------------------------------------

# Stated before the change: each label's energy and interval are its first
# member's, so a point alone differs from its label only by the rounding of
# p; the panel sums agree with adaptive quadrature to about 1e-13 relative,
# and |F| <= T_K <= 731 on these models.
_SINGLETON_TOL = 1e-10


def test_q_circ_grouped_matches_singletons():
    """eval_q_circ on orbit labels against every point as its own orbit, on
    every dwell-time model: q_circ within _SINGLETON_TOL, H_p q_circ =
    -2 chi(|z|) bit for bit."""
    for name in sorted(_DWELL_MODELS):
        model, consts = _dwell_model(name)
        T_K = esc.dwell_bound(model, consts)
        z, zeta, shell = esc.phase_grid(model, n_x=80, n_interior=16,
                                        n_energy=6)
        q, h = esc.eval_q_circ(model, consts, T_K, z, zeta, shell)
        qs, hs = esc.eval_q_circ(model, consts, T_K, z, zeta,
                                 np.arange(z.size))
        assert np.min(qs) >= 1.0
        assert np.max(np.abs(q - qs)) <= _SINGLETON_TOL, name
        assert np.array_equal(h, hs)


def test_q_circ_one_pass_over_two_grids(escape_longrange):
    """eval_q_circ over the construction grid and a verification grid in one
    pass, the verification labels offset past the construction ones, equals
    the two separate passes bit for bit."""
    e = escape_longrange
    grids = [esc.phase_grid(e.model, n_x=220, n_interior=40, n_energy=14),
             esc.phase_grid(e.model, n_x=120, n_interior=20, n_energy=8)]
    (z, zeta, shell), (zv, zetav, shellv) = grids
    q, hp = esc.eval_q_circ(e.model, e.constants, e.T_K,
                            np.concatenate([z, zv]),
                            np.concatenate([zeta, zetav]),
                            np.concatenate([shell, shellv + shell.max() + 1]))
    parts = [esc.eval_q_circ(e.model, e.constants, e.T_K, *g) for g in grids]
    assert np.array_equal(q, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(hp, np.concatenate([p[1] for p in parts]))


def test_assemble_evaluates_q_circ_once(escape_longrange, monkeypatch):
    """assemble_escape with a verification grid calls eval_q_circ once, on
    the construction grid's and the verification grid's points together,
    and keeps its values as both grids' q_circ pieces."""
    e = escape_longrange
    sizes = (60, 10, 4)
    calls = []
    real = esc.eval_q_circ

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(esc, "eval_q_circ", spy)
    kept = esc.assemble_escape(e.model, e.eps, geo.trapping_verdict(e.model),
                               verify_grid=sizes)
    (q, hp), = calls
    n = esc.phase_grid(e.model, *esc._CONSTRUCTION_GRID)[0].size
    assert q.size == n + esc.phase_grid(e.model, *sizes)[0].size
    assert np.array_equal(q, np.concatenate([kept.grid_pieces.q_circ,
                                             kept.verify_pieces.q_circ]))
    assert np.array_equal(hp, np.concatenate([kept.grid_pieces.hp_circ,
                                              kept.verify_pieces.hp_circ]))


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


# dwell_times keeps about eight node arrays of one 2,048-member chunk alive
# (256 KiB each) and eval_q_circ a few arrays of one float per point (105 KiB
# each on the construction grid); it peaked at 2.9 MB there, and evaluating
# every member at once (no member chunks) peaks at 14.9 MB
_Q_CIRC_PEAK_BUDGET = 6 * 2**20


def test_q_circ_memory_bounded(escape_longrange):
    """eval_q_circ on the construction grid (28 labels of about 480
    members) stays within a tracemalloc budget set by the member chunk."""
    e = escape_longrange
    z, zeta, shell = esc.phase_grid(e.model, *esc._CONSTRUCTION_GRID)
    tracemalloc.start()
    try:
        q, _ = esc.eval_q_circ(e.model, e.constants, e.T_K, z, zeta, shell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.min(q) >= 1.0
    assert peak <= _Q_CIRC_PEAK_BUDGET


def test_q_circ_order_invariant(escape_longrange):
    """Permuting the points (and their shell labels) so that each label's
    members keep their order permutes the outputs exactly; any permutation
    does so within _SINGLETON_TOL (a label's first member sets its
    energy)."""
    e = escape_longrange
    z, zeta, shell = esc.phase_grid(e.model, n_x=80, n_interior=16, n_energy=6)
    perm = np.random.default_rng(3).permutation(z.size)
    kept = perm.copy()
    kept[np.argsort(shell[perm], kind="stable")] = np.argsort(shell,
                                                              kind="stable")

    def permuted(p):
        return esc.eval_q_circ(e.model, e.constants, e.T_K, z[p], zeta[p],
                               shell[p])

    q, h = esc.eval_q_circ(e.model, e.constants, e.T_K, z, zeta, shell)
    qk, hk = permuted(kept)
    assert np.array_equal(qk, q[kept]) and np.array_equal(hk, h[kept])
    qp, hp = permuted(perm)
    assert np.array_equal(hp, h[perm])
    assert np.max(np.abs(qp - q[perm])) <= _SINGLETON_TOL


def test_build_tubes_is_a_stub(free_1d):
    """build_tubes is only a name for the benchmark's tracer: calling it
    raises, naming q_circ's evaluator."""
    with pytest.raises(ConstructionError, match="eval_q_circ"):
        esc.build_tubes(free_1d, esc.boundary_constants(free_1d))
