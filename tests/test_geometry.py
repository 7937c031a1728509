"""Charts, symbol and Hamilton field of the model problems."""

import inspect
import math
import time

import numpy as np
import pytest

from nontrap import flow
from nontrap import geometry as geo
from nontrap.errors import ConfigurationError

from conftest import shell_sample_1d


def test_symbol_free_particle(free_1d):
    assert geo.symbol_p(free_1d, [2.0], [1.0])[0] == pytest.approx(1.0)


def test_symbol_potential_at_origin():
    m = geo.preset_model("longrange_pow", amplitude=1.0, gamma=1.0)
    assert geo.symbol_p(m, [0.0], [0.0])[0] == pytest.approx(1.0)


@pytest.mark.parametrize("evaluate", [
    lambda m, z, zeta: geo.symbol_p(m, z, zeta),
    lambda m, z, zeta: geo.hamilton_field(m, z, zeta),
    lambda m, z, zeta: geo.scattering_coords(z, zeta),
], ids=["symbol_p", "hamilton_field", "scattering_coords"])
def test_phase_batch_shape_guard(longrange_1d, evaluate):
    """A phase-point batch is two equal-length 1-D arrays; a column batch
    would otherwise broadcast to (m, m) against the potential."""
    col, flat = np.ones((3, 1)), np.ones(3)
    for z, zeta in [(col, col), (flat, col), (flat, np.ones(2))]:
        with pytest.raises(ConfigurationError, match="1-D"):
            evaluate(longrange_1d, z, zeta)


def _euclidean_coords(x, tau, end):
    """Inverse chart at the end sign(z) = end (+-1) on the exact region
    x <= 1."""
    return end / x, -tau * end


def _symbol_p_scattering(model, x, tau, end):
    """The symbol from scattering data only, tau^2 + V(end / x): an
    arithmetic path independent of geo.symbol_p."""
    return tau**2 + model.potential.value(end / x)


def test_chart_sign_convention():
    x, tau = geo.scattering_coords([4.0, -4.0], [1.0, 1.0])
    assert x.tolist() == pytest.approx([0.25, 0.25])
    assert tau.tolist() == pytest.approx([-1.0, 1.0])
    assert _euclidean_coords(0.25, -1.0, end=1) == pytest.approx((4.0, 1.0))
    assert _euclidean_coords(0.25, 1.0, end=-1) == pytest.approx((-4.0, 1.0))


def test_chart_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = rng.uniform(2.0, 1e4)
        end = rng.choice([-1.0, 1.0])
        z = np.array([r * end])
        zeta = rng.normal(size=1)
        x, tau = geo.scattering_coords(z, zeta)
        z2, zeta2 = _euclidean_coords(x[0], tau[0], end)
        assert np.allclose(z2, z, rtol=1e-12, atol=1e-12 * r)
        assert np.allclose(zeta2, zeta, rtol=1e-12, atol=1e-12)


def test_boundary_x_positive_and_asymptotic():
    r = np.geomspace(1e-3, 1e6, 200)
    x, _ = geo.scattering_coords(r, np.zeros_like(r))
    assert np.all(x > 0)
    big = r > 1.0
    assert np.allclose(x[big] * r[big], 1.0, rtol=1e-13)


@pytest.mark.parametrize("preset", ["zero", "longrange_pow"])
def test_chart_consistency_bulk(preset):
    """|p_euclid - p_scatter| <= 1e-10 (1 + |p|) on 1e4 shell-ish points
    at both ends."""
    model = geo.preset_model(preset, delta=0.3)
    rng = np.random.default_rng(2)
    n = 10_000
    r = np.exp(rng.uniform(np.log(2.0), np.log(1e4), size=n))
    end = rng.choice([-1.0, 1.0], size=n)
    z = r * end
    zeta = rng.normal(scale=1.0, size=n)
    p = geo.symbol_p(model, z, zeta)
    x, tau = geo.scattering_coords(z, zeta)
    p_sc = _symbol_p_scattering(model, x, tau, end)
    assert np.max(np.abs(p - p_sc) / (1.0 + np.abs(p))) <= 1e-10


def test_hamilton_free_flow(free_1d):
    dz, dzeta = geo.hamilton_field(free_1d, [2.0], [1.0])
    assert dz[0] == pytest.approx(2.0)
    assert dzeta[0] == pytest.approx(0.0)


def test_hamilton_radial_momentum_rate(free_1d):
    # free particle on the energy shell: d/dt (tau / x) = -2 tau^2
    v = geo.hamilton_field_scattering(free_1d, [2.0], [1.0])
    hp_tau_over_x = v.taudot / v.x - v.tau * v.xdot / v.x**2
    assert hp_tau_over_x[0] == pytest.approx(-2.0)


def test_hamilton_gradient_finite_difference():
    # V(z) = 2 e^{-z^2}: the well preset with negative amplitude
    m = geo.build_model({"potential": "well", "amplitude": -2.0})
    z, zeta = 1.0, 0.5
    _, dzeta = geo.hamilton_field(m, [z], [zeta])
    eps = 1e-6
    dV = (geo.symbol_p(m, [z + eps], [zeta]) - geo.symbol_p(m, [z - eps], [zeta]))[0] / (2 * eps)
    assert abs(dzeta[0] + dV) <= 1e-8
    assert dzeta[0] == pytest.approx(4.0 * np.exp(-1.0), rel=1e-7)


def test_hamilton_field_matches_symbol_gradient():
    model = geo.build_model(
        {"potential": "longrange_pow", "amplitude": 0.7, "gamma": 1.5}
    )
    rng = np.random.default_rng(4)
    z = rng.uniform(-8, 8, size=50)
    zeta = rng.normal(size=50)
    dz, dzeta = geo.hamilton_field(model, z, zeta)
    eps = 1e-6
    dp_dzeta = (geo.symbol_p(model, z, zeta + eps) - geo.symbol_p(model, z, zeta - eps)) / (2 * eps)
    dp_dz = (geo.symbol_p(model, z + eps, zeta) - geo.symbol_p(model, z - eps, zeta)) / (2 * eps)
    assert np.max(np.abs(dz - dp_dzeta)) <= 1e-7
    assert np.max(np.abs(dzeta + dp_dz)) <= 1e-7


def test_scattering_velocity_consistency(longrange_1d):
    """Analytic chart derivatives match finite differences of the chart
    composed with the Euclidean flow, to 1e-8 relative."""
    z, zeta = shell_sample_1d(longrange_1d, 200, rmin=2.0)
    vel = geo.hamilton_field_scattering(longrange_1d, z, zeta)
    dz, dzeta = geo.hamilton_field(longrange_1d, z, zeta)
    eps = 1e-7
    xp, taup = geo.scattering_coords(z + eps * dz, zeta + eps * dzeta)
    xm, taum = geo.scattering_coords(z - eps * dz, zeta - eps * dzeta)
    scale = np.abs(vel.xdot) + np.abs(vel.taudot) + 1.0
    assert np.max(np.abs((xp - xm) / (2 * eps) - vel.xdot) / scale) <= 1e-8
    assert np.max(np.abs((taup - taum) / (2 * eps) - vel.taudot) / scale) <= 1e-8


def test_decay_certificate(longrange_1d):
    """|p - tau^2| <= C x^gamma on samples, with finite C."""
    z, zeta = shell_sample_1d(longrange_1d, 500, rmin=1.5, rmax=1e3)
    p = geo.symbol_p(longrange_1d, z, zeta)
    x, tau = geo.scattering_coords(z, zeta)
    C = np.max(np.abs(p - tau**2) / x**longrange_1d.gamma)
    assert np.isfinite(C)
    assert C <= 2.0 * longrange_1d.potential.amplitude + 1e-9


def test_sign_law_outgoing_free(free_1d):
    """Along an outgoing free trajectory tau/x is strictly decreasing."""
    t = np.linspace(0.0, 10.0, 50)
    z = 2.0 + 2.0 * t  # z(t) for zeta = 1
    x, tau = geo.scattering_coords(z, np.ones_like(z))
    vals = tau / x
    assert np.all(np.diff(vals) < 0)


def test_collar_remainders_vanish_free(free_1d):
    z, zeta = shell_sample_1d(free_1d, 200, rmin=2.0, rmax=500.0)
    a, b, f = geo.collar_remainders(free_1d, z, zeta)
    # zero up to float re-association; boundary_constants snaps this to 0
    assert np.max(np.abs(a)) <= 1e-9
    assert np.max(np.abs(b)) <= 1e-9
    assert np.max(np.abs(f)) <= 1e-9


def test_model_validation_errors():
    with pytest.raises(ConfigurationError, match="unknown model keys"):
        geo.build_model({"dimension": 1})
    with pytest.raises(ConfigurationError):
        geo.build_model({"delta": 2.0})  # delta >= lambda2
    with pytest.raises(ConfigurationError):
        geo.build_model({"potential": "nope"})
    with pytest.raises(ConfigurationError):
        geo.build_model({"gamma": -1.0, "potential": "longrange_pow", "amplitude": 1.0})


@pytest.mark.parametrize("name", sorted(geo.POTENTIALS))
def test_potential_keys_are_its_constructor_parameters(name):
    """A potential's keys are what build_model passes its constructor, and
    every model key it reads (so no key is read without being declared)."""
    cls = geo.POTENTIALS[name]
    assert cls.name == name
    assert cls.keys == tuple(inspect.signature(cls).parameters)
    assert set(cls.keys) <= set(geo.MODEL_DEFAULTS)


@pytest.mark.parametrize("potential, key, value", [
    ("double_bump", "gamma", 0.3), ("zero", "amplitude", 1.0),
    ("longrange_pow", "separation", 2.0), ("well", "gamma", 2.0)])
def test_unread_model_key_rejected(potential, key, value):
    """A shape key the potential never reads is rejected, naming the key
    and the potential, unless it holds its default value."""
    with pytest.raises(ConfigurationError,
                       match=f"'{key}' = {value}.*'{potential}'"):
        geo.build_model({"potential": potential, key: value})
    m = geo.build_model({"potential": potential,
                         key: geo.MODEL_DEFAULTS[key]})
    assert m.potential.name == potential


@pytest.mark.parametrize("potential, params", [
    ("zero", {}),
    ("longrange_pow", {"amplitude": 0.5, "gamma": 1.0}),
    ("longrange_pow", {"amplitude": -3.0, "gamma": 0.5}),
    ("double_bump", {"amplitude": 2.0, "separation": 3.0}),
    ("double_bump", {"amplitude": -2.0, "separation": 10.0}),
    ("double_bump", {"amplitude": 0.1, "separation": -4.0}),
    ("well", {"amplitude": 2.0}),
    ("well", {"amplitude": -2.0}),
])
def test_rise_radius_bounds_every_outward_rise(potential, params):
    """Past rise_radius(r), V rises by less than r from any |z0| >= R to
    any farther |z1| on the same side (on a fine grid; a tail rising to 0
    comes to r in floats only where exp underflows)."""
    pot = geo.build_model(dict(params, potential=potential)).potential
    rise = 0.5
    R = pot.rise_radius(rise)
    r = R + np.linspace(0.0, 60.0, 60001)
    for side in (1.0, -1.0):
        v = pot.value(side * r)
        ahead = np.maximum.accumulate(v[::-1])[::-1]  # max over |z1| >= |z0|
        assert np.max(ahead - v) <= rise


def test_no_finite_escape_radius_rejected():
    """An attractive tail decaying too slowly rises by the escape energy
    (lambda2 - delta)/2 beyond any float radius.  A wide window lowers
    that energy, and with it the slowest decay that still has a radius:
    gamma = 5e-3 has one at delta = 0.1 and none at delta = 0.9."""
    tail = {"potential": "longrange_pow", "amplitude": -1.0}
    with pytest.raises(ConfigurationError, match="escape radius"):
        geo.build_model(dict(tail, gamma=1e-3))
    assert math.isfinite(geo.build_model(dict(tail, gamma=5e-3))
                         .escape_radius)
    with pytest.raises(ConfigurationError, match="escape radius"):
        geo.build_model(dict(tail, gamma=5e-3, delta=0.9))


def test_escape_energy_is_half_the_lowest_window_energy():
    model = geo.preset_model("well", lambda2=2.0, delta=0.5)
    assert model.escape_energy == 0.75
    assert model.escape_radius == 40.0


def test_presets_cover_spec_examples():
    lr = geo.preset_model("longrange_pow")
    assert lr.potential.amplitude == 0.5 and lr.potential.gamma == 1.0
    db = geo.preset_model("double_bump")
    assert db.potential.amplitude == 2.0 and db.potential.separation == 3.0
    w = geo.preset_model("well")
    assert w.potential.amplitude == 2.0


# ---------------------------------------------------------------------------
# the exact non-trapping verdict
# ---------------------------------------------------------------------------

#: name -> (preset, overrides); the verdict tests' models
_VERDICT_MODELS = {
    "zero": ("zero", {}),
    "longrange_pow": ("longrange_pow", {}),
    "double_bump": ("double_bump", {}),
    "well": ("well", {}),
    "double_bump_sep50": ("double_bump", {"separation": 50.0}),
    "barrier_top": ("longrange_pow", {"amplitude": 1.0}),
    "barrier": ("longrange_pow", {"amplitude": 1.5}),
    "barrier_edge": ("longrange_pow", {"amplitude": 1.1}),
    "zero_wide": ("zero", {"delta": 0.9}),
    "zero_low": ("zero", {"lambda2": 0.05, "delta": 0.01}),
    "slow_tail": ("longrange_pow", {"amplitude": -1.0, "gamma": 0.005}),
    # the bumps merge into one flat top, V' ~ z^3 at 0, with V(0) = 1.05
    "flat_top": ("double_bump", {"separation": math.sqrt(0.5),
                                 "amplitude": 0.525 * math.exp(0.5)}),
    # the same flat top at V(0) = lambda2 = 1, to rounding
    "flat_top_lambda2": ("double_bump", {"separation": math.sqrt(0.5),
                                         "amplitude": 0.5 * math.exp(0.5)}),
}


def _verdict_model(name):
    preset, overrides = _VERDICT_MODELS[name]
    return geo.preset_model(preset, **overrides)


@pytest.mark.parametrize("name", ["zero", "longrange_pow", "double_bump",
                                  "well", "double_bump_sep50"])
def test_trapping_verdict_agrees_with_the_flow(name):
    """The verdict agrees with the batched-flow scan on the presets and on
    double_bump with its bumps past the escape floor."""
    model = _verdict_model(name)
    scan = flow.nontrapping_scan(model, n_samples=100, T_max=150.0)
    assert geo.trapping_verdict(model).nontrapping \
        == scan.is_nontrapping_empirical


@pytest.mark.parametrize("name, nontrapping, below, above, components", [
    ("zero", True, 0.0, math.nan, 0),
    ("longrange_pow", True, 0.5, math.nan, 0),
    ("well", True, -2.0, math.nan, 0),
    ("barrier_top", False, 1.0, math.nan, 1),
    ("barrier", True, math.nan, 1.5, 1),
    ("barrier_edge", False, math.nan, 1.1, 1),
    ("zero_wide", True, 0.0, math.nan, 0),
    ("zero_low", True, 0.0, math.nan, 0),
    ("slow_tail", True, -1.0, math.nan, 0),
])
def test_trapping_verdict_critical_values(name, nontrapping, below, above,
                                          components):
    """The barrier top (max V = 1 inside the window) and a window whose
    upper edge is max V = 1.1 trap; a barrier above the window does not,
    nor does the free line at a wide or a low window.  The critical values
    nearest to lambda2 are V's at its critical points (V = 0 is critical
    everywhere on the free line)."""
    v = geo.trapping_verdict(_verdict_model(name))
    assert v.nontrapping is nontrapping
    np.testing.assert_array_equal([v.critical_below, v.critical_above],
                                  [below, above])
    assert v.components == components
    assert v.witnesses == (() if nontrapping else ((0.0, 0.0),))


def test_trapping_verdict_double_bump():
    """double_bump traps between its bumps: {V >= 1} has two components,
    the critical values nearest to the window are the well's floor
    4 exp(-9) and the bumps' tops, and the witness sits at the floor on
    the shell E = 1."""
    v = geo.trapping_verdict(_verdict_model("double_bump"))
    assert not v.nontrapping and v.components == 2
    assert v.critical_below == pytest.approx(4.0 * math.exp(-9.0), rel=1e-12)
    assert v.critical_above == pytest.approx(2.0, rel=1e-12)
    (z, zeta), = v.witnesses
    assert z == 0.0 and zeta == pytest.approx(math.sqrt(1.0 - v.critical_below))


@pytest.mark.parametrize("name", ["double_bump", "double_bump_sep50",
                                  "barrier_top", "barrier_edge"])
def test_trapping_verdict_witnesses_stay_bounded(name):
    """Each witness's orbit stays bounded under RK4 (step 0.02 for 200 time
    units, several bounces between double_bump's bumps) at its energy,
    which lies in the window."""
    model = _verdict_model(name)
    v = geo.trapping_verdict(model)
    z, zeta = (np.array(c) for c in zip(*v.witnesses))
    energy = geo.symbol_p(model, z, zeta)
    assert np.all((energy >= v.window[0]) & (energy <= v.window[1]))
    _, zs, _ = flow.batched_flow(model, z, zeta, 0.0, 200.0, 0.02,
                                 store_stride=10)
    reach = model.potential.level_radius(v.window[0])
    assert np.all(np.abs(zs) < reach)


def test_trapping_verdict_flat_top():
    """At a degenerate top (V' ~ z^3) the bounds on V'' are not local, and
    the cells left unsettled near it grow with each halving; the cap on
    them stops the halving, and the verdict traps at (0, 0)."""
    model = _verdict_model("flat_top")
    v = geo.trapping_verdict(model)
    assert v.witnesses == ((0.0, 0.0),)
    assert v.critical_above == model.potential.value(np.zeros(1))[0]


def test_trapping_verdict_flat_top_at_lambda2():
    """A flat top whose V(0) rounds one ulp below lambda2 while V(1e-4)
    rounds to lambda2: the verdict's cell ends see a gap between two
    components of {V >= lambda2}, whose least V lies within the verdict's
    few ulps of lambda2.  That is no gap: one component, and the critical
    point at 0 is the only witness."""
    model = _verdict_model("flat_top_lambda2")
    v = geo.trapping_verdict(model)
    assert model.potential.value(np.array([1e-4]))[0] == model.lambda2
    assert v.components == 1
    assert v.witnesses == ((0.0, 0.0),)
    assert abs(v.critical_below - model.lambda2) <= 4 * np.spacing(1.0)


class _Inflection(geo.Potential):
    """V = 1 + (z - 0.3)^3 on [-0.6, 0.6], all the verdict reads: an
    inflection point with critical value 1, where V' does not change
    sign."""

    def value(self, z):
        return 1.0 + (z - 0.3) ** 3

    def gradient(self, z):
        return 3.0 * (z - 0.3) ** 2

    def rise_radius(self, rise):
        return 0.0

    def level_radius(self, level):
        return 0.6

    def slope_bounds(self, a, b):
        far = np.maximum(np.abs(a - 0.3), np.abs(b - 0.3))
        return 3.0 * far**2, 6.0 * far


def test_trapping_verdict_even_order_critical_point():
    """A critical value in the window where V' keeps its sign leaves cells
    unsettled: the verdict traps, with the unsettled centre of least |V'|
    as its witness."""
    v = geo.trapping_verdict(geo.ModelProblem(_Inflection(), 1.0, 0.1))
    (z, zeta), = v.witnesses
    assert not v.nontrapping
    assert abs(z - 0.3) < 1e-9 and zeta == 0.0


@pytest.mark.parametrize("name", sorted(_VERDICT_MODELS))
def test_trapping_verdict_takes_under_10_ms(name):
    """The verdict is a few numpy passes over at most a few thousand cells,
    on slowly decaying tails too (slow_tail's cells reach |z| = 1.4e9)."""
    model = _verdict_model(name)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        geo.trapping_verdict(model)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.01


def test_level_radius_bounds_the_potential():
    """|V| < level past level_radius, on a geometric sample out to 1e6
    times the radius."""
    for preset, overrides in _VERDICT_MODELS.values():
        pot = geo.preset_model(preset, **overrides).potential
        for level in (0.04, 0.9, 1.3):
            r = pot.level_radius(level)
            if not math.isfinite(r):
                continue
            z = r * np.geomspace(1.0 + 1e-9, 1e6, 2000) + 1e-9
            for s in (1.0, -1.0):
                assert np.all(np.abs(pot.value(s * z)) < level), (preset,
                                                                  level)


@pytest.mark.parametrize("name", ["longrange_pow", "double_bump", "well",
                                  "barrier", "slow_tail"])
def test_slope_bounds_bound_the_derivatives(name):
    """M1 and M2 bound |V'| and a finite-difference |V''| at 64 points of
    each of 200 cells."""
    pot = _verdict_model(name).potential
    ends = np.sinh(np.linspace(-6.0, 6.0, 201))
    a, b = ends[:-1], ends[1:]
    m1, m2 = pot.slope_bounds(a, b)
    z = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 64)
    d = 1e-5 * (1.0 + np.abs(z))
    curvature = (pot.gradient(z + d) - pot.gradient(z - d)) / (2.0 * d)
    assert np.all(np.abs(pot.gradient(z)) <= m1[:, None] * (1 + 1e-12))
    assert np.all(np.abs(curvature) <= m2[:, None] * (1 + 1e-6) + 1e-9)
