"""Charts, symbol and Hamilton field of the model problems."""

import inspect
import math

import numpy as np
import pytest

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
