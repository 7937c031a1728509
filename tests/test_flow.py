"""Flow integration, escape classification, scans and incoming times."""

import tracemalloc

import numpy as np
import pytest

from nontrap import flow, geometry as geo
from nontrap.errors import IntegrationError

from conftest import integrate_flow


def test_free_flow_straight_line(free_1d):
    traj = integrate_flow(free_1d, 0.0, 1.0, (0.0, 10.0))
    assert traj.z[-1] == pytest.approx(20.0, abs=1e-8)
    assert traj.zeta[-1] == pytest.approx(1.0, abs=1e-10)


def test_double_bump_confinement(double_bump_1d):
    """Turning points where V = 1 exist on both sides; the orbit stays
    inside |z| <= 3 for t in [0, 200]."""
    traj = integrate_flow(double_bump_1d, 0.0, 1.0, (0.0, 200.0), tol=1e-10)
    assert np.max(np.abs(traj.z)) <= 3.0
    assert traj.energy_drift <= 1e-8 * (1 + abs(traj.p0))


def test_well_escape_asymptotic_speed(well_1d):
    """p(0) = 4 - 2 = 2; the orbit escapes with |zeta| -> sqrt(2)."""
    traj = integrate_flow(well_1d, 0.0, 2.0, (0.0, 60.0))
    assert abs(traj.z[-1]) > 40.0
    assert abs(traj.zeta[-1]) == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_energy_drift_both_directions(longrange_1d):
    for span in [(0.0, 50.0), (0.0, -50.0)]:
        traj = integrate_flow(longrange_1d, 1.5, 0.8, span, tol=1e-10)
        assert traj.energy_drift <= 1e-8 * (1 + abs(traj.p0))


def test_time_reversal(double_bump_1d):
    fwd = integrate_flow(double_bump_1d, 0.3, 0.9, (0.0, 25.0), tol=1e-11)
    back = integrate_flow(
        double_bump_1d, fwd.z[-1], fwd.zeta[-1], (0.0, -25.0), tol=1e-11
    )
    assert abs(back.z[-1] - 0.3) <= 1e-6
    assert abs(back.zeta[-1] - 0.9) <= 1e-6


@pytest.mark.parametrize("preset", ["longrange_pow", "double_bump", "well"])
def test_backward_flow_is_forward_flow_of_mirror(preset):
    """exp(-t H_p)(z, zeta) is exp(t H_p)(z, -zeta) with zeta negated, bit
    for bit on the RK4 samples (the verdicts' backward flows rely on it)."""
    model = geo.preset_model(preset)
    z, zeta = flow.shell_slab_samples(model, 40, 10.0)
    tf, zf, cf = flow.batched_flow(model, z, -zeta, 0.0, 30.0, 0.02,
                                   store_stride=3)
    tb, zb, cb = flow.batched_flow(model, z, zeta, 0.0, -30.0, 0.02,
                                   store_stride=3)
    assert np.array_equal(tf, -tb)
    assert np.array_equal(zf, zb)
    assert np.array_equal(cf, -cb)


def test_classify_free_escapes(free_1d):
    res = flow.classify_point(free_1d, 0.0, 1.0, T_max=100.0)
    assert res.escaped_both.tolist() == [True]
    assert res.escape_time_fwd[0] == pytest.approx(20.0, rel=1e-3)
    assert res.escape_time_bwd[0] == pytest.approx(20.0, rel=1e-3)


def test_classify_double_bump_interior(double_bump_1d):
    res = flow.classify_point(double_bump_1d, 0.0, 1.0, T_max=200.0)
    assert np.isnan(res.escape_time_fwd[0])
    assert np.isnan(res.escape_time_bwd[0])
    assert not res.escaped_both[0]


def test_classify_longrange_outgoing():
    model = geo.preset_model("longrange_pow", amplitude=1.0)
    v5 = model.potential.value(np.array([5.0]))[0]
    zeta = np.sqrt(1.0 - v5)
    res = flow.classify_point(model, 5.0, zeta, T_max=120.0)
    assert np.isfinite(res.escape_time_fwd[0])


def test_classify_batch_matches_single_points(double_bump_1d):
    """A batch classifies each row as it would alone (retiring rows early
    cannot change the others)."""
    z = np.array([0.0, 0.5, 5.0, -7.0])
    zeta = np.array([1.0, 0.9, -1.0, 1.0])
    batch = flow.classify_point(double_bump_1d, z, zeta, T_max=80.0)
    for i in range(z.size):
        one = flow.classify_point(double_bump_1d, z[i], zeta[i], T_max=80.0)
        for name in ("escape_time_fwd", "escape_time_bwd", "energy_drift"):
            np.testing.assert_array_equal(getattr(one, name),
                                          getattr(batch, name)[i:i + 1])


@pytest.fixture(scope="module")
def double_bump_scan(double_bump_1d):
    return flow.nontrapping_scan(double_bump_1d, n_samples=300, T_max=150.0)


def _witness_zs(verdict):
    return [z for z, _ in verdict.trapped_witnesses]


def test_classify_verdict_stable_under_step_halving(double_bump_1d,
                                                    double_bump_scan,
                                                    monkeypatch):
    """Halving the RK4 step leaves the double_bump witness set unchanged."""
    monkeypatch.setattr(flow, "CLASSIFY_DT", flow.CLASSIFY_DT / 2)
    half = flow.nontrapping_scan(double_bump_1d, n_samples=300, T_max=150.0)
    assert _witness_zs(half) == _witness_zs(double_bump_scan)
    assert len(_witness_zs(half)) == 16


@pytest.mark.parametrize("preset, z, zeta", [
    ("well", 30.9375, 0.98903453),
    ("double_bump", 28.90625, -0.9591806059560679),
])
def test_classify_former_false_witnesses_escape(preset, z, zeta):
    """Points an adaptive integrator without a step cap reported as
    trapped: both ends escape, with a small energy drift."""
    model = geo.preset_model(preset)
    res = flow.classify_point(model, z, zeta, T_max=150.0)
    assert res.escaped_both.tolist() == [True]
    p0 = geo.symbol_p(model, [z], [zeta])[0]
    assert res.energy_drift[0] <= 1e-5 * (1 + abs(p0))


def test_classify_rejects_drifting_escape(monkeypatch):
    """An escaped verdict whose energy drifts past the bound raises."""
    monkeypatch.setattr(flow, "_DRIFT_BOUND", 0.0)
    model = geo.preset_model("longrange_pow")
    with pytest.raises(IntegrationError, match="drifted"):
        flow.classify_point(model, 5.0, 0.9, T_max=100.0)


def test_nontrapping_scan_free():
    verdict = flow.nontrapping_scan(geo.preset_model("zero", delta=0.25),
                                    n_samples=1000, T_max=100.0)
    assert verdict.sampled_points > 900
    assert verdict.is_nontrapping_empirical
    assert verdict.window == (0.75, 1.25)


def test_nontrapping_scan_wide_window_free():
    """The window reaches down to lambda2 - delta = 0.1: every free orbit
    escapes, with tau^2 = p >= 0.1 above the escape energy 0.05 (a
    threshold of lambda2/2 held none of the shells below 0.5)."""
    verdict = flow.nontrapping_scan(geo.preset_model("zero", delta=0.9),
                                    n_samples=300, T_max=150.0)
    assert verdict.sampled_points == 300
    assert verdict.trapped_witnesses == []


def test_nontrapping_scan_double_bump(double_bump_1d):
    verdict = flow.nontrapping_scan(double_bump_1d, n_samples=150, T_max=60.0)
    assert not verdict.is_nontrapping_empirical
    # interior well witnesses sit between the bumps
    zs = np.array(_witness_zs(verdict))
    assert np.any(np.abs(zs) < 3.0)


def test_nontrapping_scan_longrange(longrange_1d):
    verdict = flow.nontrapping_scan(longrange_1d, n_samples=200, T_max=150.0)
    assert verdict.is_nontrapping_empirical
    assert verdict.max_energy_drift <= 1e-5


def test_nontrapping_scan_well_has_no_witness(well_1d):
    """Every window orbit of the well escapes (p - V >= 0.9)."""
    verdict = flow.nontrapping_scan(well_1d, n_samples=300, T_max=150.0)
    assert verdict.sampled_points > 0
    assert verdict.trapped_witnesses == []


def test_nontrapping_scan_double_bump_witnesses_between_bumps(double_bump_scan):
    """Only the well between the bumps (|z| < 3) traps."""
    zs = np.array(_witness_zs(double_bump_scan))
    assert zs.size > 0
    assert np.all(np.abs(zs) < 3.0)


def test_escape_radius_is_the_floor_for_every_preset():
    """The shipped models settle well inside the floor radius 40, so their
    verdicts use it."""
    for name in geo.PRESETS:
        assert geo.preset_model(name).escape_radius == 40.0


def test_nontrapping_scan_bumps_past_the_floor():
    """Bumps at +-50 trap the orbits between them: the escape radius moves
    out to the bumps, and the scan finds witnesses there.  At radius 40
    every sample would cross |z| = 40 outward and read as escaped."""
    model = geo.preset_model("double_bump", separation=50.0)
    assert model.escape_radius == 50.0
    verdict = flow.nontrapping_scan(model, n_samples=60, T_max=100.0)
    zs = np.array(_witness_zs(verdict))
    assert zs.size > 0
    assert np.any(np.abs(zs) > 40.0)
    assert np.all(np.abs(zs) < 50.0)


def test_monotone_incoming_radial_ratio(longrange_1d):
    """Backward flow from a small-x window point: tau/x strictly increases
    (numerical form of the radial monotonicity estimate)."""
    z0, zeta0 = 30.0, -np.sqrt(1.0 - 0.5 / np.sqrt(1 + 900.0))
    # outgoing at the right end: backward flow is incoming
    traj = integrate_flow(longrange_1d, z0, zeta0, (0.0, -30.0), tol=1e-10)
    x, tau = geo.scattering_coords(traj.z, traj.zeta)
    vals = tau / x
    assert np.all(np.diff(vals) > 0)


def test_time_to_incoming_free_closed_form(free_1d):
    x0 = 1.0 / 6.0
    T = flow.time_to_incoming(free_1d, [0.0, 20.0], [1.0, 1.0],
                              x0 / 2, 2.0 / 3.0, T_max=100.0)
    assert T.shape == (2,)
    assert 6.0 <= T[0] <= 6.1
    assert 16.0 <= T[1] <= 16.1


def test_time_to_incoming_trapped_fails(double_bump_1d):
    with pytest.raises(IntegrationError):
        flow.time_to_incoming(
            double_bump_1d, 0.0, 1.0, 0.05, 2.0 / 3.0, T_max=60.0
        )


def _halton_scalar(n):
    """Reference: the per-point radical-inverse recurrence, bases 2, 3, 5,
    the first 20 points skipped."""
    out = np.empty((n, 3))
    for d, base in enumerate((2, 3, 5)):
        for i in range(n):
            idx = i + 1 + 20
            f, r = 1.0, 0.0
            while idx > 0:
                f /= base
                r += f * (idx % base)
                idx //= base
            out[i, d] = r
    return out


def test_halton_deterministic():
    a = flow.halton(64)
    b = flow.halton(64)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a < 1))
    # reasonable low-discrepancy spread in 1D projection
    assert abs(np.mean(a[:, 0]) - 0.5) < 0.05
    # the vectorized recurrence is bit-identical to the per-point one
    assert np.array_equal(flow.halton(1000), _halton_scalar(1000))


def test_batched_flow_matches_adaptive(longrange_1d):
    z0 = np.array([2.0, -3.0, 5.0])
    zeta0 = np.array([0.9, 1.0, -0.8])
    ts, zs, cs = flow.batched_flow(longrange_1d, z0, zeta0, 0.0, 8.0, dt=0.01)
    for i in range(3):
        traj = integrate_flow(longrange_1d, z0[i], zeta0[i], (0.0, 8.0), tol=1e-12)
        assert abs(zs[-1, i] - traj.z[-1]) <= 1e-6
        assert abs(cs[-1, i] - traj.zeta[-1]) <= 1e-6


def test_batched_flow_single_step(free_1d):
    """dt = |t1 - t0| takes exactly one RK4 step."""
    ts, zs, cs = flow.batched_flow(free_1d, np.array([1.0]), np.array([0.7]),
                                   0.0, 1e-5, 1e-5)
    assert ts.tolist() == [0.0, 1e-5]
    assert zs[-1, 0] == pytest.approx(1.0 + 2 * 0.7 * 1e-5, rel=1e-12)
    assert cs[-1, 0] == pytest.approx(0.7)


def test_batched_flow_store_stride(longrange_1d):
    """store_stride keeps t0, every stride-th step and the last step, the
    same states as the unstrided run at those steps."""
    z0, zeta0 = np.array([2.0, -3.0]), np.array([0.9, 1.0])
    ts, zs, cs = flow.batched_flow(longrange_1d, z0, zeta0, 0.0, 0.7, 0.1)
    ts3, zs3, cs3 = flow.batched_flow(longrange_1d, z0, zeta0, 0.0, 0.7, 0.1,
                                      store_stride=3)
    keep = [0, 3, 6, 7]
    assert zs.shape == cs.shape == (8, 2) and zs3.shape == (4, 2)
    assert np.array_equal(ts3, ts[keep])
    assert np.array_equal(zs3, zs[keep]) and np.array_equal(cs3, cs[keep])


def _two_array_flow(model, z0, zeta0, t0, t1, dt, store_stride=1,
                    until=None):
    """The RK4 flow with z and zeta stepped as two arrays by a separate
    step function, each step's arrays freshly allocated: the bit-identity
    oracle of batched_flow's in-place step."""
    def rk4_step(z, zeta, dt):
        k1z, k1c = geo.hamilton_field(model, z, zeta)
        k2z, k2c = geo.hamilton_field(model, z + 0.5 * dt * k1z,
                                      zeta + 0.5 * dt * k1c)
        k3z, k3c = geo.hamilton_field(model, z + 0.5 * dt * k2z,
                                      zeta + 0.5 * dt * k2c)
        k4z, k4c = geo.hamilton_field(model, z + dt * k3z, zeta + dt * k3c)
        return (z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z),
                zeta + dt / 6.0 * (k1c + 2 * k2c + 2 * k3c + k4c))

    span = t1 - t0
    n_steps = max(1, int(np.ceil(abs(span) / dt)))
    step = span / n_steps
    z, zeta = np.asarray(z0, dtype=float), np.asarray(zeta0, dtype=float)
    ts, zs, cs = [t0], [z], [zeta]
    for k in range(1, n_steps + 1):
        z, zeta = rk4_step(z, zeta, step)
        if k % store_stride == 0 or k == n_steps:
            ts.append(t0 + k * step), zs.append(z), cs.append(zeta)
            if until is not None and until(z, zeta):
                break
    return np.array(ts), np.array(zs), np.array(cs)


@pytest.mark.parametrize("width", [1, 6, 810])
@pytest.mark.parametrize("stride", [1, 2, 5])
@pytest.mark.parametrize("t0, t1", [(0.0, 3.1), (0.5, -2.6)])
@pytest.mark.parametrize("stop", [False, True])
def test_batched_flow_matches_two_array_rk4(request, width, stride, t0, t1,
                                            stop):
    """The in-place step, its field evaluated into the stage buffers,
    reproduces the two-array RK4 on geo.hamilton_field exactly for every
    potential, forward and backward, at every store stride, and with an
    until that ends the flow mid-run."""
    rng = np.random.default_rng(width)
    z0 = rng.uniform(-30.0, 30.0, width)
    zeta0 = rng.choice([-1.0, 1.0], width) * rng.uniform(0.6, 1.4, width)
    for name in ("free_1d", "longrange_1d", "double_bump_1d", "well_1d"):
        args = (request.getfixturevalue(name), z0, zeta0, t0, t1, 0.05,
                stride)
        until = None
        if stop:
            _, zs_full, _ = _two_array_flow(*args)
            z_mid = np.max(zs_full[zs_full.shape[0] // 2])
            until = lambda z, zeta: bool(np.max(z) >= z_mid)  # noqa: E731
        want = _two_array_flow(*args, until=until)
        got = flow.batched_flow(*args, until=until)
        if stop:
            assert 1 < want[0].size < zs_full.shape[0], name
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w), name


def test_escaped_radius_monotone(longrange_1d):
    """Once escaped (r > 40 with outward speed), r stays monotone."""
    traj = integrate_flow(longrange_1d, 1.0, 1.0, (0.0, 60.0))
    r = traj.radius()
    out = np.flatnonzero(r > 40.0)
    assert out.size > 3
    assert np.all(np.diff(r[out[0]:]) > 0)


def test_classify_memory_bounded_by_sample_blocks():
    """The escape test and the drift run on _SAMPLE_BLOCK samples at a time:
    a segment of 500 points and their mirrors (801 samples of 1000 columns)
    peaks below its two sample arrays plus 16 block-sized temporaries
    (tracemalloc).  Evaluating the whole segment at once peaked at 50 MB."""
    model = geo.preset_model("zero")
    rng = np.random.default_rng(0)
    z = rng.uniform(-40.0, 40.0, 500)
    zeta = rng.choice([-1.0, 1.0], 500)
    samples = int(round(flow._SEGMENT / flow.CLASSIFY_DT)) + 1
    budget = 8 * 1000 * (2 * samples + 16 * flow._SAMPLE_BLOCK)
    tracemalloc.start()
    try:
        flow.classify_point(model, z, zeta, T_max=flow._SEGMENT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget
