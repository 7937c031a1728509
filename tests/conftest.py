from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nontrap import escape
from nontrap import flow
from nontrap import geometry
from nontrap.errors import IntegrationError

_TRAJ_MAX_SAMPLES = 4000  # cap on integrate_flow's uniform sample grid


@pytest.fixture(scope="session")
def free_1d():
    return geometry.preset_model("zero")


@pytest.fixture(scope="session")
def longrange_1d():
    return geometry.preset_model("longrange_pow")


@pytest.fixture(scope="session")
def double_bump_1d():
    return geometry.preset_model("double_bump")


@pytest.fixture(scope="session")
def well_1d():
    return geometry.preset_model("well")


def _scan(model):
    return geometry.trapping_verdict(model)


@pytest.fixture(scope="session")
def verdict_free(free_1d):
    return _scan(free_1d)


@pytest.fixture(scope="session")
def escape_free(free_1d, verdict_free):
    return escape.assemble_escape(free_1d, 0.2, verdict_free)


@pytest.fixture(scope="session")
def escape_longrange(longrange_1d):
    return escape.assemble_escape(longrange_1d, 0.2, _scan(longrange_1d))


def shell_sample_1d(model, n, rmin=1.5, rmax=30.0, rng_seed=0):
    """Deterministic sample of the energy-window shell, both ends/branches."""
    rng = np.random.default_rng(rng_seed)
    r = rng.uniform(rmin, rmax, size=n)
    sign = rng.choice([-1.0, 1.0], size=n)
    z = r * sign
    lo, hi = model.lambda2 - model.delta, model.lambda2 + model.delta
    p = rng.uniform(lo, hi, size=n)
    v = model.potential.value(z)
    keep = p - v > 0
    zeta = rng.choice([-1.0, 1.0], size=n) * np.sqrt(np.clip(p - v, 0, None))
    return z[keep], zeta[keep]


def apply_separable(fz, gzeta, q, u):
    """Op(f(z) g(zeta)) u = f . ifft(g . fft(u)) on a GridQuantization q:
    the separable fast path, an oracle for the dense quantization."""
    return fz(q.z) * np.fft.ifft(np.asarray(gzeta(q.zeta)) * np.fft.fft(u))


@dataclass
class Trajectory:
    """Time-ordered samples of one integral curve with drift diagnostics."""

    t: np.ndarray
    z: np.ndarray        # (nt,)
    zeta: np.ndarray     # (nt,)
    p0: float
    energy_drift: float

    def radius(self):
        return np.abs(self.z)


def _rhs(model):
    def fun(t, y):
        dz, dzeta = geometry.hamilton_field(model, y[:1], y[1:])
        return np.concatenate([dz, dzeta])

    return fun


def integrate_flow(model, z0, zeta0, t_span, tol=1e-10) -> Trajectory:
    """Reference trajectory: scipy's adaptive DOP853 from the point
    (z0, zeta0) over t_span (either time direction), an oracle for the
    package's fixed-step RK4.

    Samples are returned on a uniform grid fine enough for drift and
    monotonicity checks; energy drift is |p(t) - p(0)| over the samples.
    """
    y0 = np.array([z0, zeta0], dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    p0 = geometry.symbol_p(model, y0[:1], y0[1:])[0]
    nt = min(_TRAJ_MAX_SAMPLES, max(200, int(abs(t1 - t0) / 0.25) + 2))
    sol = solve_ivp(_rhs(model), (t0, t1), y0, method="DOP853", rtol=tol,
                    atol=tol, t_eval=np.linspace(t0, t1, nt))
    if not sol.success:
        raise IntegrationError(f"flow integration failed: {sol.message}")
    z, zeta = sol.y
    p = geometry.symbol_p(model, z, zeta)
    return Trajectory(t=sol.t, z=z, zeta=zeta, p0=float(p0),
                      energy_drift=float(np.max(np.abs(p - p0))))


def hpq_finite_difference(esc, z, zeta, delta=1e-5):
    """Flow finite difference of q/psi along H_p (equals H_p q / psi since
    psi(p) is flow-invariant); the oracle for the analytic derivative."""
    # one RK4 step of size +-delta each
    _, zp, cp = flow.batched_flow(esc.model, z, zeta, 0.0, delta, delta)
    _, zm, cm = flow.batched_flow(esc.model, z, zeta, 0.0, -delta, delta)
    alone = np.arange(zp[-1].size)
    qp, _ = esc.combine(esc.pieces(zp[-1], cp[-1], alone))
    qm, _ = esc.combine(esc.pieces(zm[-1], cm[-1], alone))
    return (qp - qm) / (2.0 * delta)
