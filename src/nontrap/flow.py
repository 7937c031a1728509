"""Hamiltonian flow: integration, escape classification, non-trapping scans.

Trajectories are integrated with an adaptive embedded Runge-Kutta scheme
(scipy's DOP853); there is no stiffness in these Hamiltonians and energy
drift is monitored directly instead of enforcing symplecticity.  A point is
certified as escaped once |z| > R_esc with d|z|/dt > 0 and tau^2 at least
half the shell energy; for small x the radial momentum ratio tau/x is
monotone along the flow, so these conditions persist and the verdict is a
certificate rather than a guess.  Everything undetermined by T_max is
reported honestly as such.

A fixed-step batched RK4 integrator is provided for the escape-function
machinery, which needs many short trajectories evaluated simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from nontrap import geometry as geo
from nontrap.errors import ConfigurationError, IntegrationError

ESCAPED = "escaped"
UNDETERMINED = "undetermined-at-Tmax"


# ---------------------------------------------------------------------------
# deterministic low-discrepancy sampling
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def halton(n: int, dims: int, skip: int = 20) -> np.ndarray:
    """First n points of the Halton sequence in [0,1)^dims (deterministic,
    no seed dependence).  A short prefix is skipped to avoid the aligned
    initial block."""
    if dims > len(_PRIMES):
        raise ConfigurationError(f"halton supports up to {len(_PRIMES)} dims")
    out = np.empty((n, dims))
    for d in range(dims):
        base = _PRIMES[d]
        for i in range(n):
            idx = i + 1 + skip
            f, r = 1.0, 0.0
            while idx > 0:
                f /= base
                r += f * (idx % base)
                idx //= base
            out[i, d] = r
    return out


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Time-ordered samples of one integral curve with drift diagnostics."""

    t: np.ndarray
    Z: np.ndarray        # (nt, 1)
    ZETA: np.ndarray     # (nt, 1)
    p0: float
    energy_drift: float
    success: bool
    message: str = ""

    def radius(self):
        return np.sqrt(np.sum(self.Z**2, axis=-1))

    def table(self, model) -> Tuple[List[str], np.ndarray]:
        """CSV dump columns: t, z1, zeta1, x, tau, p."""
        x, _, tau, _ = geo.scattering_coords(self.Z, self.ZETA)
        p = geo.symbol_p(model, self.Z, self.ZETA)
        header = ["t", "z1", "zeta1", "x", "tau", "p"]
        cols = [self.t, self.Z[:, 0], self.ZETA[:, 0], x, tau, p]
        return header, np.stack(cols, axis=-1)


def _rhs(model):
    def fun(t, y):
        z = y[:1][None, :]
        zeta = y[1:][None, :]
        dz, dzeta = geo.hamilton_field(model, z, zeta)
        return np.concatenate([dz[0], dzeta[0]])

    return fun


def integrate_flow(model, z0, zeta0, t_span, tol=1e-10, max_samples=4000) -> Trajectory:
    """Integrate the Hamilton flow over t_span (either time direction).

    Samples are returned on a uniform grid fine enough for drift and
    monotonicity checks; energy drift is |p(t) - p(0)| over the samples.
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    zeta0 = np.atleast_1d(np.asarray(zeta0, dtype=float))
    t0, t1 = float(t_span[0]), float(t_span[1])
    p0 = geo.symbol_p(model, z0, zeta0)
    nt = min(max_samples, max(200, int(abs(t1 - t0) / 0.25) + 2))
    t_eval = np.linspace(t0, t1, nt)
    sol = solve_ivp(
        _rhs(model),
        (t0, t1),
        np.concatenate([z0, zeta0]),
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=t_eval,
        dense_output=False,
    )
    Z = sol.y[:1].T
    ZETA = sol.y[1:].T
    p = geo.symbol_p(model, Z, ZETA)
    drift = float(np.max(np.abs(p - p0))) if len(p) else math.inf
    traj = Trajectory(
        t=sol.t, Z=Z, ZETA=ZETA, p0=float(p0), energy_drift=drift,
        success=sol.success, message=sol.message or "",
    )
    if not sol.success:
        raise IntegrationError(
            f"flow integration failed: {sol.message}", partial=traj
        )
    return traj


# ---------------------------------------------------------------------------
# escape classification
# ---------------------------------------------------------------------------

@dataclass
class ClassifyResult:
    verdict_fwd: str
    verdict_bwd: str
    escape_time_fwd: Optional[float]
    escape_time_bwd: Optional[float]

    @property
    def escaped_both(self):
        return self.verdict_fwd == ESCAPED and self.verdict_bwd == ESCAPED


def _classify_one_direction(model, z0, zeta0, T_max, R_esc, tol):
    """Escape certificate in one time direction (T_max < 0 = backward).

    A crossing of the check radius without the outward or tau^2 condition
    is not yet an escape; the check radius is enlarged and integration
    resumes."""
    lam2 = model.lambda2
    fun = _rhs(model)

    t_lo = 0.0
    state = np.concatenate(
        [np.atleast_1d(np.asarray(z0, float)), np.atleast_1d(np.asarray(zeta0, float))]
    )
    R_check = R_esc
    for _ in range(8):

        def crossing(t, y, R=R_check):
            return float(np.sqrt(np.sum(y[:1] ** 2)) - R)

        crossing.terminal = True
        crossing.direction = 1.0  # r growing along the integration

        sol = solve_ivp(
            fun, (t_lo, T_max), state, method="DOP853", rtol=tol, atol=tol,
            events=crossing,
        )
        if not sol.success:
            raise IntegrationError(f"classification integration failed: {sol.message}")
        if sol.t_events[0].size == 0:
            return UNDETERMINED, None
        t_ev = float(sol.t_events[0][0])
        y_ev = sol.y_events[0][0]
        z, zeta = y_ev[:1], y_ev[1:]
        dz, _ = geo.hamilton_field(model, z[None, :], zeta[None, :])
        r = float(np.sqrt(np.sum(z**2)))
        rdot = float(np.sum(z * dz[0]) / r)
        outward = rdot > 0 if T_max > 0 else rdot < 0
        tau = geo.scattering_coords(z, zeta)[2]
        if outward and tau**2 >= 0.5 * lam2:
            return ESCAPED, abs(t_ev)
        t_lo, state = t_ev, y_ev
        R_check *= 1.4
        if abs(T_max - t_lo) < 1e-9:
            return UNDETERMINED, None
    return UNDETERMINED, None


def classify_point(model, z0, zeta0, T_max=500.0, R_esc=40.0, tol=1e-8) -> ClassifyResult:
    """Forward/backward escape verdicts for one phase point.

    'escaped' requires |z| > R_esc, outward radial speed and tau^2 at least
    lambda^2/2 at the crossing; anything else is 'undetermined-at-Tmax'.
    """
    vf, tf = _classify_one_direction(model, z0, zeta0, T_max, R_esc, tol)
    vb, tb = _classify_one_direction(model, z0, zeta0, -T_max, R_esc, tol)
    return ClassifyResult(vf, vb, tf, tb)


# ---------------------------------------------------------------------------
# non-trapping scan
# ---------------------------------------------------------------------------

@dataclass
class NonTrappingVerdict:
    window: Tuple[float, float]
    sampled_points: int
    trapped_witnesses: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def is_nontrapping_empirical(self):
        return len(self.trapped_witnesses) == 0


def shell_slab_samples(model, n_samples, R_max, lambda2=None, delta=None):
    """Deterministic Halton sample of {p in window, |z| <= R_max}.

    Returns (Z, ZETA) arrays; points where the requested energy is below the
    potential (classically forbidden) are dropped.
    """
    lam2 = model.lambda2 if lambda2 is None else lambda2
    dlt = model.delta if delta is None else delta
    u = halton(n_samples, 3)
    Z = ((2.0 * u[:, 0] - 1.0) * R_max)[:, None]
    direction = np.where(u[:, 2] >= 0.5, 1.0, -1.0)[:, None]
    p = lam2 - dlt + 2.0 * dlt * u[:, 1]
    kappa, keep = geo.shell_momentum(model, Z, p)
    ZETA = kappa[:, None] * direction
    return Z[keep], ZETA[keep]


def nontrapping_scan(model, n_samples=1000, R_max=None, T_max=150.0, R_esc=40.0,
                     tol=1e-8, lambda2=None, delta=None) -> NonTrappingVerdict:
    """Classify a deterministic sample of the energy-shell slab.

    Outside the compact scan region escape is automatic (tau/x is monotone
    for small x), so the sample covers |z| <= R_max only.
    """
    if R_max is None:
        R_max = R_esc
    if R_max > R_esc:
        raise ConfigurationError("scan region must satisfy R_max <= R_esc")
    lam2 = model.lambda2 if lambda2 is None else lambda2
    dlt = model.delta if delta is None else delta
    Z, ZETA = shell_slab_samples(model, n_samples, R_max, lam2, dlt)
    witnesses = []
    for i in range(Z.shape[0]):
        res = classify_point(model, Z[i], ZETA[i], T_max=T_max, R_esc=R_esc, tol=tol)
        if not res.escaped_both:
            witnesses.append((Z[i].copy(), ZETA[i].copy()))
    return NonTrappingVerdict(
        window=(lam2 - dlt, lam2 + dlt),
        sampled_points=int(Z.shape[0]),
        trapped_witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# first incoming time (the tube construction's T_xi)
# ---------------------------------------------------------------------------

def time_to_incoming(model, z0, zeta0, x_target, tau_target, T_max=500.0,
                     dt_sample=0.05, margin=2.0, tol=1e-10) -> float:
    """Smallest sampled T with tau(exp(-T H_p) xi) > tau_target and
    x < x_target, certified to persist over [T, T + margin].

    Raises IntegrationError when no such time exists by T_max (trapping, or
    T_max too small)."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    zeta0 = np.atleast_1d(np.asarray(zeta0, dtype=float))
    fwd = _rhs(model)

    def bwd(t, y):  # state(T) = exp(-T H_p) xi
        return -fwd(t, y)

    state = np.concatenate([z0, zeta0])
    chunk = max(8.0 * margin, 16.0)
    t_done = 0.0
    ts_all, ok_all = [], []
    while t_done < T_max + margin:
        t_next = min(t_done + chunk, T_max + margin)
        n_pts = max(1, int(round((t_next - t_done) / dt_sample)))
        t_eval = np.linspace(t_done, t_next, n_pts + 1)
        sol = solve_ivp(
            bwd, (t_done, t_next), state,
            method="DOP853", rtol=tol, atol=tol, t_eval=t_eval,
        )
        if not sol.success:
            raise IntegrationError(f"backward flow failed: {sol.message}")
        Z = sol.y[:1].T
        ZETA = sol.y[1:].T
        x, _, tau, _ = geo.scattering_coords(Z, ZETA)
        ok = (tau > tau_target) & (x < x_target)
        ts_all.append(sol.t)
        ok_all.append(ok)
        t_done, state = t_next, sol.y[:, -1]
        ts = np.concatenate(ts_all)
        oks = np.concatenate(ok_all)
        for idx in np.flatnonzero(oks):
            T = ts[idx]
            if T > T_max:
                break
            if ts[-1] < T + margin:
                break  # need more integration to certify persistence
            window = (ts >= T) & (ts <= T + margin)
            if np.all(oks[window]):
                return float(T)
    raise IntegrationError(
        "incoming conditions never certified by T_max "
        f"(T_max={T_max}); the model may be trapping or T_max too small"
    )


# ---------------------------------------------------------------------------
# batched fixed-step integration (escape machinery fast path)
# ---------------------------------------------------------------------------

def rk4_step(model, Z, ZETA, dt):
    k1z, k1c = geo.hamilton_field(model, Z, ZETA)
    k2z, k2c = geo.hamilton_field(model, Z + 0.5 * dt * k1z, ZETA + 0.5 * dt * k1c)
    k3z, k3c = geo.hamilton_field(model, Z + 0.5 * dt * k2z, ZETA + 0.5 * dt * k2c)
    k4z, k4c = geo.hamilton_field(model, Z + dt * k3z, ZETA + dt * k3c)
    Zn = Z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
    Cn = ZETA + dt / 6.0 * (k1c + 2 * k2c + 2 * k3c + k4c)
    return Zn, Cn


def batched_flow(model, Z0, ZETA0, t0, t1, dt, store_stride=1):
    """Fixed-step RK4 flow of a batch of points from t0 to t1.

    Returns (ts, Zs, ZETAs) with Zs of shape (n_stored, m, 1); index 0 holds
    the initial state at t0.  dt carries the sign of (t1 - t0) internally.
    """
    span = t1 - t0
    n_steps = max(1, int(math.ceil(abs(span) / dt)))
    step = span / n_steps
    Z = np.array(Z0, dtype=float, copy=True)
    ZETA = np.array(ZETA0, dtype=float, copy=True)
    ts = [t0]
    Zs = [Z.copy()]
    Cs = [ZETA.copy()]
    for k in range(1, n_steps + 1):
        Z, ZETA = rk4_step(model, Z, ZETA, step)
        if k % store_stride == 0 or k == n_steps:
            ts.append(t0 + k * step)
            Zs.append(Z.copy())
            Cs.append(ZETA.copy())
    return np.array(ts), np.stack(Zs), np.stack(Cs)


def flow_displace(model, Z, ZETA, s, n_steps=1):
    """exp(s H_p) applied to a batch by n_steps RK4 steps (tiny |s| only)."""
    dt = s / n_steps
    for _ in range(n_steps):
        Z, ZETA = rk4_step(model, Z, ZETA, dt)
    return Z, ZETA
