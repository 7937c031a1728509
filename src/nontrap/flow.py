"""Hamiltonian flow: integration, escape classification, non-trapping scans.

Escape verdicts and the tubes' incoming times come from one integrator,
`batched_flow` (fixed-step RK4 over a batch), run forward in segments so
that decided points retire: as p(z, -zeta) = p(z, zeta), backward verdicts
and incoming times are forward flows of (z, -zeta), bit for bit.  A point
is certified as escaped at the first sample with |z| > R_esc, d|z|/dt > 0
and tau^2 at least half the shell energy; for small x the radial momentum
ratio tau/x is monotone along the flow, so these conditions persist and the
verdict is a certificate rather than a guess.
An escaped verdict whose energy drift max |p(t) - p(0)| exceeds
1e-5 (1 + |p0|) raises instead of being accepted.  A point left
undetermined by T_max (no escape seen in one direction) is not told apart
from a trapped one: nontrapping_scan counts it among the trapped
witnesses, so a slow or low-energy orbit can read as trapping.

A batch of phase points is two equal-length 1-D arrays z, zeta; a stored
batch trajectory is two (n_stored, m) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from nontrap import geometry as geo
from nontrap.errors import IntegrationError

CLASSIFY_DT = 0.02      # RK4 step of the verdicts (as in the tube certificate)
R_ESCAPE = 40.0         # default escape radius of the verdicts
_SEGMENT = 16.0         # flow time per batched_flow call between retirements
_CLASSIFY_CHUNK = 1000  # points flowed together (bounds the stored samples)
_DRIFT_BOUND = 1e-5     # relative energy drift that rejects an escaped verdict
_INCOMING_DT = 0.05     # RK4 step (and sample spacing) of time_to_incoming
_INCOMING_MARGIN = 2.0  # flow time over which the incoming conditions persist


# ---------------------------------------------------------------------------
# deterministic low-discrepancy sampling
# ---------------------------------------------------------------------------

_HALTON_BASES = (2, 3, 5)
_HALTON_SKIP = 20  # prefix skipped to avoid the aligned initial block


def halton(n: int) -> np.ndarray:
    """First n points of the 3-dimensional Halton sequence in [0,1)^3
    (deterministic, no seed dependence), all points at once per base."""
    out = np.empty((n, len(_HALTON_BASES)))
    for d, base in enumerate(_HALTON_BASES):
        idx = np.arange(n) + 1 + _HALTON_SKIP
        f, r = 1.0, np.zeros(n)
        while idx.any():
            f /= base
            r += f * (idx % base)
            idx //= base
        out[:, d] = r
    return out


# ---------------------------------------------------------------------------
# batched fixed-step integration
# ---------------------------------------------------------------------------

def rk4_step(model, z, zeta, dt):
    k1z, k1c = geo.hamilton_field(model, z, zeta)
    k2z, k2c = geo.hamilton_field(model, z + 0.5 * dt * k1z, zeta + 0.5 * dt * k1c)
    k3z, k3c = geo.hamilton_field(model, z + 0.5 * dt * k2z, zeta + 0.5 * dt * k2c)
    k4z, k4c = geo.hamilton_field(model, z + dt * k3z, zeta + dt * k3c)
    zn = z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
    cn = zeta + dt / 6.0 * (k1c + 2 * k2c + 2 * k3c + k4c)
    return zn, cn


def batched_flow(model, z0, zeta0, t0, t1, dt, store_stride=1, until=None):
    """Fixed-step RK4 flow of a batch of points from t0 to t1.

    Returns (ts, zs, zetas) with zs of shape (n_stored, m); index 0 holds
    the initial state at t0, then every store_stride-th step and the last.
    dt carries the sign of (t1 - t0) internally; dt = |t1 - t0| takes
    exactly one step.  With until(z, zeta) given, the flow ends at the
    first stored sample after t0 at which it returns True; the samples up
    to there are those of the full flow.
    """
    span = t1 - t0
    n_steps = max(1, int(math.ceil(abs(span) / dt)))
    step = span / n_steps
    z = np.asarray(z0, dtype=float)
    zeta = np.asarray(zeta0, dtype=float)
    ts = np.empty(1 + n_steps // store_stride + (n_steps % store_stride > 0))
    zs = np.empty((ts.size,) + z.shape)
    cs = np.empty_like(zs)
    ts[0], zs[0], cs[0] = t0, z, zeta
    i = 1
    for k in range(1, n_steps + 1):
        z, zeta = rk4_step(model, z, zeta, step)
        if k % store_stride == 0 or k == n_steps:
            ts[i], zs[i], cs[i] = t0 + k * step, z, zeta
            i += 1
            if until is not None and until(z, zeta):
                break
    return ts[:i], zs[:i], cs[:i]


def _flow_segments(model, z, zeta, t_end, dt, visit):
    """Flow the points (z, zeta) forward from t = 0 to t_end with
    batched_flow, _SEGMENT time units per call.  visit(rows, ts, zs, cs)
    gets the live points' indices and the segment's new samples (the first
    segment's include t = 0) and returns a mask of decided points, which
    retire."""
    rows = np.arange(z.size)
    done, first = 0.0, 0
    while rows.size and done < t_end:
        nxt = min(done + _SEGMENT, t_end)
        ts, zs, cs = batched_flow(model, z, zeta, done, nxt, dt)
        keep = ~visit(rows, ts[first:], zs[first:], cs[first:])
        rows, z, zeta = rows[keep], zs[-1, keep], cs[-1, keep]
        done, first = nxt, 1


# ---------------------------------------------------------------------------
# escape classification
# ---------------------------------------------------------------------------

@dataclass
class ClassifyResult:
    """Per-point verdicts: escape times are NaN where undetermined at T_max;
    energy_drift is max |p(t) - p(0)| over both directions' samples."""

    escape_time_fwd: np.ndarray
    escape_time_bwd: np.ndarray
    energy_drift: np.ndarray

    @property
    def escaped_both(self):
        return np.isfinite(self.escape_time_fwd) & np.isfinite(self.escape_time_bwd)


def escape_certified(model, z, zeta, R_esc):
    """The escape certificate at each point, for the forward flow:
    |z| > R_esc, |z| growing along the flow (z zdot > 0) and
    tau^2 >= lambda^2 / 2.  Once it holds, it holds for the rest of the
    flow (tau/x is monotone for small x), so |z| never falls back to
    R_esc."""
    _, tau = geo.scattering_coords(z, zeta)
    # zdot = 2 zeta, so d|z|/dt has the sign of z zeta
    return ((np.abs(z) > R_esc) & (z * zeta > 0)
            & (tau**2 >= 0.5 * model.lambda2))


def _escape_times(model, z, zeta, T_max, R_esc):
    """Escape times within T_max (NaN if none) forward and, flowing the
    mirrors (z, -zeta) in the same batch, backward; and each point's energy
    drift over both.  An escape that drifted past the bound raises."""
    m = z.size
    zz, cc = np.concatenate([z, z]), np.concatenate([zeta, -zeta])
    p0 = geo.symbol_p(model, zz, cc)
    t_esc, drift = np.full(2 * m, np.nan), np.zeros(2 * m)

    def visit(rows, ts, zs, cs):
        zf, cf = zs.ravel(), cs.ravel()
        escaped = escape_certified(model, zf, cf, R_esc).reshape(zs.shape)
        hit = escaped.any(axis=0)
        t_esc[rows[hit]] = ts[escaped.argmax(axis=0)[hit]]
        dev = np.abs(geo.symbol_p(model, zf, cf).reshape(zs.shape) - p0[rows])
        drift[rows] = np.maximum(drift[rows], dev.max(axis=0))
        return hit

    _flow_segments(model, zz, cc, T_max, CLASSIFY_DT, visit)
    bad = np.flatnonzero(np.isfinite(t_esc)
                         & (drift > _DRIFT_BOUND * (1.0 + np.abs(p0))))
    if bad.size:
        i = bad[0] % m
        raise IntegrationError(
            f"escaped verdict at z={z[i]!r}, zeta={zeta[i]!r} drifted "
            f"{drift[bad[0]]:.3g} in energy; step {CLASSIFY_DT} is too coarse"
        )
    return t_esc.reshape(2, m), np.maximum(drift[:m], drift[m:])


def classify_point(model, z0, zeta0, T_max=500.0,
                   R_esc=R_ESCAPE) -> ClassifyResult:
    """Forward/backward escape verdicts for a batch of points (1-D arrays)
    or one point (scalars): the first sample with |z| > R_esc, outward
    radial speed and tau^2 at least lambda^2/2 gives the escape time |t|.
    IntegrationError when an escaped verdict drifted more than
    1e-5 (1 + |p0|) in energy."""
    z0, zeta0 = np.atleast_1d(z0, zeta0)
    out = np.empty((3, z0.size))  # forward time, backward time, drift
    for c in range(0, z0.size, _CLASSIFY_CHUNK // 2):  # mirrors included
        sl = slice(c, c + _CLASSIFY_CHUNK // 2)
        out[:2, sl], out[2, sl] = _escape_times(model, z0[sl], zeta0[sl],
                                                T_max, R_esc)
    return ClassifyResult(*out)


# ---------------------------------------------------------------------------
# non-trapping scan
# ---------------------------------------------------------------------------

@dataclass
class NonTrappingVerdict:
    window: Tuple[float, float]
    sampled_points: int
    trapped_witnesses: List[Tuple[float, float]] = field(default_factory=list)
    max_energy_drift: float = 0.0

    @property
    def is_nontrapping_empirical(self):
        return len(self.trapped_witnesses) == 0


def shell_slab_samples(model, n_samples, R_max, delta=None):
    """Deterministic Halton sample of {p in window, |z| <= R_max}.

    Returns (z, zeta) arrays; points where the requested energy is below the
    potential (classically forbidden) are dropped.
    """
    lam2 = model.lambda2
    dlt = model.delta if delta is None else delta
    u = halton(n_samples)
    z = (2.0 * u[:, 0] - 1.0) * R_max
    direction = np.where(u[:, 2] >= 0.5, 1.0, -1.0)
    p = lam2 - dlt + 2.0 * dlt * u[:, 1]
    kappa, keep = geo.shell_momentum(model, z, p)
    zeta = kappa * direction
    return z[keep], zeta[keep]


def nontrapping_scan(model, n_samples=1000, T_max=150.0, R_esc=R_ESCAPE,
                     delta=None) -> NonTrappingVerdict:
    """Classify a deterministic sample of the energy-shell slab.

    Outside the compact scan region escape is automatic (tau/x is monotone
    for small x), so the sample covers |z| <= R_esc only.
    """
    lam2 = model.lambda2
    dlt = model.delta if delta is None else delta
    z, zeta = shell_slab_samples(model, n_samples, R_esc, dlt)
    res = classify_point(model, z, zeta, T_max=T_max, R_esc=R_esc)
    return NonTrappingVerdict(
        window=(lam2 - dlt, lam2 + dlt),
        sampled_points=int(z.size),
        trapped_witnesses=[(float(z[i]), float(zeta[i]))
                           for i in np.flatnonzero(~res.escaped_both)],
        max_energy_drift=float(np.max(res.energy_drift, initial=0.0)),
    )


# ---------------------------------------------------------------------------
# first incoming time (the tube construction's T_xi)
# ---------------------------------------------------------------------------

def time_to_incoming(model, z0, zeta0, x_target, tau_target,
                     T_max=500.0) -> np.ndarray:
    """Per point (1-D arrays, or scalars for one point): the smallest
    sampled T <= T_max with tau(exp(-T H_p) xi) > tau_target and
    x < x_target, certified to persist over [T, T + 2].  Samples are the
    RK4 steps of size 0.05 (of (z, -zeta) forward, where tau reads -tau).

    Raises IntegrationError when a point has no such time by T_max
    (trapping, or T_max too small)."""
    z0, zeta0 = np.atleast_1d(z0, zeta0)
    m = z0.size
    T_in = np.full(m, np.nan)
    t_hist, ok_hist = [], []  # all points flow on the same time grid

    def visit(rows, ts, zs, cs):
        x, tau = geo.scattering_coords(zs.ravel(), cs.ravel())
        ok = np.zeros((ts.size, m), dtype=bool)
        ok[:, rows] = ((-tau > tau_target) & (x < x_target)).reshape(ts.size, -1)
        t_hist.append(ts)
        ok_hist.append(ok)
        t = np.concatenate(t_hist)
        oks = np.concatenate(ok_hist)[:, rows]
        # samples [i, end[i]) of the history are the window [t_i, t_i + 2]
        end = np.searchsorted(t, t + _INCOMING_MARGIN, side="right")
        bad = np.pad(np.cumsum(~oks, axis=0), ((1, 0), (0, 0)))
        complete = (t <= T_max) & (t[-1] >= t + _INCOMING_MARGIN)
        good = complete[:, None] & (bad[end] == bad[:-1])
        hit = good.any(axis=0)
        T_in[rows[hit]] = t[good.argmax(axis=0)[hit]]
        return hit

    _flow_segments(model, z0, -zeta0, T_max + _INCOMING_MARGIN, _INCOMING_DT,
                   visit)
    missing = np.flatnonzero(np.isnan(T_in))
    if missing.size:
        i = missing[0]
        raise IntegrationError(
            f"incoming conditions never certified by T_max={T_max} for "
            f"{missing.size} of {m} points (first z={z0[i]!r}, zeta="
            f"{zeta0[i]!r}); the model may be trapping or T_max too small")
    return T_in
