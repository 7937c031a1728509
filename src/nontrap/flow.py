"""Hamiltonian flow: integration, escape classification, non-trapping scans.

Escape verdicts come from one integrator, `batched_flow` (fixed-step RK4
over a batch), run forward in segments so that decided points retire
(flow_segments): as p(z, -zeta) = p(z, zeta), backward verdicts are
forward flows of (z, -zeta), bit for bit.  The sampled non-trapping scan
is the only command-line stage that integrates, and only flow-scan runs
it, as a cross-check: every verdict a command acts on is
geometry.trapping_verdict, from the critical values of V, and the escape
function's q_circ is a quadrature along the orbits' level sets
(escape.dwell_times).  The incoming times (IncomingTimes,
time_to_incoming) serve only the former tube construction in escape,
which no command runs.  A point is certified as escaped at the first
sample with |z| > model.escape_radius, d|z|/dt > 0 and
tau^2 >= model.escape_energy, half the window's lowest energy: past that
radius the potential rises by less than the escape energy along any
outward path, so the orbit never turns back and the verdict is a
certificate rather than a guess.  tau^2 tends to the shell
energy at infinity, so every escaping orbit of the window meets the test.
An escaped verdict whose energy drift max |p(t) - p(0)| exceeds
1e-5 (1 + |p0|) raises instead of being accepted.  A point left
undetermined by T_max (no escape seen in one direction) is not told apart
from a trapped one: nontrapping_scan counts it among the trapped
witnesses, so a slow or low-energy orbit can read as trapping, and a
trapped set of measure zero (a barrier top's separatrix) goes unseen.
The escape test and the drift are evaluated _SAMPLE_BLOCK samples at a
time, so a segment of many points needs no temporaries of its full size.

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

CLASSIFY_DT = 0.02      # RK4 step of the verdicts
_SEGMENT = 16.0         # flow time per batched_flow call between retirements
_CLASSIFY_CHUNK = 1000  # points flowed together (bounds the stored samples)
_DRIFT_BOUND = 1e-5     # relative energy drift that rejects an escaped verdict
_SAMPLE_BLOCK = 64      # samples per evaluation of the escape test and drift
INCOMING_DT = 0.05      # RK4 step (and sample spacing) of the incoming times
                        # and of the tube sweep that reads them
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

def batched_flow(model, z0, zeta0, t0, t1, dt, store_stride=1, until=None):
    """Fixed-step RK4 flow of a batch of points from t0 to t1.

    Returns (ts, zs, zetas) with zs of shape (n_stored, m); index 0 holds
    the initial state at t0, then every store_stride-th step and the last.
    dt carries the sign of (t1 - t0) internally; dt = |t1 - t0| takes
    exactly one step.  With until(z, zeta) given, the flow ends at the
    first stored sample after t0 at which it returns True; the samples up
    to there are those of the full flow.  until gets views of the live
    state, which the next step overwrites.

    The state (z, zeta) is stepped in place as one (2, m) array, and each
    stage's field is evaluated straight into a preallocated buffer with
    geo.hamilton_field's operations (2 zeta, -V'(z)); the batch shape is
    checked once per call.  Every element sees the operations of
    y + (dt/2) k, y + dt k3 and y + (dt/6)(((k1 + 2 k2) + 2 k3) + k4) in
    that order, so a column's samples do not depend on the rest of the
    batch.
    """
    span = t1 - t0
    n_steps = max(1, int(math.ceil(abs(span) / dt)))
    step = span / n_steps
    half, sixth = 0.5 * step, step / 6.0
    y = np.array(geo.as_batch(z0, zeta0))
    k1, k2, k3, k4, yk = (np.empty_like(y) for _ in range(5))
    gradient = model.potential.gradient

    def field(state, out):
        np.multiply(state[1], 2.0, out=out[0])
        np.negative(gradient(state[0]), out=out[1])

    ts = np.empty(1 + n_steps // store_stride + (n_steps % store_stride > 0))
    zs = np.empty((ts.size,) + y[0].shape)
    cs = np.empty_like(zs)
    ts[0], zs[0], cs[0] = t0, y[0], y[1]
    i = 1
    for k in range(1, n_steps + 1):
        field(y, k1)
        np.add(y, np.multiply(k1, half, out=yk), out=yk)
        field(yk, k2)
        np.add(y, np.multiply(k2, half, out=yk), out=yk)
        field(yk, k3)
        np.add(y, np.multiply(k3, step, out=yk), out=yk)
        field(yk, k4)
        np.add(k1, np.multiply(k2, 2, out=k2), out=k1)
        np.add(k1, np.multiply(k3, 2, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        np.add(y, np.multiply(k1, sixth, out=k1), out=y)
        if k % store_stride == 0 or k == n_steps:
            ts[i], zs[i], cs[i] = t0 + k * step, y[0], y[1]
            i += 1
            if until is not None and until(y[0], y[1]):
                break
    return ts[:i], zs[:i], cs[:i]


def flow_segments(model, z, zeta, t_end, dt, visit):
    """Flow the points (z, zeta) forward from t = 0 to t_end (inf: until
    every point is decided) with batched_flow, _SEGMENT time units per
    call.  visit(rows, ts, zs, cs) gets the live points' indices and the
    segment's new samples (the first segment's include t = 0) and returns a
    mask of decided points, which retire.  Only one segment's samples are
    held at a time: visit must copy what it keeps."""
    rows = np.arange(z.size)
    done, first = 0.0, 0
    while rows.size and done < t_end:
        nxt = min(done + _SEGMENT, t_end)
        ts, zs, cs = batched_flow(model, z, zeta, done, nxt, dt)
        keep = ~visit(rows, ts[first:], zs[first:], cs[first:])
        rows, z, zeta = rows[keep], zs[-1, keep], cs[-1, keep]
        del ts, zs, cs  # freed before the next segment is allocated
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
    tau^2 >= model.escape_energy.  For R_esc >= model.escape_radius, once
    it holds |z| grows for the rest of the flow, so it never falls back to
    R_esc."""
    _, tau = geo.scattering_coords(z, zeta)
    # zdot = 2 zeta, so d|z|/dt has the sign of z zeta
    return ((np.abs(z) > R_esc) & (z * zeta > 0)
            & (tau**2 >= model.escape_energy))


def _escape_times(model, z, zeta, T_max):
    """Escape times within T_max (NaN if none) forward and, flowing the
    mirrors (z, -zeta) in the same batch, backward; and each point's energy
    drift over both.  An escape that drifted past the bound raises."""
    m = z.size
    zz, cc = np.concatenate([z, z]), np.concatenate([zeta, -zeta])
    p0 = geo.symbol_p(model, zz, cc)
    t_esc, drift = np.full(2 * m, np.nan), np.zeros(2 * m)
    r_esc = model.escape_radius

    def visit(rows, ts, zs, cs):
        # _SAMPLE_BLOCK samples at a time: the first escape and the drift's
        # maximum combine exactly across blocks
        hit, first = np.zeros(rows.size, dtype=bool), np.zeros(rows.size, int)
        dev = drift[rows]
        for k in range(0, ts.size, _SAMPLE_BLOCK):
            zb, cb = zs[k:k + _SAMPLE_BLOCK], cs[k:k + _SAMPLE_BLOCK]
            zf, cf = zb.ravel(), cb.ravel()
            escaped = escape_certified(model, zf, cf, r_esc).reshape(zb.shape)
            new = escaped.any(axis=0) & ~hit
            first[new] = k + escaped.argmax(axis=0)[new]
            hit |= new
            p = geo.symbol_p(model, zf, cf).reshape(zb.shape)
            np.maximum(dev, np.abs(p - p0[rows]).max(axis=0), out=dev)
        t_esc[rows[hit]] = ts[first[hit]]
        drift[rows] = dev
        return hit

    flow_segments(model, zz, cc, T_max, CLASSIFY_DT, visit)
    bad = np.flatnonzero(np.isfinite(t_esc)
                         & (drift > _DRIFT_BOUND * (1.0 + np.abs(p0))))
    if bad.size:
        i = bad[0] % m
        raise IntegrationError(
            f"escaped verdict at z={float(z[i])!r}, zeta={float(zeta[i])!r} "
            f"drifted {drift[bad[0]]:.3g} in energy; step {CLASSIFY_DT} is "
            "too coarse"
        )
    return t_esc.reshape(2, m), np.maximum(drift[:m], drift[m:])


def classify_point(model, z0, zeta0, T_max=500.0) -> ClassifyResult:
    """Forward/backward escape verdicts for a batch of points (1-D arrays)
    or one point (scalars): the first sample with |z| > model.escape_radius,
    outward radial speed and tau^2 >= model.escape_energy gives the escape
    time |t|.
    IntegrationError when an escaped verdict drifted more than
    1e-5 (1 + |p0|) in energy."""
    z0, zeta0 = np.atleast_1d(z0, zeta0)
    out = np.empty((3, z0.size))  # forward time, backward time, drift
    for c in range(0, z0.size, _CLASSIFY_CHUNK // 2):  # mirrors included
        sl = slice(c, c + _CLASSIFY_CHUNK // 2)
        out[:2, sl], out[2, sl] = _escape_times(model, z0[sl], zeta0[sl],
                                                T_max)
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


def shell_slab_samples(model, n_samples, R_max):
    """Deterministic Halton sample of {p in the model's window, |z| <= R_max}.

    Returns (z, zeta) arrays; points where the requested energy is below the
    potential (classically forbidden) are dropped.
    """
    lam2, dlt = model.lambda2, model.delta
    u = halton(n_samples)
    z = (2.0 * u[:, 0] - 1.0) * R_max
    direction = np.where(u[:, 2] >= 0.5, 1.0, -1.0)
    p = lam2 - dlt + 2.0 * dlt * u[:, 1]
    kappa, keep = geo.shell_momentum(model, z, p)
    zeta = kappa * direction
    return z[keep], zeta[keep]


def nontrapping_scan(model, n_samples=1000, T_max=150.0) -> NonTrappingVerdict:
    """Classify a deterministic sample of the model's energy-shell slab.

    A small enough neighbourhood of infinity is non-trapping: past
    model.escape_radius an outward orbit escapes, so the sample covers
    |z| <= model.escape_radius only.
    """
    z, zeta = shell_slab_samples(model, n_samples, model.escape_radius)
    res = classify_point(model, z, zeta, T_max=T_max)
    return NonTrappingVerdict(
        window=(model.lambda2 - model.delta, model.lambda2 + model.delta),
        sampled_points=int(z.size),
        trapped_witnesses=[(float(z[i]), float(zeta[i]))
                           for i in np.flatnonzero(~res.escaped_both)],
        max_energy_drift=float(np.max(res.energy_drift, initial=0.0)),
    )


# ---------------------------------------------------------------------------
# first incoming time (the tube construction's T_xi)
# ---------------------------------------------------------------------------

class IncomingTimes:
    """The incoming rule, streamed over flow_segments' samples of the
    mirrored flow (z, -zeta) forward at step INCOMING_DT: a point's incoming
    time is the smallest sampled T <= T_max with tau(exp(-T H_p) xi) >
    tau_target and x < x_target (inside), certified to persist over
    [T, T + 2].  T_in holds each point's time (NaN while it has none).

    Only the samples a later segment can still need are kept: those past
    the last sample minus 2, where every earlier start has its whole window
    in hand and, not being a time, never becomes one."""

    def __init__(self, m, x_target, tau_target, T_max):
        self.x_target, self.tau_target = x_target, tau_target
        self.T_max = T_max
        self.T_in = np.full(m, np.nan)
        self._t, self._ok = np.empty(0), np.zeros((0, m), dtype=bool)

    def inside(self, z, zeta):
        """The incoming conditions at mirrored states (z, zeta): 1-D
        arrays, where tau reads -tau."""
        x, tau = geo.scattering_coords(z, zeta)
        return (-tau > self.tau_target) & (x < self.x_target)

    def visit(self, rows, ts, inside):
        """Feed one segment of the points rows, which have no time yet: the
        sample times ts and the (len(ts), len(rows)) flags inside at them.
        Returns the mask of rows decided: timed, or left without a time once
        the samples reach T_max + 2."""
        ok = np.zeros((ts.size, self.T_in.size), dtype=bool)
        ok[:, rows] = inside
        t = np.concatenate([self._t, ts])
        ok = np.concatenate([self._ok, ok])
        oks = ok[:, rows]
        # samples [i, end[i]) of the history are the window [t_i, t_i + 2]
        end = np.searchsorted(t, t + _INCOMING_MARGIN, side="right")
        bad = np.pad(np.cumsum(~oks, axis=0), ((1, 0), (0, 0)))
        complete = (t <= self.T_max) & (t[-1] >= t + _INCOMING_MARGIN)
        good = complete[:, None] & (bad[end] == bad[:-1])
        hit = good.any(axis=0)
        self.T_in[rows[hit]] = t[good.argmax(axis=0)[hit]]
        recent = t + _INCOMING_MARGIN > t[-1]
        self._t, self._ok = t[recent], ok[recent]
        return hit | (t[-1] >= self.T_max + _INCOMING_MARGIN)

    def result(self, z0, zeta0):
        """T_in, once the flow has ended; IntegrationError naming the first
        of the points (z0, zeta0) left without a time."""
        missing = np.flatnonzero(np.isnan(self.T_in))
        if missing.size:
            i = missing[0]
            raise IntegrationError(
                f"incoming conditions never certified by T_max={self.T_max} "
                f"for {missing.size} of {self.T_in.size} points (first "
                f"z={float(z0[i])!r}, zeta={float(zeta0[i])!r}); the model "
                "may be trapping or T_max too small")
        return self.T_in


def time_to_incoming(model, z0, zeta0, x_target, tau_target,
                     T_max=500.0) -> np.ndarray:
    """Per point (1-D arrays, or scalars for one point): the smallest
    sampled T <= T_max with tau(exp(-T H_p) xi) > tau_target and
    x < x_target, certified to persist over [T, T + 2] (IncomingTimes).
    Samples are the RK4 steps of size INCOMING_DT (of (z, -zeta) forward,
    where tau reads -tau).

    Raises IntegrationError when a point has no such time by T_max
    (trapping, or T_max too small)."""
    z0, zeta0 = np.atleast_1d(z0, zeta0)
    incoming = IncomingTimes(z0.size, x_target, tau_target, T_max)

    def visit(rows, ts, zs, cs):
        inside = incoming.inside(zs.ravel(), cs.ravel())
        return incoming.visit(rows, ts, inside.reshape(zs.shape))

    flow_segments(model, z0, -zeta0, T_max + _INCOMING_MARGIN, INCOMING_DT,
                  visit)
    return incoming.result(z0, zeta0)
