"""Model problems and phase-space geometry.

A model problem lives on R^n (n = 1 or 2) viewed as the interior of a
compactified manifold with a sphere at infinity.  The boundary defining
function is

    x(z) = 1 / theta(|z|),   theta(r) = r exactly for r >= 1,

with theta smoothly capped at 1 inside the unit ball (single C-infinity
blend, no seams; only small x ever matters to the constructions built on
top).  Near infinity the phase-space chart is

    (x, y, tau, mu),  tau = -<z, zeta>/|z|,  mu = (z ^ zeta)/|z|,

so that outgoing trajectories (|z| increasing) carry tau < 0 and incoming
ones tau > 0.  For n = 1 the boundary is the two-point set {-1, +1} and
y is the sign of z; mu is absent (stored 0).

The classical symbol is p(z, zeta) = |zeta|_g^2 + V(z); in the chart it
reads tau^2 + g_b(y, mu) + O(x^gamma) with g_b the boundary metric dual.
Potentials carry a certified decay exponent gamma > 0 rather than a
factored representation.

All evaluators are pure and vectorized: positions/momenta are arrays of
shape (m, n) (or (n,) for a single point) and model data is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from nontrap.errors import ConfigurationError
from nontrap.smooth import smoothstep, smoothstep_d

#: radius beyond which the chart is exact (x = 1/r)
CHART_RADIUS = 1.0


# ---------------------------------------------------------------------------
# boundary defining function
# ---------------------------------------------------------------------------

def radius_surrogate(r):
    """theta(r): equals r for r >= 1, smoothly capped at 1 near r = 0."""
    r = np.asarray(r, dtype=float)
    s = smoothstep(2.0 * r - 1.0)  # rises on [1/2, 1]
    return s * r + (1.0 - s)


def radius_surrogate_d(r):
    """d theta / d r."""
    r = np.asarray(r, dtype=float)
    s = smoothstep(2.0 * r - 1.0)
    sd = 2.0 * smoothstep_d(2.0 * r - 1.0)
    return s + sd * (r - 1.0)


def boundary_x(r):
    """x = 1/theta(r) from the radius; x = 1/r exactly for r >= 1."""
    return 1.0 / radius_surrogate(r)


# ---------------------------------------------------------------------------
# boundary metric (n = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryMetric:
    """Metric h(y) dy^2 on the circle at infinity; h = 1 is exactly
    Euclidean.  Only the 'cosine' family h = 1 + a cos(m y) is exposed,
    which keeps everything explicit (no boundary mesh)."""

    amplitude: float = 0.0
    mode: int = 2

    def __post_init__(self):
        if abs(self.amplitude) >= 1.0:
            raise ConfigurationError(
                f"boundary metric amplitude must satisfy |a| < 1, got {self.amplitude}"
            )

    @property
    def is_flat(self):
        return self.amplitude == 0.0

    def h(self, y):
        if self.is_flat:
            return np.ones_like(np.asarray(y, dtype=float))
        return 1.0 + self.amplitude * np.cos(self.mode * np.asarray(y, dtype=float))

    def dh(self, y):
        if self.is_flat:
            return np.zeros_like(np.asarray(y, dtype=float))
        return -self.amplitude * self.mode * np.sin(self.mode * np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

class Potential:
    """Long-range potential V(z) with analytic gradient and a certified
    decay bound |V| <= amplitude * <z>^(-gamma)."""

    name = "base"
    gamma = 1.0
    amplitude = 0.0
    lower_bound = 0.0  # certified inf of V

    def value(self, Z):
        raise NotImplementedError

    def gradient(self, Z):
        raise NotImplementedError

    def params(self):
        return {}


class ZeroPotential(Potential):
    name = "zero"

    def __init__(self, gamma=1.0):
        self.gamma = float(gamma)

    def value(self, Z):
        return np.zeros(Z.shape[0])

    def gradient(self, Z):
        return np.zeros_like(Z)


class PowerLawPotential(Potential):
    """V = A <z>^(-gamma), the long-range power-law preset."""

    name = "longrange_pow"

    def __init__(self, amplitude, gamma):
        if gamma <= 0:
            raise ConfigurationError(f"decay exponent gamma must be > 0, got {gamma}")
        self.amplitude = float(amplitude)
        self.gamma = float(gamma)
        self.lower_bound = min(0.0, self.amplitude)

    def value(self, Z):
        r2 = np.sum(Z**2, axis=-1)
        return self.amplitude * (1.0 + r2) ** (-self.gamma / 2.0)

    def gradient(self, Z):
        r2 = np.sum(Z**2, axis=-1)
        coef = -self.amplitude * self.gamma * (1.0 + r2) ** (-self.gamma / 2.0 - 1.0)
        return coef[:, None] * Z

    def params(self):
        return {"amplitude": self.amplitude, "gamma": self.gamma}


class DoubleBumpPotential(Potential):
    """V = A (exp(-(q-d)^2) + exp(-(q+d)^2)) with q = z in 1D, |z| radially
    in 2D.  Two barriers that trap an interior well at suitable energies."""

    name = "double_bump"
    gamma = 2.0  # gaussian tails beat any power; certificate uses gamma=2

    def __init__(self, amplitude, separation):
        self.amplitude = float(amplitude)
        self.separation = float(separation)
        self.lower_bound = min(0.0, self.amplitude)

    def _q(self, Z):
        if Z.shape[1] == 1:
            return Z[:, 0]
        return np.sqrt(np.sum(Z**2, axis=-1))

    def value(self, Z):
        q = self._q(Z)
        d = self.separation
        return self.amplitude * (np.exp(-((q - d) ** 2)) + np.exp(-((q + d) ** 2)))

    def gradient(self, Z):
        q = self._q(Z)
        d = self.separation
        dVdq = self.amplitude * (
            -2.0 * (q - d) * np.exp(-((q - d) ** 2))
            - 2.0 * (q + d) * np.exp(-((q + d) ** 2))
        )
        if Z.shape[1] == 1:
            return dVdq[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            omega = np.where(q[:, None] > 0, Z / np.maximum(q, 1e-300)[:, None], 0.0)
        return dVdq[:, None] * omega

    def params(self):
        return {"amplitude": self.amplitude, "separation": self.separation}


class WellPotential(Potential):
    """V = -A exp(-|z|^2), an attractive well (p can dip below zero)."""

    name = "well"
    gamma = 2.0

    def __init__(self, amplitude):
        self.amplitude = float(amplitude)
        self.lower_bound = -abs(self.amplitude)

    def value(self, Z):
        return -self.amplitude * np.exp(-np.sum(Z**2, axis=-1))

    def gradient(self, Z):
        v = self.value(Z)  # dV/dz = -2 z V
        return -2.0 * v[:, None] * Z

    def params(self):
        return {"amplitude": self.amplitude}


POTENTIAL_PRESETS = ("zero", "longrange_pow", "double_bump", "well")


def make_potential(name, amplitude=0.0, gamma=1.0, separation=3.0):
    if name == "zero":
        return ZeroPotential(gamma=gamma)
    if name == "longrange_pow":
        return PowerLawPotential(amplitude, gamma)
    if name == "double_bump":
        return DoubleBumpPotential(amplitude, separation)
    if name == "well":
        return WellPotential(amplitude)
    raise ConfigurationError(
        f"unknown potential preset {name!r}; expected one of {POTENTIAL_PRESETS}"
    )


# ---------------------------------------------------------------------------
# model problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelProblem:
    """An asymptotically Euclidean model: dimension, boundary metric,
    long-range potential, center energy lambda^2 and half-window delta.

    ``lam`` is the square root of the spectral parameter; all the cutoff
    thresholds of the escape construction are stated in terms of it.
    """

    dimension: int
    potential: Potential
    lambda2: float
    delta: float
    metric: BoundaryMetric = field(default_factory=BoundaryMetric)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigurationError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.lambda2 <= 0:
            raise ConfigurationError(f"lambda2 must be > 0, got {self.lambda2}")
        if not (0.0 < self.delta < self.lambda2):
            raise ConfigurationError(
                f"delta must lie in (0, lambda2), got delta={self.delta}"
            )
        if self.potential.gamma <= 0:
            raise ConfigurationError("potential decay exponent must be positive")
        if self.dimension == 1 and not self.metric.is_flat:
            raise ConfigurationError("a boundary metric requires dimension 2")

    @property
    def lam(self):
        return math.sqrt(self.lambda2)

    @property
    def gamma(self):
        return self.potential.gamma

    @property
    def energy_window(self):
        return (self.lambda2 - self.delta, self.lambda2 + self.delta)

    def momentum_bound(self, energy):
        """Certified bound on |zeta| over the sublevel set {p <= energy}."""
        return math.sqrt(max(energy - self.potential.lower_bound, 0.0))

    # -- metric interpolation: dual metric = |zeta|^2 + dm(r,y) L^2/r^2 ----

    def metric_defect(self, r, y):
        """dm(r, y) = phi(r) (1/h(y) - 1); identically 0 for r <= 1 and for
        flat boundary metrics, equal to 1/h - 1 for r >= 2."""
        phi = smoothstep(np.asarray(r, dtype=float) - 1.0)
        return phi * (1.0 / self.metric.h(y) - 1.0)

    def g_boundary(self, y, mu):
        """Boundary metric dual g_b(y, mu); mu^2 / h(y) for n = 2, 0 in 1D."""
        if self.dimension == 1:
            return np.zeros_like(np.asarray(mu, dtype=float))
        return np.asarray(mu, dtype=float) ** 2 / self.metric.h(y)


def _as_batch(Z, ZETA, dim):
    Z = np.asarray(Z, dtype=float)
    ZETA = np.asarray(ZETA, dtype=float)
    single = Z.ndim == 1
    Z = np.atleast_2d(Z)
    ZETA = np.atleast_2d(ZETA)
    if Z.shape[1] != dim or ZETA.shape != Z.shape:
        raise ConfigurationError(
            f"phase point batch must have shape (m, {dim}), got {Z.shape}/{ZETA.shape}"
        )
    return Z, ZETA, single


# ---------------------------------------------------------------------------
# symbol and Hamilton field, Euclidean chart
# ---------------------------------------------------------------------------

def symbol_p(model: ModelProblem, Z, ZETA):
    """Classical symbol p = |zeta|_g^2 + V(z), vectorized."""
    Z, ZETA, single = _as_batch(Z, ZETA, model.dimension)
    kin = np.sum(ZETA**2, axis=-1)
    if model.dimension == 2 and not model.metric.is_flat:
        r = np.sqrt(np.sum(Z**2, axis=-1))
        y = np.arctan2(Z[:, 1], Z[:, 0])
        L = Z[:, 0] * ZETA[:, 1] - Z[:, 1] * ZETA[:, 0]
        dm = model.metric_defect(r, y)
        with np.errstate(invalid="ignore", divide="ignore"):
            kin = kin + np.where(dm != 0.0, dm * L**2 / np.maximum(r, 1e-300) ** 2, 0.0)
    p = kin + model.potential.value(Z)
    return float(p[0]) if single else p


def shell_momentum(model: ModelProblem, Z, direction, energy):
    """Momentum length on an energy shell, vectorized over rows.

    For unit directions (rows of shape (m, n)) returns (kappa, allowed)
    with p(z, kappa * direction) = energy on the allowed rows, those where
    energy > V(z); kappa is 0 on the classically forbidden rows.  The
    metric defect enters as |zeta|_g^2 = kappa^2 (1 + dm L_dir^2 / r^2),
    L_dir = z ^ direction."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    direction = np.atleast_2d(np.asarray(direction, dtype=float))
    gap = energy - model.potential.value(Z)
    kin = np.clip(gap, 0.0, None)
    if model.dimension == 2:
        r = np.sqrt(np.sum(Z**2, axis=-1))
        y = np.arctan2(Z[:, 1], Z[:, 0])
        Ldir = Z[:, 0] * direction[:, 1] - Z[:, 1] * direction[:, 0]
        dm = model.metric_defect(r, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            m_eff = 1.0 + np.where(r > 0, dm * Ldir**2 / np.maximum(r, 1e-300) ** 2, 0.0)
        kin = kin / m_eff
    return np.sqrt(kin), gap > 0


def hamilton_field(model: ModelProblem, Z, ZETA):
    """Hamilton vector field of p in the Euclidean chart:
    zdot = dp/dzeta, zetadot = -dp/dz.  Vectorized; returns arrays shaped
    like the inputs."""
    Z, ZETA, single = _as_batch(Z, ZETA, model.dimension)
    dZ = 2.0 * ZETA
    dZETA = -model.potential.gradient(Z)
    if model.dimension == 2 and not model.metric.is_flat:
        r2 = np.sum(Z**2, axis=-1)
        r = np.sqrt(r2)
        y = np.arctan2(Z[:, 1], Z[:, 0])
        L = Z[:, 0] * ZETA[:, 1] - Z[:, 1] * ZETA[:, 0]
        phi = smoothstep(r - 1.0)
        active = phi > 0.0
        if np.any(active):
            ra, ya, La = r[active], y[active], L[active]
            Za, ZAa = Z[active], ZETA[active]
            h = model.metric.h(ya)
            invh_m1 = 1.0 / h - 1.0
            phia = phi[active]
            phid = smoothstep_d(ra - 1.0)
            c = phia * invh_m1 / ra**2
            # dc/dr and dc/dy
            c_r = (phid / ra**2 - 2.0 * phia / ra**3) * invh_m1
            c_y = phia / ra**2 * (-model.metric.dh(ya) / h**2)
            omega = Za / ra[:, None]
            zperp = np.stack([-Za[:, 1], Za[:, 0]], axis=-1)
            zetaswap = np.stack([ZAa[:, 1], -ZAa[:, 0]], axis=-1)
            dZ[active] += (2.0 * c * La)[:, None] * zperp
            grad_c = c_r[:, None] * omega + (c_y / ra**2)[:, None] * zperp
            dp_dz = (La**2)[:, None] * grad_c + (2.0 * c * La)[:, None] * zetaswap
            dZETA[active] -= dp_dz
    if single:
        return dZ[0], dZETA[0]
    return dZ, dZETA


# ---------------------------------------------------------------------------
# scattering chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    """A phase-space point carried in both charts.

    z, zeta are the Euclidean coordinates; x, y, tau, mu the scattering
    ones (exact for |z| >= 1, smooth surrogate inside).  For n = 1, y is
    the sign of z and mu = 0.
    """

    z: np.ndarray
    zeta: np.ndarray
    x: float
    y: float
    tau: float
    mu: float

    @property
    def r(self):
        return float(np.sqrt(np.sum(self.z**2)))

    @classmethod
    def from_euclidean(cls, z, zeta):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        x, y, tau, mu = scattering_coords(z, zeta)
        return cls(z=z, zeta=zeta, x=float(x), y=float(y), tau=float(tau), mu=float(mu))


def scattering_coords(Z, ZETA):
    """(x, y, tau, mu) from Euclidean data; vectorized over (m, n) batches."""
    single = np.asarray(Z).ndim == 1
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    ZETA = np.atleast_2d(np.asarray(ZETA, dtype=float))
    r = np.sqrt(np.sum(Z**2, axis=-1))
    th = radius_surrogate(r)
    x = 1.0 / th
    tau = -np.sum(Z * ZETA, axis=-1) / th
    if Z.shape[1] == 1:
        y = np.where(Z[:, 0] >= 0.0, 1.0, -1.0)
        mu = np.zeros_like(tau)
    else:
        y = np.arctan2(Z[:, 1], Z[:, 0])
        L = Z[:, 0] * ZETA[:, 1] - Z[:, 1] * ZETA[:, 0]
        mu = L / th
    if single:
        return float(x[0]), float(y[0]), float(tau[0]), float(mu[0])
    return x, y, tau, mu


def euclidean_coords(x, y, tau, mu=0.0, dim=1):
    """Inverse chart, valid on the exact region x <= 1 (i.e. r >= 1)."""
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise ConfigurationError(
            f"inverse chart requires 0 < x <= 1 (r >= {CHART_RADIUS}), got x={x}"
        )
    r = 1.0 / x
    if dim == 1:
        sgn = 1.0 if y >= 0 else -1.0
        z = np.array([r * sgn])
        zeta = np.array([-tau * sgn])
        return z, zeta
    omega = np.array([math.cos(y), math.sin(y)])
    eperp = np.array([-math.sin(y), math.cos(y)])
    z = r * omega
    zeta = -tau * omega + mu * eperp
    return z, zeta


def symbol_p_scattering(model: ModelProblem, x, y, tau, mu=0.0):
    """Symbol evaluated from scattering data only:
    tau^2 + g_b(y, mu) + correction(x, y, tau, mu).

    Independent arithmetic path from symbol_p; the two agree wherever the
    chart is exact (this is the chart-consistency certificate)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    mu = np.asarray(mu, dtype=float)
    r = 1.0 / x
    if model.dimension == 1:
        sgn = np.where(y >= 0, 1.0, -1.0)
        Z = (r * sgn)[..., None].reshape(-1, 1)
        V = model.potential.value(Z).reshape(x.shape)
        return tau**2 + V
    omega = np.stack([np.cos(y), np.sin(y)], axis=-1)
    Z = r[..., None] * omega
    V = model.potential.value(Z.reshape(-1, 2)).reshape(x.shape)
    h = model.metric.h(y)
    dm = model.metric_defect(r, y)
    # kinetic part tau^2 + mu^2 (1 + dm) = tau^2 + g_b + mu^2 (1 + dm - 1/h)
    return tau**2 + mu**2 / h + (V + mu**2 * (1.0 + dm - 1.0 / h))


@dataclass(frozen=True)
class ScatteringVelocity:
    """Time derivatives of the scattering coordinates along the flow."""

    xdot: np.ndarray
    ydot: np.ndarray
    taudot: np.ndarray
    mudot: np.ndarray
    x: np.ndarray
    tau: np.ndarray
    mu: np.ndarray


def hamilton_field_scattering(model: ModelProblem, Z, ZETA) -> ScatteringVelocity:
    """Exact chart components (xdot, ydot, taudot, mudot) of the Hamilton
    field, obtained by differentiating the global chart formulas along the
    Euclidean field (no expansion in x is used)."""
    Z, ZETA, single = _as_batch(Z, ZETA, model.dimension)
    dZ, dZETA = hamilton_field(model, Z, ZETA)
    dZ = np.atleast_2d(dZ)
    dZETA = np.atleast_2d(dZETA)
    r = np.sqrt(np.sum(Z**2, axis=-1))
    if np.any(r <= 0):
        raise ConfigurationError("scattering chart derivatives need |z| > 0")
    th = radius_surrogate(r)
    thd = radius_surrogate_d(r)
    omega = Z / r[:, None]
    rdot = np.sum(omega * dZ, axis=-1)
    x = 1.0 / th
    xdot = -thd * rdot / th**2
    q = np.sum(Z * ZETA, axis=-1)
    qdot = np.sum(dZ * ZETA, axis=-1) + np.sum(Z * dZETA, axis=-1)
    tau = -q / th
    taudot = -qdot / th + q * thd * rdot / th**2
    if model.dimension == 1:
        mu = np.zeros_like(tau)
        mudot = np.zeros_like(tau)
        ydot = np.zeros_like(tau)
    else:
        L = Z[:, 0] * ZETA[:, 1] - Z[:, 1] * ZETA[:, 0]
        Ldot = (
            dZ[:, 0] * ZETA[:, 1]
            - dZ[:, 1] * ZETA[:, 0]
            + Z[:, 0] * dZETA[:, 1]
            - Z[:, 1] * dZETA[:, 0]
        )
        mu = L / th
        mudot = Ldot / th - L * thd * rdot / th**2
        ydot = (Z[:, 0] * dZ[:, 1] - Z[:, 1] * dZ[:, 0]) / r**2
    if single:
        pick = lambda a: float(a[0])  # noqa: E731
        return ScatteringVelocity(
            pick(xdot), pick(ydot), pick(taudot), pick(mudot), pick(x), pick(tau), pick(mu)
        )
    return ScatteringVelocity(xdot, ydot, taudot, mudot, x, tau, mu)


def collar_remainders(model: ModelProblem, Z, ZETA):
    """Numerically evaluated expansion remainders on the collar.

    Writing the field components as xdot = x^2 (2 tau + x^gamma a) and
    taudot = -x (2 g_b + x^gamma b), and H_p(tau/x) = -2(tau^2 + g_b)
    + x^gamma f, returns the arrays (a, b, f).  These are the only form in
    which the correction symbols exist here (the individual symbol-class
    memberships are not represented)."""
    Z, ZETA, _ = _as_batch(Z, ZETA, model.dimension)
    vel = hamilton_field_scattering(model, Z, ZETA)
    x, tau, mu = vel.x, vel.tau, vel.mu
    y = scattering_coords(Z, ZETA)[1]
    gb = model.g_boundary(y, mu)
    xg = x**model.gamma
    a = (vel.xdot / x**2 - 2.0 * tau) / xg
    b = (-vel.taudot / x - 2.0 * gb) / xg
    hp_tau_over_x = vel.taudot / x - tau * vel.xdot / x**2
    f = (hp_tau_over_x + 2.0 * (tau**2 + gb)) / xg
    return a, b, f


# ---------------------------------------------------------------------------
# model construction from key-value parameters (the CLI's model block)
# ---------------------------------------------------------------------------

MODEL_DEFAULTS = {
    "dimension": 1,
    "potential": "zero",
    "amplitude": 0.0,
    "gamma": 1.0,
    "separation": 3.0,
    "lambda2": 1.0,
    "delta": 0.1,
    "boundary_metric": "one",
    "metric_amplitude": 0.0,
    "metric_mode": 2,
}

PRESETS = {
    "zero": {"potential": "zero"},
    "longrange_pow": {"potential": "longrange_pow", "amplitude": 0.5, "gamma": 1.0},
    "double_bump": {"potential": "double_bump", "amplitude": 2.0, "separation": 3.0},
    "well": {"potential": "well", "amplitude": 2.0},
}


def build_model(params: Optional[dict] = None) -> ModelProblem:
    """Build a ModelProblem from a flat key-value mapping (see
    MODEL_DEFAULTS for the schema and defaults)."""
    merged = dict(MODEL_DEFAULTS)
    merged.update(params or {})
    known = set(MODEL_DEFAULTS)
    unknown = set(merged) - known
    if unknown:
        raise ConfigurationError(f"unknown model keys: {sorted(unknown)}")
    pot = make_potential(
        merged["potential"],
        amplitude=float(merged["amplitude"]),
        gamma=float(merged["gamma"]),
        separation=float(merged["separation"]),
    )
    if merged["boundary_metric"] == "one":
        metric = BoundaryMetric()
    elif merged["boundary_metric"] == "cosine":
        metric = BoundaryMetric(
            amplitude=float(merged["metric_amplitude"]), mode=int(merged["metric_mode"])
        )
    else:
        raise ConfigurationError(
            f"unknown boundary_metric {merged['boundary_metric']!r} (one|cosine)"
        )
    return ModelProblem(
        dimension=int(merged["dimension"]),
        potential=pot,
        lambda2=float(merged["lambda2"]),
        delta=float(merged["delta"]),
        metric=metric,
    )


def preset_model(name: str, **overrides) -> ModelProblem:
    """One of the shipped example models ('zero', 'longrange_pow',
    'double_bump', 'well'), with optional key overrides."""
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    params = dict(PRESETS[name])
    params.update(overrides)
    return build_model(params)
