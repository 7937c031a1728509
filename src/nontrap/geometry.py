"""Model problems and phase-space geometry.

A model problem lives on R^1 viewed as the interior of a compactified
line whose boundary at infinity is the two-point set {-1, +1}.  The
boundary defining function is

    x(z) = 1 / theta(|z|),   theta(r) = r exactly for r >= 1,

with theta smoothly capped at 1 inside the unit ball (single C-infinity
blend, no seams; only small x ever matters to the constructions built on
top).  Near infinity the phase-space chart is

    (x, y, tau, mu),  tau = -z zeta / |z|,  y = sign(z),  mu = 0,

so that outgoing trajectories (|z| increasing) carry tau < 0 and incoming
ones tau > 0.  The boundary has no angular directions: mu is stored as 0
and the boundary metric term vanishes.

The classical symbol is p(z, zeta) = zeta^2 + V(z); in the chart it reads
tau^2 + O(x^gamma).  Potentials carry a certified decay exponent gamma > 0
rather than a factored representation.

All evaluators are pure and vectorized: positions/momenta are arrays of
shape (m, 1) (or (1,) for a single point) and model data is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """V = A (exp(-(z-d)^2) + exp(-(z+d)^2)).  Two barriers that trap an
    interior well at suitable energies."""

    name = "double_bump"
    gamma = 2.0  # gaussian tails beat any power; certificate uses gamma=2

    def __init__(self, amplitude, separation):
        self.amplitude = float(amplitude)
        self.separation = float(separation)
        self.lower_bound = min(0.0, self.amplitude)

    def value(self, Z):
        q = Z[:, 0]
        d = self.separation
        return self.amplitude * (np.exp(-((q - d) ** 2)) + np.exp(-((q + d) ** 2)))

    def gradient(self, Z):
        q = Z[:, 0]
        d = self.separation
        dVdq = self.amplitude * (
            -2.0 * (q - d) * np.exp(-((q - d) ** 2))
            - 2.0 * (q + d) * np.exp(-((q + d) ** 2))
        )
        return dVdq[:, None]

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
    """An asymptotically Euclidean model on the line: long-range
    potential, center energy lambda^2 and half-window delta.

    ``lam`` is the square root of the spectral parameter; all the cutoff
    thresholds of the escape construction are stated in terms of it.
    """

    potential: Potential
    lambda2: float
    delta: float

    def __post_init__(self):
        if self.lambda2 <= 0:
            raise ConfigurationError(f"lambda2 must be > 0, got {self.lambda2}")
        if not (0.0 < self.delta < self.lambda2):
            raise ConfigurationError(
                f"delta must lie in (0, lambda2), got delta={self.delta}"
            )
        if self.potential.gamma <= 0:
            raise ConfigurationError("potential decay exponent must be positive")

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


def _as_batch(Z, ZETA):
    Z = np.asarray(Z, dtype=float)
    ZETA = np.asarray(ZETA, dtype=float)
    single = Z.ndim == 1
    Z = np.atleast_2d(Z)
    ZETA = np.atleast_2d(ZETA)
    if Z.shape[1] != 1 or ZETA.shape != Z.shape:
        raise ConfigurationError(
            f"phase point batch must have shape (m, 1), got {Z.shape}/{ZETA.shape}"
        )
    return Z, ZETA, single


# ---------------------------------------------------------------------------
# symbol and Hamilton field, Euclidean chart
# ---------------------------------------------------------------------------

def symbol_p(model: ModelProblem, Z, ZETA):
    """Classical symbol p = zeta^2 + V(z), vectorized."""
    Z, ZETA, single = _as_batch(Z, ZETA)
    kin = np.sum(ZETA**2, axis=-1)
    p = kin + model.potential.value(Z)
    return float(p[0]) if single else p


def shell_momentum(model: ModelProblem, Z, energy):
    """Momentum length on an energy shell, vectorized over rows of Z.

    Returns (kappa, allowed) with p(z, +-kappa) = energy on the allowed
    rows, those where energy > V(z); kappa is 0 on the classically
    forbidden rows."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    gap = energy - model.potential.value(Z)
    return np.sqrt(np.clip(gap, 0.0, None)), gap > 0


def hamilton_field(model: ModelProblem, Z, ZETA):
    """Hamilton vector field of p in the Euclidean chart:
    zdot = dp/dzeta, zetadot = -dp/dz.  Vectorized; returns arrays shaped
    like the inputs."""
    Z, ZETA, single = _as_batch(Z, ZETA)
    dZ = 2.0 * ZETA
    dZETA = -model.potential.gradient(Z)
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
    ones (exact for |z| >= 1, smooth surrogate inside); y is the sign of z
    and mu = 0.
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
    """(x, y, tau, mu) from Euclidean data; vectorized over (m, 1) batches."""
    single = np.asarray(Z).ndim == 1
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    ZETA = np.atleast_2d(np.asarray(ZETA, dtype=float))
    r = np.sqrt(np.sum(Z**2, axis=-1))
    th = radius_surrogate(r)
    x = 1.0 / th
    tau = -np.sum(Z * ZETA, axis=-1) / th
    y = np.where(Z[:, 0] >= 0.0, 1.0, -1.0)
    mu = np.zeros_like(tau)
    if single:
        return float(x[0]), float(y[0]), float(tau[0]), float(mu[0])
    return x, y, tau, mu


def euclidean_coords(x, y, tau, mu=0.0):
    """Inverse chart, valid on the exact region x <= 1 (i.e. r >= 1)."""
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise ConfigurationError(
            f"inverse chart requires 0 < x <= 1 (r >= {CHART_RADIUS}), got x={x}"
        )
    r = 1.0 / x
    sgn = 1.0 if y >= 0 else -1.0
    return np.array([r * sgn]), np.array([-tau * sgn])


def symbol_p_scattering(model: ModelProblem, x, y, tau, mu=0.0):
    """Symbol evaluated from scattering data only: tau^2 + V(y / x).

    Independent arithmetic path from symbol_p; the two agree wherever the
    chart is exact (this is the chart-consistency certificate)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    r = 1.0 / x
    sgn = np.where(y >= 0, 1.0, -1.0)
    Z = (r * sgn)[..., None].reshape(-1, 1)
    V = model.potential.value(Z).reshape(x.shape)
    return tau**2 + V


@dataclass(frozen=True)
class ScatteringVelocity:
    """Time derivatives of the scattering coordinates along the flow."""

    xdot: np.ndarray
    taudot: np.ndarray
    x: np.ndarray
    tau: np.ndarray


def hamilton_field_scattering(model: ModelProblem, Z, ZETA) -> ScatteringVelocity:
    """Exact chart components (xdot, taudot) of the Hamilton field,
    obtained by differentiating the global chart formulas along the
    Euclidean field (no expansion in x is used); y = sign(z) and mu = 0
    have zero derivative."""
    Z, ZETA, single = _as_batch(Z, ZETA)
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
    if single:
        return ScatteringVelocity(float(xdot[0]), float(taudot[0]),
                                  float(x[0]), float(tau[0]))
    return ScatteringVelocity(xdot, taudot, x, tau)


def collar_remainders(model: ModelProblem, Z, ZETA):
    """Numerically evaluated expansion remainders on the collar.

    Writing the field components as xdot = x^2 (2 tau + x^gamma a) and
    taudot = -x^(1+gamma) b, and H_p(tau/x) = -2 tau^2 + x^gamma f,
    returns the arrays (a, b, f).  These are the only form in
    which the correction symbols exist here (the individual symbol-class
    memberships are not represented)."""
    Z, ZETA, _ = _as_batch(Z, ZETA)
    vel = hamilton_field_scattering(model, Z, ZETA)
    x, tau = vel.x, vel.tau
    xg = x**model.gamma
    a = (vel.xdot / x**2 - 2.0 * tau) / xg
    b = (-vel.taudot / x) / xg
    hp_tau_over_x = vel.taudot / x - tau * vel.xdot / x**2
    f = (hp_tau_over_x + 2.0 * tau**2) / xg
    return a, b, f


# ---------------------------------------------------------------------------
# model construction from key-value parameters (the CLI's model block)
# ---------------------------------------------------------------------------

MODEL_DEFAULTS = {
    "potential": "zero",
    "amplitude": 0.0,
    "gamma": 1.0,
    "separation": 3.0,
    "lambda2": 1.0,
    "delta": 0.1,
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
    return ModelProblem(
        potential=pot,
        lambda2=float(merged["lambda2"]),
        delta=float(merged["delta"]),
    )


def preset_model(name: str, **overrides) -> ModelProblem:
    """One of the shipped example models ('zero', 'longrange_pow',
    'double_bump', 'well'), with optional key overrides."""
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    params = dict(PRESETS[name])
    params.update(overrides)
    return build_model(params)
