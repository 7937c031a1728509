"""Model problems and phase-space geometry.

A model problem lives on R^1 viewed as the interior of a compactified
line whose boundary at infinity is the two-point set {-1, +1}.  The
boundary defining function is

    x(z) = 1 / theta(|z|),   theta(r) = r exactly for r >= 1,

with theta smoothly capped at 1 inside the unit ball (single C-infinity
blend, no seams; only small x ever matters to the constructions built on
top).  Near infinity the phase-space chart is

    (x, tau),  tau = -z zeta / |z|,

one copy at each end sign(z) = +-1, so that outgoing trajectories (|z|
increasing) carry tau < 0 and incoming ones tau > 0.  The boundary has no
angular directions, hence no boundary metric term.

The classical symbol is p(z, zeta) = zeta^2 + V(z); in the chart it reads
tau^2 + O(x^gamma).  Potentials carry a decay exponent gamma > 0 rather
than a factored representation.

All evaluators are pure and vectorized: a batch of phase points is two
equal-length 1-D arrays z, zeta of shape (m,), and model data is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from nontrap.errors import ConfigurationError
from nontrap.smooth import smoothstep, smoothstep_d

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


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

class Potential:
    """Long-range potential V(z) with analytic gradient and a decay rate
    gamma: the collar weights and remainders are measured in powers
    x^gamma.  amplitude <z>^(-gamma) is not a bound on |V| (double_bump has
    V(3) = 2.0 against 0.2)."""

    name = "base"
    gamma = 1.0
    amplitude = 0.0

    def value(self, z):
        raise NotImplementedError

    def gradient(self, z):
        raise NotImplementedError


class ZeroPotential(Potential):
    name = "zero"

    def __init__(self, gamma=1.0):
        self.gamma = float(gamma)

    def value(self, z):
        return np.zeros(np.shape(z))

    def gradient(self, z):
        return np.zeros(np.shape(z))


class PowerLawPotential(Potential):
    """V = A <z>^(-gamma), the long-range power-law preset."""

    name = "longrange_pow"

    def __init__(self, amplitude, gamma):
        if gamma <= 0:
            raise ConfigurationError(f"decay exponent gamma must be > 0, got {gamma}")
        self.amplitude = float(amplitude)
        self.gamma = float(gamma)

    def value(self, z):
        return self.amplitude * (1.0 + z**2) ** (-self.gamma / 2.0)

    def gradient(self, z):
        coef = -self.amplitude * self.gamma * (1.0 + z**2) ** (-self.gamma / 2.0 - 1.0)
        return coef * z


class DoubleBumpPotential(Potential):
    """V = A (exp(-(z-d)^2) + exp(-(z+d)^2)).  Two barriers that trap an
    interior well at suitable energies."""

    name = "double_bump"
    gamma = 2.0  # gaussian tails beat any power; certificate uses gamma=2

    def __init__(self, amplitude, separation):
        self.amplitude = float(amplitude)
        self.separation = float(separation)

    def value(self, z):
        d = self.separation
        return self.amplitude * (np.exp(-((z - d) ** 2)) + np.exp(-((z + d) ** 2)))

    def gradient(self, z):
        d = self.separation
        return self.amplitude * (
            -2.0 * (z - d) * np.exp(-((z - d) ** 2))
            - 2.0 * (z + d) * np.exp(-((z + d) ** 2))
        )


class WellPotential(Potential):
    """V = -A exp(-|z|^2), an attractive well (p can dip below zero)."""

    name = "well"
    gamma = 2.0

    def __init__(self, amplitude):
        self.amplitude = float(amplitude)

    def value(self, z):
        return -self.amplitude * np.exp(-(z**2))

    def gradient(self, z):
        v = self.value(z)  # dV/dz = -2 z V
        return -2.0 * v * z


#: the shape keys each potential reads (every model reads potential,
#: lambda2 and delta)
POTENTIAL_KEYS = {
    "zero": ("gamma",),
    "longrange_pow": ("amplitude", "gamma"),
    "double_bump": ("amplitude", "separation"),
    "well": ("amplitude",),
}
POTENTIAL_PRESETS = tuple(POTENTIAL_KEYS)


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


def _as_batch(z, zeta):
    z = np.asarray(z, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if z.ndim != 1 or zeta.shape != z.shape:
        raise ConfigurationError(
            "phase point batch must be two equal-length 1-D arrays, "
            f"got {z.shape}/{zeta.shape}"
        )
    return z, zeta


# ---------------------------------------------------------------------------
# symbol and Hamilton field, Euclidean chart
# ---------------------------------------------------------------------------

def symbol_p(model: ModelProblem, z, zeta):
    """Classical symbol p = zeta^2 + V(z), vectorized."""
    z, zeta = _as_batch(z, zeta)
    return zeta**2 + model.potential.value(z)


def shell_momentum(model: ModelProblem, z, energy):
    """Momentum length on an energy shell, vectorized over z.

    Returns (kappa, allowed) with p(z, +-kappa) = energy where allowed,
    i.e. where energy > V(z); kappa is 0 where the shell is classically
    forbidden."""
    gap = energy - model.potential.value(np.asarray(z, dtype=float))
    return np.sqrt(np.clip(gap, 0.0, None)), gap > 0


def hamilton_field(model: ModelProblem, z, zeta):
    """Hamilton vector field of p in the Euclidean chart:
    zdot = dp/dzeta, zetadot = -dp/dz, vectorized over the batch."""
    z, zeta = _as_batch(z, zeta)
    return 2.0 * zeta, -model.potential.gradient(z)


# ---------------------------------------------------------------------------
# scattering chart
# ---------------------------------------------------------------------------

def scattering_coords(z, zeta):
    """(x, tau) from Euclidean data (exact for |z| >= 1, smooth surrogate
    inside); the end is sign(z)."""
    z, zeta = _as_batch(z, zeta)
    th = radius_surrogate(np.abs(z))
    return 1.0 / th, -(z * zeta) / th


@dataclass(frozen=True)
class ScatteringVelocity:
    """Time derivatives of the scattering coordinates along the flow."""

    xdot: np.ndarray
    taudot: np.ndarray
    x: np.ndarray
    tau: np.ndarray


def hamilton_field_scattering(model: ModelProblem, z, zeta) -> ScatteringVelocity:
    """Exact chart components (xdot, taudot) of the Hamilton field,
    obtained by differentiating the global chart formulas along the
    Euclidean field (no expansion in x is used); the end sign(z) has zero
    derivative."""
    z, zeta = _as_batch(z, zeta)
    dz, dzeta = hamilton_field(model, z, zeta)
    r = np.abs(z)
    if np.any(r <= 0):
        raise ConfigurationError("scattering chart derivatives need |z| > 0")
    th = radius_surrogate(r)
    thd = radius_surrogate_d(r)
    rdot = z / r * dz
    x = 1.0 / th
    xdot = -thd * rdot / th**2
    q = z * zeta
    qdot = dz * zeta + z * dzeta
    tau = -q / th
    taudot = -qdot / th + q * thd * rdot / th**2
    return ScatteringVelocity(xdot, taudot, x, tau)


def collar_remainders(model: ModelProblem, z, zeta):
    """Numerically evaluated expansion remainders on the collar.

    Writing the field components as xdot = x^2 (2 tau + x^gamma a) and
    taudot = -x^(1+gamma) b, and H_p(tau/x) = -2 tau^2 + x^gamma f,
    returns the arrays (a, b, f).  These are the only form in
    which the correction symbols exist here (the individual symbol-class
    memberships are not represented)."""
    vel = hamilton_field_scattering(model, z, zeta)
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
    MODEL_DEFAULTS for the schema and defaults).  A shape key that the
    potential never reads (POTENTIAL_KEYS) must be absent or at its default;
    any other value would be silently ignored, so it is rejected."""
    merged = dict(MODEL_DEFAULTS)
    merged.update(params or {})
    known = set(MODEL_DEFAULTS)
    unknown = set(merged) - known
    if unknown:
        raise ConfigurationError(f"unknown model keys: {sorted(unknown)}")
    name = merged["potential"]
    for key in ("amplitude", "gamma", "separation"):
        if (name in POTENTIAL_KEYS and key not in POTENTIAL_KEYS[name]
                and float(merged[key]) != MODEL_DEFAULTS[key]):
            raise ConfigurationError(
                f"model key {key!r} = {merged[key]!r} is not read by potential "
                f"{name!r}, which reads {', '.join(POTENTIAL_KEYS[name])}")
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
