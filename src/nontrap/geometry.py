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
than a factored representation, and each names the model keys it reads
(Potential.keys).  ModelProblem owns the escape energy and radius.

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
    V(3) = 2.0 against 0.2).  keys are the model keys the constructor
    takes, by name (MODEL_DEFAULTS)."""

    name = "base"
    keys = ()
    gamma = 1.0
    amplitude = 0.0

    def value(self, z):
        raise NotImplementedError

    def gradient(self, z):
        raise NotImplementedError

    def rise_radius(self, rise):
        """A radius R beyond which V rises by less than rise along any
        outward path: V(z1) - V(z0) < rise whenever R <= |z0| <= |z1| and
        z0 z1 > 0 (math.inf if no float radius will do)."""
        raise NotImplementedError


class ZeroPotential(Potential):
    name = "zero"
    keys = ("gamma",)

    def __init__(self, gamma):
        self.gamma = float(gamma)

    def value(self, z):
        return np.zeros(np.shape(z))

    def gradient(self, z):
        return np.zeros(np.shape(z))

    def rise_radius(self, rise):
        return 0.0


class PowerLawPotential(Potential):
    """V = A <z>^(-gamma), the long-range power-law preset."""

    name = "longrange_pow"
    keys = ("amplitude", "gamma")

    def __init__(self, amplitude, gamma):
        self.amplitude = float(amplitude)
        self.gamma = float(gamma)

    def value(self, z):
        return self.amplitude * (1.0 + z**2) ** (-self.gamma / 2.0)

    def gradient(self, z):
        coef = -self.amplitude * self.gamma * (1.0 + z**2) ** (-self.gamma / 2.0 - 1.0)
        return coef * z

    def rise_radius(self, rise):
        # A >= 0: V falls outward; A < 0: V rises to 0, by less than
        # |A| <R>^(-gamma) past R
        if self.amplitude >= -rise:
            return 0.0
        try:
            return math.sqrt((-self.amplitude / rise) ** (2.0 / self.gamma)
                             - 1.0)
        except OverflowError:
            return math.inf


class DoubleBumpPotential(Potential):
    """V = A (exp(-(z-d)^2) + exp(-(z+d)^2)).  Two barriers that trap an
    interior well at suitable energies."""

    name = "double_bump"
    keys = ("amplitude", "separation")
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

    def rise_radius(self, rise):
        # past the bumps' centres V falls outward when A >= 0; when A < 0 it
        # rises to 0, by less than 2 |A| exp(-(R - |d|)^2) past R
        d = abs(self.separation)
        if self.amplitude >= -0.5 * rise:
            return d
        return d + math.sqrt(math.log(-2.0 * self.amplitude / rise))


class WellPotential(Potential):
    """V = -A exp(-|z|^2), an attractive well (p can dip below zero)."""

    name = "well"
    keys = ("amplitude",)
    gamma = 2.0

    def __init__(self, amplitude):
        self.amplitude = float(amplitude)

    def value(self, z):
        return -self.amplitude * np.exp(-(z**2))

    def gradient(self, z):
        v = self.value(z)  # dV/dz = -2 z V
        return -2.0 * v * z

    def rise_radius(self, rise):
        # A <= 0: V falls outward; A > 0: V rises to 0, by less than
        # A exp(-R^2) past R
        if self.amplitude <= rise:
            return 0.0
        return math.sqrt(math.log(self.amplitude / rise))


#: every potential by name, the model key that selects it
POTENTIALS = {cls.name: cls for cls in (ZeroPotential, PowerLawPotential,
                                        DoubleBumpPotential, WellPotential)}


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
        if self.potential.gamma <= 0:
            raise ConfigurationError("decay exponent gamma must be > 0, "
                                     f"got {self.potential.gamma}")
        if self.lambda2 <= 0:
            raise ConfigurationError(f"lambda2 must be > 0, got {self.lambda2}")
        if not (0.0 < self.delta < self.lambda2):
            raise ConfigurationError(
                f"delta must lie in (0, lambda2), got delta={self.delta}"
            )
        if not math.isfinite(self.escape_radius):
            raise ConfigurationError(
                "the potential rises by (lambda2 - delta)/2 along outward "
                "paths beyond any float radius: no escape radius")

    @property
    def lam(self):
        return math.sqrt(self.lambda2)

    @property
    def gamma(self):
        return self.potential.gamma

    @property
    def escape_energy(self):
        """The least tau^2 of an escaped point: half the window's lowest
        energy, (lambda2 - delta)/2, so that every window shell reaches it
        (tau^2 tends to the shell energy at infinity)."""
        return 0.5 * (self.lambda2 - self.delta)

    @property
    def escape_radius(self):
        """40, or farther out while the potential still rises by
        escape_energy along an outward path (a double_bump's bumps, say).
        A small enough neighbourhood of infinity is non-trapping: past this
        radius an outward orbit with tau^2 >= escape_energy keeps
        zeta^2 > 0, so it never turns back."""
        return max(40.0, self.potential.rise_radius(self.escape_energy))


def as_batch(z, zeta):
    """(z, zeta) as float arrays; raises unless they are two equal-length
    1-D arrays, the shape of a phase point batch."""
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
    z, zeta = as_batch(z, zeta)
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
    z, zeta = as_batch(z, zeta)
    return 2.0 * zeta, -model.potential.gradient(z)


# ---------------------------------------------------------------------------
# scattering chart
# ---------------------------------------------------------------------------

def scattering_coords(z, zeta):
    """(x, tau) from Euclidean data (exact for |z| >= 1, smooth surrogate
    inside); the end is sign(z)."""
    z, zeta = as_batch(z, zeta)
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
    z, zeta = as_batch(z, zeta)
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
    potential never reads (not in its keys) must be absent or at its
    default; any other value would be silently ignored, so it is
    rejected."""
    merged = dict(MODEL_DEFAULTS)
    merged.update(params or {})
    known = set(MODEL_DEFAULTS)
    unknown = set(merged) - known
    if unknown:
        raise ConfigurationError(f"unknown model keys: {sorted(unknown)}")
    name = merged["potential"]
    if name not in POTENTIALS:
        raise ConfigurationError(
            f"unknown potential preset {name!r}; expected one of "
            f"{tuple(POTENTIALS)}")
    cls = POTENTIALS[name]
    for key in ("amplitude", "gamma", "separation"):
        if key not in cls.keys and float(merged[key]) != MODEL_DEFAULTS[key]:
            raise ConfigurationError(
                f"model key {key!r} = {merged[key]!r} is not read by potential "
                f"{name!r}, which reads {', '.join(cls.keys)}")
    return ModelProblem(
        potential=cls(**{key: float(merged[key]) for key in cls.keys}),
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
