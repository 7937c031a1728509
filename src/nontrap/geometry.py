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

trapping_verdict decides whether the energy window traps, exactly in 1D
and without a flow: from the critical values of V and the components of
{V >= lambda2}, certified on cells by each potential's closed-form bounds
on V' and V'' (slope_bounds) out to the radius where |V| falls below the
window (level_radius).  The bounds are floating-point evaluations, and
their rounding is not bounded.

All evaluators are pure and vectorized: a batch of phase points is two
equal-length 1-D arrays z, zeta of shape (m,), and model data is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

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

    def level_radius(self, level):
        """A radius R beyond which |V| < level: |V(z)| < level whenever
        |z| > R (math.inf if no float radius will do)."""
        raise NotImplementedError

    def slope_bounds(self, a, b):
        """(M1, M2), bounds on |V'| and |V''| over each cell [a, b]
        (arrays, a <= b), in closed form."""
        raise NotImplementedError


def _abs_range(a, b):
    """The least and the greatest |z| over each cell [a, b]."""
    far = np.maximum(np.abs(a), np.abs(b))
    near = np.where((a <= 0.0) & (b >= 0.0), 0.0, np.minimum(np.abs(a),
                                                            np.abs(b)))
    return near, far


def _gauss_bounds(a, b):
    """Bounds on |g'| and |g''| of g(s) = exp(-s^2) over each cell [a, b]
    of s: g' = -2 s g and g'' = (4 s^2 - 2) g, with g <= exp(-near^2),
    |g'| <= sqrt(2/e) and |g''| <= 2 everywhere."""
    near, far = _abs_range(a, b)
    g = np.exp(-near**2)
    return (np.minimum(2.0 * far * g, math.sqrt(2.0 / math.e)),
            np.minimum(np.maximum(2.0, 4.0 * far**2 - 2.0) * g, 2.0))


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

    def level_radius(self, level):
        return 0.0

    def slope_bounds(self, a, b):
        return np.zeros(np.shape(a)), np.zeros(np.shape(a))


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

    def level_radius(self, level):
        # |V| = |A| <z>^(-gamma) falls outward
        if abs(self.amplitude) < level:
            return 0.0
        try:
            return math.sqrt((abs(self.amplitude) / level)
                             ** (2.0 / self.gamma) - 1.0)
        except OverflowError:
            return math.inf

    def slope_bounds(self, a, b):
        # V' = -A gamma z w^(-gamma/2 - 1), V'' = -A gamma w^(-gamma/2 - 2)
        # (1 - (gamma + 1) z^2) with w = 1 + z^2 >= 1 + near^2; written in
        # ratios so that no factor overflows on the far tail's cells
        near, far = _abs_range(a, b)
        w = 1.0 + near**2
        scale = abs(self.amplitude) * self.gamma * w ** (-self.gamma / 2.0)
        return (scale * (far / w),
                scale / w * np.maximum(1.0 / w,
                                       (self.gamma + 1.0) * far * (far / w)))


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

    def level_radius(self, level):
        # past |d|, |V| < 2 |A| exp(-(|z| - |d|)^2); |V| <= 2 |A| everywhere
        if 2.0 * abs(self.amplitude) < level:
            return 0.0
        return (abs(self.separation)
                + math.sqrt(math.log(2.0 * abs(self.amplitude) / level)))

    def slope_bounds(self, a, b):
        d, amp = self.separation, abs(self.amplitude)
        m1, m2 = _gauss_bounds(a - d, b - d)
        n1, n2 = _gauss_bounds(a + d, b + d)
        return amp * (m1 + n1), amp * (m2 + n2)


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

    def level_radius(self, level):
        # |V| = |A| exp(-z^2) falls outward
        if abs(self.amplitude) < level:
            return 0.0
        return math.sqrt(math.log(abs(self.amplitude) / level))

    def slope_bounds(self, a, b):
        m1, m2 = _gauss_bounds(a, b)
        return abs(self.amplitude) * m1, abs(self.amplitude) * m2


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


# ---------------------------------------------------------------------------
# the non-trapping verdict, from the critical values of V
# ---------------------------------------------------------------------------

_CELL_STEP = 1.0 / 32.0  # the verdict's base cells, uniform in asinh(z)
_MAX_SPLITS = 40         # halvings of a cell the verdict may take
_MAX_OPEN = 1024         # unsettled cells beyond which no more are halved
_BISECT_STEPS = 200      # bisection steps, a cap (each halves a bracket)
# a gap between components of {V >= lambda2} whose least V is within this
# many ulps of lambda2 is V's rounding around a critical point (V(1e-4)
# rounds to lambda2 at a top V = lambda2 - c z^4), not a gap
_GAP_ULPS = 4


@dataclass(frozen=True)
class TrappingVerdict:
    """Whether the window [lambda2 - delta, lambda2 + delta] traps.

    critical_below and critical_above are the critical values of V on the
    verdict's cells nearest to lambda2, at or below it and above it (nan:
    none); components counts those of {V >= lambda2}.  Each witness is a
    phase point (z, zeta) whose orbit stays bounded: (z_c, 0) at a critical
    point whose value the cells do not separate from the window, or
    (z, sqrt(lambda2 - V(z))) in a bounded allowed interval between two
    components."""

    window: Tuple[float, float]
    critical_below: float
    critical_above: float
    components: int
    witnesses: Tuple[Tuple[float, float], ...]

    @property
    def nontrapping(self):
        return not self.witnesses


def trapping_verdict(model: ModelProblem) -> TrappingVerdict:
    """The exact 1D verdict: E > 0 is non-trapping if and only if E is not
    a critical value of V and {V >= E} is empty or one interval.  With no
    critical value in the closed window, {V >= E} has the same topology
    at every window energy, so lambda2 decides.

    Past R = potential.level_radius(lambda2 - delta), |V| is below the
    window, so every critical value there lies below it and {V >= E} lies
    inside [-R, R].  The cells cover [-R, R] uniformly in asinh(z), and
    a cell is settled when its bounds V(c) +- M1 r miss the window or
    |V'(c)| > M2 r (V is monotone on it), with M1, M2 the potential's
    slope_bounds, c the cell's centre and r its half-width.  An unsettled
    cell is halved, up to _MAX_SPLITS times while at most _MAX_OPEN are
    unsettled (at a degenerate critical point they multiply), and a cell
    left unsettled makes the verdict trapping.  On settled cells
    {V >= lambda2} changes at most once per cell, so the signs of
    V - lambda2 at the cell ends count its components, less the gaps whose
    least V is within _GAP_ULPS ulps of lambda2: such a gap holds a
    critical point in the window, already a witness.  The critical
    points reported are the cell ends where V' = 0 and a bisection of each
    sign change of V' between neighbouring ends."""
    pot = model.potential
    lam2 = model.lambda2
    lo, hi = lam2 - model.delta, lam2 + model.delta
    radius = pot.level_radius(lo)
    if not math.isfinite(radius):
        raise ConfigurationError(
            "|V| stays at or above lambda2 - delta beyond any float radius: "
            "no non-trapping verdict")
    s_max = max(math.asinh(radius), _CELL_STEP)
    half = np.sinh(np.linspace(0.0, s_max, int(math.ceil(s_max / _CELL_STEP))
                               + 1))
    ends = np.concatenate([-half[:0:-1], half])

    def unsettled(a, b):
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        m1, m2 = pot.slope_bounds(a, b)
        v = pot.value(c)
        meets = (v - m1 * r <= hi) & (v + m1 * r >= lo)
        return meets & (np.abs(pot.gradient(c)) <= m2 * r)

    a, b = ends[:-1], ends[1:]
    settled = []
    open_ = unsettled(a, b)
    for _ in range(_MAX_SPLITS):
        if not 0 < np.count_nonzero(open_) <= _MAX_OPEN:
            break
        settled.append(a[~open_])
        a, b = a[open_], b[open_]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        open_ = unsettled(a, b)
    x = np.sort(np.concatenate(settled + [a, ends[-1:]]))
    v, dv = pot.value(x), pot.gradient(x)

    sign = np.sign(dv)
    change = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    zc = np.unique(np.concatenate([
        x[sign == 0], _bisect(pot.gradient, x[change], x[change + 1])]))
    vc = pot.value(zc)
    below, above = vc[vc <= lam2], vc[vc > lam2]
    in_window = (vc >= lo) & (vc <= hi)
    witnesses = [(float(z), 0.0) for z in zc[in_window]]
    if open_.any() and not in_window.any():
        # no sign change in the unsettled cells: a critical point of even
        # order, at the unsettled centre where |V'| is least
        c = 0.5 * (a[open_] + b[open_])
        witnesses.append((float(c[np.argmin(np.abs(pot.gradient(c)))]), 0.0))

    up = v >= lam2
    comp = np.cumsum(up & ~np.concatenate([[False], up[:-1]]))
    n_comp = int(comp[-1])
    gap = np.flatnonzero(~up & (comp >= 1) & (comp < n_comp))
    order = gap[np.lexsort((v[gap], comp[gap]))]
    _, first = np.unique(comp[order], return_index=True)
    least = order[first]    # each gap's least V
    deep = least[v[least] < lam2 - _GAP_ULPS * np.spacing(lam2)]
    witnesses += [(float(x[i]), math.sqrt(lam2 - v[i])) for i in deep]
    return TrappingVerdict(
        window=(lo, hi),
        critical_below=float(below.max()) if below.size else math.nan,
        critical_above=float(above.min()) if above.size else math.nan,
        components=n_comp - (least.size - deep.size),
        witnesses=tuple(witnesses))


def _bisect(f, lo, hi):
    """Roots of f, one in each bracket [lo, hi] where f changes sign,
    bisected until the brackets stop shrinking; each root is the bracket
    end where |f| is smaller."""
    f_lo = np.sign(f(lo))
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        right = np.sign(f(mid)) == f_lo
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return np.where(np.abs(f(lo)) <= np.abs(f(hi)), lo, hi)


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
