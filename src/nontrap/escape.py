"""Construction and grid certification of an escape function.

Given an empirically non-trapping model, this module assembles

    q = q_minus + C q_circ + C' q_plus,

where the boundary pieces are x^{-+eps} chi(tau) psi(p) rho(x/x0) localized
to the incoming (tau > lam/3) and outgoing (tau < -lam/3) bands near
infinity, and q_circ is a finite sum of flow tubes covering the compact
region.  The two constants are chosen by a halving cascade so that
q >= 0 everywhere and -H_p q admits a positive weighted floor; the final
certificate

    q >= c' x^eps psi(p),   -H_p q >= c'' x^{1+eps} psi(p)

is measured on a deterministic phase-space grid.  All evaluators return the
quantities divided by psi(p) (every piece carries that factor, and H_p
psi(p) vanishes identically), which keeps the grid ratios finite through
the window edge where psi underflows.

The n-dimensional construction also has an intermediate piece on the band
|tau| < 7 lam/8 near infinity, which orbits with angular momentum reach.
In 1D the collar has tau^2 = p - V, and on the window's shell that band is
empty, so the piece is identically zero and is left out.

The verifier is a sampled certificate, not a proof: margins (a 1.5 safety
factor on the remainder sup, the halving floors) absorb off-grid
excursions, and refinement stability is the honesty check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from nontrap import flow as fl
from nontrap import geometry as geo
from nontrap.errors import ConfigurationError, ConstructionError
from nontrap.smooth import SmoothFn, falling_step, plateau, rising_step

_COLLAR_X_MIN = 1e-4    # innermost x of the collar grids
_COLLAR_NX = 40         # collar grid size (x, tau) at refine = 1
_COLLAR_NTAU = 41
_T_COV = 0.5            # covering zone starts at tube time -_T_COV
_MOM_FACTOR = 1.3       # disc radius along grad p, in units of delta / kappa
_MAX_REFINE = 2         # seed-spacing halvings allowed for the covering
_MAX_EXTEND = 6         # T extensions allowed for a tube's late portion
_Q_CIRC_DT = 0.025      # RK4 step of every orbit store
_Q_CIRC_STRIDE = 2      # orbit stores keep every second step
_ORBIT_SEGMENT = 16.0   # forward flow per call until every member is reached
_CANDIDATE_SAMPLES = 2**13  # orbit-store samples per crossing candidate search
_PAIR_CHUNK = 2**12     # (crossing, member) pairs per q_circ / covering chunk
_NEWTON_TOL = 1e-11     # crossing residual bound, relative to 1 + |level|
_NEWTON_MAX = 12        # Newton steps allowed per crossing
_GRID_X_MIN = 1e-3      # innermost x of the phase-space grids
_GRID_INSET = 0.999     # energies sampled within this fraction of the window
_MAX_HALVINGS = 60      # halving budget of each cascade stage
# (w_lo, w_hi, sigma_max) of tube times [w_lo, T + w_hi] and disc distances:
# the support of chi_j(t) phi(sigma), and the covering check's interior zone
_SUPPORT_ZONE = (-1.0, 2.0, 1.0)
_COVER_ZONE = (-_T_COV, 0.6, 0.5)


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffFamily:
    """The scalar cutoffs of the construction with analytic derivatives.

    chi_minus: 0 below lam/3, 1 above 2 lam/3 (incoming band);
    chi_plus:  its mirror image (outgoing band);
    rho: 1 on [0, 1/2], supported in [0, 1);
    psi: energy window cutoff, 1 on the half-window plateau.
    """

    chi_minus: SmoothFn
    chi_plus: SmoothFn
    rho: SmoothFn
    psi: SmoothFn


def build_cutoffs(lam: float, delta: float) -> CutoffFamily:
    if lam <= 0:
        raise ConfigurationError("build_cutoffs needs lam > 0")
    lam2 = lam * lam
    if not 0 < delta < lam2:
        raise ConfigurationError(f"delta must lie in (0, lam^2), got {delta}")
    chi_minus = rising_step(lam / 3.0, 2.0 * lam / 3.0)
    chi_plus = SmoothFn(lambda t: chi_minus(-np.asarray(t, float)),
                        lambda t: -chi_minus.d(-np.asarray(t, float)))
    rho = falling_step(0.5, 1.0)
    psi = plateau(lam2 - delta, lam2 - 0.5 * delta, lam2 + 0.5 * delta, lam2 + delta)
    return CutoffFamily(chi_minus=chi_minus, chi_plus=chi_plus, rho=rho,
                        psi=psi)


# ---------------------------------------------------------------------------
# boundary constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryConstants:
    """Certified constants of the near-boundary construction."""

    M: float          # 1.5x grid sup of the collar remainders |a| + |b|
    c1: float         # radial surrogate bound; enters x0 and eps1 only
    eps1: float       # collar threshold
    x0: float         # working collar width
    delta1: float     # energy width certificate (> delta)
    c0: float         # measured floor of -H_p(tau/x) on the collar shell

    def describe(self):
        return (f"M={self.M:.6g} c1={self.c1:.6g} x0={self.x0:.6g} "
                f"eps1={self.eps1:.6g} delta1={self.delta1:.6g} c0={self.c0:.6g}")


def _collar_points(model, eps1, n_x, n_tau):
    """Deterministic scattering-coordinate grid on the collar x < eps1 at
    both ends, converted to Euclidean points.  Returns (z, zeta)."""
    lam = model.lam
    xs = np.geomspace(_COLLAR_X_MIN, eps1 * 0.999, n_x)
    taus = np.linspace(-1.6 * lam, 1.6 * lam, n_tau)
    X, T, Y = np.meshgrid(xs, taus, np.array([1.0, -1.0]), indexing="ij")
    x, t, y = X.ravel(), T.ravel(), Y.ravel()
    r = 1.0 / x
    return r * y, -t * y


def boundary_constants(model, refine=1) -> BoundaryConstants:
    """Estimate the collar constants from dense deterministic grids.

    The remainder sup M is inflated by a 1.5 safety factor; c1 is the
    surrogate solving the self-consistent radial bound on the n-dimensional
    construction's intermediate band, with a 5% margin.  That band is empty
    in 1D (see the module docstring), so here c1 only bounds the collar
    width x0 (and eps1), on which every reported number depends.
    """
    lam, lam2, gamma = model.lam, model.lambda2, model.gamma
    delta1 = 1.25 * model.delta
    n_x, n_tau = _COLLAR_NX * refine, (_COLLAR_NTAU - 1) * refine + 1

    # provisional collar for the remainder sup: x < 1/2
    z, zeta = _collar_points(model, 0.5, n_x, n_tau)
    p = geo.symbol_p(model, z, zeta)
    sub = p <= 2.0 * lam2
    if not np.any(sub):
        raise ConstructionError("empty collar sample; model badly scaled")
    a, b, f = geo.collar_remainders(model, z[sub], zeta[sub])
    snap = 1e-9 * (1.0 + lam2)
    M_raw = float(np.max(np.abs(a) + np.abs(b)))
    M = 0.0 if M_raw < snap else 1.5 * M_raw
    Mf_raw = float(np.max(np.abs(f)))
    M_f = 0.0 if Mf_raw < snap else 1.5 * Mf_raw

    eps1 = min(0.5, (lam2 / (2.0 * (M_f + 1.0))) ** (1.0 / gamma))

    # measured floor of -H_p(tau/x) on the collar energy shell
    zc, zetac = _collar_points(model, eps1, n_x, n_tau)
    pc = geo.symbol_p(model, zc, zetac)
    shell = (pc > 0.5 * lam2) & (pc < 2.0 * lam2)
    vel = geo.hamilton_field_scattering(model, zc[shell], zetac[shell])
    hp_ratio = vel.taudot / vel.x - vel.tau * vel.xdot / vel.x**2
    c0 = float(np.min(-hp_ratio))
    if c0 <= 0:
        raise ConstructionError(
            "radial monotonicity floor non-positive on the collar; "
            "decrease eps1 (stronger potential decay needed)"
        )

    # on the intermediate band |tau| < 3 lam/4 -x^{-1} H_p tau equals
    # 2(p - tau^2) - x^gamma(remainder) >= 2 A - M x0^gamma with
    # A = (15/64) lam^2 - delta1; the x0 formula gives
    # M x0^gamma = M c1 / (2(M+1)), and solving the self-consistent
    # bound c1 = 2A - M c1 / (2(M+1)) yields the factor below.
    A = (15.0 / 64.0) * lam2 - delta1
    c1 = 0.95 * 2.0 * A * (2.0 * M + 2.0) / (3.0 * M + 2.0)
    if c1 <= 0:
        raise ConstructionError(
            f"band lower bound c1 = {c1:.3g} <= 0: energy window too wide; "
            "reduce delta"
        )
    # the band inequality needs the remainder below c1/2 on the collar
    eps1 = min(eps1, (c1 / (2.0 * (M + 1.0))) ** (1.0 / gamma))

    x0 = min(
        (lam / (6.0 * (M + 1.0))) ** (1.0 / gamma),
        (c1 / (2.0 * (M + 1.0))) ** (1.0 / gamma),
        eps1,
    )
    return BoundaryConstants(M=M, c1=c1, eps1=eps1, x0=x0, delta1=delta1,
                             c0=c0)


# ---------------------------------------------------------------------------
# boundary pieces
# ---------------------------------------------------------------------------

def boundary_pieces(model, consts, cutoffs, eps, z, zeta, x, tau):
    """(q/psi, H_p q/psi) of the pieces x^alpha chi(tau) rho(x/x0) on a
    batch of points (z, zeta) with scattering coordinates (x, tau):
    incoming (chi_minus, alpha = -eps) and outgoing (chi_plus, eps).  The
    derivative uses the exact Hamilton field through the chart (product
    rule), once on the union of the supports (rho(x/x0) = 0 at z = 0); the
    psi(p) factor is flow-invariant and divided out.
    """
    x0 = consts.x0
    rv, rd = cutoffs.rho(x / x0), cutoffs.rho.d(x / x0)
    chis = [(alpha, chi(tau), chi.d(tau)) for chi, alpha in (
        (cutoffs.chi_minus, -eps), (cutoffs.chi_plus, eps))]
    # a derivative is supported wherever any factor or its derivative is
    near = (rv != 0.0) | (rd != 0.0)
    lives = [near & ((cv != 0.0) | (cd != 0.0)) for _, cv, cd in chis]
    union = np.any(lives, axis=0)
    vel = geo.hamilton_field_scattering(model, z[union], zeta[union])
    out = []
    for (alpha, cv, cd), live in zip(chis, lives):
        val = x**alpha * cv * rv
        hpq = np.zeros_like(val)
        xl, u, cl, rl = x[live], live[union], cv[live], rv[live]
        hpq[live] = (
            alpha * xl ** (alpha - 1.0) * vel.xdot[u] * cl * rl
            + xl**alpha * cd[live] * vel.taudot[u] * rl
            + xl**alpha * cl * rd[live] * vel.xdot[u] / x0
        )
        out.append((val, hpq))
    return out


# ---------------------------------------------------------------------------
# tubes
# ---------------------------------------------------------------------------

def _chi_tube(t, T):
    """Tube time cutoff and its derivative (chi_j, chi_j'): supported in
    (-1, T+2), slope exactly 1 on [-1/2, T+2/3] (the covering zone),
    falling only on (T+2/3, T+2).  T is one tube time or one per point."""
    t = np.asarray(t, dtype=float)
    rise, down = rising_step(-1.0, -0.5), falling_step(T + 2.0 / 3.0, T + 2.0)
    r, lin, dn = rise(t), 1.0 + t, down(t)
    return r * lin * dn, rise.d(t) * lin * dn + r * dn + r * lin * down.d(t)


@dataclass
class Tube:
    """One flow tube: a transversal disc through the seed swept by the
    backward flow over (-1, T+2).

    The transversal line is spanned by the energy gradient (grad p is
    orthogonal to H_p), and the disc must stay inside the escaping-energy
    region, so its radius along grad p is sized by the window width."""

    seed: np.ndarray          # phase-space point (z, zeta)
    T: float
    normal: np.ndarray        # unit H_p direction at the seed (2,)
    u_p: np.ndarray           # unit grad p direction at the seed (2,)
    radius: float             # disc radius along u_p


@dataclass
class CoveringReport:
    n_test: int
    n_uncovered: int
    uncovered: List[np.ndarray]


@dataclass
class TubeCollection:
    tubes: List[Tube]
    covering: CoveringReport
    reach: float    # largest padded |z| of the sampled tube sweeps

    @property
    def max_T(self):
        return max(t.T for t in self.tubes) if self.tubes else 0.0


def _phase_state(z, zeta):
    """Phase-space states (z, zeta) as rows of an (..., 2) array."""
    return np.stack([z, zeta], axis=-1)


def _project(states, v, level=0.0):
    """states . v - level, elementwise, for one v (2,) or one per row (a
    row's value is batch-independent)."""
    return states[..., 0] * v[..., 0] + states[..., 1] * v[..., 1] - level


def _k_axis(consts, spacing):
    """Positions of the K grids: |z| <= 4 / x0 at the given spacing."""
    r_max = 4.0 / consts.x0
    return np.arange(-r_max, r_max + 0.5 * spacing, spacing)


def _k_region_seeds(model, consts, spacing):
    """Seed grid on K = supp psi(p) & {x >= x0/4} (one seed per position
    cell and momentum branch, at the window center energy).  Returns
    (z, zeta)."""
    z = np.repeat(_k_axis(consts, spacing), 2)
    kappa, allowed = geo.shell_momentum(model, z, model.lambda2)
    return z[allowed], (kappa * np.tile([1.0, -1.0], z.size // 2))[allowed]


def _disc_offsets(tube: Tube):
    """Sample offsets across the transversal disc: the center, and half and
    full radius either way along u_p."""
    half, full = 0.5 * tube.radius * tube.u_p, tube.radius * tube.u_p
    return np.stack([np.zeros(2), half, -half, full, -full])


def build_tubes(model, consts, T_max=500.0) -> TubeCollection:
    """Tubes along backward bicharacteristic segments seeded on a grid of K.

    Per seed: T from the first certified incoming time (inflated for the
    slowest disc member), a transversal line normal to H_p, a disc along
    grad p whose half-size images cover K (certified on a 2x finer test
    grid), and a sampled certificate that the late tube portion
    [T+1/2, T+2] stays inside {x < x0/2, tau > 2 lam/3}.
    """
    lam = model.lam
    tau_target = 2.0 * lam / 3.0
    x_target = consts.x0 / 2.0
    # a seed spacing of at least 1, and coarser for a wide collar, keeps
    # the tube count roughly collar-independent
    spacing = max(1.0, (4.0 / consts.x0) / 40.0)
    for _ in range(_MAX_REFINE + 1):
        z_s, zeta_s = _k_region_seeds(model, consts, spacing)
        if not z_s.size:
            raise ConstructionError("no seeds found on K; check the window")
        kappa_min = float(np.min(np.abs(zeta_s)))
        if kappa_min <= 0:
            raise ConstructionError("seed with vanishing momentum on K")
        r_mom = _MOM_FACTOR * model.delta / kappa_min
        T_in = fl.time_to_incoming(model, z_s, zeta_s, x_target, tau_target,
                                   T_max=T_max)
        dZ, dC = geo.hamilton_field(model, z_s, zeta_s)
        tubes = []
        for z, zeta, T, dz, dzeta in zip(z_s, zeta_s, T_in.tolist(), dZ, dC):
            # the slowest disc member (lowest shell energy on the disc)
            # lags the center trajectory; size the segment for it
            kappa = abs(float(zeta))
            T = T * (1.0 + 2.0 * _MOM_FACTOR * model.delta / kappa**2) + 0.5
            n_vec = _phase_state(dz, dzeta)
            n_norm = float(np.linalg.norm(n_vec))
            if n_norm == 0.0:
                raise ConstructionError(f"stationary seed at {z}, {zeta}")
            # grad p = (-zetadot, zdot) spans the transversal
            grad_p = _phase_state(-dzeta, dz)
            tubes.append(Tube(seed=_phase_state(z, zeta), T=T,
                              normal=n_vec / n_norm,
                              u_p=grad_p / np.linalg.norm(grad_p),
                              radius=r_mom))
        reach = _certify_tubes(model, tubes, consts, lam)
        report = _certify_covering(model, tubes, reach, consts, spacing)
        if report.n_uncovered == 0:
            return TubeCollection(tubes=tubes, covering=report, reach=reach)
        spacing *= 0.5
    raise ConstructionError(
        f"tube covering failed after {_MAX_REFINE} refinements: "
        f"{report.n_uncovered} uncovered test points, first few "
        f"{[u.tolist() for u in report.uncovered[:3]]}"
    )


def _certify_tubes(model, tubes: List[Tube], consts, lam):
    """Sampled disc sweep for every tube in one batched backward flow: the
    late-portion disjointness from K' (auto-extending T when the margin
    check fails).  Returns the reach R, the largest |z| of the sweeps with
    each tube's z range padded by radius/4 + 5% of its end magnitudes."""
    pend, reach = list(tubes), 0.0
    for round_ in range(_MAX_EXTEND + 1):
        if not pend:
            return reach
        pts = np.concatenate([tb.seed + _disc_offsets(tb) for tb in pend])
        T_all = max(tb.T for tb in pend)
        ts, zs, cs = fl.batched_flow(model, pts[:, 0], pts[:, 1], 0.0,
                                     -(T_all + 2.2), 0.02, store_stride=5)
        failed = []
        for k, tb in enumerate(pend):
            zt, ct = (a.reshape(ts.size, len(pend), -1)[:, k] for a in (zs, cs))
            swept = zt[-ts <= tb.T + 2.2]
            lo, hi = float(swept.min()), float(swept.max())
            pad = 0.25 * tb.radius + 0.05 * (abs(lo) + abs(hi))
            late = (-ts >= tb.T + 0.5) & (-ts <= tb.T + 2.0 + 1e-9)
            x, tau = geo.scattering_coords(zt[late].ravel(), ct[late].ravel())
            if np.all(x < consts.x0 / 2.0) and np.all(tau > 2.0 * lam / 3.0):
                reach = max(reach, abs(lo - pad), abs(hi + pad))
                continue
            failed.append(tb)
            if round_ < _MAX_EXTEND:
                tb.T += max(1.0, 0.1 * tb.T)  # retry with a longer segment
        pend = failed
    raise ConstructionError(
        f"late tube portion not disjoint from K' after extending T to "
        f"{pend[0].T}; increase the time margin"
    )


def _certify_covering(model, tubes: List[Tube], reach, consts, spacing):
    """Every point of a 2x finer K grid at three energies of the window must
    cross some tube in its interior zone: disc distance <= 1/2 and t in
    [-_T_COV, T_j + 0.6], where the time cutoff has slope one."""
    energies = model.lambda2 + model.delta * np.array([-0.9, 0.0, 0.9])
    z, zeta, shell = _shell_points(model, _k_axis(consts, 0.5 * spacing),
                                   energies)
    covered = np.zeros(z.size, dtype=bool)
    for _, i, _, _ in _tube_passes(model, tubes, reach, z, zeta, shell,
                                   _COVER_ZONE):
        covered[i] = True
    bad = np.flatnonzero(~covered)
    uncovered = [_phase_state(z[i], zeta[i]) for i in bad[:16]]
    return CoveringReport(n_test=z.size, n_uncovered=int(bad.size),
                          uncovered=uncovered)


# ---------------------------------------------------------------------------
# tube evaluation (crossings read off one flowed orbit per energy shell)
# ---------------------------------------------------------------------------

def eval_q_circ(model, coll: TubeCollection, z, zeta, shell):
    """(q_circ/psi, H_p q_circ/psi) on a batch of points.

    `shell` labels the points by orbit (phase_grid's third output;
    np.arange(z.size) makes each point its own orbit).  Each orbit is
    flowed once, a point gets its time offset s on it, and every tube's
    crossings (t_c, sigma_c) are found in one pass over the orbits.  A
    point sums chi_j(t_c - s) phi(sigma_c) and -chi_j'(t_c - s) phi(sigma_c)
    over those with t_c - s in [-1, T_j + 2] and sigma_c <= 1, chunk by
    chunk in the pass's order: tube by tube, then by time.  |z| > reach R
    gives 0.
    """
    z, zeta = np.asarray(z, dtype=float), np.asarray(zeta, dtype=float)
    qv, hp = np.zeros(z.size), np.zeros(z.size)
    phi_shape = falling_step(0.5, 1.0)
    T = np.array([tb.T for tb in coll.tubes])
    for j, i, t, sigma in _tube_passes(model, coll.tubes, coll.reach, z,
                                       zeta, shell, _SUPPORT_ZONE):
        phi = phi_shape(sigma)
        chi, chi_d = _chi_tube(t, T[j])
        np.add.at(qv, i, chi * phi)
        np.add.at(hp, i, -chi_d * phi)
    return qv, hp


@dataclass(frozen=True)
class _TubeArrays:
    """The tubes of a pass as arrays, tube j in row j: seed, normal and u_p
    (n, 2), radius, T and level = seed . normal (n,), and the disc energy
    band (n, 2)."""

    seed: np.ndarray
    normal: np.ndarray
    u_p: np.ndarray
    radius: np.ndarray
    T: np.ndarray
    level: np.ndarray
    band: np.ndarray

    @classmethod
    def of(cls, model, tubes):
        seed = np.array([tb.seed for tb in tubes])
        normal = np.array([tb.normal for tb in tubes])
        return cls(seed=seed, normal=normal,
                   u_p=np.array([tb.u_p for tb in tubes]),
                   radius=np.array([tb.radius for tb in tubes]),
                   T=np.array([tb.T for tb in tubes]),
                   level=_project(seed, normal),
                   band=np.array([_disc_energy_band(model, tb)
                                  for tb in tubes]))


def _tube_passes(model, tubes, reach, z, zeta, shell, zone):
    """Chunks (j, i, t, sigma): the points i crossing the transversal of
    tubes[j] at time t and disc distance sigma, inside zone.  One pass finds
    every tube's crossings (_crossings); the chunks follow its order (tube,
    then orbit, then crossing time), so each point meets its crossings tube
    by tube, then in time order.  Members of a crossing's orbit are found by
    binary search over the keys o W + s (orbit o, offset s), then tested
    exactly on t = t_c - s; a chunk expands at most _PAIR_CHUNK of these
    (crossing, member) pairs, or one crossing's members.

    p is conserved, so only orbits at an energy of a tube's disc (sampled,
    padded by a tenth of the spread) can cross it: orbits outside every
    tube's range are not flowed, and a tube keeps only crossings on its
    own."""
    w_lo, w_hi, sigma_max = zone
    tb = _TubeArrays.of(model, tubes)
    t_tail = float(tb.T.max()) + w_hi + 0.1
    store = _shell_orbits(model, z, zeta, shell, reach, w_lo - 0.1, t_tail,
                          tb.band, _stop_radius(tubes))
    if store is None:
        return
    ts, comps, pts, orb, s = store
    # a power of two above every |t_c - s| keeps the orbits' key runs apart
    W = 2.0 ** math.ceil(math.log2(ts[-1] - w_lo + 1.0))
    key = orb * W + s
    j, t_c, sigma, col = _crossings(model, ts, comps, tb, w_lo,
                                    s.max() + tb.T + w_hi, sigma_max)
    T = tb.T[j]
    lo = np.searchsorted(key, col * W + (t_c - T - w_hi), "left")
    n = np.searchsorted(key, col * W + (t_c - w_lo), "right") - lo
    upto = np.cumsum(n)
    a = 0
    while a < n.size:
        b = max(a + 1, int(np.searchsorted(upto, upto[a] - n[a] + _PAIR_CHUNK,
                                           "right")))
        c, m = _ranges(lo[a:b], n[a:b])
        c += a
        t = t_c[c] - s[m]
        ok = (t >= w_lo) & (t <= T[c] + w_hi) & (orb[m] == col[c])
        yield j[c[ok]], pts[m[ok]], t[ok], sigma[c[ok]]
        a = b


def _ranges(lo, n):
    """(c, k): k runs over lo[c], ..., lo[c] + n[c] - 1 for each c in turn."""
    c = np.repeat(np.arange(n.size), n)
    return c, np.arange(c.size) + np.repeat(lo - np.cumsum(n) + n, n)


def _near_radius(tb: Tube):
    """Distance from tb's seed within which a crossing's bracketing sample
    must lie to be refined (_crossings' prefilter); elementwise over the
    rows of a _TubeArrays."""
    return tb.radius * 1.5 + 0.2


def _stop_radius(tubes):
    """Escape radius past which no orbit can cross a tube near its seed:
    the larger of flow's escape radius and the largest |z| within
    _near_radius of a seed."""
    return max([fl.R_ESCAPE]
               + [abs(float(tb.seed[0])) + _near_radius(tb) for tb in tubes])


def _disc_energy_band(model, tb: Tube):
    """(lo, hi): the energies p of tb's sampled disc, padded by a tenth of
    their spread."""
    p_disc = geo.symbol_p(model, *(tb.seed + _disc_offsets(tb)).T)
    pad = 0.1 * np.ptp(p_disc)
    return p_disc.min() - pad, p_disc.max() + pad


def _shell_orbits(model, z, zeta, shell, reach, t_back, t_tail, bands,
                  r_stop):
    """(ts, comps, pts, orb, s): the orbit store, comps[k][col, row] being
    coordinate k of (z, zeta) on orbit col at time ts[row], and the points
    with |z| <= reach on an orbit whose energy (its representative's p) lies
    in one of the ranges bands[i] = (lo, hi), their orbits and offsets,
    sorted by orbit, offset; None if there are no such points.

    One representative per label, the first member along d = sign(zeta),
    is flowed back to t_back and on past its members, then further until
    every orbit holds flow's escape certificate at radius r_stop (|z| stays
    above r_stop from there on), at most t_tail further.
    s >= 0 is when d z first reaches d z_i: bracketed by the first such
    sample, refined on z = z_i.
    A member moving uphill so near its turning point that no sample may
    fall past it (for about 2 |zeta_i| / V'(z_i)) gets its own orbit."""
    live = np.flatnonzero(np.abs(z) <= reach)
    zl, d = z[live], np.sign(zeta[live])
    alone = np.abs(zeta[live]) <= (2.0 * _Q_CIRC_DT * _Q_CIRC_STRIDE * d
                                   * model.potential.gradient(zl))
    _, orbit = np.unique(np.where(alone, -1 - np.arange(live.size),
                                  shell[live]), return_inverse=True)
    mem = np.argsort(d * zl, kind="stable")
    mem = mem[np.argsort(orbit[mem], kind="stable")]
    orb = orbit[mem]
    first = np.flatnonzero(np.diff(orb, prepend=-1))
    rep = live[mem[first]]
    p_rep = geo.symbol_p(model, z[rep], zeta[rep])[:, None]
    kept = np.any((p_rep >= bands[:, 0]) & (p_rep <= bands[:, 1]), axis=1)
    if not kept.any():
        return None
    mem, orb = mem[kept[orb]], (np.cumsum(kept) - 1)[orb[kept[orb]]]
    first = np.flatnonzero(np.diff(orb, prepend=-1))
    target = (d * zl)[mem[np.append(first[1:], mem.size) - 1]]
    rep, dr = live[mem[first]], d[mem[first]]
    t_b, z_b, c_b = fl.batched_flow(model, z[rep], zeta[rep], 0.0, t_back,
                                    _Q_CIRC_DT, store_stride=_Q_CIRC_STRIDE)
    tss, zss, css = [t_b[::-1]], [z_b[::-1]], [c_b[::-1]]

    def escaped(zz, cc):
        return bool(np.all(fl.escape_certified(model, zz, cc, r_stop)))

    t, far, tail = 0.0, dr * z[rep], False
    while not tail:
        tail = not np.any(far < target)
        span, until = (t_tail, escaped) if tail else (_ORBIT_SEGMENT, None)
        t_f, z_f, c_f = fl.batched_flow(model, zss[-1][-1], css[-1][-1], t,
                                        t + span, _Q_CIRC_DT,
                                        store_stride=_Q_CIRC_STRIDE,
                                        until=until)
        tss.append(t_f[1:]), zss.append(z_f[1:]), css.append(c_f[1:])
        t += span
        far = np.maximum(far, np.max(z_f * dr, axis=0))
        if np.any((far < target) & (z_f[-1] * dr < far)):
            raise ConstructionError(
                "an orbit turned back before reaching a member of its shell")
    del z_f, c_f
    # (orbit, time) blocks, built one coordinate at a time to bound the peak
    ts, comps = np.concatenate(tss), []
    for parts in (zss, css):
        comps.append(np.concatenate([a.T for a in parts], axis=1))
        parts.clear()
    k0 = int(np.searchsorted(ts, 0.0))
    run = np.maximum.accumulate(comps[0][:, k0:] * dr[:, None], axis=1)
    K = np.empty(mem.size, dtype=np.intp)
    for o, (a, b) in enumerate(zip(first, np.append(first[1:], mem.size))):
        K[a:b] = np.searchsorted(run[o], dr[o] * zl[mem[a:b]])
    s, _ = _refine_crossings(model, ts, comps, k0 + np.maximum(K - 1, 0),
                             orb, (1.0, 0.0), zl[mem])
    srt = np.argsort(s, kind="stable")
    srt = srt[np.argsort(orb[srt], kind="stable")]
    return ts, comps, live[mem[srt]], orb[srt], s[srt]


def _crossings(model, ts, comps, tb: _TubeArrays, w_lo, w_hi, sigma_max):
    """(j, t, sigma, col): tube, time, disc distance and store column of
    every crossing of tube j's transversal with t in [w_lo, w_hi[j]] and
    sigma <= sigma_max, sorted by tube, column, time.  A crossing is a sign
    change of the signed distance between stored samples k, k+1 of a column
    at tube j's energy (pt = exp(-t H_p)(sigma) <=> exp(+t H_p)(pt) in
    Sigma) whose sample k lies within _near_radius of the seed.

    The samples within the largest _near_radius in z of a seed are the
    candidates, searched against the sorted seed positions a group of at
    most _CANDIDATE_SAMPLES samples at a time; all crossings are refined
    together."""
    dt_det = _Q_CIRC_DT * _Q_CIRC_STRIDE
    # rows each tube reads: the store extends past either end of the window
    k_lo = int(np.searchsorted(ts, w_lo - 3 * dt_det, "left"))
    k_end = np.searchsorted(ts, w_hi + 3 * dt_det, "right") - 1
    n_rows = int(k_end.max()) - k_lo   # bracket starts k_lo ... k_end - 1
    near = _near_radius(tb)
    by_z = np.argsort(tb.seed[:, 0], kind="stable")
    z_seed = tb.seed[by_z, 0]
    r = 1.01 * float(near.max())     # the pad absorbs rounding in z -+ r
    k0 = int(np.searchsorted(ts, 0.0))
    p_orbit = geo.symbol_p(model, comps[0][:, k0], comps[1][:, k0])
    n_cols = comps[0].shape[0]
    per = max(1, _CANDIDATE_SAMPLES // max(n_rows, 1))
    found = []
    for g in range(0, n_cols, per):
        zk = comps[0][g:g + per, k_lo:k_lo + n_rows]
        a = np.searchsorted(z_seed, zk - r, "left").ravel()
        f, j = _ranges(a, np.searchsorted(z_seed, zk + r, "right").ravel() - a)
        j = by_z[j]
        o, k = np.divmod(f, n_rows)
        o, k = o + g, k + k_lo
        ok = ((k < k_end[j]) & (p_orbit[o] >= tb.band[j, 0])
              & (p_orbit[o] <= tb.band[j, 1]))
        j, o, k = j[ok], o[ok], k[ok]
        y = _gather(comps, k, o)
        ok = ((np.signbit(_project(y, tb.normal[j], tb.level[j]))
               != np.signbit(_project(_gather(comps, k + 1, o), tb.normal[j],
                                      tb.level[j])))
              & (np.linalg.norm(y - tb.seed[j], axis=1) <= near[j]))
        found.append((j[ok], o[ok], k[ok]))
    j, o, k = (np.concatenate(parts) for parts in zip(*found))
    srt = np.lexsort((k, o, j))
    j, o, k = j[srt], o[srt], k[srt]
    t_star, y = _refine_crossings(model, ts, comps, k, o, tb.normal[j],
                                  tb.level[j])
    sigma = np.abs(_project(y - tb.seed[j], tb.u_p[j])) / tb.radius[j]
    ok = (t_star >= w_lo) & (t_star <= w_hi[j]) & (sigma <= sigma_max)
    return j[ok], t_star[ok], sigma[ok], o[ok]


def _gather(comps, ks, cols):
    """Phase-space states (rows) at the stored samples (ks, cols)."""
    return np.stack([c[cols, ks] for c in comps], axis=-1)


def _refine_crossings(model, ts, comps, ks, cols, normal, level):
    """(t, state) of the crossings of y . normal = level (one normal and
    level, or one per crossing) in the brackets [ts[k], ts[k+1]] of the
    columns cols: Newton on the cubic Hermite interpolant, each crossing
    stopping on its own once its residual is at most
    _NEWTON_TOL (1 + |level|); one still above that after _NEWTON_MAX steps
    raises ConstructionError.  A crossing's result does not depend on the
    others in the batch."""
    y0, y1 = _gather(comps, ks, cols), _gather(comps, ks + 1, cols)
    t0, t1 = ts[ks], ts[ks + 1]
    dt = (t1 - t0)[:, None]
    f0 = _phase_state(*geo.hamilton_field(model, y0[:, 0], y0[:, 1])) * dt
    f1 = _phase_state(*geo.hamilton_field(model, y1[:, 0], y1[:, 1])) * dt
    normal = np.broadcast_to(np.asarray(normal, dtype=float), ks.shape + (2,))
    level = np.broadcast_to(level, ks.shape)
    tol = _NEWTON_TOL * (1.0 + np.abs(level))
    u = np.full(ks.shape, 0.5)
    todo = np.arange(ks.size)
    for it in range(_NEWTON_MAX + 1):
        y, yd = _hermite(u[todo], y0[todo], f0[todo], y1[todo], f1[todo])
        s = _project(y, normal[todo], level[todo])
        go = np.abs(s) > tol[todo]
        todo, s = todo[go], s[go]
        sd = _project(yd[go], normal[todo])
        if not todo.size:
            break
        if it == _NEWTON_MAX:
            raise ConstructionError(
                f"crossing refinement left a residual {np.max(np.abs(s)):.3g} "
                f"after {_NEWTON_MAX} Newton steps")
        step = np.where(np.abs(sd) > 1e-14, s / np.where(sd == 0, 1.0, sd), 0.0)
        u[todo] = np.clip(u[todo] - step, 0.0, 1.0)
    y, _ = _hermite(u, y0, f0, y1, f1)
    return t0 + u * (t1 - t0), y


def _hermite(u, y0, f0, y1, f1):
    """Cubic Hermite interpolant (y, dy/du) at u in [0, 1] through the rows
    y0, y1 with scaled slopes f0, f1."""
    uu = u[:, None]
    u2, u3 = uu**2, uu**3
    return ((2 * u3 - 3 * u2 + 1) * y0 + (u3 - 2 * u2 + uu) * f0
            + (-2 * u3 + 3 * u2) * y1 + (u3 - u2) * f1,
            (6 * u2 - 6 * uu) * y0 + (3 * u2 - 4 * uu + 1) * f0
            + (-6 * u2 + 6 * uu) * y1 + (3 * u2 - 2 * uu) * f1)


# ---------------------------------------------------------------------------
# phase-space grids
# ---------------------------------------------------------------------------

def _shell_points(model, zs, energies):
    """(z, zeta, shell) at every position of zs and energy with energy > V,
    momentum branches +, - (ordered by position, energy, branch).  The
    label is (energy, allowed run, branch): its points lie on one orbit
    along which z is monotone.  A run of allowed positions touching neither
    end of the sorted axis is a trapped shell and raises."""
    V = model.potential.value(zs)
    k2 = energies[None, :] - V[:, None]            # (pos, energy)
    srt = np.argsort(zs, kind="stable")
    a = k2[srt] > 0
    run = np.cumsum(a & ~np.vstack([np.zeros_like(a[:1]), a[:-1]]), axis=0)
    n_runs = run[-1]
    ends = a[0].astype(int) + a[-1] - ((n_runs == 1) & a[0] & a[-1])
    if np.any(n_runs > ends):
        raise ConstructionError(
            f"bounded allowed region at energy {energies[n_runs > ends][0]!r}:"
            " a trapped shell, on whose periodic orbits offsets are not unique")
    side = np.empty(a.shape, dtype=int)
    side[srt] = (run > 1) | ~a[0]
    pos, en = np.nonzero(k2 > 0)
    kap = np.sqrt(k2[pos, en])
    lab = 2 * (2 * en + side[pos, en])
    return (np.repeat(zs[pos], 2), np.stack([kap, -kap], axis=-1).reshape(-1),
            np.stack([lab, lab + 1], axis=-1).reshape(-1))


def phase_grid(model, n_x=600, n_interior=80, n_energy=40):
    """Deterministic grid covering supp psi(p) up to x >= 1e-3.

    Positions combine a log grid in x on each end (resolving the collar
    scales) with a linear interior block; at every position the window is
    sampled at n_energy energies and both momentum branches.  Returns
    (z, zeta, shell) with _shell_points' orbit labels."""
    lam2, delta = model.lambda2, model.delta
    offsets = _GRID_INSET * np.linspace(-1.0, 1.0, n_energy)
    xs = np.geomspace(_GRID_X_MIN, 0.999, n_x)
    zs_out = 1.0 / xs
    zs = np.concatenate([-zs_out, np.linspace(-0.999, 0.999, n_interior), zs_out])
    return _shell_points(model, zs, lam2 + delta * offsets)


# ---------------------------------------------------------------------------
# assembled escape function
# ---------------------------------------------------------------------------

@dataclass
class PieceArrays:
    """All piece evaluations on a batch, divided by psi(p)."""

    x: np.ndarray
    tau: np.ndarray
    psi: np.ndarray
    q_minus: np.ndarray
    hp_minus: np.ndarray
    q_plus: np.ndarray
    hp_plus: np.ndarray
    q_circ: np.ndarray
    hp_circ: np.ndarray


@dataclass
class EscapeFunction:
    """q = q_minus + C q_circ + C' q_plus with certified constants and
    batch evaluators.  `grid` holds the construction grid's points as rows
    (z, zeta), and `grid_pieces` the pieces on them."""

    model: object
    eps: float
    constants: BoundaryConstants
    cutoffs: CutoffFamily
    tubes: TubeCollection
    C: float
    C_prime: float
    c2: float
    c3: float
    cascade: Dict[str, float] = field(default_factory=dict)
    grid: Optional[np.ndarray] = None
    grid_pieces: Optional[PieceArrays] = None

    def pieces(self, z, zeta, shell) -> PieceArrays:
        model = self.model
        x, tau = geo.scattering_coords(z, zeta)
        psi = self.cutoffs.psi(geo.symbol_p(model, z, zeta))
        (qm, hm), (qp, hplus) = boundary_pieces(
            model, self.constants, self.cutoffs, self.eps, z, zeta, x, tau)
        qc, hc = eval_q_circ(model, self.tubes, z, zeta, shell)
        return PieceArrays(x=x, tau=tau, psi=psi, q_minus=qm, hp_minus=hm,
                           q_plus=qp, hp_plus=hplus, q_circ=qc, hp_circ=hc)

    def combine(self, pc: PieceArrays):
        """(q/psi, H_p q/psi) from piece arrays."""
        q = pc.q_minus + self.C * pc.q_circ + self.C_prime * pc.q_plus
        hp = pc.hp_minus + self.C * pc.hp_circ + self.C_prime * pc.hp_plus
        return q, hp


def _halve(short, C, stage, worst=None):
    """Halve the constant C while short(C) holds; returns (C, halvings).
    Raises ConstructionError after _MAX_HALVINGS halvings, naming the stage
    and, if given, worst(C)."""
    halvings = 0
    while short(C):
        C *= 0.5
        halvings += 1
        if halvings > _MAX_HALVINGS:
            where = f"; worst at {worst(C)}" if worst else ""
            raise ConstructionError(f"{stage}-stage cascade exhausted{where}")
    return C, halvings


def assemble_escape(model, eps, verdict) -> EscapeFunction:
    """Build the escape function by the halving cascade.

    eps must lie in (0, 1/4).  Non-trapping is a precondition: `verdict`
    is the model's flow.nontrapping_scan result, and a trapping verdict is
    rejected.  The cascade floors are measured on a construction grid;
    verify_proposition re-certifies on the finer verification grid.
    """
    if not 0.0 < eps < 0.25:
        raise ConfigurationError(
            f"escape weight eps must lie in (0, 1/4), got {eps}"
        )
    if not verdict.is_nontrapping_empirical:
        raise ConstructionError(
            f"model is empirically trapping "
            f"({len(verdict.trapped_witnesses)} witnesses); no escape function"
        )
    consts = boundary_constants(model)
    cutoffs = build_cutoffs(model.lam, model.delta)
    tubes = build_tubes(model, consts)

    z, zeta, shell = phase_grid(model, n_x=220, n_interior=40, n_energy=14)
    esc = EscapeFunction(model=model, eps=eps, constants=consts,
                         cutoffs=cutoffs, tubes=tubes,
                         C=1.0, C_prime=1.0, c2=0.0, c3=0.0)
    pc = esc.pieces(z, zeta, shell)
    x, tau = pc.x, pc.tau
    lam = model.lam
    x0 = consts.x0
    wm = x ** (-1.0 + eps)
    ws = x ** (-1.0 - eps)
    A_minus = -wm * pc.hp_minus
    A_circ = -wm * pc.hp_circ
    A_plus = -ws * pc.hp_plus

    D1 = (x <= 0.5 * x0) & (tau >= 2.0 * lam / 3.0)
    D2pos = (x >= 0.5 * x0) | D1
    D3 = (x <= 0.5 * x0) & (tau <= -2.0 * lam / 3.0)

    if not np.any(D1):
        raise ConstructionError("construction grid misses the incoming collar")
    c2 = float(np.min(A_minus[D1]))
    if c2 <= 0:
        raise ConstructionError(f"incoming floor c2 = {c2:.3g} <= 0")
    c3 = float(np.min(A_plus[D3])) if np.any(D3) else math.inf

    cascade = {"c2": c2, "c3": c3}

    C, cascade["halvings_C"] = _halve(
        lambda C: np.min(A_minus[D1] + C * A_circ[D1]) < 0.5 * c2,
        1.0, "tube",
        worst=lambda C: z[D1][np.argsort(A_minus[D1] + C * A_circ[D1])[:8]])

    floor2 = float(np.min(A_minus[D2pos] + C * A_circ[D2pos]))
    if floor2 <= 0:
        worst = np.argmin(A_minus[D2pos] + C * A_circ[D2pos])
        raise ConstructionError(
            "no positive floor on the covered region after the tube stage "
            f"(floor {floor2:.3g}); covering margin too thin near "
            f"{z[D2pos][worst]}"
        )
    cascade["floor2"] = floor2

    # final stage: the outgoing piece enters with the stronger weight
    base = x ** (-2.0 * eps) * (A_minus + C * A_circ)
    Cp, cascade["halvings_Cp"] = _halve(
        lambda Cp: np.min(base + Cp * A_plus) <= 0.0, 1.0, "outgoing")
    cascade["c_dprime_construction"] = float(np.min(base + Cp * A_plus))

    esc.C, esc.C_prime, esc.c2, esc.c3 = C, Cp, c2, c3
    esc.cascade = cascade
    esc.grid, esc.grid_pieces = _phase_state(z, zeta), pc
    return esc


# ---------------------------------------------------------------------------
# the final certificate
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    c_prime: float
    c_dprime: float
    b_floor: float
    n_points: int
    witnesses: List[np.ndarray]

    @property
    def passed(self):
        return self.c_prime > 0 and self.c_dprime > 0 and self.b_floor > 0


def verify_proposition(esc: EscapeFunction, n_x=600, n_interior=80,
                       n_energy=40) -> VerifyReport:
    """Largest constants with q >= c' x^eps psi(p) and
    -H_p q >= c'' x^{1+eps} psi(p) at every grid point, plus the quadratic
    form b = -2 q H_p q / psi^2 >= b_floor x^{1+2 eps} where psi > 1/2.

    The default grid has >= 1e5 points over supp psi(p) down to x = 1e-3.
    """
    z, zeta, shell = phase_grid(esc.model, n_x=n_x, n_interior=n_interior,
                                n_energy=n_energy)
    pc = esc.pieces(z, zeta, shell)
    q, hp = esc.combine(pc)
    x = pc.x
    eps = esc.eps
    ratio_q = q / x**eps
    ratio_h = -hp / x ** (1.0 + eps)
    c_prime = float(np.min(ratio_q))
    c_dprime = float(np.min(ratio_h))
    plateau_mask = pc.psi > 0.5
    b = 2.0 * q * (-hp)
    b_floor = float(np.min(b[plateau_mask] / x[plateau_mask] ** (1.0 + 2 * eps),
                           initial=math.inf))
    witnesses = [_phase_state(z[i], zeta[i])
                 for c, ratio in ((c_prime, ratio_q), (c_dprime, ratio_h))
                 if c <= 0 for i in np.argsort(ratio)[:8]]
    return VerifyReport(
        c_prime=c_prime, c_dprime=c_dprime, b_floor=b_floor,
        n_points=int(z.size), witnesses=witnesses,
    )
