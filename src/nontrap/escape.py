"""Construction and grid certification of an escape function.

Given a non-trapping model (geometry.trapping_verdict), this module
assembles

    q = q_minus + C q_circ + C' q_plus,

where the boundary pieces are x^{-+eps} chi(tau) psi(p) rho(x/x0) localized
to the incoming (tau > lam/3) and outgoing (tau < -lam/3) bands near
infinity, and q_circ = psi(p) (F + T_K + 1) averages the flow over the
compact region: with chi(z) = 1 on |z| <= 2/x0 and 0 on |z| >= 4/x0, F is
the chi-weighted time an orbit spends ahead of a point minus the time
behind it, so -H_p F = 2 chi wherever the orbit leaves supp chi both ways
(non-trapping), and T_K bounds |F| (dwell_times, dwell_bound).  In 1D an
orbit is a level set zeta = +-sqrt(E - V), so F is one cumulative
Gauss-Legendre quadrature of chi / (2 sqrt(E - V)) dz per orbit label,
substituted z = z_t -+ u^2 next to a turning point z_t.  The two constants
are chosen by a halving cascade so that q >= 0 everywhere and -H_p q
admits a positive weighted floor; the final certificate

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

build_tubes and eval_q_circ (with their orbit store and covering check)
build a q_circ from flow tubes covering the compact region instead; no
command runs them, and their tests pin them until they are deleted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

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
_PAIR_CHUNK = 2**12     # (crossing, member) pairs per chunk of the q_circ pass,
                        # and chart points per chunk of the tube sweep
_NEWTON_TOL = 1e-11     # crossing residual bound, relative to 1 + |level|
_NEWTON_MAX = 12        # Newton steps allowed per crossing
_GRID_X_MIN = 1e-3      # innermost x of the phase-space grids
_GRID_INSET = 0.999     # energies sampled within this fraction of the window
_CONSTRUCTION_GRID = (220, 40, 14)  # phase_grid sizes of the cascade's grid
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


@dataclass(frozen=True)
class Tubes:
    """The tube family, tube j in row j.  Tube j is a transversal disc
    through seed[j] swept by the backward flow over (-1, T[j]+2).

    The transversal line is spanned by the energy gradient (grad p is
    orthogonal to H_p), and the disc must stay inside the escaping-energy
    region, so its radius along grad p is sized by the window width.
    level and band are fixed at construction: the transversal is
    {y . normal = level}, and p on the disc lies in band."""

    seed: np.ndarray          # (n, 2) phase-space points (z, zeta)
    normal: np.ndarray        # (n, 2) unit H_p directions at the seeds
    u_p: np.ndarray           # (n, 2) unit grad p directions at the seeds
    radius: np.ndarray        # (n,) disc radii along u_p
    T: np.ndarray             # (n,)
    level: np.ndarray         # (n,) seed . normal
    band: np.ndarray          # (n, 2) energies of the sampled disc, padded

    def __len__(self):
        return self.T.size


@dataclass
class CoveringReport:
    n_test: int
    n_uncovered: int
    uncovered: List[np.ndarray]


@dataclass
class TubeCollection:
    tubes: Tubes
    covering: CoveringReport
    reach: float    # largest padded |z| of the sampled tube sweeps
    # (q_circ/psi, H_p q_circ/psi) on the grid build_tubes was given
    grid_q_circ: Tuple[np.ndarray, np.ndarray]


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


def _unit(v):
    """The rows of v (n, 2) scaled to unit length.  np.vecdot takes each
    row's dot product as np.linalg.norm does for one vector, so every row
    is the one-vector result bit for bit (an axis=1 norm is not)."""
    return v / np.sqrt(np.vecdot(v, v))[:, None]


def _disc_points(seed, u_p, radius):
    """(n, 5, 2) samples of each transversal disc: the seed, and half and
    full radius either way along u_p."""
    half, full = (0.5 * radius)[:, None] * u_p, radius[:, None] * u_p
    return seed[:, None] + np.stack([np.zeros_like(half), half, -half, full,
                                     -full], axis=1)


def build_tubes(model, consts, T_max=500.0, grid=None) -> TubeCollection:
    """Tubes along backward bicharacteristic segments seeded on a grid of K.

    For every seed at once: a transversal line normal to H_p, a disc along
    grad p whose half-size images cover K (certified on a 2x finer test
    grid), and one backward sweep of every disc point (_sweep_tubes) that
    gives T from the seed's first certified incoming time (inflated for the
    slowest disc member) and certifies on the same samples that the late
    tube portion [T+1/2, T+2] stays inside {x < x0/2, tau > 2 lam/3},
    extending T where it does not.  The family is built once, as Tubes,
    after the sweep has fixed T.

    grid = (z, zeta, shell) (phase_grid's output) rides on the covering
    check's q_circ pass, so the accepted family's pass also gives q_circ on
    the grid (grid_q_circ), bit for bit as eval_q_circ would as long as the
    grid's orbits and the covering shells' orbits reach their farthest
    members within the same number of _ORBIT_SEGMENT flow segments (true of
    the shipped presets).  A covering that fails refines the seed spacing
    and sweeps again.
    """
    # a seed spacing of at least 1, and coarser for a wide collar, keeps
    # the tube count roughly collar-independent
    spacing = max(1.0, (4.0 / consts.x0) / 40.0)
    for _ in range(_MAX_REFINE + 1):
        z_s, zeta_s = _k_region_seeds(model, consts, spacing)
        if not z_s.size:
            raise ConstructionError("no seeds found on K; check the window")
        kappa = np.abs(zeta_s)
        radius = np.full(z_s.size, _MOM_FACTOR * model.delta / kappa.min())
        dz, dzeta = geo.hamilton_field(model, z_s, zeta_s)
        seed, normal = _phase_state(z_s, zeta_s), _unit(_phase_state(dz, dzeta))
        # grad p = (-zetadot, zdot) spans the transversal
        u_p = _unit(_phase_state(-dzeta, dz))
        disc = _disc_points(seed, u_p, radius)
        # the slowest disc member (lowest shell energy on the disc) lags
        # the center trajectory; size the segment for it
        grow = 1.0 + 2.0 * _MOM_FACTOR * model.delta / kappa**2
        T, reach = _sweep_tubes(model, consts, disc, radius, grow, T_max)
        p = geo.symbol_p(model, *disc.reshape(-1, 2).T).reshape(-1, 5)
        pad = 0.1 * np.ptp(p, axis=1)
        band = np.stack([p.min(axis=1) - pad, p.max(axis=1) + pad], axis=1)
        tubes = Tubes(seed=seed, normal=normal, u_p=u_p, radius=radius, T=T,
                      level=_project(seed, normal), band=band)
        report, q_circ = _certify_covering(model, tubes, reach, consts,
                                           spacing, grid)
        if report.n_uncovered == 0:
            return TubeCollection(tubes=tubes, covering=report, reach=reach,
                                  grid_q_circ=q_circ)
        spacing *= 0.5
    raise ConstructionError(
        f"tube covering failed after {_MAX_REFINE} refinements: "
        f"{report.n_uncovered} uncovered test points, first few "
        f"{[u.tolist() for u in report.uncovered[:3]]}"
    )


def _sweep_tubes(model, consts, disc, radius, grow, T_max):
    """One backward flow of every disc point (disc: _disc_points, seed
    first), as (z, -zeta) forward through flow_segments at INCOMING_DT.
    Returns (T, reach).

    The seeds' samples feed the incoming rule (flow.IncomingTimes), so
    T_in is time_to_incoming's bit for bit (a column's samples do not
    depend on the batch) whenever time_to_incoming's last, shorter segment
    also steps by INCOMING_DT, as at T_max = 500; then T = T_in grow + 1/2.
    On the same samples, once a tube's five columns reach the first sample
    at or past T + 2.2, its late window [T + 1/2, T + 2] must lie inside
    {x < x0/2, tau > 2 lam/3} at every sample: the tube then retires with
    its z range up to that sample; otherwise T grows by max(1, T/10) and
    the tube flows on.  reach R is the largest |z| of the sweeps, each
    tube's range padded by radius/4 + 5% of its end magnitudes.

    A seed without an incoming time by T_max raises time_to_incoming's
    IntegrationError; else a tube still failing after _MAX_EXTEND
    extensions raises ConstructionError.

    Streamed: only the running z ranges, the last 2 time units of late
    flags (where every carried tube's next window starts) and the incoming
    rule's recent history outlive a segment."""
    n = radius.size
    incoming = fl.IncomingTimes(n, consts.x0 / 2.0, 2.0 * model.lam / 3.0,
                                T_max)
    T, extended = np.full(n, np.nan), np.zeros(n, dtype=int)
    lo, hi = np.full(n, np.inf), np.full(n, -np.inf)
    failed = np.zeros(n, dtype=bool)
    t_late, ok_late = np.empty(0), np.zeros((0, n), dtype=bool)

    def inside(z3, c3, want):
        """(sample, tube) flags on the pairs in want: every disc point of z3
        inside, _PAIR_CHUNK points at a time (bounds the chart's
        temporaries)."""
        ok = np.zeros(want.shape, dtype=bool)
        k, i = np.nonzero(want)
        per = _PAIR_CHUNK // z3.shape[2]
        for a in range(0, k.size, per):
            ka, ia = k[a:a + per], i[a:a + per]
            ok[ka, ia] = incoming.inside(z3[ka, ia].ravel(), c3[ka, ia].ravel()
                                         ).reshape(ka.size, -1).all(axis=1)
        return ok

    def visit(rows, ts, zs, cs):
        nonlocal t_late, ok_late
        j = rows[::5] // 5  # live columns come in whole tubes
        z3, c3 = (a.reshape(ts.size, j.size, 5) for a in (zs, cs))
        new = np.isnan(T[j])
        seeds = inside(z3[..., :1], c3[..., :1],
                       np.broadcast_to(new, z3.shape[:2]))
        gone = np.zeros(j.size, dtype=bool)
        gone[new] = incoming.visit(j[new], ts, seeds[:, new])
        T[j[new]] = incoming.T_in[j[new]] * grow[j[new]] + 0.5
        out = gone & np.isnan(T[j])  # never timed
        # the late windows of the tubes whose first sample at or past T + 2.2
        # has come, each read from the carried flags and this segment's
        t = np.concatenate([t_late, ts])
        Tj = T[j]
        due = ts[-1] >= Tj + 2.2
        while due.any():
            win = (due & (t[:, None] >= Tj + 0.5)
                   & (t[:, None] <= Tj + 2.0 + 1e-9))
            ok = np.concatenate([ok_late[:, j],
                                 inside(z3, c3, win[t_late.size:])])
            bad = due & (win & ~ok).any(axis=0)
            out |= due & ~bad
            extended[j[bad]] += 1
            spent = bad & (extended[j] > _MAX_EXTEND)
            failed[j[spent]], out[spent] = True, True
            retry = bad & ~spent
            Tj[retry] += np.maximum(1.0, 0.1 * Tj[retry])  # retry longer
            due = retry & (ts[-1] >= Tj + 2.2)
        T[j] = Tj
        # z ranges up to the first sample at or past T + 2.2 of the tubes
        # certified here, over the whole segment for the rest
        cut = np.where(out, np.searchsorted(ts, Tj + 2.2), ts.size - 1)
        swept = np.repeat(np.arange(ts.size)[:, None] <= cut, 5, axis=1)
        # column by column, then over each disc (a masked reduction over
        # both axes of z3 copies it)
        lo[j] = np.minimum(lo[j], zs.min(axis=0, where=swept, initial=np.inf
                                         ).reshape(-1, 5).min(axis=1))
        hi[j] = np.maximum(hi[j], zs.max(axis=0, where=swept, initial=-np.inf
                                         ).reshape(-1, 5).max(axis=1))
        # a tube flowing on has its next window within the last 2 time units
        # (T + 0.5 > ts[-1] - 1.7; untimed, T_in > ts[-1] - 2), which lie in
        # this segment: segments are longer than 2
        recent = ts >= ts[-1] - 2.0
        t_late, ok_late = ts[recent], np.zeros((recent.sum(), n), dtype=bool)
        ok_late[:, j] = inside(z3, c3, recent[:, None] & ~out)[recent]
        return np.repeat(out, 5)

    z, zeta = disc.reshape(-1, 2).T
    fl.flow_segments(model, z, -zeta, np.inf, fl.INCOMING_DT, visit)
    incoming.result(disc[:, 0, 0], disc[:, 0, 1])
    if failed.any():
        raise ConstructionError(
            f"late tube portion not disjoint from K' after extending T to "
            f"{float(T[np.argmax(failed)])}; increase the time margin")
    pad = 0.25 * radius + 0.05 * (np.abs(lo) + np.abs(hi))
    return T, float(np.max(np.abs([lo - pad, hi + pad]), initial=0.0))


def _certify_covering(model, tubes: Tubes, reach, consts, spacing,
                      grid=None):
    """Every point of a 2x finer K grid at three energies of the window must
    cross some tube in its interior zone (_COVER_ZONE): disc distance
    <= 1/2 and t in [-_T_COV, T_j + 0.6], where the time cutoff has slope
    one.  The test points join the grid points (z, zeta, shell), if any,
    in one _q_circ_pass, labelled past the grid's labels.  Returns
    (CoveringReport, (q_circ/psi, H_p q_circ/psi) on the grid)."""
    energies = model.lambda2 + model.delta * np.array([-0.9, 0.0, 0.9])
    test = _shell_points(model, _k_axis(consts, 0.5 * spacing), energies)
    n = 0 if grid is None else grid[0].size
    z, zeta, shell = test if grid is None else _join_points(grid, test)
    qv, hp, covered = _q_circ_pass(model, tubes, reach, z, zeta, shell, n)
    bad = n + np.flatnonzero(~covered)
    uncovered = [_phase_state(z[i], zeta[i]) for i in bad[:16]]
    return CoveringReport(n_test=covered.size, n_uncovered=int(bad.size),
                          uncovered=uncovered), (qv, hp)


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
    qv, hp, _ = _q_circ_pass(model, coll.tubes, coll.reach, z, zeta, shell,
                             z.size)
    return qv, hp


def _q_circ_pass(model, tb: Tubes, reach, z, zeta, shell, n_grid):
    """One _tube_passes pass in _SUPPORT_ZONE over a batch whose first
    n_grid points are grid points and the rest covering test points (no
    orbit shared between the two): (q_circ/psi, H_p q_circ/psi) on the grid
    points, summed as eval_q_circ describes, and whether each test point
    has a crossing inside _COVER_ZONE."""
    qv, hp = np.zeros(n_grid), np.zeros(n_grid)
    covered = np.zeros(z.size - n_grid, dtype=bool)
    w_lo, w_hi, sigma_max = _COVER_ZONE
    phi_shape = falling_step(0.5, 1.0)
    for j, i, t, sigma in _tube_passes(model, tb, reach, z, zeta, shell):
        g = i < n_grid
        phi = phi_shape(sigma[g])
        chi, chi_d = _chi_tube(t[g], tb.T[j[g]])
        np.add.at(qv, i[g], chi * phi)
        np.add.at(hp, i[g], -chi_d * phi)
        inside = (~g & (t >= w_lo) & (t <= tb.T[j] + w_hi)
                  & (sigma <= sigma_max))
        covered[i[inside] - n_grid] = True
    return qv, hp, covered


def _tube_passes(model, tb: Tubes, reach, z, zeta, shell):
    """Chunks (j, i, t, sigma): the points i crossing the transversal of
    tube j at time t and disc distance sigma, inside _SUPPORT_ZONE.  One
    pass finds every tube's crossings (_crossings); the chunks follow its
    order (tube, then orbit, then crossing time), so each point meets its
    crossings tube by tube, then in time order.  Members of a crossing's
    orbit are found by binary search over the keys o W + s (orbit o,
    offset s), then tested exactly on t = t_c - s; a chunk expands at most
    _PAIR_CHUNK of these (crossing, member) pairs, or one crossing's
    members.

    p is conserved, so only orbits at an energy of a tube's disc (tb.band)
    can cross it: orbits outside every tube's band are not flowed, and a
    tube keeps only crossings on its own."""
    w_lo, w_hi, sigma_max = _SUPPORT_ZONE
    t_tail = float(tb.T.max()) + w_hi + 0.1
    store = _shell_orbits(model, z, zeta, shell, reach, w_lo - 0.1, t_tail,
                          tb.band, _stop_radius(model, tb))
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


def _near_radius(tb: Tubes):
    """Distance from each seed within which a crossing's bracketing sample
    must lie to be refined (_crossings' prefilter)."""
    return tb.radius * 1.5 + 0.2


def _stop_radius(model, tb: Tubes):
    """Escape radius past which no orbit can cross a tube near its seed:
    the larger of the model's escape radius and the largest |z| within
    _near_radius of a seed."""
    return float(np.max(np.abs(tb.seed[:, 0]) + _near_radius(tb),
                        initial=model.escape_radius))


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
    above r_stop from there on), at most t_tail further (r_stop = inf: the
    whole t_tail, with no certificate to test).
    s >= 0 is when d z first reaches d z_i: bracketed by the first such
    sample, refined on z = z_i (_PAIR_CHUNK members at a time).
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

    stop = escaped if np.isfinite(r_stop) else None
    t, far, tail = 0.0, dr * z[rep], False
    while not tail:
        tail = not np.any(far < target)
        span, until = (t_tail, stop) if tail else (_ORBIT_SEGMENT, None)
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
    K = np.empty(mem.size, dtype=np.intp)
    for o, (a, b) in enumerate(zip(first, np.append(first[1:], mem.size))):
        run = np.maximum.accumulate(comps[0][o, k0:] * dr[o])
        K[a:b] = np.searchsorted(run, dr[o] * zl[mem[a:b]])
    # _PAIR_CHUNK members at a time (a member's result is batch-independent)
    # bound the refinement's temporaries
    s = np.concatenate([
        _refine_crossings(model, ts, comps, k0 + np.maximum(K[c] - 1, 0),
                          orb[c], (1.0, 0.0), zl[mem[c]])[0]
        for c in (slice(a, a + _PAIR_CHUNK)
                  for a in range(0, mem.size, _PAIR_CHUNK))])
    srt = np.argsort(s, kind="stable")
    srt = srt[np.argsort(orb[srt], kind="stable")]
    return ts, comps, live[mem[srt]], orb[srt], s[srt]


def _crossings(model, ts, comps, tb: Tubes, w_lo, w_hi, sigma_max):
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
            f"bounded allowed region at energy "
            f"{float(energies[n_runs > ends][0])!r}:"
            " a trapped shell, on whose periodic orbits offsets are not unique")
    side = np.empty(a.shape, dtype=int)
    side[srt] = (run > 1) | ~a[0]
    pos, en = np.nonzero(k2 > 0)
    kap = np.sqrt(k2[pos, en])
    lab = 2 * (2 * en + side[pos, en])
    return (np.repeat(zs[pos], 2), np.stack([kap, -kap], axis=-1).reshape(-1),
            np.stack([lab, lab + 1], axis=-1).reshape(-1))


def _join_points(*batches):
    """One (z, zeta, shell) batch from several, each batch's labels offset
    past those of the batches before it, so that no orbit is shared."""
    shells, off = [], 0
    for _, _, shell in batches:
        shells.append(shell + off)
        off += int(shell.max()) + 1 if shell.size else 0
    return (np.concatenate([b[0] for b in batches]),
            np.concatenate([b[1] for b in batches]), np.concatenate(shells))


def phase_grid(model, n_x=600, n_interior=80, n_energy=40):
    """Deterministic grid covering supp psi(p) up to x >= 1e-3.

    Positions combine a log grid in x on each end (resolving the collar
    scales) with a linear interior block; at every position the window is
    sampled at n_energy energies and both momentum branches.  Returns
    (z, zeta, shell) with _shell_points' orbit labels."""
    xs = np.geomspace(_GRID_X_MIN, 0.999, n_x)
    zs_out = 1.0 / xs
    zs = np.concatenate([-zs_out, np.linspace(-0.999, 0.999, n_interior), zs_out])
    return _shell_points(model, zs, _grid_energies(model, n_energy))


def _grid_energies(model, n_energy):
    """The n_energy energies phase_grid samples the window at."""
    offsets = _GRID_INSET * np.linspace(-1.0, 1.0, n_energy)
    return model.lambda2 + model.delta * offsets


def check_constructible(model):
    """Raise ConfigurationError when the escape stage cannot run on the
    model, whatever its flow: a window with delta >= 0.1875 lambda2, where
    the band bound c1 of boundary_constants is not positive (a closed form),
    or a collar x <= x0/2 that lies beyond the phase-space grids' innermost
    x = _GRID_X_MIN, so that no grid point is an incoming collar point."""
    lam2, delta = model.lambda2, model.delta
    if (15.0 / 64.0) * lam2 - 1.25 * delta <= 0.0:
        raise ConfigurationError(
            f"delta = {delta!r} >= 0.1875 lambda2 = {0.1875 * lam2!r}: the "
            "escape function's band bound c1 is not positive; reduce delta")
    x0 = boundary_constants(model).x0
    if 0.5 * x0 < _GRID_X_MIN:
        raise ConfigurationError(
            f"collar width x0 = {x0:.3g}: the incoming collar starts at "
            f"|z| = 2/x0 = {2.0 / x0:.6g}, beyond the phase-space grids' "
            f"reach |z| = {1.0 / _GRID_X_MIN:.6g}; the potential decays too "
            "slowly (raise gamma)")


# ---------------------------------------------------------------------------
# q_circ by flow averaging: chi-weighted dwell times along the orbits
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_ASINH_STEP = 0.5       # breakpoint steps in asinh(z) off the fall of chi
_FALL_PANELS = 8        # panels across each fall of chi
_PANEL_CHUNK = 2048     # panels of 16 nodes evaluated together


def dwell_cutoff(consts) -> SmoothFn:
    """chi as a function of |z|: 1 on |z| <= 2/x0, where every boundary
    piece's rho(x/x0) may fall, and 0 on |z| >= 4/x0."""
    return falling_step(2.0 / consts.x0, 4.0 / consts.x0)


def _breakpoints(model, consts):
    """Sorted positions z: uniform in asinh(z) (steps <= _ASINH_STEP) on
    |z| <= 2/x0 and from 4/x0 out to the escape radius, and _FALL_PANELS
    even steps across each fall of chi.  The ones in supp chi are the
    quadrature's panel ends; all of them bracket the turning points."""
    r1, r2 = 2.0 / consts.x0, 4.0 / consts.x0

    def asinh_steps(a, b):
        n = max(1, math.ceil((math.asinh(b) - math.asinh(a)) / _ASINH_STEP))
        pts = np.sinh(np.linspace(math.asinh(a), math.asinh(b), n + 1))
        pts[-1] = b
        return pts

    pos = [asinh_steps(0.0, r1), np.linspace(r1, r2, _FALL_PANELS + 1)[1:]]
    if model.escape_radius > r2:
        pos.append(asinh_steps(r2, model.escape_radius)[1:])
    pos = np.concatenate(pos)
    return np.concatenate([-pos[:0:-1], pos])


def _bisect(model, E, out, inn):
    """The allowed end of each bracket [out, inn] of V = E (V(out) >= E >
    V(inn)), halved until no float lies inside."""
    while True:
        mid = out + 0.5 * (inn - out)
        live = (mid != out) & (mid != inn)
        if not live.any():
            return inn
        high = model.potential.value(mid) >= E
        out = np.where(live & high, mid, out)
        inn = np.where(live & ~high, mid, inn)


def _turning_points(model, grid, v_grid, E, z):
    """(a, b): the ends of the allowed interval {V < E} around each z
    (V(z) < E), each the root of V = E bracketed by the last forbidden
    point of grid on that side and bisected, or -inf / inf where grid has
    no forbidden point on that side (past the escape radius no window orbit
    turns back).  A root between two grid points that share a side is not
    seen."""
    idx = np.arange(grid.size)
    forbidden = v_grid >= E[:, None]
    before = idx < np.searchsorted(grid, z)[:, None]
    after = idx >= np.searchsorted(grid, z, "right")[:, None]
    left = np.max(np.where(forbidden & before, idx, -1), axis=1)
    right = np.min(np.where(forbidden & after, idx, grid.size), axis=1)
    ext = np.concatenate([[-np.inf], grid, [np.inf]])  # ext[k + 1] = grid[k]
    a, b = np.full(z.size, -np.inf), np.full(z.size, np.inf)
    i = np.flatnonzero(left >= 0)
    a[i] = _bisect(model, E[i], grid[left[i]],
                   np.minimum(ext[left[i] + 2], z[i]))
    i = np.flatnonzero(right < grid.size)
    b[i] = _bisect(model, E[i], grid[right[i]],
                   np.maximum(ext[right[i]], z[i]))
    return a, b


def _panel_integrals(model, consts, E, a, b, anchored):
    """The integral of w = chi(|z|) / (2 sqrt(E - V(z))) from a to b on each
    panel, by 16-point Gauss-Legendre.  A panel anchored at a turning point
    a is integrated in u, z = a + sign(b - a) u^2, where the integrand
    chi u / sqrt(E - V) is smooth."""
    s = np.sign(b - a)[:, None]
    half = 0.5 * np.where(anchored, np.sqrt(np.abs(b - a)), b - a)[:, None]
    t = half * (1.0 + _GL_NODES)
    anc = anchored[:, None]
    z = a[:, None] + np.where(anc, s * t * t, t)
    gap = E[:, None] - model.potential.value(z)
    if not np.all(gap > 0.0):
        raise ConstructionError(
            "V >= E between the turning points bracketed on the breakpoints: "
            "a barrier narrower than their spacing")
    vals = np.where(anc, 2.0 * s * t, 1.0) / (2.0 * np.sqrt(gap))
    fall = np.abs(z) > 2.0 / consts.x0     # chi = 1 elsewhere
    vals[fall] *= dwell_cutoff(consts)(np.abs(z[fall]))
    return half[:, 0] * (vals * _GL_WEIGHTS).sum(axis=1)


def dwell_times(model, consts, z, zeta, shell):
    """(F, total) at each point of a batch labelled by orbit (shell, as
    phase_grid gives it; np.arange(z.size) makes each point its own orbit).

    F is the chi-weighted time the point's orbit spends ahead of it minus
    the time behind it, total the orbit's whole chi-weighted time, so
    |F| <= total and, where the orbit leaves supp chi both ways,
    -H_p F = 2 chi.  On the allowed interval (a, b) around the orbit (ends
    at turning points, else at infinity; r_a, r_b = 1 at a turning point),
    with W(z) = int_a^z chi / (2 sqrt(E - V)) and Wt = W(b):

        F = sign(zeta) (Wt (1 + r_b - r_a) - 2 W(z)),
        total = Wt (1 + r_a + r_b).

    Each label's energy and interval are its first member's.  W is one
    cumulative quadrature per label, over fixed panels between its interval
    and _breakpoints (a panel ending at a turning point at least half a
    grid step long), and from a member's panel start to the member.  A
    label's results depend on its own members only.  Labels go through
    _PANEL_CHUNK panels at a time, members _PANEL_CHUNK at a time.

    A point with zeta^2 = 0 to rounding sits at its turning point, where
    F = 0.  A bounded allowed interval is a trapped orbit: at a window
    energy it raises ConstructionError, and off the window, where psi(p)
    vanishes, its points keep F = total = 0."""
    z, zeta = geo.as_batch(z, zeta)
    grid = _breakpoints(model, consts)
    v_grid = model.potential.value(grid)
    r2 = 4.0 / consts.x0
    B = grid[np.abs(grid) <= r2]
    V = model.potential.value(z)
    p = zeta**2 + V
    F, total = np.zeros(z.size), np.zeros(z.size)
    live = np.flatnonzero(V < p)
    order = live[np.argsort(shell[live], kind="stable")]
    first = np.flatnonzero(np.diff(shell[order], prepend=-np.inf))
    ends = np.append(first[1:], order.size)
    per = max(1, _PANEL_CHUNK // B.size)  # a label has < B.size panels
    for c in range(0, first.size, per):
        starts, stops = first[c:c + per], ends[c:c + per]
        anchor = order[starts]
        E = p[anchor]
        a, b = _turning_points(model, grid, v_grid, E, z[anchor])
        bounded = np.isfinite(a) & np.isfinite(b)
        window = np.abs(E - model.lambda2) <= model.delta
        if np.any(bounded & window):
            k = np.argmax(bounded & window)
            raise ConstructionError(
                f"bounded allowed region ({float(a[k])!r}, {float(b[k])!r}) "
                f"at energy {float(E[k])!r}: a trapped orbit, whose dwell "
                "time is infinite")
        lo, hi = np.maximum(a, -r2), np.minimum(b, r2)
        t_lo, t_hi = a > -r2, b < r2    # an end at a turning point
        j1 = np.searchsorted(B, lo, "right")
        j2 = np.searchsorted(B, hi, "left")
        # a u-panel spans at least half the grid step it starts in (B[j1 - 1]
        # <= lo < B[j1] and B[j2 - 1] < hi <= B[j2] where j1 < j2)
        nxt, prv = B[np.minimum(j1, B.size - 1)], B[j2 - 1]
        j1 = j1 + (t_lo & (j1 < j2) & (nxt - lo < 0.5 * (nxt - B[j1 - 1])))
        j2 = j2 - (t_hi & (j1 < j2) & (hi - prv < 0.5 * (B[j2] - prv)))
        n = np.where((lo < hi) & ~bounded, j2 - j1 + 1, 0)
        # the labels' panels, label by label
        lab, k = _ranges(np.zeros_like(n), n)
        last = k == n[lab] - 1
        left = np.where(k == 0, lo[lab], B[j1[lab] + k - 1])
        right = np.where(last, hi[lab], B[j1[lab] + k])
        anc_lo, anc_hi = (k == 0) & t_lo[lab], last & t_hi[lab]
        P = np.where(anc_hi, -1.0, 1.0) * _panel_integrals(
            model, consts, E[lab], np.where(anc_hi, right, left),
            np.where(anc_hi, left, right), anc_lo | anc_hi)
        cum = np.zeros((starts.size, int(n.max(initial=0)) + 1))
        cum[lab, k + 1] = P
        cum = np.cumsum(cum, axis=1)    # cum[i, k]: W at label i's edge k
        Wt = cum[np.arange(starts.size), n]
        r_a, r_b = np.isfinite(a), np.isfinite(b)
        for m0 in range(starts[0], stops[-1], _PANEL_CHUNK):
            m = np.arange(m0, min(m0 + _PANEL_CHUNK, stops[-1]))
            i = np.searchsorted(starts, m, "right") - 1
            pts, i = order[m[n[i] > 0]], i[n[i] > 0]
            zc = np.clip(z[pts], lo[i], hi[i])
            k = np.clip(np.searchsorted(B, zc, "right") - j1[i], 0, n[i] - 1)
            anc_lo = (k == 0) & t_lo[i]
            anc_hi = (k == n[i] - 1) & t_hi[i] & ~anc_lo
            start = np.where(anc_hi, hi[i],
                             np.where(k == 0, lo[i], B[j1[i] + k - 1]))
            W = cum[i, k + anc_hi] + _panel_integrals(
                model, consts, E[i], start, zc, anc_lo | anc_hi)
            F[pts] = np.sign(zeta[pts]) * (
                Wt[i] * (1.0 + r_b[i] - r_a[i]) - 2.0 * W)
            total[pts] = Wt[i] * (1.0 + r_a[i] + r_b[i])
    return F, total


def dwell_bound(model, consts):
    """T_K: the largest total chi-weighted time (dwell_times) over the
    orbits at the construction grid's energies and both window edges, one
    orbit per allowed run of _breakpoints at each energy."""
    energies = np.append(_grid_energies(model, _CONSTRUCTION_GRID[2]),
                         model.lambda2 + model.delta * np.array([-1.0, 1.0]))
    z, zeta, shell = _shell_points(model, _breakpoints(model, consts),
                                   energies)
    rep = np.unique(shell, return_index=True)[1]
    _, total = dwell_times(model, consts, z[rep], zeta[rep], shell[rep])
    return float(np.max(total, initial=0.0))


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

    def split(self, n):
        """The pieces of the first n points and of the rest."""
        def part(sl):
            return PieceArrays(**{f.name: getattr(self, f.name)[sl]
                                  for f in fields(self)})
        return part(slice(None, n)), part(slice(n, None))


@dataclass
class EscapeFunction:
    """q = q_minus + C q_circ + C' q_plus with certified constants and
    batch evaluators.  q_circ/psi = F + T_K + 1 with F from dwell_times, so
    q_circ/psi >= 1 where |F| <= T_K, and H_p q_circ/psi = -2 chi(|z|)
    (dwell_cutoff).  `grid` holds the construction grid's points as rows
    (z, zeta), and `grid_pieces` the pieces on them; `verify_grid` and
    `verify_pieces` do the same for the verification grid of sizes
    `verify_sizes` (n_x, n_interior, n_energy) when assemble_escape was
    given them."""

    model: object
    eps: float
    constants: BoundaryConstants
    cutoffs: CutoffFamily
    T_K: float
    C: float
    C_prime: float
    c2: float
    c3: float
    cascade: Dict[str, float] = field(default_factory=dict)
    grid: Optional[np.ndarray] = None
    grid_pieces: Optional[PieceArrays] = None
    verify_sizes: Optional[Tuple[int, int, int]] = None
    verify_grid: Optional[np.ndarray] = None
    verify_pieces: Optional[PieceArrays] = None

    def pieces(self, z, zeta, shell) -> PieceArrays:
        """The pieces on a batch labelled by orbit (dwell_times)."""
        model, consts = self.model, self.constants
        x, tau = geo.scattering_coords(z, zeta)
        psi = self.cutoffs.psi(geo.symbol_p(model, z, zeta))
        (qm, hm), (qp, hplus) = boundary_pieces(
            model, consts, self.cutoffs, self.eps, z, zeta, x, tau)
        F, _ = dwell_times(model, consts, z, zeta, shell)
        return PieceArrays(x=x, tau=tau, psi=psi, q_minus=qm, hp_minus=hm,
                           q_plus=qp, hp_plus=hplus, q_circ=F + self.T_K + 1.0,
                           hp_circ=-2.0 * dwell_cutoff(consts)(np.abs(z)))

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


def assemble_escape(model, eps, verdict, verify_grid=None) -> EscapeFunction:
    """Build the escape function by the halving cascade.

    eps must lie in (0, 1/4).  Non-trapping is a precondition: `verdict`
    is the model's geometry.trapping_verdict, and a trapping verdict is
    rejected.  The cascade floors are measured on a construction grid;
    verify_proposition re-certifies on the finer verification grid.  With
    verify_grid = (n_x, n_interior, n_energy), phase_grid's points of those
    sizes are evaluated too (their orbit labels follow the construction
    grid's; a label's pieces depend on its own members only) and kept for
    verify_proposition.

    q_circ is the flow average F + T_K + 1 (dwell_times, dwell_bound):
    H_p q_circ = -2 chi has no positive part, so the q_circ stage of the
    cascade needs no halving where the incoming floor holds.
    """
    if not 0.0 < eps < 0.25:
        raise ConfigurationError(
            f"escape weight eps must lie in (0, 1/4), got {eps}"
        )
    if not verdict.nontrapping:
        raise ConstructionError(
            f"model is trapping ({len(verdict.witnesses)} witnesses); no "
            "escape function")
    consts = boundary_constants(model)
    cutoffs = build_cutoffs(model.lam, model.delta)
    z, zeta, shell = phase_grid(model, *_CONSTRUCTION_GRID)
    grid = (z, zeta, shell)
    if verify_grid is not None:
        grid = _join_points(grid, phase_grid(model, *verify_grid))

    esc = EscapeFunction(model=model, eps=eps, constants=consts,
                         cutoffs=cutoffs, T_K=dwell_bound(model, consts),
                         C=1.0, C_prime=1.0, c2=0.0, c3=0.0)
    pc = esc.pieces(*grid)
    if verify_grid is not None:
        pc, esc.verify_pieces = pc.split(z.size)
        esc.verify_sizes = tuple(verify_grid)
        esc.verify_grid = _phase_state(grid[0][z.size:], grid[1][z.size:])
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
        1.0, "q_circ",
        worst=lambda C: z[D1][np.argsort(A_minus[D1] + C * A_circ[D1])[:8]])

    floor2 = float(np.min(A_minus[D2pos] + C * A_circ[D2pos]))
    if floor2 <= 0:
        worst = np.argmin(A_minus[D2pos] + C * A_circ[D2pos])
        raise ConstructionError(
            "no positive floor on x >= x0/2 and the incoming collar after "
            f"the q_circ stage (floor {floor2:.3g}) near {z[D2pos][worst]}"
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
    A grid of the sizes assemble_escape was given as verify_grid is read
    off the pieces it kept; any other is evaluated here.
    """
    if esc.verify_sizes == (n_x, n_interior, n_energy):
        pts, pc = esc.verify_grid, esc.verify_pieces
    else:
        z, zeta, shell = phase_grid(esc.model, n_x=n_x, n_interior=n_interior,
                                    n_energy=n_energy)
        pts, pc = _phase_state(z, zeta), esc.pieces(z, zeta, shell)
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
    witnesses = [pts[i]
                 for c, ratio in ((c_prime, ratio_q), (c_dprime, ratio_h))
                 if c <= 0 for i in np.argsort(ratio)[:8]]
    return VerifyReport(
        c_prime=c_prime, c_dprime=c_dprime, b_floor=b_floor,
        n_points=int(pts.shape[0]), witnesses=witnesses,
    )
