"""Construction and grid certification of an escape function.

Given an empirically non-trapping model, this module assembles

    q = q_minus + C'' q_partial + C q_circ + C' q_plus,

where the boundary pieces are x^{-+eps} chi(tau) psi(p) rho(x/x0) localized
to the incoming (tau > lam/3), outgoing (tau < -lam/3) and intermediate
bands near infinity, and q_circ is a finite sum of flow tubes covering the
compact region.  The three constants are chosen by a halving cascade so
that q >= 0 everywhere and -H_p q admits a positive weighted floor; the
final certificate

    q >= c' x^eps psi(p),   -H_p q >= c'' x^{1+eps} psi(p)

is measured on a deterministic phase-space grid.  All evaluators return the
quantities divided by psi(p) (every piece carries that factor, and H_p
psi(p) vanishes identically), which keeps the grid ratios finite through
the window edge where psi underflows.

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

# normalization point of the intermediate cutoff's exponential profile;
# balances the two halving budgets of the assembly cascade
_TAU_REF_FACTOR = 0.125
_SLOPE_SAMPLES = 4000   # band samples of partial_slope_margin
_COLLAR_X_MIN = 1e-4    # innermost x of the collar grids
_COLLAR_NX = 40         # collar grid size (x, tau) at refine = 1
_COLLAR_NTAU = 41
_T_COV = 0.5            # covering zone starts at tube time -_T_COV
_MOM_FACTOR = 1.3       # disc radius along grad p, in units of delta / kappa
_MAX_REFINE = 2         # seed-spacing halvings allowed for the covering
_MAX_EXTEND = 6         # T extensions allowed for a tube's late portion
_Q_CIRC_DT = 0.05       # RK4 step of the q_circ flows
_Q_CIRC_STRIDE = 2      # q_circ keeps every second step
_GRID_X_MIN = 1e-3      # innermost x of the phase-space grids
_GRID_INSET = 0.999     # energies sampled within this fraction of the window
_MAX_HALVINGS = 60      # halving budget of each cascade stage


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffFamily:
    """The scalar cutoffs of the construction with analytic derivatives.

    chi_minus: 0 below lam/3, 1 above 2 lam/3 (incoming band);
    chi_plus:  its mirror image (outgoing band);
    chi_partial: supported in (-7 lam/8, 7 lam/8), shaped so that
        chi' >= (6 lam / c1) chi on (-7 lam/8, 3 lam/4);
    rho: 1 on [0, 1/2], supported in [0, 1);
    psi: energy window cutoff, 1 on the half-window plateau.
    """

    lam: float
    chi_minus: SmoothFn
    chi_plus: SmoothFn
    chi_partial: SmoothFn
    rho: SmoothFn
    psi: SmoothFn
    slope: float


def build_cutoffs(lam: float, c1: float, delta: float) -> CutoffFamily:
    if lam <= 0 or c1 <= 0:
        raise ConfigurationError("build_cutoffs needs lam > 0 and c1 > 0")
    lam2 = lam * lam
    if not 0 < delta < lam2:
        raise ConfigurationError(f"delta must lie in (0, lam^2), got {delta}")
    k = 6.0 * lam / c1
    # overflow guard for the exponential profile over the band
    if k * 2.0 * lam > 600.0:
        raise ConstructionError(
            f"intermediate cutoff slope {k:.1f} too steep for float64 "
            "(c1 too small); reduce the energy window"
        )
    tau_ref = _TAU_REF_FACTOR * lam
    u = plateau(-7 * lam / 8, -3 * lam / 4, 3 * lam / 4, 7 * lam / 8)

    def chi_partial(t):
        t = np.asarray(t, dtype=float)
        return np.exp(k * (t - tau_ref)) * u(t)

    def chi_partial_d(t):
        t = np.asarray(t, dtype=float)
        return np.exp(k * (t - tau_ref)) * (k * u(t) + u.d(t))

    chi_minus = rising_step(lam / 3.0, 2.0 * lam / 3.0)
    up = rising_step(lam / 3.0, 2.0 * lam / 3.0)
    chi_plus = SmoothFn(lambda t: up(-np.asarray(t, float)),
                        lambda t: -up.d(-np.asarray(t, float)))
    rho = falling_step(0.5, 1.0)
    psi = plateau(lam2 - delta, lam2 - 0.5 * delta, lam2 + 0.5 * delta, lam2 + delta)
    return CutoffFamily(
        lam=lam, chi_minus=chi_minus, chi_plus=chi_plus,
        chi_partial=SmoothFn(chi_partial, chi_partial_d),
        rho=rho, psi=psi, slope=k,
    )


def partial_slope_margin(cutoffs: CutoffFamily) -> float:
    """min of chi'_partial - (6 lam / c1) chi_partial over the enforced
    band (must be >= 0; equals e^{k(t-ref)} u'(t) analytically)."""
    lam = cutoffs.lam
    t = np.linspace(-7 * lam / 8, 3 * lam / 4, _SLOPE_SAMPLES)
    gap = cutoffs.chi_partial.d(t) - cutoffs.slope * cutoffs.chi_partial(t)
    return float(np.min(gap))


# ---------------------------------------------------------------------------
# boundary constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryConstants:
    """Certified constants of the near-boundary construction."""

    M: float          # 1.5x grid sup of the collar remainders |a| + |b|
    c1: float         # intermediate-band lower bound (radial surrogate)
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
    surrogate solving the self-consistent radial bound on the intermediate
    band, with a 5% margin.
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

    # on the intermediate band -x^{-1} H_p tau equals
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

def eval_boundary_piece(kind, model, consts, cutoffs, eps, z, zeta):
    """(q/psi, H_p q/psi) for one boundary piece on a batch of points.

    kind in {'minus', 'plus', 'partial'}.  The derivative uses the exact
    Hamilton field through the chart (product rule on x^alpha chi(tau)
    rho(x/x0)); the psi(p) factor is flow-invariant and divided out.
    """
    if kind == "minus":
        chi, alpha = cutoffs.chi_minus, -eps
    elif kind == "plus":
        chi, alpha = cutoffs.chi_plus, +eps
    elif kind == "partial":
        chi, alpha = cutoffs.chi_partial, -eps
    else:
        raise ConfigurationError(f"unknown boundary piece {kind!r}")
    z, zeta = np.asarray(z, dtype=float), np.asarray(zeta, dtype=float)
    x, tau = geo.scattering_coords(z, zeta)
    x0 = consts.x0
    rho_v = cutoffs.rho(x / x0)
    chi_v = chi(tau)
    val = x**alpha * chi_v * rho_v
    hpq = np.zeros_like(val)
    # the derivative is supported wherever any factor or its derivative is
    live = (chi_v != 0.0) | (chi.d(tau) != 0.0)
    live &= (rho_v != 0.0) | (cutoffs.rho.d(x / x0) != 0.0)
    if np.any(live):
        vel = geo.hamilton_field_scattering(model, z[live], zeta[live])
        xl, taul = x[live], tau[live]
        rv, rd = cutoffs.rho(xl / x0), cutoffs.rho.d(xl / x0)
        cv, cd = chi(taul), chi.d(taul)
        hpq[live] = (
            alpha * xl ** (alpha - 1.0) * vel.xdot * cv * rv
            + xl**alpha * cd * vel.taudot * rv
            + xl**alpha * cv * rd * vel.xdot / x0
        )
    return val, hpq


def eval_boundary_q(kind, model, consts, cutoffs, eps, z, zeta):
    """(q_kind, H_p q_kind) including the psi(p) factor.

    The certificates work with the psi-stripped eval_boundary_piece; this
    wrapper is the plain evaluator (H_p psi(p) = 0, so both components just
    scale by psi)."""
    val, hpq = eval_boundary_piece(kind, model, consts, cutoffs, eps, z, zeta)
    psi = cutoffs.psi(geo.symbol_p(model, z, zeta))
    return val * psi, hpq * psi


# ---------------------------------------------------------------------------
# tubes
# ---------------------------------------------------------------------------

def _chi_tube(t, T):
    """Tube time cutoff: supported in (-1, T+2), slope exactly 1 on
    [-1/2, T+2/3] (the covering zone), falling only on (T+2/3, T+2)."""
    t = np.asarray(t, dtype=float)
    rise = rising_step(-1.0, -0.5)
    down = falling_step(T + 2.0 / 3.0, T + 2.0)
    return rise(t) * (1.0 + t) * down(t)


def _chi_tube_d(t, T):
    t = np.asarray(t, dtype=float)
    rise = rising_step(-1.0, -0.5)
    down = falling_step(T + 2.0 / 3.0, T + 2.0)
    lin = 1.0 + t
    return rise.d(t) * lin * down(t) + rise(t) * down(t) + rise(t) * lin * down.d(t)


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
    bbox_lo: Optional[np.ndarray]   # sampled sweep bounding box, inflated
    bbox_hi: Optional[np.ndarray]

    @property
    def window(self):
        return (-1.0, self.T + 2.0)

    def disc_distance(self, offsets):
        """Disc norm of phase-space offsets (rows)."""
        return np.abs(offsets @ self.u_p) / self.radius


@dataclass
class CoveringReport:
    n_test: int
    n_uncovered: int
    uncovered: List[np.ndarray]


@dataclass
class TubeCollection:
    tubes: List[Tube]
    covering: CoveringReport

    @property
    def max_T(self):
        return max(t.T for t in self.tubes) if self.tubes else 0.0

    def bbox_candidates(self, states):
        """Boolean (n_tubes, m): state within each tube's bounding box."""
        S = np.asarray(states)
        out = np.empty((len(self.tubes), S.shape[0]), dtype=bool)
        for j, tb in enumerate(self.tubes):
            out[j] = np.all((S >= tb.bbox_lo) & (S <= tb.bbox_hi), axis=1)
        return out


def _phase_state(z, zeta):
    """Phase-space states (z, zeta) as rows of an (..., 2) array."""
    return np.stack([z, zeta], axis=-1)


def _k_region_seeds(model, consts, spacing):
    """Seed grid on K = supp psi(p) & {x >= x0/4} (one seed per position
    cell and momentum branch, at the window center energy).  Returns
    (z, zeta)."""
    r_max = 4.0 / consts.x0
    zs = np.arange(-r_max, r_max + 0.5 * spacing, spacing)
    z = np.repeat(zs, 2)
    d = np.tile([1.0, -1.0], zs.size)
    kappa, allowed = geo.shell_momentum(model, z, model.lambda2)
    return z[allowed], kappa[allowed] * d[allowed]


def _disc_offsets(tube: Tube):
    """Sample offsets across the transversal disc: the center, and half and
    full radius either way along u_p."""
    half, full = 0.5 * tube.radius * tube.u_p, tube.radius * tube.u_p
    return np.stack([np.zeros(2), half, -half, full, -full])


def build_tubes(model, consts, cutoffs, seed_spacing=1.0,
                T_max=500.0) -> TubeCollection:
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
    # keep the tube count roughly collar-independent
    spacing = max(seed_spacing, (4.0 / consts.x0) / 40.0)
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
            n_vec = n_vec / n_norm
            # grad p = (-zetadot, zdot) spans the transversal
            grad_p = _phase_state(-dzeta, dz)
            u_p = grad_p / np.linalg.norm(grad_p)
            tubes.append(Tube(seed=_phase_state(z, zeta), T=T,
                              normal=n_vec, u_p=u_p, radius=r_mom,
                              bbox_lo=None, bbox_hi=None))
        _certify_tubes(model, tubes, consts, lam)
        report = _certify_covering(model, tubes, consts, spacing)
        if report.n_uncovered == 0:
            return TubeCollection(tubes=tubes, covering=report)
        spacing *= 0.5
    raise ConstructionError(
        f"tube covering failed after {_MAX_REFINE} refinements: "
        f"{report.n_uncovered} uncovered test points, first few "
        f"{[u.tolist() for u in report.uncovered[:3]]}"
    )


def _certify_tubes(model, tubes: List[Tube], consts, lam):
    """Sampled disc sweep for every tube in one batched backward flow:
    bounding boxes over the whole window, and the late-portion
    disjointness from K' (auto-extending T when the margin check fails)."""
    for round_ in range(_MAX_EXTEND + 1):
        pend = [tb for tb in tubes if tb.bbox_lo is None]
        if not pend:
            return
        offs = [tb.seed + _disc_offsets(tb) for tb in pend]
        counts = [o.shape[0] for o in offs]
        pts = np.concatenate(offs, axis=0)
        T_all = max(tb.T for tb in pend)
        ts, zs, cs = fl.batched_flow(model, pts[:, 0], pts[:, 1], 0.0,
                                     -(T_all + 2.2), 0.02, store_stride=5)
        states = _phase_state(zs, cs)  # (nt, sum counts, 2)
        start = 0
        for tb, cnt in zip(pend, counts):
            sl = states[:, start:start + cnt, :]
            start += cnt
            window = (-ts <= tb.T + 2.2)
            flat = sl[window].reshape(-1, 2)
            lo, hi = flat.min(axis=0), flat.max(axis=0)
            pad = 0.25 * tb.radius + 0.05 * (np.abs(lo) + np.abs(hi))
            late = (-ts >= tb.T + 0.5) & (-ts <= tb.T + 2.0 + 1e-9)
            tail = sl[late]
            x, tau = geo.scattering_coords(tail[..., 0].ravel(),
                                           tail[..., 1].ravel())
            if np.all(x < consts.x0 / 2.0) and np.all(tau > 2.0 * lam / 3.0):
                tb.bbox_lo = lo - pad
                tb.bbox_hi = hi + pad
            elif round_ < _MAX_EXTEND:
                tb.T += max(1.0, 0.1 * tb.T)  # retry with a longer segment
    bad = [tb for tb in tubes if tb.bbox_lo is None]
    if bad:
        raise ConstructionError(
            f"late tube portion not disjoint from K' after extending T to "
            f"{bad[0].T}; increase the time margin"
        )


def _certify_covering(model, tubes: List[Tube], consts, spacing):
    """Every point of a 2x finer K grid, widened across the window, must
    lie in some tube's interior zone: a crossing with disc distance <= 1/2
    and t in [-_T_COV, T_j + 0.6], where the time cutoff has slope one and
    value at least 1/2.  The test points are flowed only to
    _T_COV + spacing + 0.8, so the zone is also cut at _T_COV + spacing + 0.7.
    """
    z_t, zeta_t = _k_region_seeds(model, consts, 0.5 * spacing)
    offs = np.array([-0.9, 0.0, 0.9])
    z = np.repeat(z_t, offs.size)
    d = np.repeat(np.sign(zeta_t), offs.size)
    energy = np.tile(model.lambda2 + offs * model.delta, z_t.size)
    kappa, allowed = geo.shell_momentum(model, z, energy)
    z0 = z[allowed]
    c0 = kappa[allowed] * d[allowed]
    ts, comps, bufs = _flow_store(model, z0, c0, -(_T_COV + 0.1),
                                  _T_COV + spacing + 0.8)
    covered = np.zeros(z0.size, dtype=bool)
    for tb in tubes:
        w_hi = min(tb.T + 0.6, _T_COV + spacing + 0.7)
        _, sigma, col = _tube_crossings(model, ts, comps, bufs, tb, -_T_COV,
                                        w_hi, None)
        covered[col[sigma <= 0.5]] = True
    bad = np.flatnonzero(~covered)
    uncovered = [_phase_state(z0[i], c0[i]) for i in bad[:16]]
    return CoveringReport(n_test=z0.size, n_uncovered=int(bad.size),
                          uncovered=uncovered)


# ---------------------------------------------------------------------------
# tube evaluation (flow coordinates by crossing detection)
# ---------------------------------------------------------------------------

def eval_q_circ(model, coll: TubeCollection, z, zeta, chunk=6000):
    """(q_circ/psi, H_p q_circ/psi) on a batch of points.

    Each point is flowed once over the union of its candidate tube windows;
    for every tube the crossing times of the transversal hyperplane are
    located by sign change plus vectorized Newton refinement on the cubic
    Hermite interpolant, keeping crossings that land inside the disc.
    Summed contributions are chi_j(t) phi_j(sigma) and -chi'_j(t)
    phi_j(sigma).

    Points are flowed in chunks of at most `chunk`, taken in order of their
    flow span t_hi (the latest end of a candidate tube window), and each
    chunk is integrated to its own largest t_hi.  Within a chunk the points
    are sorted by their first and last bounding-box candidate tube, so the
    candidates of tube j lie in one column range [c0, c1) that is usually
    much narrower than the chunk (see _tube_crossings).

    Reordering within a chunk cannot change a value: chunk membership and
    the chunk's t_hi (hence every step size) do not depend on it, every
    operation on a point's trajectory and crossings acts on that point
    alone, and each point still receives its contributions tube by tube,
    in increasing crossing time within a tube, whatever the column order.
    """
    z, zeta = np.asarray(z, dtype=float), np.asarray(zeta, dtype=float)
    m = z.size
    qv = np.zeros(m)
    hp = np.zeros(m)
    cand = coll.bbox_candidates(_phase_state(z, zeta))
    active = np.flatnonzero(cand.any(axis=0))
    t_hi_pt = np.zeros(m)
    for j, tb in enumerate(coll.tubes):
        sel = cand[j]
        t_hi_pt[sel] = np.maximum(t_hi_pt[sel], tb.T + 2.0 + 0.1)
    order = active[np.argsort(t_hi_pt[active])]
    phi_shape = falling_step(0.5, 1.0)
    for pos in range(0, order.size, chunk):
        idx = order[pos: pos + chunk]
        cand_c = cand[:, idx]
        first = np.argmax(cand_c, axis=0)
        last = cand_c.shape[0] - 1 - np.argmax(cand_c[::-1], axis=0)
        perm = np.lexsort((last, first))
        idx, cand_c = idx[perm], cand_c[:, perm]
        ts, comps, bufs = _flow_store(model, z[idx], zeta[idx], -1.1,
                                      float(np.max(t_hi_pt[idx])))
        for j, tb in enumerate(coll.tubes):
            t, sigma, col = _tube_crossings(model, ts, comps, bufs, tb,
                                            *tb.window, cand_c[j])
            ok = sigma <= 1.0
            phi = phi_shape(sigma[ok])
            np.add.at(qv, idx[col[ok]], _chi_tube(t[ok], tb.T) * phi)
            np.add.at(hp, idx[col[ok]], -_chi_tube_d(t[ok], tb.T) * phi)
        # release this chunk's store before the next chunk is flowed
        del ts, comps, bufs
    return qv, hp


def _flow_store(model, z, zeta, t_lo, t_hi):
    """Flow the points backward to t_lo and forward to t_hi.

    Returns (ts, comps, bufs).  The store is component-major: comps[k][row,
    col] is coordinate k of the phase-space state (z, zeta) of column col
    at time ts[row].  bufs are two scratch blocks of the same shape, in
    which _tube_crossings computes every tube's signed distances, so the
    tube loops allocate no trajectory-sized array per tube (such per-tube
    allocations left the peak RSS at the mercy of heap fragmentation)."""
    ts_b, zb, cb = fl.batched_flow(model, z, zeta, 0.0, t_lo, _Q_CIRC_DT,
                                   store_stride=_Q_CIRC_STRIDE)
    ts_f, zf, cf = fl.batched_flow(model, z, zeta, 0.0, t_hi, _Q_CIRC_DT,
                                   store_stride=_Q_CIRC_STRIDE)
    ts = np.concatenate([ts_b[::-1], ts_f[1:]])
    # each flow output is released once copied, so at most three (rows, m)
    # arrays are alive at a time
    comps = [np.concatenate([zb[::-1], zf[1:]])]
    del zb, zf
    comps.append(np.concatenate([cb[::-1], cf[1:]]))
    del cb, cf
    return ts, comps, (np.empty_like(comps[0]), np.empty_like(comps[0]))


_NO_CROSSINGS = (np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))


def _tube_crossings(model, ts, comps, bufs, tb: Tube, w_lo, w_hi, colmask):
    """(t, sigma, col) of every crossing of tube tb's transversal with t in
    [w_lo, w_hi]: crossing time, disc distance of the crossing state and
    store column.  colmask (or None for all columns) selects the columns.

    The tube parameter of a point IS the forward-flow time to the
    transversal: pt = exp(-t H_p)(sigma)  <=>  exp(+t H_p)(pt) in Sigma.
    The signed distance to the hyperplane is a sum of scaled views of the
    store over the window's rows and the column range [c0, c1) of colmask;
    sign changes are found there and the columns outside colmask dropped."""
    if colmask is None:
        c0, c1 = 0, comps[0].shape[1]
    else:
        cols = np.flatnonzero(colmask)
        if cols.size == 0:
            return _NO_CROSSINGS
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
    dt_det = _Q_CIRC_DT * _Q_CIRC_STRIDE
    # both callers flow past either end of the window, so it holds rows
    row = np.flatnonzero((ts >= w_lo - 3 * dt_det) & (ts <= w_hi + 3 * dt_det))
    k0, k1 = int(row[0]), int(row[-1]) + 1
    blk = (slice(0, k1 - k0), slice(0, c1 - c0))
    sv = np.multiply(comps[0][k0:k1, c0:c1], tb.normal[0], out=bufs[0][blk])
    sv += np.multiply(comps[1][k0:k1, c0:c1], tb.normal[1], out=bufs[1][blk])
    sv -= float(tb.seed @ tb.normal)
    neg = np.signbit(sv)
    ks, ms = np.divmod(np.flatnonzero(neg[:-1] != neg[1:]), c1 - c0)
    ms += c0
    if colmask is not None:
        keep = colmask[ms]
        ks, ms = ks[keep], ms[keep]
    ks += k0
    # distance prefilter at the bracketing sample
    near = np.linalg.norm(_gather(comps, ks, ms) - tb.seed, axis=1) \
        <= tb.radius * 1.5 + 0.2
    ks, ms = ks[near], ms[near]
    if ks.size == 0:
        return _NO_CROSSINGS
    t_star, s_star = _refine_crossings(model, ts, comps, ks, ms, tb)
    sigma = tb.disc_distance(s_star - tb.seed)
    ok = (t_star >= w_lo) & (t_star <= w_hi)
    return t_star[ok], sigma[ok], ms[ok]


def _gather(comps, ks, cols):
    """Phase-space states (rows) at the stored samples (ks, cols)."""
    return np.stack([c[ks, cols] for c in comps], axis=-1)


def _refine_crossings(model, ts, comps, ks, cols, tb):
    """Vectorized Newton on the cubic Hermite interpolant of the signed
    distance over each bracketing interval."""
    y0 = _gather(comps, ks, cols)
    y1 = _gather(comps, ks + 1, cols)
    t0 = ts[ks]
    t1 = ts[ks + 1]
    dt = (t1 - t0)[:, None]
    f0 = _phase_state(*geo.hamilton_field(model, y0[:, 0], y0[:, 1])) * dt
    f1 = _phase_state(*geo.hamilton_field(model, y1[:, 0], y1[:, 1])) * dt
    u = np.full(ks.shape, 0.5)
    for _ in range(12):
        y, yd = _hermite(u, y0, f0, y1, f1)
        s = (y - tb.seed) @ tb.normal
        sd = yd @ tb.normal
        step = np.where(np.abs(sd) > 1e-14, s / np.where(sd == 0, 1.0, sd), 0.0)
        u = np.clip(u - step, 0.0, 1.0)
    y, _ = _hermite(u, y0, f0, y1, f1)
    t_star = t0 + u * (t1 - t0)
    return t_star, y


def _hermite(u, y0, f0, y1, f1):
    """Cubic Hermite interpolant (y, dy/du) at u in [0, 1] through the rows
    y0, y1 with scaled slopes f0, f1."""
    uu = u[:, None]
    h00 = 2 * uu**3 - 3 * uu**2 + 1
    h10 = uu**3 - 2 * uu**2 + uu
    h01 = -2 * uu**3 + 3 * uu**2
    h11 = uu**3 - uu**2
    d00 = 6 * uu**2 - 6 * uu
    d10 = 3 * uu**2 - 4 * uu + 1
    d01 = -6 * uu**2 + 6 * uu
    d11 = 3 * uu**2 - 2 * uu
    return (h00 * y0 + h10 * f0 + h01 * y1 + h11 * f1,
            d00 * y0 + d10 * f0 + d01 * y1 + d11 * f1)


# ---------------------------------------------------------------------------
# phase-space grids
# ---------------------------------------------------------------------------

def phase_grid(model, n_x=600, n_interior=80, n_energy=40):
    """Deterministic grid covering supp psi(p) up to x >= 1e-3.

    Positions combine a log grid in x on each end (resolving the collar
    scales) with a linear interior block; at every position the window is
    sampled at n_energy energies and both momentum branches.  Returns
    (z, zeta)."""
    lam2, delta = model.lambda2, model.delta
    offsets = _GRID_INSET * np.linspace(-1.0, 1.0, n_energy)
    xs = np.geomspace(_GRID_X_MIN, 0.999, n_x)
    zs_out = 1.0 / xs
    zs = np.concatenate([-zs_out, np.linspace(-0.999, 0.999, n_interior), zs_out])
    V = model.potential.value(zs)
    P = lam2 + delta * offsets
    k2 = P[None, :] - V[:, None]            # (pos, energy)
    pos, en = np.nonzero(k2 > 0)
    kap = np.sqrt(k2[pos, en])
    return np.repeat(zs[pos], 2), np.stack([kap, -kap], axis=-1).reshape(-1)


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
    q_partial: np.ndarray
    hp_partial: np.ndarray
    q_circ: np.ndarray
    hp_circ: np.ndarray


@dataclass
class EscapeFunction:
    """q = q_minus + C'' q_partial + C q_circ + C' q_plus with certified
    constants and batch evaluators."""

    model: object
    eps: float
    constants: BoundaryConstants
    cutoffs: CutoffFamily
    tubes: TubeCollection
    C: float
    C_prime: float
    C_dprime: float
    c2: float
    c3: float
    c4: float
    cascade: Dict[str, float] = field(default_factory=dict)

    def pieces(self, z, zeta) -> PieceArrays:
        model = self.model
        x, tau = geo.scattering_coords(z, zeta)
        psi = self.cutoffs.psi(geo.symbol_p(model, z, zeta))
        qm, hm = eval_boundary_piece("minus", model, self.constants,
                                     self.cutoffs, self.eps, z, zeta)
        qp, hplus = eval_boundary_piece("plus", model, self.constants,
                                        self.cutoffs, self.eps, z, zeta)
        qd, hd = eval_boundary_piece("partial", model, self.constants,
                                     self.cutoffs, self.eps, z, zeta)
        qc, hc = eval_q_circ(model, self.tubes, z, zeta)
        return PieceArrays(x=x, tau=tau, psi=psi, q_minus=qm, hp_minus=hm,
                           q_plus=qp, hp_plus=hplus, q_partial=qd,
                           hp_partial=hd, q_circ=qc, hp_circ=hc)

    def combine(self, pc: PieceArrays):
        """(q/psi, H_p q/psi) from piece arrays."""
        q = (pc.q_minus + self.C_dprime * pc.q_partial
             + self.C * pc.q_circ + self.C_prime * pc.q_plus)
        hp = (pc.hp_minus + self.C_dprime * pc.hp_partial
              + self.C * pc.hp_circ + self.C_prime * pc.hp_plus)
        return q, hp


def hpq_finite_difference(esc: EscapeFunction, z, zeta, delta=1e-5):
    """Flow finite difference of q/psi along H_p (equals H_p q / psi since
    psi(p) is flow-invariant); the oracle for the analytic derivative."""
    # one RK4 step of size +-delta each
    _, zp, cp = fl.batched_flow(esc.model, z, zeta, 0.0, delta, delta)
    _, zm, cm = fl.batched_flow(esc.model, z, zeta, 0.0, -delta, delta)
    qp, _ = esc.combine(esc.pieces(zp[-1], cp[-1]))
    qm, _ = esc.combine(esc.pieces(zm[-1], cm[-1]))
    return (qp - qm) / (2.0 * delta)


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


def assemble_escape(model, eps, verdict, seed_spacing=1.0) -> EscapeFunction:
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
    cutoffs = build_cutoffs(model.lam, consts.c1, model.delta)
    tubes = build_tubes(model, consts, cutoffs, seed_spacing=seed_spacing)

    z, zeta = phase_grid(model, n_x=220, n_interior=40, n_energy=14)
    esc = EscapeFunction(model=model, eps=eps, constants=consts,
                         cutoffs=cutoffs, tubes=tubes,
                         C=1.0, C_prime=1.0, C_dprime=1.0,
                         c2=0.0, c3=0.0, c4=math.inf)
    pc = esc.pieces(z, zeta)
    x, tau = pc.x, pc.tau
    lam = model.lam
    x0 = consts.x0
    wm = x ** (-1.0 + eps)
    ws = x ** (-1.0 - eps)
    A_minus = -wm * pc.hp_minus
    A_circ = -wm * pc.hp_circ
    A_partial = -wm * pc.hp_partial
    A_plus = -ws * pc.hp_plus

    D1 = (x <= 0.5 * x0) & (tau >= 2.0 * lam / 3.0)
    D2pos = (x >= 0.5 * x0) | D1
    D2full = (x >= 0.5 * x0) | ((x <= 0.5 * x0) & (tau >= -0.75 * lam))
    D3 = (x <= 0.5 * x0) & (tau <= -2.0 * lam / 3.0)
    D4 = (x <= 0.5 * x0) & (np.abs(tau) < 0.75 * lam)

    if not np.any(D1):
        raise ConstructionError("construction grid misses the incoming collar")
    c2 = float(np.min(A_minus[D1]))
    if c2 <= 0:
        raise ConstructionError(f"incoming floor c2 = {c2:.3g} <= 0")
    c3 = float(np.min(A_plus[D3])) if np.any(D3) else math.inf
    c4 = float(np.min(A_partial[D4])) if np.any(D4) else math.inf

    cascade = {"c2": c2, "c3": c3, "c4": c4}

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

    Cpp, cascade["halvings_Cpp"] = _halve(
        lambda Cpp: np.min(A_minus[D2pos] + C * A_circ[D2pos]
                           + Cpp * A_partial[D2pos]) < 0.5 * floor2,
        1.0, "intermediate")

    three = A_minus + C * A_circ + Cpp * A_partial
    floor3 = float(np.min(three[D2full]))
    if floor3 <= 0:
        raise ConstructionError(
            f"no positive floor through the intermediate band ({floor3:.3g})"
        )
    cascade["floor3"] = floor3

    # final stage: the outgoing piece enters with the stronger weight
    base = x ** (-2.0 * eps) * three
    Cp, cascade["halvings_Cp"] = _halve(
        lambda Cp: np.min(base + Cp * A_plus) <= 0.0,
        min(1.0, Cpp), "outgoing")
    cascade["c_dprime_construction"] = float(np.min(base + Cp * A_plus))

    esc.C, esc.C_prime, esc.C_dprime = C, Cp, Cpp
    esc.c2, esc.c3, esc.c4 = c2, c3, c4
    esc.cascade = cascade
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

    def summary(self):
        return (f"c'={self.c_prime:.6g} c''={self.c_dprime:.6g} "
                f"b_floor={self.b_floor:.6g} on {self.n_points} points")


def verify_proposition(esc: EscapeFunction, n_x=600, n_interior=80,
                       n_energy=40, raise_on_failure=True) -> VerifyReport:
    """Largest constants with q >= c' x^eps psi(p) and
    -H_p q >= c'' x^{1+eps} psi(p) at every grid point, plus the quadratic
    form b = -2 q H_p q / psi^2 >= b_floor x^{1+2 eps} where psi > 1/2.

    The default grid has >= 1e5 points over supp psi(p) down to x = 1e-3.
    """
    z, zeta = phase_grid(esc.model, n_x=n_x, n_interior=n_interior,
                         n_energy=n_energy)
    pc = esc.pieces(z, zeta)
    q, hp = esc.combine(pc)
    x = pc.x
    eps = esc.eps
    ratio_q = q / x**eps
    ratio_h = -hp / x ** (1.0 + eps)
    c_prime = float(np.min(ratio_q))
    c_dprime = float(np.min(ratio_h))
    plateau_mask = pc.psi > 0.5
    b = 2.0 * q * (-hp)
    if np.any(plateau_mask):
        b_floor = float(np.min(b[plateau_mask] / x[plateau_mask] ** (1.0 + 2 * eps)))
    else:
        b_floor = math.inf
    witnesses = []
    if c_prime <= 0:
        witnesses += [_phase_state(z[i], zeta[i])
                      for i in np.argsort(ratio_q)[:8]]
    if c_dprime <= 0:
        witnesses += [_phase_state(z[i], zeta[i])
                      for i in np.argsort(ratio_h)[:8]]
    report = VerifyReport(
        c_prime=c_prime, c_dprime=c_dprime, b_floor=b_floor,
        n_points=int(z.size), witnesses=witnesses,
    )
    if raise_on_failure and not report.passed:
        raise ConstructionError(
            f"escape certificate failed: {report.summary()}; "
            f"witnesses {[w.tolist() for w in witnesses[:3]]}"
        )
    return report
