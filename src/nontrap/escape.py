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

eval_q_circ evaluates q_circ on a batch, and EscapeFunction.pieces calls
it.  The paper's proof covers the compact region with flow tubes instead;
the certificate's form is the same, and build_tubes is left only as a
stub that raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from nontrap import geometry as geo
from nontrap.errors import ConfigurationError, ConstructionError
from nontrap.smooth import SmoothFn, falling_step, plateau, rising_step

_COLLAR_X_MIN = 1e-4    # innermost x of the collar grids
_COLLAR_NX = 40         # collar grid size (x, tau) at refine = 1
_COLLAR_NTAU = 41
_GRID_X_MIN = 1e-3      # innermost x of the phase-space grids
_GRID_INSET = 0.999     # energies sampled within this fraction of the window
_CONSTRUCTION_GRID = (220, 40, 14)  # phase_grid sizes of the cascade's grid
_MAX_HALVINGS = 60      # halving budget of each cascade stage


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
# phase-space grids
# ---------------------------------------------------------------------------

def _phase_state(z, zeta):
    """Phase-space states (z, zeta) as rows of an (..., 2) array."""
    return np.stack([z, zeta], axis=-1)


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
            f"{float(energies[n_runs > ends][0])!r}: a trapped shell, whose"
            " periodic orbits have no finite dwell time")
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


def _ranges(lo, n):
    """(c, k): k runs over lo[c], ..., lo[c] + n[c] - 1 for each c in turn."""
    c = np.repeat(np.arange(n.size), n)
    return c, np.arange(c.size) + np.repeat(lo - np.cumsum(n) + n, n)


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


def eval_q_circ(model, consts, T_K, z, zeta, shell):
    """(q_circ/psi, H_p q_circ/psi) on a batch labelled by orbit
    (dwell_times): F + T_K + 1 and -2 chi(|z|) (dwell_cutoff)."""
    F, _ = dwell_times(model, consts, z, zeta, shell)
    return F + T_K + 1.0, -2.0 * dwell_cutoff(consts)(np.abs(z))


def build_tubes(*args, **kwargs):
    """Kept only because perfbench/tracing.py wraps this name; ROADMAP item
    6 deletes it.  The tube construction is gone, and calling it raises."""
    raise ConstructionError(
        "build_tubes is gone: q_circ is the flow average F + T_K + 1, "
        "evaluated by eval_q_circ")


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
        qc, hc = eval_q_circ(model, consts, self.T_K, z, zeta, shell)
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
