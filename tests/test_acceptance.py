"""Acceptance criteria, one test per criterion with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here exactly as stated in the project
contract.
"""

import time

import numpy as np

from nontrap import cli
from nontrap import escape as esc
from nontrap import geometry as geo
from nontrap import quantize as qz
from nontrap import resolvent as rv
from nontrap.smooth import plateau

from conftest import hpq_finite_difference, integrate_flow

H_SWEEP = (0.2, 0.14, 0.1, 0.07, 0.05)
S_WEIGHT = 0.7


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence(free_1d):
    """Discretized weighted resolvent norm vs analytic kernel quadrature."""
    t0 = time.time()
    t_shift = 1e-3
    errs = {}
    for h in H_SWEEP:
        op = rv.discretize(free_1d, h, L=200.0, N=2**15)
        got = rv.weighted_resolvent_norm(op, 1.0, t_shift, S_WEIGHT).value
        want = rv.analytic_free_resolvent_norm(
            1.0, t_shift, h, S_WEIGHT, L=200.0, M=2**15, certify=(h == 0.1)
        )
        errs[h] = abs(got - want) / want
    elapsed = time.time() - t0
    ok = errs[0.1] <= 0.02 and all(e <= 0.03 for e in errs.values()) \
        and elapsed <= 120.0
    _report(1, ok, f"oracle equivalence: err(h=0.1)={errs[0.1]:.4f} "
                   f"max={max(errs.values()):.4f} [{elapsed:.0f}s]")


def test_criterion_2_theorem_scaling(free_1d, longrange_1d):
    """Fitted slope in [0.85, 1.15] and lambda-uniformity <= 3 for the two
    non-trapping presets."""
    t0 = time.time()
    results = {}
    for name, model in [("zero", free_1d), ("longrange_pow", longrange_1d)]:
        rep = rv.h_sweep(model, h_list=H_SWEEP, s=S_WEIGHT, L=200.0,
                         N=2**15)
        results[name] = (rep.slope, rep.max_uniformity_ratio)
    elapsed = time.time() - t0
    ok = all(0.85 <= s <= 1.15 and u <= 3.0 for s, u in results.values()) \
        and elapsed <= 600.0
    detail = " ".join(f"{k}: slope={s:.3f} unif={u:.2f}"
                      for k, (s, u) in results.items())
    _report(2, ok, f"theorem scaling: {detail} [{elapsed:.0f}s]")


def test_criterion_3_trapping_contrast(free_1d, double_bump_1d):
    """Window-sup of the trapping preset at h = 0.05 exceeds the
    non-trapping one by >= 10x."""
    t0 = time.time()
    h = 0.05
    free_sup, _ = rv.window_sup_norm(free_1d, h, s=S_WEIGHT, n_scan=81)
    trap_sup, arg = rv.window_sup_norm(double_bump_1d, h, s=S_WEIGHT, n_scan=81)
    elapsed = time.time() - t0
    ratio = trap_sup / free_sup
    ok = ratio >= 10.0 and elapsed <= 300.0
    _report(3, ok, f"trapping contrast: {ratio:.1f}x "
                   f"(trap {trap_sup:.1f} at lambda2={arg:.4f}, "
                   f"free {free_sup:.1f}) [{elapsed:.0f}s]")


def test_criterion_4_escape_certificate(escape_free, escape_longrange):
    """Proposition constants positive on >= 1e5 points, <= 20% drift under
    2x refinement, quadratic-form floor positive on the plateau."""
    t0 = time.time()
    details = []
    ok = True
    for name, e in [("zero", escape_free), ("longrange_pow", escape_longrange)]:
        t_base = time.time()
        base = esc.verify_proposition(e, n_x=600, n_interior=80, n_energy=40)
        t_fine = time.time()
        fine = esc.verify_proposition(e, n_x=850, n_interior=110, n_energy=56)
        t_done = time.time()
        drift_p = abs(fine.c_prime - base.c_prime) / base.c_prime
        drift_d = abs(fine.c_dprime - base.c_dprime) / base.c_dprime
        good = (base.passed and base.n_points >= 1e5 and fine.passed
                and drift_p <= 0.2 and drift_d <= 0.2 and base.b_floor > 0)
        ok &= good
        details.append(f"{name}: c'={base.c_prime:.3g} c''={base.c_dprime:.3g} "
                       f"drift=({drift_p:.3f},{drift_d:.3f}) "
                       f"base {t_fine - t_base:.1f}s fine {t_done - t_fine:.1f}s")
    elapsed = time.time() - t0
    ok = ok and elapsed <= 300.0
    _report(4, ok, "escape certificate: " + " | ".join(details) + f" [{elapsed:.0f}s]")


def test_criterion_5_hpq_consistency(escape_free):
    """Analytic vs flow-finite-difference H_p q at 1e3 random points."""
    e = escape_free
    rng = np.random.default_rng(11)
    n = 1000
    r = np.exp(rng.uniform(np.log(1.2), np.log(60.0), n))
    z = r * rng.choice([-1.0, 1.0], n)
    p = rng.uniform(0.91, 1.09, n)
    zeta = rng.choice([-1.0, 1.0], n) * np.sqrt(p)
    _, hp = e.combine(e.pieces(z, zeta, np.arange(n)))
    fd = hpq_finite_difference(e, z, zeta, delta=1e-5)
    rel = float(np.max(np.abs(hp - fd) / (np.abs(hp) + np.abs(fd) + 1e-8)))
    _report(5, rel <= 1e-4, f"H_p q consistency: max rel {rel:.2e} at {n} points")


def test_criterion_6_flow_integrity(longrange_1d, double_bump_1d):
    traj = integrate_flow(longrange_1d, 1.5, 0.8, (0.0, 50.0), tol=1e-10)
    traj_b = integrate_flow(longrange_1d, 1.5, 0.8, (0.0, -50.0), tol=1e-10)
    drift = max(traj.energy_drift, traj_b.energy_drift)
    ok_drift = drift <= 1e-8 * (1 + abs(traj.p0))
    fwd = integrate_flow(double_bump_1d, 0.3, 0.9, (0.0, 25.0), tol=1e-11)
    back = integrate_flow(double_bump_1d, fwd.z[-1], fwd.zeta[-1],
                          (0.0, -25.0), tol=1e-11)
    rev_err = float(abs(back.z[-1] - 0.3) + abs(back.zeta[-1] - 0.9))
    ok_rev = rev_err <= 1e-6
    conf = integrate_flow(double_bump_1d, 0.0, 1.0, (0.0, 200.0), tol=1e-10)
    zmax = float(np.max(np.abs(conf.z)))
    ok_conf = zmax <= 3.5
    ok = ok_drift and ok_rev and ok_conf
    _report(6, ok, f"flow integrity: drift={drift:.2e} reversal={rev_err:.2e} "
                   f"confinement |z|<={zmax:.2f}")


def test_criterion_7_calculus_facts():
    L, N = 3 * np.pi, 1024
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    a = qz.Symbol(fn=lambda z, zeta: zeta**2 + 0.0 * z,
                  dz=lambda z, zeta: 0.0 * z,
                  dzeta=lambda z, zeta: 2.0 * zeta)
    b = qz.Symbol(fn=lambda z, zeta: np.exp(-(z**2)) + 0.0 * zeta,
                  dz=lambda z, zeta: -2.0 * z * np.exp(-(z**2)),
                  dzeta=lambda z, zeta: 0.0 * zeta)
    ds = np.array([
        qz.commutator_defect(a, b, qz.GridQuantization(L=L, N=N, h=h))
        for h in hs
    ])
    slope = float(np.polyfit(np.log(hs), np.log(ds), 1)[0])
    ok = abs(slope - 1.0) <= 0.2
    drifts = {}
    for sym in qz.garding_test_symbols():
        ratios = np.array([
            abs(qz.garding_floor(sym, qz.GridQuantization(L=L, N=N, h=h))) / h
            for h in hs
        ])
        drifts[sym.name] = (ratios.max() - ratios.min()) / ratios.max()
        ok &= drifts[sym.name] <= 0.5
    detail = " ".join(f"{k}={v:.2f}" for k, v in drifts.items())
    _report(7, ok, f"calculus facts: commutator slope={slope:.3f}, "
                   f"garding drift {detail}")


def test_criterion_8_functional_calculus(free_1d):
    t0 = time.time()
    op = rv.small_box_operator(free_1d, 0.3, L=60.0, N=512)
    f, derivs = rv.gaussian_bump(1.0, 0.5)
    A = rv.function_of_operator(op, f, method="eigen")
    B = rv.function_of_operator(
        op, f, method="helffer_sjostrand", support=(-0.5, 2.5), K=4,
        nx=200, ny=100, derivatives=derivs, check=False,
    )
    hs_err = float(np.linalg.norm(A - B, 2))
    ok_hs = hs_err <= 1e-5
    psi = plateau(0.6, 0.75, 1.25, 1.4)
    ts = np.geomspace(1e-4, 1.0, 9)
    ok_nc = True
    worst = 0.0
    for h, N in [(0.2, 512), (0.1, 1024), (0.05, 2048)]:
        oph = rv.small_box_operator(free_1d, h, L=60.0, N=N)
        hi = float(np.max(rv.eigenvalues(oph))) + 1.0
        nb = rv.nonchar_bound(oph, psi, 1.0, ts)
        sb = rv.scalar_spectral_bound(psi, 1.0, ts, (0.0, hi))
        worst = max(worst, nb / sb)
        ok_nc &= nb <= 1.05 * sb
    elapsed = time.time() - t0
    ok = ok_hs and ok_nc and elapsed <= 60.0
    _report(8, ok, f"functional calculus: |eig-HS|={hs_err:.2e}, "
                   f"nonchar/scalar worst={worst:.3f} [{elapsed:.0f}s]")


def test_criterion_9_determinism(tmp_path):
    """Byte-identical reports on re-run for every preset."""
    conf = tmp_path / "fast.conf"
    conf.write_text("flow_samples = 40\nscan_t_max = 40\n")
    sweep_conf = tmp_path / "sweep.conf"
    sweep_conf.write_text(
        "h_list = 0.2, 0.1\ngrid_exponent = 13\nbox_half_length = 100\n"
        "flow_samples = 40\nscan_t_max = 40\ncontrast_scan = 3\n"
    )
    ok = True
    details = []
    for preset in sorted(geo.PRESETS):
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{preset}_{run_id}"
            code = cli.main(["--preset", preset, "flow-scan",
                             "--config", str(conf), "--out", str(out)])
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        same = outs[0] == outs[1]
        ok &= same
        details.append(f"{preset}:{'=' if same else '!'}")
    for run_id in ("a", "b"):
        out = tmp_path / f"sweep_{run_id}"
        code = cli.main(["--preset", "zero", "resolvent-sweep",
                         "--config", str(sweep_conf), "--out", str(out)])
        assert code == 0
    sa = {p.name: p.read_bytes() for p in sorted((tmp_path / "sweep_a").iterdir())}
    sb = {p.name: p.read_bytes() for p in sorted((tmp_path / "sweep_b").iterdir())}
    ok &= sa == sb
    details.append(f"sweep:{'=' if sa == sb else '!'}")
    _report(9, ok, "determinism: " + " ".join(details))
