"""The benchmark's workloads: inputs, the timed call and the correctness gates.

Each workload has a child side (`setup` returns the timed call; it runs in
a fresh process with `nontrap` importable) and a parent side (`gates`
turns what a repetition left behind into named pass/fail checks).  The
tolerances are the pinned acceptance tolerances of tests/test_acceptance.py
and the CLI's own checks; none is loosened here.

Why these workloads:

* longrange_report - `nontrap --preset longrange_pow full-report`, the
  paper's long-range case.  It is the only workload that runs every layer,
  escape included: flow scan (twice: `cmd_escape_verify` re-runs it inside
  `assemble_escape`), tube construction and q_circ, grid verification, the
  N = 1024 quantization checks and the h-sweep.  The run keys below shrink
  the default config so that a repetition takes ~35 s; the escape
  construction grid and the calculus checks have no config key and keep
  their default size.
* spectral_calculus - library calls only, so flow, escape and quantize do
  no work: criterion 3's window-sup scans at h = 0.05 (many single-RHS
  solves on one factorization each) and criterion 8's eigen vs
  Helffer-Sjostrand comparison (one factorization per node, n right-hand
  sides each) plus the non-characteristic bounds.  Scan count and HS size
  are shrunk from the acceptance test to keep one repetition near 5 s, so
  a run holds several repetitions and their median rides out the
  machine's short slow phases.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# full-report run keys on top of the preset (model block untouched)
LONGRANGE_CONFIG = {
    "flow_samples": "100",
    "verify_x": "120",
    "verify_interior": "20",
    "verify_energy": "8",
    "grid_exponent": "14",
}
LONGRANGE_SMOKE_CONFIG = dict(LONGRANGE_CONFIG, flow_samples="20",
                              verify_x="40", verify_interior="8",
                              verify_energy="4", grid_exponent="13",
                              box_half_length="100",
                              h_list="0.2, 0.14, 0.1")

SPECTRAL = {"h": 0.05, "s": 0.7, "n_scan": 21, "hs_n": 128, "hs_nx": 100,
            "hs_ny": 50}
# the smoke scan keeps h and the 21-point grid: the trapping contrast gate
# needs a scan point near the double_bump resonance at lambda2 = 1.015
SPECTRAL_SMOKE = dict(SPECTRAL, hs_n=64, hs_nx=40, hs_ny=20)
NONCHAR_SIZES = ((0.2, 512), (0.1, 1024), (0.05, 2048))
NONCHAR_SMOKE_SIZES = ((0.2, 512),)

NAMES = ("longrange_report", "spectral_calculus")


def spec(name, seed, smoke=False):
    """JSON-serialisable inputs of one workload for one seed.

    The report workload's inputs are the shipped preset, so the seed is
    only recorded there; in spectral_calculus it places the bump centre."""
    if name == "longrange_report":
        cfg = LONGRANGE_SMOKE_CONFIG if smoke else LONGRANGE_CONFIG
        return {"workload": name, "seed": seed, "preset": "longrange_pow",
                "command": "full-report", "config": cfg}
    if name == "spectral_calculus":
        centre = 1.0 + 0.05 * (2.0 * random.Random(seed).random() - 1.0)
        sizes = SPECTRAL_SMOKE if smoke else SPECTRAL
        return {"workload": name, "seed": seed, "bump_centre": centre,
                "nonchar_sizes": NONCHAR_SMOKE_SIZES if smoke
                else NONCHAR_SIZES, **sizes}
    raise KeyError(name)


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def setup(sp):
    """Build everything the timed call needs; return timed(report_dir)."""
    if sp["workload"] == "longrange_report":
        return _setup_report(sp)
    return _setup_spectral(sp)


def _setup_report(sp):
    from nontrap import cli
    from nontrap import geometry as geo

    params = dict(geo.PRESETS[sp["preset"]])
    text = "\n".join(f"{k} = {v}" for k, v in sp["config"].items())
    params.update(cli.parse_config_text(text, source="benchmark"))
    cfg = cli.effective_config(dict(params, command=sp["command"]))
    geo.build_model({k: cfg[k] for k in geo.MODEL_DEFAULTS})

    def timed(report_dir):
        code = cli.run(params, out_override=str(report_dir),
                       command_override=sp["command"], jobs_override=1)
        return {"exit_code": code}

    return timed


def _setup_spectral(sp):
    import numpy as np

    from nontrap import geometry as geo
    from nontrap import resolvent as rv
    from nontrap.smooth import plateau

    free = geo.preset_model("zero")
    trap = geo.preset_model("double_bump")
    c = sp["bump_centre"]
    f, derivs = rv.gaussian_bump(c, 0.5)
    hs_op = rv.small_box_operator(free, 0.3, L=60.0, N=sp["hs_n"])
    psi = plateau(0.6, 0.75, 1.25, 1.4)
    ts = np.geomspace(1e-4, 1.0, 9)
    nc_ops = [rv.small_box_operator(free, h, L=60.0, N=n)
              for h, n in sp["nonchar_sizes"]]

    def timed(report_dir):
        kw = {"s": sp["s"], "n_scan": sp["n_scan"]}
        free_sup, _ = rv.window_sup_norm(free, sp["h"], **kw)
        trap_sup, trap_arg = rv.window_sup_norm(trap, sp["h"], **kw)
        A = rv.function_of_operator(hs_op, f, method="eigen")
        B = rv.function_of_operator(
            hs_op, f, method="helffer_sjostrand", support=(c - 1.5, c + 1.5),
            K=4, nx=sp["hs_nx"], ny=sp["hs_ny"], derivatives=derivs,
            check=False)
        hs_err = float(np.linalg.norm(A - B, 2))
        nonchar = []
        for op in nc_ops:
            hi = float(np.max(rv.eigenvalues(op))) + 1.0
            nb = rv.nonchar_bound(op, psi, 1.0, ts)
            sb = rv.scalar_spectral_bound(psi, 1.0, ts, (0.0, hi))
            nonchar.append(nb / sb)
        values = {"free_sup": free_sup, "trap_sup": trap_sup,
                  "trap_argmax": trap_arg, "sup_ratio": trap_sup / free_sup,
                  "hs_err": hs_err, "nonchar_ratios": nonchar}
        report_dir.mkdir(parents=True, exist_ok=True)
        with open(report_dir / "spectral.json", "w") as fh:
            json.dump({k: repr(v) for k, v in values.items()}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        return values

    return timed


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def gates(sp, result, report_dir: Path):
    """Named checks {name: {"value", "passed", "rule"}} of one repetition."""
    if sp["workload"] == "longrange_report":
        return _report_gates(result, report_dir)
    return _spectral_gates(result)


def _gate(value, passed, rule):
    return {"value": value, "passed": bool(passed), "rule": rule}


def _report_gates(result, report_dir):
    out = {"exit_code": _gate(result.get("exit_code"),
                              result.get("exit_code") == 0, "== 0")}
    try:
        summary = json.loads((report_dir / "summary.json").read_text())
    except (OSError, ValueError):
        out["summary_json"] = _gate(None, False, "readable")
        return out
    checks = summary["checks"]

    def value(name):
        return checks.get(name, {}).get("value")

    out["all_passed"] = _gate(summary["all_passed"], summary["all_passed"],
                              "every summary.json check passed")
    cert = checks.get("escape_certificate", {})
    out["escape_certificate"] = _gate(
        cert.get("value"), cert.get("passed") and "value" in cert,
        "passed and not skipped")
    slope = value("sweep_slope")
    out["sweep_slope"] = _gate(slope, slope is not None
                               and 0.85 <= slope <= 1.15, "in [0.85, 1.15]")
    unif = value("sweep_uniformity")
    out["sweep_uniformity"] = _gate(unif, unif is not None and unif <= 3.0,
                                    "<= 3")
    wit = value("flow_scan_completed")
    out["witnesses"] = _gate(wit, wit == 0, "== 0")
    return out


def _spectral_gates(result):
    hs_err = result.get("hs_err")
    ratio = result.get("sup_ratio")
    nonchar = result.get("nonchar_ratios") or []
    worst = max(nonchar) if nonchar else None
    return {
        "hs_err": _gate(hs_err, hs_err is not None and hs_err <= 1e-5,
                        "|eig-HS|_2 <= 1e-5"),
        "sup_ratio": _gate(ratio, ratio is not None and ratio >= 10.0,
                           "trap/free window sup >= 10"),
        "nonchar": _gate(worst, worst is not None and worst <= 1.05,
                         "nonchar <= 1.05 x scalar"),
    }
