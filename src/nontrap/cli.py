"""Batch front end: plain-text configs in, CSV/JSON reports out.

The only user surface.  A configuration is a flat key = value file
('#' starts a comment); unknown keys and out-of-range values are rejected
with line diagnostics before anything is written, and the command line's
overrides go through the same checks.  Shipped presets cover the four
example models.  Outputs are deterministic: no wall clock, no seedless
randomness, floats rendered with repr, and every file embeds the version,
the config hash and the effective configuration.

Every command but calculus-tests runs one non-trapping scan and hands its
verdict to the stages that need it.  full-report is the model's witness:
the scan, the escape certificate (skipped on a trapping model) and the
resolvent sweep.  calculus-tests checks symbol-calculus facts that hold
whatever the model is, so full-report leaves it out.

Exit status: 0 when every check in summary.json passed (a trapping model
on a sweep is flagged and its non-trapping checks are skipped, not
failed), 1 when one failed, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from nontrap import __version__
from nontrap import escape as esc
from nontrap import flow as fl
from nontrap import geometry as geo
from nontrap import quantize as qz
from nontrap import resolvent as rv
from nontrap.errors import (ConfigurationError, ConstructionError,
                            ConvergenceError, IntegrationError)

COMMANDS = ("flow-scan", "escape-build", "escape-verify", "calculus-tests",
            "resolvent-sweep", "full-report")

RUN_DEFAULTS = {
    "command": "full-report",
    "out": "out",
    "jobs": 1,
    "epsilon": 0.2,
    "s_weight": 0.7,
    "h_list": (0.2, 0.14, 0.1, 0.07, 0.05),
    "box_half_length": 200.0,
    "grid_exponent": 15,
    "flow_samples": 300,
    "scan_t_max": 150.0,
    "r_escape": 40.0,
    "verify_x": 300,
    "verify_interior": 40,
    "verify_energy": 16,
    "contrast_scan": 21,
}

_INT_KEYS = {"jobs", "grid_exponent", "flow_samples", "verify_x",
             "verify_interior", "verify_energy", "contrast_scan"}
_FLOAT_KEYS = {"epsilon", "s_weight", "box_half_length", "scan_t_max",
               "r_escape", "amplitude", "gamma", "separation", "lambda2",
               "delta"}

_RANGES = {
    "jobs": (1, 64),
    "epsilon": (1e-6, 0.25 - 1e-12),
    "s_weight": (0.5, 4.0),
    "grid_exponent": (8, 20),
    "box_half_length": (40.0, 10000.0),
    "flow_samples": (1, 100000),
    "scan_t_max": (1.0, 1e5),
    "r_escape": (1.0, 1e4),  # the chart is exact from radius 1
    "verify_x": (10, 100000),
    "verify_interior": (2, 100000),
    "verify_energy": (2, 10000),
    "contrast_scan": (3, 2001),
}


def parse_config_text(text, source="<config>"):
    """Parse a key = value config; raises ConfigurationError with
    line/field diagnostics."""
    known = set(RUN_DEFAULTS) | set(geo.MODEL_DEFAULTS)
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{source}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigurationError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = _coerce(key, val)
        except ValueError as e:
            raise ConfigurationError(f"{source}:{lineno}: field {key!r}: {e}")
    return out


def _coerce(key, val):
    if key == "h_list":
        items = tuple(_finite(v) for v in val.replace(",", " ").split())
        if not items or any(h <= 0 for h in items):
            raise ValueError("h_list needs positive floats")
        return items
    if key in _INT_KEYS:
        return int(val)
    if key in _FLOAT_KEYS:
        return _finite(val)
    return val  # command, out, potential


def _finite(val):
    v = float(val)
    if not math.isfinite(v):
        raise ValueError(f"value {val!r} is not finite")
    return v


def effective_config(params):
    """Merge defaults, validate keys and ranges, split model/run parts."""
    unknown = sorted(set(params) - set(RUN_DEFAULTS) - set(geo.MODEL_DEFAULTS))
    if unknown:
        raise ConfigurationError(f"unknown key(s) {unknown}")
    cfg = dict(RUN_DEFAULTS)
    cfg.update({k: geo.MODEL_DEFAULTS[k] for k in geo.MODEL_DEFAULTS})
    cfg.update(params)
    if cfg["command"] not in COMMANDS:
        raise ConfigurationError(
            f"unknown command {cfg['command']!r}; expected one of {COMMANDS}"
        )
    for key, (lo, hi) in _RANGES.items():
        v = cfg[key]
        if not lo <= v <= hi:
            raise ConfigurationError(
                f"field {key!r}: value {v} outside documented range [{lo}, {hi}]"
            )
    model = _model_from(cfg)  # rejects keys the potential never reads
    if cfg["command"] in ("resolvent-sweep", "full-report"):
        # the sweep's h and grid, checked before any output; the finest h
        # needs the most points per wavelength
        rv.check_resolution(model, rv.sweep_hs(cfg["h_list"])[-1],
                            cfg["box_half_length"], 2 ** cfg["grid_exponent"])
    return cfg


#: execution details that do not affect results (left out of the echo so a
#: config re-run into another directory byte-reproduces its reports)
_EPHEMERAL_KEYS = {"out", "jobs"}


def config_lines(cfg):
    """Canonical echo of the effective configuration."""
    lines = []
    for k in sorted(cfg):
        if k in _EPHEMERAL_KEYS:
            continue
        v = cfg[k]
        if isinstance(v, tuple):
            v = ", ".join(repr(x) for x in v)
        lines.append(f"{k} = {v}")
    return lines


def config_hash(cfg):
    return hashlib.sha256("\n".join(config_lines(cfg)).encode()).hexdigest()[:16]


def _fmt(v):
    # np.float64 subclasses float, and its repr under numpy 2 is
    # 'np.float64(...)': render every float through the builtin
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return repr(int(v))
    return str(v)


class Reporter:
    """Writes deterministic CSV/text files stamped with provenance."""

    def __init__(self, outdir: Path, cfg):
        self.outdir = outdir
        self.cfg = cfg
        self.sha = config_hash(cfg)
        self.checks = {}

    def stamp(self):
        lines = [f"# nontrap {__version__}", f"# config-sha256: {self.sha}"]
        lines += [f"# {ln}" for ln in config_lines(self.cfg)]
        return lines

    def write_csv(self, name, columns, rows):
        path = self.outdir / name
        with open(path, "w") as fh:
            for ln in self.stamp():
                fh.write(ln + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return path

    def write_text(self, name, body):
        path = self.outdir / name
        with open(path, "w") as fh:
            for ln in self.stamp():
                fh.write(ln + "\n")
            fh.write(body if body.endswith("\n") else body + "\n")
        return path

    def check(self, name, passed, value=None, note=""):
        self.checks[name] = {"passed": bool(passed)}
        if value is not None:
            self.checks[name]["value"] = float(value) if isinstance(
                value, (int, float, np.floating)) else value
        if note:
            self.checks[name]["note"] = note

    def summary(self, command):
        data = {
            "version": __version__,
            "config_sha256": self.sha,
            "command": command,
            "checks": self.checks,
            "all_passed": all(c["passed"] for c in self.checks.values()),
        }
        with open(self.outdir / "summary.json", "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return data


def _model_from(cfg):
    return geo.build_model({k: cfg[k] for k in geo.MODEL_DEFAULTS})


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _scan(cfg, model):
    """The run's one non-trapping verdict, from the scan keys."""
    return fl.nontrapping_scan(
        model, n_samples=cfg["flow_samples"], T_max=cfg["scan_t_max"],
        R_esc=cfg["r_escape"],
    )


def cmd_flow_scan(cfg, rep: Reporter, verdict):
    rep.write_csv("scan_summary.csv",
                  ["window_lo", "window_hi", "sampled", "trapped",
                   "nontrapping"],
                  [[verdict.window[0], verdict.window[1],
                    verdict.sampled_points, len(verdict.trapped_witnesses),
                    int(verdict.is_nontrapping_empirical)]])
    wit_rows = [list(w) for w in verdict.trapped_witnesses]
    rep.write_csv("witnesses.csv", ["z1", "zeta1"], wit_rows)
    rep.check("flow_scan_completed", True,
              value=len(verdict.trapped_witnesses),
              note="trapping witnesses found" if wit_rows else "non-trapping")


def _assemble(cfg, rep: Reporter, verdict):
    e = esc.assemble_escape(_model_from(cfg), cfg["epsilon"], verdict)
    body = [
        "escape function constants",
        f"epsilon = {e.eps!r}",
        f"C = {e.C!r}", f"C_prime = {e.C_prime!r}",
        f"c2 = {e.c2!r}", f"c3 = {e.c3!r}",
        e.constants.describe(),
        f"tubes = {len(e.tubes.tubes)} (max T = {e.tubes.max_T!r})",
        f"covering: {e.tubes.covering.n_uncovered} uncovered of "
        f"{e.tubes.covering.n_test}",
        "cascade: " + json.dumps(e.cascade, sort_keys=True),
    ]
    rep.write_text("escape_report.txt", "\n".join(body))
    return e


def _dump_q_slice(e, rep: Reporter):
    """q and H_p q on the right end (z >= 1) of the construction grid,
    read off the pieces assemble_escape evaluated there (plot data)."""
    pc = e.grid_pieces
    q, hp = e.combine(pc)
    rows = np.stack([pc.x, pc.tau, q * pc.psi, hp * pc.psi], axis=-1)
    rep.write_csv("q_slice.csv", ["x", "tau", "q", "hp_q"],
                  rows[e.grid[:, 0] >= 1.0].tolist())


def cmd_escape_build(cfg, rep: Reporter, verdict):
    e = _assemble(cfg, rep, verdict)
    _dump_q_slice(e, rep)
    rep.check("escape_assembled", True, value=e.C_prime)


def cmd_escape_verify(cfg, rep: Reporter, verdict):
    e = _assemble(cfg, rep, verdict)
    _dump_q_slice(e, rep)
    report = esc.verify_proposition(
        e, n_x=cfg["verify_x"], n_interior=cfg["verify_interior"],
        n_energy=cfg["verify_energy"],
    )
    rows = [[report.c_prime, report.c_dprime, report.b_floor,
             report.n_points, int(report.passed)]]
    rep.write_csv("verify.csv",
                  ["c_prime", "c_dprime", "b_floor", "n_points", "passed"],
                  rows)
    if report.witnesses:
        rep.write_csv("verify_witnesses.csv", ["z1", "zeta1"],
                      [list(w) for w in report.witnesses])
    rep.check("escape_certificate", report.passed, value=report.c_dprime)


def cmd_calculus_tests(cfg, rep: Reporter):
    L, N = 3 * math.pi, 1024
    hs = (0.2, 0.1, 0.05, 0.025)
    a = qz.Symbol(fn=lambda z, zeta: zeta**2 + 0.0 * z,
                  dz=lambda z, zeta: 0.0 * z,
                  dzeta=lambda z, zeta: 2.0 * zeta, name="kinetic")
    b = qz.Symbol(fn=lambda z, zeta: np.exp(-(z**2)) + 0.0 * zeta,
                  dz=lambda z, zeta: -2.0 * z * np.exp(-(z**2)),
                  dzeta=lambda z, zeta: 0.0 * zeta, name="gauss")
    rows = []
    defects = []
    for h in hs:
        q = qz.GridQuantization(L=L, N=N, h=h)
        d = qz.commutator_defect(a, b, q)
        defects.append(d)
        rows.append(["commutator_defect", h, d])
    slope = float(np.polyfit(np.log(hs), np.log(defects), 1)[0])
    rep.check("commutator_slope", abs(slope - 1.0) <= 0.2, slope)
    ratios = np.array(defects[:-1]) / np.array(defects[1:])
    rep.check("commutator_halving", bool(np.all(np.abs(ratios - 2.0) <= 0.3)),
              float(np.max(np.abs(ratios - 2.0))))
    for sym in qz.garding_test_symbols():
        vals = []
        for h in hs:
            q = qz.GridQuantization(L=L, N=N, h=h)
            f = qz.garding_floor(sym, q)
            vals.append(abs(f) / h)
            rows.append([f"garding_{sym.name}", h, f])
        drift = (max(vals) - min(vals)) / max(vals)
        rep.check(f"garding_drift_{sym.name}", drift <= 0.5, drift)
    qg = qz.GridQuantization(L=L, N=N, h=0.1)
    ident = qz.quantize(qz.Symbol(fn=lambda z, zeta: np.ones_like(z)), qg)
    rep.check("quantize_identity",
              float(np.max(np.abs(ident - np.eye(N)))) <= 1e-12)
    u = np.exp(-(qg.z**2))
    rep.check("weighted_norm_l2",
              abs(qz.weighted_norm(u, 0, 0, qg) - qg.norm(u)) <= 1e-12)
    rep.write_csv("calculus.csv", ["check", "h", "value"], rows)


def cmd_resolvent_sweep(cfg, rep: Reporter, verdict):
    model = _model_from(cfg)
    trapping = not verdict.is_nontrapping_empirical
    report = rv.h_sweep(
        model, h_list=cfg["h_list"], s=cfg["s_weight"],
        L=cfg["box_half_length"], N=2 ** cfg["grid_exponent"],
        jobs=cfg["jobs"],
    )
    rows = [[c.h, c.lambda2, c.t, c.s, c.norm, c.iterations, c.mode]
            for c in report.cells]
    rep.write_csv("sweep.csv",
                  ["h", "lambda2", "t", "s", "norm", "iterations", "mode"],
                  rows)
    summary_rows = [[report.slope, report.intercept, report.residual,
                     report.max_uniformity_ratio, int(trapping)]]
    rep.write_csv("sweep_summary.csv",
                  ["slope", "intercept", "residual", "max_uniformity",
                   "trapping_flagged"], summary_rows)
    if trapping:
        h_min = min(cfg["h_list"])
        sup, arg = rv.window_sup_norm(
            model, h_min, s=cfg["s_weight"], n_scan=cfg["contrast_scan"],
            L=cfg["box_half_length"], N=2 ** cfg["grid_exponent"],
        )
        rep.write_csv("trapping_row.csv",
                      ["h", "window_sup_norm", "argmax_lambda2"],
                      [[h_min, sup, arg]])
        rep.check("trapping_flagged", True, value=sup,
                  note="non-trapping slope check skipped (expected-trapping)")
        return
    rep.check("sweep_slope", 0.85 <= report.slope <= 1.15, report.slope)
    rep.check("sweep_uniformity", report.max_uniformity_ratio <= 3.0,
              report.max_uniformity_ratio)
    if cfg["potential"] == "zero":
        h_ref = cfg["h_list"][len(cfg["h_list"]) // 2]
        op = rv.discretize(model, h_ref, L=cfg["box_half_length"],
                           N=2 ** cfg["grid_exponent"], boundary="cap")
        got = rv.weighted_resolvent_norm(op, model.lambda2,
                                         1e-3, cfg["s_weight"]).value
        want = rv.analytic_free_resolvent_norm(
            model.lambda2, 1e-3, h_ref, cfg["s_weight"],
            L=cfg["box_half_length"], M=2 ** cfg["grid_exponent"],
            certify=False,
        )
        rel = abs(got - want) / want
        rep.write_csv("oracle.csv", ["h", "discrete", "oracle", "rel_err"],
                      [[h_ref, got, want, rel]])
        rep.check("oracle_agreement", rel <= 0.02, rel)


def cmd_full_report(cfg, rep: Reporter, verdict):
    """The model's witness: the scan's reports, the escape certificate
    (skipped on a trapping model) and the resolvent sweep."""
    cmd_flow_scan(cfg, rep, verdict)
    if verdict.is_nontrapping_empirical:
        cmd_escape_verify(cfg, rep, verdict)
    else:
        rep.check("escape_certificate", True,
                  note="skipped: model is trapping")
    cmd_resolvent_sweep(cfg, rep, verdict)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(params, out_override=None, command_override=None, jobs_override=None):
    """Execute one experiment configuration; returns the exit status."""
    overrides = {"command": command_override, "out": out_override,
                 "jobs": jobs_override}
    cfg = effective_config(dict(params, **{k: v for k, v in overrides.items()
                                           if v is not None}))
    command = cfg["command"]
    model = _model_from(cfg)
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    rep = Reporter(outdir, cfg)
    if command == "calculus-tests":
        cmd_calculus_tests(cfg, rep)
    else:
        verdict = _scan(cfg, model)
        if command == "flow-scan":
            cmd_flow_scan(cfg, rep, verdict)
        elif command == "escape-build":
            cmd_escape_build(cfg, rep, verdict)
        elif command == "escape-verify":
            cmd_escape_verify(cfg, rep, verdict)
        elif command == "resolvent-sweep":
            cmd_resolvent_sweep(cfg, rep, verdict)
        else:
            cmd_full_report(cfg, rep, verdict)
    data = rep.summary(command)
    for name in sorted(data["checks"]):
        entry = data["checks"][name]
        status = "PASS" if entry["passed"] else "FAIL"
        extra = f" value={entry.get('value')!r}" if "value" in entry else ""
        note = f" ({entry['note']})" if "note" in entry else ""
        print(f"[{status}] {name}{extra}{note}")
    return 0 if data["all_passed"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="nontrap",
        description="escape functions and weighted resolvent scaling for "
                    "asymptotically Euclidean model problems",
    )
    ap.add_argument("command", nargs="?", default=None,
                    help=f"override the config command ({', '.join(COMMANDS)})")
    ap.add_argument("--config", type=Path, default=None,
                    help="path to a key = value configuration file")
    ap.add_argument("--preset", default=None,
                    help=f"model preset ({', '.join(sorted(geo.PRESETS))})")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--jobs", type=int, default=None,
                    help="parallel workers for sweep cells")
    args = ap.parse_args(argv)
    try:
        params = {}
        if args.preset is not None:
            if args.preset not in geo.PRESETS:
                raise ConfigurationError(
                    f"unknown preset {args.preset!r}; have {sorted(geo.PRESETS)}"
                )
            params.update(geo.PRESETS[args.preset])
        if args.config is not None:
            text = args.config.read_text()
            params.update(parse_config_text(text, source=str(args.config)))
        if not params and args.preset is None and args.config is None:
            ap.error("need --config and/or --preset")
        return run(params, out_override=args.out,
                   command_override=args.command, jobs_override=args.jobs)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except (ConstructionError, ConvergenceError, IntegrationError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
