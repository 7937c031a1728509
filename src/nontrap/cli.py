"""Batch front end: plain-text configs in, CSV/JSON reports out.

The only user surface.  A configuration is a flat key = value file
('#' starts a comment); unknown keys and out-of-range values are rejected
with line diagnostics before anything is written, and the command line's
overrides go through the same checks.  Shipped presets cover the four
example models.  Outputs are deterministic at a fixed BLAS thread count
(the sweep's norms go through BLAS, whose sums change order with the
thread count): no wall clock, no seedless randomness, floats rendered
with repr, and every file embeds the version, the config hash and the
effective configuration.

Every command but calculus-tests computes one non-trapping verdict,
geometry.trapping_verdict, exact in 1D and free of any flow, and hands it
to the stages that need it.  full-report is the model's witness: the
verdict, the escape certificate (skipped on a trapping model) and the
resolvent sweep; it integrates no orbit.  flow-scan also runs the sampled
scan (flow.nontrapping_scan, the keys flow_samples and scan_t_max) as a
cross-check in files of its own.  calculus-tests checks symbol-calculus
facts that hold whatever the model is, so full-report leaves it out.

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
    "verify_x": 300,
    "verify_interior": 40,
    "verify_energy": 16,
    "contrast_scan": 21,
}

#: every key with its default; a key's value takes its default's type
#: (h_list: a tuple of floats)
_DEFAULTS = {**RUN_DEFAULTS, **geo.MODEL_DEFAULTS}

_RANGES = {
    "jobs": (1, 64),
    "epsilon": (1e-6, 0.25 - 1e-12),
    "s_weight": (0.5, 4.0),
    "grid_exponent": (8, 20),
    "box_half_length": (40.0, 10000.0),
    "flow_samples": (1, 100000),
    "scan_t_max": (1.0, 1e5),
    "verify_x": (10, 100000),
    "verify_interior": (2, 100000),
    "verify_energy": (2, 10000),
    "contrast_scan": (3, 2001),
}


def parse_config_text(text, source="<config>"):
    """Parse a key = value config; raises ConfigurationError with
    line/field diagnostics."""
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
        if key not in _DEFAULTS:
            raise ConfigurationError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = _coerce(key, val)
        except ValueError as e:
            raise ConfigurationError(f"{source}:{lineno}: field {key!r}: {e}")
    return out


def _coerce(key, val):
    """A key's value, config text or a library value, typed as its default
    is; a library value for an int key must be integral."""
    if key == "h_list":
        if isinstance(val, str):
            val = val.replace(",", " ").split()
        items = tuple(_finite(v) for v in val)
        if not items or any(h <= 0 for h in items):
            raise ValueError("h_list needs positive floats")
        return items
    kind = type(_DEFAULTS[key])
    if kind is float:
        return _finite(val)
    if kind is int and not isinstance(val, str) and val != int(val):
        raise ValueError(f"value {val!r} is not an integer")
    return kind(val)


def _finite(val):
    v = float(val)
    if not math.isfinite(v):
        raise ValueError(f"value {val!r} is not finite")
    return v


def effective_config(params):
    """Merge defaults, type each value as its default, validate keys and
    ranges."""
    unknown = sorted(set(params) - set(_DEFAULTS))
    if unknown:
        raise ConfigurationError(f"unknown key(s) {unknown}")
    cfg = dict(_DEFAULTS)
    for key, val in params.items():
        try:
            cfg[key] = _coerce(key, val)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigurationError(f"field {key!r}: {e}")
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
    if cfg["command"] == "flow-scan":
        _check_scan_reach(cfg, model)
    if cfg["command"] in ("escape-build", "escape-verify"):
        esc.check_constructible(model)
    if cfg["command"] in ("resolvent-sweep", "full-report"):
        # the sweep's h and grid, checked before any output; the finest h
        # needs the most points per wavelength
        rv.check_resolution(model, rv.sweep_hs(cfg["h_list"])[-1],
                            cfg["box_half_length"], 2 ** cfg["grid_exponent"])
    return cfg


def _check_scan_reach(cfg, model):
    """The scan samples |z| <= model.escape_radius; an orbit at the window's
    lowest speed at infinity, |dz/dt| = 2 sqrt(lambda2 - delta), needs
    R / (2 sqrt(lambda2 - delta)) to get from the origin to that radius.
    A scan_t_max below that decides no sample, each a false witness."""
    need = model.escape_radius / (2.0 * math.sqrt(model.lambda2 - model.delta))
    if need > cfg["scan_t_max"]:
        raise ConfigurationError(
            f"escape radius {model.escape_radius:.6g} takes "
            f"{need:.6g} time units to reach at the window's lowest speed, "
            f"more than scan_t_max = {cfg['scan_t_max']!r}: the scan cannot "
            "decide any sample")


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

def _write_verdict(rep: Reporter, verdict):
    """The verdict's reports and the flow_scan_completed check, whose value
    is the number of witnesses."""
    rep.write_csv("scan_summary.csv",
                  ["window_lo", "window_hi", "critical_below",
                   "critical_above", "components", "nontrapping"],
                  [[verdict.window[0], verdict.window[1],
                    verdict.critical_below, verdict.critical_above,
                    verdict.components, int(verdict.nontrapping)]])
    rep.write_csv("witnesses.csv", ["z1", "zeta1"],
                  [list(w) for w in verdict.witnesses])
    rep.check("flow_scan_completed", True, value=len(verdict.witnesses),
              note="non-trapping" if verdict.nontrapping
              else "trapping witnesses found")


def cmd_flow_scan(cfg, rep: Reporter, model, verdict):
    """The verdict's reports, and the sampled scan's cross-check in
    flow_scan.csv and flow_witnesses.csv."""
    _write_verdict(rep, verdict)
    scan = fl.nontrapping_scan(model, n_samples=cfg["flow_samples"],
                               T_max=cfg["scan_t_max"])
    rep.write_csv("flow_scan.csv",
                  ["window_lo", "window_hi", "sampled", "trapped",
                   "nontrapping"],
                  [[scan.window[0], scan.window[1], scan.sampled_points,
                    len(scan.trapped_witnesses),
                    int(scan.is_nontrapping_empirical)]])
    rep.write_csv("flow_witnesses.csv", ["z1", "zeta1"],
                  [list(w) for w in scan.trapped_witnesses])


def _assemble(cfg, rep: Reporter, model, verdict, verify_grid=None):
    e = esc.assemble_escape(model, cfg["epsilon"], verdict, verify_grid)
    body = [
        "escape function constants",
        f"epsilon = {e.eps!r}",
        f"C = {e.C!r}", f"C_prime = {e.C_prime!r}",
        f"c2 = {e.c2!r}", f"c3 = {e.c3!r}",
        e.constants.describe(),
        f"T_K = {e.T_K!r}",
        f"chi: 1 on |z| <= {2.0 / e.constants.x0!r}, "
        f"0 on |z| >= {4.0 / e.constants.x0!r}",
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


def cmd_escape_build(cfg, rep: Reporter, model, verdict):
    e = _assemble(cfg, rep, model, verdict)
    _dump_q_slice(e, rep)
    rep.check("escape_assembled", True, value=e.C_prime)


def cmd_escape_verify(cfg, rep: Reporter, model, verdict):
    # assemble_escape keeps the verification grid's pieces
    sizes = {"n_x": cfg["verify_x"], "n_interior": cfg["verify_interior"],
             "n_energy": cfg["verify_energy"]}
    e = _assemble(cfg, rep, model, verdict, tuple(sizes.values()))
    _dump_q_slice(e, rep)
    report = esc.verify_proposition(e, **sizes)
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


def cmd_resolvent_sweep(cfg, rep: Reporter, model, verdict):
    trapping = not verdict.nontrapping
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
    hs = rv.sweep_hs(cfg["h_list"])
    h_min = hs[-1]
    if trapping:
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
        # the discrete norm on the sweep's own grid at its middle h
        h_ref = hs[len(hs) // 2]
        op = rv.discretize(model, h_ref, L=cfg["box_half_length"],
                           N=rv.sweep_grid(2 ** cfg["grid_exponent"],
                                           h_min, h_ref))
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


def cmd_full_report(cfg, rep: Reporter, model, verdict):
    """The model's witness: the verdict's reports, the escape certificate
    (skipped on a trapping model) and the resolvent sweep."""
    _write_verdict(rep, verdict)
    if verdict.nontrapping:
        cmd_escape_verify(cfg, rep, model, verdict)
    else:
        rep.check("escape_certificate", True,
                  note="skipped: model is trapping")
    cmd_resolvent_sweep(cfg, rep, model, verdict)


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
    verdict = (None if command == "calculus-tests"
               else geo.trapping_verdict(model))
    if command == "full-report" and verdict.nontrapping:
        esc.check_constructible(model)  # the escape stage will run
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    rep = Reporter(outdir, cfg)
    if command == "calculus-tests":
        cmd_calculus_tests(cfg, rep)
    elif command == "flow-scan":
        cmd_flow_scan(cfg, rep, model, verdict)
    elif command == "escape-build":
        cmd_escape_build(cfg, rep, model, verdict)
    elif command == "escape-verify":
        cmd_escape_verify(cfg, rep, model, verdict)
    elif command == "resolvent-sweep":
        cmd_resolvent_sweep(cfg, rep, model, verdict)
    else:
        cmd_full_report(cfg, rep, model, verdict)
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
            try:
                text = args.config.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as e:
                raise ConfigurationError(f"cannot read {args.config}: {e}")
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
