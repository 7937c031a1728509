"""nontrap benchmark: one command, end-to-end metrics, gated outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
./src.  Every repetition is a fresh child process (perfbench/child.py)
with jobs = 1 and every BLAS/OpenMP pool pinned to one thread; children
run one after another, so the machine never sees more than one busy
benchmark process.  Repetitions run while one more is expected to end
within --seconds (at least one runs), and each one's outputs must pass
the workload's gates and be byte-identical to the first repetition's.  A child still running RUN_LIMIT_S into the run is killed
and counts as failed, so a run always ends in time.

--trace 0 prints the end-to-end metrics (medians over the repetitions).
--trace 1 runs one untraced and one traced repetition and prints the
per-layer metrics, derived from the traced child's span file.  The last
stdout line is always one JSON object: correct, attempted, failed, metrics.
Artefacts (reports, logs, span files, a full result record with the
environment) go to .bench_out/ under the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: set-up samples per run; extra set-up-only children fill up to this
MIN_SETUPS = 3
#: children still running this long after the run started are killed
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark cannot run here (not a repetition failure)."""


def _bench_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def _source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: BLAS_THREADS for v in THREAD_VARS},
        "jobs": 1,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _spawn(spec_path, rep_dir, trace, setup_only, deadline):
    """Run one child; return (result dict or None, rusage, exit code,
    spawn time, seconds from spawn to exit)."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path),
           str(rep_dir), str(int(trace)), str(int(setup_only))]
    with open(rep_dir / "child.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        status, ru = _wait(proc, deadline)
        rep_s = time.monotonic() - t_spawn
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    try:
        result = json.loads((rep_dir / "result.json").read_text())
    except (OSError, ValueError):
        result = None
    return result, ru, code, t_spawn, rep_s


def _wait(proc, deadline):
    """wait4 until the deadline; the child is killed when it overruns."""
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            return status, ru
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            _, status, ru = os.wait4(proc.pid, 0)
            return status, ru
        time.sleep(0.02)


def _report_bytes(report_dir):
    if not report_dir.is_dir():
        return {}
    return {str(p.relative_to(report_dir)): p.read_bytes()
            for p in sorted(report_dir.rglob("*")) if p.is_file()}


class Repetitions:
    """Runs and checks the repetitions of one benchmark run."""

    def __init__(self, sp, work):
        self.sp = sp
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.spec_path = work / "spec.json"
        self.spec_path.write_text(json.dumps(sp))
        self.reps = []
        self.setups = []
        self.reference = None
        self.versions = None

    def run(self, trace=False, setup_only=False):
        tag = f"setup{len(self.setups)}" if setup_only else f"rep{len(self.reps)}"
        rep_dir = self.work / tag
        result, ru, code, t_spawn, rep_s = _spawn(
            self.spec_path, rep_dir, trace, setup_only, self.deadline)
        ok_child = code == 0 and result is not None
        if ok_child:
            if not result["nontrap_file"].startswith(str(ROOT / "src")):
                raise BenchError(f"child imported {result['nontrap_file']}, "
                                 f"not the checkout's src/")
            self.versions = result["versions"]
            self.setups.append(result["t_ready"] - t_spawn)
        if setup_only:
            return None
        report_dir = rep_dir / "report"
        gates = workloads.gates(self.sp, result or {}, report_dir) \
            if ok_child else {}
        files = _report_bytes(report_dir)
        if self.reference is None and ok_child:
            self.reference = files
        identical = ok_child and files == self.reference
        rep = {
            "dir": str(rep_dir.relative_to(ROOT)),
            "trace": trace,
            "exit_code": code,
            "wall_s": result.get("wall_s") if ok_child else None,
            "rep_s": rep_s,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "report_bytes": sum(len(b) for b in files.values()),
            "identical": identical,
            "gates": gates,
        }
        rep["failed"] = not (ok_child and identical and gates
                             and all(g["passed"] for g in gates.values()))
        self.reps.append(rep)
        return rep

    def fill_setups(self):
        for _ in range(MIN_SETUPS - len(self.setups)):
            self.run(setup_only=True)

    @property
    def failed(self):
        return sum(r["failed"] for r in self.reps)


def _median(values):
    """Median, or 0.0 when no repetition produced the value (the run is
    then reported as not correct)."""
    return statistics.median(values) if values else 0.0


def run_benchmark(name, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (record, final JSON object)."""
    if not (ROOT / "src" / "nontrap" / "__init__.py").is_file():
        raise BenchError(f"no nontrap sources under {ROOT / 'src'}")
    if name not in workloads.NAMES:
        raise BenchError(f"unknown workload {name!r}; have {workloads.NAMES}")
    bench = _bench_spec()
    sp = workloads.spec(name, seed, smoke)
    work = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    reps = Repetitions(sp, work)
    t0 = time.monotonic()
    if trace:
        reps.run()
        traced = reps.run(trace=True)
    else:
        while True:
            reps.run()
            elapsed = time.monotonic() - t0
            est = _median([r["rep_s"] for r in reps.reps])
            if elapsed + est > seconds or t0 + elapsed > reps.deadline:
                break
        reps.fill_setups()

    untraced = [r for r in reps.reps if not r["trace"]]
    wall_untraced = _median([r["wall_s"] for r in untraced
                             if r["wall_s"] is not None])
    if trace:
        metrics = _layer_metrics(bench, reps, traced, wall_untraced)
    else:
        metrics = {
            "wall_s": (wall_untraced, "s"),
            "setup_s": (_median(reps.setups), "s"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in untraced]),
                            "MB"),
        }
    for m in bench["per_layer" if trace else "end_to_end"]:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} not produced")
    attempted = len(reps.reps)
    final = {
        "correct": reps.failed == 0,
        "attempted": attempted,
        "failed": reps.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "spec": sp, "trace": trace, "smoke": smoke,
        "seconds": seconds, "run_s": time.monotonic() - t0,
        "environment": dict(environment(seed), versions=reps.versions),
        "setup_samples_s": reps.setups, "repetitions": reps.reps,
        "failed_ratio": reps.failed / attempted, "result": final,
    }
    with open(work / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record, final


def _layer_metrics(bench, reps, traced, wall_untraced):
    spans_path = ROOT / traced["dir"] / "spans.jsonl"
    if spans_path.is_file():
        values = tracing.layer_metrics(*tracing.read_spans(spans_path))
    else:  # the traced child failed; the run is reported as not correct
        values = tracing.layer_metrics(
            {"leaf": tracing.LEAF, "leaf_calls": 0, "leaf_s": 0.0}, [])
    values["cli.report_bytes"] = (traced["report_bytes"], "bytes")
    values["cli.cpu_s"] = (traced["cpu_s"], "s")
    values["trace.wall_s"] = (traced["wall_s"] or 0.0, "s")
    values["trace.overhead_s"] = ((traced["wall_s"] or 0.0) - wall_untraced,
                                  "s")
    values["failed_ratio"] = (reps.failed / len(reps.reps), "ratio")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for k, (_, unit) in values.items():
        if k in units and units[k] != unit:
            raise BenchError(f"unit of {k}: {unit} != {units[k]}")
    return values


def print_human(record):
    env = record["environment"]
    ver = env.get("versions") or {}
    print(f"workload {record['workload']} seed {env['seed']} "
          f"trace {int(record['trace'])} "
          f"repetitions {len(record['repetitions'])} "
          f"({record['run_s']:.1f} s)")
    print(f"env nproc={env['nproc']} blas_threads={BLAS_THREADS} jobs=1 "
          f"python={ver.get('python')} numpy={ver.get('numpy')} "
          f"scipy={ver.get('scipy')} commit={env['git_commit']} "
          f"src={env['source_sha256']}")
    for rep in record["repetitions"]:
        bad = [k for k, g in rep["gates"].items() if not g["passed"]]
        wall = rep["wall_s"]
        print(f"  {rep['dir']}: exit={rep['exit_code']} "
              f"wall_s={wall if wall is None else round(wall, 3)} "
              f"identical={rep['identical']} "
              f"gates={'FAIL ' + ','.join(bad) if bad else 'pass'}")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  failed_ratio = {record['failed_ratio']!r} ratio "
          f"({record['result']['failed']}/{record['result']['attempted']})")


#: (workload, trace) pairs of the smoke mode; the report workload's fixed
#: escape and calculus stages make each of its children take ~30 s, so it
#: runs the trace mode only (one untraced and one traced child)
SMOKE_RUNS = (("spectral_calculus", False), ("spectral_calculus", True),
              ("longrange_report", True))


def smoke():
    """Tiny configs through both modes; checks that every metric named in
    BENCHMARK.json is emitted with its unit and that gates were evaluated."""
    bench = _bench_spec()
    problems = []
    for name, trace in SMOKE_RUNS:
        record, final = run_benchmark(name, 1, 0, trace, smoke=True)
        print_human(record)
        for m in bench["per_layer" if trace else "end_to_end"]:
            got = final["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"] \
                    or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{name}: {m['name']} missing")
        for rep in record["repetitions"]:
            if not rep["gates"] or any(g["value"] is None
                                       for g in rep["gates"].values()):
                problems.append(f"{name}: gates not evaluated")
        if not final["correct"]:
            problems.append(f"{name}: not correct")
    for p in problems:
        print("SMOKE FAIL", p)
    print("SMOKE", "FAIL" if problems else "OK")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configs through both modes; self-check")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        record, final = run_benchmark(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print_human(record)
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
