"""Tests of the benchmark harness.

    python -m pytest perfbench/tests -q

The smoke test runs the harness end to end on tiny configs (about two
minutes); the others check the span arithmetic and the refusal to run
without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def _span(i, name, t0, t1, parent=-1, attrs=None, leaf=(0, 0.0)):
    return {"id": i, "name": name, "start": t0, "end": t1, "parent": parent,
            "attrs": attrs or {}, "leaf_calls": leaf[0], "leaf_s": leaf[1]}


def test_layer_metrics_self_time_counts_and_outermost_solves():
    header = {"leaf": tracing.LEAF, "leaf_calls": 7, "leaf_s": 0.5}
    spans = [
        _span(0, "escape.assemble_escape", 0.0, 10.0, leaf=(3, 0.25)),
        _span(1, "flow.nontrapping_scan", 0.0, 2.0, 0,
              {"witnesses": 0, "sampled": 5}),
        _span(2, "flow.classify_point", 0.5, 1.0, 1),
        _span(3, "escape.eval_q_circ", 2.0, 6.0, 0, {"points": 40}),
        _span(4, "resolvent.weighted_resolvent_norm", 10.0, 12.0, -1,
              {"iterations": 6}),
        _span(5, "resolvent.solve", 10.0, 10.5, 4),
        _span(6, "resolvent.solve", 10.5, 11.0, 4),
        _span(7, "resolvent.solve", 10.6, 10.9, 6),
    ]
    m = tracing.layer_metrics(header, spans)
    assert m["escape.assemble_s"] == (10.0 - 2.0 - 4.0 - 0.25, "s")
    assert m["flow.scan_calls"] == (1, "count")
    assert m["flow.points_classified"] == (1, "count")
    assert m["escape.q_circ_points"] == (40, "count")
    assert m["resolvent.solves"] == (2, "count")
    assert m["resolvent.solve_s"] == (1.0, "s")
    assert m["resolvent.iterations_per_norm"] == (6.0, "count")
    assert m["geometry.field_calls"] == (7, "count")


def test_every_per_layer_metric_is_derived_or_added_by_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    derived = set(tracing.layer_metrics(
        {"leaf": tracing.LEAF, "leaf_calls": 0, "leaf_s": 0.0}, []))
    added = {"cli.report_bytes", "cli.cpu_s", "trace.wall_s",
             "trace.overhead_s", "failed_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == derived | added


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "spectral_calculus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_smoke_mode_emits_every_metric_and_evaluates_gates():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    tail = out.stdout[-4000:] + out.stderr[-4000:]
    assert out.returncode == 0, tail
    assert out.stdout.strip().splitlines()[-1] == "SMOKE OK", tail
