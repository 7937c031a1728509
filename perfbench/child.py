"""One repetition of a workload in a fresh process.

    python3 perfbench/child.py <spec.json> <rep_dir> <trace 0|1> <setup_only 0|1>

Sets up, runs the timed call once and writes <rep_dir>/result.json.  The
monotonic clock is shared by all processes on the machine, so the parent
measures set-up from its own spawn time to `t_ready`.  With trace 1 the
span file goes to <rep_dir>/spans.jsonl.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    spec_path, rep_dir, trace, setup_only = argv
    rep_dir = Path(rep_dir)
    sp = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    import nontrap

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    timed = workloads.setup(sp)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "nontrap_file": nontrap.__file__}
    if setup_only != "1":
        values = timed(rep_dir / "report")
        result["wall_s"] = time.monotonic() - t_ready
        result.update(values)
    if tracer is not None:
        tracer.write(rep_dir / "spans.jsonl")
    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    with open(rep_dir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
