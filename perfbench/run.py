"""The QMatch repository benchmark: one command, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload match-served --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of the workload,
``--trace 1`` runs the traced per-layer pass over the same inputs.
Human-readable lines go first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no QMatch sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from qbench import checks
    from qbench.layers import run_traced
    from qbench.service import become_subreaper, stop_descendants
    from qbench.workloads import WORKLOADS, RunContext

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    become_subreaper()
    helpers = checks.helper_pool()
    try:
        ctx = RunContext(root=ROOT, workdir=workdir, seed=args.seed,
                         seconds=args.seconds, helpers=helpers)
        if args.trace:
            outcome = run_traced(args.workload, ctx)
        else:
            outcome = WORKLOADS[args.workload](ctx)
    finally:
        helpers.shutdown(wait=True)
        left = stop_descendants()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    if left:
        print(f"perfbench: processes {left} did not stop", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    for flag in outcome.flags:
        print(f"  FLAG: {flag}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED: {failure}")
    for name, value in outcome.metrics.items():
        print(f"  {name:<28} {value:>16.6f} {outcome.units[name]}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
