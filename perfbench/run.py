"""Benchmark entry point: one workload, one seed, one timed run.

Run from the root of a lanecert checkout:

    python3 perfbench/run.py --workload cycle-k2 --seed 1 --seconds 40 --trace 0

It imports lanecert from ``src/`` of the current directory and exits with code
2 if there is none.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench-out/``.  A JSON report (gates, bound slack, label hash, reject
reasons by mutation, machine) comes first; the last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when a correctness gate fails.
"""

import argparse
import json
import os
import platform
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lanecert", "__init__.py")):
        print("perfbench: no lanecert sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import lanecert

    if not os.path.abspath(lanecert.__file__).startswith(src + os.sep):
        print("perfbench: lanecert imported from outside the checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    metrics, attempted, failed, correct, report, tracer = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    report["machine"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }
    if tracer is not None:
        out_dir = os.path.join(root, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "spans-%s-seed%d.tsv" % (args.workload, args.seed))
        tracer.write(path)
        report["spans_file"] = os.path.relpath(path, root)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
