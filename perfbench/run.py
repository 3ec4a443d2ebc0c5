"""fibermem benchmark: one workload, one seed, one run.

Usage, from the root of a fibermem checkout:

    python3 perfbench/run.py --workload kernels --seed 3 --seconds 50 --trace 0

Workloads: kernels, analysis.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of stdout is the result as one JSON
object; the full record goes to .perfbench/results/.  See README.md.
"""

import argparse
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small pass, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fibermem", "cli.py")):
        print("perfbench: run from a fibermem checkout; %s has no src/fibermem"
              % root, file=sys.stderr)
        return 2
    import harness
    import workloads

    # one thread everywhere; NumPy is not loaded yet, so its BLAS sees this
    for var in harness.THREAD_VARS:
        os.environ[var] = "1"
    # set-up is timed with the bytecode cache an installed package has,
    # whatever the caller's environment says
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    sys.path.insert(0, os.path.join(root, "src"))

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; known: %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    try:
        harness.run_workload(root, args.workload, args.seed, args.seconds,
                             bool(args.trace), tiny=args.tiny)
    except RuntimeError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
