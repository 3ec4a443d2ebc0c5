"""Regenerate reference.json: the values the default seed must reproduce.

Usage, from the root of a fibermem checkout:

    python3 perfbench/make_reference.py

Runs one checked pass of every workload at the default seed and writes
the values the checker compares (efficiencies, leak, n_eff, surface
intensities, fit parameters and their standard errors).  Regenerate it
only with a change that means to move the program's numbers, and say
why in that change.
"""

import json
import os
import shutil
import sys


def main() -> int:
    root = os.getcwd()
    import harness
    import workloads

    for var in harness.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import fibermem.cli

    reference = {}
    work = os.path.join(root, ".perfbench", "reference-work")
    try:
        for name in workloads.WORKLOADS:
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            workload = workloads.generate(name, harness.DEFAULT_SEED, work)
            workload.write_files()
            run = harness.Run(workload, lambda argv: fibermem.cli.entry(argv), None)
            run.run_pass(0)
            if run.failed:
                for _, i, problems in run.failures:
                    print("%s request %d: %s" % (name, i, "; ".join(problems)),
                          file=sys.stderr)
                return 1
            reference[name] = {"requests": run.values}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(harness.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % harness.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
