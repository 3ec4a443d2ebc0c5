"""Time one fresh set-up: ``import fibermem.cli`` plus the warm-up requests.

Usage: python3 perfbench/probe.py WARMUP.json

WARMUP.json holds a list of argv lists for ``fibermem.cli.entry``.
Prints ``{"setup_s": seconds}``; exits 1 if a warm-up request fails.
The caller sets PYTHONPATH and the thread-count variables.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        warmup = json.load(fh)
    start = time.perf_counter()
    import fibermem.cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [fibermem.cli.entry(argv) for argv in warmup]
    elapsed = time.perf_counter() - start
    if any(codes):
        print(sink.getvalue(), file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
