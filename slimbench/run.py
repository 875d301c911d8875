"""The SLIMPad-over-the-service benchmark: one command, one JSON line.

::

    python3 slimbench/run.py --workload pad-edit --seed 1 --seconds 20 \\
        --trace 0

Runs from the root of a source checkout: the server is started from the
checkout's ``src/`` and nothing is installed.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the run record (host/config fingerprint, per-round detail,
stationarity, and with ``--trace 1`` the per-layer breakdown).  Exits
non-zero, printing no result, when the run cannot be measured or any
answer or stored triple disagrees with the model of acked writes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pad-edit", "pad-browse", "pad-reopen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    # Client and server (which inherits this) share one CPU: a request's
    # hand-offs are then switches on that CPU, not wake-ups of another
    # one, whose latency on a shared host follows the neighbours' load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A SIGTERM unwinds like an error, so the server is stopped and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import harness
    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), emit=print)
    except harness.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not result["correct"] or result["failed"]:
        print("answers or stored triples disagree with the model of acked "
              "writes (see MISMATCH lines)", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
