"""The host-speed reference: a fixed kernel that does not touch qlognorm.

The shared hosts this benchmark runs on change speed by up to 2x, for
seconds to minutes at a time, and single-threaded interpreter work suffers
most.  A run's op times divided by this kernel's mean time, measured on the
CPUs in use right after each round of ops, cancel much of that drift;
run.py reports times scaled that way (see REF_NOMINAL_S there).

run.py starts one reference process per CPU in use, pinned to it.  Each
request line on stdin is answered by one JSON line on stdout:

    {"ref": true} -> {"ref": seconds}
    {"quit": true} -> {}
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def kernel() -> int:
    """About 0.5 s of the kinds of work the CLI ops do."""
    x = np.linspace(0.01, 5.0, 10_000)
    big = np.linspace(0.01, 5.0, 2_000_000)
    acc = 0.0
    for i in range(50_000):    # small numpy calls, like per-point eval
        acc += float(np.log1p(x[i % 9992:i % 9992 + 8]).sum())
    for _ in range(1800):      # passes over a cached array, like a likelihood
        acc += float(np.sum(np.log(x) * x - np.sqrt(x)))
    for _ in range(12):        # passes over an array larger than the caches
        acc += float(np.sum(np.log1p(big) * big))
    # float formatting, like writing outputs
    text = "\n".join(repr(v) for v in (x * 1.000001).tolist() * 15)
    table = {}
    for i in range(450_000):   # plain interpreter work
        table[i & 1023] = acc * 0.5 + i
    return len(text) + len(table)


def main() -> int:
    kernel()  # first-call costs stay out of the timings
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        if json.loads(line).get("quit"):
            print(json.dumps({}), flush=True)
            return 0
        t0 = time.perf_counter()
        kernel()
        print(json.dumps({"ref": time.perf_counter() - t0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
