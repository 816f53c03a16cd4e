"""Fixed reference work that measures how fast the machine is now.

On a 2-vCPU virtual machine on a shared host (Intel Xeon, Python 3.11) the
CPU's speed changes by up to 2x within seconds as other tenants load the
host, and a wall time alone does not repeat from run to run. Timing this
loop just before and just after each measured stage gives the speed of the
CPU around that stage. Its work is
the kind the package's hot paths do (dict lookups in large tables of small
lists and dicts, integer hashing, tuple building, string splitting), and it
shares no code with the package, so a change to the package cannot move it.
"""
from __future__ import annotations

import gc
import subprocess
import sys
import time

# Usual lengths of one reference pass and of one interpreter reference on
# the machine above, measured together (their ratio is about 22); set-up
# costs are reported in seconds at this speed.
NOMINAL_PASS_S = 0.05
NOMINAL_INTERPRETER_S = 1.1
_N = 60_000
_MASK = (1 << 64) - 1
_TABLE = {
    (i * 0x9E3779B97F4A7C15) & _MASK: [i & 1023, {i & 7: i, (i >> 3) & 7: 1}]
    for i in range(_N)
}
_KEYS = list(_TABLE)
_TEXT = "\n".join(f"3 {i % 64} {i % 12} {60 + i % 24} {1 + i % 12} {i % 128}" for i in range(6000))


def reference_loop() -> float:
    """Seconds one pass of the fixed reference work takes now (about 50 ms).

    The cyclic garbage collector is off during the pass. Its allocations
    would otherwise start collections of whatever the process holds (after
    training, a full collection of a large model takes as long as the pass),
    and the pass would measure the program's heap, not the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for key in _KEYS:
            entry = _TABLE[key]
            acc = (acc + entry[0] + entry[1].get(key & 7, 0)) & _MASK
            acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        counts: dict[tuple, int] = {}
        for line in _TEXT.splitlines():
            event = tuple(int(p) for p in line.split())
            counts[event[1:3]] = counts.get(event[1:3], 0) + 1
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if acc == 1 and not counts:  # keep the work observable
        raise RuntimeError("unreachable")
    return elapsed


def reference(covering: float) -> float:
    """Mean seconds per pass over about a tenth of ``covering`` seconds of passes.

    The machine's speed flips within a second, so a longer measured call
    is framed by a proportionally longer reference (one to eight passes).
    """
    first = reference_loop()
    passes = min(8, max(1, round(0.1 * covering / first)))
    return (first + sum(reference_loop() for _ in range(passes - 1))) / passes


def interpreter_reference() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.stats."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy, scipy.stats"], check=True, timeout=120,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start
