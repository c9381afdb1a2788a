"""A fixed reference loop that measures how fast the host is running now.

The host's CPU speed swings by a quarter or more within seconds and drifts
over minutes (shared cores, frequency changes).  The loop is interpreter
work of the kind the program does most, dict and list lookups, and it
allocates nothing while it runs: its values are all small ints, which the
interpreter caches, and its working set is a few kilobytes.  So its speed
depends on the host alone, not on the state of the program's heap or
caches, which a change to the program may alter.
"""

from __future__ import annotations

import time

_KEYS = list(range(256)) * 64


def reference_loop() -> float:
    """Wall seconds of one pass over the fixed loop."""
    table = {k: (k * 7) & 0xFF for k in range(256)}
    slots = [0] * 256
    acc = 0
    t0 = time.perf_counter()
    for _ in range(40):
        for k in _KEYS:
            acc = table[acc ^ k]
            slots[k] = acc
            table[k] = acc ^ slots[acc]
    return time.perf_counter() - t0
