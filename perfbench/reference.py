"""How fast the machine runs Python right now, from a fixed reference loop.

On a shared host the same pure-Python work takes 20-50 % longer in some
stretches of a minute than in others, in CPU time as much as in wall time,
and that drift is larger than the differences a benchmark has to resolve.
So the benchmark times this loop, in a fresh interpreter that imports
nothing from the repository (`-I -S`), next to every pass and every group
of interpreter starts, and reports each time scaled to a machine that runs
the loop in NOMINAL_S:

    corrected = measured * NOMINAL_S / (mean of the loop times around it)

A change to the program cannot reach the loop, so the corrected times move
with the program's cost exactly as the measured ones do; only the speed of
the machine drops out.

    python3 -I -S perfbench/reference.py     # prints one loop time in s
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

NOMINAL_S = 0.15
SCRIPT = os.path.abspath(__file__)


def loop(n: int = 80_000) -> int:
    """Tuple building, dict updates, integer arithmetic and a sort: the mix
    the library's pure-Python paths run."""
    counts: dict[tuple[int, int, int], int] = {}
    acc = 0
    for i in range(n):
        key = (i % 97, i % 89, i & 63)
        counts[key] = counts.get(key, 0) + 1
        acc += key[0] * key[1]
    return acc + len(sorted(counts.items()))


def seconds() -> float:
    """One time of the loop, measured in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-I", "-S", SCRIPT], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def corrected(measured: float, around: list[float]) -> float:
    """`measured` seconds at the speed the loop times `around` it show,
    scaled to the nominal speed."""
    return measured * NOMINAL_S * len(around) / sum(around)


if __name__ == "__main__":
    t0 = perf_counter()
    loop()
    print(perf_counter() - t0)
