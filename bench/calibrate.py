"""Machine-speed calibration for the benchmark's timings.

The shared 2-vCPU machines this benchmark runs on change speed by 20-40%
over seconds to minutes, whatever runs on them, which would swamp the
differences between two commits. So every timing is taken together with a
calibration measured just before and just after it, and is reported scaled
to a reference machine:

    scaled = measured * reference / calibration measured around it

Op times are calibrated by bursts of a fixed pure-Python kernel that does
scalar float work through the interpreter, like the package's closed forms;
on the reference machine it takes KERNEL_S. Set-up times are dominated by
process start and imports, which slow down with the machine's process and
memory-mapping costs rather than with its arithmetic, so they are calibrated
by starting a bare interpreter, which takes SPAWN_S on the reference machine.
Raw timings are kept beside the scaled ones in the result files. Standard
library only.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

KERNEL_S = 60e-6  # kernel() on the reference machine
SPAWN_S = 0.06    # a bare interpreter start on the reference machine
BURST = 16        # kernel calls per burst, about 1 ms
SPAWNS = 2        # bare interpreter starts per set-up calibration


def kernel() -> float:
    s = 0.0
    for i in range(1, 400):
        x = i * 0.01
        s += math.log1p(x * x / (1.0 + x)) + 0.5 * x
    return s


def burst(bursts: int = 1) -> list[float]:
    """Durations of bursts * BURST kernel calls, in seconds."""
    out = []
    for _ in range(bursts * BURST):
        t0 = perf_counter()
        kernel()
        out.append(perf_counter() - t0)
    return out


def scale(samples: list[float]) -> float:
    """Factor taking an op timed beside these kernel samples to reference speed."""
    return KERNEL_S / statistics.median(samples)


def spawns(env: dict) -> list[float]:
    """Wall times of SPAWNS bare interpreter starts, in seconds."""
    out = []
    for _ in range(SPAWNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, stdin=subprocess.DEVNULL,
                       check=True, timeout=60)
        out.append(perf_counter() - t0)
    return out


def spawn_scale(before: list[float], after: list[float]) -> float:
    """Factor taking a set-up timed between these spawn samples to reference speed."""
    return SPAWN_S / statistics.median(before + after)
