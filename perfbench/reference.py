"""Reference kernel: how fast this CPU runs package-like code right now.

On a shared virtual machine each virtual CPU can run slower for seconds
to tens of seconds at a time (by up to 1.7x on a 2-vCPU KVM guest on an
Intel Xeon).  The loop therefore times this fixed kernel just before each
step of an op and reports the op as the sum of step time / reference
time.  The kernel is the kind of work the package's hot loops do: a
Miller-style backward recurrence over 2048 arguments, one small numpy
expression per step.  It never touches the package, so a change to the
package cannot move it.

Run as a script it prints the kernel time; the cli-cold workload times
that whole child process, so its reference also pays a fresh interpreter
and numpy import, like the CLI commands it scales.
"""

import math
import time

import numpy as np

POINTS = 2048
SWEEPS = 4


def kernel_s() -> float:
    """Best of two timings of the kernel, in seconds."""
    inv_x = 1.0 / np.linspace(0.5, 40.0, POINTS)
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        fk, fkp1, even = np.full_like(inv_x, 1e-150), np.zeros_like(inv_x), np.zeros_like(inv_x)
        for k in [*range(400, 0, -1)] * SWEEPS:
            fk, fkp1 = (2.0 * k) * inv_x * fk - fkp1, fk
            if k % 2 == 0:
                even += fk
            if k % 12 == 0:
                scale = np.where(np.abs(fk) > 1e150, 1e-150, 1.0)
                fk, fkp1, even = fk * scale, fkp1 * scale, even * scale
        best = min(best, time.perf_counter() - t0)
    return best


if __name__ == "__main__":
    print(repr(kernel_s()))
