"""Host speed, measured next to every timing.

Other tenants of a shared host slow it down by 1.5-2x, in bursts of seconds
and in phases of minutes, and wall times follow.  Over ten 25-second runs of
each workload on a 2-vCPU KVM guest, the quartile distance over the median
was 0.11-0.35 for the fastest repeat and 0.15-0.29 for the median repeat.
A fixed kernel in hymem's style slows down with the host, so it is timed
before and after every repeat and every set-up probe, and each timing is
multiplied by REFERENCE_KERNEL_S over the mean of the two kernel times around
it.  The median of the scaled repeats spread 0.04-0.05 over the same runs.

Scaled timings are seconds on a host that runs the kernel in
REFERENCE_KERNEL_S.  Changes to hymem move them as they move wall time;
editing the kernel would rescale every figure of the benchmark.
"""

from time import perf_counter

import numpy as np

# About the kernel's fastest time on a quiet 2-vCPU KVM guest (Intel Xeon,
# Python 3.11, numpy 2.4).
REFERENCE_KERNEL_S = 0.05


def reference_kernel(steps: int = 1200) -> float:
    """Small-array RK4 stages behind Python calls, a growing list searched
    with np.searchsorted, and concatenation: about 50 ms."""
    a = np.array([[4.0, 1.0, -3.0], [5.0, -3.0, -2.0], [0.0, 0.0, 0.0]]) * 0.1

    def flow(x, xd):
        out = np.empty(3)
        out[:] = a @ x + 0.1 * xd
        return out

    h = 1e-3
    x = np.array([1.0, -0.5, 0.2])
    times, values = [0.0], [x]
    for _ in range(steps):
        t = times[-1]
        i = int(np.searchsorted(times, t - 0.05, side="right")) - 1
        xd = values[max(i, 0)]
        k1 = flow(x, xd)
        k2 = flow(x + h / 2 * k1, xd)
        k3 = flow(x + h / 2 * k2, xd)
        k4 = flow(x + h * k3, xd)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        times.append(t + h)
        values.append(x)
    window = np.concatenate([np.array(values[-200:]), np.array(values[:200])])
    return float(np.max(np.linalg.norm(window, axis=1)))


def time_kernel() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def scales(kernels: list[float]) -> list[float]:
    """Scale for each interval between consecutive kernel timings."""
    return [2 * REFERENCE_KERNEL_S / (a + b) for a, b in zip(kernels, kernels[1:])]
