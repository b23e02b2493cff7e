"""A fixed reference workload that measures how fast the machine runs
`cgmkit`-like code right now.

The benchmark runs it before every command and scales every timing metric
by NOMINAL_S over the run's mean reference time, so a run made while the
shared host is slow reads about the same as one made while it is fast.
(On a 2-vCPU VM the reference time flips between about 16 and 28 ms
within a second and the share of slow time drifts over minutes; the
program's times move with it.)

The work mimics the program's mix: ASCII number formatting and parsing (STL
write and read), Python loops over small numpy arrays (vertex welding,
volume kernels) and small matrix products (the MLPs). It imports nothing
from `cgmkit`, so a change to the program cannot change it.

    python3 bench/calibrate.py     # prints a few reference times"""

import time

import numpy as np

# a typical mean reference time on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4); only a scale: metrics read in seconds at that machine speed
NOMINAL_S = 0.028

_POINTS = np.linspace(-1.0, 1.0, 600).reshape(200, 3) ** 3
_W1 = np.linspace(-0.5, 0.5, 640).reshape(10, 64)
_W2 = np.linspace(0.5, -0.5, 640).reshape(64, 10)
_X = np.linspace(-2.0, 2.0, 200).reshape(20, 10)


def _text():
    lines = [f"   vertex {x:.17g} {y:.17g} {z:.17g}" for x, y, z in _POINTS]
    total = 0.0
    for line in lines:
        toks = line.split()
        total += sum(float(t) for t in toks[1:])
    return total


def _small_arrays():
    cells = {}
    for p in _POINTS:
        base = np.floor(p / 1e-3).astype(np.int64)
        key = (int(base[0]), int(base[1]), int(base[2]))
        for q in cells.get(key, ()):
            if np.max(np.abs(q - p)) <= 1e-9:
                break
        cells.setdefault(key, []).append(p)
    return len(cells)


def _matmul():
    x = _X
    for _ in range(40):
        h = np.tanh(x @ _W1)
        y = h @ _W2
        grad = (y - x) @ _W2.T * (1.0 - h * h)
        x = x - 1e-3 * (grad @ _W1.T)
    return float(x.sum())


# (part, repeats): about 8, 14 and 8 ms, close to the program's own mix
PARTS = ((_text, 4), (_small_arrays, 8), (_matmul, 5))


def reference_s():
    """Seconds the reference workload takes now."""
    start = time.perf_counter()
    for part, repeats in PARTS:
        for _ in range(repeats):
            part()
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(10):
        print(f"{reference_s():.6f} s")
