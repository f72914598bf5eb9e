"""A fixed reference computation that measures how fast the machine is
running right now.

A shared host's speed drifts by up to 1.7x over minutes, so the benchmark
times this kernel before and after every operation, in as many forked
processes as the operation has workers, and reports operation times
relative to it. The kernel imports nothing from granger_lab, so a change to
the program cannot change it. Its mix resembles a Monte Carlo iteration: a
pure-Python autoregressive recursion, then small numpy least-squares fits.
"""

import time

import numpy as np

#: Series simulated per call and their length.
REPEATS = 60
LENGTH = 120
#: Median time of one call on the 2-vCPU machine the benchmark was tuned on
#: (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31). Normalised timings are
#: seconds at that speed.
NOMINAL_S = 0.02


def _kernel() -> float:
    rng = np.random.default_rng(20190416)
    total = 0.0
    for _ in range(REPEATS):
        noise = rng.standard_normal((2, LENGTH)).tolist()
        x = [0.0] * LENGTH
        y = [0.0] * LENGTH
        for t in range(1, LENGTH):
            x[t] = 0.5 * x[t - 1] + noise[0][t]
            y[t] = 0.3 * y[t - 1] + 0.4 * x[t - 1] + noise[1][t]
        xa, ya = np.array(x), np.array(y)
        for lags in (1, 2, 3):
            rows = LENGTH - lags
            design = np.column_stack(
                [np.ones(rows)] + [xa[lags - k:LENGTH - k] for k in range(1, lags + 1)]
                + [ya[lags - k:LENGTH - k] for k in range(1, lags + 1)])
            q, r = np.linalg.qr(design)
            coef = np.linalg.solve(r, q.T @ ya[lags:])
            resid = ya[lags:] - design @ coef
            total += float(resid @ resid)
    return total


def reference_s() -> float:
    """Time one call of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
