"""Machine-speed gauge: fixed kernels timed while a workload runs.

The host that runs the benchmark changes speed by up to 2x, for seconds to
minutes at a time, and the change does not show as steal time: CPU time
slows as much as wall time.  A workload timed raw therefore spreads by
30-40% between runs of the same code.  Each gauge here is a small, fixed
copy of the kind of work a workload spends its time on, written with numpy
alone so that no change to ``diffinfo`` can change it.  It is timed before,
during (every few tenths of a second, from a ``SIGALRM`` handler) and after
the measured call, and each stretch of the call between two readings is scaled
by ``NOMINAL_S / reading``.  The sum is the call's time on a host where the
gauge takes ``NOMINAL_S``.

Kinds of work slow by different factors when the host slows (small batched
LAPACK calls by about 2x, pure Python by about 1.5x), so each workload names
the gauge that mirrors its hot path.  ``python`` uses the standard library
only and gauges set-up, which runs before numpy is imported.
"""

from __future__ import annotations

import math
import signal
import time

RUNS_PER_READING = 2


def _python():
    s = 0
    for i in range(6000):
        s += (i * 7) % 13
    return s


def _gmm(n_rows: int, dim: int, n_comp: int, calls: int):
    """The mixture denoiser's component terms, as the program computes them today."""
    import numpy as np
    from scipy.special import expit, logsumexp

    rng = np.random.default_rng(0)
    means = rng.standard_normal((n_comp, dim))
    root = rng.standard_normal((n_comp, dim, dim)) / math.sqrt(dim)
    covs = root @ root.transpose(0, 2, 1) + 0.5 * np.eye(dim)
    log_w = np.full(n_comp, -math.log(n_comp))
    x = rng.standard_normal((n_rows, dim))
    a = np.linspace(-5.0, 7.0, n_rows)
    eye = np.eye(dim)

    def kernel():
        for _ in range(calls):
            sa, sna = expit(a), expit(-a)
            log_joint = np.empty((n_rows, n_comp))
            eps = np.empty((n_rows, n_comp, dim))
            for k in range(n_comp):
                cov = sa[:, None, None] * covs[k] + sna[:, None, None] * eye
                diff = x - np.sqrt(sa)[:, None] * means[k]
                sol = np.linalg.solve(cov, diff[..., None])[..., 0]
                _, logdet = np.linalg.slogdet(cov)
                maha = np.einsum("ni,ni->n", diff, sol)
                log_joint[:, k] = log_w[k] - 0.5 * (dim * math.log(2 * math.pi) + logdet + maha)
                eps[:, k] = np.sqrt(sna)[:, None] * sol
            resp = np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
            np.einsum("nk,nkd->nd", resp, eps)

    return kernel


def _mlp():
    """One Adam step of a 22-64-64-2 tanh MLP on 128 rows, then a forward pass."""
    import numpy as np

    rng = np.random.default_rng(0)
    widths = (22, 64, 64, 2)
    params = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        params += [rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in), np.zeros(fan_out)]
    m1 = [np.zeros_like(p) for p in params]
    m2 = [np.zeros_like(p) for p in params]
    x = rng.standard_normal((128, widths[0]))
    y = rng.standard_normal((128, widths[-1]))
    n_hidden = len(widths) - 2

    def kernel():
        acts = [x]
        h = x
        for i in range(n_hidden):
            h = np.tanh(h @ params[2 * i] + params[2 * i + 1])
            acts.append(h)
        out = h @ params[2 * n_hidden] + params[2 * n_hidden + 1]
        g = 2.0 * (out - y) / out.size
        grads = [None] * len(params)
        grads[2 * n_hidden], grads[2 * n_hidden + 1] = acts[-1].T @ g, g.sum(axis=0)
        for i in reversed(range(n_hidden)):
            g = (g @ params[2 * (i + 1)].T) * (1.0 - acts[i + 1] ** 2)
            grads[2 * i], grads[2 * i + 1] = acts[i].T @ g, g.sum(axis=0)
        for p, gr, a, b in zip(params, grads, m1, m2):
            a *= 0.9
            a += 0.1 * gr
            b *= 0.999
            b += 0.001 * gr * gr
            p -= 1e-9 * a / (np.sqrt(b) + 1e-8)
        h = x[:64]
        for i in range(n_hidden):
            h = np.tanh(h @ params[2 * i] + params[2 * i + 1])

    return kernel


# name -> (kernel factory, NOMINAL_S, seconds between readings).  NOMINAL_S is
# a fixed reference time for the kernel, near its time on a 2-vCPU 2.1 GHz Xeon
# VM; only ratios between runs carry meaning.  The d=64 kernel copies the
# 100-row scale of the real calls (400 rows): small d=64 batches slowed by
# more than the real calls when the host slowed.
GAUGES = {
    "python": (lambda: _python, 3.3e-4, 0.1),
    "gmm-d64": (lambda: _gmm(100, 64, 2, 1), 1.5e-2, 0.5),
    "gmm-d1-row": (lambda: _gmm(1, 1, 4, 3), 6.9e-4, 0.1),
    "gmm-d2": (lambda: _gmm(200, 2, 3, 1), 3.4e-4, 0.1),
    "mlp": (_mlp, 2.4e-4, 0.1),
}


class Gauge:
    """Readings of one gauge kernel, and the time they scale a call to."""

    def __init__(self, name: str):
        factory, self.nominal_s, self.interval_s = GAUGES[name]
        self.kernel = factory()
        for _ in range(3):  # warm up caches and lazy set-up
            self.kernel()
        self.readings: list[tuple[float, float, float]] = []  # (start, end, kernel time)
        self._previous = None

    def read(self) -> None:
        start = time.perf_counter()
        best = math.inf
        for _ in range(RUNS_PER_READING):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        self.readings.append((start, time.perf_counter(), best))

    def start(self) -> None:
        """Read now, then every ``interval_s`` until :meth:`stop`."""
        self.read()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.read())
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.read()

    def summary(self) -> dict:
        """Raw and scaled time between the first and last reading, without the readings."""
        raw = scaled = 0.0
        for (_, end, before), (start, _, after) in zip(self.readings, self.readings[1:]):
            stretch = start - end
            raw += stretch
            scaled += stretch * self.nominal_s / (0.5 * (before + after))
        kernel_s = [r[2] for r in self.readings]
        return {
            "raw_s": raw,
            "scaled_s": scaled,
            "readings": len(kernel_s),
            "gauge_median_s": sorted(kernel_s)[len(kernel_s) // 2],
        }
