"""A fixed pure-Python probe of how fast the host runs exact arithmetic.

On a shared host the speed the benchmark sees drifts by a third or more
over minutes, with the load of other tenants.  The run repeats this probe
between jobs, in its own process, which never imports ``nilcoh``.  The
probe does the same kind of work as ``nilcoh`` (objects over ``Fraction``
pairs, zero tests in a dense product, fraction-free elimination on
Gaussian integers) but none of its code, so a change to ``nilcoh`` leaves
the probe's time alone while a slower host slows both.  The run then
states its times at the speed of a reference host, on which one probe
takes ``REFERENCE_PROBE_S``.

    python3 perfbench/calibrate.py [ROUNDS]

prints the probe's time, ROUNDS times.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from fractions import Fraction

# About the probe's mean time between the jobs of a run on the host where
# the benchmark was written (2 vCPUs of a shared Intel Xeon VM, CPython
# 3.11; alone it runs faster), so that times reported there read about as
# measured.  Only the scale of the reported times depends on it; keep it
# fixed so that runs stay comparable.
REFERENCE_PROBE_S = 0.057


class _Q:
    """A Gaussian rational, re + im*i over Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __bool__(self):
        return bool(self.re or self.im)

    def __add__(self, o):
        return _Q(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Q(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Q(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return _Q(self.re / n, -self.im / n)


_ZERO = _Q(Fraction(0), Fraction(0))


def _inputs():
    rng = random.Random(20221026)

    def q(span):
        return _Q(Fraction(rng.randint(-span, span), rng.randint(1, 3)), Fraction(rng.randint(-span, span)))

    sparse = [[q(2) if rng.random() < 0.05 else _ZERO for _ in range(40)] for _ in range(40)]
    gauss = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(32)] for _ in range(28)]
    dense = [[q(3) for _ in range(9)] for _ in range(8)]
    return sparse, gauss, dense


_INPUTS = _inputs()


def _product(a, b):
    """Dense triple loop over mostly-zero entries."""
    out = []
    for srow in a:
        row = []
        for j in range(len(b[0])):
            acc = _ZERO
            for k, x in enumerate(srow):
                if x:
                    y = b[k][j]
                    if y:
                        acc = acc + x * y
            row.append(acc)
        out.append(row)
    return out


def _bareiss(rows):
    """Fraction-free elimination over Z[i]; returns the rank."""
    rows = [list(r) for r in rows]
    prev = (1, 0)
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != (0, 0)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        d = prev[0] * prev[0] + prev[1] * prev[1]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            for j in range(c + 1, len(rows[0])):
                x, y = rows[i][j], rows[r][j]
                re = p[0] * x[0] - p[1] * x[1] - f[0] * y[0] + f[1] * y[1]
                im = p[0] * x[1] + p[1] * x[0] - f[0] * y[1] - f[1] * y[0]
                rows[i][j] = ((re * prev[0] + im * prev[1]) // d, (im * prev[0] - re * prev[1]) // d)
            rows[i][c] = (0, 0)
        prev = p
        r += 1
    return r


def _rref(rows):
    """Row reduction over Q(i); returns the rank."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def probe():
    """Run the probe once; returns its wall time in seconds.

    The garbage collector is off while it runs: the probe makes no
    cycles, and a collection would time the heap of the calling process
    instead of the host."""
    sparse, gauss, dense = _INPUTS
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _product(sparse, sparse)
        _bareiss(gauss)
        _rref(dense)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    for _ in range(int(sys.argv[1]) if len(sys.argv) > 1 else 5):
        print("%.4f" % probe())
