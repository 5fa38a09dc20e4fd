"""The random stream of ``swap``: the standard library's generator with
numpy's binomial and multinomial samplers.

``Generator(seed)`` is ``random.Random(seed)``, MT19937 (Matsumoto and
Nishimura, ACM TOMACS 8, 3 (1998)), whose ``random()`` sequence Python keeps
the same across versions for an integer seed.  ``binomial`` and
``multinomial`` follow numpy's C ``random_binomial`` (inversion, or BTPE:
Kachitvichyanukul and Schmeiser, Commun. ACM 31, 216 (1988)) and
``random_multinomial`` step for step on the uniforms of ``random()``, so fed
numpy's doubles they draw numpy's counts (``tests/test_rng.py``).
"""

from __future__ import annotations

import math
import random


def _stirling(x: float) -> float:
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


class Generator(random.Random):
    """``random.Random(seed)`` of a non-negative integer seed, with numpy's
    ``binomial`` and ``multinomial``.  A negative, bool or non-integer seed is
    a ValueError: ``random.seed`` would take a negative seed's absolute value."""

    def __init__(self, seed: int):
        if type(seed) is not int or seed < 0:  # bool is an int subclass
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        super().__init__(seed)

    def binomial(self, n: int, p: float) -> int:
        if n == 0 or p == 0.0:
            return 0
        r = p if p <= 0.5 else 1.0 - p
        k = self._inversion(n, r) if r * n <= 30.0 else self._btpe(n, r)
        return k if p <= 0.5 else n - k

    def _inversion(self, n: int, p: float) -> int:
        q = 1.0 - p
        qn, u = math.exp(n * math.log(q)), self.random()
        if u <= qn:  # most draws of a small p, before the bound is needed
            return 0
        bound = int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1)))
        x, px = 0, qn
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.random()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, r: float) -> int:
        q, fm = 1.0 - r, n * r + r
        m, nrq, s = math.floor(fm), n * r * q, r / q
        p1, xm, a = math.floor(2.195 * math.sqrt(nrq) - 4.6 * q) + 0.5, m + 0.5, s * (n + 1)
        xl, xr, c = xm - p1, xm + p1, 0.134 + 20.5 / (15.3 + m)
        al, ar = (fm - xl) / (fm - xl * r), (xr - fm) / (xr * q)
        laml, lamr = al * (1.0 + al / 2.0), ar * (1.0 + ar / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3, p4 = p2 + c / laml, p2 + c / laml + c / lamr
        while True:
            u, v = self.random() * p4, self.random()
            if u <= p1:
                return math.floor(xm - p1 * v + u)
            if u <= p2:
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:  # v == 0 is rejected before C's cast of floor(-inf)
                if v == 0.0 or (y := math.floor(xl + math.log(v) / laml)) < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                if v == 0.0 or (y := math.floor(xr - math.log(v) / lamr)) > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if not 20 < k < nrq / 2.0 - 1:
                f = 1.0
                for i in range(m + 1, y + 1):
                    f *= a / i - s
                for i in range(y + 1, m + 1):
                    f /= a / i - s
                if v <= f:
                    return y
                continue
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            # C's log: -inf at 0 and NaN below, where math.log raises
            big_a = math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
            if big_a <= (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                         + (y - m) * math.log(w * r / (x1 * q))
                         + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w)):
                return y

    def multinomial(self, n: int, pvals) -> list[int]:
        """Counts of ``n`` draws over ``pvals``: a binomial per class given the
        ones before it, until nothing remains.  Like numpy, rejects a Kahan sum
        of ``pvals[:-1]`` past ``1 + 1e-12`` and a probability outside [0, 1]."""
        pvals = [float(p) for p in pvals]
        total, comp = pvals[0], 0.0
        for p in pvals[1:-1]:
            y = p - comp
            comp, total = ((total + y) - total) - y, total + y
        if not (total <= 1.0 + 1e-12 and all(0.0 <= p <= 1.0 for p in pvals)):
            raise ValueError(f"pvals must lie in [0, 1] with sum(pvals[:-1]) <= 1, "
                             f"got {total!r} for that sum")
        counts, remaining = [0] * len(pvals), 1.0
        for j, p in enumerate(pvals[:-1]):
            if not p:  # draws nothing, as numpy's binomial of p = 0
                continue
            counts[j] = self.binomial(n, p / remaining)
            n -= counts[j]
            if n <= 0:
                return counts
            remaining -= p
        counts[-1] = n
        return counts
