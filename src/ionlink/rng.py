"""numpy's default random stream in pure Python, for the draws ``swap`` makes.

``Generator(seed)`` draws what ``np.random.default_rng(seed)`` draws with
``random``, ``binomial`` and ``multinomial``, bit for bit: SeedSequence seeds
PCG64, the 128-bit LCG with the XSL-RR output (O'Neill, HMC-CS-2014-0905
(2014)), and the samplers follow numpy's C ``random_binomial`` (inversion, or
BTPE: Kachitvichyanukul and Schmeiser, Commun. ACM 31, 216 (1988)) and
``random_multinomial`` step for step.  A draw that numpy broadcasts over rows
is a loop over the rows in C order.
"""

from __future__ import annotations

import math

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hash of 32-bit words, whose constant steps per word."""
    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of a seed >= 0."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(value))
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [out(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _stirling(x: float) -> float:
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


class Generator:
    """The stream of ``np.random.default_rng(seed)``."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = (i0 << 65 | i1 << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def random(self) -> float:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        value, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (((value >> rot | value << (64 - rot)) & _M64) >> 11) * 2.0 ** -53

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
