"""Monte Carlo of entanglement-generation campaigns.

Two operating modes:

* without the coolant (``coolant_present=False``): attempts run in loops of
  ``loop_cap_no_coolant``, with a ``cooling_duration`` Doppler break after
  every failed loop; the success probability decays within each loop as
  ``p(n) = A exp(-B n) + C`` and resets to ``p(0)`` after cooling.  Requests
  always succeed eventually (``C > 0``).
* with the coolant: one initial cooling, then a single loop of up to
  ``loop_cap_with_coolant`` attempts at the constant probability ``A + C``
  (continuous sympathetic cooling removes the recoil decay); reaching the cap
  is reported as a failed request.

Time is tracked in integer nanoseconds so the schedule arithmetic is exact.

Every request consumes exactly three uniforms: loop count (or, with the
coolant, success), in-loop position and herald sign.  Requests are grouped
in blocks of ``_BLOCK``; block ``b`` draws its uniforms from the independent
substream ``SeedSequence(master_seed, spawn_key=(b,))``.  A request's outcome
therefore depends only on ``(master_seed, request index)``: the first ``n``
rows of a longer campaign equal an ``n``-request campaign (prefix stability).

The loop count of the no-coolant schedule is geometric and is sampled by
inverse transform with ``log1p``; the in-loop position is sampled by inverse
transform over the exact discrete first-success distribution: the table of
``rate_model.success_cdf_table``, which the closed forms also sum over.
Keys are found through a guide table (Chen & Asau, AIIE Trans. 6, 163
(1974)) of up to 2**17 equal buckets over ``[0, q]``, built over all but the
last table entry, and searched in a copy of the table whose last entry is
``+inf``: the sentinel keeps every answer at or below the last index, where
a key of ``q`` belongs (``u * q`` may round up to ``q``).  Bucketing is
monotone in floating point, so each key gets exactly the index a binary
search gives.  Both samplers are distribution-identical to drawing every
Bernoulli attempt individually.

Everything but the random stream is set up once per config and cached
(``_sampler``, 8 entries): the sentinel table (8 bytes per table entry; a
table holds at most ``cap`` entries, and only those whose survival is above
1e-18), the int32 guide (at most 0.5 MB), ``q``, ``log1p(-q)``, the loop
cap, the durations in ns and whether a request can exceed
``MAX_REQUEST_NS``, which every call checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import MAX_REQUEST_NS, HardwareConfig, coolant_config
from .rate_model import (
    DecayParams,
    RateCurve,
    ScheduleParams,
    rate_curve,
    success_cdf_table,
)

# the caps of a rate run's analytic curves when no grid is given
DEFAULT_CAPS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000)
RECORD_COLUMNS = ("request_index", "attempts_used", "wall_time_ns", "success",
                  "sign", "loop_index")
# Requests per substream.  It fixes the random-stream layout, so changing it
# changes every campaign's outcome.
_BLOCK = 4096


def effective_attempt_rate(cfg: HardwareConfig) -> float:
    """Attempts per second of wall time, including recooling overhead."""
    if cfg.coolant_present:
        return 1.0 / cfg.attempt_duration
    cap = _loop_cap(cfg)
    return cap / (cap * cfg.attempt_duration + cfg.cooling_duration)


def _loop_cap(cfg: HardwareConfig) -> int:
    cap = (cfg.loop_cap_with_coolant if cfg.coolant_present
           else cfg.loop_cap_no_coolant)
    if cfg.hardware_counter_cap is not None:
        cap = min(cap, cfg.hardware_counter_cap)
    return cap


def _success_model(cfg: HardwareConfig) -> DecayParams:
    """The per-attempt success model a campaign samples: the coolant removes
    the recoil decay, leaving ``0 * exp(-0 * n) + (A + C)``."""
    if cfg.coolant_present:
        return DecayParams(0.0, 0.0, cfg.decay_a + cfg.decay_c)
    return DecayParams(cfg.decay_a, cfg.decay_b, cfg.decay_c)


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-request columns and aggregates of a campaign.

    Row ``k`` of the read-only columns is request ``k``: attempts used, wall
    time in ns, success, herald sign (0 for a failed request) and the number
    of recooling breaks before its final loop.

    Two rate accountings are kept: ``rate_hz`` divides successes by the full
    wall time (attempts plus every cooling interval), which reproduces the
    33%-duty-cycle rate of the no-coolant schedule; ``rate_attempts_only_hz``
    divides by attempt time alone, which is the accounting behind quoting the
    coolant-mode rate as success probability times the 1 MHz attempt rate.
    """

    requests: int
    successes: int
    total_wall_ns: int
    attempt_wall_ns: int
    cooling_wall_ns: int
    attempts_used: np.ndarray
    signs: np.ndarray
    success_mask: np.ndarray
    wall_ns: np.ndarray
    loop_index: np.ndarray

    @property
    def success_fraction(self) -> float:
        return self.successes / self.requests

    @property
    def rate_hz(self) -> float:
        return self.successes / (self.total_wall_ns * 1e-9)

    @property
    def rate_attempts_only_hz(self) -> float:
        return self.successes / (self.attempt_wall_ns * 1e-9)

    def summary(self) -> dict:
        """Aggregates with standard errors (``None`` below two requests).

        Requests are i.i.d., so the error of the ratio estimator ``rate_hz``
        follows from the delta method on the per-request success and wall
        time columns.
        """
        n = self.requests
        rate_err = attempts_err = None
        if n > 1:
            wall_s = self.wall_ns * 1e-9
            resid = self.success_mask - self.rate_hz * wall_s
            rate_err = float(math.sqrt(np.dot(resid, resid) / (n * (n - 1)))
                             / (self.total_wall_ns * 1e-9 / n))
            attempts_err = float(np.std(self.attempts_used, ddof=1) / math.sqrt(n))
        return {
            "requests": n,
            "successes": self.successes,
            "success_fraction": self.success_fraction,
            "total_wall_s": self.total_wall_ns * 1e-9,
            "attempt_wall_s": self.attempt_wall_ns * 1e-9,
            "cooling_wall_s": self.cooling_wall_ns * 1e-9,
            "rate_hz": self.rate_hz,
            "rate_hz_stderr": rate_err,
            "rate_attempts_only_hz": self.rate_attempts_only_hz,
            "mean_attempts": float(np.mean(self.attempts_used)),
            "mean_attempts_stderr": attempts_err,
        }


class _Sampler(NamedTuple):
    """What ``simulate_campaign`` needs of one config beyond its random
    stream; see the module docstring."""

    bounded: np.ndarray  # success_cdf_table with its last entry +inf
    guide: np.ndarray    # int32: entries of bounded[:-1] in buckets below j
    scale: float         # key x lies in bucket int(x * scale)
    q: float             # success probability of one loop
    log_q: float         # log1p(-q); -inf at q = 1
    cap: int
    attempt_ns: int
    cooling_ns: int
    overlong: bool       # a request can exceed MAX_REQUEST_NS


@lru_cache(maxsize=8)
def _sampler(cfg: HardwareConfig) -> _Sampler:
    cap = _loop_cap(cfg)
    attempt_ns = round(cfg.attempt_duration * 1e9)
    cooling_ns = round(cfg.cooling_duration * 1e9)
    table = success_cdf_table(_success_model(cfg), cap)
    q = float(table[-1])
    # the largest loop count a uniform below 1 - 2**-53 can produce; a loop
    # that never heralds (q rounds to 0) never ends
    max_loops = (1 if cfg.coolant_present or q >= 1.0 else math.inf if q == 0.0
                 else math.ceil(53 * math.log(2.0) / -math.log1p(-q)))
    buckets = min(2 * table.size, 2**17)
    scale = buckets / q if q else 0.0  # q = 0 or >= 2**-53
    counts = np.bincount((table[:-1] * scale).astype(np.intp),
                         minlength=buckets + 1)
    guide = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.int32)
    bounded = table.copy()
    bounded[-1] = np.inf
    guide.setflags(write=False)
    bounded.setflags(write=False)
    return _Sampler(bounded, guide, scale, q,
                    math.log1p(-q) if q < 1.0 else -math.inf, cap, attempt_ns,
                    cooling_ns, max_loops * (cap * attempt_ns + cooling_ns)
                    > MAX_REQUEST_NS)


def _search(s: _Sampler, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(s.bounded, keys, side="right")`` for keys in
    ``[0, q]``, in ``[0, size - 1]``.  ``int(x * scale)`` is monotone, so
    the answer is the key's guide entry plus the entries of its bucket up to
    the key: one step takes the first of them, and the keys still short are
    searched in full."""
    pos = s.guide.take((keys * s.scale).astype(np.intp))
    pos += s.bounded.take(pos) <= keys
    short = s.bounded.take(pos) <= keys
    if short.any():
        pos[short] = np.searchsorted(s.bounded, keys[short], side="right")
    return pos


def simulate_campaign(cfg: HardwareConfig, requests: int,
                      master_seed: int) -> RateReport:
    """Run ``requests`` independent entanglement requests.

    Request ``k``'s outcome depends only on ``(cfg, master_seed, k)``.
    """
    if (isinstance(requests, bool) or not isinstance(requests, (int, np.integer))
            or requests < 1):
        raise ValueError(f"requests must be an integer of at least 1, got {requests!r}")
    s = _sampler(cfg)
    if s.overlong:
        raise ValueError("a single request can exceed 2**50 ns of wall time; "
                         "the loop success probability is too small")
    coolant = cfg.coolant_present
    attempts = np.empty(requests, dtype=np.int64)
    loop_index = np.zeros(requests, dtype=np.int64)
    signs = np.empty(requests, dtype=np.int8)
    success = np.ones(requests, dtype=bool)
    attempt_sum = loop_sum = 0  # exact: each block's sum fits in int64
    for block, start in enumerate(range(0, requests, _BLOCK)):
        stop = min(start + _BLOCK, requests)
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(block,))
        u = np.random.Generator(np.random.PCG64(ss)).random((stop - start, 3))
        att, sign = attempts[start:stop], signs[start:stop]
        # in-loop position given success in the loop
        np.add(_search(s, u[:, 1] * s.q), 1, out=att)
        sign[...] = u[:, 2] < 0.5
        sign += sign
        sign -= 1
        if coolant:
            ok = success[start:stop]
            np.less(u[:, 0], s.q, out=ok)
            np.putmask(att, ~ok, s.cap)
            sign *= ok
        else:  # geometric loop count by inverse transform
            loops = np.negative(u[:, 0])
            np.log1p(loops, out=loops)
            loops /= s.log_q
            np.ceil(loops, out=loops)
            n_cool = loop_index[start:stop]
            n_cool[...] = np.maximum(loops, 1.0, out=loops)
            n_cool -= 1
            att += n_cool * s.cap
            loop_sum += int(n_cool.sum())
        attempt_sum += int(att.sum())
    # cooling breaks per request: the initial one with the coolant, else one
    # after each failed loop
    wall_ns = attempts * s.attempt_ns
    wall_ns += s.cooling_ns if coolant else loop_index * s.cooling_ns
    attempt_wall = s.attempt_ns * attempt_sum
    cooling_wall = s.cooling_ns * (requests if coolant else loop_sum)
    for col in (attempts, wall_ns, loop_index, signs, success):
        col.setflags(write=False)
    return RateReport(requests=requests, successes=int(np.count_nonzero(success)),
                      total_wall_ns=attempt_wall + cooling_wall,
                      attempt_wall_ns=attempt_wall, cooling_wall_ns=cooling_wall,
                      attempts_used=attempts, signs=signs, success_mask=success,
                      wall_ns=wall_ns, loop_index=loop_index)


def rate_experiment(cfg: HardwareConfig, caps, requests: int, master_seed: int
                    ) -> dict[str, tuple[HardwareConfig, RateCurve, RateReport]]:
    """Closed-form rate curve and campaign of each schedule.

    A ``cfg`` that already has the coolant runs as given, as the only
    schedule ``"coolant"``.  Otherwise ``"no_coolant"`` runs ``cfg`` and
    ``"coolant"`` runs ``coolant_config(cfg)``.  Each curve sums the success
    model that the campaign beside it samples.  Returns
    ``{name: (config, curve, report)}``.
    """
    if cfg.coolant_present:
        schedules = [("coolant", cfg)]
    else:
        schedules = [("no_coolant", cfg), ("coolant", coolant_config(cfg))]
    out = {}
    for name, c in schedules:
        schedule = ScheduleParams(c.attempt_duration, c.cooling_duration)
        curve = rate_curve(caps, _success_model(c), schedule, c.coolant_present)
        out[name] = (c, curve, simulate_campaign(c, requests, master_seed))
    return out


def _record_rows(report: RateReport, limit: int):
    """Rows of the first ``limit`` requests of a campaign; a failed request
    has an empty sign cell."""
    n = min(limit, report.requests)
    cols = zip(report.attempts_used[:n].tolist(), report.wall_ns[:n].tolist(),
               report.success_mask[:n].tolist(), report.signs[:n].tolist(),
               report.loop_index[:n].tolist())
    return ((k, a, w, int(s), g if s else "", i)
            for k, (a, w, s, g, i) in enumerate(cols))


def rate_outputs(cfg: HardwareConfig, grid, requests: int, master_seed: int,
                 records: int) -> dict:
    """The ``rate`` run: ``rate_experiment`` at the caps of ``grid`` (each point
    rounded down to an integer of at least 1; ``DEFAULT_CAPS`` for ``None``), as
    each schedule's analytic curve, the first ``records`` rows of its campaign
    and ``rate_mc.json``: the campaign summaries and effective attempt rates."""
    caps = DEFAULT_CAPS if grid is None else np.unique(np.maximum(1.0, grid).astype(int))
    files, mc = {}, {}
    for name, (run_cfg, curve, report) in rate_experiment(
            cfg, caps, requests, master_seed).items():
        files[f"rate_analytic_{name}.csv"] = (
            ("cap", "cdf", "mean_success_prob", "rate_hz", "rate_no_cooling_hz"),
            zip(curve.caps.tolist(), curve.cdf.tolist(), curve.mean_success_prob.tolist(),
                curve.rate_hz.tolist(), curve.rate_no_cooling_hz.tolist()))
        mc[name] = report.summary() | {
            "effective_attempt_rate_hz": effective_attempt_rate(run_cfg)}
        if records:
            files[f"herald_records_{name}.csv"] = (RECORD_COLUMNS,
                                                   _record_rows(report, records))
    files["rate_mc.json"] = mc
    return files
