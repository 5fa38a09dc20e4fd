"""In-memory span tracer that wraps ionlink's public functions from outside.

A span is ``(name, start, end, parent, op)``: the wrapped function's name,
its ``perf_counter`` interval, the index of the span that was open when it
was called (-1 for none) and the benchmark op it belongs to.  Spans nest
because the program is single-threaded, so a span's self time is its
duration minus the durations of its direct children.

Wrapping happens at module attributes: every ``ionlink`` module attribute
that *is* a target function is replaced by one shared wrapper, which also
covers names imported with ``from ... import`` (``cli.simulate_histogram``,
``swap.apply_unitary``) and calls within a module.  Targets missing from the
code (renamed or deleted) are skipped and report zero calls.
"""

from __future__ import annotations

import functools
import re
import sys
from time import perf_counter

# (span name, module, attribute); an attribute "Class.__init__" counts
# constructions of the class.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("protocol.simulate_campaign", "protocol", "simulate_campaign"),
    ("protocol.records_to_csv", "protocol", "records_to_csv"),
    ("quantum.DensityMatrix", "quantum", "DensityMatrix.__init__"),
    ("quantum.apply_unitary", "quantum", "apply_unitary"),
    ("quantum.apply_channel", "quantum", "apply_channel"),
    ("quantum.partial_trace", "quantum", "partial_trace"),
    ("quantum.tensor", "quantum", "tensor"),
    ("quantum.lift", "quantum", "lift"),
    ("swap.aligned_state_from_config", "swap", "aligned_state_from_config"),
    ("swap.swapped_state", "swap", "swapped_state"),
    ("analysis.parity_scan", "analysis", "parity_scan"),
    ("analysis.apply_analysis_pulse", "analysis", "apply_analysis_pulse"),
    ("ion_photon.correlation_scan", "ion_photon", "correlation_scan"),
    ("ion_photon.coherence_scan", "ion_photon", "coherence_scan"),
    ("detection.simulate_histogram", "detection", "simulate_histogram"),
    ("detection.choose_thresholds", "detection", "choose_thresholds"),
    ("detection.classify_counts", "detection", "classify_counts"),
    ("detection.spam_correct", "detection", "spam_correct"),
    ("fitting.fit_sinusoid", "fitting", "fit_sinusoid"),
    ("rate_model.request_rate", "rate_model", "request_rate"),
    ("rate_model.mean_success_prob", "rate_model", "mean_success_prob"),
    ("rate_model.cdf", "rate_model", "cdf"),
    ("modes.calibrate_reference_frequencies", "modes",
     "calibrate_reference_frequencies"),
    ("modes.normal_modes", "modes", "normal_modes"),
)

IMPORT_MODULES = ("cli", "config", "detection", "ion_photon", "rate_model", "modes")
_IMPORT_ROW = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)")


def schedule_of(cfg) -> str:
    """Campaign schedule label of a config: the benchmark's three inputs."""
    if cfg.coolant_present:
        return "coolant"
    return "no_coolant" if cfg.loop_cap_no_coolant <= 1000 else "long_cap"


def _campaign_note(args, kwargs, report) -> tuple:
    cfg = args[0] if args else kwargs["cfg"]
    return (schedule_of(cfg), report.requests, report.successes,
            int(report.attempts_used.sum()))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.notes: list = []      # (span index, note tuple)
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, func):
        note = _campaign_note if name == "protocol.simulate_campaign" else None
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if note is not None:
                self.notes.append((idx, note(args, kwargs, result)))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target at each ionlink module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ionlink" or n.startswith("ionlink."))]
        for name, module, attr in TARGETS:
            mod = sys.modules.get(f"ionlink.{module}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                setattr(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            func = getattr(mod, attr, None)
            if func is None:
                continue
            wrapper = self._wrap(name, func)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is func:
                        setattr(m, key, wrapper)

    def stats(self) -> dict:
        """``name -> [calls, inclusive seconds, self seconds]``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def campaigns(self) -> list:
        """``(schedule, requests, successes, attempts, seconds)`` per call."""
        out = []
        for idx, (schedule, requests, successes, attempts) in self.notes:
            _, start, end, _, _ = self.spans[idx]
            out.append((schedule, requests, successes, attempts, end - start))
        return out


def import_times(stderr_text: str) -> dict:
    """Cumulative import seconds of the ionlink modules, from ``-X importtime``."""
    out = {}
    for match in _IMPORT_ROW.finditer(stderr_text):
        name = match.group(3)
        if name.startswith("ionlink."):
            short = name.split(".", 1)[1]
            if short in IMPORT_MODULES:
                out[short] = int(match.group(2)) * 1e-6
    return out
