"""Span tracing at retrosmooth's module boundaries, installed from outside the package.

The tracer replaces each boundary function with a wrapper in every loaded
``retrosmooth`` module that refers to it, so calls made through
``from .linalg import psd_sqrt`` style imports are caught as well.  Spans are
aggregated in memory as a call count and a self time per boundary: a span's
self time is its duration minus the time its child spans cover.  A call into
a boundary from inside the same boundary (``dumps_17`` recursing, ``as_density``
calling ``as_hermitian``) is part of the outer span and opens none.

Bookkeeping done after a span closes (counting prior blocks) is charged to no
span, so it shows up as a coverage gap rather than as time in a layer.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (span name, module under ``retrosmooth``, function names or glob patterns)
BOUNDARIES = (
    ("cli.cmd", "cli", ("cmd_*",)),
    ("trajectory.enumerate_records", "trajectory", ("enumerate_records",)),
    ("trajectory.filter", "trajectory", ("filter",)),
    ("trajectory.retrofilter", "trajectory", ("retrofilter",)),
    ("trajectory.sample_record", "trajectory", ("sample_record",)),
    ("smoothers.build_prior", "smoothers", ("build_prior",)),
    ("smoothers.build_custom", "smoothers", ("build_custom",)),
    ("retrodiction.generalized_smooth", "retrodiction", ("generalized_smooth",)),
    ("linalg.psd_sqrt", "linalg", ("psd_sqrt",)),
    ("linalg.partial_trace", "linalg", ("partial_trace",)),
    ("linalg.entropy_vn", "linalg", ("entropy_vn",)),
    ("linalg.fidelity", "linalg", ("fidelity",)),
    ("linalg.validate", "linalg", ("as_density", "as_effect", "as_hermitian")),
    ("classical.classical_smooth", "classical", ("classical_smooth",)),
    ("entropy.theorem1_check", "entropy", ("theorem1_check",)),
    ("entropy.sandwich_bound", "entropy", ("sandwich_bound",)),
    ("sampling.random", "sampling", ("random_*",)),
    ("scenario.io", "scenario", ("read_trajectories", "write_trajectories", "dumps_17", "state_to_json")),
)

SPAN_NAMES = tuple(name for name, _, _ in BOUNDARIES)
_PRIOR_SPANS = ("smoothers.build_prior", "smoothers.build_custom")
_EIG_FUNCTIONS = ("eigh", "eigvalsh")


class Tracer:
    """Aggregated spans and work counters for one traced run.

    Use as a context manager around the calls to trace; the original
    functions are restored on exit.
    """

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.calls_from: Counter[tuple[str, str]] = Counter()  # (calling span, span)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.blocks = 0
        self.zero_blocks = 0
        self.eig_calls = 0
        self._stack: list[list] = []  # [span name, time covered by child spans]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, tuple[object, object]] = {}
        for span, module_name, patterns in BOUNDARIES:
            module = importlib.import_module(f"retrosmooth.{module_name}")
            hook = self._count_blocks if span in _PRIOR_SPANS else None
            for attr, value in vars(module).items():
                if (
                    callable(value)
                    and getattr(value, "__module__", None) == module.__name__
                    and any(fnmatch.fnmatchcase(attr, p) for p in patterns)
                ):
                    wrappers[id(value)] = (value, self._wrap(span, value, hook))
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "retrosmooth"]:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        for attr in _EIG_FUNCTIONS:
            self._patch(np.linalg, attr, self._count_eig(getattr(np.linalg, attr)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, span: str, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            if stack:
                self.calls_from[stack[-1][0], span] += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[span] += 1
                self.self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                start = perf_counter()
                hook(result)
                if stack:
                    stack[-1][1] += perf_counter() - start
            return result

        return traced

    def _count_blocks(self, prior) -> None:
        self.blocks += len(prior.blocks)
        self.zero_blocks += sum(1 for b in prior.blocks if b.trace().real == 0.0)

    def _count_eig(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.eig_calls += 1
            return fn(*args, **kwargs)

        return counted

    def traced_seconds(self) -> float:
        """Sum of self times over every span."""
        return sum(self.self_s.values())
