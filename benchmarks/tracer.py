"""Out-of-program tracing for one `cnplab run` child.

`install` wraps the public functions of each layer, in every cnplab module
namespace that binds them, plus the numpy.linalg entry points they call.
Each call is a span (name, start, end, parent) kept in memory and written
out once at the end; `multi_coeff` is called hundreds of thousands of times
and only counted.

`install_peaks` wraps only the PEAK functions, each in its own tracemalloc
session.  tracemalloc slows allocation-heavy Python several times over, so
peaks come from a separate pass whose times are not used.  Nothing here is
imported by an untraced child.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import tracemalloc

# layer -> public functions timed as spans
TRACED = {
    "cli": ("parse_config", "run"),
    "coeffs": ("build_table", "kernel_eval"),
    "tuples": ("defect", "is_contraction", "is_pure", "shift_matrices"),
    "model": ("build_dilation", "check_intertwining", "check_factorability",
              "associated_tuple", "admits_charfn", "bergman_counterexample"),
    "charfn": ("build_lift", "kernel_calculus", "charfn_eval", "verify_defect_identity",
               "verify_multiplier", "verify_model"),
}
LINALG = ("svd", "norm", "eigh", "eigvalsh", "lstsq", "matrix_power")
COUNTED = {"coeffs": ("multi_coeff",)}
# functions whose tracemalloc peak is recorded; none of them calls another
PEAK = ("model.check_factorability", "model.admits_charfn", "charfn.verify_model")


class Recorder:
    """Spans, counters, maxima and memory peaks of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.peaks: dict[str, float] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(recorder, args, result) runs on success."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def peak(self, name: str, fn):
        """fn wrapped to record the peak bytes it allocates while it runs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks[name] = max(self.peaks.get(name, 0),
                                       tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "maxima": self.maxima, "peaks": self.peaks}, fh)


def _rebind(original, wrapper) -> int:
    """Point every cnplab namespace binding of original at wrapper."""
    bound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cnplab" or mod_name.startswith("cnplab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                bound += 1
    return bound


def _after_dilation(rec, args, v):
    rec.maximum("model.big_dim", v.big_dim)


def _after_lift(rec, args, lift):
    rec.maximum("charfn.lift_dim", lift.t_tilde.shape[1])


AFTER = {"model.build_dilation": _after_dilation, "charfn.build_lift": _after_lift}


def install(rec: Recorder) -> None:
    """Wrap every traced function; cnplab must already be imported."""
    import numpy.linalg

    for layer, names in TRACED.items():
        mod = importlib.import_module(f"cnplab.{layer}")
        for fn_name in names:
            name = f"{layer}.{fn_name}"
            original = getattr(mod, fn_name)
            if _rebind(original, rec.span(name, original, AFTER.get(name))) == 0:
                raise RuntimeError(f"no binding of {name} found")
    for layer, names in COUNTED.items():
        mod = importlib.import_module(f"cnplab.{layer}")
        for fn_name in names:
            original = getattr(mod, fn_name)
            _rebind(original, rec.counter(f"{layer}.{fn_name}.calls", original))

    # TuplePowers is a class bound in three modules; wrapping its __init__
    # catches every construction whichever binding was used
    tuple_powers = importlib.import_module("cnplab.tuples").TuplePowers

    def after_powers(rec, args, _):
        t, n = args[1], args[2]
        rec.add("tuples.TuplePowers.bytes_computed",
                math.comb(n + t.d, t.d) * t.h * t.h * 16)

    tuple_powers.__init__ = rec.span("tuples.TuplePowers", tuple_powers.__init__, after_powers)

    for fn_name in LINALG:
        setattr(numpy.linalg, fn_name,
                rec.span(f"linalg.{fn_name}", getattr(numpy.linalg, fn_name)))


def install_peaks(rec: Recorder) -> None:
    """Wrap the PEAK functions only; cnplab must already be imported."""
    for name in PEAK:
        layer, fn_name = name.split(".")
        original = getattr(importlib.import_module(f"cnplab.{layer}"), fn_name)
        _rebind(original, rec.peak(name, original))


def summarize(spans: list) -> dict:
    """name -> {calls, s, self_s} from a span list.

    s counts a call only when no enclosing span has the same name, so a
    recursive or re-entrant call is not timed twice; self_s is a span's
    duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            entry["s"] += end - start
    return out
