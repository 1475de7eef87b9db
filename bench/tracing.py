"""Span tracing for the benchmark's traced runs.

A traced run replaces each public function named in `LAYERS`, in every
heisflag module namespace that binds it, by a wrapper that records one span:
name, start, end, the span that was open when it was called, and the id of
the benchmark operation it belongs to.  Rebinding every namespace matters
because modules import some functions by name (`witness` binds
`flag_invariants`, `restrict`, `radical`, `scaled_system` and
`extend_basis` itself).  Tiny hot helpers (`mat_vec`, `vec_*`) are left
alone.

Only calls made inside a benchmark operation are recorded.  Spans stay in
memory until the run ends.  A span's self time is its
duration minus the part of its interval covered by its child spans.

Measuring entry sizes for `linalg.max_entry_bits` costs time of its own.
That time is recorded as a `hook` span beside the measured call, so it is
subtracted from the caller's self time and reported in no layer.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": ("congruence_diagonalize", "kernel", "rank", "solve", "invert", "det",
               "intersect", "row_space", "lll_reduce", "mat_mul"),
    "forms": ("restrict", "signature", "radical", "flag_invariants", "scaled_system",
              "extend_basis"),
    "heisenberg": ("classify_metric",),
    "curvature": ("levi_civita", "riemann", "ricci", "derivation_space", "soliton_check"),
    "enumeration": ("survey_flags", "int_rref", "int_signature"),
    "witness": ("isometry_witness",),
}

# functions whose arguments and results feed linalg.max_entry_bits
ENTRY_BITS_FUNCTIONS = ("linalg.congruence_diagonalize", "linalg.invert")

OP_SPAN = "op"
HOOK_SPAN = "hook"

# (name, start_ns, end_ns, parent index or -1, operation id)
Span = tuple[str, int, int, int, int]


def layer_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def _entry_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _matrix_bits(rows) -> int:
    return max((_entry_bits(x) for row in rows for x in row), default=0)


def _result_bits(result) -> int:
    # congruence_diagonalize returns (transform, diagonal); invert a matrix
    if hasattr(result, "diagonal"):
        return max(_matrix_bits(result.transform), _matrix_bits([result.diagonal]))
    return _matrix_bits(result)


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.max_entry_bits = 0
        self.ops = 0
        self._stack: list[int] = []
        self._op_start = 0

    def begin_op(self) -> int:
        self.ops += 1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._op_start = time.perf_counter_ns()
        return sid

    def end_op(self, sid: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (OP_SPAN, self._op_start, end, -1, self.ops)

    def _wrap(self, name: str, fn, track_bits: bool):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not stack:  # outside an operation, e.g. in an answer check
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.ops)
            if track_bits:
                bits = max(_matrix_bits(args[0]), _result_bits(result))
                self.max_entry_bits = max(self.max_entry_bits, bits)
                spans.append((HOOK_SPAN, end, clock(), parent, self.ops))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer function in every loaded heisflag module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "heisflag" or key.startswith("heisflag."))]
        replaced = []
        try:
            for module_name, functions in LAYERS.items():
                home = importlib.import_module(f"heisflag.{module_name}")
                for fn_name in functions:
                    original = getattr(home, fn_name, None)
                    if original is None:  # removed by a later version: reports zero calls
                        continue
                    name = f"{module_name}.{fn_name}"
                    wrapper = self._wrap(name, original, name in ENTRY_BITS_FUNCTIONS)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                replaced.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_ns", "end_ns", "parent", "op"))
            out.writerows(self.spans)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, op) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """Per span name: (number of calls, total self time in ns)."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_ns[name] += own
    return {name: (calls[name], self_ns[name]) for name in calls}


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """`<module>.<F>.calls_per_op` and `.self_ms_per_op` for every layer function."""
    totals = layer_totals(spans)
    out = {}
    for name in layer_names():
        calls, own = totals.get(name, (0, 0))
        out[f"{name}.calls_per_op"] = (calls / ops, "count")
        out[f"{name}.self_ms_per_op"] = (own / 1e6 / ops, "ms")
    return out
