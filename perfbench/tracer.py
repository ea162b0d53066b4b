"""Outside-in span tracer for gfcring's layers.

A layer is one module of the package.  The tracer wraps every cross-module
binding: a function that module M imported from another gfcring module L,
looked up through M's namespace (``gfcring.ideal.rank_mod_p_array``,
``gfcring.cli.verify_degree2_kernel``).  Each call from one layer into
another then records a span: name, start, end, parent span, and the
process's peak RSS before and after.  Calls inside a layer are left alone;
they are the hot loops (``basis_rank_check`` calls ``evaluate_theta`` over a
million times), and wrapping them would time the wrapper.

A layer's self time is the time its spans were open minus the part covered
by their child spans, so the self times of all layers add up to the root
span.  ``restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

import oracles

LAYERS = ("params", "indexsets", "reps", "curve", "linalg", "ideal", "cli")

# Span fields, in order.
NAME, START, END, PARENT, RSS0, RSS1 = range(6)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _eval_entries(args, kwargs, result) -> int:
    """Points x basis size of one basis_rank_check, from its arguments."""
    params, m = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "m")
    return _arg(args, kwargs, 2, "oversample") * oracles.dim_vm(params.k, params.n, m)


def _cells(args, kwargs, result) -> int:
    rows, cols = _arg(args, kwargs, 0, "mat").shape
    return rows * cols


# Work counted per call of a wrapped binding: span name -> (counter, amount).
WORK = {
    "curve.basis_rank_check": ("curve.eval_entries", _eval_entries),
    "curve.evaluate_theta": ("curve.eval_entries", lambda a, kw, r: 1),
    "linalg.rank_mod_p_array": ("linalg.cells", _cells),
    "ideal.export_ideal": ("ideal.export_bytes", lambda a, kw, r: len(r)),
}

# Calls inside the ideal layer that only count work and record no span: each
# generator list is built a few times per prime, never in a hot loop.
COUNTED = {
    ("ideal", "generate_binomials"): "ideal.relations",
    ("ideal", "generate_trinomials"): "ideal.relations",
}


class Tracer:
    """Records spans in memory; ``install`` patches, ``restore`` un-patches."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack, work = self.spans, self._stack, self.work
        counter = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], _maxrss_kb(), 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                rec[RSS1] = _maxrss_kb()
                stack.pop()
            if counter:
                work[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def _count(self, fn, counter: str):
        work = self.work

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            work[counter] += len(result)
            return result

        return counted

    def _patch(self, module, attr: str, new) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, package: str = "gfcring") -> None:
        """Wrap every cross-module binding among the package's layers."""
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:  # the cli layer is not imported by library workloads
                continue
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if (callable(obj) and not isinstance(obj, type)
                        and owner.startswith(package + ".") and owner != module.__name__):
                    self._patch(module, attr, self.wrap(obj, f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"))
        for (layer, attr), counter in COUNTED.items():
            module = sys.modules[f"{package}.{layer}"]
            self._patch(module, attr, self._count(getattr(module, attr), counter))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_values(spans: list) -> list[tuple[float, int]]:
    """Per span: (self time, self peak-RSS rise in KB).

    Self time is the span's duration minus the union of its children's
    intervals, clipped to the span.  Peak RSS is a high-water mark, so a
    span's rise minus its children's rises is what it added itself.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, edge = 0.0, s[START]
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, edge), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        rise = (s[RSS1] - s[RSS0]) - sum(spans[c][RSS1] - spans[c][RSS0] for c in children[i])
        out.append((s[END] - s[START] - covered, rise))
    return out


def layer_metrics(spans: list, work: dict[str, int]) -> dict[str, float]:
    """Per-layer self time, calls, self RSS rise and work rates."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.rss_rise_mb"] = 0.0
    for s, (self_s, rise_kb) in zip(spans, self_values(spans)):
        layer = s[NAME].split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        out[f"{layer}.rss_rise_mb"] += rise_kb / 1024
    for counter in ("curve.eval_entries", "linalg.cells", "ideal.relations", "ideal.export_bytes"):
        out[counter] = work.get(counter, 0)

    def rate(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["curve.eval_entries_per_s"] = rate(out["curve.eval_entries"], out["curve.self_s"])
    out["linalg.cells_per_s"] = rate(out["linalg.cells"], out["linalg.self_s"])
    out["linalg.s_per_call"] = rate(out["linalg.self_s"], out["linalg.calls"])
    return out
