"""Outside-in tracer for the benchmark: spans and counters taken around the
public functions of ``bottcher`` without editing the library.

``install`` rebinds every ``bottcher.*`` module attribute that holds a wrapped
function.  Rebinding the defining module alone is not enough: ``from .series
import mul`` copies the binding into ``compose``, and those calls would be
missed.  ``Key``, ``Exact`` and ``AsymptoticSpec.M`` are patched at class
level.  ``uninstall`` restores every binding it replaced.

Spans (id, name, start, end, parent id, operation id) stay in memory up to
``SPAN_CAP`` and are written by ``dump``.  Calls, self time (duration minus
the time covered by child spans) and inclusive time per parent are aggregated
for every span, capped or not, under the current ``phase``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Modules whose public functions get spans.  ``coeffs`` and ``keys`` are only
# counted: their helpers run millions of times per pass.
SPAN_MODULES = (
    "parser", "series", "blocks", "compose", "normalize", "domains", "koenigs", "dulac",
)
KEY_OPS = ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__sub__")
EXACT_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "scale", "inverse")
SPAN_CAP = 100_000  # spans kept for ``dump``; later ones are only aggregated


def _counted(fn, cell):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.op = 0
        self.calls = defaultdict(int)  # (phase, span name) -> calls
        self.self_s = defaultdict(float)  # (phase, span name) -> self seconds
        self.incl_s = defaultdict(float)  # (phase, span name, parent name) -> seconds
        self.sums = defaultdict(float)  # (phase, quantity) -> sum, from call hooks
        self.counters: dict[str, list] = {}  # class-level counts, all phases
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._seen_right: dict[int, object] = {}

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recorded as span ``name``; ``hook(args, result)`` runs after it."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id, name]
            self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                phase = self.phase
                self.calls[phase, name] += 1
                self.self_s[phase, name] += d - frame[0]
                self.incl_s[phase, name, parent[2] if parent else None] += d
                if parent is not None:
                    parent[0] += d
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (frame[1], name, t0, t1, parent[1] if parent else None, self.op)
                    )
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    def begin_op(self):
        """Start a new operation id; right-factor reuse is counted within one."""
        self.op += 1
        self._seen_right.clear()

    def add(self, quantity: str, value: float):
        self.sums[self.phase, quantity] += value

    # -- install / uninstall -----------------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def counter(self, name: str) -> list:
        return self.counters.setdefault(name, [0])

    def install(self):
        mods = {
            n: m for n, m in sys.modules.items() if n == "bottcher" or n.startswith("bottcher.")
        }
        replace: dict[int, tuple] = {}
        for short in SPAN_MODULES:
            mod = mods[f"bottcher.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                replace[id(obj)] = (obj, self.wrap(name, obj, _HOOKS.get(name)))
        coeffs = mods["bottcher.coeffs"]
        cell = self.counter("coeffs.ops")
        for attr, obj in vars(coeffs).items():
            if attr.startswith("c_") and inspect.isfunction(obj):
                replace[id(obj)] = (obj, _counted(obj, cell))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

        key_cls = mods["bottcher.keys"].Key
        self._set(key_cls, "__init__", _counted(key_cls.__init__, self.counter("keys.created")))
        cell = self.counter("keys.ops")
        for attr in KEY_OPS:
            self._set(key_cls, attr, _counted(getattr(key_cls, attr), cell))
        exact_cls = coeffs.Exact
        cell = self.counter("coeffs.exact_ops")
        for attr in EXACT_OPS:
            self._set(exact_cls, attr, _counted(getattr(exact_cls, attr), cell))
        spec_cls = mods["bottcher.domains"].AsymptoticSpec
        self._set(spec_cls, "M", self.wrap("domains.M", spec_cls.M))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------------

    def total(self, table: dict, name: str, phases) -> float:
        return sum(table.get((p, name), 0) for p in phases)

    def module_total(self, table: dict, module: str, phases) -> float:
        prefix = module + "."
        return sum(v for (p, n), v in table.items() if p in phases and n.startswith(prefix))

    def inclusive(self, name: str, phases, parent=...) -> float:
        """Inclusive seconds of ``name``; only calls made from ``parent`` if given."""
        return sum(
            v for (p, n, par), v in self.incl_s.items()
            if p in phases and n == name and (parent is ... or par == parent)
        )

    def dump(self, path):
        """Write the kept spans as JSON lines, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t_base = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": round(t0 - t_base, 9),
                    "end": round(t1 - t_base, 9), "parent": parent, "op": op,
                }) + "\n")


# -- per-call hooks: ratios measured where the work happens ---------------------------


def _mul_hook(tr: Tracer, args, out):
    a, b = args[0], args[1]
    tr.add("series.mul.pairs", len(a.terms) * len(b.terms))
    tr.add("series.mul.out_terms", len(out.terms))


def _make_series_hook(tr: Tracer, args, out):
    terms = args[0]
    if hasattr(terms, "__len__"):
        tr.add("series.make_series.in_terms", len(terms))
        tr.add("series.make_series.out_terms", len(out.terms))


def _compose_hook(tr: Tracer, args, out):
    right = args[1]
    if tr._seen_right.get(id(right)) is right:
        tr.add("compose.right_factor_reused", 1)
    else:
        tr._seen_right[id(right)] = right


def _normalize_hook(tr: Tracer, args, out):
    tr.add("normalize.picard_iterations", out.iterations)


_HOOKS = {
    "series.mul": _mul_hook,
    "series.make_series": _make_series_hook,
    "compose.compose": _compose_hook,
    "normalize.normalize": _normalize_hook,
}
