"""Spans and counters around randpipe's public functions, from outside the package.

While a Tracer is active, every public function defined in one of the
layer modules is replaced by a wrapper in each randpipe namespace that
refers to it, so calls between modules and within a module are both
seen. Each call records a span (function, start, end, parent); spans stay
in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "randpipe"
LAYERS = ("cli", "samples", "extract", "fips", "avrprng", "crack")


def _count_steps(tracer, args, result):
    tracer.counters["crack.total_steps"] += result.total_steps
    if result.seed is not None:
        tracer.counters["crack.useful_steps"] += len(args[0]) + result.offset


def _count(name, size):
    def hook(tracer, args, result):
        tracer.counters[name] += size(args, result)
    return hook


# Counter hooks, called with (tracer, args, result) after a call returns.
HOOKS = {
    "samples.load_trace": lambda t, a, r: t.load_paths.update([str(a[0])]),
    "extract.von_neumann": lambda t, a, r: t.counters.update(
        {"extract.von_neumann.pairs": len(a[0]) // 2, "extract.von_neumann.kept": len(r)}),
    "extract.write_bits": _count("extract.write_bits.bits", lambda a, r: len(a[0])),
    "extract.read_bits": _count("extract.read_bits.bits", lambda a, r: len(r)),
    "fips.fips_suite": _count("fips.fips_suite.passed", lambda a, r: int(r.overall)),
    "avrprng.stream": _count("avrprng.stream.outputs", lambda a, r: len(r)),
    "crack.find_seed": _count_steps,
    "crack.find_seed_opt": _count_steps,
}


class Tracer:
    """Records spans while active (`with tracer:`); inactive, the program is untouched."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failures: Counter = Counter()
        self.counters: Counter = Counter()
        self.load_paths: Counter = Counter()
        self._stack = [-1]
        self._wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    qname = f"{layer}.{name}"
                    self._wrappers[fn] = self._wrap(qname, fn, HOOKS.get(qname))
        self._namespaces = [m for n, m in sys.modules.items()
                            if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, qname, fn, hook):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        failures = self.failures

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(qname)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                stack.pop()
                failures[qname] += 1
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for mod in self._namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Busy time, self time and calls per function and per layer, plus failures.

        A span's self time is its duration minus its children's. A layer's
        busy time counts only spans with no ancestor in the same layer, so
        nested calls inside one layer are not counted twice.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        own = dur[:]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        out: Counter = Counter()
        for i, qname in enumerate(self.names):
            layer = qname.split(".", 1)[0]
            out[f"{qname}.calls"] += 1
            out[f"{qname}.busy_s"] += dur[i]
            out[f"{qname}.self_s"] += own[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own[i]
            p = self.parents[i]
            while p >= 0 and not self.names[p].startswith(layer + "."):
                p = self.parents[p]
            if p < 0:
                out[f"{layer}.busy_s"] += dur[i]
        for qname, count in self.failures.items():
            out[f"{qname.split('.', 1)[0]}.failures"] += count
        return dict(out)

    def spans(self) -> dict[str, list]:
        return {"name": self.names, "start": self.starts, "end": self.ends,
                "parent": self.parents}
