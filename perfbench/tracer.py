"""Outside-in span tracing of the gridloss layers.

``Tracer.install`` wraps every public function of the layer modules, plus
``NetworkGraph.__post_init__``, in a span recorder. Because ``cli``, ``h2``,
``dynamics``, ``tuning`` and the package itself bind names at import, the
wrapper replaces the function in every ``gridloss`` module that holds it.
``Tracer.uninstall`` puts every original back. Spans record their parent, so
the same function called from two routes (``solve_lyapunov`` under
``h2_modal`` and under ``h2_full_gramian``) can be told apart. Spans stay in
memory until the caller reads them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("network", "dynamics", "h2", "tuning", "sim", "cli")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Counts taken at a span's end, outside its timed interval. Each maps
# (original function, args, kwargs, result) to a value stored on the span.
def _note_full_gramian(fn, args, kwargs, result):
    return _bound(fn, args, kwargs)["ss"].n_states


def _note_optimal_gamma(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    params = a["params"]
    key = (hash(a["spectrum"].eigenvalues.tobytes()), params.m, params.k, params.tau, a["alpha"])
    return key, result.iterations


def _note_simulate(fn, args, kwargs, result):
    arrays = (result.times, result.states, result.instantaneous_loss)
    return result.times.size - 1, sum(arr.nbytes for arr in arrays)


def _note_export(fn, args, kwargs, result):
    return os.path.getsize(_bound(fn, args, kwargs)["path"])


NOTES = {
    "h2.h2_full_gramian": _note_full_gramian,
    "tuning.optimal_gamma": _note_optimal_gamma,
    "sim.simulate": _note_simulate,
    "sim.export_trajectory": _note_export,
}


class Tracer:
    """Span recorder over the gridloss layer modules.

    ``spans`` holds one ``[name, parent, start, end, note]`` list per call,
    in call order; ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(fn, args, kwargs, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import gridloss  # noqa: F401  (loads every layer module)

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "gridloss" or name.startswith("gridloss."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"gridloss.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        graph_cls = sys.modules["gridloss.network"].NetworkGraph
        original = graph_cls.__dict__["__post_init__"]
        self._patches.append((graph_cls, "__post_init__", original))
        graph_cls.__post_init__ = self._wrap("network.NetworkGraph", original)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
