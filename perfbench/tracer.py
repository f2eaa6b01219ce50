"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` replaces each public function of the layer modules
(``qmat``, ``hybrid``, ``capacity``, ``coding``, ``optics``, ``cli``) with a
wrapper that records a span: name, start, end, parent span and the timed
call it belongs to.  The replacement is made wherever the function object
is bound -- in its own module, in every module that imported it by name
(``capacity.mutual_information_from_rows``, ``coding.outcome_probs``, ...)
and in the package namespace.  The ``__post_init__`` validators of
``DensityOperator``, ``FinitePOVM``, ``Ensemble`` and ``EnergyConstraint``
are traced together as ``hybrid.validate``.

Spans are kept in memory and written out by ``save``.  A span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

PACKAGE = "hybridcap"
LAYERS = ("qmat", "hybrid", "capacity", "coding", "optics", "cli")
VALIDATED = ("DensityOperator", "FinitePOVM", "Ensemble", "EnergyConstraint")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_call = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(qualified name, owner, attribute, original) for every traced callable."""
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    yield f"{layer}.{attr}", None, attr, obj
        hybrid = sys.modules[f"{PACKAGE}.hybrid"]
        for cls_name in VALIDATED:
            cls = getattr(hybrid, cls_name)
            yield "hybrid.validate", cls, "__post_init__", cls.__dict__["__post_init__"]

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for qualname, owner, attr, original in self._targets():
            wrapped = self._wrap(qualname, original)
            if owner is not None:
                self._patches.append((owner, attr, original, wrapped))
                continue
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patches.append((mod, name, original, wrapped))
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._patches = []

    def _name_id(self, qualname: str) -> int:
        if qualname not in self.names:
            self.names.append(qualname)
        return self.names.index(qualname)

    def _wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        stack, start, end = self._stack, self.start, self.end
        name_of, parent, call = self.name_of, self.parent, self.call
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            call.append(tracer.current_call)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    # -- aggregation --------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_of, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.call, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def _self_times(self):
        """(name ids, call ids, self seconds) of every span."""
        name_of, parent, call, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name_of, call, dur - child

    def self_time_per_call(self, n_calls: int) -> np.ndarray:
        """Summed self time of the spans recorded in each timed call."""
        _, call, self_t = self._self_times()
        keep = call >= 0
        return np.bincount(call[keep], weights=self_t[keep], minlength=n_calls)

    def aggregate(self, in_phase) -> dict[str, tuple[int, float]]:
        """{qualified name: (calls, self seconds)} over spans whose call id passes ``in_phase``."""
        name_of, call, self_t = self._self_times()
        if len(self_t) == 0:
            return {}
        keep = in_phase(call)
        k = len(self.names)
        counts = np.bincount(name_of[keep], minlength=k)
        selfs = np.bincount(name_of[keep], weights=self_t[keep], minlength=k)
        return {self.names[i]: (int(counts[i]), float(selfs[i])) for i in range(k)}

    def save(self, path) -> None:
        name_of, parent, call, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name_of, parent=parent,
            call=call, start=start, end=end,
        )
