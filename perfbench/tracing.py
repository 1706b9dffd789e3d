"""Spans around calls into qadc's public functions, recorded from outside the program.

A span is ``[name, start, end, parent]`` with times from ``perf_counter`` and
``parent`` the index of the enclosing span (-1 at the top).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Functions timed in the traced run, named ``<module>.<attribute path>``
#: under the ``qadc`` package.
TRACED = (
    "photonics.full_output_distribution",
    "photonics.ensemble_from_parts",
    "linop.mesh_unitary",
    "protocol.simulate_quantum_dataset",
    "protocol.simulate_classical_dataset",
    "protocol.StepSimulator.sample_step",
    "protocol.StepSimulator.distribution",
    "protocol.write_quantum_csv",
    "protocol.write_classical_csv",
    "protocol.read_quantum_csv",
    "protocol.read_classical_csv",
    "analysis.bootstrap_mi",
    "analysis.table_from_quantum",
    "analysis.table_from_classical",
    "analysis.quadrature_mi_quantum",
    "analysis.quadrature_mi_classical",
    "ml.train",
    "ml.forward",
    "ml.gradients",
    "cli.write_manifest",
)

_CSV_WRITERS = ("protocol.write_quantum_csv", "protocol.write_classical_csv")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.bytes_written = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        span = self.span
        writes_csv = name in _CSV_WRITERS  # called as writer(dataset, path)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if writes_csv:
                self.bytes_written += os.path.getsize(args[1])
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function inside the qadc package.

        A function imported by name into another module (``from qadc.protocol
        import read_quantum_csv`` in ``qadc.cli``) is bound there too, so each
        qadc module namespace is searched for the original object.
        """
        for name in TRACED:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"qadc.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = owner.__dict__[path[-1]]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "qadc" and not mod_name.startswith("qadc."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(out)
