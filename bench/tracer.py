"""Outside-in span tracer for the eqnav modules.

The tracer wraps functions and ``__post_init__`` validators of the package
from the outside: every module attribute that is the original function is
replaced, so calls through any import site (``eqnav.filter.phi_left``,
``eqnav.kinematics.gamma``, ...) and calls inside the defining module are
all recorded.  Nothing in the package is edited.

Each call becomes one span: name, start and end (``perf_counter_ns``), the
index of the enclosing span and the current request id (an epoch, a Monte
Carlo run or a CLI command).  Spans live in typed arrays in memory and are
written out once, at the end.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records one span ``name``."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def request_span(self, name: str, request_id: int):
        """Record one request-level span (the root of a request) around the block."""
        self.request_id = request_id
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def install(self, functions: dict[str, object], classes: dict[str, type]) -> None:
        """Wrap ``functions`` at every eqnav import site and ``classes``' validators.

        ``functions`` maps span names (``layer.function``) to the original
        function objects; ``classes`` maps span names to dataclasses whose
        ``__post_init__`` is wrapped.
        """
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in functions.items()}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "eqnav" or mod_name.startswith("eqnav.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for name, cls in classes.items():
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self.wrap(name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) ns and self ns."""
        names = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_ns, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as gzip CSV: name,start_ns,end_ns,parent,request."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,request\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.request[i]}\n"
                )

    def __len__(self) -> int:
        return len(self.start)

