"""Span recorder and per-module instrumentation for the traced run.

Spans are kept in memory as (name, start, end, parent) and written out
once the run ends.  `instrument` wraps ddefloquet functions under every
name a ddefloquet module looks them up by, so nothing in the package
changes; the callable it returns puts the originals back.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from array import array

# span name -> (module, attribute); a dotted attribute names a method
WRAPPED = {
    "cli.write": ("ddefloquet.io", "write_text"),
    "orbit.expand_pl": ("ddefloquet.orbit", "expand_pl"),
    "orbit.expand_shohat": ("ddefloquet.orbit", "expand_shohat"),
    "model.linearize_about_orbit": ("ddefloquet.model", "linearize_about_orbit"),
    "model.build_L": ("ddefloquet.model", "build_L"),
    "floquet.find_exponents": ("ddefloquet.floquet", "find_exponents"),
    "floquet.ladder_operators": ("ddefloquet.floquet", "ladder_operators"),
    "floquet.assemble_M": ("ddefloquet.floquet", "assemble_M"),
    "floquet.hill_refine": ("ddefloquet.floquet", "_hill_refine"),
    "floquet.hill_logdet": ("ddefloquet.floquet", "_hill_logdet"),
    "floquet.truncated_matrix": ("ddefloquet.floquet", "truncated_matrix"),
    "floquet.extract_mode": ("ddefloquet.floquet", "extract_mode"),
    "rootfind.find_roots": ("ddefloquet.rootfind", "find_roots"),
    "rootfind.newton": ("ddefloquet.rootfind", "_newton"),
    "linalg.determinant": ("ddefloquet.linalg", "determinant"),
    "linalg.solve_linear": ("ddefloquet.linalg", "solve_linear"),
    "risken.assemble_blocks": ("ddefloquet.risken", "assemble_blocks"),
    "risken.tridiagonal_closure": ("ddefloquet.risken", "tridiagonal_closure"),
    "oracles.monodromy_exponents": ("ddefloquet.oracles", "monodromy_exponents"),
    "oracles.monodromy_matrix": ("ddefloquet.oracles", "_monodromy_matrix"),
    "adjoint.adjoint_modes": ("ddefloquet.adjoint", "adjoint_modes"),
    "adjoint.normalize": ("ddefloquet.adjoint", "normalize"),
    "adjoint.pair": ("ddefloquet.adjoint", "BilinearContext.pair"),
}


class SpanRecorder:
    """Nested spans of one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def name_of(self, idx: int) -> str:
        return self.names[self.name_ids[idx]]

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children.

        Spans of one thread nest strictly, so direct children never overlap
        and their durations add up to the part of the parent they cover.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def totals(self) -> dict:
        """Per span name: (calls, summed self time)."""
        own = self.self_times()
        out: dict[str, list] = {}
        for idx in range(len(self.starts)):
            acc = out.setdefault(self.name_of(idx), [0, 0.0])
            acc[0] += 1
            acc[1] += own[idx]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose parent is a `parent_name` span."""
        return sum(
            1
            for idx in range(len(self.starts))
            if self.parents[idx] >= 0
            and self.name_of(idx) == child_name
            and self.name_of(self.parents[idx]) == parent_name
        )

    def write(self, path: str) -> None:
        """Gzipped CSV, one line per span: name, start, end, parent index
        (-1 at a root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            for idx in range(len(self.starts)):
                fh.write(
                    f"{self.name_of(idx)},{self.starts[idx]!r},"
                    f"{self.ends[idx]!r},{self.parents[idx]}\n"
                )

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def _plain_wrapper(rec: SpanRecorder, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    wrapper.__wrapped__ = fn
    return wrapper


def _find_roots_wrapper(rec: SpanRecorder, fn):
    """Counts the grid-scan evaluations: calls of `f` made directly from
    find_roots, not from inside a refinement."""

    def wrapper(f, *args, **kwargs):
        idx = rec.open("rootfind.find_roots")

        def scanned(lam):
            if rec.current() == idx:
                rec.count("rootfind.scan_evals")
            return f(lam)

        try:
            return fn(scanned, *args, **kwargs)
        finally:
            rec.close(idx)

    wrapper.__wrapped__ = fn
    return wrapper


def _newton_wrapper(rec: SpanRecorder, fn):
    def wrapper(f, *args, **kwargs):
        def counted(lam):
            rec.count("rootfind.newton.evals")
            return f(lam)

        idx = rec.open("rootfind.newton")
        try:
            root, ok = fn(counted, *args, **kwargs)
        finally:
            rec.close(idx)
        rec.count("rootfind.newton.converged", int(bool(ok)))
        return root, ok

    wrapper.__wrapped__ = fn
    return wrapper


def _find_exponents_wrapper(rec: SpanRecorder, fn):
    def wrapper(*args, **kwargs):
        idx = rec.open("floquet.find_exponents")
        try:
            modes = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        rec.count("floquet.modes", len(modes))
        return modes

    wrapper.__wrapped__ = fn
    return wrapper


def span_cost(calls: int = 100_000, repeats: int = 3) -> float:
    """Seconds a wrapped call adds to a plain one, best of `repeats`."""

    def noop():
        return None

    wrapped = _plain_wrapper(SpanRecorder(), "calibration", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


SPECIAL = {
    "rootfind.find_roots": _find_roots_wrapper,
    "rootfind.newton": _newton_wrapper,
    "floquet.find_exponents": _find_exponents_wrapper,
}


def instrument(rec: SpanRecorder):
    """Wrap every WRAPPED function wherever a ddefloquet module binds it.

    Returns a callable that restores the originals.
    """
    owners = {mod: importlib.import_module(mod) for mod, _ in WRAPPED.values()}
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "ddefloquet"]
    undo = []
    for name, (modname, attr) in WRAPPED.items():
        owner = owners[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _plain_wrapper(rec, name, orig))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(owner, attr)
        make = SPECIAL.get(name)
        wrapped = make(rec, orig) if make else _plain_wrapper(rec, name, orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def restore():
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)

    return restore
