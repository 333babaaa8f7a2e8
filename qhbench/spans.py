"""Span tracing of quandlehom from outside the package.

The tracer replaces each listed function by a wrapper in every module of the
package that binds it (a function imported by name into another module is
one more binding), so calls through any name are recorded.  A span holds its
name, its parent span, start and end; counters record work sizes at the same
boundaries.  Size counting runs before the clock starts or after it stops,
so a span times the call alone.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced function; "Class.method" for methods.
# Some are here only so that their time is not counted in their callers'
# self time (invariants, scan, load_dataset, run_reproduce, ...).
TRACED = (
    ("shell", "cli"), ("shell", "load"), ("shell", "load_dataset"),
    ("shell", "run_reproduce"),
    ("core", "make_table"), ("core", "invariants"), ("core", "inner_group"),
    ("core", "group_exponent"), ("core", "is_medial"),
    ("core", "is_connected"), ("core", "quandle_type"),
    ("identities", "satisfies"), ("identities", "scan"),
    ("chains", "subcomplex_generators"), ("chains", "boundary"),
    ("chains", "in_span"),
    ("linalg", "smith_normal_form"), ("linalg", "IntLattice._finalize"),
    ("linalg", "IntLattice.reduce"),
    ("homology", "boundary_matrix"), ("homology", "homology"),
    ("homology", "cocycle_space"),
    ("extensions", "extend"), ("extensions", "check_extension_identity"),
    ("constructions", "enumerate_connected"),
)

def _nnz(mat) -> int:
    return sum(1 for row in mat for v in row if v)


def _max_bits(lat) -> int:
    if not lat._rows:
        return 0
    if not lat._exact:
        return int(np.abs(np.asarray(lat._rows)).max()).bit_length()
    return max(abs(v).bit_length() for row in lat._rows for v in row)


class Tracer:
    """Records spans and counters while installed; `phase` tags each span
    with the round it belongs to."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent, start, end, phase]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.max_bits: dict = defaultdict(int)
        self.phase = "setup"

    # -- recording -----------------------------------------------------------
    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, 0.0, 0.0, self.phase])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, start: float, end: float):
        self._stack.pop()
        rec = self.spans[idx]
        rec[2], rec[3] = start, end

    def count(self, name: str, k: float):
        self.counts[self.phase][name] += k

    def _wrap(self, name: str, fn):
        tracer = self
        pre, post = _SIZERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            idx = tracer._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, start, time.perf_counter())
            if post is not None:
                post(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_finalize(self, fn):
        """The echelon runs on a lattice's first query only; later calls
        return at once and are not spans."""
        tracer = self

        def wrapper(lat):
            if lat._final:
                return fn(lat)
            idx = tracer._enter("linalg.lattice_echelon")
            start = time.perf_counter()
            try:
                return fn(lat)
            finally:
                tracer._exit(idx, start, time.perf_counter())
                bits = _max_bits(lat)
                tracer.count("linalg.lattice_rank", len(lat._rows))
                tracer.count("linalg.lattices_wide", 1 if bits > 30 else 0)
                phase = tracer.phase
                tracer.max_bits[phase] = max(tracer.max_bits[phase], bits)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------
    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "quandlehom" or k.startswith("quandlehom.")]
        for modname, attr in TRACED:
            owner = sys.modules[f"quandlehom.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = (self._wrap_finalize(orig) if meth == "_finalize"
                           else self._wrap("linalg.lattice_query", orig))
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{modname}.{attr}", orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- reduction -----------------------------------------------------------
    def layer_totals(self, phases) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, over the
        spans of the given phases.  Self time is the span minus the time its
        direct children cover."""
        child = defaultdict(float)
        for name, parent, start, end, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, parent, start, end, phase) in enumerate(self.spans):
            if phase not in phases:
                continue
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child[idx]
        return out

    def counter_totals(self, phases) -> dict:
        out: dict = defaultdict(float)
        for phase in phases:
            for k, v in self.counts[phase].items():
                out[k] += v
        return out

    def dump(self, path):
        """One JSON line per span; times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, parent, start, end, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "parent": parent,
                                     "name": name, "phase": phase,
                                     "start": round(start - t0, 7),
                                     "end": round(end - t0, 7)}) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call of a no-op, measured in place."""
    wrapped = Tracer()._wrap("noop", _noop)
    start = time.perf_counter()
    for _ in range(calls):
        _noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, time.perf_counter() - start - bare) / calls


def _noop():
    return None


# ------------------------------------------------------------------- sizers

def _snf_pre(tr, args, kwargs):
    mat = args[0]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    tr.count("linalg.snf_cells", rows * cols)
    tr.count("linalg.snf_nnz", _nnz(mat))


def _boundary_post(tr, args, result):
    rows, cols = result.shape
    tr.count("homology.boundary_cells", rows * cols)
    tr.count("homology.boundary_nnz", _nnz(result.matrix))


def _generators_post(tr, args, result):
    tr.count("chains.generators", len(result))


def _satisfies_post(tr, args, result):
    tr.count("identities.satisfies.tuples", result.tuples_checked)


def _inner_post(tr, args, result):
    tr.count("core.inner_group.elements", result.order)


_SIZERS = {
    "linalg.smith_normal_form": (_snf_pre, None),
    "homology.boundary_matrix": (None, _boundary_post),
    "chains.subcomplex_generators": (None, _generators_post),
    "identities.satisfies": (None, _satisfies_post),
    "core.inner_group": (None, _inner_post),
}


# -------------------------------------------------------- per-layer metrics

# (metric, unit, source): source is (span name, field) or ("count", name)
LAYER_METRICS = (
    ("linalg.smith_normal_form.calls", "count", ("linalg.smith_normal_form", "calls")),
    ("linalg.smith_normal_form.s", "s", ("linalg.smith_normal_form", "s")),
    ("linalg.snf_cells", "count", ("count", "linalg.snf_cells")),
    ("linalg.snf_nnz", "count", ("count", "linalg.snf_nnz")),
    ("linalg.lattice_echelon.s", "s", ("linalg.lattice_echelon", "s")),
    ("linalg.lattice_query.s", "s", ("linalg.lattice_query", "self_s")),
    ("linalg.lattice_queries", "count", ("linalg.lattice_query", "calls")),
    ("linalg.lattice_rank", "count", ("count", "linalg.lattice_rank")),
    ("linalg.lattice_max_bits", "bits", ("max", "linalg.lattice_max_bits")),
    ("linalg.lattices_wide", "count", ("count", "linalg.lattices_wide")),
    ("homology.boundary_matrix.calls", "count", ("homology.boundary_matrix", "calls")),
    ("homology.boundary_matrix.s", "s", ("homology.boundary_matrix", "s")),
    ("homology.boundary_cells", "count", ("count", "homology.boundary_cells")),
    ("homology.boundary_nnz", "count", ("count", "homology.boundary_nnz")),
    ("homology.homology.self_s", "s", ("homology.homology", "self_s")),
    ("homology.cocycle_space.calls", "count", ("homology.cocycle_space", "calls")),
    ("homology.cocycle_space.self_s", "s", ("homology.cocycle_space", "self_s")),
    ("chains.subcomplex_generators.calls", "count", ("chains.subcomplex_generators", "calls")),
    ("chains.subcomplex_generators.s", "s", ("chains.subcomplex_generators", "s")),
    ("chains.generators", "count", ("count", "chains.generators")),
    ("chains.boundary.calls", "count", ("chains.boundary", "calls")),
    ("chains.boundary.s", "s", ("chains.boundary", "s")),
    ("chains.in_span.calls", "count", ("chains.in_span", "calls")),
    ("chains.in_span.s", "s", ("chains.in_span", "s")),
    ("identities.satisfies.calls", "count", ("identities.satisfies", "calls")),
    ("identities.satisfies.s", "s", ("identities.satisfies", "s")),
    ("identities.satisfies.tuples", "count", ("count", "identities.satisfies.tuples")),
    ("core.make_table.calls", "count", ("core.make_table", "calls")),
    ("core.make_table.s", "s", ("core.make_table", "s")),
    ("core.inner_group.s", "s", ("core.inner_group", "s")),
    ("core.inner_group.elements", "count", ("count", "core.inner_group.elements")),
    ("core.is_medial.s", "s", ("core.is_medial", "s")),
    ("core.group_exponent.s", "s", ("core.group_exponent", "s")),
    ("extensions.extend.s", "s", ("extensions.extend", "s")),
    ("extensions.check_extension_identity.self_s", "s", ("extensions.check_extension_identity", "self_s")),
    ("shell.load.calls", "count", ("shell.load", "calls")),
    ("shell.load.s", "s", ("shell.load", "s")),
    ("shell.cli.self_s", "s", ("shell.cli", "self_s")),
    ("constructions.enumerate_connected.s", "s", ("constructions.enumerate_connected", "s")),
)
