"""Span tracing of opdyn from outside the package.

``Tracer.install`` wraps the public functions the benchmark follows and
rebinds every module attribute that refers to them, so names imported with
``from .x import y`` (``opdyn.criteria.op_norm``, ``opdyn.finmat.
shift_power_apply``, ...) are traced too.  ``FiniteMatrix.__init__`` is
wrapped on the class; ``FiniteMatrix.entry`` is deliberately left alone: it
runs millions of times on the dual workload and its cost already lands in
the self time of ``duality.eval_functional``.

Spans (name, start, end, parent, request) stay in flat in-memory arrays and
are written out once at the end.  Work counts (entries offered, bytes
written, ...) are taken at the same boundaries.  Bookkeeping that scans a
matrix or queries a file is itself recorded as a ``trace.bookkeeping`` span,
so it is excluded from the caller's self time; the cost of taking timestamps
and O(1) counts does land there, and shows in ``trace.overhead_s``.

This module imports nothing from opdyn; ``self_time_table`` is used by the
harness, which never imports the package under test.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

#: Functions wrapped by module: the layers of the per-layer metrics.
TRACED_FUNCTIONS = {
    "scenario": ("parse_scenario",),
    "lattice": (
        "monomial_product_norm",
        "monomial_product_norm_rowcut",
        "shift_power_apply",
        "shift_star_power_apply",
        "unitary_power_apply",
    ),
    "finmat": (
        "compose",
        "shift_multiply",
        "permute_multiply",
        "op_norm",
        "trace_norm",
        "write_finmat",
    ),
    "elementary": ("apply_power",),
    "criteria": ("make_report", "write_reports_csv"),
    "constructor": ("construct_approximant", "verify_approximant_convergence"),
    "duality": (
        "eval_functional",
        "weak_star_distance",
        "construct_dual_approximant",
        "dual_apply_power",
    ),
    "cli": ("main",),
}

BOOKKEEPING = "trace.bookkeeping"
FINITE_MATRIX = "finmat.FiniteMatrix"

#: Functions whose work counts cost more than a timestamp: op_norm scans the
#: matrix, the writers ask the file for its position.  Their bookkeeping is
#: recorded as its own span so that it stays out of the caller's self time;
#: the O(1) counts of the other hooks are not worth a span each.
SCANNING_HOOKS = frozenset(
    {"finmat.op_norm", "finmat.write_finmat", "criteria.write_reports_csv"}
)


def _dense_shape(a) -> tuple[int, int] | None:
    """Rows x cols of the dense block op_norm builds, or None when the
    matrix is zero or monomial (the exact fast path)."""
    rows, cols = set(), set()
    monomial = True
    for (i, j), _ in a.items():
        if i in rows or j in cols:
            monomial = False
        rows.add(i)
        cols.add(j)
    if monomial:
        return None
    return len(rows), len(cols)


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack = [-1]
        self._request = -1
        self.work: list[dict[str, float]] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._distinct_k: set[int] = set()

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, t: float) -> int:
        idx = len(self.start)
        self.start.append(t)
        self.end.append(t)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _bookkeeping(self, t0: float) -> None:
        idx = self._open(self._bookkeeping_id, t0)
        self._close(idx)

    def count(self, key: str, amount: float) -> None:
        self.work[-1][key] += amount

    def begin_request(self) -> None:
        """Start a new request: later spans and counts carry its id."""
        self._request += 1
        self.work.append(defaultdict(float))
        self._distinct_k = set()

    def end_request(self) -> None:
        self.count("constructor.construct_approximant.distinct_k", len(self._distinct_k))

    # -- wrappers ------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        pre = getattr(self, "_pre_" + qualname.replace(".", "_"), None)
        post = getattr(self, "_post_" + qualname.replace(".", "_"), None)
        perf = time.perf_counter

        if pre is None and post is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(nid, perf())
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

            return traced

        if qualname not in SCANNING_HOOKS:

            @functools.wraps(fn)
            def traced_counted(*args, **kwargs):
                state = pre(args, kwargs) if pre is not None else None
                idx = self._open(nid, perf())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if post is not None:
                    post(args, kwargs, state)
                return result

            return traced_counted

        @functools.wraps(fn)
        def traced_scanning(*args, **kwargs):
            t0 = perf()
            state = pre(args, kwargs) if pre is not None else None
            self._bookkeeping(t0)
            idx = self._open(nid, perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post is not None:
                t1 = perf()
                post(args, kwargs, state)
                self._bookkeeping(t1)
            return result

        return traced_scanning

    # Per-function work counts.  ``pre`` may return state for ``post``.

    def _pre_finmat_FiniteMatrix(self, args, kwargs):
        entries = args[1] if len(args) > 1 else kwargs.get("entries")
        return len(entries) if entries else 0

    def _post_finmat_FiniteMatrix(self, args, kwargs, offered):
        self.count("finmat.FiniteMatrix.entries_in", offered)
        self.count("finmat.FiniteMatrix.dropped", offered - args[0].nnz)

    def _pre_finmat_shift_multiply(self, args, kwargs):
        self.count("finmat.shift_multiply.entries", args[0].nnz)

    def _pre_finmat_op_norm(self, args, kwargs):
        shape = _dense_shape(args[0])
        if shape is not None:
            self.count("finmat.op_norm.dense_calls", 1)
            self.count("finmat.op_norm.dense_cells", shape[0] * shape[1])

    def _pre_finmat_write_finmat(self, args, kwargs):
        return args[1].tell()

    def _post_finmat_write_finmat(self, args, kwargs, before):
        self.count("finmat.write_finmat.bytes", args[1].tell() - before)

    def _pre_criteria_write_reports_csv(self, args, kwargs):
        return args[1].tell()

    def _post_criteria_write_reports_csv(self, args, kwargs, before):
        self.count("criteria.write_reports_csv.bytes", args[1].tell() - before)

    def _pre_constructor_construct_approximant(self, args, kwargs):
        self._distinct_k.add(args[3] if len(args) > 3 else kwargs["k"])

    def _pre_duality_eval_functional(self, args, kwargs):
        self.count("duality.eval_functional.terms", args[0].representer.nnz)

    # -- installation --------------------------------------------------

    def prepare(self, package) -> None:
        """Build the wrappers for ``package`` (opdyn) and find every module
        attribute that must be rebound to them; nothing is rebound yet."""
        self._bookkeeping_id = self._name_id(BOOKKEEPING)
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for short, fn_names in TRACED_FUNCTIONS.items():
            home = sys.modules[f"{package.__name__}.{short}"]
            for fn_name in fn_names:
                orig = getattr(home, fn_name)
                wrapped = self._wrap(f"{short}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._bindings.append((mod, attr, orig, wrapped))
        fm = sys.modules[f"{package.__name__}.finmat"].FiniteMatrix
        orig_init = fm.__init__
        self._bindings.append(
            (fm, "__init__", orig_init, self._wrap(FINITE_MATRIX, orig_init))
        )

    def install(self) -> None:
        for obj, attr, _, wrapped in self._bindings:
            setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig, _ in self._bindings:
            setattr(obj, attr, orig)

    def save(self, path: str) -> None:
        """Write spans and per-request work counts to an ``.npz`` file."""
        import numpy as np

        keys = sorted({k for w in self.work for k in w})
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            work_keys=np.array(keys, dtype=str),
            work=np.array([[w.get(k, 0.0) for k in keys] for w in self.work]),
        )


def self_times(start, end, parent):
    """Self time of every span: its duration minus the durations of its
    direct children.  Children of one span never overlap (one thread), so
    that is the part of the interval the children cover."""
    import numpy as np

    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def self_time_table(names, start, end, name, parent, request):
    """{request: {span name: (calls, self seconds)}} from flat span arrays."""
    import numpy as np

    own = self_times(start, end, parent)
    name = np.asarray(name)
    request = np.asarray(request)
    table: dict[int, dict[str, tuple[int, float]]] = {}
    for req in np.unique(request):
        sel = request == req
        calls = np.bincount(name[sel], minlength=len(names))
        secs = np.bincount(name[sel], weights=own[sel], minlength=len(names))
        table[int(req)] = {
            names[i]: (int(calls[i]), float(secs[i]))
            for i in range(len(names))
            if calls[i]
        }
    return table
