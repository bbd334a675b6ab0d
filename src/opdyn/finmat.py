"""Finite-rank operators as sparse real matrices over the integer lattice.

A matrix is three numpy columns in (row, col) order: int64 rows, int64
columns and float64 values, each key once, sub-denormal magnitudes dropped.
Everything downstream relies on that canonical form, so that iteration
order, and hence every accumulated float and every serialized byte, is
reproducible.  Every operation works on the columns as arrays and does the
same float operations in the same order as a walk over the entries would:
several products landing on one key are summed sequentially in the order
the walk meets them.
"""

from __future__ import annotations

import io
import math
import os
from typing import Iterator

import numpy as np

from .errors import ConvergenceError, FormatError, NonFiniteEntry, WindowExceeded
from .lattice import (
    DEFAULT_HORIZON,
    PermutationUnitary,
    _exp,
    shift_power_apply,
    unitary_power_apply,
)

#: Magnitudes below this are dropped at construction.
DROP_THRESHOLD = 1e-300

#: Transported indices beyond this magnitude abort instead of truncating.
DEFAULT_WINDOW_CAP = 1 << 20

FINMAT_HEADER = "finmat v1"

#: Range of a stored index (int64).
_INDEX_MIN, _INDEX_MAX = -(1 << 63), (1 << 63) - 1

#: Products may overflow to inf (or give inf * 0): that is reported as a
#: NonFiniteEntry, as a float loop would, not warned about.
_quiet = np.errstate(over="ignore", invalid="ignore")


class FiniteMatrix:
    """Sparse real matrix indexed by pairs of (possibly negative) integers.

    Immutable by convention: no method mutates the columns after
    construction.  Scalars are IEEE doubles; non-finite entries are rejected.
    """

    __slots__ = ("_rows", "_cols", "_vals")

    def __init__(self, entries=None):
        entries = dict(entries) if entries else {}
        keys = list(entries)
        vals = np.fromiter(map(float, entries.values()), np.float64, len(keys))
        bad = ~np.isfinite(vals)
        if bad.any():
            i, j = keys[int(np.argmax(bad))]
            raise NonFiniteEntry(f"non-finite entry at ({i}, {j})")
        try:
            idx = np.array(keys, dtype=np.int64).reshape(len(keys), 2)
        except OverflowError as exc:
            raise ValueError("matrix index does not fit int64") from exc
        keep = np.abs(vals) >= DROP_THRESHOLD
        if not keep.all():
            idx, vals = idx[keep], vals[keep]
        rows, cols = idx[:, 0], idx[:, 1]
        order, new = _key_order(rows, cols)
        if not new.all():
            # keys that are equal as integers keep the value given last
            last = np.ones(len(new), dtype=bool)
            last[:-1] = new[1:]
            order = order[last]
        self._rows, self._cols, self._vals = rows[order], cols[order], vals[order]

    @classmethod
    def _of(cls, rows, cols, vals) -> "FiniteMatrix":
        # columns already canonical
        a = object.__new__(cls)
        a._rows, a._cols, a._vals = rows, cols, vals
        return a

    def entry(self, i: int, j: int) -> float:
        rows, cols = self._rows, self._cols
        lo, hi = rows.searchsorted(i), rows.searchsorted(i, "right")
        k = lo + cols[lo:hi].searchsorted(j)
        return float(self._vals[k]) if k < hi and cols[k] == j else 0.0

    def items(self) -> Iterator[tuple[tuple[int, int], float]]:
        keys = zip(self._rows.tolist(), self._cols.tolist())
        return zip(keys, self._vals.tolist())

    @property
    def nnz(self) -> int:
        return len(self._vals)

    def is_zero(self) -> bool:
        return not len(self._vals)

    def row_indices(self) -> list[int]:
        return _distinct(self._rows)[0].tolist()

    def col_indices(self) -> list[int]:
        return _distinct(self._cols)[0].tolist()

    def support_radius(self) -> int:
        if self.is_zero():
            return 0
        return int(max(np.abs(self._rows).max(), np.abs(self._cols).max()))

    def transpose(self) -> "FiniteMatrix":
        order = _key_order(self._cols, self._rows)[0]
        return FiniteMatrix._of(
            self._cols[order], self._rows[order], self._vals[order]
        )

    def __add__(self, other: "FiniteMatrix") -> "FiniteMatrix":
        return _summed(self, other, other._vals)

    def __sub__(self, other: "FiniteMatrix") -> "FiniteMatrix":
        return _summed(self, other, -other._vals)

    def __neg__(self) -> "FiniteMatrix":
        return FiniteMatrix._of(self._rows, self._cols, -self._vals)

    @_quiet
    def __mul__(self, scalar: float) -> "FiniteMatrix":
        return _checked(self._rows, self._cols, self._vals * float(scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMatrix):
            return NotImplemented
        return (
            np.array_equal(self._rows, other._rows)
            and np.array_equal(self._cols, other._cols)
            and np.array_equal(self._vals, other._vals)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"FiniteMatrix(nnz={self.nnz})"


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values of s begins."""
    new = np.empty(len(s), dtype=bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    return new


def _key_order(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order of the key tuples, the first key most significant, and
    a mask over the sorted tuples that marks the first of each run of equal
    tuples.  When the key ranges multiply to an int64, the tuples are
    packed into one int64 key and sorted in one pass: the same order."""
    bounds = [(int(k.min()), int(k.max()) + 1) if len(k) else (0, 1) for k in keys]
    if math.prod(hi - lo for lo, hi in bounds) > _INDEX_MAX:
        order = np.lexsort(keys[::-1])
        return order, np.logical_or.reduce([_run_starts(k[order]) for k in keys])
    packed = np.zeros(len(keys[0]), dtype=np.int64)
    for k, (lo, hi) in zip(keys, bounds):
        if hi - lo > 1:  # a constant key orders nothing
            packed *= hi - lo
            packed += k - lo
    order = np.lexsort((packed,))
    return order, _run_starts(packed[order])


def _sorted(x: np.ndarray) -> np.ndarray:
    # lexsort, which key ordering needs anyway, rather than np.sort: the
    # first np.sort call maps ~0.4 MB more of numpy's sort kernels
    return x[np.lexsort((x,))]


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of x, and the position of each x among them."""
    s = _sorted(x)
    values = s[_run_starts(s)]
    return values, values.searchsorted(x)


def _checked(rows, cols, vals, met=None) -> FiniteMatrix:
    """Matrix of distinct keys in (row, col) order: a non-finite value
    raises NonFiniteEntry at the key met first (``met`` ranks the keys, array
    order when None), and magnitudes below DROP_THRESHOLD are dropped."""
    bad = ~np.isfinite(vals)
    if bad.any():
        k = np.flatnonzero(bad)
        k = k[np.argmin(met[k])] if met is not None else k[0]
        raise NonFiniteEntry(f"non-finite entry at ({rows[k]}, {cols[k]})")
    keep = np.abs(vals) >= DROP_THRESHOLD
    if not keep.all():
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return FiniteMatrix._of(rows, cols, vals)


def _sum_by_key(rows, cols, vals) -> FiniteMatrix:
    """Matrix of the sums of ``vals`` per (row, col) key.  Each sum starts at
    0.0 and adds its terms in array order, as a dict accumulating the terms
    in that order would; a non-finite sum is reported at the key that dict
    would have met first."""
    order, new = _key_order(rows, cols)
    # the sort is stable, so each key's terms keep their array order
    sums = np.bincount(np.cumsum(new) - 1, weights=vals[order])
    first = order[new]
    return _checked(rows[first], cols[first], sums, met=first)


def _summed(a: FiniteMatrix, b: FiniteMatrix, b_vals: np.ndarray) -> FiniteMatrix:
    # a + b with b's values replaced by b_vals: a's terms come first
    return _sum_by_key(
        np.concatenate((a._rows, b._rows)),
        np.concatenate((a._cols, b._cols)),
        np.concatenate((a._vals, b_vals)),
    )


class MatrixStack:
    """K matrices as one value: the canonical columns of copy 0, copy 1, ...
    laid end to end, with the copy of each entry (so sorted by copy, row,
    col).

    An operation on a stack does, for every copy, the float operations of
    the same operation on that copy alone, in the same order, so each copy
    of the result is bit-identical to it; an error is raised at the least
    copy that has one, with the text the copy alone gives.
    """

    __slots__ = ("count", "_copy", "_rows", "_cols", "_vals")

    @classmethod
    def _of(cls, count, copy, rows, cols, vals) -> "MatrixStack":
        # columns already canonical
        s = object.__new__(cls)
        s.count, s._copy, s._rows, s._cols, s._vals = count, copy, rows, cols, vals
        return s

    @classmethod
    def of(cls, mats) -> "MatrixStack":
        """The stack of a nonempty sequence of matrices, copy k for mats[k]."""
        mats = list(mats)
        copy = np.repeat(np.arange(len(mats)), [a.nnz for a in mats])
        columns = ([getattr(a, name) for a in mats] for name in ("_rows", "_cols", "_vals"))
        return cls._of(len(mats), copy, *map(np.concatenate, columns))

    def _ends(self) -> np.ndarray:
        # copy k holds the entries ends[k]:ends[k + 1]
        return self._copy.searchsorted(np.arange(self.count + 1))

    def split(self) -> list[FiniteMatrix]:
        ends = self._ends().tolist()
        return [
            FiniteMatrix._of(self._rows[lo:hi], self._cols[lo:hi], self._vals[lo:hi])
            for lo, hi in zip(ends[:-1], ends[1:])
        ]

    def take(self, copies) -> "MatrixStack":
        """The stack whose copy i is copy ``copies[i]`` of this one."""
        ends = self._ends()
        copies = np.asarray(copies, dtype=np.intp)
        lo, size = ends[copies], (ends[1:] - ends[:-1])[copies]
        at = np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)
        copy = np.repeat(np.arange(len(copies)), size)
        return MatrixStack._of(len(copies), copy, self._rows[at], self._cols[at], self._vals[at])

    def __add__(self, other: "MatrixStack") -> "MatrixStack":
        # copy k of each, summed as FiniteMatrix.__add__ sums them
        columns = ("_copy", "_rows", "_cols", "_vals")
        return _sum_by_copy_key(
            self.count, *(np.concatenate((getattr(self, c), getattr(other, c))) for c in columns)
        )
    def op_norms(self) -> list[float]:
        """op_norm of every copy: a monomial copy's max |value| as one
        segmented max, which is op_norm's monomial rule; the dense copies'
        support blocks, laid out as _dense_block lays them, through one
        LAPACK call per block shape."""
        if self.count == 1:  # the one-matrix route does fewer array passes
            return [op_norm(FiniteMatrix._of(self._rows, self._cols, self._vals))]
        norms, ends = np.zeros(self.count), self._ends()
        live = np.flatnonzero(ends[1:] > ends[:-1])
        if not len(live):
            return norms.tolist()
        starts = ends[live]
        norms[live] = np.maximum.reduceat(np.abs(self._vals), starts)
        # each entry's row and column in its copy's block: the rank of its
        # index among the distinct ones of its copy (its rows are in order);
        # a copy is dense when its block has fewer rows or columns than it
        # has entries
        by_col, col_new = _key_order(self._copy, self._cols)
        new_row = _run_starts(self._copy) | _run_starts(self._rows)
        at_row, at_col = (np.cumsum(new) for new in (new_row, col_new))
        first = ends[self._copy]
        at_row, at_col[by_col] = at_row - at_row[first], at_col - at_col[first]
        height, width = (np.maximum.reduceat(at, starts) + 1 for at in (at_row, at_col))
        dense = np.minimum(height, width) < np.diff(ends)[live]
        for h, w in set(zip(height[dense].tolist(), width[dense].tolist())):
            members = np.zeros(self.count, dtype=bool)
            members[live[dense & (height == h) & (width == w)]] = True
            mine = members[self._copy]
            slot = (np.cumsum(members) - 1)[self._copy[mine]]
            blocks = np.zeros((int(members.sum()), h, w))
            blocks[slot, at_row[mine], at_col[mine]] = self._vals[mine]
            norms[members] = _singular_values(blocks)[:, 0]
        return norms.tolist()


def _sum_by_copy_key(count, copy, rows, cols, vals) -> MatrixStack:
    """_sum_by_key per (copy, row, col) key: each copy's sums are that
    copy's _sum_by_key, and a non-finite sum is reported at the least copy
    that has one."""
    order, new = _key_order(copy, rows, cols)
    # the sort is stable, so each key's terms keep their array order
    sums = np.bincount(np.cumsum(new) - 1, weights=vals[order])
    order = order[new]  # the full order is no longer held
    return _checked_stack(count, order, copy, rows, cols, sums)


def _checked_stack(count, at, copy, rows, cols, vals) -> MatrixStack:
    """The stack of the keys at positions ``at`` of copy, rows and cols,
    with values vals: _checked on every copy.  A non-finite value raises at
    the least copy that has one, at its key met first (the least position),
    and the keys are gathered once, after the drop."""
    bad = ~np.isfinite(vals)
    if bad.any():
        k = at[np.flatnonzero(bad)]
        k = k[np.lexsort((k, copy[k]))[0]]
        raise NonFiniteEntry(f"non-finite entry at ({rows[k]}, {cols[k]})")
    keep = np.abs(vals) >= DROP_THRESHOLD
    if not keep.all():
        at, vals = at[keep], vals[keep]
    return MatrixStack._of(count, copy[at], rows[at], cols[at], vals)


def unit(i: int, j: int, value: float = 1.0) -> FiniteMatrix:
    """Rank-one matrix with a single entry at (i, j)."""
    return FiniteMatrix({(i, j): value})


def projection_matrix(m: int) -> FiniteMatrix:
    """Orthogonal projection onto span{e_{-m}, ..., e_m} as a matrix."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return FiniteMatrix({(j, j): 1.0 for j in range(-m, m + 1)})


def _matches(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (query, key) pair with equal values, ``keys`` sorted: the query
    positions and the key positions, by query, then by key position."""
    lo = keys.searchsorted(queries)
    count = keys.searchsorted(queries, "right") - lo
    at = np.repeat(np.arange(len(count)), count)
    return at, np.arange(len(at)) + np.repeat(lo - (np.cumsum(count) - count), count)


@_quiet
def compose(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """Matrix product a @ b."""
    # every product a[i, k] * b[k, j] in (i, k, j) order, summed per (i, j)
    ai, bi = _matches(b._rows, a._cols)
    return _sum_by_key(a._rows[ai], b._cols[bi], a._vals[ai] * b._vals[bi])


def truncate_left(a: FiniteMatrix, m: int) -> FiniteMatrix:
    """P_m @ a: keep only the rows in [-m, m]."""
    lo, hi = a._rows.searchsorted(-m), a._rows.searchsorted(m, "right")
    return FiniteMatrix._of(a._rows[lo:hi], a._cols[lo:hi], a._vals[lo:hi])


def truncate_right(a: FiniteMatrix, m: int) -> FiniteMatrix:
    """a @ P_m: keep only the columns in [-m, m]."""
    keep = np.abs(a._cols) <= m
    return FiniteMatrix._of(a._rows[keep], a._cols[keep], a._vals[keep])


def is_monomial(a: FiniteMatrix) -> bool:
    """True when every row and every column holds at most one nonzero."""
    if a.nnz < 2:
        return True
    rows, cols = a._rows, _sorted(a._cols)
    return not ((rows[1:] == rows[:-1]).any() or (cols[1:] == cols[:-1]).any())


def _dense_block(a: FiniteMatrix) -> np.ndarray:
    rows, at_row = _distinct(a._rows)
    cols, at_col = _distinct(a._cols)
    block = np.zeros((len(rows), len(cols)))
    block[at_row, at_col] = a._vals
    return block


def _singular_values(a: FiniteMatrix | np.ndarray) -> np.ndarray:
    """Singular values of the support block of a, or of each of a stack of
    blocks, largest first (LAPACK gesdd)."""
    try:
        return np.linalg.svd(_dense_block(a) if isinstance(a, FiniteMatrix) else a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD did not converge: {exc}") from exc


def op_norm(a: FiniteMatrix) -> float:
    """Spectral norm: the largest singular value of the dense support block,
    computed by LAPACK.

    Monomial matrices short-circuit to the exact max-|coefficient| rule.
    """
    if a.is_zero():
        return 0.0
    if is_monomial(a):
        return float(np.abs(a._vals).max())
    return float(_singular_values(a)[0])


def trace_norm(a: FiniteMatrix) -> float:
    """Sum of singular values of the dense support block, computed by LAPACK.

    For a monomial matrix the columns are already orthogonal and the result
    is the exact sum of absolute coefficients.  A sum past the float range
    raises NonFiniteEntry.
    """
    if a.is_zero():
        return 0.0
    values = np.abs(a._vals) if is_monomial(a) else _singular_values(a)
    try:
        return math.fsum(values.tolist())
    except OverflowError as exc:
        raise NonFiniteEntry("non-finite trace norm") from exc


def _move(factor, p, side, *, horizon):
    """The move of factor^p multiplied on the given side: sorted distinct
    indices to (landing indices, coefficients or None).

    A factor on the right moves columns as its transpose moves rows (the
    weights are real): U^p on the right is the move of U^-p, and W^p that of
    (W*)^p.  A shift or translation power moves every index by one step; a
    landing past int64 is caught before the int64 add, and the exact
    landings come back as Python ints for the window cap to reject.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if isinstance(factor, PermutationUnitary):
        p = p if side == "left" else -p
        step = p * factor.t  # 0 for a table, which never adds

        def walk(idx):
            return unitary_power_apply(factor, p, idx, horizon=horizon), None

    else:
        shift = factor.star() if side == "right" else factor
        step = -p if shift.adjoint else p

        def walk(idx):
            to, lg = shift_power_apply(shift, p, idx, horizon=horizon)
            return to, np.fromiter(map(_exp, lg.tolist()), np.float64, len(lg))

    def move(idx):
        # a power over the horizon is the walk's to report
        if abs(p) <= horizon and not (
            _INDEX_MIN <= int(idx[0]) + step and int(idx[-1]) + step <= _INDEX_MAX
        ):
            return idx.astype(object) + step, None
        return walk(idx)

    return move


def _moved(idx, move):
    """One side's indices and coefficients (or None) after ``move``, each
    distinct index moved once."""
    if move is None:
        return idx, None
    distinct, at = _distinct(idx)
    to, coeff = move(distinct)
    return to[at], None if coeff is None else coeff[at]


def _outside(idx: np.ndarray, cap: int) -> np.ndarray:
    # |idx| > cap, also for -2^63, whose int64 absolute value wraps
    return (idx > cap) | (idx < -cap)


def _beyond(cap: int, *indices: np.ndarray) -> bool:
    # _outside(idx, cap).any() for some idx, from its least and greatest
    return any(len(idx) and (idx.min() < -cap or idx.max() > cap) for idx in indices)


@_quiet
def _transport(a, left=None, right=None, *, window_cap):
    """The one entry transport: (i, j) -> (left(i), right(j)), scaled by
    both coefficients.  Each distinct row and column index moves once, the
    rows first, in ascending order.

    A move (see ``_move``) is injective, so entries never collide; None
    keeps that side's indices.  The first entry that lands outside the
    window cap, or outside int64, is named at its exact position.
    """
    if a.is_zero():
        return a
    rows, ci = _moved(a._rows, left)
    cols, cj = _moved(a._cols, right)
    cap = min(window_cap, _INDEX_MAX)
    out = _outside(rows, cap) | _outside(cols, cap)
    if out.any():
        k = int(np.argmax(out))
        position = (int(rows[k]), int(cols[k]))
        raise WindowExceeded(f"transported index {position} exceeds window cap {cap}")
    vals = a._vals
    for coeff in (ci, cj):
        if coeff is not None:
            vals = vals * coeff
    order = _key_order(rows, cols)[0]
    return _checked(rows[order], cols[order], vals[order], met=order)


def _stack_move(factor, p, idx, side, *, horizon):
    """The landings of ``idx`` under factor^p on the given side, one int64
    power per index, and their coefficients (None for a unitary, or for no
    factor, which keeps the indices): the rule of ``_move``, which the
    caller has checked stays inside int64."""
    if factor is None:
        return idx, None
    if isinstance(factor, PermutationUnitary):
        return unitary_power_apply(factor, p if side == "left" else -p, idx, horizon=horizon), None
    shift = factor.star() if side == "right" else factor
    to, lg = shift_power_apply(shift, p, idx, horizon=horizon)
    distinct, at = _distinct(lg)
    return to, np.fromiter(map(_exp, distinct.tolist()), np.float64, len(distinct))[at]


@_quiet
def _transport_stack(s, powers, left=None, right=None, *, horizon, window_cap):
    """Copy k of s moved by left^powers[k] on the left and right^powers[k]
    on the right (a shift or a unitary each, as ``_move`` takes them; None
    keeps that side), as ``_transport`` moves each copy; or None when a copy
    may fail.

    The powers are Python ints, checked against the horizon before any
    int64 conversion.  A copy may fail, as ``_transport`` would, when it has
    entries and a power past the horizon, an index that may move past
    int64, a landing outside the window cap or a table window, or a value
    that is not finite; a copy without entries never fails.  The caller
    then moves each copy alone, and the error is raised by the copy that
    meets it.
    """
    live = np.diff(s._ends()) > 0
    powers = [p if z else 0 for p, z in zip(powers, live.tolist())]
    reach = max(map(abs, powers), default=0)
    if reach > horizon:
        return None
    step = max(abs(f.t) if isinstance(f, PermutationUnitary) else 1 for f in (left, right))
    safe = _INDEX_MAX - reach * step
    if safe < 0 or _beyond(safe, s._rows, s._cols):
        return None
    p = np.array(powers, dtype=np.int64)[s._copy]
    # the rows of a copy are in order, so each run of one row moves once
    head = _run_starts(s._copy) | _run_starts(s._rows)
    try:
        rows, ci = _stack_move(left, p[head], s._rows[head], "left", horizon=horizon)
        cols, cj = _stack_move(right, p, s._cols, "right", horizon=horizon)
    except WindowExceeded:
        return None  # a table walk left its declared window
    at = np.cumsum(head) - 1
    cap, vals, rows = min(window_cap, _INDEX_MAX), s._vals, rows[at]
    for coeff in (None if ci is None else ci[at], cj):
        if coeff is not None:
            vals = vals * coeff
    if _beyond(cap, rows, cols) or not np.isfinite(vals).all():
        return None
    order = _key_order(s._copy, rows, cols)[0]
    return _checked_stack(s.count, order, s._copy, rows, cols, vals[order])


def shift_multiply(
    a: FiniteMatrix,
    factors,
    side: str = "left",
    *,
    horizon: int = DEFAULT_HORIZON,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> list[FiniteMatrix]:
    """a multiplied on the given side by each of K products of shift powers,
    by entry transport; no dense powers are ever formed.

    ``factors`` lists the (shift, powers) factors leftmost outermost, each
    with K integer powers: product k is W_1^{p_1[k]} ... W_r^{p_r[k]}.  The
    K copies of ``a`` are one MatrixStack, moved by one factor at a time
    for all copies (``_transport_stack``), so each entry gets the float
    operations of multiplying by one factor at a time: its coefficient
    exp(log weight sum), the product with its value, then the drop below
    DROP_THRESHOLD.

    When a copy may fail, every product is multiplied out one factor at a
    time by ``_transport``, which raises the error of the least k that has
    one, or returns the same products.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    walk = [(shift, [int(p) for p in ps]) for shift, ps in factors]
    if side == "left":
        walk.reverse()  # the rightmost factor acts first
    count = len(walk[0][1]) if walk else 0
    if not walk or any(len(ps) != count for _, ps in walk):
        raise ValueError("need one or more factors, each with one power per product")
    kw = dict(horizon=horizon, window_cap=window_cap)
    stack = MatrixStack.of([a]).take([0] * count)
    for shift, ps in walk:
        stack = _transport_stack(stack, ps, **{side: shift}, **kw)
        if stack is None:
            break
    if stack is not None:
        return stack.split()
    products = []
    for k in range(count):
        x = a
        for shift, ps in walk:
            move = _move(shift, ps[k], side, horizon=horizon)
            x = _transport(x, **{side: move}, window_cap=window_cap)
        products.append(x)
    return products


def permute_multiply(
    a: FiniteMatrix,
    unitary: PermutationUnitary,
    p: int,
    side: str = "left",
    *,
    horizon: int = DEFAULT_HORIZON,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> FiniteMatrix:
    """Multiply by U^p on the given side by relabeling rows or columns."""
    move = _move(unitary, p, side, horizon=horizon)
    return _transport(a, **{side: move}, window_cap=window_cap)


def write_finmat(a: FiniteMatrix, fh) -> None:
    """Serialize in the 'finmat v1' text format.

    One entry per line as 'row col value' with the shortest decimal that
    round-trips the double bit-exactly.
    """
    fh.write(FINMAT_HEADER + "\n")
    fh.write("".join(f"{i} {j} {v!r}\n" for (i, j), v in a.items()))


def read_text(path, what: str) -> str:
    """The UTF-8 text of an input file; a file that cannot be opened or
    decoded raises FormatError("cannot read <what>: ...") naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {what}: {exc}: {os.fspath(path)!r}") from exc


def read_finmat(fh) -> FiniteMatrix:
    lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != FINMAT_HEADER:
        raise FormatError(f"missing '{FINMAT_HEADER}' header")
    entries: dict[tuple[int, int], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected 'row col value'")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if not (_INDEX_MIN <= i <= _INDEX_MAX and _INDEX_MIN <= j <= _INDEX_MAX):
            raise FormatError(f"line {lineno}: index does not fit int64")
        if not math.isfinite(v):
            raise FormatError(f"line {lineno}: non-finite value {parts[2]!r}")
        if (i, j) in entries:
            raise FormatError(f"line {lineno}: duplicate entry ({i}, {j})")
        entries[(i, j)] = v
    return FiniteMatrix(entries)


def save_finmat(a: FiniteMatrix, path) -> None:
    with open(path, "w", newline="") as fh:
        write_finmat(a, fh)


def load_finmat(path, what: str = "matrix file") -> FiniteMatrix:
    # a StringIO splits lines on "\n" only, as the file did
    return read_finmat(io.StringIO(read_text(path, what)))
