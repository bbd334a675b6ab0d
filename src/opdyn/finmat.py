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

from .errors import ConvergenceError, FormatError, NonFiniteEntry, OpdynError, WindowExceeded
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


def _span(columns) -> tuple[int, int]:
    """The least value over some int64 arrays and the width of their range
    (1 when they are empty)."""
    lo, hi = 0, -1
    for x in columns:
        if len(x):
            a, b = int(x.min()), int(x.max())
            lo, hi = (a, b) if hi < lo else (min(lo, a), max(hi, b))
    return lo, hi - lo + 1 if hi >= lo else 1


def _key_order(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order of the key tuples, the first key most significant, and
    a mask over the sorted tuples that marks the first of each run of equal
    tuples.  When the key ranges multiply to an int64, the tuples are
    packed into one int64 key and sorted in one pass: the same order."""
    spans = [_span([k]) for k in keys]
    if math.prod(width for _, width in spans) > _INDEX_MAX:
        order = np.lexsort(keys[::-1])
        return order, np.logical_or.reduce([_run_starts(k[order]) for k in keys])
    packed = np.zeros(len(keys[0]), dtype=np.int64)
    for k, (lo, width) in zip(keys, spans):
        if width > 1:  # a constant key orders nothing
            packed *= width
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
    laid end to end, copy k holding the entries ends[k]:ends[k + 1] (so
    sorted by copy, row, col).  The copy of an entry is not stored; a sort
    by copy packs it into the sort key from the ends.

    An operation on a stack does, for every copy, the float operations of
    the same operation on that copy alone, in the same order, so each copy
    of the result is bit-identical to it.  A copy that fails is empty and
    keeps the first OpdynError it met, the one the copy alone raises (the
    copy -> error dict ``_errors``); an empty copy never fails, so later
    operations skip it.  ``split`` raises the least failed copy's error.
    """

    __slots__ = ("_ends", "_rows", "_cols", "_vals", "_errors")

    @classmethod
    def _of(cls, ends, rows, cols, vals, errors=None) -> "MatrixStack":
        # columns already canonical, the failed copies empty
        s = object.__new__(cls)
        s._ends, s._rows, s._cols, s._vals, s._errors = ends, rows, cols, vals, errors or {}
        return s

    @classmethod
    def of(cls, mats) -> "MatrixStack":
        """The stack of a nonempty sequence of matrices, copy k for mats[k];
        an OpdynError in place of a matrix is a failed copy."""
        mats = list(mats)
        errors = {k: a for k, a in enumerate(mats) if isinstance(a, OpdynError)}
        mats = [FiniteMatrix() if k in errors else a for k, a in enumerate(mats)] if errors else mats
        columns = ([getattr(a, name) for a in mats] for name in ("_rows", "_cols", "_vals"))
        return cls._of(_offsets([a.nnz for a in mats]), *map(np.concatenate, columns), errors)

    @property
    def count(self) -> int:
        return len(self._ends) - 1

    def _sizes(self) -> np.ndarray:
        # the number of entries of each copy
        return self._ends[1:] - self._ends[:-1]

    def _copies(self) -> np.ndarray:
        # the copy of each entry
        return np.repeat(np.arange(self.count), self._sizes())

    def split(self) -> list[FiniteMatrix]:
        _raise_least(self._errors)
        ends = self._ends.tolist()
        return [
            FiniteMatrix._of(self._rows[lo:hi], self._cols[lo:hi], self._vals[lo:hi])
            for lo, hi in zip(ends[:-1], ends[1:])
        ]

    def take(self, copies) -> "MatrixStack":
        """The stack whose copy i is copy ``copies[i]`` of this one."""
        copies = np.asarray(copies, dtype=np.intp)
        lo, size = self._ends[copies], self._sizes()[copies]
        ends = _offsets(size)
        at = np.arange(ends[-1]) + np.repeat(lo - ends[:-1], size)
        errors = _note_errors({}, self, copies.tolist())
        return MatrixStack._of(ends, self._rows[at], self._cols[at], self._vals[at], errors)

    def __add__(self, other: "MatrixStack") -> "MatrixStack":
        # copy k of each, summed as FiniteMatrix.__add__ sums them; a
        # one-copy stack is added to every copy of the other
        return _sum_by_copy_key(max(self.count, other.count), self, other)

    def op_norms(self) -> list[float]:
        """op_norm of every copy: a monomial copy's max |value| as one
        segmented max, which is op_norm's monomial rule; the dense copies'
        support blocks, laid out as _dense_block lays them, through one
        LAPACK call per block shape.  A call that does not converge raises
        ConvergenceError for the whole stack: that error is not per copy."""
        if self.count == 1:  # the one-matrix route does fewer array passes
            return [op_norm(FiniteMatrix._of(self._rows, self._cols, self._vals))]
        norms, sizes = np.zeros(self.count), self._sizes()
        live = np.flatnonzero(sizes)
        if not len(live):
            return norms.tolist()
        starts = self._ends[live]
        norms[live] = np.maximum.reduceat(np.abs(self._vals), starts)
        # each entry's row and column in its copy's block: the rank of its
        # index among the distinct ones of its copy (its rows are in order);
        # a copy is dense when its block has fewer rows or columns than it
        # has entries
        row_new = _run_starts(self._rows)
        row_new[starts] = True
        height = np.add.reduceat(row_new, starts, dtype=np.intp)
        copy, _, at_col = _distinct_in_copies(self, self._cols)
        first = copy.searchsorted(np.arange(self.count + 1))
        width = (first[1:] - first[:-1])[live]
        dense = np.minimum(height, width) < sizes[live]
        if not dense.any():
            return norms.tolist()
        at_row = np.cumsum(row_new)
        at_row -= np.repeat(at_row[starts], sizes[live])
        at_col -= np.repeat(first[:-1], sizes)
        # the dense blocks, grouped by shape and in copy order within a
        # shape, laid end to end in one buffer
        members, height, width = live[dense], height[dense], width[dense]
        group = np.lexsort((width, height))
        members, height, width = members[group], height[group], width[group]
        cells = _offsets(height * width)
        corner, wide = np.zeros((2, self.count), dtype=np.intp)
        corner[members], wide[members] = cells[:-1], width
        # each entry's cell: its block's first, then row by row
        at_row *= np.repeat(wide, sizes)
        at_row += np.repeat(corner, sizes)
        at_row += at_col
        del at_col
        mine = np.repeat(wide > 0, sizes)
        blocks = np.zeros(cells[-1])
        blocks[at_row[mine]] = self._vals[mine]
        bounds = np.flatnonzero(_run_starts(height) | _run_starts(width)).tolist()
        for lo, hi in zip(bounds, bounds[1:] + [len(members)]):
            h, w = int(height[lo]), int(width[lo])
            shape = blocks[cells[lo] : cells[hi]].reshape(hi - lo, h, w)
            norms[members[lo:hi]] = _singular_values(shape)[:, 0]
        return norms.tolist()


def _raise_least(errors: dict) -> None:
    # the error of the least copy that has one: a walk over the copies meets it first
    if errors:
        raise errors[min(errors)]


def _note_errors(failed: dict, s: MatrixStack, of=None) -> dict:
    # failed (copy -> error) with the error of copy of[i] of s noted as copy
    # i's (of: every copy), unless copy i has one: a copy keeps its first
    if s._errors:
        for i, c in enumerate(range(s.count) if of is None else of):
            if c in s._errors:
                failed.setdefault(i, s._errors[c])
    return failed


def _made(make, *args, **kwargs):
    # a copy for MatrixStack.of: make(*args, **kwargs), or the OpdynError it raises
    try:
        return make(*args, **kwargs)
    except OpdynError as exc:
        return exc


def _distinct_in_copies(s: MatrixStack, idx: np.ndarray):
    """The distinct (copy, index) pairs of ``idx``, one index per entry of
    stack s, in (copy, index) order: the copy and the index of each pair,
    and each entry's position among them.  A table of every pair in the
    index range marks them when it is no larger than the column, a sort
    finds them else."""
    sizes = s._sizes()
    lo, width = _span([idx])
    if s.count * width <= len(idx):
        key = np.repeat(np.arange(s.count) * width, sizes)
        key += idx - lo
        seen = np.zeros(s.count * width, dtype=bool)
        seen[key] = True
        at = np.cumsum(seen)[key]
        at -= 1
        copy, idx = np.divmod(np.flatnonzero(seen), width)
        idx += lo
        return copy, idx, at
    copies = s._copies()
    order, new = _key_order(copies, idx)
    at = np.empty(len(idx), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    first = order[new]
    return copies[first], idx[first], at


def _offsets(sizes) -> np.ndarray:
    """The ends of ranges of the given sizes laid end to end, from 0."""
    ends = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=ends[1:])
    return ends


def _sum_by_copy_key(count, *parts) -> MatrixStack:
    """_sum_by_key per (copy, row, col) key over the entries of ``parts``,
    stacks of finite values laid end to end whose copies hold each key once
    but may hold their entries in any order; a one-copy part counts once
    for every copy, without a repeat of its columns.  Each copy's sums are
    that copy's _sum_by_key (0.0 + v is v for every v kept: -0.0 is
    dropped).  A copy that failed in a part fails, with the first part's
    error: the left operand of a sum is met first.

    The sort key packs the copy, row and col into one int64, and the
    result's columns come back from the sorted keys.  When their ranges do
    not fit, each copy is summed alone.
    """
    errors = {}
    for p in parts:
        _note_errors(errors, p, [0] * count if p.count == 1 else None)
    (lo_r, wr), (lo_c, wc) = _span(p._rows for p in parts), _span(p._cols for p in parts)
    if count * wr * wc > _INDEX_MAX:
        def piece(p, k):
            lo, hi = (0, len(p._vals)) if p.count == 1 else p._ends[k : k + 2]
            return p._rows[lo:hi], p._cols[lo:hi], p._vals[lo:hi]

        return MatrixStack.of(
            errors.get(k) or _made(_sum_by_key, *map(np.concatenate, zip(*(piece(p, k) for p in parts))))
            for k in range(count)
        )
    width, keys = wr * wc, []
    base = np.arange(count) * width
    for p in parts:
        key = p._rows - lo_r
        key *= wc
        key += p._cols
        key -= lo_c
        spread = p.count == 1  # once for every copy
        keys.append((base[:, None] + key).ravel() if spread else np.repeat(base, p._sizes()) + key)
    keys = np.concatenate(keys) if len(keys) > 1 else keys[0]
    order = np.lexsort((keys,))
    keys = keys[order]
    sums = [np.tile(p._vals, count) if p.count == 1 else p._vals for p in parts]
    sums = (np.concatenate(sums) if len(sums) > 1 else sums[0])[order]
    del order
    if len(parts) > 1:
        # each key's terms in array order (the sort is stable), summed from
        # 0.0; a part holds a key of a copy once, so one part sums nothing
        new = _run_starts(keys)
        keys = keys[new]
        at = np.cumsum(new)
        at -= 1
        sums = np.bincount(at, weights=sums)
        del at, new
    bad = ~np.isfinite(sums)
    if bad.any():
        # a sum past the float range has two terms, the first from the first
        # part, whose copies hold their keys in order: the least such key of
        # a copy is the one a walk meets first
        copy, at = np.divmod(keys[bad], width)
        for k, key in zip(copy.tolist(), at.tolist()):
            i, j = divmod(key, wc)
            errors.setdefault(k, NonFiniteEntry(f"non-finite entry at ({i + lo_r}, {j + lo_c})"))
    keep = np.abs(sums) >= DROP_THRESHOLD
    if errors:
        keep &= ~np.isin(keys // width, list(errors))
    if not keep.all():
        keys, sums = keys[keep], sums[keep]
    ends = keys.searchsorted(np.arange(count + 1) * width)
    # a key is (copy * wr + row - lo_r) * wc + col - lo_c; the sorted keys
    # become the columns in place
    rows = keys // wc
    keys -= rows * wc
    keys += lo_c
    copy = rows // wr
    copy *= wr
    rows -= copy
    rows += lo_r
    return MatrixStack._of(ends, rows, keys, sums, errors)


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
    """The move of factor^p multiplied on the given side (``_stack_move``):
    indices to (landing indices, coefficients or None).

    A shift or translation power moves every index by one step; a landing
    past int64 is caught before the int64 add, and the exact landings come
    back as Python ints for the window cap to reject.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if isinstance(factor, PermutationUnitary):
        step = (p if side == "left" else -p) * factor.t  # 0 for a table, which never adds
    else:
        step = -p if factor.adjoint != (side == "right") else p

    def move(idx):
        # each distinct index moves once; a power over the horizon is the
        # walk's to report
        distinct, at = _distinct(idx)
        if abs(p) <= horizon and not (
            _INDEX_MIN <= int(distinct[0]) + step and int(distinct[-1]) + step <= _INDEX_MAX
        ):
            return idx.astype(object) + step, None
        to, coeff = _stack_move(factor, p, distinct, side, horizon=horizon)
        return to[at], None if coeff is None else coeff[at]

    return move


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
    rows, ci = left(a._rows) if left else (a._rows, None)
    cols, cj = right(a._cols) if right else (a._cols, None)
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
    """The landings of ``idx`` under factor^p on the given side, p one power
    or an int64 power per index, and their coefficients (None for a unitary,
    or for no factor, which keeps the indices); the caller has checked that
    they stay inside int64.

    A factor on the right moves columns as its transpose moves rows (the
    weights are real): U^p on the right is the move of U^-p, and W^p that of
    (W*)^p."""
    if factor is None:
        return idx, None
    if isinstance(factor, PermutationUnitary):
        return unitary_power_apply(factor, p if side == "left" else -p, idx, horizon=horizon), None
    shift = factor.star() if side == "right" else factor
    to, lg = shift_power_apply(shift, p, idx, horizon=horizon)
    distinct, at = _distinct(lg)
    return to, np.fromiter(map(_exp, distinct.tolist()), np.float64, len(distinct))[at]


def _moved_alone(a, p, left=None, right=None, *, horizon, window_cap):
    """a moved by left^p on the left and right^p on the right (None keeps
    that side) by ``_transport``; T^0, a power 0 on both sides, leaves a as
    it is, as ``apply_power`` does."""
    if not p and left is not None and right is not None:
        return a
    moves = [f and _move(f, p, side, horizon=horizon) for f, side in ((left, "left"), (right, "right"))]
    return _transport(a, *moves, window_cap=window_cap)


@_quiet
def _transport_stack(s, powers, left=None, right=None, *, horizon, window_cap):
    """Copy k of s moved by left^powers[k] on the left and right^powers[k]
    on the right (a shift or a unitary each, as ``_move`` takes them; None
    keeps that side), as ``_moved_alone`` moves it.

    The powers are Python ints, checked against the horizon before any
    int64 conversion.  The checks run on the whole stack: when a copy may
    fail, as it may with entries and a power past the horizon, an index
    that may move past int64, a landing outside the window cap or a table
    window, or a value that is not finite, every copy moves alone, which
    names its error.  So does a one-copy stack: the one-matrix route does
    fewer array passes.
    """
    powers = [p if z else 0 for p, z in zip(powers, (s._sizes() > 0).tolist())]
    reach = max(map(abs, powers))
    step = max(abs(f.t) if isinstance(f, PermutationUnitary) else 1 for f in (left, right))
    safe = _INDEX_MAX - reach * step
    if s.count > 1 and reach <= horizon and safe >= 0 and not _beyond(safe, s._rows, s._cols):
        try:
            rows, cols, vals = _stack_moves(s, np.array(powers, dtype=np.int64), left, right, horizon)
        except WindowExceeded:  # a table walk left its declared window
            pass
        else:
            if not _beyond(min(window_cap, _INDEX_MAX), rows, cols) and np.isfinite(vals).all():
                # the moves are injective: a moved copy holds each key once
                return _sum_by_copy_key(s.count, MatrixStack._of(s._ends, rows, cols, vals, s._errors))
    kw = dict(horizon=horizon, window_cap=window_cap)
    copies = MatrixStack._of(s._ends, s._rows, s._cols, s._vals).split()  # a failed one empty
    return MatrixStack.of(
        s._errors.get(k) or _made(_moved_alone, a, p, left, right, **kw)
        for k, (a, p) in enumerate(zip(copies, powers))
    )


def _stack_moves(s, powers, left, right, horizon):
    """The rows, columns and values of stack s with the entries of copy k
    moved by left^powers[k] and right^powers[k] (``_stack_move``).  Each
    run of one row in a copy moves once, and so does each distinct column
    of a copy when a table of the (copy, col) pairs is at most half as long
    as the stack: a longer one costs about what it saves."""
    sizes = s._sizes()
    p = np.repeat(powers, sizes)
    # the rows of a copy are in order
    head = _run_starts(s._rows)
    head[s._ends[:-1][sizes > 0]] = True
    rows, ci = _stack_move(left, p[head], s._rows[head], "left", horizon=horizon)
    at = np.cumsum(head) - 1
    rows, vals = rows[at], s._vals if ci is None else s._vals * ci[at]
    if right is None or 2 * s.count * _span([s._cols])[1] > len(s._cols):
        # each entry moves
        cols, cj = _stack_move(right, p, s._cols, "right", horizon=horizon)
    else:
        copy, cols, at = _distinct_in_copies(s, s._cols)
        cols, cj = _stack_move(right, powers[copy], cols, "right", horizon=horizon)
        cols, cj = cols[at], None if cj is None else cj[at]
    return rows, cols, vals if cj is None else vals * cj


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

    A product that fails raises the error of the walk over the products:
    the least failed copy's first error.
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
    return stack.split()


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
