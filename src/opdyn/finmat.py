"""Finite-rank operators as sparse real matrices over the integer lattice.

Entries live in a dict keyed by (row, col); everything downstream relies on
construction-time canonicalization (sorted keys, sub-denormal magnitudes
dropped) so that iteration order, and hence every accumulated float and every
serialized byte, is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConvergenceError, FormatError, NonFiniteEntry, WindowExceeded
from .lattice import (
    DEFAULT_HORIZON,
    PermutationUnitary,
    WeightedShift,
    shift_power_apply,
    unitary_power_apply,
)

#: Magnitudes below this are dropped at construction.
DROP_THRESHOLD = 1e-300

#: Transported indices beyond this magnitude abort instead of truncating.
DEFAULT_WINDOW_CAP = 1 << 20

FINMAT_HEADER = "finmat v1"


class FiniteMatrix:
    """Sparse real matrix indexed by pairs of (possibly negative) integers.

    Immutable by convention: no method mutates the entry dict after
    construction.  Scalars are IEEE doubles; non-finite entries are rejected.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        clean = {}
        if entries:
            for (i, j), v in dict(entries).items():
                v = float(v)
                if not math.isfinite(v):
                    raise NonFiniteEntry(f"non-finite entry at ({i}, {j})")
                if abs(v) < DROP_THRESHOLD:
                    continue
                clean[(int(i), int(j))] = v
        self._entries = dict(sorted(clean.items()))

    def entry(self, i: int, j: int) -> float:
        return self._entries.get((i, j), 0.0)

    def items(self) -> Iterator[tuple[tuple[int, int], float]]:
        return iter(self._entries.items())

    @property
    def nnz(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def row_indices(self) -> list[int]:
        return sorted({i for i, _ in self._entries})

    def col_indices(self) -> list[int]:
        return sorted({j for _, j in self._entries})

    def support_radius(self) -> int:
        if not self._entries:
            return 0
        return max(max(abs(i), abs(j)) for i, j in self._entries)

    def transpose(self) -> "FiniteMatrix":
        return FiniteMatrix({(j, i): v for (i, j), v in self._entries.items()})

    def __add__(self, other: "FiniteMatrix") -> "FiniteMatrix":
        out = dict(self._entries)
        for key, v in other._entries.items():
            out[key] = out.get(key, 0.0) + v
        return FiniteMatrix(out)

    def __sub__(self, other: "FiniteMatrix") -> "FiniteMatrix":
        out = dict(self._entries)
        for key, v in other._entries.items():
            out[key] = out.get(key, 0.0) - v
        return FiniteMatrix(out)

    def __neg__(self) -> "FiniteMatrix":
        return FiniteMatrix({k: -v for k, v in self._entries.items()})

    def __mul__(self, scalar: float) -> "FiniteMatrix":
        return FiniteMatrix({k: v * scalar for k, v in self._entries.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMatrix):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"FiniteMatrix(nnz={self.nnz})"


def unit(i: int, j: int, value: float = 1.0) -> FiniteMatrix:
    """Rank-one matrix with a single entry at (i, j)."""
    return FiniteMatrix({(i, j): value})


def projection_matrix(m: int) -> FiniteMatrix:
    """Orthogonal projection onto span{e_{-m}, ..., e_m} as a matrix."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return FiniteMatrix({(j, j): 1.0 for j in range(-m, m + 1)})


@dataclass(frozen=True)
class Projection:
    """Symbolic window projection P_m; idempotent and self-adjoint."""

    m: int

    def matrix(self) -> FiniteMatrix:
        return projection_matrix(self.m)


def compose(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """Matrix product a @ b."""
    b_rows: dict[int, list[tuple[int, float]]] = {}
    for (i, j), v in b.items():
        b_rows.setdefault(i, []).append((j, v))
    out: dict[tuple[int, int], float] = {}
    for (i, k), va in a.items():
        for j, vb in b_rows.get(k, ()):
            key = (i, j)
            out[key] = out.get(key, 0.0) + va * vb
    return FiniteMatrix(out)


def truncate_left(a: FiniteMatrix, m: int) -> FiniteMatrix:
    """P_m @ a: keep only the rows in [-m, m]."""
    return FiniteMatrix({(i, j): v for (i, j), v in a.items() if -m <= i <= m})


def truncate_right(a: FiniteMatrix, m: int) -> FiniteMatrix:
    """a @ P_m: keep only the columns in [-m, m]."""
    return FiniteMatrix({(i, j): v for (i, j), v in a.items() if -m <= j <= m})


def is_monomial(a: FiniteMatrix) -> bool:
    """True when every row and every column holds at most one nonzero."""
    rows, cols = set(), set()
    for (i, j), _ in a.items():
        if i in rows or j in cols:
            return False
        rows.add(i)
        cols.add(j)
    return True


def _dense_block(a: FiniteMatrix) -> np.ndarray:
    ri = {r: k for k, r in enumerate(a.row_indices())}
    ci = {c: k for k, c in enumerate(a.col_indices())}
    block = np.zeros((len(ri), len(ci)))
    for (i, j), v in a.items():
        block[ri[i], ci[j]] = v
    return block


def _singular_values(a: FiniteMatrix) -> np.ndarray:
    """Singular values of the support block, largest first (LAPACK gesdd)."""
    try:
        return np.linalg.svd(_dense_block(a), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD did not converge: {exc}") from exc


def op_norm(a: FiniteMatrix, *, use_fast_paths: bool = True) -> float:
    """Spectral norm: the largest singular value of the dense support block,
    computed by LAPACK.

    Monomial matrices short-circuit to the exact max-|coefficient| rule
    unless ``use_fast_paths`` is disabled.
    """
    if a.is_zero():
        return 0.0
    if use_fast_paths and is_monomial(a):
        return max(abs(v) for _, v in a.items())
    return float(_singular_values(a)[0])


def trace_norm(a: FiniteMatrix, *, use_fast_paths: bool = True) -> float:
    """Sum of singular values of the dense support block, computed by LAPACK.

    For a monomial matrix the columns are already orthogonal and the result
    is the exact sum of absolute coefficients.
    """
    if a.is_zero():
        return 0.0
    if use_fast_paths and is_monomial(a):
        return math.fsum(abs(v) for _, v in a.items())
    return math.fsum(_singular_values(a).tolist())


def _shift_move(shift, p, *, horizon):
    """Row move of W^p multiplied on the left."""

    def move(i):
        mono = shift_power_apply(shift, p, i, horizon=horizon)
        return mono.index, mono.value

    return move


def _unitary_move(unitary, p, *, horizon):
    """Row move of U^p multiplied on the left, with coefficient 1."""
    return lambda i: (unitary_power_apply(unitary, p, i, horizon=horizon), 1.0)


def _transport(a, left=None, right=None, *, window_cap):
    """The one entry loop: (i, j) -> (left(i), right(j)), scaled by both
    coefficients.  Each distinct row and column index moves once.

    A move sends an index to (new index, coefficient) and is injective, so
    entries never collide; None keeps that side's indices.  A factor X on
    the right moves columns as X^T moves rows (the weights are real): U^p
    on the right is the move of U^-p, and W^p that of (W*)^p, the move of
    ``W.star()``.
    """
    rows = {i: left(i) if left else (i, 1.0) for i in a.row_indices()}
    cols = {j: right(j) if right else (j, 1.0) for j in a.col_indices()}
    out: dict[tuple[int, int], float] = {}
    for (i, j), v in a.items():
        (i2, ci), (j2, cj) = rows[i], cols[j]
        if abs(i2) > window_cap or abs(j2) > window_cap:
            raise WindowExceeded(
                f"transported index {(i2, j2)} exceeds window cap {window_cap}"
            )
        out[(i2, j2)] = v * ci * cj
    return FiniteMatrix(out)


def shift_multiply(
    a: FiniteMatrix,
    shift: WeightedShift,
    p: int,
    side: str = "left",
    *,
    horizon: int = DEFAULT_HORIZON,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> FiniteMatrix:
    """Multiply by W^p on the given side by entry transport.

    Every entry moves to a single new position with an exact weight
    coefficient; no dense powers are ever formed.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    move = _shift_move(
        shift.star() if side == "right" else shift, p, horizon=horizon
    )
    return _transport(a, **{side: move}, window_cap=window_cap)


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
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    move = _unitary_move(unitary, p if side == "left" else -p, horizon=horizon)
    return _transport(a, **{side: move}, window_cap=window_cap)


def _shift_chain(a, factors, side, **kwargs) -> FiniteMatrix:
    """a multiplied on the given side by the product of the (shift, p)
    factors (leftmost outermost), one factor at a time."""
    for shift, p in reversed(factors) if side == "left" else factors:
        a = shift_multiply(a, shift, p, side, **kwargs)
    return a


def write_finmat(a: FiniteMatrix, fh) -> None:
    """Serialize in the 'finmat v1' text format.

    One entry per line as 'row col value' with the shortest decimal that
    round-trips the double bit-exactly.
    """
    fh.write(FINMAT_HEADER + "\n")
    for (i, j), v in a.items():
        fh.write(f"{i} {j} {v!r}\n")


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
        if not math.isfinite(v):
            raise FormatError(f"line {lineno}: non-finite value {parts[2]!r}")
        if (i, j) in entries:
            raise FormatError(f"line {lineno}: duplicate entry ({i}, {j})")
        entries[(i, j)] = v
    return FiniteMatrix(entries)


def save_finmat(a: FiniteMatrix, path) -> None:
    with open(path, "w", newline="") as fh:
        write_finmat(a, fh)


def load_finmat(path) -> FiniteMatrix:
    with open(path, "r") as fh:
        return read_finmat(fh)
