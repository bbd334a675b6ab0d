"""Two-sided multiplication operators F -> W F U and their joint orbits.

Powers act entrywise: under the WFU orientation the entry at (i, j) moves to
(i + p, pi^{-p}(j)) carrying the exact weight product picked up along the row
path, so arbitrarily high powers cost one transport per distinct row and
column index, both sides in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .finmat import (
    DEFAULT_WINDOW_CAP,
    FiniteMatrix,
    MatrixStack,
    _move,
    _transport,
    _transport_stack,
    op_norm,
)
from .lattice import DEFAULT_HORIZON, PermutationUnitary, WeightedShift

ORIENTATIONS = ("WFU", "UFW")


@dataclass(frozen=True)
class ElementaryOp:
    """Elementary operator F -> W F U (orientation WFU) or F -> U F W."""

    unitary: PermutationUnitary
    shift: WeightedShift
    orientation: str = "WFU"

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")


def apply_power(
    op: ElementaryOp,
    p: int | Sequence[int],
    f: FiniteMatrix | MatrixStack,
    *,
    horizon: int = DEFAULT_HORIZON,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> FiniteMatrix | MatrixStack:
    """T^p(F) by one-pass entry transport; negative p inverts the power.

    On a MatrixStack, ``p`` lists one power per copy, and copy k moves by
    T^p[k] in the one pass of all copies.  When a copy may fail, each copy
    moves alone, so the least copy that fails raises its own error.
    """
    if isinstance(f, MatrixStack):
        wfu = op.orientation == "WFU"
        left, right = (op.shift, op.unitary) if wfu else (op.unitary, op.shift)
        kwargs = dict(horizon=horizon, window_cap=window_cap)
        # one copy takes the one-matrix route, which does fewer array passes
        moved = _transport_stack(f, p, left, right, **kwargs) if f.count > 1 else None
        if moved is None:
            moved = MatrixStack.of([apply_power(op, q, x, **kwargs) for q, x in zip(p, f.split())])
        return moved
    if p == 0:
        return f
    wfu = op.orientation == "WFU"
    left = _move(op.shift if wfu else op.unitary, p, "left", horizon=horizon)
    right = _move(op.unitary if wfu else op.shift, p, "right", horizon=horizon)
    return _transport(f, left, right, window_cap=window_cap)


def orbit(
    ops: Sequence[tuple[ElementaryOp, int]],
    f: FiniteMatrix,
    n_max: int,
    *,
    horizon: int = DEFAULT_HORIZON,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> Iterator[tuple[int, int, FiniteMatrix]]:
    """Stream (n, l, T_l^{r_l n}(F)) for n = 0..n_max and each operator.

    Each power is transported directly from the seed (one exact weight sum
    per entry) rather than by repeated application, so coefficients do not
    accumulate round-off across n.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    for n in range(n_max + 1):
        for l, (op, r) in enumerate(ops, start=1):
            yield n, l, apply_power(
                op, r * n, f, horizon=horizon, window_cap=window_cap
            )


def orbit_distances(
    ops: Sequence[tuple[ElementaryOp, int]],
    f: FiniteMatrix,
    targets: Sequence[FiniteMatrix],
    n_max: int,
    *,
    horizon: int = DEFAULT_HORIZON,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> list[tuple[int, int, float]]:
    """Rows (n, l, ||T_l^{r_l n}(F) - target_l||) for n = 0..n_max."""
    if len(targets) != len(ops):
        raise ValueError("need one target per operator")
    rows = []
    for n, l, mat in orbit(ops, f, n_max, horizon=horizon, window_cap=window_cap):
        rows.append((n, l, op_norm(mat - targets[l - 1])))
    return rows


def write_orbit_csv(rows: Iterable[tuple[int, int, float]], fh) -> None:
    """CSV with header 'n,l,norm_distance'; 17 significant digits."""
    fh.write("n,l,norm_distance\n")
    for n, l, v in rows:
        fh.write(f"{n},{l},{v:.16e}\n")
