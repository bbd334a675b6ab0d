"""Structured operators on the two-sided integer lattice.

A bilateral weighted shift moves the basis vector e_j to w(j) e_{j+1} with a
strictly positive weight w(j); a permutation unitary relabels basis vectors
along a bijection of the index set.  Powers of either act on a single basis
vector as a monomial (one coefficient, one index), so products of shift powers
cut by the projection onto span{e_{-m}, ..., e_m} have operator norms that are
exact maxima of weight products along index paths.  Coefficients are
accumulated in the natural-log domain throughout because the products of
interest routinely span hundreds of orders of magnitude.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .errors import HorizonExceeded, WindowExceeded

#: Largest transport power any single operation will walk, unless overridden.
DEFAULT_HORIZON = 10_000


@dataclass(frozen=True)
class WeightRule:
    """Strictly positive weight w(j) attached to the hop e_j -> e_{j+1}.

    Two flavours: ``piecewise`` takes one constant for negative indices and
    one for nonnegative indices; ``explicit`` takes a finite table of
    exceptions over a constant default.
    """

    kind: str
    neg: float = 1.0
    nonneg: float = 1.0
    table: tuple[tuple[int, float], ...] = ()
    default: float = 1.0

    def __post_init__(self):
        if self.kind not in ("piecewise", "explicit"):
            raise ValueError(f"unknown weight rule kind {self.kind!r}")
        for w in self._all_weights():
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError("weights must be finite and strictly positive")
        table_map = dict(self.table)
        if len(table_map) != len(self.table):
            raise ValueError("duplicate index in explicit weight table")
        object.__setattr__(self, "_table_map", table_map)
        # log w(i) is the slope of its side of zero plus, for table entries
        # only, a departure from the default.  Prefix sums of the departures
        # make every log-weight sum O(log table); piecewise rules have no
        # table, so their sums are the two slope terms exactly.
        if self.kind == "piecewise":
            slopes, entries = (math.log(self.neg), math.log(self.nonneg)), []
        else:
            slopes = (math.log(self.default),) * 2
            entries = sorted(table_map.items())
        prefix = [0.0]
        for _, w in entries:
            prefix.append(prefix[-1] + (math.log(w) - slopes[0]))
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_keys", tuple(j for j, _ in entries))
        object.__setattr__(self, "_prefix", tuple(prefix))

    def _all_weights(self):
        if self.kind == "piecewise":
            return (self.neg, self.nonneg)
        return (self.default,) + tuple(w for _, w in self.table)

    @staticmethod
    def piecewise(neg: float, nonneg: float) -> "WeightRule":
        return WeightRule(kind="piecewise", neg=float(neg), nonneg=float(nonneg))

    @staticmethod
    def explicit(table, default: float = 1.0) -> "WeightRule":
        items = tuple(sorted((int(j), float(w)) for j, w in dict(table).items()))
        return WeightRule(kind="explicit", table=items, default=float(default))

    def weight(self, j: int) -> float:
        if self.kind == "piecewise":
            return self.neg if j < 0 else self.nonneg
        return self._table_map.get(j, self.default)


@dataclass(frozen=True)
class WeightedShift:
    """Bilateral forward weighted shift: e_j -> rule(j) e_{j+1}, or its
    adjoint, the backward shift e_j -> rule(j-1) e_{j-1}, when ``adjoint``.

    The inverse acts as e_j -> rule(j-1)^{-1} e_{j-1}; every signed power of
    either is realized by ``shift_power_apply``.
    """

    rule: WeightRule
    adjoint: bool = False

    def star(self) -> "WeightedShift":
        """The Hilbert adjoint: the same weights, walked the other way."""
        return WeightedShift(self.rule, not self.adjoint)


@dataclass(frozen=True)
class PermutationUnitary:
    """Basis relabeling e_j -> e_{pi(j)} for a bijection pi of the lattice.

    ``translation`` shifts every index by a fixed nonzero step.  ``table``
    stores the bijection explicitly over a declared window; iterating past
    the declared window is an error, never a silent extension.
    """

    kind: str
    t: int = 0
    table: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind == "translation":
            if self.t == 0:
                raise ValueError("translation step must be nonzero")
        elif self.kind == "table":
            forward = dict(self.table)
            if len(forward) != len(self.table):
                raise ValueError("duplicate source index in permutation table")
            values = list(forward.values())
            if len(set(values)) != len(values):
                raise ValueError("permutation table is not injective")
            object.__setattr__(self, "_forward", forward)
            object.__setattr__(self, "_inverse", {v: k for k, v in forward.items()})
        else:
            raise ValueError(f"unknown permutation kind {self.kind!r}")

    @staticmethod
    def translation(t: int) -> "PermutationUnitary":
        return PermutationUnitary(kind="translation", t=int(t))

    @staticmethod
    def from_table(mapping) -> "PermutationUnitary":
        items = tuple(sorted((int(a), int(b)) for a, b in dict(mapping).items()))
        return PermutationUnitary(kind="table", table=items)


@dataclass(frozen=True)
class MonomialVector:
    """A single-term vector exp(log_coeff) * e_index."""

    index: int
    log_coeff: float

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log_coeff)
        except OverflowError:
            return math.inf


def _log_weight_sum(rule: WeightRule, start: int, count: int) -> float:
    # Sum of log w(i) over the half-open index range [start, start + count).
    if count <= 0:
        return 0.0
    end = start + count
    neg = max(0, min(end, 0) - start)
    log_neg, log_nonneg = rule._slopes
    keys, prefix = rule._keys, rule._prefix
    return (
        neg * log_neg
        + (count - neg) * log_nonneg
        + (prefix[bisect_left(keys, end)] - prefix[bisect_left(keys, start)])
    )


def shift_power_apply(
    shift: WeightedShift, n: int, j: int, *, horizon: int = DEFAULT_HORIZON
) -> MonomialVector:
    """Apply W^n to e_j.

    Positive n walks the forward weights w(j) ... w(j+n-1); negative n walks
    the inverse weights 1/w(j-1) ... 1/w(j-|n|).  For an adjoint shift,
    (W^n)* e_j lands on e_{j-n} with the coefficient W^n picks up from
    e_{j-n}.  The coefficient is returned in the log domain.
    """
    if abs(n) > horizon:
        raise HorizonExceeded(f"shift power {n} exceeds horizon {horizon}")
    start = j - n if shift.adjoint else j
    if n >= 0:
        lg = _log_weight_sum(shift.rule, start, n)
    else:
        lg = -_log_weight_sum(shift.rule, start + n, -n)
    return MonomialVector(index=start if shift.adjoint else j + n, log_coeff=lg)


def shift_star_power_apply(
    shift: WeightedShift, n: int, j: int, *, horizon: int = DEFAULT_HORIZON
) -> MonomialVector:
    """Apply (W*)^n to e_j."""
    return shift_power_apply(shift.star(), n, j, horizon=horizon)


def unitary_power_apply(
    unitary: PermutationUnitary, n: int, j: int, *, horizon: int = DEFAULT_HORIZON
) -> int:
    """Return pi^n(j).  Table permutations iterate step by step and raise
    WindowExceeded as soon as an iterate leaves the declared window."""
    if abs(n) > horizon:
        raise HorizonExceeded(f"permutation power {n} exceeds horizon {horizon}")
    if unitary.kind == "translation":
        return j + n * unitary.t
    table = unitary._forward if n >= 0 else unitary._inverse
    cur = j
    for _ in range(abs(n)):
        if cur not in table:
            raise WindowExceeded(
                f"index {cur} left the declared permutation window"
            )
        cur = table[cur]
    return cur


def escape_index(
    unitary: PermutationUnitary, m: int, horizon: int
) -> int | None:
    """Least N <= horizon with pi^n([-m, m]) disjoint from [-m, m] for every
    n in [N, horizon], or None when no such N can be certified.

    Implements the definition directly: scan all iterate counts up to the
    horizon and take the step after the last one that still intersects.  A
    table permutation whose iterates leave the declared window before the
    horizon cannot be certified, so it also yields None.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    points = list(range(-m, m + 1))
    current = list(points)
    last_hit = 0
    for n in range(1, horizon + 1):
        try:
            current = [unitary_power_apply(unitary, 1, j, horizon=horizon) for j in current]
        except WindowExceeded:
            return None
        if any(-m <= x <= m for x in current):
            last_hit = n
    if last_hit == horizon:
        return None
    return last_hit + 1


@dataclass(frozen=True)
class ProductNorm:
    """Operator norm of a projected product of shift powers.

    ``log_value`` is exact in the log domain; ``value`` is its linear-domain
    image and may underflow to 0.0 or overflow to inf.  ``attained_at`` is the
    smallest start index achieving the maximum.
    """

    log_value: float
    attained_at: int

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


def _column_cut(
    factors: Sequence[tuple[WeightedShift, int]], m: int, *, horizon: int
) -> ProductNorm:
    # Largest coefficient of the operator product (leftmost factor outermost,
    # so the rightmost acts first) over the start indices [-m, m]; ties keep
    # the smallest start.
    if m < 0:
        raise ValueError("m must be nonnegative")
    walk = list(reversed(list(factors)))
    best_lg, best_j = -math.inf, -m
    for j in range(-m, m + 1):
        index, lg = j, 0.0
        for shift, p in walk:
            mono = shift_power_apply(shift, p, index, horizon=horizon)
            lg += mono.log_coeff
            index = mono.index
        if lg > best_lg:
            best_lg, best_j = lg, j
    return ProductNorm(log_value=best_lg, attained_at=best_j)


def monomial_product_norm(
    factors: Sequence[tuple[WeightedShift, int]],
    m: int,
    *,
    horizon: int = DEFAULT_HORIZON,
) -> ProductNorm:
    """Norm of (W_1^{p_1} ... W_r^{p_r}) P_m.

    The product of shift powers maps each basis vector to a single weighted
    basis vector, so the norm is the maximum absolute weight product over
    start indices j in [-m, m].  Ties resolve to the smallest start index.
    """
    return _column_cut(factors, m, horizon=horizon)


def monomial_product_norm_rowcut(
    factors: Sequence[tuple[WeightedShift, int]],
    m: int,
    *,
    horizon: int = DEFAULT_HORIZON,
) -> ProductNorm:
    """Norm of P_m (W_1^{p_1} ... W_r^{p_r}).

    By the mirror identity ||P_m X|| = ||X* P_m||, this is the column cut of
    the reversed chain of adjoint factors; ``attained_at`` is the row in
    [-m, m] where the maximum lands.
    """
    mirrored = [(shift.star(), p) for shift, p in reversed(list(factors))]
    return _column_cut(mirrored, m, horizon=horizon)
